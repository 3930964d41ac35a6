//! The execution core: decision epochs, the event engine, its dense
//! test oracle, and the shared randomness substrate that keeps the two
//! bitwise-identical.
//!
//! # Decision epochs
//!
//! A policy's observable state (the remaining/eligible sets of
//! [`crate::StateView`]) changes only when a job completes, so the engine
//! consults the policy only at *decision epochs* — time 0, every
//! completion, and any wake-up time the policy declared — and holds the
//! returned assignment fixed in between. Two loops implement these
//! semantics:
//!
//! * [`events`] is the one production loop: [`execute`] runs one trial
//!   through it, and [`batch::BatchRunner`] runs every trial of a cell
//!   through it against one warm state, sharing a stationary policy's
//!   epoch plans through a plan cache. It jumps straight from epoch to
//!   epoch: for each running job it computes the exact step at which
//!   accrued mass crosses the hidden threshold (SUU*) or samples a
//!   geometric completion time (SUU), then advances `t` by the minimum.
//!   Cost: `O(#events · m)` rather than `O(makespan · m)`.
//! * [`dense`] steps every unit timestep, consulting the policy each step
//!   — the test oracle, called directly as [`dense::execute_dense`]. It
//!   exists to *prove* the event engine right: with the same seed both
//!   must produce identical [`ExecOutcome`]s, which
//!   `tests/engine_differential.rs` asserts across every scenario family
//!   and both semantics.
//!
//! # Why fast-forwarding is distribution-exact
//!
//! Theorem 10 of the paper shows SUU and SUU* induce identical execution
//! histories. SUU* is trivially skippable: the hidden threshold
//! `−log₂ r_j` is drawn up front and the crossing step of the linear
//! accrual `base + k·µ` has a closed form. SUU draws a fresh coin per
//! step, but per-step Bernoulli(p) failures over a segment of *constant*
//! per-step mass µ form a geometric distribution with `p = 1 − 2^(−µ)`,
//! and the geometric is memoryless — so sampling one inversion per
//! segment (re-sampling at the next epoch if the job survives) is exactly
//! equivalent to flipping every coin.
//!
//! # Shared randomness
//!
//! Both engines draw from counter-based per-job streams derived from the
//! trial seed (see `JobRandomness`): SUU* consumes one threshold draw
//! per job, SUU one coin per job per *segment*. Segments are delimited by
//! decision epochs in both engines, so the streams advance in lockstep —
//! the foundation of the bitwise-equality guarantee and of
//! `suu-results/v2` reproducibility.

pub mod batch;
pub mod dense;
pub mod events;
pub mod sampling;

pub use events::execute;
pub(crate) use sampling::{geometric_steps, star_steps, NEVER};

use crate::evaluate::derive_seed;

/// Which formulation's randomness to simulate.
///
/// Both are faithful to the paper; Theorem 10 proves they induce the same
/// distribution over execution histories. `SuuStar` is cheaper (one uniform
/// draw per job) and is the default for experiments; `Suu` draws a coin per
/// job-segment and exists to validate the equivalence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Semantics {
    /// Per-step Bernoulli failures with probability `∏ q_ij`, realized as
    /// one geometric draw per constant-mass segment (memorylessness makes
    /// the two samplings identical in distribution).
    Suu,
    /// Deferred decisions: hidden threshold `−log₂ r_j` per job, job
    /// completes when accrued log mass crosses it.
    SuuStar,
}

impl Semantics {
    /// Wire spelling (requests, checkpoints, cell keys): `"suu"` or
    /// `"suu-star"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Semantics::Suu => "suu",
            Semantics::SuuStar => "suu-star",
        }
    }

    /// Inverse of [`Semantics::as_str`].
    pub fn parse(s: &str) -> Option<Semantics> {
        [Semantics::Suu, Semantics::SuuStar]
            .into_iter()
            .find(|v| v.as_str() == s)
    }
}

/// Execution parameters.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Randomness model.
    pub semantics: Semantics,
    /// Hard step cap: executions that exceed it return
    /// `completed = false`. Guards against non-terminating policies.
    pub max_steps: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            semantics: Semantics::SuuStar,
            max_steps: 10_000_000,
        }
    }
}

/// What happened during one execution.
///
/// The three machine-step counters partition every machine-step:
/// `busy_steps + idle_steps + ineligible_assignments == m · makespan`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Steps until the last job completed (valid when `completed`).
    pub makespan: u64,
    /// `false` if `max_steps` was hit first.
    pub completed: bool,
    /// Machine-steps spent on eligible, uncompleted jobs.
    pub busy_steps: u64,
    /// Machine-steps the policy pointed at completed jobs (allowed; the
    /// machine idles) or left idle.
    pub idle_steps: u64,
    /// Machine-steps the policy pointed at *ineligible* jobs (a schedule
    /// bug: the paper forbids this; the engine idles the machine and
    /// counts it here).
    pub ineligible_assignments: u64,
    /// Completion step per job (`u64::MAX` if never completed).
    pub completion_time: Vec<u64>,
}

/// Domain tag separating threshold draws from everything else.
const THRESHOLD_DOMAIN: u64 = 0x7B;
/// Domain tag for per-segment completion coins.
const COIN_DOMAIN: u64 = 0xC0;

/// Counter-based per-job randomness streams for one trial.
///
/// Stateless by design: draw `k` of job `j` is a pure function of
/// `(trial seed, j, k)`, so the two engines consume identical randomness
/// no matter in which order they interleave jobs, and skipped steps cost
/// nothing.
pub(crate) struct JobRandomness {
    seed: u64,
}

impl JobRandomness {
    pub(crate) fn new(seed: u64) -> Self {
        JobRandomness { seed }
    }

    /// SUU*: the hidden threshold `−log₂ r_j`, with `r_j` uniform in
    /// `(0, 1]` (never 0, so the threshold is finite).
    pub(crate) fn threshold(&self, j: u32) -> f64 {
        let z = derive_seed(self.seed, j as u64, THRESHOLD_DOMAIN);
        let u = ((z >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
        -u.log2()
    }

    /// SUU: the `draw`-th segment coin of job `j`, uniform in `[0, 1)`.
    pub(crate) fn coin(&self, j: u32, draw: u32) -> f64 {
        let z = derive_seed(
            derive_seed(self.seed, j as u64, COIN_DOMAIN),
            draw as u64,
            COIN_DOMAIN,
        );
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Normalize a policy's requested wake-up: values `≤ now` mean "next
/// step" (guaranteeing progress), `None` stays "hold until an event".
pub(crate) fn clamp_wake(wake: Option<u64>, now: u64) -> Option<u64> {
    wake.map(|w| w.max(now + 1))
}

#[cfg(test)]
mod sampler_tests {
    use super::*;

    #[test]
    fn geometric_inversion_matches_survival_function() {
        // P(T > k) = fail^k: check the inversion at the exact quantile
        // boundaries for mass 1 (fail = 1/2).
        assert_eq!(geometric_steps(0.0, 1.0), 1);
        assert_eq!(geometric_steps(0.49, 1.0), 1);
        assert_eq!(geometric_steps(0.51, 1.0), 2);
        assert_eq!(geometric_steps(0.76, 1.0), 3);
        // Infinite mass: always one step. Zero-ish mass: never.
        assert_eq!(geometric_steps(0.5, f64::INFINITY), 1);
        assert_eq!(geometric_steps(0.5, 1e-300), NEVER);
    }

    #[test]
    fn star_steps_is_first_crossing() {
        // base 0, threshold 2.5, mass 1: crosses at k = 3.
        assert_eq!(star_steps(0.0, 2.5, 1.0), 3);
        // Already nearly there.
        assert_eq!(star_steps(2.4, 2.5, 1.0), 1);
        // Exact landing counts as crossed (>=).
        assert_eq!(star_steps(0.0, 3.0, 1.0), 3);
        assert_eq!(star_steps(0.0, 2.0, f64::INFINITY), 1);
        // Consistency with the per-step rule on awkward floats.
        for &(base, thr, mass) in &[
            (0.1, 7.3, 0.3),
            (0.0, 52.9, 1e-3),
            (1.0, 1.0000000001, 0.1),
            (0.0, 1e-9, 5.0),
        ] {
            let k = star_steps(base, thr, mass);
            assert!(base + k as f64 * mass >= thr);
            if k > 1 {
                assert!(base + (k - 1) as f64 * mass < thr);
            }
        }
    }

    #[test]
    fn thresholds_are_finite_and_nonnegative() {
        let rnd = JobRandomness::new(0xABCD);
        for j in 0..100 {
            let th = rnd.threshold(j);
            assert!(th.is_finite() && th >= 0.0);
        }
    }

    #[test]
    fn coins_depend_on_job_and_draw() {
        let rnd = JobRandomness::new(7);
        assert_ne!(rnd.coin(0, 0), rnd.coin(0, 1));
        assert_ne!(rnd.coin(0, 0), rnd.coin(1, 0));
        let again = JobRandomness::new(7);
        assert_eq!(rnd.coin(3, 5), again.coin(3, 5), "streams are pure");
    }

    #[test]
    fn clamp_wake_guards_progress() {
        assert_eq!(clamp_wake(Some(3), 10), Some(11));
        assert_eq!(clamp_wake(Some(12), 10), Some(12));
        assert_eq!(clamp_wake(None, 10), None);
    }
}
