//! The `Policy` trait: schedules as algorithms, consulted at *decision
//! epochs*.
//!
//! The paper defines a schedule as a function `Σ : (history, t) → (M → J ∪
//! {⊥})`. Policies here are the executable form — but unlike the original
//! per-step `assign` contract, the engine now consults a policy only when
//! something it can observe has changed:
//!
//! * at time 0,
//! * whenever a job completes (the eligible set — the only state a policy
//!   may observe — changes exactly then), and
//! * at a wake-up time the policy itself declared in its previous
//!   [`Decision`].
//!
//! Between decision epochs the returned [`Assignment`] is **held fixed**,
//! which is what lets the event engine jump from event to event instead of
//! simulating every unit step. The contract a policy must uphold is
//! therefore: *had it been consulted at any step between two epochs, it
//! would have returned the same row and an equivalent wake-up*. Policies
//! whose output genuinely varies per step (e.g. a rotating round-robin)
//! declare `next_wakeup = time + 1` and degrade gracefully to dense
//! pacing.
//!
//! `decide` writes into a caller-owned [`Assignment`] buffer (cleared by
//! the engine before each call) instead of allocating a `Vec<Option<JobId>>`
//! per step — the policy API is allocation-free on the hot path.
//!
//! Crucially, a policy never sees the hidden `r_j` draws or accrued
//! masses: schedules must be oblivious to them (Appendix A), and the type
//! system enforces that here.

use suu_core::BitSet;

pub use suu_core::exec::Assignment;

/// What a policy may observe at a decision epoch.
#[derive(Debug)]
pub struct StateView<'a> {
    /// Current timestep (0-based; the assignment returned executes from
    /// this step until the next decision epoch).
    pub time: u64,
    /// Completion events so far ([`suu_core::EligibilityState::epoch`]).
    /// Two views with equal epochs see identical remaining/eligible sets,
    /// so policies can key caches off this instead of diffing bitsets.
    pub epoch: u64,
    /// Jobs not yet completed.
    pub remaining: &'a BitSet,
    /// Jobs eligible to run (all predecessors complete, not themselves
    /// complete).
    pub eligible: &'a BitSet,
    /// Number of jobs.
    pub n: usize,
    /// Number of machines.
    pub m: usize,
}

/// What a policy tells the engine beyond the assignment row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Decision {
    /// Absolute time at which the policy wants to be consulted again even
    /// if no job completes first. `None` means *hold*: the assignment
    /// stays valid until the eligible set changes. Values `≤ time` are
    /// clamped to `time + 1` by the engine.
    pub next_wakeup: Option<u64>,
}

impl Decision {
    /// Hold the assignment until the eligible set changes — the right
    /// decision for any policy that is a pure function of the
    /// remaining/eligible sets (gang, greedy matchings, exact OPT).
    pub const HOLD: Decision = Decision { next_wakeup: None };

    /// Wake at an absolute time `t` (or at the next completion, whichever
    /// comes first).
    #[inline]
    pub fn wake_at(t: u64) -> Decision {
        Decision {
            next_wakeup: Some(t),
        }
    }

    /// Legacy per-step pacing: wake at the very next step. Turns the event
    /// engine into a dense stepper for this policy — correct for policies
    /// whose output varies every step, but forfeits fast-forwarding.
    #[inline]
    pub fn step(view: &StateView<'_>) -> Decision {
        Decision {
            next_wakeup: Some(view.time + 1),
        }
    }
}

/// A schedule, in executable form.
///
/// Implementations may keep internal state across epochs (semioblivious
/// rounds, chain pointers, …); [`Policy::reset`] is called once before each
/// execution so a single policy value can be reused across trials. A
/// stateful policy advancing with time must derive progress from
/// `view.time` (the engine may consult it *earlier* than its declared
/// wake-up when a completion intervenes, and — in the dense oracle — at
/// every step).
pub trait Policy: Send {
    /// Human-readable name (used in experiment tables).
    fn name(&self) -> &str;

    /// Re-initialize internal state for a fresh execution.
    fn reset(&mut self);

    /// Re-seed any *internal* randomness (e.g. `SUU-C`'s Theorem-7 start
    /// delays) from a trial-specific seed. Deterministic policies ignore
    /// this. The parallel evaluator calls it before every trial so that a
    /// trial's outcome depends only on the master seed and trial index —
    /// never on which worker thread previously used the policy value.
    fn reseed(&mut self, _seed: u64) {}

    /// Choose a job (or idle) for every machine, writing into `out`
    /// (pre-cleared to all-idle by the engine), and say when to be
    /// consulted next.
    ///
    /// Entries pointing at completed jobs are treated as idle (the paper
    /// allows schedules to assign completed jobs; the machine simply
    /// rests). Entries pointing at ineligible jobs are also idled but
    /// counted as violations in the execution outcome, since the paper
    /// forbids running ineligible jobs.
    fn decide(&mut self, view: &StateView<'_>, out: &mut Assignment) -> Decision;

    /// Capability flag: `true` if this schedule is **stationary** — its
    /// `decide` is a pure function of the remaining/eligible sets (no
    /// dependence on `view.time`/`view.epoch`, no internal state evolving
    /// across epochs, no internal randomness) and it always returns
    /// [`Decision::HOLD`].
    ///
    /// The batched trial engine uses this to share one `decide` across
    /// every trial of a batch that observes the same remaining set (one
    /// call at epoch 0 serves the whole batch), which is only sound under
    /// exactly this contract. Declaring it falsely silently breaks the
    /// batched-vs-per-trial bitwise-equality guarantee, so leave the
    /// default `false` unless all three conditions hold.
    fn is_stationary(&self) -> bool {
        false
    }
}

/// Blanket impl so `Box<dyn Policy>` is itself a policy.
impl Policy for Box<dyn Policy> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn reseed(&mut self, seed: u64) {
        (**self).reseed(seed)
    }

    fn decide(&mut self, view: &StateView<'_>, out: &mut Assignment) -> Decision {
        (**self).decide(view, out)
    }

    fn is_stationary(&self) -> bool {
        (**self).is_stationary()
    }
}
