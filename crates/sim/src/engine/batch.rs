//! The batch runner: many trials of one `(instance, policy)` pair
//! through one warm epoch loop.
//!
//! A [`BatchRunner`] runs each trial through the same epoch loop as
//! [`super::execute`] (see [`super::events`]), keeping what `execute`
//! rebuilds per call alive across every trial and every [`run`] call:
//!
//! * **Shared eligibility topology** — the DAG's successor lists and
//!   indegrees ([`suu_core::EligibilityTopology`]) and every per-job
//!   column are built once per runner and reset per trial.
//! * **A shared plan cache** — a stationary policy's epoch plans
//!   ([`Policy::is_stationary`]: machine classification, per-job step
//!   mass and precomputed SUU segment constants, a pure function of the
//!   remaining set) are cached per distinct remaining set, keyed on its
//!   `u64` words, so `decide` runs once per remaining set instead of
//!   once per trial and epoch; hit/miss/eviction counters surface
//!   through [`BatchMetrics`]. A non-stationary policy decides at every
//!   epoch and never touches the cache.
//! * **Allocation-free steady state** — once warm, a run allocates only
//!   the returned outcomes.
//!
//! The runner carries a [`suu_core::profile::PhaseProfiler`] that buckets
//! the loop's wall time into decide / cache-lookup / sampling /
//! state-update / sweep phases, entered per epoch, for stationary and
//! non-stationary trials alike. It is off unless
//! [`BatchRunner::with_profile`] picks a mode, and off costs one branch
//! per phase transition.
//!
//! # Bitwise equality
//!
//! For every seed the runner's outcome is **bitwise identical** to
//! [`super::execute`] with that seed: a cached plan is exactly the plan
//! the epoch would have built, every epoch evaluates the same expressions
//! in the same order, and the counter-based `JobRandomness` streams make
//! the trials independent of each other. `tests/engine_differential.rs`
//! asserts the equality across every scenario family × registry policy
//! × both semantics.
//!
//! [`run`]: BatchRunner::run

use super::events::{EventEngine, PHASE_NAMES};
use super::{ExecConfig, ExecOutcome};
use crate::policy::Policy;
use suu_core::profile::{PhaseProfiler, ProfileMode, ProfileReport};
use suu_core::SuuInstance;

/// Seeds for one trial of a batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchTrial {
    /// Seed of the engine's per-job randomness streams.
    pub engine_seed: u64,
    /// Seed handed to [`Policy::reseed`] before the trial, if any.
    /// Ignored for a stationary policy (stationary policies have no
    /// internal randomness by contract).
    pub policy_seed: Option<u64>,
}

/// Aggregate counters of a [`BatchRunner`], cumulative across its `run`
/// calls; the bench harness embeds them per cell (schema
/// `suu-bench/engine-batch/v2`).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchMetrics {
    /// Trials of a stationary policy, which share the plan cache.
    pub stationary_trials: u64,
    /// Trials of a non-stationary policy, which decide at every epoch.
    pub fallback_trials: u64,
    /// Plan-cache probes answered from the cache.
    pub cache_hits: u64,
    /// Probes that built (and inserted) a fresh plan.
    pub cache_misses: u64,
    /// Plans discarded by capacity wipes.
    pub cache_evictions: u64,
    /// Plans currently cached.
    pub cache_entries: u64,
    /// Phase breakdown, when the profiler is enabled.
    pub profile: Option<ProfileReport>,
}

/// A reusable batched executor for one `(instance, policy)` pair: owns
/// the epoch loop's state (eligibility topology, per-job columns, plan
/// cache, phase profiler), all persistent across [`run`] calls so
/// chunked streaming reuses every allocation and stays warm in the plan
/// cache.
///
/// The plan cache is keyed only by remaining set, so a runner must not be
/// reused across *different* stationary policies (asserted by policy
/// name on every stationary run).
///
/// [`run`]: BatchRunner::run
pub struct BatchRunner<'i> {
    engine: EventEngine<'i>,
    policy_name: Option<String>,
    stationary_trials: u64,
    fallback_trials: u64,
}

impl<'i> BatchRunner<'i> {
    /// Runner for `inst` under `cfg`, unprofiled
    /// ([`BatchRunner::with_profile`] picks a mode).
    pub fn new(inst: &'i SuuInstance, cfg: &ExecConfig) -> Self {
        BatchRunner {
            engine: EventEngine::new(inst, cfg),
            policy_name: None,
            stationary_trials: 0,
            fallback_trials: 0,
        }
    }

    /// Builder-style profiler mode (the default is [`ProfileMode::Off`]).
    pub fn with_profile(mut self, mode: ProfileMode) -> Self {
        self.engine.profiler = PhaseProfiler::new(PHASE_NAMES, mode);
        self
    }

    /// Builder-style plan-cache capacity override (plans, not bytes).
    /// A miss that finds the cache at the cap wipes it first.
    pub fn with_plan_cap(mut self, cap: usize) -> Self {
        self.engine.cache.cap = cap.max(1);
        self
    }

    /// Drop every cached plan between `run` calls, keeping the cache's
    /// allocations and its counters. Plans are a pure function of the
    /// remaining set, so this never changes an outcome; it bounds how
    /// long a long-lived runner holds plans (the evaluator clears once
    /// per adaptive rung).
    pub(crate) fn clear_plans(&mut self) {
        self.engine.cache.clear();
    }

    /// Cumulative counters (and profile, if enabled) since construction.
    pub fn metrics(&self) -> BatchMetrics {
        let cache = &self.engine.cache;
        let profiler = &self.engine.profiler;
        BatchMetrics {
            stationary_trials: self.stationary_trials,
            fallback_trials: self.fallback_trials,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_entries: cache.len() as u64,
            profile: profiler.is_enabled().then(|| profiler.report()),
        }
    }

    /// Execute one trial per entry of `trials`, returning outcomes in
    /// trial order.
    ///
    /// Each trial runs through the epoch loop against the runner's warm
    /// state; a stationary policy's trials share the plan cache, a
    /// non-stationary policy is reseeded per trial and decides at every
    /// epoch. Memory beyond the outcomes is `O(n)` plus the plan cache,
    /// whatever the batch size.
    pub fn run(&mut self, policy: &mut dyn Policy, trials: &[BatchTrial]) -> Vec<ExecOutcome> {
        if trials.is_empty() {
            return Vec::new();
        }
        let stationary = policy.is_stationary();
        if stationary {
            match &self.policy_name {
                Some(name) => assert_eq!(
                    name,
                    policy.name(),
                    "BatchRunner reused across different policies: the plan \
                     cache is only valid for the policy it was filled by"
                ),
                None => self.policy_name = Some(policy.name().to_string()),
            }
            self.stationary_trials += trials.len() as u64;
        } else {
            self.fallback_trials += trials.len() as u64;
        }
        let outcomes = trials
            .iter()
            .map(|trial| {
                if let Some(seed) = trial.policy_seed.filter(|_| !stationary) {
                    policy.reseed(seed);
                }
                self.engine.run_trial(policy, trial.engine_seed, stationary)
            })
            .collect();
        self.engine.profiler.finish();
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::events::PH_SAMPLE;
    use crate::engine::{execute, Semantics};
    use crate::policy::{Assignment, Decision, StateView};
    use suu_core::{workload, JobId, Precedence};

    /// Stationary: machines spread over the eligible set by rank.
    struct Spread;
    impl Policy for Spread {
        fn name(&self) -> &str {
            "spread"
        }
        fn reset(&mut self) {}
        fn decide(&mut self, view: &StateView<'_>, out: &mut Assignment) -> Decision {
            let eligible: Vec<u32> = view.eligible.iter().collect();
            if !eligible.is_empty() {
                for i in 0..view.m {
                    out.set(i, JobId(eligible[i % eligible.len()]));
                }
            }
            Decision::HOLD
        }
        fn is_stationary(&self) -> bool {
            true
        }
    }

    /// Non-stationary: rotates assignments every step.
    struct Rotate;
    impl Policy for Rotate {
        fn name(&self) -> &str {
            "rotate"
        }
        fn reset(&mut self) {}
        fn decide(&mut self, view: &StateView<'_>, out: &mut Assignment) -> Decision {
            let eligible: Vec<u32> = view.eligible.iter().collect();
            if !eligible.is_empty() {
                for i in 0..view.m {
                    let idx = (i as u64 + view.time) as usize % eligible.len();
                    out.set(i, JobId(eligible[idx]));
                }
            }
            Decision::step(view)
        }
    }

    fn seeds(count: usize, base: u64) -> Vec<BatchTrial> {
        (0..count)
            .map(|k| BatchTrial {
                engine_seed: crate::evaluate::derive_seed(base, k as u64, 0x45),
                policy_seed: None,
            })
            .collect()
    }

    #[test]
    fn stationary_batch_matches_per_trial_events_bitwise() {
        use rand::SeedableRng;
        let mut grng = rand::rngs::SmallRng::seed_from_u64(3);
        let dag = suu_dag::Dag::from_edges(7, &[(0, 2), (1, 2), (2, 5), (3, 6)]);
        let inst = workload::uniform_unrelated(3, 7, 0.2, 0.95, Precedence::Dag(dag), &mut grng);
        for semantics in [Semantics::Suu, Semantics::SuuStar] {
            let cfg = ExecConfig {
                semantics,
                ..ExecConfig::default()
            };
            let trials = seeds(32, 0xBA7C);
            let batched = BatchRunner::new(&inst, &cfg).run(&mut Spread, &trials);
            let reference: Vec<ExecOutcome> = trials
                .iter()
                .map(|t| execute(&inst, &mut Spread, &cfg, t.engine_seed))
                .collect();
            assert_eq!(batched, reference, "{semantics:?}");
        }
    }

    #[test]
    fn non_stationary_fallback_matches_per_trial() {
        let inst = workload::homogeneous(2, 5, 0.5, Precedence::Independent);
        let cfg = ExecConfig::default();
        let trials = seeds(16, 0xF0);
        let batched = BatchRunner::new(&inst, &cfg).run(&mut Rotate, &trials);
        let reference: Vec<ExecOutcome> = trials
            .iter()
            .map(|t| execute(&inst, &mut Rotate, &cfg, t.engine_seed))
            .collect();
        assert_eq!(batched, reference);
    }

    #[test]
    fn step_cap_trials_report_incomplete() {
        // One job making ~1e-8 mass per step: no trial can complete
        // within 50 steps, so every trial must hit the cap with identical
        // accounting to the per-trial engine.
        let inst = workload::homogeneous(2, 1, 0.999_999_99, Precedence::Independent);
        let cfg = ExecConfig {
            max_steps: 50,
            ..ExecConfig::default()
        };
        let trials = seeds(4, 7);
        let batched = BatchRunner::new(&inst, &cfg).run(&mut Spread, &trials);
        let reference: Vec<ExecOutcome> = trials
            .iter()
            .map(|t| execute(&inst, &mut Spread, &cfg, t.engine_seed))
            .collect();
        assert_eq!(batched, reference);
        for o in &batched {
            assert!(!o.completed);
            assert_eq!(o.makespan, 50);
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let inst = workload::homogeneous(2, 2, 0.5, Precedence::Independent);
        let out = BatchRunner::new(&inst, &ExecConfig::default()).run(&mut Spread, &[]);
        assert!(out.is_empty());
    }

    #[test]
    fn runner_reuse_across_chunks_matches_one_shot() {
        // Chunked execution through one warm runner (cache + scratch
        // reused) must equal per-chunk one-shot runners bitwise, and the
        // metrics must show the cache carrying over.
        use rand::SeedableRng;
        let mut grng = rand::rngs::SmallRng::seed_from_u64(11);
        let inst = workload::uniform_unrelated(3, 9, 0.3, 0.9, Precedence::Independent, &mut grng);
        let cfg = ExecConfig::default();
        let trials = seeds(24, 0xC0FFEE);
        let mut runner = BatchRunner::new(&inst, &cfg);
        let mut warm: Vec<ExecOutcome> = Vec::new();
        for chunk in trials.chunks(8) {
            warm.extend(runner.run(&mut Spread, chunk));
        }
        let one_shot = BatchRunner::new(&inst, &cfg).run(&mut Spread, &trials);
        assert_eq!(warm, one_shot);
        let metrics = runner.metrics();
        assert_eq!(metrics.stationary_trials, 24);
        assert_eq!(metrics.fallback_trials, 0);
        assert!(metrics.cache_hits > 0, "warm chunks must hit the cache");
        assert_eq!(metrics.cache_entries, metrics.cache_misses);
        assert_eq!(metrics.cache_evictions, 0);

        // Dropping the plans empties the cache, keeps the counters and
        // changes no outcome.
        runner.clear_plans();
        assert_eq!(runner.metrics().cache_entries, 0);
        assert_eq!(runner.run(&mut Spread, &trials), one_shot);
        let rerun = runner.metrics();
        assert_eq!(
            rerun.cache_misses,
            metrics.cache_misses + rerun.cache_entries
        );
        assert_eq!(rerun.cache_evictions, 0);
    }

    #[test]
    fn tiny_plan_cap_evicts_but_stays_bitwise() {
        // A full cache is wiped at a miss in the middle of a trial. A cap
        // of 3 wipes every few epochs; a cap of 12 (more than one trial's
        // 10 plans) also lets later trials hit plans, with their cached
        // SUU `GeomSegment`s, between wipes. Neither may show in an
        // outcome.
        use rand::SeedableRng;
        let mut grng = rand::rngs::SmallRng::seed_from_u64(5);
        let inst = workload::uniform_unrelated(2, 10, 0.3, 0.9, Precedence::Independent, &mut grng);
        let trials = seeds(16, 0xE71C);
        for semantics in [Semantics::Suu, Semantics::SuuStar] {
            let cfg = ExecConfig {
                semantics,
                ..ExecConfig::default()
            };
            let reference: Vec<ExecOutcome> = trials
                .iter()
                .map(|t| execute(&inst, &mut Spread, &cfg, t.engine_seed))
                .collect();
            for cap in [3, 12] {
                let mut runner = BatchRunner::new(&inst, &cfg).with_plan_cap(cap);
                assert_eq!(
                    runner.run(&mut Spread, &trials),
                    reference,
                    "{semantics:?}, cap {cap}"
                );
                let metrics = runner.metrics();
                assert!(metrics.cache_evictions > 0, "{semantics:?}, cap {cap}");
                assert!(metrics.cache_entries <= cap as u64);
                if cap == 12 {
                    assert!(metrics.cache_hits > 0, "{semantics:?}");
                }
            }
        }
    }

    #[test]
    fn profiler_enabled_produces_phase_breakdown() {
        use suu_core::profile::ProfileMode;
        let inst = workload::homogeneous(2, 6, 0.5, Precedence::Independent);
        let cfg = ExecConfig::default();
        let trials = seeds(12, 0xFACE);
        let mut runner = BatchRunner::new(&inst, &cfg).with_profile(ProfileMode::Exact);
        let profiled = runner.run(&mut Spread, &trials);
        let plain = BatchRunner::new(&inst, &cfg).run(&mut Spread, &trials);
        assert_eq!(profiled, plain, "profiling must not perturb outcomes");
        let report = runner.metrics().profile.expect("profiler enabled");
        assert!(report.total_nanos() > 0);
        let names: Vec<&str> = report.phases.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            vec![
                "decide",
                "cache-lookup",
                "sampling",
                "state-update",
                "sweep"
            ]
        );
        let sampling = &report.phases[PH_SAMPLE];
        assert!(sampling.enters > 0, "sampling phase entered");
    }

    #[test]
    #[should_panic(expected = "different policies")]
    fn runner_rejects_policy_switch() {
        let inst = workload::homogeneous(2, 3, 0.5, Precedence::Independent);
        let cfg = ExecConfig::default();
        let trials = seeds(2, 1);
        /// Second stationary policy with a different name.
        struct Idle;
        impl Policy for Idle {
            fn name(&self) -> &str {
                "idle"
            }
            fn reset(&mut self) {}
            fn decide(&mut self, _view: &StateView<'_>, _out: &mut Assignment) -> Decision {
                Decision::HOLD
            }
            fn is_stationary(&self) -> bool {
                true
            }
        }
        let mut runner = BatchRunner::new(&inst, &cfg);
        let _ = runner.run(&mut Spread, &trials);
        let _ = runner.run(&mut Idle, &trials);
    }

    #[test]
    #[should_panic(expected = "declared is_stationary but requested a wake-up")]
    fn stationary_policy_may_not_request_a_wake_up() {
        /// Claims stationarity, yet asks to be woken every step.
        struct Restless;
        impl Policy for Restless {
            fn name(&self) -> &str {
                "restless"
            }
            fn reset(&mut self) {}
            fn decide(&mut self, view: &StateView<'_>, out: &mut Assignment) -> Decision {
                Spread.decide(view, out);
                Decision::wake_at(view.time + 1)
            }
            fn is_stationary(&self) -> bool {
                true
            }
        }
        let inst = workload::homogeneous(2, 3, 0.5, Precedence::Independent);
        let _ = BatchRunner::new(&inst, &ExecConfig::default()).run(&mut Restless, &seeds(2, 1));
    }
}
