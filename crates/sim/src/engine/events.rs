//! The event-driven execution core: one epoch loop that jumps from
//! decision epoch to decision epoch, for every trial of every engine
//! entry point.
//!
//! At each epoch the loop gets a *plan* — the machine classification
//! under the held assignment plus the running jobs and their per-step
//! mass — and computes the *next event* directly:
//!
//! * **SUU\***: the crossing step of the linear accrual
//!   `accrued + k·µ ≥ threshold` has a closed form
//!   (`⌈(threshold − accrued)/µ⌉`, fixed up for float rounding);
//! * **SUU**: a geometric completion time is sampled by inversion from
//!   one per-segment coin (`p = 1 − 2^(−µ)` per step; memorylessness
//!   makes re-sampling at the next epoch distribution-exact);
//!
//! then `t` advances by the minimum over running jobs and the policy's
//! declared wake-up. Machine-step accounting is multiplied by the span,
//! so the returned [`ExecOutcome`] is **identical** — bitwise, including
//! counters and completion times — to what the dense oracle produces
//! from the same seed, at `O(#events · m)` instead of
//! `O(makespan · m)` cost.
//!
//! # Plans and the plan cache
//!
//! A stationary policy ([`Policy::is_stationary`]) returns the same row
//! for every trial at the same remaining set and never asks for a
//! wake-up, so its plan is a pure function of the remaining set. When
//! the caller shares plans across trials (the batch runner does, for a
//! stationary policy), an epoch first probes the `PlanCache`: a
//! [`suu_core::WordMap`] keyed on the remaining set's `u64` words (FNV-1a
//! over the words, inline word compare, nothing cloned or hashed on a
//! hit) over flat arenas of plans and running jobs. A hit skips `decide`
//! and the classification; under SUU a cached plan also carries each
//! running job's [`GeomSegment`], so the `exp2`/`ln` are paid once per
//! plan instead of once per trial. A miss decides, classifies and
//! inserts. Reaching the cap (`DEFAULT_PLAN_CAP` plans) wipes the
//! whole cache at the next miss; a plan's running jobs are borrowed for
//! one epoch only, so the wipe never pulls a plan from under the loop.
//!
//! An unshared epoch — every epoch of [`execute`] and of a
//! non-stationary policy — decides and classifies into the arena's tail
//! and truncates it when the epoch ends, so it never touches the map.
//! The expressions evaluated are the same either way: a cached plan is
//! exactly the plan the epoch would have built.
//!
//! All per-trial working memory lives in an `EventEngine`: [`execute`]
//! builds a fresh one, while the batch runner keeps one across every
//! trial it runs, so the precedence DAG, eligibility topology and
//! per-job columns are built once instead of once per trial. The
//! engine's profiler is off unless the batch runner picks a mode; off,
//! each phase transition is one branch.

use super::sampling::GeomSegment;
use super::{clamp_wake, star_steps, ExecConfig, ExecOutcome, JobRandomness};
use super::{Semantics, NEVER};
use crate::policy::{Assignment, Policy, StateView};
use suu_core::profile::{PhaseProfiler, ProfileMode};
use suu_core::{EligibilityState, EligibilityTopology, MachineId, SuuInstance, WordMap};

/// Profiler phase ids (indices into [`PHASE_NAMES`]).
const PH_DECIDE: usize = 0;
const PH_CACHE: usize = 1;
pub(super) const PH_SAMPLE: usize = 2;
const PH_UPDATE: usize = 3;
const PH_SWEEP: usize = 4;
/// Phase names of the epoch loop, in id order: policy decisions and plan
/// building, plan-cache probes, completion-time sampling, fast-forward
/// and completions, and per-trial setup plus outcome assembly (`sweep`,
/// the name the benchmark reads).
pub(super) const PHASE_NAMES: &[&str] = &[
    "decide",
    "cache-lookup",
    "sampling",
    "state-update",
    "sweep",
];

/// Default cap on cached plans; a miss that finds the cache full wipes
/// it first. 32k plans ≈ a few MB on typical instances — far above what
/// any standard cell populates, so eviction only triggers on adversarial
/// remaining-set churn.
const DEFAULT_PLAN_CAP: usize = 1 << 15;

/// One running job of an epoch plan: its total per-step mass under the
/// held assignment and, under SUU, its precomputed segment constants.
/// Jobs whose total mass is `≤ 0` (only q=1 machines) are left out: they
/// can never complete or accrue.
#[derive(Debug, Clone, Copy)]
struct RunJob {
    j: u32,
    mass: f64,
    /// [`GeomSegment::new`]`(mass)` under SUU; a placeholder SUU\* never
    /// reads.
    geom: GeomSegment,
}

/// One decision epoch's plan: the machine classification and the running
/// jobs (a slice of the cache's run arena). A pure function of the
/// remaining set for a stationary policy.
#[derive(Debug, Clone, Copy)]
struct EpochPlan {
    /// Machines running an eligible, uncompleted job.
    busy_m: u64,
    /// Machines idle or pointed at completed jobs.
    idle_m: u64,
    /// Machines pointed at ineligible jobs (violations).
    inel_m: u64,
    /// `runs[run_start..run_start + run_len]` in the cache arena, in
    /// first-seen machine order.
    run_start: u32,
    run_len: u32,
}

impl EpochPlan {
    fn runs(&self) -> std::ops::Range<usize> {
        self.run_start as usize..(self.run_start + self.run_len) as usize
    }
}

/// The word-keyed plan cache: remaining-set words → epoch plan, with
/// hit/miss/eviction counters. Plans and their running jobs live in flat
/// arenas, so (re)population allocates only on growth.
pub(super) struct PlanCache {
    map: WordMap<u32>,
    plans: Vec<EpochPlan>,
    runs: Vec<RunJob>,
    pub(super) cap: usize,
    pub(super) hits: u64,
    pub(super) misses: u64,
    pub(super) evictions: u64,
}

impl PlanCache {
    fn new(words_per_key: usize, machines: usize) -> Self {
        PlanCache {
            map: WordMap::new(words_per_key),
            plans: Vec::new(),
            runs: Vec::with_capacity(machines),
            cap: DEFAULT_PLAN_CAP,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Plans currently cached.
    pub(super) fn len(&self) -> usize {
        self.plans.len()
    }

    /// The cached plan for `key`. A miss that finds the cache full wipes
    /// it, so the plan about to be built fits.
    fn get(&mut self, key: &[u64]) -> Option<EpochPlan> {
        let plan = self.map.get(key).map(|&idx| self.plans[idx as usize]);
        if plan.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
            if self.plans.len() >= self.cap {
                self.evictions += self.plans.len() as u64;
                self.clear();
            }
        }
        plan
    }

    fn insert(&mut self, key: &[u64], plan: EpochPlan) {
        self.map.insert(key, self.plans.len() as u32);
        self.plans.push(plan);
    }

    /// Drop every plan, keeping the arenas' allocations.
    pub(super) fn clear(&mut self) {
        self.map.clear();
        self.plans.clear();
        self.runs.clear();
    }
}

/// The epoch loop's state for one instance: the shared eligibility
/// topology, every per-job column and plan-building buffer one trial
/// needs, the plan cache and the phase profiler. Building it is the
/// expensive part of a trial on small instances (DAG materialization,
/// successor lists, allocations); resetting it per trial is a handful
/// of `fill`s.
pub(crate) struct EventEngine<'i> {
    inst: &'i SuuInstance,
    cfg: ExecConfig,
    topo: EligibilityTopology,
    state: EligibilityState,
    thresholds: Vec<f64>,
    accrued: Vec<f64>,
    coin_draws: Vec<u32>,
    step_mass: Vec<f64>,
    seen: Vec<bool>,
    touched: Vec<u32>,
    /// Per running job of the current plan, in plan order.
    deadlines: Vec<u64>,
    out: Assignment,
    pub(super) cache: PlanCache,
    pub(super) profiler: PhaseProfiler,
}

impl<'i> EventEngine<'i> {
    pub(crate) fn new(inst: &'i SuuInstance, cfg: &ExecConfig) -> Self {
        let n = inst.num_jobs();
        let m = inst.num_machines();
        let topo = EligibilityTopology::new(&inst.precedence().to_dag(n));
        let state = topo.new_state();
        EventEngine {
            inst,
            cfg: *cfg,
            topo,
            state,
            thresholds: Vec::with_capacity(n),
            accrued: vec![0.0; n],
            coin_draws: vec![0; n],
            step_mass: vec![0.0; n],
            seen: vec![false; n],
            touched: Vec::with_capacity(m),
            deadlines: Vec::with_capacity(m),
            out: Assignment::new(m),
            cache: PlanCache::new(n.div_ceil(64), m),
            profiler: PhaseProfiler::new(PHASE_NAMES, ProfileMode::Off),
        }
    }

    /// One trial of `policy` with engine seed `seed`. With `shared`, the
    /// epoch plans come from and go to the plan cache, which is sound
    /// only for a stationary policy (a wake-up request panics); without,
    /// every epoch decides afresh. The outcome is the same either way,
    /// and independent of every trial run before on this engine.
    pub(crate) fn run_trial(
        &mut self,
        policy: &mut dyn Policy,
        seed: u64,
        shared: bool,
    ) -> ExecOutcome {
        let n = self.inst.num_jobs();
        let cfg = self.cfg;
        self.profiler.enter(PH_SWEEP);
        policy.reset();
        self.topo.reset_state(&mut self.state);
        let rnd = JobRandomness::new(seed);
        self.thresholds.clear();
        if cfg.semantics == Semantics::SuuStar {
            self.thresholds
                .extend((0..n as u32).map(|j| rnd.threshold(j)));
        }
        self.accrued.fill(0.0);
        self.coin_draws.fill(0);
        // `step_mass`/`seen` hold their all-zero/false invariant across
        // epochs *and* trials: every plan build resets what it touched.
        let mut completion_time = vec![u64::MAX; n];

        let mut busy_steps = 0u64;
        let mut idle_steps = 0u64;
        let mut ineligible = 0u64;

        let mut t = 0u64;
        while !self.state.all_done() && t < cfg.max_steps {
            let (plan, wake) = self.plan(policy, t, shared);
            let runs = &self.cache.runs[plan.runs()];

            // Sample/compute each running job's completion deadline.
            self.profiler.enter(PH_SAMPLE);
            self.deadlines.clear();
            let mut next_completion = NEVER;
            for run in runs {
                let ji = run.j as usize;
                let steps = match cfg.semantics {
                    Semantics::SuuStar => {
                        star_steps(self.accrued[ji], self.thresholds[ji], run.mass)
                    }
                    Semantics::Suu => {
                        let u = rnd.coin(run.j, self.coin_draws[ji]);
                        self.coin_draws[ji] += 1;
                        run.geom.steps(u)
                    }
                };
                let deadline = t.saturating_add(steps);
                self.deadlines.push(deadline);
                next_completion = next_completion.min(deadline);
            }
            let event_t = next_completion.min(wake.unwrap_or(NEVER));

            // Fast-forward to the event. With no event inside the step
            // cap, burn the remaining steps at the held rates (exactly
            // what the dense stepper would accumulate); the trial then
            // reports incomplete at the cap.
            self.profiler.enter(PH_UPDATE);
            let end = event_t.min(cfg.max_steps);
            let span = end - t; // ≥ 1: wake is clamped past t, deadlines too
            busy_steps += plan.busy_m * span;
            idle_steps += plan.idle_m * span;
            ineligible += plan.inel_m * span;
            if event_t == end {
                for (run, &deadline) in runs.iter().zip(&self.deadlines) {
                    let ji = run.j as usize;
                    if cfg.semantics == Semantics::SuuStar {
                        // Same expression as the dense stepper's final
                        // value for this segment: base + k·µ with one
                        // multiply.
                        self.accrued[ji] += span as f64 * run.mass;
                    }
                    if deadline == event_t {
                        completion_time[ji] = event_t;
                        self.state.complete(&self.topo, run.j);
                    }
                    // Survivors re-sample at the next epoch (geometric
                    // memorylessness keeps SUU exact; SUU* just
                    // re-bases).
                }
            }
            t = end;
            if !shared {
                self.cache.runs.truncate(plan.run_start as usize);
            }
        }

        self.profiler.enter(PH_SWEEP);
        ExecOutcome {
            // An incomplete trial stopped at `t == max_steps`.
            makespan: t,
            completed: self.state.all_done(),
            busy_steps,
            idle_steps,
            ineligible_assignments: ineligible,
            completion_time,
        }
    }

    /// The plan of the epoch at time `t`, and the policy's clamped
    /// wake-up: from the cache when `shared` and the remaining set was
    /// planned before, else from a fresh `decide` and classification,
    /// inserted into the cache only when `shared`.
    fn plan(&mut self, policy: &mut dyn Policy, t: u64, shared: bool) -> (EpochPlan, Option<u64>) {
        if shared {
            self.profiler.enter(PH_CACHE);
            if let Some(plan) = self.cache.get(self.state.remaining().words()) {
                return (plan, None);
            }
        }
        self.profiler.enter(PH_DECIDE);
        let inst = self.inst;
        let n = inst.num_jobs();
        let m = inst.num_machines();
        self.out.clear();
        let view = StateView {
            time: t,
            epoch: self.state.epoch(),
            remaining: self.state.remaining(),
            eligible: self.state.eligible(),
            n,
            m,
        };
        let decision = policy.decide(&view, &mut self.out);
        // A shared plan stands for every trial at this remaining set, so
        // a wake-up would desync the trials that hit it: a contract
        // violation.
        assert!(
            !shared || decision.next_wakeup.is_none(),
            "policy {:?} declared is_stationary but requested a wake-up",
            policy.name()
        );

        // Classify machines under the held assignment (per-step rates).
        let mut plan = EpochPlan {
            busy_m: 0,
            idle_m: 0,
            inel_m: 0,
            run_start: self.cache.runs.len() as u32,
            run_len: 0,
        };
        self.touched.clear();
        for i in 0..m {
            match self.out.get(i) {
                None => plan.idle_m += 1,
                Some(j) => {
                    let ji = j.index();
                    debug_assert!(ji < n, "policy assigned out-of-range job");
                    if !self.state.remaining().contains(j.0) {
                        plan.idle_m += 1;
                    } else if !self.state.eligible().contains(j.0) {
                        plan.inel_m += 1;
                    } else {
                        if !self.seen[ji] {
                            self.seen[ji] = true;
                            self.touched.push(j.0);
                        }
                        self.step_mass[ji] += inst.ell(MachineId(i as u32), j);
                        plan.busy_m += 1;
                    }
                }
            }
        }
        for &j in &self.touched {
            let ji = j as usize;
            let mass = self.step_mass[ji];
            self.step_mass[ji] = 0.0;
            self.seen[ji] = false;
            if mass > 0.0 {
                // Only SUU samples a geometric; SUU* skips the exp2/ln.
                let geom = match self.cfg.semantics {
                    Semantics::Suu => GeomSegment::new(mass),
                    Semantics::SuuStar => GeomSegment::UNUSED,
                };
                self.cache.runs.push(RunJob { j, mass, geom });
            }
        }
        plan.run_len = self.cache.runs.len() as u32 - plan.run_start;
        if shared {
            self.cache.insert(self.state.remaining().words(), plan);
        }
        (plan, clamp_wake(decision.next_wakeup, t))
    }
}

/// Execute `policy` on `inst`, all randomness derived from `seed`,
/// fast-forwarding between decision epochs.
///
/// One call = one sample of the schedule's makespan distribution.
pub fn execute(
    inst: &SuuInstance,
    policy: &mut dyn Policy,
    cfg: &ExecConfig,
    seed: u64,
) -> ExecOutcome {
    EventEngine::new(inst, cfg).run_trial(policy, seed, false)
}
