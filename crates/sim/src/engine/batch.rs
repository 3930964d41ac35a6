//! The batched trial engine: B executions of one `(instance, policy)`
//! pair in a single lockstep pass over structure-of-arrays state.
//!
//! The per-trial engines pay the policy and topology costs once *per
//! trial*: every execution rebuilds the precedence DAG's successor lists,
//! and every decision epoch of every trial calls `decide`, even though a
//! stationary policy (gang, greedy matchings, exact OPT — anything whose
//! row is a pure function of the remaining set) returns the *same* row
//! for every trial sitting at the same remaining set. This module
//! amortizes both, and — rebuilt around a profiler-guided hot loop —
//! keeps the steady state allocation-free:
//!
//! * **Shared eligibility topology** — the DAG's successor lists and
//!   indegrees ([`suu_core::EligibilityTopology`]) are built once per
//!   [`BatchRunner`]; each trial holds only its own remaining/eligible
//!   columns ([`suu_core::EligibilityState`]).
//! * **SoA trial state** — accrued log-mass, SUU* thresholds, SUU coin
//!   counters and completion times live in flat `B × n` columns, advanced
//!   in lockstep sweeps (every live trial moves one decision epoch per
//!   pass).
//! * **Word-keyed shared decisions** — for stationary policies
//!   ([`Policy::is_stationary`]) the engine caches, per distinct
//!   remaining set, the decided row's derived epoch plan (machine
//!   classification + per-job step mass + precomputed SUU segment
//!   constants). The cache is a [`suu_core::WordMap`] keyed directly on
//!   the remaining set's `u64` words — FNV-1a over the words, inline
//!   word-compare on probe, **no `BitSet` clones or hashes of wrapper
//!   objects on the hit path** — with hit/miss/eviction counters
//!   surfaced through [`BatchMetrics`].
//! * **Grouped wide sampling** — within a sweep, live trials are grouped
//!   by epoch plan and each running job's completion time is sampled
//!   [`super::sampling::LANES`] trials at a time through the wide
//!   kernels ([`super::sampling::star_steps_wide`],
//!   [`super::sampling::GeomSegment`]), which are structurally
//!   bitwise-identical to the scalar path.
//! * **Arena reuse** — epoch plans live in a flat arena inside the
//!   cache; all per-batch scratch (columns, eligibility states, grouping
//!   and plan-build buffers) persists inside the runner across `run`
//!   calls, so streaming a long cell through chunks allocates only the
//!   returned outcomes.
//!
//! The runner carries a [`suu_core::profile::PhaseProfiler`] bucketing
//! sweep wall time into decide / cache-lookup / sampling / state-update
//! phases. It is off unless [`BatchRunner::with_profile`] picks a mode,
//! and off costs one branch per phase transition.
//!
//! # Bitwise equality
//!
//! For every seed the batched engine produces outcomes **bitwise
//! identical** to [`super::events::execute_events`] with that seed: the
//! per-epoch computation (classification order, `star_steps` /
//! `geometric_steps` expressions, counter updates) evaluates the same
//! expressions in the same order *within* a trial, and the counter-based
//! `JobRandomness` streams make the interleaving *across* trials
//! irrelevant. Grouping trials by plan only reorders work across
//! independent trials; the wide sampling kernels evaluate the scalar
//! expressions lane-for-lane (see [`super::sampling`]).
//! `tests/engine_differential.rs` asserts the equality across every
//! scenario family × registry policy × both semantics.
//!
//! Non-stationary policies cannot share decisions (their state evolves
//! within a trial), so for them the batch entry point degrades to
//! per-trial event-engine execution (reusing one `EventsScratch`
//! across all trials), preserving the equality guarantee trivially while
//! keeping one uniform call site for the evaluator.

use super::events::{execute_events_in, EventsScratch};
use super::sampling::{star_steps, star_steps_wide, GeomSegment, LANES};
use super::{ExecConfig, ExecOutcome, JobRandomness};
use super::{Semantics, NEVER};
use crate::policy::{Assignment, Policy, StateView};
use suu_core::profile::{PhaseProfiler, ProfileMode, ProfileReport};
use suu_core::{EligibilityState, EligibilityTopology, MachineId, SuuInstance, WordMap};

/// Seeds for one trial of a batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchTrial {
    /// Seed of the engine's per-job randomness streams.
    pub engine_seed: u64,
    /// Seed handed to [`Policy::reseed`] before the trial, if any.
    /// Ignored on the stationary fast path (stationary policies have no
    /// internal randomness by contract).
    pub policy_seed: Option<u64>,
}

/// Profiler phase ids (indices into [`PHASE_NAMES`]).
const PH_DECIDE: usize = 0;
const PH_CACHE: usize = 1;
const PH_SAMPLE: usize = 2;
const PH_UPDATE: usize = 3;
const PH_SWEEP: usize = 4;
/// Phase names of the batch hot loop, in id order: policy decisions and
/// plan building, decision-cache probes, completion-time sampling,
/// per-trial state advancement, and sweep bookkeeping (retire scan,
/// plan grouping, column setup).
const PHASE_NAMES: &[&str] = &[
    "decide",
    "cache-lookup",
    "sampling",
    "state-update",
    "sweep",
];

/// Default cap on cached epoch plans; reaching it wipes the cache
/// between sweeps (never mid-sweep: plan indices are borrowed by the
/// grouping buffer within a sweep). 32k plans ≈ a few MB on typical
/// instances — far above what any standard cell populates, so eviction
/// only triggers on adversarial remaining-set churn.
const DEFAULT_PLAN_CAP: usize = 1 << 15;

/// One running job of an epoch plan: its total per-step mass under the
/// held assignment and the precomputed SUU segment constants (paying the
/// `exp2`/`ln` once per cached plan instead of per trial per epoch).
/// Jobs whose total mass is `≤ 0` (only q=1 machines) are excluded at
/// plan build: they can never complete or accrue, exactly as the
/// per-trial engines skip them.
#[derive(Debug, Clone, Copy)]
struct RunJob {
    j: u32,
    mass: f64,
    geom: GeomSegment,
}

/// One decision epoch's shared, remaining-set-keyed work product: the
/// machine classification and the plan's running jobs (a slice of the
/// cache's flat arena). Everything here is a pure function of the
/// remaining set, so one plan serves every trial that visits that set.
#[derive(Debug, Clone, Copy)]
struct EpochPlan {
    /// Machines running an eligible, uncompleted job.
    busy_m: u64,
    /// Machines idle or pointed at completed jobs.
    idle_m: u64,
    /// Machines pointed at ineligible jobs (violations).
    inel_m: u64,
    /// `runs[run_start..run_start + run_len]` in the cache arena, in
    /// first-seen machine order (the per-trial engines' `touched` order).
    run_start: u32,
    run_len: u32,
}

/// The word-keyed decision cache: remaining-set words → epoch plan, with
/// hit/miss/eviction counters. Plans and their running jobs live in flat
/// arenas so cache (re)population allocates only on growth.
struct PlanCache {
    map: WordMap<u32>,
    plans: Vec<EpochPlan>,
    runs: Vec<RunJob>,
    cap: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PlanCache {
    fn new(words_per_key: usize) -> Self {
        PlanCache {
            map: WordMap::new(words_per_key),
            plans: Vec::new(),
            runs: Vec::new(),
            cap: DEFAULT_PLAN_CAP,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Wipe between sweeps once over capacity (a soft cap: one sweep may
    /// overshoot it, since eviction never happens mid-sweep).
    fn maybe_evict(&mut self) {
        if self.plans.len() >= self.cap {
            self.evictions += self.plans.len() as u64;
            self.clear();
        }
    }

    /// Drop every plan, keeping the arenas' allocations.
    fn clear(&mut self) {
        self.map.clear();
        self.plans.clear();
        self.runs.clear();
    }
}

/// Per-run SoA columns and sweep scratch, owned by the runner and reused
/// across `run` calls (steady state allocates nothing but outcomes).
/// Trial-major layout: the entry of trial `b`, job `j` lives at
/// `b * n + j`.
struct Scratch {
    rnds: Vec<JobRandomness>,
    thresholds: Vec<f64>,
    accrued: Vec<f64>,
    coin_draws: Vec<u32>,
    completion_time: Vec<u64>,
    t: Vec<u64>,
    busy: Vec<u64>,
    idle: Vec<u64>,
    inel: Vec<u64>,
    states: Vec<EligibilityState>,
    /// Live trial indices, in trial order.
    live: Vec<u32>,
    /// Per-sweep `(plan index, trial)` pairs, sorted to group by plan.
    order: Vec<(u32, u32)>,
    // Plan-build scratch.
    out: Assignment,
    step_mass: Vec<f64>,
    seen: Vec<bool>,
    touched: Vec<u32>,
    // Per-group sampling scratch: `deadlines[jr * group_len + gi]` is
    // running-job `jr`'s deadline for the group's `gi`-th trial;
    // `next_comp[gi]` is that trial's earliest deadline.
    deadlines: Vec<u64>,
    next_comp: Vec<u64>,
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch {
            rnds: Vec::new(),
            thresholds: Vec::new(),
            accrued: Vec::new(),
            coin_draws: Vec::new(),
            completion_time: Vec::new(),
            t: Vec::new(),
            busy: Vec::new(),
            idle: Vec::new(),
            inel: Vec::new(),
            states: Vec::new(),
            live: Vec::new(),
            order: Vec::new(),
            out: Assignment::new(0),
            step_mass: Vec::new(),
            seen: Vec::new(),
            touched: Vec::new(),
            deadlines: Vec::new(),
            next_comp: Vec::new(),
        }
    }
}

/// Aggregate counters of a [`BatchRunner`], cumulative across its `run`
/// calls; the bench harness embeds them per cell (schema
/// `suu-bench/engine-batch/v2`).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchMetrics {
    /// Trials executed through the stationary SoA fast path.
    pub stationary_trials: u64,
    /// Trials executed through the per-trial fallback.
    pub fallback_trials: u64,
    /// Decision-cache probes answered from the cache.
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
/// the shared eligibility topology, the word-keyed decision cache, the
/// SoA scratch and the phase profiler, all persistent across [`run`]
/// calls so chunked streaming reuses every allocation and stays warm in
/// the decision cache.
///
/// The decision cache is keyed only by remaining set, so a runner must
/// not be reused across *different* stationary policies (asserted by
/// policy name on every stationary run).
///
/// [`run`]: BatchRunner::run
pub struct BatchRunner<'i> {
    inst: &'i SuuInstance,
    cfg: ExecConfig,
    topo: EligibilityTopology,
    cache: PlanCache,
    profiler: PhaseProfiler,
    scratch: Scratch,
    events: Option<EventsScratch>,
    policy_name: Option<String>,
    stationary_trials: u64,
    fallback_trials: u64,
}

impl<'i> BatchRunner<'i> {
    /// Runner for `inst` under `cfg`, unprofiled
    /// ([`BatchRunner::with_profile`] picks a mode).
    pub fn new(inst: &'i SuuInstance, cfg: &ExecConfig) -> Self {
        let n = inst.num_jobs();
        let topo = EligibilityTopology::new(&inst.precedence().to_dag(n));
        BatchRunner {
            inst,
            cfg: *cfg,
            topo,
            cache: PlanCache::new(n.div_ceil(64)),
            profiler: PhaseProfiler::new(PHASE_NAMES, ProfileMode::Off),
            scratch: Scratch::default(),
            events: None,
            policy_name: None,
            stationary_trials: 0,
            fallback_trials: 0,
        }
    }

    /// Builder-style profiler mode (the default is [`ProfileMode::Off`]).
    pub fn with_profile(mut self, mode: ProfileMode) -> Self {
        self.profiler = PhaseProfiler::new(PHASE_NAMES, mode);
        self
    }

    /// Builder-style plan-cache capacity override (plans, not bytes).
    /// Reaching the cap wipes the cache between sweeps.
    pub fn with_plan_cap(mut self, cap: usize) -> Self {
        self.cache.cap = cap.max(1);
        self
    }

    /// Drop every cached plan between `run` calls, keeping the cache's
    /// allocations and its counters. Plans are a pure function of the
    /// remaining set, so this never changes an outcome; it bounds how
    /// long a long-lived runner holds plans (the evaluator clears once
    /// per adaptive rung).
    pub(crate) fn clear_plans(&mut self) {
        self.cache.clear();
    }

    /// The instance this runner executes.
    pub fn instance(&self) -> &'i SuuInstance {
        self.inst
    }

    /// Cumulative counters (and profile, if enabled) since construction.
    pub fn metrics(&self) -> BatchMetrics {
        BatchMetrics {
            stationary_trials: self.stationary_trials,
            fallback_trials: self.fallback_trials,
            cache_hits: self.cache.hits,
            cache_misses: self.cache.misses,
            cache_evictions: self.cache.evictions,
            cache_entries: self.cache.plans.len() as u64,
            profile: self.profiler.is_enabled().then(|| self.profiler.report()),
        }
    }

    /// Execute one trial per entry of `trials`, returning outcomes in
    /// trial order.
    ///
    /// Dispatch: a stationary policy takes the SoA lockstep fast path; a
    /// non-stationary one falls back to per-trial execution on the event
    /// engine (bitwise identical by construction). Memory is
    /// `O(B · n)` for a batch of `B` trials — callers stream chunks of a
    /// larger run through repeated `run` calls to keep evaluation memory
    /// independent of the total trial count.
    pub fn run(&mut self, policy: &mut dyn Policy, trials: &[BatchTrial]) -> Vec<ExecOutcome> {
        if trials.is_empty() {
            return Vec::new();
        }
        if policy.is_stationary() {
            match &self.policy_name {
                Some(name) => assert_eq!(
                    name,
                    policy.name(),
                    "BatchRunner reused across different policies: the decision \
                     cache is only valid for the policy it was filled by"
                ),
                None => self.policy_name = Some(policy.name().to_string()),
            }
            self.stationary_trials += trials.len() as u64;
            self.run_stationary(policy, trials)
        } else {
            self.fallback_trials += trials.len() as u64;
            self.run_fallback(policy, trials)
        }
    }

    /// Per-trial fallback: the event engine against one reused scratch.
    fn run_fallback(&mut self, policy: &mut dyn Policy, trials: &[BatchTrial]) -> Vec<ExecOutcome> {
        let inst = self.inst;
        let cfg = self.cfg;
        let scratch = self.events.get_or_insert_with(|| EventsScratch::new(inst));
        trials
            .iter()
            .map(|trial| {
                if let Some(seed) = trial.policy_seed {
                    policy.reseed(seed);
                }
                execute_events_in(inst, policy, &cfg, trial.engine_seed, scratch)
            })
            .collect()
    }

    /// The SoA lockstep fast path. Each sweep advances every live trial
    /// by one decision epoch in four phases — retire, decide/probe,
    /// group-by-plan, sample+advance — and the sampling runs
    /// [`LANES`]-wide per plan group. See the module docs for the layout
    /// and the equality argument.
    // The sampling phase's 0..LANES loops are deliberately indexed — the
    // same unrolled shape as the wide kernels they feed.
    #[allow(clippy::needless_range_loop)]
    fn run_stationary(
        &mut self,
        policy: &mut dyn Policy,
        trials: &[BatchTrial],
    ) -> Vec<ExecOutcome> {
        let inst = self.inst;
        let cfg = self.cfg;
        let topo = &self.topo;
        let cache = &mut self.cache;
        let profiler = &mut self.profiler;
        let s = &mut self.scratch;

        let n = inst.num_jobs();
        let m = inst.num_machines();
        let b_count = trials.len();
        policy.reset();

        // ---- per-run column setup (allocation-free once warm) ----
        profiler.enter(PH_SWEEP);
        s.rnds.clear();
        s.rnds
            .extend(trials.iter().map(|t| JobRandomness::new(t.engine_seed)));
        s.thresholds.clear();
        if cfg.semantics == Semantics::SuuStar {
            for b in 0..b_count {
                for j in 0..n as u32 {
                    s.thresholds.push(s.rnds[b].threshold(j));
                }
            }
        }
        s.accrued.clear();
        s.accrued.resize(b_count * n, 0.0);
        s.coin_draws.clear();
        s.coin_draws.resize(b_count * n, 0);
        s.completion_time.clear();
        s.completion_time.resize(b_count * n, u64::MAX);
        s.t.clear();
        s.t.resize(b_count, 0);
        s.busy.clear();
        s.busy.resize(b_count, 0);
        s.idle.clear();
        s.idle.resize(b_count, 0);
        s.inel.clear();
        s.inel.resize(b_count, 0);
        s.states.truncate(b_count);
        for state in s.states.iter_mut() {
            topo.reset_state(state);
        }
        while s.states.len() < b_count {
            s.states.push(topo.new_state());
        }
        s.step_mass.clear();
        s.step_mass.resize(n, 0.0);
        s.seen.clear();
        s.seen.resize(n, false);
        if s.out.num_machines() != m {
            s.out = Assignment::new(m);
        }
        s.live.clear();
        s.live.extend(0..b_count as u32);

        let mut outcomes: Vec<Option<ExecOutcome>> = (0..b_count).map(|_| None).collect();

        // ---- lockstep sweeps ----
        while !s.live.is_empty() {
            profiler.enter(PH_SWEEP);
            cache.maybe_evict();

            // Phase A: retire finished and capped trials (in place;
            // trial order is preserved).
            let mut w = 0;
            for r in 0..s.live.len() {
                let b = s.live[r] as usize;
                let base = b * n;
                if s.states[b].all_done() {
                    outcomes[b] = Some(ExecOutcome {
                        makespan: s.t[b],
                        completed: true,
                        busy_steps: s.busy[b],
                        idle_steps: s.idle[b],
                        ineligible_assignments: s.inel[b],
                        completion_time: s.completion_time[base..base + n].to_vec(),
                    });
                } else if s.t[b] >= cfg.max_steps {
                    outcomes[b] = Some(ExecOutcome {
                        makespan: cfg.max_steps,
                        completed: false,
                        busy_steps: s.busy[b],
                        idle_steps: s.idle[b],
                        ineligible_assignments: s.inel[b],
                        completion_time: s.completion_time[base..base + n].to_vec(),
                    });
                } else {
                    s.live[w] = s.live[r];
                    w += 1;
                }
            }
            s.live.truncate(w);
            if s.live.is_empty() {
                break;
            }

            // Phase B: one decision-cache probe per live trial; misses
            // decide and build the plan. Probes run in live (trial)
            // order, so the sequence of `decide` calls — and therefore
            // the hit/miss stream — is identical to processing trials
            // one at a time.
            profiler.enter(PH_CACHE);
            s.order.clear();
            for li in 0..s.live.len() {
                let b = s.live[li] as usize;
                let plan_idx = match cache.map.get(s.states[b].remaining().words()).copied() {
                    Some(idx) => {
                        cache.hits += 1;
                        idx
                    }
                    None => {
                        cache.misses += 1;
                        profiler.enter(PH_DECIDE);
                        s.out.clear();
                        let decision = {
                            let view = StateView {
                                time: s.t[b],
                                epoch: s.states[b].epoch(),
                                remaining: s.states[b].remaining(),
                                eligible: s.states[b].eligible(),
                                n,
                                m,
                            };
                            policy.decide(&view, &mut s.out)
                        };
                        // A wake-up request here would make the shared
                        // plan unsound (and silently desync from the
                        // per-trial engines), so treat it as a contract
                        // violation.
                        assert!(
                            decision.next_wakeup.is_none(),
                            "policy {:?} declared is_stationary but requested a wake-up",
                            policy.name()
                        );
                        // Classify machines exactly as the event engine
                        // does.
                        let mut busy_m = 0u64;
                        let mut idle_m = 0u64;
                        let mut inel_m = 0u64;
                        s.touched.clear();
                        for i in 0..m {
                            match s.out.get(i) {
                                None => idle_m += 1,
                                Some(j) => {
                                    let ji = j.index();
                                    debug_assert!(ji < n, "policy assigned out-of-range job");
                                    if !s.states[b].remaining().contains(j.0) {
                                        idle_m += 1;
                                    } else if !s.states[b].eligible().contains(j.0) {
                                        inel_m += 1;
                                    } else {
                                        if !s.seen[ji] {
                                            s.seen[ji] = true;
                                            s.touched.push(j.0);
                                        }
                                        s.step_mass[ji] += inst.ell(MachineId(i as u32), j);
                                        busy_m += 1;
                                    }
                                }
                            }
                        }
                        let run_start = cache.runs.len() as u32;
                        for &j in &s.touched {
                            let ji = j as usize;
                            let mass = s.step_mass[ji];
                            s.step_mass[ji] = 0.0;
                            s.seen[ji] = false;
                            if mass > 0.0 {
                                cache.runs.push(RunJob {
                                    j,
                                    mass,
                                    geom: GeomSegment::new(mass),
                                });
                            }
                        }
                        let idx = cache.plans.len() as u32;
                        cache.plans.push(EpochPlan {
                            busy_m,
                            idle_m,
                            inel_m,
                            run_start,
                            run_len: cache.runs.len() as u32 - run_start,
                        });
                        cache.map.insert(s.states[b].remaining().words(), idx);
                        profiler.enter(PH_CACHE);
                        idx
                    }
                };
                s.order.push((plan_idx, b as u32));
            }

            // Phase C: group the sweep's trials by plan (trial order is
            // preserved within a group — `order` is built in live order
            // and the sort is by (plan, trial)).
            profiler.enter(PH_SWEEP);
            s.order.sort_unstable();

            // Phase D+E per plan group: wide sampling, then per-trial
            // advancement. Trials are independent, so regrouping them
            // across the sweep is invisible in the outcomes.
            let mut g0 = 0;
            while g0 < s.order.len() {
                let plan_idx = s.order[g0].0;
                let mut g1 = g0 + 1;
                while g1 < s.order.len() && s.order[g1].0 == plan_idx {
                    g1 += 1;
                }
                let glen = g1 - g0;
                let plan = cache.plans[plan_idx as usize];
                let runs =
                    &cache.runs[plan.run_start as usize..(plan.run_start + plan.run_len) as usize];

                // ---- sampling: LANES trials of one (job, mass) segment
                // at a time ----
                profiler.enter(PH_SAMPLE);
                s.next_comp.clear();
                s.next_comp.resize(glen, NEVER);
                s.deadlines.clear();
                s.deadlines.resize(runs.len() * glen, 0);
                for (jr, run) in runs.iter().enumerate() {
                    let ji = run.j as usize;
                    let drow = jr * glen;
                    match cfg.semantics {
                        Semantics::SuuStar => {
                            let mut g = 0;
                            while g + LANES <= glen {
                                let mut bases = [0.0f64; LANES];
                                let mut thrs = [0.0f64; LANES];
                                for l in 0..LANES {
                                    let col = s.order[g0 + g + l].1 as usize * n + ji;
                                    bases[l] = s.accrued[col];
                                    thrs[l] = s.thresholds[col];
                                }
                                let mut steps = [0u64; LANES];
                                star_steps_wide(&bases, &thrs, run.mass, &mut steps);
                                for l in 0..LANES {
                                    let gi = g + l;
                                    let b = s.order[g0 + gi].1 as usize;
                                    let dl = s.t[b].saturating_add(steps[l]);
                                    s.deadlines[drow + gi] = dl;
                                    if dl < s.next_comp[gi] {
                                        s.next_comp[gi] = dl;
                                    }
                                }
                                g += LANES;
                            }
                            while g < glen {
                                let b = s.order[g0 + g].1 as usize;
                                let col = b * n + ji;
                                let steps = star_steps(s.accrued[col], s.thresholds[col], run.mass);
                                let dl = s.t[b].saturating_add(steps);
                                s.deadlines[drow + g] = dl;
                                if dl < s.next_comp[g] {
                                    s.next_comp[g] = dl;
                                }
                                g += 1;
                            }
                        }
                        Semantics::Suu => {
                            let mut g = 0;
                            while g + LANES <= glen {
                                let mut us = [0.0f64; LANES];
                                for l in 0..LANES {
                                    let b = s.order[g0 + g + l].1 as usize;
                                    let col = b * n + ji;
                                    us[l] = s.rnds[b].coin(run.j, s.coin_draws[col]);
                                    s.coin_draws[col] += 1;
                                }
                                let mut steps = [0u64; LANES];
                                run.geom.steps_wide(&us, &mut steps);
                                for l in 0..LANES {
                                    let gi = g + l;
                                    let b = s.order[g0 + gi].1 as usize;
                                    let dl = s.t[b].saturating_add(steps[l]);
                                    s.deadlines[drow + gi] = dl;
                                    if dl < s.next_comp[gi] {
                                        s.next_comp[gi] = dl;
                                    }
                                }
                                g += LANES;
                            }
                            while g < glen {
                                let b = s.order[g0 + g].1 as usize;
                                let col = b * n + ji;
                                let u = s.rnds[b].coin(run.j, s.coin_draws[col]);
                                s.coin_draws[col] += 1;
                                let dl = s.t[b].saturating_add(run.geom.steps(u));
                                s.deadlines[drow + g] = dl;
                                if dl < s.next_comp[g] {
                                    s.next_comp[g] = dl;
                                }
                                g += 1;
                            }
                        }
                    }
                }

                // ---- state update: fast-forward each trial of the
                // group to its event (or burn to the step cap) ----
                profiler.enter(PH_UPDATE);
                for gi in 0..glen {
                    let b = s.order[g0 + gi].1 as usize;
                    let base = b * n;
                    let next_completion = s.next_comp[gi];
                    // Stationary policies never wake up, so the next
                    // event is the next completion (or the step cap).
                    if next_completion > cfg.max_steps {
                        let span = cfg.max_steps - s.t[b];
                        s.busy[b] += plan.busy_m * span;
                        s.idle[b] += plan.idle_m * span;
                        s.inel[b] += plan.inel_m * span;
                        s.t[b] = cfg.max_steps;
                        continue; // retired as incomplete on the next sweep
                    }
                    let event_t = next_completion;
                    let span = event_t - s.t[b];
                    s.busy[b] += plan.busy_m * span;
                    s.idle[b] += plan.idle_m * span;
                    s.inel[b] += plan.inel_m * span;
                    for (jr, run) in runs.iter().enumerate() {
                        let ji = run.j as usize;
                        if cfg.semantics == Semantics::SuuStar {
                            s.accrued[base + ji] += span as f64 * run.mass;
                        }
                        if s.deadlines[jr * glen + gi] == event_t {
                            s.completion_time[base + ji] = event_t;
                            s.states[b].complete(topo, run.j);
                        }
                    }
                    s.t[b] = event_t;
                }

                g0 = g1;
            }
        }
        profiler.finish();

        outcomes
            .into_iter()
            .map(|o| o.expect("every trial retired with an outcome"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::execute;
    use crate::policy::Decision;
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
        use rand::SeedableRng;
        let mut grng = rand::rngs::SmallRng::seed_from_u64(5);
        let inst = workload::uniform_unrelated(2, 10, 0.3, 0.9, Precedence::Independent, &mut grng);
        let cfg = ExecConfig::default();
        let trials = seeds(16, 0xE71C);
        let mut runner = BatchRunner::new(&inst, &cfg).with_plan_cap(3);
        let capped = runner.run(&mut Spread, &trials);
        let reference = BatchRunner::new(&inst, &cfg).run(&mut Spread, &trials);
        assert_eq!(capped, reference);
        let metrics = runner.metrics();
        assert!(
            metrics.cache_evictions > 0,
            "a 3-plan cap must evict on a 10-job instance"
        );
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
}
