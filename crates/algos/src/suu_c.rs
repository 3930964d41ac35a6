//! `SUU-C`: the `O(log(n+m) · log log min(m,n))`-approximation for
//! disjoint-chain precedence (paper §4, Theorems 7 & 9).
//!
//! Construction pipeline:
//!
//! 1. **(LP2) + Lemma 6 rounding** give an integral assignment `{x̂_ij}`
//!    with per-job mass ≥ 1, load = `O(t_LP2)` and chain lengths
//!    `O(t_LP2)`.
//! 2. **Per-chain adaptive schedules `Σ_k`**: each chain works through its
//!    jobs in order; job `j` occupies a *block* of `d_j = max_i x̂_ij`
//!    supersteps during which machine `i` serves `j` for the first `x̂_ij`
//!    of them. Each block grants mass ≥ 1, i.e. constant success
//!    probability; failed jobs replay their block.
//! 3. **Pseudoschedule + random delay** (Theorem 7): all `Σ_k` run "in
//!    parallel" over supersteps; each chain's start is delayed by
//!    `δ_k ~ U{0..H}` (`H` = assignment load), which drops the maximum
//!    per-machine *congestion* to `O(log(n+m)/log log(n+m))` w.h.p.
//! 4. **Flattening**: a superstep with congestion `c` expands into `c`
//!    real timesteps, each machine serving its queued jobs one per step.
//! 5. **Long jobs** (`d_j > γ = t_LP2 / log₂(n+m)`): replaced in their
//!    chain by a γ-superstep *pause*; at the end of each γ-superstep
//!    *segment*, all long jobs whose pauses started in that segment run to
//!    completion under [`SemPolicy`] while the chains suspend. One
//!    `SemPolicy` serves every phase of a policy value, restarted on each
//!    phase's jobs ([`SemPolicy::restart`]), so its LP1 timetable memo
//!    spans all phases and trials: a (round, job list) seen before replays
//!    its table instead of solving LP1 again.
//! 6. **Fallback**: if the execution blows past its high-probability
//!    budget (the paper's "bad event"), switch to the `O(n)` sequential
//!    gang schedule.
//!
//! The optional **coarsening** step (paper's "extending to nonpolynomial
//! `t_LP2`") rounds every `x̂_ij` down to a multiple of `t_LP2/(nm)` and
//! compensates by topping up each job's mass on its best machine —
//! bounding the number of distinct block offsets when `t_LP2` is huge.

use crate::lp2::{round_lp2, solve_lp2};
use crate::suu_i_sem::SemPolicy;
use crate::AlgoError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use suu_core::{Assignment, JobId, MachineId, SuuInstance};
use suu_sim::{Assignment as Row, Decision, Policy, StateView};

/// Tuning knobs for [`ChainPolicy`] (defaults follow the paper).
#[derive(Debug, Clone, Copy)]
pub struct ChainConfig {
    /// Apply the Theorem-7 random start delays. Disabling them is only
    /// useful for the congestion experiment (`fig_congestion`).
    pub use_random_delay: bool,
    /// Apply the nonpolynomial-`t_LP2` coarsening of §4.
    pub coarsen: bool,
    /// Seed for the policy's internal randomness (delays). Distinct from
    /// the engine's job-outcome randomness; the RNG persists across
    /// `reset` so every trial draws fresh delays deterministically.
    pub seed: u64,
    /// Multiplier for the bad-event fallback budget (real steps allowed
    /// before switching to the sequential gang schedule).
    pub fallback_factor: u64,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            use_random_delay: true,
            coarsen: false,
            seed: 0xC4A1,
            fallback_factor: 64,
        }
    }
}

/// Observables from the most recent execution (Theorem 7 experiment).
#[derive(Debug, Clone, Copy, Default)]
pub struct ChainStats {
    /// Supersteps executed.
    pub supersteps: u64,
    /// Maximum congestion (jobs per machine per superstep) observed.
    pub max_congestion: u64,
    /// Number of long-job [`SemPolicy`] phases run.
    pub long_job_phases: u64,
    /// Whether the bad-event fallback engaged.
    pub fallback_triggered: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Supersteps,
    LongJobs,
    Fallback,
}

/// The `SUU-C` policy.
pub struct ChainPolicy {
    inst: Arc<SuuInstance>,
    /// Chains in precedence order (over original job ids; not necessarily
    /// covering every job of the instance — `SUU-T` runs one block at a
    /// time).
    chains: Vec<Vec<u32>>,
    assignment: Assignment,
    /// `d̂_j` per original job id (0 for jobs outside the chains).
    d: Vec<u64>,
    /// Long-job cutoff γ in supersteps.
    gamma: u64,
    /// Delay range `H` (assignment load).
    h_range: u64,
    long_job: Vec<bool>,
    cfg: ChainConfig,
    rng: SmallRng,
    fallback_budget: u64,
    name: String,

    // --- per-execution state ---
    mode: Mode,
    delays: Vec<u64>,
    /// Per chain: index of the current job.
    pos: Vec<usize>,
    /// Per chain: supersteps spent in the current block/pause.
    offset: Vec<u64>,
    superstep: u64,
    /// Long jobs whose pause started in the current segment.
    seg_long_jobs: Vec<u32>,
    /// Runs each long-job phase; restarted per phase, so its LP1
    /// timetable memo lives as long as this policy value.
    long_sub: SemPolicy,
    /// Flattened real-step rows of the in-flight superstep.
    plan: Vec<Vec<Option<JobId>>>,
    plan_pos: usize,
    in_flight: bool,
    /// Whether this execution has been consulted yet (anchors
    /// `start_time` for sub-policies that begin mid-run, e.g. `SUU-T`
    /// blocks).
    started: bool,
    /// Absolute time of the first consultation.
    start_time: u64,
    /// Absolute time of the previous consultation (plan progress is
    /// `time`-driven: the plan cursor advances by the elapsed span).
    last_time: u64,
    stats: ChainStats,
}

impl ChainPolicy {
    /// Build `SUU-C` for the given chains (each a job-id list in precedence
    /// order). Jobs of the instance outside every chain are ignored.
    pub fn build(
        inst: Arc<SuuInstance>,
        chains: Vec<Vec<u32>>,
        cfg: ChainConfig,
    ) -> Result<Self, AlgoError> {
        let sol = solve_lp2(&inst, &chains, 1.0)?;
        let (assignment, _report) = round_lp2(&inst, &sol)?;
        Self::from_parts(inst, chains, assignment, sol.t_star, cfg)
    }

    /// Build from a precomputed rounded assignment and its fractional LP
    /// value, skipping the (expensive) LP2 solve. Lets callers amortize
    /// one LP solve across many Monte-Carlo policy instances.
    pub fn from_parts(
        inst: Arc<SuuInstance>,
        chains: Vec<Vec<u32>>,
        mut assignment: Assignment,
        t_star: f64,
        cfg: ChainConfig,
    ) -> Result<Self, AlgoError> {
        let n = inst.num_jobs();
        let m = inst.num_machines();
        for chain in &chains {
            for &j in chain {
                if j as usize >= n {
                    return Err(AlgoError::BadInput(format!("chain job {j} out of range")));
                }
            }
        }

        let nm_log = ((n + m).max(2) as f64).log2();
        let gamma = ((t_star / nm_log).floor() as u64).max(1);

        if cfg.coarsen {
            coarsen_assignment(&inst, &mut assignment, t_star);
        }

        let mut d = vec![0u64; n];
        let mut long_job = vec![false; n];
        for chain in &chains {
            for &j in chain {
                d[j as usize] = assignment.length(JobId(j)).max(1);
                long_job[j as usize] = d[j as usize] > gamma;
            }
        }

        let h_range = assignment.max_load();
        let fallback_budget = 1_000
            + cfg.fallback_factor
                * (t_star.ceil() as u64 + gamma + h_range + 1)
                * (nm_log.ceil() as u64 + 1);

        let num_chains = chains.len();
        let long_sub = SemPolicy::for_jobs(inst.clone(), Some(Vec::new()))?;
        Ok(ChainPolicy {
            inst,
            chains,
            assignment,
            d,
            gamma,
            h_range,
            long_job,
            cfg,
            rng: SmallRng::seed_from_u64(cfg.seed),
            fallback_budget,
            name: "SUU-C".to_string(),
            mode: Mode::Supersteps,
            delays: vec![0; num_chains],
            pos: vec![0; num_chains],
            offset: vec![0; num_chains],
            superstep: 0,
            seg_long_jobs: Vec::new(),
            long_sub,
            plan: Vec::new(),
            plan_pos: 0,
            in_flight: false,
            started: false,
            start_time: 0,
            last_time: 0,
            stats: ChainStats::default(),
        })
    }

    /// Long-job cutoff γ (supersteps).
    pub fn gamma(&self) -> u64 {
        self.gamma
    }

    /// Stats from the most recent execution.
    pub fn stats(&self) -> ChainStats {
        self.stats
    }

    /// Is chain `k` started (past its delay) and not exhausted?
    fn chain_active(&self, k: usize) -> bool {
        self.superstep >= self.delays[k] && self.pos[k] < self.chains[k].len()
    }

    /// Advance per-chain state at the end of a finished superstep.
    fn advance_chains(&mut self, remaining: &suu_core::BitSet) {
        for k in 0..self.chains.len() {
            if !self.chain_active(k) {
                continue;
            }
            // Skip any jobs that are already complete (long jobs finish
            // during their pause via the SemPolicy phase).
            let j = self.chains[k][self.pos[k]] as usize;
            self.offset[k] += 1;
            if self.long_job[j] {
                if self.offset[k] >= self.gamma && !remaining.contains(j as u32) {
                    self.pos[k] += 1;
                    self.offset[k] = 0;
                }
                // else: still pausing (or job unexpectedly incomplete —
                // keep pausing; the next segment boundary will run it).
            } else if self.offset[k] >= self.d[j] {
                if remaining.contains(j as u32) {
                    self.offset[k] = 0; // block failed: replay
                } else {
                    self.pos[k] += 1;
                    self.offset[k] = 0;
                }
            }
        }
        self.superstep += 1;
        self.stats.supersteps = self.superstep;
    }

    /// Build the flattened plan for the next superstep.
    fn plan_superstep(&mut self, remaining: &suu_core::BitSet) {
        let m = self.inst.num_machines();
        let mut machine_jobs: Vec<Vec<JobId>> = vec![Vec::new(); m];

        for k in 0..self.chains.len() {
            if !self.chain_active(k) {
                continue;
            }
            // Fast-forward past already-completed jobs at block start.
            while self.pos[k] < self.chains[k].len()
                && self.offset[k] == 0
                && !remaining.contains(self.chains[k][self.pos[k]])
            {
                self.pos[k] += 1;
            }
            if self.pos[k] >= self.chains[k].len() {
                continue;
            }
            let j = self.chains[k][self.pos[k]];
            if self.long_job[j as usize] {
                if self.offset[k] == 0 {
                    // Pause starts now: queue the long job for this
                    // segment's SemPolicy phase.
                    self.seg_long_jobs.push(j);
                }
                continue; // pauses occupy no machines
            }
            for &(i, x) in self.assignment.machines_for(JobId(j)) {
                if self.offset[k] < x {
                    machine_jobs[i as usize].push(JobId(j));
                }
            }
        }

        let congestion = machine_jobs.iter().map(Vec::len).max().unwrap_or(0) as u64;
        self.stats.max_congestion = self.stats.max_congestion.max(congestion);
        let rows = congestion.max(1) as usize;
        self.plan = (0..rows)
            .map(|r| {
                (0..m)
                    .map(|i| machine_jobs[i].get(r).copied())
                    .collect::<Vec<Option<JobId>>>()
            })
            .collect();
        self.plan_pos = 0;
        self.in_flight = true;
    }

    /// Gang-sequential fallback row: all machines on the first eligible
    /// remaining job.
    fn fallback_row(&self, view: &StateView<'_>, out: &mut Row) {
        let target = self
            .chains
            .iter()
            .flatten()
            .copied()
            .find(|&j| view.remaining.contains(j) && view.eligible.contains(j));
        out.fill(target.map(JobId));
    }

    /// Absolute time at which the bad-event fallback budget runs out.
    fn budget_deadline(&self) -> u64 {
        self.start_time.saturating_add(self.fallback_budget)
    }

    /// Cap a decision's wake-up at the budget deadline so the switch to
    /// fallback mode happens at the same absolute step under both the
    /// dense and the event engine.
    fn cap_to_budget(&self, d: Decision) -> Decision {
        if self.mode == Mode::Fallback {
            return d;
        }
        let deadline = self.budget_deadline();
        match d.next_wakeup {
            Some(w) => Decision::wake_at(w.min(deadline)),
            None => Decision::wake_at(deadline),
        }
    }

    fn my_jobs_done(&self, remaining: &suu_core::BitSet) -> bool {
        self.chains
            .iter()
            .flatten()
            .all(|&j| !remaining.contains(j))
    }
}

/// Coarsen: round each `x̂_ij` down to a multiple of `t*/(nm)` and restore
/// any lost mass with extra steps on the job's best machine (the paper's
/// "reinserted steps", folded into the job's own block).
fn coarsen_assignment(inst: &SuuInstance, assignment: &mut Assignment, t_star: f64) {
    let n = inst.num_jobs();
    let m = inst.num_machines();
    let mult = ((t_star / (n * m) as f64).floor() as u64).max(1);
    if mult == 1 {
        return; // t_LP2 already polynomial in n, m: nothing to do
    }
    let mut replacement = Assignment::new(m, n);
    for j in 0..n as u32 {
        let job = JobId(j);
        let mut lost = 0.0f64;
        for &(i, x) in assignment.machines_for(job) {
            let floored = x / mult * mult;
            if floored > 0 {
                replacement.add(MachineId(i), job, floored);
            }
            lost += (x - floored) as f64 * inst.ell(MachineId(i), job);
        }
        if lost > 0.0 {
            let best = inst.best_machine(job);
            let per_step = inst.ell(best, job);
            let extra = (lost / per_step).ceil() as u64;
            replacement.add(best, job, extra.max(1));
        }
    }
    *assignment = replacement;
}

impl Policy for ChainPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn reseed(&mut self, seed: u64) {
        // Mix the configured base seed so two specs with different `seed`
        // parameters stay distinguishable under the same trial stream.
        self.rng = SmallRng::seed_from_u64(seed ^ self.cfg.seed.rotate_left(32));
    }

    fn reset(&mut self) {
        self.mode = Mode::Supersteps;
        self.delays = (0..self.chains.len())
            .map(|_| {
                if self.cfg.use_random_delay && self.h_range > 0 {
                    self.rng.random_range(0..=self.h_range)
                } else {
                    0
                }
            })
            .collect();
        self.pos.iter_mut().for_each(|p| *p = 0);
        self.offset.iter_mut().for_each(|o| *o = 0);
        self.superstep = 0;
        self.seg_long_jobs.clear();
        self.plan.clear();
        self.plan_pos = 0;
        self.in_flight = false;
        self.started = false;
        self.start_time = 0;
        self.last_time = 0;
        self.stats = ChainStats::default();
    }

    fn decide(&mut self, view: &StateView<'_>, out: &mut Row) -> Decision {
        let t = view.time;
        if !self.started {
            self.started = true;
            self.start_time = t;
            self.last_time = t;
        }
        let dt = t - self.last_time;
        self.last_time = t;
        // Plan progress is time-driven: the steps since the previous
        // consultation were spent playing the current plan iff we were in
        // superstep mode (mode changes only happen inside `decide`, so
        // the whole span belongs to one mode).
        if self.mode == Mode::Supersteps {
            self.plan_pos += dt as usize;
        }

        if self.my_jobs_done(view.remaining) {
            return Decision::HOLD;
        }
        // The Theorem-9 "bad event" budget, at epoch granularity: every
        // non-fallback decision's wake-up is capped at the budget
        // deadline (`cap_to_budget`), so both engines consult us at that
        // exact step and flip together.
        if self.mode != Mode::Fallback && t >= self.budget_deadline() {
            self.mode = Mode::Fallback;
            self.stats.fallback_triggered = true;
        }

        loop {
            match self.mode {
                Mode::Fallback => {
                    // Pure function of the remaining/eligible sets.
                    self.fallback_row(view, out);
                    return Decision::HOLD;
                }
                Mode::LongJobs => {
                    if self.long_sub.is_done(view.remaining) {
                        self.mode = Mode::Supersteps;
                        continue;
                    }
                    let d = self.long_sub.decide(view, out);
                    return self.cap_to_budget(d);
                }
                Mode::Supersteps => {
                    if self.plan_pos < self.plan.len() {
                        out.copy_from_row(&self.plan[self.plan_pos]);
                        // Hold through identical consecutive plan rows;
                        // the wake-up chain lands us exactly on the next
                        // distinct row or the superstep boundary.
                        let mut run = 1;
                        while self.plan_pos + run < self.plan.len()
                            && self.plan[self.plan_pos + run] == self.plan[self.plan_pos]
                        {
                            run += 1;
                        }
                        return self.cap_to_budget(Decision::wake_at(t + run as u64));
                    }
                    // Superstep boundary.
                    if self.in_flight {
                        self.in_flight = false;
                        self.advance_chains(view.remaining);
                    }
                    // Segment boundary: run this segment's long jobs.
                    if self.superstep > 0
                        && self.superstep.is_multiple_of(self.gamma)
                        && !self.seg_long_jobs.is_empty()
                    {
                        self.seg_long_jobs.retain(|&j| view.remaining.contains(j));
                        if !self.seg_long_jobs.is_empty() {
                            self.long_sub.restart(&self.seg_long_jobs);
                            self.seg_long_jobs.clear();
                            self.stats.long_job_phases += 1;
                            self.mode = Mode::LongJobs;
                            continue;
                        }
                    }
                    self.plan_superstep(view.remaining);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suu_t::ForestPolicy;
    use suu_core::{workload, Precedence};
    use suu_dag::{generators, ChainSet};
    use suu_sim::{execute, ExecConfig, Semantics};

    fn chain_instance(
        seed: u64,
        m: usize,
        n: usize,
        num_chains: usize,
    ) -> (Arc<SuuInstance>, Vec<Vec<u32>>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cs = generators::random_chain_set(n, num_chains, &mut rng);
        let chains = cs.chains().to_vec();
        let inst = workload::uniform_unrelated(m, n, 0.2, 0.95, Precedence::Chains(cs), &mut rng);
        (Arc::new(inst), chains)
    }

    #[test]
    fn completes_random_chain_instances() {
        for seed in 0..5u64 {
            let (inst, chains) = chain_instance(seed, 3, 10, 3);
            let mut policy =
                ChainPolicy::build(inst.clone(), chains, ChainConfig::default()).unwrap();
            let out = execute(&inst, &mut policy, &ExecConfig::default(), seed + 100);
            assert!(out.completed, "seed {seed}");
            assert_eq!(out.ineligible_assignments, 0, "seed {seed}");
            assert!(policy.stats().supersteps > 0);
        }
    }

    #[test]
    fn deterministic_chain_completes_quickly() {
        // q = 0: each block succeeds first try.
        let cs = ChainSet::new(6, vec![vec![0, 1, 2], vec![3, 4, 5]]).unwrap();
        let chains = cs.chains().to_vec();
        let inst = Arc::new(workload::deterministic(2, 6, Precedence::Chains(cs)));
        let cfg = ChainConfig {
            use_random_delay: false,
            ..ChainConfig::default()
        };
        let mut policy = ChainPolicy::build(inst.clone(), chains, cfg).unwrap();
        let out = execute(&inst, &mut policy, &ExecConfig::default(), 1);
        assert!(out.completed);
        assert!(!policy.stats().fallback_triggered);
    }

    #[test]
    fn random_delay_reduces_congestion_on_many_chains() {
        // Many parallel chains hammering few machines: delays must not
        // *increase* worst congestion, and typically decrease it.
        let (inst, chains) = chain_instance(77, 2, 40, 20);
        let run = |use_delay: bool| {
            let cfg = ChainConfig {
                use_random_delay: use_delay,
                seed: 5,
                ..ChainConfig::default()
            };
            let mut policy = ChainPolicy::build(inst.clone(), chains.clone(), cfg).unwrap();
            let out = execute(&inst, &mut policy, &ExecConfig::default(), 9);
            assert!(out.completed);
            policy.stats().max_congestion
        };
        let with_delay = run(true);
        let without_delay = run(false);
        assert!(
            with_delay <= without_delay,
            "delays should not worsen congestion: {with_delay} vs {without_delay}"
        );
    }

    #[test]
    fn long_jobs_trigger_sem_phases() {
        let (inst, chains) = long_job_chain();
        let mut policy = ChainPolicy::build(inst.clone(), chains, ChainConfig::default()).unwrap();
        assert!(policy.gamma() >= 1);
        let out = execute(&inst, &mut policy, &ExecConfig::default(), 3);
        assert!(out.completed);
        assert!(
            policy.stats().long_job_phases > 0,
            "expected at least one long-job phase (gamma = {})",
            policy.gamma()
        );
    }

    /// `q` of an `m × n` instance whose listed jobs are nearly impossible
    /// per step: q = 0.999 on every machine (ell ≈ 0.00144, so each needs
    /// ~700 steps of mass for target 1), which forces long blocks.
    fn q_with_hard_jobs(m: usize, n: usize, hard: &[usize]) -> Vec<f64> {
        let mut q = vec![0.5; m * n];
        for i in 0..m {
            for &j in hard {
                q[i * n + j] = 0.999;
            }
        }
        q
    }

    /// One chain of 8 jobs on 2 machines whose job 0 is far harder than
    /// the rest.
    fn long_job_chain() -> (Arc<SuuInstance>, Vec<Vec<u32>>) {
        let (m, n) = (2, 8);
        let cs = ChainSet::new(n, vec![(0..n as u32).collect()]).unwrap();
        let chains = cs.chains().to_vec();
        let q = q_with_hard_jobs(m, n, &[0]);
        let inst = SuuInstance::new(m, n, q, Precedence::Chains(cs)).unwrap();
        (Arc::new(inst), chains)
    }

    /// `trials` executions under both semantics, each run twice: on one
    /// policy value reused across all trials (its LP1 memo warm), and on a
    /// freshly built value (memo empty). The outcomes must be bitwise
    /// equal. Returns the reused value and the long-job phases it ran.
    fn reused_matches_fresh<P: Policy>(
        inst: &SuuInstance,
        build: impl Fn() -> P,
        phases: impl Fn(&P) -> u64,
        trials: u64,
    ) -> (P, u64) {
        let mut reused = build();
        let mut long_phases = 0;
        for semantics in [Semantics::Suu, Semantics::SuuStar] {
            let cfg = ExecConfig {
                semantics,
                ..ExecConfig::default()
            };
            for trial in 0..trials {
                let run = |policy: &mut P| {
                    policy.reseed(trial);
                    execute(inst, policy, &cfg, 1_000 + trial)
                };
                let warm = run(&mut reused);
                long_phases += phases(&reused);
                let cold = run(&mut build());
                assert_eq!(warm, cold, "{semantics:?}, trial {trial}");
                assert!(warm.completed, "{semantics:?}, trial {trial}");
            }
        }
        (reused, long_phases)
    }

    #[test]
    fn lp1_memo_never_changes_a_chain_outcome() {
        let (inst, chains) = long_job_chain();
        let build =
            || ChainPolicy::build(inst.clone(), chains.clone(), ChainConfig::default()).unwrap();
        let (reused, phases) =
            reused_matches_fresh(&inst, build, |p| p.stats().long_job_phases, 32);
        assert!(phases > 0, "no long-job phase ran");
        // Every phase plays at least round 1, so fewer memo entries than
        // phases means later phases replayed memoized tables.
        let entries = reused.long_sub.memo_len();
        assert!(
            entries > 0 && (entries as u64) < phases,
            "{entries} memo entries for {phases} phases"
        );
    }

    #[test]
    fn lp1_memo_never_changes_a_forest_outcome() {
        let (m, n) = (3, 16);
        let mut rng = SmallRng::seed_from_u64(12);
        let forest = generators::random_out_forest(n, 2, &mut rng);
        let q = q_with_hard_jobs(m, n, &[0, 5, 11]);
        let inst = Arc::new(SuuInstance::new(m, n, q, Precedence::Forest(forest.clone())).unwrap());
        let build = || ForestPolicy::build(inst.clone(), &forest, ChainConfig::default()).unwrap();
        let phases = |p: &ForestPolicy| p.block_stats().iter().map(|s| s.long_job_phases).sum();
        let (_, phases) = reused_matches_fresh(&inst, build, phases, 32);
        assert!(phases > 0, "no long-job phase ran");
    }

    #[test]
    fn coarsening_preserves_completion() {
        let (inst, chains) = chain_instance(5, 3, 8, 2);
        let cfg = ChainConfig {
            coarsen: true,
            ..ChainConfig::default()
        };
        let mut policy = ChainPolicy::build(inst.clone(), chains, cfg).unwrap();
        let out = execute(&inst, &mut policy, &ExecConfig::default(), 4);
        assert!(out.completed);
    }

    #[test]
    fn subset_chains_leave_other_jobs_alone() {
        // Chains cover only jobs 0..4 of 6; jobs 4,5 are never scheduled.
        let inst = Arc::new(workload::homogeneous(2, 6, 0.5, Precedence::Independent));
        let chains = vec![vec![0u32, 1], vec![2, 3]];
        let mut policy = ChainPolicy::build(inst.clone(), chains, ChainConfig::default()).unwrap();
        policy.reset();
        let remaining = suu_core::BitSet::full(6);
        let eligible = suu_core::BitSet::full(6);
        let mut row = Row::new(2);
        for t in 0..200 {
            let view = StateView {
                time: t,
                epoch: 0,
                remaining: &remaining,
                eligible: &eligible,
                n: 6,
                m: 2,
            };
            row.clear();
            policy.decide(&view, &mut row);
            for j in row.slots().iter().flatten() {
                assert!(j.0 < 4, "scheduled job outside chains: {j:?}");
            }
        }
    }

    #[test]
    fn stats_reset_between_runs() {
        let (inst, chains) = chain_instance(2, 2, 6, 2);
        let mut policy = ChainPolicy::build(inst.clone(), chains, ChainConfig::default()).unwrap();
        let _ = execute(&inst, &mut policy, &ExecConfig::default(), 8);
        let first = policy.stats().supersteps;
        assert!(first > 0);
        policy.reset();
        assert_eq!(policy.stats().supersteps, 0);
    }
}
