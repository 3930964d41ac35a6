//! `SUU-I-SEM`: the semioblivious `O(log log min(m,n))`-approximation
//! (Theorem 4).
//!
//! The schedule runs in **rounds** with doubling mass targets: round `k`
//! plays the rounded `LP1(J_k, 2^{k−2})` timetable on the jobs `J_k` still
//! uncompleted, for `k = 1..K` with `K = ⌈log₂ log₂ min(m,n)⌉ + 3`. A job
//! surviving round `k` must have hidden threshold `−log₂ r_j > 2^{k−2}`,
//! so successive rounds chase the (doubly-exponentially unlikely) tail of
//! the hidden draws; the paper's competitive analysis shows each round
//! costs `O(T_OFF({r_j}))`.
//!
//! After `K` rounds:
//! * if `n ≤ m`: remaining jobs run **one at a time on all machines**
//!   (expected constant steps each at the reached mass level);
//! * if `m < n`: the round-`K` timetable is repeated until completion
//!   (load halves in expectation every repetition — Theorem 4's appendix
//!   case).

use crate::lp::solve_lp1;
use crate::rounding::{round_lp, ScaleMode};
use crate::AlgoError;
use std::collections::HashMap;
use std::sync::Arc;
use suu_core::{BitSet, JobId, MachineId, SuuInstance, Timetable};
use suu_sim::{Assignment, Decision, Policy, StateView};

/// Bound on memoized timetables (keyed by round + remaining set) kept per
/// policy value. Every trial a worker runs on the value shares the memo,
/// and so does every long-job phase of a `SUU-C` or `SUU-T` policy value,
/// which restarts one `SemPolicy` per phase (see [`SemPolicy::restart`]).
const CACHE_CAP: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Playing LP rounds `1..=K`.
    Rounds,
    /// Post-K, `n ≤ m`: all machines gang on one job at a time.
    GangFallback,
    /// Post-K, `m < n`: repeat the round-K timetable.
    RepeatFallback,
}

/// Execution statistics of the most recent run (for the `fig_rounds`
/// experiment).
#[derive(Debug, Clone, Copy, Default)]
pub struct SemStats {
    /// Highest round whose timetable was (at least partially) played.
    pub rounds_used: u32,
    /// Whether the post-K fallback was entered.
    pub fallback_entered: bool,
}

/// The semioblivious rounds policy.
pub struct SemPolicy {
    inst: Arc<SuuInstance>,
    /// Job subset this policy is responsible for (`None` = all jobs).
    subset: Option<Vec<u32>>,
    k_max: u32,
    name: String,

    // --- per-execution state ---
    phase: Phase,
    round: u32,
    table: Option<Timetable>,
    /// Absolute time the current table (or the repeat cycle) began.
    table_start: u64,
    /// Cyclic row-change distances of the repeat-fallback table.
    repeat_change: Vec<Option<u64>>,
    stats: SemStats,

    // --- cross-execution memoization ---
    cache: HashMap<(u32, Vec<u32>), Timetable>,
}

impl SemPolicy {
    /// Build `SUU-I-SEM` over all jobs of the instance (independent jobs).
    pub fn build(inst: Arc<SuuInstance>) -> Result<Self, AlgoError> {
        Self::for_jobs(inst, None)
    }

    /// Build over a job subset: the policy only ever schedules listed jobs
    /// and idles once they are all complete. Used as the long-job
    /// sub-schedule inside `SUU-C` and by `SUU-T` blocks.
    pub fn for_jobs(inst: Arc<SuuInstance>, subset: Option<Vec<u32>>) -> Result<Self, AlgoError> {
        let n_eff = subset.as_ref().map_or(inst.num_jobs(), Vec::len);
        let k_max = k_rounds(inst.num_machines(), n_eff);
        Ok(SemPolicy {
            inst,
            subset,
            k_max,
            name: "SUU-I-SEM".to_string(),
            phase: Phase::Rounds,
            round: 0,
            table: None,
            table_start: 0,
            repeat_change: Vec::new(),
            stats: SemStats::default(),
            cache: HashMap::new(),
        })
    }

    /// Hand the policy a new job subset for its next execution: sets `K`
    /// for the subset, resets the per-execution state and keeps the
    /// timetable memo. Its entries are keyed by round and remaining job
    /// list, and each table is a pure function of the instance, that list
    /// and the round, so a memo hit never changes an outcome.
    pub fn restart(&mut self, jobs: &[u32]) {
        let subset = self.subset.get_or_insert_with(Vec::new);
        subset.clear();
        subset.extend_from_slice(jobs);
        self.k_max = k_rounds(self.inst.num_machines(), jobs.len());
        self.reset();
    }

    /// Number of memoized timetables.
    #[cfg(test)]
    pub(crate) fn memo_len(&self) -> usize {
        self.cache.len()
    }

    /// The round bound `K = ⌈log₂ log₂ min(m,n)⌉ + 3`.
    pub fn k_max(&self) -> u32 {
        self.k_max
    }

    /// Stats of the most recent execution.
    pub fn stats(&self) -> SemStats {
        self.stats
    }

    /// `true` once every job this policy owns has completed.
    pub fn is_done(&self, remaining: &BitSet) -> bool {
        match &self.subset {
            None => remaining.is_empty(),
            Some(jobs) => jobs.iter().all(|&j| !remaining.contains(j)),
        }
    }

    /// Jobs of the subset still remaining, in increasing id order.
    fn my_remaining(&self, remaining: &BitSet) -> Vec<u32> {
        match &self.subset {
            None => remaining.iter().collect(),
            Some(jobs) => jobs
                .iter()
                .copied()
                .filter(|&j| remaining.contains(j))
                .collect(),
        }
    }

    /// Mass target of round `k` (1-based): `2^(k-2)`, i.e. `1/2, 1, 2, …`.
    fn target(k: u32) -> f64 {
        (2.0f64).powi(k as i32 - 2)
    }

    fn compute_table(&mut self, k: u32, jobs: &[u32]) -> Timetable {
        let key = (k, jobs.to_vec());
        if let Some(t) = self.cache.get(&key) {
            return t.clone();
        }
        let table = match solve_lp1(&self.inst, jobs, Self::target(k))
            .and_then(|sol| round_lp(&self.inst, &sol, ScaleMode::Adaptive))
        {
            Ok((assignment, _)) => assignment.to_timetable(),
            // LP failures cannot occur for valid instances; degrade to an
            // explicit gang step rather than crashing mid-simulation.
            Err(_) => gang_table(&self.inst, jobs),
        };
        if self.cache.len() >= CACHE_CAP {
            self.cache.clear();
        }
        self.cache.insert(key, table.clone());
        table
    }
}

/// One-step timetable ganging all machines on the first listed job.
fn gang_table(inst: &SuuInstance, jobs: &[u32]) -> Timetable {
    let mut t = Timetable::idle(inst.num_machines(), 1);
    if let Some(&j) = jobs.first() {
        for i in 0..inst.num_machines() {
            t.set(0, MachineId(i as u32), Some(JobId(j)));
        }
    }
    t
}

/// `K = ⌈log₂ log₂ min(m,n)⌉ + 3` (with the argument clamped to ≥ 4 so the
/// nested log is defined and ≥ 1).
pub fn k_rounds(m: usize, n: usize) -> u32 {
    let v = m.min(n).max(4) as f64;
    (v.log2().log2().ceil() as u32) + 3
}

impl Policy for SemPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn reset(&mut self) {
        self.phase = Phase::Rounds;
        self.round = 0;
        self.table = None;
        self.table_start = 0;
        self.repeat_change.clear();
        self.stats = SemStats::default();
    }

    fn decide(&mut self, view: &StateView<'_>, out: &mut Assignment) -> Decision {
        let remaining = self.my_remaining(view.remaining);
        if remaining.is_empty() {
            return Decision::HOLD; // idle until someone else's jobs move
        }

        loop {
            match self.phase {
                Phase::Rounds => {
                    // Progress is anchored to absolute time: the current
                    // table plays rows `table_start..table_start + len`,
                    // and the wake-up chain below guarantees we are
                    // consulted at the exhaustion step exactly.
                    let exhausted = match &self.table {
                        None => true,
                        Some(t) => view.time >= self.table_start + t.len() as u64,
                    };
                    if exhausted {
                        self.round += 1;
                        if self.round > self.k_max {
                            // Post-K behaviour depends on n vs m (paper
                            // compares the *instance* sizes).
                            let n_eff = self.subset.as_ref().map_or(view.n, Vec::len);
                            self.stats.fallback_entered = true;
                            if n_eff <= view.m {
                                self.phase = Phase::GangFallback;
                            } else {
                                self.phase = Phase::RepeatFallback;
                                self.table_start = view.time;
                                // Keep the round-K table; if it is somehow
                                // missing/empty, degrade to gang.
                                match self.table.as_ref() {
                                    Some(t) if !t.is_empty() => {
                                        self.repeat_change = t.cyclic_change_distances();
                                    }
                                    _ => self.phase = Phase::GangFallback,
                                }
                            }
                            continue;
                        }
                        self.stats.rounds_used = self.round;
                        let table = self.compute_table(self.round, &remaining);
                        debug_assert!(!table.is_empty(), "round table must be non-empty");
                        self.table = Some(table);
                        self.table_start = view.time;
                    }
                    let t = self.table.as_ref().expect("table set above");
                    let pos = (view.time - self.table_start) as usize;
                    for i in 0..view.m {
                        out.set_slot(i, t.get(pos, MachineId(i as u32)));
                    }
                    // Hold through the run of identical rows; the run ends
                    // at a row change or at the round boundary.
                    let run = t.run_length_from(pos) as u64;
                    return Decision::wake_at(view.time + run);
                }
                Phase::GangFallback => {
                    // Pure function of the remaining set.
                    out.fill(Some(JobId(remaining[0])));
                    return Decision::HOLD;
                }
                Phase::RepeatFallback => {
                    let t = self.table.as_ref().expect("round-K table retained");
                    let pos = ((view.time - self.table_start) % t.len() as u64) as usize;
                    for i in 0..view.m {
                        out.set_slot(i, t.get(pos, MachineId(i as u32)));
                    }
                    return match self.repeat_change[pos] {
                        Some(d) => Decision::wake_at(view.time + d),
                        None => Decision::HOLD, // constant cycle
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use suu_core::{workload, Precedence};
    use suu_sim::{execute, ExecConfig, Semantics};

    #[test]
    fn k_rounds_formula() {
        assert_eq!(k_rounds(4, 4), 4); // log log 4 = 1
        assert_eq!(k_rounds(16, 100), 5); // log log 16 = 2
        assert_eq!(k_rounds(256, 300), 6); // log log 256 = 3
        assert_eq!(k_rounds(1, 1), 4); // clamped
                                       // K depends on min(m, n).
        assert_eq!(k_rounds(1_000_000, 4), 4);
    }

    #[test]
    fn completes_and_tracks_rounds() {
        let mut rng = SmallRng::seed_from_u64(9);
        let inst = Arc::new(workload::uniform_unrelated(
            4,
            8,
            0.3,
            0.95,
            Precedence::Independent,
            &mut rng,
        ));
        let mut policy = SemPolicy::build(inst.clone()).unwrap();
        let out = execute(&inst, &mut policy, &ExecConfig::default(), 1);
        assert!(out.completed);
        assert!(policy.stats().rounds_used >= 1);
        assert_eq!(out.ineligible_assignments, 0);
    }

    #[test]
    fn deterministic_completes_in_round_one() {
        let inst = Arc::new(workload::deterministic(3, 3, Precedence::Independent));
        let mut policy = SemPolicy::build(inst.clone()).unwrap();
        let out = execute(&inst, &mut policy, &ExecConfig::default(), 2);
        assert!(out.completed);
        assert_eq!(policy.stats().rounds_used, 1);
        assert!(!policy.stats().fallback_entered);
    }

    #[test]
    fn subset_policy_only_touches_its_jobs() {
        let inst = Arc::new(workload::homogeneous(2, 6, 0.5, Precedence::Independent));
        let mut policy = SemPolicy::for_jobs(inst.clone(), Some(vec![1, 4])).unwrap();
        policy.reset();
        let remaining = BitSet::full(6);
        let eligible = BitSet::full(6);
        let mut row = Assignment::new(2);
        for t in 0..50 {
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
                assert!(j.0 == 1 || j.0 == 4, "assigned outside subset: {j:?}");
            }
        }
    }

    #[test]
    fn is_done_respects_subset() {
        let inst = Arc::new(workload::homogeneous(1, 3, 0.5, Precedence::Independent));
        let policy = SemPolicy::for_jobs(inst, Some(vec![0, 2])).unwrap();
        let mut remaining = BitSet::full(3);
        assert!(!policy.is_done(&remaining));
        remaining.remove(0);
        remaining.remove(2);
        assert!(policy.is_done(&remaining), "job 1 is not ours");
    }

    #[test]
    fn reset_allows_reuse() {
        let mut rng = SmallRng::seed_from_u64(10);
        let inst = Arc::new(workload::uniform_unrelated(
            2,
            4,
            0.4,
            0.9,
            Precedence::Independent,
            &mut rng,
        ));
        let mut policy = SemPolicy::build(inst.clone()).unwrap();
        let mut makespans = Vec::new();
        for seed in 0..5 {
            let out = execute(&inst, &mut policy, &ExecConfig::default(), seed);
            assert!(out.completed);
            makespans.push(out.makespan);
        }
        // Different engine seeds explore different outcomes; the policy
        // must not leak state between runs (checked by completion above).
        assert!(makespans.iter().all(|&t| t >= 1));
    }

    #[test]
    fn both_semantics_complete() {
        let mut rng = SmallRng::seed_from_u64(11);
        let inst = Arc::new(workload::volunteer_grid(
            5,
            10,
            0.4,
            0.1,
            0.95,
            Precedence::Independent,
            &mut rng,
        ));
        for semantics in [Semantics::Suu, Semantics::SuuStar] {
            let mut policy = SemPolicy::build(inst.clone()).unwrap();
            let out = execute(
                &inst,
                &mut policy,
                &ExecConfig {
                    semantics,
                    max_steps: 1_000_000,
                },
                3,
            );
            assert!(out.completed, "{semantics:?}");
        }
    }
}
