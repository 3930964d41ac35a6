//! Exact expected-makespan optimum for tiny instances.
//!
//! SUU is NP-hard in general (Malewicz), but for tiny `n`/`m` the optimal
//! adaptive schedule can be computed exactly: the problem is a Markov
//! decision process whose states are the *down-closed* sets of remaining
//! jobs (completed jobs are closed under predecessors) and whose actions
//! assign each machine to an eligible job. Because transitions only remove
//! jobs, the Bellman recursion solves in one pass over states by
//! increasing cardinality:
//!
//! ```text
//! V(S) = min_a  (1 + Σ_{∅ ≠ C ⊆ touched(a)} P_a(C) · V(S \ C)) / (1 − P_a(∅))
//! ```
//!
//! where `P_a(C)` is the probability exactly the jobs in `C` complete.
//! `V(J)` is `E[T_OPT]` — the denominator every approximation-ratio
//! experiment (`fig_opt_small`) divides by.
//!
//! [`exact_opt`] (and [`OptPolicy::build`]) minimizes over every action of
//! a state; [`evaluate_stationary`] takes the one action a given policy
//! picks. Both walk one state space and apply one Bellman step per action.

use std::collections::HashMap;
use suu_core::{JobId, MachineId, SuuInstance};

/// Resource limits for the exact solver.
#[derive(Debug, Clone, Copy)]
pub struct OptLimits {
    /// Maximum number of jobs (state space `2^n`).
    pub max_jobs: usize,
    /// Abort if the total work estimate (state-action-outcome triples)
    /// exceeds this.
    pub max_ops: u64,
}

impl Default for OptLimits {
    fn default() -> Self {
        OptLimits {
            max_jobs: 14,
            max_ops: 400_000_000,
        }
    }
}

/// The MDP's states: the nonempty remaining sets that are closed under
/// successors (a job remains only while all its successors do).
struct StateSpace {
    /// Bit mask of each job's predecessors.
    preds: Vec<u32>,
    /// The states, sorted by size so each state's successors `S \ C` are
    /// solved before it.
    states: Vec<u32>,
}

impl StateSpace {
    /// The state space of `inst`, or `None` if it exceeds `limits`.
    fn new(inst: &SuuInstance, limits: OptLimits) -> Option<Self> {
        let n = inst.num_jobs();
        if n > limits.max_jobs || n > 24 {
            return None;
        }
        let dag = inst.precedence().to_dag(n);
        let mut preds = vec![0u32; n];
        let mut succs = vec![0u32; n];
        for v in 0..n as u32 {
            for &u in dag.predecessors(v) {
                preds[v as usize] |= 1 << u;
            }
            for &w in dag.successors(v) {
                succs[v as usize] |= 1 << w;
            }
        }
        let mut states: Vec<u32> = (1..1u32 << n)
            .filter(|&mask| (0..n).all(|j| mask >> j & 1 == 0 || (succs[j] & !mask) == 0))
            .collect();
        states.sort_by_key(|s| s.count_ones());
        Some(StateSpace { preds, states })
    }

    /// The set of all jobs, the initial state.
    fn full(&self) -> usize {
        (1 << self.preds.len()) - 1
    }

    /// `V` before the pass: `0` for the empty set, `∞` elsewhere.
    fn values(&self) -> Vec<f64> {
        let mut value = vec![f64::INFINITY; self.full() + 1];
        value[0] = 0.0;
        value
    }

    /// Whether job `j` remains in `mask` with all its predecessors done.
    fn is_eligible(&self, mask: u32, j: usize) -> bool {
        mask >> j & 1 == 1 && (self.preds[j] & mask) == 0
    }

    /// The eligible jobs of state `mask`.
    fn eligible(&self, mask: u32) -> Vec<usize> {
        (0..self.preds.len())
            .filter(|&j| self.is_eligible(mask, j))
            .collect()
    }
}

/// Per job that `row`'s `(machine, job)` pairs touch, the probability
/// that every machine on it fails this step.
fn failures(inst: &SuuInstance, row: impl Iterator<Item = (usize, usize)>) -> Vec<(usize, f64)> {
    let mut fail: Vec<(usize, f64)> = Vec::new();
    for (i, j) in row {
        let q = inst.q(MachineId(i as u32), JobId(j as u32));
        match fail.iter_mut().find(|(jj, _)| *jj == j) {
            Some((_, f)) => *f *= q,
            None => fail.push((j, q)),
        }
    }
    fail
}

/// One Bellman step: the expected makespan from state `mask` under an
/// action whose touched jobs fail with the probabilities `fail`, given
/// `value` on every smaller state; `None` when no job can complete.
fn bellman(value: &[f64], mask: u32, fail: &[(usize, f64)]) -> Option<f64> {
    let mut expectation = 0.0f64; // Σ_{C≠∅} P(C) V(S\C)
    let mut p_nothing = 0.0f64;
    for sub in 0u32..(1 << fail.len()) {
        let mut p = 1.0f64;
        let mut removed = 0u32;
        for (b, &(j, f)) in fail.iter().enumerate() {
            if sub >> b & 1 == 1 {
                p *= 1.0 - f;
                removed |= 1 << j;
            } else {
                p *= f;
            }
        }
        if p == 0.0 {
            continue;
        }
        if sub == 0 {
            p_nothing = p;
        } else {
            expectation += p * value[(mask & !removed) as usize];
        }
    }
    (p_nothing < 1.0).then(|| (1.0 + expectation) / (1.0 - p_nothing))
}

/// Exact `E[T_OPT]`, or `None` if the instance exceeds `limits`.
pub fn exact_opt(inst: &SuuInstance, limits: OptLimits) -> Option<f64> {
    solve_dp(inst, limits, false).map(|dp| dp.value)
}

/// The Bellman solve's output: the optimal value, plus (when requested)
/// the argmax action per reachable remaining-set state.
struct DpSolution {
    /// `V(J)` — the optimal expected makespan.
    value: f64,
    /// For each remaining-set mask: one job choice per machine. Only
    /// populated when actions were recorded.
    actions: HashMap<u32, Vec<Option<usize>>>,
}

fn solve_dp(inst: &SuuInstance, limits: OptLimits, record_actions: bool) -> Option<DpSolution> {
    let m = inst.num_machines();
    let space = StateSpace::new(inst, limits)?;
    let mut value = space.values();
    let mut actions = HashMap::new();
    let mut ops: u64 = 0;

    for &mask in &space.states {
        let eligible = space.eligible(mask);
        debug_assert!(!eligible.is_empty(), "nonempty valid state has a source");

        // Per machine that can help an eligible job (q < 1): those jobs. A
        // machine with no useful job idles; drop it from enumeration.
        let active: Vec<(usize, Vec<usize>)> = (0..m)
            .map(|i| {
                let helps = |&j: &usize| inst.q(MachineId(i as u32), JobId(j as u32)) < 1.0;
                (
                    i,
                    eligible.iter().copied().filter(helps).collect::<Vec<_>>(),
                )
            })
            .filter(|(_, jobs)| !jobs.is_empty())
            .collect();
        if active.is_empty() {
            return None; // cannot make progress — malformed instance
        }

        let num_actions: u64 = active
            .iter()
            .map(|(_, jobs)| jobs.len() as u64)
            .try_fold(1u64, |a, b| a.checked_mul(b))?;
        ops = ops.checked_add(num_actions.checked_mul(1 << active.len().min(20))?)?;
        if ops > limits.max_ops {
            return None;
        }

        // Mixed-radix enumeration of actions: machine `active[s].0` runs
        // job `active[s].1[counter[s]]`.
        let mut counter = vec![0usize; active.len()];
        let mut best = f64::INFINITY;
        let mut best_counter: Vec<usize> = counter.clone();
        loop {
            let row = active
                .iter()
                .zip(&counter)
                .map(|((i, jobs), &c)| (*i, jobs[c]));
            if let Some(v) = bellman(&value, mask, &failures(inst, row)) {
                if v < best {
                    best = v;
                    best_counter.copy_from_slice(&counter);
                }
            }

            // Increment counter.
            let mut carry = 0;
            while carry < active.len() {
                counter[carry] += 1;
                if counter[carry] < active[carry].1.len() {
                    break;
                }
                counter[carry] = 0;
                carry += 1;
            }
            if carry == active.len() {
                break;
            }
        }
        value[mask as usize] = best;
        if record_actions && best.is_finite() {
            let mut row: Vec<Option<usize>> = vec![None; m];
            for ((i, jobs), &c) in active.iter().zip(&best_counter) {
                row[*i] = Some(jobs[c]);
            }
            actions.insert(mask, row);
        }
    }

    Some(DpSolution {
        value: value[space.full()],
        actions,
    })
}

/// The optimal schedule itself, executable: a stationary policy replaying
/// the Bellman DP's argmax action for every reachable remaining-set state.
///
/// Only available where [`exact_opt`] is (tiny instances). This is what
/// the registry exposes as `"exact-opt"`, letting the Monte-Carlo harness
/// race approximation algorithms against the true optimum — and letting
/// tests cross-check the simulated mean against the DP's closed-form
/// [`OptPolicy::expected_makespan`].
pub struct OptPolicy {
    actions: HashMap<u32, Vec<Option<usize>>>,
    expected: f64,
}

impl OptPolicy {
    /// Solve the MDP and capture its optimal actions, or `None` if the
    /// instance exceeds `limits`.
    pub fn build(inst: &SuuInstance, limits: OptLimits) -> Option<Self> {
        let dp = solve_dp(inst, limits, true)?;
        Some(OptPolicy {
            actions: dp.actions,
            expected: dp.value,
        })
    }

    /// The DP's exact `E[T_OPT]` for the instance this policy was built on.
    pub fn expected_makespan(&self) -> f64 {
        self.expected
    }
}

impl suu_sim::Policy for OptPolicy {
    fn name(&self) -> &str {
        "exact-opt"
    }

    fn reset(&mut self) {}

    fn decide(
        &mut self,
        view: &suu_sim::StateView<'_>,
        out: &mut suu_sim::Assignment,
    ) -> suu_sim::Decision {
        let mut mask = 0u32;
        for j in view.remaining.iter() {
            mask |= 1 << j;
        }
        // Stationary: the action depends only on the remaining set, so
        // hold it until the next completion. (Unknown states are
        // unreachable for engine-produced views; idle safely.)
        if let Some(row) = self.actions.get(&mask) {
            for (i, slot) in row.iter().enumerate() {
                out.set_slot(i, slot.map(|j| JobId(j as u32)));
            }
        }
        suu_sim::Decision::HOLD
    }

    /// The MDP's optimal action is a pure function of the remaining set
    /// (that *is* the DP state), so the batched engine may share one
    /// lookup per distinct remaining set across a whole trial batch.
    fn is_stationary(&self) -> bool {
        true
    }
}

/// Exact expected makespan of a **stationary** policy: one whose machine
/// assignment depends only on the set of remaining jobs (gang-sequential,
/// best-machine and the greedy baselines qualify; time-varying policies
/// like round-robin or the round-based schedules do not).
///
/// `assign` receives the remaining-set bitmask and the eligible job list
/// and returns one job choice per machine (indices into `0..n`). Returns
/// `None` if the instance exceeds `limits` or if the policy stalls (zero
/// progress probability in a reachable state — e.g. only `q = 1` pairs
/// assigned).
pub fn evaluate_stationary<F>(inst: &SuuInstance, limits: OptLimits, mut assign: F) -> Option<f64>
where
    F: FnMut(u32, &[usize]) -> Vec<Option<usize>>,
{
    let m = inst.num_machines();
    let space = StateSpace::new(inst, limits)?;
    let mut value = space.values();
    for &mask in &space.states {
        let choice = assign(mask, &space.eligible(mask));
        assert_eq!(choice.len(), m, "policy returned wrong row width");
        // A machine on a completed or ineligible job idles.
        let row = choice
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.filter(|&j| space.is_eligible(mask, j)).map(|j| (i, j)));
        // `None`: the policy makes no progress from this state.
        value[mask as usize] = bellman(&value, mask, &failures(inst, row))?;
    }
    Some(value[space.full()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use suu_core::{workload, Precedence, SuuInstance};
    use suu_dag::ChainSet;

    fn opt(inst: &SuuInstance) -> f64 {
        exact_opt(inst, OptLimits::default()).expect("within limits")
    }

    #[test]
    fn single_job_single_machine_geometric() {
        // E[T] = 1 / (1 - q).
        for q in [0.0, 0.5, 0.9] {
            let inst = workload::homogeneous(1, 1, q, Precedence::Independent);
            assert!((opt(&inst) - 1.0 / (1.0 - q)).abs() < 1e-9, "q = {q}");
        }
    }

    #[test]
    fn one_job_two_machines_gang() {
        // Optimal: both machines on the job; success 1 - q^2.
        let inst = workload::homogeneous(2, 1, 0.5, Precedence::Independent);
        assert!((opt(&inst) - 1.0 / (1.0 - 0.25)).abs() < 1e-9);
    }

    #[test]
    fn deterministic_chain_is_its_length() {
        let cs = ChainSet::new(4, vec![vec![0, 1, 2, 3]]).unwrap();
        let inst = workload::deterministic(2, 4, Precedence::Chains(cs));
        assert!((opt(&inst) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_independent_load_balance() {
        // 4 jobs, 2 machines, q = 0: two steps (2 jobs per step).
        let inst = workload::deterministic(2, 4, Precedence::Independent);
        assert!((opt(&inst) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn two_jobs_one_machine_known_value() {
        // q = 1/2 each, one machine. Serve one job until done, then the
        // other: E = 2 + 2 = 4. (No better policy exists with one machine.)
        let inst = workload::homogeneous(1, 2, 0.5, Precedence::Independent);
        assert!((opt(&inst) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn opt_monotone_in_machine_quality() {
        let worse = workload::homogeneous(2, 3, 0.8, Precedence::Independent);
        let better = workload::homogeneous(2, 3, 0.4, Precedence::Independent);
        assert!(opt(&better) < opt(&worse));
    }

    #[test]
    fn respects_limits() {
        let inst = workload::homogeneous(2, 10, 0.5, Precedence::Independent);
        let tiny = OptLimits {
            max_jobs: 4,
            max_ops: 1000,
        };
        assert_eq!(exact_opt(&inst, tiny), None);
    }

    #[test]
    fn useless_machine_is_ignored() {
        // Machine 1 never helps (q = 1); OPT must equal the single-machine
        // value.
        let inst = SuuInstance::new(2, 1, vec![0.5, 1.0], Precedence::Independent).unwrap();
        assert!((opt(&inst) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn evaluate_gang_matches_closed_form() {
        // Gang on identical machines: jobs sequential, each
        // Geometric(1 - q^m): E = n / (1 - q^m).
        let (m, n, q) = (3usize, 4usize, 0.6f64);
        let inst = workload::homogeneous(m, n, q, Precedence::Independent);
        let v = evaluate_stationary(&inst, OptLimits::default(), |_, eligible| {
            vec![eligible.first().copied(); m]
        })
        .unwrap();
        let expected = n as f64 / (1.0 - q.powi(m as i32));
        assert!((v - expected).abs() < 1e-9, "{v} vs {expected}");
    }

    #[test]
    fn evaluate_optimal_policy_equals_opt() {
        // Feed the DP's own optimal action back in: values must agree.
        // Here the obviously optimal stationary policy for 2 identical
        // jobs on 2 identical machines is one machine per job.
        let inst = workload::homogeneous(2, 2, 0.5, Precedence::Independent);
        let v = evaluate_stationary(&inst, OptLimits::default(), |_, eligible| {
            (0..2)
                .map(|i| eligible.get(i % eligible.len().max(1)).copied())
                .collect()
        })
        .unwrap();
        let opt = exact_opt(&inst, OptLimits::default()).unwrap();
        assert!(v >= opt - 1e-9, "policy value {v} below OPT {opt}");
        assert!((v - opt).abs() < 1e-9, "split policy is optimal here");
    }

    #[test]
    fn evaluate_detects_stalling_policy() {
        let inst = workload::homogeneous(1, 1, 0.5, Precedence::Independent);
        // Policy that always idles: zero progress.
        let v = evaluate_stationary(&inst, OptLimits::default(), |_, _| vec![None]);
        assert_eq!(v, None);
    }

    #[test]
    fn evaluate_dominated_policy_is_worse() {
        // Using only one machine when two exist must not beat OPT.
        let inst = workload::homogeneous(2, 3, 0.5, Precedence::Independent);
        let lazy = evaluate_stationary(&inst, OptLimits::default(), |_, eligible| {
            vec![eligible.first().copied(), None]
        })
        .unwrap();
        let opt = exact_opt(&inst, OptLimits::default()).unwrap();
        assert!(lazy > opt + 0.5, "lazy {lazy} vs opt {opt}");
    }

    #[test]
    fn opt_policy_replays_the_dp_exactly() {
        // Feeding OptPolicy's stationary action table back through the
        // noise-free evaluator must reproduce E[T_OPT] to the bit.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        use rand::SeedableRng;
        let inst = workload::uniform_unrelated(2, 5, 0.3, 0.9, Precedence::Independent, &mut rng);
        let mut policy = OptPolicy::build(&inst, OptLimits::default()).expect("tiny");
        let opt = exact_opt(&inst, OptLimits::default()).unwrap();
        assert_eq!(policy.expected_makespan().to_bits(), opt.to_bits());

        use suu_sim::Policy as _;
        let m = inst.num_machines();
        let v = evaluate_stationary(&inst, OptLimits::default(), |mask, _| {
            let mut bits = suu_core::BitSet::new(5);
            for j in (0..5u32).filter(|j| mask >> j & 1 == 1) {
                bits.insert(j);
            }
            let view = suu_sim::StateView {
                time: 0,
                epoch: 0,
                remaining: &bits,
                eligible: &bits,
                n: 5,
                m,
            };
            let mut row = suu_sim::Assignment::new(m);
            policy.decide(&view, &mut row);
            row.slots().iter().map(|s| s.map(|j| j.index())).collect()
        })
        .unwrap();
        assert_eq!(v.to_bits(), opt.to_bits(), "policy value {v} vs OPT {opt}");
    }

    #[test]
    fn opt_policy_respects_precedence_on_chains() {
        let cs = ChainSet::new(4, vec![vec![0, 1], vec![2, 3]]).unwrap();
        let inst = workload::homogeneous(2, 4, 0.5, Precedence::Chains(cs));
        let policy = OptPolicy::build(&inst, OptLimits::default()).expect("tiny");
        // In the initial state only chain heads are eligible; the optimal
        // action must not touch jobs 1 or 3.
        let mask = 0b1111u32;
        let row = policy.actions.get(&mask).expect("initial state solved");
        for slot in row.iter().flatten() {
            assert!([0usize, 2].contains(slot), "assigned non-head job {slot}");
        }
    }

    #[test]
    fn diamond_dag_orders_correctly() {
        // 0 -> {1,2} -> 3, q = 0, 2 machines: step1 job0, step2 jobs 1+2,
        // step3 job3 => 3 steps.
        let dag = suu_dag::Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let inst = workload::deterministic(2, 4, Precedence::Dag(dag));
        assert!((opt(&inst) - 3.0).abs() < 1e-9);
    }
}
