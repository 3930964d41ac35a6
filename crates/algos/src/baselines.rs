//! Baseline schedules for the experiment tables.
//!
//! * [`GangSequentialPolicy`] — the trivial `O(n)`-approximation the paper
//!   repeatedly uses as a fallback: all machines on one eligible job at a
//!   time.
//! * [`RoundRobinPolicy`] — naive spread of machines over eligible jobs.
//! * [`BestMachinePolicy`] — each eligible job claims its best machine
//!   (greedy matching by log failure); leftover machines reinforce the
//!   jobs with the best marginal rates.
//! * [`LrGreedyPolicy`] — a per-step greedy in the spirit of Lin &
//!   Rajaraman's `O(log n)` independent-jobs algorithm \[11\]: machines are
//!   assigned one by one to the eligible job where they add the most
//!   *clamped* marginal mass (target 1), i.e. greedily maximizing the
//!   step's aggregate success exponent. \[11\]'s exact greedy is not
//!   reproduced in the paper text; this reconstruction matches its
//!   analysis interface (constant-factor mass coverage per step) and is
//!   labeled accordingly in the harness output.

use std::sync::Arc;
use suu_core::{JobId, MachineId, SuuInstance};
use suu_sim::{Assignment, Decision, Policy, StateView};

/// All machines gang on the first eligible job (by id), then the next.
pub struct GangSequentialPolicy {
    name: &'static str,
}

impl GangSequentialPolicy {
    /// New gang-sequential baseline.
    pub fn new() -> Self {
        GangSequentialPolicy {
            name: "gang-sequential",
        }
    }
}

impl Default for GangSequentialPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for GangSequentialPolicy {
    fn name(&self) -> &str {
        self.name
    }
    fn reset(&mut self) {}
    fn decide(&mut self, view: &StateView<'_>, out: &mut Assignment) -> Decision {
        // Pure function of the eligible set: hold until a completion.
        out.fill(view.eligible.first().map(JobId));
        Decision::HOLD
    }

    /// Stateless, time-invariant, always HOLD: the batched engine may
    /// share one decision per remaining set across a whole trial batch.
    fn is_stationary(&self) -> bool {
        true
    }
}

/// Machine `i` serves eligible job `(i + t) mod k` — uniform spread with
/// rotation so every job eventually sees every machine.
pub struct RoundRobinPolicy {
    name: &'static str,
}

impl RoundRobinPolicy {
    /// New round-robin baseline.
    pub fn new() -> Self {
        RoundRobinPolicy {
            name: "round-robin",
        }
    }
}

impl Default for RoundRobinPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for RoundRobinPolicy {
    fn name(&self) -> &str {
        self.name
    }
    fn reset(&mut self) {}
    fn decide(&mut self, view: &StateView<'_>, out: &mut Assignment) -> Decision {
        let eligible: Vec<u32> = view.eligible.iter().collect();
        if eligible.is_empty() {
            return Decision::HOLD;
        }
        for i in 0..view.m {
            let idx = (i as u64 + view.time) as usize % eligible.len();
            out.set(i, JobId(eligible[idx]));
        }
        if eligible.len() == 1 {
            // Rotation is a no-op with one target: hold.
            Decision::HOLD
        } else {
            // Genuinely time-varying: degrade to per-step pacing.
            Decision::step(view)
        }
    }
}

/// Greedy matching: jobs (in order of scarcest best rate) claim their best
/// machine; leftover machines go to their own best eligible job.
pub struct BestMachinePolicy {
    inst: Arc<SuuInstance>,
    name: &'static str,
    /// Every job, stably sorted by its best rate (scarcest first).
    order: Vec<u32>,
    /// Decide scratch: the eligible jobs in `order`.
    eligible: Vec<u32>,
}

impl BestMachinePolicy {
    /// New best-machine baseline over the given instance.
    pub fn new(inst: Arc<SuuInstance>) -> Self {
        let best_ell: Vec<f64> = (0..inst.num_jobs() as u32)
            .map(|j| inst.best_ell(JobId(j)))
            .collect();
        let mut order: Vec<u32> = (0..inst.num_jobs() as u32).collect();
        sort_jobs_by_key(&mut order, &best_ell);
        BestMachinePolicy {
            eligible: Vec::with_capacity(order.len()),
            inst,
            name: "best-machine",
            order,
        }
    }
}

impl Policy for BestMachinePolicy {
    fn name(&self) -> &str {
        self.name
    }
    fn reset(&mut self) {}
    fn decide(&mut self, view: &StateView<'_>, out: &mut Assignment) -> Decision {
        // Hardest jobs (smallest best rate) pick first. A stable sort
        // restricted to a subset is that subset stably sorted, so this is
        // the id-ordered eligible set sorted by best rate.
        self.eligible.clear();
        self.eligible.extend(
            self.order
                .iter()
                .copied()
                .filter(|&j| view.eligible.contains(j)),
        );
        if self.eligible.is_empty() {
            return Decision::HOLD;
        }
        let mut free = view.m;
        for &j in &self.eligible {
            if free == 0 {
                break;
            }
            // Best *free* machine for j.
            let mut best: Option<(usize, f64)> = None;
            for i in 0..view.m {
                if out.get(i).is_some() {
                    continue;
                }
                let e = self.inst.ell_row(MachineId(i as u32))[j as usize];
                if e > 0.0 && best.is_none_or(|(_, be)| e > be) {
                    best = Some((i, e));
                }
            }
            if let Some((i, _)) = best {
                out.set(i, JobId(j));
                free -= 1;
            }
        }
        // Leftover machines reinforce their individually best eligible job.
        for i in 0..view.m {
            if out.get(i).is_some() {
                continue;
            }
            let row = self.inst.ell_row(MachineId(i as u32));
            let mut best: Option<(u32, f64)> = None;
            for &j in &self.eligible {
                let e = row[j as usize];
                if e > 0.0 && best.is_none_or(|(_, be)| e > be) {
                    best = Some((j, e));
                }
            }
            out.set_slot(i, best.map(|(j, _)| JobId(j)));
        }
        // Pure function of the eligible set: hold until a completion.
        Decision::HOLD
    }

    /// The matching depends only on the eligible set and the (fixed)
    /// instance rates, so the batched engine may share decisions.
    fn is_stationary(&self) -> bool {
        true
    }
}

/// Stable sort of job ids by ascending `key[j]`: equal keys keep their
/// order.
fn sort_jobs_by_key(jobs: &mut [u32], key: &[f64]) {
    jobs.sort_by(|&a, &b| {
        key[a as usize]
            .partial_cmp(&key[b as usize])
            .expect("keys are not NaN")
    });
}

/// Clamp target of [`LrGreedyPolicy`]'s marginal mass (1 = aim for
/// constant success per step).
const LR_TARGET: f64 = 1.0;

/// [`LrGreedyPolicy`]'s score for adding rate `e` to a job that already
/// has `planned` mass this step: the marginal clamped contribution toward
/// the target, tie-broken by raw rate so saturated steps still spread
/// sensibly.
fn lr_score(planned: f64, e: f64) -> f64 {
    (LR_TARGET - planned).max(0.0).min(e) + 1e-9 * e
}

/// Per-step greedy marginal-mass maximization (Lin–Rajaraman-style).
///
/// Each machine in turn takes the eligible job with the highest
/// `lr_score`, the lowest job id among equal scores. A job nothing is
/// planned for yet scores `lr_score(0, ℓ_ij)`, a constant of the instance,
/// so each machine ranks those jobs once, up front: its best unplanned
/// job is the first eligible, unplanned one in its ranking. Only the at
/// most `m` jobs already planned this step are scored per decision.
pub struct LrGreedyPolicy {
    inst: Arc<SuuInstance>,
    name: &'static str,
    /// Machine `i`'s useful jobs (`ℓ_ij > 0`) are
    /// `ranked[starts[i]..starts[i + 1]]`, best unplanned score first and
    /// ties by id.
    ranked: Vec<u32>,
    starts: Vec<usize>,
    /// Decide scratch: the jobs planned this step and their mass.
    planned: Vec<(u32, f64)>,
}

impl LrGreedyPolicy {
    /// New greedy baseline.
    pub fn new(inst: Arc<SuuInstance>) -> Self {
        let m = inst.num_machines();
        let mut ranked = Vec::new();
        let mut starts = vec![0];
        for i in 0..m {
            let row = inst.ell_row(MachineId(i as u32));
            // Best first: ascending by the negated score.
            let key: Vec<f64> = row.iter().map(|&e| -lr_score(0.0, e)).collect();
            let start = ranked.len();
            ranked.extend((0..row.len() as u32).filter(|&j| row[j as usize] > 0.0));
            sort_jobs_by_key(&mut ranked[start..], &key);
            starts.push(ranked.len());
        }
        LrGreedyPolicy {
            inst,
            name: "greedy-lr",
            ranked,
            starts,
            planned: Vec::with_capacity(m),
        }
    }
}

impl Policy for LrGreedyPolicy {
    fn name(&self) -> &str {
        self.name
    }
    fn reset(&mut self) {}
    fn decide(&mut self, view: &StateView<'_>, out: &mut Assignment) -> Decision {
        self.planned.clear();
        for i in 0..view.m {
            let row = self.inst.ell_row(MachineId(i as u32));
            let planned = &self.planned;
            let mut best: Option<(u32, f64)> = self.ranked[self.starts[i]..self.starts[i + 1]]
                .iter()
                .find(|&&j| view.eligible.contains(j) && planned.iter().all(|&(p, _)| p != j))
                .map(|&j| (j, lr_score(0.0, row[j as usize])));
            for &(j, mass) in planned {
                let e = row[j as usize];
                if e <= 0.0 {
                    continue;
                }
                let score = lr_score(mass, e);
                if best.is_none_or(|(bj, bs)| score > bs || (score == bs && j < bj)) {
                    best = Some((j, score));
                }
            }
            if let Some((j, _)) = best {
                let e = row[j as usize];
                match self.planned.iter_mut().find(|(p, _)| *p == j) {
                    Some((_, mass)) => *mass += e,
                    None => self.planned.push((j, e)),
                }
                out.set(i, JobId(j));
            }
        }
        // Pure function of the eligible set: hold until a completion.
        Decision::HOLD
    }

    /// The greedy row depends only on the eligible set and the (fixed)
    /// instance rates, so the batched engine may share decisions.
    fn is_stationary(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use suu_core::{workload, Precedence};
    use suu_dag::generators;
    use suu_sim::{execute, ExecConfig};

    fn check_completes(mut policy: impl Policy, inst: &SuuInstance, seed: u64) -> u64 {
        let out = execute(inst, &mut policy, &ExecConfig::default(), seed);
        assert!(out.completed, "{} did not complete", policy.name());
        assert_eq!(out.ineligible_assignments, 0, "{}", policy.name());
        out.makespan
    }

    /// One decide call against a synthetic view; returns the row.
    fn decide_once(policy: &mut impl Policy, view: &StateView<'_>) -> Vec<Option<JobId>> {
        let mut out = Assignment::new(view.m);
        policy.decide(view, &mut out);
        out.slots().to_vec()
    }

    #[test]
    fn all_baselines_complete_independent() {
        let mut grng = SmallRng::seed_from_u64(1);
        let inst = Arc::new(workload::uniform_unrelated(
            3,
            8,
            0.3,
            0.9,
            Precedence::Independent,
            &mut grng,
        ));
        check_completes(GangSequentialPolicy::new(), &inst, 10);
        check_completes(RoundRobinPolicy::new(), &inst, 11);
        check_completes(BestMachinePolicy::new(inst.clone()), &inst, 12);
        check_completes(LrGreedyPolicy::new(inst.clone()), &inst, 13);
    }

    #[test]
    fn all_baselines_respect_dag_precedence() {
        let mut grng = SmallRng::seed_from_u64(2);
        let dag = generators::layered_dag(10, 3, 0.4, &mut grng);
        let inst = Arc::new(workload::uniform_unrelated(
            3,
            10,
            0.3,
            0.9,
            Precedence::Dag(dag),
            &mut grng,
        ));
        check_completes(GangSequentialPolicy::new(), &inst, 20);
        check_completes(RoundRobinPolicy::new(), &inst, 21);
        check_completes(BestMachinePolicy::new(inst.clone()), &inst, 22);
        check_completes(LrGreedyPolicy::new(inst.clone()), &inst, 23);
    }

    #[test]
    fn best_machine_avoids_useless_machines() {
        // Machine 1 is useless for job 0 (q=1); it must not be assigned
        // there while job 1 exists.
        let inst = Arc::new(
            SuuInstance::new(2, 2, vec![0.5, 0.5, 1.0, 0.5], Precedence::Independent).unwrap(),
        );
        let mut policy = BestMachinePolicy::new(inst.clone());
        policy.reset();
        let remaining = suu_core::BitSet::full(2);
        let view = StateView {
            time: 0,
            epoch: 0,
            remaining: &remaining,
            eligible: &remaining,
            n: 2,
            m: 2,
        };
        let row = decide_once(&mut policy, &view);
        assert_ne!(row[1], Some(JobId(0)), "machine 1 cannot help job 0");
    }

    #[test]
    fn greedy_spreads_mass_before_piling_on() {
        // Two identical jobs, two identical machines with ell = 1: the
        // greedy should cover both jobs rather than double-teaming one.
        let inst = Arc::new(workload::homogeneous(2, 2, 0.5, Precedence::Independent));
        let mut policy = LrGreedyPolicy::new(inst.clone());
        policy.reset();
        let remaining = suu_core::BitSet::full(2);
        let view = StateView {
            time: 0,
            epoch: 0,
            remaining: &remaining,
            eligible: &remaining,
            n: 2,
            m: 2,
        };
        let row = decide_once(&mut policy, &view);
        let jobs: std::collections::HashSet<_> = row.iter().flatten().collect();
        assert_eq!(jobs.len(), 2, "both jobs should be covered: {row:?}");
    }

    /// `LrGreedyPolicy`'s row the direct way: every eligible job (in id
    /// order) scored against every machine.
    fn reference_greedy_row(inst: &SuuInstance, eligible: &[u32]) -> Vec<Option<JobId>> {
        let mut row = vec![None; inst.num_machines()];
        let mut planned = vec![0.0f64; eligible.len()];
        for (i, slot) in row.iter_mut().enumerate() {
            let mut best: Option<(usize, f64)> = None;
            for (p, &j) in eligible.iter().enumerate() {
                let e = inst.ell(MachineId(i as u32), JobId(j));
                if e <= 0.0 {
                    continue;
                }
                let score = (1.0 - planned[p]).max(0.0).min(e) + 1e-9 * e;
                if best.is_none_or(|(_, bs)| score > bs) {
                    best = Some((p, score));
                }
            }
            if let Some((p, _)) = best {
                planned[p] += inst.ell(MachineId(i as u32), JobId(eligible[p]));
                *slot = Some(JobId(eligible[p]));
            }
        }
        row
    }

    /// `BestMachinePolicy`'s row the direct way: the eligible jobs sorted
    /// on every decision, every job scanning every machine.
    fn reference_best_machine_row(inst: &SuuInstance, eligible: &[u32]) -> Vec<Option<JobId>> {
        let m = inst.num_machines();
        let mut row: Vec<Option<JobId>> = vec![None; m];
        let mut eligible = eligible.to_vec();
        eligible.sort_by(|&a, &b| {
            inst.best_ell(JobId(a))
                .partial_cmp(&inst.best_ell(JobId(b)))
                .unwrap()
        });
        for &j in &eligible {
            let mut best: Option<(usize, f64)> = None;
            for (i, slot) in row.iter().enumerate() {
                let e = inst.ell(MachineId(i as u32), JobId(j));
                if slot.is_none() && e > 0.0 && best.is_none_or(|(_, be)| e > be) {
                    best = Some((i, e));
                }
            }
            if let Some((i, _)) = best {
                row[i] = Some(JobId(j));
            }
        }
        for (i, slot) in row.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            let mut best: Option<(u32, f64)> = None;
            for &j in &eligible {
                let e = inst.ell(MachineId(i as u32), JobId(j));
                if e > 0.0 && best.is_none_or(|(_, be)| e > be) {
                    best = Some((j, e));
                }
            }
            *slot = best.map(|(j, _)| JobId(j));
        }
        row
    }

    #[test]
    fn stationary_rows_match_the_reference_loops() {
        // q on a coarse grid makes equal scores common, q = 1 makes
        // useless pairs (ell = 0) and q <= 0.5 saturates the greedy's
        // clamp within one machine.
        let grid = [0.0, 0.25, 0.5, 0.5, 0.75, 0.9, 1.0];
        for seed in 0..60u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let m = rng.random_range(1..=7usize);
            let n = rng.random_range(1..=30usize);
            let mut q: Vec<f64> = (0..m * n)
                .map(|_| grid[rng.random_range(0..grid.len())])
                .collect();
            for j in 0..n {
                if (0..m).all(|i| q[i * n + j] >= 1.0) {
                    q[j] = 0.5; // every job needs one useful machine
                }
            }
            let inst = Arc::new(SuuInstance::new(m, n, q, Precedence::Independent).unwrap());
            let mut greedy = LrGreedyPolicy::new(inst.clone());
            let mut matching = BestMachinePolicy::new(inst.clone());
            let remaining = suu_core::BitSet::full(n);
            for _ in 0..20 {
                let mut eligible = suu_core::BitSet::new(n);
                for j in 0..n as u32 {
                    if rng.random_bool(0.6) {
                        eligible.insert(j);
                    }
                }
                let ids: Vec<u32> = eligible.iter().collect();
                let view = StateView {
                    time: 0,
                    epoch: 0,
                    remaining: &remaining,
                    eligible: &eligible,
                    n,
                    m,
                };
                assert_eq!(
                    decide_once(&mut greedy, &view),
                    reference_greedy_row(&inst, &ids),
                    "greedy-lr, seed {seed}, eligible {ids:?}"
                );
                assert_eq!(
                    decide_once(&mut matching, &view),
                    reference_best_machine_row(&inst, &ids),
                    "best-machine, seed {seed}, eligible {ids:?}"
                );
            }
        }
    }

    #[test]
    fn gang_on_deterministic_instance_is_n_steps() {
        let inst = workload::deterministic(3, 5, Precedence::Independent);
        let makespan = check_completes(GangSequentialPolicy::new(), &inst, 30);
        assert_eq!(makespan, 5);
    }
}
