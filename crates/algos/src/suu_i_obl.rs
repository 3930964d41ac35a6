//! `SUU-I-OBL`: the oblivious `O(log n)`-approximation (Theorem 3).
//!
//! Solve `LP1(J, 1/2)`, round (Lemma 2), stack into a finite oblivious
//! timetable in which every job accrues log mass `≥ 1/2` — i.e. fails with
//! probability at most `2^(−1/2) < 1` — then repeat the timetable until all
//! jobs complete. Chernoff + union bound give `O(log n)` expected
//! repetitions, and `t_LP1(J,1/2) = O(E[T_OPT])` (Lemma 1), yielding the
//! `O(log n)` approximation.

use crate::lp::solve_lp1;
use crate::rounding::{round_lp, ScaleMode};
use crate::AlgoError;
use suu_core::{MachineId, SuuInstance, Timetable};
use suu_sim::{Assignment, Decision, Policy, StateView};

/// The repeated-timetable oblivious policy.
///
/// The timetable is computed once at construction (LP solve + rounding);
/// per-trial `reset` is free, so Monte-Carlo estimation is cheap. Being
/// oblivious, the row at time `t` is a pure function of `t mod period`,
/// so under the event engine the policy emits the row and a wake-up at
/// the next *row change* (precomputed per position) — stacked LP blocks
/// are long, so whole blocks are fast-forwarded.
pub struct OblPolicy {
    timetable: Timetable,
    /// Per position: steps until the (cyclic) row next changes; `None`
    /// when the whole table is one constant row.
    change_in: Vec<Option<u64>>,
    name: String,
}

impl OblPolicy {
    /// Build `SUU-I-OBL` for an independent-jobs instance.
    ///
    /// The precedence structure is ignored deliberately: this policy is
    /// only correct for independent jobs (every job eligible at all
    /// times). Callers with precedence constraints want [`crate::suu_c`]
    /// or [`crate::suu_t`].
    pub fn build(inst: &SuuInstance) -> Result<Self, AlgoError> {
        let jobs: Vec<u32> = (0..inst.num_jobs() as u32).collect();
        Self::for_jobs(inst, &jobs)
    }

    /// Build the repeated-timetable policy over a job subset (used by the
    /// `SUU-I-SEM` fallback and by tests).
    pub fn for_jobs(inst: &SuuInstance, jobs: &[u32]) -> Result<Self, AlgoError> {
        let sol = solve_lp1(inst, jobs, 0.5)?;
        let (assignment, _report) = round_lp(inst, &sol, ScaleMode::Adaptive)?;
        let timetable = assignment.to_timetable();
        let change_in = timetable.cyclic_change_distances();
        Ok(OblPolicy {
            timetable,
            change_in,
            name: "SUU-I-OBL".to_string(),
        })
    }

    /// Length of one repetition of the underlying timetable.
    pub fn period(&self) -> usize {
        self.timetable.len()
    }
}

impl Policy for OblPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn reset(&mut self) {}

    fn decide(&mut self, view: &StateView<'_>, out: &mut Assignment) -> Decision {
        if self.timetable.is_empty() {
            return Decision::HOLD;
        }
        let pos = (view.time % self.timetable.len() as u64) as usize;
        for i in 0..view.m {
            out.set_slot(i, self.timetable.get(pos, MachineId(i as u32)));
        }
        match self.change_in[pos] {
            // Wake exactly when the repeated timetable's row changes.
            Some(d) => Decision::wake_at(view.time + d),
            // Constant table: the row never changes; hold forever.
            None => Decision::HOLD,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use suu_core::{workload, Precedence};
    use suu_sim::{execute, ExecConfig};

    #[test]
    fn completes_small_instance() {
        let mut rng = SmallRng::seed_from_u64(1);
        let inst = workload::uniform_unrelated(3, 6, 0.2, 0.9, Precedence::Independent, &mut rng);
        let mut policy = OblPolicy::build(&inst).unwrap();
        assert!(policy.period() >= 1);
        let out = execute(&inst, &mut policy, &ExecConfig::default(), 2);
        assert!(out.completed);
        assert_eq!(out.ineligible_assignments, 0);
    }

    #[test]
    fn deterministic_instance_one_period() {
        // q = 0: every job completes the first time it is touched, so the
        // makespan is at most one timetable period.
        let inst = workload::deterministic(2, 4, Precedence::Independent);
        let mut policy = OblPolicy::build(&inst).unwrap();
        let out = execute(&inst, &mut policy, &ExecConfig::default(), 3);
        assert!(out.completed);
        assert!(out.makespan <= policy.period() as u64);
    }

    #[test]
    fn period_tracks_lp_value() {
        // Single machine, k jobs with q = 0.5 (ell = 1, clamped 0.5):
        // LP1 t* = k; period <= ceil(6k).
        let k = 5;
        let inst = workload::homogeneous(1, k, 0.5, Precedence::Independent);
        let policy = OblPolicy::build(&inst).unwrap();
        assert!(policy.period() as f64 <= 6.0 * k as f64 + 1.0);
        assert!(policy.period() >= k); // each job needs >= 1 distinct step
    }
}
