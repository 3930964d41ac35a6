//! Integral machine-step assignments `{x_ij}`.
//!
//! The paper's LP roundings (Lemmas 2 and 6) output an *assignment*: for
//! each machine `i` and job `j`, an integral number of steps `x_ij` that
//! `i` should spend on `j`. Three derived quantities drive the analysis:
//!
//! * **load** of machine `i`: `Σ_j x_ij` — how busy the machine is;
//! * **length** of job `j`: `d_j = max_i x_ij` — the wall-clock span of the
//!   job's oblivious block (paper §4);
//! * **log mass** of job `j`: `Σ_i ℓ_ij · x_ij` — the success guarantee.
//!
//! An assignment is turned into a runnable [`Timetable`] by *stacking*: each
//! machine runs its assigned jobs back-to-back in job order, giving a finite
//! oblivious schedule of length `max load` (the schedule `Σ_LP1` of §3).

use crate::{JobId, MachineId, SuuInstance, Timetable};

/// Sparse integral assignment of machine steps to jobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    m: usize,
    n: usize,
    /// Per job: sorted list of `(machine, steps)` with `steps >= 1`.
    per_job: Vec<Vec<(u32, u64)>>,
}

impl Assignment {
    /// Empty assignment for `m` machines and `n` jobs.
    pub fn new(m: usize, n: usize) -> Self {
        Assignment {
            m,
            n,
            per_job: vec![Vec::new(); n],
        }
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.m
    }

    /// Number of jobs.
    pub fn num_jobs(&self) -> usize {
        self.n
    }

    /// Add `steps` of machine `i` to job `j` (accumulates).
    pub fn add(&mut self, i: MachineId, j: JobId, steps: u64) {
        assert!(
            i.index() < self.m && j.index() < self.n,
            "index out of range"
        );
        if steps == 0 {
            return;
        }
        let row = &mut self.per_job[j.index()];
        match row.binary_search_by_key(&i.0, |&(mi, _)| mi) {
            Ok(pos) => row[pos].1 += steps,
            Err(pos) => row.insert(pos, (i.0, steps)),
        }
    }

    /// Steps of machine `i` assigned to job `j`.
    pub fn steps(&self, i: MachineId, j: JobId) -> u64 {
        self.per_job[j.index()]
            .binary_search_by_key(&i.0, |&(mi, _)| mi)
            .map(|pos| self.per_job[j.index()][pos].1)
            .unwrap_or(0)
    }

    /// `(machine, steps)` pairs for job `j`.
    pub fn machines_for(&self, j: JobId) -> &[(u32, u64)] {
        &self.per_job[j.index()]
    }

    /// Load of machine `i`: total steps across all jobs.
    pub fn load(&self, i: MachineId) -> u64 {
        self.per_job
            .iter()
            .map(|row| {
                row.binary_search_by_key(&i.0, |&(mi, _)| mi)
                    .map(|pos| row[pos].1)
                    .unwrap_or(0)
            })
            .sum()
    }

    /// All machine loads at once (O(total entries)).
    pub fn loads(&self) -> Vec<u64> {
        let mut loads = vec![0u64; self.m];
        for row in &self.per_job {
            for &(i, s) in row {
                loads[i as usize] += s;
            }
        }
        loads
    }

    /// Maximum machine load — the stacked timetable's length.
    pub fn max_load(&self) -> u64 {
        self.loads().into_iter().max().unwrap_or(0)
    }

    /// Length `d_j = max_i x_ij` of job `j`'s oblivious block.
    pub fn length(&self, j: JobId) -> u64 {
        self.per_job[j.index()]
            .iter()
            .map(|&(_, s)| s)
            .max()
            .unwrap_or(0)
    }

    /// Log mass `Σ_i ℓ_ij · x_ij` that this assignment gives job `j`.
    pub fn mass(&self, j: JobId, inst: &SuuInstance) -> f64 {
        self.per_job[j.index()]
            .iter()
            .map(|&(i, s)| inst.ell(MachineId(i), j) * s as f64)
            .sum()
    }

    /// Stack into a finite oblivious [`Timetable`] of length `max load`:
    /// machine `i` runs its assigned jobs consecutively, in job-id order.
    pub fn to_timetable(&self) -> Timetable {
        let len = self.max_load() as usize;
        let mut table = Timetable::idle(self.m, len);
        let mut cursor = vec![0usize; self.m];
        for (j, row) in self.per_job.iter().enumerate() {
            for &(i, s) in row {
                let i = i as usize;
                for _ in 0..s {
                    table.set(cursor[i], MachineId(i as u32), Some(JobId(j as u32)));
                    cursor[i] += 1;
                }
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Precedence;

    fn inst() -> SuuInstance {
        // 2 machines x 3 jobs, q picked for easy ells: 0.5 -> 1, 0.25 -> 2.
        SuuInstance::new(
            2,
            3,
            vec![0.5, 0.25, 0.5, 0.25, 0.5, 0.5],
            Precedence::Independent,
        )
        .unwrap()
    }

    #[test]
    fn add_accumulates_and_sorts() {
        let mut a = Assignment::new(2, 3);
        a.add(MachineId(1), JobId(0), 2);
        a.add(MachineId(0), JobId(0), 1);
        a.add(MachineId(1), JobId(0), 3);
        assert_eq!(a.steps(MachineId(1), JobId(0)), 5);
        assert_eq!(a.steps(MachineId(0), JobId(0)), 1);
        assert_eq!(a.machines_for(JobId(0)), &[(0, 1), (1, 5)]);
        assert_eq!(a.steps(MachineId(0), JobId(2)), 0);
    }

    #[test]
    fn zero_steps_is_noop() {
        let mut a = Assignment::new(1, 1);
        a.add(MachineId(0), JobId(0), 0);
        assert!(a.machines_for(JobId(0)).is_empty());
    }

    #[test]
    fn loads_and_lengths() {
        let mut a = Assignment::new(2, 3);
        a.add(MachineId(0), JobId(0), 2);
        a.add(MachineId(0), JobId(1), 1);
        a.add(MachineId(1), JobId(1), 4);
        assert_eq!(a.loads(), vec![3, 4]);
        assert_eq!(a.max_load(), 4);
        assert_eq!(a.length(JobId(0)), 2);
        assert_eq!(a.length(JobId(1)), 4);
        assert_eq!(a.length(JobId(2)), 0);
    }

    #[test]
    fn mass_uses_instance_ells() {
        let inst = inst();
        let mut a = Assignment::new(2, 3);
        a.add(MachineId(0), JobId(1), 3); // ell = 2 each
        a.add(MachineId(1), JobId(1), 1); // ell = 1
        assert!((a.mass(JobId(1), &inst) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn timetable_stacking() {
        let mut a = Assignment::new(2, 3);
        a.add(MachineId(0), JobId(0), 2);
        a.add(MachineId(0), JobId(2), 1);
        a.add(MachineId(1), JobId(1), 1);
        let t = a.to_timetable();
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(0, MachineId(0)), Some(JobId(0)));
        assert_eq!(t.get(1, MachineId(0)), Some(JobId(0)));
        assert_eq!(t.get(2, MachineId(0)), Some(JobId(2)));
        assert_eq!(t.get(0, MachineId(1)), Some(JobId(1)));
        assert_eq!(t.get(1, MachineId(1)), None);
    }
}
