//! Finite oblivious schedules (timetables).
//!
//! An *oblivious* schedule (paper §2) assigns machines to jobs based only
//! on the timestep, not on completion history. A [`Timetable`] is the
//! explicit table: `table[t][i]` is the job machine `i` works on at step
//! `t` (or idle). The engine skips entries whose job has already completed,
//! exactly as the paper's schedules map completed jobs to `⊥`.

use crate::{JobId, MachineId};

/// A finite oblivious schedule: one row per timestep, one column per
/// machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timetable {
    m: usize,
    steps: Vec<Vec<Option<JobId>>>,
}

impl Timetable {
    /// All-idle timetable with `len` steps.
    pub fn idle(m: usize, len: usize) -> Self {
        Timetable {
            m,
            steps: vec![vec![None; m]; len],
        }
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.m
    }

    /// Number of timesteps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` if the timetable has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Assignment of machine `i` at step `t`.
    pub fn get(&self, t: usize, i: MachineId) -> Option<JobId> {
        self.steps[t][i.index()]
    }

    /// Set the assignment of machine `i` at step `t`.
    pub fn set(&mut self, t: usize, i: MachineId, j: Option<JobId>) {
        self.steps[t][i.index()] = j;
    }

    /// The whole machine row at step `t`.
    pub fn row(&self, t: usize) -> &[Option<JobId>] {
        &self.steps[t]
    }

    /// Append another timetable's steps after this one (same `m`).
    pub fn extend(&mut self, other: &Timetable) {
        assert_eq!(self.m, other.m, "machine count mismatch");
        self.steps.extend(other.steps.iter().cloned());
    }

    /// Number of consecutive steps starting at `t` whose rows are all
    /// identical to row `t` (at least 1; scans to the end of the table,
    /// no wrap-around). Event-driven policies use this to declare how
    /// long an emitted row can be *held* before they need a wake-up.
    pub fn run_length_from(&self, t: usize) -> usize {
        let row = &self.steps[t];
        let mut len = 1;
        while t + len < self.steps.len() && self.steps[t + len] == *row {
            len += 1;
        }
        len
    }

    /// For each step, the number of steps until the row next *changes*,
    /// scanning cyclically (the table repeats). `None` entries mean the
    /// table is constant — the row never changes, so a repeating policy
    /// can hold it forever.
    pub fn cyclic_change_distances(&self) -> Vec<Option<u64>> {
        let len = self.steps.len();
        let mut out = vec![None; len];
        if len == 0 {
            return out;
        }
        // Two backward walks: the first only establishes the carry-in
        // distance at position 0 so the second can resolve wrap-arounds;
        // the second writes every entry.
        let mut dist: Option<u64> = None;
        for pass in 0..2 {
            for t in (0..len).rev() {
                let next = &self.steps[(t + 1) % len];
                dist = if self.steps[t] != *next {
                    Some(1)
                } else {
                    dist.map(|d| d + 1)
                };
                if pass == 1 {
                    out[t] = dist.map(|d| d.min(len as u64));
                }
            }
        }
        out
    }

    /// Total non-idle machine-steps.
    pub fn busy_steps(&self) -> u64 {
        self.steps
            .iter()
            .map(|row| row.iter().filter(|s| s.is_some()).count() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_table() {
        let t = Timetable::idle(3, 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.num_machines(), 3);
        assert_eq!(t.get(1, MachineId(2)), None);
        assert_eq!(t.busy_steps(), 0);
        assert!(!t.is_empty());
        assert!(Timetable::idle(3, 0).is_empty());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut t = Timetable::idle(2, 1);
        t.set(0, MachineId(1), Some(JobId(5)));
        assert_eq!(t.get(0, MachineId(1)), Some(JobId(5)));
        assert_eq!(t.row(0), &[None, Some(JobId(5))]);
        assert_eq!(t.busy_steps(), 1);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = Timetable::idle(1, 1);
        a.set(0, MachineId(0), Some(JobId(0)));
        let mut b = Timetable::idle(1, 2);
        b.set(1, MachineId(0), Some(JobId(1)));
        a.extend(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(0, MachineId(0)), Some(JobId(0)));
        assert_eq!(a.get(2, MachineId(0)), Some(JobId(1)));
    }

    #[test]
    fn run_lengths_and_cyclic_distances() {
        // Rows: A A B A (A = job 0 on machine 0, B = idle).
        let mut t = Timetable::idle(1, 4);
        for pos in [0usize, 1, 3] {
            t.set(pos, MachineId(0), Some(JobId(0)));
        }
        assert_eq!(t.run_length_from(0), 2);
        assert_eq!(t.run_length_from(1), 1);
        assert_eq!(t.run_length_from(2), 1);
        assert_eq!(t.run_length_from(3), 1);
        assert_eq!(
            t.cyclic_change_distances(),
            vec![Some(2), Some(1), Some(1), Some(3)],
            "row 3 == rows 0 and 1, so from 3 the next change is 3 steps away"
        );
        // Constant table: the row never changes.
        let c = Timetable::idle(2, 3);
        assert_eq!(c.cyclic_change_distances(), vec![None; 3]);
        assert_eq!(c.run_length_from(0), 3);
    }
}
