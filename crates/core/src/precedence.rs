//! Precedence structures and eligibility tracking.

use crate::BitSet;
use suu_dag::{ChainSet, Dag, Forest};

/// The precedence constraints of an SUU instance.
///
/// The paper's algorithm families target specific shapes, so the shape is
/// kept explicit rather than collapsed into a generic DAG; `to_dag` gives
/// the uniform view when needed (e.g. by the execution engine).
#[derive(Debug, Clone)]
pub enum Precedence {
    /// No constraints (SUU-I).
    Independent,
    /// Disjoint chains (SUU-C).
    Chains(ChainSet),
    /// A directed forest of in- or out-trees (SUU-T).
    Forest(Forest),
    /// An arbitrary DAG (no approximation algorithm in the paper; supported
    /// by the engine, the exact-OPT baseline and the naive policies).
    Dag(Dag),
}

impl Precedence {
    /// Materialize as a [`Dag`] over `n` jobs.
    pub fn to_dag(&self, n: usize) -> Dag {
        match self {
            Precedence::Independent => Dag::new(n),
            Precedence::Chains(cs) => cs.to_dag(),
            Precedence::Forest(f) => f.to_dag(),
            Precedence::Dag(d) => d.clone(),
        }
    }

    /// Number of jobs implied by the structure, if it pins one down.
    pub fn num_jobs(&self) -> Option<usize> {
        match self {
            Precedence::Independent => None,
            Precedence::Chains(cs) => Some(cs.num_jobs()),
            Precedence::Forest(f) => Some(f.num_vertices()),
            Precedence::Dag(d) => Some(d.num_vertices()),
        }
    }
}

/// The immutable half of eligibility tracking: successor lists and initial
/// indegrees of the precedence DAG.
///
/// Batched trial execution runs many simultaneous executions of one
/// instance; each needs its own remaining/eligible sets but they all share
/// this topology, which is computed (and allocated) once per batch rather
/// than once per trial. A single execution holds one topology and one
/// [`EligibilityState`].
#[derive(Debug, Clone)]
pub struct EligibilityTopology {
    /// Successor lists per job.
    succ: Vec<Vec<u32>>,
    /// Indegree per job (pending-predecessor count of a fresh state).
    indegrees: Vec<u32>,
    /// Jobs with no predecessors (the initial eligible set).
    initial_eligible: BitSet,
    /// Number of jobs.
    n: usize,
}

impl EligibilityTopology {
    /// Topology of `dag`. Panics if `dag` is cyclic.
    pub fn new(dag: &Dag) -> Self {
        assert!(dag.is_acyclic(), "precedence graph has a cycle");
        let n = dag.num_vertices();
        let indegrees = dag.indegrees();
        let mut initial_eligible = BitSet::new(n);
        for j in 0..n as u32 {
            if indegrees[j as usize] == 0 {
                initial_eligible.insert(j);
            }
        }
        let succ = (0..n as u32).map(|v| dag.successors(v).to_vec()).collect();
        EligibilityTopology {
            succ,
            indegrees,
            initial_eligible,
            n,
        }
    }

    /// Number of jobs.
    #[inline]
    pub fn num_jobs(&self) -> usize {
        self.n
    }

    /// A fresh per-trial state: every job uncompleted, sources eligible.
    pub fn new_state(&self) -> EligibilityState {
        EligibilityState {
            remaining: BitSet::full(self.n),
            eligible: self.initial_eligible.clone(),
            pending_preds: self.indegrees.clone(),
            epoch: 0,
        }
    }

    /// Reset `state` to exactly what [`EligibilityTopology::new_state`]
    /// returns, reusing its allocations — the batch engine recycles trial
    /// states across chunks so steady-state execution allocates nothing.
    /// `state` must have been created by this topology (same job count).
    pub fn reset_state(&self, state: &mut EligibilityState) {
        assert_eq!(
            state.pending_preds.len(),
            self.n,
            "state belongs to a different topology"
        );
        state.remaining.fill_all();
        state.eligible.copy_from(&self.initial_eligible);
        state.pending_preds.copy_from_slice(&self.indegrees);
        state.epoch = 0;
    }
}

/// The mutable half of eligibility tracking: one trial's remaining and
/// eligible sets plus pending-predecessor counts. Operations take the
/// shared [`EligibilityTopology`] explicitly, so a batch of trials holds
/// B states against one topology.
#[derive(Debug, Clone)]
pub struct EligibilityState {
    /// Remaining (uncompleted) jobs.
    remaining: BitSet,
    /// Eligible and uncompleted jobs.
    eligible: BitSet,
    /// Outstanding predecessor count per job.
    pending_preds: Vec<u32>,
    /// Completion events so far (the *decision epoch* counter: the
    /// eligible set changes exactly when a job completes, so event-driven
    /// engines and policies key their caches off this).
    epoch: u64,
}

impl EligibilityState {
    /// Jobs not yet completed.
    #[inline]
    pub fn remaining(&self) -> &BitSet {
        &self.remaining
    }

    /// Jobs eligible to run right now.
    #[inline]
    pub fn eligible(&self) -> &BitSet {
        &self.eligible
    }

    /// `true` once every job has completed.
    #[inline]
    pub fn all_done(&self) -> bool {
        self.remaining.is_empty()
    }

    /// Number of completion events so far. Increments exactly when the
    /// eligible set changes, so two observations with equal epochs are
    /// guaranteed to see identical remaining/eligible sets — the hook the
    /// event-driven engine (and caching policies) build on.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Mark job `j` complete under `topo`, unlocking any successors whose
    /// predecessors are now all done: a job is *eligible* when all its
    /// predecessors have completed (paper §2). Allocation-free, `O(1)`
    /// amortized per completion event.
    ///
    /// Panics (debug) if `j` was already complete or not eligible — the
    /// engine never completes an ineligible job.
    pub fn complete(&mut self, topo: &EligibilityTopology, j: u32) {
        debug_assert!(self.remaining.contains(j), "job {j} completed twice");
        debug_assert!(self.eligible.contains(j), "ineligible job {j} completed");
        self.epoch += 1;
        self.remaining.remove(j);
        self.eligible.remove(j);
        for &v in &topo.succ[j as usize] {
            self.pending_preds[v as usize] -= 1;
            if self.pending_preds[v as usize] == 0 {
                self.eligible.insert(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs(set: &BitSet) -> Vec<u32> {
        set.iter().collect()
    }

    #[test]
    fn independent_all_eligible() {
        let topo = EligibilityTopology::new(&Dag::new(4));
        let s = topo.new_state();
        assert_eq!(s.eligible().len(), 4);
        assert!(!s.all_done());
    }

    #[test]
    fn chain_unlocks_in_order() {
        let dag = Dag::from_edges(3, &[(0, 1), (1, 2)]);
        let topo = EligibilityTopology::new(&dag);
        let mut s = topo.new_state();
        assert_eq!(jobs(s.eligible()), vec![0]);
        assert_eq!(s.epoch(), 0);
        s.complete(&topo, 0);
        assert_eq!(jobs(s.eligible()), vec![1]);
        assert_eq!(s.epoch(), 1);
        s.complete(&topo, 1);
        assert_eq!(jobs(s.eligible()), vec![2]);
        s.complete(&topo, 2);
        assert_eq!(jobs(s.eligible()), Vec::<u32>::new());
        assert_eq!(s.epoch(), 3);
        assert!(s.all_done());
    }

    #[test]
    fn diamond_needs_both_parents() {
        let dag = Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let topo = EligibilityTopology::new(&dag);
        let mut s = topo.new_state();
        s.complete(&topo, 0);
        assert_eq!(jobs(s.eligible()), vec![1, 2]);
        s.complete(&topo, 1);
        assert_eq!(jobs(s.eligible()), vec![2], "3 still blocked by 2");
        s.complete(&topo, 2);
        assert_eq!(jobs(s.eligible()), vec![3]);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn double_complete_panics() {
        let topo = EligibilityTopology::new(&Dag::new(2));
        let mut s = topo.new_state();
        s.complete(&topo, 0);
        s.complete(&topo, 0);
    }

    #[test]
    fn shared_topology_runs_independent_trial_states() {
        // Two trials over one topology complete in different orders; each
        // state evolves on its own.
        let dag = Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let topo = EligibilityTopology::new(&dag);
        assert_eq!(topo.num_jobs(), 4);
        let mut a = topo.new_state();
        let mut b = topo.new_state();

        a.complete(&topo, 0);
        a.complete(&topo, 1);
        assert_eq!(jobs(a.remaining()), vec![2, 3]);
        assert_eq!(jobs(a.eligible()), vec![2]);
        assert_eq!(a.epoch(), 2);

        // Trial b is untouched by trial a's progress.
        assert_eq!(b.remaining().len(), 4);
        assert_eq!(b.epoch(), 0);
        b.complete(&topo, 0);
        b.complete(&topo, 2);
        assert!(b.eligible().contains(1));
        assert!(!b.eligible().contains(3), "3 still blocked by 1 in b");
        assert!(!a.eligible().contains(1), "1 already done in a");
    }

    #[test]
    fn reset_state_equals_new_state() {
        let dag = Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let topo = EligibilityTopology::new(&dag);
        let mut s = topo.new_state();
        s.complete(&topo, 0);
        s.complete(&topo, 1);
        topo.reset_state(&mut s);
        let fresh = topo.new_state();
        assert_eq!(s.remaining(), fresh.remaining());
        assert_eq!(s.eligible(), fresh.eligible());
        assert_eq!(s.pending_preds, fresh.pending_preds);
        assert_eq!(s.epoch(), 0);
        // A reset state evolves identically to a fresh one.
        s.complete(&topo, 0);
        assert!(s.eligible().contains(1) && s.eligible().contains(2));
    }

    #[test]
    fn precedence_to_dag_shapes() {
        assert_eq!(Precedence::Independent.to_dag(5).num_edges(), 0);
        let cs = ChainSet::new(3, vec![vec![0, 1], vec![2]]).unwrap();
        let p = Precedence::Chains(cs);
        assert_eq!(p.to_dag(3).num_edges(), 1);
        assert_eq!(p.num_jobs(), Some(3));
    }
}
