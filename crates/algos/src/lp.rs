//! The (LP1) and (LP2) relaxations (paper §3 and §4).
//!
//! ```text
//! (LP1)  min t
//!        s.t.  Σ_i ℓ'_ij x_ij >= L      ∀ j ∈ J'         (mass)
//!              Σ_j x_ij       <= t      ∀ i ∈ M          (load)
//!              x_ij >= 0
//!
//! (LP2)  (LP1) over the jobs of the chains, plus
//!              Σ_{j ∈ C_k} d_j <= t     ∀ chain C_k      (chain length)
//!              0 <= x_ij <= d_j         ∀ i, j           (job length)
//!              d_j >= 1                 ∀ j
//! ```
//!
//! with `ℓ'_ij = min(ℓ_ij, L)` — clamping is WLOG for integral solutions
//! and tightens the relaxation (Lemma 2). (LP2) is Lin and Rajaraman's
//! chain LP; its optimum lower-bounds `O(E[T_OPT])` (Lemma 5). The mass
//! target `L` is the caller's: `1/2` for `SUU-I-OBL` and the lower bounds,
//! `2^(k−2)` in round `k` of `SUU-I-SEM`, `1` for `SUU-C`. The
//! integrality constraint of the paper's ILP is dropped here;
//! [`crate::rounding::round_lp`] restores it (Lemma 2, and Lemma 6 when
//! the solution carries lengths).
//!
//! Both relaxations are built by one private function that adds (LP2)'s
//! length variables and rows only when it is given chains, so every
//! (LP1) and (LP2) solve goes through it. Variables with `ℓ_ij = 0`
//! (machine `i` can never advance job `j`) are omitted: they could only
//! add load.

use crate::AlgoError;
use std::collections::HashMap;
use suu_core::logmass::clamped;
use suu_core::{JobId, MachineId, SuuInstance};
use suu_lp::{Cmp, LpBuilder, LpStatus, VarId};

/// Fractional solution of `LP1(J', L)` or of (LP2).
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// The optimal fractional value `t*` (bounds the loads and, for
    /// (LP2), the chain lengths).
    pub t_star: f64,
    /// Jobs covered, in the order used by [`LpSolution::x_for`]: `J'` for
    /// (LP1), all jobs of all chains in chain order for (LP2).
    pub jobs: Vec<u32>,
    /// The mass target `L`.
    pub target: f64,
    /// Sparse solution: for each position `p` in `jobs`, the list of
    /// `(machine, x*_ij)` with `x > 0`.
    x: Vec<Vec<(u32, f64)>>,
    /// (LP2)'s fractional lengths `d*_j` per position in `jobs`; empty for
    /// (LP1).
    pub d: Vec<f64>,
}

impl LpSolution {
    /// Positive `(machine, x*)` pairs for the `p`-th job.
    pub fn x_for(&self, p: usize) -> &[(u32, f64)] {
        &self.x[p]
    }
}

/// Solve the fractional `LP1(J', L)` for the given job subset.
///
/// Each listed job must have a machine with positive log failure
/// (guaranteed by [`SuuInstance`] validation).
pub fn solve_lp1(inst: &SuuInstance, jobs: &[u32], target: f64) -> Result<LpSolution, AlgoError> {
    solve(inst, jobs.to_vec(), None, target)
}

/// Solve the fractional (LP2) over the given chains (lists of job ids in
/// precedence order; jobs outside the chains are ignored).
///
/// `target` is the per-job mass requirement — `1` for the algorithm, `1/2`
/// for the Lemma-5-style lower bound.
pub fn solve_lp2(
    inst: &SuuInstance,
    chains: &[Vec<u32>],
    target: f64,
) -> Result<LpSolution, AlgoError> {
    let jobs = chains.iter().flatten().copied().collect();
    solve(inst, jobs, Some(chains), target)
}

/// Build and solve (LP1) over `jobs`, or (LP2) when `chains` is given.
///
/// The simplex breaks pricing and ratio-test ties by column and row
/// index, so a reordering can move the solution; the order is fixed:
/// variables `t`, then per job its `d_j` ((LP2) only) and its `x_ij`;
/// rows mass, load, then ((LP2) only) chain length, `x ≤ d` and `d ≥ 1`.
fn solve(
    inst: &SuuInstance,
    jobs: Vec<u32>,
    chains: Option<&[Vec<u32>]>,
    target: f64,
) -> Result<LpSolution, AlgoError> {
    assert!(target > 0.0, "mass target must be positive");
    if jobs.is_empty() {
        return Ok(LpSolution {
            t_star: 0.0,
            jobs,
            target,
            x: Vec::new(),
            d: Vec::new(),
        });
    }
    let m = inst.num_machines();
    let mut lp = LpBuilder::minimize();
    let t = lp.add_var(1.0);

    // Per job: d_j ((LP2) only), then x_ij for each machine with positive
    // ell. x_vars[p] lists (machine, VarId, ell') for job jobs[p].
    let mut d_vars = Vec::new();
    let mut x_vars: Vec<Vec<(u32, VarId, f64)>> = Vec::with_capacity(jobs.len());
    for &j in &jobs {
        if chains.is_some() {
            d_vars.push(lp.add_var(0.0));
        }
        let mut row = Vec::new();
        for i in 0..m as u32 {
            let ell = inst.ell(MachineId(i), JobId(j));
            if ell > 0.0 {
                row.push((i, lp.add_var(0.0), clamped(ell, target)));
            }
        }
        debug_assert!(!row.is_empty(), "unservable job {j} escaped validation");
        x_vars.push(row);
    }

    // Mass constraints.
    for row in &x_vars {
        let terms: Vec<_> = row.iter().map(|&(_, v, e)| (v, e)).collect();
        lp.add_constraint(&terms, Cmp::Ge, target);
    }
    // Load constraints: Σ_j x_ij - t <= 0.
    let mut per_machine: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); m];
    for row in &x_vars {
        for &(i, v, _) in row {
            per_machine[i as usize].push((v, 1.0));
        }
    }
    for mut terms in per_machine {
        if terms.is_empty() {
            continue;
        }
        terms.push((t, -1.0));
        lp.add_constraint(&terms, Cmp::Le, 0.0);
    }
    if let Some(chains) = chains {
        // Chain-length constraints: Σ_{j∈C} d_j - t <= 0.
        let pos_of: HashMap<u32, usize> = jobs.iter().enumerate().map(|(p, &j)| (j, p)).collect();
        for chain in chains.iter().filter(|c| !c.is_empty()) {
            let mut terms: Vec<_> = chain.iter().map(|j| (d_vars[pos_of[j]], 1.0)).collect();
            terms.push((t, -1.0));
            lp.add_constraint(&terms, Cmp::Le, 0.0);
        }
        // x_ij <= d_j and d_j >= 1.
        for (row, &d) in x_vars.iter().zip(&d_vars) {
            for &(_, v, _) in row {
                lp.add_constraint(&[(v, 1.0), (d, -1.0)], Cmp::Le, 0.0);
            }
            lp.add_constraint(&[(d, 1.0)], Cmp::Ge, 1.0);
        }
    }

    let sol = lp.solve()?;
    let (infeasible, unbounded) = match chains {
        None => ("LP1 infeasible", "LP1 unbounded"),
        Some(_) => ("LP2 infeasible", "LP2 unbounded"),
    };
    match sol.status {
        LpStatus::Optimal => {}
        LpStatus::Infeasible => return Err(AlgoError::UnexpectedLpStatus(infeasible)),
        LpStatus::Unbounded => return Err(AlgoError::UnexpectedLpStatus(unbounded)),
    }

    let x = x_vars
        .iter()
        .map(|row| {
            row.iter()
                .filter_map(|&(i, v, _)| {
                    let val = sol.value(v);
                    (val > 1e-12).then_some((i, val))
                })
                .collect()
        })
        .collect();
    let d = d_vars.iter().map(|&v| sol.value(v)).collect();

    Ok(LpSolution {
        t_star: sol.objective,
        jobs,
        target,
        x,
        d,
    })
}
