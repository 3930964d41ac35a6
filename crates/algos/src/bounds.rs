//! Lower bounds on `E[T_OPT]` for approximation-ratio reporting.
//!
//! At experiment scale the exact optimum is out of reach (NP-hard), so
//! ratios are reported against provable lower bounds:
//!
//! * **Lemma-1 bound**: `E[T_OPT] ≥ t_LP1(J, 1/2) / 2`. The paper's proof:
//!   with probability 1/2 each, a job's hidden draw demands mass ≥ 1/2, and
//!   averaging over the uniformly random subset `U` shows OPT embeds a
//!   feasible `LP1(U, 1/2)` solution.
//! * **Lemma-5-style chain bound**: the same subset argument applied to
//!   (LP2) with mass target 1/2 (loads, chain spans and unit lengths are
//!   all schedule-valid), giving `E[T_OPT] ≥ t_LP2(1/2) / 2`.
//! * **Dilation**: every job takes ≥ 1 step, so the longest precedence
//!   path lower-bounds any schedule.
//! * **Gang rate**: job `j` cannot finish faster than a geometric with
//!   success `1 − 2^(−Σ_i ℓ_ij)` (all machines helping every step), so
//!   `E[T_OPT] ≥ max_j 1/(1 − ∏_i q_ij)`.

use crate::lp::{solve_lp1, solve_lp2};
use crate::AlgoError;
use suu_core::{JobId, Precedence, SuuInstance};

/// The Lemma-1 LP bound: `t_LP1(J, 1/2) / 2`.
pub fn lp1_half_bound(inst: &SuuInstance) -> Result<f64, AlgoError> {
    let jobs: Vec<u32> = (0..inst.num_jobs() as u32).collect();
    Ok(solve_lp1(inst, &jobs, 0.5)?.t_star / 2.0)
}

/// The chain LP bound: `t_LP2(chains, 1/2) / 2`.
pub fn lp2_half_bound(inst: &SuuInstance, chains: &[Vec<u32>]) -> Result<f64, AlgoError> {
    Ok(solve_lp2(inst, chains, 0.5)?.t_star / 2.0)
}

/// Longest precedence path (number of jobs), a dilation bound.
pub fn dilation_bound(inst: &SuuInstance) -> f64 {
    inst.precedence().to_dag(inst.num_jobs()).longest_path_len() as f64
}

/// `max_j 1/(1 − ∏_i q_ij)`: even ganging every machine on `j` each step,
/// its completion is geometric at that rate.
pub fn gang_rate_bound(inst: &SuuInstance) -> f64 {
    (0..inst.num_jobs() as u32)
        .map(|j| {
            let mass = inst.gang_mass(JobId(j));
            let fail = (-mass).exp2();
            1.0 / (1.0 - fail)
        })
        .fold(1.0f64, f64::max)
}

/// Best available lower bound for an instance (uses the chain LP when the
/// precedence is chains; always includes the independent-jobs LP bound,
/// the dilation bound, and the gang-rate bound).
pub fn lower_bound(inst: &SuuInstance) -> Result<f64, AlgoError> {
    let mut lb = lp1_half_bound(inst)?;
    lb = lb.max(dilation_bound(inst));
    lb = lb.max(gang_rate_bound(inst));
    if let Precedence::Chains(cs) = inst.precedence() {
        lb = lb.max(lp2_half_bound(inst, cs.chains())?);
    }
    Ok(lb.max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::{exact_opt, OptLimits};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use suu_core::{workload, Precedence};
    use suu_dag::{generators, ChainSet};

    #[test]
    fn bounds_are_at_most_exact_opt_independent() {
        for seed in 0..12u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = 2 + (seed % 4) as usize;
            let m = 1 + (seed % 3) as usize;
            let inst =
                workload::uniform_unrelated(m, n, 0.2, 0.95, Precedence::Independent, &mut rng);
            let lb = lower_bound(&inst).unwrap();
            let opt = exact_opt(&inst, OptLimits::default()).unwrap();
            assert!(
                lb <= opt + 1e-6,
                "seed {seed}: LB {lb} exceeds OPT {opt} (n={n}, m={m})"
            );
        }
    }

    #[test]
    fn bounds_are_at_most_exact_opt_chains() {
        for seed in 0..10u64 {
            let mut rng = SmallRng::seed_from_u64(1000 + seed);
            let n = 3 + (seed % 3) as usize;
            let cs = generators::random_chain_set(n, 1 + (seed as usize % 2), &mut rng);
            let inst =
                workload::uniform_unrelated(2, n, 0.3, 0.9, Precedence::Chains(cs), &mut rng);
            let lb = lower_bound(&inst).unwrap();
            let opt = exact_opt(&inst, OptLimits::default()).unwrap();
            assert!(lb <= opt + 1e-6, "seed {seed}: LB {lb} exceeds OPT {opt}");
        }
    }

    #[test]
    fn dilation_bound_for_chain() {
        let cs = ChainSet::new(5, vec![vec![0, 1, 2, 3, 4]]).unwrap();
        let inst = workload::homogeneous(3, 5, 0.5, Precedence::Chains(cs));
        assert_eq!(dilation_bound(&inst), 5.0);
    }

    #[test]
    fn gang_rate_bound_single_job() {
        // 2 machines with q = 0.5: fail = 0.25, bound = 4/3.
        let inst = workload::homogeneous(2, 1, 0.5, Precedence::Independent);
        assert!((gang_rate_bound(&inst) - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn lower_bound_at_least_one() {
        let inst = workload::deterministic(4, 2, Precedence::Independent);
        assert!(lower_bound(&inst).unwrap() >= 1.0);
    }

    #[test]
    fn lp_bound_grows_with_load() {
        // One machine, growing job count: LP bound must grow linearly-ish.
        let small = workload::homogeneous(1, 2, 0.5, Precedence::Independent);
        let large = workload::homogeneous(1, 8, 0.5, Precedence::Independent);
        assert!(lp1_half_bound(&large).unwrap() > 2.0 * lp1_half_bound(&small).unwrap());
    }

    /// The full sandwich on tiny chain instances:
    /// `dilation ≤ lower_bound ≤ E[T_OPT]`. The left inequality is the
    /// composition contract (the dilation bound participates in the max);
    /// the right is the point of a lower bound — checked against the
    /// exact MDP optimum, which no component may exceed individually
    /// either.
    #[test]
    fn dilation_le_lower_bound_le_exact_opt() {
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(500 + seed);
            let n = 3 + (seed % 3) as usize;
            let cs = generators::random_chain_set(n, 1 + (seed as usize % 3).min(n - 1), &mut rng);
            let inst =
                workload::uniform_unrelated(2, n, 0.25, 0.9, Precedence::Chains(cs), &mut rng);
            let dilation = dilation_bound(&inst);
            let lb = lower_bound(&inst).unwrap();
            let opt = exact_opt(&inst, OptLimits::default()).unwrap();
            assert!(
                dilation <= lb + 1e-9,
                "seed {seed}: dilation {dilation} > LB {lb}"
            );
            assert!(lb <= opt + 1e-6, "seed {seed}: LB {lb} > OPT {opt}");
            // Every component respects OPT on its own.
            assert!(lp1_half_bound(&inst).unwrap() <= opt + 1e-6, "seed {seed}");
            assert!(gang_rate_bound(&inst) <= opt + 1e-6, "seed {seed}");
            if let Precedence::Chains(cs) = inst.precedence() {
                assert!(
                    lp2_half_bound(&inst, cs.chains()).unwrap() <= opt + 1e-6,
                    "seed {seed}"
                );
            }
        }
    }

    /// On singleton chains (every chain one job) the chain LP collapses
    /// to the independent-jobs LP — same variables, the span constraints
    /// degenerate to the per-job length constraints — so the two bounds
    /// must agree; on real chains the extra span constraints can only
    /// push the chain bound *up*.
    #[test]
    fn lp1_and_lp2_agree_on_chain_instances() {
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(2_000 + seed);
            let n = 3 + (seed % 3) as usize;
            // Singleton chains: exact agreement.
            let singles: Vec<Vec<u32>> = (0..n as u32).map(|j| vec![j]).collect();
            let cs = ChainSet::new(n, singles.clone()).unwrap();
            let inst =
                workload::uniform_unrelated(2, n, 0.3, 0.9, Precedence::Chains(cs), &mut rng);
            let lp1 = lp1_half_bound(&inst).unwrap();
            let lp2 = lp2_half_bound(&inst, &singles).unwrap();
            assert!(
                (lp1 - lp2).abs() <= 1e-6 * lp1.max(1.0),
                "seed {seed}: singleton-chain LP2 {lp2} != LP1 {lp1}"
            );
            // One long chain: LP2 sees the span, LP1 does not.
            let chain: Vec<Vec<u32>> = vec![(0..n as u32).collect()];
            let cs = ChainSet::new(n, chain.clone()).unwrap();
            let inst =
                workload::uniform_unrelated(2, n, 0.3, 0.9, Precedence::Chains(cs), &mut rng);
            let lp1 = lp1_half_bound(&inst).unwrap();
            let lp2 = lp2_half_bound(&inst, &chain).unwrap();
            assert!(
                lp2 >= lp1 - 1e-6 * lp1.max(1.0),
                "seed {seed}: chain LP2 {lp2} below LP1 {lp1}"
            );
        }
    }

    /// Adding a job can never *loosen* the bound: every component is
    /// monotone (LP1 gains demand on the same machines, dilation and the
    /// gang rate are maxima over a superset).
    #[test]
    fn lower_bound_monotone_under_adding_a_job() {
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(3_000 + seed);
            let (m, n) = (2 + (seed % 2) as usize, 3 + (seed % 3) as usize);
            let small =
                workload::uniform_unrelated(m, n, 0.2, 0.9, Precedence::Independent, &mut rng);
            // Same q matrix plus one appended column (row-major by
            // machine: insert the new job's q at the end of each row).
            let mut q = Vec::with_capacity(m * (n + 1));
            for i in 0..m as u32 {
                for j in 0..n as u32 {
                    q.push(small.q(suu_core::MachineId(i), JobId(j)));
                }
                q.push(0.5);
            }
            let big = SuuInstance::new(m, n + 1, q, Precedence::Independent).unwrap();
            let lb_small = lower_bound(&small).unwrap();
            let lb_big = lower_bound(&big).unwrap();
            assert!(
                lb_big >= lb_small - 1e-9,
                "seed {seed}: LB dropped from {lb_small} to {lb_big} after adding a job"
            );
            assert!(
                lp1_half_bound(&big).unwrap() >= lp1_half_bound(&small).unwrap() - 1e-9,
                "seed {seed}: LP1 component not monotone"
            );
        }
    }
}
