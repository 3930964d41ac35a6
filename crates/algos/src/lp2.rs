//! Unit tests of the (LP2) relaxation, [`crate::lp::solve_lp2`], and of
//! its Lemma 6 rounding, in a test-only module of their own so that their
//! names (`lp2::tests::…`) stay stable.

#[cfg(test)]
mod tests {
    use crate::lp::solve_lp2;
    use crate::rounding::{round_lp, ScaleMode};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use suu_core::{workload, JobId, Precedence};

    #[test]
    fn empty_chains_trivial() {
        let inst = workload::homogeneous(1, 1, 0.5, Precedence::Independent);
        let sol = solve_lp2(&inst, &[], 1.0).unwrap();
        assert_eq!(sol.t_star, 0.0);
    }

    #[test]
    fn single_chain_lower_bounded_by_length() {
        // Chain of 4 jobs: d_j >= 1 forces t >= 4 regardless of machines.
        let inst = workload::homogeneous(8, 4, 0.5, Precedence::Independent);
        let chains = vec![vec![0u32, 1, 2, 3]];
        let sol = solve_lp2(&inst, &chains, 1.0).unwrap();
        assert!(sol.t_star >= 4.0 - 1e-6, "t* = {}", sol.t_star);
    }

    #[test]
    fn load_bound_dominates_for_parallel_chains() {
        // 4 singleton chains, 1 machine, ell = 1 (q=0.5), target 1:
        // each job needs 1 step on the machine -> t* = 4.
        let inst = workload::homogeneous(1, 4, 0.5, Precedence::Independent);
        let chains: Vec<Vec<u32>> = (0..4u32).map(|j| vec![j]).collect();
        let sol = solve_lp2(&inst, &chains, 1.0).unwrap();
        assert!((sol.t_star - 4.0).abs() < 1e-5, "t* = {}", sol.t_star);
    }

    #[test]
    fn d_respects_x() {
        let mut rng = SmallRng::seed_from_u64(5);
        let inst = workload::uniform_unrelated(3, 6, 0.3, 0.95, Precedence::Independent, &mut rng);
        let chains = vec![vec![0u32, 1, 2], vec![3, 4], vec![5]];
        let sol = solve_lp2(&inst, &chains, 1.0).unwrap();
        for (p, _) in sol.jobs.iter().enumerate() {
            for &(_, x) in sol.x_for(p) {
                assert!(x <= sol.d[p] + 1e-7, "x {} > d {}", x, sol.d[p]);
            }
            assert!(sol.d[p] >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn rounding_meets_lemma6_guarantees() {
        for seed in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = 4 + (seed % 6) as usize;
            let m = 2 + (seed % 4) as usize;
            let inst =
                workload::uniform_unrelated(m, n, 0.1, 0.98, Precedence::Independent, &mut rng);
            // One chain with everything plus a couple singletons.
            let main: Vec<u32> = (0..(n as u32 - 2)).collect();
            let chains = vec![main, vec![n as u32 - 2], vec![n as u32 - 1]];
            let sol = solve_lp2(&inst, &chains, 1.0).unwrap();
            // Lemma 6 at the proof's scale 6 and at the adaptive one.
            for mode in [ScaleMode::PaperExact, ScaleMode::Adaptive] {
                let (asg, report) = round_lp(&inst, &sol, mode).unwrap();
                assert!(
                    report.min_clamped_mass >= 1.0 - 1e-9,
                    "seed {seed}, {mode:?}"
                );
                assert!(report.max_load <= report.load_cap, "seed {seed}, {mode:?}");
                // Length caps: x̂_ij <= ceil(6 d*_j).
                for (p, &j) in sol.jobs.iter().enumerate() {
                    let cap = (6.0 * sol.d[p]).ceil() as u64;
                    assert!(
                        asg.length(JobId(j)) <= cap,
                        "length {} > cap {} (seed {seed}, {mode:?})",
                        asg.length(JobId(j)),
                        cap
                    );
                }
                // Chain lengths bounded by ~7 t*.
                for chain in &chains {
                    let len: u64 = chain.iter().map(|&j| asg.length(JobId(j))).sum();
                    assert!(
                        (len as f64) <= 7.0 * sol.t_star + chain.len() as f64,
                        "chain length {len} vs t* {} (seed {seed}, {mode:?})",
                        sol.t_star
                    );
                }
            }
        }
    }
}
