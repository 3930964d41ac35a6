//! Unit tests of the (LP1) relaxation, [`crate::lp::solve_lp1`], in a
//! test-only module of their own so that their names (`lp1::tests::…`)
//! stay stable.

#[cfg(test)]
mod tests {
    use crate::lp::solve_lp1;
    use suu_core::{workload, Precedence};

    #[test]
    fn empty_jobs_trivial() {
        let inst = workload::homogeneous(2, 2, 0.5, Precedence::Independent);
        let sol = solve_lp1(&inst, &[], 0.5).unwrap();
        assert_eq!(sol.t_star, 0.0);
    }

    #[test]
    fn single_job_single_machine() {
        // q = 0.5 -> ell = 1, clamped to L = 0.5; need 0.5/0.5 = 1 step.
        let inst = workload::homogeneous(1, 1, 0.5, Precedence::Independent);
        let sol = solve_lp1(&inst, &[0], 0.5).unwrap();
        assert!((sol.t_star - 1.0).abs() < 1e-6, "t* = {}", sol.t_star);
    }

    #[test]
    fn unclamped_when_target_large() {
        // L = 4, ell = 1: need 4 steps of the single machine per job; two
        // jobs -> t* = 8.
        let inst = workload::homogeneous(1, 2, 0.5, Precedence::Independent);
        let sol = solve_lp1(&inst, &[0, 1], 4.0).unwrap();
        assert!((sol.t_star - 8.0).abs() < 1e-6);
    }

    #[test]
    fn load_balances_across_machines() {
        // 2 identical machines, 2 jobs, L = 1, ell = 1: t* = 1 (one job per
        // machine).
        let inst = workload::homogeneous(2, 2, 0.5, Precedence::Independent);
        let sol = solve_lp1(&inst, &[0, 1], 1.0).unwrap();
        assert!((sol.t_star - 1.0).abs() < 1e-6);
    }

    #[test]
    fn subset_only_covers_listed_jobs() {
        let inst = workload::homogeneous(1, 3, 0.5, Precedence::Independent);
        let sol = solve_lp1(&inst, &[2], 1.0).unwrap();
        assert_eq!(sol.jobs, vec![2]);
        assert!((sol.t_star - 1.0).abs() < 1e-6);
        assert_eq!(sol.x_for(0).len(), 1);
    }

    #[test]
    fn zero_ell_machines_excluded() {
        // Machine 1 has q = 1 for all jobs: never used.
        let inst =
            suu_core::SuuInstance::new(2, 2, vec![0.5, 0.5, 1.0, 1.0], Precedence::Independent)
                .unwrap();
        let sol = solve_lp1(&inst, &[0, 1], 1.0).unwrap();
        for p in 0..2 {
            for &(i, _) in sol.x_for(p) {
                assert_eq!(i, 0, "machine 1 must not appear");
            }
        }
    }
}
