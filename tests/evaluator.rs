//! Integration tests for the parallel evaluation pipeline: the
//! seed-determinism contract (same master seed ⇒ bitwise-identical
//! outcomes at any thread count, even for policies with internal
//! randomness), and the Theorem-10 semantics-equivalence property under
//! the new harness.

use proptest::prelude::*;
use std::sync::Arc;
use suu::algos::standard_registry;
use suu::bench::scenario::Scenario;
use suu::core::{workload, Precedence};
use suu::sim::stats::{chi_square_critical_001, chi_square_two_sample, histogram_pair};
use suu::sim::{spec_factory, EvalConfig, Evaluator, ExecConfig, PolicySpec, Semantics};

/// Makespan vector of a registry policy at a given thread count. 48
/// trials in batches of 4 make twelve chunks, so each thread count up to
/// 12 runs that many workers.
fn makespans(spec: &str, threads: usize, master_seed: u64) -> Vec<u64> {
    let registry = standard_registry();
    let inst = Scenario::chains(3, 12, 4, 77).instantiate();
    Evaluator::seeded(48, master_seed)
        .with_threads(threads)
        .with_batch(4)
        .run(
            &inst,
            spec_factory(&registry, &inst, &PolicySpec::parse(spec).unwrap())
                .unwrap_or_else(|e| panic!("{spec}: {e}")),
        )
        .outcomes
        .iter()
        .map(|o| o.makespan)
        .collect()
}

#[test]
fn same_master_seed_is_bitwise_identical_across_thread_counts() {
    // suu-c draws internal randomness (Theorem-7 delays) per trial; the
    // reseed hook must pin it to the trial index, so the outcome vector
    // cannot depend on which worker ran which trial.
    for spec in ["gang-sequential", "suu-c(seed=5)"] {
        let reference = makespans(spec, 1, 99);
        for threads in [2, 3, 8] {
            assert_eq!(
                makespans(spec, threads, 99),
                reference,
                "{spec} diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn different_master_seeds_decorrelate() {
    assert_ne!(makespans("suu-c", 2, 1), makespans("suu-c", 2, 2));
}

#[test]
fn parallel_run_matches_serial_reference_through_registry() {
    let registry = standard_registry();
    let inst = Scenario::uniform(3, 10, 0.2, 0.9, 5).instantiate();
    let eval = Evaluator::seeded(40, 7).with_threads(3).with_batch(8);
    let spec = PolicySpec::new("greedy-lr");
    let par: Vec<u64> = eval
        .run(&inst, spec_factory(&registry, &inst, &spec).unwrap())
        .outcomes
        .iter()
        .map(|o| o.makespan)
        .collect();
    let ser: Vec<u64> = eval
        .run_serial(&inst, || registry.build(&inst, &spec).unwrap())
        .outcomes
        .iter()
        .map(|o| o.makespan)
        .collect();
    assert_eq!(par, ser);
}

#[test]
fn evaluator_wall_clock_is_populated() {
    let registry = standard_registry();
    let inst = Scenario::uniform(3, 8, 0.2, 0.9, 6).instantiate();
    let report = Evaluator::seeded(10, 3).run(
        &inst,
        spec_factory(&registry, &inst, &PolicySpec::new("round-robin")).unwrap(),
    );
    assert!(report.wall_clock.as_nanos() > 0);
    assert_eq!(report.policy, "round-robin");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Theorem 10 as a property: on random instances, the SUU and SUU*
    /// semantics induce the same makespan distribution for a fixed
    /// schedule. The proptest shim derives its cases deterministically
    /// from the test name, so the chi-square check is reproducible (no
    /// statistical flakiness across runs).
    #[test]
    fn suu_and_suustar_agree_in_distribution(
        seed in 0u64..1_000_000,
        m in 1usize..4,
        n in 1usize..7,
        q_lo in 0.1f64..0.5,
        spread in 0.1f64..0.45,
    ) {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let inst = Arc::new(workload::uniform_unrelated(
            m, n, q_lo, q_lo + spread, Precedence::Independent, &mut rng,
        ));
        let registry = standard_registry();
        let collect = |semantics| {
            Evaluator::new(EvalConfig {
                trials: 1500,
                master_seed: seed ^ 0xD15,
                threads: 0,
                exec: ExecConfig {
                    semantics,
                    max_steps: 1_000_000,
                },
                ..EvalConfig::default()
            })
            .run(
                &inst,
                spec_factory(&registry, &inst, &PolicySpec::new("gang-sequential")).unwrap(),
            )
            .outcomes
            .into_iter()
            .map(|o| o.makespan)
            .collect::<Vec<u64>>()
        };
        let a = collect(Semantics::Suu);
        let b = collect(Semantics::SuuStar);
        let (ha, hb) = histogram_pair(&a, &b);
        let (chi2, dof) = chi_square_two_sample(&ha, &hb);
        prop_assert!(
            chi2 <= chi_square_critical_001(dof),
            "chi2 {} over critical {} (dof {}, m={} n={})",
            chi2, chi_square_critical_001(dof), dof, m, n
        );
    }
}
