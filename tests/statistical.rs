//! Statistical integration tests: measured expectations vs analytically
//! known values, semantics equivalence at the workspace level, and
//! approximation-ratio cross-checks against the exact optimum — all
//! through the registry + parallel-evaluator pipeline.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use suu::algos::opt::{evaluate_stationary, exact_opt, OptLimits};
use suu::algos::standard_registry;
use suu::core::{workload, Precedence};
use suu::dag::ChainSet;
use suu::sim::stats::{chi_square_critical_001, chi_square_two_sample, histogram_pair};
use suu::sim::{spec_factory, EvalConfig, Evaluator, ExecConfig, PolicySpec, Precision, Semantics};

fn evaluator(trials: usize, semantics: Semantics, seed: u64) -> Evaluator {
    Evaluator::new(EvalConfig {
        trials,
        master_seed: seed,
        threads: 0,
        exec: ExecConfig {
            semantics,
            max_steps: 1_000_000,
        },
        ..EvalConfig::default()
    })
}

#[test]
fn chain_of_geometrics_has_known_mean() {
    // One machine, chain of 3 jobs with q = 1/2: E[T] = 3 * 2 = 6.
    let registry = standard_registry();
    let cs = ChainSet::new(3, vec![vec![0, 1, 2]]).unwrap();
    let inst = Arc::new(workload::homogeneous(1, 3, 0.5, Precedence::Chains(cs)));
    for semantics in [Semantics::Suu, Semantics::SuuStar] {
        let mean = evaluator(6000, semantics, 17)
            .run(
                &inst,
                spec_factory(&registry, &inst, &PolicySpec::new("gang-sequential")).unwrap(),
            )
            .mean_makespan();
        assert!(
            (mean - 6.0).abs() < 0.25,
            "{semantics:?}: mean {mean:.3} != 6"
        );
    }
}

#[test]
fn gang_mean_matches_exact_policy_value() {
    // Exact value of the gang policy on independent jobs with identical
    // machines: jobs done one at a time, each Geometric(1 - q^m).
    let registry = standard_registry();
    let (m, n, q) = (3usize, 4usize, 0.6f64);
    let inst = Arc::new(workload::homogeneous(m, n, q, Precedence::Independent));
    let expected = n as f64 / (1.0 - q.powi(m as i32));
    let mean = evaluator(6000, Semantics::SuuStar, 23)
        .run(
            &inst,
            spec_factory(&registry, &inst, &PolicySpec::new("gang-sequential")).unwrap(),
        )
        .mean_makespan();
    assert!(
        (mean - expected).abs() < 0.15,
        "mean {mean:.3} vs expected {expected:.3}"
    );
}

#[test]
fn sem_within_constant_of_exact_opt_across_shapes() {
    // Aggregated check over several tiny shapes: measured SEM within a
    // generous constant of exact OPT (its guarantee is O(log log) with
    // K <= 4 here).
    let registry = standard_registry();
    let shapes = [
        (2usize, 4usize, 0.3f64, 0.9f64),
        (3, 5, 0.2, 0.8),
        (2, 6, 0.4, 0.95),
    ];
    for (idx, &(m, n, lo, hi)) in shapes.iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(idx as u64 * 13 + 5);
        let inst = Arc::new(workload::uniform_unrelated(
            m,
            n,
            lo,
            hi,
            Precedence::Independent,
            &mut rng,
        ));
        let opt = exact_opt(&inst, OptLimits::default()).expect("tiny");
        let mean = evaluator(400, Semantics::SuuStar, idx as u64)
            .run(
                &inst,
                spec_factory(&registry, &inst, &PolicySpec::new("suu-i-sem")).unwrap(),
            )
            .mean_makespan();
        let ratio = mean / opt;
        assert!(
            ratio < 10.0,
            "shape {idx}: ratio {ratio:.2} (mean {mean:.2}, opt {opt:.2})"
        );
        assert!(ratio > 0.9, "shape {idx}: impossibly good ratio {ratio:.2}");
    }
}

#[test]
fn simulated_exact_opt_policy_matches_dp_value() {
    // The registry's exact-opt policy, simulated, must estimate its own
    // DP value: the loop closes across opt.rs, the registry and the
    // engine.
    let registry = standard_registry();
    let mut rng = SmallRng::seed_from_u64(41);
    let inst = Arc::new(workload::uniform_unrelated(
        2,
        5,
        0.3,
        0.9,
        Precedence::Independent,
        &mut rng,
    ));
    let opt = exact_opt(&inst, OptLimits::default()).unwrap();
    let report = evaluator(8000, Semantics::SuuStar, 3).run(
        &inst,
        spec_factory(&registry, &inst, &PolicySpec::new("exact-opt")).unwrap(),
    );
    let summary = report.summary().expect("nonempty");
    let ci = 4.0 * summary.std_err; // ~4 sigma
    assert!(
        (summary.mean - opt).abs() <= ci.max(0.1),
        "simulated {:.3} vs DP {opt:.3} (ci {ci:.3})",
        summary.mean
    );
}

#[test]
fn ci95_covers_the_exact_mdp_value() {
    // exact-opt's mean makespan is exactly the DP value, so the share of
    // runs whose 95% CI contains it is the interval's coverage, under a
    // fixed budget and under the adaptive rule that stops on the CI.
    let registry = standard_registry();
    let mut rng = SmallRng::seed_from_u64(41);
    let inst = Arc::new(workload::uniform_unrelated(
        2,
        5,
        0.3,
        0.9,
        Precedence::Independent,
        &mut rng,
    ));
    let opt = exact_opt(&inst, OptLimits::default()).unwrap();
    let spec = PolicySpec::new("exact-opt");
    let target = Precision::TargetCi {
        half_width: 0.05,
        relative: true,
        min_trials: 16,
        max_trials: 256,
    };
    const RUNS: u64 = 400;
    for precision in [
        Precision::FixedTrials(16),
        Precision::FixedTrials(64),
        target,
    ] {
        let covered = (0..RUNS)
            .filter(|&master_seed| {
                let cell = evaluator(0, Semantics::SuuStar, master_seed)
                    .with_threads(1)
                    .run_adaptive_spec(&registry, &inst, &spec, precision)
                    .unwrap();
                let s = cell.stats.summary().expect("nonempty");
                (s.mean - opt).abs() <= s.ci95
            })
            .count();
        // About 0.011 is one binomial standard deviation at 400 runs.
        let share = covered as f64 / RUNS as f64;
        assert!(
            (0.91..=0.99).contains(&share),
            "{precision:?}: {covered} of {RUNS} CIs cover {opt}"
        );
    }
}

#[test]
fn semantics_equivalence_workspace_level() {
    // Theorem 10 at the integration level: chains + the registry pipeline.
    let registry = standard_registry();
    let cs = ChainSet::new(5, vec![vec![0, 1], vec![2, 3, 4]]).unwrap();
    let mut rng = SmallRng::seed_from_u64(29);
    let inst = Arc::new(workload::uniform_unrelated(
        3,
        5,
        0.3,
        0.9,
        Precedence::Chains(cs),
        &mut rng,
    ));
    let collect = |semantics| {
        evaluator(5000, semantics, 1234)
            .run(
                &inst,
                spec_factory(&registry, &inst, &PolicySpec::new("gang-sequential")).unwrap(),
            )
            .outcomes
            .into_iter()
            .map(|o| o.makespan)
            .collect::<Vec<_>>()
    };
    let a = collect(Semantics::Suu);
    let b = collect(Semantics::SuuStar);
    let (ha, hb) = histogram_pair(&a, &b);
    let (chi2, dof) = chi_square_two_sample(&ha, &hb);
    assert!(
        chi2 <= chi_square_critical_001(dof),
        "chi2 {chi2:.2} over critical (dof {dof})"
    );
}

#[test]
fn monte_carlo_agrees_with_exact_policy_evaluation() {
    // The noise-free check: the DP-based exact value of the gang policy
    // must match its Monte-Carlo estimate within the CI, on a
    // heterogeneous instance with chains (no closed form available).
    let registry = standard_registry();
    let cs = ChainSet::new(5, vec![vec![0, 1, 2], vec![3, 4]]).unwrap();
    let mut rng = SmallRng::seed_from_u64(31);
    let inst = Arc::new(workload::uniform_unrelated(
        3,
        5,
        0.3,
        0.9,
        Precedence::Chains(cs),
        &mut rng,
    ));
    // Gang policy as a stationary assignment function: all machines on
    // the lowest eligible job.
    let exact = evaluate_stationary(&inst, OptLimits::default(), |_, eligible| {
        vec![eligible.first().copied(); 3]
    })
    .expect("gang makes progress");

    let report = evaluator(8000, Semantics::SuuStar, 9).run(
        &inst,
        spec_factory(&registry, &inst, &PolicySpec::new("gang-sequential")).unwrap(),
    );
    let summary = report.summary().expect("nonempty");
    let ci = 4.0 * summary.std_err; // ~4 sigma
    assert!(
        (summary.mean - exact).abs() <= ci.max(0.1),
        "Monte-Carlo {:.3} vs exact {exact:.3} (ci {ci:.3})",
        summary.mean
    );
}

#[test]
fn makespan_distribution_has_geometric_tail() {
    // Single job, single machine q=0.7: P[T > k] = 0.7^k. Check the
    // empirical 90th percentile against the analytic quantile.
    let registry = standard_registry();
    let inst = Arc::new(workload::homogeneous(1, 1, 0.7, Precedence::Independent));
    let report = evaluator(8000, Semantics::Suu, 3).run(
        &inst,
        spec_factory(&registry, &inst, &PolicySpec::new("gang-sequential")).unwrap(),
    );
    let mut makespans: Vec<u64> = report.outcomes.iter().map(|o| o.makespan).collect();
    makespans.sort_unstable();
    let p90 = makespans[(makespans.len() * 9) / 10] as f64;
    // Analytic: smallest k with 1 - 0.7^k >= 0.9  =>  k = ceil(ln 0.1 / ln 0.7) = 7.
    assert!((p90 - 7.0).abs() <= 1.0, "p90 {p90} vs analytic 7");
}
