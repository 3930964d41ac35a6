//! Integration tests for the adaptive-precision subsystem: resumable
//! cells (extending `n → n+k` is bitwise identical to a fresh `n+k` run
//! — moments *and* P² sketch state — across thread counts, for a
//! stationary policy sharing cached plans and a non-stationary one
//! deciding at every epoch), deterministic
//! sequential stopping, checkpoint round-trips, and paired CRN
//! comparisons.

use std::sync::Arc;
use suu::algos::standard_registry;
use suu::bench::scenario::Scenario;
use suu::core::SuuInstance;
use suu::sim::{
    spec_factory, EvalConfig, EvalStats, Evaluator, PairedDelta, PolicyRegistry, PolicySpec,
    Precision, StopReason,
};

fn evaluator(trials: usize, threads: usize) -> Evaluator {
    Evaluator::new(EvalConfig {
        trials,
        master_seed: 0xAB5E,
        threads,
        batch: 32, // several chunks even at small trial counts
        ..EvalConfig::default()
    })
}

/// Fixed-budget cell of a registry policy.
fn run_stats(
    eval: &Evaluator,
    registry: &PolicyRegistry,
    inst: &Arc<SuuInstance>,
    spec: &PolicySpec,
) -> EvalStats {
    eval.run_stats(inst, spec_factory(registry, inst, spec).unwrap())
}

/// Extend a saved cell to `total` trials: growth under `FixedTrials`.
fn extend(
    eval: &Evaluator,
    registry: &PolicyRegistry,
    inst: &Arc<SuuInstance>,
    spec: &PolicySpec,
    cell: EvalStats,
    total: usize,
) -> EvalStats {
    eval.resume_adaptive_spec(registry, inst, spec, cell, Precision::FixedTrials(total))
        .unwrap()
        .stats
}

/// Resume determinism: run `base` trials, extend to `total`, and compare
/// the complete accumulator state (JSON snapshot: Welford words, exact
/// sample, sketch markers, counters) against a fresh `total`-trial run.
fn assert_resume_bitwise(spec: &str, sc: &Scenario, base: usize, total: usize) {
    let registry = standard_registry();
    let inst = sc.instantiate();
    let spec = PolicySpec::parse(spec).unwrap();
    for threads in [1usize, 2, 3] {
        let fresh = run_stats(&evaluator(total, threads), &registry, &inst, &spec);
        let resumed = run_stats(&evaluator(base, threads), &registry, &inst, &spec);
        let resumed = extend(
            &evaluator(total, threads),
            &registry,
            &inst,
            &spec,
            resumed,
            total,
        );
        assert_eq!(resumed.trials(), total as u64);
        assert_eq!(
            resumed.acc.to_json().to_compact(),
            fresh.acc.to_json().to_compact(),
            "{spec}: resume {base}→{total} diverged from fresh run ({threads} threads)"
        );
    }
}

#[test]
fn extend_is_bitwise_identical_to_fresh_run() {
    // greedy-lr: stationary, so its trials share cached epoch plans.
    assert_resume_bitwise("greedy-lr", &Scenario::uniform(3, 8, 0.3, 0.9, 5), 25, 60);
    // suu-c: not stationary, so it decides at every epoch, with
    // internal policy randomness (Theorem-7 delays) pinned per trial
    // index via reseed; chains structure.
    assert_resume_bitwise("suu-c", &Scenario::chains(3, 9, 3, 77), 10, 31);
}

#[test]
fn extend_is_bitwise_identical_past_the_sketch_cap() {
    // 600 trials outgrow the 512-sample exact cap, so this proves the
    // *sketch state* (order-sensitive P² markers) resumes bitwise too —
    // with the cap crossing happening inside the extension.
    let registry = standard_registry();
    let sc = Scenario::uniform(2, 5, 0.4, 0.9, 11);
    let inst = sc.instantiate();
    let spec = PolicySpec::new("best-machine");
    let fresh = run_stats(&evaluator(600, 2), &registry, &inst, &spec);
    assert!(!fresh.acc.exact_quantiles(), "cap must be crossed");
    let resumed = run_stats(&evaluator(300, 3), &registry, &inst, &spec);
    let eval = evaluator(600, 1);
    let resumed = extend(&eval, &registry, &inst, &spec, resumed, 600);
    assert_eq!(
        resumed.acc.to_json().to_compact(),
        fresh.acc.to_json().to_compact()
    );
    let (r, f) = (resumed.summary().unwrap(), fresh.summary().unwrap());
    assert_eq!(r.mean.to_bits(), f.mean.to_bits());
    assert_eq!(r.median.to_bits(), f.median.to_bits());
    assert_eq!(r.p95.to_bits(), f.p95.to_bits());
    assert_eq!(r.ci95.to_bits(), f.ci95.to_bits());
}

#[test]
fn checkpoint_roundtrip_then_extend_matches_fresh() {
    // Serialize a partial cell to JSON (as a crash-safe checkpoint
    // would), restore it, extend, and compare to an uninterrupted run.
    let registry = standard_registry();
    let sc = Scenario::uniform(3, 7, 0.2, 0.9, 13);
    let inst = sc.instantiate();
    let spec = PolicySpec::new("greedy-lr");
    let partial = run_stats(&evaluator(20, 1), &registry, &inst, &spec);
    let wire = partial.to_json().to_pretty();
    let restored = EvalStats::from_json(&suu::core::json::parse(&wire).unwrap()).unwrap();
    assert_eq!(restored.trials(), 20);
    assert_eq!(restored.policy, partial.policy);
    let eval = evaluator(50, 2);
    let restored = extend(&eval, &registry, &inst, &spec, restored, 50);
    let fresh = run_stats(&evaluator(50, 1), &registry, &inst, &spec);
    assert_eq!(
        restored.acc.to_json().to_compact(),
        fresh.acc.to_json().to_compact()
    );
}

#[test]
fn adaptive_stopping_is_deterministic_across_thread_counts() {
    let registry = standard_registry();
    let sc = Scenario::bimodal(3, 8, 0.6, 31);
    let inst = sc.instantiate();
    let spec = PolicySpec::new("greedy-lr");
    let rule = Precision::TargetCi {
        half_width: 0.05,
        relative: true,
        min_trials: 8,
        max_trials: 200,
    };
    let reference = evaluator(0, 1)
        .run_adaptive_spec(&registry, &inst, &spec, rule)
        .unwrap();
    assert!(reference.trials_used() >= 8);
    assert_eq!(
        reference.trials_used(),
        reference.stats.config.trials as u64
    );
    for threads in [2usize, 3, 4, 8] {
        let other = evaluator(0, threads)
            .run_adaptive_spec(&registry, &inst, &spec, rule)
            .unwrap();
        assert_eq!(other.trials_used(), reference.trials_used());
        assert_eq!(other.stop_reason, reference.stop_reason);
        assert_eq!(
            other.stats.acc.to_json().to_compact(),
            reference.stats.acc.to_json().to_compact(),
            "adaptive stopping diverged at {threads} threads"
        );
    }
}

#[test]
fn resume_adaptive_matches_cold_run_at_tighter_precision() {
    // The serve daemon's cache-extend path: a cell stopped under a loose
    // CI target is resumed under a tighter one. Because the round
    // schedule is a pure function of the trial count (anchored at the
    // rule's min_trials), the resumed cell must stop at *exactly* the
    // trial count a cold run at the tighter target stops at, with a
    // bitwise-identical accumulator (moments and P² sketch state).
    let registry = standard_registry();
    let sc = Scenario::bimodal(3, 8, 0.6, 31);
    let inst = sc.instantiate();
    let spec = PolicySpec::new("greedy-lr");
    let rule = |half_width: f64| Precision::TargetCi {
        half_width,
        relative: true,
        min_trials: 8,
        max_trials: 400,
    };
    let loose = evaluator(0, 1)
        .run_adaptive_spec(&registry, &inst, &spec, rule(0.10))
        .unwrap();
    let cold = evaluator(0, 2)
        .run_adaptive_spec(&registry, &inst, &spec, rule(0.03))
        .unwrap();
    assert!(
        cold.trials_used() > loose.trials_used(),
        "tighter target must need more trials ({} vs {})",
        cold.trials_used(),
        loose.trials_used()
    );
    // Round-trip the loose cell through its JSON checkpoint first, as
    // the daemon's on-disk cache does.
    let wire = loose.stats.to_json().to_compact();
    let restored = EvalStats::from_json(&suu::core::json::parse(&wire).unwrap()).unwrap();
    let resumed = evaluator(0, 3)
        .resume_adaptive_spec(&registry, &inst, &spec, restored, rule(0.03))
        .unwrap();
    assert_eq!(resumed.trials_used(), cold.trials_used());
    assert_eq!(resumed.stop_reason, cold.stop_reason);
    assert_eq!(
        resumed.stats.acc.to_json().to_compact(),
        cold.stats.acc.to_json().to_compact(),
        "resumed cell diverged from the cold tighter-precision run"
    );
    // A target the cell already satisfies adds no trials and returns the
    // accumulator untouched.
    let before = resumed.stats.acc.to_json().to_compact();
    let rerun = evaluator(0, 1)
        .resume_adaptive_spec(&registry, &inst, &spec, resumed.stats, rule(0.10))
        .unwrap();
    assert_eq!(rerun.trials_used(), cold.trials_used());
    assert_eq!(rerun.stats.acc.to_json().to_compact(), before);
}

#[test]
fn resume_adaptive_under_fixed_budget_matches_plain_extension() {
    // FixedTrials(n) through resume_adaptive is the extend path: a cell
    // grown to n equals a fresh n-trial run, so the daemon uses one code
    // path for both request shapes.
    let registry = standard_registry();
    let sc = Scenario::uniform(3, 8, 0.3, 0.9, 17);
    let inst = sc.instantiate();
    let spec = PolicySpec::new("gang-sequential");
    let base = run_stats(&evaluator(12, 1), &registry, &inst, &spec);
    let resumed = evaluator(12, 1)
        .resume_adaptive_spec(&registry, &inst, &spec, base, Precision::FixedTrials(40))
        .unwrap();
    let fresh = run_stats(&evaluator(40, 2), &registry, &inst, &spec);
    assert_eq!(resumed.trials_used(), 40);
    assert_eq!(resumed.stop_reason, suu::sim::StopReason::FixedBudget);
    assert_eq!(
        resumed.stats.acc.to_json().to_compact(),
        fresh.acc.to_json().to_compact()
    );
}

#[test]
fn fixed_precision_matches_run_stats() {
    // FixedTrials(n) through the adaptive path is the plain streaming
    // run plus a stop reason.
    let registry = standard_registry();
    let sc = Scenario::uniform(3, 8, 0.3, 0.9, 17);
    let inst = sc.instantiate();
    let spec = PolicySpec::new("gang-sequential");
    let adaptive = evaluator(0, 2)
        .run_adaptive_spec(&registry, &inst, &spec, Precision::FixedTrials(40))
        .unwrap();
    let plain = run_stats(&evaluator(40, 2), &registry, &inst, &spec);
    assert_eq!(adaptive.stop_reason, suu::sim::StopReason::FixedBudget);
    assert_eq!(
        adaptive.stats.acc.to_json().to_compact(),
        plain.acc.to_json().to_compact()
    );
}

#[test]
fn paired_crn_self_comparison_is_exactly_zero() {
    let registry = standard_registry();
    let sc = Scenario::uniform(3, 8, 0.3, 0.9, 23);
    let inst = sc.instantiate();
    let spec = PolicySpec::new("greedy-lr");
    let make = || spec_factory(&registry, &inst, &spec).unwrap();
    let paired = evaluator(0, 1).run_paired(&inst, make(), make(), Precision::FixedTrials(40));
    assert_eq!(paired.trials_used(), 40);
    assert_eq!(paired.delta_mean(), Some(0.0));
    assert_eq!(paired.delta_ci95(), Some(0.0));
    assert_eq!(paired.significant(), Some(false));
}

#[test]
fn paired_delta_mean_matches_marginal_means() {
    // Under CRN with a fixed budget, the mean of per-trial differences
    // equals the difference of the marginal cell means (same trial
    // seeds), up to float summation order.
    let registry = standard_registry();
    let sc = Scenario::uniform(3, 10, 0.2, 0.9, 29);
    let inst = sc.instantiate();
    let (a, b) = (
        PolicySpec::new("greedy-lr"),
        PolicySpec::new("gang-sequential"),
    );
    let eval = evaluator(60, 1);
    let paired = eval.run_paired(
        &inst,
        spec_factory(&registry, &inst, &a).unwrap(),
        spec_factory(&registry, &inst, &b).unwrap(),
        Precision::FixedTrials(60),
    );
    let mean_a = run_stats(&eval, &registry, &inst, &a).mean_makespan();
    let mean_b = run_stats(&eval, &registry, &inst, &b).mean_makespan();
    let delta = paired.delta_mean().unwrap();
    assert!(
        (delta - (mean_a - mean_b)).abs() < 1e-9,
        "paired Δ {delta} vs marginal {}",
        mean_a - mean_b
    );
    // greedy-lr beats gang-sequential on average here; under CRN the
    // difference should be sharply significant at 60 pairs.
    assert_eq!(paired.significant(), Some(true));
    assert!(delta < 0.0, "greedy-lr should be faster, Δ = {delta}");
}

#[test]
fn paired_crn_variance_is_smaller_than_marginal_variance() {
    // The point of CRN: Var(A − B) under shared seeds should undercut
    // Var(A) + Var(B) (independent-sampling variance of the difference).
    let registry = standard_registry();
    let sc = Scenario::uniform(4, 12, 0.2, 0.9, 37);
    let inst = sc.instantiate();
    let (a, b) = (
        PolicySpec::new("greedy-lr"),
        PolicySpec::new("best-machine"),
    );
    let eval = evaluator(120, 1);
    let paired = eval.run_paired(
        &inst,
        spec_factory(&registry, &inst, &a).unwrap(),
        spec_factory(&registry, &inst, &b).unwrap(),
        Precision::FixedTrials(120),
    );
    let var_a = run_stats(&eval, &registry, &inst, &a)
        .summary()
        .unwrap()
        .std_dev
        .powi(2);
    let var_b = run_stats(&eval, &registry, &inst, &b)
        .summary()
        .unwrap()
        .std_dev
        .powi(2);
    let var_delta = paired.delta.deltas().variance().unwrap();
    assert!(
        var_delta < var_a + var_b,
        "CRN gained nothing: Var(Δ) = {var_delta}, Var(A)+Var(B) = {}",
        var_a + var_b
    );
}

#[test]
fn paired_cells_match_the_serial_reference_at_any_thread_count() {
    // greedy-lr shares cached epoch plans and suu-c (not stationary)
    // decides at every epoch. An unreachable CI target climbs all 8
    // rungs of the 8..100 ladder, each cut into chunks of at most 8
    // trials and split across every worker of both policies' pools.
    let registry = standard_registry();
    let inst = Scenario::chains(3, 9, 3, 77).instantiate();
    let (a, b) = (PolicySpec::new("greedy-lr"), PolicySpec::new("suu-c"));
    let factory = |spec| spec_factory(&registry, &inst, spec).unwrap();
    let rule = Precision::TargetCi {
        half_width: 1e-9,
        relative: false,
        min_trials: 8,
        max_trials: 100,
    };
    let runs: Vec<_> = [1, 2, 3]
        .into_iter()
        .map(|threads| {
            let eval = evaluator(0, threads).with_batch(8);
            let paired = eval.run_paired(&inst, factory(&a), factory(&b), rule);
            (
                paired.delta.to_json().to_canonical(),
                paired.trials_used(),
                paired.stop_reason,
                paired.policy_a,
                paired.policy_b,
            )
        })
        .collect();
    assert!(runs.iter().all(|run| *run == runs[0]), "{runs:?}");

    // The per-trial reference: each policy through `run_serial`, the
    // differences folded in trial order.
    let serial = evaluator(100, 1);
    let (ref_a, ref_b) = (
        serial.run_serial(&inst, factory(&a)),
        serial.run_serial(&inst, factory(&b)),
    );
    let mut reference = PairedDelta::new();
    for (oa, ob) in ref_a.outcomes.iter().zip(&ref_b.outcomes) {
        reference.push(oa.makespan as f64, ob.makespan as f64);
    }
    let expected = (
        reference.to_json().to_canonical(),
        100,
        StopReason::MaxTrials,
        ref_a.policy,
        ref_b.policy,
    );
    assert_eq!(runs[0], expected);
}

#[test]
fn seed_collision_regression_correlates_old_streams() {
    // End-to-end spelling of the runner's seed-derivation fix: two
    // scenarios from different families sharing a `seed` constructor
    // parameter used to receive the same evaluation master seed, hence
    // identical per-trial engine streams. With the identity-mixed
    // derivation their streams differ.
    use suu::bench::runner::scenario_master_seed;
    let uniform = Scenario::uniform(3, 8, 0.2, 0.9, 7);
    let power = Scenario::power_law(3, 8, 0.5, 1.2, 7);
    assert_eq!(uniform.seed, power.seed);
    let old_u = suu::sim::derive_seed(0xBA5E, uniform.seed, 0xC311);
    let old_p = suu::sim::derive_seed(0xBA5E, power.seed, 0xC311);
    assert_eq!(old_u, old_p, "the old derivation collides (the bug)");
    assert_ne!(
        scenario_master_seed(0xBA5E, &uniform),
        scenario_master_seed(0xBA5E, &power)
    );

    // And the per-trial engine randomness is what the master seed keys,
    // so equal master seeds mean identical hidden thresholds per trial
    // index — the correlation the fix removes. Demonstrate the hazard on
    // the *same* instance evaluated under the colliding vs distinct
    // seeds.
    let registry = standard_registry();
    let inst = uniform.instantiate();
    let spec = PolicySpec::new("gang-sequential");
    let run = |master: u64| {
        Evaluator::new(EvalConfig {
            trials: 40,
            master_seed: master,
            threads: 1,
            ..EvalConfig::default()
        })
        .run(&inst, spec_factory(&registry, &inst, &spec).unwrap())
        .outcomes
        .iter()
        .map(|o| o.makespan)
        .collect::<Vec<u64>>()
    };
    assert_eq!(run(old_u), run(old_p), "colliding masters share streams");
    assert_ne!(
        run(scenario_master_seed(0xBA5E, &uniform)),
        run(scenario_master_seed(0xBA5E, &power)),
        "identity-mixed masters decorrelate"
    );
}

#[test]
fn accumulator_merge_matches_contiguous_run() {
    // A cell accumulated in two segments — trials 0..16 on one thread
    // count, 16..48 on another — equals the contiguous run bitwise.
    let registry = standard_registry();
    let sc = Scenario::uniform(3, 8, 0.3, 0.9, 41);
    let inst = sc.instantiate();
    let spec = PolicySpec::new("greedy-lr");
    let whole = run_stats(&evaluator(48, 1), &registry, &inst, &spec);
    let first = run_stats(&evaluator(16, 1), &registry, &inst, &spec);
    let second = run_stats(&evaluator(16, 2), &registry, &inst, &spec);
    let second = extend(&evaluator(48, 2), &registry, &inst, &spec, second, 48);
    assert_eq!(
        second.acc.to_json().to_compact(),
        whole.acc.to_json().to_compact(),
        "extension across a different thread count diverged"
    );
    let first = extend(&evaluator(48, 3), &registry, &inst, &spec, first, 48);
    assert_eq!(
        first.acc.to_json().to_compact(),
        whole.acc.to_json().to_compact()
    );
}
