//! End-to-end integration: every algorithm family × workload family ×
//! semantics completes, respects precedence, and never undercuts the
//! instance's lower bound by more than sampling noise — all constructed
//! by name through the policy registry and executed by the parallel
//! evaluator.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use suu::algos::bounds::lower_bound;
use suu::algos::{standard_registry, SemPolicy};
use suu::core::{workload, Precedence, SuuInstance};
use suu::dag::generators;
use suu::sim::{
    spec_factory, EvalConfig, EvalReport, Evaluator, ExecConfig, PolicySpec, Semantics,
};

fn evaluator(trials: usize, semantics: Semantics) -> Evaluator {
    Evaluator::new(EvalConfig {
        trials,
        master_seed: 0xE2E,
        threads: 0,
        exec: ExecConfig {
            semantics,
            max_steps: 2_000_000,
        },
        ..EvalConfig::default()
    })
}

/// Mean makespan with the standing sanity assertions: everything
/// completed, nothing violated precedence.
fn checked_mean(report: &EvalReport) -> f64 {
    assert!(
        report.all_completed(),
        "{}: a trial failed to complete",
        report.policy
    );
    assert_eq!(
        report.total_ineligible(),
        0,
        "{}: a schedule violated precedence",
        report.policy
    );
    report.mean_makespan()
}

fn workloads(seed: u64, m: usize, n: usize, prec: Precedence) -> Vec<(&'static str, SuuInstance)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    vec![
        (
            "uniform",
            workload::uniform_unrelated(m, n, 0.2, 0.9, prec.clone(), &mut rng),
        ),
        (
            "bimodal",
            workload::volunteer_grid(m, n, 0.4, 0.15, 0.9, prec.clone(), &mut rng),
        ),
        (
            "related",
            workload::reliability_difficulty(m, n, (0.4, 0.95), (0.05, 0.6), prec, &mut rng),
        ),
    ]
}

#[test]
fn independent_matrix_all_policies_all_semantics() {
    let registry = standard_registry();
    let specs = [
        "gang-sequential",
        "round-robin",
        "best-machine",
        "greedy-lr",
        "suu-i-obl",
        "suu-i-sem",
    ];
    for (name, inst) in workloads(1, 4, 10, Precedence::Independent) {
        let inst = Arc::new(inst);
        let lb = lower_bound(&inst).unwrap();
        for semantics in [Semantics::Suu, Semantics::SuuStar] {
            let eval = evaluator(15, semantics);
            for spec in specs {
                let report = eval.run(
                    &inst,
                    spec_factory(&registry, &inst, &PolicySpec::new(spec))
                        .unwrap_or_else(|e| panic!("{spec}: {e}")),
                );
                let mean = checked_mean(&report);
                assert!(
                    mean >= lb - 1.0,
                    "{name}/{semantics:?}/{spec}: mean {mean:.2} under LB {lb:.2}"
                );
            }
        }
    }
}

#[test]
fn chains_matrix() {
    let registry = standard_registry();
    let mut rng = SmallRng::seed_from_u64(2);
    let cs = generators::random_chain_set(12, 4, &mut rng);
    for (name, inst) in workloads(3, 3, 12, Precedence::Chains(cs)) {
        let inst = Arc::new(inst);
        let lb = lower_bound(&inst).unwrap();
        for semantics in [Semantics::Suu, Semantics::SuuStar] {
            let eval = evaluator(10, semantics);
            let suu_c = checked_mean(&eval.run(
                &inst,
                spec_factory(&registry, &inst, &PolicySpec::new("suu-c")).unwrap(),
            ));
            let gang = checked_mean(&eval.run(
                &inst,
                spec_factory(&registry, &inst, &PolicySpec::new("gang-sequential")).unwrap(),
            ));
            assert!(
                suu_c >= lb - 1.0,
                "{name}: SUU-C {suu_c:.2} under LB {lb:.2}"
            );
            assert!(gang >= lb - 1.0);
        }
    }
}

#[test]
fn forests_matrix() {
    let registry = standard_registry();
    let mut rng = SmallRng::seed_from_u64(4);
    for out in [true, false] {
        let forest = if out {
            generators::random_out_forest(14, 2, &mut rng)
        } else {
            generators::random_in_forest(14, 2, &mut rng)
        };
        for (name, inst) in workloads(5, 3, 14, Precedence::Forest(forest.clone())) {
            let inst = Arc::new(inst);
            let eval = evaluator(8, Semantics::SuuStar);
            let suu_t = checked_mean(&eval.run(
                &inst,
                spec_factory(&registry, &inst, &PolicySpec::new("suu-t")).unwrap(),
            ));
            assert!(suu_t >= 1.0, "{name}: degenerate makespan");
        }
    }
}

#[test]
fn general_dags_run_under_baselines() {
    // No approximation algorithm covers general DAGs (paper's conclusion);
    // the engine and the dag-capable registry families must still handle
    // them — and the structure-specialized families must refuse.
    let registry = standard_registry();
    let mut rng = SmallRng::seed_from_u64(6);
    let dag = generators::layered_dag(15, 4, 0.3, &mut rng);
    let inst = Arc::new(workload::uniform_unrelated(
        3,
        15,
        0.2,
        0.9,
        Precedence::Dag(dag),
        &mut rng,
    ));
    let eval = evaluator(10, Semantics::SuuStar);
    for spec in ["gang-sequential", "round-robin", "greedy-lr"] {
        checked_mean(&eval.run(
            &inst,
            spec_factory(&registry, &inst, &PolicySpec::new(spec)).unwrap(),
        ));
    }
    for spec in ["suu-i-sem", "suu-c", "suu-t"] {
        assert!(
            spec_factory(&registry, &inst, &PolicySpec::new(spec)).is_err(),
            "{spec} must refuse general DAGs"
        );
    }
}

#[test]
fn mapreduce_bipartite_via_two_phases() {
    let (maps, reduces) = (8usize, 4usize);
    let n = maps + reduces;
    let dag = generators::mapreduce_bipartite(maps, reduces);
    let mut rng = SmallRng::seed_from_u64(7);
    let inst = Arc::new(workload::uniform_unrelated(
        4,
        n,
        0.3,
        0.85,
        Precedence::Dag(dag),
        &mut rng,
    ));
    // Phase policies via SemPolicy job subsets (custom policy through the
    // plain evaluator API — no registry needed).
    struct TwoPhase {
        a: SemPolicy,
        b: SemPolicy,
    }
    impl suu::sim::Policy for TwoPhase {
        fn name(&self) -> &str {
            "two-phase"
        }
        fn reset(&mut self) {
            self.a.reset();
            self.b.reset();
        }
        fn decide(
            &mut self,
            view: &suu::sim::StateView<'_>,
            out: &mut suu::sim::Assignment,
        ) -> suu::sim::Decision {
            // The phase switch happens at a completion event, so the
            // engine is guaranteed to consult us then.
            if !self.a.is_done(view.remaining) {
                self.a.decide(view, out)
            } else {
                self.b.decide(view, out)
            }
        }
    }
    let report = evaluator(10, Semantics::SuuStar).run(&inst, || TwoPhase {
        a: SemPolicy::for_jobs(inst.clone(), Some((0..maps as u32).collect())).unwrap(),
        b: SemPolicy::for_jobs(inst.clone(), Some((maps as u32..n as u32).collect())).unwrap(),
    });
    let m = checked_mean(&report);
    assert!(m >= 2.0, "two phases cannot finish in under 2 steps");
}
