//! Cross-module tests: algorithms vs exact OPT, property tests on the
//! rounding guarantees, end-to-end approximation sanity.

use crate::baselines::GangSequentialPolicy;
use crate::bounds::lower_bound;
use crate::opt::{exact_opt, OptLimits};
use crate::suu_c::{ChainConfig, ChainPolicy};
use crate::suu_i_obl::OblPolicy;
use crate::suu_i_sem::SemPolicy;
use crate::suu_t::ForestPolicy;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use suu_core::{workload, Precedence};
use suu_dag::generators;
use suu_sim::{EvalConfig, Evaluator, ExecConfig, Semantics};

fn mc(trials: usize, seed: u64) -> Evaluator {
    Evaluator::new(EvalConfig {
        trials,
        master_seed: seed,
        threads: 4,
        exec: ExecConfig {
            semantics: Semantics::SuuStar,
            max_steps: 5_000_000,
        },
        ..EvalConfig::default()
    })
}

fn mean(report: &suu_sim::EvalReport) -> f64 {
    assert!(report.all_completed(), "all trials complete");
    report.mean_makespan()
}

#[test]
fn sem_beats_or_matches_gang_on_parallel_workload() {
    // Many independent jobs + many machines: LP-driven parallelism should
    // crush the sequential gang baseline.
    let mut rng = SmallRng::seed_from_u64(21);
    let inst = Arc::new(workload::uniform_unrelated(
        8,
        32,
        0.05,
        0.5,
        Precedence::Independent,
        &mut rng,
    ));
    let sem = mean(&mc(40, 1).run(&inst, || SemPolicy::build(inst.clone()).unwrap()));
    let gang = mean(&mc(40, 1).run(&inst, GangSequentialPolicy::new));
    assert!(
        sem < gang * 0.6,
        "SEM ({sem:.1}) should clearly beat gang-sequential ({gang:.1})"
    );
}

#[test]
fn sem_vs_exact_opt_small() {
    // On tiny instances the measured E[T_SEM] must stay within a modest
    // constant of the exact optimum.
    for seed in 0..6u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let inst = Arc::new(workload::uniform_unrelated(
            2,
            4,
            0.3,
            0.9,
            Precedence::Independent,
            &mut rng,
        ));
        let opt = exact_opt(&inst, OptLimits::default()).unwrap();
        let sem = mean(&mc(200, seed).run(&inst, || SemPolicy::build(inst.clone()).unwrap()));
        assert!(
            sem <= 12.0 * opt + 2.0,
            "seed {seed}: SEM {sem:.2} vs OPT {opt:.2}"
        );
        assert!(
            sem >= opt - 0.35,
            "seed {seed}: SEM {sem:.2} below OPT {opt:.2}?"
        );
    }
}

#[test]
fn obl_vs_sem_consistency() {
    // Both complete; SEM should not be wildly worse than OBL anywhere.
    let mut rng = SmallRng::seed_from_u64(33);
    let inst = Arc::new(workload::power_law_difficulty(
        4,
        12,
        0.5,
        1.1,
        Precedence::Independent,
        &mut rng,
    ));
    let obl = mean(&mc(60, 2).run(&inst, || OblPolicy::build(&inst).unwrap()));
    let sem = mean(&mc(60, 2).run(&inst, || SemPolicy::build(inst.clone()).unwrap()));
    assert!(sem <= 3.0 * obl + 5.0, "SEM {sem:.1} vs OBL {obl:.1}");
}

#[test]
fn chains_respect_lower_bound() {
    let mut rng = SmallRng::seed_from_u64(44);
    let cs = generators::random_chain_set(12, 4, &mut rng);
    let chains = cs.chains().to_vec();
    let inst = Arc::new(workload::uniform_unrelated(
        3,
        12,
        0.3,
        0.9,
        Precedence::Chains(cs),
        &mut rng,
    ));
    let lb = lower_bound(&inst).unwrap();
    let measured = mean(&mc(40, 3).run(&inst, || {
        ChainPolicy::build(inst.clone(), chains.clone(), ChainConfig::default()).unwrap()
    }));
    assert!(
        measured >= lb - 0.5,
        "measured {measured:.2} below lower bound {lb:.2}"
    );
}

#[test]
fn forest_policy_completes_mapreduce_like_forest() {
    // A star out-forest approximates a map stage fanning into reducers.
    let forest = generators::caterpillar(4, 3);
    let n = forest.num_vertices();
    let mut rng = SmallRng::seed_from_u64(55);
    let inst = Arc::new(workload::uniform_unrelated(
        4,
        n,
        0.3,
        0.9,
        Precedence::Forest(forest.clone()),
        &mut rng,
    ));
    let report = mc(20, 4).run(&inst, || {
        ForestPolicy::build(inst.clone(), &forest, ChainConfig::default()).unwrap()
    });
    assert!(report.all_completed());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn rounding_guarantees_hold_on_arbitrary_instances(
        seed in 0u64..10_000,
        n in 2usize..10,
        m in 1usize..6,
        qmin in 0.05f64..0.5,
        spread in 0.1f64..0.45,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let inst = workload::uniform_unrelated(
            m, n, qmin, qmin + spread, Precedence::Independent, &mut rng);
        let jobs: Vec<u32> = (0..n as u32).collect();
        for target in [0.5, 2.0] {
            let sol = crate::lp1::solve_lp1(&inst, &jobs, target).unwrap();
            let (_, report) = crate::rounding::round_lp1(&inst, &sol).unwrap();
            prop_assert!(report.min_clamped_mass >= target - 1e-9);
            prop_assert!(report.max_load <= report.load_cap);
        }
    }

    #[test]
    fn policies_always_terminate(
        seed in 0u64..10_000,
        n in 1usize..8,
        m in 1usize..4,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let inst = Arc::new(workload::uniform_unrelated(
            m, n, 0.1, 0.95, Precedence::Independent, &mut rng));
        let report = mc(5, seed).run(&inst, || SemPolicy::build(inst.clone()).unwrap());
        prop_assert!(report.all_completed());
    }
}

#[test]
fn lower_bound_below_every_policy_mean() {
    let mut rng = SmallRng::seed_from_u64(66);
    let inst = Arc::new(workload::volunteer_grid(
        6,
        10,
        0.3,
        0.1,
        0.9,
        Precedence::Independent,
        &mut rng,
    ));
    let lb = lower_bound(&inst).unwrap();
    let sem = mean(&mc(60, 5).run(&inst, || SemPolicy::build(inst.clone()).unwrap()));
    // Sampling noise allowance.
    assert!(sem >= lb - 0.5, "SEM mean {sem:.2} below LB {lb:.2}");
}
