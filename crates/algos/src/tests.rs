//! Cross-module tests: algorithms vs exact OPT, property tests on the
//! rounding guarantees, end-to-end approximation sanity.

use crate::baselines::GangSequentialPolicy;
use crate::bounds::lower_bound;
use crate::lp::{solve_lp1, solve_lp2};
use crate::opt::{exact_opt, OptLimits};
use crate::rounding::{round_lp, ScaleMode};
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
            let sol = solve_lp1(&inst, &jobs, target).unwrap();
            let (_, report) = round_lp(&inst, &sol, ScaleMode::Adaptive).unwrap();
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

/// `(machine, job, steps)` of every positive entry of `asg`, by job.
fn assignment_triples(asg: &suu_core::Assignment) -> Vec<(u32, u32, u64)> {
    (0..asg.num_jobs() as u32)
        .flat_map(|j| {
            asg.machines_for(suu_core::JobId(j))
                .iter()
                .map(move |&(i, steps)| (i, j, steps))
        })
        .collect()
}

#[test]
fn lp_rounding_bound_and_opt_keep_their_bits() {
    // The simplex breaks ties by the LP's column and row order, and the DP
    // sums in a fixed order, so a reordered variable, row or float
    // operation can move these last bits, and every experiment output
    // with them.
    let mut rng = SmallRng::seed_from_u64(7);
    let inst = workload::uniform_unrelated(3, 10, 0.3, 0.95, Precedence::Independent, &mut rng);
    let jobs: Vec<u32> = (0..10).collect();
    let sol = solve_lp1(&inst, &jobs, 0.5).unwrap();
    assert_eq!(
        sol.t_star.to_bits(),
        0x400b_7963_5ce6_cbdc,
        "LP1 t* {}",
        sol.t_star
    );
    let (asg, _) = round_lp(&inst, &sol, ScaleMode::Adaptive).unwrap();
    assert_eq!(
        assignment_triples(&asg),
        [
            (0, 0, 1),
            (1, 0, 1),
            (2, 1, 2),
            (0, 2, 2),
            (2, 3, 2),
            (1, 4, 2),
            (2, 5, 2),
            (1, 6, 2),
            (0, 7, 2),
            (1, 8, 2),
            (0, 9, 2),
        ]
    );

    // Ten chains on two weak machines, so (LP2) at mass 1/2 is the
    // largest of the lower bounds.
    let mut rng = SmallRng::seed_from_u64(8);
    let cs = generators::random_chain_set(16, 10, &mut rng);
    let chains = cs.chains().to_vec();
    let inst = workload::uniform_unrelated(2, 16, 0.7, 0.9, Precedence::Chains(cs), &mut rng);
    let sol = solve_lp2(&inst, &chains, 1.0).unwrap();
    assert_eq!(
        sol.t_star.to_bits(),
        0x4037_41ec_8bf1_f2e9,
        "LP2 t* {}",
        sol.t_star
    );
    let (asg, _) = round_lp(&inst, &sol, ScaleMode::Adaptive).unwrap();
    assert_eq!(
        assignment_triples(&asg),
        [
            (0, 0, 6),
            (1, 0, 2),
            (1, 1, 7),
            (1, 2, 5),
            (0, 3, 5),
            (0, 4, 7),
            (1, 5, 4),
            (1, 6, 8),
            (0, 7, 5),
            (0, 8, 4),
            (1, 9, 6),
            (0, 10, 5),
            (0, 11, 4),
            (0, 12, 4),
            (1, 13, 7),
            (0, 14, 4),
            (1, 15, 4),
        ]
    );
    let lb = lower_bound(&inst).unwrap();
    assert_eq!(lb.to_bits(), 0x4017_41ec_8bf1_f2ea, "lower bound {lb}");

    let mut rng = SmallRng::seed_from_u64(9);
    let cs = generators::random_chain_set(6, 2, &mut rng);
    let inst = workload::uniform_unrelated(2, 6, 0.2, 0.9, Precedence::Chains(cs), &mut rng);
    let v = exact_opt(&inst, OptLimits::default()).unwrap();
    assert_eq!(v.to_bits(), 0x4021_2196_39f3_69ac, "chains OPT {v}");

    let mut rng = SmallRng::seed_from_u64(10);
    let dag = generators::layered_dag(7, 3, 0.6, &mut rng);
    let inst = workload::uniform_unrelated(2, 7, 0.2, 0.9, Precedence::Dag(dag), &mut rng);
    let v = exact_opt(&inst, OptLimits::default()).unwrap();
    assert_eq!(v.to_bits(), 0x401d_69ce_d0de_b30a, "layered-DAG OPT {v}");
}
