//! Engine and harness tests, including the statistical SUU ≡ SUU* check
//! and the machine-step accounting invariant.

use crate::engine::dense::execute_dense;
use crate::engine::{execute, ExecConfig, ExecOutcome, Semantics};
use crate::evaluate::{EvalConfig, Evaluator};
use crate::policy::{Assignment, Decision, Policy, StateView};
use crate::stats::{chi_square_critical_001, chi_square_two_sample, histogram_pair};
use rand::rngs::StdRng;
use rand::SeedableRng;
use suu_core::{workload, JobId, Precedence};
use suu_dag::ChainSet;

/// Every machine works on the lowest-id eligible remaining job plus
/// round-robin spread: machine i takes the (i mod k)-th eligible job.
/// A pure function of the eligible set, so it holds between events.
#[derive(Clone)]
struct SpreadPolicy;

impl Policy for SpreadPolicy {
    fn name(&self) -> &str {
        "spread"
    }
    fn reset(&mut self) {}
    fn decide(&mut self, view: &StateView<'_>, out: &mut Assignment) -> Decision {
        let eligible: Vec<u32> = view.eligible.iter().collect();
        if !eligible.is_empty() {
            for i in 0..view.m {
                out.set(i, JobId(eligible[i % eligible.len()]));
            }
        }
        Decision::HOLD
    }
    fn is_stationary(&self) -> bool {
        true
    }
}

/// All machines gang on the single lowest eligible job.
#[derive(Clone)]
struct GangPolicy;

impl Policy for GangPolicy {
    fn name(&self) -> &str {
        "gang"
    }
    fn reset(&mut self) {}
    fn decide(&mut self, view: &StateView<'_>, out: &mut Assignment) -> Decision {
        out.fill(view.eligible.first().map(JobId));
        Decision::HOLD
    }
    fn is_stationary(&self) -> bool {
        true
    }
}

/// Never does anything. For step-cap tests.
struct IdlePolicy;

impl Policy for IdlePolicy {
    fn name(&self) -> &str {
        "idle"
    }
    fn reset(&mut self) {}
    fn decide(&mut self, _view: &StateView<'_>, _out: &mut Assignment) -> Decision {
        Decision::HOLD
    }
}

/// Deliberately assigns an ineligible job (the chain's last job).
struct CheatingPolicy;

impl Policy for CheatingPolicy {
    fn name(&self) -> &str {
        "cheat"
    }
    fn reset(&mut self) {}
    fn decide(&mut self, view: &StateView<'_>, out: &mut Assignment) -> Decision {
        out.fill(Some(JobId(view.n as u32 - 1)));
        Decision::HOLD
    }
}

/// A per-trial engine entry point: the dense oracle or the event engine.
type Engine = fn(&suu_core::SuuInstance, &mut dyn Policy, &ExecConfig, u64) -> ExecOutcome;

fn cfg(semantics: Semantics) -> ExecConfig {
    ExecConfig {
        semantics,
        max_steps: 1_000_000,
    }
}

fn eval(trials: usize, seed: u64, semantics: Semantics) -> Evaluator {
    Evaluator::new(EvalConfig {
        trials,
        master_seed: seed,
        threads: 2,
        exec: cfg(semantics),
        ..EvalConfig::default()
    })
}

#[test]
fn deterministic_independent_one_step() {
    // q = 0 everywhere, n = m: spread policy finishes everything in 1 step.
    let inst = workload::deterministic(4, 4, Precedence::Independent);
    for engine in [execute_dense as Engine, execute] {
        let out = engine(&inst, &mut SpreadPolicy, &cfg(Semantics::SuuStar), 1);
        assert!(out.completed);
        assert_eq!(out.makespan, 1);
        assert_eq!(out.busy_steps, 4);
        assert_eq!(out.ineligible_assignments, 0);
    }
}

#[test]
fn deterministic_chain_takes_n_steps() {
    // Single chain of 5 jobs, q = 0: must take exactly 5 steps.
    let cs = ChainSet::new(5, vec![vec![0, 1, 2, 3, 4]]).unwrap();
    let inst = workload::deterministic(3, 5, Precedence::Chains(cs));
    for semantics in [Semantics::Suu, Semantics::SuuStar] {
        let out = execute(&inst, &mut GangPolicy, &cfg(semantics), 2);
        assert!(out.completed);
        assert_eq!(out.makespan, 5);
        // Completion times are 1..=5 in chain order.
        for j in 0..5 {
            assert_eq!(out.completion_time[j], j as u64 + 1);
        }
    }
}

#[test]
fn geometric_single_job_mean_is_two() {
    // One job, one machine, q = 1/2: makespan ~ Geometric(1/2), E = 2.
    let inst = workload::homogeneous(1, 1, 0.5, Precedence::Independent);
    for semantics in [Semantics::Suu, Semantics::SuuStar] {
        let report = eval(4000, 99, semantics).run(&inst, || GangPolicy);
        assert_eq!(report.completion_rate(), 1.0);
        let mean = report.mean_makespan();
        assert!(
            (mean - 2.0).abs() < 0.12,
            "{semantics:?}: mean {mean} not ~2.0"
        );
    }
}

#[test]
fn two_machines_gang_probability_combines() {
    // One job, two machines with q = 1/2 each: combined failure 1/4,
    // E[T] = 1/(3/4) = 4/3.
    let inst = workload::homogeneous(2, 1, 0.5, Precedence::Independent);
    let report = eval(4000, 7, Semantics::Suu).run(&inst, || GangPolicy);
    let mean = report.mean_makespan();
    assert!((mean - 4.0 / 3.0).abs() < 0.08, "mean {mean}");
}

#[test]
fn suu_and_suustar_distributions_match() {
    // Theorem 10: identical makespan distributions under both semantics.
    // 3 jobs in a chain + 1 independent, heterogeneous machines.
    let cs = ChainSet::new(4, vec![vec![0, 1, 2], vec![3]]).unwrap();
    let mut grng = StdRng::seed_from_u64(5);
    let inst = workload::uniform_unrelated(3, 4, 0.3, 0.9, Precedence::Chains(cs), &mut grng);

    let run = |semantics| {
        eval(6000, 1234, semantics)
            .run(&inst, || SpreadPolicy)
            .outcomes
            .into_iter()
            .map(|o| o.makespan)
            .collect::<Vec<u64>>()
    };
    let a = run(Semantics::Suu);
    let b = run(Semantics::SuuStar);
    let (ha, hb) = histogram_pair(&a, &b);
    let (chi2, dof) = chi_square_two_sample(&ha, &hb);
    let crit = chi_square_critical_001(dof);
    assert!(
        chi2 <= crit,
        "distributions differ: chi2 {chi2:.2} > critical {crit:.2} (dof {dof})"
    );
}

#[test]
fn step_cap_reports_incomplete() {
    let inst = workload::homogeneous(1, 1, 0.5, Precedence::Independent);
    let exec = ExecConfig {
        semantics: Semantics::SuuStar,
        max_steps: 50,
    };
    for (name, engine) in [("dense", execute_dense as Engine), ("events", execute)] {
        let out = engine(&inst, &mut IdlePolicy, &exec, 3);
        assert!(!out.completed);
        assert_eq!(out.makespan, 50);
        assert_eq!(out.completion_time[0], u64::MAX);
        assert_eq!(out.idle_steps, 50, "{name}");
    }
}

#[test]
fn ineligible_assignments_are_counted_and_harmless() {
    let cs = ChainSet::new(3, vec![vec![0, 1, 2]]).unwrap();
    let inst = workload::deterministic(2, 3, Precedence::Chains(cs));
    let exec = ExecConfig {
        semantics: Semantics::SuuStar,
        max_steps: 10,
    };
    for (name, engine) in [("dense", execute_dense as Engine), ("events", execute)] {
        let out = engine(&inst, &mut CheatingPolicy, &exec, 4);
        // Job 2 never becomes eligible because 0 and 1 never run.
        assert!(!out.completed);
        assert_eq!(out.ineligible_assignments, 20, "{name}");
        assert_eq!(out.busy_steps, 0);
    }
}

#[test]
fn machine_step_accounting_partitions_exactly() {
    // busy + idle + ineligible == m · makespan, complete or not, under
    // both engines and both semantics.
    let cs = ChainSet::new(6, vec![vec![0, 1, 2], vec![3, 4, 5]]).unwrap();
    let mut grng = StdRng::seed_from_u64(8);
    let inst = workload::uniform_unrelated(3, 6, 0.3, 0.9, Precedence::Chains(cs), &mut grng);
    for (name, engine) in [("dense", execute_dense as Engine), ("events", execute)] {
        for semantics in [Semantics::Suu, Semantics::SuuStar] {
            for (policy, max_steps) in [(0, 1_000_000u64), (1, 25)] {
                let exec = ExecConfig {
                    semantics,
                    max_steps,
                };
                let out = if policy == 0 {
                    engine(&inst, &mut SpreadPolicy, &exec, 11)
                } else {
                    engine(&inst, &mut CheatingPolicy, &exec, 11)
                };
                assert_eq!(
                    out.busy_steps + out.idle_steps + out.ineligible_assignments,
                    3 * out.makespan,
                    "{name}/{semantics:?}/policy{policy}: accounting leak"
                );
            }
        }
    }
}

#[test]
fn dense_and_event_engines_agree_bitwise() {
    // The in-crate miniature of the cross-crate differential suite.
    let cs = ChainSet::new(5, vec![vec![0, 1], vec![2, 3, 4]]).unwrap();
    let mut grng = StdRng::seed_from_u64(21);
    let inst = workload::uniform_unrelated(3, 5, 0.2, 0.95, Precedence::Chains(cs), &mut grng);
    for semantics in [Semantics::Suu, Semantics::SuuStar] {
        for seed in 0..40u64 {
            let run = |engine: Engine| -> ExecOutcome {
                engine(&inst, &mut SpreadPolicy, &cfg(semantics), seed)
            };
            assert_eq!(
                run(execute_dense),
                run(execute),
                "{semantics:?} seed {seed}"
            );
        }
    }
}

#[test]
fn seeded_runs_are_deterministic() {
    let mut grng = StdRng::seed_from_u64(11);
    let inst = workload::uniform_unrelated(3, 5, 0.2, 0.95, Precedence::Independent, &mut grng);
    let run = || -> Vec<u64> {
        eval(50, 777, Semantics::SuuStar)
            .run(&inst, || SpreadPolicy)
            .outcomes
            .iter()
            .map(|o| o.makespan)
            .collect()
    };
    assert_eq!(run(), run(), "same seeds must give identical outcomes");
}

#[test]
fn single_thread_matches_multi_thread() {
    let inst = workload::homogeneous(2, 3, 0.6, Precedence::Independent);
    let run = |threads: usize| -> Vec<u64> {
        Evaluator::new(EvalConfig {
            trials: 64,
            master_seed: 42,
            threads,
            batch: 8, // eight chunks: eight real workers at 8 threads
            exec: cfg(Semantics::SuuStar),
        })
        .run(&inst, || SpreadPolicy)
        .outcomes
        .iter()
        .map(|o| o.makespan)
        .collect()
    };
    assert_eq!(run(1), run(8));
}

#[test]
fn summary_of_makespans() {
    let inst = workload::homogeneous(1, 1, 0.5, Precedence::Independent);
    let report = eval(500, 1, Semantics::SuuStar).run(&inst, || GangPolicy);
    let s = report.summary().expect("nonempty");
    assert_eq!(s.count, 500);
    assert!(s.min >= 1.0);
    assert!(s.mean > 1.0 && s.mean < 3.0);
    assert!(s.p95 >= s.median);
}

#[test]
fn batched_run_matches_per_trial_run_bitwise() {
    // GangPolicy declares stationary, so the batch runner's trials share
    // cached epoch plans; its outcome vector must equal the per-trial
    // engine's.
    let mut grng = StdRng::seed_from_u64(9);
    let inst = workload::uniform_unrelated(3, 7, 0.25, 0.95, Precedence::Independent, &mut grng);
    for semantics in [Semantics::Suu, Semantics::SuuStar] {
        let evaluator = eval(70, 123, semantics).with_threads(1).with_batch(16);
        let per_trial = evaluator.run_serial(&inst, || GangPolicy);
        let batched = evaluator.run(&inst, || GangPolicy);
        assert_eq!(per_trial.outcomes, batched.outcomes, "{semantics:?}");
    }
}

#[test]
fn run_stats_matches_collected_report_and_any_thread_count() {
    let inst = workload::homogeneous(3, 6, 0.6, Precedence::Independent);
    let evaluator = eval(300, 77, Semantics::SuuStar).with_batch(32);
    let reference = evaluator.run_serial(&inst, || SpreadPolicy).to_stats();
    let ref_summary = reference.summary().expect("nonempty");
    for threads in [1, 2, 5] {
        let stats = evaluator
            .with_threads(threads)
            .run_stats(&inst, || SpreadPolicy);
        assert_eq!(stats.policy, "spread");
        assert_eq!(stats.trials(), 300);
        let s = stats.summary().expect("nonempty");
        // Bitwise: the streaming pipeline folds chunks in trial order at
        // any worker count, so even the order-sensitive statistics agree.
        assert_eq!(s.mean.to_bits(), ref_summary.mean.to_bits(), "{threads}");
        assert_eq!(s.std_dev.to_bits(), ref_summary.std_dev.to_bits());
        assert_eq!(s.median.to_bits(), ref_summary.median.to_bits());
        assert_eq!(s.p95.to_bits(), ref_summary.p95.to_bits());
        assert_eq!(s.min, ref_summary.min);
        assert_eq!(s.max, ref_summary.max);
        assert_eq!(s.count, 300);
        assert!(s.exact_quantiles, "300 <= default exact cap");
    }
}

#[test]
fn run_stats_switches_to_sketch_on_large_samples() {
    let inst = workload::homogeneous(2, 2, 0.5, Precedence::Independent);
    let stats = eval(1500, 5, Semantics::SuuStar)
        .with_batch(128)
        .run_stats(&inst, || GangPolicy);
    let s = stats.summary().expect("nonempty");
    assert_eq!(s.count, 1500);
    assert!(!s.exact_quantiles, "1500 > exact cap: sketch quantiles");
    // Sketch sanity against the exact quantiles of a collected run.
    let exact = eval(1500, 5, Semantics::SuuStar)
        .run(&inst, || GangPolicy)
        .to_stats();
    let exact_mean = exact.summary().unwrap().mean;
    assert_eq!(s.mean.to_bits(), exact_mean.to_bits(), "moments are exact");
    assert!(s.median >= s.min && s.median <= s.max);
    assert!(s.p95 >= s.median - 1.0);
}
