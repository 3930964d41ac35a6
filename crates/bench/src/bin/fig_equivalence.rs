//! **F-EQUIV — Theorem 10 / Corollary 11**: the SUU and SUU* semantics
//! induce the same makespan distribution for any schedule.
//!
//! Runs registry-built policies under both engine semantics through the
//! parallel evaluator and applies a two-sample chi-square test to the
//! makespan histograms. Statistics below the 0.001 critical value ⇒ the
//! empirical distributions are indistinguishable, as the theorem demands.
//!
//! ```sh
//! cargo run --release -p suu-bench --bin fig_equivalence
//! ```

use std::time::Instant;
use suu_bench::print_header;
use suu_bench::report::ResultsBuilder;
use suu_bench::scenario::Scenario;
use suu_core::json::Json;
use suu_sim::stats::{chi_square_critical_001, chi_square_two_sample, histogram_pair};
use suu_sim::{spec_factory, EvalConfig, Evaluator, ExecConfig, PolicySpec, Semantics};

fn main() {
    let started = Instant::now();
    println!("== F-EQUIV: SUU vs SUU* makespan distributions (Theorem 10) ==\n");
    let trials = 4000;
    println!("{trials} trials per semantics; chi-square @ 0.001\n");
    print_header(&[
        ("instance", 24),
        ("policy", 12),
        ("chi2", 8),
        ("crit", 8),
        ("verdict", 8),
    ]);

    let registry = suu_algos::standard_registry();
    let scenarios = [
        (
            Scenario::uniform(3, 6, 0.3, 0.9, 7001),
            vec!["round-robin", "suu-i-sem"],
        ),
        (
            Scenario::chains(3, 6, 2, 7002),
            vec!["round-robin", "greedy-lr"],
        ),
        (
            Scenario::adversarial(4, 5, 7003),
            vec!["greedy-lr", "best-machine"],
        ),
    ];

    let mut builder = ResultsBuilder::new("fig_equivalence");
    let mut all_pass = true;
    for (sc, policies) in scenarios {
        builder.add_scenario(&sc);
        let inst = sc.instantiate();
        for policy in policies {
            let spec = PolicySpec::parse(policy).expect("valid spec");
            let run = |semantics| {
                Evaluator::new(EvalConfig {
                    trials,
                    master_seed: 31337,
                    threads: 0,
                    exec: ExecConfig {
                        semantics,
                        max_steps: 5_000_000,
                    },
                    ..EvalConfig::default()
                })
                .run(
                    &inst,
                    spec_factory(&registry, &inst, &spec).expect("policy builds"),
                )
            };
            let a = run(Semantics::Suu);
            let b = run(Semantics::SuuStar);
            let ma: Vec<u64> = a.outcomes.iter().map(|o| o.makespan).collect();
            let mb: Vec<u64> = b.outcomes.iter().map(|o| o.makespan).collect();
            let (ha, hb) = histogram_pair(&ma, &mb);
            let (chi2, dof) = chi_square_two_sample(&ha, &hb);
            let crit = chi_square_critical_001(dof);
            let pass = chi2 <= crit;
            all_pass &= pass;
            builder.add_cell(
                &sc.id,
                policy,
                &b.to_stats(),
                &[
                    ("chi2", Json::Num(chi2)),
                    ("chi2_dof", Json::UInt(dof as u64)),
                    ("chi2_critical_001", Json::Num(crit)),
                    ("suu_mean", Json::Num(a.mean_makespan())),
                    ("distributions_match", Json::Bool(pass)),
                ],
            );
            println!(
                "{:>24} {policy:>12} {chi2:>8.2} {crit:>8.2} {:>8}",
                sc.id,
                if pass { "match" } else { "DIFFER" }
            );
        }
    }

    let doc = builder.finish();
    std::fs::create_dir_all("target/results").ok();
    std::fs::write("target/results/fig_equivalence.json", doc.to_pretty()).ok();

    println!(
        "\nexpected: every row 'match' — the Principle of Deferred Decisions\n\
         reformulation (Appendix A) is distribution-preserving. {}",
        if all_pass { "OK." } else { "VIOLATION!" }
    );
    println!("results written to target/results/fig_equivalence.json");
    println!("[{:.1}s]", started.elapsed().as_secs_f64());
}
