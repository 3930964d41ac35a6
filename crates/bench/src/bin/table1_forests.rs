//! **T1-T — Table 1, row "Directed Forests"**: measured `E[T]/LB` of
//! `SUU-T` (Theorem 12: rank decomposition + `SUU-C` per block) vs
//! baselines on random out-forests and in-forests.
//!
//! ```sh
//! cargo run --release -p suu-bench --bin table1_forests
//! ```

use suu_bench::runner::{run_race, Race};
use suu_bench::scenario::Scenario;
use suu_sim::Precision;

fn main() {
    let mut scenarios = Vec::new();
    for n in [14usize, 28, 56] {
        scenarios.push(Scenario::forest(6, n, 3, 3000 + n as u64));
        scenarios.push(Scenario::in_forest(6, n, 3, 4000 + n as u64));
    }
    run_race(Race {
        title: "T1-T: Table 1 (Directed forests) — E[T]/LB vs n".to_string(),
        generated_by: "table1_forests".to_string(),
        scenarios,
        policies: ["gang-sequential", "greedy-lr", "suu-t"]
            .map(String::from)
            .to_vec(),
        // Adaptive stopping at 2% relative CI (old fixed budget: 30).
        precision: Precision::TargetCi {
            half_width: 0.02,
            relative: true,
            min_trials: 16,
            max_trials: 120,
        },
        paired: vec![("suu-t".to_string(), "greedy-lr".to_string())],
        master_seed: 0x73,
        ratios_to_lower_bound: true,
        json_path: Some("target/results/table1_forests.json".into()),
        ..Race::default()
    });
    println!("\nexpected shape: SUU-T tracks the bound on both orientations;");
    println!("the naive baselines degrade as the forests deepen.");
}
