//! **T1-C — Table 1, row "Disjoint Chains"**: measured `E[T]/LB` of
//! `SUU-C` (Theorem 9) vs baselines as `n` grows.
//!
//! LB is the Lemma-5-style bound `max(t_LP2(½)/2, longest chain, gang
//! rate)`. The reproducible shape: `SUU-C` stays within a slowly growing
//! factor of LB (the paper's `O(log(n+m) log log min(m,n))`), while the
//! sequential baseline's ratio grows with `n/m` — it can only exploit one
//! job's worth of parallelism per step.
//!
//! ```sh
//! cargo run --release -p suu-bench --bin table1_chains
//! ```

use suu_bench::runner::{run_race, Race};
use suu_bench::scenario::Scenario;
use suu_sim::Precision;

fn main() {
    run_race(Race {
        title: "T1-C: Table 1 (Disjoint chains) — E[T]/LB vs n".to_string(),
        generated_by: "table1_chains".to_string(),
        scenarios: [12usize, 24, 48, 96]
            .into_iter()
            .map(|n| Scenario::chains((n / 4).max(3), n, (n / 4).max(2), 2000 + n as u64))
            .collect(),
        policies: ["gang-sequential", "greedy-lr", "suu-c"]
            .map(String::from)
            .to_vec(),
        // Adaptive stopping at 2% relative CI (old fixed budget: 30).
        precision: Precision::TargetCi {
            half_width: 0.02,
            relative: true,
            min_trials: 16,
            max_trials: 120,
        },
        paired: vec![("suu-c".to_string(), "greedy-lr".to_string())],
        master_seed: 0x72,
        ratios_to_lower_bound: true,
        json_path: Some("target/results/table1_chains.json".into()),
        ..Race::default()
    });
    println!("\nexpected shape: SUU-C's ratio grows slowly; gang-sequential's");
    println!("ratio grows with n/m as it wastes the available parallelism.");
}
