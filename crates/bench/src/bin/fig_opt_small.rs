//! **F-OPT — approximation ratios against the exact optimum** on tiny
//! instances, where `E[T_OPT]` is computable by the MDP subset DP — and,
//! since the registry exposes the DP's argmax as the executable
//! `exact-opt` policy, the optimum appears as just another column.
//!
//! The reproducible claim: `SUU-I-SEM`'s measured mean stays within a
//! small constant of `exact-opt`'s (the paper proves
//! `O(log log min(m,n))`, ≤ 4-ish rounds at this scale), while the naive
//! baselines drift away.
//!
//! ```sh
//! cargo run --release -p suu-bench --bin fig_opt_small
//! ```

use suu_bench::runner::{run_race, Race};
use suu_bench::scenario::Scenario;
use suu_sim::Precision;

fn main() {
    run_race(Race {
        title: "F-OPT: mean makespans incl. the exact optimum (tiny instances)".to_string(),
        generated_by: "fig_opt_small".to_string(),
        scenarios: [(2usize, 4usize), (2, 6), (3, 8), (3, 10), (4, 12)]
            .into_iter()
            .map(|(m, n)| Scenario::uniform(m, n, 0.25, 0.9, 5000 + n as u64))
            .collect(),
        policies: ["exact-opt", "suu-i-sem", "greedy-lr", "gang-sequential"]
            .map(String::from)
            .to_vec(),
        precision: Precision::FixedTrials(400),
        master_seed: 0x74,
        ratios_to_lower_bound: false,
        json_path: Some("target/results/fig_opt_small.json".into()),
        ..Race::default()
    });
    println!("\nexact-opt replays the DP's optimal actions; every other column");
    println!("is an approximation, so its mean must not beat exact-opt's by");
    println!("more than sampling noise.");
}
