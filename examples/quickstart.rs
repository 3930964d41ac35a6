//! Quickstart: schedule unreliable machines with the paper's algorithms.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a random independent-jobs SUU instance, races the paper's two
//! independent-jobs algorithms against a naive baseline through the
//! policy registry, and prints the shared `suu-results/v2` JSON document.

use suu::bench::runner::{run_race, Race};
use suu::bench::scenario::Scenario;
use suu::sim::Precision;

fn main() {
    let doc = run_race(Race {
        title: "quickstart: 24 independent jobs, 6 unrelated machines".to_string(),
        generated_by: "example:quickstart".to_string(),
        scenarios: vec![Scenario::uniform(6, 24, 0.1, 0.9, 2024)],
        policies: ["gang-sequential", "suu-i-obl", "suu-i-sem"]
            .map(String::from)
            .to_vec(),
        precision: Precision::FixedTrials(200),
        master_seed: 1,
        ratios_to_lower_bound: true,
        ..Race::default()
    });

    println!("\nSUU-I-SEM is the paper's O(log log min(m,n))-approximation;");
    println!("ratios are E[T]/LB with LB the Lemma-1 LP lower bound.\n");
    println!("{}", doc.to_pretty());
}
