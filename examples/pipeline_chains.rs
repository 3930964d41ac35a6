//! Chain-structured pipelines scheduled with `SUU-C` (paper §4).
//!
//! ```sh
//! cargo run --release --example pipeline_chains
//! ```
//!
//! A batch of processing pipelines (disjoint chains of dependent stages)
//! on a small unreliable cluster. Shows the full `SUU-C` machinery — LP2
//! rounding, random delays, superstep flattening, long-job segments — and
//! the effect of disabling the Theorem-7 random delays, all as registry
//! parameter specs. Prints the shared `suu-results/v2` JSON document.

use suu::bench::runner::{run_race, Race};
use suu::bench::scenario::Scenario;
use suu::sim::Precision;

fn main() {
    let doc = run_race(Race {
        title: "pipelines: 12 disjoint chains of 48 stages on 6 machines".to_string(),
        generated_by: "example:pipeline_chains".to_string(),
        scenarios: vec![Scenario::chains(6, 48, 12, 31)],
        policies: ["gang-sequential", "suu-c", "suu-c(delay=false)"]
            .map(String::from)
            .to_vec(),
        precision: Precision::FixedTrials(60),
        master_seed: 31,
        ratios_to_lower_bound: true,
        ..Race::default()
    });

    println!("\nSUU-C follows Theorems 7 & 9: LP2 + rounding, random start");
    println!("delays against congestion, superstep flattening. The");
    println!("delay=false column ablates the Theorem-7 delays.\n");
    println!("{}", doc.to_pretty());
}
