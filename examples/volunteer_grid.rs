//! Volunteer-computing grid (SETI@home-style, paper §1).
//!
//! ```sh
//! cargo run --release --example volunteer_grid
//! ```
//!
//! A fleet of volunteer machines: a minority are reliable, the rest are
//! flaky. Every registry policy races on the same fleet; a downscaled
//! copy of the fleet additionally runs `exact-opt` (the MDP optimum as an
//! executable policy) to show absolute approximation quality. Prints the
//! shared `suu-results/v2` JSON document.

use suu::bench::runner::{run_race, Race};
use suu::bench::scenario::Scenario;
use suu::core::{workload, Precedence};
use suu::sim::{Precision, StructureClass};

fn grid(id: &str, m: usize, n: usize, seed: u64) -> Scenario {
    Scenario::custom(
        id,
        "volunteer grid: 30% reliable machines, the rest flaky",
        m,
        n,
        seed,
        StructureClass::Independent,
        move |s| {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(s);
            use rand::SeedableRng;
            workload::volunteer_grid(m, n, 0.3, 0.15, 0.92, Precedence::Independent, &mut rng)
        },
    )
}

fn main() {
    let doc = run_race(Race {
        title: "volunteer grid: full fleet + downscaled fleet with exact-opt".to_string(),
        generated_by: "example:volunteer_grid".to_string(),
        scenarios: vec![
            grid("volunteer-10x30", 10, 30, 1234),
            // Tiny copy where the MDP optimum is computable.
            grid("volunteer-4x9", 4, 9, 1234),
        ],
        policies: [
            "gang-sequential",
            "best-machine",
            "greedy-lr",
            "suu-i-obl",
            "suu-i-sem",
            "exact-opt",
        ]
        .map(String::from)
        .to_vec(),
        precision: Precision::FixedTrials(120),
        master_seed: 1234,
        ratios_to_lower_bound: true,
        ..Race::default()
    });

    println!("\nexact-opt errors on the full fleet (state space 2^30) and runs");
    println!("on the downscaled one — absolute quality shows up there.\n");
    println!("{}", doc.to_pretty());
}
