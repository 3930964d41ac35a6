//! **T1-I — Table 1, row "Independent"**: measured approximation ratios of
//! the prior `O(log n)`-style schedules vs this paper's
//! `O(log log min(m,n))` schedule, as `n` grows.
//!
//! The paper's Table 1 is a table of *asymptotic bounds*; the reproducible
//! claim is the growth *shape*: `SUU-I-OBL`'s measured ratio (the
//! `O(log n)` repeated-timetable approach, standing in for Lin &
//! Rajaraman's bound) grows markedly with `n`, while `SUU-I-SEM`'s stays
//! near-flat. Ratios are against the Lemma-1 LP lower bound.
//!
//! ```sh
//! cargo run --release -p suu-bench --bin table1_independent
//! ```

use suu_bench::runner::{run_race, Race};
use suu_bench::scenario::Scenario;
use suu_sim::Precision;

fn main() {
    run_race(Race {
        title: "T1-I: Table 1 (Independent jobs) — E[T]/LB vs n".to_string(),
        generated_by: "table1_independent".to_string(),
        scenarios: [8usize, 16, 32, 64, 128]
            .into_iter()
            .map(|n| Scenario::uniform((n / 4).max(4), n, 0.15, 0.95, 1000 + n as u64))
            .collect(),
        policies: ["gang-sequential", "greedy-lr", "suu-i-obl", "suu-i-sem"]
            .map(String::from)
            .to_vec(),
        // Adaptive: stop each cell at a 2% relative CI half-width on the
        // mean — low-variance cells finish in a fraction of the old
        // fixed 60-trial budget, high-variance cells get more.
        precision: Precision::TargetCi {
            half_width: 0.02,
            relative: true,
            min_trials: 24,
            max_trials: 240,
        },
        // The paper's headline comparison, on common random numbers: the
        // O(log n)-style oblivious timetable vs this paper's
        // semioblivious rounds.
        paired: vec![("suu-i-obl".to_string(), "suu-i-sem".to_string())],
        master_seed: 0x71,
        ratios_to_lower_bound: true,
        json_path: Some("target/results/table1_independent.json".into()),
        ..Race::default()
    });
    println!("\npaper: prior best O(log n) vs this work O(log log min(m,n)).");
    println!("expected shape: OBL ratio grows with n; SEM ratio stays near-flat;");
    println!("the paired Δ(OBL − SEM) turns significantly positive as n grows.");
}
