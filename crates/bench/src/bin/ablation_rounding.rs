//! **Ablation — rounding scale** (the `ablation_rounding` row of the
//! `suu-bench` experiment index; README "Experiments"): the paper's Lemma-2
//! proof scales fractional assignments by 6 before flooring; our default
//! rounding adaptively tries 1/2/3 first and verifies the identical
//! guarantees. This ablation measures what that buys end-to-end.
//!
//! Also ablates the `SUU-C` options through registry parameter specs —
//! the option toggles are just different policy columns of one race:
//! `suu-c`, `suu-c(delay=false)`, `suu-c(coarsen=true)`.
//!
//! ```sh
//! cargo run --release -p suu-bench --bin ablation_rounding
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;
use suu_algos::lp1::solve_lp1;
use suu_algos::rounding::{round_lp1_with, ScaleMode};
use suu_bench::print_header;
use suu_bench::runner::{run_race, Race};
use suu_bench::scenario::Scenario;
use suu_core::{workload, Precedence};
use suu_sim::Precision;

fn main() {
    let started = Instant::now();
    println!("== Ablation: adaptive vs paper-exact rounding scale ==\n");
    println!("--- schedule length (timetable period) for LP1(J, 1/2) ---");
    print_header(&[
        ("n", 5),
        ("m", 4),
        ("t*", 8),
        ("paper(6x)", 10),
        ("adaptive", 9),
        ("saving", 7),
    ]);
    for &(n, m) in &[(16usize, 4usize), (32, 8), (64, 8), (128, 16)] {
        let mut rng = SmallRng::seed_from_u64(9000 + n as u64);
        let inst = workload::uniform_unrelated(m, n, 0.15, 0.95, Precedence::Independent, &mut rng);
        let jobs: Vec<u32> = (0..n as u32).collect();
        let sol = solve_lp1(&inst, &jobs, 0.5).unwrap();
        let (asg_paper, rep_paper) = round_lp1_with(&inst, &sol, ScaleMode::PaperExact).unwrap();
        let (asg_adapt, rep_adapt) = round_lp1_with(&inst, &sol, ScaleMode::Adaptive).unwrap();
        // Both must meet the Lemma-2 guarantees.
        assert!(rep_paper.min_clamped_mass >= 0.5 - 1e-9);
        assert!(rep_adapt.min_clamped_mass >= 0.5 - 1e-9);
        let lp = asg_paper.max_load() as f64;
        let la = asg_adapt.max_load() as f64;
        println!(
            "{n:>5} {m:>4} {:>8.2} {lp:>10.0} {la:>9.0} {:>6.1}%",
            sol.t_star,
            100.0 * (1.0 - la / lp)
        );
    }

    println!("\n--- SUU-C end-to-end makespan under option toggles ---\n");
    run_race(Race {
        title: String::new(),
        generated_by: "ablation_rounding".to_string(),
        scenarios: vec![Scenario::chains(6, 36, 9, 9999)],
        policies: ["suu-c", "suu-c(delay=false)", "suu-c(coarsen=true)"]
            .map(String::from)
            .to_vec(),
        precision: Precision::FixedTrials(60),
        master_seed: 4,
        ratios_to_lower_bound: false,
        json_path: Some("target/results/ablation_rounding.json".into()),
        ..Race::default()
    });

    println!("\nexpected: adaptive rounding shortens periods ~2-4x with identical");
    println!("guarantees; disabling delays helps small instances (congestion is");
    println!("cheap there) but risks the Theorem-7 blowup at scale — see");
    println!("fig_congestion; coarsening is near-neutral when t_LP2 is small.");
    println!("[{:.1}s]", started.elapsed().as_secs_f64());
}
