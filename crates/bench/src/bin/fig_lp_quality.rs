//! **F-LP — Lemmas 2 & 6**: empirical verification of the rounding
//! guarantees and measurement of the integrality cost.
//!
//! For sweeps of random instances, report: minimum clamped mass over jobs
//! (must be ≥ L), max load vs cap (must hold), the scale factor the
//! adaptive rounding settled on, and the rounded/fractional makespan
//! ratio — Lemma 2 proves ≤ ~6+1; in practice far less. A guarantee
//! column that is not full fails the run (non-zero exit), so CI runs it
//! as a gate.
//!
//! ```sh
//! cargo run --release -p suu-bench --bin fig_lp_quality
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;
use suu_algos::lp::{solve_lp1, solve_lp2};
use suu_algos::rounding::{round_lp, ScaleMode};
use suu_bench::print_header;
use suu_core::{workload, Precedence};
use suu_dag::generators::random_chain_set;

fn main() {
    let started = Instant::now();
    println!("== F-LP: Lemma 2 / Lemma 6 rounding quality ==\n");

    println!("--- Lemma 2 (LP1, independent), 40 instances per row ---");
    print_header(&[
        ("n", 5),
        ("m", 4),
        ("L", 5),
        ("mass ok", 8),
        ("load ok", 8),
        ("mean scale", 11),
        ("rounded/t*", 11),
    ]);
    for &(n, m, target) in &[
        (8usize, 4usize, 0.5f64),
        (16, 4, 0.5),
        (32, 8, 0.5),
        (32, 8, 2.0),
        (64, 16, 1.0),
    ] {
        let mut mass_ok = 0u32;
        let mut load_ok = 0u32;
        let mut scales = 0.0f64;
        let mut blowups = 0.0f64;
        let reps = 40;
        for seed in 0..reps {
            let mut rng = SmallRng::seed_from_u64(seed * 31 + n as u64);
            let inst =
                workload::uniform_unrelated(m, n, 0.1, 0.97, Precedence::Independent, &mut rng);
            let jobs: Vec<u32> = (0..n as u32).collect();
            let sol = solve_lp1(&inst, &jobs, target).unwrap();
            let (_, report) = round_lp(&inst, &sol, ScaleMode::Adaptive).unwrap();
            mass_ok += (report.min_clamped_mass >= target - 1e-9) as u32;
            load_ok += (report.max_load <= report.load_cap) as u32;
            scales += report.scale as f64;
            blowups += report.max_load as f64 / sol.t_star.max(1e-9);
        }
        println!(
            "{n:>5} {m:>4} {target:>5.1} {:>7}/{reps} {:>7}/{reps} {:>11.2} {:>11.2}",
            mass_ok,
            load_ok,
            scales / reps as f64,
            blowups / reps as f64,
        );
        assert_eq!(
            (u64::from(mass_ok), u64::from(load_ok)),
            (reps, reps),
            "Lemma 2 guarantee missed at n={n} m={m} L={target}"
        );
    }

    println!("\n--- Lemma 6 (LP2, chains), 25 instances per row ---");
    print_header(&[
        ("n", 5),
        ("chains", 7),
        ("mass ok", 8),
        ("load ok", 8),
        ("len ok", 8),
        ("rounded/t*", 11),
    ]);
    for &(n, z) in &[(12usize, 3usize), (24, 6), (48, 12)] {
        let m = 6;
        let mut mass_ok = 0u32;
        let mut load_ok = 0u32;
        let mut len_ok = 0u32;
        let mut blowups = 0.0f64;
        let reps = 25;
        for seed in 0..reps {
            let mut rng = SmallRng::seed_from_u64(seed * 13 + n as u64);
            let cs = random_chain_set(n, z, &mut rng);
            let chains = cs.chains().to_vec();
            let inst =
                workload::uniform_unrelated(m, n, 0.15, 0.9, Precedence::Chains(cs), &mut rng);
            let sol = solve_lp2(&inst, &chains, 1.0).unwrap();
            let (asg, report) = round_lp(&inst, &sol, ScaleMode::Adaptive).unwrap();
            mass_ok += (report.min_clamped_mass >= 1.0 - 1e-9) as u32;
            load_ok += (report.max_load <= report.load_cap) as u32;
            // Chain-length preservation: rounded chain length <= 7 t* + |C|.
            let lengths_fine = chains.iter().all(|c| {
                let len: u64 = c.iter().map(|&j| asg.length(suu_core::JobId(j))).sum();
                (len as f64) <= 7.0 * sol.t_star + c.len() as f64
            });
            len_ok += lengths_fine as u32;
            blowups += report.max_load as f64 / sol.t_star.max(1e-9);
        }
        println!(
            "{n:>5} {z:>7} {:>7}/{reps} {:>7}/{reps} {:>7}/{reps} {:>11.2}",
            mass_ok,
            load_ok,
            len_ok,
            blowups / reps as f64,
        );
        assert_eq!(
            (u64::from(mass_ok), u64::from(load_ok), u64::from(len_ok)),
            (reps, reps, reps),
            "Lemma 6 guarantee missed at n={n} chains={z}"
        );
    }

    println!("\nexpected: all guarantee columns full; rounded/fractional stays");
    println!("well under the worst-case 6x of the lemmas (adaptive scale).");
    println!("[{:.1}s]", started.elapsed().as_secs_f64());
}
