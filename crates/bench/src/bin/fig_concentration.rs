//! **F-CONC — Lemma 8**: concentration of `Σ_j y_j d_j` where `y_j` are
//! geometric repetition counts.
//!
//! Lemma 8 states: with `y_j ~ Geom(1/2)`, weights `1 ≤ d_j ≤ W/log η`,
//! and `W ≥ Σ_j 2 d_j`, the weighted sum exceeds `O(cW)` with probability
//! at most `η^(−c)`. The experiment samples the sum and reports empirical
//! exceedance frequencies at multiples of `W` against the bound's decay.
//!
//! ```sh
//! cargo run --release -p suu-bench --bin fig_concentration
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use suu_bench::print_header;

/// Geometric(1/2) on {1, 2, 3, …}: number of block repetitions until a
/// success with probability 1/2 per attempt.
fn geometric(rng: &mut StdRng) -> u64 {
    let mut k = 1;
    while rng.random_bool(0.5) {
        k += 1;
    }
    k
}

fn main() {
    let started = Instant::now();
    println!("== F-CONC: Lemma 8 tail of sum(y_j d_j), y_j ~ Geom(1/2) ==\n");
    let samples = 200_000usize;
    println!("{samples} samples per configuration\n");
    print_header(&[
        ("jobs", 6),
        ("eta", 6),
        ("W", 8),
        ("P[>2W]", 9),
        ("P[>3W]", 9),
        ("P[>4W]", 9),
        ("mean/W", 7),
    ]);

    for &(jobs, eta) in &[(16usize, 32f64), (64, 128.0), (256, 512.0)] {
        let mut rng = StdRng::seed_from_u64(6000 + jobs as u64);
        // Weights spread across the allowed range [1, W/log eta]:
        // W = sum 2 d_j by construction (the lemma's tight case).
        let log_eta = eta.log2();
        // Start with uniform weights then scale so max d <= W / log eta.
        let raw: Vec<f64> = (0..jobs).map(|j| 1.0 + (j % 7) as f64).collect();
        let w: f64 = raw.iter().map(|d| 2.0 * d).sum();
        let cap = w / log_eta;
        let d: Vec<f64> = raw.iter().map(|&x| x.min(cap).max(1.0)).collect();
        let w: f64 = d.iter().map(|x| 2.0 * x).sum();

        let mut exceed2 = 0u32;
        let mut exceed3 = 0u32;
        let mut exceed4 = 0u32;
        let mut total = 0.0f64;
        for _ in 0..samples {
            let s: f64 = d.iter().map(|&dj| dj * geometric(&mut rng) as f64).sum();
            total += s;
            exceed2 += (s > 2.0 * w) as u32;
            exceed3 += (s > 3.0 * w) as u32;
            exceed4 += (s > 4.0 * w) as u32;
        }
        let frac = |c: u32| c as f64 / samples as f64;
        println!(
            "{jobs:>6} {eta:>6.0} {w:>8.0} {:>9.6} {:>9.6} {:>9.6} {:>7.3}",
            frac(exceed2),
            frac(exceed3),
            frac(exceed4),
            total / samples as f64 / w,
        );
    }

    println!("\nexpected: E[sum] = W (each E[y]=2, W = sum 2d). exceedance");
    println!("probabilities fall off geometrically in the multiple, and faster");
    println!("for larger eta — the 1/eta^c shape of Lemma 8.");
    println!("[{:.1}s]", started.elapsed().as_secs_f64());
}
