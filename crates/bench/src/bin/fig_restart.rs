//! **F-RESTART — Appendix C "other results"**: the restart variant
//! (`R|restart, p_j~stoch|E[Cmax]`) vs the preemptive `STC-I`.
//!
//! `RESTART-I` swaps each round's Lawler–Labetoulle preemptive timetable
//! for a Lenstra–Shmoys–Tardos `R||Cmax` assignment. Restart semantics
//! discard cross-round progress, so its ratio should sit above `STC-I`'s
//! but remain a flat small constant (the paper claims the identical
//! asymptotic bound).
//!
//! ```sh
//! cargo run --release -p suu-bench --bin fig_restart
//! ```

use rand::rngs::{SmallRng, StdRng};
use rand::{Rng, SeedableRng};
use std::time::Instant;
use suu_bench::print_header;
use suu_stoch::{solve_ll, RestartI, StcI, StochInstance};

fn random_instance(seed: u64, m: usize, n: usize) -> StochInstance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let lambda: Vec<f64> = (0..n).map(|_| rng.random_range(0.25..4.0)).collect();
    let v: Vec<f64> = (0..m * n).map(|_| rng.random_range(0.3..3.0)).collect();
    StochInstance::new(m, n, lambda, v).expect("valid instance")
}

fn main() {
    let started = Instant::now();
    println!("== F-RESTART: RESTART-I vs STC-I vs clairvoyant LL bound ==\n");
    println!("60 trials/point; ratios vs the preemptive clairvoyant optimum\n");
    print_header(&[
        ("n", 5),
        ("m", 4),
        ("STC-I", 8),
        ("RESTART-I", 10),
        ("penalty", 8),
    ]);

    for &(n, m) in &[(8usize, 3usize), (16, 4), (32, 8)] {
        let inst = random_instance(8500 + n as u64, m, n);
        let stc = StcI::new(&inst);
        let restart = RestartI::new(&inst);
        let trials = 60u64;
        let (mut r_stc, mut r_restart) = (0.0f64, 0.0f64);
        for seed in 0..trials {
            // Same hidden lengths for both schedulers: identical seeds.
            let out_p = stc.run(&inst, &mut StdRng::seed_from_u64(seed)).unwrap();
            let out_r = restart
                .run(&inst, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            // Clairvoyant LB from the same draws (recompute).
            let mut rng = StdRng::seed_from_u64(seed);
            let p: Vec<f64> = (0..n)
                .map(|j| {
                    let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
                    -u.ln() / inst.lambda(j)
                })
                .collect();
            let jobs: Vec<u32> = (0..n as u32).collect();
            let lb = solve_ll(&inst, &jobs, &p).unwrap().makespan.max(1e-12);
            r_stc += out_p.makespan / lb;
            r_restart += out_r.makespan / lb;
        }
        let t = trials as f64;
        println!(
            "{n:>5} {m:>4} {:>8.2} {:>10.2} {:>8.2}",
            r_stc / t,
            r_restart / t,
            (r_restart / t) / (r_stc / t)
        );
    }

    println!("\nexpected: RESTART-I pays a constant penalty over STC-I (lost");
    println!("progress + nonpreemptive packing) but stays flat in n — the");
    println!("paper's 'virtually identical algorithm' claim.");
    println!("[{:.1}s]", started.elapsed().as_secs_f64());
}
