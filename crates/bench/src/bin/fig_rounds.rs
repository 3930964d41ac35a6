//! **F-ROUNDS — Theorem 4**: rounds used by `SUU-I-SEM` vs the bound
//! `K = ⌈log₂ log₂ min(m,n)⌉ + 3`.
//!
//! The doubling-target design means the number of rounds actually needed
//! grows doubly-logarithmically; this experiment records the empirical
//! round distribution and fallback frequency as `n = m` grows.
//!
//! ```sh
//! cargo run --release -p suu-bench --bin fig_rounds
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;
use suu_algos::SemPolicy;
use suu_bench::print_header;
use suu_core::{workload, Precedence};
use suu_sim::{execute, ExecConfig};

fn main() {
    let started = Instant::now();
    println!("== F-ROUNDS: SUU-I-SEM rounds used vs K = ceil(log log min(m,n)) + 3 ==\n");
    println!("square instances n = m, q ~ U[0.3,0.97), 60 trials/point\n");
    print_header(&[
        ("n=m", 5),
        ("K", 4),
        ("mean rounds", 12),
        ("max rounds", 11),
        ("fallback%", 10),
    ]);

    for &n in &[4usize, 8, 16, 32, 64] {
        let mut rng = SmallRng::seed_from_u64(4000 + n as u64);
        let inst = Arc::new(workload::uniform_unrelated(
            n,
            n,
            0.3,
            0.97,
            Precedence::Independent,
            &mut rng,
        ));
        let mut policy = SemPolicy::build(inst.clone()).unwrap();
        let k = policy.k_max();
        let trials = 60;
        let mut rounds = Vec::with_capacity(trials);
        let mut fallbacks = 0u32;
        for seed in 0..trials as u64 {
            let out = execute(&inst, &mut policy, &ExecConfig::default(), seed);
            assert!(out.completed);
            let st = policy.stats();
            rounds.push(st.rounds_used as f64);
            fallbacks += st.fallback_entered as u32;
        }
        let mean = rounds.iter().sum::<f64>() / trials as f64;
        let max = rounds.iter().fold(0.0f64, |a, &b| a.max(b));
        println!(
            "{n:>5} {k:>4} {mean:>12.2} {max:>11.0} {:>9.1}%",
            100.0 * fallbacks as f64 / trials as f64
        );
    }

    println!("\nexpected: mean/max rounds track K (double-log growth: K only");
    println!("increases by 1 each time log min(m,n) doubles), and the post-K");
    println!("fallback fires rarely — it guards a probability-1/n tail event.");
    println!("[{:.1}s]", started.elapsed().as_secs_f64());
}
