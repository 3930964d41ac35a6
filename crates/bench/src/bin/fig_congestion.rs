//! **F-DELAY — Theorem 7**: random start delays cut pseudoschedule
//! congestion to `O(log(n+m)/log log(n+m))`.
//!
//! Many short chains contending for few machines maximize collision
//! pressure; the experiment compares the max per-machine congestion with
//! and without the `U{0..H}` delays, against the theorem's bound.
//!
//! ```sh
//! cargo run --release -p suu-bench --bin fig_congestion
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;
use suu_algos::{ChainConfig, ChainPolicy};
use suu_bench::print_header;
use suu_core::{workload, Precedence};
use suu_dag::generators::equal_chains;
use suu_sim::{execute, ExecConfig};

fn main() {
    let started = Instant::now();
    println!("== F-DELAY: max congestion with vs without random delays ==\n");
    println!("z chains of length 4, m = 4 machines, q ~ U[0.25,0.7), 25 trials\n");
    print_header(&[
        ("chains", 7),
        ("n", 5),
        ("bound", 7),
        ("no delay", 9),
        ("delayed", 9),
        ("makespan-", 10),
        ("makespan+", 10),
    ]);

    let m = 4;
    for &z in &[8usize, 16, 32, 64] {
        let n = z * 4;
        let mut rng = SmallRng::seed_from_u64(5000 + z as u64);
        let cs = equal_chains(n, 4);
        let chains = cs.chains().to_vec();
        let inst = Arc::new(workload::uniform_unrelated(
            m,
            n,
            0.25,
            0.7,
            Precedence::Chains(cs),
            &mut rng,
        ));
        let run = |use_delay: bool, seed: u64| {
            let cfg = ChainConfig {
                use_random_delay: use_delay,
                seed: 99 + seed,
                ..Default::default()
            };
            let mut policy = ChainPolicy::build(inst.clone(), chains.clone(), cfg).unwrap();
            let out = execute(&inst, &mut policy, &ExecConfig::default(), seed);
            assert!(out.completed);
            (policy.stats().max_congestion as f64, out.makespan as f64)
        };
        let trials = 25u64;
        let (mut c_no, mut c_yes, mut mk_no, mut mk_yes) = (0.0, 0.0, 0.0, 0.0);
        for seed in 0..trials {
            let (c, mk) = run(false, seed);
            c_no += c;
            mk_no += mk;
            let (c, mk) = run(true, seed);
            c_yes += c;
            mk_yes += mk;
        }
        let t = trials as f64;
        let nm = (n + m) as f64;
        let bound = nm.log2() / nm.log2().log2();
        println!(
            "{z:>7} {n:>5} {bound:>7.2} {:>9.2} {:>9.2} {:>10.1} {:>10.1}",
            c_no / t,
            c_yes / t,
            mk_no / t,
            mk_yes / t
        );
    }

    println!("\nexpected: delayed congestion stays near the log(n+m)/loglog(n+m)");
    println!("bound while undelayed congestion grows with the chain count.");
    println!("(delays trade a bounded additive makespan cost for that cap —");
    println!("the two makespan columns show the trade.)");
    println!("[{:.1}s]", started.elapsed().as_secs_f64());
}
