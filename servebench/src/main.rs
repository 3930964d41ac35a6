//! **servebench** — the repository's benchmark of the evaluation service.
//!
//! ```sh
//! bash servebench/run.sh --workload hot-hits --seed 1 --seconds 30 --trace 0
//! bash servebench/run.sh --self-test
//! ```
//!
//! One command runs a named workload against the real `suud` /
//! `suu-router` binaries over loopback from a single-threaded closed
//! loop, checks the outputs, and prints every metric by name and unit.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics from a traced replay of the same inputs. The last
//! stdout line is the result JSON; any failed correctness gate makes the
//! exit code nonzero. See `servebench/README.md` for the workloads, the
//! metric definitions and the layer → end-to-end predictions.

mod fixture;
mod procs;
mod report;
mod selftest;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use workloads::Ctx;

/// End-to-end metrics and their units (untraced runs).
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("trials_per_s", "1/s"),
    ("sweep_s", "s"),
    ("server_peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units (traced runs).
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("http.parse_us", "us"),
    ("http.encode_us", "us"),
    ("request.parse_us", "us"),
    ("scenario.instantiate_us", "us"),
    ("bounds.lower_bound_us", "us"),
    ("cache.key_us", "us"),
    ("cache.load_us", "us"),
    ("cache.store_us", "us"),
    ("evaluate.miss_ms", "ms"),
    ("evaluate.extend_ms", "ms"),
    ("report.build_us", "us"),
    ("json.encode_us", "us"),
    ("bounds.calls_per_req", "count"),
    ("evaluate.trials", "count"),
    ("evaluate.share", "ratio"),
    ("cache.write_bytes_per_req", "bytes"),
    ("cache.read_bytes_per_req", "bytes"),
    ("cache.hit_ratio", "ratio"),
    ("cache.cells_on_disk", "count"),
    ("batch.decide_share", "ratio"),
    ("batch.cache_lookup_share", "ratio"),
    ("batch.sampling_share", "ratio"),
    ("batch.state_update_share", "ratio"),
    ("batch.sweep_share", "ratio"),
    ("batch.plan_hit_ratio", "ratio"),
    ("batch.stationary_ratio", "ratio"),
    ("json.response_bytes", "bytes"),
    ("service.handle_us", "us"),
    ("server.residual_us", "us"),
    ("server.rejected_429", "count"),
    ("router.overhead_ms", "ms"),
    ("sweep.requests", "count"),
    ("sweep.rounds", "count"),
    ("sweep.trials_adaptive", "count"),
    ("sweep.open_points", "count"),
    ("trace.overhead_us", "us"),
    ("trace.unaccounted_us", "us"),
];

/// The workloads, in `BENCHMARK.json`'s order.
pub const WORKLOADS: &[&str] = &["hot-hits", "cold-compute"];

struct Args {
    ctx: Ctx,
    self_test: bool,
    benchmark_json: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: servebench --workload NAME --seed N --seconds S --trace 0|1 \
         --bin-dir DIR --work-dir DIR [--tiny] [--inject GATE]\n       \
         servebench --self-test --bin-dir DIR --work-dir DIR --benchmark-json FILE"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        inject: None,
        bin_dir: PathBuf::new(),
        work_dir: PathBuf::from(".servebench"),
        run_dir: PathBuf::new(),
    };
    let mut self_test = false;
    let mut benchmark_json = PathBuf::from("BENCHMARK.json");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => ctx.workload = value(),
            "--seed" => ctx.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => ctx.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => ctx.trace = value() == "1",
            "--tiny" => ctx.tiny = true,
            "--inject" => ctx.inject = Some(value()),
            "--bin-dir" => ctx.bin_dir = PathBuf::from(value()),
            "--work-dir" => ctx.work_dir = PathBuf::from(value()),
            "--benchmark-json" => benchmark_json = PathBuf::from(value()),
            "--self-test" => self_test = true,
            _ => usage(),
        }
    }
    if !self_test && (ctx.workload.is_empty() || ctx.seconds <= 0.0) {
        usage();
    }
    Args {
        ctx,
        self_test,
        benchmark_json,
    }
}

fn main() {
    let mut args = parse_args();
    if args.self_test {
        std::process::exit(selftest::run(&args.ctx, &args.benchmark_json));
    }
    let ctx = &mut args.ctx;
    ctx.run_dir = ctx
        .work_dir
        .join("runs")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&ctx.run_dir);
    if let Err(e) = std::fs::create_dir_all(&ctx.run_dir) {
        eprintln!("servebench: cannot create {}: {e}", ctx.run_dir.display());
        std::process::exit(1);
    }
    let result = workloads::run(ctx);
    let _ = std::fs::remove_dir_all(&ctx.run_dir);
    match result {
        Ok(report) => {
            report.print(&format!(
                "servebench {} seed {} ({}s, trace {})",
                ctx.workload,
                ctx.seed,
                ctx.seconds,
                u8::from(ctx.trace)
            ));
            if !report.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("servebench: {} failed: {e}", ctx.workload);
            std::process::exit(1);
        }
    }
}
