//! **suu-router** — key-range sharded serving front end.
//!
//! Spawns and supervises a fleet of `suud` backends (one per key range),
//! owns the client-facing listener, scatters each `POST /v1/race` into
//! per-cell sub-requests routed by cache-key ownership, and reassembles
//! the response byte-identically to a single-daemon run. See
//! [`suu_serve::router`] for the full design.
//!
//! ```sh
//! # Four shards over ./suud-cache/shard-{0..3}; prints the bound
//! # address and the per-shard topology:
//! suu-router --addr 127.0.0.1:8788 --shards 4 --cache-dir ./suud-cache
//! ```

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use suu_serve::router::{Fleet, FleetConfig, Router};
use suu_serve::{http, serve_with, ServerConfig, ServerMetrics};

use suu_serve::elog;

struct Args {
    addr: String,
    shards: usize,
    cache_dir: String,
    workers: usize,
    queue_depth: usize,
    idle_timeout_ms: u64,
    shard_workers: usize,
    shard_queue_depth: usize,
    max_cache_bytes: Option<u64>,
    suud: Option<String>,
}

fn usage() -> ! {
    elog!(
        "usage: suu-router [--addr HOST:PORT] [--shards N] [--cache-dir DIR] \
         [--workers N] [--queue-depth N] [--idle-timeout-ms MS] \
         [--shard-workers N] [--shard-queue-depth N] \
         [--max-cache-bytes BYTES] [--suud PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:8788".to_string(),
        shards: 2,
        cache_dir: "./suud-cache".to_string(),
        workers: 4,
        queue_depth: 64,
        idle_timeout_ms: 10_000,
        shard_workers: 2,
        shard_queue_depth: 64,
        max_cache_bytes: None,
        suud: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                elog!("suu-router: {name} needs a value");
                usage()
            })
        };
        fn number<T: std::str::FromStr>(name: &str, raw: String) -> T {
            raw.parse().unwrap_or_else(|_| {
                elog!("suu-router: {name} must be a non-negative integer");
                usage()
            })
        }
        match flag.as_str() {
            "--addr" => args.addr = value("--addr"),
            "--shards" => args.shards = number("--shards", value("--shards")),
            "--cache-dir" => args.cache_dir = value("--cache-dir"),
            "--workers" => args.workers = number("--workers", value("--workers")),
            "--queue-depth" => args.queue_depth = number("--queue-depth", value("--queue-depth")),
            "--idle-timeout-ms" => {
                args.idle_timeout_ms = number("--idle-timeout-ms", value("--idle-timeout-ms"))
            }
            "--shard-workers" => {
                args.shard_workers = number("--shard-workers", value("--shard-workers"))
            }
            "--shard-queue-depth" => {
                args.shard_queue_depth = number("--shard-queue-depth", value("--shard-queue-depth"))
            }
            "--max-cache-bytes" => {
                args.max_cache_bytes = Some(number("--max-cache-bytes", value("--max-cache-bytes")))
            }
            "--suud" => args.suud = Some(value("--suud")),
            "--help" | "-h" => usage(),
            other => {
                elog!("suu-router: unknown flag {other:?}");
                usage()
            }
        }
    }
    if args.shards == 0 {
        elog!("suu-router: --shards must be at least 1");
        usage()
    }
    if args.workers == 0 || args.shard_workers == 0 {
        elog!("suu-router: --workers and --shard-workers must be at least 1");
        usage()
    }
    if args.queue_depth == 0 || args.shard_queue_depth == 0 || args.idle_timeout_ms == 0 {
        elog!(
            "suu-router: --queue-depth, --shard-queue-depth and \
             --idle-timeout-ms must be at least 1"
        );
        usage()
    }
    args
}

/// Default backend binary: the `suud` sitting next to this executable.
fn sibling_suud() -> PathBuf {
    std::env::current_exe()
        .map(|p| p.with_file_name("suud"))
        .unwrap_or_else(|_| PathBuf::from("suud"))
}

fn main() {
    let args = parse_args();
    let fleet = Fleet::spawn(FleetConfig {
        shards: args.shards,
        suud: args
            .suud
            .as_ref()
            .map(PathBuf::from)
            .unwrap_or_else(sibling_suud),
        cache_root: PathBuf::from(&args.cache_dir),
        shard_workers: args.shard_workers,
        shard_queue_depth: args.shard_queue_depth,
        max_cache_bytes: args.max_cache_bytes,
    })
    .unwrap_or_else(|e| {
        elog!("suu-router: cannot start shard fleet: {e}");
        std::process::exit(1);
    });

    let router = Arc::new(Router::new(Arc::clone(&fleet)));
    let handler = Arc::clone(&router);
    let metrics = Arc::new(ServerMetrics::default());
    router.attach_server_metrics(Arc::clone(&metrics));
    let server = serve_with(
        args.addr.as_str(),
        ServerConfig {
            workers: args.workers,
            queue_depth: args.queue_depth,
            idle_timeout: Duration::from_millis(args.idle_timeout_ms),
        },
        Arc::new(move |req: &http::Request| handler.handle(req)),
        Arc::clone(&metrics),
    )
    .unwrap_or_else(|e| {
        elog!("suu-router: cannot bind {}: {e}", args.addr);
        std::process::exit(1);
    });

    // Same banner contract as suud (harnesses parse the first line for
    // the bound address), then one topology line per shard. All writes
    // are EPIPE-tolerant — see the macro above.
    use std::io::Write as _;
    let _ = writeln!(
        std::io::stdout(),
        "suu-router listening on http://{}",
        server.addr()
    );
    for info in fleet.snapshot() {
        let _ = writeln!(
            std::io::stdout(),
            "suu-router shard {} pid {} http://{} keys [{:016x}, {:016x}] cache {}",
            info.index,
            info.pid,
            info.addr.as_deref().unwrap_or("<down>"),
            info.range.lo,
            info.range.hi,
            info.cache_dir.display()
        );
    }

    // Serve until killed; the fleet monitor restarts crashed shards.
    loop {
        std::thread::park();
    }
}
