//! **suud** — the SUU evaluation service daemon.
//!
//! ```sh
//! # Serve (prints the bound address; port 0 picks an ephemeral port):
//! suud --addr 127.0.0.1:8787 --cache-dir ./suud-cache --workers 4
//!
//! # One-shot: evaluate a request document through the same cache and
//! # print the suu-results/v2 response to stdout (CI's schema gate):
//! suud --oneshot request.json --cache-dir ./suud-cache
//! ```

use std::sync::Arc;
use std::time::Duration;
use suu_bench::runner::parse_race;
use suu_serve::service::ServeError;
use suu_serve::{http, serve_with, ServerConfig, ServerMetrics, Service};

use suu_serve::elog;

struct Args {
    addr: String,
    cache_dir: String,
    workers: usize,
    queue_depth: usize,
    idle_timeout_ms: u64,
    max_cache_bytes: Option<u64>,
    oneshot: Option<String>,
}

fn usage() -> ! {
    elog!(
        "usage: suud [--addr HOST:PORT] [--cache-dir DIR] [--workers N] \
         [--queue-depth N] [--idle-timeout-ms MS] [--max-cache-bytes BYTES] \
         [--oneshot REQUEST.json]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:8787".to_string(),
        cache_dir: "./suud-cache".to_string(),
        workers: 4,
        queue_depth: 64,
        idle_timeout_ms: 10_000,
        max_cache_bytes: None,
        oneshot: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                elog!("suud: {name} needs a value");
                usage()
            })
        };
        fn number<T: std::str::FromStr>(name: &str, raw: String) -> T {
            raw.parse().unwrap_or_else(|_| {
                elog!("suud: {name} must be a non-negative integer");
                usage()
            })
        }
        match flag.as_str() {
            "--addr" => args.addr = value("--addr"),
            "--cache-dir" => args.cache_dir = value("--cache-dir"),
            "--workers" => args.workers = number("--workers", value("--workers")),
            "--queue-depth" => args.queue_depth = number("--queue-depth", value("--queue-depth")),
            "--idle-timeout-ms" => {
                args.idle_timeout_ms = number("--idle-timeout-ms", value("--idle-timeout-ms"))
            }
            "--max-cache-bytes" => {
                args.max_cache_bytes = Some(number("--max-cache-bytes", value("--max-cache-bytes")))
            }
            "--oneshot" => args.oneshot = Some(value("--oneshot")),
            "--help" | "-h" => usage(),
            other => {
                elog!("suud: unknown flag {other:?}");
                usage()
            }
        }
    }
    if args.workers == 0 {
        elog!("suud: --workers must be at least 1");
        usage()
    }
    if args.queue_depth == 0 || args.idle_timeout_ms == 0 {
        elog!("suud: --queue-depth and --idle-timeout-ms must be at least 1");
        usage()
    }
    args
}

fn main() {
    let args = parse_args();
    let service = Service::with_budget(&args.cache_dir, args.max_cache_bytes).unwrap_or_else(|e| {
        elog!("suud: cannot open cache dir {}: {e}", args.cache_dir);
        std::process::exit(1);
    });

    if let Some(path) = &args.oneshot {
        oneshot(&service, path);
        return;
    }

    let service = Arc::new(service);
    let handler = Arc::clone(&service);
    let metrics = Arc::new(ServerMetrics::default());
    service.attach_server_metrics(Arc::clone(&metrics));
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
        elog!("suud: cannot bind {}: {e}", args.addr);
        std::process::exit(1);
    });

    // The e2e harness (and humans with port 0) read the bound address
    // from this line — keep its shape stable. Writes are EPIPE-tolerant:
    // a supervisor that stops reading our stdout must not kill the
    // daemon (Rust turns SIGPIPE into a write error, and a plain
    // `println!` would panic the main thread on it).
    use std::io::Write as _;
    let _ = writeln!(
        std::io::stdout(),
        "suud listening on http://{}",
        server.addr()
    );
    let _ = writeln!(
        std::io::stdout(),
        "suud cache dir {} ({} cells), {} workers",
        args.cache_dir,
        service.store().cells_on_disk(),
        args.workers
    );

    // Serve until killed. Workers run forever; park the main thread.
    loop {
        std::thread::park();
    }
}

fn oneshot(service: &Service, path: &str) {
    let body = std::fs::read(path).unwrap_or_else(|e| {
        elog!("suud: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let (race, _) = parse_race(&body).unwrap_or_else(|e| {
        elog!("suud: bad request {path}: {e}");
        std::process::exit(1);
    });
    match service.evaluate(&race) {
        Ok((doc, counts)) => {
            elog!(
                "suud oneshot: cache {} ({} hits, {} misses, {} extended)",
                counts.label(),
                counts.hits,
                counts.misses,
                counts.extends
            );
            // suu-lint: allow(serve-print, "oneshot mode's contract is the result document on stdout; CI pipes it to a file and cmp's bytes")
            print!("{}", doc.to_pretty());
        }
        Err(ServeError::BadRequest(e) | ServeError::Internal(e)) => {
            elog!("suud: error: {e}");
            std::process::exit(1);
        }
    }
}
