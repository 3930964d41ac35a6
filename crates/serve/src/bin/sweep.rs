//! **suu-sweep** — adaptive frontier-map orchestrator over the cell
//! cache.
//!
//! Explores a declarative parameter grid (scenario family × m × n ×
//! q-range, see `suu_bench::sweep`) and *actively refines*: each round
//! every unresolved grid point races all policies at the current rung
//! of the trial-budget ladder, and only points whose conservative
//! paired-CRN 95% CI still straddles zero are granted the next rung.
//! Evaluations flow through the serving tier's content-addressed cell
//! cache — either a spawned sibling `suud` (`POST /v1/race`, the
//! default) or the in-process service (`--no-daemon`) — so a re-run or
//! a tighter re-sweep **extends** cached cells instead of recomputing
//! them, and an interrupted sweep resumed over the same `--cache-dir`
//! lands on a byte-identical artifact.
//!
//! The output is a `suu-results/sweep/v1` document: per-point winner,
//! margin, trials spent, `cell_key` provenance, a phase-diagram section
//! (winner regions + frontier edges), and the adaptive-vs-fixed trial
//! accounting. It is a pure function of the spec (master seed
//! included): no wall clocks, byte-identical replay — CI runs the smoke
//! sweep twice and `cmp`s the artifacts.
//!
//! ```sh
//! suu-sweep --smoke                      # built-in 2×2×2 uniform grid
//! suu-sweep --spec sweep_spec.json --out BENCH_sweep.json
//! suu-sweep --smoke --no-daemon          # library path, no child proc
//! ```

use std::path::{Path, PathBuf};
use std::time::Duration;
use suu_bench::request::RaceRequest;
use suu_bench::sweep::{run_sweep, RaceEvaluator, SweepSpec};
use suu_core::json::Json;
use suu_serve::client::{retry_after_ms, Client};
use suu_serve::elog;
use suu_serve::spawn::ServerProc;
use suu_serve::{ServeError, Service};

/// Upstream read timeout for the daemon client.
const READ_TIMEOUT: Duration = Duration::from_secs(120);
/// Most retries one cell evaluation spends on 429 backoff.
const MAX_RETRIES_429: u64 = 50;

struct Config {
    smoke: bool,
    spec: Option<String>,
    out: Option<String>,
    cache_dir: Option<String>,
    no_daemon: bool,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        smoke: false,
        spec: None,
        out: None,
        cache_dir: None,
        no_daemon: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                elog!("suu-sweep: {name} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--smoke" => cfg.smoke = true,
            "--spec" => cfg.spec = Some(value("--spec")),
            "--out" => cfg.out = Some(value("--out")),
            "--cache-dir" => cfg.cache_dir = Some(value("--cache-dir")),
            "--no-daemon" => cfg.no_daemon = true,
            "--help" | "-h" => {
                elog!(
                    "usage: suu-sweep (--smoke | --spec FILE) [--out FILE] \
                     [--cache-dir DIR] [--no-daemon]"
                );
                std::process::exit(2);
            }
            other => {
                elog!("suu-sweep: unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    if cfg.smoke == cfg.spec.is_some() {
        elog!("suu-sweep: give exactly one of --smoke or --spec FILE");
        std::process::exit(2);
    }
    cfg
}

fn load_spec(cfg: &Config) -> SweepSpec {
    let result = match &cfg.spec {
        None => Ok(SweepSpec::smoke()),
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| suu_core::json::parse(&text).map_err(|e| format!("{path}: {e}")))
            .and_then(|doc| SweepSpec::from_json(&doc).map_err(|e| format!("{path}: {e}"))),
    };
    result.unwrap_or_else(|e| {
        elog!("suu-sweep: {e}");
        std::process::exit(2);
    })
}

/// Daemon mode: single-cell races posted to a spawned sibling `suud`
/// over keep-alive HTTP, with the shared hardened `Retry-After`
/// backoff on 429.
struct DaemonEval {
    client: Client,
}

impl RaceEvaluator for DaemonEval {
    fn race(&mut self, request: &Json) -> Result<Json, String> {
        let body = request.to_compact();
        let mut rejected = 0u64;
        loop {
            let reply = self
                .client
                .request("POST", "/v1/race", Some(body.as_bytes()))
                .map_err(|e| format!("race request failed: {e}"))?;
            if reply.status == 429 && rejected < MAX_RETRIES_429 {
                rejected += 1;
                let backoff = retry_after_ms(reply.header("retry-after"));
                std::thread::sleep(Duration::from_millis((25 * rejected).min(backoff)));
                continue;
            }
            if reply.status != 200 {
                return Err(format!(
                    "race answered {}: {}",
                    reply.status,
                    String::from_utf8_lossy(&reply.body)
                ));
            }
            return suu_core::json::parse(&String::from_utf8_lossy(&reply.body))
                .map_err(|e| format!("bad race response: {e}"));
        }
    }
}

/// Library mode (`--no-daemon`): the same requests evaluated through
/// the in-process [`Service`] — the identical code path the daemon
/// serves, against the identical cache layout, so both modes produce
/// (and reuse) the same cells and the same artifact.
struct LocalEval {
    service: Service,
}

impl RaceEvaluator for LocalEval {
    fn race(&mut self, request: &Json) -> Result<Json, String> {
        let race = RaceRequest::from_json(request)?;
        match self.service.evaluate(&race) {
            Ok((doc, _counts)) => Ok(doc),
            Err(ServeError::BadRequest(e)) => Err(format!("bad request: {e}")),
            Err(ServeError::Internal(e)) => Err(format!("evaluation failed: {e}")),
        }
    }
}

fn main() {
    let cfg = parse_args();
    let spec = load_spec(&cfg);
    let out = cfg.out.clone().unwrap_or_else(|| {
        if cfg.smoke {
            "BENCH_sweep_smoke.json".to_string()
        } else {
            "BENCH_sweep.json".to_string()
        }
    });
    // The cache root persists across runs by default: that is what
    // makes a re-run (or a tighter re-sweep) incremental.
    let cache_dir = cfg
        .cache_dir
        .clone()
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join(format!("suu-sweep-{}", spec.name)));
    elog!(
        "suu-sweep: '{}': {} point(s) x {} policies, budget {}..{}, cache {} ({})",
        spec.name,
        spec.points.len(),
        spec.policies.len(),
        spec.ladder.initial,
        spec.ladder.max,
        cache_dir.display(),
        if cfg.no_daemon {
            "library mode"
        } else {
            "daemon mode"
        }
    );

    // All fallible work happens inside `run` so that an error path
    // still drops — and therefore kills — the spawned daemon before the
    // process exits (`std::process::exit` runs no destructors).
    if let Err(e) = run(&cfg, &spec, &cache_dir, &out) {
        elog!("suu-sweep: {e}");
        std::process::exit(1);
    }
}

fn run(cfg: &Config, spec: &SweepSpec, cache_dir: &Path, out: &str) -> Result<(), String> {
    // Keep the daemon proc alive for the whole sweep; dropped (and
    // killed) when this frame unwinds, while the cache dir stays.
    let mut daemon_guard: Option<ServerProc> = None;
    let mut evaluator: Box<dyn RaceEvaluator> = if cfg.no_daemon {
        let service = Service::new(cache_dir)
            .map_err(|e| format!("cannot open cache {}: {e}", cache_dir.display()))?;
        Box::new(LocalEval { service })
    } else {
        let server = ServerProc::spawn("suud", cache_dir)?;
        let client = server
            .client(READ_TIMEOUT)
            .map_err(|e| format!("connect to {} failed: {e}", server.addr()))?;
        elog!("suu-sweep: daemon at {}", server.addr());
        daemon_guard = Some(server);
        Box::new(DaemonEval { client })
    };

    let artifact = run_sweep(spec, evaluator.as_mut(), &mut |msg| {
        elog!("suu-sweep: {msg}");
    })?;
    drop(daemon_guard);

    std::fs::write(out, artifact.to_pretty()).map_err(|e| format!("cannot write {out}: {e}"))?;
    let totals = artifact.get("totals").cloned().unwrap_or(Json::obj());
    let total = |key: &str| totals.get(key).and_then(Json::as_u64).unwrap_or(0);
    elog!(
        "suu-sweep: wrote {out}: {} point(s), {} resolved, {} open; \
         trials {} adaptive vs {} fixed-equivalent",
        total("points"),
        total("resolved"),
        total("open"),
        total("trials_adaptive"),
        total("trials_fixed_equivalent"),
    );
    Ok(())
}
