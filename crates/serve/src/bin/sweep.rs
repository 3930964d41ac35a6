//! **suu-sweep** — adaptive frontier-map orchestrator over the cell
//! cache.
//!
//! Explores a declarative parameter grid (scenario family × m × n ×
//! q-range, see `suu_bench::sweep`) and *actively refines*: each round
//! every unresolved grid point races all policies at the current rung
//! of the trial-budget ladder, and only points whose conservative
//! paired-CRN 95% CI still straddles zero are granted the next rung.
//! Every evaluation is a single-cell race through the in-process
//! [`Service`] — the call `suud --oneshot` makes — over the serving
//! tier's content-addressed cell cache, so a re-run or a tighter
//! re-sweep **extends** cached cells instead of recomputing them, and an
//! interrupted sweep resumed over the same `--cache-dir` lands on a
//! byte-identical artifact.
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
//! ```

use std::path::{Path, PathBuf};
use suu_bench::request::RaceRequest;
use suu_bench::sweep::{run_sweep, SweepSpec};
use suu_core::json::Json;
use suu_serve::elog;
use suu_serve::{ServeError, Service};

struct Config {
    smoke: bool,
    spec: Option<String>,
    out: Option<String>,
    cache_dir: Option<String>,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        smoke: false,
        spec: None,
        out: None,
        cache_dir: None,
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
            "--help" | "-h" => {
                elog!("usage: suu-sweep (--smoke | --spec FILE) [--out FILE] [--cache-dir DIR]");
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
        "suu-sweep: '{}': {} point(s) x {} policies, budget {}..{}, cache {}",
        spec.name,
        spec.points.len(),
        spec.policies.len(),
        spec.ladder.initial,
        spec.ladder.max,
        cache_dir.display(),
    );
    if let Err(e) = run(&spec, &cache_dir, &out) {
        elog!("suu-sweep: {e}");
        std::process::exit(1);
    }
}

fn run(spec: &SweepSpec, cache_dir: &Path, out: &str) -> Result<(), String> {
    let service = Service::new(cache_dir)
        .map_err(|e| format!("cannot open cache {}: {e}", cache_dir.display()))?;
    let mut evaluate = |request: &Json| {
        let race = RaceRequest::from_json(request)?;
        match service.evaluate(&race) {
            Ok((doc, _counts)) => Ok(doc),
            Err(ServeError::BadRequest(e)) => Err(format!("bad request: {e}")),
            Err(ServeError::Internal(e)) => Err(format!("evaluation failed: {e}")),
        }
    };
    let artifact = run_sweep(spec, &mut evaluate, &mut |msg| {
        elog!("suu-sweep: {msg}");
    })?;

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
