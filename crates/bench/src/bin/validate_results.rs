//! **validate_results** — the CI schema gate over emitted JSON
//! artifacts.
//!
//! ```sh
//! cargo run --release -p suu-bench --bin validate_results -- FILE...
//! ```
//!
//! Dispatches on the document's `schema` field:
//!
//! * `suu-results/v2` — structural validation: required top-level arrays
//!   (`scenarios`, `policies`, `cells`, `paired`), and per run cell the
//!   adaptive-precision fields (`trials_used` ≥ 1, a known
//!   `stop_reason`, numeric `mean_makespan`/`ci95`); `skipped`/`error`
//!   cells are exempt. Paired entries need both policy names and either
//!   an `error` or the delta statistics. **Daemon-produced** documents
//!   (`generated_by: "suud"`) are held to the serving contract on top:
//!   every run cell must carry a well-formed `cell_key` (16 lowercase
//!   hex — the content address of its cached evaluation) and no cell
//!   may record `wall_clock_s` (bodies must replay byte-identically).
//! * `suu-bench/engine-events/v1` / `suu-bench/engine-batch/v1` — fails
//!   on any `outcomes_identical: false`; **tolerates but counts**
//!   `"speedup": null` cells (sub-millisecond wall clocks; each must
//!   carry a `speedup_note`).
//! * `suu-bench/engine-batch/v2` — everything v1 checks, plus the
//!   profile-guided rebuild's per-cell fields: a known `semantics`
//!   label, a `stationary` flag, a `timing_reps` object (min-of-k
//!   repeated timing), a `cache` object with integer
//!   hits/misses/evictions/entries counters, and — when present — a
//!   well-formed `profile` phase breakdown. With `--min-speedup X`,
//!   additionally fails if any **timed** v2 cell reports a speedup below
//!   `X` (null cells stay tolerated-and-counted) — the CI smoke perf
//!   sanity gate.
//! * `suu-results/sweep/v1` — the frontier-sweep gate: per-point
//!   internal consistency (the recorded `winner` is the lowest-mean
//!   policy entry, the `resolved` flag agrees with the recorded paired
//!   margin, `trials_total` adds up, every policy entry carries a
//!   well-formed `cell_key` and a trial count within the declared
//!   budget), the phase diagram partitions the points exactly (each
//!   point in its winner's region or in `open`, frontier edges only
//!   between points with differing winners), the `totals` accounting
//!   re-derives, and — the point of adaptivity — `trials_adaptive` does
//!   not exceed `trials_fixed_equivalent`. No cell may record
//!   `wall_clock_s` (sweep artifacts must replay byte-identically).
//! * `suu-serve/loadgen/v2` — the sharded-serving scaling gate: a
//!   positive `host_cores`, one entry per distinct shard count, and for
//!   every entry: request accounting adds up, **zero failed requests,
//!   zero replay mismatches and zero router-vs-direct mismatches** (the
//!   scatter/gather merge stayed byte-identical to a single daemon),
//!   latency percentiles are non-negative and ordered (p50 ≤ p95 ≤ p99
//!   ≤ max) for every class, throughput is positive, at least one
//!   identity probe ran, `rejected_429` is tracked, and an aggregated
//!   `suu-serve/stats/v1` fleet document's per-shard breakdown matches
//!   the entry's shard count.
//!
//! Exits nonzero on the first violation, so it can gate CI directly.

use suu_core::json::{parse, Json};
use suu_core::schemas;
use suu_sim::Semantics;

fn fail(msg: String) -> ! {
    eprintln!("validate_results: FAIL: {msg}");
    std::process::exit(1);
}

fn require_str<'a>(obj: &'a Json, key: &str, ctx: &str) -> &'a str {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| fail(format!("{ctx}: missing string '{key}'")))
}

fn require_arr<'a>(obj: &'a Json, key: &str, ctx: &str) -> &'a [Json] {
    obj.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| fail(format!("{ctx}: missing array '{key}'")))
}

const STOP_REASONS: [&str; 3] = ["fixed-budget", "ci-reached", "max-trials"];

fn validate_results_v2(doc: &Json, path: &str) {
    let generated_by = require_str(doc, "generated_by", path);
    // The daemon's serving contract: content-addressed cells, no wall
    // clocks (replay determinism).
    let daemon = generated_by == "suud";
    require_arr(doc, "scenarios", path);
    require_arr(doc, "policies", path);
    let cells = require_arr(doc, "cells", path);
    let paired = require_arr(doc, "paired", path);

    let (mut run, mut unrun, mut addressed) = (0usize, 0usize, 0usize);
    for (i, cell) in cells.iter().enumerate() {
        let ctx = format!("{path}: cells[{i}]");
        require_str(cell, "scenario", &ctx);
        require_str(cell, "policy", &ctx);
        if let Some(key) = cell.get("cell_key") {
            let key = key
                .as_str()
                .unwrap_or_else(|| fail(format!("{ctx}: 'cell_key' must be a string")));
            if !suu_core::is_fnv1a_hex(key) {
                fail(format!("{ctx}: malformed cell_key {key:?}"));
            }
            addressed += 1;
        }
        if daemon && cell.get("wall_clock_s").is_some() {
            fail(format!(
                "{ctx}: daemon cell records wall_clock_s (breaks replay determinism)"
            ));
        }
        if cell.get("skipped").is_some() || cell.get("error").is_some() {
            unrun += 1;
            continue;
        }
        if daemon && cell.get("cell_key").is_none() {
            fail(format!("{ctx}: daemon run cell without a cell_key"));
        }
        run += 1;
        let used = cell
            .get("trials_used")
            .and_then(Json::as_u64)
            .unwrap_or_else(|| fail(format!("{ctx}: missing integer 'trials_used'")));
        if used == 0 {
            fail(format!("{ctx}: run cell with zero trials_used"));
        }
        let reason = require_str(cell, "stop_reason", &ctx);
        if !STOP_REASONS.contains(&reason) {
            fail(format!("{ctx}: unknown stop_reason {reason:?}"));
        }
        for key in ["mean_makespan", "ci95", "completion_rate"] {
            if cell.get(key).and_then(Json::as_f64).is_none() {
                fail(format!("{ctx}: missing numeric '{key}'"));
            }
        }
    }
    for (i, pair) in paired.iter().enumerate() {
        let ctx = format!("{path}: paired[{i}]");
        require_str(pair, "scenario", &ctx);
        require_str(pair, "policy_a", &ctx);
        require_str(pair, "policy_b", &ctx);
        if pair.get("error").is_some() {
            continue;
        }
        let reason = require_str(pair, "stop_reason", &ctx);
        if !STOP_REASONS.contains(&reason) {
            fail(format!("{ctx}: unknown stop_reason {reason:?}"));
        }
        for key in ["delta_mean", "delta_ci95"] {
            if pair.get(key).and_then(Json::as_f64).is_none() {
                fail(format!("{ctx}: missing numeric '{key}'"));
            }
        }
        if pair.get("significant").and_then(Json::as_bool).is_none() {
            fail(format!("{ctx}: missing bool 'significant'"));
        }
    }
    println!(
        "OK {path}: suu-results/v2{}, {} cells ({run} run, {unrun} skipped/error, \
         {addressed} content-addressed), {} paired",
        if daemon { " (daemon)" } else { "" },
        cells.len(),
        paired.len()
    );
}

/// Shared engine-cell core: `outcomes_identical` must be true and
/// `speedup` a number or an explained null. Returns `(speedup,
/// null_counted)` for the caller's extra checks.
fn check_engine_cell(cell: &Json, ctx: &str) -> (Option<f64>, bool) {
    match cell.get("outcomes_identical").and_then(Json::as_bool) {
        Some(true) => {}
        Some(false) => fail(format!("{ctx}: outcomes_identical is false")),
        None => fail(format!("{ctx}: missing bool 'outcomes_identical'")),
    }
    match cell.get("speedup") {
        Some(Json::Null) => {
            // Tolerated (unmeasurably fast cell), but it must say why
            // and it is counted by the caller.
            require_str(cell, "speedup_note", ctx);
            (None, true)
        }
        Some(v) if v.as_f64().is_some() => (v.as_f64(), false),
        _ => fail(format!("{ctx}: 'speedup' must be a number or null")),
    }
}

/// Returns the number of tolerated null-speedup cells.
fn validate_engine(doc: &Json, path: &str) -> usize {
    let cells = require_arr(doc, "cells", path);
    let mut null_speedups = 0usize;
    for (i, cell) in cells.iter().enumerate() {
        let ctx = format!("{path}: cells[{i}]");
        let (_, nulled) = check_engine_cell(cell, &ctx);
        null_speedups += nulled as usize;
    }
    println!(
        "OK {path}: {} engine cells, {null_speedups} null-speedup cell(s) tolerated",
        cells.len()
    );
    null_speedups
}

/// The `suu-bench/engine-batch/v2` gate: v1's checks plus the
/// profile-guided rebuild's fields, and an optional perf sanity floor on
/// every *timed* cell's speedup.
fn validate_engine_batch_v2(doc: &Json, path: &str, min_speedup: Option<f64>) -> usize {
    let cells = require_arr(doc, "cells", path);
    let mut null_speedups = 0usize;
    for (i, cell) in cells.iter().enumerate() {
        let ctx = format!("{path}: cells[{i}]");
        require_str(cell, "scenario", &ctx);
        require_str(cell, "policy", &ctx);
        let sem = require_str(cell, "semantics", &ctx);
        if Semantics::parse(sem).is_none() {
            fail(format!("{ctx}: unknown semantics {sem:?}"));
        }
        if cell.get("stationary").and_then(Json::as_bool).is_none() {
            fail(format!("{ctx}: missing bool 'stationary'"));
        }
        let reps = cell
            .get("timing_reps")
            .unwrap_or_else(|| fail(format!("{ctx}: missing object 'timing_reps'")));
        for key in ["per_trial", "batched"] {
            match reps.get(key).and_then(Json::as_u64) {
                Some(r) if r >= 1 => {}
                _ => fail(format!("{ctx}: timing_reps.{key} must be an integer >= 1")),
            }
        }
        let cache = cell
            .get("cache")
            .unwrap_or_else(|| fail(format!("{ctx}: missing object 'cache'")));
        for key in ["hits", "misses", "evictions", "entries"] {
            if cache.get(key).and_then(Json::as_u64).is_none() {
                fail(format!("{ctx}: cache.{key} must be a non-negative integer"));
            }
        }
        if let Some(profile) = cell.get("profile") {
            require_str(profile, "mode", &ctx);
            let phases = require_arr(profile, "phases", &ctx);
            for (p, phase) in phases.iter().enumerate() {
                let pctx = format!("{ctx}: profile.phases[{p}]");
                require_str(phase, "phase", &pctx);
                for key in ["wall_clock_s", "share"] {
                    if phase.get(key).and_then(Json::as_f64).is_none() {
                        fail(format!("{pctx}: missing numeric '{key}'"));
                    }
                }
                if phase.get("enters").and_then(Json::as_u64).is_none() {
                    fail(format!("{pctx}: missing integer 'enters'"));
                }
            }
        }
        let (speedup, nulled) = check_engine_cell(cell, &ctx);
        null_speedups += nulled as usize;
        if let (Some(s), Some(floor)) = (speedup, min_speedup) {
            if s < floor {
                fail(format!(
                    // suu-lint: allow(float-format, "human gate-failure message; never written into a schema document")
                    "{ctx}: timed speedup {s:.3} below the --min-speedup floor {floor}"
                ));
            }
        }
    }
    println!(
        "OK {path}: {} engine-batch v2 cells{}, {null_speedups} null-speedup cell(s) tolerated",
        cells.len(),
        match min_speedup {
            Some(floor) => format!(" (all timed cells >= {floor}x)"),
            None => String::new(),
        }
    );
    null_speedups
}

/// The `suu-results/sweep/v1` gate: a frontier-sweep artifact is only
/// credible when every per-point verdict re-derives from its own
/// recorded evidence and the global accounting adds up.
fn validate_sweep_v1(doc: &Json, path: &str) {
    if require_str(doc, "generated_by", path) != "suu-sweep" {
        fail(format!(
            "{path}: sweep artifacts must be generated_by suu-sweep"
        ));
    }
    require_str(doc, "name", path);
    let policies: Vec<&str> = require_arr(doc, "policies", path)
        .iter()
        .map(|p| {
            p.as_str()
                .unwrap_or_else(|| fail(format!("{path}: non-string policy")))
        })
        .collect();
    if policies.len() < 2 {
        fail(format!("{path}: a sweep needs at least two policies"));
    }
    let budget = doc
        .get("budget")
        .unwrap_or_else(|| fail(format!("{path}: missing object 'budget'")));
    let budget_initial = require_u64_field(budget, "initial", path);
    let budget_max = require_u64_field(budget, "max", path);
    if budget_initial == 0 || budget_initial > budget_max {
        fail(format!(
            "{path}: budget {budget_initial}..{budget_max} is not a ladder"
        ));
    }

    let cells = require_arr(doc, "cells", path);
    if cells.is_empty() {
        fail(format!("{path}: 'cells' must not be empty"));
    }
    let mut point_winner: Vec<(&str, &str, bool)> = Vec::with_capacity(cells.len());
    let (mut sum_trials, mut max_trials, mut resolved_count) = (0u64, 0u64, 0u64);
    for (i, cell) in cells.iter().enumerate() {
        let ctx = format!("{path}: cells[{i}]");
        let point = require_str(cell, "point", &ctx);
        require_str(cell, "scenario_id", &ctx);
        if cell.get("params").is_none() {
            fail(format!("{ctx}: missing 'params'"));
        }
        let winner = require_str(cell, "winner", &ctx);
        if !policies.contains(&winner) {
            fail(format!("{ctx}: winner {winner:?} is not a sweep policy"));
        }
        let resolved = cell
            .get("resolved")
            .and_then(Json::as_bool)
            .unwrap_or_else(|| fail(format!("{ctx}: missing bool 'resolved'")));
        let margin = |key: &str| -> f64 {
            cell.get(key)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| fail(format!("{ctx}: missing numeric '{key}'")))
        };
        let (margin_mean, margin_ci95) = (margin("margin_mean"), margin("margin_ci95"));
        if resolved != (margin_mean.abs() > margin_ci95) {
            fail(format!(
                "{ctx}: 'resolved' disagrees with its own margin \
                 (|{margin_mean}| vs ci95 {margin_ci95})"
            ));
        }
        let entries = require_arr(cell, "policies", &ctx);
        if entries.len() != policies.len() {
            fail(format!(
                "{ctx}: {} policy entries for {} sweep policies",
                entries.len(),
                policies.len()
            ));
        }
        let (mut cell_sum, mut best) = (0u64, None::<(&str, f64)>);
        for (j, entry) in entries.iter().enumerate() {
            let ectx = format!("{ctx}: policies[{j}]");
            let policy = require_str(entry, "policy", &ectx);
            if policies.get(j).copied() != Some(policy) {
                fail(format!(
                    "{ectx}: entry {policy:?} out of declared policy order"
                ));
            }
            let mean = entry
                .get("mean_makespan")
                .and_then(Json::as_f64)
                .unwrap_or_else(|| fail(format!("{ectx}: missing numeric 'mean_makespan'")));
            if entry.get("ci95").and_then(Json::as_f64).is_none() {
                fail(format!("{ectx}: missing numeric 'ci95'"));
            }
            let used = require_u64_field(entry, "trials_used", &ectx);
            if used < budget_initial || used > budget_max {
                fail(format!(
                    "{ectx}: trials_used {used} outside the {budget_initial}..{budget_max} budget"
                ));
            }
            let key = require_str(entry, "cell_key", &ectx);
            if !suu_core::is_fnv1a_hex(key) {
                fail(format!("{ectx}: malformed cell_key {key:?}"));
            }
            if entry.get("wall_clock_s").is_some() {
                fail(format!(
                    "{ectx}: records wall_clock_s (breaks replay determinism)"
                ));
            }
            cell_sum += used;
            if best.is_none_or(|(_, b)| mean < b) {
                best = Some((policy, mean));
            }
        }
        if best.map(|(p, _)| p) != Some(winner) {
            fail(format!(
                "{ctx}: winner {winner:?} is not the lowest-mean policy entry"
            ));
        }
        if require_u64_field(cell, "trials_total", &ctx) != cell_sum {
            fail(format!("{ctx}: trials_total disagrees with its entries"));
        }
        sum_trials += cell_sum;
        max_trials = max_trials.max(
            entries
                .iter()
                .map(|e| e.get("trials_used").and_then(Json::as_u64).unwrap_or(0))
                .max()
                .unwrap_or(0),
        );
        resolved_count += u64::from(resolved);
        point_winner.push((point, winner, resolved));
    }

    // The phase diagram must partition the points: every resolved point
    // in exactly its winner's region, every open point in 'open'.
    let diagram = doc
        .get("phase_diagram")
        .unwrap_or_else(|| fail(format!("{path}: missing object 'phase_diagram'")));
    let mut seen = 0usize;
    for (r, region) in require_arr(diagram, "regions", path).iter().enumerate() {
        let ctx = format!("{path}: phase_diagram.regions[{r}]");
        let winner = require_str(region, "winner", &ctx);
        for pt in require_arr(region, "points", &ctx) {
            let id = pt
                .as_str()
                .unwrap_or_else(|| fail(format!("{ctx}: non-string point")));
            match point_winner.iter().find(|(p, _, _)| *p == id) {
                Some((_, w, true)) if *w == winner => seen += 1,
                Some((_, _, true)) => fail(format!("{ctx}: {id} listed under the wrong winner")),
                Some((_, _, false)) => fail(format!("{ctx}: open point {id} inside a region")),
                None => fail(format!("{ctx}: unknown point {id}")),
            }
        }
    }
    for pt in require_arr(diagram, "open", path) {
        let id = pt
            .as_str()
            .unwrap_or_else(|| fail(format!("{path}: non-string open point")));
        match point_winner.iter().find(|(p, _, _)| *p == id) {
            Some((_, _, false)) => seen += 1,
            Some((_, _, true)) => fail(format!("{path}: resolved point {id} listed as open")),
            None => fail(format!("{path}: unknown open point {id}")),
        }
    }
    if seen != point_winner.len() {
        fail(format!(
            "{path}: phase diagram covers {seen} of {} points",
            point_winner.len()
        ));
    }
    let frontier = require_arr(diagram, "frontier", path);
    for (e, edge) in frontier.iter().enumerate() {
        let ctx = format!("{path}: phase_diagram.frontier[{e}]");
        for (end, claimed) in [("a", "winner_a"), ("b", "winner_b")] {
            let id = require_str(edge, end, &ctx);
            let claimed = require_str(edge, claimed, &ctx);
            match point_winner.iter().find(|(p, _, _)| *p == id) {
                Some((_, w, true)) if *w == claimed => {}
                Some(_) => fail(format!("{ctx}: {id} does not resolve to {claimed:?}")),
                None => fail(format!("{ctx}: unknown point {id}")),
            }
        }
        if require_str(edge, "winner_a", &ctx) == require_str(edge, "winner_b", &ctx) {
            fail(format!("{ctx}: frontier edge between same-winner points"));
        }
    }

    // Global accounting re-derives, and adaptivity never overspends the
    // fixed-budget equivalent.
    let totals = doc
        .get("totals")
        .unwrap_or_else(|| fail(format!("{path}: missing object 'totals'")));
    let expect = |key: &str, want: u64| {
        let got = require_u64_field(totals, key, path);
        if got != want {
            fail(format!("{path}: totals.{key} is {got}, re-derived {want}"));
        }
    };
    expect("points", point_winner.len() as u64);
    expect("resolved", resolved_count);
    expect("open", point_winner.len() as u64 - resolved_count);
    expect("trials_adaptive", sum_trials);
    expect("max_trials_per_cell", max_trials);
    expect(
        "trials_fixed_equivalent",
        point_winner.len() as u64 * policies.len() as u64 * max_trials,
    );
    if sum_trials > point_winner.len() as u64 * policies.len() as u64 * max_trials {
        fail(format!(
            "{path}: adaptive sweep spent more than its fixed-budget equivalent"
        ));
    }
    println!(
        "OK {path}: suu-results/sweep/v1, {} points ({resolved_count} resolved, \
         {} open, {} frontier edge(s)), trials {sum_trials} adaptive vs {} fixed-equivalent",
        point_winner.len(),
        point_winner.len() as u64 - resolved_count,
        frontier.len(),
        point_winner.len() as u64 * policies.len() as u64 * max_trials
    );
}

fn require_u64_field(obj: &Json, key: &str, ctx: &str) -> u64 {
    obj.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| fail(format!("{ctx}: missing non-negative integer '{key}'")))
}

/// The shared latency-summary check: every class present, percentiles
/// non-negative, and ordered (p50 ≤ p95 ≤ p99 ≤ max) unless the class
/// is legitimately empty.
fn check_latency_block(holder: &Json, classes: &[&str], ctx: &str) {
    let latency = holder
        .get("latency")
        .unwrap_or_else(|| fail(format!("{ctx}: missing object 'latency'")));
    for class in classes {
        let cctx = format!("{ctx}: latency.{class}");
        let summary = latency
            .get(class)
            .unwrap_or_else(|| fail(format!("{cctx}: missing")));
        let count = require_u64_field(summary, "count", &cctx);
        let pct = |key: &str| -> f64 {
            match summary.get(key).and_then(Json::as_f64) {
                Some(v) if v >= 0.0 => v,
                _ => fail(format!("{cctx}: '{key}' must be a non-negative number")),
            }
        };
        let (p50, p95, p99, max) = (pct("p50_ms"), pct("p95_ms"), pct("p99_ms"), pct("max_ms"));
        if count > 0 && !(p50 <= p95 && p95 <= p99 && p99 <= max) {
            fail(format!(
                "{cctx}: percentiles out of order (p50 {p50}, p95 {p95}, p99 {p99}, max {max})"
            ));
        }
    }
}

/// The `suu-serve/loadgen/v2` gate: per-shard-count scaling entries,
/// each with a clean run (zero failures and replay mismatches, ordered
/// latency percentiles, positive throughput) *plus* the sharding
/// contract — the merged responses stayed byte-identical to a single
/// daemon's.
fn validate_loadgen_v2(doc: &Json, path: &str) {
    let mode = require_str(doc, "mode", path);
    if !["full", "smoke"].contains(&mode) {
        fail(format!("{path}: unknown loadgen mode {mode:?}"));
    }
    let host_cores = require_u64_field(doc, "host_cores", path);
    if host_cores == 0 {
        fail(format!("{path}: 'host_cores' must be positive"));
    }
    let entries = require_arr(doc, "entries", path);
    if entries.is_empty() {
        fail(format!("{path}: 'entries' must not be empty"));
    }
    let mut shard_counts: Vec<u64> = Vec::with_capacity(entries.len());
    let mut total_requests = 0u64;
    for (i, entry) in entries.iter().enumerate() {
        let ctx = format!("{path}: entries[{i}]");
        let shards = require_u64_field(entry, "shards", &ctx);
        if shards == 0 {
            fail(format!("{ctx}: 'shards' must be positive"));
        }
        if shard_counts.contains(&shards) {
            fail(format!("{ctx}: duplicate entry for {shards} shard(s)"));
        }
        shard_counts.push(shards);
        let requests = entry
            .get("requests")
            .unwrap_or_else(|| fail(format!("{ctx}: missing object 'requests'")));
        let total = require_u64_field(requests, "total", &ctx);
        let classed: u64 = ["primed", "hit", "miss", "extend", "storm", "identity"]
            .iter()
            .map(|k| require_u64_field(requests, k, &ctx))
            .sum();
        if total == 0 || total != classed {
            fail(format!(
                "{ctx}: request accounting broken (total {total}, classes sum {classed})"
            ));
        }
        if require_u64_field(requests, "identity", &ctx) == 0 {
            fail(format!(
                "{ctx}: no identity probes — the run never compared router vs direct"
            ));
        }
        total_requests += total;
        for key in ["failed", "replay_mismatches", "router_vs_direct_mismatches"] {
            let n = require_u64_field(entry, key, &ctx);
            if n != 0 {
                fail(format!("{ctx}: {n} {key} — a clean run is required"));
            }
        }
        // Load shedding is legitimate under saturation, but must be
        // accounted for, not silently swallowed.
        require_u64_field(entry, "rejected_429", &ctx);
        match entry.get("throughput_rps").and_then(Json::as_f64) {
            Some(rps) if rps > 0.0 => {}
            _ => fail(format!("{ctx}: 'throughput_rps' must be positive")),
        }
        check_latency_block(entry, &["all", "hit", "miss", "extend", "storm"], &ctx);
        let stats = entry
            .get("stats")
            .unwrap_or_else(|| fail(format!("{ctx}: missing object 'stats'")));
        let schema = require_str(stats, "schema", &ctx);
        if schema != schemas::SERVE_STATS_V1 {
            fail(format!("{ctx}: aggregated stats schema {schema:?}"));
        }
        let breakdown = require_arr(stats, "shards", &ctx);
        if breakdown.len() as u64 != shards {
            fail(format!(
                "{ctx}: stats.shards has {} entries for a {shards}-shard fleet",
                breakdown.len()
            ));
        }
    }
    println!(
        "OK {path}: suu-serve/loadgen/v2 ({mode}, {host_cores} core(s)), \
         shard counts {shard_counts:?}, {total_requests} requests, all clean"
    );
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut min_speedup: Option<f64> = None;
    let mut args: Vec<String> = Vec::new();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        if a == "--min-speedup" {
            let v = it
                .next()
                .unwrap_or_else(|| fail("--min-speedup requires a value".to_string()));
            min_speedup = Some(
                v.parse()
                    .unwrap_or_else(|_| fail(format!("--min-speedup: not a number: {v:?}"))),
            );
        } else if let Some(v) = a.strip_prefix("--min-speedup=") {
            min_speedup = Some(
                v.parse()
                    .unwrap_or_else(|_| fail(format!("--min-speedup: not a number: {v:?}"))),
            );
        } else {
            args.push(a.clone());
        }
    }
    if args.is_empty() {
        fail("usage: validate_results [--min-speedup X] FILE...".to_string());
    }
    let mut tolerated = 0usize;
    for path in &args {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("{path}: {e}")));
        let doc = parse(&text).unwrap_or_else(|e| fail(format!("{path}: {e}")));
        match doc.get("schema").and_then(Json::as_str) {
            Some(schemas::RESULTS_V2) => validate_results_v2(&doc, path),
            Some(schemas::RESULTS_SWEEP_V1) => validate_sweep_v1(&doc, path),
            Some(schemas::BENCH_ENGINE_BATCH_V2) => {
                tolerated += validate_engine_batch_v2(&doc, path, min_speedup);
            }
            Some(s) if s.starts_with("suu-bench/engine-") => {
                tolerated += validate_engine(&doc, path);
            }
            Some(schemas::SERVE_LOADGEN_V2) => validate_loadgen_v2(&doc, path),
            other => fail(format!("{path}: unsupported schema {other:?}")),
        }
    }
    println!(
        "all {} artifact(s) valid ({tolerated} null-speedup cell(s) across engine docs)",
        args.len()
    );
}
