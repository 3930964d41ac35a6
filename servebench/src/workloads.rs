//! The two workloads. Each is one closed loop — a single client thread
//! on one keep-alive connection, sending the next request only after the
//! previous reply — against the real binaries over loopback. Inputs are
//! generated from the workload seed; the program sees only the request
//! bodies. A traced `cold-compute` run also makes one probe sweep through
//! a `suu-router` fleet for the `router.*` and `sweep.*` layers.

use crate::fixture;
use crate::procs::{self, cache_label, post_race, wire_bytes, ProcTotals, Server};
use crate::report::Report;
use crate::stats::{block_tail, median, quantile, sorted, tail};
use crate::trace::{self, ratio, BatchProfile, Replay};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use suu_bench::request::RaceRequest;
use suu_bench::sweep::{run_sweep, SweepSpec};
use suu_core::json::Json;
use suu_serve::client::{Client, Reply};
use suu_serve::{ServeError, Service};

/// Everything a workload run needs.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smaller inputs for the self-test.
    pub tiny: bool,
    /// Corrupt one expected output, to prove the named gate fires.
    pub inject: Option<String>,
    pub bin_dir: PathBuf,
    /// Persistent benchmark state (fixtures, traces, trial records).
    pub work_dir: PathBuf,
    /// This run's scratch, removed when the run ends.
    pub run_dir: PathBuf,
}

impl Ctx {
    fn dir(&self, name: &str) -> PathBuf {
        self.run_dir.join(name)
    }

    fn share(&self, fraction: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * fraction)
    }

    fn injected(&self, gate: &str) -> bool {
        self.inject.as_deref() == Some(gate)
    }

    /// `expected`, with one byte planted when `gate` is injected, so that
    /// gate alone must fire.
    pub fn planted(&self, gate: &str, mut expected: Vec<u8>) -> Vec<u8> {
        if self.injected(gate) {
            expected.push(b' ');
        }
        expected
    }
}

/// Every correctness gate, by its `--inject` name: the workload and
/// trace mode that run it, and a phrase of the failure it reports.
pub const GATES: &[(&str, &str, bool, &str)] = &[
    (
        "hot-body",
        "hot-hits",
        false,
        "differs from the first served",
    ),
    (
        "cold-inprocess",
        "cold-compute",
        false,
        "differs from in-process Service",
    ),
    ("cold-trials", "cold-compute", false, "trials_used differ"),
    ("twin-wire", "hot-hits", true, "traced response differs"),
    ("twin-wire", "cold-compute", true, "traced response differs"),
    (
        "traced-body",
        "hot-hits",
        true,
        "Service::handle body differs",
    ),
    (
        "traced-body",
        "cold-compute",
        true,
        "Service::handle body differs",
    ),
    (
        "sweep-artifact",
        "cold-compute",
        true,
        "artifact through the router differs",
    ),
    ("router-reply", "cold-compute", true, "router reply differs"),
];

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    if let Some(gate) = &ctx.inject {
        if !GATES.iter().any(|g| g.0 == gate) {
            return Err(format!("unknown gate {gate:?}"));
        }
    }
    match ctx.workload.as_str() {
        "hot-hits" => hot_hits(ctx),
        "cold-compute" => cold_compute(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// SplitMix64 finalizer: the benchmark's only randomness.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `(cell_key, trials_used)` of every cell in a results body.
pub fn cells_of(body: &[u8]) -> Result<Vec<(String, u64)>, String> {
    let doc = suu_core::json::parse(&String::from_utf8_lossy(body)).map_err(|e| e.to_string())?;
    let cells = doc
        .get("cells")
        .and_then(Json::as_array)
        .ok_or("results body has no cells")?;
    Ok(cells
        .iter()
        .filter_map(|c| {
            let key = c.get("cell_key").and_then(Json::as_str)?;
            Some((
                key.to_string(),
                c.get("trials_used").and_then(Json::as_u64)?,
            ))
        })
        .collect())
}

fn trials_of(body: &[u8]) -> Result<u64, String> {
    Ok(cells_of(body)?.iter().map(|c| c.1).sum())
}

// ---------------------------------------------------------------------
// The closed loop
// ---------------------------------------------------------------------

/// What one closed-loop phase observed.
#[derive(Default)]
struct Loop {
    /// Latency of every completed request, ms.
    lat_ms: Vec<f64>,
    /// Wall time of each complete pass over the request set, s.
    pass_s: Vec<f64>,
    wall_s: f64,
    attempted: u64,
    failed: u64,
    refused: u64,
    trials: u64,
    /// Wire bytes of the requests sent and the responses received.
    wire_req: u64,
    wire_resp: u64,
    /// Request bodies sent, in order, with the reply bodies received.
    log: Vec<(Vec<u8>, Vec<u8>)>,
    failures: Vec<String>,
}

impl Loop {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    /// Time one request and fold its outcome in. `check` validates the
    /// reply and returns the trials it carries.
    fn send(
        &mut self,
        client: &mut Client,
        body: Vec<u8>,
        check: impl FnOnce(&Reply) -> Result<u64, String>,
    ) -> Option<Reply> {
        let t0 = Instant::now();
        let result = post_race(client, &body);
        let dt = t0.elapsed();
        self.attempted += 1;
        match result {
            Ok((reply, refused)) => {
                self.refused += u64::from(refused);
                self.lat_ms.push(ms(dt));
                let (req, resp) = wire_bytes(&body, &reply);
                self.wire_req += req;
                self.wire_resp += resp;
                if reply.status == 429 {
                    self.fail("refused with 429 after retries".into());
                } else {
                    match check(&reply) {
                        Ok(trials) => self.trials += trials,
                        Err(e) => self.fail(e),
                    }
                }
                self.log.push((body, reply.body.clone()));
                Some(reply)
            }
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }
}

/// Drive requests `body_of(0), body_of(1), …` for `seconds`, closing a
/// pass every `pass_len` requests.
fn closed_loop(
    client: &mut Client,
    seconds: f64,
    pass_len: usize,
    mut body_of: impl FnMut(usize) -> Vec<u8>,
    mut check: impl FnMut(usize, &Reply) -> Result<u64, String>,
) -> Loop {
    let mut lp = Loop::default();
    let started = Instant::now();
    let mut pass_start = started;
    let mut i = 0;
    while started.elapsed().as_secs_f64() < seconds {
        if lp
            .send(client, body_of(i), |reply| check(i, reply))
            .is_none()
        {
            break; // the connection is gone
        }
        i += 1;
        if i % pass_len == 0 {
            lp.pass_s.push(pass_start.elapsed().as_secs_f64());
            pass_start = Instant::now();
        }
    }
    lp.wall_s = started.elapsed().as_secs_f64();
    lp
}

/// A report seeded with a loop's request accounting; every failed
/// request is also a failed gate.
fn report_of(lp: &Loop) -> Report {
    let mut r = Report {
        attempted: lp.attempted,
        failed: lp.failed,
        ..Report::default()
    };
    r.gates.extend(lp.failures.iter().cloned());
    if lp.failed > lp.failures.len() as u64 {
        r.gates.push(format!(
            "{} more failed requests",
            lp.failed - lp.failures.len() as u64
        ));
    }
    r
}

/// Flush dirty pages before a timed phase, so that writeback left over
/// from fixture preparation or an earlier run does not land inside it.
fn settle() {
    let _ = std::process::Command::new("sync").status();
}

fn expect(reply: &Reply, label: &str) -> Result<(), String> {
    if reply.status != 200 {
        return Err(format!(
            "status {}: {}",
            reply.status,
            String::from_utf8_lossy(&reply.body)
        ));
    }
    if cache_label(reply) != label {
        return Err(format!(
            "expected X-Suu-Cache {label}, got {:?}",
            cache_label(reply)
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Metric emission
// ---------------------------------------------------------------------

/// `latency_tail_ms` is taken per block of consecutive requests (up to
/// `TAIL_BLOCKS` blocks of at least `TAIL_BLOCK_MIN` requests) and the
/// median over blocks is reported, so a burst of host contention that
/// hits one part of a run does not set the whole run's tail.
const TAIL_BLOCKS: usize = 10;
const TAIL_BLOCK_MIN: usize = 100;

/// The end-to-end metrics of an untraced run.
fn emit_e2e(r: &mut Report, lp: &Loop, setups: &[f64], passes: &[f64], rss_kb: u64) {
    let lat = sorted(&lp.lat_ms);
    let t = block_tail(&lp.lat_ms, TAIL_BLOCKS, TAIL_BLOCK_MIN);
    let wall = lp.wall_s.max(1e-9);
    r.metric("setup_s", median(setups), "s");
    r.metric("latency_p50_ms", quantile(&lat, 0.5), "ms");
    r.metric("latency_tail_ms", t.value, "ms");
    r.metric("throughput_rps", lat.len() as f64 / wall, "1/s");
    r.metric("trials_per_s", lp.trials as f64 / wall, "1/s");
    r.metric("sweep_s", median(passes), "s");
    r.metric("server_peak_rss_mb", rss_kb as f64 / 1024.0, "MB");
    let whole = tail(&lat);
    r.note(format!(
        "latency_tail_ms is the median over {} consecutive blocks of each block's \
         p{} over {} samples ({} beyond it); p{} over the whole run is {} ms",
        (lp.lat_ms.len() / t.samples.max(1)).max(1),
        t.percentile,
        t.samples,
        t.beyond,
        whole.percentile,
        whole.value
    ));
    r.note(format!(
        "error_rate {} ({} failed of {} attempted, {} 429s absorbed)",
        ratio(lp.failed, lp.attempted),
        lp.failed,
        lp.attempted,
        lp.refused
    ));
    r.note(format!(
        "setup samples (s): {:?}; passes: {}",
        setups,
        passes.len()
    ));
}

/// Inputs to the per-layer metrics of a traced run.
struct Layers<'a> {
    replay: &'a Replay,
    profile: &'a BatchProfile,
    /// The socket phase of the traced run.
    socket: &'a Loop,
    /// `/proc` deltas of the serving processes over the socket phase.
    io: ProcTotals,
    stats_before: &'a Json,
    stats_after: &'a Json,
    router_overhead_ms: f64,
    sweep: [u64; 4],
}

/// Span names whose per-request self time is reported, with the metric
/// name and the divisor from ns.
const SPAN_METRICS: &[(&str, &str, f64)] = &[
    ("http.parse", "http.parse_us", 1e3),
    ("http.encode", "http.encode_us", 1e3),
    ("request.parse", "request.parse_us", 1e3),
    ("scenario.instantiate", "scenario.instantiate_us", 1e3),
    ("bounds.lower_bound", "bounds.lower_bound_us", 1e3),
    ("cache.key", "cache.key_us", 1e3),
    ("cache.load", "cache.load_us", 1e3),
    ("cache.store", "cache.store_us", 1e3),
    ("evaluate.miss", "evaluate.miss_ms", 1e6),
    ("evaluate.extend", "evaluate.extend_ms", 1e6),
    ("report.build", "report.build_us", 1e3),
    ("json.encode", "json.encode_us", 1e3),
];

fn emit_layers(r: &mut Report, ctx: &Ctx, l: &Layers) -> Result<(), String> {
    let per_request = l.replay.tracer.self_times();
    let n = per_request.len().max(1) as f64;
    let total = |name: &str| -> u64 {
        per_request
            .values()
            .map(|m| m.get(name).map_or(0, |v| v.0))
            .sum()
    };
    for (span, metric, div) in SPAN_METRICS {
        let unit = if metric.ends_with("_ms") { "ms" } else { "us" };
        r.metric(metric, total(span) as f64 / n / div, unit);
    }
    let count = |name: &str| -> u64 {
        l.replay
            .tracer
            .counts
            .iter()
            .filter(|((_, c), _)| *c == name)
            .map(|(_, v)| v)
            .sum()
    };
    r.metric(
        "bounds.calls_per_req",
        count("bounds.calls") as f64 / n,
        "count",
    );
    r.metric(
        "evaluate.trials",
        count("evaluate.trials") as f64 / n,
        "count",
    );
    let handle_total: u64 = l
        .replay
        .tracer
        .spans
        .iter()
        .filter(|s| s.name == "service.handle")
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let evaluate = total("evaluate.miss") + total("evaluate.extend");
    r.metric("evaluate.share", ratio(evaluate, handle_total), "ratio");

    // OS counters: the cache-owning processes' syscall bytes over the
    // socket phase, less the HTTP bytes of each exchange (behind a router
    // the shard's exchange carries the same bodies as the client's).
    let reqs = l.socket.attempted.max(1) as f64;
    r.metric(
        "cache.write_bytes_per_req",
        l.io.wchar.saturating_sub(l.socket.wire_resp) as f64 / reqs,
        "bytes",
    );
    r.metric(
        "cache.read_bytes_per_req",
        l.io.rchar.saturating_sub(l.socket.wire_req) as f64 / reqs,
        "bytes",
    );
    let delta =
        |k: &str| procs::stat(l.stats_after, k).saturating_sub(procs::stat(l.stats_before, k));
    let hits = delta("hits");
    r.metric(
        "cache.hit_ratio",
        ratio(hits, hits + delta("misses") + delta("extends")),
        "ratio",
    );
    r.metric(
        "cache.cells_on_disk",
        procs::stat(l.stats_after, "cells_on_disk") as f64,
        "count",
    );

    for (phase, metric) in [
        ("decide", "batch.decide_share"),
        ("cache-lookup", "batch.cache_lookup_share"),
        ("sampling", "batch.sampling_share"),
        ("state-update", "batch.state_update_share"),
        ("sweep", "batch.sweep_share"),
    ] {
        r.metric(metric, l.profile.share(phase), "ratio");
    }
    r.metric("batch.plan_hit_ratio", l.profile.plan_hit_ratio(), "ratio");
    r.metric(
        "batch.stationary_ratio",
        l.profile.stationary_ratio(),
        "ratio",
    );

    let bodies = &l.replay.bodies;
    let body_bytes: usize = bodies.iter().map(Vec::len).sum();
    r.metric(
        "json.response_bytes",
        body_bytes as f64 / bodies.len().max(1) as f64,
        "bytes",
    );
    let handle_us = median(&l.replay.handle_us);
    let socket_p50_us = quantile(&sorted(&l.socket.lat_ms), 0.5) * 1e3;
    r.metric("service.handle_us", handle_us, "us");
    r.metric("server.residual_us", socket_p50_us - handle_us, "us");
    let rejected = procs::rejected_429(l.stats_after)
        .saturating_sub(procs::rejected_429(l.stats_before))
        + l.socket.refused;
    r.metric("server.rejected_429", rejected as f64, "count");
    r.metric("router.overhead_ms", l.router_overhead_ms, "ms");
    for (metric, v) in [
        "sweep.requests",
        "sweep.rounds",
        "sweep.trials_adaptive",
        "sweep.open_points",
    ]
    .into_iter()
    .zip(l.sweep)
    {
        r.metric(metric, v as f64, "count");
    }

    // Tracing overhead: traced twin minus the timed real call, per
    // request; and the part of the twin no named span covers.
    let gaps: Vec<f64> = l
        .replay
        .traced_us
        .iter()
        .zip(&l.replay.handle_us)
        .map(|(t, h)| t - h)
        .collect();
    r.metric("trace.overhead_us", median(&gaps), "us");
    let unaccounted = total("service.handle") + total("cache.inflight");
    r.metric("trace.unaccounted_us", unaccounted as f64 / n / 1e3, "us");
    r.note(format!(
        "traced {} requests; socket p50 {} us = service.handle p50 {} us + residual; \
         traced twin p50 {} us",
        per_request.len(),
        socket_p50_us,
        handle_us,
        median(&l.replay.traced_us)
    ));
    r.note(format!(
        "batch profile over {} (instance, policy) pairs",
        l.profile.pairs
    ));
    for m in &l.replay.mismatches {
        r.gate(m.clone());
    }
    let traces = ctx.work_dir.join("traces");
    std::fs::create_dir_all(&traces).map_err(|e| e.to_string())?;
    let path = traces.join(format!("{}-s{}.jsonl", ctx.workload, ctx.seed));
    l.replay.tracer.write(&path)?;
    r.note(format!("spans written to {}", path.display()));
    Ok(())
}

// ---------------------------------------------------------------------
// hot-hits
// ---------------------------------------------------------------------

/// Hot-set request `i`: eight families at sizes up to n = 128, one or
/// two policies; the ones at n <= 64 in every fourth slot ask for LP
/// lower-bound ratios.
fn hot_body(seed: u64, i: usize, tiny: bool) -> Vec<u8> {
    let sizes: [u64; 4] = if tiny {
        [8, 10, 12, 16]
    } else {
        [16, 32, 64, 128]
    };
    let n = sizes[(i / 8) % 4];
    let s = mix(seed, i as u64) % 1_000_000;
    let (scenario, policies): (Json, &[&str]) = match i % 8 {
        0 => (
            Json::obj()
                .field("family", "uniform")
                .field("m", 6u64)
                .field("n", n)
                .field("lo", 0.1)
                .field("hi", 0.6),
            &["greedy-lr"],
        ),
        1 => (
            Json::obj()
                .field("family", "power-law")
                .field("m", 6u64)
                .field("n", n)
                .field("q_base", 0.5)
                .field("alpha", 1.2),
            &["best-machine"],
        ),
        2 => (
            Json::obj()
                .field("family", "chains")
                .field("m", 4u64)
                .field("n", n)
                .field("chains", n / 8),
            &["greedy-lr", "suu-c"],
        ),
        3 => (
            Json::obj()
                .field("family", "forest")
                .field("m", 4u64)
                .field("n", n)
                .field("roots", 4u64),
            &["best-machine"],
        ),
        4 => (
            Json::obj()
                .field("family", "bimodal")
                .field("m", 6u64)
                .field("n", n)
                .field("frac_good", 0.3),
            &["greedy-lr", "best-machine"],
        ),
        5 => (
            Json::obj()
                .field("family", "layered")
                .field("m", 4u64)
                .field("n", n)
                .field("layers", 4u64)
                .field("density", 0.3),
            &["greedy-lr"],
        ),
        6 => (
            Json::obj()
                .field("family", "mapreduce")
                .field("m", 4u64)
                .field("maps", n * 3 / 4)
                .field("reduces", n / 4),
            &["best-machine"],
        ),
        _ => (
            Json::obj()
                .field("family", "hetero-pareto")
                .field("m", 6u64)
                .field("n", n)
                .field("q_floor", 0.1)
                .field("alpha", 1.5),
            &["greedy-lr"],
        ),
    };
    // Trial counts depend only on the size class, never on the seed, so
    // every seed's hot set carries the same cell sizes; half the requests
    // use a precision rule whose target is out of reach, which stops at
    // the same ceiling.
    let trials: u64 = [512, 384, 256, 128][(i / 8) % 4];
    let doc = Json::obj()
        .field("scenarios", Json::Arr(vec![scenario.field("seed", s)]))
        .field(
            "policies",
            policies
                .iter()
                .map(|p| Json::Str(p.to_string()))
                .collect::<Vec<_>>(),
        )
        .field("master_seed", mix(seed, 1_000 + i as u64) % 1_000_000)
        .field("ratios_to_lower_bound", i % 4 == 1 && n <= 64);
    let doc = if i.is_multiple_of(2) {
        doc.field("trials", trials)
    } else {
        doc.field(
            "precision",
            Json::obj()
                .field("half_width", 1e-9)
                .field("relative", true)
                .field("min_trials", trials / 2)
                .field("max_trials", trials),
        )
    };
    doc.to_compact().into_bytes()
}

/// A seeded permutation of `0..n`.
fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, 7_000 + i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

fn hot_hits(ctx: &Ctx) -> Result<Report, String> {
    let (hot, fillers) = if ctx.tiny { (8, 64) } else { (32, 12_000) };
    let setups_wanted = if ctx.tiny || ctx.trace { 1 } else { 5 };
    let bodies: Vec<Vec<u8>> = (0..hot).map(|i| hot_body(ctx.seed, i, ctx.tiny)).collect();
    let fx = fixture::hot(
        &ctx.bin_dir,
        &ctx.work_dir.join("fixtures"),
        &format!(
            "hot-s{}-h{hot}-f{fillers}-{}",
            ctx.seed,
            fixture::program_hash(&ctx.bin_dir)?
        ),
        &bodies,
        fillers,
    )?;
    let trials: Vec<u64> = fx
        .refs
        .iter()
        .map(|b| trials_of(b))
        .collect::<Result<_, _>>()?;
    let mut refs = fx.refs.clone();
    refs[0] = ctx.planted("hot-body", refs[0].clone());
    let order = permutation(ctx.seed, hot);
    let cache = ctx.dir("cache");
    fixture::copy_tree(&fx.cache, &cache, true)?;
    settle();

    // Set-up: spawn over the prepared cache until healthy, several
    // times; the last daemon stays up.
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..setups_wanted {
        let (s, secs) = Server::suud(&ctx.bin_dir, &cache)?;
        setups.push(secs);
        server = Some(s);
    }
    let server = server.ok_or("no daemon")?;
    let mut client = server.client()?;
    let stats_before = procs::stats(&mut client)?;
    let io_before = server.sample()?;
    let seconds = if ctx.trace {
        ctx.seconds * 0.3
    } else {
        ctx.seconds
    };
    // A pass is four rounds of the hot set, so each pass time averages
    // over the stalls a single round can hit.
    let lp = closed_loop(
        &mut client,
        seconds,
        4 * hot,
        |i| bodies[order[i % hot]].clone(),
        |i, reply| {
            let k = order[i % hot];
            expect(reply, "hit")?;
            if reply.body != refs[k] {
                return Err(format!(
                    "hot request {k}: body differs from the first served"
                ));
            }
            Ok(trials[k])
        },
    );
    let io = server.sample()?.delta(&io_before);
    let stats_after = procs::stats(&mut client)?;
    drop(client);
    drop(server);

    let mut r = report_of(&lp);
    if !ctx.trace {
        emit_e2e(&mut r, &lp, &setups, &lp.pass_s, io.hwm_kb);
        r.note(format!("{fillers} filler cells + {hot} hot cells on disk"));
        return Ok(r);
    }
    let replay_bodies: Vec<Vec<u8>> = lp.log.iter().map(|(b, _)| b.clone()).collect();
    // Two independent copies: the real handler and its twin must not
    // share a single inode.
    let (dir_a, dir_b) = (ctx.dir("replay-a"), ctx.dir("replay-b"));
    fixture::copy_tree(&fx.cache, &dir_a, false)?;
    fixture::copy_tree(&fx.cache, &dir_b, false)?;
    let replay = trace::replay(ctx, &replay_bodies, &dir_a, &dir_b, ctx.share(0.45))?;
    let mut traced_refs = fx.refs.clone();
    let first = order[0];
    traced_refs[first] = ctx.planted("traced-body", traced_refs[first].clone());
    for (i, body) in replay.bodies.iter().enumerate() {
        if *body != traced_refs[order[i % hot]] {
            r.gate(format!(
                "traced request {i}: Service::handle body differs from the first served"
            ));
        }
    }
    let profile = trace::batch_profile(&bodies, ctx.share(0.15))?;
    emit_layers(
        &mut r,
        ctx,
        &Layers {
            replay: &replay,
            profile: &profile,
            socket: &lp,
            io,
            stats_before: &stats_before,
            stats_after: &stats_after,
            router_overhead_ms: 0.0,
            sweep: [0; 4],
        },
    )?;
    Ok(r)
}

// ---------------------------------------------------------------------
// cold-compute
// ---------------------------------------------------------------------

/// Cold request `i`: a unique-seed miss on a large instance under an
/// adaptive precision rule, rotating over four shapes of similar cost
/// (40–60 ms of evaluation each on a 2-core host, so the latency
/// distribution has one mode and its median is steady, and a 30-second
/// run keeps its tail at p95).
fn cold_body(seed: u64, i: usize, tiny: bool) -> Vec<u8> {
    let s = mix(seed, 50_000 + i as u64) % 1_000_000_000;
    let k = |n: u64| if tiny { n / 8 } else { n };
    let (scenario, policy) = match i % 4 {
        0 => (
            Json::obj()
                .field("family", "uniform")
                .field("m", 8u64)
                .field("n", k(96))
                .field("lo", 0.1)
                .field("hi", 0.5),
            "greedy-lr",
        ),
        1 => (
            Json::obj()
                .field("family", "bimodal")
                .field("m", 8u64)
                .field("n", k(96))
                .field("frac_good", 0.3),
            "greedy-lr",
        ),
        2 => (
            Json::obj()
                .field("family", "chains")
                .field("m", 4u64)
                .field("n", k(32))
                .field("chains", 4u64),
            "suu-c",
        ),
        _ => (
            Json::obj()
                .field("family", "forest")
                .field("m", 6u64)
                .field("n", k(64))
                .field("roots", 4u64),
            "best-machine",
        ),
    };
    Json::obj()
        .field("scenarios", Json::Arr(vec![scenario.field("seed", s)]))
        .field("policies", vec![Json::Str(policy.to_string())])
        .field("master_seed", mix(s, 3) % 1_000_000_000)
        .field(
            "precision",
            Json::obj()
                .field("half_width", 0.002)
                .field("relative", true)
                .field("min_trials", if tiny { 8u64 } else { 64u64 })
                .field("max_trials", if tiny { 32u64 } else { 1536u64 }),
        )
        .to_compact()
        .into_bytes()
}

fn cold_compute(ctx: &Ctx) -> Result<Report, String> {
    settle();
    let setups_wanted = if ctx.tiny { 2 } else { 9 };
    let mut setups = Vec::new();
    let mut server = None;
    for k in 0..setups_wanted {
        let (s, secs) = Server::suud(&ctx.bin_dir, &ctx.dir(&format!("cache-{k}")))?;
        setups.push(secs);
        server = Some(s);
    }
    let server = server.ok_or("no daemon")?;
    let mut client = server.client()?;
    let stats_before = procs::stats(&mut client)?;
    let io_before = server.sample()?;
    let seconds = if ctx.trace {
        ctx.seconds * 0.3
    } else {
        ctx.seconds
    };
    let mut per_request = Vec::new();
    let lp = closed_loop(
        &mut client,
        seconds,
        8,
        |i| cold_body(ctx.seed, i, ctx.tiny),
        |_, reply| {
            expect(reply, "miss")?;
            let t = trials_of(&reply.body)?;
            per_request.push(t);
            Ok(t)
        },
    );
    let io = server.sample()?.delta(&io_before);
    let stats_after = procs::stats(&mut client)?;
    drop(client);
    drop(server);

    let mut r = report_of(&lp);
    check_trial_record(ctx, &per_request, &mut r)?;
    if !ctx.trace {
        // Daemon ≡ in-process: the first requests again through a
        // `Service` on an empty cache, byte for byte.
        let service = Service::new(ctx.dir("verify")).map_err(|e| e.to_string())?;
        for (i, (body, served)) in lp.log.iter().take(3).enumerate() {
            let expected = ctx.planted("cold-inprocess", in_process(&service, body)?);
            if &expected != served {
                r.gate(format!(
                    "cold request {i}: daemon body differs from in-process Service"
                ));
            }
        }
        emit_e2e(&mut r, &lp, &setups, &lp.pass_s, io.hwm_kb);
        r.note(format!(
            "{} trials added in {} requests",
            lp.trials,
            per_request.len()
        ));
        for shape in 0..4 {
            let (lat, trials): (Vec<f64>, Vec<f64>) = (shape
                ..lp.lat_ms.len().min(per_request.len()))
                .step_by(4)
                .map(|i| (lp.lat_ms[i], per_request[i] as f64))
                .unzip();
            r.note(format!(
                "shape {shape}: median {} ms, median {} trials",
                median(&lat),
                median(&trials)
            ));
        }
        return Ok(r);
    }
    let replay_bodies: Vec<Vec<u8>> = lp.log.iter().map(|(b, _)| b.clone()).collect();
    let replay = trace::replay(
        ctx,
        &replay_bodies,
        &ctx.dir("replay-a"),
        &ctx.dir("replay-b"),
        ctx.share(0.45),
    )?;
    let first_served = lp
        .log
        .first()
        .map(|(_, served)| ctx.planted("traced-body", served.clone()))
        .unwrap_or_default();
    for (i, (body, (_, served))) in replay.bodies.iter().zip(&lp.log).enumerate() {
        let served = if i == 0 { &first_served } else { served };
        if body != served {
            r.gate(format!(
                "traced request {i}: Service::handle body differs from the daemon's"
            ));
        }
    }
    let profile = trace::batch_profile(&replay_bodies, ctx.share(0.15))?;
    let (router_overhead_ms, sweep) = sweep_probe(ctx, &mut r)?;
    emit_layers(
        &mut r,
        ctx,
        &Layers {
            replay: &replay,
            profile: &profile,
            socket: &lp,
            io,
            stats_before: &stats_before,
            stats_after: &stats_after,
            router_overhead_ms,
            sweep,
        },
    )?;
    Ok(r)
}

/// `trials_used` per request must repeat exactly for a seed: compare
/// with the record an earlier run of the same seed and program left
/// (common prefix), then keep the longer record.
fn check_trial_record(ctx: &Ctx, trials: &[u64], r: &mut Report) -> Result<(), String> {
    let dir = ctx.work_dir.join("records");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    // Keyed by the request generator's output and the program too, so a
    // changed workload or binary never compares against a stale record.
    let shapes: Vec<u8> = (0..4)
        .flat_map(|i| cold_body(ctx.seed, i, ctx.tiny))
        .collect();
    let path = dir.join(format!(
        "cold-s{}-{}-{}.txt",
        ctx.seed,
        suu_core::fnv1a_hex(&shapes),
        fixture::program_hash(&ctx.bin_dir)?
    ));
    let old: Vec<u64> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    let mut now = trials.to_vec();
    if ctx.injected("cold-trials") && !now.is_empty() {
        now[0] += 1;
    }
    let common = old.len().min(now.len());
    if ctx.injected("cold-trials") && common == 0 {
        return Err("cold-trials: no earlier record of this seed to compare with".into());
    }
    if old[..common] != now[..common] {
        r.gate(format!(
            "cold trials_used differ from an earlier run of seed {} (first {common} requests)",
            ctx.seed
        ));
    } else if now.len() > old.len() && !ctx.injected("cold-trials") {
        let text: Vec<String> = now.iter().map(u64::to_string).collect();
        std::fs::write(&path, text.join("\n")).map_err(|e| e.to_string())?;
    }
    r.note(format!(
        "trials_used record: {common} requests compared with an earlier run"
    ));
    Ok(())
}

/// One race through an in-process `Service`: its response body.
fn in_process(service: &Service, body: &[u8]) -> Result<Vec<u8>, String> {
    let raw = procs::raw_request(body);
    match suu_serve::http::parse_request(&raw) {
        suu_serve::http::Parsed::Complete { request, .. } => Ok(service.handle(&request).body),
        _ => Err("benchmark request does not parse".into()),
    }
}

// ---------------------------------------------------------------------
// The probe sweep of a traced cold-compute run
// ---------------------------------------------------------------------

/// The probe's sweep spec: a fixed grid shape, with the master and
/// scenario seeds drawn from the workload seed.
fn sweep_spec(seed: u64, tiny: bool) -> Result<SweepSpec, String> {
    let arr = |v: &[u64]| Json::Arr(v.iter().map(|&x| Json::UInt(x)).collect());
    let q = |pairs: &[(f64, f64)]| {
        Json::Arr(
            pairs
                .iter()
                .map(|&(lo, hi)| Json::Arr(vec![Json::Num(lo), Json::Num(hi)]))
                .collect(),
        )
    };
    let (grid, budget) = if tiny {
        (
            vec![Json::obj()
                .field("family", "uniform")
                .field("m", arr(&[2]))
                .field("n", arr(&[6, 8]))
                .field("q", q(&[(0.2, 0.6)]))],
            (8u64, 24u64),
        )
    } else {
        (
            vec![
                Json::obj()
                    .field("family", "uniform")
                    .field("m", arr(&[3, 5]))
                    .field("n", arr(&[32, 64, 96]))
                    .field("q", q(&[(0.1, 0.4), (0.4, 0.8)])),
                Json::obj()
                    .field("family", "chains")
                    .field("m", arr(&[3, 5]))
                    .field("n", arr(&[48, 96]))
                    .field("params", Json::obj().field("chains", 4u64)),
                Json::obj()
                    .field("family", "forest")
                    .field("m", arr(&[3, 5]))
                    .field("n", arr(&[48, 96]))
                    .field("params", Json::obj().field("roots", 3u64)),
            ],
            (128u64, 1536u64),
        )
    };
    let doc = Json::obj()
        .field("name", "servebench")
        .field("master_seed", mix(seed, 100) % 1_000_000)
        .field("scenario_seed", mix(seed, 200) % 1_000_000)
        .field(
            "policies",
            vec![
                Json::Str("greedy-lr".into()),
                Json::Str("best-machine".into()),
            ],
        )
        .field(
            "budget",
            Json::obj()
                .field("initial", budget.0)
                .field("max", budget.1),
        )
        .field("grid", Json::Arr(grid));
    SweepSpec::from_json(&doc)
}

/// One sweep through a server: the artifact, its totals, and the
/// number of rounds.
struct SweepRun {
    artifact: Vec<u8>,
    totals: Json,
    rounds: u64,
}

fn sweep_over(spec: &SweepSpec, client: &mut Client, lp: &mut Loop) -> Result<SweepRun, String> {
    let mut rounds = 0u64;
    let mut grown: BTreeMap<String, u64> = BTreeMap::new();
    let artifact = run_sweep(
        spec,
        &mut |request: &Json| -> Result<Json, String> {
            let body = request.to_compact().into_bytes();
            let mut added = 0;
            let reply = lp
                .send(client, body, |reply| {
                    if reply.status != 200 {
                        return Err(format!("sweep request answered {}", reply.status));
                    }
                    for (key, t) in cells_of(&reply.body)? {
                        let before = grown.insert(key, t).unwrap_or(0);
                        added += t.saturating_sub(before);
                    }
                    Ok(added)
                })
                .ok_or("sweep request failed")?;
            if reply.status != 200 {
                return Err(format!("sweep request answered {}", reply.status));
            }
            suu_core::json::parse(&String::from_utf8_lossy(&reply.body)).map_err(|e| e.to_string())
        },
        &mut |msg| {
            if msg.starts_with("round ") && !msg.contains("done") {
                rounds += 1;
            }
        },
    )?;
    Ok(SweepRun {
        totals: artifact.get("totals").cloned().unwrap_or(Json::Null),
        artifact: artifact.to_pretty().into_bytes(),
        rounds,
    })
}

/// The same spec through an in-process `Service` on an empty cache.
fn sweep_in_process(spec: &SweepSpec, dir: PathBuf) -> Result<Vec<u8>, String> {
    let service = Service::new(dir).map_err(|e| e.to_string())?;
    let artifact = run_sweep(
        spec,
        &mut |request: &Json| -> Result<Json, String> {
            let race = RaceRequest::from_json(request)?;
            match service.evaluate(&race) {
                Ok((doc, _)) => Ok(doc),
                Err(ServeError::BadRequest(e) | ServeError::Internal(e)) => Err(e),
            }
        },
        &mut |_| {},
    )?;
    Ok(artifact.to_pretty().into_bytes())
}

/// Router overhead: the final request of each cell of a sweep `log`,
/// warmed on a direct daemon too, then replayed as hits through both;
/// p50 through the router minus p50 direct. Replies must match.
fn router_overhead(
    ctx: &Ctx,
    client: &mut Client,
    log: &[(Vec<u8>, Vec<u8>)],
    r: &mut Report,
) -> Result<f64, String> {
    let mut finals: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    for (body, reply) in log {
        for (key, _) in cells_of(reply)? {
            finals.insert(key, body.clone());
        }
    }
    let finals: Vec<Vec<u8>> = finals.into_values().collect();
    let (direct, _) = Server::suud(&ctx.bin_dir, &ctx.dir("direct"))?;
    let mut direct_client = direct.client()?;
    for body in &finals {
        post_race(&mut direct_client, body)?;
    }
    let (mut via_router, mut via_direct) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + ctx.share(0.15);
    while via_router.is_empty() || Instant::now() < deadline {
        for body in &finals {
            let t0 = Instant::now();
            let (a, _) = post_race(client, body)?;
            via_router.push(ms(t0.elapsed()));
            let t1 = Instant::now();
            let (b, _) = post_race(&mut direct_client, body)?;
            via_direct.push(ms(t1.elapsed()));
            let direct_body = if via_direct.len() == 1 {
                ctx.planted("router-reply", b.body)
            } else {
                b.body
            };
            if a.status != 200 || a.body != direct_body {
                r.gate("router reply differs from a direct daemon's".into());
            }
        }
    }
    Ok(median(&via_router) - median(&via_direct))
}

/// One seeded sweep through a 2-shard router, for the traced run of
/// `cold-compute`: the `router.*` and `sweep.*` layer metrics, plus the
/// router ≡ in-process artifact gate.
fn sweep_probe(ctx: &Ctx, r: &mut Report) -> Result<(f64, [u64; 4]), String> {
    let spec = sweep_spec(ctx.seed, ctx.tiny)?;
    let (server, _) = Server::router(&ctx.bin_dir, &ctx.dir("probe-fleet"), 2)?;
    let mut client = server.client()?;
    let mut lp = Loop::default();
    let run = sweep_over(&spec, &mut client, &mut lp)?;
    let overhead = router_overhead(ctx, &mut client, &lp.log, r)?;
    drop((client, server));
    let expected = ctx.planted(
        "sweep-artifact",
        sweep_in_process(&spec, ctx.dir("probe-in-process"))?,
    );
    if run.artifact != expected {
        r.gate(
            "probe sweep: artifact through the router differs from the in-process Service's".into(),
        );
    }
    let total = |k: &str| run.totals.get(k).and_then(Json::as_u64).unwrap_or(0);
    Ok((
        overhead,
        [
            lp.attempted,
            run.rounds,
            total("trials_adaptive"),
            total("open"),
        ],
    ))
}
