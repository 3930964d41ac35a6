//! **suu-router** — key-range sharding of the evaluation service across
//! daemon processes, with a scatter/gather proxy in front.
//!
//! The cell cache is content-addressed: every `(scenario, policy)` cell
//! is named by the FNV-1a hash of its canonical identity JSON
//! ([`crate::cache::CellKey`]), a uniform 64-bit key. That makes the
//! cache perfectly partitionable — CDN-style — into N contiguous key
//! ranges ([`shard_ranges`]), each owned by one `suud` backend with a
//! private cache directory. The router:
//!
//! * **owns the client-facing listener** (the same nonblocking
//!   `shims/mio` readiness loop every daemon uses — see
//!   [`crate::server`]); scatter/gather runs on its worker pool;
//! * **rejects** a bad `POST /v1/race` body before scattering it, with
//!   the daemon's own 400 (the same parse and reply,
//!   [`crate::service`]'s `race_reply`);
//! * **splits** each `POST /v1/race` into single-cell sub-requests
//!   ([`suu_bench::request::RaceRequest::cell_request_json`]), routes
//!   each to the shard owning its key ([`owner_of`]), **pipelines** the
//!   batch per shard over persistent keep-alive upstream connections
//!   (each connect bounded by a deadline through std's
//!   `TcpStream::connect_timeout` — [`crate::client`]), and reads
//!   replies while the shards compute in parallel;
//! * **reassembles** the `suu-results/v2` document in request order
//!   ([`suu_bench::report::ResultsBuilder::add_cell_json`]). Because a
//!   cell's JSON depends only on its own scenario, policy and the
//!   race-level context (per-scenario seeds derive from `master_seed`
//!   and the scenario alone), and the workspace JSON writer is
//!   deterministic (insertion-order keys, shortest round-trip floats),
//!   the merged body is **byte-identical** to a single-daemon run — the
//!   router checks each spliced cell's provenance in-binary and answers
//!   502 on any drift;
//! * **supervises** its shard fleet ([`Fleet`]): spawns `--shards N`
//!   daemons on ephemeral ports, probes `/v1/healthz`, restarts crashed
//!   shards with bounded exponential backoff, and kills the fleet when
//!   it dies (`PR_SET_PDEATHSIG`, so even `SIGKILL` on the router leaks
//!   no children);
//! * **aggregates** `GET /v1/stats` by summing every `suu-serve/stats/v1`
//!   counter across shards in the exact v1 field order
//!   ([`crate::service::STATS_FIELDS`]), strictly appending `shards[]`
//!   (per-shard breakdowns, key ranges, restart counts) and `router`
//!   (front-end counters);
//! * **forwards** `GET /v1/cell/{key}` to the owning shard.
//!
//! Failure semantics: a shard that dies mid-request costs the in-flight
//! requests touching it a clean, fully-framed `503` (the merged body is
//! buffered before the event loop frames it, so a client never sees a
//! mid-body reset); the monitor restarts the shard, whose cache dir
//! survives, so post-restart replies are byte-identical to pre-death
//! ones. A shard answering `429` turns the whole race into a `429` with
//! `Retry-After`.

use crate::cache::CellKey;
use crate::client::Client;
use crate::http::{Request, Response};
use crate::server::ServerMetrics;
use crate::service::{race_reply, CacheCounts, STATS_FIELDS};
use crate::unpoisoned;
use std::io::{self, BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};
use suu_bench::report::ResultsBuilder;
use suu_bench::request::RaceRequest;
use suu_core::json::Json;

/// Upstream connect deadline (loopback shards answer in microseconds; a
/// dead one must not wedge a worker).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(3);
/// Upstream read timeout (covers large cold cells).
const READ_TIMEOUT: Duration = Duration::from_secs(120);
/// First restart delay after a shard crash.
const BACKOFF_INITIAL: Duration = Duration::from_millis(100);
/// Restart delay ceiling (bounded backoff).
const BACKOFF_MAX: Duration = Duration::from_secs(2);
/// Supervision poll cadence.
const MONITOR_TICK: Duration = Duration::from_millis(25);

mod sys {
    extern "C" {
        pub fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    pub const PR_SET_PDEATHSIG: i32 = 1;
    pub const SIGKILL: u64 = 9;
}

// ---------------------------------------------------------------------
// Key-range plan
// ---------------------------------------------------------------------

/// One shard's contiguous, inclusive slice of the u64 key space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyRange {
    /// Smallest owned key.
    pub lo: u64,
    /// Largest owned key.
    pub hi: u64,
}

/// The N contiguous ranges covering the whole u64 key space: shard `i`
/// owns `[ceil(i·2^64/N), ceil((i+1)·2^64/N) − 1]` (u128 arithmetic, so
/// the plan is exact — no end-of-space remainder shard).
pub fn shard_ranges(shards: usize) -> Vec<KeyRange> {
    assert!(shards > 0, "need at least one shard");
    let n = shards as u128;
    // suu-lint: allow(narrowing-cast, "exact by construction: ceil(i*2^64/n) < 2^64 for every i < n, and the i == n endpoint is never evaluated (the last range is pinned to u64::MAX below)")
    let lo = |i: u128| -> u64 { (i << 64).div_ceil(n) as u64 };
    (0..shards as u128)
        .map(|i| KeyRange {
            lo: lo(i),
            hi: if i + 1 == n { u64::MAX } else { lo(i + 1) - 1 },
        })
        .collect()
}

/// The shard owning `key` under an N-shard plan: `⌊key·N / 2^64⌋` —
/// exactly the index whose [`shard_ranges`] range contains `key`.
pub fn owner_of(key: u64, shards: usize) -> usize {
    assert!(shards > 0, "need at least one shard");
    // suu-lint: allow(narrowing-cast, "bounded by construction: key*N/2^64 < N <= usize::MAX, so the cast never truncates")
    ((key as u128 * shards as u128) >> 64) as usize
}

/// Parse a 16-hex-char cell key into its u64 (routing) form.
pub fn key_from_hex(hex: &str) -> Option<u64> {
    if !suu_core::is_fnv1a_hex(hex) {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

// ---------------------------------------------------------------------
// The shard fleet
// ---------------------------------------------------------------------

/// How to spawn and size the backend daemons.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of shards (key ranges).
    pub shards: usize,
    /// Path to the `suud` binary.
    pub suud: PathBuf,
    /// Cache root; shard `i` caches under `<root>/shard-<i>`.
    pub cache_root: PathBuf,
    /// `--workers` per shard.
    pub shard_workers: usize,
    /// `--queue-depth` per shard.
    pub shard_queue_depth: usize,
    /// `--max-cache-bytes` per shard (None: unbounded).
    pub max_cache_bytes: Option<u64>,
}

struct ShardSlot {
    child: Option<Child>,
    /// Keeps the shard's stdout pipe open for its whole life.
    stdout: Option<BufReader<ChildStdout>>,
    /// `None` while the shard is down / restarting.
    addr: Option<String>,
    pid: u32,
    /// Bumped on every (re)spawn; pooled connections to older
    /// generations are stale and dropped at checkout.
    generation: u64,
    restarts: u64,
    backoff: Duration,
    next_attempt: Instant,
}

/// A point-in-time view of one shard (banner, stats, tests).
#[derive(Debug, Clone)]
pub struct ShardInfo {
    /// Shard index (also its key-range index).
    pub index: usize,
    /// Bound address, when up.
    pub addr: Option<String>,
    /// Daemon pid of the current generation.
    pub pid: u32,
    /// Completed restarts.
    pub restarts: u64,
    /// Owned key range.
    pub range: KeyRange,
    /// Cache directory.
    pub cache_dir: PathBuf,
}

/// The supervised set of backend daemons.
pub struct Fleet {
    cfg: FleetConfig,
    ranges: Vec<KeyRange>,
    slots: Vec<Mutex<ShardSlot>>,
    shutdown: AtomicBool,
}

impl Fleet {
    /// Spawn all shards (synchronously — a shard that cannot start is a
    /// startup error) and the supervision thread (which holds only a
    /// `Weak`, so dropping the last `Arc` tears the fleet down).
    pub fn spawn(cfg: FleetConfig) -> io::Result<Arc<Fleet>> {
        assert!(cfg.shards > 0, "need at least one shard");
        let ranges = shard_ranges(cfg.shards);
        let mut slots = Vec::with_capacity(cfg.shards);
        for index in 0..cfg.shards {
            let (child, stdout, addr, pid) = spawn_shard(&cfg, index)?;
            slots.push(Mutex::new(ShardSlot {
                child: Some(child),
                stdout: Some(stdout),
                addr: Some(addr),
                pid,
                generation: 1,
                restarts: 0,
                backoff: BACKOFF_INITIAL,
                next_attempt: Instant::now(),
            }));
        }
        let fleet = Arc::new(Fleet {
            cfg,
            ranges,
            slots,
            shutdown: AtomicBool::new(false),
        });
        let weak: Weak<Fleet> = Arc::downgrade(&fleet);
        std::thread::Builder::new()
            .name("suu-router-monitor".into())
            .spawn(move || loop {
                std::thread::sleep(MONITOR_TICK);
                let Some(fleet) = weak.upgrade() else { return };
                if fleet.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                fleet.tick();
            })?;
        Ok(fleet)
    }

    /// Number of shards (the N of the key-range plan).
    pub fn shards(&self) -> usize {
        self.cfg.shards
    }

    /// Shard `i`'s key range.
    pub fn range(&self, index: usize) -> KeyRange {
        self.ranges[index]
    }

    /// Shard `i`'s current address and generation, when it is up.
    pub fn shard_addr(&self, index: usize) -> Option<(String, u64)> {
        let slot = unpoisoned(self.slots[index].lock());
        slot.addr.clone().map(|a| (a, slot.generation))
    }

    /// Point-in-time view of every shard.
    pub fn snapshot(&self) -> Vec<ShardInfo> {
        (0..self.cfg.shards)
            .map(|index| {
                let slot = unpoisoned(self.slots[index].lock());
                ShardInfo {
                    index,
                    addr: slot.addr.clone(),
                    pid: slot.pid,
                    restarts: slot.restarts,
                    range: self.ranges[index],
                    cache_dir: shard_cache_dir(&self.cfg, index),
                }
            })
            .collect()
    }

    /// One supervision pass: reap dead shards, respawn past backoff.
    fn tick(&self) {
        for index in 0..self.cfg.shards {
            let mut slot = unpoisoned(self.slots[index].lock());
            if let Some(child) = slot.child.as_mut() {
                match child.try_wait() {
                    Ok(None) => continue, // alive
                    Ok(Some(_)) | Err(_) => {
                        // Crashed (or unreachable): mark down, back off.
                        slot.child = None;
                        slot.stdout = None;
                        slot.addr = None;
                        slot.restarts += 1;
                        slot.next_attempt = Instant::now() + slot.backoff;
                        slot.backoff = (slot.backoff * 2).min(BACKOFF_MAX);
                        continue;
                    }
                }
            }
            if Instant::now() < slot.next_attempt {
                continue;
            }
            match spawn_shard(&self.cfg, index) {
                Ok((child, stdout, addr, pid)) => {
                    slot.child = Some(child);
                    slot.stdout = Some(stdout);
                    slot.addr = Some(addr);
                    slot.pid = pid;
                    slot.generation += 1;
                    slot.backoff = BACKOFF_INITIAL;
                }
                Err(_) => {
                    slot.next_attempt = Instant::now() + slot.backoff;
                    slot.backoff = (slot.backoff * 2).min(BACKOFF_MAX);
                }
            }
        }
    }

    /// Stop supervising and kill every shard.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for slot in &self.slots {
            let mut slot = unpoisoned(slot.lock());
            if let Some(mut child) = slot.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
            slot.stdout = None;
            slot.addr = None;
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn shard_cache_dir(cfg: &FleetConfig, index: usize) -> PathBuf {
    cfg.cache_root.join(format!("shard-{index}"))
}

/// Spawn one `suud` on an ephemeral port, parse its banner for the
/// bound address, and probe `/v1/healthz` before declaring it up.
fn spawn_shard(
    cfg: &FleetConfig,
    index: usize,
) -> io::Result<(Child, BufReader<ChildStdout>, String, u32)> {
    let cache_dir = shard_cache_dir(cfg, index);
    let mut cmd = Command::new(&cfg.suud);
    cmd.args([
        "--addr",
        "127.0.0.1:0",
        "--cache-dir",
        cache_dir
            .to_str()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "non-UTF-8 cache dir"))?,
        "--workers",
        &cfg.shard_workers.to_string(),
        "--queue-depth",
        &cfg.shard_queue_depth.to_string(),
        // The router's keep-alive pool parks between races; don't let
        // the shard reap its upstream connections mid-run.
        "--idle-timeout-ms",
        "600000",
    ]);
    if let Some(bytes) = cfg.max_cache_bytes {
        cmd.args(["--max-cache-bytes", &bytes.to_string()]);
    }
    cmd.stdout(Stdio::piped()).stderr(Stdio::inherit());
    // The shard must die with the router, even a SIGKILLed router: ask
    // the kernel to deliver SIGKILL when the spawning thread exits.
    unsafe {
        use std::os::unix::process::CommandExt as _;
        cmd.pre_exec(|| {
            sys::prctl(sys::PR_SET_PDEATHSIG, sys::SIGKILL, 0, 0, 0);
            Ok(())
        });
    }
    let mut child = cmd.spawn()?;
    let pid = child.id();
    let Some(stdout) = child.stdout.take() else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(io::Error::new(
            io::ErrorKind::BrokenPipe,
            format!("shard {index}: spawned without a piped stdout"),
        ));
    };
    let mut reader = BufReader::new(stdout);
    let mut banner = String::new();
    if reader.read_line(&mut banner)? == 0 {
        let _ = child.kill();
        let _ = child.wait();
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("shard {index}: daemon exited before printing its banner"),
        ));
    }
    let addr = banner
        .trim()
        .strip_prefix("suud listening on http://")
        .map(str::to_string)
        .ok_or_else(|| {
            let _ = child.kill();
            let _ = child.wait();
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("shard {index}: unparsable banner {banner:?}"),
            )
        })?;
    // Liveness probe: the event loop must answer before the shard is
    // routed to.
    let probe = Client::connect_deadline(&addr, CONNECT_TIMEOUT, Duration::from_secs(10))
        .and_then(|mut c| c.request("GET", "/v1/healthz", None));
    match probe {
        Ok(reply) if reply.status == 200 => Ok((child, reader, addr, pid)),
        other => {
            let _ = child.kill();
            let _ = child.wait();
            Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("shard {index}: health probe failed: {other:?}"),
            ))
        }
    }
}

// ---------------------------------------------------------------------
// The router service
// ---------------------------------------------------------------------

struct PooledConn {
    generation: u64,
    client: Client,
}

/// The scatter/gather proxy state shared by every worker thread.
pub struct Router {
    fleet: Arc<Fleet>,
    /// Per-shard pools of persistent upstream connections.
    pools: Vec<Mutex<Vec<PooledConn>>>,
    /// Total `POST /v1/race` requests accepted by the router.
    pub races: AtomicU64,
    server_metrics: OnceLock<Arc<ServerMetrics>>,
}

/// Why a scatter/gather pass could not produce a 200.
enum GatherError {
    /// A shard is down or its connection died mid-exchange (503).
    Unavailable(String),
    /// A shard shed load (429 → relayed with Retry-After).
    Busy,
    /// A shard answered an unexpected status or malformed body (502),
    /// or a spliced cell failed its provenance check.
    Upstream(String),
    /// A shard relayed a request-level error verbatim.
    Relay(u16, Vec<u8>),
}

impl GatherError {
    /// The reply that reports this error.
    fn reply(self) -> Response {
        match self {
            GatherError::Unavailable(e) => Response::text(503, format!("shard unavailable: {e}"))
                .with_header("Retry-After", "1"),
            GatherError::Busy => {
                Response::text(429, "shard queue full").with_header("Retry-After", "1")
            }
            GatherError::Upstream(e) => Response::text(502, format!("shard error: {e}")),
            GatherError::Relay(status, body) => Response::text(status, body),
        }
    }
}

impl Router {
    /// A router over an already-spawned fleet.
    pub fn new(fleet: Arc<Fleet>) -> Router {
        let pools = (0..fleet.shards())
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        Router {
            fleet,
            pools,
            races: AtomicU64::new(0),
            server_metrics: OnceLock::new(),
        }
    }

    /// The supervised fleet (banner, tests).
    pub fn fleet(&self) -> &Arc<Fleet> {
        &self.fleet
    }

    /// Wire the event loop's counters into the aggregated `/v1/stats`.
    pub fn attach_server_metrics(&self, metrics: Arc<ServerMetrics>) {
        let _ = self.server_metrics.set(metrics);
    }

    /// Route one HTTP request (the same surface as a single daemon).
    pub fn handle(&self, req: &Request) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/v1/healthz") => Response::json(
                200,
                Json::obj()
                    .field("schema", suu_core::schemas::SERVE_HEALTH_V1)
                    .field("status", "ok")
                    .field("role", "router")
                    .field(
                        "shards",
                        u64::try_from(self.fleet.shards()).unwrap_or(u64::MAX),
                    )
                    .to_compact(),
            ),
            ("GET", "/v1/stats") => Response::json(200, self.stats_json().to_compact()),
            ("GET", path) if path.starts_with("/v1/cell/") => {
                self.forward_cell(&path["/v1/cell/".len()..])
            }
            ("POST", "/v1/race") => {
                self.races.fetch_add(1, Ordering::Relaxed);
                // The backends' 400s, without scattering.
                race_reply(&req.body, |race, _| {
                    self.scatter_gather(race).map_err(GatherError::reply)
                })
            }
            ("GET" | "POST", _) => Response::text(404, "not found"),
            _ => Response::text(405, "method not allowed"),
        }
    }

    /// Check out a live upstream connection to `shard` (pool hit or a
    /// fresh deadline-bounded connect), with its generation tag.
    fn checkout(&self, shard: usize) -> Result<(Client, u64), GatherError> {
        let (addr, generation) = self.fleet.shard_addr(shard).ok_or_else(|| {
            GatherError::Unavailable(format!("shard {shard} is down (restarting)"))
        })?;
        let mut pool = unpoisoned(self.pools[shard].lock());
        // Stale generations (pre-restart sockets) are dropped, not reused.
        while let Some(conn) = pool.pop() {
            if conn.generation == generation {
                return Ok((conn.client, generation));
            }
        }
        drop(pool);
        match Client::connect_deadline(&addr, CONNECT_TIMEOUT, READ_TIMEOUT) {
            Ok(client) => Ok((client, generation)),
            Err(e) => Err(GatherError::Unavailable(format!(
                "shard {shard} ({addr}): connect failed: {e}"
            ))),
        }
    }

    /// Return a healthy connection to the pool.
    fn checkin(&self, shard: usize, generation: u64, client: Client) {
        unpoisoned(self.pools[shard].lock()).push(PooledConn { generation, client });
    }

    /// `POST /v1/race`: scatter per-cell sub-requests, gather, merge.
    fn scatter_gather(&self, race: &RaceRequest) -> Result<(Json, CacheCounts), GatherError> {
        let shards = self.fleet.shards();
        let policies = race.policies.len();
        // Plan: global cell order is scenario-major, like a single
        // daemon's evaluation loop; each shard's batch preserves it.
        let mut batches: Vec<Vec<(usize, usize)>> = vec![Vec::new(); shards];
        for si in 0..race.scenarios.len() {
            for pi in 0..policies {
                let key = CellKey::of(race, &race.scenarios[si], &race.policies[pi]);
                // suu-lint: allow(serve-unwrap, "CellKey::hex is fnv1a_hex output — 16 lowercase hex digits by construction — so this parse cannot fail")
                let routing = key_from_hex(&key.hex).expect("own keys are valid hex");
                batches[owner_of(routing, shards)].push((si, pi));
            }
        }

        // Scatter: pipeline each shard's whole batch before reading
        // anything, so shards compute concurrently. A send failure gets
        // one fresh-connection retry (sub-requests are idempotent).
        let mut conns: Vec<Option<(Client, u64)>> = (0..shards).map(|_| None).collect();
        for shard in 0..shards {
            if batches[shard].is_empty() {
                continue;
            }
            let mut attempt = 0;
            loop {
                let (mut client, generation) = self.checkout(shard)?;
                let sent = batches[shard].iter().try_for_each(|&(si, pi)| {
                    let body = race.cell_request_json(si, pi).to_compact();
                    client.send("POST", "/v1/race", Some(body.as_bytes()))
                });
                match sent {
                    Ok(()) => {
                        conns[shard] = Some((client, generation));
                        break;
                    }
                    Err(e) if attempt == 0 => {
                        // Likely a reaped pooled socket; retry once on a
                        // fresh connect before declaring the shard down.
                        attempt = 1;
                        drop(e);
                    }
                    Err(e) => {
                        return Err(GatherError::Unavailable(format!(
                            "shard {shard}: send failed: {e}"
                        )))
                    }
                }
            }
        }

        // Gather, in the same per-shard order the batches were sent.
        let mut cells: Vec<Option<Json>> =
            (0..race.scenarios.len() * policies).map(|_| None).collect();
        let mut counts = CacheCounts::default();
        for shard in 0..shards {
            let Some((mut client, generation)) = conns[shard].take() else {
                continue;
            };
            for &(si, pi) in &batches[shard] {
                let reply = client.read_reply().map_err(|e| {
                    GatherError::Unavailable(format!("shard {shard}: read failed: {e}"))
                })?;
                match reply.status {
                    200 => {
                        counts.add_reply(&reply);
                        let body = std::str::from_utf8(&reply.body).map_err(|_| {
                            GatherError::Upstream(format!("shard {shard}: non-UTF-8 body"))
                        })?;
                        let doc = suu_core::json::parse(body).map_err(|e| {
                            GatherError::Upstream(format!("shard {shard}: bad JSON: {e}"))
                        })?;
                        let cell = doc
                            .get("cells")
                            .and_then(Json::as_array)
                            .and_then(|cells| cells.first())
                            .ok_or_else(|| {
                                GatherError::Upstream(format!(
                                    "shard {shard}: sub-response has no cell"
                                ))
                            })?;
                        cells[si * policies + pi] = Some(cell.clone());
                    }
                    429 => return Err(GatherError::Busy),
                    status => {
                        return Err(GatherError::Relay(status, reply.body));
                    }
                }
            }
            self.checkin(shard, generation, client);
        }

        // Merge, in request order — provenance-checked in-binary, so a
        // routing or drift bug can never ship a silently-wrong document.
        let mut builder = ResultsBuilder::new("suud").record_wall_clocks(false);
        for (si, rs) in race.scenarios.iter().enumerate() {
            builder.add_scenario(&rs.scenario);
            for (pi, policy) in race.policies.iter().enumerate() {
                let cell = cells[si * policies + pi].take().ok_or_else(|| {
                    GatherError::Upstream(format!("missing cell for ({si}, {pi})"))
                })?;
                let field = |k: &str| cell.get(k).and_then(Json::as_str).unwrap_or("");
                if field("scenario") != rs.scenario.id || field("policy") != *policy {
                    return Err(GatherError::Upstream(format!(
                        "cell provenance mismatch: expected ({}, {policy}), got ({}, {})",
                        rs.scenario.id,
                        field("scenario"),
                        field("policy"),
                    )));
                }
                builder.add_cell_json(policy, cell);
            }
        }
        Ok((builder.finish(), counts))
    }

    /// `GET /v1/cell/{key}`: forward to the owning shard.
    fn forward_cell(&self, key: &str) -> Response {
        let Some(routing) = key_from_hex(key) else {
            return Response::text(404, format!("no cached cell {key}"));
        };
        let shard = owner_of(routing, self.fleet.shards());
        match self.checkout(shard) {
            Ok((mut client, generation)) => {
                match client.request("GET", &format!("/v1/cell/{key}"), None) {
                    Ok(reply) => {
                        let response = if reply.status == 200 {
                            Response::json(200, reply.body)
                        } else {
                            Response::text(reply.status, reply.body)
                        };
                        self.checkin(shard, generation, client);
                        response
                    }
                    Err(e) => Response::text(503, format!("shard {shard} unavailable: {e}"))
                        .with_header("Retry-After", "1"),
                }
            }
            Err(_) => Response::text(503, format!("shard {shard} is down (restarting)"))
                .with_header("Retry-After", "1"),
        }
    }

    /// The aggregated `/v1/stats` document: every `suu-serve/stats/v1`
    /// field summed across shards in the exact single-daemon order, then
    /// strictly-appended `shards[]` and `router` breakdowns.
    pub fn stats_json(&self) -> Json {
        let mut sums: Vec<u64> = vec![0; STATS_FIELDS.len()];
        let mut shard_entries = Vec::with_capacity(self.fleet.shards());
        for info in self.fleet.snapshot() {
            let mut entry = Json::obj()
                .field("shard", u64::try_from(info.index).unwrap_or(u64::MAX))
                .field("range_lo", format!("{:016x}", info.range.lo))
                .field("range_hi", format!("{:016x}", info.range.hi))
                .field("restarts", info.restarts);
            // A shard reply with a missing or non-numeric counter is a
            // protocol mismatch, not a zero: folding `unwrap_or(0)` into
            // the sums silently undercounted the fleet. Treat it exactly
            // like a fetch failure — `healthy: false` plus an `error`
            // naming the bad field, nothing folded into the totals.
            match self
                .fetch_shard_stats(info.index)
                .and_then(|stats| Ok((stat_counters(&stats)?, stats)))
            {
                Ok((counters, stats)) => {
                    for (sum, counter) in sums.iter_mut().skip(1).zip(&counters) {
                        *sum += counter;
                    }
                    entry = entry
                        .field("addr", info.addr.unwrap_or_default())
                        .field("healthy", true)
                        .field("stats", stats);
                }
                Err(e) => {
                    entry = entry.field("healthy", false).field("error", e);
                }
            }
            shard_entries.push(entry);
        }
        let mut doc = Json::obj().field("schema", suu_core::schemas::SERVE_STATS_V1);
        for (i, field) in STATS_FIELDS.iter().enumerate().skip(1) {
            doc = doc.field(*field, sums[i]);
        }
        let (accepted, requests, queue_depth, rejected_429) = self
            .server_metrics
            .get()
            .map(|m| {
                (
                    m.accepted.load(Ordering::Relaxed),
                    m.requests.load(Ordering::Relaxed),
                    m.queue_depth.load(Ordering::Relaxed),
                    m.rejected_429.load(Ordering::Relaxed),
                )
            })
            .unwrap_or((0, 0, 0, 0));
        doc.field("shards", Json::Arr(shard_entries)).field(
            "router",
            Json::obj()
                .field("races", self.races.load(Ordering::Relaxed))
                .field("accepted", accepted)
                .field("requests", requests)
                .field("queue_depth", queue_depth)
                .field("rejected_429", rejected_429),
        )
    }

    fn fetch_shard_stats(&self, shard: usize) -> Result<Json, String> {
        let (mut client, generation) = match self.checkout(shard) {
            Ok(conn) => conn,
            Err(_) => return Err("down (restarting)".to_string()),
        };
        let reply = client
            .request("GET", "/v1/stats", None)
            .map_err(|e| format!("stats fetch failed: {e}"))?;
        if reply.status != 200 {
            return Err(format!("stats fetch answered {}", reply.status));
        }
        let doc = suu_core::json::parse(&String::from_utf8_lossy(&reply.body))
            .map_err(|e| format!("bad stats JSON: {e}"))?;
        self.checkin(shard, generation, client);
        Ok(doc)
    }
}

/// Strictly extract every `suu-serve/stats/v1` counter (each
/// [`STATS_FIELDS`] entry after `schema`, in order) from one shard's
/// stats document. A missing or non-numeric counter is an error naming
/// the field, so [`Router::stats_json`] marks that shard
/// `healthy: false` instead of folding a silent zero into the fleet
/// totals.
pub fn stat_counters(stats: &Json) -> Result<Vec<u64>, String> {
    STATS_FIELDS
        .iter()
        .skip(1)
        .map(|field| {
            stats
                .get(field)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("stats field {field:?} missing or non-numeric"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_the_key_space_exactly() {
        for shards in 1..=9usize {
            let ranges = shard_ranges(shards);
            assert_eq!(ranges.len(), shards);
            assert_eq!(ranges[0].lo, 0);
            assert_eq!(ranges[shards - 1].hi, u64::MAX);
            for w in ranges.windows(2) {
                assert_eq!(
                    w[0].hi.checked_add(1),
                    Some(w[1].lo),
                    "{shards} shards: ranges must be contiguous"
                );
            }
            for (i, r) in ranges.iter().enumerate() {
                assert!(r.lo <= r.hi, "{shards} shards: empty range {i}");
            }
        }
    }

    #[test]
    fn owner_agrees_with_range_containment() {
        for shards in [1usize, 2, 3, 4, 7, 16] {
            let ranges = shard_ranges(shards);
            let mut probes = vec![0u64, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX];
            for r in &ranges {
                probes.extend([r.lo, r.hi, r.lo.saturating_sub(1), r.hi.saturating_add(1)]);
            }
            // A deterministic spray across the space.
            let mut x = 0x9E37_79B9u64;
            for _ in 0..512 {
                x = x
                    .wrapping_mul(0x5851_F42D_4C95_7F2D)
                    .wrapping_add(0x14057B7E);
                probes.push(x);
            }
            for key in probes {
                let owner = owner_of(key, shards);
                assert!(owner < shards);
                let r = ranges[owner];
                assert!(
                    r.lo <= key && key <= r.hi,
                    "{shards} shards: key {key:#x} owner {owner} range {r:?}"
                );
            }
        }
    }

    /// A well-formed single-daemon stats document, counters valued by
    /// position so order mistakes would show.
    fn stub_shard_stats() -> Json {
        let mut doc = Json::obj().field("schema", suu_core::schemas::SERVE_STATS_V1);
        for (i, field) in STATS_FIELDS.iter().enumerate().skip(1) {
            doc = doc.field(*field, 10 + i as u64);
        }
        doc
    }

    #[test]
    fn stat_counters_extracts_in_field_order() {
        let counters = stat_counters(&stub_shard_stats()).expect("well-formed stats");
        let expect: Vec<u64> = (1..STATS_FIELDS.len()).map(|i| 10 + i as u64).collect();
        assert_eq!(counters, expect);
    }

    #[test]
    fn stat_counters_rejects_malformed_shard_replies() {
        // Regression: each of these used to fold into the sums as a
        // silent zero; now the shard is reported unhealthy instead.
        let missing = match stub_shard_stats() {
            Json::Obj(fields) => {
                Json::Obj(fields.into_iter().filter(|(k, _)| k != "misses").collect())
            }
            other => other,
        };
        let err = stat_counters(&missing).expect_err("missing counter");
        assert!(err.contains("misses"), "error should name the field: {err}");

        let non_numeric = stub_shard_stats().field("extends", "lots");
        let err = stat_counters(&non_numeric).expect_err("non-numeric counter");
        assert!(
            err.contains("extends"),
            "error should name the field: {err}"
        );

        let negative = stub_shard_stats().field("races", Json::Num(-3.0));
        assert!(stat_counters(&negative).is_err(), "non-integer counter");

        assert!(stat_counters(&Json::obj()).is_err(), "empty reply");
    }

    #[test]
    fn key_hex_parses_only_canonical_cell_keys() {
        assert_eq!(key_from_hex("0000000000000000"), Some(0));
        assert_eq!(key_from_hex("ffffffffffffffff"), Some(u64::MAX));
        assert_eq!(key_from_hex("00ff00ff00ff00ff"), Some(0x00ff00ff00ff00ff));
        for bad in [
            "",
            "123",
            "FFFFFFFFFFFFFFFF",
            "zzzzzzzzzzzzzzzz",
            "0123456789abcdef0",
        ] {
            assert_eq!(key_from_hex(bad), None, "{bad:?}");
        }
    }
}
