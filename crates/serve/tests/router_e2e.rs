//! End-to-end socket tests for the sharded serving stack: spawn the
//! real `suu-router` binary (which spawns and supervises its own `suud`
//! shard fleet) on an ephemeral loopback port and drive it over TCP.
//!
//! Proves the PR's sharding contract on the wire:
//!
//! * a multi-cell race through a 2-shard router is **byte-identical**
//!   to the same race against a direct single daemon — cold, and again
//!   as a cached replay — and each shard's cache directory holds
//!   exactly the cells whose keys fall in its range;
//! * the aggregated `GET /v1/stats` document keeps the single-daemon
//!   `suu-serve/stats/v1` field order as a **byte-compatible prefix**
//!   (new fields strictly appended) and its sums equal the per-shard
//!   breakdowns;
//! * concurrent mixed traffic from several keep-alive connections
//!   (hits, misses, extends and a coalescing storm) gets only `200`s,
//!   every reply byte-identical to a direct daemon's, and the fleet
//!   counts each cell exactly once at any interleaving;
//! * killing a shard mid-evaluation costs the in-flight request a
//!   clean, fully-framed `503`, the supervisor **restarts** the shard,
//!   and post-restart replies are byte-identical to pre-death ones
//!   (the shard's cache directory survives the crash).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use suu_bench::request::RaceRequest;
use suu_core::json::Json;
use suu_core::schemas;
use suu_serve::cache::{cell_key_fields, CellKey};
use suu_serve::client::Client;
use suu_serve::router::{key_from_hex, owner_of};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGKILL: i32 = 9;

// ---------------------------------------------------------------------
// Process harnesses
// ---------------------------------------------------------------------

struct Daemon {
    child: Child,
    addr: String,
    cache_dir: PathBuf,
}

impl Daemon {
    fn spawn(tag: &str) -> Daemon {
        let cache_dir =
            std::env::temp_dir().join(format!("suu-router-e2e-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let mut child = Command::new(env!("CARGO_BIN_EXE_suud"))
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--cache-dir",
                cache_dir.to_str().unwrap(),
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn suud");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let banner = lines.next().expect("suud banner").expect("readable stdout");
        let addr = banner
            .strip_prefix("suud listening on http://")
            .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
            .trim()
            .to_string();
        std::thread::spawn(move || for _ in lines {});
        Daemon {
            child,
            addr,
            cache_dir,
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

struct Shard {
    pid: i32,
}

struct RouterProc {
    child: Child,
    addr: String,
    shards: Vec<Shard>,
    cache_root: PathBuf,
}

impl RouterProc {
    /// Spawn `suu-router --shards N` on a fresh cache root and parse
    /// the banner plus the per-shard topology lines.
    fn spawn(tag: &str, shards: usize) -> RouterProc {
        let cache_root =
            std::env::temp_dir().join(format!("suu-router-e2e-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_root);
        let mut child = Command::new(env!("CARGO_BIN_EXE_suu-router"))
            .args([
                "--addr",
                "127.0.0.1:0",
                "--shards",
                &shards.to_string(),
                "--cache-dir",
                cache_root.to_str().unwrap(),
                "--workers",
                "2",
                "--shard-workers",
                "2",
                "--suud",
                env!("CARGO_BIN_EXE_suud"),
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn suu-router");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let banner = lines
            .next()
            .expect("router banner")
            .expect("readable stdout");
        let addr = banner
            .strip_prefix("suu-router listening on http://")
            .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
            .trim()
            .to_string();
        // "suu-router shard 0 pid 123 http://127.0.0.1:456 keys [lo, hi] cache DIR"
        let shard_info: Vec<Shard> = (0..shards)
            .map(|i| {
                let line = lines.next().expect("topology line").expect("readable");
                let tok: Vec<&str> = line.split_whitespace().collect();
                assert_eq!(tok[1], "shard");
                assert_eq!(tok[2], i.to_string());
                assert!(tok[5].starts_with("http://"), "topology line: {line}");
                Shard {
                    pid: tok[4].parse().expect("shard pid"),
                }
            })
            .collect();
        std::thread::spawn(move || for _ in lines {});
        RouterProc {
            child,
            addr,
            shards: shard_info,
            cache_root,
        }
    }
}

impl Drop for RouterProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.cache_root);
    }
}

// ---------------------------------------------------------------------
// Wire helpers
// ---------------------------------------------------------------------

struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    fn json(&self) -> Json {
        suu_core::json::parse(&self.body)
            .unwrap_or_else(|e| panic!("unparsable body ({e}): {}", self.body))
    }
}

/// Minimal one-shot HTTP/1.1 client over a fresh connection.
fn http(addr: &str, method: &str, path: &str, body: Option<&str>) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut request = format!("{method} {path} HTTP/1.1\r\nHost: suu\r\n");
    if let Some(body) = body {
        request.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    request.push_str("Connection: close\r\n\r\n");
    if let Some(body) = body {
        request.push_str(body);
    }
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let raw = String::from_utf8(raw).expect("utf-8 response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {raw:?}"));
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    Reply {
        status,
        headers,
        body: body.to_string(),
    }
}

/// The cell keys of every `(scenario, policy)` cell in a request body,
/// in scenario-major evaluation order — computed exactly as the service
/// does, so the tests can reason about shard ownership.
fn cell_keys(body: &str) -> Vec<String> {
    let race = RaceRequest::from_json(&suu_core::json::parse(body).expect("request json"))
        .expect("valid race request");
    let mut keys = Vec::new();
    for rs in &race.scenarios {
        for policy in &race.policies {
            keys.push(
                CellKey::new(&cell_key_fields(
                    &rs.params,
                    policy,
                    race.master_seed,
                    race.exec.semantics.as_str(),
                    race.exec.max_steps,
                ))
                .hex,
            );
        }
    }
    keys
}

fn obj_keys(j: &Json) -> Vec<String> {
    match j {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("expected object, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

/// An object with every `wall_clock_s` field (the one nondeterministic
/// field in a cell checkpoint) recursively removed.
fn without_wall_clocks(j: &Json) -> Json {
    match j {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "wall_clock_s")
                .map(|(k, v)| (k.clone(), without_wall_clocks(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(without_wall_clocks).collect()),
        other => other.clone(),
    }
}

/// A 4-cell race (2 scenarios × 2 policies) whose cells scatter across
/// a 2-shard fleet (two keys per shard — checked by the partition
/// assertion below).
const MULTI_CELL: &str = r#"{
    "scenarios": [{"family": "uniform", "m": 2, "n": 5,
                    "lo": 0.3, "hi": 0.9, "seed": 11},
                  {"family": "uniform", "m": 3, "n": 6,
                    "lo": 0.2, "hi": 0.8, "seed": 13}],
    "policies": ["greedy-lr", "round-robin"],
    "trials": 6,
    "master_seed": 33
}"#;

#[test]
fn router_merge_is_byte_identical_and_shards_hold_only_their_keys() {
    let direct = Daemon::spawn("merge-direct");
    let router = RouterProc::spawn("merge-router", 2);

    let via_direct = http(&direct.addr, "POST", "/v1/race", Some(MULTI_CELL));
    let via_router = http(&router.addr, "POST", "/v1/race", Some(MULTI_CELL));
    assert_eq!(via_direct.status, 200, "direct: {}", via_direct.body);
    assert_eq!(via_router.status, 200, "router: {}", via_router.body);
    assert_eq!(
        via_router.body, via_direct.body,
        "scatter/gather merge must be byte-identical to a single daemon"
    );

    // Cached replay through the merge path stays byte-identical too.
    let replay = http(&router.addr, "POST", "/v1/race", Some(MULTI_CELL));
    assert_eq!(replay.status, 200);
    assert_eq!(replay.body, via_router.body);
    assert_eq!(replay.header("X-Suu-Cache"), Some("hit"));

    // Cell fetches forward to the owning shard and match the direct
    // daemon's checkpoints (up to `wall_clock_s`, the one field that
    // records real elapsed time rather than deterministic state).
    let keys = cell_keys(MULTI_CELL);
    assert_eq!(keys.len(), 4);
    for key in &keys {
        let from_router = http(&router.addr, "GET", &format!("/v1/cell/{key}"), None);
        let from_direct = http(&direct.addr, "GET", &format!("/v1/cell/{key}"), None);
        assert_eq!(from_router.status, 200, "cell {key}: {}", from_router.body);
        assert_eq!(
            without_wall_clocks(&from_router.json()).to_canonical(),
            without_wall_clocks(&from_direct.json()).to_canonical(),
            "cell {key}"
        );
    }

    // Partitioning: each shard's cache dir holds exactly the cells
    // whose keys its range owns — nothing more, nothing missing.
    let mut seen: Vec<String> = Vec::new();
    for shard in 0..2usize {
        let dir = router.cache_root.join(format!("shard-{shard}"));
        for entry in std::fs::read_dir(&dir).expect("shard cache dir") {
            let name = entry.expect("dir entry").file_name();
            let name = name.to_str().expect("utf-8 file name");
            if name == "index.json" {
                continue;
            }
            let stem = name.strip_suffix(".json").expect("cell file");
            let key = key_from_hex(stem)
                .unwrap_or_else(|| panic!("non-key file {name} in shard {shard} cache"));
            assert_eq!(
                owner_of(key, 2),
                shard,
                "cell {stem} cached by a shard that does not own it"
            );
            seen.push(stem.to_string());
        }
    }
    let mut expected = keys.clone();
    expected.sort();
    seen.sort();
    assert_eq!(seen, expected, "shards must hold exactly the race's cells");
}

#[test]
fn aggregated_stats_keep_v1_field_order_and_sum_the_shards() {
    let direct = Daemon::spawn("stats-direct");
    let router = RouterProc::spawn("stats-router", 2);

    // Touch both stacks so the counters are nonzero.
    assert_eq!(
        http(&direct.addr, "POST", "/v1/race", Some(MULTI_CELL)).status,
        200
    );
    assert_eq!(
        http(&router.addr, "POST", "/v1/race", Some(MULTI_CELL)).status,
        200
    );

    let daemon_stats = http(&direct.addr, "GET", "/v1/stats", None).json();
    let router_stats = http(&router.addr, "GET", "/v1/stats", None).json();

    // Append-only schema compatibility: the router document begins
    // with the exact single-daemon field list, in order.
    let daemon_keys = obj_keys(&daemon_stats);
    let router_keys = obj_keys(&router_stats);
    assert_eq!(
        &router_keys[..daemon_keys.len()],
        &daemon_keys[..],
        "aggregated stats must keep the suu-serve/stats/v1 fields in order"
    );
    assert_eq!(
        &router_keys[daemon_keys.len()..],
        ["shards".to_string(), "router".to_string()],
        "new fields must be strictly appended"
    );
    assert_eq!(
        router_stats.get("schema").and_then(Json::as_str),
        Some(schemas::SERVE_STATS_V1)
    );

    // The sums are really sums: every numeric v1 field equals the total
    // over the per-shard breakdowns.
    let shards = router_stats
        .get("shards")
        .and_then(Json::as_array)
        .expect("shards[]");
    assert_eq!(shards.len(), 2);
    for field in &daemon_keys[1..] {
        let total = router_stats.get(field).and_then(Json::as_u64).unwrap();
        let summed: u64 = shards
            .iter()
            .map(|s| {
                s.get("stats")
                    .and_then(|st| st.get(field))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(total, summed, "field {field}");
    }
    // The race produced 4 cells across the fleet.
    assert_eq!(
        router_stats.get("misses").and_then(Json::as_u64),
        Some(4),
        "{}",
        router_stats.to_pretty()
    );
    // Both shards served sub-requests (the 4 cells scatter 2/2 for this
    // request — a property of the fixed seeds above).
    for shard in shards {
        let races = shard
            .get("stats")
            .and_then(|st| st.get("races"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        assert!(races > 0, "every shard should have served sub-requests");
    }
}

/// A single-cell race on a tiny instance: a miss costs milliseconds,
/// each `seed` is its own cell, and a larger `trials` grows that cell.
fn single_cell(seed: u64, trials: u64) -> String {
    format!(
        r#"{{"scenarios":[{{"family":"uniform","m":2,"n":4,"lo":0.3,"hi":0.9,"seed":{seed}}}],"policies":["greedy-lr"],"trials":{trials},"master_seed":1}}"#
    )
}

/// POST a race over a keep-alive connection and return its body and
/// `X-Suu-Cache` label. Anything but `200` fails, a `429` included.
fn post_race(client: &mut Client, body: &str) -> (Vec<u8>, String) {
    let reply = client
        .request("POST", "/v1/race", Some(body.as_bytes()))
        .expect("race round trip");
    assert_eq!(
        reply.status,
        200,
        "{body}: {}",
        String::from_utf8_lossy(&reply.body)
    );
    let label = reply.header("x-suu-cache").unwrap_or_default().to_string();
    (reply.body, label)
}

#[derive(Clone, Copy)]
enum Step {
    /// A primed hot cell, requested again.
    Hit,
    /// A fresh seed, unique across all connections.
    Miss,
    /// The connection's own cell at a growing trial count.
    Extend,
}

/// One connection's share of the mixed traffic: 6 hits, 3 misses, and
/// its own cell requested 3 times at a growing trial count (one miss,
/// then two extends); then, once every connection reaches the barrier,
/// the shared `storm` race. `hot` pairs each hot request with its primed
/// reply. Returns every (request, reply body) pair in order.
fn mixed_traffic(
    client: &mut Client,
    t: u64,
    hot: &[(String, Vec<u8>)],
    barrier: &Barrier,
    storm: &str,
) -> Vec<(String, Vec<u8>)> {
    use Step::{Extend, Hit, Miss};
    const SCHEDULE: [Step; 12] = [
        Hit, Miss, Extend, Hit, Hit, Extend, Miss, Hit, Extend, Hit, Miss, Hit,
    ];
    let schedule = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut log = Vec::new();
        let (mut misses, mut extends) = (0, 0);
        for (i, step) in SCHEDULE.iter().enumerate() {
            let (body, label, primed) = match step {
                Hit => {
                    let (body, primed) = &hot[(t as usize + i) % hot.len()];
                    (body.clone(), "hit", Some(primed))
                }
                Miss => {
                    misses += 1;
                    (single_cell(2000 + 10 * t + misses, 4), "miss", None)
                }
                Extend => {
                    extends += 1;
                    let label = if extends == 1 { "miss" } else { "extended" };
                    (single_cell(3000 + t, 4 * extends), label, None)
                }
            };
            let (reply, got) = post_race(client, &body);
            assert_eq!(got, label, "connection {t} step {i}: {body}");
            if let Some(primed) = primed {
                assert!(reply == *primed, "connection {t} step {i}: hit drifted");
            }
            log.push((body, reply));
        }
        log
    }));
    // Reach the barrier even when the schedule failed, so the other
    // connections are not left waiting on it; then re-raise the failure.
    barrier.wait();
    let mut log = schedule.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
    log.push((storm.to_string(), post_race(client, storm).0));
    log
}

#[test]
fn concurrent_mixed_traffic_through_the_router_matches_a_direct_daemon() {
    const CONNECTIONS: usize = 4;
    let direct = Daemon::spawn("mixed-direct");
    let router = RouterProc::spawn("mixed-router", 2);
    let connect = |addr: &str| Client::connect(addr, Duration::from_secs(120)).expect("connect");

    // Prime 3 hot cells; their replies are the oracle every hit replays.
    let mut primer = connect(&router.addr);
    let hot: Vec<(String, Vec<u8>)> = (0..3)
        .map(|i| {
            let body = single_cell(1000 + i, 6);
            let primed = post_race(&mut primer, &body).0;
            (body, primed)
        })
        .collect();

    // Connect every client before any thread starts: a thread that has
    // started waits at the storm barrier for all the others.
    let clients: Vec<Client> = (0..CONNECTIONS).map(|_| connect(&router.addr)).collect();
    let barrier = Barrier::new(clients.len());
    let storm = single_cell(4000, 6);
    let logs: Vec<Vec<(String, Vec<u8>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..)
            .zip(clients)
            .map(|(t, mut client)| {
                let (hot, barrier, storm) = (&hot, &barrier, &storm);
                scope.spawn(move || mixed_traffic(&mut client, t, hot, barrier, storm))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traffic thread"))
            .collect()
    });
    let storm_replies: Vec<&Vec<u8>> = logs
        .iter()
        .filter_map(|log| log.last())
        .map(|(_, r)| r)
        .collect();
    assert!(
        storm_replies.iter().all(|r| *r == storm_replies[0]),
        "storm replies disagree"
    );

    // Each distinct cell is computed exactly once (3 hot, 12 misses, 4
    // own cells, 1 storm cell), whatever the interleaving was.
    let stats = http(&router.addr, "GET", "/v1/stats", None).json();
    let count = |field: &str| stats.get(field).and_then(Json::as_u64);
    assert_eq!(count("misses"), Some(20), "{}", stats.to_pretty());
    assert_eq!(count("cells_on_disk"), Some(20), "{}", stats.to_pretty());
    assert_eq!(count("extends"), Some(8), "{}", stats.to_pretty());
    assert_eq!(count("hits"), Some(27), "{}", stats.to_pretty());

    // The direct daemon, fed the priming and then each connection's
    // requests one at a time, in order, answers with the same bytes.
    let mut oracle = connect(&direct.addr);
    for (n, log) in std::iter::once(&hot).chain(&logs).enumerate() {
        for (i, (body, via_router)) in log.iter().enumerate() {
            assert!(
                &post_race(&mut oracle, body).0 == via_router,
                "log {n} (0 = priming) request {i} differs from the direct daemon: {body}"
            );
        }
    }
}

#[test]
fn killed_shard_restarts_and_replays_byte_identically() {
    let router = RouterProc::spawn("death", 2);

    // A slow single-cell race (cold m=4, n=16 at 500k trials takes
    // several seconds in a dev build) and a light one owned by the same
    // shard, found by scanning seeds.
    let slow_body = r#"{
        "scenarios": [{"family": "uniform", "m": 4, "n": 16,
                        "lo": 0.3, "hi": 0.95, "seed": 3}],
        "policies": ["greedy-lr"],
        "trials": 500000,
        "master_seed": 5
    }"#;
    let slow_key = key_from_hex(&cell_keys(slow_body)[0]).unwrap();
    let victim = owner_of(slow_key, 2);
    let light_body = (0..)
        .map(|seed| single_cell(seed, 5))
        .find(|body| owner_of(key_from_hex(&cell_keys(body)[0]).unwrap(), 2) == victim)
        .expect("some seed lands on the victim shard");

    // Cache the light cell on the victim shard before the crash.
    let before = http(&router.addr, "POST", "/v1/race", Some(&light_body));
    assert_eq!(before.status, 200, "{}", before.body);

    // Post the slow race, then kill its shard mid-evaluation.
    let in_flight = std::thread::spawn({
        let addr = router.addr.clone();
        let body = slow_body.to_string();
        move || http(&addr, "POST", "/v1/race", Some(&body))
    });
    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(
        unsafe { kill(router.shards[victim].pid, SIGKILL) },
        0,
        "kill shard {victim}"
    );
    let reply = in_flight.join().expect("in-flight request thread");
    assert_eq!(
        reply.status, 503,
        "an in-flight request to a dying shard gets a clean 503, got {}: {}",
        reply.status, reply.body
    );
    assert!(
        reply.header("Retry-After").is_some(),
        "503 advertises Retry-After"
    );

    // The supervisor restarts the shard (bounded backoff, ~100ms); the
    // cache dir survives, so the light cell replays byte-identically.
    let deadline = Instant::now() + Duration::from_secs(20);
    let after = loop {
        let reply = http(&router.addr, "POST", "/v1/race", Some(&light_body));
        if reply.status == 200 {
            break reply;
        }
        assert_eq!(reply.status, 503, "only clean 503s while down");
        assert!(
            Instant::now() < deadline,
            "shard should restart within the deadline"
        );
        std::thread::sleep(Duration::from_millis(100));
    };
    assert_eq!(
        after.body, before.body,
        "post-restart replay must be byte-identical to pre-death"
    );
    assert_eq!(
        after.header("X-Suu-Cache"),
        Some("hit"),
        "the cell survived the crash on disk"
    );

    // The restart is visible in the aggregated stats.
    let stats = http(&router.addr, "GET", "/v1/stats", None).json();
    let restarts = stats
        .get("shards")
        .and_then(Json::as_array)
        .and_then(|s| s.get(victim))
        .and_then(|s| s.get("restarts"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(restarts >= 1, "stats must report the restart: {stats:?}");
}
