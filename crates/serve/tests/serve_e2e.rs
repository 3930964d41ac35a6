//! End-to-end socket test: spawn the real `suud` binary on an ephemeral
//! loopback port and drive it over TCP.
//!
//! Proves the PR's cache semantics on the wire:
//!
//! * identical `POST /v1/race` twice ⇒ the second response **body is
//!   byte-identical** and flagged `X-Suu-Cache: hit`;
//! * the same cell at a larger trial budget ⇒ `X-Suu-Cache: extended`,
//!   `trials_used` grew, and the cell's moments *and* P² sketch state
//!   are **bitwise identical** to an equivalent cold run computed
//!   in-process (same seed derivation, fresh accumulator);
//! * `GET /v1/cell/{key}`, `/v1/healthz` and `/v1/stats` respond.
//!
//! And the event-loop front end's behavior:
//!
//! * keep-alive connections serve many requests with bodies
//!   byte-identical to fresh-connection responses, and hits write
//!   nothing to the cache directory;
//! * pipelined requests are answered strictly in request order;
//! * a saturated compute queue answers `429` + `Retry-After` and
//!   recovers;
//! * a tiny `--max-cache-bytes` budget evicts LRU cells, keeps the MRU
//!   ones replaying byte-identically, and recomputes evicted cells
//!   deterministically.

mod common;

use common::{http, Daemon, Reply};
use std::time::Duration;
use suu_core::schemas;
use suu_serve::client::Client;

fn race_body(trials: u64) -> String {
    format!(
        r#"{{
            "scenarios": [{{"family": "uniform", "m": 3, "n": 6,
                            "lo": 0.3, "hi": 0.9, "seed": 7}}],
            "policies": ["greedy-lr"],
            "trials": {trials},
            "master_seed": 21
        }}"#
    )
}

#[test]
fn daemon_serves_replays_and_extends_over_a_real_socket() {
    let daemon = Daemon::spawn("main");
    let addr = daemon.addr.as_str();

    // Liveness first.
    let health = http(addr, "GET", "/v1/healthz", None);
    assert_eq!(health.status, 200);
    assert_eq!(
        health
            .json()
            .get("status")
            .and_then(|s| s.as_str().map(str::to_string)),
        Some("ok".to_string())
    );

    // 1. Cold race: a miss that populates the cache.
    let first = http(addr, "POST", "/v1/race", Some(&race_body(6)));
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.header("X-Suu-Cache"), Some("miss"));
    assert_eq!(first.header("X-Suu-Cache-Misses"), Some("1"));
    let doc = first.json();
    assert_eq!(
        doc.get("schema")
            .and_then(|s| s.as_str().map(str::to_string)),
        Some(schemas::RESULTS_V2.to_string())
    );
    let cell = &doc.get("cells").unwrap().as_array().unwrap()[0];
    assert_eq!(cell.get("trials_used").unwrap().as_u64(), Some(6));
    assert!(
        cell.get("wall_clock_s").is_none(),
        "bodies must be replay-deterministic"
    );
    let key = cell.get("cell_key").unwrap().as_str().unwrap().to_string();

    // 2. Identical request: byte-identical body, flagged as a hit.
    let second = http(addr, "POST", "/v1/race", Some(&race_body(6)));
    assert_eq!(second.status, 200);
    assert_eq!(second.header("X-Suu-Cache"), Some("hit"));
    assert_eq!(second.header("X-Suu-Cache-Hits"), Some("1"));
    assert_eq!(
        first.body, second.body,
        "cache hit must replay the response byte-identically"
    );

    // 3. Same cell at a tighter precision: extended in place.
    let third = http(addr, "POST", "/v1/race", Some(&race_body(18)));
    assert_eq!(third.status, 200);
    assert_eq!(third.header("X-Suu-Cache"), Some("extended"));
    let third_doc = third.json();
    let cell = &third_doc.get("cells").unwrap().as_array().unwrap()[0];
    assert_eq!(
        cell.get("trials_used").unwrap().as_u64(),
        Some(18),
        "trials must grow to the requested budget"
    );
    assert_eq!(
        cell.get("cell_key").unwrap().as_str(),
        Some(key.as_str()),
        "precision is not part of the cell identity"
    );

    // 4. The extended cell is bitwise an equivalent cold run: same seed
    // derivation, fresh accumulator, computed in-process.
    let sc = suu_bench::scenario::Scenario::uniform(3, 6, 0.3, 0.9, 7);
    let registry = suu_algos::standard_registry();
    let inst = sc.instantiate();
    let spec = suu_sim::PolicySpec::new("greedy-lr");
    let cold = suu_sim::Evaluator::new(suu_sim::EvalConfig {
        trials: 18,
        master_seed: suu_bench::runner::scenario_master_seed(21, &sc),
        threads: 0,
        ..suu_sim::EvalConfig::default()
    })
    .run_stats(
        &inst,
        suu_sim::spec_factory(&registry, &inst, &spec).unwrap(),
    );
    let cold_summary = cold.summary().unwrap();
    let mean = cell.get("mean_makespan").unwrap().as_f64().unwrap();
    assert_eq!(
        mean.to_bits(),
        cold_summary.mean.to_bits(),
        "extended mean must be bitwise the cold run's"
    );
    assert_eq!(
        cell.get("median").unwrap().as_f64().unwrap().to_bits(),
        cold_summary.median.to_bits()
    );
    assert_eq!(
        cell.get("p95").unwrap().as_f64().unwrap().to_bits(),
        cold_summary.p95.to_bits()
    );

    // …and the cached checkpoint's whole accumulator (moments, counters,
    // P² sketch words) matches the cold accumulator exactly.
    let stored = http(addr, "GET", &format!("/v1/cell/{key}"), None);
    assert_eq!(stored.status, 200);
    let stored = stored.json();
    assert_eq!(
        stored
            .get("schema")
            .and_then(|s| s.as_str().map(str::to_string)),
        Some(schemas::SERVE_CELL_V1.to_string())
    );
    let accumulator = stored
        .get("checkpoint")
        .and_then(|c| c.get("accumulator"))
        .expect("checkpoint carries the accumulator snapshot");
    assert_eq!(
        accumulator.to_compact(),
        cold.acc.to_json().to_compact(),
        "cached accumulator state must be bitwise the cold run's"
    );

    // 5. Observability: the stats counters saw all of the above.
    let stats = http(addr, "GET", "/v1/stats", None).json();
    assert_eq!(stats.get("races").unwrap().as_u64(), Some(3));
    assert_eq!(stats.get("misses").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("hits").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("extends").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("cells_on_disk").unwrap().as_u64(), Some(1));

    // Unknown cell and bad request are polite errors.
    assert_eq!(
        http(addr, "GET", "/v1/cell/0000000000000000", None).status,
        404
    );
    assert_eq!(http(addr, "POST", "/v1/race", Some("{broken")).status, 400);
}

#[test]
fn concurrent_identical_races_coalesce_onto_one_computation() {
    let daemon = Daemon::spawn("coalesce");
    let addr = daemon.addr.as_str();
    // A heavier cell so the concurrent requests genuinely overlap.
    let body = r#"{
        "scenarios": [{"family": "uniform", "m": 4, "n": 16,
                        "lo": 0.3, "hi": 0.95, "seed": 3}],
        "policies": ["greedy-lr"],
        "trials": 400,
        "master_seed": 5
    }"#;
    let (a, b) = std::thread::scope(|scope| {
        let ta = scope.spawn(|| http(addr, "POST", "/v1/race", Some(body)));
        let tb = scope.spawn(|| http(addr, "POST", "/v1/race", Some(body)));
        (ta.join().unwrap(), tb.join().unwrap())
    });
    assert_eq!(a.status, 200);
    assert_eq!(b.status, 200);
    assert_eq!(
        a.body, b.body,
        "coalesced responses must agree byte-for-byte"
    );
    // Exactly one computed; the other either waited for it (hit) or
    // arrived first — never two misses for one key.
    let stats = http(addr, "GET", "/v1/stats", None).json();
    assert_eq!(stats.get("misses").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("hits").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("cells_on_disk").unwrap().as_u64(), Some(1));
}

/// A keep-alive connection: the crate's [`Client`], with each reply
/// turned into the harness's [`Reply`] so the assertions read the same
/// as over [`http`].
struct KeepAlive(Client);

impl KeepAlive {
    fn connect(addr: &str) -> KeepAlive {
        KeepAlive(Client::connect(addr, Duration::from_secs(60)).expect("connect to suud"))
    }

    fn send(&mut self, method: &str, path: &str, body: Option<&str>) {
        self.0.send(method, path, body.map(str::as_bytes)).unwrap();
    }

    fn read_reply(&mut self) -> Reply {
        let reply = self.0.read_reply().unwrap();
        Reply {
            status: reply.status,
            headers: reply.headers,
            body: String::from_utf8(reply.body).expect("utf-8 body"),
        }
    }

    fn request(&mut self, method: &str, path: &str, body: Option<&str>) -> Reply {
        self.send(method, path, body);
        self.read_reply()
    }
}

#[test]
fn keep_alive_bodies_are_byte_identical_to_fresh_connection_bodies() {
    let daemon = Daemon::spawn("keepalive");
    let addr = daemon.addr.as_str();

    // Populate the cell over a throwaway connection.
    let fresh = http(addr, "POST", "/v1/race", Some(&race_body(6)));
    assert_eq!(fresh.status, 200, "{}", fresh.body);

    // One connection, many requests: every response must be flagged
    // keep-alive and every body must equal the fresh-connection body.
    let mut conn = KeepAlive::connect(addr);
    for round in 0..4 {
        let reply = conn.request("POST", "/v1/race", Some(&race_body(6)));
        assert_eq!(reply.status, 200, "round {round}");
        assert_eq!(reply.header("Connection"), Some("keep-alive"));
        assert_eq!(reply.header("X-Suu-Cache"), Some("hit"));
        assert_eq!(
            reply.body, fresh.body,
            "round {round}: keep-alive replay must be byte-identical"
        );
    }
    // Interleaved different endpoints on the same connection still work.
    assert_eq!(conn.request("GET", "/v1/healthz", None).status, 200);
    let stats = conn.request("GET", "/v1/stats", None);
    assert_eq!(stats.status, 200);
    assert_eq!(stats.json().get("hits").unwrap().as_u64(), Some(4));
}

#[test]
fn keep_alive_hits_leave_the_cache_dir_untouched() {
    let daemon = Daemon::spawn("hits-write-nothing");
    let addr = daemon.addr.as_str();
    let primed = http(addr, "POST", "/v1/race", Some(&race_body(6)));
    assert_eq!(primed.header("X-Suu-Cache"), Some("miss"));

    // Every file's name, bytes and mtime.
    let snapshot = || {
        let mut files: Vec<(String, Vec<u8>, std::time::SystemTime)> =
            std::fs::read_dir(&daemon.cache_dir)
                .expect("cache dir")
                .map(|entry| {
                    let entry = entry.expect("dir entry");
                    let modified = entry.metadata().unwrap().modified().unwrap();
                    let name = entry.file_name().into_string().unwrap();
                    (name, std::fs::read(entry.path()).unwrap(), modified)
                })
                .collect();
        files.sort();
        files
    };
    let before = snapshot();
    let names: Vec<&str> = before.iter().map(|f| f.0.as_str()).collect();
    assert!(names.contains(&"index.json"), "{names:?}");

    let mut conn = KeepAlive::connect(addr);
    for i in 0..50 {
        let reply = conn.request("POST", "/v1/race", Some(&race_body(6)));
        assert_eq!(reply.header("X-Suu-Cache"), Some("hit"), "request {i}");
        assert_eq!(reply.body, primed.body, "request {i}");
    }
    let after = snapshot();
    let after_names: Vec<&str> = after.iter().map(|f| f.0.as_str()).collect();
    assert_eq!(after_names, names);
    assert!(
        after == before,
        "50 hits must leave every cache file's bytes and mtime unchanged"
    );
}

#[test]
fn pipelined_requests_are_answered_in_request_order() {
    let daemon = Daemon::spawn("pipeline");
    let addr = daemon.addr.as_str();
    // Prime the race cell so pipelined hits are fast.
    assert_eq!(
        http(addr, "POST", "/v1/race", Some(&race_body(6))).status,
        200
    );

    // Send four requests back-to-back without reading, in one burst:
    // race (json with cells), healthz, race again, stats. The responses
    // must come back in exactly that order.
    let mut conn = KeepAlive::connect(addr);
    conn.send("POST", "/v1/race", Some(&race_body(6)));
    conn.send("GET", "/v1/healthz", None);
    conn.send("POST", "/v1/race", Some(&race_body(6)));
    conn.send("GET", "/v1/stats", None);

    let first = conn.read_reply();
    assert_eq!(first.status, 200);
    assert!(first.json().get("cells").is_some(), "1st must be the race");
    let second = conn.read_reply();
    assert_eq!(
        second
            .json()
            .get("schema")
            .and_then(|s| s.as_str().map(str::to_string)),
        Some(schemas::SERVE_HEALTH_V1.to_string()),
        "2nd must be healthz"
    );
    let third = conn.read_reply();
    assert_eq!(
        third.body, first.body,
        "3rd must be the race again, byte-identical"
    );
    let fourth = conn.read_reply();
    assert_eq!(
        fourth
            .json()
            .get("schema")
            .and_then(|s| s.as_str().map(str::to_string)),
        Some(schemas::SERVE_STATS_V1.to_string()),
        "4th must be stats"
    );
}

#[test]
fn saturated_queue_answers_429_with_retry_after_and_recovers() {
    // One worker, a one-slot queue: the third concurrent request must
    // be turned away.
    let daemon = Daemon::spawn_with("saturate", &["--workers", "1", "--queue-depth", "1"]);
    let addr = daemon.addr.as_str();

    // A deliberately heavy race: ~1 s of compute in release, several in
    // debug — far above the 300 ms send gap below, so the schedule is
    // deterministic whatever the build profile. Distinct seeds keep
    // every request a full-cost miss (no hit or coalescing shortcuts).
    let heavy = |seed: u64| {
        format!(
            r#"{{
                "scenarios": [{{"family": "uniform", "m": 4, "n": 16,
                                "lo": 0.3, "hi": 0.95, "seed": {seed}}}],
                "policies": ["greedy-lr"],
                "trials": 400000,
                "master_seed": 5
            }}"#
        )
    };

    let mut conn = KeepAlive::connect(addr);
    // r1 occupies the single worker…
    conn.send("POST", "/v1/race", Some(&heavy(3)));
    std::thread::sleep(Duration::from_millis(300));
    // …r2 fills the queue, r3 and r4 overflow it.
    conn.send("POST", "/v1/race", Some(&heavy(4)));
    conn.send("POST", "/v1/race", Some(&heavy(5)));
    conn.send("POST", "/v1/race", Some(&heavy(6)));

    let statuses: Vec<(u16, Option<String>)> = (0..4)
        .map(|_| {
            let r = conn.read_reply();
            (r.status, r.header("Retry-After").map(str::to_string))
        })
        .collect();
    assert_eq!(statuses[0].0, 200, "the computing request finishes");
    assert_eq!(statuses[1].0, 200, "the queued request runs next");
    for (status, retry_after) in &statuses[2..] {
        assert_eq!(*status, 429, "overflow must be rejected");
        assert_eq!(
            retry_after.as_deref(),
            Some("1"),
            "429 must carry Retry-After"
        );
    }

    // The rejection is backpressure, not a failure state: the very next
    // request (now a cache hit) succeeds on the same connection.
    let after = conn.request("POST", "/v1/race", Some(&heavy(3)));
    assert_eq!(after.status, 200);
    assert_eq!(after.header("X-Suu-Cache"), Some("hit"));
    let stats = conn.request("GET", "/v1/stats", None).json();
    assert_eq!(stats.get("rejected_429").unwrap().as_u64(), Some(2));
}

#[test]
fn tiny_cache_budget_evicts_lru_and_keeps_mru_replaying_byte_identically() {
    fn seeded_race(seed: u64) -> String {
        format!(
            r#"{{
                "scenarios": [{{"family": "uniform", "m": 3, "n": 6,
                                "lo": 0.3, "hi": 0.9, "seed": {seed}}}],
                "policies": ["greedy-lr"],
                "trials": 6,
                "master_seed": 21
            }}"#
        )
    }

    // Phase 1: measure one cell's size with an unbudgeted daemon.
    let cell_bytes = {
        let probe = Daemon::spawn("evict-probe");
        let addr = probe.addr.as_str();
        assert_eq!(
            http(addr, "POST", "/v1/race", Some(&seeded_race(1))).status,
            200
        );
        let stats = http(addr, "GET", "/v1/stats", None).json();
        stats.get("cache_bytes").unwrap().as_u64().unwrap()
    };
    assert!(cell_bytes > 0);

    // Phase 2: a budget that fits two cells (plus slack for per-seed
    // size jitter) but never three.
    let budget = cell_bytes * 2 + cell_bytes / 2;
    let daemon = Daemon::spawn_with("evict", &["--max-cache-bytes", &budget.to_string()]);
    let addr = daemon.addr.as_str();

    let first_a = http(addr, "POST", "/v1/race", Some(&seeded_race(1)));
    let first_b = http(addr, "POST", "/v1/race", Some(&seeded_race(2)));
    assert_eq!(first_a.header("X-Suu-Cache"), Some("miss"));
    assert_eq!(first_b.header("X-Suu-Cache"), Some("miss"));

    // Touch A (now MRU), then add C: B is LRU and must be evicted.
    let touched_a = http(addr, "POST", "/v1/race", Some(&seeded_race(1)));
    assert_eq!(touched_a.header("X-Suu-Cache"), Some("hit"));
    assert_eq!(
        touched_a.body, first_a.body,
        "budgeted cache hits still replay byte-identically"
    );
    assert_eq!(
        http(addr, "POST", "/v1/race", Some(&seeded_race(3))).status,
        200
    );

    let stats = http(addr, "GET", "/v1/stats", None).json();
    assert_eq!(stats.get("evictions").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("cells_on_disk").unwrap().as_u64(), Some(2));
    assert!(stats.get("cache_bytes").unwrap().as_u64().unwrap() <= budget);

    // The survivor (A, recently used) still replays byte-identically…
    let again_a = http(addr, "POST", "/v1/race", Some(&seeded_race(1)));
    assert_eq!(again_a.header("X-Suu-Cache"), Some("hit"));
    assert_eq!(again_a.body, first_a.body);

    // …and the evicted cell (B) is recomputed deterministically: a
    // miss, but byte-identical to its pre-eviction response.
    let recomputed_b = http(addr, "POST", "/v1/race", Some(&seeded_race(2)));
    assert_eq!(recomputed_b.header("X-Suu-Cache"), Some("miss"));
    assert_eq!(
        recomputed_b.body, first_b.body,
        "recomputed cells are bitwise their evicted selves"
    );
}
