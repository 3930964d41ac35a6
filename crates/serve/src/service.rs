//! The daemon's application logic: routing, race evaluation through the
//! cache, and the observability endpoints.
//!
//! A race goes through the one race path of [`suu_bench::runner`]: its
//! body is read by `parse_race`, each scenario is a `ScenarioRun`, and
//! each cell is recorded by `ScenarioRun::record` under the request's
//! policy text. What this module adds is the cache ([`Service::evaluate`]
//! serves each cell through it) and the HTTP reply: `race_reply` maps a
//! bad body to the one 400 and the cache counts to the `X-Suu-Cache*`
//! headers, for the daemon and for [`crate::router`] alike.
//!
//! ## Determinism contract
//!
//! A `POST /v1/race` response body is a **pure function of the request
//! and the cache state it leaves behind**: cells come from
//! seed-deterministic evaluation, wall clocks are never recorded, and
//! cache status lives in response *headers* (`X-Suu-Cache`,
//! `X-Suu-Cache-Hits/-Misses/-Extended`), not the body. Hence:
//!
//! * identical request twice ⇒ the second response is served from the
//!   cache and is **byte-identical** to the first;
//! * a request for more precision on a cached cell resumes it
//!   ([`suu_sim::Evaluator::resume_adaptive`]) instead of recomputing —
//!   bitwise what a cold run at the final trial count would produce;
//! * concurrent identical requests coalesce: one computes, the rest
//!   wait on the in-flight guard and replay its checkpoint;
//! * a request's retired `"engine"` field (`"events"` or `"dense"`)
//!   changes no byte of the response: every cell runs on the one event
//!   engine, and its checkpoint records `"engine": "events"`;
//! * a damaged cell file is recomputed (a cell is a pure function of its
//!   key), so it answers what a cold run would, never a lasting 500;
//! * a request for ratios takes each scenario's LP lower bound from the
//!   first of its cells that carries one, solving it only when none
//!   does — the same f64 either way, so the same bytes.

use crate::cache::{CellFault, CellKey, CellStore};
use crate::client::Reply;
use crate::http::{Request, Response};
use crate::server::ServerMetrics;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use suu_bench::report::ResultsBuilder;
use suu_bench::request::RaceRequest;
use suu_bench::runner::{parse_race, policy_specs, ScenarioRun};
use suu_core::json::Json;
use suu_sim::{AdaptiveStats, PolicyRegistry, PolicySpec, Precision, RegistryError, Semantics};

/// How a cell was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from disk, no new trials.
    Hit,
    /// Computed from scratch.
    Miss,
    /// Resumed from disk and grown.
    Extended,
}

/// Per-response cache accounting (the `X-Suu-Cache-*` headers).
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheCounts {
    /// Cells served from disk.
    pub hits: u64,
    /// Cells computed from scratch.
    pub misses: u64,
    /// Cells resumed and grown.
    pub extends: u64,
}

impl CacheCounts {
    fn record(&mut self, status: CacheStatus) {
        match status {
            CacheStatus::Hit => self.hits += 1,
            CacheStatus::Miss => self.misses += 1,
            CacheStatus::Extended => self.extends += 1,
        }
    }

    /// Aggregate label: `hit` when everything came from the cache,
    /// `extended` when nothing was computed cold but something grew,
    /// otherwise `miss`.
    pub fn label(&self) -> &'static str {
        if self.misses > 0 {
            "miss"
        } else if self.extends > 0 {
            "extended"
        } else {
            "hit"
        }
    }

    /// Each count with the header that carries it, in reply order.
    fn by_header(&mut self) -> [(&'static str, &mut u64); 3] {
        [
            ("X-Suu-Cache-Hits", &mut self.hits),
            ("X-Suu-Cache-Misses", &mut self.misses),
            ("X-Suu-Cache-Extended", &mut self.extends),
        ]
    }

    /// Add the counts a daemon's race reply carries in its headers.
    pub(crate) fn add_reply(&mut self, reply: &Reply) {
        for (name, count) in self.by_header() {
            let value = reply.header(&name.to_ascii_lowercase());
            *count += value.and_then(|v| v.parse().ok()).unwrap_or(0);
        }
    }
}

/// Errors from the evaluation path, mapped to HTTP statuses.
#[derive(Debug)]
pub enum ServeError {
    /// The request was malformed (400).
    BadRequest(String),
    /// The cache or evaluator failed server-side (500).
    Internal(String),
}

impl ServeError {
    /// The reply that reports this error.
    pub(crate) fn reply(self) -> Response {
        match self {
            ServeError::BadRequest(e) => Response::text(400, format!("bad request: {e}")),
            ServeError::Internal(e) => Response::text(500, format!("error: {e}")),
        }
    }
}

/// `POST /v1/race` on any front end: parse the body (a 400 on any
/// defect), then `evaluate` it. The document goes out with its cache
/// counts in the `X-Suu-Cache*` headers; an evaluation error goes out as
/// the reply it carries.
pub(crate) fn race_reply(
    body: &[u8],
    evaluate: impl FnOnce(&RaceRequest, &[PolicySpec]) -> Result<(Json, CacheCounts), Response>,
) -> Response {
    let (race, specs) = match parse_race(body) {
        Ok(parsed) => parsed,
        Err(e) => return ServeError::BadRequest(e).reply(),
    };
    match evaluate(&race, &specs) {
        Ok((doc, mut counts)) => {
            let mut reply =
                Response::json(200, doc.to_pretty()).with_header("X-Suu-Cache", counts.label());
            for (name, count) in counts.by_header() {
                reply = reply.with_header(name, count.to_string());
            }
            reply
        }
        Err(reply) => reply,
    }
}

/// The daemon state shared by every worker thread.
pub struct Service {
    store: CellStore,
    registry: PolicyRegistry,
    /// Total `POST /v1/race` requests accepted.
    pub races: AtomicU64,
    /// LP lower bounds solved (each `lower_bound` call).
    bounds_solved: AtomicU64,
    /// Front-end counters (queue depth, 429s), attached once the event
    /// loop exists — `/v1/stats` reports zeros until then (oneshot mode,
    /// in-process tests).
    server_metrics: OnceLock<Arc<ServerMetrics>>,
}

impl Service {
    /// Open the cache directory and build the standard policy registry
    /// (no cache size budget).
    pub fn new(cache_dir: impl Into<PathBuf>) -> std::io::Result<Service> {
        Service::with_budget(cache_dir, None)
    }

    /// Like [`Service::new`] with an optional cache size budget in
    /// bytes (LRU eviction — see [`crate::cache`]).
    pub fn with_budget(
        cache_dir: impl Into<PathBuf>,
        max_cache_bytes: Option<u64>,
    ) -> std::io::Result<Service> {
        Ok(Service {
            store: CellStore::open_with_budget(cache_dir, max_cache_bytes)?,
            registry: suu_algos::standard_registry(),
            races: AtomicU64::new(0),
            bounds_solved: AtomicU64::new(0),
            server_metrics: OnceLock::new(),
        })
    }

    /// Wire the event loop's counters into `/v1/stats`. Later calls are
    /// ignored (there is one front end per daemon).
    pub fn attach_server_metrics(&self, metrics: Arc<ServerMetrics>) {
        let _ = self.server_metrics.set(metrics);
    }

    /// The backing store (tests, stats).
    pub fn store(&self) -> &CellStore {
        &self.store
    }

    /// Route one HTTP request.
    pub fn handle(&self, req: &Request) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/v1/healthz") => Response::json(
                200,
                Json::obj()
                    .field("schema", suu_core::schemas::SERVE_HEALTH_V1)
                    .field("status", "ok")
                    .to_compact(),
            ),
            ("GET", "/v1/stats") => Response::json(200, self.stats_json().to_compact()),
            ("GET", path) if path.starts_with("/v1/cell/") => {
                let key = &path["/v1/cell/".len()..];
                match self.store.raw(key) {
                    Some(doc) => Response::json(200, doc),
                    None => Response::text(404, format!("no cached cell {key}")),
                }
            }
            ("POST", "/v1/race") => {
                self.races.fetch_add(1, Ordering::Relaxed);
                race_reply(&req.body, |race, specs| {
                    self.race(race, specs).map_err(ServeError::reply)
                })
            }
            ("GET" | "POST", _) => Response::text(404, "not found"),
            _ => Response::text(405, "method not allowed"),
        }
    }

    /// The `/v1/stats` document (live counters; `cells_on_disk` and
    /// `cache_bytes` come from the store's in-memory mirror, so a call
    /// reads no file). The original v1 fields keep their exact names and
    /// order — the budget/backpressure, bound and recovery fields are
    /// strictly appended, so pre-existing consumers parse unchanged.
    pub fn stats_json(&self) -> Json {
        let (queue_depth, rejected_429) = self
            .server_metrics
            .get()
            .map(|m| {
                (
                    m.queue_depth.load(Ordering::Relaxed),
                    m.rejected_429.load(Ordering::Relaxed),
                )
            })
            .unwrap_or((0, 0));
        Json::obj()
            .field("schema", suu_core::schemas::SERVE_STATS_V1)
            .field("races", self.races.load(Ordering::Relaxed))
            .field("hits", self.store.hits.load(Ordering::Relaxed))
            .field("misses", self.store.misses.load(Ordering::Relaxed))
            .field("extends", self.store.extends.load(Ordering::Relaxed))
            .field("coalesced", self.store.coalesced.load(Ordering::Relaxed))
            .field("inflight", self.store.inflight_count())
            .field("cells_on_disk", self.store.cells_on_disk())
            .field("evictions", self.store.evictions.load(Ordering::Relaxed))
            .field("cache_bytes", self.store.cache_bytes())
            .field("queue_depth", queue_depth)
            .field("rejected_429", rejected_429)
            .field("bounds_solved", self.bounds_solved.load(Ordering::Relaxed))
            .field(
                "corrupt_recovered",
                self.store.corrupt_recovered.load(Ordering::Relaxed),
            )
    }

    /// Evaluate a parsed race through the cache, producing the
    /// `suu-results/v2` response document (wall clocks off — see the
    /// module docs) and the cache accounting for the headers.
    pub fn evaluate(&self, race: &RaceRequest) -> Result<(Json, CacheCounts), ServeError> {
        let specs = policy_specs(&race.policies).map_err(ServeError::BadRequest)?;
        self.race(race, &specs)
    }

    /// [`Service::evaluate`] with the race's policy specs parsed.
    fn race(
        &self,
        race: &RaceRequest,
        specs: &[PolicySpec],
    ) -> Result<(Json, CacheCounts), ServeError> {
        let mut builder = ResultsBuilder::new("suud").record_wall_clocks(false);
        let mut counts = CacheCounts::default();
        for rs in &race.scenarios {
            builder.add_scenario(&rs.scenario);
            let run = ScenarioRun::new(
                &rs.scenario,
                race.master_seed,
                race.precision,
                race.exec,
                race.ratios_to_lower_bound,
            )
            .counting_solves(&self.bounds_solved);
            for (spec, policy_text) in specs.iter().zip(&race.policies) {
                let key = CellKey::of(race, rs, policy_text);
                let outcome = match self.evaluate_cell(&key, &run, spec, race.precision) {
                    Ok((cell, status)) => {
                        counts.record(status);
                        Ok(cell)
                    }
                    Err(CellError::Registry(e)) => Err(e),
                    Err(CellError::Cache(e)) => return Err(ServeError::Internal(e)),
                };
                run.record(&mut builder, policy_text, Some(&key.hex), &outcome);
            }
        }
        Ok((builder.finish(), counts))
    }

    /// One cell through the cache, under the in-flight guard. The
    /// scenario is built only on a miss or an extend.
    fn evaluate_cell(
        &self,
        key: &CellKey,
        run: &ScenarioRun,
        spec: &PolicySpec,
        precision: Precision,
    ) -> Result<(AdaptiveStats, CacheStatus), CellError> {
        self.store.with_inflight(key, || {
            let cached = match self.store.fetch(key) {
                Ok(cached) => cached,
                // Computed afresh, the store's rename replaces the file.
                Err(CellFault::Damaged(_)) => {
                    self.store.corrupt_recovered.fetch_add(1, Ordering::Relaxed);
                    None
                }
                Err(fault @ CellFault::Collision(_)) => {
                    return Err(CellError::Cache(fault.to_string()))
                }
            };
            let kept_bound = cached.as_ref().and_then(|c| c.lower_bound);
            if let Some(lb) = kept_bound {
                run.keep_bound(lb);
            }
            let (grown, status, counter) = match cached {
                Some(cached) => {
                    // A hit writes nothing, so a cell stored without a
                    // bound gets one only when it next grows.
                    if let Some(stop_reason) = precision.check_sample(cached.stats.acc.makespan()) {
                        self.store.hits.fetch_add(1, Ordering::Relaxed);
                        let cell = AdaptiveStats {
                            stats: cached.stats,
                            stop_reason,
                        };
                        return Ok((cell, CacheStatus::Hit));
                    }
                    // Resume with the cell's own config (seed, semantics,
                    // step cap asserted to match inside).
                    let grown = run.evaluator.resume_adaptive_spec(
                        &self.registry,
                        run.inst(),
                        spec,
                        cached.stats,
                        precision,
                    );
                    (grown, CacheStatus::Extended, &self.store.extends)
                }
                None => {
                    let grown = run.evaluator.run_adaptive_spec(
                        &self.registry,
                        run.inst(),
                        spec,
                        precision,
                    );
                    (grown, CacheStatus::Miss, &self.store.misses)
                }
            };
            let cell = grown.map_err(CellError::Registry)?;
            // A cell keeps the bound it carries; a request for ratios
            // records it in every cell it computes or extends.
            let bound = kept_bound.or_else(|| run.bound()?.as_ref().ok().copied());
            self.store
                .store_with_bound(
                    key,
                    &cell.stats.policy,
                    &cell.stats,
                    cell.stop_reason.as_str(),
                    bound,
                )
                .map_err(CellError::Cache)?;
            counter.fetch_add(1, Ordering::Relaxed);
            Ok((cell, status))
        })
    }
}

enum CellError {
    Registry(RegistryError),
    Cache(String),
}

/// The `suu-serve/stats/v1` field names, in emission order. The router
/// aggregates shard stats by summing exactly these fields (and appending
/// its own), and the append-only regression test pins the order.
pub const STATS_FIELDS: [&str; 14] = [
    "schema",
    "races",
    "hits",
    "misses",
    "extends",
    "coalesced",
    "inflight",
    "cells_on_disk",
    "evictions",
    "cache_bytes",
    "queue_depth",
    "rejected_429",
    "bounds_solved",
    "corrupt_recovered",
];

/// Canonical wire spelling of a [`Semantics`] (cell-key field): kept as
/// an alias of [`Semantics::as_str`] for `servebench`, which imports it.
pub fn semantics_str(s: Semantics) -> &'static str {
    s.as_str()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "suu-serve-service-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn smoke_request(trials: u64) -> RaceRequest {
        let text = format!(
            r#"{{
                "scenarios": [{{"family": "uniform", "m": 3, "n": 6,
                                "lo": 0.3, "hi": 0.9, "seed": 7}}],
                "policies": ["gang-sequential", "greedy-lr"],
                "trials": {trials},
                "master_seed": 21
            }}"#
        );
        RaceRequest::from_json(&suu_core::json::parse(&text).unwrap()).unwrap()
    }

    #[test]
    fn identical_requests_replay_byte_identically() {
        let service = Service::new(tempdir("replay")).unwrap();
        let (doc_a, counts_a) = service.evaluate(&smoke_request(6)).unwrap();
        let (doc_b, counts_b) = service.evaluate(&smoke_request(6)).unwrap();
        assert_eq!(doc_a.to_pretty(), doc_b.to_pretty());
        assert_eq!((counts_a.misses, counts_a.hits), (2, 0));
        assert_eq!((counts_b.misses, counts_b.hits), (0, 2));
        assert_eq!(counts_a.label(), "miss");
        assert_eq!(counts_b.label(), "hit");
        // The cells are addressed and stamped.
        let cells = doc_a.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells.len(), 2);
        for cell in cells {
            let key = cell.get("cell_key").unwrap().as_str().unwrap();
            assert!(suu_core::is_fnv1a_hex(key));
            assert!(service.store().raw(key).is_some());
        }
        let _ = std::fs::remove_dir_all(service.store().dir());
    }

    #[test]
    fn tighter_precision_extends_instead_of_recomputing() {
        let service = Service::new(tempdir("extend")).unwrap();
        let (doc_small, _) = service.evaluate(&smoke_request(6)).unwrap();
        let (doc_big, counts) = service.evaluate(&smoke_request(18)).unwrap();
        assert_eq!(counts.label(), "extended");
        assert_eq!((counts.extends, counts.misses), (2, 0));
        let used = |doc: &Json, i: usize| {
            doc.get("cells").unwrap().as_array().unwrap()[i]
                .get("trials_used")
                .unwrap()
                .as_u64()
                .unwrap()
        };
        assert_eq!(used(&doc_small, 0), 6);
        assert_eq!(used(&doc_big, 0), 18);
        // The extended cell is bitwise a cold 18-trial run.
        let cold = Service::new(tempdir("extend-cold")).unwrap();
        let (doc_cold, _) = cold.evaluate(&smoke_request(18)).unwrap();
        assert_eq!(doc_big.to_pretty(), doc_cold.to_pretty());
        // A re-request at the smaller budget is a pure hit at the grown
        // count (cells never shrink) and stays deterministic.
        let (doc_rerun, counts) = service.evaluate(&smoke_request(6)).unwrap();
        assert_eq!(counts.label(), "hit");
        assert_eq!(used(&doc_rerun, 0), 18);
        let _ = std::fs::remove_dir_all(service.store().dir());
        let _ = std::fs::remove_dir_all(cold.store().dir());
    }

    #[test]
    fn one_trial_stops_on_the_ceiling_not_the_ci() {
        let service = Service::new(tempdir("one-trial")).unwrap();
        let text = r#"{"scenarios":[{"family":"uniform","m":3,"n":8,"lo":0.2,"hi":0.9,"seed":7}],
            "policies":["greedy-lr"],
            "precision":{"half_width":0.01,"relative":true,"min_trials":1,"max_trials":1},
            "master_seed":11}"#;
        let race = RaceRequest::from_json(&suu_core::json::parse(text).unwrap()).unwrap();
        // Cold, then from the cache: the same answer both times.
        for label in ["miss", "hit"] {
            let (doc, counts) = service.evaluate(&race).unwrap();
            assert_eq!(counts.label(), label);
            let cell = &doc.get("cells").unwrap().as_array().unwrap()[0];
            assert_eq!(cell.get("trials_used").unwrap().as_u64(), Some(1));
            assert_eq!(cell.get("ci95").unwrap().as_f64(), Some(0.0));
            assert_eq!(
                cell.get("stop_reason").unwrap().as_str(),
                Some("max-trials")
            );
        }
        let _ = std::fs::remove_dir_all(service.store().dir());
    }

    #[test]
    fn capability_skips_and_unknown_policies_are_cells_not_failures() {
        let service = Service::new(tempdir("skip")).unwrap();
        let text = r#"{
            "scenarios": [{"family": "chains", "m": 3, "n": 8, "chains": 3, "seed": 4}],
            "policies": ["suu-i-sem", "greedy-lr"],
            "trials": 4
        }"#;
        let race = RaceRequest::from_json(&suu_core::json::parse(text).unwrap()).unwrap();
        let (doc, counts) = service.evaluate(&race).unwrap();
        let cells = doc.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells.len(), 2);
        assert!(
            cells[0].get("skipped").is_some(),
            "suu-i-sem can't do chains"
        );
        assert!(cells[1].get("mean_makespan").is_some());
        assert_eq!(counts.misses, 1, "skipped cells never touch the cache");
        // An unknown policy is an "error" cell (the registry rejects it
        // at build time), never a cached evaluation or a crash.
        let race = RaceRequest::from_json(
            &suu_core::json::parse(
                r#"{
                    "scenarios": [{"family": "adversarial", "m": 2, "n": 4, "seed": 1}],
                    "policies": ["no-such-policy"],
                    "trials": 2
                }"#,
            )
            .unwrap(),
        )
        .unwrap();
        let (doc, counts) = service.evaluate(&race).unwrap();
        let cell = &doc.get("cells").unwrap().as_array().unwrap()[0];
        let error = cell.get("error").unwrap().as_str().unwrap();
        assert!(error.contains("unknown policy"), "{error}");
        assert_eq!(
            (counts.hits, counts.misses, counts.extends),
            (0, 0, 0),
            "error cells never touch the cache"
        );
        let _ = std::fs::remove_dir_all(service.store().dir());
    }

    #[test]
    fn a_dense_race_answers_with_the_plain_race_bytes() {
        // Cold on both sides; suu-c is not stationary, so both the
        // batched path and the per-trial path run.
        let body = |extra: &str| Request {
            method: "POST".to_string(),
            path: "/v1/race".to_string(),
            headers: Vec::new(),
            body: format!(
                r#"{{"scenarios":[{{"family":"chains","m":3,"n":8,"chains":3,"seed":8}}],
                    "policies":["greedy-lr","suu-c"],"trials":8,"master_seed":11{extra}}}"#
            )
            .into_bytes(),
        };
        let plain = Service::new(tempdir("engine-plain")).unwrap();
        let dense = Service::new(tempdir("engine-dense")).unwrap();
        let a = plain.handle(&body(""));
        let b = dense.handle(&body(r#","engine":"dense""#));
        assert_eq!((a.status, b.status), (200, 200));
        assert_eq!(a.body, b.body, "the engine field must change no byte");
        // The dense request's cells record the one engine.
        let doc = suu_core::json::parse(std::str::from_utf8(&b.body).unwrap()).unwrap();
        for cell in doc.get("cells").unwrap().as_array().unwrap() {
            let key = cell.get("cell_key").unwrap().as_str().unwrap();
            let raw = suu_core::json::parse(&dense.store().raw(key).unwrap()).unwrap();
            let engine = raw.get("checkpoint").and_then(|c| c.get("exec"));
            let engine = engine.and_then(|e| e.get("engine")).and_then(Json::as_str);
            assert_eq!(engine, Some("events"));
        }
        let _ = std::fs::remove_dir_all(plain.store().dir());
        let _ = std::fs::remove_dir_all(dense.store().dir());
    }

    #[test]
    fn http_routing_end_to_end_in_process() {
        let service = std::sync::Arc::new(Service::new(tempdir("routing")).unwrap());
        let req = |method: &str, path: &str, body: &str| Request {
            method: method.to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        };
        let health = service.handle(&req("GET", "/v1/healthz", ""));
        assert_eq!(health.status, 200);
        assert!(String::from_utf8(health.body).unwrap().contains("\"ok\""));

        let bad = service.handle(&req("POST", "/v1/race", "{nope"));
        assert_eq!(bad.status, 400);

        let body = r#"{
            "scenarios": [{"family": "adversarial", "m": 2, "n": 4, "seed": 9}],
            "policies": ["best-machine"],
            "trials": 4
        }"#;
        let first = service.handle(&req("POST", "/v1/race", body));
        assert_eq!(first.status, 200);
        let cache_header = |r: &Response| {
            r.headers
                .iter()
                .find(|(k, _)| k == "X-Suu-Cache")
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(cache_header(&first), "miss");
        let second = service.handle(&req("POST", "/v1/race", body));
        assert_eq!(second.status, 200);
        assert_eq!(cache_header(&second), "hit");
        assert_eq!(first.body, second.body, "replay must be byte-identical");

        let doc = suu_core::json::parse(std::str::from_utf8(&second.body).unwrap()).unwrap();
        let key = doc.get("cells").unwrap().as_array().unwrap()[0]
            .get("cell_key")
            .unwrap()
            .as_str()
            .unwrap();
        let cell = service.handle(&req("GET", &format!("/v1/cell/{key}"), ""));
        assert_eq!(cell.status, 200);
        assert!(String::from_utf8(cell.body)
            .unwrap()
            .contains(crate::cache::CELL_SCHEMA));
        assert_eq!(
            service
                .handle(&req("GET", "/v1/cell/ffffffffffffffff", ""))
                .status,
            404
        );

        let stats = service.handle(&req("GET", "/v1/stats", ""));
        let stats = suu_core::json::parse(std::str::from_utf8(&stats.body).unwrap()).unwrap();
        assert_eq!(stats.get("races").unwrap().as_u64(), Some(3));
        assert_eq!(stats.get("misses").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("hits").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("cells_on_disk").unwrap().as_u64(), Some(1));
        // Appended budget/backpressure fields (zeros until a budget or a
        // front end exists, except cache_bytes which mirrors the store).
        assert_eq!(stats.get("evictions").unwrap().as_u64(), Some(0));
        assert!(stats.get("cache_bytes").unwrap().as_u64().unwrap() > 0);
        assert_eq!(stats.get("queue_depth").unwrap().as_u64(), Some(0));
        assert_eq!(stats.get("rejected_429").unwrap().as_u64(), Some(0));
        service.attach_server_metrics(std::sync::Arc::new(crate::server::ServerMetrics::default()));
        let stats = service.handle(&req("GET", "/v1/stats", ""));
        assert_eq!(stats.status, 200);

        assert_eq!(service.handle(&req("GET", "/nope", "")).status, 404);
        assert_eq!(service.handle(&req("DELETE", "/v1/race", "")).status, 405);

        // A torn cell is recomputed: the reply is the first one's bytes,
        // and the recovery is counted.
        let dir = service.store().dir().to_path_buf();
        let cell_path = dir.join(format!("{key}.json"));
        let bytes = std::fs::read(&cell_path).unwrap();
        std::fs::write(&cell_path, &bytes[..100]).unwrap();
        let torn = service.handle(&req("POST", "/v1/race", body));
        assert_eq!(torn.status, 200);
        assert_eq!(cache_header(&torn), "miss");
        assert_eq!(torn.body, first.body, "a recomputed cell is byte-identical");
        let recovered = || service.stats_json().get("corrupt_recovered")?.as_u64();
        assert_eq!(recovered(), Some(1));
        assert_eq!(
            service.handle(&req("POST", "/v1/race", body)).body,
            first.body,
            "and the rewritten cell replays"
        );

        // A cell file holding another key's cell is a collision: a 500
        // whose body names the cell, not where the cache lives.
        let foreign = suu_core::json::parse(&std::fs::read_to_string(&cell_path).unwrap())
            .unwrap()
            .field("cell_key_canonical", "{}");
        std::fs::write(&cell_path, foreign.to_pretty()).unwrap();
        let clash = service.handle(&req("POST", "/v1/race", body));
        assert_eq!(clash.status, 500);
        let text = String::from_utf8(clash.body).unwrap();
        assert!(text.contains("collision"), "{text}");
        assert!(text.contains(&format!("cell {key}")), "{text}");
        assert!(!text.contains(std::path::MAIN_SEPARATOR), "{text}");
        let dir_name = dir.file_name().unwrap().to_str().unwrap();
        assert!(!text.contains(dir_name), "{text}");
        assert_eq!(recovered(), Some(1), "a collision is never overwritten");
        assert_eq!(
            std::fs::read(&cell_path).unwrap(),
            foreign.to_pretty().as_bytes()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An independent and a chains scenario (so both LP1 and LP2 run),
    /// two policies each.
    fn ratio_request(trials: u64, ratios: bool) -> RaceRequest {
        let text = format!(
            r#"{{
                "scenarios": [{{"family": "uniform", "m": 3, "n": 6,
                                "lo": 0.3, "hi": 0.9, "seed": 7}},
                              {{"family": "chains", "m": 3, "n": 8,
                                "chains": 3, "seed": 4}}],
                "policies": ["gang-sequential", "greedy-lr"],
                "trials": {trials},
                "master_seed": 21,
                "ratios_to_lower_bound": {ratios}
            }}"#
        );
        RaceRequest::from_json(&suu_core::json::parse(&text).unwrap()).unwrap()
    }

    fn bounds_solved(service: &Service) -> u64 {
        let stats = service.stats_json();
        stats.get("bounds_solved").and_then(Json::as_u64).unwrap()
    }

    /// Each cell of a response: its key, its body's `lower_bound` and
    /// the `lower_bound` its cache file records.
    fn cell_bounds(service: &Service, doc: &Json) -> Vec<(String, Option<f64>, Option<f64>)> {
        let cells = doc.get("cells").and_then(Json::as_array).unwrap();
        cells
            .iter()
            .map(|cell| {
                let key = cell.get("cell_key").and_then(Json::as_str).unwrap();
                let file = suu_core::json::parse(&service.store().raw(key).unwrap()).unwrap();
                (
                    key.to_string(),
                    cell.get("lower_bound").and_then(Json::as_f64),
                    file.get("lower_bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    /// Every file of the cache directory, with its bytes.
    fn files(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().into_string().unwrap(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn a_ratio_race_records_the_bound_and_its_replay_solves_no_lp() {
        let service = Service::new(tempdir("bound-replay")).unwrap();
        let race = ratio_request(8, true);
        let (cold, counts) = service.evaluate(&race).unwrap();
        assert_eq!((counts.misses, counts.hits), (4, 0));
        assert_eq!(bounds_solved(&service), 2, "one solve per scenario");
        // Cells run scenario-major: two per scenario, each recording the
        // bound bitwise as `lower_bound` computes it and the body says.
        let bounds = cell_bounds(&service, &cold);
        assert_eq!(bounds.len(), 4);
        for (rs, pair) in race.scenarios.iter().zip(bounds.chunks(2)) {
            let lb = suu_algos::bounds::lower_bound(&rs.scenario.instantiate()).unwrap();
            for (key, in_body, in_file) in pair {
                assert_eq!(in_body.map(f64::to_bits), Some(lb.to_bits()), "{key}");
                assert_eq!(in_file.map(f64::to_bits), Some(lb.to_bits()), "{key}");
            }
        }
        // The replay is a byte-identical hit that solves nothing and
        // writes nothing.
        let before = files(service.store().dir());
        let (replay, counts) = service.evaluate(&race).unwrap();
        assert_eq!(counts.label(), "hit");
        assert_eq!(replay.to_pretty(), cold.to_pretty());
        assert_eq!(bounds_solved(&service), 2);
        assert!(
            files(service.store().dir()) == before,
            "a hit writes no byte"
        );
        let _ = std::fs::remove_dir_all(service.store().dir());
    }

    #[test]
    fn an_extend_keeps_a_bound_and_records_a_missing_one() {
        // Cells computed with ratios keep their bound through an extend
        // that does not ask for ratios.
        let service = Service::new(tempdir("bound-kept")).unwrap();
        let (cold, _) = service.evaluate(&ratio_request(8, true)).unwrap();
        let recorded = cell_bounds(&service, &cold);
        let (grown, counts) = service.evaluate(&ratio_request(16, false)).unwrap();
        assert_eq!(counts.label(), "extended");
        assert_eq!(
            bounds_solved(&service),
            2,
            "an extend without ratios solves none"
        );
        for ((key, _, before), (grown_key, in_body, after)) in
            recorded.iter().zip(cell_bounds(&service, &grown))
        {
            assert_eq!(key, &grown_key);
            assert_eq!(in_body, None, "no ratios were asked for");
            assert_eq!(after.map(f64::to_bits), before.map(f64::to_bits), "{key}");
        }
        let _ = std::fs::remove_dir_all(service.store().dir());

        // Cells computed without ratios: a ratio hit solves the bound and
        // still writes nothing; the next extend records it, and its
        // replay solves nothing.
        let service = Service::new(tempdir("bound-recorded")).unwrap();
        service.evaluate(&ratio_request(8, false)).unwrap();
        let before = files(service.store().dir());
        let (hit, counts) = service.evaluate(&ratio_request(8, true)).unwrap();
        assert_eq!(counts.label(), "hit");
        assert_eq!(bounds_solved(&service), 2);
        assert!(
            files(service.store().dir()) == before,
            "a hit writes no byte"
        );
        assert!(cell_bounds(&service, &hit).iter().all(|b| b.2.is_none()));
        let (grown, counts) = service.evaluate(&ratio_request(16, true)).unwrap();
        assert_eq!(counts.label(), "extended");
        assert_eq!(bounds_solved(&service), 4);
        for (key, in_body, in_file) in cell_bounds(&service, &grown) {
            assert!(in_body.is_some(), "{key}");
            assert_eq!(
                in_file.map(f64::to_bits),
                in_body.map(f64::to_bits),
                "{key}"
            );
        }
        let (replay, counts) = service.evaluate(&ratio_request(16, true)).unwrap();
        assert_eq!(counts.label(), "hit");
        assert_eq!(replay.to_pretty(), grown.to_pretty());
        assert_eq!(bounds_solved(&service), 4);
        let _ = std::fs::remove_dir_all(service.store().dir());
    }

    /// A daemon cell and a runner cell with the same identity are the
    /// same numbers: one request, evaluated by the daemon and by the
    /// offline runner, gives the same scenarios, policies and cells once
    /// the daemon's `cell_key` and the runner's wall clocks are removed.
    #[test]
    fn a_daemon_cell_equals_the_runner_cell() {
        use suu_bench::runner::{run_race_with, Race};
        let text = r#"{
            "scenarios": [{"family": "uniform", "m": 3, "n": 6,
                            "lo": 0.3, "hi": 0.9, "seed": 7},
                          {"family": "chains", "m": 3, "n": 8,
                            "chains": 3, "seed": 4}],
            "policies": ["greedy-lr", "suu-c", "suu-i-obl"],
            "precision": {"half_width": 0.1, "relative": true,
                          "min_trials": 8, "max_trials": 48},
            "master_seed": 23,
            "semantics": "suu",
            "ratios_to_lower_bound": true
        }"#;
        // `Scenario` is not `Clone`, so each side parses its own copy.
        let parse = || RaceRequest::from_json(&suu_core::json::parse(text).unwrap()).unwrap();
        let service = Service::new(tempdir("daemon-equals-runner")).unwrap();
        let (daemon, _) = service.evaluate(&parse()).unwrap();
        let race = parse();
        let runner = run_race_with(
            Race {
                scenarios: race.scenarios.into_iter().map(|rs| rs.scenario).collect(),
                policies: race.policies,
                precision: race.precision,
                master_seed: race.master_seed,
                exec: race.exec,
                ratios_to_lower_bound: race.ratios_to_lower_bound,
                ..Race::default()
            },
            &suu_algos::standard_registry(),
        );
        let cells = |doc: &Json| -> Vec<Json> {
            let cells = doc.get("cells").and_then(Json::as_array).unwrap();
            let without = |cell: &Json| match cell {
                Json::Obj(fields) => Json::Obj(
                    fields
                        .iter()
                        .filter(|(k, _)| k != "cell_key" && k != "wall_clock_s")
                        .cloned()
                        .collect(),
                ),
                other => panic!("a cell is an object: {other:?}"),
            };
            cells.iter().map(without).collect()
        };
        // suu-i-obl skips the chains scenario; every other cell ran and
        // carries its ratio.
        let daemon_cells = cells(&daemon);
        let (skipped, ran): (Vec<_>, Vec<_>) = daemon_cells
            .iter()
            .partition(|c| c.get("skipped").is_some());
        assert_eq!((skipped.len(), ran.len()), (1, 5));
        assert!(ran.iter().all(|c| c.get("ratio_to_lb").is_some()));
        assert_eq!(daemon_cells, cells(&runner));
        for field in ["scenarios", "policies"] {
            assert_eq!(daemon.get(field), runner.get(field), "{field}");
        }
        let _ = std::fs::remove_dir_all(service.store().dir());
    }
}
