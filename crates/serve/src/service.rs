//! The daemon's application logic: routing, race evaluation through the
//! cache, and the observability endpoints.
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
//!   engine, and its checkpoint records `"engine": "events"`.

use crate::cache::{cell_key_fields, CellKey, CellStore};
use crate::http::{Request, Response};
use crate::server::ServerMetrics;
use std::cell::OnceCell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use suu_algos::bounds::lower_bound;
use suu_bench::report::ResultsBuilder;
use suu_bench::request::RaceRequest;
use suu_bench::runner::scenario_master_seed;
use suu_core::json::Json;
use suu_sim::{
    EvalConfig, EvalStats, Evaluator, PolicyRegistry, PolicySpec, Precision, RegistryError,
    Semantics, StopReason,
};

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
}

/// Errors from the evaluation path, mapped to HTTP statuses.
#[derive(Debug)]
pub enum ServeError {
    /// The request was malformed (400).
    BadRequest(String),
    /// The cache or evaluator failed server-side (500).
    Internal(String),
}

/// The daemon state shared by every worker thread.
pub struct Service {
    store: CellStore,
    registry: PolicyRegistry,
    /// Total `POST /v1/race` requests accepted.
    pub races: AtomicU64,
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
                let parsed = std::str::from_utf8(&req.body)
                    .map_err(|_| "body is not UTF-8".to_string())
                    .and_then(|text| suu_core::json::parse(text).map_err(|e| e.to_string()))
                    .and_then(|json| RaceRequest::from_json(&json));
                let race = match parsed {
                    Ok(race) => race,
                    Err(e) => return Response::text(400, format!("bad request: {e}")),
                };
                match self.evaluate(&race) {
                    Ok((doc, counts)) => Response::json(200, doc.to_pretty())
                        .with_header("X-Suu-Cache", counts.label())
                        .with_header("X-Suu-Cache-Hits", counts.hits.to_string())
                        .with_header("X-Suu-Cache-Misses", counts.misses.to_string())
                        .with_header("X-Suu-Cache-Extended", counts.extends.to_string()),
                    Err(ServeError::BadRequest(e)) => {
                        Response::text(400, format!("bad request: {e}"))
                    }
                    Err(ServeError::Internal(e)) => Response::text(500, format!("error: {e}")),
                }
            }
            ("GET" | "POST", _) => Response::text(404, "not found"),
            _ => Response::text(405, "method not allowed"),
        }
    }

    /// The `/v1/stats` document (live counters; `cells_on_disk` and
    /// `cache_bytes` come from the store's in-memory mirror, so a call
    /// reads no file). The original v1 fields keep their exact names and
    /// order — the budget/backpressure fields are strictly appended, so
    /// pre-existing consumers parse unchanged.
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
    }

    /// Evaluate a parsed race through the cache, producing the
    /// `suu-results/v2` response document (wall clocks off — see the
    /// module docs) and the cache accounting for the headers.
    pub fn evaluate(&self, race: &RaceRequest) -> Result<(Json, CacheCounts), ServeError> {
        let specs: Vec<PolicySpec> = race
            .policies
            .iter()
            .map(|p| {
                PolicySpec::parse(p)
                    .map_err(|e| ServeError::BadRequest(format!("bad policy spec {p:?}: {e}")))
            })
            .collect::<Result<_, _>>()?;

        let mut builder = ResultsBuilder::new("suud".to_string()).record_wall_clocks(false);
        let mut counts = CacheCounts::default();

        for rs in &race.scenarios {
            builder.add_scenario(&rs.scenario);
            // Built on first need: a hit reads only the cache, so a
            // request of hits without an LP bound never instantiates.
            let built = OnceCell::new();
            let inst = || built.get_or_init(|| rs.scenario.instantiate());
            let lb_result = race
                .ratios_to_lower_bound
                .then(|| lower_bound(inst()).map_err(|e| e.to_string()));
            let lb = lb_result.as_ref().and_then(|r| r.as_ref().ok()).copied();
            let lb_error = lb_result.as_ref().and_then(|r| r.as_ref().err()).cloned();

            let evaluator = Evaluator::new(EvalConfig {
                trials: race.precision.max_trials(),
                // Same derivation as the Race runner: identity-mixed
                // per-scenario stream, shared across the scenario's
                // policies.
                master_seed: scenario_master_seed(race.master_seed, &rs.scenario),
                threads: 0,
                exec: race.exec,
                ..EvalConfig::default()
            });

            for (spec, policy_text) in specs.iter().zip(&race.policies) {
                let key = CellKey::new(&cell_key_fields(
                    &rs.params,
                    policy_text,
                    race.master_seed,
                    race.exec.semantics.as_str(),
                    race.exec.max_steps,
                ));
                match self.evaluate_cell(&key, &evaluator, inst, spec, race.precision) {
                    Ok((stats, stop_reason, status)) => {
                        counts.record(status);
                        let mean = stats.mean_makespan();
                        let mut extra: Vec<(&str, Json)> = vec![
                            ("stop_reason", Json::Str(stop_reason.as_str().into())),
                            ("cell_key", Json::Str(key.hex.clone())),
                        ];
                        if let Some(lb) = lb {
                            extra.push(("lower_bound", Json::Num(lb)));
                            extra.push(("ratio_to_lb", Json::Num(mean / lb)));
                        }
                        if let Some(e) = &lb_error {
                            extra.push(("lower_bound_error", Json::Str(e.clone())));
                        }
                        builder.add_cell(&rs.scenario.id, policy_text, &stats, &extra);
                    }
                    Err(CellError::Registry(e @ RegistryError::UnsupportedStructure { .. })) => {
                        builder.add_failure(&rs.scenario.id, policy_text, "skipped", e.to_string());
                    }
                    Err(CellError::Registry(e)) => {
                        builder.add_failure(&rs.scenario.id, policy_text, "error", e.to_string());
                    }
                    Err(CellError::Cache(e)) => return Err(ServeError::Internal(e)),
                }
            }
        }

        Ok((builder.finish(), counts))
    }

    /// One cell through the cache, under the in-flight guard. `inst`
    /// builds the scenario, called only on a miss or an extend.
    fn evaluate_cell<'i>(
        &self,
        key: &CellKey,
        evaluator: &Evaluator,
        inst: impl Fn() -> &'i Arc<suu_core::SuuInstance>,
        spec: &PolicySpec,
        precision: Precision,
    ) -> Result<(EvalStats, StopReason, CacheStatus), CellError> {
        self.store.with_inflight(key, || {
            let (grown, status, counter) = match self.store.load(key).map_err(CellError::Cache)? {
                Some(cached) => {
                    if let Some(reason) = precision.check_sample(cached.stats.acc.makespan()) {
                        self.store.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok((cached.stats, reason, CacheStatus::Hit));
                    }
                    // Resume with the cell's own config (seed, semantics,
                    // step cap asserted to match inside).
                    let grown = evaluator.resume_adaptive_spec(
                        &self.registry,
                        inst(),
                        spec,
                        cached.stats,
                        precision,
                    );
                    (grown, CacheStatus::Extended, &self.store.extends)
                }
                None => {
                    let grown =
                        evaluator.run_adaptive_spec(&self.registry, inst(), spec, precision);
                    (grown, CacheStatus::Miss, &self.store.misses)
                }
            };
            let adaptive = grown.map_err(CellError::Registry)?;
            self.store
                .store(
                    key,
                    &adaptive.stats.policy,
                    &adaptive.stats,
                    adaptive.stop_reason.as_str(),
                )
                .map_err(CellError::Cache)?;
            counter.fetch_add(1, Ordering::Relaxed);
            Ok((adaptive.stats, adaptive.stop_reason, status))
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
pub const STATS_FIELDS: [&str; 12] = [
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

        // A torn cell answers 500, and the body names the cell, not
        // where the cache lives.
        let dir = service.store().dir().to_path_buf();
        let cell_path = dir.join(format!("{key}.json"));
        let bytes = std::fs::read(&cell_path).unwrap();
        std::fs::write(&cell_path, &bytes[..100]).unwrap();
        let torn = service.handle(&req("POST", "/v1/race", body));
        assert_eq!(torn.status, 500);
        let text = String::from_utf8(torn.body).unwrap();
        assert!(text.contains(&format!("cell {key}")), "{text}");
        assert!(!text.contains(std::path::MAIN_SEPARATOR), "{text}");
        let dir_name = dir.file_name().unwrap().to_str().unwrap();
        assert!(!text.contains(dir_name), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
