//! The traced run: spans recorded in the benchmark's own code around
//! each public call a `POST /v1/race` makes, on the same inputs and a
//! copy of the same cache state as the untraced path.
//!
//! [`traced_race`] calls the public functions `suu_serve::Service::handle`
//! calls — in the same order, with the same arguments — and records one
//! span per call. Each request is also answered by a real, untimed-inside
//! `Service::handle` on a second copy of the cache; the two must produce
//! byte-identical wire responses, and the gap between the traced total
//! and the timed real call is reported as the tracing overhead instead of
//! being hidden. Spans stay in memory and are written out at the end.

use crate::procs::raw_request;
use crate::workloads::Ctx;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use suu_algos::bounds::lower_bound;
use suu_bench::report::ResultsBuilder;
use suu_bench::request::RaceRequest;
use suu_bench::runner::scenario_master_seed;
use suu_core::json::Json;
use suu_core::profile::ProfileMode;
use suu_serve::http::{parse_request, Parsed, Request, Response};
use suu_serve::service::semantics_str;
use suu_serve::{
    cell_key_fields, CacheCounts, CacheStatus, CellKey, CellStore, ServeError, Service,
};
use suu_sim::{
    BatchRunner, EvalConfig, EvalStats, Evaluator, PolicyRegistry, PolicySpec, Precision,
    RegistryError, StopReason,
};

/// One recorded call.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: usize,
}

/// In-memory span recorder plus per-request counters.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    request: usize,
    /// `(request, counter)` → value.
    pub counts: BTreeMap<(usize, &'static str), u64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin_request(&mut self, request: usize) {
        self.request = request;
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
    }

    /// Time a leaf call.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry((self.request, name)).or_insert(0) += n;
    }

    /// Per-request self time (ns) and call count of every span name.
    /// Self time is a span's duration minus the part its children cover.
    pub fn self_times(&self) -> BTreeMap<usize, BTreeMap<&'static str, (u64, u64)>> {
        let mut own: Vec<i128> = self
            .spans
            .iter()
            .map(|s| i128::from(s.end_ns - s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= i128::from(s.end_ns - s.start_ns);
            }
        }
        let mut out: BTreeMap<usize, BTreeMap<&'static str, (u64, u64)>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            let slot = out
                .entry(s.request)
                .or_default()
                .entry(s.name)
                .or_insert((0, 0));
            slot.0 += u64::try_from(t.max(0)).unwrap_or(0);
            slot.1 += 1;
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, |p| Json::UInt(p as u64));
            let line = Json::obj()
                .field("id", id)
                .field("request", s.request)
                .field("name", s.name)
                .field("parent", parent)
                .field("start_ns", s.start_ns)
                .field("end_ns", s.end_ns);
            text.push_str(&line.to_compact());
            text.push('\n');
        }
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// Outcome of one cell, as `Service`'s private cell path produces it.
enum CellError {
    Registry(RegistryError),
    Cache(String),
}

/// The traced twin of `Service::handle` for `POST /v1/race`.
pub fn traced_race(
    t: &mut Tracer,
    store: &CellStore,
    registry: &PolicyRegistry,
    req: &Request,
) -> Response {
    let root = t.enter("service.handle");
    let response = race(t, store, registry, req);
    t.exit(root);
    response
}

fn race(t: &mut Tracer, store: &CellStore, registry: &PolicyRegistry, req: &Request) -> Response {
    let parsed = t.span("request.parse", || {
        std::str::from_utf8(&req.body)
            .map_err(|_| "body is not UTF-8".to_string())
            .and_then(|text| suu_core::json::parse(text).map_err(|e| e.to_string()))
            .and_then(|json| RaceRequest::from_json(&json))
    });
    let race = match parsed {
        Ok(race) => race,
        Err(e) => return Response::text(400, format!("bad request: {e}")),
    };
    match evaluate(t, store, registry, &race) {
        Ok((doc, counts)) => {
            let body = t.span("json.encode", || doc.to_pretty());
            Response::json(200, body)
                .with_header("X-Suu-Cache", counts.label())
                .with_header("X-Suu-Cache-Hits", counts.hits.to_string())
                .with_header("X-Suu-Cache-Misses", counts.misses.to_string())
                .with_header("X-Suu-Cache-Extended", counts.extends.to_string())
        }
        Err(ServeError::BadRequest(e)) => Response::text(400, format!("bad request: {e}")),
        Err(ServeError::Internal(e)) => Response::text(500, format!("error: {e}")),
    }
}

fn evaluate(
    t: &mut Tracer,
    store: &CellStore,
    registry: &PolicyRegistry,
    race: &RaceRequest,
) -> Result<(Json, CacheCounts), ServeError> {
    let specs: Vec<PolicySpec> = t.span("request.parse", || {
        race.policies
            .iter()
            .map(|p| {
                PolicySpec::parse(p)
                    .map_err(|e| ServeError::BadRequest(format!("bad policy spec {p:?}: {e}")))
            })
            .collect::<Result<_, _>>()
    })?;
    let mut builder = t.span("report.build", || {
        ResultsBuilder::new("suud".to_string()).record_wall_clocks(false)
    });
    let mut counts = CacheCounts::default();

    for rs in &race.scenarios {
        t.span("report.build", || builder.add_scenario(&rs.scenario));
        let inst = t.span("scenario.instantiate", || rs.scenario.instantiate());
        let lb_result = race.ratios_to_lower_bound.then(|| {
            t.count("bounds.calls", 1);
            t.span("bounds.lower_bound", || {
                lower_bound(&inst).map_err(|e| e.to_string())
            })
        });
        let lb = lb_result.as_ref().and_then(|r| r.as_ref().ok()).copied();
        let lb_error = lb_result.as_ref().and_then(|r| r.as_ref().err()).cloned();
        let evaluator = Evaluator::new(EvalConfig {
            trials: race.precision.max_trials(),
            master_seed: scenario_master_seed(race.master_seed, &rs.scenario),
            threads: 0,
            exec: race.exec,
            ..EvalConfig::default()
        });

        for (spec, policy_text) in specs.iter().zip(&race.policies) {
            let key = t.span("cache.key", || {
                CellKey::new(&cell_key_fields(
                    &rs.params,
                    policy_text,
                    race.master_seed,
                    semantics_str(race.exec.semantics),
                    race.exec.max_steps,
                ))
            });
            let guard = t.enter("cache.inflight");
            let result = store.with_inflight(&key, || {
                cell(
                    t,
                    store,
                    registry,
                    &key,
                    &evaluator,
                    &inst,
                    spec,
                    race.precision,
                )
            });
            t.exit(guard);
            match result {
                Ok((stats, stop_reason, status)) => {
                    match status {
                        CacheStatus::Hit => counts.hits += 1,
                        CacheStatus::Miss => counts.misses += 1,
                        CacheStatus::Extended => counts.extends += 1,
                    }
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
                    t.span("report.build", || {
                        builder.add_cell(&rs.scenario.id, policy_text, &stats, &extra)
                    });
                }
                Err(CellError::Registry(e @ RegistryError::UnsupportedStructure { .. })) => {
                    t.span("report.build", || {
                        builder.add_failure(&rs.scenario.id, policy_text, "skipped", e.to_string())
                    });
                }
                Err(CellError::Registry(e)) => {
                    t.span("report.build", || {
                        builder.add_failure(&rs.scenario.id, policy_text, "error", e.to_string())
                    });
                }
                Err(CellError::Cache(e)) => return Err(ServeError::Internal(e)),
            }
        }
    }
    Ok((t.span("report.build", || builder.finish()), counts))
}

#[allow(clippy::too_many_arguments)]
fn cell(
    t: &mut Tracer,
    store: &CellStore,
    registry: &PolicyRegistry,
    key: &CellKey,
    evaluator: &Evaluator,
    inst: &std::sync::Arc<suu_core::SuuInstance>,
    spec: &PolicySpec,
    precision: Precision,
) -> Result<(EvalStats, StopReason, CacheStatus), CellError> {
    match t
        .span("cache.load", || store.load(key))
        .map_err(CellError::Cache)?
    {
        Some(cached) => {
            let trials = cached.stats.trials() as usize;
            let (mean, ci95) = match cached.stats.summary() {
                Some(s) => (s.mean, s.ci95),
                None => (0.0, f64::INFINITY),
            };
            if let Some(reason) = precision.check(trials, mean, ci95) {
                store.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((cached.stats, reason, CacheStatus::Hit));
            }
            let before = cached.stats.trials();
            let adaptive = t
                .span("evaluate.extend", || {
                    evaluator.resume_adaptive_spec(registry, inst, spec, cached.stats, precision)
                })
                .map_err(CellError::Registry)?;
            t.count("evaluate.trials", adaptive.stats.trials() - before);
            t.span("cache.store", || {
                store.store(
                    key,
                    &adaptive.stats.policy,
                    &adaptive.stats,
                    adaptive.stop_reason.as_str(),
                )
            })
            .map_err(CellError::Cache)?;
            store.extends.fetch_add(1, Ordering::Relaxed);
            Ok((adaptive.stats, adaptive.stop_reason, CacheStatus::Extended))
        }
        None => {
            let adaptive = t
                .span("evaluate.miss", || {
                    evaluator.run_adaptive_spec(registry, inst, spec, precision)
                })
                .map_err(CellError::Registry)?;
            t.count("evaluate.trials", adaptive.stats.trials());
            t.span("cache.store", || {
                store.store(
                    key,
                    &adaptive.stats.policy,
                    &adaptive.stats,
                    adaptive.stop_reason.as_str(),
                )
            })
            .map_err(CellError::Cache)?;
            store.misses.fetch_add(1, Ordering::Relaxed);
            Ok((adaptive.stats, adaptive.stop_reason, CacheStatus::Miss))
        }
    }
}

fn parse(raw: &[u8]) -> Result<Request, String> {
    match parse_request(raw) {
        Parsed::Complete { request, .. } => Ok(request),
        other => Err(format!("benchmark request does not parse: {other:?}")),
    }
}

/// What one traced replay measured.
pub struct Replay {
    pub tracer: Tracer,
    /// Timed `Service::handle` per replayed request, µs.
    pub handle_us: Vec<f64>,
    /// The traced twin's `service.handle` span per request, µs.
    pub traced_us: Vec<f64>,
    /// Wire-response bodies of the real handler, in request order.
    pub bodies: Vec<Vec<u8>>,
    /// Requests whose traced and real responses differ.
    pub mismatches: Vec<String>,
}

/// Replay `bodies` in order: each through a real `Service` over `dir_a`
/// (timed as one call) and through [`traced_race`] over `dir_b`, two
/// copies of the same cache state. Which of the two goes first
/// alternates per request. Stops after `budget` (at least one request).
pub fn replay(
    ctx: &Ctx,
    bodies: &[Vec<u8>],
    dir_a: &Path,
    dir_b: &Path,
    budget: Duration,
) -> Result<Replay, String> {
    let service = Service::new(dir_a).map_err(|e| format!("open {}: {e}", dir_a.display()))?;
    let store = CellStore::open(dir_b).map_err(|e| format!("open {}: {e}", dir_b.display()))?;
    let registry = suu_algos::standard_registry();
    let mut out = Replay {
        tracer: Tracer::new(),
        handle_us: Vec::new(),
        traced_us: Vec::new(),
        bodies: Vec::new(),
        mismatches: Vec::new(),
    };
    let started = Instant::now();
    for (i, body) in bodies.iter().enumerate() {
        if i > 0 && started.elapsed() > budget {
            break;
        }
        let raw = raw_request(body);
        let real = || -> Result<(Vec<u8>, Vec<u8>, f64), String> {
            let req = parse(&raw)?;
            let t0 = Instant::now();
            let resp = service.handle(&req);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            Ok((resp.to_bytes(true), resp.body, us))
        };
        let traced = |tracer: &mut Tracer| -> Vec<u8> {
            tracer.begin_request(i);
            let root = tracer.enter("request");
            let req = tracer.span("http.parse", || parse(&raw));
            let wire = match req {
                Ok(req) => {
                    let resp = traced_race(tracer, &store, &registry, &req);
                    tracer.span("http.encode", || resp.to_bytes(true))
                }
                Err(e) => e.into_bytes(),
            };
            tracer.exit(root);
            wire
        };
        let (real_wire, real_body, us, traced_wire) = if i % 2 == 0 {
            let (w, b, us) = real()?;
            (w, b, us, traced(&mut out.tracer))
        } else {
            let tw = traced(&mut out.tracer);
            let (w, b, us) = real()?;
            (w, b, us, tw)
        };
        let traced_wire = if i == 0 {
            ctx.planted("twin-wire", traced_wire)
        } else {
            traced_wire
        };
        if real_wire != traced_wire {
            out.mismatches.push(format!(
                "request {i}: traced response differs from Service::handle"
            ));
        }
        let root = out
            .tracer
            .spans
            .iter()
            .rev()
            .find(|s| s.request == i && s.name == "service.handle")
            .map_or(0, |s| s.end_ns - s.start_ns);
        out.traced_us.push(root as f64 / 1e3);
        out.handle_us.push(us);
        out.bodies.push(real_body);
    }
    Ok(out)
}

/// Batch-engine phase shares and ratios from an exactly profiled
/// `BatchRunner` on the workload's own `(instance, policy)` pairs.
#[derive(Default)]
pub struct BatchProfile {
    pub phase_ns: BTreeMap<&'static str, u64>,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub stationary_trials: u64,
    pub fallback_trials: u64,
    pub pairs: usize,
}

impl BatchProfile {
    pub fn share(&self, phase: &str) -> f64 {
        let total: u64 = self.phase_ns.values().sum();
        if total == 0 {
            return 0.0;
        }
        self.phase_ns.get(phase).copied().unwrap_or(0) as f64 / total as f64
    }

    pub fn plan_hit_ratio(&self) -> f64 {
        ratio(self.plan_hits, self.plan_hits + self.plan_misses)
    }

    pub fn stationary_ratio(&self) -> f64 {
        ratio(
            self.stationary_trials,
            self.stationary_trials + self.fallback_trials,
        )
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Run each distinct `(scenario, policy)` of `bodies` (first appearance
/// order) through a profiled `BatchRunner` for the request's trial
/// ceiling, on the evaluator's own trial seeds. Stops after `budget`.
pub fn batch_profile(bodies: &[Vec<u8>], budget: Duration) -> Result<BatchProfile, String> {
    let registry = suu_algos::standard_registry();
    let mut seen: Vec<String> = Vec::new();
    let mut profile = BatchProfile::default();
    let started = Instant::now();
    for body in bodies {
        let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        let race = suu_core::json::parse(text)
            .map_err(|e| e.to_string())
            .and_then(|j| RaceRequest::from_json(&j))?;
        for rs in &race.scenarios {
            for policy in &race.policies {
                let id = format!("{}|{policy}", rs.params.to_canonical());
                if seen.contains(&id) {
                    continue;
                }
                if profile.pairs > 0 && started.elapsed() > budget {
                    return Ok(profile);
                }
                seen.push(id);
                let inst = rs.scenario.instantiate();
                let spec = PolicySpec::parse(policy).map_err(|e| e.to_string())?;
                let Ok(mut policy) = registry.build(&inst, &spec) else {
                    continue;
                };
                let evaluator = Evaluator::new(EvalConfig {
                    trials: race.precision.max_trials(),
                    master_seed: scenario_master_seed(race.master_seed, &rs.scenario),
                    exec: race.exec,
                    ..EvalConfig::default()
                });
                let mut runner =
                    BatchRunner::new(&inst, &race.exec).with_profile(ProfileMode::Exact);
                let n = race.precision.max_trials();
                for lo in (0..n).step_by(suu_sim::evaluate::DEFAULT_BATCH) {
                    let hi = (lo + suu_sim::evaluate::DEFAULT_BATCH).min(n);
                    runner.run(&mut *policy, &evaluator.trial_batch(lo, hi));
                }
                let m = runner.metrics();
                if let Some(report) = m.profile {
                    for phase in report.phases {
                        *profile.phase_ns.entry(phase.name).or_insert(0) += phase.nanos;
                    }
                }
                profile.plan_hits += m.cache_hits;
                profile.plan_misses += m.cache_misses;
                profile.stationary_trials += m.stationary_trials;
                profile.fallback_trials += m.fallback_trials;
                profile.pairs += 1;
            }
        }
    }
    Ok(profile)
}
