//! Wire form of a [`Race`](crate::runner::Race): the request schema the
//! `suu-serve` daemon accepts on `POST /v1/race`.
//!
//! A request names scenarios by **family + constructor parameters**
//! (never by opaque id — the id omits distribution parameters like a
//! uniform family's `[lo, hi)`), the policy specs to race, one stopping
//! rule, and the evaluation context:
//!
//! ```json
//! {
//!   "scenarios": [
//!     {"family": "uniform", "m": 3, "n": 8, "lo": 0.2, "hi": 0.9, "seed": 7},
//!     {"family": "chains",  "m": 3, "n": 9, "chains": 3, "seed": 11}
//!   ],
//!   "policies": ["greedy-lr", "suu-c"],
//!   "trials": 24,
//!   "master_seed": 99,
//!   "semantics": "suu-star",
//!   "ratios_to_lower_bound": false
//! }
//! ```
//!
//! `"trials": n` requests a fixed budget; an adaptive request instead
//! carries `"precision": {"half_width": 0.05, "relative": true,
//! "min_trials": 8, "max_trials": 512}`. Exactly one of the two must be
//! present. An `"engine"` field from older clients must be `"events"` or
//! `"dense"` and is otherwise ignored: there is one engine.
//!
//! Parsing **normalizes**: every scenario's parameters are re-emitted as
//! a fixed field set with fixed spellings ([`RequestScenario::params`]),
//! so two requests that differ only in JSON key order, whitespace, or
//! numeric spelling (`0.20` vs `0.2`) normalize identically — the
//! foundation of the daemon's content-addressed cache keys (canonical
//! JSON via [`Json::to_canonical`], hashed with [`suu_core::fnv1a`]).
//!
//! Sizes are capped ([`MAX_MACHINES`], [`MAX_JOBS`], [`MAX_TRIALS`],
//! [`MAX_SCENARIOS`], [`MAX_POLICIES`]) because this shape is parsed
//! from untrusted network input.

use crate::scenario::Scenario;
use suu_core::json::Json;
use suu_sim::{ExecConfig, Precision, Semantics};

/// Largest accepted `m`.
pub const MAX_MACHINES: u64 = 256;
/// Largest accepted `n` (total jobs, including mapreduce maps+reduces).
pub const MAX_JOBS: u64 = 4096;
/// Largest accepted trial budget (fixed or adaptive ceiling).
pub const MAX_TRIALS: u64 = 1 << 20;
/// Most scenarios per request.
pub const MAX_SCENARIOS: usize = 64;
/// Most policies per request.
pub const MAX_POLICIES: usize = 32;

/// One parsed scenario plus its normalized parameter object.
#[derive(Debug)]
pub struct RequestScenario {
    /// The instantiable scenario.
    pub scenario: Scenario,
    /// Normalized constructor parameters: fixed field set, canonical
    /// spellings. Hash `params.to_canonical()` for a content address.
    pub params: Json,
}

/// A parsed `POST /v1/race` request.
#[derive(Debug)]
pub struct RaceRequest {
    /// Scenarios to sweep, with normalized parameters.
    pub scenarios: Vec<RequestScenario>,
    /// Policy specs to race (textual form, validated downstream by the
    /// registry).
    pub policies: Vec<String>,
    /// The stopping rule (`trials` or `precision` in the wire form).
    pub precision: Precision,
    /// Race master seed (per-scenario seeds derive from it).
    pub master_seed: u64,
    /// Engine configuration.
    pub exec: ExecConfig,
    /// Compute LP lower bounds and report ratios.
    pub ratios_to_lower_bound: bool,
}

fn ctx_err(ctx: &str, msg: impl std::fmt::Display) -> String {
    format!("{ctx}: {msg}")
}

fn get_u64(obj: &Json, key: &str, ctx: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ctx_err(ctx, format!("missing non-negative integer '{key}'")))
}

fn get_f64(obj: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    let v = obj
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| ctx_err(ctx, format!("missing number '{key}'")))?;
    if !v.is_finite() {
        return Err(ctx_err(ctx, format!("'{key}' must be finite")));
    }
    Ok(v)
}

fn get_sized(obj: &Json, key: &str, max: u64, ctx: &str) -> Result<usize, String> {
    let v = get_u64(obj, key, ctx)?;
    if v == 0 || v > max {
        return Err(ctx_err(
            ctx,
            format!("'{key}' must be in 1..={max}, got {v}"),
        ));
    }
    Ok(v as usize)
}

impl RequestScenario {
    /// Parse one scenario object (`{"family": ..., ...}`), normalizing
    /// its parameters.
    pub fn from_json(v: &Json) -> Result<RequestScenario, String> {
        let family = v
            .get("family")
            .and_then(Json::as_str)
            .ok_or("scenario: missing string 'family'")?
            .to_string();
        let ctx = format!("scenario '{family}'");
        let seed = get_u64(v, "seed", &ctx)?;
        // Every family takes (m, n)-style sizes except mapreduce, which
        // splits n into maps × reduces.
        let mn = |v: &Json| -> Result<(usize, usize), String> {
            Ok((
                get_sized(v, "m", MAX_MACHINES, &ctx)?,
                get_sized(v, "n", MAX_JOBS, &ctx)?,
            ))
        };
        let base = Json::obj()
            .field("family", family.as_str())
            .field("seed", seed);
        let (scenario, params) = match family.as_str() {
            "uniform" => {
                let (m, n) = mn(v)?;
                let (lo, hi) = (get_f64(v, "lo", &ctx)?, get_f64(v, "hi", &ctx)?);
                if !(0.0 < lo && lo < hi && hi < 1.0) {
                    return Err(ctx_err(&ctx, "need 0 < lo < hi < 1"));
                }
                (
                    Scenario::uniform(m, n, lo, hi, seed),
                    base.field("m", m)
                        .field("n", n)
                        .field("lo", lo)
                        .field("hi", hi),
                )
            }
            "power-law" => {
                let (m, n) = mn(v)?;
                let q_base = get_f64(v, "q_base", &ctx)?;
                let alpha = get_f64(v, "alpha", &ctx)?;
                if !(0.0 < q_base && q_base < 1.0) || alpha <= 0.0 {
                    return Err(ctx_err(&ctx, "need 0 < q_base < 1 and alpha > 0"));
                }
                (
                    Scenario::power_law(m, n, q_base, alpha, seed),
                    base.field("m", m)
                        .field("n", n)
                        .field("q_base", q_base)
                        .field("alpha", alpha),
                )
            }
            "chains" => {
                let (m, n) = mn(v)?;
                let chains = get_sized(v, "chains", n as u64, &ctx)?;
                (
                    Scenario::chains(m, n, chains, seed),
                    base.field("m", m).field("n", n).field("chains", chains),
                )
            }
            "forest" => {
                let (m, n) = mn(v)?;
                let roots = get_sized(v, "roots", n as u64, &ctx)?;
                (
                    Scenario::forest(m, n, roots, seed),
                    base.field("m", m).field("n", n).field("roots", roots),
                )
            }
            "in-forest" => {
                let (m, n) = mn(v)?;
                let roots = get_sized(v, "roots", n as u64, &ctx)?;
                (
                    Scenario::in_forest(m, n, roots, seed),
                    base.field("m", m).field("n", n).field("roots", roots),
                )
            }
            "mapreduce" => {
                let m = get_sized(v, "m", MAX_MACHINES, &ctx)?;
                let maps = get_sized(v, "maps", MAX_JOBS, &ctx)?;
                let reduces = get_sized(v, "reduces", MAX_JOBS, &ctx)?;
                if (maps + reduces) as u64 > MAX_JOBS {
                    return Err(ctx_err(&ctx, format!("maps + reduces exceeds {MAX_JOBS}")));
                }
                (
                    Scenario::mapreduce(maps, reduces, m, seed),
                    base.field("m", m)
                        .field("maps", maps)
                        .field("reduces", reduces),
                )
            }
            "layered" => {
                let (m, n) = mn(v)?;
                let layers = get_sized(v, "layers", n as u64, &ctx)?;
                let density = get_f64(v, "density", &ctx)?;
                if !(0.0..=1.0).contains(&density) {
                    return Err(ctx_err(&ctx, "need 0 <= density <= 1"));
                }
                (
                    Scenario::layered(m, n, layers, density, seed),
                    base.field("m", m)
                        .field("n", n)
                        .field("layers", layers)
                        .field("density", density),
                )
            }
            "bimodal" => {
                let (m, n) = mn(v)?;
                let frac_good = get_f64(v, "frac_good", &ctx)?;
                if !(0.0..=1.0).contains(&frac_good) {
                    return Err(ctx_err(&ctx, "need 0 <= frac_good <= 1"));
                }
                (
                    Scenario::bimodal(m, n, frac_good, seed),
                    base.field("m", m)
                        .field("n", n)
                        .field("frac_good", frac_good),
                )
            }
            "hetero-pareto" => {
                let (m, n) = mn(v)?;
                let q_floor = get_f64(v, "q_floor", &ctx)?;
                let alpha = get_f64(v, "alpha", &ctx)?;
                if !(0.0 < q_floor && q_floor < 1.0) || alpha <= 0.0 {
                    return Err(ctx_err(&ctx, "need 0 < q_floor < 1 and alpha > 0"));
                }
                (
                    Scenario::hetero_pareto(m, n, q_floor, alpha, seed),
                    base.field("m", m)
                        .field("n", n)
                        .field("q_floor", q_floor)
                        .field("alpha", alpha),
                )
            }
            "adversarial" => {
                let (m, n) = mn(v)?;
                (
                    Scenario::adversarial(m, n, seed),
                    base.field("m", m).field("n", n),
                )
            }
            other => return Err(format!("unknown scenario family {other:?}")),
        };
        Ok(RequestScenario { scenario, params })
    }
}

/// Parse the stopping rule: exactly one of `"trials": n` or
/// `"precision": {...}`.
fn parse_precision(v: &Json) -> Result<Precision, String> {
    match (v.get("trials"), v.get("precision")) {
        (Some(_), Some(_)) => Err("give either 'trials' or 'precision', not both".into()),
        (Some(t), None) => {
            let n = t
                .as_u64()
                .ok_or("'trials' must be a non-negative integer")?;
            if n == 0 || n > MAX_TRIALS {
                return Err(format!("'trials' must be in 1..={MAX_TRIALS}, got {n}"));
            }
            Ok(Precision::FixedTrials(n as usize))
        }
        (None, Some(p)) => {
            let ctx = "precision";
            let half_width = get_f64(p, "half_width", ctx)?;
            if half_width <= 0.0 {
                return Err("precision: 'half_width' must be positive".into());
            }
            let relative = p
                .get("relative")
                .map(|r| r.as_bool().ok_or("precision: 'relative' must be a bool"))
                .transpose()?
                .unwrap_or(false);
            let min_trials = get_sized(p, "min_trials", MAX_TRIALS, ctx)?;
            let max_trials = get_sized(p, "max_trials", MAX_TRIALS, ctx)?;
            if min_trials > max_trials {
                return Err("precision: min_trials exceeds max_trials".into());
            }
            Ok(Precision::TargetCi {
                half_width,
                relative,
                min_trials,
                max_trials,
            })
        }
        (None, None) => Err("missing stopping rule: give 'trials' or 'precision'".into()),
    }
}

impl RaceRequest {
    /// Parse and validate a full request document.
    pub fn from_json(v: &Json) -> Result<RaceRequest, String> {
        let scenarios_json = v
            .get("scenarios")
            .and_then(Json::as_array)
            .ok_or("missing array 'scenarios'")?;
        if scenarios_json.is_empty() || scenarios_json.len() > MAX_SCENARIOS {
            return Err(format!("'scenarios' must have 1..={MAX_SCENARIOS} entries"));
        }
        let scenarios = scenarios_json
            .iter()
            .map(RequestScenario::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        {
            let mut ids: Vec<String> = scenarios.iter().map(|s| s.params.to_canonical()).collect();
            ids.sort_unstable();
            ids.dedup();
            if ids.len() != scenarios.len() {
                return Err("duplicate scenario in request".into());
            }
        }

        let policies_json = v
            .get("policies")
            .and_then(Json::as_array)
            .ok_or("missing array 'policies'")?;
        if policies_json.is_empty() || policies_json.len() > MAX_POLICIES {
            return Err(format!("'policies' must have 1..={MAX_POLICIES} entries"));
        }
        let policies = policies_json
            .iter()
            .map(|p| {
                p.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "policies entries must be strings".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;

        let precision = parse_precision(v)?;

        let master_seed = match v.get("master_seed") {
            Some(s) => s
                .as_u64()
                .ok_or("'master_seed' must be a non-negative integer")?,
            None => 0x5EED,
        };

        let mut exec = ExecConfig::default();
        if let Some(s) = v.get("semantics") {
            exec.semantics = s
                .as_str()
                .and_then(Semantics::parse)
                .ok_or("'semantics' must be \"suu\" or \"suu-star\"")?;
        }
        // Older clients may still send "engine": accept its two old
        // values so they keep working, and ignore it (there is one
        // engine).
        if let Some(e) = v.get("engine") {
            e.as_str()
                .filter(|e| matches!(*e, "events" | "dense"))
                .ok_or("'engine' must be \"events\" or \"dense\"")?;
        }
        if let Some(ms) = v.get("max_steps") {
            exec.max_steps = ms
                .as_u64()
                .filter(|&s| s > 0)
                .ok_or("'max_steps' must be a positive integer")?;
        }

        let ratios_to_lower_bound = match v.get("ratios_to_lower_bound") {
            Some(r) => r
                .as_bool()
                .ok_or("'ratios_to_lower_bound' must be a bool")?,
            None => false,
        };

        Ok(RaceRequest {
            scenarios,
            policies,
            precision,
            master_seed,
            exec,
            ratios_to_lower_bound,
        })
    }

    /// The wire form of the **single-cell sub-request** for
    /// `(scenarios[scenario], policies[policy])`: same stopping rule,
    /// master seed, and execution context as the whole request, so the
    /// cell a backend computes for it is bit-identical to the one it
    /// would compute inside the full request (per-scenario seeds derive
    /// only from `master_seed` and the scenario itself). Every execution
    /// field is spelled out explicitly (even where it matches a default),
    /// so the sub-request re-parses to the same cell regardless of how
    /// future defaults drift — the property the router needs to forward
    /// cells to backends without changing their meaning (or their
    /// content-addressed cell keys).
    pub fn cell_request_json(&self, scenario: usize, policy: usize) -> Json {
        let mut doc = Json::obj()
            .field(
                "scenarios",
                Json::Arr(vec![self.scenarios[scenario].params.clone()]),
            )
            .field(
                "policies",
                Json::Arr(vec![Json::Str(self.policies[policy].clone())]),
            );
        doc = match self.precision {
            Precision::FixedTrials(n) => doc.field("trials", n as u64),
            Precision::TargetCi {
                half_width,
                relative,
                min_trials,
                max_trials,
            } => doc.field(
                "precision",
                Json::obj()
                    .field("half_width", half_width)
                    .field("relative", relative)
                    .field("min_trials", min_trials as u64)
                    .field("max_trials", max_trials as u64),
            ),
        };
        doc.field("master_seed", self.master_seed)
            .field("semantics", self.exec.semantics.as_str())
            .field("max_steps", self.exec.max_steps)
            .field("ratios_to_lower_bound", self.ratios_to_lower_bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suu_core::json::parse;

    fn req(text: &str) -> Result<RaceRequest, String> {
        RaceRequest::from_json(&parse(text).expect("test request is valid JSON"))
    }

    #[test]
    fn full_request_parses_and_normalizes() {
        // Deliberately scrambled key order and redundant float spellings.
        let r = req(r#"{
            "policies": ["greedy-lr", "suu-c"],
            "trials": 24,
            "scenarios": [
                {"seed": 7, "n": 8, "family": "uniform", "hi": 0.90, "m": 3, "lo": 0.20},
                {"family": "chains", "m": 3, "n": 9, "chains": 3, "seed": 11}
            ],
            "master_seed": 99,
            "semantics": "suu-star"
        }"#)
        .unwrap();
        assert_eq!(r.scenarios.len(), 2);
        assert_eq!(r.scenarios[0].scenario.id, "uniform-m3-n8-s7");
        assert_eq!(r.scenarios[1].scenario.id, "chains-m3-n9-c3-s11");
        assert_eq!(r.policies, vec!["greedy-lr", "suu-c"]);
        assert!(matches!(r.precision, Precision::FixedTrials(24)));
        assert_eq!(r.master_seed, 99);
        assert!(!r.ratios_to_lower_bound);
        // Normalized params are key-order- and spelling-insensitive.
        assert_eq!(
            r.scenarios[0].params.to_canonical(),
            r#"{"family":"uniform","hi":0.9,"lo":0.2,"m":3,"n":8,"seed":7}"#
        );
        let reordered = req(r#"{
            "scenarios": [
                {"family": "uniform", "m": 3, "n": 8, "lo": 0.2, "hi": 0.9, "seed": 7},
                {"family": "chains", "chains": 3, "seed": 11, "m": 3, "n": 9}
            ],
            "policies": ["greedy-lr", "suu-c"],
            "trials": 24
        }"#)
        .unwrap();
        for (a, b) in r.scenarios.iter().zip(&reordered.scenarios) {
            assert_eq!(a.params.to_canonical(), b.params.to_canonical());
        }
    }

    #[test]
    fn adaptive_precision_parses() {
        let r = req(r#"{
            "scenarios": [{"family": "adversarial", "m": 3, "n": 6, "seed": 1}],
            "policies": ["best-machine"],
            "precision": {"half_width": 0.05, "relative": true,
                          "min_trials": 8, "max_trials": 128}
        }"#)
        .unwrap();
        match r.precision {
            Precision::TargetCi {
                half_width,
                relative,
                min_trials,
                max_trials,
            } => {
                assert_eq!(half_width, 0.05);
                assert!(relative);
                assert_eq!((min_trials, max_trials), (8, 128));
            }
            other => panic!("wrong precision {other:?}"),
        }
    }

    #[test]
    fn every_family_round_trips_through_the_wire_form() {
        for (text, id) in [
            (
                r#"{"family":"uniform","m":2,"n":4,"lo":0.2,"hi":0.8,"seed":1}"#,
                "uniform-m2-n4-s1",
            ),
            (
                r#"{"family":"power-law","m":2,"n":4,"q_base":0.5,"alpha":1.2,"seed":2}"#,
                "power-law-m2-n4-s2",
            ),
            (
                r#"{"family":"chains","m":2,"n":6,"chains":2,"seed":3}"#,
                "chains-m2-n6-c2-s3",
            ),
            (
                r#"{"family":"forest","m":2,"n":6,"roots":2,"seed":4}"#,
                "forest-m2-n6-r2-s4",
            ),
            (
                r#"{"family":"in-forest","m":2,"n":6,"roots":2,"seed":5}"#,
                "in-forest-m2-n6-r2-s5",
            ),
            (
                r#"{"family":"mapreduce","maps":4,"reduces":2,"m":2,"seed":6}"#,
                "mapreduce-4x2-m2-s6",
            ),
            (
                r#"{"family":"layered","m":2,"n":6,"layers":2,"density":0.4,"seed":7}"#,
                "layered-m2-n6-l2-s7",
            ),
            (
                r#"{"family":"bimodal","m":2,"n":6,"frac_good":0.5,"seed":8}"#,
                "bimodal-m2-n6-s8",
            ),
            (
                r#"{"family":"hetero-pareto","m":2,"n":6,"q_floor":0.3,"alpha":1.5,"seed":9}"#,
                "hetero-pareto-m2-n6-s9",
            ),
            (
                r#"{"family":"adversarial","m":2,"n":6,"seed":10}"#,
                "adversarial-m2-n6-s10",
            ),
        ] {
            let rs = RequestScenario::from_json(&parse(text).unwrap())
                .unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(rs.scenario.id, id);
            // The scenario instantiates (generator parameters in range).
            let inst = rs.scenario.instantiate();
            assert_eq!(inst.num_jobs(), rs.scenario.n);
            // Params re-parse to the same canonical bytes.
            let reparsed = RequestScenario::from_json(&rs.params).unwrap();
            assert_eq!(reparsed.params.to_canonical(), rs.params.to_canonical());
        }
    }

    #[test]
    fn malformed_requests_are_rejected_with_context() {
        for (text, needle) in [
            (r#"{}"#, "scenarios"),
            (
                r#"{"scenarios":[],"policies":["x"],"trials":4}"#,
                "scenarios",
            ),
            (
                r#"{"scenarios":[{"family":"nope","seed":1}],"policies":["x"],"trials":4}"#,
                "unknown scenario family",
            ),
            (
                r#"{"scenarios":[{"family":"uniform","m":3,"n":8,"lo":0.9,"hi":0.2,"seed":1}],"policies":["x"],"trials":4}"#,
                "lo < hi",
            ),
            (
                r#"{"scenarios":[{"family":"uniform","m":0,"n":8,"lo":0.2,"hi":0.9,"seed":1}],"policies":["x"],"trials":4}"#,
                "'m'",
            ),
            (
                r#"{"scenarios":[{"family":"uniform","m":3,"n":8,"lo":0.2,"hi":0.9,"seed":1}],"policies":[],"trials":4}"#,
                "policies",
            ),
            (
                r#"{"scenarios":[{"family":"uniform","m":3,"n":8,"lo":0.2,"hi":0.9,"seed":1}],"policies":["x"]}"#,
                "stopping rule",
            ),
            (
                r#"{"scenarios":[{"family":"uniform","m":3,"n":8,"lo":0.2,"hi":0.9,"seed":1}],"policies":["x"],"trials":4,"precision":{"half_width":1.0,"min_trials":2,"max_trials":4}}"#,
                "not both",
            ),
            (
                r#"{"scenarios":[{"family":"uniform","m":3,"n":8,"lo":0.2,"hi":0.9,"seed":1}],"policies":["x"],"trials":0}"#,
                "'trials'",
            ),
            (
                r#"{"scenarios":[{"family":"uniform","m":3,"n":8,"lo":0.2,"hi":0.9,"seed":1},{"family":"uniform","m":3,"n":8,"lo":0.2,"hi":0.9,"seed":1}],"policies":["x"],"trials":4}"#,
                "duplicate scenario",
            ),
            (
                r#"{"scenarios":[{"family":"uniform","m":3,"n":8,"lo":0.2,"hi":0.9,"seed":1}],"policies":["x"],"trials":4,"semantics":"wat"}"#,
                "semantics",
            ),
            (
                r#"{"scenarios":[{"family":"uniform","m":3,"n":8,"lo":0.2,"hi":0.9,"seed":1}],"policies":["x"],"trials":4,"engine":"wat"}"#,
                "'engine'",
            ),
        ] {
            let err = req(text).expect_err(text);
            assert!(
                err.contains(needle),
                "{text}: error {err:?} lacks {needle:?}"
            );
        }
    }

    #[test]
    fn the_retired_engine_field_is_validated_then_ignored() {
        let wire = |extra: &str| {
            req(&format!(
                r#"{{"scenarios":[{{"family":"uniform","m":3,"n":8,"lo":0.2,"hi":0.9,"seed":1}}],"policies":["greedy-lr"],"trials":4{extra}}}"#
            ))
            .unwrap()
            .cell_request_json(0, 0)
            .to_canonical()
        };
        let plain = wire("");
        assert!(!plain.contains("engine"), "{plain}");
        assert_eq!(wire(r#","engine":"dense""#), plain);
        assert_eq!(wire(r#","engine":"events""#), plain);
    }

    #[test]
    fn wire_form_round_trips_exactly() {
        for text in [
            // Fixed trials, defaults everywhere.
            r#"{"scenarios":[{"family":"uniform","m":3,"n":8,"lo":0.2,"hi":0.9,"seed":7},
                             {"family":"chains","m":3,"n":9,"chains":3,"seed":11}],
                "policies":["greedy-lr","suu-c"],"trials":24}"#,
            // Adaptive precision + every explicit knob.
            r#"{"scenarios":[{"family":"adversarial","m":2,"n":4,"seed":1}],
                "policies":["best-machine"],
                "precision":{"half_width":0.05,"relative":true,"min_trials":8,"max_trials":128},
                "master_seed":99,"semantics":"suu-star","engine":"dense",
                "max_steps":5000,"ratios_to_lower_bound":true}"#,
        ] {
            let first = req(text).unwrap();
            for s in 0..first.scenarios.len() {
                for p in 0..first.policies.len() {
                    let emitted = first.cell_request_json(s, p);
                    let second = RaceRequest::from_json(&emitted).expect("wire form re-parses");
                    // Emit → parse → emit is a fixed point (bytewise).
                    assert_eq!(
                        emitted.to_canonical(),
                        second.cell_request_json(0, 0).to_canonical()
                    );
                    assert_eq!(first.master_seed, second.master_seed);
                    assert_eq!(second.policies, [first.policies[p].as_str()]);
                    assert_eq!(
                        second.scenarios[0].params.to_canonical(),
                        first.scenarios[s].params.to_canonical()
                    );
                }
            }
        }
    }

    #[test]
    fn cell_request_preserves_the_cell_identity_fields() {
        let race = req(r#"{
            "scenarios":[{"family":"uniform","m":3,"n":8,"lo":0.2,"hi":0.9,"seed":7},
                         {"family":"chains","m":3,"n":9,"chains":3,"seed":11}],
            "policies":["greedy-lr","suu-c"],
            "trials":24,"master_seed":99,"semantics":"suu-star"}"#)
        .unwrap();
        let sub = RaceRequest::from_json(&race.cell_request_json(1, 0)).unwrap();
        assert_eq!(sub.scenarios.len(), 1);
        assert_eq!(sub.policies, vec!["greedy-lr"]);
        assert_eq!(
            sub.scenarios[0].params.to_canonical(),
            race.scenarios[1].params.to_canonical()
        );
        assert_eq!(sub.master_seed, race.master_seed);
        assert_eq!(sub.exec.semantics, race.exec.semantics);
        assert_eq!(sub.exec.max_steps, race.exec.max_steps);
        assert!(matches!(sub.precision, Precision::FixedTrials(24)));
    }

    #[test]
    fn oversized_requests_are_rejected() {
        let err = req(&format!(
            r#"{{"scenarios":[{{"family":"uniform","m":3,"n":{},"lo":0.2,"hi":0.9,"seed":1}}],"policies":["x"],"trials":4}}"#,
            MAX_JOBS + 1
        ))
        .unwrap_err();
        assert!(err.contains("'n'"), "{err}");
        let err = req(&format!(
            r#"{{"scenarios":[{{"family":"uniform","m":3,"n":8,"lo":0.2,"hi":0.9,"seed":1}}],"policies":["x"],"trials":{}}}"#,
            MAX_TRIALS + 1
        ))
        .unwrap_err();
        assert!(err.contains("'trials'"), "{err}");
    }
}
