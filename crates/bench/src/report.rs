//! The shared JSON results schema (`suu-results/v2`).
//!
//! Every experiment binary and example emits one document shape, so
//! downstream tooling (plots, regression tracking, the perf trajectory in
//! `BENCH_baseline.json`) can consume any of them:
//!
//! ```json
//! {
//!   "schema": "suu-results/v2",
//!   "generated_by": "bench_baseline",
//!   "scenarios": [
//!     {"id": "...", "description": "...", "structure": "chains",
//!      "m": 4, "n": 24, "seed": 42}
//!   ],
//!   "policies": ["suu-c", "greedy-lr"],
//!   "cells": [
//!     {"scenario": "...", "policy": "...", "trials": 200,
//!      "trials_used": 128, "stop_reason": "ci-reached",
//!      "master_seed": 7, "semantics": "suu-star",
//!      "mean_makespan": 31.4, "std_err": 0.4, "ci95": 0.79,
//!      "min": 24.0, "median": 31.0, "p95": 40.0, "max": 48.0,
//!      "quantile_mode": "exact",
//!      "completion_rate": 1.0, "wall_clock_s": 0.031,
//!      "lower_bound": 12.5, "ratio_to_lb": 2.51}
//!   ],
//!   "paired": [
//!     {"scenario": "...", "policy_a": "suu-c", "policy_b": "greedy-lr",
//!      "trials_used": 64, "stop_reason": "ci-reached",
//!      "delta_mean": -2.4, "delta_ci95": 0.9, "significant": true}
//!   ]
//! }
//! ```
//!
//! **v2** (adaptive precision): cells carry `trials_used` (trials
//! actually executed before the stopping rule fired), `stop_reason`
//! (`fixed-budget` | `ci-reached` | `max-trials`), and `ci95` (Student-t
//! 95% half-width of the mean); the document gains a `paired` array of
//! CRN policy comparisons (per-trial makespan differences under shared
//! trial seeds: mean, Student-t CI, and whether zero lies outside it).
//! `wall_clock_s` fields can be omitted (`record_wall_clocks(false)`) to
//! make documents byte-identical across reruns of the same master seed.
//! When a scenario's lower bound was requested but failed, its run cells
//! carry `lower_bound_error` (the error string) in place of
//! `lower_bound`/`ratio_to_lb`. Cells produced by the `suu-serve` daemon
//! additionally carry `cell_key` (the content address of the cached
//! evaluation); cache status (`hit` | `miss` | `extended`) deliberately
//! lives in the daemon's response *headers*, not the body, so the body
//! stays a pure function of the cache state and identical requests
//! replay byte-identically.
//!
//! Cells are fed from streaming [`EvalStats`] (the evaluator never
//! buffers per-trial outcomes for reporting): `quantile_mode` is
//! `"exact"` while the sample fits the accumulator's exact cap and
//! `"p2-sketch"` once median/p95 come from the P² sketches. `cells` may
//! also carry `"error"` (policy failed to build — e.g. `exact-opt` past
//! its limits) or `"skipped"` (capability below the scenario's structure
//! class); such cells have no statistics.

use crate::scenario::Scenario;
use suu_core::json::Json;
use suu_sim::{EvalStats, PairedStats};

/// Schema identifier stamped on every document.
pub const SCHEMA: &str = suu_core::schemas::RESULTS_V2;

/// Incrementally builds a `suu-results/v2` document.
pub struct ResultsBuilder {
    generated_by: String,
    scenarios: Vec<Json>,
    scenario_ids: Vec<String>,
    policies: Vec<String>,
    cells: Vec<Json>,
    paired: Vec<Json>,
    record_wall_clocks: bool,
}

impl ResultsBuilder {
    /// New document attributed to `generated_by` (binary/example name).
    pub fn new(generated_by: impl Into<String>) -> Self {
        ResultsBuilder {
            generated_by: generated_by.into(),
            scenarios: Vec::new(),
            scenario_ids: Vec::new(),
            policies: Vec::new(),
            cells: Vec::new(),
            paired: Vec::new(),
            record_wall_clocks: true,
        }
    }

    /// Whether cells record `wall_clock_s` (default `true`). Disable to
    /// make the document a pure function of the master seed —
    /// byte-identical across reruns — for determinism pinning.
    pub fn record_wall_clocks(mut self, record: bool) -> Self {
        self.record_wall_clocks = record;
        self
    }

    /// Register a scenario (idempotent per id).
    pub fn add_scenario(&mut self, sc: &Scenario) {
        if self.scenario_ids.contains(&sc.id) {
            return;
        }
        self.scenario_ids.push(sc.id.clone());
        self.scenarios.push(
            Json::obj()
                .field("id", sc.id.as_str())
                .field("description", sc.description.as_str())
                .field("structure", sc.structure.name())
                .field("m", sc.m)
                .field("n", sc.n)
                .field("seed", sc.seed),
        );
    }

    fn register_policy(&mut self, policy: &str) {
        if !self.policies.iter().any(|p| p == policy) {
            self.policies.push(policy.to_string());
        }
    }

    /// Record one `(scenario, policy)` evaluation from streaming
    /// statistics, with optional extra fields (e.g. `lower_bound`).
    pub fn add_cell(
        &mut self,
        scenario_id: &str,
        policy: &str,
        stats: &EvalStats,
        extra: &[(&str, Json)],
    ) {
        self.register_policy(policy);
        let mut cell = Json::obj()
            .field("scenario", scenario_id)
            .field("policy", policy)
            .field("trials", stats.config.trials)
            .field("trials_used", stats.trials())
            .field("master_seed", stats.config.master_seed)
            .field("semantics", stats.config.exec.semantics.as_str());
        if let Some(summary) = stats.summary() {
            cell = cell
                .field("mean_makespan", summary.mean)
                .field("std_err", summary.std_err)
                .field("ci95", summary.ci95)
                .field("min", summary.min)
                .field("median", summary.median)
                .field("p95", summary.p95)
                .field("max", summary.max)
                .field(
                    "quantile_mode",
                    if summary.exact_quantiles {
                        "exact"
                    } else {
                        "p2-sketch"
                    },
                );
        }
        cell = cell.field("completion_rate", stats.completion_rate());
        if self.record_wall_clocks {
            cell = cell.field("wall_clock_s", stats.wall_clock.as_secs_f64());
        }
        for (key, value) in extra {
            cell = cell.field(*key, value.clone());
        }
        self.cells.push(cell);
    }

    /// Record one already-rendered cell **verbatim** (registering its
    /// policy in first-use order, like [`ResultsBuilder::add_cell`]).
    /// This is the reassembly path for a scatter/gather proxy: cell
    /// JSON produced by a backend daemon is spliced into the merged
    /// document byte-for-byte, so the merge of single-cell sub-responses
    /// is indistinguishable from a single-process run.
    pub fn add_cell_json(&mut self, policy: &str, cell: Json) {
        self.register_policy(policy);
        self.cells.push(cell);
    }

    /// Record one paired CRN comparison (`suu-results/v2` `paired[]`).
    pub fn add_paired(
        &mut self,
        scenario_id: &str,
        policy_a: &str,
        policy_b: &str,
        paired: &PairedStats,
    ) {
        self.register_policy(policy_a);
        self.register_policy(policy_b);
        let mut cell = Json::obj()
            .field("scenario", scenario_id)
            .field("policy_a", policy_a)
            .field("policy_b", policy_b)
            .field("trials_used", paired.trials_used())
            .field("stop_reason", paired.stop_reason.as_str())
            .field(
                "delta_mean",
                paired.delta_mean().map(Json::Num).unwrap_or(Json::Null),
            )
            .field(
                "delta_ci95",
                paired.delta_ci95().map(Json::Num).unwrap_or(Json::Null),
            )
            .field(
                "significant",
                paired.significant().map(Json::Bool).unwrap_or(Json::Null),
            );
        if self.record_wall_clocks {
            cell = cell.field("wall_clock_s", paired.wall_clock.as_secs_f64());
        }
        self.paired.push(cell);
    }

    /// Record a paired comparison that could not run.
    pub fn add_paired_failure(
        &mut self,
        scenario_id: &str,
        policy_a: &str,
        policy_b: &str,
        detail: String,
    ) {
        self.paired.push(
            Json::obj()
                .field("scenario", scenario_id)
                .field("policy_a", policy_a)
                .field("policy_b", policy_b)
                .field("error", detail),
        );
    }

    /// Record a `(scenario, policy)` pair that could not run.
    pub fn add_failure(&mut self, scenario_id: &str, policy: &str, kind: &str, detail: String) {
        self.register_policy(policy);
        self.cells.push(
            Json::obj()
                .field("scenario", scenario_id)
                .field("policy", policy)
                .field(kind, detail),
        );
    }

    /// Assemble the document.
    pub fn finish(self) -> Json {
        Json::obj()
            .field("schema", SCHEMA)
            .field("generated_by", self.generated_by)
            .field("scenarios", Json::Arr(self.scenarios))
            .field(
                "policies",
                Json::Arr(self.policies.into_iter().map(Json::Str).collect()),
            )
            .field("cells", Json::Arr(self.cells))
            .field("paired", Json::Arr(self.paired))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suu_sim::{Assignment, Decision, Evaluator, Policy, StateView};

    struct Gang;
    impl Policy for Gang {
        fn name(&self) -> &str {
            "gang"
        }
        fn reset(&mut self) {}
        fn decide(&mut self, view: &StateView<'_>, out: &mut Assignment) -> Decision {
            out.fill(view.eligible.first().map(suu_core::JobId));
            Decision::HOLD
        }
    }

    #[test]
    fn document_shape_roundtrips() {
        let sc = Scenario::uniform(2, 4, 0.2, 0.8, 1);
        let inst = sc.instantiate();
        let stats = Evaluator::seeded(20, 9).run_stats(&inst, || Gang);

        let mut builder = ResultsBuilder::new("report-test");
        builder.add_scenario(&sc);
        builder.add_scenario(&sc); // idempotent
        builder.add_cell(&sc.id, "gang", &stats, &[("lower_bound", Json::Num(2.0))]);
        builder.add_failure(&sc.id, "exact-opt", "error", "too big".to_string());
        let doc = builder.finish();

        let parsed = suu_core::json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(parsed.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(
            parsed.get("scenarios").unwrap().as_array().unwrap().len(),
            1
        );
        let cells = parsed.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].get("trials").unwrap().as_u64(), Some(20));
        assert!(cells[0].get("mean_makespan").unwrap().as_f64().unwrap() >= 1.0);
        assert_eq!(
            cells[0].get("quantile_mode").unwrap().as_str(),
            Some("exact")
        );
        assert_eq!(cells[0].get("lower_bound").unwrap().as_f64(), Some(2.0));
        assert_eq!(cells[1].get("error").unwrap().as_str(), Some("too big"));
        let policies = parsed.get("policies").unwrap().as_array().unwrap();
        assert_eq!(policies.len(), 2);
    }

    #[test]
    fn raw_cell_splicing_reassembles_byte_identically() {
        // The scatter/gather foundation: a document rebuilt from its own
        // parsed-and-re-emitted cells is bytewise the original.
        let sc = Scenario::uniform(2, 4, 0.2, 0.8, 1);
        let inst = sc.instantiate();
        let stats = Evaluator::seeded(20, 9).run_stats(&inst, || Gang);
        let mut direct = ResultsBuilder::new("suud").record_wall_clocks(false);
        direct.add_scenario(&sc);
        direct.add_cell(
            &sc.id,
            "gang",
            &stats,
            &[("lower_bound", Json::Num(0.1 + 0.2))],
        );
        direct.add_failure(&sc.id, "exact-opt", "error", "too big".to_string());
        let original = direct.finish().to_pretty();

        let parsed = suu_core::json::parse(&original).unwrap();
        let cells = parsed.get("cells").unwrap().as_array().unwrap();
        let mut merged = ResultsBuilder::new("suud").record_wall_clocks(false);
        merged.add_scenario(&sc);
        for (cell, policy) in cells.iter().zip(["gang", "exact-opt"]) {
            merged.add_cell_json(policy, cell.clone());
        }
        assert_eq!(merged.finish().to_pretty(), original);
    }
}
