//! Adaptive frontier sweeps: a declarative parameter grid — scenario
//! family × m × n × q-range — refined until every point's policy
//! ranking is statistically resolved (or the budget cap is hit).
//!
//! The paper's central artifact is a *comparison*: which SUU-* policy
//! wins at which instance shape. This module turns the workspace's
//! ingredients — adaptive precision, common-random-number pairing,
//! resumable content-addressed cells — into that phase diagram:
//!
//! * [`SweepSpec`] parses the grid (`m`/`n` axes per family block, a
//!   `q` axis of `[lo, hi]` ranges for the uniform family, fixed extra
//!   params otherwise) and expands it into [`GridPoint`]s whose
//!   scenario parameters are normalized through
//!   [`RequestScenario::from_json`] — the same canonicalization the
//!   serving tier's cache keys hash, so sweep cells and ad-hoc race
//!   cells are the *same* cells.
//! * [`run_sweep`] drives the refinement loop against any closure that
//!   answers a single-cell race request (`suu-sweep`'s in-process
//!   service, servebench's HTTP probe, or a test stub). Each round,
//!   every unresolved point evaluates all policies at the current rung
//!   of a shared [`BudgetLadder`]; a point retires when the winner's
//!   [`PairedMargin`] against **every** rival clears zero, and only the
//!   still-straddling points are granted the next rung.
//! * The artifact ([`suu_core::schemas::RESULTS_SWEEP_V1`]) records per
//!   point the winner, its margin against the closest rival, per-policy
//!   statistics with `cell_key` provenance, a phase-diagram section
//!   (winner regions plus the frontier edges between grid-adjacent
//!   points with different winners), and trial accounting against the
//!   equivalent fixed-budget grid.
//!
//! **Resume-invariance by construction.** The artifact records only
//! terminal per-cell state (statistics at the final trial count), never
//! the number of rounds the loop took to get there. A re-run over a
//! warm cache asks for rung `r` and gets the cached count `c ≥ r`; but
//! any cached count is a rung the cold run also visited, and the margin
//! decision at that count is the same pure function of the same
//! statistics — so an interrupted sweep re-run over its cache root, or
//! a completed sweep replayed, lands on a byte-identical document. No
//! wall clocks, no unordered iteration: the whole document is a pure
//! function of the spec.

use crate::request::RequestScenario;
use suu_core::json::Json;
use suu_sim::sweep::{BudgetLadder, PairedMargin};

/// Artifact schema identifier.
pub const SWEEP_SCHEMA: &str = suu_core::schemas::RESULTS_SWEEP_V1;

/// Most grid points one spec may expand to.
pub const MAX_POINTS: usize = 1024;
/// Most policies one sweep may race.
pub const MAX_SWEEP_POLICIES: usize = 8;

/// One expanded grid point: a normalized scenario plus its grid
/// coordinates (block index and per-axis indices, for adjacency).
pub struct GridPoint {
    /// Stable point identifier, e.g. `uniform-m2-n4-q0.25-0.55`.
    pub id: String,
    /// Index of the grid block this point came from.
    pub block: usize,
    /// Index into the block's `m` axis.
    pub mi: usize,
    /// Index into the block's `n` axis.
    pub ni: usize,
    /// Index into the block's `q` axis (0 when the block has none).
    pub qi: usize,
    /// The normalized scenario (same canonical params the cache hashes).
    pub scenario: RequestScenario,
}

impl GridPoint {
    /// Grid adjacency: same block, exactly one axis index differing by
    /// exactly one step — the neighbor relation the phase diagram's
    /// frontier edges are drawn over.
    pub fn is_neighbor(&self, other: &GridPoint) -> bool {
        if self.block != other.block {
            return false;
        }
        let dm = self.mi.abs_diff(other.mi);
        let dn = self.ni.abs_diff(other.ni);
        let dq = self.qi.abs_diff(other.qi);
        dm + dn + dq == 1
    }
}

/// A parsed, expanded sweep specification.
pub struct SweepSpec {
    /// Sweep name, echoed into the artifact.
    pub name: String,
    /// Master seed for every evaluation (the artifact is a pure
    /// function of the spec, this seed included).
    pub master_seed: u64,
    /// Scenario seed shared by every grid point.
    pub scenario_seed: u64,
    /// Policies raced at every point (2..=[`MAX_SWEEP_POLICIES`]).
    pub policies: Vec<String>,
    /// The trial-budget schedule every unresolved point climbs.
    pub ladder: BudgetLadder,
    /// The grid blocks as given (normalized echo for the artifact).
    pub grid_echo: Json,
    /// Every expanded grid point, in deterministic grid order.
    pub points: Vec<GridPoint>,
}

fn spec_err(what: impl Into<String>) -> String {
    format!("sweep spec: {}", what.into())
}

fn axis_u64(block: &Json, key: &str, bi: usize) -> Result<Vec<u64>, String> {
    let arr = block
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| spec_err(format!("grid block {bi}: missing array '{key}'")))?;
    if arr.is_empty() {
        return Err(spec_err(format!(
            "grid block {bi}: '{key}' must be non-empty"
        )));
    }
    arr.iter()
        .map(|v| {
            v.as_u64().ok_or_else(|| {
                spec_err(format!("grid block {bi}: '{key}' entries must be integers"))
            })
        })
        .collect()
}

impl SweepSpec {
    /// Parse and expand a spec document.
    pub fn from_json(doc: &Json) -> Result<SweepSpec, String> {
        let name = match doc.get("name") {
            None => "sweep".to_string(),
            Some(v) => {
                let s = v
                    .as_str()
                    .ok_or_else(|| spec_err("'name' must be a string"))?;
                if s.is_empty()
                    || !s
                        .bytes()
                        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
                {
                    return Err(spec_err("'name' must be non-empty [a-z0-9-]"));
                }
                s.to_string()
            }
        };
        let master_seed = doc
            .get("master_seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| spec_err("missing integer 'master_seed'"))?;
        let scenario_seed = match doc.get("scenario_seed") {
            None => 1,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| spec_err("'scenario_seed' must be an integer"))?,
        };
        let policies: Vec<String> = doc
            .get("policies")
            .and_then(Json::as_array)
            .ok_or_else(|| spec_err("missing array 'policies'"))?
            .iter()
            .map(|p| {
                p.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| spec_err("'policies' entries must be strings"))
            })
            .collect::<Result<_, _>>()?;
        if policies.len() < 2 || policies.len() > MAX_SWEEP_POLICIES {
            return Err(spec_err(format!(
                "need 2..={MAX_SWEEP_POLICIES} policies, got {}",
                policies.len()
            )));
        }
        let mut dedup = policies.clone();
        dedup.sort();
        dedup.dedup();
        if dedup.len() != policies.len() {
            return Err(spec_err("'policies' entries must be distinct"));
        }
        let budget = doc
            .get("budget")
            .ok_or_else(|| spec_err("missing object 'budget'"))?;
        let initial = budget
            .get("initial")
            .and_then(Json::as_u64)
            .filter(|&v| v > 0)
            .ok_or_else(|| spec_err("'budget.initial' must be a positive integer"))?;
        let max = budget
            .get("max")
            .and_then(Json::as_u64)
            .filter(|&v| v > 0)
            .ok_or_else(|| spec_err("'budget.max' must be a positive integer"))?;
        if initial > max || max > crate::request::MAX_TRIALS {
            return Err(spec_err(format!(
                "need budget.initial <= budget.max <= {}",
                crate::request::MAX_TRIALS
            )));
        }
        let ladder = BudgetLadder::new(initial as usize, max as usize);

        let blocks = doc
            .get("grid")
            .and_then(Json::as_array)
            .ok_or_else(|| spec_err("missing array 'grid'"))?;
        if blocks.is_empty() {
            return Err(spec_err("'grid' must be non-empty"));
        }
        let mut points = Vec::new();
        let mut echo_blocks = Vec::new();
        for (bi, block) in blocks.iter().enumerate() {
            let family = block
                .get("family")
                .and_then(Json::as_str)
                .ok_or_else(|| spec_err(format!("grid block {bi}: missing string 'family'")))?
                .to_string();
            let ms = axis_u64(block, "m", bi)?;
            let ns = axis_u64(block, "n", bi)?;
            let extra = match block.get("params") {
                None => Json::obj(),
                Some(p @ Json::Obj(_)) => p.clone(),
                Some(_) => {
                    return Err(spec_err(format!(
                        "grid block {bi}: 'params' must be an object"
                    )))
                }
            };
            // The q axis: `[lo, hi]` survival-probability ranges, only
            // meaningful for the uniform family (the one whose params
            // are a range). Other families vary through 'params'.
            let qs: Vec<Option<(f64, f64)>> = match block.get("q") {
                None if family == "uniform" => {
                    return Err(spec_err(format!(
                        "grid block {bi}: uniform blocks need a 'q' axis of [lo, hi] ranges"
                    )))
                }
                None => vec![None],
                Some(_) if family != "uniform" => {
                    return Err(spec_err(format!(
                        "grid block {bi}: 'q' axis only applies to the uniform family"
                    )))
                }
                Some(q) => {
                    let arr = q.as_array().filter(|a| !a.is_empty()).ok_or_else(|| {
                        spec_err(format!("grid block {bi}: 'q' must be a non-empty array"))
                    })?;
                    arr.iter()
                        .map(|pair| {
                            let pair = pair.as_array().unwrap_or(&[]);
                            match pair {
                                [lo, hi] => lo.as_f64().zip(hi.as_f64()).ok_or_else(|| {
                                    spec_err(format!(
                                        "grid block {bi}: 'q' entries must be [lo, hi] numbers"
                                    ))
                                }),
                                _ => Err(spec_err(format!(
                                    "grid block {bi}: 'q' entries must be [lo, hi] pairs"
                                ))),
                            }
                            .map(Some)
                        })
                        .collect::<Result<Vec<_>, _>>()?
                }
            };
            for (mi, &m) in ms.iter().enumerate() {
                for (ni, &n) in ns.iter().enumerate() {
                    for (qi, q) in qs.iter().enumerate() {
                        let mut params = extra
                            .clone()
                            .field("family", family.as_str())
                            .field("m", m)
                            .field("n", n)
                            .field("seed", scenario_seed);
                        let mut id = format!("{family}-m{m}-n{n}");
                        if let Some((lo, hi)) = q {
                            params = params.field("lo", *lo).field("hi", *hi);
                            id.push_str(&format!("-q{lo}-{hi}"));
                        }
                        let scenario = RequestScenario::from_json(&params)
                            .map_err(|e| spec_err(format!("point {id}: {e}")))?;
                        points.push(GridPoint {
                            id,
                            block: bi,
                            mi,
                            ni,
                            qi,
                            scenario,
                        });
                        if points.len() > MAX_POINTS {
                            return Err(spec_err(format!("grid exceeds {MAX_POINTS} points")));
                        }
                    }
                }
            }
            let q_echo = match block.get("q") {
                Some(q) => q.clone(),
                None => Json::Null,
            };
            echo_blocks.push(
                Json::obj()
                    .field("family", family)
                    .field("m", Json::Arr(ms.into_iter().map(Json::UInt).collect()))
                    .field("n", Json::Arr(ns.into_iter().map(Json::UInt).collect()))
                    .field("q", q_echo)
                    .field("params", extra),
            );
        }
        let mut ids: Vec<&str> = points.iter().map(|p| p.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != points.len() {
            return Err(spec_err("grid expands to duplicate points"));
        }
        Ok(SweepSpec {
            name,
            master_seed,
            scenario_seed,
            policies,
            ladder,
            grid_echo: Json::Arr(echo_blocks),
            points,
        })
    }

    /// The built-in smoke grid: a 2×2×2 uniform frontier (m × n × q)
    /// racing the paper's semi-oblivious policy against the greedy
    /// Lin–Rajaraman baseline. Small enough for CI, structured enough
    /// that some points resolve on the first rung and others climb.
    pub fn smoke() -> SweepSpec {
        let doc = Json::obj()
            .field("name", "smoke")
            .field("master_seed", 42u64)
            .field("scenario_seed", 1u64)
            .field(
                "policies",
                Json::Arr(vec![
                    Json::Str("suu-i-sem".into()),
                    Json::Str("greedy-lr".into()),
                ]),
            )
            .field(
                "budget",
                Json::obj().field("initial", 8u64).field("max", 96u64),
            )
            .field(
                "grid",
                Json::Arr(vec![Json::obj()
                    .field("family", "uniform")
                    .field("m", Json::Arr(vec![Json::UInt(2), Json::UInt(3)]))
                    .field("n", Json::Arr(vec![Json::UInt(4), Json::UInt(6)]))
                    .field(
                        "q",
                        Json::Arr(vec![
                            Json::Arr(vec![Json::Num(0.25), Json::Num(0.55)]),
                            Json::Arr(vec![Json::Num(0.55), Json::Num(0.85)]),
                        ]),
                    )]),
            );
        // The literal above is well-formed by construction.
        match SweepSpec::from_json(&doc) {
            Ok(spec) => spec,
            Err(e) => unreachable!("built-in smoke spec must parse: {e}"),
        }
    }

    /// The single-cell race request for one (point, policy, budget)
    /// evaluation — the exact JSON `POST /v1/race` and the in-process
    /// service both accept, so every evaluator computes (and caches)
    /// the identical cell.
    pub fn cell_request(&self, point: &GridPoint, policy: &str, trials: usize) -> Json {
        Json::obj()
            .field("scenarios", Json::Arr(vec![point.scenario.params.clone()]))
            .field("policies", Json::Arr(vec![Json::Str(policy.to_string())]))
            .field("trials", trials)
            .field("master_seed", self.master_seed)
    }
}

/// The per-policy terminal statistics the sweep extracts from each
/// results document.
#[derive(Clone)]
struct PolicyCell {
    policy: String,
    mean: f64,
    ci95: f64,
    trials_used: u64,
    cell_key: String,
}

/// Pull the single cell out of a `suu-results/v2` document.
fn extract_cell(doc: &Json, point: &str, policy: &str) -> Result<PolicyCell, String> {
    let schema = doc.get("schema").and_then(Json::as_str);
    if schema != Some(suu_core::schemas::RESULTS_V2) {
        return Err(format!(
            "point {point}: unexpected results schema {schema:?}"
        ));
    }
    if let Some(failures) = doc.get("failures").and_then(Json::as_array) {
        if let Some(first) = failures.first() {
            return Err(format!(
                "point {point}: policy {policy} failed: {}",
                first.to_compact()
            ));
        }
    }
    let cells = doc
        .get("cells")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("point {point}: results document has no cells"))?;
    let [cell] = cells else {
        return Err(format!(
            "point {point}: expected exactly one cell, got {}",
            cells.len()
        ));
    };
    // A capability-gated or failed cell carries a reason instead of
    // statistics — surface it; a sweep's policy set must be able to run
    // on every grid point.
    for key in ["skipped", "error"] {
        if let Some(reason) = cell.get(key) {
            return Err(format!(
                "point {point}: policy {policy} {key}: {} \
                 (every sweep policy must support every grid point)",
                reason.to_compact()
            ));
        }
    }
    let num = |key: &str| {
        cell.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("point {point}: cell missing numeric '{key}'"))
    };
    Ok(PolicyCell {
        policy: policy.to_string(),
        mean: num("mean_makespan")?,
        ci95: num("ci95")?,
        trials_used: cell
            .get("trials_used")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("point {point}: cell missing 'trials_used'"))?,
        cell_key: cell
            .get("cell_key")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("point {point}: cell missing 'cell_key' provenance"))?
            .to_string(),
    })
}

/// Terminal state of one grid point.
struct PointOutcome {
    /// Index of the winning policy (lowest mean makespan).
    winner: usize,
    /// Margin against the closest rival.
    margin: PairedMargin,
    /// `true` when every rival's margin cleared zero before the cap.
    resolved: bool,
    /// Per-policy terminal cells, in spec policy order.
    cells: Vec<PolicyCell>,
}

/// Judge one point from its per-policy cells: winner by lowest mean,
/// resolution by the winner's CRN margin ([`PairedMargin`]) against
/// every rival.
fn judge(cells: &[PolicyCell]) -> (usize, PairedMargin, bool) {
    let winner = cells
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.mean.total_cmp(&b.mean))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut closest: Option<PairedMargin> = None;
    let mut resolved = true;
    for (i, rival) in cells.iter().enumerate() {
        if i == winner {
            continue;
        }
        let m = PairedMargin::from_marginals(
            rival.mean,
            rival.ci95,
            cells[winner].mean,
            cells[winner].ci95,
        );
        resolved &= m.resolved();
        if closest.is_none_or(|c| m.delta < c.delta) {
            closest = Some(m);
        }
    }
    (
        winner,
        closest.unwrap_or(PairedMargin {
            delta: 0.0,
            ci95: 0.0,
        }),
        resolved,
    )
}

/// Run the sweep to completion against `eval`, reporting round progress
/// through `progress`, and return the `suu-results/sweep/v1` artifact.
///
/// `eval` answers one single-cell race request with the parsed
/// `suu-results/v2` document: `suu-sweep`'s in-process `Service`,
/// servebench's probe posting `/v1/race` over HTTP, or a stub in tests.
pub fn run_sweep(
    spec: &SweepSpec,
    eval: &mut dyn FnMut(&Json) -> Result<Json, String>,
    progress: &mut dyn FnMut(String),
) -> Result<Json, String> {
    let n_points = spec.points.len();
    let mut budgets: Vec<usize> = vec![spec.ladder.initial.min(spec.ladder.max); n_points];
    let mut outcomes: Vec<Option<PointOutcome>> = Vec::new();
    outcomes.resize_with(n_points, || None);
    let mut live: Vec<usize> = (0..n_points).collect();
    let mut round = 0u64;
    while !live.is_empty() {
        round += 1;
        progress(format!(
            "round {round}: {} unresolved point(s), budget rungs {:?}..",
            live.len(),
            budgets[live[0]]
        ));
        let mut still = Vec::new();
        for &pi in &live {
            let point = &spec.points[pi];
            let budget = budgets[pi];
            let mut cells = Vec::with_capacity(spec.policies.len());
            for policy in &spec.policies {
                let request = spec.cell_request(point, policy, budget);
                let doc = eval(&request)?;
                cells.push(extract_cell(&doc, &point.id, policy)?);
            }
            let (winner, margin, resolved) = judge(&cells);
            match spec.ladder.next(budget) {
                Some(next) if !resolved => {
                    budgets[pi] = next;
                    still.push(pi);
                }
                _ => {
                    outcomes[pi] = Some(PointOutcome {
                        winner,
                        margin,
                        resolved,
                        cells,
                    });
                }
            }
        }
        progress(format!(
            "round {round} done: {} point(s) retired, {} still open",
            live.len() - still.len(),
            still.len()
        ));
        live = still;
    }
    build_artifact(spec, &outcomes)
}

fn build_artifact(spec: &SweepSpec, outcomes: &[Option<PointOutcome>]) -> Result<Json, String> {
    let mut cells_out = Vec::with_capacity(spec.points.len());
    let mut trials_adaptive: u64 = 0;
    let mut max_cell_trials: u64 = 0;
    let mut resolved_count: u64 = 0;
    for (point, outcome) in spec.points.iter().zip(outcomes) {
        let outcome = outcome
            .as_ref()
            .ok_or_else(|| format!("point {} never retired", point.id))?;
        let mut policy_entries = Vec::with_capacity(outcome.cells.len());
        for cell in &outcome.cells {
            trials_adaptive += cell.trials_used;
            max_cell_trials = max_cell_trials.max(cell.trials_used);
            policy_entries.push(
                Json::obj()
                    .field("policy", cell.policy.as_str())
                    .field("mean_makespan", cell.mean)
                    .field("ci95", cell.ci95)
                    .field("trials_used", cell.trials_used)
                    .field("cell_key", cell.cell_key.as_str()),
            );
        }
        resolved_count += u64::from(outcome.resolved);
        cells_out.push(
            Json::obj()
                .field("point", point.id.as_str())
                .field("scenario_id", point.scenario.scenario.id.as_str())
                .field("params", point.scenario.params.clone())
                .field("winner", spec.policies[outcome.winner].as_str())
                .field("resolved", outcome.resolved)
                .field("margin_mean", outcome.margin.delta)
                .field("margin_ci95", outcome.margin.ci95)
                .field(
                    "trials_total",
                    outcome.cells.iter().map(|c| c.trials_used).sum::<u64>(),
                )
                .field("policies", Json::Arr(policy_entries)),
        );
    }

    // Phase diagram: resolved points grouped by winner (regions), open
    // points listed, and frontier edges between grid-adjacent points
    // whose winners differ.
    let mut regions: Vec<(String, Vec<Json>)> = Vec::new();
    let mut open = Vec::new();
    for (point, outcome) in spec.points.iter().zip(outcomes) {
        let Some(outcome) = outcome.as_ref() else {
            continue;
        };
        if !outcome.resolved {
            open.push(Json::Str(point.id.clone()));
            continue;
        }
        let winner = spec.policies[outcome.winner].as_str();
        match regions.iter_mut().find(|(w, _)| w == winner) {
            Some((_, pts)) => pts.push(Json::Str(point.id.clone())),
            None => regions.push((winner.to_string(), vec![Json::Str(point.id.clone())])),
        }
    }
    regions.sort_by(|(a, _), (b, _)| a.cmp(b));
    let mut frontier = Vec::new();
    for i in 0..spec.points.len() {
        for j in (i + 1)..spec.points.len() {
            let (Some(a), Some(b)) = (&outcomes[i], &outcomes[j]) else {
                continue;
            };
            if !spec.points[i].is_neighbor(&spec.points[j]) {
                continue;
            }
            if a.resolved && b.resolved && a.winner != b.winner {
                frontier.push(
                    Json::obj()
                        .field("a", spec.points[i].id.as_str())
                        .field("winner_a", spec.policies[a.winner].as_str())
                        .field("b", spec.points[j].id.as_str())
                        .field("winner_b", spec.policies[b.winner].as_str()),
                );
            }
        }
    }

    let n_points = spec.points.len() as u64;
    let n_policies = spec.policies.len() as u64;
    // The fixed-budget grid reaching the same worst-case final CI gives
    // *every* cell the budget the hungriest cell needed.
    let trials_fixed = n_points * n_policies * max_cell_trials;
    Ok(Json::obj()
        .field("schema", SWEEP_SCHEMA)
        .field("generated_by", "suu-sweep")
        .field("name", spec.name.as_str())
        .field("master_seed", spec.master_seed)
        .field("scenario_seed", spec.scenario_seed)
        .field(
            "policies",
            Json::Arr(spec.policies.iter().map(|p| Json::Str(p.clone())).collect()),
        )
        .field(
            "budget",
            Json::obj()
                .field("initial", spec.ladder.initial)
                .field("max", spec.ladder.max),
        )
        .field("grid", spec.grid_echo.clone())
        .field("cells", Json::Arr(cells_out))
        .field(
            "phase_diagram",
            Json::obj()
                .field(
                    "regions",
                    Json::Arr(
                        regions
                            .into_iter()
                            .map(|(w, pts)| {
                                Json::obj()
                                    .field("winner", w)
                                    .field("points", Json::Arr(pts))
                            })
                            .collect(),
                    ),
                )
                .field("open", Json::Arr(open))
                .field("frontier", Json::Arr(frontier)),
        )
        .field(
            "totals",
            Json::obj()
                .field("points", n_points)
                .field("resolved", resolved_count)
                .field("open", n_points - resolved_count)
                .field("trials_adaptive", trials_adaptive)
                .field("trials_fixed_equivalent", trials_fixed)
                .field("max_trials_per_cell", max_cell_trials),
        ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A synthetic evaluator with extend-semantics caching: a request
    /// for `trials` on a cell already computed deeper returns the
    /// deeper statistics, exactly like the serving tier's cache. The
    /// two policies differ by a per-point separation; CI shrinks as
    /// `1/sqrt(trials)`.
    struct FakeEval {
        /// cell id -> deepest trial count computed so far.
        cache: BTreeMap<String, u64>,
    }

    impl FakeEval {
        fn new() -> FakeEval {
            FakeEval {
                cache: BTreeMap::new(),
            }
        }

        fn separation(m: u64, lo: f64) -> f64 {
            match (m, (lo * 10.0) as u64) {
                (2, 2) => 5.0, // resolves on the first rung
                (2, 5) => 1.0, // resolves mid-ladder
                (3, 2) => 0.1, // never resolves within the cap
                _ => 0.0,      // exact tie: open at the cap
            }
        }

        fn race(&mut self, req: &Json) -> Result<Json, String> {
            let sc = &req.get("scenarios").and_then(Json::as_array).unwrap()[0];
            let m = sc.get("m").and_then(Json::as_u64).unwrap();
            let lo = sc.get("lo").and_then(Json::as_f64).unwrap();
            let policy = req.get("policies").and_then(Json::as_array).unwrap()[0]
                .as_str()
                .unwrap()
                .to_string();
            let trials = req.get("trials").and_then(Json::as_u64).unwrap();
            let id = format!("m{m}-lo{lo}-{policy}");
            let have = self.cache.entry(id.clone()).or_insert(0);
            *have = (*have).max(trials);
            let n = *have;
            let mean = if policy == "pol-a" {
                10.0
            } else {
                10.0 + FakeEval::separation(m, lo)
            };
            let cell = Json::obj()
                .field("scenario", sc.get("family").unwrap().clone())
                .field("policy", policy.as_str())
                .field("trials_used", n)
                .field("mean_makespan", mean)
                .field("ci95", 4.0 / (n as f64).sqrt())
                .field("cell_key", format!("fake-{id}"));
            Ok(Json::obj()
                .field("schema", suu_core::schemas::RESULTS_V2)
                .field("cells", Json::Arr(vec![cell])))
        }
    }

    fn test_spec() -> SweepSpec {
        let doc = Json::obj()
            .field("name", "fake")
            .field("master_seed", 7u64)
            .field(
                "policies",
                Json::Arr(vec![Json::Str("pol-a".into()), Json::Str("pol-b".into())]),
            )
            .field(
                "budget",
                Json::obj().field("initial", 8u64).field("max", 64u64),
            )
            .field(
                "grid",
                Json::Arr(vec![Json::obj()
                    .field("family", "uniform")
                    .field("m", Json::Arr(vec![Json::UInt(2), Json::UInt(3)]))
                    .field("n", Json::Arr(vec![Json::UInt(4)]))
                    .field(
                        "q",
                        Json::Arr(vec![
                            Json::Arr(vec![Json::Num(0.2), Json::Num(0.5)]),
                            Json::Arr(vec![Json::Num(0.5), Json::Num(0.8)]),
                        ]),
                    )]),
            );
        SweepSpec::from_json(&doc).expect("test spec parses")
    }

    fn get_total(doc: &Json, key: &str) -> u64 {
        doc.get("totals")
            .unwrap()
            .get(key)
            .and_then(Json::as_u64)
            .unwrap()
    }

    #[test]
    fn refinement_spends_fewer_trials_than_fixed_budget() {
        let spec = test_spec();
        assert_eq!(spec.points.len(), 4);
        let mut eval = FakeEval::new();
        let doc = run_sweep(&spec, &mut |req| eval.race(req), &mut |_| {}).expect("sweep runs");

        // The easy point retires on the first rung; the hard ones climb
        // to the cap — so the adaptive total is strictly below giving
        // every cell the hungriest cell's budget.
        let adaptive = get_total(&doc, "trials_adaptive");
        let fixed = get_total(&doc, "trials_fixed_equivalent");
        assert!(adaptive < fixed, "adaptive {adaptive} !< fixed {fixed}");
        assert_eq!(get_total(&doc, "max_trials_per_cell"), 64);
        assert_eq!(get_total(&doc, "points"), 4);
        assert_eq!(get_total(&doc, "resolved"), 2);
        assert_eq!(get_total(&doc, "open"), 2);

        // Every resolved point is won by the lower-mean policy, with
        // cell_key provenance on every policy entry.
        for cell in doc.get("cells").and_then(Json::as_array).unwrap() {
            assert_eq!(cell.get("winner").and_then(Json::as_str), Some("pol-a"));
            for p in cell.get("policies").and_then(Json::as_array).unwrap() {
                let key = p.get("cell_key").and_then(Json::as_str).unwrap();
                assert!(key.starts_with("fake-"), "provenance missing: {key}");
            }
        }
        let regions = doc
            .get("phase_diagram")
            .unwrap()
            .get("regions")
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(regions.len(), 1, "one winner, one region");
        assert_eq!(
            doc.get("phase_diagram")
                .unwrap()
                .get("open")
                .and_then(Json::as_array)
                .unwrap()
                .len(),
            2
        );
        // Single-winner diagram has no frontier edges.
        assert_eq!(
            doc.get("phase_diagram")
                .unwrap()
                .get("frontier")
                .and_then(Json::as_array)
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn rerun_over_warm_or_partial_cache_is_byte_identical() {
        let spec = test_spec();
        let mut eval = FakeEval::new();
        let cold = run_sweep(&spec, &mut |req| eval.race(req), &mut |_| {}).expect("cold sweep");

        // Fully warm cache (a completed run replayed).
        let warm = run_sweep(&spec, &mut |req| eval.race(req), &mut |_| {}).expect("warm sweep");
        assert_eq!(cold.to_pretty(), warm.to_pretty(), "warm replay diverged");

        // A cache that is a mid-round prefix of the cold trajectory —
        // what a kill between rounds leaves behind: some cells at the
        // first rung, some already at the second.
        let mut partial = FakeEval::new();
        for (i, (k, v)) in eval.cache.iter().enumerate() {
            let cap = if i % 2 == 0 { 8 } else { 12 };
            partial.cache.insert(k.clone(), (*v).min(cap));
        }
        let resumed =
            run_sweep(&spec, &mut |req| partial.race(req), &mut |_| {}).expect("resumed sweep");
        assert_eq!(cold.to_pretty(), resumed.to_pretty(), "resume diverged");
    }

    #[test]
    fn spec_rejects_malformed_grids() {
        let base = || {
            Json::obj()
                .field("master_seed", 1u64)
                .field(
                    "policies",
                    Json::Arr(vec![Json::Str("a".into()), Json::Str("b".into())]),
                )
                .field(
                    "budget",
                    Json::obj().field("initial", 4u64).field("max", 8u64),
                )
        };
        let uniform_block = |q: Json| {
            Json::obj()
                .field("family", "uniform")
                .field("m", Json::Arr(vec![Json::UInt(2)]))
                .field("n", Json::Arr(vec![Json::UInt(4)]))
                .field("q", q)
        };
        let q_ok = Json::Arr(vec![Json::Arr(vec![Json::Num(0.2), Json::Num(0.5)])]);

        // Well-formed baseline.
        let ok = base().field("grid", Json::Arr(vec![uniform_block(q_ok.clone())]));
        assert!(SweepSpec::from_json(&ok).is_ok());

        // Missing master_seed.
        let doc = ok.clone().field("master_seed", Json::Null);
        assert!(SweepSpec::from_json(&doc).is_err());

        // One policy only.
        let doc = ok
            .clone()
            .field("policies", Json::Arr(vec![Json::Str("a".into())]));
        assert!(SweepSpec::from_json(&doc).is_err());

        // Duplicate policies.
        let doc = ok.clone().field(
            "policies",
            Json::Arr(vec![Json::Str("a".into()), Json::Str("a".into())]),
        );
        assert!(SweepSpec::from_json(&doc).is_err());

        // Uniform without a q axis.
        let no_q = Json::obj()
            .field("family", "uniform")
            .field("m", Json::Arr(vec![Json::UInt(2)]))
            .field("n", Json::Arr(vec![Json::UInt(4)]));
        let doc = base().field("grid", Json::Arr(vec![no_q]));
        assert!(SweepSpec::from_json(&doc).is_err());

        // q on a non-uniform family.
        let chains_q = Json::obj()
            .field("family", "chains")
            .field("m", Json::Arr(vec![Json::UInt(2)]))
            .field("n", Json::Arr(vec![Json::UInt(4)]))
            .field("q", q_ok.clone())
            .field("params", Json::obj().field("chains", 2u64));
        let doc = base().field("grid", Json::Arr(vec![chains_q]));
        assert!(SweepSpec::from_json(&doc).is_err());

        // Duplicate expanded points (same block repeated).
        let doc = base().field(
            "grid",
            Json::Arr(vec![
                uniform_block(q_ok.clone()),
                uniform_block(q_ok.clone()),
            ]),
        );
        assert!(SweepSpec::from_json(&doc).is_err());

        // Invalid scenario params surface with the point id.
        let bad_q = Json::Arr(vec![Json::Arr(vec![Json::Num(0.9), Json::Num(0.2)])]);
        let doc = base().field("grid", Json::Arr(vec![uniform_block(bad_q)]));
        let err = match SweepSpec::from_json(&doc) {
            Err(e) => e,
            Ok(_) => panic!("inverted range must fail"),
        };
        assert!(err.contains("uniform-m2-n4"), "{err}");
    }

    #[test]
    fn smoke_spec_expands_with_grid_adjacency() {
        let spec = SweepSpec::smoke();
        assert_eq!(spec.points.len(), 8);
        assert_eq!(spec.policies.len(), 2);
        // Distinct ids, and ids key the q range even though scenario
        // ids do not (uniform scenario ids omit lo/hi).
        let n_neighbors: usize = (0..spec.points.len())
            .map(|i| {
                (0..spec.points.len())
                    .filter(|&j| j != i && spec.points[i].is_neighbor(&spec.points[j]))
                    .count()
            })
            .sum();
        // A 2×2×2 lattice has 12 edges, counted twice here.
        assert_eq!(n_neighbors, 24);
        assert!(spec.points.iter().any(|p| p.id.contains("-q0.25-0.55")));
    }

    #[test]
    fn judge_picks_lowest_mean_and_requires_every_rival_clear() {
        let cell = |policy: &str, mean: f64, ci95: f64| PolicyCell {
            policy: policy.into(),
            mean,
            ci95,
            trials_used: 10,
            cell_key: "k".into(),
        };
        // Winner clears one rival but not the other: unresolved.
        let cells = [
            cell("a", 10.0, 0.5),
            cell("b", 20.0, 0.5),
            cell("c", 10.4, 0.5),
        ];
        let (winner, margin, resolved) = judge(&cells);
        assert_eq!(winner, 0);
        assert!(!resolved);
        // The recorded margin is the closest rival's.
        assert!((margin.delta - 0.4).abs() < 1e-12);

        // Clear of every rival: resolved.
        let cells = [
            cell("a", 10.0, 0.1),
            cell("b", 20.0, 0.1),
            cell("c", 11.0, 0.1),
        ];
        let (winner, _, resolved) = judge(&cells);
        assert_eq!(winner, 0);
        assert!(resolved);
    }
}
