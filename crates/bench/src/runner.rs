//! The one race path: how scenarios × policy specs become a
//! `suu-results/v2` document.
//!
//! Three front ends race: the offline [`Race`] runner behind every
//! table1/figure binary and the examples, the `suu-serve` daemon `suud`
//! (which serves cells through its cache), and `suu-router` (which
//! scatters a race across daemons and merges their cells). What they
//! share is decided here, once:
//!
//! * [`parse_race`] reads a request body: UTF-8, JSON, the
//!   [`RaceRequest`] schema, then every policy spec through
//!   [`policy_specs`], which the runner's specs go through too;
//! * [`ScenarioRun`] is one scenario of a race: the [`Evaluator`] all
//!   its policies share, seeded by [`scenario_master_seed`]; its
//!   instance, built on first need; and its LP lower bound, solved on
//!   first need unless a cached cell carried it;
//! * [`ScenarioRun::record`] writes one cell's outcome into the
//!   document.
//!
//! Each caller keeps what is its own: the runner its table, its paired
//! CRN comparisons and `json_path`; the daemon its cache; the router its
//! scatter and merge. Each also keeps its own cell label: the runner
//! writes `spec.to_string()`, the daemon the request's policy text.
//! Because the daemon and the runner share the evaluator, its seed, the
//! bound and the record, a daemon cell and a runner cell with the same
//! identity are the same numbers.
//!
//! Cells evaluate with adaptive precision through
//! [`Evaluator::run_adaptive_spec`]: the batched engine streams into an
//! accumulator, so a cell's memory is independent of its trial count,
//! and cells grow in deterministic rounds until the stopping rule fires.

use crate::report::ResultsBuilder;
use crate::request::RaceRequest;
use crate::scenario::Scenario;
use std::cell::OnceCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use suu_algos::bounds::lower_bound;
use suu_core::json::Json;
use suu_core::SuuInstance;
use suu_sim::{
    spec_factory, AdaptiveStats, EvalConfig, Evaluator, ExecConfig, PolicyRegistry, PolicySpec,
    Precision, RegistryError,
};

/// Declarative description of a policy race.
pub struct Race {
    /// Title line printed before the table.
    pub title: String,
    /// Name stamped into the JSON document.
    pub generated_by: String,
    /// Scenarios to sweep (rows).
    pub scenarios: Vec<Scenario>,
    /// Policy specs to race (columns), in textual form.
    pub policies: Vec<String>,
    /// How much sampling each cell gets (default: a fixed budget of 60
    /// trials). With `Precision::TargetCi` cells stop as soon as their
    /// 95% CI half-width reaches the target (deterministically: same
    /// master seed ⇒ same stopping points).
    pub precision: Precision,
    /// Paired CRN comparisons `(policy A, policy B)` to run per scenario
    /// after the marginal cells, on the same per-scenario trial streams
    /// the cells used. Specs must also appear in [`Race::policies`] to be
    /// meaningful, but that is not enforced.
    pub paired: Vec<(String, String)>,
    /// Master seed (per-cell seeds derive from it).
    pub master_seed: u64,
    /// Engine configuration.
    pub exec: ExecConfig,
    /// Compute the LP lower bound per scenario and report `E[T]/LB`.
    pub ratios_to_lower_bound: bool,
    /// Write the JSON document here (in addition to returning it).
    pub json_path: Option<std::path::PathBuf>,
}

impl Default for Race {
    fn default() -> Self {
        Race {
            title: String::new(),
            generated_by: "race".to_string(),
            scenarios: Vec::new(),
            policies: Vec::new(),
            precision: Precision::FixedTrials(60),
            paired: Vec::new(),
            master_seed: 0x5EED,
            exec: ExecConfig::default(),
            ratios_to_lower_bound: false,
            json_path: None,
        }
    }
}

/// The per-scenario evaluation master seed.
///
/// Mixes the scenario's **identity** (an FNV-1a hash of its id) into the
/// derivation alongside its generator seed. Deriving from `sc.seed`
/// alone was a bug: `seed` is a constructor parameter freely reused
/// across scenario families, so two scenarios from different families
/// built with the same value (e.g. `uniform(..., 7)` and
/// `bimodal(..., 7)`) received *identical* randomness streams and their
/// cells were correlated. The stream is still shared by every policy of
/// the same scenario — that sharing is load-bearing: it is what makes
/// paired CRN comparisons (and cross-policy variance reduction) work.
pub fn scenario_master_seed(race_master: u64, sc: &Scenario) -> u64 {
    let identity = suu_core::fnv1a(sc.id.as_bytes());
    suu_sim::derive_seed(
        suu_sim::derive_seed(race_master, identity, 0xC312),
        sc.seed,
        0xC311,
    )
}

/// Read a race request body: UTF-8, JSON, the [`RaceRequest`] schema,
/// then its policy specs. The error says what is wrong with the body.
pub fn parse_race(body: &[u8]) -> Result<(RaceRequest, Vec<PolicySpec>), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let race = RaceRequest::from_json(&suu_core::json::parse(text).map_err(|e| e.to_string())?)?;
    let specs = policy_specs(&race.policies)?;
    Ok((race, specs))
}

/// Parse a race's policy specs; the error names the first bad one (the
/// parse error's own text already quotes the spec).
pub fn policy_specs(policies: &[String]) -> Result<Vec<PolicySpec>, String> {
    policies
        .iter()
        .map(|p| PolicySpec::parse(p).map_err(|e| e.to_string()))
        .collect()
}

/// One scenario of a race, as its cells see it.
pub struct ScenarioRun<'r> {
    scenario: &'r Scenario,
    /// The evaluator of every policy of the scenario. Its stream is the
    /// scenario's own (identity-mixed; see [`scenario_master_seed`]), so
    /// adding a scenario never shifts another's randomness, and all the
    /// scenario's policies share it: the common random numbers paired
    /// comparisons rely on.
    pub evaluator: Evaluator,
    /// The race asks for `ratios_to_lower_bound`.
    wants_bound: bool,
    /// Where each LP solve is counted, if anywhere.
    solves: Option<&'r AtomicU64>,
    inst: OnceCell<Arc<SuuInstance>>,
    bound: OnceCell<Result<f64, String>>,
}

impl<'r> ScenarioRun<'r> {
    /// `scenario` in a race with this master seed, stopping rule and
    /// engine configuration, which asks for lower bounds or not.
    pub fn new(
        scenario: &'r Scenario,
        master_seed: u64,
        precision: Precision,
        exec: ExecConfig,
        ratios_to_lower_bound: bool,
    ) -> ScenarioRun<'r> {
        ScenarioRun {
            scenario,
            evaluator: Evaluator::new(EvalConfig {
                trials: precision.max_trials(),
                master_seed: scenario_master_seed(master_seed, scenario),
                threads: 0,
                exec,
                ..EvalConfig::default()
            }),
            wants_bound: ratios_to_lower_bound,
            solves: None,
            inst: OnceCell::new(),
            bound: OnceCell::new(),
        }
    }

    /// Count each LP solve in `solves`.
    pub fn counting_solves(mut self, solves: &'r AtomicU64) -> ScenarioRun<'r> {
        self.solves = Some(solves);
        self
    }

    /// The instance, built on first need: a cell served from a cache
    /// never needs it.
    pub fn inst(&self) -> &Arc<SuuInstance> {
        self.inst.get_or_init(|| self.scenario.instantiate())
    }

    /// Take the lower bound a cached cell of this scenario carries, so
    /// [`ScenarioRun::bound`] solves no LP. The first one kept or solved
    /// stands.
    pub fn keep_bound(&self, lower_bound: f64) {
        let _ = self.bound.set(Ok(lower_bound));
    }

    /// The scenario's LP lower bound, when the race asks for ratios: the
    /// one kept from a cell, or else solved now, once per scenario. A
    /// failed solve is surfaced, never swallowed: its cells say what went
    /// wrong.
    pub fn bound(&self) -> Option<&Result<f64, String>> {
        self.wants_bound.then(|| {
            self.bound.get_or_init(|| {
                if let Some(solves) = self.solves {
                    solves.fetch_add(1, Ordering::Relaxed);
                }
                lower_bound(self.inst()).map_err(|e| e.to_string())
            })
        })
    }

    /// Record one cell of the scenario under `label`. A cell that ran
    /// gets its statistics, then `stop_reason`, then `cell_key` when the
    /// caller has one, then `lower_bound` and `ratio_to_lb`, or
    /// `lower_bound_error`, when the race asks for ratios. A policy whose
    /// capability is below the scenario's structure is a `skipped` cell;
    /// any other build error is an `error` cell.
    pub fn record(
        &self,
        builder: &mut ResultsBuilder,
        label: &str,
        cell_key: Option<&str>,
        outcome: &Result<AdaptiveStats, RegistryError>,
    ) {
        let id = &self.scenario.id;
        let cell = match outcome {
            Ok(cell) => cell,
            Err(e @ RegistryError::UnsupportedStructure { .. }) => {
                return builder.add_failure(id, label, "skipped", e.to_string())
            }
            Err(e) => return builder.add_failure(id, label, "error", e.to_string()),
        };
        let mut extra = vec![("stop_reason", Json::Str(cell.stop_reason.as_str().into()))];
        if let Some(key) = cell_key {
            extra.push(("cell_key", Json::Str(key.into())));
        }
        match self.bound() {
            Some(Ok(lb)) => {
                extra.push(("lower_bound", Json::Num(*lb)));
                extra.push(("ratio_to_lb", Json::Num(cell.stats.mean_makespan() / lb)));
            }
            Some(Err(e)) => extra.push(("lower_bound_error", Json::Str(e.clone()))),
            None => {}
        }
        builder.add_cell(id, label, &cell.stats, &extra);
    }
}

/// Run the race: print the table, write/return the JSON document.
pub fn run_race(race: Race) -> Json {
    let registry = suu_algos::standard_registry();
    run_race_with(race, &registry)
}

/// [`run_race`] against a caller-supplied registry (tests, custom
/// policies).
pub fn run_race_with(race: Race, registry: &PolicyRegistry) -> Json {
    let specs = policy_specs(&race.policies).unwrap_or_else(|e| panic!("{e}"));
    let labels: Vec<String> = specs.iter().map(PolicySpec::to_string).collect();

    if !race.title.is_empty() {
        println!("== {} ==", race.title);
        match race.precision {
            Precision::FixedTrials(n) => {
                println!(
                    "   {} trials/cell, master seed {:#x}\n",
                    n, race.master_seed
                )
            }
            Precision::TargetCi {
                half_width,
                relative,
                min_trials,
                max_trials,
            } => println!(
                "   adaptive: target ci95 half-width {}{}, {}..{} trials/cell, master seed {:#x}\n",
                half_width,
                if relative { " (relative)" } else { "" },
                min_trials,
                max_trials,
                race.master_seed
            ),
        }
    }

    let mut header = format!("{:<24} {:>6} {:>6}", "scenario", "m", "n");
    if race.ratios_to_lower_bound {
        header.push_str(&format!(" {:>8}", "LB"));
    }
    for label in &labels {
        header.push_str(&format!(" {:>14}", truncate(label, 14)));
    }
    println!("{header}");
    println!("{:-<width$}", "", width = header.len());

    let paired_specs: Vec<(PolicySpec, PolicySpec)> = race
        .paired
        .iter()
        .map(|(a, b)| {
            (
                PolicySpec::parse(a).unwrap_or_else(|e| panic!("race.paired: {e}")),
                PolicySpec::parse(b).unwrap_or_else(|e| panic!("race.paired: {e}")),
            )
        })
        .collect();

    let mut builder = ResultsBuilder::new(race.generated_by.clone());
    for sc in &race.scenarios {
        builder.add_scenario(sc);
        let run = ScenarioRun::new(
            sc,
            race.master_seed,
            race.precision,
            race.exec,
            race.ratios_to_lower_bound,
        );
        let mut row = format!("{:<24} {:>6} {:>6}", truncate(&sc.id, 24), sc.m, sc.n);
        match run.bound() {
            Some(Ok(lb)) => row.push_str(&format!(" {:>8.2}", lb)),
            Some(Err(e)) => row.push_str(&format!(" {:>8}", truncate(&format!("LB! {e}"), 8))),
            None => {}
        }
        for (spec, label) in specs.iter().zip(&labels) {
            let outcome =
                run.evaluator
                    .run_adaptive_spec(registry, run.inst(), spec, race.precision);
            match (&outcome, run.bound()) {
                (Ok(cell), Some(Ok(lb))) => {
                    row.push_str(&format!(" {:>13.2}x", cell.stats.mean_makespan() / lb))
                }
                (Ok(cell), _) => row.push_str(&format!(" {:>14.2}", cell.stats.mean_makespan())),
                (Err(RegistryError::UnsupportedStructure { .. }), _) => {
                    row.push_str(&format!(" {:>14}", "—"))
                }
                (Err(_), _) => row.push_str(&format!(" {:>14}", "error")),
            }
            run.record(&mut builder, label, None, &outcome);
        }
        println!("{row}");
        if let Some(Err(e)) = run.bound() {
            println!("    lower-bound error: {e}");
        }

        for (spec_a, spec_b) in &paired_specs {
            run_paired_cell(registry, &run, spec_a, spec_b, race.precision, &mut builder);
        }
    }

    let doc = builder.finish();
    if let Some(path) = &race.json_path {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            let _ = std::fs::create_dir_all(parent);
        }
        let text = doc.to_pretty();
        match std::fs::write(path, &text) {
            Ok(()) => println!("\nresults written to {}", path.display()),
            Err(e) => eprintln!("\nfailed to write {}: {e}", path.display()),
        }
    }
    doc
}

/// Run one paired CRN comparison and record it (skips silently on a
/// capability mismatch — the marginal cells already recorded why).
fn run_paired_cell(
    registry: &PolicyRegistry,
    run: &ScenarioRun,
    spec_a: &PolicySpec,
    spec_b: &PolicySpec,
    precision: Precision,
    builder: &mut ResultsBuilder,
) {
    let inst = run.inst();
    let paired = spec_factory(registry, inst, spec_a).and_then(|a| {
        let b = spec_factory(registry, inst, spec_b)?;
        Ok(run.evaluator.run_paired(inst, a, b, precision))
    });
    let id = &run.scenario.id;
    match paired {
        Ok(paired) => {
            println!(
                "    Δ {:<14} − {:<14} {:>10.2} ± {:<8.2} {} ({} pairs, {})",
                truncate(&spec_a.to_string(), 14),
                truncate(&spec_b.to_string(), 14),
                paired.delta_mean().unwrap_or(0.0),
                paired.delta_ci95().unwrap_or(f64::INFINITY),
                match paired.significant() {
                    Some(true) => "significant",
                    Some(false) => "indistinct",
                    None => "n/a",
                },
                paired.trials_used(),
                paired.stop_reason.as_str(),
            );
            builder.add_paired(id, &spec_a.to_string(), &spec_b.to_string(), &paired);
        }
        Err(RegistryError::UnsupportedStructure { .. }) => {}
        Err(e) => {
            builder.add_paired_failure(id, &spec_a.to_string(), &spec_b.to_string(), e.to_string());
        }
    }
}

fn truncate(s: &str, width: usize) -> String {
    if s.chars().count() <= width {
        s.to_string()
    } else {
        let head: String = s.chars().take(width.saturating_sub(1)).collect();
        format!("{head}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioSuite;

    #[test]
    fn race_covers_scenarios_and_skips_by_capability() {
        let doc = run_race(Race {
            title: String::new(),
            generated_by: "runner-test".to_string(),
            scenarios: ScenarioSuite::smoke(3).scenarios,
            policies: vec![
                "gang-sequential".to_string(),
                "suu-i-sem".to_string(),
                "suu-c".to_string(),
            ],
            precision: Precision::FixedTrials(4),
            master_seed: 11,
            ..Race::default()
        });
        let cells = doc.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells.len(), 12, "4 scenarios x 3 policies");
        // suu-i-sem must skip the chains, forest and layered scenarios;
        // suu-c (capability: chains) must skip forest and layered.
        let skipped: Vec<(&str, &str)> = cells
            .iter()
            .filter(|c| c.get("skipped").is_some())
            .map(|c| {
                (
                    c.get("policy").unwrap().as_str().unwrap(),
                    c.get("scenario").unwrap().as_str().unwrap(),
                )
            })
            .collect();
        assert_eq!(skipped.len(), 5, "{skipped:?}");
        assert_eq!(skipped.iter().filter(|(p, _)| *p == "suu-i-sem").count(), 3);
        assert!(skipped
            .iter()
            .any(|(p, s)| *p == "suu-c" && s.starts_with("forest")));
        assert!(skipped
            .iter()
            .any(|(p, s)| *p == "suu-c" && s.starts_with("layered")));
        // Every run cell carries statistics.
        for c in cells.iter().filter(|c| c.get("skipped").is_none()) {
            assert!(c.get("mean_makespan").unwrap().as_f64().unwrap() >= 1.0);
            assert_eq!(c.get("trials").unwrap().as_u64(), Some(4));
        }
    }

    #[test]
    fn scenario_master_seed_mixes_identity_not_just_seed() {
        // Regression: the old derivation `derive_seed(master, sc.seed,
        // 0xC311)` ignored scenario identity, so two scenarios from
        // different families built with the same `seed` constructor
        // parameter received identical randomness streams (correlated
        // cells). The old spelling collides by construction:
        let uniform = Scenario::uniform(3, 8, 0.2, 0.9, 7);
        let bimodal = Scenario::bimodal(3, 8, 0.5, 7);
        assert_eq!(uniform.seed, bimodal.seed);
        assert_eq!(
            suu_sim::derive_seed(0xBA5E, uniform.seed, 0xC311),
            suu_sim::derive_seed(0xBA5E, bimodal.seed, 0xC311),
            "old derivation collides on same-seed scenarios (the bug)"
        );
        // The fixed derivation must not.
        assert_ne!(
            scenario_master_seed(0xBA5E, &uniform),
            scenario_master_seed(0xBA5E, &bimodal),
            "identity-mixed derivation must separate same-seed scenarios"
        );
        // Still deterministic per scenario, and sensitive to the race
        // master seed.
        assert_eq!(
            scenario_master_seed(0xBA5E, &uniform),
            scenario_master_seed(0xBA5E, &Scenario::uniform(3, 8, 0.2, 0.9, 7)),
        );
        assert_ne!(
            scenario_master_seed(1, &uniform),
            scenario_master_seed(2, &uniform)
        );
    }

    #[test]
    fn adaptive_race_records_trials_and_stop_reasons() {
        let doc = run_race(Race {
            generated_by: "runner-adaptive-test".to_string(),
            scenarios: vec![Scenario::uniform(3, 6, 0.3, 0.9, 21)],
            policies: vec!["gang-sequential".to_string(), "greedy-lr".to_string()],
            precision: Precision::TargetCi {
                half_width: 0.25,
                relative: true, // 25% of the mean: reached almost at once
                min_trials: 4,
                max_trials: 64,
            },
            paired: vec![("gang-sequential".to_string(), "greedy-lr".to_string())],
            master_seed: 77,
            ..Race::default()
        });
        let cells = doc.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells.len(), 2);
        for c in cells {
            let used = c.get("trials_used").unwrap().as_u64().unwrap();
            assert!((4..=64).contains(&used), "trials_used {used}");
            let reason = c.get("stop_reason").unwrap().as_str().unwrap();
            assert!(reason == "ci-reached" || reason == "max-trials", "{reason}");
            assert!(c.get("ci95").unwrap().as_f64().is_some());
            assert!(c.get("wall_clock_s").unwrap().as_f64().is_some());
        }
        let paired = doc.get("paired").unwrap().as_array().unwrap();
        assert_eq!(paired.len(), 1);
        let p = &paired[0];
        assert_eq!(p.get("policy_a").unwrap().as_str(), Some("gang-sequential"));
        assert_eq!(p.get("policy_b").unwrap().as_str(), Some("greedy-lr"));
        assert!(p.get("delta_mean").unwrap().as_f64().is_some());
        assert!(p.get("delta_ci95").unwrap().as_f64().is_some());
        assert!(p.get("significant").unwrap().as_bool().is_some());

        // Determinism: same master seed ⇒ the same document, outside
        // the wall clocks.
        let rerun = run_race(Race {
            generated_by: "runner-adaptive-test".to_string(),
            scenarios: vec![Scenario::uniform(3, 6, 0.3, 0.9, 21)],
            policies: vec!["gang-sequential".to_string(), "greedy-lr".to_string()],
            precision: Precision::TargetCi {
                half_width: 0.25,
                relative: true,
                min_trials: 4,
                max_trials: 64,
            },
            paired: vec![("gang-sequential".to_string(), "greedy-lr".to_string())],
            master_seed: 77,
            ..Race::default()
        });
        assert_eq!(
            without_wall_clocks(&doc).to_pretty(),
            without_wall_clocks(&rerun).to_pretty()
        );
    }

    /// `doc` with every `wall_clock_s` field removed: the one field a
    /// rerun changes.
    fn without_wall_clocks(doc: &Json) -> Json {
        match doc {
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

    #[test]
    fn lower_bound_errors_surface_in_the_document() {
        // Regression for the `.ok()` spelling that swallowed bound
        // failures: a cell evaluated while the scenario's lower bound
        // errored must carry the error string, distinguishable from
        // "bounds not requested".
        let registry = suu_algos::standard_registry();
        let sc = Scenario::uniform(2, 4, 0.3, 0.9, 3);
        let precision = Precision::FixedTrials(4);
        let run = ScenarioRun::new(&sc, 1, precision, ExecConfig::default(), true);
        run.bound
            .set(Err("synthetic LP failure".to_string()))
            .unwrap();
        let mut builder = ResultsBuilder::new("runner-lb-error-test");
        builder.add_scenario(&sc);
        let spec = PolicySpec::parse("gang-sequential").unwrap();
        let outcome = run
            .evaluator
            .run_adaptive_spec(&registry, run.inst(), &spec, precision);
        assert!(outcome.is_ok());
        run.record(&mut builder, "gang-sequential", None, &outcome);
        let doc = builder.finish();
        let cell = &doc.get("cells").unwrap().as_array().unwrap()[0];
        assert_eq!(
            cell.get("lower_bound_error").unwrap().as_str(),
            Some("synthetic LP failure")
        );
        assert!(cell.get("lower_bound").is_none());
        assert!(cell.get("ratio_to_lb").is_none());
    }

    #[test]
    fn lower_bound_ratio_cells() {
        let doc = run_race(Race {
            generated_by: "runner-lb-test".to_string(),
            scenarios: vec![crate::scenario::Scenario::uniform(3, 6, 0.2, 0.9, 5)],
            policies: vec!["greedy-lr".to_string()],
            precision: Precision::FixedTrials(6),
            master_seed: 2,
            ratios_to_lower_bound: true,
            ..Race::default()
        });
        let cell = &doc.get("cells").unwrap().as_array().unwrap()[0];
        let lb = cell.get("lower_bound").unwrap().as_f64().unwrap();
        let ratio = cell.get("ratio_to_lb").unwrap().as_f64().unwrap();
        let mean = cell.get("mean_makespan").unwrap().as_f64().unwrap();
        assert!(lb > 0.0);
        assert!((ratio - mean / lb).abs() < 1e-12);
    }
}
