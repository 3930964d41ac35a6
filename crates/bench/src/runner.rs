//! The scenario × policy race runner — the one evaluation path every
//! experiment binary goes through.
//!
//! A [`Race`] declares *what* to compare (scenarios, policy specs, trial
//! budget or [`Precision`] target, paired CRN comparisons); this module
//! handles *how*: registry construction through
//! [`suu_algos::standard_registry`], capability-aware skipping,
//! **adaptive-precision** evaluation via [`suu_sim::Evaluator`]'s
//! streaming path (batched engine + [`suu_sim::OutcomeAccumulator`], so
//! a cell's memory is independent of its trial count, and cells grow in
//! deterministic rounds until the stopping rule fires), optional LP
//! lower bounds, paired policy comparisons on common random numbers, the
//! human-readable table, and the shared JSON results document
//! (`suu-results/v2`). The table1/figure binaries are now a `Race`
//! literal plus a `main`, and the `suu-serve` daemon consumes the same
//! stack as a library — [`scenario_master_seed`], the scenario recipes
//! and [`ResultsBuilder`] are shared between the offline runner and the
//! served cache path, so a daemon cell and a runner cell with the same
//! identity are the same numbers.

use crate::report::ResultsBuilder;
use crate::scenario::Scenario;
use suu_algos::bounds::lower_bound;
use suu_core::json::Json;
use suu_sim::{
    spec_factory, EvalConfig, Evaluator, ExecConfig, PolicyRegistry, PolicySpec, Precision,
    RegistryError,
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
    /// Trials per cell when no [`Race::precision`] override is given
    /// (i.e. the default is `Precision::FixedTrials(trials)`).
    pub trials: usize,
    /// How much sampling each cell gets; `None` means a fixed budget of
    /// [`Race::trials`]. With `Precision::TargetCi` cells stop as soon as
    /// their 95% CI half-width reaches the target (deterministically:
    /// same master seed ⇒ same stopping points).
    pub precision: Option<Precision>,
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
    /// Record per-cell wall clocks in the JSON document (`true` by
    /// default). Disable to make the document a pure function of the
    /// master seed — byte-identical across reruns and thread counts —
    /// for regression pinning.
    pub record_wall_clocks: bool,
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
            trials: 60,
            precision: None,
            paired: Vec::new(),
            master_seed: 0x5EED,
            exec: ExecConfig::default(),
            ratios_to_lower_bound: false,
            record_wall_clocks: true,
            json_path: None,
        }
    }
}

impl Race {
    /// The effective stopping rule: the explicit [`Race::precision`], or
    /// a fixed budget of [`Race::trials`].
    pub fn effective_precision(&self) -> Precision {
        self.precision
            .unwrap_or(Precision::FixedTrials(self.trials))
    }
}

/// One evaluated `(scenario, policy)` cell.
#[derive(Debug)]
pub enum CellOutcome {
    /// Ran; mean makespan and the ratio to the scenario lower bound (when
    /// requested).
    Ran {
        /// Mean makespan across trials.
        mean: f64,
        /// `mean / lower_bound`, when a bound was computed.
        ratio: Option<f64>,
        /// Trials actually executed before the stopping rule fired.
        trials_used: u64,
    },
    /// The policy's capability is below the scenario's structure class.
    Skipped,
    /// Construction failed (limits, LP errors…).
    Failed(String),
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

/// Run the race: print the table, write/return the JSON document.
pub fn run_race(race: Race) -> Json {
    let registry = suu_algos::standard_registry();
    run_race_with(race, &registry)
}

/// [`run_race`] against a caller-supplied registry (tests, custom
/// policies).
pub fn run_race_with(race: Race, registry: &PolicyRegistry) -> Json {
    let specs: Vec<PolicySpec> = race
        .policies
        .iter()
        .map(|p| PolicySpec::parse(p).unwrap_or_else(|e| panic!("bad policy spec {p:?}: {e}")))
        .collect();

    if !race.title.is_empty() {
        println!("== {} ==", race.title);
        match race.effective_precision() {
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
    for spec in &specs {
        header.push_str(&format!(" {:>14}", truncate(&spec.to_string(), 14)));
    }
    println!("{header}");
    println!("{:-<width$}", "", width = header.len());

    let paired_specs: Vec<(PolicySpec, PolicySpec)> = race
        .paired
        .iter()
        .map(|(a, b)| {
            (
                PolicySpec::parse(a).unwrap_or_else(|e| panic!("bad paired spec {a:?}: {e}")),
                PolicySpec::parse(b).unwrap_or_else(|e| panic!("bad paired spec {b:?}: {e}")),
            )
        })
        .collect();

    let mut builder =
        ResultsBuilder::new(race.generated_by.clone()).record_wall_clocks(race.record_wall_clocks);
    let precision = race.effective_precision();

    for sc in &race.scenarios {
        builder.add_scenario(sc);
        let inst = sc.instantiate();
        // A failed bound is *surfaced*, not swallowed: the row and every
        // cell of the scenario say what went wrong (an earlier spelling
        // used `.ok()` here, so LP failures printed the same `—` as
        // "bounds not requested" and vanished from the document).
        let lb_result = race
            .ratios_to_lower_bound
            .then(|| lower_bound(&inst).map_err(|e| e.to_string()));
        let lb = lb_result.as_ref().and_then(|r| r.as_ref().ok()).copied();
        let lb_error = lb_result.as_ref().and_then(|r| r.as_ref().err()).cloned();

        let mut row = format!("{:<24} {:>6} {:>6}", truncate(&sc.id, 24), sc.m, sc.n);
        match &lb_result {
            Some(Ok(lb)) => row.push_str(&format!(" {:>8.2}", lb)),
            Some(Err(e)) => row.push_str(&format!(" {:>8}", truncate(&format!("LB! {e}"), 8))),
            None => {}
        }

        let evaluator = Evaluator::new(EvalConfig {
            trials: precision.max_trials(),
            // Scenario-specific stream (identity-mixed; see
            // `scenario_master_seed`) so adding a scenario never shifts
            // another's randomness and same-seed scenarios from
            // different families never share one. All policies of the
            // scenario share it — the CRN streams the paired
            // comparisons below rely on.
            master_seed: scenario_master_seed(race.master_seed, sc),
            threads: 0,
            exec: race.exec,
            ..EvalConfig::default()
        });

        for spec in &specs {
            let outcome = evaluate_cell(
                registry,
                &evaluator,
                sc,
                &inst,
                spec,
                precision,
                lb,
                lb_error.as_deref(),
                &mut builder,
            );
            match &outcome {
                CellOutcome::Ran { mean, ratio, .. } => match ratio {
                    Some(r) => row.push_str(&format!(" {:>13.2}x", r)),
                    None => row.push_str(&format!(" {:>14.2}", mean)),
                },
                CellOutcome::Skipped => row.push_str(&format!(" {:>14}", "—")),
                CellOutcome::Failed(_) => row.push_str(&format!(" {:>14}", "error")),
            }
        }
        println!("{row}");
        if let Some(e) = &lb_error {
            println!("    lower-bound error: {e}");
        }

        for (spec_a, spec_b) in &paired_specs {
            run_paired_cell(
                registry,
                &evaluator,
                sc,
                &inst,
                spec_a,
                spec_b,
                precision,
                &mut builder,
            );
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

#[allow(clippy::too_many_arguments)]
fn evaluate_cell(
    registry: &PolicyRegistry,
    evaluator: &Evaluator,
    sc: &Scenario,
    inst: &std::sync::Arc<suu_core::SuuInstance>,
    spec: &PolicySpec,
    precision: Precision,
    lb: Option<f64>,
    lb_error: Option<&str>,
    builder: &mut ResultsBuilder,
) -> CellOutcome {
    match evaluator.run_adaptive_spec(registry, inst, spec, precision) {
        Ok(adaptive) => {
            let stats = adaptive.stats;
            let mean = stats.mean_makespan();
            let ratio = lb.map(|lb| mean / lb);
            let mut extra: Vec<(&str, Json)> = Vec::new();
            extra.push((
                "stop_reason",
                Json::Str(adaptive.stop_reason.as_str().into()),
            ));
            if let Some(lb) = lb {
                extra.push(("lower_bound", Json::Num(lb)));
            }
            if let Some(r) = ratio {
                extra.push(("ratio_to_lb", Json::Num(r)));
            }
            if let Some(e) = lb_error {
                extra.push(("lower_bound_error", Json::Str(e.to_string())));
            }
            builder.add_cell(&sc.id, &spec.to_string(), &stats, &extra);
            CellOutcome::Ran {
                mean,
                ratio,
                trials_used: stats.trials(),
            }
        }
        Err(e @ RegistryError::UnsupportedStructure { .. }) => {
            builder.add_failure(&sc.id, &spec.to_string(), "skipped", e.to_string());
            CellOutcome::Skipped
        }
        Err(e) => {
            let msg = e.to_string();
            builder.add_failure(&sc.id, &spec.to_string(), "error", msg.clone());
            CellOutcome::Failed(msg)
        }
    }
}

/// Run one paired CRN comparison and record it (skips silently on a
/// capability mismatch — the marginal cells already recorded why).
#[allow(clippy::too_many_arguments)]
fn run_paired_cell(
    registry: &PolicyRegistry,
    evaluator: &Evaluator,
    sc: &Scenario,
    inst: &std::sync::Arc<suu_core::SuuInstance>,
    spec_a: &PolicySpec,
    spec_b: &PolicySpec,
    precision: Precision,
    builder: &mut ResultsBuilder,
) {
    let paired = spec_factory(registry, inst, spec_a).and_then(|a| {
        let b = spec_factory(registry, inst, spec_b)?;
        Ok(evaluator.run_paired(inst, a, b, precision))
    });
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
            builder.add_paired(&sc.id, &spec_a.to_string(), &spec_b.to_string(), &paired);
        }
        Err(RegistryError::UnsupportedStructure { .. }) => {}
        Err(e) => {
            builder.add_paired_failure(
                &sc.id,
                &spec_a.to_string(),
                &spec_b.to_string(),
                e.to_string(),
            );
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
            trials: 4,
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
        use suu_sim::Precision;
        let doc = run_race(Race {
            generated_by: "runner-adaptive-test".to_string(),
            scenarios: vec![Scenario::uniform(3, 6, 0.3, 0.9, 21)],
            policies: vec!["gang-sequential".to_string(), "greedy-lr".to_string()],
            precision: Some(Precision::TargetCi {
                half_width: 0.25,
                relative: true, // 25% of the mean: reached almost at once
                min_trials: 4,
                max_trials: 64,
            }),
            paired: vec![("gang-sequential".to_string(), "greedy-lr".to_string())],
            master_seed: 77,
            record_wall_clocks: false,
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
            assert!(c.get("wall_clock_s").is_none(), "wall clocks disabled");
        }
        let paired = doc.get("paired").unwrap().as_array().unwrap();
        assert_eq!(paired.len(), 1);
        let p = &paired[0];
        assert_eq!(p.get("policy_a").unwrap().as_str(), Some("gang-sequential"));
        assert_eq!(p.get("policy_b").unwrap().as_str(), Some("greedy-lr"));
        assert!(p.get("delta_mean").unwrap().as_f64().is_some());
        assert!(p.get("delta_ci95").unwrap().as_f64().is_some());
        assert!(p.get("significant").unwrap().as_bool().is_some());

        // Determinism: same master seed ⇒ byte-identical document
        // (wall clocks disabled above).
        let rerun = run_race(Race {
            generated_by: "runner-adaptive-test".to_string(),
            scenarios: vec![Scenario::uniform(3, 6, 0.3, 0.9, 21)],
            policies: vec!["gang-sequential".to_string(), "greedy-lr".to_string()],
            precision: Some(Precision::TargetCi {
                half_width: 0.25,
                relative: true,
                min_trials: 4,
                max_trials: 64,
            }),
            paired: vec![("gang-sequential".to_string(), "greedy-lr".to_string())],
            master_seed: 77,
            record_wall_clocks: false,
            ..Race::default()
        });
        assert_eq!(doc.to_pretty(), rerun.to_pretty());
    }

    #[test]
    fn lower_bound_errors_surface_in_the_document() {
        // Regression for the `.ok()` spelling that swallowed bound
        // failures: a cell evaluated while the scenario's lower bound
        // errored must carry the error string, distinguishable from
        // "bounds not requested".
        let registry = suu_algos::standard_registry();
        let sc = Scenario::uniform(2, 4, 0.3, 0.9, 3);
        let inst = sc.instantiate();
        let evaluator = Evaluator::new(EvalConfig {
            trials: 4,
            master_seed: 1,
            threads: 1,
            ..EvalConfig::default()
        });
        let mut builder = ResultsBuilder::new("runner-lb-error-test");
        builder.add_scenario(&sc);
        let spec = PolicySpec::parse("gang-sequential").unwrap();
        let outcome = evaluate_cell(
            &registry,
            &evaluator,
            &sc,
            &inst,
            &spec,
            Precision::FixedTrials(4),
            None,
            Some("synthetic LP failure"),
            &mut builder,
        );
        assert!(matches!(outcome, CellOutcome::Ran { .. }));
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
            trials: 6,
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
