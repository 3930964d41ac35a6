//! **bench_baseline** — the perf-trajectory anchor: runs the standard
//! nine-family [`suu_bench::scenario::ScenarioSuite`] across every
//! registry policy that fits each scenario (on the streaming batched
//! evaluator), measures the batched evaluator's all-cores-vs-one-worker
//! speedup (outcomes checked against the per-trial reference), and races
//! the **per-trial event engine against the batch runner** (identical
//! outcomes required, wall clocks recorded). Writes:
//!
//! * `BENCH_baseline.json` — schema `suu-results/v2` with an extra
//!   `"evaluator"` block (quality + per-cell wall clock) and an
//!   `"adaptive_vs_fixed"` block: fixed-budget vs adaptive-precision
//!   total trial counts at equal CI half-width on high-variance
//!   families;
//! * `BENCH_engine_batch.json` — per-trial vs. batched engine per
//!   scenario family plus three large hard-jobs families, with
//!   `threads`/`host_cores`/`batch_size` recorded and a `stationary`
//!   flag per cell (stationary policies share epoch plans through the
//!   runner's plan cache; the rest gain only the runner's reused state).
//!
//! Dense ≡ events is proven bitwise by `tests/engine_differential.rs`,
//! not here. Later scaling PRs re-run this binary and diff the JSON:
//! makespan means are quality regressions, `wall_clock_s` per cell is
//! the perf trajectory.
//!
//! ```sh
//! cargo run --release -p suu-bench --bin bench_baseline \
//!     [--smoke] [out.json [batch_out.json]]
//! ```
//!
//! `--smoke` shrinks everything (smoke suite, few trials) for CI — and
//! runs the race **adaptively** (`Precision::TargetCi`), so the
//! sequential-stopping path is exercised end to end. It still asserts
//! per-trial ≡ batched bitwise, so engine regressions that only manifest
//! under the Race runner fail fast; CI additionally validates every
//! artifact with the `validate_results` gate (schema shape,
//! `outcomes_identical`, counted-but-tolerated null speedups).

use std::sync::Arc;
use std::time::Instant;
use suu_bench::runner::{run_race_with, scenario_master_seed, Race};
use suu_bench::scenario::{Scenario, ScenarioSuite};
use suu_core::json::Json;
use suu_core::profile::ProfileMode;
use suu_core::SuuInstance;
use suu_sim::{
    execute, spec_factory, BatchRunner, EvalConfig, EvalReport, Evaluator, ExecConfig, ExecOutcome,
    OutcomeAccumulator, PolicyRegistry, PolicySpec, Precision, RegistryError, Semantics,
};

/// Smallest wall clock a speedup ratio is trusted at: sub-millisecond
/// measurements are timer-noise dominated, and a ~0 denominator used to
/// emit `inf`/NaN that the JSON writer silently turned into `null`.
const MIN_MEASURABLE_WALL_CLOCK_S: f64 = 1e-3;

/// Cap on inner timing repetitions: a cell whose best round is still
/// under the floor at this many reps is genuinely unmeasurable and gets
/// an explicit `"speedup": null`.
const MAX_TIMING_REPS: usize = 8192;

/// A min-of-k wall-clock measurement: the best per-iteration time and
/// how many inner repetitions each timed round ran.
struct Timing {
    secs: f64,
    reps: usize,
}

impl Timing {
    /// Whether the ratio of two such timings is meaningful: the best
    /// timed *round* (secs × reps) must clear the measurability floor.
    fn trusted(&self) -> bool {
        self.secs * self.reps as f64 >= MIN_MEASURABLE_WALL_CLOCK_S
    }
}

/// Measure `f`'s wall clock, repeating it enough times that each timed
/// round comfortably clears [`MIN_MEASURABLE_WALL_CLOCK_S`], and taking
/// the **minimum** over 3 rounds (the minimum is the standard robust
/// estimator under one-sided scheduler noise). Long workloads
/// (≥ 0.25 s) are measured by a single shot. `f` must be idempotent —
/// every caller here re-executes a deterministic trial set.
fn measure_secs(mut f: impl FnMut()) -> Timing {
    let started = Instant::now();
    f();
    let once = started.elapsed().as_secs_f64();
    if once >= 0.25 {
        return Timing {
            secs: once,
            reps: 1,
        };
    }
    let mut reps = (((2.0 * MIN_MEASURABLE_WALL_CLOCK_S) / once.max(1e-9)).ceil() as usize)
        .clamp(1, MAX_TIMING_REPS);
    loop {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let started = Instant::now();
            for _ in 0..reps {
                f();
            }
            best = best.min(started.elapsed().as_secs_f64() / reps as f64);
        }
        // The warm best can undercut the calibration shot; escalate reps
        // until the best round clears the floor (or the cap declares the
        // workload genuinely unmeasurable).
        if best * reps as f64 >= MIN_MEASURABLE_WALL_CLOCK_S || reps >= MAX_TIMING_REPS {
            return Timing { secs: best, reps };
        }
        reps = (reps * 2).min(MAX_TIMING_REPS);
    }
}

/// Attach the `speedup` field from two repeated timings: the ratio when
/// both are trusted, otherwise an **explicit** `"speedup": null` plus a
/// `speedup_note` saying why. The CI gate (`validate_results`) tolerates
/// — but counts — null-speedup cells.
fn with_ratio(cell: Json, baseline: &Timing, contender: &Timing) -> Json {
    if baseline.trusted() && contender.trusted() {
        cell.field("speedup", baseline.secs / contender.secs)
    } else {
        cell.field("speedup", Json::Null).field(
            "speedup_note",
            "wall clock under 1ms even after min-of-3 repeated timing; \
             the ratio would be timer noise",
        )
    }
}

/// Attach the `speedup` field from two one-shot wall clocks (the
/// evaluator block, whose clocks are seconds-scale).
fn with_speedup(cell: Json, baseline_s: f64, contender_s: f64) -> Json {
    if baseline_s < MIN_MEASURABLE_WALL_CLOCK_S || contender_s < MIN_MEASURABLE_WALL_CLOCK_S {
        cell.field("speedup", Json::Null).field(
            "speedup_note",
            "wall clock under 1ms; the ratio would be timer noise",
        )
    } else {
        cell.field("speedup", baseline_s / contender_s)
    }
}

/// One per-trial-vs-batched cell (schema `suu-bench/engine-batch/v2`):
/// min-of-k wall clocks, speedup, bitwise equality, decision-cache
/// counters from the cold (first, production-shaped) batched pass, the
/// profiler's phase breakdown from a separate instrumented pass, and a
/// streaming-statistics cross-check.
fn batch_cell(
    registry: &PolicyRegistry,
    inst: &Arc<SuuInstance>,
    scenario_id: &str,
    spec: &PolicySpec,
    trials: usize,
    batch: usize,
    semantics: Semantics,
) -> Result<Json, RegistryError> {
    let exec = ExecConfig {
        semantics,
        ..ExecConfig::default()
    };
    let evaluator = Evaluator::new(EvalConfig {
        trials,
        master_seed: 0xBA7C,
        threads: 1, // single worker: wall clocks compare engines, not pools
        batch,
        exec,
    });
    let seeds = evaluator.trial_batch(0, trials);
    let mut policy = registry.build(inst, spec)?;
    let stationary = policy.is_stationary();

    // Correctness: per-trial reference vs the cold batched pass (the
    // production shape — chunks streamed through one warm runner).
    let reference: Vec<ExecOutcome> = seeds
        .iter()
        .map(|t| {
            if let Some(s) = t.policy_seed {
                policy.reseed(s);
            }
            execute(inst, &mut *policy, &exec, t.engine_seed)
        })
        .collect();
    let mut runner = BatchRunner::new(inst, &exec);
    let mut batched: Vec<ExecOutcome> = Vec::with_capacity(trials);
    for chunk in seeds.chunks(batch.max(1)) {
        batched.extend(runner.run(&mut *policy, chunk));
    }
    // Cache counters of exactly one production pass, snapshotted before
    // the timing loops re-run (and re-hit) the warm cache.
    let cold = runner.metrics();
    let identical = batched == reference;
    assert!(
        identical,
        "batched engine diverged from per-trial engine on {scenario_id}/{spec}"
    );

    // Streaming cross-check: the O(1)-memory stats path folds the very
    // same outcomes in the same order, so its Welford mean must equal a
    // direct fold of the batched outcomes **bitwise**.
    let stats = evaluator.run_stats(inst, spec_factory(registry, inst, spec)?);
    let mut acc = OutcomeAccumulator::new();
    for o in &batched {
        acc.push(o);
    }
    let mean = acc.makespan().mean().expect("trials > 0");
    assert!(
        stats.mean_makespan().to_bits() == mean.to_bits(),
        "streaming stats diverged on {scenario_id}/{spec}"
    );

    // Timing: both sides exclude policy construction; the batched side
    // times the warm runner (decision cache populated), which is the
    // steady state every streaming evaluation path runs in.
    let per_trial_t = measure_secs(|| {
        for t in &seeds {
            if let Some(s) = t.policy_seed {
                policy.reseed(s);
            }
            std::hint::black_box(execute(inst, &mut *policy, &exec, t.engine_seed).makespan);
        }
    });
    let batched_t = measure_secs(|| {
        for chunk in seeds.chunks(batch.max(1)) {
            std::hint::black_box(runner.run(&mut *policy, chunk).len());
        }
    });

    // Phase breakdown from a separate exact-profiled pass, so the timed
    // numbers above stay instrumentation-free.
    let mut prof_runner = BatchRunner::new(inst, &exec).with_profile(ProfileMode::Exact);
    for chunk in seeds.chunks(batch.max(1)) {
        let _ = prof_runner.run(&mut *policy, chunk);
    }
    let profile = prof_runner.metrics().profile.expect("profiler enabled");

    let sem_label = semantics.as_str();
    println!(
        // suu-lint: allow(float-format, "human console progress line; schema'd floats go through the Json shortest-repr writer")
        "  {scenario_id:<28} {spec:<14} {} {sem_label:<8} per-trial {:>8.4}s  batched {:>8.4}s  speedup {:>6.2}x  cache {}h/{}m",
        if stationary { "[stationary]" } else { "[fallback]  " },
        per_trial_t.secs,
        batched_t.secs,
        per_trial_t.secs / batched_t.secs.max(1e-12),
        cold.cache_hits,
        cold.cache_misses,
    );
    Ok(with_ratio(
        Json::obj()
            .field("scenario", scenario_id)
            .field("policy", spec.to_string())
            .field("semantics", sem_label)
            .field("trials", trials as u64)
            .field("stationary", stationary)
            .field("mean_makespan", mean)
            .field("per_trial_wall_clock_s", per_trial_t.secs)
            .field("batched_wall_clock_s", batched_t.secs)
            .field("streaming_wall_clock_s", stats.wall_clock.as_secs_f64())
            .field(
                "timing_reps",
                Json::obj()
                    .field("per_trial", per_trial_t.reps as u64)
                    .field("batched", batched_t.reps as u64),
            )
            .field(
                "cache",
                Json::obj()
                    .field("hits", cold.cache_hits)
                    .field("misses", cold.cache_misses)
                    .field("evictions", cold.cache_evictions)
                    .field("entries", cold.cache_entries),
            )
            .field("profile", profile.to_json())
            .field("outcomes_identical", identical),
        &per_trial_t,
        &batched_t,
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let out_path = positional
        .first()
        .map(|s| s.to_string())
        .unwrap_or_else(|| "BENCH_baseline.json".to_string());
    let batch_out_path = positional
        .get(1)
        .map(|s| s.to_string())
        .unwrap_or_else(|| "BENCH_engine_batch.json".to_string());

    let started = Instant::now();
    let registry = suu_algos::standard_registry();
    let suite = if smoke {
        ScenarioSuite::smoke(42)
    } else {
        ScenarioSuite::standard(42)
    };

    // 1. Quality + per-cell wall clock across the suite. Smoke mode runs
    //    the race **adaptively** (CI exercises the sequential-stopping
    //    path end to end and the schema gate validates its fields); the
    //    full run keeps the fixed 200-trial budget so the perf/quality
    //    trajectory stays comparable across PRs.
    let race_precision = if smoke {
        Precision::TargetCi {
            half_width: 0.10,
            relative: true,
            min_trials: 4,
            max_trials: 16,
        }
    } else {
        Precision::FixedTrials(200)
    };
    let mut doc = run_race_with(
        Race {
            title: format!("BENCH baseline: {} suite × registry policies", suite.name),
            generated_by: "bench_baseline".to_string(),
            scenarios: suite.scenarios,
            policies: [
                "gang-sequential",
                "round-robin",
                "best-machine",
                "greedy-lr",
                "suu-i-obl",
                "suu-i-sem",
                "suu-c",
                "suu-t",
            ]
            .map(String::from)
            .to_vec(),
            precision: race_precision,
            master_seed: 0xBA5E,
            ratios_to_lower_bound: true,
            json_path: None,
            ..Race::default()
        },
        &registry,
    );

    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    // 2. Evaluator speedup: the batched pipeline at one worker vs all
    //    cores, both checked bitwise against the per-trial `run_serial`
    //    reference (skipped in smoke mode; the engine comparison below
    //    already covers determinism).
    if !smoke {
        println!("\n-- evaluator speedup (1000 trials, greedy-lr on uniform-12x192) --");
        let sc = Scenario::uniform(12, 192, 0.35, 0.97, 77);
        let inst = sc.instantiate();
        let spec = PolicySpec::new("greedy-lr");
        let eval = Evaluator::seeded(1000, 0xFA57);
        let make_policy = || registry.build(&inst, &spec).expect("builds");

        let reference = eval.with_threads(1).run_serial(&inst, make_policy);
        let serial = eval.with_threads(1).run(&inst, make_policy);
        let parallel = eval.with_threads(0).run(&inst, make_policy);
        // Workers the all-cores run really had: the pool cuts the run into
        // chunks of min(batch, ceil(trials / cores)) trials and never runs
        // more workers than it has chunks.
        let trials = eval.config.trials;
        let chunk = suu_sim::evaluate::DEFAULT_BATCH.min(trials.div_ceil(cores));
        let workers = cores.min(trials.div_ceil(chunk));

        let same = |r: &EvalReport| {
            r.outcomes
                .iter()
                .zip(&reference.outcomes)
                .all(|(a, b)| a.makespan == b.makespan)
        };
        let identical = same(&serial) && same(&parallel);
        let speedup = serial.wall_clock.as_secs_f64() / parallel.wall_clock.as_secs_f64().max(1e-9);
        println!(
            // suu-lint: allow(float-format, "human console progress line; schema'd floats go through the Json shortest-repr writer")
            "serial {:.3}s  parallel {:.3}s  speedup {speedup:.2}x on {workers} worker(s)  outcomes identical: {identical}",
            serial.wall_clock.as_secs_f64(),
            parallel.wall_clock.as_secs_f64(),
        );
        if workers == 1 {
            println!("(one worker: the parallel path degenerates to the serial one;");
            println!(" re-run on a multicore machine for the real speedup number)");
        }
        assert!(
            identical,
            "batched evaluator diverged from the per-trial serial reference"
        );

        doc = doc.field(
            "evaluator",
            with_speedup(
                Json::obj()
                    .field("workload", sc.id.as_str())
                    .field("policy", "greedy-lr")
                    .field("trials", 1000u64)
                    .field("serial_wall_clock_s", serial.wall_clock.as_secs_f64())
                    .field("parallel_wall_clock_s", parallel.wall_clock.as_secs_f64())
                    .field("threads", workers)
                    .field("outcomes_identical", identical),
                serial.wall_clock.as_secs_f64(),
                parallel.wall_clock.as_secs_f64(),
            ),
        );
    }

    // 3. Per-trial vs. batched engine. Stationary policies share cached
    //    epoch plans; suu-i-obl, which wakes at every row change, decides
    //    at every epoch. Full mode adds three large hard-jobs families
    //    (n ≥ 96, near-certain per-step failure: hundreds of unit steps
    //    per completion) and runs both semantics there, so the SUU
    //    geometric sampler is measured alongside the SUU* one.
    println!("\n-- engine comparison: per-trial event engine vs. batch runner --");
    let batch_trials = if smoke { 4 } else { 60 };
    let batch_size = 256usize;
    let batch_specs = ["gang-sequential", "best-machine", "greedy-lr", "suu-i-obl"];
    let mut batch_scenarios = if smoke {
        ScenarioSuite::smoke(42).scenarios
    } else {
        ScenarioSuite::standard(42).scenarios
    };
    if !smoke {
        batch_scenarios.extend([
            Scenario::uniform(4, 96, 0.99, 0.999, 4242),
            Scenario::bimodal(4, 96, 0.6, 4343),
            Scenario::uniform(8, 128, 0.9, 0.99, 4444),
        ]);
    }
    let mut batch_cells: Vec<Json> = Vec::new();
    for sc in &batch_scenarios {
        let inst = sc.instantiate();
        let large = inst.num_jobs() >= 96;
        for spec_text in batch_specs {
            let spec = PolicySpec::new(spec_text);
            let mut semantics = vec![Semantics::SuuStar];
            if large && !smoke {
                semantics.push(Semantics::Suu);
            }
            for sem in semantics {
                match batch_cell(
                    &registry,
                    &inst,
                    &sc.id,
                    &spec,
                    batch_trials,
                    batch_size,
                    sem,
                ) {
                    Ok(cell) => batch_cells.push(cell),
                    Err(RegistryError::UnsupportedStructure { .. }) => break,
                    Err(e) => panic!("{}/{spec_text}: {e}", sc.id),
                }
            }
        }
    }
    let batch_doc = Json::obj()
        .field("schema", suu_core::schemas::BENCH_ENGINE_BATCH_V2)
        .field("generated_by", "bench_baseline")
        .field("mode", if smoke { "smoke" } else { "full" })
        .field("threads", 1u64)
        .field("host_cores", cores as u64)
        .field("batch_size", batch_size as u64)
        .field("trials_per_cell", batch_trials as u64)
        .field(
            "note",
            "wall clocks are min-of-3 repeated timings on a single worker thread \
             (policy construction excluded; batched side timed warm, the steady \
             state of the streaming evaluator); cache counters come from the cold \
             first pass; engine speedups are thread-independent, but on a 1-core \
             host re-run on multicore before quoting evaluator-level numbers",
        )
        .field("cells", Json::Arr(batch_cells));
    std::fs::write(&batch_out_path, batch_doc.to_pretty()).expect("write batch JSON");
    println!("batch comparison written to {batch_out_path}");

    // 4. Fixed vs adaptive trial budgets at equal precision, on
    //    high-variance scenario families. The fixed pass spends N trials
    //    on every cell; the loosest (largest) ci95 it achieves is the
    //    precision a fixed budget actually *guarantees* across the
    //    board. The adaptive pass targets exactly that half-width per
    //    cell — low-variance cells stop early, only the worst cell pays
    //    the full price — so the race reaches equal precision on fewer
    //    total trials. Deterministic: same master seed ⇒ same stopping
    //    points.
    println!("\n-- adaptive precision: fixed vs adaptive budgets at equal CI --");
    let fixed_trials = if smoke { 24 } else { 200 };
    let (av_m, av_n) = if smoke { (3, 8) } else { (4, 24) };
    let av_scenarios = vec![
        Scenario::bimodal(av_m, av_n, 0.6, 9091),
        Scenario::power_law(av_m, av_n, 0.5, 1.1, 9092),
        Scenario::uniform(av_m, av_n, 0.2, 0.95, 9093),
    ];
    let av_specs = ["greedy-lr", "best-machine"];
    let av_evaluator = |sc: &Scenario, trials: usize| {
        Evaluator::new(EvalConfig {
            trials,
            master_seed: scenario_master_seed(0xADA7, sc),
            threads: 0,
            ..EvalConfig::default()
        })
    };
    // Pass 1: fixed budgets; find the guaranteed (loosest) precision.
    let mut fixed_cis: Vec<f64> = Vec::new();
    for sc in &av_scenarios {
        let inst = sc.instantiate();
        for spec_text in av_specs {
            let spec = PolicySpec::new(spec_text);
            let make_policy = spec_factory(&registry, &inst, &spec)
                .unwrap_or_else(|e| panic!("{}/{spec_text}: {e}", sc.id));
            let stats = av_evaluator(sc, fixed_trials).run_stats(&inst, make_policy);
            fixed_cis.push(stats.summary().expect("trials > 0").ci95);
        }
    }
    let target_ci = fixed_cis.iter().cloned().fold(0.0f64, f64::max);
    // Pass 2: every cell adaptively targets that guaranteed precision.
    let adaptive_rule = Precision::TargetCi {
        half_width: target_ci,
        relative: false,
        min_trials: if smoke { 4 } else { 16 },
        max_trials: 4 * fixed_trials,
    };
    let mut av_cells: Vec<Json> = Vec::new();
    let mut adaptive_total = 0u64;
    let mut cell_idx = 0;
    for sc in &av_scenarios {
        let inst = sc.instantiate();
        for spec_text in av_specs {
            let adaptive = av_evaluator(sc, fixed_trials)
                .run_adaptive_spec(&registry, &inst, &PolicySpec::new(spec_text), adaptive_rule)
                .unwrap_or_else(|e| panic!("{}/{spec_text}: {e}", sc.id));
            let used = adaptive.trials_used();
            adaptive_total += used;
            let ci = adaptive.stats.summary().expect("trials > 0").ci95;
            println!(
                // suu-lint: allow(float-format, "human console progress line; schema'd floats go through the Json shortest-repr writer")
                "  {:<24} {spec_text:<14} fixed {fixed_trials:>4} trials (ci95 {:>7.3})  \
                 adaptive {used:>4} trials (ci95 {ci:>7.3}, {})",
                sc.id,
                fixed_cis[cell_idx],
                adaptive.stop_reason.as_str(),
            );
            av_cells.push(
                Json::obj()
                    .field("scenario", sc.id.as_str())
                    .field("policy", spec_text)
                    .field("fixed_trials", fixed_trials as u64)
                    .field("fixed_ci95", fixed_cis[cell_idx])
                    .field("adaptive_trials_used", used)
                    .field("adaptive_ci95", ci)
                    .field("stop_reason", adaptive.stop_reason.as_str()),
            );
            cell_idx += 1;
        }
    }
    let fixed_total = (fixed_trials * av_cells.len()) as u64;
    println!(
        // suu-lint: allow(float-format, "human console summary line; schema'd floats go through the Json shortest-repr writer")
        "equal precision (ci95 <= {target_ci:.3}): fixed {fixed_total} total trials, \
         adaptive {adaptive_total} total trials ({:.0}% of fixed)",
        100.0 * adaptive_total as f64 / fixed_total.max(1) as f64
    );
    doc = doc.field(
        "adaptive_vs_fixed",
        Json::obj()
            .field("target_ci95", target_ci)
            .field("fixed_trials_per_cell", fixed_trials as u64)
            .field("fixed_total_trials", fixed_total)
            .field("adaptive_total_trials", adaptive_total)
            .field("cells", Json::Arr(av_cells)),
    );

    doc = doc.field("batch_comparison_file", batch_out_path.as_str());
    std::fs::write(&out_path, doc.to_pretty()).expect("write baseline JSON");
    println!(
        // suu-lint: allow(float-format, "human console summary line; schema'd floats go through the Json shortest-repr writer")
        "\nbaseline written to {out_path}  [{:.1}s total]",
        started.elapsed().as_secs_f64()
    );
}
