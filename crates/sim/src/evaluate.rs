//! The parallel, seed-deterministic Monte-Carlo evaluator.
//!
//! One [`Evaluator`] is the single trial-running entry point in the
//! workspace. Trials fan out across a worker pool (with worker-local
//! policy state, so an expensive LP-built policy is constructed once per
//! worker, not once per trial) while remaining **bitwise deterministic**:
//!
//! * trial `k`'s engine randomness is the seed
//!   `derive_seed(master_seed, k, ENGINE_DOMAIN)`, from which the engine
//!   derives counter-based *per-job* streams (so the dense oracle and
//!   the event loop, per trial or batched, consume identical randomness
//!   — see [`crate::engine`]);
//! * trial `k`'s *policy-internal* randomness (e.g. `SUU-C`'s Theorem-7
//!   start delays) is pinned by calling [`crate::Policy::reseed`] with
//!   `derive_seed(master_seed, k, POLICY_DOMAIN)` before execution.
//!
//! Nothing a worker thread did before a trial can leak into it, so the
//! outcome vector is a pure function of `(instance, policy spec,
//! master_seed, trials)` — identical on 1 thread or 64. A SplitMix64 mix
//! (rather than `base_seed + k`) keeps nearby master seeds from sharing
//! trial streams.
//!
//! Every method but the [`Evaluator::run_serial`] reference runs its
//! trials through a worker pool that lives for the whole call (one per
//! policy for [`Evaluator::run_paired`]): the batched engine, with
//! chunks folded on the calling thread strictly in trial order.
//! [`Evaluator::run`] keeps every [`ExecOutcome`] in an [`EvalReport`]
//! (for differential tests and histogram experiments that need the raw
//! sample); every other path folds them into an [`OutcomeAccumulator`]
//! and returns [`EvalStats`] — `O(threads · batch)` peak memory,
//! independent of the trial count, and bitwise identical at any thread
//! count, even the order-sensitive P² sketches.
//!
//! The accumulating paths are one core: grow a cell from its current
//! trial count until a [`Precision`] rule fires, in deterministic rounds
//! (*rungs*) on the [`BudgetLadder`] schedule. [`Evaluator::run_stats`]
//! is growth from empty under `FixedTrials(n)`;
//! [`Evaluator::resume_adaptive`] grows a saved cell (under
//! `FixedTrials(n)` that is a plain extend to `n` trials). Because every
//! trial's randomness is keyed by its **index** (not by anything a
//! previous trial did), growing a cell from `n` to `n+k` trials is
//! bitwise identical — moments *and* sketch state — to a fresh
//! `n+k`-trial run. Checkpoints serialize via [`EvalStats::to_json`];
//! the `suu-serve` daemon's content-addressed result cache is built on
//! that.
//!
//! # The worker pool
//!
//! * **Lifetime.** The calling thread is one worker; the others are
//!   threads started on the first rung that has chunks for them, and all
//!   of them return when the call does. Each worker builds its policy and
//!   its [`BatchRunner`] once per call, so both stay warm across every
//!   rung.
//! * **Rung split.** The pool runs one rung at a time, cut into chunks of
//!   `min(batch, ceil(rung / workers))` trials, so even a small rung
//!   keeps every worker busy. The precision check runs between rungs: no
//!   trial of the next rung starts before it, so the trials run are
//!   exactly the trials used. Chunking cannot change an outcome: trial
//!   seeds are keyed by absolute index, and the batched engine is bitwise
//!   equal to per-trial execution for any batch composition.
//! * **Plan-cache lifetime.** Each runner drops its cached decision plans
//!   when a rung starts (keeping the allocations), so plans live for one
//!   rung. That bounds the daemon's memory: plans kept for a whole cell
//!   raised its peak RSS by half, for no measurable time.
//! * **Panics.** A panic on a worker thread stops the handing-out of
//!   chunks; the other workers return and the first panic is re-raised
//!   on the calling thread, so a policy bug fails the call instead of
//!   hanging it.
//!
//! [`Evaluator::run_paired`] compares two policies on **common random
//! numbers** (the same per-trial engine seeds), so the variance of the
//! per-trial *difference* — not of each mean — drives the budget. It
//! runs every rung on both policies' pools and folds the differences in
//! trial order, so it is thread-count invariant like the rest.
//! Registry-built policies enter any of these through [`spec_factory`].

use crate::engine::batch::{BatchRunner, BatchTrial};
use crate::engine::{execute, ExecConfig, ExecOutcome, Semantics};
use crate::policy::Policy;
use crate::registry::{PolicyRegistry, PolicySpec, RegistryError};
use crate::stats::{OutcomeAccumulator, PairedDelta, Precision, StopReason, Summary};
use crate::sweep::BudgetLadder;
use std::any::Any;
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Scope;
use std::time::{Duration, Instant};
use suu_core::json::Json;
use suu_core::SuuInstance;

/// Domain tag for engine (job-outcome) randomness.
const ENGINE_DOMAIN: u64 = 0x45;
/// Domain tag for policy-internal randomness.
const POLICY_DOMAIN: u64 = 0x50;

/// Statistically independent 64-bit seed for `(master, index, domain)` —
/// a SplitMix64 finalization over the mixed triple.
pub fn derive_seed(master: u64, index: u64, domain: u64) -> u64 {
    let mut z = master
        ^ domain.wrapping_mul(0xA076_1D64_78BD_642F)
        ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Evaluation parameters.
#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
    /// Number of independent trials.
    pub trials: usize,
    /// Root of every trial's randomness.
    pub master_seed: u64,
    /// Workers, the calling thread included (`0` = one per available
    /// core, `1` = serial).
    pub threads: usize,
    /// Most trials per batch handed to the batched engine (a rung
    /// split across workers may use smaller batches); bounds the
    /// accumulating paths' peak memory at `O(threads · batch)` outcomes.
    /// `0` means the default (256). [`Evaluator::run_serial`] ignores it.
    pub batch: usize,
    /// Engine configuration shared by all trials.
    pub exec: ExecConfig,
}

/// Default [`EvalConfig::batch`] size.
pub const DEFAULT_BATCH: usize = 256;

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            trials: 100,
            master_seed: 0x5EED,
            threads: 0,
            batch: DEFAULT_BATCH,
            exec: ExecConfig::default(),
        }
    }
}

/// What an evaluation produced, plus how long it took.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// Display name of the evaluated policy.
    pub policy: String,
    /// Configuration the evaluation ran under.
    pub config: EvalConfig,
    /// Per-trial outcomes, in trial order.
    pub outcomes: Vec<ExecOutcome>,
    /// Wall-clock time for the whole batch.
    pub wall_clock: Duration,
}

impl EvalReport {
    /// Makespans as `f64`s, in trial order.
    pub fn makespans(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.makespan as f64).collect()
    }

    /// Mean makespan. Panics on zero trials.
    pub fn mean_makespan(&self) -> f64 {
        assert!(!self.outcomes.is_empty(), "no outcomes");
        self.outcomes.iter().map(|o| o.makespan as f64).sum::<f64>() / self.outcomes.len() as f64
    }

    /// Fraction of trials that completed within the step cap.
    pub fn completion_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().filter(|o| o.completed).count() as f64 / self.outcomes.len() as f64
    }

    /// `true` when every trial completed within the step cap.
    pub fn all_completed(&self) -> bool {
        self.outcomes.iter().all(|o| o.completed)
    }

    /// Total machine-steps the policy pointed at ineligible jobs (schedule
    /// bugs; the paper forbids them).
    pub fn total_ineligible(&self) -> u64 {
        self.outcomes.iter().map(|o| o.ineligible_assignments).sum()
    }

    /// Summary statistics of the makespan sample (`None` on zero trials).
    pub fn summary(&self) -> Option<Summary> {
        self.to_stats().summary()
    }

    /// Collapse the buffered outcomes into streaming statistics (fed in
    /// trial order, so the result is bitwise what [`Evaluator::run_stats`]
    /// produces for the same configuration).
    pub fn to_stats(&self) -> EvalStats {
        let mut acc = OutcomeAccumulator::new();
        for o in &self.outcomes {
            acc.push(o);
        }
        EvalStats {
            policy: self.policy.clone(),
            config: self.config,
            acc,
            wall_clock: self.wall_clock,
        }
    }
}

/// Streaming evaluation result: everything [`EvalReport`] can tell the
/// report layer, in memory independent of the trial count — no retained
/// per-trial outcomes, just an [`OutcomeAccumulator`].
#[derive(Debug, Clone)]
pub struct EvalStats {
    /// Display name of the evaluated policy.
    pub policy: String,
    /// Configuration the evaluation ran under.
    pub config: EvalConfig,
    /// Folded trial statistics.
    pub acc: OutcomeAccumulator,
    /// Wall-clock time for the whole run.
    pub wall_clock: Duration,
}

impl EvalStats {
    /// Trials folded in.
    pub fn trials(&self) -> u64 {
        self.acc.count()
    }

    /// Mean makespan — `O(1)`, straight from the Welford state (bitwise
    /// the value [`EvalStats::summary`] reports, without its quantile
    /// sort). Panics on zero trials (mirrors
    /// [`EvalReport::mean_makespan`]).
    pub fn mean_makespan(&self) -> f64 {
        self.acc.makespan().mean().expect("no outcomes")
    }

    /// Fraction of trials that completed within the step cap.
    pub fn completion_rate(&self) -> f64 {
        self.acc.completion_rate()
    }

    /// `true` when every trial completed within the step cap.
    pub fn all_completed(&self) -> bool {
        self.acc.all_completed()
    }

    /// Total machine-steps the policy pointed at ineligible jobs.
    pub fn total_ineligible(&self) -> u64 {
        self.acc.total_ineligible()
    }

    /// Summary statistics of the makespan sample (`None` on zero trials).
    pub fn summary(&self) -> Option<Summary> {
        self.acc.summary()
    }

    /// Schema identifier stamped on [`EvalStats::to_json`] checkpoints.
    pub const CHECKPOINT_SCHEMA: &'static str = suu_core::schemas::SIM_EVALSTATS_V1;

    /// Serialize a resumable checkpoint: the accumulator snapshot plus
    /// everything [`Evaluator::resume_adaptive`] needs to continue the
    /// cell (master seed, trial count, engine configuration). The
    /// `exec.engine` field is always `"events"`: it predates the single
    /// engine and is kept so the `suu-sim/evalstats/v1` form is
    /// unchanged.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("schema", Self::CHECKPOINT_SCHEMA)
            .field("policy", self.policy.as_str())
            .field("trials", self.config.trials)
            .field("master_seed", self.config.master_seed)
            .field("batch", self.config.batch)
            .field(
                "exec",
                Json::obj()
                    .field("semantics", self.config.exec.semantics.as_str())
                    .field("engine", "events")
                    .field("max_steps", self.config.exec.max_steps),
            )
            .field("wall_clock_s", self.wall_clock.as_secs_f64())
            .field("accumulator", self.acc.to_json())
    }

    /// Restore a checkpoint produced by [`EvalStats::to_json`]. The
    /// restored accumulator is bitwise the saved one; `threads` is not
    /// part of the checkpoint (it never affects results) and comes back
    /// as `0` (all cores). `exec.engine` must be one of its two old
    /// spellings, `"events"` or `"dense"`, and is otherwise ignored: the
    /// two engines gave bitwise-identical trials.
    pub fn from_json(json: &Json) -> Result<EvalStats, String> {
        match json.get("schema").and_then(Json::as_str) {
            Some(s) if s == Self::CHECKPOINT_SCHEMA => {}
            other => return Err(format!("unsupported checkpoint schema {other:?}")),
        }
        let u64_field = |key: &str| -> Result<u64, String> {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("checkpoint missing integer '{key}'"))
        };
        let exec_json = json.get("exec").ok_or("checkpoint missing 'exec'")?;
        let semantics = exec_json
            .get("semantics")
            .and_then(Json::as_str)
            .ok_or("checkpoint missing 'exec.semantics'")?;
        let semantics = Semantics::parse(semantics)
            .ok_or_else(|| format!("unknown semantics {semantics:?}"))?;
        match exec_json.get("engine").and_then(Json::as_str) {
            Some("events" | "dense") => {}
            Some(engine) => return Err(format!("unknown engine {engine:?}")),
            None => return Err("checkpoint missing 'exec.engine'".into()),
        }
        let exec = ExecConfig {
            semantics,
            max_steps: exec_json
                .get("max_steps")
                .and_then(Json::as_u64)
                .ok_or("checkpoint missing 'exec.max_steps'")?,
        };
        let acc = OutcomeAccumulator::from_json(
            json.get("accumulator")
                .ok_or("checkpoint missing 'accumulator'")?,
        )?;
        let trials = u64_field("trials")? as usize;
        if acc.count() != trials as u64 {
            return Err("checkpoint trial count disagrees with accumulator".into());
        }
        let wall_clock_s = json
            .get("wall_clock_s")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        Ok(EvalStats {
            policy: json
                .get("policy")
                .and_then(Json::as_str)
                .ok_or("checkpoint missing 'policy'")?
                .to_string(),
            config: EvalConfig {
                trials,
                master_seed: u64_field("master_seed")?,
                threads: 0,
                batch: u64_field("batch")? as usize,
                exec,
            },
            acc,
            wall_clock: Duration::try_from_secs_f64(wall_clock_s)
                .map_err(|e| format!("checkpoint 'wall_clock_s' {wall_clock_s}: {e}"))?,
        })
    }
}

/// An adaptively-stopped evaluation: the streaming statistics plus why
/// the cell stopped growing.
#[derive(Debug, Clone)]
pub struct AdaptiveStats {
    /// The cell's statistics; `stats.config.trials` is the trials
    /// actually used.
    pub stats: EvalStats,
    /// Why sampling stopped.
    pub stop_reason: StopReason,
}

impl AdaptiveStats {
    /// Trials actually executed before stopping.
    pub fn trials_used(&self) -> u64 {
        self.stats.trials()
    }
}

/// A paired CRN comparison of two policies: Welford statistics of the
/// per-trial makespan difference `A − B` under shared trial seeds.
#[derive(Debug, Clone)]
pub struct PairedStats {
    /// Display name of policy A.
    pub policy_a: String,
    /// Display name of policy B.
    pub policy_b: String,
    /// Configuration the comparison ran under (`trials` = pairs used).
    pub config: EvalConfig,
    /// Per-trial difference accumulator.
    pub delta: PairedDelta,
    /// Why sampling stopped.
    pub stop_reason: StopReason,
    /// Wall-clock time for the whole comparison (both policies).
    pub wall_clock: Duration,
}

impl PairedStats {
    /// Paired trials executed.
    pub fn trials_used(&self) -> u64 {
        self.delta.count()
    }

    /// Mean per-trial difference `makespan_A − makespan_B` (`None` when
    /// empty).
    pub fn delta_mean(&self) -> Option<f64> {
        self.delta.mean()
    }

    /// 95% CI half-width of the mean difference (Student-t).
    pub fn delta_ci95(&self) -> Option<f64> {
        self.delta.ci95()
    }

    /// `true` when zero lies outside the difference CI.
    pub fn significant(&self) -> Option<bool> {
        self.delta.significant()
    }
}

/// The parallel trial runner. See the module docs for the determinism
/// contract.
#[derive(Debug, Clone, Copy, Default)]
pub struct Evaluator {
    /// Evaluation parameters.
    pub config: EvalConfig,
}

impl Evaluator {
    /// Evaluator over the given configuration.
    pub fn new(config: EvalConfig) -> Self {
        Evaluator { config }
    }

    /// Convenience: `trials` trials from `master_seed`, defaults otherwise.
    pub fn seeded(trials: usize, master_seed: u64) -> Self {
        Evaluator {
            config: EvalConfig {
                trials,
                master_seed,
                ..EvalConfig::default()
            },
        }
    }

    /// Builder-style thread override (`0` = all cores, `1` = serial).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Builder-style batch-size override.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.config.batch = batch;
        self
    }

    /// Effective batch size (`0` in the config means the default).
    fn batch_size(&self) -> usize {
        if self.config.batch == 0 {
            DEFAULT_BATCH
        } else {
            self.config.batch
        }
    }

    /// Seeds for the trials of chunk `chunk` of the range `lo..hi`
    /// (chunks partition the range into runs of `batch` consecutive
    /// indices), derived exactly as [`Evaluator::run_trial`] derives them
    /// — the foundation of the batched-vs-per-trial bitwise-equality
    /// guarantee. Trial seeds are keyed by absolute trial index, so *how*
    /// a range is chunked (or where a resumed range starts) never changes
    /// any trial's randomness.
    fn chunk_trials(&self, lo: usize, hi: usize, chunk: usize, batch: usize) -> Vec<BatchTrial> {
        let cfg = &self.config;
        let start = lo + chunk * batch;
        let end = (start + batch).min(hi);
        (start..end)
            .map(|k| BatchTrial {
                engine_seed: derive_seed(cfg.master_seed, k as u64, ENGINE_DOMAIN),
                policy_seed: Some(derive_seed(cfg.master_seed, k as u64, POLICY_DOMAIN)),
            })
            .collect()
    }

    /// Seeds of trials `lo..hi` as one batch — exactly the seeds every
    /// evaluation path derives for those trial indices, exposed so
    /// external harnesses (the bench binaries) can drive the engines
    /// directly while staying on the evaluator's randomness contract.
    pub fn trial_batch(&self, lo: usize, hi: usize) -> Vec<BatchTrial> {
        self.chunk_trials(lo, hi, 0, hi.saturating_sub(lo))
    }

    /// Run the policy produced by `make_policy` for every trial and
    /// collect the outcomes in trial order.
    ///
    /// The trials are one rung of the worker pool (see the module docs):
    /// `make_policy` is invoked at most once per worker; each trial
    /// reseeds and resets the worker's policy value, so construction cost
    /// (LP solves) is amortized without compromising determinism.
    pub fn run<F, P>(&self, inst: &SuuInstance, make_policy: F) -> EvalReport
    where
        F: Fn() -> P + Sync,
        P: Policy,
    {
        let started = Instant::now();
        let mut outcomes = Vec::with_capacity(self.config.trials);
        let policy = self.with_pool(inst, &make_policy, |pool| {
            pool.run_rung(0, self.config.trials, |chunk| outcomes.extend(chunk));
            pool.policy_name()
        });
        EvalReport {
            policy: policy.unwrap_or_else(|| "unnamed".to_string()),
            config: self.config,
            outcomes,
            wall_clock: started.elapsed(),
        }
    }

    /// Reference serial implementation: one policy value, trials in order
    /// on the calling thread, each through the per-trial [`execute`].
    /// Exists so tests (and the perf harness) can check the batched
    /// pipeline reproduces it bitwise and outruns it.
    pub fn run_serial<F, P>(&self, inst: &SuuInstance, make_policy: F) -> EvalReport
    where
        F: Fn() -> P,
        P: Policy,
    {
        let cfg = self.config;
        let started = Instant::now();
        let mut policy = make_policy();
        let name = policy.name().to_string();
        let outcomes = (0..cfg.trials)
            .map(|k| self.run_trial(inst, &mut policy, k as u64))
            .collect();
        EvalReport {
            policy: name,
            config: cfg,
            outcomes,
            wall_clock: started.elapsed(),
        }
    }

    /// The fixed-budget path: `config.trials` trials folded straight
    /// into an [`OutcomeAccumulator`] — growth from empty under
    /// [`Precision::FixedTrials`].
    pub fn run_stats<F, P>(&self, inst: &SuuInstance, make_policy: F) -> EvalStats
    where
        F: Fn() -> P + Sync,
        P: Policy,
    {
        let fixed = Precision::FixedTrials(self.config.trials);
        self.grow(inst, &make_policy, self.empty_cell(), fixed)
            .stats
    }

    /// Resume a saved cell (e.g. an [`EvalStats::from_json`] checkpoint)
    /// and keep growing it until `precision` says stop; under
    /// `FixedTrials(n)` this extends the cell to `n` trials (a no-op when
    /// it already has them).
    ///
    /// Whatever trial count `N` the resumed cell ends at, its moments and
    /// P² sketch state are **bitwise identical** to a fresh `N`-trial run
    /// at any thread count (tested in `tests/adaptive.rs`). When the
    /// cell's whole history was grown under the same round discipline
    /// (same `min_trials`, as the serve daemon arranges), the *stopping
    /// point* itself also matches a cold [`Evaluator::run_adaptive_spec`]
    /// at the tighter target: every checkpoint the cold run visits below
    /// the cell's current count already failed a looser-or-equal check,
    /// so neither run stops there. A cell grown under a different
    /// discipline (say a fixed budget) still resumes correctly but may
    /// stop at a different count than a cold adaptive run would.
    ///
    /// The caller must resume with the instance, policy, master seed and
    /// semantics the cell was started with (master seed, semantics and
    /// step-cap mismatches are asserted here; the instance and policy
    /// are the caller's contract, exactly as for a fresh run).
    pub fn resume_adaptive<F, P>(
        &self,
        inst: &SuuInstance,
        make_policy: F,
        stats: EvalStats,
        precision: Precision,
    ) -> AdaptiveStats
    where
        F: Fn() -> P + Sync,
        P: Policy,
    {
        self.assert_resumable(&stats);
        self.grow(inst, &make_policy, stats, precision)
    }

    /// Build the spec through the registry and grow a fresh cell until
    /// `precision` says stop (see [`Evaluator::resume_adaptive`]).
    pub fn run_adaptive_spec(
        &self,
        registry: &PolicyRegistry,
        inst: &Arc<SuuInstance>,
        spec: &PolicySpec,
        precision: Precision,
    ) -> Result<AdaptiveStats, RegistryError> {
        let make_policy = spec_factory(registry, inst, spec)?;
        Ok(self.grow(inst, &make_policy, self.empty_cell(), precision))
    }

    /// Build the spec through the registry and resume the cell
    /// adaptively (see [`Evaluator::resume_adaptive`]).
    pub fn resume_adaptive_spec(
        &self,
        registry: &PolicyRegistry,
        inst: &Arc<SuuInstance>,
        spec: &PolicySpec,
        stats: EvalStats,
        precision: Precision,
    ) -> Result<AdaptiveStats, RegistryError> {
        let make_policy = spec_factory(registry, inst, spec)?;
        Ok(self.resume_adaptive(inst, make_policy, stats, precision))
    }

    /// A cell with no trials yet, under this evaluator's configuration.
    fn empty_cell(&self) -> EvalStats {
        EvalStats {
            policy: String::new(),
            config: self.config,
            acc: OutcomeAccumulator::new(),
            wall_clock: Duration::ZERO,
        }
    }

    /// The evaluation core: grow `stats` from its current trial count
    /// until `precision` says stop. Rounds climb the [`BudgetLadder`]
    /// anchored at `precision.min_trials()` (1.5× growth — geometric, so
    /// the stopping-check cost stays logarithmic, but gentle enough that
    /// a cell overshoots its stopping point by at most ~50%). The
    /// schedule is a pure function of the current count, so resumed and
    /// cold runs walk identical checkpoints once their counts coincide;
    /// same master seed ⇒ same statistics at every check ⇒ same stopping
    /// point, at any thread count.
    ///
    /// One [`TrialPool`] serves the whole call, one rung at a time; the
    /// check runs on the calling thread once a rung is fully folded.
    fn grow<F, P>(
        &self,
        inst: &SuuInstance,
        make_policy: &F,
        mut stats: EvalStats,
        precision: Precision,
    ) -> AdaptiveStats
    where
        F: Fn() -> P + Sync,
        P: Policy,
    {
        let started = Instant::now();
        let ladder = BudgetLadder::new(precision.min_trials(), precision.max_trials());
        let mut done = stats.trials() as usize;
        let (stop_reason, name) = self.with_pool(inst, make_policy, |pool| {
            let reason = loop {
                if let Some(reason) = precision.check_sample(stats.acc.makespan()) {
                    break reason;
                }
                let target = ladder.next(done).expect("every rule stops at its cap");
                pool.run_rung(done, target, |chunk| {
                    chunk.iter().for_each(|o| stats.acc.push(o))
                });
                done = target;
            };
            (reason, pool.policy_name())
        });
        if stats.policy.is_empty() {
            stats.policy = name.unwrap_or_else(|| "unnamed".to_string());
        }
        stats.config.trials = done;
        stats.wall_clock += started.elapsed();
        AdaptiveStats { stats, stop_reason }
    }

    /// Shared resume precondition checks (see [`Evaluator::resume_adaptive`]).
    fn assert_resumable(&self, stats: &EvalStats) {
        assert_eq!(
            stats.config.master_seed, self.config.master_seed,
            "resume must use the master seed the cell was started with"
        );
        assert_eq!(
            stats.config.exec.semantics, self.config.exec.semantics,
            "resume must use the semantics the cell was started with"
        );
        assert_eq!(
            stats.config.exec.max_steps, self.config.exec.max_steps,
            "resume must use the step cap the cell was started with"
        );
    }

    /// Compare two policies pairwise on **common random numbers**: each
    /// paired trial runs both policies from the *same* engine seed (the
    /// seed the marginal cells use for that trial index), and the Welford
    /// accumulator tracks the per-trial difference `A − B` — under CRN
    /// its variance is what should drive the budget, so `precision`'s CI
    /// rule is applied to the **difference**, not to either mean. Rounds
    /// follow the same [`BudgetLadder`] schedule as the marginal cells.
    ///
    /// Each policy gets a worker pool of its own for the whole call, and
    /// each rung runs on both, A's first: A's makespans are kept, then
    /// B's chunks are paired with them and folded strictly in trial
    /// order, so the comparison is bitwise the same at any thread count
    /// and uses every core. Peak memory is A's makespans for the largest
    /// rung, 8 bytes a trial, plus each pool's chunks in flight. The
    /// largest rung is the first (`min_trials`, which is the whole budget
    /// under `FixedTrials(n)`) or at most a third of `max_trials`.
    pub fn run_paired<FA, PA, FB, PB>(
        &self,
        inst: &SuuInstance,
        make_a: FA,
        make_b: FB,
        precision: Precision,
    ) -> PairedStats
    where
        FA: Fn() -> PA + Sync,
        PA: Policy,
        FB: Fn() -> PB + Sync,
        PB: Policy,
    {
        let started = Instant::now();
        let ladder = BudgetLadder::new(precision.min_trials(), precision.max_trials());
        let mut delta = PairedDelta::new();
        let mut makespans_a = Vec::new();
        let mut done = 0usize;
        let (stop_reason, name_a, name_b) = self.with_pool(inst, &make_a, |pool_a| {
            self.with_pool(inst, &make_b, |pool_b| {
                let reason = loop {
                    if let Some(reason) = precision.check_sample(delta.deltas()) {
                        break reason;
                    }
                    let target = ladder.next(done).expect("every rule stops at its cap");
                    makespans_a.clear();
                    pool_a.run_rung(done, target, |chunk| {
                        makespans_a.extend(chunk.iter().map(|o| o.makespan))
                    });
                    let mut a = makespans_a.iter();
                    pool_b.run_rung(done, target, |chunk| {
                        for ob in &chunk {
                            let oa = a.next().expect("both pools ran the same rung");
                            delta.push(*oa as f64, ob.makespan as f64);
                        }
                    });
                    done = target;
                };
                (reason, pool_a.policy_name(), pool_b.policy_name())
            })
        });
        let mut config = self.config;
        config.trials = done;
        PairedStats {
            policy_a: name_a.unwrap_or_else(|| make_a().name().to_string()),
            policy_b: name_b.unwrap_or_else(|| make_b().name().to_string()),
            config,
            delta,
            stop_reason,
            wall_clock: started.elapsed(),
        }
    }

    /// Run `body` with a worker pool for `make_policy`'s policy and
    /// return what it returns. The pool closes when `body` ends (normally or by
    /// unwinding) and every worker has returned before this does; the
    /// first worker panic is re-raised here, on the calling thread.
    fn with_pool<F, P, R>(
        &self,
        inst: &SuuInstance,
        make_policy: &F,
        body: impl FnOnce(&mut TrialPool<'_, '_, F, P>) -> R,
    ) -> R
    where
        F: Fn() -> P + Sync,
        P: Policy,
    {
        let workers = match self.config.threads {
            0 => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            t => t,
        };
        let shared = Shared::default();
        let out = std::thread::scope(|scope| {
            body(&mut TrialPool {
                eval: self,
                inst,
                make_policy,
                workers,
                scope,
                shared: &shared,
                spawned: 0,
                own: None,
                rungs: 0,
            })
        });
        // A worker that panicked after the last chunk it mattered to was
        // folded (say in `make_policy`) is still a bug: report it.
        if let Some(payload) = shared.lock().panic.take() {
            std::panic::resume_unwind(payload);
        }
        out
    }

    /// One trial, fully determined by `(master_seed, trial index)`.
    fn run_trial<P: Policy>(&self, inst: &SuuInstance, policy: &mut P, k: u64) -> ExecOutcome {
        let cfg = &self.config;
        policy.reseed(derive_seed(cfg.master_seed, k, POLICY_DOMAIN));
        execute(
            inst,
            policy,
            &cfg.exec,
            derive_seed(cfg.master_seed, k, ENGINE_DOMAIN),
        )
    }
}

/// One rung handed to a [`TrialPool`]: trials `lo..hi`, cut into chunks
/// of `size` consecutive trials. `id` numbers the pool's rungs from 1.
#[derive(Debug, Clone, Copy, Default)]
struct Rung {
    id: u64,
    lo: usize,
    hi: usize,
    size: usize,
}

impl Rung {
    fn chunks(&self) -> usize {
        (self.hi - self.lo).div_ceil(self.size.max(1))
    }
}

/// One worker's state for a whole evaluator call: its policy and its
/// warm runner, each built once, and the last rung it ran.
struct Worker<'i, P> {
    policy: P,
    runner: BatchRunner<'i>,
    rung: u64,
}

impl<'i, P: Policy> Worker<'i, P> {
    fn new(inst: &'i SuuInstance, exec: &ExecConfig, make_policy: &impl Fn() -> P) -> Self {
        Worker {
            policy: make_policy(),
            runner: BatchRunner::new(inst, exec),
            rung: 0,
        }
    }

    /// Chunk `index` of `rung`. The worker's first chunk of a rung drops
    /// the plans it cached on the last one: a plan cache lives for one
    /// rung, which bounds memory, and plans depend only on the remaining
    /// set, so dropping them cannot change a result.
    fn run(&mut self, eval: &Evaluator, rung: Rung, index: usize) -> Vec<ExecOutcome> {
        if self.rung != rung.id {
            self.runner.clear_plans();
            self.rung = rung.id;
        }
        let trials = eval.chunk_trials(rung.lo, rung.hi, index, rung.size);
        self.runner.run(&mut self.policy, &trials)
    }
}

/// What the calling thread and the worker threads of a [`TrialPool`]
/// share.
#[derive(Default)]
struct Shared {
    state: Mutex<PoolState>,
    /// Worker threads wait here for a chunk they may run, or the close.
    work: Condvar,
    /// The calling thread waits here for the next chunk in trial order.
    ready: Condvar,
}

#[derive(Default)]
struct PoolState {
    /// The open rung.
    rung: Rung,
    /// Next chunk of the open rung to hand out.
    next: usize,
    /// Chunks of the open rung the calling thread has taken to fold.
    taken: usize,
    /// Finished chunks not yet folded.
    done: BTreeMap<usize, Vec<ExecOutcome>>,
    /// The first worker-thread panic, for the calling thread to re-raise.
    panic: Option<Box<dyn Any + Send>>,
    /// No more chunks will be handed out: worker threads return.
    closed: bool,
}

impl PoolState {
    /// Hand out the next chunk of the open rung, unless all are out or it
    /// would run more than `window` chunks ahead of the fold.
    fn claim(&mut self, window: usize) -> Option<usize> {
        let free = self.next < self.rung.chunks() && self.next < self.taken + window;
        free.then(|| {
            self.next += 1;
            self.next - 1
        })
    }
}

/// What the calling thread does next for the chunk it must fold.
enum Step {
    /// Fold these outcomes: the chunk is done.
    Fold(Vec<ExecOutcome>),
    /// Run this chunk first.
    Run(usize),
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state
            .lock()
            .expect("pool lock: no code that can panic runs under it")
    }

    /// Worker thread: wait for a chunk of the open rung; `None` once the
    /// pool closes or a worker panicked.
    fn claim(&self, window: usize) -> Option<(Rung, usize)> {
        let mut st = self.lock();
        loop {
            if st.closed || st.panic.is_some() {
                return None;
            }
            if let Some(index) = st.claim(window) {
                return Some((st.rung, index));
            }
            st = self.work.wait(st).expect("pool lock");
        }
    }

    /// Hand in chunk `index`'s outcomes.
    fn finish(&self, index: usize, outcomes: Vec<ExecOutcome>) {
        self.lock().done.insert(index, outcomes);
        self.ready.notify_one();
    }

    /// Worker thread: record a panic (the first one wins) and stop the
    /// pool.
    fn fail(&self, payload: Box<dyn Any + Send>) {
        self.lock().panic.get_or_insert(payload);
        self.work.notify_all();
        self.ready.notify_one();
    }

    /// Calling thread: open `rung` once the previous one is fully folded.
    fn open(&self, rung: Rung) {
        let mut st = self.lock();
        debug_assert!(st.done.is_empty(), "chunk left over from the last rung");
        st.rung = rung;
        st.next = 0;
        st.taken = 0;
        drop(st);
        self.work.notify_all();
    }

    /// Calling thread: the next step towards folding chunk `index`, the
    /// one after the last folded. The caller runs a free chunk itself
    /// rather than wait, and waits only while worker threads hold every
    /// chunk it could fold or run. Re-raises a worker-thread panic.
    fn step(&self, index: usize, window: usize) -> Step {
        let mut st = self.lock();
        loop {
            if let Some(payload) = st.panic.take() {
                drop(st);
                std::panic::resume_unwind(payload);
            }
            if let Some(outcomes) = st.done.remove(&index) {
                st.taken = index + 1;
                drop(st);
                self.work.notify_all();
                return Step::Fold(outcomes);
            }
            if let Some(chunk) = st.claim(window) {
                return Step::Run(chunk);
            }
            st = self.ready.wait(st).expect("pool lock");
        }
    }
}

/// A worker pool of one evaluator call (see the module docs), handed
/// one rung at a time through [`TrialPool::run_rung`].
///
/// The calling thread is a worker itself. The other workers are threads
/// started by the first rung with chunks for them, no more than that rung
/// needs; a later, larger rung may start the rest. Workers claim chunks
/// in index order, never more than `2 · workers` chunks ahead of the fold
/// (which bounds the chunks in flight). The calling thread folds strictly
/// in index order and runs a free chunk rather than wait for one, so a
/// worker thread that is slow to wake costs parallelism, never a stall.
/// A worker-thread panic is re-raised on the calling thread by
/// [`Shared::step`], or by [`Evaluator::with_pool`] once the threads are
/// joined.
struct TrialPool<'s, 'e, F, P> {
    eval: &'e Evaluator,
    inst: &'e SuuInstance,
    make_policy: &'e F,
    /// Ways each rung is split.
    workers: usize,
    scope: &'s Scope<'s, 'e>,
    shared: &'e Shared,
    /// Worker threads started so far.
    spawned: usize,
    /// The calling thread's own worker, built on the first rung.
    own: Option<Worker<'e, P>>,
    /// Rungs opened so far.
    rungs: u64,
}

impl<'s, 'e, F, P> TrialPool<'s, 'e, F, P>
where
    F: Fn() -> P + Sync,
    P: Policy,
{
    /// Run trials `lo..hi` as the next rung and hand their outcomes to
    /// `sink` chunk by chunk, strictly in trial order. Returns once the
    /// whole rung is folded.
    fn run_rung(&mut self, lo: usize, hi: usize, mut sink: impl FnMut(Vec<ExecOutcome>)) {
        if hi <= lo {
            return;
        }
        self.rungs += 1;
        let rung = Rung {
            id: self.rungs,
            lo,
            hi,
            size: self.eval.batch_size().min((hi - lo).div_ceil(self.workers)),
        };
        let (eval, inst, make_policy) = (self.eval, self.inst, self.make_policy);
        let own = self
            .own
            .get_or_insert_with(|| Worker::new(inst, &eval.config.exec, make_policy));
        let window = 2 * self.workers;
        while self.spawned + 1 < self.workers.min(rung.chunks()) {
            spawn_worker(self.scope, eval, inst, make_policy, self.shared, window);
            self.spawned += 1;
        }
        self.shared.open(rung);
        for index in 0..rung.chunks() {
            let outcomes = loop {
                match self.shared.step(index, window) {
                    Step::Fold(outcomes) => break outcomes,
                    Step::Run(chunk) => self.shared.finish(chunk, own.run(eval, rung, chunk)),
                }
            };
            sink(outcomes);
        }
    }

    /// Display name of the evaluated policy (`None` before any trial ran).
    fn policy_name(&self) -> Option<String> {
        self.own.as_ref().map(|own| own.policy.name().to_string())
    }
}

/// Start one worker thread of a [`TrialPool`] in `scope`.
fn spawn_worker<'s, 'e, F, P>(
    scope: &'s Scope<'s, 'e>,
    eval: &'e Evaluator,
    inst: &'e SuuInstance,
    make_policy: &'e F,
    shared: &'e Shared,
    window: usize,
) where
    F: Fn() -> P + Sync,
    P: Policy,
{
    scope.spawn(move || {
        let worked = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut worker = Worker::new(inst, &eval.config.exec, make_policy);
            while let Some((rung, index)) = shared.claim(window) {
                shared.finish(index, worker.run(eval, rung, index));
            }
        }));
        if let Err(payload) = worked {
            shared.fail(payload);
        }
    });
}

impl<F, P> Drop for TrialPool<'_, '_, F, P> {
    /// Close the pool so every worker thread returns and the scope can
    /// join them, on the normal path and when the calling thread unwinds.
    fn drop(&mut self) {
        self.shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.shared.work.notify_all();
    }
}

/// Policy factory for a registry spec, accepted by every trial-running
/// method: `eval.run_stats(&inst, spec_factory(&registry, &inst, &spec)?)`.
///
/// Builds the spec once up front — failing fast, with the real error, on
/// the calling thread — and hands that probe instance to the first
/// worker so expensive construction (LP solves, the exact-opt DP) is not
/// paid twice; any further worker rebuilds from the same spec, and those
/// rebuilds run at the same time.
pub fn spec_factory<'a>(
    registry: &'a PolicyRegistry,
    inst: &'a Arc<SuuInstance>,
    spec: &'a PolicySpec,
) -> Result<impl Fn() -> Box<dyn Policy> + Sync + 'a, RegistryError> {
    let probe = std::sync::Mutex::new(Some(registry.build(inst, spec)?));
    Ok(move || {
        // The guard must drop here: held through the rebuild below, it
        // would make every worker's rebuild wait for the last one.
        let probe = probe.lock().expect("probe lock").take();
        probe.unwrap_or_else(|| {
            registry
                .build(inst, spec)
                .expect("spec built once already; instance and spec are unchanged")
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Assignment, Decision, StateView};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use suu_core::{workload, JobId, Precedence};

    /// Gang policy with *internal* randomness: occasionally idles one
    /// machine based on its own RNG — a miniature of SUU-C's delays,
    /// to prove `reseed` pins policy randomness per trial. Its output
    /// varies every step, so it declares per-step wake-ups.
    struct JitteryGang {
        rng: StdRng,
    }

    impl JitteryGang {
        fn new() -> Self {
            JitteryGang {
                rng: StdRng::seed_from_u64(0),
            }
        }
    }

    impl Policy for JitteryGang {
        fn name(&self) -> &str {
            "jittery-gang"
        }
        fn reset(&mut self) {}
        fn reseed(&mut self, seed: u64) {
            self.rng = StdRng::seed_from_u64(seed);
        }
        fn decide(&mut self, view: &StateView<'_>, out: &mut Assignment) -> Decision {
            use rand::Rng;
            let target = view.eligible.first().map(JobId);
            for i in 0..view.m {
                if !self.rng.random_bool(0.2) {
                    out.set_slot(i, target);
                }
            }
            Decision::step(view)
        }
    }

    /// Makespans of 64 trials in batches of 8: eight chunks, so every
    /// thread count up to 8 really runs that many workers.
    fn outcomes_with_threads(threads: usize) -> Vec<u64> {
        let inst = workload::homogeneous(3, 6, 0.5, Precedence::Independent);
        Evaluator::seeded(64, 99)
            .with_threads(threads)
            .with_batch(8)
            .run(&inst, JitteryGang::new)
            .outcomes
            .iter()
            .map(|o| o.makespan)
            .collect()
    }

    #[test]
    fn identical_outcomes_for_any_thread_count() {
        let reference = outcomes_with_threads(1);
        for threads in [2, 3, 8] {
            assert_eq!(
                outcomes_with_threads(threads),
                reference,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn parallel_matches_serial_reference() {
        let inst = workload::homogeneous(2, 5, 0.6, Precedence::Independent);
        let eval = Evaluator::seeded(50, 7).with_threads(3).with_batch(8);
        let par: Vec<u64> = eval
            .run(&inst, JitteryGang::new)
            .outcomes
            .iter()
            .map(|o| o.makespan)
            .collect();
        let ser: Vec<u64> = eval
            .run_serial(&inst, JitteryGang::new)
            .outcomes
            .iter()
            .map(|o| o.makespan)
            .collect();
        assert_eq!(par, ser);
    }

    #[test]
    fn different_master_seeds_differ() {
        let inst = workload::homogeneous(2, 6, 0.7, Precedence::Independent);
        let a = Evaluator::seeded(40, 1).run(&inst, JitteryGang::new);
        let b = Evaluator::seeded(40, 2).run(&inst, JitteryGang::new);
        assert_ne!(
            a.outcomes.iter().map(|o| o.makespan).collect::<Vec<_>>(),
            b.outcomes.iter().map(|o| o.makespan).collect::<Vec<_>>()
        );
    }

    #[test]
    fn derive_seed_separates_domains_and_indices() {
        let s = derive_seed(5, 0, ENGINE_DOMAIN);
        assert_ne!(s, derive_seed(5, 0, POLICY_DOMAIN));
        assert_ne!(s, derive_seed(5, 1, ENGINE_DOMAIN));
        assert_ne!(s, derive_seed(6, 0, ENGINE_DOMAIN));
    }

    #[test]
    fn report_accessors() {
        let inst = workload::deterministic(2, 4, Precedence::Independent);
        let report = Evaluator::seeded(10, 3).run(&inst, JitteryGang::new);
        assert_eq!(report.policy, "jittery-gang");
        assert_eq!(report.outcomes.len(), 10);
        assert!(report.all_completed());
        assert_eq!(report.completion_rate(), 1.0);
        assert_eq!(report.total_ineligible(), 0);
        assert!(report.mean_makespan() >= 2.0);
        assert_eq!(report.summary().expect("nonempty").count, 10);
        let stats = report.to_stats();
        assert_eq!(stats.trials(), 10);
        assert_eq!(stats.policy, "jittery-gang");
        assert!(stats.all_completed());
    }

    /// A policy with a bug on one trial: its decision panics on the
    /// trial whose policy seed is `planted`.
    struct PanicsOnTrial {
        seed: u64,
        planted: u64,
    }

    impl Policy for PanicsOnTrial {
        fn name(&self) -> &str {
            "panics-on-trial"
        }
        fn reset(&mut self) {}
        fn reseed(&mut self, seed: u64) {
            self.seed = seed;
        }
        fn decide(&mut self, view: &StateView<'_>, out: &mut Assignment) -> Decision {
            assert_ne!(self.seed, self.planted, "planted policy bug");
            let target = view.eligible.first().map(JobId);
            for i in 0..view.m {
                out.set_slot(i, target);
            }
            Decision::step(view)
        }
    }

    /// Panic message of `call`, run on a thread of its own (`None` if it
    /// returned). Fails the test if `call` has not finished within 10 s.
    fn panic_within_seconds(call: impl FnOnce() + Send + 'static) -> Option<String> {
        let (tx, rx) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(call));
            let message = outcome
                .err()
                .map(|payload| match payload.downcast::<String>() {
                    Ok(text) => *text,
                    Err(_) => "non-string panic payload".to_string(),
                });
            tx.send(message).expect("the test thread is waiting");
        });
        let message = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a worker panic hung the evaluator call");
        thread.join().expect("the panic was caught");
        message
    }

    /// A worker that panics with many chunks still to go must not hang
    /// the call: the panic reaches the caller, which the daemon turns
    /// into a 500 and a released in-flight guard.
    #[test]
    fn worker_panic_reaches_the_caller() {
        let eval = Evaluator::seeded(400, 99).with_threads(2).with_batch(4);
        let inst = || workload::homogeneous(3, 6, 0.5, Precedence::Independent);
        // A policy bug on trial 5, with 98 chunks to go after its own.
        let planted = derive_seed(99, 5, POLICY_DOMAIN);
        let message = panic_within_seconds(move || {
            eval.run(&inst(), || PanicsOnTrial { seed: 0, planted });
        });
        assert!(message.is_some_and(|m| m.contains("planted policy bug")));
        // A build that fails on the worker thread: the calling thread's
        // own worker is always built first.
        let message = panic_within_seconds(move || {
            let builds = std::sync::atomic::AtomicUsize::new(0);
            eval.run(&inst(), || {
                let built = builds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                assert_eq!(built, 0, "planted build failure");
                JitteryGang::new()
            });
        });
        assert!(message.is_some_and(|m| m.contains("planted build failure")));
    }

    /// One call builds each worker's policy once, however many rungs it
    /// grows through, and the grown cell is the same at every thread count.
    #[test]
    fn a_call_builds_one_policy_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inst = workload::homogeneous(3, 6, 0.5, Precedence::Independent);
        let rule = Precision::TargetCi {
            half_width: 1e-9,
            relative: false,
            min_trials: 8,
            max_trials: 400,
        };
        let mut cells = Vec::new();
        for threads in [1, 2, 3] {
            let eval = Evaluator::seeded(0, 99)
                .with_threads(threads)
                .with_batch(32);
            let builds = AtomicUsize::new(0);
            let counting = || {
                builds.fetch_add(1, Ordering::Relaxed);
                JitteryGang::new()
            };
            let grown = eval.grow(&inst, &counting, eval.empty_cell(), rule);
            assert_eq!(grown.trials_used(), 400);
            assert_eq!(grown.stop_reason, StopReason::MaxTrials);
            let builds = builds.into_inner();
            assert!(
                (1..=threads).contains(&builds),
                "{builds} policy builds at {threads} threads over 11 rungs"
            );
            cells.push(grown.stats.acc.to_json().to_canonical());
        }
        assert!(cells.iter().all(|cell| *cell == cells[0]));
    }

    /// Once a cell outgrows the 512-sample exact window its accumulator
    /// collapses to quantile sketches; growth still replays trials in
    /// index order. Refine a cell across two checkpointed rounds that
    /// straddle the collapse and demand the final state is bitwise
    /// identical to a cold run at that count.
    #[test]
    fn sketch_collapsed_cell_refined_in_rounds_matches_cold_run() {
        let inst = workload::homogeneous(3, 6, 0.5, Precedence::Independent);
        let eval = Evaluator::seeded(400, 99);
        let warm = eval.run_stats(&inst, JitteryGang::new);

        // Round 1: 400 → 600, crossing the exact-sample cap.
        let warm = eval
            .resume_adaptive(&inst, JitteryGang::new, warm, Precision::FixedTrials(600))
            .stats;
        let checkpoint = warm.to_json();
        let restored = EvalStats::from_json(&checkpoint).expect("restore");
        assert_eq!(restored.trials(), 600);
        assert!(
            checkpoint
                .get("accumulator")
                .and_then(|a| a.get("median_sketch"))
                .is_some(),
            "600 > 512 trials must have collapsed to sketches"
        );

        // Round 2: resume the restored checkpoint 600 → 780.
        let warm = eval
            .resume_adaptive(
                &inst,
                JitteryGang::new,
                restored,
                Precision::FixedTrials(780),
            )
            .stats;

        let cold = Evaluator::seeded(780, 99).run_stats(&inst, JitteryGang::new);
        assert_eq!(warm.trials(), 780);
        assert_eq!(
            warm.acc.to_json().to_canonical(),
            cold.acc.to_json().to_canonical(),
            "refined-in-rounds cell must be bitwise identical to a cold run"
        );
    }

    /// A damaged `wall_clock_s` is a checkpoint error, not a panic: the
    /// cell store loads every cached cell through `from_json`.
    #[test]
    fn checkpoint_with_invalid_wall_clock_is_an_error() {
        let inst = workload::deterministic(2, 4, Precedence::Independent);
        let good = Evaluator::seeded(4, 3)
            .run_stats(&inst, JitteryGang::new)
            .to_json();
        for bad in [-1.0, 1e300] {
            let err = EvalStats::from_json(&good.clone().field("wall_clock_s", bad))
                .expect_err("invalid duration must be rejected");
            assert!(err.contains("wall_clock_s"), "{err}");
        }
        assert!(EvalStats::from_json(&good).is_ok());
    }

    /// `exec.engine` names a retired selector: a checkpoint carrying
    /// either old spelling loads as the same cell, a missing or unknown
    /// one is still an error, and a save always writes `"events"`.
    #[test]
    fn checkpoint_engine_field_accepts_both_old_spellings() {
        let inst = workload::deterministic(2, 4, Precedence::Independent);
        let good = Evaluator::seeded(4, 3)
            .run_stats(&inst, JitteryGang::new)
            .to_json();
        let exec = good.get("exec").expect("exec").clone();
        assert_eq!(exec.get("engine").and_then(Json::as_str), Some("events"));
        let with_engine = |engine: Option<&str>| {
            let mut e = Json::obj()
                .field("semantics", exec.get("semantics").unwrap().clone())
                .field("max_steps", exec.get("max_steps").unwrap().clone());
            if let Some(engine) = engine {
                e = e.field("engine", engine);
            }
            good.clone().field("exec", e)
        };
        let saved = EvalStats::from_json(&good)
            .unwrap()
            .to_json()
            .to_canonical();
        for engine in ["events", "dense"] {
            let loaded = EvalStats::from_json(&with_engine(Some(engine))).expect(engine);
            assert_eq!(loaded.to_json().to_canonical(), saved, "{engine}");
        }
        let err = EvalStats::from_json(&with_engine(Some("wat"))).unwrap_err();
        assert!(err.contains("unknown engine"), "{err}");
        let err = EvalStats::from_json(&with_engine(None)).unwrap_err();
        assert!(err.contains("exec.engine"), "{err}");
    }

    /// `spec_factory` holds no lock while a worker rebuilds its policy,
    /// so the rebuilds after the probe run at the same time. Every
    /// rebuild waits (for at most 5 s) until a second one is running: a
    /// factory that builds one at a time lets each wait out the bound
    /// and never sees two.
    #[test]
    fn spec_factory_rebuilds_run_at_the_same_time() {
        use crate::registry::StructureClass;
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        let builds = Arc::new(AtomicUsize::new(0));
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut registry = PolicyRegistry::new();
        let counters = (Arc::clone(&builds), Arc::clone(&running), Arc::clone(&peak));
        registry.register("rendezvous", StructureClass::Dag, move |_, _| {
            let (builds, running, peak) = &counters;
            if builds.fetch_add(1, SeqCst) > 0 {
                peak.fetch_max(running.fetch_add(1, SeqCst) + 1, SeqCst);
                let deadline = Instant::now() + Duration::from_secs(5);
                while peak.load(SeqCst) < 2 && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                running.fetch_sub(1, SeqCst);
            }
            Ok(Box::new(JitteryGang::new()) as Box<dyn Policy>)
        });
        let inst = Arc::new(workload::homogeneous(3, 6, 0.5, Precedence::Independent));
        let spec = PolicySpec::parse("rendezvous").unwrap();
        // 16 chunks of 4 trials: the calling thread takes the probe and
        // starts two worker threads, which rebuild.
        let eval = Evaluator::seeded(64, 5).with_threads(3).with_batch(4);
        let stats = eval.run_stats(&inst, spec_factory(&registry, &inst, &spec).unwrap());
        assert_eq!(stats.trials(), 64);
        assert_eq!(builds.load(SeqCst), 3, "the probe and two rebuilds");
        assert_eq!(peak.load(SeqCst), 2, "the two rebuilds ran one at a time");
    }
}
