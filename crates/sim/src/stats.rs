//! Streaming statistics: Welford moments, a P²-style quantile sketch, and
//! the [`OutcomeAccumulator`] the evaluation pipeline folds trials into —
//! plus the confidence machinery behind adaptive-precision evaluation
//! (Student-t quantiles, [`PairedDelta`], [`Precision`] stopping rules)
//! and the two-sample chi-square test used by the equivalence checks.
//!
//! The evaluator used to buffer every trial outcome and summarize at the
//! end, so memory grew linearly with the trial count. Everything here is
//! `O(1)` per sample and per accumulator: mean/variance via Welford's
//! update, min/max directly, and median/p95 through the P² marker sketch
//! — with an **exact small-sample fallback**: up to
//! [`OutcomeAccumulator::EXACT_CAP`] samples the accumulator retains the
//! raw values and reports exact interpolated quantiles, switching to the
//! sketch only when the sample outgrows the cap.
//!
//! Confidence intervals use hand-rolled Student-t quantiles
//! ([`student_t_quantile`], via log-gamma + the regularized incomplete
//! beta function): at the small sample sizes adaptive stopping visits
//! first, the z≈1.96 normal approximation understates the interval badly
//! (t₀.₉₇₅ is 12.71 at n=2 and 2.78 at n=5). Every CI goes through
//! [`t_ci95_scale`], which memoizes the scale of each count below 4096
//! once per process in a table of atomics and reads back exactly the bits
//! the bisection returns, so a cached cell's stopping check and summary
//! cost two loads, not two root solves. Accumulators can be
//! **snapshotted** to [`suu_core::json`] ([`OutcomeAccumulator::to_json`])
//! and later resumed, which is what makes cells resumable: extending a
//! cell replays the same per-trial values in the same order, so the
//! restored state — moments *and* sketch markers — is bitwise what a
//! fresh longer run produces.

use crate::engine::ExecOutcome;
use std::sync::atomic::{AtomicU64, Ordering};
use suu_core::json::Json;

/// Summary of a sample of makespans (or any non-negative metric).
#[derive(Debug, Clone)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (unbiased).
    pub std_dev: f64,
    /// Standard error of the mean.
    pub std_err: f64,
    /// 95% CI half-width (Student-t; see [`t_ci95_scale`]).
    pub ci95: f64,
    /// Minimum.
    pub min: f64,
    /// Median.
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum.
    pub max: f64,
    /// `true` when `median`/`p95` come from the retained exact sample,
    /// `false` when they are P² sketch estimates (sample outgrew the
    /// accumulator's exact cap).
    pub exact_quantiles: bool,
}

/// Natural log of the gamma function (Lanczos approximation, g = 7).
///
/// Accurate to ~15 significant digits for positive arguments; negative
/// non-integer arguments go through the reflection formula. Only the
/// beta-function plumbing below needs it, but it is exported because
/// hand-rolled special functions are scarce in an offline workspace.
pub fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 8] = [
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1−x) = π / sin(πx).
        return (std::f64::consts::PI / (std::f64::consts::PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let z = x - 1.0;
    let mut acc = 0.999_999_999_999_809_9;
    for (i, c) in COEF.iter().enumerate() {
        acc += c / (z + (i + 1) as f64);
    }
    let t = z + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (z + 0.5) * t.ln() - t + acc.ln()
}

/// Continued-fraction core of the incomplete beta function (modified
/// Lentz's method, Numerical Recipes `betacf`).
fn beta_cont_frac(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-30;
    const EPS: f64 = 3e-16;
    let (qab, qap, qam) = (a + b, a + 1.0, a - 1.0);
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=300 {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Regularized incomplete beta function `I_x(a, b)`.
pub fn reg_inc_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "beta parameters must be positive");
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    // Use the continued fraction on whichever side converges fast.
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cont_frac(a, b, x) / a
    } else {
        1.0 - front * beta_cont_frac(b, a, 1.0 - x) / b
    }
}

/// CDF of Student's t distribution with `df > 0` degrees of freedom.
pub fn student_t_cdf(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "degrees of freedom must be positive");
    let x = df / (df + t * t);
    let tail = 0.5 * reg_inc_beta(0.5 * df, 0.5, x);
    if t >= 0.0 {
        1.0 - tail
    } else {
        tail
    }
}

/// Quantile (inverse CDF) of Student's t distribution: the `t` with
/// `P(T ≤ t) = p`, for `p ∈ (0, 1)` and `df > 0`.
///
/// Deterministic bisection against [`student_t_cdf`] — a fixed iteration
/// count, no floating-point environment dependence, accurate to ~1e-12.
/// One call costs tens of microseconds, as much as a whole cache hit
/// spends elsewhere, so the CI paths reach it through [`t_ci95_scale`],
/// which solves each count once per process.
pub fn student_t_quantile(p: f64, df: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p) && p > 0.0 && p < 1.0,
        "p must be in (0,1)"
    );
    assert!(df > 0.0, "degrees of freedom must be positive");
    if p == 0.5 {
        return 0.0;
    }
    if p < 0.5 {
        return -student_t_quantile(1.0 - p, df);
    }
    // Bracket [0, hi] with cdf(hi) >= p, then bisect.
    let mut hi = 1.0f64;
    while student_t_cdf(hi, df) < p {
        hi *= 2.0;
        if hi > 1e12 {
            break; // p astronomically close to 1; hi is a fine answer
        }
    }
    let mut lo = 0.0f64;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid == lo || mid == hi {
            break; // bisection exhausted f64 resolution
        }
        if student_t_cdf(mid, df) < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// The 95% CI half-width scale for a sample of `count` observations:
/// `t₀.₉₇₅(count − 1)`, the two-sided Student-t critical value.
///
/// `ci95 = t_ci95_scale(n) · std_err`. For `count < 2` the interval is
/// undefined; `0.0` is returned so a single observation reports a zero
/// half-width (its `std_err` is zero anyway), matching the old normal-
/// approximation behavior at the degenerate size.
///
/// Memoized: a count below 4096 is solved by [`student_t_quantile`] the
/// first time this process asks for it, and every later call reads the
/// stored bits back, so the result is bitwise the function's own at any
/// call and on any thread. The table is 4096 zero-initialized atomics:
/// no lock on a read, no allocation, and only the pages of counts in use
/// are touched. A count at or above 4096 is solved on every call; a
/// sample that large took far longer to draw than one solve.
pub fn t_ci95_scale(count: usize) -> f64 {
    // Slot `n` holds the bits of the scale for count `n`, `0` while not
    // yet solved (the scale is positive for every count ≥ 2). Each slot
    // publishes only its own value, a pure function of its index, so
    // `Relaxed` suffices: two threads that race both store the same bits.
    static SCALE: [AtomicU64; SCALE_MEMO_COUNTS] = [const { AtomicU64::new(0) }; SCALE_MEMO_COUNTS];
    if count < 2 {
        return 0.0;
    }
    let solve = || student_t_quantile(0.975, (count - 1) as f64);
    let Some(slot) = SCALE.get(count) else {
        return solve();
    };
    match slot.load(Ordering::Relaxed) {
        0 => {
            let scale = solve();
            slot.store(scale.to_bits(), Ordering::Relaxed);
            scale
        }
        bits => f64::from_bits(bits),
    }
}

/// Counts below this are memoized by [`t_ci95_scale`].
const SCALE_MEMO_COUNTS: usize = 4096;

/// When a cell stops growing under adaptive precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A fixed trial budget was configured and spent.
    FixedBudget,
    /// The target CI half-width was reached.
    CiReached,
    /// The trial ceiling was hit before the target half-width.
    MaxTrials,
}

impl StopReason {
    /// Stable wire name (the `stop_reason` field of `suu-results/v2`).
    pub fn as_str(&self) -> &'static str {
        match self {
            StopReason::FixedBudget => "fixed-budget",
            StopReason::CiReached => "ci-reached",
            StopReason::MaxTrials => "max-trials",
        }
    }
}

/// How many trials a cell gets: a fixed budget, or run-until-converged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Precision {
    /// Exactly `n` trials, unconditionally (the pre-adaptive behavior).
    FixedTrials(usize),
    /// Grow the sample until the 95% CI half-width of the mean drops to
    /// the target, subject to trial bounds.
    TargetCi {
        /// Target half-width — absolute, or a fraction of `|mean|` when
        /// `relative` is set.
        half_width: f64,
        /// Interpret `half_width` relative to the current mean estimate.
        relative: bool,
        /// Never stop on the CI rule below this many trials (variance
        /// estimates are too noisy to trust at tiny `n`).
        min_trials: usize,
        /// Hard ceiling; reaching it stops with [`StopReason::MaxTrials`].
        max_trials: usize,
    },
}

impl Precision {
    /// The most trials this rule can ever spend.
    pub fn max_trials(&self) -> usize {
        match self {
            Precision::FixedTrials(n) => *n,
            Precision::TargetCi { max_trials, .. } => *max_trials,
        }
    }

    /// The fewest trials before a stopping check may fire.
    pub fn min_trials(&self) -> usize {
        match self {
            Precision::FixedTrials(n) => *n,
            Precision::TargetCi {
                min_trials,
                max_trials,
                ..
            } => (*min_trials).max(2).min(*max_trials),
        }
    }

    /// Stopping check for a sample of `count` observations with the given
    /// mean and 95% CI half-width. `None` means: keep sampling.
    ///
    /// The CI rule needs at least two observations: one has no interval
    /// (its `ci95` reads `0.0`), so a `max_trials` of 1 stops as
    /// [`StopReason::MaxTrials`], never as [`StopReason::CiReached`].
    pub fn check(&self, count: usize, mean: f64, ci95: f64) -> Option<StopReason> {
        match self {
            Precision::FixedTrials(n) => (count >= *n).then_some(StopReason::FixedBudget),
            Precision::TargetCi {
                half_width,
                relative,
                max_trials,
                ..
            } => {
                let goal = if *relative {
                    half_width * mean.abs()
                } else {
                    *half_width
                };
                if count >= self.min_trials().max(2) && ci95 <= goal {
                    Some(StopReason::CiReached)
                } else if count >= *max_trials {
                    Some(StopReason::MaxTrials)
                } else {
                    None
                }
            }
        }
    }

    /// [`Precision::check`] on a sample's streaming count, mean and CI;
    /// an empty sample checks as mean 0 with an infinite CI.
    pub fn check_sample(&self, sample: &Streaming) -> Option<StopReason> {
        let (mean, ci95) = match (sample.mean(), sample.ci95()) {
            (Some(mean), Some(ci95)) => (mean, ci95),
            _ => (0.0, f64::INFINITY),
        };
        self.check(sample.count() as usize, mean, ci95)
    }
}

/// Welford accumulator over **per-trial differences** `a − b` of two
/// policies executed on common random numbers (shared trial seeds).
///
/// Under CRN the per-trial difference removes the within-trial noise the
/// two policies share, so the variance of the *difference* — usually far
/// smaller than either marginal variance — drives the comparison budget.
/// Trials must be pushed in trial order with `a` and `b` from the same
/// trial seed.
#[derive(Debug, Clone, Default)]
pub struct PairedDelta {
    delta: Streaming,
}

impl PairedDelta {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one paired trial: metric of policy A and of policy B under
    /// the same trial seed.
    pub fn push(&mut self, a: f64, b: f64) {
        self.delta.push(a - b);
    }

    /// Paired trials folded in.
    pub fn count(&self) -> u64 {
        self.delta.count()
    }

    /// Mean of `a − b` (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        self.delta.mean()
    }

    /// Standard error of the mean difference.
    pub fn std_err(&self) -> Option<f64> {
        self.delta.std_err()
    }

    /// 95% CI half-width of the mean difference (Student-t).
    pub fn ci95(&self) -> Option<f64> {
        self.delta.ci95()
    }

    /// `true` when zero lies outside the 95% CI of the mean difference —
    /// the policies are statistically distinguishable at this sample.
    /// `None` when fewer than two pairs were folded.
    pub fn significant(&self) -> Option<bool> {
        if self.delta.count() < 2 {
            return None;
        }
        let mean = self.mean().expect("nonempty");
        let ci = self.ci95().expect("nonempty");
        Some(mean.abs() > ci)
    }

    /// The underlying difference moments.
    pub fn deltas(&self) -> &Streaming {
        &self.delta
    }

    /// Snapshot to JSON (see [`OutcomeAccumulator::to_json`] for the
    /// round-trip contract).
    pub fn to_json(&self) -> Json {
        Json::obj().field("delta", self.delta.to_json())
    }

    /// Restore a snapshot produced by [`PairedDelta::to_json`].
    pub fn from_json(json: &Json) -> Result<Self, String> {
        Ok(PairedDelta {
            delta: Streaming::from_json(
                json.get("delta").ok_or("paired snapshot missing 'delta'")?,
            )?,
        })
    }
}

/// Welford's online mean/variance, plus min/max.
///
/// One pass, `O(1)` state, numerically stable; the proptests in this
/// module pin it against the exact two-pass computation to `1e-9`.
#[derive(Debug, Clone, Default)]
pub struct Streaming {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Streaming {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if self.count == 1 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Unbiased sample variance (0 for a single observation).
    pub fn variance(&self) -> Option<f64> {
        match self.count {
            0 => None,
            1 => Some(0.0),
            c => Some(self.m2 / (c - 1) as f64),
        }
    }

    /// Unbiased sample standard deviation.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> Option<f64> {
        self.std_dev().map(|sd| sd / (self.count as f64).sqrt())
    }

    /// 95% CI half-width of the mean (Student-t; see [`t_ci95_scale`]).
    pub fn ci95(&self) -> Option<f64> {
        self.std_err()
            .map(|se| t_ci95_scale(self.count as usize) * se)
    }

    /// Minimum observation.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Snapshot the raw Welford state to JSON. Floats are written in
    /// Rust's shortest round-trip form, so [`Streaming::from_json`]
    /// restores them **bitwise** (all state here is finite by
    /// construction — samples are makespans).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("count", self.count)
            .field("mean", self.mean)
            .field("m2", self.m2)
            .field("min", self.min)
            .field("max", self.max)
    }

    /// Restore a snapshot produced by [`Streaming::to_json`].
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let field = |key: &str| -> Result<f64, String> {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("streaming snapshot missing numeric '{key}'"))
        };
        Ok(Streaming {
            count: json
                .get("count")
                .and_then(Json::as_u64)
                .ok_or("streaming snapshot missing 'count'")?,
            mean: field("mean")?,
            m2: field("m2")?,
            min: field("min")?,
            max: field("max")?,
        })
    }
}

/// The P² (piecewise-parabolic) streaming quantile estimator of Jain &
/// Chlamtac: five markers tracking `(min, q/2, q, (1+q)/2, max)` heights,
/// adjusted per observation with a parabolic (or linear) interpolation.
/// `O(1)` memory; exact for the first five observations.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights (estimates of the tracked quantiles).
    heights: [f64; 5],
    /// Actual marker positions (1-based ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Per-observation increments of the desired positions.
    increment: [f64; 5],
    /// Observations so far (first five buffer into `heights`).
    count: usize,
}

impl P2Quantile {
    /// Estimator for quantile `q ∈ (0, 1)`.
    pub fn new(q: f64) -> Self {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increment: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
        }
    }

    /// Fold in one observation.
    pub fn push(&mut self, x: f64) {
        if self.count < 5 {
            self.heights[self.count] = x;
            self.count += 1;
            if self.count == 5 {
                self.heights
                    .sort_by(|a, b| a.partial_cmp(b).expect("no NaN in sample"));
            }
            return;
        }
        self.count += 1;

        // Find the cell k with heights[k] <= x < heights[k+1], updating
        // the extreme markers on the way.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            // One of the three middle cells.
            (1..4).find(|&i| x < self.heights[i]).unwrap_or(4) - 1
        };

        for i in (k + 1)..5 {
            self.positions[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.increment[i];
        }

        // Adjust the three interior markers toward their desired
        // positions.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let below = self.positions[i] - self.positions[i - 1];
            let above = self.positions[i + 1] - self.positions[i];
            if (d >= 1.0 && above > 1.0) || (d <= -1.0 && below > 1.0) {
                let s = d.signum();
                let candidate = self.parabolic(i, s);
                let new_h = if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                    candidate
                } else {
                    self.linear(i, s)
                };
                self.heights[i] = new_h;
                self.positions[i] += s;
            }
        }
    }

    /// Piecewise-parabolic height prediction for marker `i` moved by `s`.
    fn parabolic(&self, i: usize, s: f64) -> f64 {
        let p = &self.positions;
        let h = &self.heights;
        h[i] + s / (p[i + 1] - p[i - 1])
            * ((p[i] - p[i - 1] + s) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
                + (p[i + 1] - p[i] - s) * (h[i] - h[i - 1]) / (p[i] - p[i - 1]))
    }

    /// Linear fallback when the parabola overshoots a neighbor.
    fn linear(&self, i: usize, s: f64) -> f64 {
        let j = (i as f64 + s) as usize;
        self.heights[i]
            + s * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Snapshot the full marker state to JSON (bitwise round-trip; see
    /// [`Streaming::to_json`]).
    pub fn to_json(&self) -> Json {
        let arr = |v: &[f64; 5]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
        Json::obj()
            .field("q", self.q)
            .field("count", self.count as u64)
            .field("heights", arr(&self.heights))
            .field("positions", arr(&self.positions))
            .field("desired", arr(&self.desired))
    }

    /// Restore a snapshot produced by [`P2Quantile::to_json`]. The
    /// per-observation increments are a pure function of `q` and are
    /// rebuilt rather than stored; a `q` outside `(0, 1)` is refused.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let q = json
            .get("q")
            .and_then(Json::as_f64)
            .ok_or("sketch snapshot missing 'q'")?;
        if !(q > 0.0 && q < 1.0) {
            return Err(format!("sketch 'q' {q} outside (0, 1)"));
        }
        let count = json
            .get("count")
            .and_then(Json::as_u64)
            .ok_or("sketch snapshot missing 'count'")? as usize;
        let arr = |key: &str| -> Result<[f64; 5], String> {
            let items = json
                .get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("sketch snapshot missing array '{key}'"))?;
            if items.len() != 5 {
                return Err(format!("sketch '{key}' must have 5 entries"));
            }
            let mut out = [0.0; 5];
            for (slot, item) in out.iter_mut().zip(items) {
                *slot = item
                    .as_f64()
                    .ok_or_else(|| format!("non-numeric entry in sketch '{key}'"))?;
            }
            Ok(out)
        };
        let mut sketch = P2Quantile::new(q);
        sketch.count = count;
        sketch.heights = arr("heights")?;
        sketch.positions = arr("positions")?;
        sketch.desired = arr("desired")?;
        Ok(sketch)
    }

    /// Current estimate (`None` when empty). Exact below five
    /// observations (interpolated from the sorted buffer).
    pub fn estimate(&self) -> Option<f64> {
        match self.count {
            0 => None,
            c if c < 5 => {
                let mut buf = self.heights[..c].to_vec();
                buf.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in sample"));
                Some(quantile_sorted(&buf, self.q))
            }
            _ => Some(self.heights[2]),
        }
    }
}

/// Streaming accumulator over trial outcomes: everything the report layer
/// needs — makespan moments, min/max, median/p95, completion and
/// violation counts — in memory independent of the trial count.
///
/// Trials must be pushed **in trial order**: the P² sketch (unlike the
/// moments) is order-sensitive, and the evaluator's determinism contract
/// (same master seed ⇒ identical statistics at any thread count) holds
/// because its pipeline folds chunks in index order.
#[derive(Debug, Clone)]
pub struct OutcomeAccumulator {
    makespan: Streaming,
    median: P2Quantile,
    p95: P2Quantile,
    /// Raw makespans, retained while `count <= EXACT_CAP` for exact
    /// quantiles; dropped (switching to the sketches) beyond the cap.
    exact: Option<Vec<f64>>,
    completed: u64,
    ineligible: u64,
}

impl Default for OutcomeAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl OutcomeAccumulator {
    /// Samples up to which quantiles are computed exactly from the
    /// retained values; beyond it the P² sketches take over. Sized so
    /// that every historical experiment (≤ 500 trials per cell) keeps
    /// bitwise-identical summary statistics. Snapshots record it as
    /// `exact_cap`, and [`OutcomeAccumulator::from_json`] refuses any
    /// other value.
    pub const EXACT_CAP: usize = 512;

    /// Empty accumulator.
    pub fn new() -> Self {
        OutcomeAccumulator {
            makespan: Streaming::new(),
            median: P2Quantile::new(0.5),
            p95: P2Quantile::new(0.95),
            exact: Some(Vec::new()),
            completed: 0,
            ineligible: 0,
        }
    }

    /// Fold in one trial outcome.
    pub fn push(&mut self, outcome: &ExecOutcome) {
        self.push_makespan(
            outcome.makespan as f64,
            outcome.completed,
            outcome.ineligible_assignments,
        );
    }

    /// Fold in one trial as raw fields.
    ///
    /// While the exact sample is retained the sketches are not updated
    /// (their estimates could never be consulted); on outgrowing the cap
    /// the retained values are replayed into the sketches in arrival
    /// order, so the sketch state — and every later estimate — is
    /// identical to having fed them from the start.
    pub fn push_makespan(&mut self, makespan: f64, completed: bool, ineligible: u64) {
        if completed {
            self.completed += 1;
        }
        self.ineligible += ineligible;
        self.makespan.push(makespan);
        match &mut self.exact {
            Some(exact) if exact.len() < Self::EXACT_CAP => exact.push(makespan),
            Some(_) => {
                // Outgrew the cap: sketches take over from here.
                let exact = self.exact.take().expect("checked Some");
                for &v in &exact {
                    self.median.push(v);
                    self.p95.push(v);
                }
                self.median.push(makespan);
                self.p95.push(makespan);
            }
            None => {
                self.median.push(makespan);
                self.p95.push(makespan);
            }
        }
    }

    /// Snapshot schema identifier stamped on [`OutcomeAccumulator::to_json`].
    pub const SNAPSHOT_SCHEMA: &'static str = suu_core::schemas::SIM_ACCUMULATOR_V1;

    /// Serialize the complete accumulator state to JSON.
    ///
    /// Floats round-trip bitwise (shortest-representation formatting), so
    /// [`OutcomeAccumulator::from_json`] restores an accumulator that is
    /// indistinguishable from the original: continuing to push the same
    /// values yields identical moments, quantile-sketch markers, and
    /// summaries. This is the persistence format behind resumable cells.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj()
            .field("schema", Self::SNAPSHOT_SCHEMA)
            .field("makespan", self.makespan.to_json())
            .field("exact_cap", Json::UInt(Self::EXACT_CAP as u64))
            .field("completed", self.completed)
            .field("ineligible", self.ineligible);
        match &self.exact {
            Some(values) => {
                // Sketches are untouched while the exact sample is
                // retained, so the values alone reconstruct everything.
                doc = doc.field(
                    "exact",
                    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                );
            }
            None => {
                doc = doc
                    .field("median_sketch", self.median.to_json())
                    .field("p95_sketch", self.p95.to_json());
            }
        }
        doc
    }

    /// Restore a snapshot produced by [`OutcomeAccumulator::to_json`].
    pub fn from_json(json: &Json) -> Result<Self, String> {
        match json.get("schema").and_then(Json::as_str) {
            Some(s) if s == Self::SNAPSHOT_SCHEMA => {}
            other => return Err(format!("unsupported accumulator snapshot schema {other:?}")),
        }
        let makespan = Streaming::from_json(
            json.get("makespan")
                .ok_or("accumulator snapshot missing 'makespan'")?,
        )?;
        if json.get("exact_cap").and_then(Json::as_u64) != Some(Self::EXACT_CAP as u64) {
            return Err(format!(
                "accumulator 'exact_cap' must be {}",
                Self::EXACT_CAP
            ));
        }
        let mut acc = OutcomeAccumulator {
            makespan,
            median: P2Quantile::new(0.5),
            p95: P2Quantile::new(0.95),
            exact: None,
            completed: json
                .get("completed")
                .and_then(Json::as_u64)
                .ok_or("accumulator snapshot missing 'completed'")?,
            ineligible: json
                .get("ineligible")
                .and_then(Json::as_u64)
                .ok_or("accumulator snapshot missing 'ineligible'")?,
        };
        if let Some(values) = json.get("exact") {
            let items = values
                .as_array()
                .ok_or("accumulator 'exact' must be an array")?;
            let mut exact = Vec::with_capacity(items.len());
            for item in items {
                exact.push(
                    item.as_f64()
                        .ok_or("non-numeric entry in accumulator 'exact'")?,
                );
            }
            if exact.len() as u64 != acc.makespan.count() {
                return Err("accumulator 'exact' length disagrees with 'makespan.count'".into());
            }
            acc.exact = Some(exact);
        } else {
            acc.median = P2Quantile::from_json(
                json.get("median_sketch")
                    .ok_or("accumulator snapshot missing sketches and exact sample")?,
            )?;
            acc.p95 = P2Quantile::from_json(
                json.get("p95_sketch")
                    .ok_or("accumulator snapshot missing 'p95_sketch'")?,
            )?;
            // Past the cap both sketches have seen every trial, so one
            // that tracks another quantile or counts differently was not
            // written by this accumulator (and would fail `summary`).
            for (key, sketch, q) in [
                ("median_sketch", &acc.median, 0.5),
                ("p95_sketch", &acc.p95, 0.95),
            ] {
                if sketch.q != q {
                    return Err(format!("accumulator '{key}' tracks q {} not {q}", sketch.q));
                }
                if sketch.count as u64 != acc.makespan.count() {
                    return Err(format!(
                        "accumulator '{key}' count disagrees with 'makespan.count'"
                    ));
                }
            }
        }
        Ok(acc)
    }

    /// Trials folded in so far.
    pub fn count(&self) -> u64 {
        self.makespan.count()
    }

    /// The makespan moments/extrema (`O(1)` access, no quantile work).
    pub fn makespan(&self) -> &Streaming {
        &self.makespan
    }

    /// Fraction of trials that completed within the step cap (0 when
    /// empty).
    pub fn completion_rate(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            c => self.completed as f64 / c as f64,
        }
    }

    /// `true` when every folded trial completed.
    pub fn all_completed(&self) -> bool {
        self.completed == self.count()
    }

    /// Total machine-steps pointed at ineligible jobs across all trials.
    pub fn total_ineligible(&self) -> u64 {
        self.ineligible
    }

    /// `true` while quantiles are exact (sample within the cap).
    pub fn exact_quantiles(&self) -> bool {
        self.exact.is_some()
    }

    /// Summary of the makespan sample, or `None` if no trial was folded.
    pub fn summary(&self) -> Option<Summary> {
        let count = self.count() as usize;
        if count == 0 {
            return None;
        }
        let std_dev = self.makespan.std_dev().expect("nonempty");
        let std_err = self.makespan.std_err().expect("nonempty");
        let (median, p95, exact_quantiles) = match &self.exact {
            Some(values) => {
                let mut sorted = values.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in sample"));
                (
                    quantile_sorted(&sorted, 0.5),
                    quantile_sorted(&sorted, 0.95),
                    true,
                )
            }
            None => (
                self.median.estimate().expect("nonempty"),
                self.p95.estimate().expect("nonempty"),
                false,
            ),
        };
        Some(Summary {
            count,
            mean: self.makespan.mean().expect("nonempty"),
            std_dev,
            std_err,
            ci95: self.makespan.ci95().expect("nonempty"),
            min: self.makespan.min().expect("nonempty"),
            median,
            p95,
            max: self.makespan.max().expect("nonempty"),
            exact_quantiles,
        })
    }
}

/// Quantile of an already-sorted sample (linear interpolation).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty() && (0.0..=1.0).contains(&q));
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Chi-square homogeneity statistic for two samples of counts over shared
/// bins, plus its degrees of freedom. Bins where both samples are empty are
/// dropped; remaining bins with tiny expected counts are pooled into their
/// neighbor to keep the approximation sane.
pub fn chi_square_two_sample(a: &[u64], b: &[u64]) -> (f64, usize) {
    assert_eq!(a.len(), b.len(), "bin count mismatch");
    // Pool bins until every pooled bin has a combined count >= 5.
    let mut pooled: Vec<(f64, f64)> = Vec::new();
    let (mut acc_a, mut acc_b) = (0f64, 0f64);
    for (&ca, &cb) in a.iter().zip(b) {
        acc_a += ca as f64;
        acc_b += cb as f64;
        if acc_a + acc_b >= 5.0 {
            pooled.push((acc_a, acc_b));
            acc_a = 0.0;
            acc_b = 0.0;
        }
    }
    if acc_a + acc_b > 0.0 {
        if let Some(last) = pooled.last_mut() {
            last.0 += acc_a;
            last.1 += acc_b;
        } else {
            pooled.push((acc_a, acc_b));
        }
    }
    let total_a: f64 = pooled.iter().map(|p| p.0).sum();
    let total_b: f64 = pooled.iter().map(|p| p.1).sum();
    let total = total_a + total_b;
    if total == 0.0 || pooled.len() < 2 {
        return (0.0, 0);
    }
    let mut chi2 = 0.0;
    for &(ca, cb) in &pooled {
        let row = ca + cb;
        let ea = row * total_a / total;
        let eb = row * total_b / total;
        if ea > 0.0 {
            chi2 += (ca - ea).powi(2) / ea;
        }
        if eb > 0.0 {
            chi2 += (cb - eb).powi(2) / eb;
        }
    }
    (chi2, pooled.len() - 1)
}

/// Conservative chi-square critical value at significance ~0.001 for `dof`
/// degrees of freedom (Wilson–Hilferty approximation). Used by equivalence
/// tests: statistic above this ⇒ samples very likely differ.
pub fn chi_square_critical_001(dof: usize) -> f64 {
    if dof == 0 {
        return 0.0;
    }
    let k = dof as f64;
    // Wilson–Hilferty: chi2_q ≈ k * (1 - 2/(9k) + z_q * sqrt(2/(9k)))^3,
    // z_{0.999} ≈ 3.09.
    let z = 3.09;
    k * (1.0 - 2.0 / (9.0 * k) + z * (2.0 / (9.0 * k)).sqrt()).powi(3)
}

/// Default bin-count cap for [`histogram_pair`]: plenty of resolution
/// for a chi-square comparison, bounded memory regardless of the sample
/// magnitude.
pub const MAX_HISTOGRAM_BINS: usize = 4096;

/// Build shared-binning histograms for two u64 samples, with at most
/// [`MAX_HISTOGRAM_BINS`] bins.
///
/// Values up to the cap get one bin per value (bitwise the old
/// value-indexed behavior); beyond that, bins widen uniformly so the bin
/// *count* stays bounded — a corrupt or sentinel makespan in the
/// millions costs kilobytes, not a multi-MB (or OOM-ing) allocation.
/// The chi-square test downstream stays exact on the pooled bins.
pub fn histogram_pair(a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
    histogram_pair_capped(a, b, MAX_HISTOGRAM_BINS)
}

/// [`histogram_pair`] with an explicit bin-count cap (`cap >= 1`).
pub fn histogram_pair_capped(a: &[u64], b: &[u64], cap: usize) -> (Vec<u64>, Vec<u64>) {
    assert!(cap >= 1, "histogram needs at least one bin");
    let max = a.iter().chain(b).copied().max().unwrap_or(0);
    // Smallest uniform width keeping `max/width` under the cap:
    // `ceil((max+1)/cap)`. Width 1 (value-indexed bins) whenever the
    // range already fits.
    let width = max / cap as u64 + 1;
    let bins = (max / width) as usize + 1;
    let mut ha = vec![0u64; bins];
    let mut hb = vec![0u64; bins];
    for &v in a {
        ha[(v / width) as usize] += 1;
    }
    for &v in b {
        hb[(v / width) as usize] += 1;
    }
    (ha, hb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Summary of `values` folded in order into a fresh accumulator.
    fn summary_of(values: &[f64]) -> Option<Summary> {
        let mut acc = OutcomeAccumulator::new();
        for &v in values {
            acc.push_makespan(v, true, 0);
        }
        acc.summary()
    }

    #[test]
    fn summary_of_constant_sample() {
        let s = summary_of(&[4.0; 10]).expect("nonempty");
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 4.0);
        assert_eq!(s.min, 4.0);
        assert_eq!(s.max, 4.0);
        assert!(s.exact_quantiles);
    }

    #[test]
    fn summary_basic_moments() {
        let s = summary_of(&[1.0, 2.0, 3.0, 4.0, 5.0]).expect("nonempty");
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.std_dev - (2.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn empty_sample_is_none_not_panic() {
        assert!(OutcomeAccumulator::new().summary().is_none());
    }

    /// Exact two-pass reference for the streaming moments.
    fn exact_moments(values: &[f64]) -> (f64, f64, f64, f64) {
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = if values.len() > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        (mean, var.sqrt(), min, max)
    }

    fn exact_quantile(values: &[f64], q: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        quantile_sorted(&sorted, q)
    }

    #[test]
    fn accumulator_switches_to_sketch_past_the_cap() {
        let cap = OutcomeAccumulator::EXACT_CAP;
        let mut acc = OutcomeAccumulator::new();
        for i in 0..cap {
            acc.push_makespan(i as f64, true, 0);
        }
        assert!(acc.exact_quantiles());
        assert!(acc.summary().unwrap().exact_quantiles);
        acc.push_makespan(cap as f64, true, 0);
        assert!(!acc.exact_quantiles());
        let s = acc.summary().unwrap();
        assert!(!s.exact_quantiles);
        // Moments stay exact regardless of the quantile mode.
        assert!((s.mean - cap as f64 / 2.0).abs() < 1e-9);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, cap as f64);
    }

    #[test]
    fn accumulator_counts_completion_and_violations() {
        let mut acc = OutcomeAccumulator::new();
        acc.push_makespan(3.0, true, 0);
        acc.push_makespan(9.0, false, 4);
        acc.push_makespan(5.0, true, 1);
        assert_eq!(acc.count(), 3);
        assert!((acc.completion_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!(!acc.all_completed());
        assert_eq!(acc.total_ineligible(), 5);
    }

    #[test]
    fn p2_sketch_tracks_adversarial_shapes() {
        // Sorted ascending, sorted descending, constant, and bimodal
        // inputs: the sketch's median/p95 must stay within a tolerance of
        // the exact quantiles even on these worst cases.
        let n = 4000;
        let ascending: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let descending: Vec<f64> = (0..n).map(|i| (n - i) as f64).collect();
        let constant = vec![13.5; n];
        let bimodal: Vec<f64> = (0..n)
            .map(|i| if i % 10 < 7 { 10.0 } else { 1000.0 })
            .collect();
        for (name, values) in [
            ("ascending", ascending),
            ("descending", descending),
            ("constant", constant),
            ("bimodal", bimodal),
        ] {
            for q in [0.5, 0.95] {
                let mut sketch = P2Quantile::new(q);
                for &v in &values {
                    sketch.push(v);
                }
                let got = sketch.estimate().unwrap();
                let want = exact_quantile(&values, q);
                let spread = exact_quantile(&values, 1.0) - exact_quantile(&values, 0.0);
                let tol = (spread * 0.05).max(1e-9);
                assert!(
                    (got - want).abs() <= tol,
                    "{name} q{q}: sketch {got} vs exact {want} (tol {tol})"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Streaming mean/std/min/max match the exact two-pass batch
        /// computation to 1e-9 (relative to the sample scale).
        #[test]
        fn streaming_moments_match_exact(
            values in proptest::collection::vec(-1.0e6f64..1.0e6, 1..400),
        ) {
            let mut s = Streaming::new();
            for &v in &values {
                s.push(v);
            }
            let (mean, std_dev, min, max) = exact_moments(&values);
            let scale = 1.0 + values.iter().fold(0.0f64, |a, v| a.max(v.abs()));
            prop_assert!((s.mean().unwrap() - mean).abs() <= 1e-9 * scale);
            prop_assert!((s.std_dev().unwrap() - std_dev).abs() <= 1e-9 * scale);
            prop_assert_eq!(s.min().unwrap(), min);
            prop_assert_eq!(s.max().unwrap(), max);
            prop_assert_eq!(s.count(), values.len() as u64);
        }

        /// Within the exact cap the accumulator's summary is bitwise the
        /// sort-based computation (the small-sample fallback).
        #[test]
        fn small_samples_stay_exact(
            values in proptest::collection::vec(0.0f64..1.0e4, 1..64),
        ) {
            let s = summary_of(&values).unwrap();
            prop_assert!(s.exact_quantiles);
            prop_assert_eq!(s.median, exact_quantile(&values, 0.5));
            prop_assert_eq!(s.p95, exact_quantile(&values, 0.95));
            prop_assert_eq!(s.min, exact_quantile(&values, 0.0));
            prop_assert_eq!(s.max, exact_quantile(&values, 1.0));
        }

        /// The P² sketch stays within a coarse tolerance of the exact
        /// quantile on random inputs well past the exact cap.
        #[test]
        fn sketch_tracks_random_inputs(
            values in proptest::collection::vec(0.0f64..1000.0, 1000..3000),
        ) {
            let mut sketch = P2Quantile::new(0.5);
            for &v in &values {
                sketch.push(v);
            }
            let got = sketch.estimate().unwrap();
            let want = exact_quantile(&values, 0.5);
            prop_assert!(
                (got - want).abs() <= 50.0,
                "sketch {} vs exact {}", got, want
            );
        }
    }

    #[test]
    fn quantiles_interpolate() {
        let sorted = [0.0, 10.0];
        assert_eq!(quantile_sorted(&sorted, 0.5), 5.0);
        assert_eq!(quantile_sorted(&sorted, 0.0), 0.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 10.0);
    }

    #[test]
    fn chi_square_identical_histograms_is_zero() {
        let h = vec![10, 20, 30, 5];
        let (chi2, _) = chi_square_two_sample(&h, &h);
        assert!(chi2 < 1e-9);
    }

    #[test]
    fn chi_square_detects_blatant_difference() {
        let a = vec![100, 0, 0];
        let b = vec![0, 0, 100];
        let (chi2, dof) = chi_square_two_sample(&a, &b);
        assert!(chi2 > chi_square_critical_001(dof));
    }

    #[test]
    fn chi_square_pools_sparse_bins() {
        let a = vec![3, 2, 1, 0, 50];
        let b = vec![2, 3, 0, 1, 50];
        let (chi2, dof) = chi_square_two_sample(&a, &b);
        assert!(dof >= 1);
        assert!(
            chi2 <= chi_square_critical_001(dof),
            "similar samples accepted"
        );
    }

    #[test]
    fn critical_values_reasonable() {
        // Known chi-square 0.001 critical values: dof=1 ≈ 10.8, dof=10 ≈ 29.6.
        assert!((chi_square_critical_001(1) - 10.8).abs() < 1.5);
        assert!((chi_square_critical_001(10) - 29.6).abs() < 1.5);
    }

    #[test]
    fn histogram_pair_shares_bins() {
        let (ha, hb) = histogram_pair(&[0, 2, 2], &[1]);
        assert_eq!(ha, vec![1, 0, 2]);
        assert_eq!(hb, vec![0, 1, 0]);
    }

    #[test]
    fn histogram_pair_bounds_bins_on_large_magnitudes() {
        // Regression: value-indexed bins used to allocate max(sample)+1
        // entries — tens of MB for makespans in the millions, OOM for a
        // corrupt sentinel. Bins must stay capped with widened ranges.
        let a = vec![3, 5_000_000, 12_345_678];
        let b = vec![4, 9_999_999];
        let (ha, hb) = histogram_pair(&a, &b);
        assert!(ha.len() <= MAX_HISTOGRAM_BINS, "bins {}", ha.len());
        assert_eq!(ha.len(), hb.len());
        assert_eq!(ha.iter().sum::<u64>(), a.len() as u64);
        assert_eq!(hb.iter().sum::<u64>(), b.len() as u64);
        // Identical samples still produce a zero statistic on pooled bins.
        let (hx, hy) = histogram_pair(&a, &a);
        let (chi2, _) = chi_square_two_sample(&hx, &hy);
        assert!(chi2 < 1e-9);
        // Within the cap the binning stays bitwise the old value-indexed
        // one.
        let (ha, _) = histogram_pair(&[0, 7, 7], &[1]);
        assert_eq!(ha.len(), 8);
        assert_eq!(ha[7], 2);
    }

    #[test]
    fn ln_gamma_matches_known_values() {
        assert!((ln_gamma(1.0)).abs() < 1e-12);
        assert!((ln_gamma(2.0)).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn student_t_quantiles_match_tables() {
        // Two-sided 95% critical values (t_{0.975, df}) from standard
        // tables.
        for (df, want) in [
            (1.0, 12.7062),
            (2.0, 4.3027),
            (3.0, 3.1824),
            (4.0, 2.7764),
            (9.0, 2.2622),
            (29.0, 2.0452),
            (99.0, 1.9842),
        ] {
            let got = student_t_quantile(0.975, df);
            assert!(
                (got - want).abs() < 5e-4,
                "t(0.975, {df}) = {got}, want {want}"
            );
        }
        // Converges to the normal z as df grows.
        assert!((student_t_quantile(0.975, 1e6) - 1.95996).abs() < 1e-3);
        // Symmetry and median.
        assert_eq!(student_t_quantile(0.5, 7.0), 0.0);
        assert!((student_t_quantile(0.025, 4.0) + student_t_quantile(0.975, 4.0)).abs() < 1e-9);
    }

    #[test]
    fn t_cdf_quantile_roundtrip() {
        for df in [1.0, 3.0, 10.0, 50.0] {
            for p in [0.6, 0.9, 0.975, 0.999] {
                let t = student_t_quantile(p, df);
                assert!(
                    (student_t_cdf(t, df) - p).abs() < 1e-9,
                    "df {df} p {p}: cdf(quantile) = {}",
                    student_t_cdf(t, df)
                );
            }
        }
    }

    #[test]
    fn ci95_uses_student_t_at_small_n() {
        // Regression (satellite bugfix): the old z≈1.96 normal
        // approximation understated small-n intervals. Pin the summary
        // half-widths to t-based values.
        // n = 5, std_dev = sqrt(2.5), std_err = sqrt(0.5).
        let s = summary_of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let want = 2.7764 * (0.5f64).sqrt();
        assert!(
            (s.ci95 - want).abs() < 1e-3,
            "n=5 ci95 {} want {want}",
            s.ci95
        );
        assert!(s.ci95 > 1.96 * s.std_err, "t must widen past the normal");
        // n = 2: t_{0.975,1} = 12.706 — the normal approximation was off
        // by a factor of ~6.5 here.
        let s2 = summary_of(&[1.0, 3.0]).unwrap();
        assert!((s2.ci95 - 12.7062 * s2.std_err).abs() < 1e-3 * s2.std_err);
        // n = 1: degenerate, zero half-width (std_err is zero).
        let s1 = summary_of(&[4.0]).unwrap();
        assert_eq!(s1.ci95, 0.0);
    }

    #[test]
    fn paired_delta_crn_basics() {
        let mut pd = PairedDelta::new();
        // Policy A always 2 steps slower than B under the same seed.
        for base in [10.0, 14.0, 9.0, 30.0, 22.0] {
            pd.push(base + 2.0, base);
        }
        assert_eq!(pd.count(), 5);
        assert_eq!(pd.mean(), Some(2.0));
        assert_eq!(pd.ci95(), Some(0.0)); // constant difference: zero CI
        assert_eq!(pd.significant(), Some(true));

        // Self-comparison: never significant.
        let mut same = PairedDelta::new();
        for v in [3.0, 8.0, 5.0] {
            same.push(v, v);
        }
        assert_eq!(same.mean(), Some(0.0));
        assert_eq!(same.significant(), Some(false));
        assert_eq!(PairedDelta::new().significant(), None);

        // Snapshot round-trip.
        let restored = PairedDelta::from_json(&pd.to_json()).unwrap();
        assert_eq!(restored.mean(), pd.mean());
        assert_eq!(restored.count(), pd.count());
    }

    #[test]
    fn precision_stopping_rules() {
        let fixed = Precision::FixedTrials(10);
        assert_eq!(fixed.check(9, 5.0, 100.0), None);
        assert_eq!(fixed.check(10, 5.0, 100.0), Some(StopReason::FixedBudget));
        assert_eq!(fixed.max_trials(), 10);

        let target = Precision::TargetCi {
            half_width: 0.5,
            relative: false,
            min_trials: 8,
            max_trials: 64,
        };
        // Below min_trials: never stop on CI, however tight.
        assert_eq!(target.check(4, 5.0, 0.0), None);
        // CI reached at/past min_trials.
        assert_eq!(target.check(8, 5.0, 0.4), Some(StopReason::CiReached));
        // CI not reached, budget not exhausted: keep going.
        assert_eq!(target.check(16, 5.0, 0.9), None);
        // Ceiling.
        assert_eq!(target.check(64, 5.0, 0.9), Some(StopReason::MaxTrials));
        // CI satisfied exactly at the ceiling counts as converged.
        assert_eq!(target.check(64, 5.0, 0.4), Some(StopReason::CiReached));

        let relative = Precision::TargetCi {
            half_width: 0.1,
            relative: true,
            min_trials: 2,
            max_trials: 1000,
        };
        assert_eq!(relative.check(50, 20.0, 1.9), Some(StopReason::CiReached));
        assert_eq!(relative.check(50, 20.0, 2.1), None);

        // One trial has no CI (its `ci95` reads 0): a ceiling of 1 stops
        // on the ceiling, never on the CI rule.
        let one = Precision::TargetCi {
            half_width: 0.01,
            relative: true,
            min_trials: 1,
            max_trials: 1,
        };
        assert_eq!(one.min_trials(), 1);
        let mut single = Streaming::new();
        single.push(4.0);
        assert_eq!(single.ci95(), Some(0.0));
        assert_eq!(one.check_sample(&single), Some(StopReason::MaxTrials));
        assert_eq!(one.check(1, 4.0, 0.0), Some(StopReason::MaxTrials));

        // On a sample: its own count, mean and CI (empty: mean 0, CI ∞).
        let mut sample = Streaming::new();
        assert_eq!(target.check_sample(&sample), None);
        assert_eq!(
            Precision::FixedTrials(0).check_sample(&sample),
            Some(StopReason::FixedBudget)
        );
        for _ in 0..8 {
            sample.push(5.0);
        }
        assert_eq!(target.check_sample(&sample), Some(StopReason::CiReached));
        sample.push(9.0);
        let (mean, ci95) = (sample.mean().unwrap(), sample.ci95().unwrap());
        assert_eq!(target.check_sample(&sample), target.check(9, mean, ci95));

        assert_eq!(StopReason::CiReached.as_str(), "ci-reached");
        assert_eq!(StopReason::FixedBudget.as_str(), "fixed-budget");
        assert_eq!(StopReason::MaxTrials.as_str(), "max-trials");
    }

    /// Push `values[..split]` into one accumulator, snapshot/restore it,
    /// push the rest into the restored copy, and compare against pushing
    /// everything into a fresh accumulator — all state bitwise equal.
    fn snapshot_roundtrip_case(values: &[f64], split: usize) {
        let mut first = OutcomeAccumulator::new();
        for &v in &values[..split] {
            first.push_makespan(v, true, 1);
        }
        let snapshot = first.to_json();
        let mut restored = OutcomeAccumulator::from_json(&snapshot).unwrap();
        let mut whole = OutcomeAccumulator::new();
        for &v in values {
            whole.push_makespan(v, true, 1);
        }
        for &v in &values[split..] {
            restored.push_makespan(v, true, 1);
        }
        assert_eq!(
            restored.to_json().to_compact(),
            whole.to_json().to_compact(),
            "split {split} of {}",
            values.len()
        );
        let (r, w) = (restored.summary().unwrap(), whole.summary().unwrap());
        assert_eq!(r.mean.to_bits(), w.mean.to_bits());
        assert_eq!(r.median.to_bits(), w.median.to_bits());
        assert_eq!(r.p95.to_bits(), w.p95.to_bits());
    }

    #[test]
    fn accumulator_snapshot_roundtrips_bitwise() {
        let cap = OutcomeAccumulator::EXACT_CAP;
        let values: Vec<f64> = (0..cap + 88).map(|i| ((i * 37 + 11) % 23) as f64).collect();
        // Exact regime throughout, a cap crossing that happens *after*
        // the restore, a snapshot taken after the crossing (sketch
        // regime), and both ends.
        snapshot_roundtrip_case(&values[..40], 10);
        snapshot_roundtrip_case(&values, 10); // crossing after restore
        snapshot_roundtrip_case(&values, cap); // full exact sample, crossing next
        snapshot_roundtrip_case(&values, cap + 40); // snapshot after crossing
        snapshot_roundtrip_case(&values, 0);
        snapshot_roundtrip_case(&values, values.len());
    }

    #[test]
    fn snapshot_rejects_garbage() {
        assert!(OutcomeAccumulator::from_json(&Json::obj()).is_err());
        assert!(OutcomeAccumulator::from_json(&Json::obj().field("schema", "nope")).is_err());
        let mut acc = OutcomeAccumulator::new();
        acc.push_makespan(3.0, true, 0);
        let good = acc.to_json();
        assert!(OutcomeAccumulator::from_json(&good).is_ok());
        // The cap is a constant: a snapshot recording any other value, or
        // the unbounded `null`, is not one this accumulator wrote.
        assert_eq!(
            good.get("exact_cap").and_then(Json::as_u64),
            Some(OutcomeAccumulator::EXACT_CAP as u64)
        );
        for cap in [Json::Null, Json::UInt(8), Json::UInt(513)] {
            let err = OutcomeAccumulator::from_json(&good.clone().field("exact_cap", cap))
                .expect_err("foreign cap");
            assert!(err.contains("'exact_cap'"), "{err}");
        }
        let truncated = good.field("exact", Json::Arr(vec![]));
        assert!(OutcomeAccumulator::from_json(&truncated).is_err());

        // Past the cap the sketches carry the quantiles: one that tracks
        // another `q` or another count is an error, not a later panic.
        let mut acc = OutcomeAccumulator::new();
        for i in 0..600 {
            acc.push_makespan((i % 17) as f64, true, 0);
        }
        let good = acc.to_json();
        assert!(OutcomeAccumulator::from_json(&good).is_ok());
        let damaged = |key: &str, field: &str, value: Json| {
            let sketch = good.get(key).unwrap().clone().field(field, value);
            OutcomeAccumulator::from_json(&good.clone().field(key, sketch))
                .expect_err("damaged sketch")
        };
        let err = damaged("median_sketch", "q", Json::Num(2.0));
        assert!(err.contains("outside (0, 1)"), "{err}");
        let err = damaged("p95_sketch", "q", Json::Num(0.5));
        assert!(err.contains("'p95_sketch' tracks q 0.5"), "{err}");
        for key in ["median_sketch", "p95_sketch"] {
            for count in [0, 599, 601] {
                let err = damaged(key, "count", Json::UInt(count));
                assert!(err.contains(&format!("'{key}' count")), "{err}");
            }
        }
        let sketch = P2Quantile::new(0.5).to_json();
        for q in [0.0, 1.0, -0.5, 2.0] {
            assert!(P2Quantile::from_json(&sketch.clone().field("q", q)).is_err());
        }
    }

    /// The memo returns the bisection's own bits, for every count a
    /// ladder or a test visits, on first and later calls and from several
    /// threads at once; counts past the table are solved directly.
    #[test]
    fn ci_scale_memo_is_bitwise_the_bisection() {
        let solved = |n: usize| student_t_quantile(0.975, (n - 1) as f64).to_bits();
        let mut counts: Vec<usize> = (2..=130).collect();
        counts.extend(crate::sweep::BudgetLadder::new(2, 1536).rungs());
        counts.extend(crate::sweep::BudgetLadder::new(16, 1536).rungs());
        counts.extend([
            SCALE_MEMO_COUNTS - 1,
            SCALE_MEMO_COUNTS,
            SCALE_MEMO_COUNTS + 1,
        ]);
        let want: Vec<u64> = counts.iter().map(|&n| solved(n)).collect();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..2 {
                        for (&n, &bits) in counts.iter().zip(&want) {
                            assert_eq!(t_ci95_scale(n).to_bits(), bits, "count {n}");
                        }
                    }
                });
            }
        });
        for n in 0..2 {
            assert_eq!(t_ci95_scale(n).to_bits(), 0.0f64.to_bits());
        }
    }
}
