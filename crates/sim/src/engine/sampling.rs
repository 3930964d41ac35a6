//! Completion-time samplers shared by every engine, in scalar and
//! batched (wide) forms.
//!
//! Two inversions close the gap between "simulate every unit step" and
//! "jump to the next event":
//!
//! * **SUU** ([`geometric_steps`] / [`GeomSegment`]): per-step
//!   Bernoulli failures of constant per-step mass `µ` form a geometric
//!   distribution with failure probability `fail = 2^(−µ)`, inverted
//!   from one uniform draw as `T = 1 + ⌊ln(1−u)/ln(fail)⌋`.
//! * **SUU\*** ([`star_steps`]): the crossing step of the linear accrual
//!   `base + k·µ ≥ threshold` — a closed-form guess by division, fixed
//!   up by neighbor checks so the result is bitwise the dense stepper's
//!   first crossing.
//!
//! # Wide kernels
//!
//! The batch engine executes the *same* `(job, mass)` segment for many
//! trials at once, so both samplers come in [`LANES`]-wide forms
//! ([`GeomSegment::steps_wide`], [`star_steps_wide`]) whose inner loops
//! are plain unrolled array arithmetic — no intrinsics, shaped so the
//! autovectorizer can lift the divide/floor/ceil lanes. **Bitwise
//! equality is structural**: every lane evaluates exactly the scalar
//! expression on the same inputs (the shared-mass quantities
//! `fail`/`ln_fail` are hoisted into [`GeomSegment`], which the scalar
//! path also goes through), so wide and scalar cannot diverge. The
//! differential tests still assert it over edge-case masses (`u → 1`,
//! `mass → 0`, `mass = ∞`, denormal thresholds).

/// Sampled sub-run length that never completes within any reachable
/// horizon (stands in for "+∞").
pub const NEVER: u64 = u64::MAX;

/// Lane width of the wide kernels. Eight `f64`s = two AVX2 vectors (or
/// four NEON), enough unroll for the autovectorizer without blowing the
/// registers; trials beyond a multiple of [`LANES`] take the scalar
/// remainder path, which evaluates the identical expressions.
pub const LANES: usize = 8;

/// Shared clamp applied to the raw geometric inversion `ratio =
/// ln(1−u)/ln(fail)`: floor + 1, with overflow to [`NEVER`] and a floor
/// of one step.
#[inline]
fn geom_finish(ratio: f64) -> u64 {
    let t = ratio.floor() + 1.0;
    if !t.is_finite() || t >= 4.0e18 {
        NEVER
    } else if t < 1.0 {
        1
    } else {
        t as u64
    }
}

/// One constant-mass SUU segment's sampling constants: the per-step
/// failure probability `fail = 2^(−mass)` and its log, precomputed so a
/// plan cached across a batch pays the `exp2`/`ln` once per *plan* job
/// instead of once per trial per epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeomSegment {
    fail: f64,
    ln_fail: f64,
}

impl GeomSegment {
    /// Constants for a segment of per-step log mass `mass`.
    pub fn new(mass: f64) -> Self {
        let fail = (-mass).exp2();
        GeomSegment {
            fail,
            ln_fail: fail.ln(),
        }
    }

    /// Steps until success from one uniform draw `u ∈ [0, 1)`; bitwise
    /// identical to [`geometric_steps`] with this segment's mass.
    #[inline]
    pub fn steps(&self, u: f64) -> u64 {
        if self.fail <= 0.0 {
            return 1; // infinite mass: certain completion
        }
        if self.fail >= 1.0 {
            return NEVER; // mass underflowed to zero progress
        }
        geom_finish((1.0 - u).ln() / self.ln_fail)
    }

    /// [`GeomSegment::steps`] for [`LANES`] draws at once. Per lane this
    /// evaluates exactly the scalar expressions, so the outputs are
    /// bitwise identical to [`LANES`] scalar calls.
    // Indexed lane loops are the deliberate shape here: every loop walks
    // 0..LANES over fixed arrays, which the autovectorizer handles well.
    #[allow(clippy::needless_range_loop)]
    pub fn steps_wide(&self, us: &[f64; LANES], out: &mut [u64; LANES]) {
        if self.fail <= 0.0 {
            out.fill(1);
            return;
        }
        if self.fail >= 1.0 {
            out.fill(NEVER);
            return;
        }
        let mut ratio = [0.0f64; LANES];
        for l in 0..LANES {
            ratio[l] = (1.0 - us[l]).ln();
        }
        // Vectorizable: one constant divisor across the lanes.
        for l in 0..LANES {
            ratio[l] /= self.ln_fail;
        }
        for l in 0..LANES {
            out[l] = geom_finish(ratio[l]);
        }
    }
}

/// SUU: steps until success for a job receiving constant per-step mass
/// `mass > 0`, from one uniform draw `u ∈ [0, 1)` by inversion.
/// `P(T > k) = fail^k` with `fail = 2^(−mass)`, so
/// `T = 1 + ⌊ln(1−u) / ln(fail)⌋`.
pub fn geometric_steps(u: f64, mass: f64) -> u64 {
    GeomSegment::new(mass).steps(u)
}

/// The closed-form crossing guess `⌈(threshold − base)/mass⌉`.
#[inline]
fn star_guess(base: f64, threshold: f64, mass: f64) -> f64 {
    ((threshold - base) / mass).ceil()
}

/// Fix a crossing guess up (or down) to the exact first step `k` with
/// `base + k·mass ≥ threshold`, using **exactly** the expression the
/// dense engine evaluates per step — the bitwise anchor of all SUU\*
/// fast-forwarding. Float rounding puts the guess at most a couple of
/// neighbors off.
#[inline]
fn star_fixup(guess: f64, base: f64, threshold: f64, mass: f64) -> u64 {
    let mut k = if guess.is_finite() && guess >= 1.0 {
        if guess >= 4.0e18 {
            return NEVER;
        }
        guess as u64
    } else if guess == f64::INFINITY {
        // `(threshold − base)/mass` overflowed: a denormal mass against an
        // ordinary gap, or an infinite threshold (`r = 0` draw). The true
        // crossing is beyond any reachable horizon; without this the
        // fix-up loop below would crawl to `1 << 62` one step at a time.
        return NEVER;
    } else {
        1
    };
    while k > 1 && base + ((k - 1) as f64) * mass >= threshold {
        k -= 1;
    }
    while base + (k as f64) * mass < threshold {
        k += 1;
        if k >= 1 << 62 {
            return NEVER;
        }
    }
    k
}

/// SUU*: smallest `k ≥ 1` with `base + k·mass ≥ threshold` (see
/// `star_fixup`). Requires `mass > 0`.
pub fn star_steps(base: f64, threshold: f64, mass: f64) -> u64 {
    debug_assert!(mass > 0.0);
    if !mass.is_finite() {
        return 1;
    }
    star_fixup(star_guess(base, threshold, mass), base, threshold, mass)
}

/// [`star_steps`] for [`LANES`] trials of one `(job, mass)` segment at
/// once: the guess division/ceil runs as unrolled lanes (vectorizable —
/// shared divisor), then each lane is fixed up scalar. Per lane this is
/// exactly the scalar computation, so outputs are bitwise identical to
/// [`LANES`] scalar calls.
// Indexed lane loops over fixed 0..LANES arrays, as in `steps_wide`.
#[allow(clippy::needless_range_loop)]
pub fn star_steps_wide(
    bases: &[f64; LANES],
    thresholds: &[f64; LANES],
    mass: f64,
    out: &mut [u64; LANES],
) {
    debug_assert!(mass > 0.0);
    if !mass.is_finite() {
        out.fill(1);
        return;
    }
    let mut guess = [0.0f64; LANES];
    for l in 0..LANES {
        guess[l] = (thresholds[l] - bases[l]) / mass;
    }
    for l in 0..LANES {
        guess[l] = guess[l].ceil();
    }
    for l in 0..LANES {
        out[l] = star_fixup(guess[l], bases[l], thresholds[l], mass);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geom_segment_matches_free_function() {
        for &mass in &[1e-300, 1e-17, 1e-3, 0.5, 1.0, 64.0, 1e4, f64::INFINITY] {
            let seg = GeomSegment::new(mass);
            for &u in &[0.0, 0.01, 0.49, 0.51, 0.999, 1.0 - 1e-16] {
                assert_eq!(seg.steps(u), geometric_steps(u, mass), "mass {mass}, u {u}");
            }
        }
    }

    #[test]
    fn wide_kernels_match_scalar_lane_for_lane() {
        // Deterministic lane inputs covering the quantile range.
        let us: [f64; LANES] = core::array::from_fn(|l| l as f64 / LANES as f64);
        for &mass in &[1e-300, 1e-2, 1.0, 64.0, f64::INFINITY] {
            let seg = GeomSegment::new(mass);
            let mut wide = [0u64; LANES];
            seg.steps_wide(&us, &mut wide);
            for l in 0..LANES {
                assert_eq!(wide[l], seg.steps(us[l]), "geom mass {mass} lane {l}");
            }
        }
        let bases: [f64; LANES] = core::array::from_fn(|l| l as f64 * 0.37);
        let thresholds: [f64; LANES] = core::array::from_fn(|l| 1.0 + l as f64 * 1.1);
        for &mass in &[1e-3, 0.3, 1.0, 50.0, f64::INFINITY] {
            let mut wide = [0u64; LANES];
            star_steps_wide(&bases, &thresholds, mass, &mut wide);
            for l in 0..LANES {
                assert_eq!(
                    wide[l],
                    star_steps(bases[l], thresholds[l], mass),
                    "star mass {mass} lane {l}"
                );
            }
        }
    }
}
