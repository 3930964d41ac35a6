//! Completion-time samplers shared by every engine.
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

/// Sampled sub-run length that never completes within any reachable
/// horizon (stands in for "+∞").
pub const NEVER: u64 = u64::MAX;

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
    /// A placeholder for plans that never sample a geometric (SUU\*):
    /// the zero-mass segment, which never completes.
    pub(crate) const UNUSED: GeomSegment = GeomSegment {
        fail: 1.0,
        ln_fail: 0.0,
    };

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
        // Floor + 1, with overflow to NEVER and a floor of one step.
        let t = ((1.0 - u).ln() / self.ln_fail).floor() + 1.0;
        if !t.is_finite() || t >= 4.0e18 {
            NEVER
        } else if t < 1.0 {
            1
        } else {
            t as u64
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

/// SUU*: smallest `k ≥ 1` with `base + k·mass ≥ threshold`. Requires
/// `mass > 0`.
///
/// The closed-form guess `⌈(threshold − base)/mass⌉` is fixed up (or
/// down) to the exact first crossing using **exactly** the expression
/// the dense engine evaluates per step — the bitwise anchor of all
/// SUU\* fast-forwarding. Float rounding puts the guess at most a couple
/// of neighbors off.
pub fn star_steps(base: f64, threshold: f64, mass: f64) -> u64 {
    debug_assert!(mass > 0.0);
    if !mass.is_finite() {
        return 1;
    }
    let guess = ((threshold - base) / mass).ceil();
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
}
