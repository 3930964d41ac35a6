//! Budget-allocation plumbing for adaptive grid sweeps.
//!
//! A sweep evaluates many (scenario, policy) cells and wants to spend
//! trials only where the policy ranking is still statistically open. The
//! two pieces live here, in `suu-sim`, because they are pure statistics
//! with no knowledge of grids or caches:
//!
//! * [`BudgetLadder`] — the deterministic trial-budget schedule a cell
//!   climbs while its comparison is unresolved. It is the one 1.5×
//!   round schedule in the workspace: the evaluator's adaptive and
//!   paired loops climb the same ladder, so a cell grown rung-by-rung
//!   through the cache's extend path lands on the same trial counts a
//!   single adaptive run would have, and stays bitwise reusable by
//!   either.
//! * [`PairedMargin`] — the winner margin between two policies evaluated
//!   under common random numbers, with a **conservative** 95% CI for
//!   the difference. The sweep only sees each policy's marginal
//!   `(mean, ci95)` (that is what cells cache); under CRN the
//!   per-trial outcomes are positively correlated, so
//!   `Var(A−B) = Var(A) + Var(B) − 2·Cov(A,B) ≤ Var(A) + Var(B)`
//!   and `sqrt(ci_a² + ci_b²)` is a valid upper bound on the paired
//!   CI half-width. Conservative means the sweep can stop *late* but
//!   never *early*: a margin declared resolved really is resolved.

/// Deterministic trial-budget schedule for one sweep cell.
///
/// The first rung is `initial`, every later rung is `n + max(n/2, 1)`
/// (1.5× growth), clamped to `max`; the evaluator's adaptive rounds
/// climb the ladder anchored at a [`crate::Precision`]'s `min_trials`. A pure function of its inputs — no state, no
/// clocks — so every re-run of a sweep climbs identical rungs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetLadder {
    /// First rung: the budget a cell gets before its first margin check.
    pub initial: usize,
    /// Hard cap: cells still unresolved here are reported as frontier
    /// ties rather than granted more trials.
    pub max: usize,
}

impl BudgetLadder {
    /// Create a ladder; `initial` is clamped into `1..=max`.
    pub fn new(initial: usize, max: usize) -> BudgetLadder {
        let max = max.max(1);
        BudgetLadder {
            initial: initial.clamp(1, max),
            max,
        }
    }

    /// The rung after a cell has `done` trials: `None` once the cap is
    /// reached, otherwise the next strictly-larger budget.
    pub fn next(&self, done: usize) -> Option<usize> {
        if done >= self.max {
            return None;
        }
        if done < self.initial {
            return Some(self.initial);
        }
        Some(done.saturating_add((done / 2).max(1)).min(self.max))
    }

    /// Every rung from the first to the cap, in order — the complete
    /// budget schedule a maximally-stubborn cell walks.
    pub fn rungs(&self) -> Vec<usize> {
        let mut out = Vec::new();
        let mut done = 0usize;
        while let Some(next) = self.next(done) {
            out.push(next);
            done = next;
        }
        out
    }
}

/// Winner margin between two policies on one scenario, from their cached
/// marginal statistics, under the common-random-numbers guarantee that
/// both consumed identical per-trial streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairedMargin {
    /// `mean_a − mean_b` — exact for the paired design, since the mean
    /// of per-trial differences equals the difference of means.
    pub delta: f64,
    /// Conservative 95% half-width for `delta`:
    /// `sqrt(ci_a² + ci_b²)`, an upper bound on the true paired CI
    /// because CRN makes the per-trial covariance non-negative.
    pub ci95: f64,
}

impl PairedMargin {
    /// Build the margin from two cached `(mean, ci95)` marginals.
    pub fn from_marginals(mean_a: f64, ci_a: f64, mean_b: f64, ci_b: f64) -> PairedMargin {
        PairedMargin {
            delta: mean_a - mean_b,
            ci95: (ci_a * ci_a + ci_b * ci_b).sqrt(),
        }
    }

    /// `true` when the 95% CI no longer straddles zero — the ranking of
    /// the pair is statistically resolved and needs no more trials.
    pub fn resolved(&self) -> bool {
        self.delta.abs() > self.ci95
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_matches_adaptive_round_schedule() {
        // The evaluator's rounds: target = done + max(done/2, 1), capped.
        let ladder = BudgetLadder::new(32, 1024);
        let mut expect = Vec::new();
        let mut done = 32usize;
        expect.push(done);
        while done < 1024 {
            done = (done + (done / 2).max(1)).min(1024);
            expect.push(done);
        }
        assert_eq!(ladder.rungs(), expect);
        assert_eq!(&expect[..4], &[32, 48, 72, 108]);
        assert_eq!(*expect.last().expect("nonempty"), 1024);
    }

    #[test]
    fn ladder_is_strictly_increasing_and_capped() {
        for (initial, max) in [(1, 1), (1, 7), (5, 5), (10, 9), (0, 4), (3, 100)] {
            let ladder = BudgetLadder::new(initial, max);
            let rungs = ladder.rungs();
            assert!(!rungs.is_empty());
            assert!(rungs.windows(2).all(|w| w[0] < w[1]), "{rungs:?}");
            assert_eq!(*rungs.last().expect("nonempty"), ladder.max);
            assert_eq!(ladder.next(ladder.max), None);
            assert_eq!(ladder.next(usize::MAX), None);
        }
        // `initial` above `max` clamps rather than overshooting.
        assert_eq!(BudgetLadder::new(10, 9).rungs(), vec![9]);
    }

    #[test]
    fn ladder_resumes_from_arbitrary_counts() {
        // A cell resumed mid-ladder continues on the same schedule the
        // cold ladder walks once counts coincide.
        let ladder = BudgetLadder::new(8, 200);
        assert_eq!(ladder.next(0), Some(8));
        assert_eq!(ladder.next(8), Some(12));
        assert_eq!(ladder.next(12), Some(18));
        // Resuming from a count below `initial` tops up to `initial`.
        assert_eq!(ladder.next(5), Some(8));
        assert_eq!(ladder.next(199), Some(200));
    }

    #[test]
    fn margin_is_conservative_and_symmetric() {
        let m = PairedMargin::from_marginals(10.0, 3.0, 7.0, 4.0);
        assert_eq!(m.delta, 3.0);
        assert_eq!(m.ci95, 5.0); // sqrt(9 + 16)
        assert!(m.ci95 >= 4.0, "bound dominates the wider marginal");
        assert!(!m.resolved(), "CI straddles zero");

        let flipped = PairedMargin::from_marginals(7.0, 4.0, 10.0, 3.0);
        assert_eq!(flipped.delta, -m.delta);
        assert_eq!(flipped.ci95, m.ci95);
        assert_eq!(flipped.resolved(), m.resolved());
    }

    #[test]
    fn margin_resolution_thresholds() {
        assert!(PairedMargin {
            delta: 5.1,
            ci95: 5.0
        }
        .resolved());
        assert!(PairedMargin {
            delta: -5.1,
            ci95: 5.0
        }
        .resolved());
        assert!(
            !PairedMargin {
                delta: 5.0,
                ci95: 5.0
            }
            .resolved(),
            "tie on the boundary"
        );
        assert!(
            !PairedMargin {
                delta: 0.0,
                ci95: 0.0
            }
            .resolved(),
            "exact tie stays open"
        );
    }
}
