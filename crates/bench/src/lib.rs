//! # suu-bench — experiment harness
//!
//! Shared plumbing for the experiment binaries that regenerate the paper's
//! evaluation artifacts. The table below is the experiment index; the
//! README's "Experiments" section shows how to run them:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1_independent` | Table 1, "Independent" row |
//! | `table1_chains` | Table 1, "Disjoint Chains" row |
//! | `table1_forests` | Table 1, "Directed Forests" row |
//! | `fig_opt_small` | §2 α-approximation vs exact optimum |
//! | `fig_rounds` | Theorem 4 round counts |
//! | `fig_lp_quality` | Lemmas 2 & 6 rounding guarantees |
//! | `fig_congestion` | Theorem 7 random-delay congestion |
//! | `fig_concentration` | Lemma 8 tail bound |
//! | `fig_equivalence` | Theorem 10 SUU ≡ SUU* |
//! | `fig_stoch` | Appendix C, Theorem 13 |
//! | `fig_restart` | Appendix C "other results" (`R|restart|`) |
//! | `ablation_rounding` | adaptive vs paper-exact rounding scale |
//! | `bench_baseline` | standard-suite perf/quality baseline (`BENCH_baseline.json`) |
//!
//! The Monte-Carlo experiment path is layered:
//!
//! * [`scenario`] — named, seeded workload recipes and the standard
//!   nine-family [`scenario::ScenarioSuite`];
//! * [`runner`] — the [`runner::Race`] declaration and its one evaluation
//!   path (registry build → capability gate → parallel
//!   [`suu_sim::Evaluator`] → table + JSON);
//! * [`report`] — the shared `suu-results/v2` JSON schema every binary
//!   and example emits;
//! * [`request`] — the wire form of a race (scenarios by family +
//!   normalized constructor parameters): the `suu-serve` daemon's
//!   request schema, kept here so the daemon is a *library consumer* of
//!   the same scenario/runner/report stack the experiment binaries use;
//! * [`sweep`] — the adaptive frontier sweep: a declarative
//!   family × m × n × q grid refined until policy rankings resolve,
//!   emitting the `suu-results/sweep/v1` phase-diagram artifact (driven
//!   by the `suu-sweep` binary in `suu-serve`, which supplies the cache
//!   layer underneath).

pub mod report;
pub mod request;
pub mod runner;
pub mod scenario;
pub mod sweep;

/// Print a header row followed by a separator sized to the given widths.
pub fn print_header(cols: &[(&str, usize)]) {
    let mut line = String::new();
    for (name, w) in cols {
        line.push_str(&format!("{name:>w$} ", w = w));
    }
    println!("{line}");
    println!("{:-<width$}", "", width = line.len());
}
