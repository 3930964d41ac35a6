//! # suu-sim — event-driven execution core for SUU schedules
//!
//! The paper's platform — a set of machines that succeed or fail
//! probabilistically each unit step — is exactly a discrete-time stochastic
//! simulator, and this crate is that simulator. It executes any
//! [`Policy`] (a schedule in the paper's sense: a function from history and
//! time to a machine→job assignment) against a
//! [`suu_core::SuuInstance`] under either problem semantics:
//!
//! * [`Semantics::Suu`] — the original formulation: each step, job `j`
//!   survives with probability `∏_{i∈M_j,t} q_ij` (independent coin per
//!   step).
//! * [`Semantics::SuuStar`] — the Appendix A reformulation via the
//!   Principle of Deferred Decisions: a single hidden uniform draw `r_j`
//!   per job; `j` completes once its accrued log mass reaches
//!   `−log₂ r_j`.
//!
//! Theorem 10 of the paper proves the two induce identical history
//! distributions; our integration tests verify this empirically with a
//! chi-square test (see `fig_equivalence` in the bench crate).
//!
//! Since the paper's schedules may only observe *completions*, execution
//! is organized around **decision epochs**: policies are consulted via
//! [`Policy::decide`] only when the eligible set changes or at a wake-up
//! they declared, and the event engine ([`execute`], the one production
//! engine) jumps straight from event to event — `O(#completions · m)`
//! instead of `O(makespan · m)`. The dense per-step loop survives as the
//! test oracle [`engine::dense::execute_dense`], which must (and does,
//! bitwise) agree with the fast path. See [`engine`] for the
//! fast-forwarding math.
//!
//! Around the engine sit the two pieces every experiment is built from:
//!
//! * [`registry`] — the unified policy registry: schedules are named by a
//!   [`PolicySpec`] and built by [`PolicyFactory`]s with typed
//!   [`StructureClass`] capability declarations (independent ⊂ chains ⊂
//!   forest ⊂ DAG), so any policy can be constructed by name on any
//!   instance it supports.
//! * [`evaluate`] — the parallel, seed-deterministic [`Evaluator`]:
//!   trials fan out across worker threads with per-trial RNG streams
//!   derived from one master seed (engine and policy randomness in
//!   separate domains), producing bitwise-identical outcomes at any
//!   thread count. Every path but the per-trial [`Evaluator::run_serial`]
//!   reference runs trials through the **batched SoA engine**
//!   ([`engine::batch`]) — stationary policies share one `decide` per
//!   distinct remaining set across a whole batch — and
//!   [`Evaluator::run_stats`] folds them into the streaming [`stats`]
//!   layer (Welford moments + P² quantile sketches with an exact
//!   small-sample fallback), so evaluation memory is independent of the
//!   trial count. Cells are **resumable** and grow **adaptively**
//!   ([`Evaluator::resume_adaptive`]: growing `n → n+k` is bitwise a
//!   fresh `n+k` run; a [`Precision`] rule stops growth on Student-t
//!   confidence intervals); [`Evaluator::run_paired`] compares two
//!   policies per trial on common random numbers so the variance of the
//!   difference drives the comparison budget.

pub mod engine;
pub mod evaluate;
pub mod policy;
pub mod registry;
pub mod stats;
pub mod sweep;

pub use engine::batch::{BatchMetrics, BatchRunner, BatchTrial};
pub use engine::{execute, ExecConfig, ExecOutcome, Semantics};
pub use evaluate::{
    derive_seed, spec_factory, AdaptiveStats, EvalConfig, EvalReport, EvalStats, Evaluator,
    PairedStats,
};
pub use policy::{Assignment, Decision, Policy, StateView};
pub use registry::{
    factory, PolicyFactory, PolicyRegistry, PolicySpec, RegistryError, StructureClass,
};
pub use stats::{
    student_t_quantile, summarize, t_ci95_scale, OutcomeAccumulator, P2Quantile, PairedDelta,
    Precision, StopReason, Streaming, Summary,
};
pub use sweep::{BudgetLadder, PairedMargin};

#[cfg(test)]
mod tests;
