//! # suu-algos — the SPAA'08 approximation algorithms for SUU
//!
//! This crate implements the paper's contribution
//! (Crutchfield, Dzunic, Fineman, Karger, Scott: *Improved Approximations
//! for Multiprocessor Scheduling Under Uncertainty*, SPAA 2008), on top of
//! the `suu-lp` / `suu-flow` / `suu-dag` / `suu-sim` substrates:
//!
//! | Paper artifact | Module |
//! |---|---|
//! | (LP1) relaxation, §3, and (LP2), §4, built by one function into one [`lp::LpSolution`] | [`lp`] |
//! | Lemma 2 rounding (grouping + integral flow) and Lemma 6 (length caps from (LP2)'s `d*`): one entry, [`rounding::round_lp`] | [`rounding`] |
//! | `SUU-I-OBL`, the oblivious `O(log n)` schedule (Theorem 3) | [`suu_i_obl`] |
//! | `SUU-I-SEM`, the semioblivious `O(log log min(m,n))` schedule (Theorem 4) | [`suu_i_sem`] |
//! | `SUU-C` for disjoint chains (Theorems 7 & 9: random delays, flattening, long-job segments) | [`suu_c`] |
//! | `SUU-T` for directed forests (Theorem 12, via rank decomposition) | [`suu_t`] |
//! | Baselines incl. the prior-art-style greedy and the `O(n)` sequential fallback | [`baselines`] |
//! | Exact `E[T_OPT]` for tiny instances (MDP subset DP), and the exact value of a stationary policy through the same Bellman step | [`opt`] |
//! | LP-based lower bounds (Lemma 1 / Lemma 5 style) | [`bounds`] |
//!
//! All schedule implementations are [`suu_sim::Policy`]s, so a single
//! engine executes and compares everything — and all of them (plus the
//! executable exact optimum, [`OptPolicy`]) are registered by name into
//! the unified policy registry via [`registry::standard_registry`], which
//! is how the scenario suite, the experiment binaries and the examples
//! construct schedules.

pub mod baselines;
pub mod bounds;
mod error;
pub mod lp;
pub mod opt;
pub mod registry;
pub mod rounding;
pub mod suu_c;
pub mod suu_i_obl;
pub mod suu_i_sem;
pub mod suu_t;

pub use error::AlgoError;
pub use opt::OptPolicy;
pub use registry::{register_standard, standard_registry};
pub use suu_c::{ChainConfig, ChainPolicy};
pub use suu_i_obl::OblPolicy;
pub use suu_i_sem::SemPolicy;
pub use suu_t::ForestPolicy;

#[cfg(test)]
mod lp1;
#[cfg(test)]
mod lp2;
#[cfg(test)]
mod tests;
