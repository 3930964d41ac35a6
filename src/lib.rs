//! # suu — Multiprocessor Scheduling Under Uncertainty
//!
//! A from-scratch Rust implementation of
//! *"Improved Approximations for Multiprocessor Scheduling Under
//! Uncertainty"* (Crutchfield, Dzunic, Fineman, Karger, Scott — SPAA
//! 2008), including every substrate the paper's algorithms rest on: an LP
//! solver, network flow, DAG/chain machinery, a discrete-time stochastic
//! execution engine, the prior-art-style baselines, and an exact optimum
//! for tiny instances.
//!
//! ## The problem
//!
//! `n` unit-step jobs, `m` machines, and a probability `q_ij` that job `j`
//! *fails* to complete when machine `i` runs it for one step. Precedence
//! constraints form a DAG; several machines may gang on one job in the
//! same step. Minimize the **expected makespan**.
//!
//! ## Quick start
//!
//! Every schedule — the paper's algorithms, the baselines, the exact
//! optimum — is constructible by name through the policy registry, and the
//! parallel [`sim::Evaluator`] runs seed-deterministic Monte-Carlo trials
//! over it:
//!
//! ```
//! use std::sync::Arc;
//! use suu::core::{workload, Precedence};
//! use suu::sim::{spec_factory, Evaluator, PolicySpec};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! // 16 independent jobs on 4 unreliable machines.
//! let mut rng = SmallRng::seed_from_u64(7);
//! let inst = Arc::new(workload::uniform_unrelated(
//!     4, 16, 0.2, 0.9, Precedence::Independent, &mut rng));
//!
//! // The paper's O(log log min(m,n)) semioblivious schedule, by name.
//! let registry = suu::algos::standard_registry();
//! let spec = PolicySpec::new("suu-i-sem");
//! let make_policy = spec_factory(&registry, &inst, &spec)
//!     .expect("suu-i-sem builds on independent instances");
//! let report = Evaluator::seeded(20, 1).run(&inst, make_policy);
//! assert!(report.all_completed());
//! assert!(report.mean_makespan() >= 1.0);
//! ```
//!
//! Rerunning with the same master seed reproduces the outcome vector
//! bitwise, regardless of how many worker threads the evaluator uses.
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `suu-core` | instances, log-mass, assignments, timetables, workloads, JSON |
//! | [`lp`] | `suu-lp` | two-phase simplex LP solver |
//! | [`flow`] | `suu-flow` | Dinic max-flow, Hopcroft–Karp matching |
//! | [`dag`] | `suu-dag` | chains, forests, rank decomposition, DAG queries |
//! | [`sim`] | `suu-sim` | execution engine (SUU & SUU* semantics), the policy registry ([`sim::PolicyRegistry`]), the parallel seed-deterministic [`sim::Evaluator`] |
//! | [`algos`] | `suu-algos` | `SUU-I-OBL`, `SUU-I-SEM`, `SUU-C`, `SUU-T`, baselines, exact OPT, bounds, and [`algos::standard_registry`] |
//! | [`stoch`] | `suu-stoch` | Appendix C: Lawler–Labetoulle, `STC-I` |
//! | [`bench`] | `suu-bench` | scenario suite, `suu-results/v2` JSON schema, race runner, request wire form, experiment binaries |
//! | [`serve`] | `suu-serve` | the `suud` evaluation daemon: HTTP/1.1 JSON API over a content-addressed, resumable result cache |
//!
//! The evaluation pipeline is layered: a
//! [`sim::PolicySpec`] names a schedule; the registry builds it (with
//! typed structure-class capability checks); the [`sim::Evaluator`] fans
//! trials across threads with per-trial RNG streams derived from one
//! master seed; [`bench::scenario::ScenarioSuite`] ×
//! [`bench::runner::Race`] sweep policies over workload families and emit
//! the shared JSON results schema ([`bench::report`]).

pub use suu_algos as algos;
pub use suu_bench as bench;
pub use suu_core as core;
pub use suu_dag as dag;
pub use suu_flow as flow;
pub use suu_lp as lp;
pub use suu_serve as serve;
pub use suu_sim as sim;
pub use suu_stoch as stoch;
