//! # suu-core — the SUU problem model
//!
//! Core vocabulary for *multiprocessor scheduling under uncertainty*
//! (Crutchfield, Dzunic, Fineman, Karger, Scott — SPAA 2008):
//!
//! * [`SuuInstance`] — `n` unit-step jobs, `m` machines, failure
//!   probabilities `q_ij`, and a precedence structure.
//! * [`logmass`] — the paper's log-failure transform `ℓ_ij = −log₂ q_ij`,
//!   under which per-step failure probabilities multiply as masses add.
//! * [`Precedence`] + [`EligibilityTopology`] / [`EligibilityState`] —
//!   which jobs may run, updated as jobs complete (one shared topology per
//!   instance, one state per trial).
//! * [`Assignment`] — integral machine-step assignments `{x_ij}` (the
//!   output shape of the paper's LP roundings) with their *load*, *length*
//!   (`d_j`) and per-job *log mass*.
//! * [`exec::Assignment`] — one instantaneous machine→job row, the
//!   caller-owned scratch buffer the execution engine's `Policy::decide`
//!   writes into (distinct from the LP assignment above).
//! * [`Timetable`] — finite oblivious schedules: an explicit
//!   machine-per-step job table, built from an [`Assignment`] by stacking.
//! * [`workload`] — seeded random instance generators (uniform unrelated
//!   machines, reliability×difficulty products, bimodal volunteer grids,
//!   power-law difficulties).
//! * [`BitSet`] — a small fixed-capacity bitset used for remaining/eligible
//!   job sets in simulation hot loops.
//! * [`schemas`] — the registry of JSON document schema identifiers:
//!   every `"schema"` field in the workspace cites one of its constants
//!   (enforced by the `suu-lint` `schema-literal` rule).
//! * [`json`] — dependency-free JSON values, writer and parser: the
//!   substrate of the experiment pipeline's shared results schema and the
//!   instance wire form ([`SuuInstance::to_json`]). Its canonical
//!   sorted-key form ([`json::Json::to_canonical`]) plus [`fnv1a`] (the
//!   [`hash`] module) yield the stable content addresses the `suu-serve`
//!   daemon keys its result cache by.
//!
//! Everything is deterministic given the generator seeds, which keeps
//! experiments reproducible.

mod assignment;
mod bitset;
pub mod exec;
pub mod hash;
mod ids;
mod instance;
pub mod json;
pub mod logmass;
mod precedence;
pub mod profile;
#[cfg(test)]
mod proptests;
mod schedule;
pub mod schemas;
mod wordmap;
pub mod workload;

pub use assignment::Assignment;
pub use bitset::BitSet;
pub use hash::{fnv1a, fnv1a_hex, fnv1a_u64s, is_fnv1a_hex};
pub use ids::{JobId, MachineId};
pub use instance::{InstanceError, SuuInstance};
pub use precedence::{EligibilityState, EligibilityTopology, Precedence};
pub use schedule::Timetable;
pub use wordmap::WordMap;
