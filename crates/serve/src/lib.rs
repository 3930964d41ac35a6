//! # suu-serve — the evaluation service daemon (`suud`)
//!
//! The workspace's Monte-Carlo evaluations are deterministic, resumable
//! and content-addressable — properties PR 1–4 built into the evaluator
//! ([`suu_sim::Evaluator`]) and its snapshot machinery
//! ([`suu_sim::EvalStats::to_json`]). This crate puts a long-running
//! service in front of them: a hand-rolled HTTP/1.1 JSON API
//! ([`http`]) behind an epoll readiness loop ([`server`], built on the
//! workspace `mio` shim), serving race evaluations from a
//! **content-addressed, resumable result cache** ([`cache`]).
//!
//! The front end is a single nonblocking event-loop thread that owns
//! every connection: keep-alive by default, pipelined requests answered
//! strictly in order, compute handed to a worker pool through a
//! **bounded queue** (overflow → immediate `429` + `Retry-After`), idle
//! connections reaped on a deadline, and an optional LRU **cache size
//! budget**. Recency lives in memory, so a hit writes nothing; it is
//! persisted in `index.json` on every store and when the store drops.
//!
//! * `POST /v1/race` — a [`suu_bench::request::RaceRequest`] (scenarios
//!   by family + normalized parameters, policy specs, a stopping rule).
//!   Every `(scenario, policy)` cell is addressed by the FNV-1a hash of
//!   its canonical identity JSON; cached cells replay byte-identically,
//!   tighter-precision requests **extend** the cached cell (`n → n+k`,
//!   bitwise a cold `n+k` run), and concurrent identical requests
//!   coalesce onto one computation. Responses are `suu-results/v2`
//!   documents; cache status rides in `X-Suu-Cache*` headers so the
//!   body stays replay-deterministic.
//! * `GET /v1/cell/{key}` — the raw cached checkpoint
//!   (`suu-serve/cell/v1`: key provenance + the
//!   `suu-sim/evalstats/v1` accumulator snapshot).
//! * `GET /v1/healthz`, `GET /v1/stats` — liveness, cache counters
//!   (hits / misses / extends / coalesced / inflight / cells on disk)
//!   and serving counters (evictions / cache_bytes / queue_depth /
//!   rejected_429).
//!
//! The service also **shards across processes** ([`router`]): because
//! every cell is content-addressed by a uniform 64-bit key, the cache
//! partitions exactly into N contiguous key ranges, each owned by one
//! daemon. The `suu-router` binary supervises a `--shards N` fleet of
//! `suud` backends (ephemeral ports, health probes, restart-on-crash
//! with bounded backoff), scatters each race into per-cell sub-requests
//! pipelined over persistent upstream connections ([`client`]), and
//! reassembles the response **byte-identically** to a single-daemon
//! run, with provenance checked in-binary.
//!
//! The `suud` binary serves the API (`--addr`, `--workers`,
//! `--queue-depth`, `--idle-timeout-ms`, `--max-cache-bytes`,
//! `--cache-dir`), or evaluates one request from a file in `--oneshot`
//! mode (used by CI to gate daemon-produced documents without holding a
//! port open). See the README's "Serving evaluations" section for curl
//! examples and the cache-key derivation.

/// EPIPE-tolerant stderr line: a supervisor (the router, a harness, a
/// shell pipeline) that closed our stderr must not kill the process
/// mid-serve (Rust maps SIGPIPE to write errors; a bare `eprintln!`
/// panics on them). Every serve-tier binary logs through this — the
/// `serve-print` rule of `suu-lint` enforces it.
#[macro_export]
macro_rules! elog {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stderr(), $($arg)*);
    }};
}

/// Recover a guard from a poisoned lock. Serving state guarded this way
/// stays consistent across a panic (every critical section is a single
/// insert/remove/push/take), and the serving tier must keep answering —
/// and its drop guards must keep releasing — after one worker panicked;
/// propagating poison would wedge every future request instead.
pub(crate) fn unpoisoned<T>(result: Result<T, std::sync::PoisonError<T>>) -> T {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub mod cache;
pub mod client;
pub mod http;
pub mod router;
pub mod server;
pub mod service;

pub use cache::{cell_key_fields, CellKey, CellStore, CELL_KEY_SCHEMA, CELL_SCHEMA};
pub use client::{Client, Reply};
pub use http::{Handler, Request, Response};
pub use router::{owner_of, shard_ranges, Fleet, FleetConfig, KeyRange, Router};
pub use server::{serve_with, ServerConfig, ServerHandle, ServerMetrics};
pub use service::{CacheCounts, CacheStatus, ServeError, Service};
