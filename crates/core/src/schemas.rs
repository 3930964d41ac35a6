//! The schema registry: one constant per JSON document schema.
//!
//! Every document the workspace emits or validates carries a `"schema"`
//! field whose value is one of the identifiers below. They live in one
//! module so a version bump is a single-line diff that the compiler
//! propagates to every producer, validator and test at once — schema
//! strings scattered as literals drift silently (a producer bumps,
//! a validator keeps accepting the old id). The `schema-literal` rule
//! of `suu-lint` enforces the discipline mechanically: any literal of
//! this shape outside this file is a diagnostic.
//!
//! Naming: `<AREA>_<KIND>_V<N>` for `"suu-<area>/<kind>/v<N>"` (the
//! results document, predating per-area namespacing, is plain
//! `"suu-results/v2"`).

/// The shared experiment-results document (`cells` + `paired`,
/// adaptive-precision fields). Producers: `bench_baseline`, the race
/// runner, `suud`, `suu-router`. Validator: `validate_results`.
pub const RESULTS_V2: &str = "suu-results/v2";

/// One cached evaluation cell on disk (an `EvalStats` checkpoint in a
/// content-addressed envelope).
pub const SERVE_CELL_V1: &str = "suu-serve/cell/v1";

/// The canonical key-fields object whose FNV-1a hash addresses a cell.
pub const SERVE_CELLKEY_V1: &str = "suu-serve/cellkey/v1";

/// The persisted LRU recency index (`index.json`) of a cell store.
pub const SERVE_INDEX_V1: &str = "suu-serve/index/v1";

/// `GET /healthz` response body of `suud` and `suu-router`.
pub const SERVE_HEALTH_V1: &str = "suu-serve/health/v1";

/// `GET /v1/stats` counters document (router appends `shards[]` +
/// `router` blocks after the daemon's v1 fields, never reorders them).
pub const SERVE_STATS_V1: &str = "suu-serve/stats/v1";

/// Sharded `suu-loadgen` scaling-sweep document (`BENCH_serve.json`).
pub const SERVE_LOADGEN_V2: &str = "suu-serve/loadgen/v2";

/// Streaming accumulator snapshot (Welford + P² sketches), the inner
/// payload of an evaluation checkpoint.
pub const SIM_ACCUMULATOR_V1: &str = "suu-sim/accumulator/v1";

/// Resumable `EvalStats` checkpoint (accumulator + RNG cursor).
pub const SIM_EVALSTATS_V1: &str = "suu-sim/evalstats/v1";

/// Event-engine vs dense-engine comparison artifact
/// (`BENCH_engine_events.json`).
pub const BENCH_ENGINE_EVENTS_V1: &str = "suu-bench/engine-events/v1";

/// Batched-engine vs per-trial-engine comparison artifact
/// (`BENCH_engine_batch.json`).
pub const BENCH_ENGINE_BATCH_V2: &str = "suu-bench/engine-batch/v2";

/// Machine output of the `suu-lint` static-analysis pass.
pub const LINT_V1: &str = "suu-lint/v1";

/// Adaptive frontier-sweep artifact (`BENCH_sweep.json`): per-cell
/// winners with paired-CRN margins and `cell_key` provenance, plus the
/// winner-region phase diagram. Producer: `suu-sweep`. Validator:
/// `validate_results`.
pub const RESULTS_SWEEP_V1: &str = "suu-results/sweep/v1";

/// Every registered identifier, for exhaustiveness checks.
pub const ALL: &[&str] = &[
    RESULTS_V2,
    RESULTS_SWEEP_V1,
    SERVE_CELL_V1,
    SERVE_CELLKEY_V1,
    SERVE_INDEX_V1,
    SERVE_HEALTH_V1,
    SERVE_STATS_V1,
    SERVE_LOADGEN_V2,
    SIM_ACCUMULATOR_V1,
    SIM_EVALSTATS_V1,
    BENCH_ENGINE_EVENTS_V1,
    BENCH_ENGINE_BATCH_V2,
    LINT_V1,
];

/// `true` iff `s` has the shape of a schema identifier:
/// `suu-<word>(/<word>)*/v<digits>` with lowercase/digit/`-` words.
/// `suu-lint` uses this to flag stray literals; the registry's own test
/// uses it to keep every constant well-formed.
pub fn is_schema_id(s: &str) -> bool {
    let Some(rest) = s.strip_prefix("suu-") else {
        return false;
    };
    let segments: Vec<&str> = rest.split('/').collect();
    if segments.len() < 2 {
        return false;
    }
    let version = segments[segments.len() - 1];
    let Some(digits) = version.strip_prefix('v') else {
        return false;
    };
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return false;
    }
    segments[..segments.len() - 1].iter().all(|seg| {
        !seg.is_empty()
            && seg
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_well_formed_and_duplicate_free() {
        for id in ALL {
            assert!(is_schema_id(id), "malformed schema id {id:?}");
        }
        let mut sorted: Vec<&str> = ALL.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ALL.len(), "duplicate schema id in registry");
    }

    #[test]
    fn shape_matcher_rejects_near_misses() {
        assert!(is_schema_id("suu-results/v2"));
        assert!(is_schema_id("suu-serve/loadgen/v2"));
        assert!(is_schema_id("suu-bench/engine-batch/v2"));
        for bad in [
            "suu-results",     // no version
            "suu-results/v",   // empty digits
            "suu-results/V2",  // uppercase marker
            "suu-/v1",         // empty segment
            "suu-Results/v1",  // uppercase word
            "results/v1",      // missing prefix
            "suu-results/v2 ", // trailing junk
            "xsuu-results/v2", // embedded, not anchored
            "suu-results//v2", // empty middle segment
        ] {
            assert!(!is_schema_id(bad), "{bad:?} should not match");
        }
    }
}
