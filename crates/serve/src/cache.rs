//! The content-addressed, resumable result cache.
//!
//! A **cell** is one `(scenario, policy, master seed, semantics, step
//! cap)` evaluation. Its identity is the canonical JSON of those fields
//! ([`cell_key_fields`]) — note what is *excluded*: thread count, batch
//! size, the stopping rule and a request's retired `engine` field, none
//! of which affect results (threads/batch by the evaluator's determinism
//! contract, the stopping rule because it only decides *how far* to grow
//! the cell, never what any trial contains, and `engine` because it
//! selects nothing). The FNV-1a hash of the canonical bytes
//! ([`CellKey::hex`]) is the cell's file name and its `GET
//! /v1/cell/{key}` address.
//!
//! Each cache file stores an [`EvalStats`] checkpoint
//! (`suu-sim/evalstats/v1`) wrapped in a [`CELL_SCHEMA`] envelope. A
//! cell is recomputed only when damaged: a request the cached trial
//! count already satisfies replays it byte-identically and writes
//! nothing, and a request for more precision *extends* it via the
//! evaluator's resume path — bitwise what a cold run at the final trial
//! count would produce. The envelope may also carry `lower_bound`, the
//! scenario's LP lower bound (`suu_algos::bounds::lower_bound`, written
//! shortest-round-trip, so it reads back as the same f64): a request for
//! ratios records it in each cell it computes or extends, and an extend
//! keeps a bound the cell already carries.
//!
//! Writes go through a temp file + atomic rename, so a crashed daemon
//! leaves either the old or the new checkpoint, never a torn one. A cell
//! file that cannot be used anyway (torn by a crash the rename did not
//! cover, hand-edited, of another schema) is a [`CellFault::Damaged`]:
//! the service recomputes the cell, whose store replaces the file, and
//! counts it as `corrupt_recovered`. Only a file holding *another* key's
//! cell ([`CellFault::Collision`]) stays an error.
//! In-process, `InflightTable` serializes work per key: concurrent
//! identical requests coalesce onto one computation and the latecomer
//! reads the winner's checkpoint from disk.
//!
//! ## Size budget and LRU eviction
//!
//! A store opened with [`CellStore::open_with_budget`] keeps total cell
//! bytes under the budget: every `store` that would exceed it evicts
//! least-recently-*used* cells first (loads count as use, not just
//! writes). Recency is a stamp per cell in memory, so a hit costs one
//! file read and writes nothing. It survives restarts through
//! `index.json`, an [`INDEX_SCHEMA`] document rewritten atomically (temp
//! file + rename) when a store or an eviction changes the cells and
//! when the store is dropped. A crash therefore loses at most the
//! recency of the hits since the last store, never a cell and never the
//! index itself. The same mirror holds each cell's size, so
//! [`CellStore::cache_bytes`] and [`CellStore::cells_on_disk`] (what
//! `GET /v1/stats` reports) never read the directory after open. Cells
//! whose key is currently in flight are never evicted (a resume in
//! progress must find its checkpoint), and the cell just written is
//! always kept even when it alone exceeds the budget — a budget too
//! small for one cell degrades to "cache of one", not a failure.

use crate::router::key_from_hex;
use crate::unpoisoned;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use suu_bench::request::{RaceRequest, RequestScenario};
use suu_core::json::Json;
use suu_core::{fnv1a_hex, is_fnv1a_hex};
use suu_sim::EvalStats;

/// Schema stamped on every cache file.
pub const CELL_SCHEMA: &str = suu_core::schemas::SERVE_CELL_V1;
/// Schema of the key-fields object that gets hashed.
pub const CELL_KEY_SCHEMA: &str = suu_core::schemas::SERVE_CELLKEY_V1;
/// Schema of the persisted LRU recency index (`index.json`).
pub const INDEX_SCHEMA: &str = suu_core::schemas::SERVE_INDEX_V1;

/// The canonical identity of a cell, pre-hash. `scenario_params` must be
/// the *normalized* parameter object from
/// [`suu_bench::request::RequestScenario`] so spelling variants
/// collapse; `master_seed` is the race master (the per-scenario
/// evaluation seed derives from it deterministically, so hashing either
/// is equivalent — the race master keeps the key auditable).
pub fn cell_key_fields(
    scenario_params: &Json,
    policy: &str,
    master_seed: u64,
    semantics: &str,
    max_steps: u64,
) -> Json {
    Json::obj()
        .field("schema", CELL_KEY_SCHEMA)
        .field("scenario", scenario_params.clone())
        .field("policy", policy)
        .field("master_seed", master_seed)
        .field("semantics", semantics)
        .field("max_steps", max_steps)
}

/// A computed cell address: the canonical bytes and their hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellKey {
    /// Canonical JSON the hash covers (stored in the cache file for
    /// auditability and collision detection).
    pub canonical: String,
    /// 16-hex-char FNV-1a content address.
    pub hex: String,
}

impl CellKey {
    /// Address a cell.
    pub fn new(fields: &Json) -> CellKey {
        let canonical = fields.to_canonical();
        let hex = fnv1a_hex(canonical.as_bytes());
        CellKey { canonical, hex }
    }

    /// The address of `race`'s cell for one of its scenarios and one of
    /// its policies: what a daemon caches the cell under, and what the
    /// router routes it by.
    pub fn of(race: &RaceRequest, scenario: &RequestScenario, policy: &str) -> CellKey {
        CellKey::new(&cell_key_fields(
            &scenario.params,
            policy,
            race.master_seed,
            race.exec.semantics.as_str(),
            race.exec.max_steps,
        ))
    }
}

/// A loaded cache entry.
#[derive(Debug)]
pub struct CachedCell {
    /// The restored, resumable statistics.
    pub stats: EvalStats,
    /// Stop reason recorded when the cell last grew.
    pub stop_reason: String,
    /// The scenario's LP lower bound, when a request for ratios
    /// computed or extended the cell.
    pub lower_bound: Option<f64>,
}

/// Why a cell file that exists could not be loaded. Messages name the
/// cell key, never the path: they reach clients in 500 bodies, and the
/// cache root is the host's business.
#[derive(Debug)]
pub enum CellFault {
    /// The file holds another key's cell (an FNV-1a collision): a real
    /// conflict, never overwritten.
    Collision(String),
    /// Unreadable, unparsable, of another schema or missing a field: a
    /// cell is a pure function of its key, so recomputing repairs it.
    Damaged(String),
}

impl std::fmt::Display for CellFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellFault::Collision(e) | CellFault::Damaged(e) => f.write_str(e),
        }
    }
}

/// The on-disk store plus its counters.
pub struct CellStore {
    dir: PathBuf,
    /// Cells served entirely from disk.
    pub hits: AtomicU64,
    /// Cells computed from scratch.
    pub misses: AtomicU64,
    /// Cells resumed to a higher trial count.
    pub extends: AtomicU64,
    /// Requests that waited for an identical in-flight computation.
    pub coalesced: AtomicU64,
    /// Cells deleted to stay under the size budget.
    pub evictions: AtomicU64,
    /// Damaged cells recomputed in place of a load.
    pub corrupt_recovered: AtomicU64,
    inflight: InflightTable,
    /// Total-cell-bytes ceiling (`None` = unbounded).
    budget: Option<u64>,
    lru: Mutex<LruState>,
}

/// In-memory mirror of cell sizes and recency, keyed by each cell's
/// 64-bit content address. Every use takes the next stamp, so `order`
/// runs least- to most-recently used; `index.json` persists that order.
#[derive(Debug, Default)]
struct LruState {
    /// Address → (file size in bytes, stamp of the last use).
    cells: BTreeMap<u64, (u64, u64)>,
    /// Stamp → address.
    order: BTreeMap<u64, u64>,
    /// Sum of the sizes in `cells`.
    total_bytes: u64,
    next_stamp: u64,
    /// Hits moved recency since `index.json` was last written.
    dirty: bool,
}

impl LruState {
    /// Move (or insert) `addr`, now `size` bytes on disk, to the
    /// most-recently-used end.
    fn touch(&mut self, addr: u64, size: u64) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if let Some((old_size, old_stamp)) = self.cells.insert(addr, (size, stamp)) {
            self.order.remove(&old_stamp);
            self.total_bytes -= old_size;
        }
        self.order.insert(stamp, addr);
        self.total_bytes += size;
    }

    fn forget(&mut self, addr: u64) {
        if let Some((size, stamp)) = self.cells.remove(&addr) {
            self.order.remove(&stamp);
            self.total_bytes -= size;
        }
    }

    /// Rewrite `dir/index.json` (temp + rename) from the current order.
    /// Best-effort: recency is an optimization, losing it must never
    /// fail a request.
    fn persist(&mut self, dir: &Path) {
        let doc = Json::obj().field("schema", INDEX_SCHEMA).field(
            "order",
            Json::Arr(
                self.order
                    .values()
                    .map(|addr| Json::Str(format!("{addr:016x}")))
                    .collect(),
            ),
        );
        let tmp = dir.join(format!("index.tmp.{}", std::process::id()));
        if std::fs::write(&tmp, doc.to_pretty()).is_ok()
            && std::fs::rename(&tmp, dir.join("index.json")).is_ok()
        {
            self.dirty = false;
        }
    }
}

impl CellStore {
    /// Open (creating the directory if needed) with no size budget.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<CellStore> {
        CellStore::open_with_budget(dir, None)
    }

    /// Open with an optional total-cell-bytes budget. Recency is seeded
    /// from `index.json` when present (keys no longer on disk are
    /// dropped; cells the index missed count as least recently used).
    pub fn open_with_budget(
        dir: impl Into<PathBuf>,
        budget: Option<u64>,
    ) -> std::io::Result<CellStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let lru = load_lru(&dir);
        Ok(CellStore {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            extends: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corrupt_recovered: AtomicU64::new(0),
            inflight: InflightTable::new(),
            budget,
            lru: Mutex::new(lru),
        })
    }

    /// Directory backing the store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total bytes of cached cells (from the in-memory size mirror).
    pub fn cache_bytes(&self) -> u64 {
        self.lru_lock().total_bytes
    }

    /// Cells on disk, from the in-memory size mirror that
    /// [`CellStore::cache_bytes`] also reads: the cells found at open,
    /// kept current by this store's stores, loads and evictions.
    /// `index.json` and temp files don't count — only valid content
    /// addresses. A cell another process writes after open counts once
    /// this store loads it.
    pub fn cells_on_disk(&self) -> usize {
        self.lru_lock().cells.len()
    }

    /// The LRU mirror, recovered from poison: a panic elsewhere while
    /// holding the lock leaves at worst stale recency, which the next
    /// touch repairs — recency is an optimization, never worth wedging
    /// the store over.
    fn lru_lock(&self) -> std::sync::MutexGuard<'_, LruState> {
        unpoisoned(self.lru.lock())
    }

    /// Record a use of `hex`, just read at `size` bytes (cache hit /
    /// extend base). Writes nothing: `index.json` catches up at the next
    /// store or when the store is dropped. The size is taken from the
    /// read, so a cell another process wrote after open is counted too.
    fn lru_touch(&self, hex: &str, size: u64) {
        if let Some(addr) = key_from_hex(hex) {
            let mut lru = self.lru_lock();
            lru.touch(addr, size);
            lru.dirty = true;
        }
    }

    /// Record a write of `hex` at `size` bytes, then evict LRU-first
    /// until the budget holds. In-flight keys and the cell just written
    /// are exempt.
    fn lru_record(&self, hex: &str, size: u64) {
        let mut lru = self.lru_lock();
        let written = key_from_hex(hex);
        if let Some(addr) = written {
            lru.touch(addr, size);
        }
        if let Some(budget) = self.budget {
            // Stamps below `next` have been considered and kept.
            let mut next = 0;
            while lru.total_bytes > budget {
                let Some((&stamp, &victim)) = lru.order.range(next..).next() else {
                    break;
                };
                next = stamp + 1;
                let victim_hex = format!("{victim:016x}");
                if written == Some(victim) || self.inflight.contains(&victim_hex) {
                    continue; // exempt; try the next-least-recent
                }
                // Remove the file first: an eviction that fails to
                // delete must not be forgotten by the index.
                match std::fs::remove_file(self.path_for(&victim_hex)) {
                    Ok(()) => {
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    // Already gone (external cleanup): reconcile the
                    // index, but it wasn't our eviction.
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(_) => continue,
                }
                lru.forget(victim);
            }
        }
        lru.persist(&self.dir);
    }

    fn path_for(&self, hex: &str) -> PathBuf {
        self.dir.join(format!("{hex}.json"))
    }

    /// Raw cache document for `GET /v1/cell/{key}` (None when absent or
    /// the key is malformed).
    pub fn raw(&self, hex: &str) -> Option<String> {
        if !is_fnv1a_hex(hex) {
            return None;
        }
        std::fs::read_to_string(self.path_for(hex)).ok()
    }

    /// Load a cell if cached. A file that exists but fails validation
    /// is reported as an error naming the cell — [`CellStore::fetch`]
    /// tells a collision from damage.
    pub fn load(&self, key: &CellKey) -> Result<Option<CachedCell>, String> {
        self.fetch(key).map_err(|fault| fault.to_string())
    }

    /// Load a cell if cached, classifying a file that exists but fails
    /// validation (truncation, schema drift, key collision).
    pub fn fetch(&self, key: &CellKey) -> Result<Option<CachedCell>, CellFault> {
        use CellFault::{Collision, Damaged};
        let hex = &key.hex;
        let text = match std::fs::read_to_string(self.path_for(hex)) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(Damaged(format!("cache read cell {hex}: {e}"))),
        };
        let doc = suu_core::json::parse(&text)
            .map_err(|e| Damaged(format!("cache parse cell {hex}: {e}")))?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(CELL_SCHEMA) => {}
            other => return Err(Damaged(format!("cache cell {hex}: bad schema {other:?}"))),
        }
        // Detect FNV collisions / foreign files: the stored canonical key
        // must be exactly ours.
        match doc.get("cell_key_canonical").and_then(Json::as_str) {
            Some(canonical) if canonical == key.canonical => {}
            Some(_) => {
                return Err(Collision(format!(
                    "cache cell {hex}: content-address collision (stored key differs)"
                )))
            }
            None => return Err(Damaged(format!("cache cell {hex}: missing canonical key"))),
        }
        let stop_reason = doc
            .get("stop_reason")
            .and_then(Json::as_str)
            .ok_or_else(|| Damaged(format!("cache cell {hex}: missing stop_reason")))?
            .to_string();
        let checkpoint = doc
            .get("checkpoint")
            .ok_or_else(|| Damaged(format!("cache cell {hex}: missing checkpoint")))?;
        let stats = EvalStats::from_json(checkpoint)
            .map_err(|e| Damaged(format!("cache cell {hex}: {e}")))?;
        let lower_bound = doc.get("lower_bound").and_then(Json::as_f64);
        // A read is a use: hits must refresh recency or a hot cell gets
        // evicted under write pressure.
        self.lru_touch(hex, u64::try_from(text.len()).unwrap_or(u64::MAX));
        Ok(Some(CachedCell {
            stats,
            stop_reason,
            lower_bound,
        }))
    }

    /// Persist a cell checkpoint without a lower bound; see
    /// [`CellStore::store_with_bound`].
    pub fn store(
        &self,
        key: &CellKey,
        policy: &str,
        stats: &EvalStats,
        stop_reason: &str,
    ) -> Result<(), String> {
        self.store_with_bound(key, policy, stats, stop_reason, None)
    }

    /// Persist a cell checkpoint (temp file + rename, atomic on POSIX),
    /// with the scenario's LP lower bound when one is given. Errors name
    /// the cell key, not the path, as in [`CellStore::load`].
    pub fn store_with_bound(
        &self,
        key: &CellKey,
        policy: &str,
        stats: &EvalStats,
        stop_reason: &str,
        lower_bound: Option<f64>,
    ) -> Result<(), String> {
        let mut doc = Json::obj()
            .field("schema", CELL_SCHEMA)
            .field("cell_key", key.hex.as_str())
            .field("cell_key_canonical", key.canonical.as_str())
            .field("policy", policy)
            .field("stop_reason", stop_reason);
        if let Some(lb) = lower_bound {
            doc = doc.field("lower_bound", lb);
        }
        let doc = doc.field("checkpoint", stats.to_json());
        let hex = &key.hex;
        let path = self.path_for(hex);
        let tmp = self.dir.join(format!("{hex}.tmp.{}", std::process::id()));
        let bytes = doc.to_pretty();
        let size = u64::try_from(bytes.len()).unwrap_or(u64::MAX);
        std::fs::write(&tmp, bytes).map_err(|e| format!("cache write cell {hex}: {e}"))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("cache rename cell {hex}: {e}"))?;
        self.lru_record(hex, size);
        Ok(())
    }

    /// Run `work` while holding the per-key in-flight guard: concurrent
    /// callers with the same key run strictly one at a time (the
    /// `coalesced` counter records each wait). The caller re-checks the
    /// store once inside, so a latecomer finds the winner's checkpoint.
    /// The key is released through a drop guard, so a panicking `work`
    /// (poisoned checkpoint, evaluator bug) unwinds without wedging
    /// every future request for the cell.
    pub fn with_inflight<T>(&self, key: &CellKey, work: impl FnOnce() -> T) -> T {
        struct Released<'a> {
            table: &'a InflightTable,
            key: &'a str,
        }
        impl Drop for Released<'_> {
            fn drop(&mut self) {
                self.table.release(self.key);
            }
        }
        if self.inflight.acquire(&key.hex) {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
        }
        let _guard = Released {
            table: &self.inflight,
            key: &key.hex,
        };
        work()
    }

    /// Keys currently being computed.
    pub fn inflight_count(&self) -> usize {
        self.inflight.len()
    }
}

impl Drop for CellStore {
    /// Persist the recency hits moved since the last store, so a clean
    /// exit (a one-shot run, an in-process sweep) keeps it.
    fn drop(&mut self) {
        let lru = unpoisoned(self.lru.get_mut());
        if lru.dirty {
            lru.persist(&self.dir);
        }
    }
}

/// Per-key mutual exclusion with a single mutex + condvar (the key set
/// is small: one entry per concurrently-computing cell).
struct InflightTable {
    keys: Mutex<BTreeSet<String>>,
    freed: Condvar,
}

impl InflightTable {
    fn new() -> InflightTable {
        InflightTable {
            keys: Mutex::new(BTreeSet::new()),
            freed: Condvar::new(),
        }
    }

    /// Block until the key is free, then claim it. Returns `true` when
    /// the caller had to wait (i.e. it coalesced behind another request).
    fn acquire(&self, key: &str) -> bool {
        let mut keys = unpoisoned(self.keys.lock());
        let mut waited = false;
        while keys.contains(key) {
            waited = true;
            keys = unpoisoned(self.freed.wait(keys));
        }
        keys.insert(key.to_string());
        waited
    }

    fn release(&self, key: &str) {
        let mut keys = unpoisoned(self.keys.lock());
        keys.remove(key);
        drop(keys);
        self.freed.notify_all();
    }

    fn len(&self) -> usize {
        unpoisoned(self.keys.lock()).len()
    }

    fn contains(&self, key: &str) -> bool {
        unpoisoned(self.keys.lock()).contains(key)
    }
}

/// Seed the LRU mirror: sizes from a directory scan (the disk is the
/// authority), recency from `index.json` where it has an opinion.
/// Unindexed cells sort first (least recent) by key for determinism;
/// indexed keys not on disk, malformed keys and repeats are ignored.
fn load_lru(dir: &Path) -> LruState {
    let mut sizes = BTreeMap::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.filter_map(|e| e.ok()) {
            let path = entry.path();
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            if path.extension().is_some_and(|x| x == "json") {
                if let (Some(addr), Ok(meta)) = (key_from_hex(stem), entry.metadata()) {
                    sizes.insert(addr, meta.len());
                }
            }
        }
    }
    let index = std::fs::read_to_string(dir.join("index.json"))
        .ok()
        .and_then(|text| suu_core::json::parse(&text).ok())
        .filter(|doc| doc.get("schema").and_then(Json::as_str) == Some(INDEX_SCHEMA));
    let mut seen = BTreeSet::new();
    let indexed: Vec<(u64, u64)> = index
        .as_ref()
        .and_then(|doc| doc.get("order").and_then(Json::as_array))
        .into_iter()
        .flatten()
        .filter_map(|k| key_from_hex(k.as_str()?))
        .filter_map(|addr| Some((addr, *sizes.get(&addr)?)))
        .filter(|(addr, _)| seen.insert(*addr))
        .collect();
    let mut lru = LruState::default();
    // BTreeMap keys iterate sorted, so the unindexed prefix is already
    // in deterministic (key) order.
    for (&addr, &size) in &sizes {
        if !seen.contains(&addr) {
            lru.touch(addr, size);
        }
    }
    for (addr, size) in indexed {
        lru.touch(addr, size);
    }
    lru
}

#[cfg(test)]
mod tests {
    use super::*;
    use suu_sim::Evaluator;

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("suu-serve-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_stats() -> EvalStats {
        let sc = suu_bench::scenario::Scenario::uniform(2, 4, 0.3, 0.9, 5);
        let registry = suu_algos::standard_registry();
        let inst = sc.instantiate();
        let spec = suu_sim::PolicySpec::new("gang-sequential");
        Evaluator::seeded(8, 42).run_stats(
            &inst,
            suu_sim::spec_factory(&registry, &inst, &spec).unwrap(),
        )
    }

    fn sample_key(seed: u64) -> CellKey {
        let params = Json::obj()
            .field("family", "uniform")
            .field("m", 2u64)
            .field("n", 4u64)
            .field("lo", 0.3)
            .field("hi", 0.9)
            .field("seed", 5u64);
        CellKey::new(&cell_key_fields(
            &params,
            "gang-sequential",
            seed,
            "suu-star",
            1000,
        ))
    }

    #[test]
    fn key_is_order_insensitive_and_field_sensitive() {
        let params_a = Json::obj().field("family", "uniform").field("m", 2u64);
        let params_b = Json::obj().field("m", 2u64).field("family", "uniform");
        let key = |p: &Json| CellKey::new(&cell_key_fields(p, "x", 1, "suu-star", 10));
        assert_eq!(key(&params_a), key(&params_b));
        assert_ne!(
            key(&params_a),
            CellKey::new(&cell_key_fields(&params_a, "y", 1, "suu-star", 10))
        );
        assert_ne!(
            key(&params_a),
            CellKey::new(&cell_key_fields(&params_a, "x", 2, "suu-star", 10))
        );
        assert!(is_fnv1a_hex(&key(&params_a).hex));
    }

    #[test]
    fn store_load_roundtrips_bitwise() {
        let store = CellStore::open(tempdir("roundtrip")).unwrap();
        let key = sample_key(42);
        assert!(store.load(&key).unwrap().is_none());
        let stats = sample_stats();
        store
            .store(&key, "gang-sequential", &stats, "fixed-budget")
            .unwrap();
        let cached = store.load(&key).unwrap().expect("stored cell");
        assert_eq!(cached.stop_reason, "fixed-budget");
        assert_eq!(
            cached.stats.acc.to_json().to_compact(),
            stats.acc.to_json().to_compact(),
            "restored accumulator must be bitwise the stored one"
        );
        assert_eq!(store.cells_on_disk(), 1);
        assert!(store.raw(&key.hex).unwrap().contains(CELL_SCHEMA));
        assert!(store.raw("not-a-key").is_none());
        // Only `store_with_bound` writes a lower bound, and it reads back
        // bitwise.
        assert_eq!(cached.lower_bound, None);
        assert!(!store.raw(&key.hex).unwrap().contains("lower_bound"));
        let bound = 0.1 + 0.2; // not the shortest decimal of 0.3
        store
            .store_with_bound(&key, "gang-sequential", &stats, "fixed-budget", Some(bound))
            .unwrap();
        let cached = store.load(&key).unwrap().expect("stored cell");
        assert_eq!(cached.lower_bound.map(f64::to_bits), Some(bound.to_bits()));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn collision_and_corruption_are_loud() {
        let store = CellStore::open(tempdir("corrupt")).unwrap();
        let key_a = sample_key(1);
        let key_b = sample_key(2);
        let stats = sample_stats();
        store
            .store(&key_a, "gang-sequential", &stats, "fixed-budget")
            .unwrap();
        // Simulate a collision: key_b's file containing key_a's content.
        std::fs::copy(
            store.dir().join(format!("{}.json", key_a.hex)),
            store.dir().join(format!("{}.json", key_b.hex)),
        )
        .unwrap();
        // Errors reach clients in 500 bodies: they name the cell key and
        // nothing of where the cache lives.
        let dir = store.dir().to_path_buf();
        let dir_name = dir.file_name().unwrap().to_str().unwrap().to_string();
        let names_key_not_dir = |err: &str, key: &CellKey| {
            assert!(err.contains(&format!("cell {}", key.hex)), "{err}");
            assert!(!err.contains(std::path::MAIN_SEPARATOR), "{err}");
            assert!(!err.contains(&dir_name), "{err}");
        };
        let err = store.load(&key_b).unwrap_err();
        assert!(err.contains("collision"), "{err}");
        names_key_not_dir(&err, &key_b);
        assert!(matches!(store.fetch(&key_b), Err(CellFault::Collision(_))));
        // Truncated file: error, not a panic or a silent miss.
        let cell_a = dir.join(format!("{}.json", key_a.hex));
        let intact = suu_core::json::parse(&std::fs::read_to_string(&cell_a).unwrap()).unwrap();
        std::fs::write(&cell_a, "{\"sch").unwrap();
        let err = store.load(&key_a).unwrap_err();
        assert!(err.contains("cache parse"), "{err}");
        names_key_not_dir(&err, &key_a);
        std::fs::write(&cell_a, "{\"schema\":\"x\"}").unwrap();
        let err = store.load(&key_a).unwrap_err();
        assert!(err.contains("bad schema"), "{err}");
        names_key_not_dir(&err, &key_a);
        // Every failure but a collision is damage, which recomputing the
        // cell repairs: also a cell missing a field or with a bad
        // checkpoint.
        let without = |field: &str| match &intact {
            Json::Obj(fields) => {
                Json::Obj(fields.iter().filter(|(k, _)| k != field).cloned().collect())
            }
            _ => unreachable!("a cell is an object"),
        };
        for damaged in [
            "{\"sch".to_string(),
            "{\"schema\":\"x\"}".to_string(),
            without("cell_key_canonical").to_pretty(),
            without("stop_reason").to_pretty(),
            without("checkpoint").to_pretty(),
            intact.clone().field("checkpoint", Json::obj()).to_pretty(),
        ] {
            std::fs::write(&cell_a, &damaged).unwrap();
            let fault = store.fetch(&key_a).unwrap_err();
            assert!(matches!(fault, CellFault::Damaged(_)), "{fault}: {damaged}");
            names_key_not_dir(&fault.to_string(), &key_a);
        }
        // A store that cannot write (the directory is gone) says so the
        // same way.
        std::fs::remove_dir_all(&dir).unwrap();
        let err = store
            .store(&key_a, "gang-sequential", &stats, "fixed-budget")
            .unwrap_err();
        assert!(err.contains("cache write"), "{err}");
        names_key_not_dir(&err, &key_a);
    }

    #[test]
    fn inflight_serializes_same_key_and_counts_waits() {
        let store = std::sync::Arc::new(CellStore::open(tempdir("inflight")).unwrap());
        let key = sample_key(7);
        let running = std::sync::Arc::new(AtomicU64::new(0));
        let peak = std::sync::Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (store, key, running, peak) =
                    (store.clone(), key.clone(), running.clone(), peak.clone());
                scope.spawn(move || {
                    store.with_inflight(&key, || {
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        running.fetch_sub(1, Ordering::SeqCst);
                    });
                });
            }
        });
        assert_eq!(peak.load(Ordering::SeqCst), 1, "same key must serialize");
        assert_eq!(store.coalesced.load(Ordering::SeqCst), 3);
        assert_eq!(store.inflight_count(), 0);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Store cells for seeds, returning their keys in store order.
    fn fill(store: &CellStore, seeds: std::ops::Range<u64>) -> Vec<CellKey> {
        let stats = sample_stats();
        seeds
            .map(|seed| {
                let key = sample_key(seed);
                store
                    .store(&key, "gang-sequential", &stats, "fixed-budget")
                    .unwrap();
                key
            })
            .collect()
    }

    #[test]
    fn budget_evicts_least_recently_used_first() {
        // Measure one cell to size a budget that fits exactly two.
        let probe = CellStore::open(tempdir("lru-probe")).unwrap();
        let keys = fill(&probe, 0..1);
        let cell_bytes = probe.cache_bytes();
        assert!(cell_bytes > 0);
        assert_eq!(probe.cells_on_disk(), 1, "index.json must not count");
        let _ = std::fs::remove_dir_all(probe.dir());
        drop(keys);

        let store = CellStore::open_with_budget(tempdir("lru"), Some(2 * cell_bytes + 16)).unwrap();
        let keys = fill(&store, 0..2);
        assert_eq!(store.evictions.load(Ordering::SeqCst), 0);
        // Touch cell 0 (a hit), then add cell 2: cell 1 is now LRU and
        // must be the victim.
        assert!(store.load(&keys[0]).unwrap().is_some());
        let key2 = fill(&store, 2..3).remove(0);
        assert_eq!(store.evictions.load(Ordering::SeqCst), 1);
        assert!(store.load(&keys[0]).unwrap().is_some(), "MRU kept");
        assert!(store.load(&key2).unwrap().is_some(), "new cell kept");
        assert!(store.load(&keys[1]).unwrap().is_none(), "LRU evicted");
        assert_eq!(store.cells_on_disk(), 2);
        assert!(store.cache_bytes() <= 2 * cell_bytes + 16);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn a_cell_larger_than_the_budget_is_still_kept() {
        let store = CellStore::open_with_budget(tempdir("lru-tiny"), Some(8)).unwrap();
        let keys = fill(&store, 0..2);
        // Each store evicts everything *else*, but never the newcomer.
        assert_eq!(store.cells_on_disk(), 1);
        assert!(store.load(&keys[1]).unwrap().is_some());
        assert_eq!(store.evictions.load(Ordering::SeqCst), 1);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn recency_survives_a_restart_via_the_index() {
        let dir = tempdir("lru-restart");
        let (keys, total) = {
            let store = CellStore::open(&dir).unwrap();
            let keys = fill(&store, 0..3);
            let total = store.cache_bytes();
            // Leave cell 0 most recently used.
            assert!(store.load(&keys[0]).unwrap().is_some());
            (keys, total)
        };
        // Reopen with room for the current three cells but not a fourth:
        // storing one more must evict cell 1 (LRU per the persisted
        // index), not the recently-touched cell 0.
        let store = CellStore::open_with_budget(&dir, Some(total + 64)).unwrap();
        assert_eq!(store.cache_bytes(), total, "sizes reseeded from disk");
        let key3 = fill(&store, 3..4).remove(0);
        assert!(store.load(&keys[0]).unwrap().is_some(), "recent cell kept");
        assert!(
            store.load(&keys[1]).unwrap().is_none(),
            "stale cell evicted"
        );
        assert!(store.load(&key3).unwrap().is_some());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// The `order` of `dir/index.json`, as written.
    fn index_order(dir: &Path) -> Vec<String> {
        let text = std::fs::read_to_string(dir.join("index.json")).unwrap();
        let doc = suu_core::json::parse(&text).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(INDEX_SCHEMA));
        doc.get("order")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|k| k.as_str().unwrap().to_string())
            .collect()
    }

    #[test]
    fn a_hit_writes_nothing_and_drop_persists_its_recency() {
        let dir = tempdir("hit-writes-nothing");
        let listing = || {
            let mut names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        let index = || {
            let path = dir.join("index.json");
            let modified = std::fs::metadata(&path).unwrap().modified().unwrap();
            (std::fs::read(&path).unwrap(), modified)
        };
        let store = CellStore::open(&dir).unwrap();
        let keys = fill(&store, 0..2);
        let (files, before) = (listing(), index());
        assert_eq!(index_order(&dir), [keys[0].hex.as_str(), &keys[1].hex]);
        for _ in 0..50 {
            assert!(store.load(&keys[0]).unwrap().is_some());
        }
        assert_eq!(listing(), files, "a hit creates or removes no file");
        assert!(
            !files.iter().any(|name| name.contains(".tmp.")),
            "{files:?}"
        );
        assert!(
            index() == before,
            "a hit leaves index.json's bytes and mtime alone"
        );
        // Dropping the store persists the recency the hits moved.
        drop(store);
        assert_eq!(index_order(&dir), [keys[1].hex.as_str(), &keys[0].hex]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_restart_reads_a_hand_written_index() {
        let dir = tempdir("lru-hand-index");
        let keys = fill(&CellStore::open(&dir).unwrap(), 0..4);
        let mut unindexed = [keys[1].hex.clone(), keys[3].hex.clone()];
        unindexed.sort();
        let absent = (0..)
            .map(|i: u64| format!("{i:016x}"))
            .find(|hex| keys.iter().all(|k| &k.hex != hex))
            .unwrap();
        let index = Json::obj().field("schema", INDEX_SCHEMA).field(
            "order",
            vec![
                Json::Str(keys[2].hex.clone()),
                Json::Str("not-a-key".into()),
                Json::Str(absent),
                Json::Str(keys[0].hex.to_uppercase()),
                Json::UInt(7),
                Json::Str(keys[0].hex.clone()),
                Json::Str(keys[2].hex.clone()),
            ],
        );
        std::fs::write(dir.join("index.json"), index.to_pretty()).unwrap();
        // The next store writes the restored order back, then its own
        // cell: cells the index misses come first in key order, then the
        // index's order with every unusable or repeated entry dropped.
        let store = CellStore::open(&dir).unwrap();
        let key4 = fill(&store, 4..5).remove(0);
        assert_eq!(
            index_order(&dir),
            [
                unindexed[0].as_str(),
                &unindexed[1],
                &keys[2].hex,
                &keys[0].hex,
                &key4.hex
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_cell_another_process_wrote_counts_against_the_budget() {
        let probe = CellStore::open(tempdir("lru-foreign-probe")).unwrap();
        fill(&probe, 0..1);
        let cell_bytes = probe.cache_bytes();
        let _ = std::fs::remove_dir_all(probe.dir());

        // `ours` has room for three cells; `theirs` writes one of them
        // into the same directory after `ours` opened it.
        let dir = tempdir("lru-foreign");
        let ours = CellStore::open_with_budget(&dir, Some(3 * cell_bytes + 16)).unwrap();
        let theirs = CellStore::open(&dir).unwrap();
        let keys = fill(&ours, 0..2);
        let foreign = fill(&theirs, 2..3).remove(0);
        assert_eq!(ours.cells_on_disk(), 2, "not loaded yet");
        assert!(ours.load(&foreign).unwrap().is_some());
        let key3 = fill(&ours, 3..4).remove(0);
        assert_eq!(ours.evictions.load(Ordering::SeqCst), 1);
        assert!(ours.load(&keys[0]).unwrap().is_none(), "LRU evicted");
        assert_eq!(ours.cells_on_disk(), 3);
        let on_disk: u64 = [&keys[1], &foreign, &key3]
            .iter()
            .map(|k| std::fs::metadata(ours.path_for(&k.hex)).unwrap().len())
            .sum();
        assert_eq!(ours.cache_bytes(), on_disk);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inflight_cells_are_never_evicted() {
        let stats = sample_stats();
        let probe = CellStore::open(tempdir("lru-inflight-probe")).unwrap();
        fill(&probe, 0..1);
        let cell_bytes = probe.cache_bytes();
        let _ = std::fs::remove_dir_all(probe.dir());

        let store =
            CellStore::open_with_budget(tempdir("lru-inflight"), Some(cell_bytes + 8)).unwrap();
        let keys = fill(&store, 0..1);
        // Key 0 is LRU but in flight (an extend is reading it): storing
        // key 1 must evict nothing and run over budget instead.
        store.with_inflight(&keys[0], || {
            let key1 = sample_key(1);
            store
                .store(&key1, "gang-sequential", &stats, "fixed-budget")
                .unwrap();
            assert_eq!(store.evictions.load(Ordering::SeqCst), 0);
            assert_eq!(store.cells_on_disk(), 2);
        });
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn inflight_key_is_released_even_when_work_panics() {
        let store = CellStore::open(tempdir("panic")).unwrap();
        let key = sample_key(9);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.with_inflight(&key, || panic!("poisoned checkpoint"))
        }));
        assert!(unwound.is_err());
        assert_eq!(
            store.inflight_count(),
            0,
            "a panicking computation must not wedge the key"
        );
        // The next request for the same cell proceeds immediately.
        assert_eq!(store.with_inflight(&key, || 42), 42);
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
