//! The `hot-hits` cache fixture, prepared once per seed, shape and
//! program version, and reused by every later run through a fresh copy.
//!
//! Preparation uses only the program under test: one daemon run serves
//! the hot set cold (its bodies become the byte-identity references),
//! fillers are byte copies of one real cell under distinct content
//! addresses, and a second, warm-up daemon run replays the hot set as
//! hits — which is what writes `index.json` over every cell. The
//! benchmark never writes `index.json` itself.

use crate::procs::{cache_label, post_race, Server};
use std::path::{Path, PathBuf};

pub struct HotFixture {
    /// The prepared cache directory (never served from directly).
    pub cache: PathBuf,
    /// Body first served for each hot request, in request order.
    pub refs: Vec<Vec<u8>>,
}

/// Content hash of the `suud` binary, so that each program version
/// prepares (and is checked against) state of its own.
pub fn program_hash(bin_dir: &Path) -> Result<String, String> {
    let path = bin_dir.join("suud");
    let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok(suu_core::fnv1a_hex(&bytes))
}

/// A cell file of the cache (`<content address>.json`), as opposed to
/// the recency index and any other state the daemon keeps beside it.
fn is_cell(name: &str) -> bool {
    name.strip_suffix(".json")
        .is_some_and(suu_core::is_fnv1a_hex)
}

/// Size and modification time of every file in `dir`, hashed: a
/// prepared fixture must still match the value recorded when it was
/// made, or it is prepared again.
fn fingerprint(dir: &Path) -> Result<String, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let mut lines = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let meta = entry.metadata().map_err(|e| e.to_string())?;
        let mtime = meta
            .modified()
            .ok()
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map_or(0, |d| d.as_nanos());
        lines.push(format!(
            "{} {} {mtime}",
            entry.file_name().to_string_lossy(),
            meta.len()
        ));
    }
    lines.sort();
    Ok(suu_core::fnv1a_hex(lines.join("\n").as_bytes()))
}

/// Prepare (or reuse) the fixture for `bodies` with `fillers` filler
/// cells under `root`.
pub fn hot(
    bin_dir: &Path,
    root: &Path,
    tag: &str,
    bodies: &[Vec<u8>],
    fillers: usize,
) -> Result<HotFixture, String> {
    let dir = root.join(tag);
    let cache = dir.join("cache");
    let refs_dir = dir.join("refs");
    let ready = dir.join("ready");
    let read_refs = || -> Result<Vec<Vec<u8>>, String> {
        (0..bodies.len())
            .map(|i| {
                let path = refs_dir.join(format!("{i}.json"));
                std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))
            })
            .collect()
    };
    if let Ok(recorded) = std::fs::read_to_string(&ready) {
        if fingerprint(&cache).ok().as_deref() == Some(recorded.trim()) {
            return Ok(HotFixture {
                cache,
                refs: read_refs()?,
            });
        }
    }
    prune(root, 4);
    let _ = std::fs::remove_dir_all(&dir);
    for d in [&cache, &refs_dir] {
        std::fs::create_dir_all(d).map_err(|e| format!("create {}: {e}", d.display()))?;
    }

    // 1. Serve the hot set once, cold: these bodies are the references.
    let mut keys = Vec::new();
    {
        let (server, _) = Server::suud(bin_dir, &cache)?;
        let mut client = server.client()?;
        for (i, body) in bodies.iter().enumerate() {
            let (reply, _) = post_race(&mut client, body)?;
            if reply.status != 200 || cache_label(&reply) != "miss" {
                return Err(format!(
                    "fixture request {i}: status {} cache {:?}: {}",
                    reply.status,
                    cache_label(&reply),
                    String::from_utf8_lossy(&reply.body)
                ));
            }
            keys.extend(
                crate::workloads::cells_of(&reply.body)?
                    .into_iter()
                    .map(|c| c.0),
            );
            let path = refs_dir.join(format!("{i}.json"));
            std::fs::write(&path, &reply.body)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
    }

    // 2. Fillers: byte copies of one real cell under distinct addresses,
    //    never requested.
    let template_key = keys.first().ok_or("hot set produced no cells")?;
    let template = std::fs::read(cache.join(format!("{template_key}.json")))
        .map_err(|e| format!("read template cell: {e}"))?;
    let mut made = 0;
    let mut k = 0u64;
    while made < fillers {
        let hex = suu_core::fnv1a_hex(format!("servebench-filler-{tag}-{k}").as_bytes());
        k += 1;
        let path = cache.join(format!("{hex}.json"));
        if keys.contains(&hex) || path.exists() {
            continue;
        }
        std::fs::write(&path, &template).map_err(|e| format!("write {}: {e}", path.display()))?;
        made += 1;
    }

    // 3. Warm-up daemon run: every hot request once more, now a hit. Each
    //    hit makes the daemon persist its recency index over all cells.
    let refs = read_refs()?;
    {
        let (server, _) = Server::suud(bin_dir, &cache)?;
        let mut client = server.client()?;
        for (i, body) in bodies.iter().enumerate() {
            let (reply, _) = post_race(&mut client, body)?;
            if reply.status != 200 || cache_label(&reply) != "hit" || reply.body != refs[i] {
                return Err(format!(
                    "fixture warm-up request {i} is not a byte-identical hit"
                ));
            }
        }
    }
    if !cache.join("index.json").exists() {
        return Err("warm-up run left no index.json".into());
    }
    std::fs::write(&ready, format!("{}\n", fingerprint(&cache)?))
        .map_err(|e| format!("write {}: {e}", ready.display()))?;
    Ok(HotFixture { cache, refs })
}

/// Keep at most `keep` prepared fixtures under `root` (newest first), so
/// runs over many seeds do not fill the disk; a pruned fixture is simply
/// prepared again when its seed comes back.
fn prune(root: &Path, keep: usize) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    let mut dirs: Vec<(std::time::SystemTime, PathBuf)> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| Some((e.metadata().ok()?.modified().ok()?, e.path())))
        .collect();
    dirs.sort();
    let excess = dirs.len().saturating_sub(keep);
    for (_, dir) in dirs.into_iter().take(excess) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A fresh copy of a prepared cache. `index.json` and every other
/// non-cell file are always copied, so a daemon that appends to its own
/// state never reaches the fixture. Cell files are hard-linked when
/// `link_cells` is set (the daemon replaces a cell by rename; should a
/// later version write one in place, the fixture's fingerprint no longer
/// matches and the next run prepares it again) and copied otherwise.
pub fn copy_tree(src: &Path, dst: &Path, link_cells: bool) -> Result<(), String> {
    std::fs::create_dir_all(dst).map_err(|e| format!("create {}: {e}", dst.display()))?;
    let entries = std::fs::read_dir(src).map_err(|e| format!("read {}: {e}", src.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let to = dst.join(entry.file_name());
        let linked = link_cells
            && is_cell(&entry.file_name().to_string_lossy())
            && std::fs::hard_link(entry.path(), &to).is_ok();
        if !linked {
            std::fs::copy(entry.path(), &to)
                .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}
