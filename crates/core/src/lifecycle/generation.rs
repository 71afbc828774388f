//! The [`GenerationStore`]: versioned generation directories, atomic
//! promotion of the `CURRENT` pointer, retention GC, and the hot-key
//! warm-up log.

use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use sling_graph::{binfmt, DiGraph, NodeId};

use crate::error::SlingError;
use crate::format::decode_meta;
use crate::index::{QueryWorkspace, SlingIndex};
use crate::lifecycle::manifest::{FileDigest, Manifest, MANIFEST_FILE};
use crate::obs::{self, KernelCounters};
use crate::store::{HpStore, SharedEngine};
use crate::workload::trace::{
    encode_record, parse_record, TraceKey, TraceOutcome, TraceRecord, TraceVerb,
};

/// Name of the promotion pointer file in the store root.
pub const CURRENT_FILE: &str = "CURRENT";

/// Name of the temporary pointer written during promotion; a crash
/// between write and rename leaves it behind, harmlessly.
const CURRENT_TMP: &str = "CURRENT.tmp";

/// Index payload file inside a generation directory.
pub const INDEX_FILE: &str = "index.slng";

/// Optional graph snapshot inside a generation directory.
pub const GRAPH_FILE: &str = "graph.bin";

/// Replayable hot-key log in the store root, used to prime a freshly
/// opened generation's caches before it goes live. New writes are
/// checksummed `SLNGTRACE` record lines (see [`crate::workload`]);
/// legacy bare `<u> <v>` lines still parse.
pub const HOT_KEY_LOG: &str = "hotkeys.log";

/// Hot keys replayed per warm-up, however long the log has grown.
const WARMUP_KEY_CAP: usize = 4096;

/// Identifier of one index generation (`gen-0007` on disk).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GenId(pub u32);

impl GenId {
    /// Directory name of this generation (`gen-NNNN`, zero-padded).
    pub fn dir_name(&self) -> String {
        format!("gen-{:04}", self.0)
    }

    /// Parse a directory name back into an id. Anything that is not
    /// exactly `gen-<digits>` — partial publishes (`gen-0007.partial-*`),
    /// the pointer files, stray junk — is `None`, which is how the store
    /// ignores debris a crash may have left behind.
    pub fn parse(name: &str) -> Option<GenId> {
        let digits = name.strip_prefix("gen-")?;
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        digits.parse().ok().map(GenId)
    }
}

impl std::fmt::Display for GenId {
    /// Displays as the on-disk directory name, so logs, errors, and the
    /// `CURRENT` pointer all use one spelling.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.dir_name())
    }
}

/// A directory of immutable, versioned index generations with an
/// atomically-swappable `CURRENT` pointer — the operational model behind
/// zero-downtime reindexing (see the [`crate::lifecycle`] module docs
/// for the layout and crash-safety argument).
///
/// Publishing, promotion, **and GC** assume a **single writer** (the
/// indexing pipeline); any number of readers (serving processes on this
/// or other hosts mapping the same directory) may list, validate, and
/// open generations concurrently. In particular, do not run
/// [`GenerationStore::gc`] from a separate process concurrently with a
/// publish or promote: the debris sweep cannot distinguish a crashed
/// publish's leftovers from another writer's in-flight staging files.
#[derive(Clone, Debug)]
pub struct GenerationStore {
    root: PathBuf,
}

fn corrupt(what: impl Into<String>) -> SlingError {
    SlingError::CorruptIndex(what.into())
}

/// Write `bytes` to `path` and fsync the file, so a later directory
/// rename cannot expose a file whose contents are still in flight.
fn write_synced(path: &Path, bytes: &[u8]) -> Result<(), SlingError> {
    let mut f = File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    Ok(())
}

/// Fsync a directory so a rename journaled inside it is durable. Best
/// effort on filesystems that refuse directory handles.
fn sync_dir(path: &Path) {
    if let Ok(d) = File::open(path) {
        let _ = d.sync_all();
    }
}

/// Digest a file with a fixed-size streaming read: same result as
/// [`FileDigest::of`] on the whole image, `O(64 KiB)` memory however
/// large the payload.
fn digest_file(path: &Path) -> Result<FileDigest, SlingError> {
    use std::io::Read as _;
    let mut f = File::open(path)?;
    let mut buf = [0u8; 64 * 1024];
    let mut bytes = 0u64;
    let mut h = crate::lifecycle::manifest::Fnv1a::new();
    loop {
        let n = f.read(&mut buf)?;
        if n == 0 {
            break;
        }
        bytes += n as u64;
        h.update(&buf[..n]);
    }
    Ok(FileDigest {
        bytes,
        fnv1a: h.finish(),
    })
}

impl GenerationStore {
    /// Open the generation store rooted at `root`. Opening creates
    /// nothing, so a mistyped root fails at its first listing instead of
    /// appearing empty; the write paths
    /// ([`GenerationStore::publish_bytes`],
    /// [`GenerationStore::append_hot_trace`]) create the root they write
    /// into.
    pub fn open(root: impl Into<PathBuf>) -> Result<GenerationStore, SlingError> {
        Ok(GenerationStore { root: root.into() })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// All published generations, ascending. Partial publishes, pointer
    /// files, and stray entries are ignored.
    pub fn list(&self) -> Result<Vec<GenId>, SlingError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if let Some(id) = entry.file_name().to_str().and_then(GenId::parse) {
                if entry.file_type()?.is_dir() {
                    out.push(id);
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// The promoted generation, or `None` when nothing has been promoted
    /// yet. Reads only the pointer file — pair with
    /// [`GenerationStore::manifest`] / [`GenerationStore::verify`] to
    /// check the generation it names.
    pub fn current(&self) -> Result<Option<GenId>, SlingError> {
        let raw = match fs::read_to_string(self.root.join(CURRENT_FILE)) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let name = raw.trim();
        GenId::parse(name)
            .map(Some)
            .ok_or_else(|| corrupt(format!("CURRENT names an invalid generation {name:?}")))
    }

    /// Directory of one generation.
    pub fn generation_dir(&self, gen: GenId) -> PathBuf {
        self.root.join(gen.dir_name())
    }

    /// Path of a generation's index file.
    pub fn index_path(&self, gen: GenId) -> PathBuf {
        self.generation_dir(gen).join(INDEX_FILE)
    }

    /// Path of a generation's graph snapshot, if one was published.
    pub fn graph_path(&self, gen: GenId) -> Option<PathBuf> {
        let path = self.generation_dir(gen).join(GRAPH_FILE);
        path.exists().then_some(path)
    }

    /// Parse and checksum-verify a generation's manifest, and check the
    /// recorded payload *sizes* against the files on disk. Cheap —
    /// `O(manifest)`, no payload read; [`GenerationStore::verify`] adds
    /// the full payload checksum.
    pub fn manifest(&self, gen: GenId) -> Result<Manifest, SlingError> {
        let dir = self.generation_dir(gen);
        let text = fs::read_to_string(dir.join(MANIFEST_FILE))
            .map_err(|e| corrupt(format!("{gen}: cannot read manifest: {e}")))?;
        let manifest = Manifest::parse(&text).map_err(|e| corrupt(format!("{gen}: {e}")))?;
        let index_len = fs::metadata(dir.join(INDEX_FILE))?.len();
        if index_len != manifest.index.bytes {
            return Err(corrupt(format!(
                "{gen}: index file holds {index_len} bytes, manifest records {}",
                manifest.index.bytes
            )));
        }
        match (&manifest.graph, dir.join(GRAPH_FILE).exists()) {
            (Some(digest), true) => {
                let len = fs::metadata(dir.join(GRAPH_FILE))?.len();
                if len != digest.bytes {
                    return Err(corrupt(format!(
                        "{gen}: graph snapshot holds {len} bytes, manifest records {}",
                        digest.bytes
                    )));
                }
            }
            (None, false) => {}
            (Some(_), false) => {
                return Err(corrupt(format!(
                    "{gen}: manifest records a graph snapshot but none exists"
                )))
            }
            (None, true) => {
                return Err(corrupt(format!(
                    "{gen}: graph snapshot exists but the manifest does not record it"
                )))
            }
        }
        Ok(manifest)
    }

    /// Fully verify a generation: manifest checksum, payload sizes, and
    /// the FNV-1a checksum of every payload file. This is the gate
    /// [`GenerationStore::promote`] runs — a generation that cannot pass
    /// it must never become `CURRENT`. Payloads are checksummed
    /// streaming (fixed 64 KiB buffer), so verifying a multi-GB index on
    /// a serving host never doubles resident memory.
    pub fn verify(&self, gen: GenId) -> Result<Manifest, SlingError> {
        let manifest = self.manifest(gen)?;
        if digest_file(&self.index_path(gen))? != manifest.index {
            return Err(corrupt(format!("{gen}: index payload checksum mismatch")));
        }
        if let Some(digest) = &manifest.graph {
            if &digest_file(&self.generation_dir(gen).join(GRAPH_FILE))? != digest {
                return Err(corrupt(format!("{gen}: graph snapshot checksum mismatch")));
            }
        }
        Ok(manifest)
    }

    /// Next unused generation id (1-based; ids are never reused, so a
    /// GC'd generation's number stays retired).
    fn next_id(&self) -> Result<GenId, SlingError> {
        let highest = self
            .list()?
            .last()
            .copied()
            .max(self.current()?)
            .map_or(0, |g| g.0);
        Ok(GenId(highest + 1))
    }

    /// Publish a serialized index image (any format generation) as a
    /// new, un-promoted generation, optionally co-locating a graph
    /// snapshot. The write is crash-safe: everything lands in a
    /// `.partial-` staging directory, is fsynced, and only then renamed
    /// to its final `gen-NNNN` name — a crash mid-publish leaves debris
    /// that [`GenerationStore::list`] ignores and
    /// [`GenerationStore::gc`] removes, never a half-valid generation.
    pub fn publish_bytes(
        &self,
        index_bytes: &[u8],
        graph_bytes: Option<&[u8]>,
    ) -> Result<GenId, SlingError> {
        // Validate the image and pull the manifest fields out of its
        // metadata prefix before anything touches disk.
        let meta = decode_meta(index_bytes)?;
        if let Some(gb) = graph_bytes {
            let graph = binfmt::from_bytes(gb)
                .map_err(|e| corrupt(format!("graph snapshot does not decode: {e}")))?;
            meta.check_graph(&graph)?;
        }
        let manifest = Manifest {
            format: meta.version,
            num_nodes: meta.num_nodes,
            num_edges: meta.num_edges,
            epsilon: meta.config.epsilon,
            c: meta.config.c,
            seed: meta.config.seed,
            index: FileDigest::of(index_bytes),
            graph: graph_bytes.map(FileDigest::of),
        };

        // The root must exist before `next_id` lists it.
        fs::create_dir_all(&self.root)?;
        let id = self.next_id()?;
        let staging = self
            .root
            .join(format!("{}.partial-{}", id.dir_name(), std::process::id()));
        // A same-named staging dir can only be our own crashed debris.
        if staging.exists() {
            fs::remove_dir_all(&staging)?;
        }
        fs::create_dir_all(&staging)?;
        write_synced(&staging.join(INDEX_FILE), index_bytes)?;
        if let Some(gb) = graph_bytes {
            write_synced(&staging.join(GRAPH_FILE), gb)?;
        }
        write_synced(&staging.join(MANIFEST_FILE), manifest.encode().as_bytes())?;
        sync_dir(&staging);
        let final_dir = self.generation_dir(id);
        // Fault point: fail *before* the rename, so an injected publish
        // crash exercises the debris-tolerant recovery path (staging
        // dirs ignored by list, removed by gc) — exactly the state a
        // real mid-publish crash leaves.
        crate::faults::check_io(crate::faults::point::LIFECYCLE_PUBLISH)?;
        fs::rename(&staging, &final_dir)?;
        sync_dir(&self.root);
        KernelCounters::bump(&obs::LIFECYCLE.publishes);
        Ok(id)
    }

    /// Publish an in-memory index (and optionally its graph) as a new
    /// generation. `SLNGIDX1` layout; use
    /// [`GenerationStore::publish_bytes`] with
    /// [`SlingIndex::to_bytes_v3`] output for a compressed generation.
    pub fn publish_index(
        &self,
        index: &SlingIndex,
        graph: Option<&DiGraph>,
    ) -> Result<GenId, SlingError> {
        let graph_bytes = graph.map(binfmt::to_bytes);
        self.publish_bytes(&index.to_bytes(), graph_bytes.as_deref())
    }

    /// Atomically promote `gen` to `CURRENT` after fully verifying it
    /// (manifest checksum + payload checksums).
    ///
    /// The swap is write-temp + fsync + rename: readers observe either
    /// the old pointer or the new one, never a torn file, and a crash at
    /// any instant leaves `CURRENT` pointing at a valid generation (the
    /// stray `CURRENT.tmp` is overwritten by the next promotion and
    /// removed by GC).
    pub fn promote(&self, gen: GenId) -> Result<(), SlingError> {
        self.verify(gen)?;
        // Fault point: fail after verification but before the CURRENT
        // swap — the window where a crash must leave the old pointer
        // fully intact.
        crate::faults::check_io(crate::faults::point::LIFECYCLE_PROMOTE)?;
        let tmp = self.root.join(CURRENT_TMP);
        write_synced(&tmp, format!("{}\n", gen.dir_name()).as_bytes())?;
        fs::rename(&tmp, self.root.join(CURRENT_FILE))?;
        sync_dir(&self.root);
        KernelCounters::bump(&obs::LIFECYCLE.promotions);
        Ok(())
    }

    /// Remove retired generations, keeping `CURRENT`, every generation
    /// *newer* than it (published but not yet promoted), and the
    /// `keep_retired` most recent retired ones as rollback candidates.
    /// Also sweeps crash debris: `.partial-` staging directories and a
    /// stale `CURRENT.tmp`. Returns the removed generation ids.
    ///
    /// A **writer-side** operation under the store's single-writer
    /// contract (see the type docs): run it from the indexing pipeline
    /// between publishes, never concurrently with one — a racing
    /// publish's staging directory is indistinguishable from crash
    /// debris.
    ///
    /// With nothing promoted, no generation is retired and only debris
    /// is swept.
    pub fn gc(&self, keep_retired: usize) -> Result<Vec<GenId>, SlingError> {
        // Debris sweep first: it can never name live data.
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.contains(".partial-") && entry.file_type()?.is_dir() {
                fs::remove_dir_all(entry.path())?;
            } else if name == CURRENT_TMP {
                fs::remove_file(entry.path())?;
            }
        }
        let Some(current) = self.current()? else {
            return Ok(Vec::new());
        };
        let mut retired: Vec<GenId> = self.list()?.into_iter().filter(|&g| g < current).collect();
        // Newest retired generations are the rollback candidates.
        let cut = retired.len().saturating_sub(keep_retired);
        retired.truncate(cut);
        for &gen in &retired {
            fs::remove_dir_all(self.generation_dir(gen))?;
        }
        if !retired.is_empty() {
            sync_dir(&self.root);
        }
        KernelCounters::bump_by(&obs::LIFECYCLE.gc_removed, retired.len() as u64);
        Ok(retired)
    }

    /// Append canonicalized pairs to the replayable hot-key log, so the
    /// *next* generation can be primed before going live. The log is
    /// **operator- or pipeline-fed**: the serving stack only *reads* it
    /// (nothing automatic writes it) — populate it from a traffic
    /// capture ([`GenerationStore::append_hot_trace`]), from
    /// [`DynamicSling`]-side knowledge of hot entities, or by hand (it
    /// is plain text, and legacy `echo "3 77" >> <root>/hotkeys.log`
    /// lines still parse). New writes use checksummed `SLNGTRACE`
    /// record lines, so the log carries real traffic *frequency*, not
    /// just distinct pairs. An absent or stale log only means a colder
    /// first request after a swap.
    ///
    /// [`DynamicSling`]: crate::dynamic::DynamicSling
    pub fn append_hot_keys(&self, pairs: &[(u32, u32)]) -> Result<(), SlingError> {
        let records: Vec<TraceRecord> = pairs
            .iter()
            .map(|&(u, v)| TraceRecord {
                t_us: 0,
                verb: TraceVerb::Pair,
                key: TraceKey::Pair(u.min(v), u.max(v)),
                outcome: TraceOutcome::Ok,
                latency_us: 0,
                epoch: 0,
            })
            .collect();
        self.append_hot_trace(&records)
    }

    /// Append captured traffic records to the hot-key log — the
    /// workload-capture path: feed it (a slice of) a `SLNGTRACE`
    /// capture and the next warm-up replays the traffic's own key
    /// frequencies. Records are appended as bare checksummed record
    /// lines (no header — the log is an append-forever mixed file, and
    /// [`GenerationStore::read_hot_keys`] parses each line on its own).
    pub fn append_hot_trace(&self, records: &[TraceRecord]) -> Result<(), SlingError> {
        let mut text = String::with_capacity(records.len() * 32);
        for rec in records {
            // Per-line delta base 0: the log aggregates keys, so
            // per-record absolute time is not reconstructed.
            let flat = TraceRecord { t_us: 0, ..*rec };
            encode_record(&flat, 0, &mut text);
        }
        fs::create_dir_all(&self.root)?;
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.root.join(HOT_KEY_LOG))?;
        f.write_all(text.as_bytes())?;
        Ok(())
    }

    /// Read the hot keys from the log, ranked by how warm-up should
    /// replay them: by observed frequency (descending), ties broken
    /// newest-first, capped so warm-up stays bounded however long the
    /// log grows. Both line dialects count — checksummed `SLNGTRACE`
    /// records (any verb; node-addressed keys degrade to their identity
    /// pair) and legacy bare `<u> <v>` lines. Malformed or
    /// checksum-failing lines, non-UTF-8 bytes from a torn append, and
    /// even a failing read all degrade to fewer keys — the log is an
    /// optimization, never a correctness input, so nothing about it may
    /// block opening a generation.
    pub fn read_hot_keys(&self) -> Vec<(u32, u32)> {
        let bytes = match fs::read(self.root.join(HOT_KEY_LOG)) {
            Ok(bytes) => bytes,
            Err(_) => return Vec::new(),
        };
        let text = String::from_utf8_lossy(&bytes);
        // pair -> (count, most recent line index)
        let mut tally: std::collections::HashMap<(u32, u32), (u64, usize)> =
            std::collections::HashMap::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            let pair = if line.starts_with('+') {
                match parse_record(line, 0) {
                    Ok(rec) => rec.key.warm_pair(),
                    Err(_) => continue,
                }
            } else if let Some((u, v)) = line.split_once(' ') {
                match (u.parse::<u32>(), v.parse::<u32>()) {
                    (Ok(u), Ok(v)) => (u.min(v), u.max(v)),
                    _ => continue, // skips headers and malformed lines
                }
            } else {
                continue;
            };
            let slot = tally.entry(pair).or_insert((0, idx));
            slot.0 += 1;
            slot.1 = idx;
        }
        let mut ranked: Vec<((u32, u32), (u64, usize))> = tally.into_iter().collect();
        ranked.sort_unstable_by_key(|r| std::cmp::Reverse(r.1));
        ranked.truncate(WARMUP_KEY_CAP);
        ranked.into_iter().map(|(pair, _)| pair).collect()
    }

    /// Decode a generation's co-located graph snapshot, if one was
    /// published. The snapshot's size and checksum are the manifest's
    /// to check ([`GenerationStore::manifest`],
    /// [`GenerationStore::verify`]); whether it is the graph the index
    /// was built for is checked once, by whatever opens the index
    /// against it (every `SharedEngine` and `SlingIndex` opener compares
    /// the index header's `(n, m)` with the graph).
    pub fn load_graph(&self, gen: GenId) -> Result<Option<DiGraph>, SlingError> {
        let Some(path) = self.graph_path(gen) else {
            return Ok(None);
        };
        let bytes = fs::read(path)?;
        binfmt::from_bytes(&bytes)
            .map(Some)
            .map_err(|e| corrupt(format!("{gen}: graph snapshot does not decode: {e}")))
    }
}

/// Warm a freshly opened engine before it starts serving: advisory
/// prefetch (`madvise`/`fadvise` on the file-backed backends) of every
/// hot node's entry range, then a replay of the hot pairs so the page
/// cache is primed.
/// Out-of-range or failing pairs are skipped — warm-up must never block
/// a promotion. Returns the number of pairs successfully replayed.
pub fn warm_engine<S: HpStore>(
    engine: &SharedEngine<S>,
    graph: &DiGraph,
    hot_keys: &[(u32, u32)],
) -> usize {
    let n = engine.num_nodes() as u32;
    // Stage the pages first so the replay faults batched readahead
    // instead of one miss per query.
    for &(u, v) in hot_keys {
        if u < n {
            engine.store().prefetch(NodeId(u));
        }
        if v < n && v != u {
            engine.store().prefetch(NodeId(v));
        }
    }
    let mut ws = QueryWorkspace::new();
    let mut primed = 0;
    for &(u, v) in hot_keys {
        if u < n
            && v < n
            && engine
                .single_pair_with(graph, &mut ws, NodeId(u), NodeId(v))
                .is_ok()
        {
            primed += 1;
        }
    }
    KernelCounters::bump(&obs::LIFECYCLE.warmups);
    KernelCounters::bump_by(&obs::LIFECYCLE.warmup_keys, primed as u64);
    primed
}
