//! The storage-backend layer: [`HpStore`] and the [`SharedEngine`]
//! query engine.
//!
//! §5.4 of the paper observes that SLING "can efficiently process queries
//! even when its index structure does not fit in the main memory": every
//! query touches `O(1/ε)` hitting-probability entries, i.e. a constant
//! number of positioned reads. This module turns that observation into a
//! DBMS-style layering. The query algorithms (Algorithms 3, 5, 6 and the
//! §5.2/§5.3 effective-entry materialization) are written once, generic
//! over an [`HpStore`] — the read interface to the packed per-node HP
//! sets — and two backends implement it, one per [`Residency`]:
//!
//! * [`crate::hp::HpArena`] — the in-memory parallel-array arena, which
//!   [`SlingIndex::decode`] fills from a file of any format;
//! * [`MmapHpArena`] — a memory-mapped view of a persisted index file of
//!   any format: opening validates the metadata but never reads the
//!   entry payload, so open cost is independent of index size, and a
//!   query reads and checks its runs straight out of the page cache.
//!
//! Neither backend knows a payload layout: both read entries through the
//! file's payload geometry (in [`crate::format`]), the eager decode
//! one block-sized chunk at a time and the mapped backend one node's run
//! at a time, and both apply the same run-order rule, so they accept the
//! same files. Every backend answers a read the same way:
//! [`HpStore::entries_into`] copies one node's validated run into a
//! caller-owned buffer, and the query kernels consume that `&[HpEntry]`.
//!
//! The mapped backend is the one out-of-core path: the OS page cache is
//! the buffer pool, and only the `O(n)` metadata is resident.
//! [`SharedEngine::open`] is the one opener that picks the residency at
//! run time, and returns an engine over the enum-dispatched
//! [`IndexStore`].
//!
//! [`SharedEngine`] is the one query engine. It bundles a store with the
//! query-side metadata (config, correction factors, §5.2 reduction
//! bitmap, §5.3 marks) and exposes the full query API — single-pair,
//! single-source, top-k, joins, batches — with identical scores across
//! backends: same entries, same merge order, same floating-point
//! arithmetic. Each query reads its endpoints' effective lists into the
//! caller's [`QueryWorkspace`], restoring a §5.2-reduced or §5.3-marked
//! node there, the same path the bare [`SlingIndex`] takes.

// The mapped backend reads untrusted bytes at query time: a corrupt or
// truncated file must be a `SlingError`, never a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::ops::Range;
use std::path::Path;

use memmap2::{Advice, Mmap};
use sling_graph::{DiGraph, NodeId};

use crate::config::SlingConfig;
use crate::enhance::MarkArena;
use crate::error::SlingError;
use crate::format::{decode_meta, PayloadGeometry};
use crate::hp::{in_run_order, HpArena, HpEntry};
use crate::index::{BuildStats, QueryWorkspace, SlingIndex};
use crate::join::{threshold_join_core, JoinPair, JoinStrategy};
use crate::obs::{self, KernelCounters};
use crate::single_pair::single_pair_core;
use crate::single_source::single_source_core;
use crate::topk::{single_source_truncated_core, top_k_core};

/// Read interface to a packed hitting-probability store.
///
/// Entry indices are *global*: node `v`'s run occupies `range(v)` of a
/// conceptual array of `total_entries()` entries sorted by
/// `(owner, step, node)`. [`HpStore::entries_into`] is the one way a
/// query reads a run. A backend that reads from untrusted bytes (the
/// mapped one) must check every entry it reads (`node < num_nodes`, a
/// finite probability value, `(step, node)` order), so it returns
/// [`SlingError`] rather than panicking on a corrupt or truncated file.
pub trait HpStore {
    /// Number of nodes covered by the store.
    fn num_nodes(&self) -> usize;

    /// Total entries across all nodes.
    fn total_entries(&self) -> usize;

    /// Global entry-index range of `H(v)`, for `v < num_nodes()`.
    fn range(&self, v: NodeId) -> Range<usize>;

    /// Materialize `H(v)` into `out` (cleared first), in `(step, node)`
    /// order. A node id past the store is [`SlingError::NodeOutOfRange`].
    fn entries_into(&self, v: NodeId, out: &mut Vec<HpEntry>) -> Result<(), SlingError>;

    /// Heap-resident bytes of the store itself (excludes file-backed or
    /// page-cache pages, which is the point of the out-of-core backends).
    fn resident_bytes(&self) -> usize;

    /// Advise the backend that `H(v)` is about to be read, so out-of-core
    /// backends can stage the entry bytes *before* the scan loop instead
    /// of paying one major fault per payload section at decode time.
    /// Purely advisory — correctness never
    /// depends on it — and a no-op for memory-resident backends. Server
    /// workers call this for a query's endpoints before querying.
    fn prefetch(&self, _v: NodeId) {}
}

/// `range(v)` after the checks every backend needs before trusting it:
/// `v` inside the store, and the range well-ordered and inside the entry
/// array. A store whose offset table mutates underneath it (a file
/// overwritten after open) must surface that as an error, not an
/// out-of-bounds access.
fn checked_range<S: HpStore + ?Sized>(store: &S, v: NodeId) -> Result<Range<usize>, SlingError> {
    let n = store.num_nodes();
    if v.index() >= n {
        return Err(SlingError::NodeOutOfRange {
            node: v.0,
            n: u32::try_from(n).unwrap_or(u32::MAX),
        });
    }
    let range = store.range(v);
    if range.start > range.end || range.end > store.total_entries() {
        return Err(SlingError::CorruptIndex(format!(
            "entry range {range:?} of {v:?} exceeds the store ({} entries)",
            store.total_entries()
        )));
    }
    Ok(range)
}

impl HpStore for HpArena {
    #[inline]
    fn num_nodes(&self) -> usize {
        HpArena::num_nodes(self)
    }

    #[inline]
    fn total_entries(&self) -> usize {
        HpArena::total_entries(self)
    }

    #[inline]
    fn range(&self, v: NodeId) -> Range<usize> {
        HpArena::range(self, v)
    }

    fn entries_into(&self, v: NodeId, out: &mut Vec<HpEntry>) -> Result<(), SlingError> {
        checked_range(self, v)?;
        self.fill(v, out);
        Ok(())
    }

    fn resident_bytes(&self) -> usize {
        HpArena::resident_bytes(self)
    }
}

/// The store of an engine opened by [`SharedEngine::open`], one per
/// [`Residency`], dispatched once per store call. Both variants answer
/// bit-identically for a lossless file.
pub enum IndexStore {
    /// The decoded in-memory arena ([`Residency::Mem`]).
    Mem(HpArena),
    /// The mapped file, in any format ([`Residency::Mapped`]).
    Mapped(MmapHpArena),
}

/// Run `$body` with `$s` bound to the concrete store of an
/// [`IndexStore`].
macro_rules! on_store {
    ($store:expr, |$s:ident| $body:expr) => {
        match $store {
            IndexStore::Mem($s) => $body,
            IndexStore::Mapped($s) => $body,
        }
    };
}

impl HpStore for IndexStore {
    #[inline]
    fn num_nodes(&self) -> usize {
        on_store!(self, |s| HpStore::num_nodes(s))
    }

    #[inline]
    fn total_entries(&self) -> usize {
        on_store!(self, |s| HpStore::total_entries(s))
    }

    #[inline]
    fn range(&self, v: NodeId) -> Range<usize> {
        on_store!(self, |s| HpStore::range(s, v))
    }

    fn entries_into(&self, v: NodeId, out: &mut Vec<HpEntry>) -> Result<(), SlingError> {
        on_store!(self, |s| s.entries_into(v, out))
    }

    fn resident_bytes(&self) -> usize {
        on_store!(self, |s| HpStore::resident_bytes(s))
    }

    #[inline]
    fn prefetch(&self, v: NodeId) {
        on_store!(self, |s| s.prefetch(v))
    }
}

/// Borrowed view of everything a query needs: the store plus the
/// query-side metadata. `Copy`, so the generic algorithm cores pass it by
/// value. Internal glue between [`SlingIndex`], [`SharedEngine`], and the
/// per-module algorithm implementations.
pub(crate) struct EngineRef<'a, S: HpStore> {
    pub store: &'a S,
    pub config: &'a SlingConfig,
    pub d: &'a [f64],
    pub reduced: &'a [bool],
    pub marks: &'a MarkArena,
}

impl<S: HpStore> Clone for EngineRef<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: HpStore> Copy for EngineRef<'_, S> {}

impl<S: HpStore> EngineRef<'_, S> {
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.reduced.len()
    }

    pub fn check_node(&self, v: NodeId) -> Result<(), SlingError> {
        if v.index() >= self.num_nodes() {
            return Err(SlingError::NodeOutOfRange {
                node: v.0,
                n: self.num_nodes() as u32,
            });
        }
        Ok(())
    }
}

/// Memory-mapped view of a persisted index file in any format: the one
/// out-of-core backend.
///
/// Opening maps the file and validates the header, the metadata and the
/// offset table, and for `SLNGIDX2`/`SLNGIDX3` the block directory and
/// global dictionary; it never reads the entry payload, so the cost is
/// independent of the number of stored entries and no `HpArena` is
/// materialized. Each read hands one node's entry range to the file's
/// payload geometry, the same reader [`SlingIndex::decode`] uses, and
/// checks the run's `(step, node)` order with the rule
/// [`HpArena::validate`] applies. A file corrupted *after* open, or one
/// whose damage only a read reaches, therefore surfaces as
/// [`SlingError::CorruptIndex`] exactly where the eager decode would
/// have refused the file, never as a panic or a silently wrong answer.
/// Repeated queries hit the page cache; nothing decoded is kept between
/// reads.
pub struct MmapHpArena {
    map: Mmap,
    /// Byte offset of the `(n + 1)`-entry `u64` HP offset table.
    offsets_base: usize,
    payload: PayloadGeometry,
}

/// The mapped backend under the name of the block-compressed one it
/// replaced. Kept only because `perfbench/` names it.
pub type CompressedMmapArena = MmapHpArena;

impl MmapHpArena {
    /// Number of payload blocks (0 for `SLNGIDX1`). Kept only because
    /// `perfbench/` reports it.
    pub fn num_blocks(&self) -> usize {
        self.payload.num_blocks()
    }

    /// The HP offset table's entry `i`, read from the mapping.
    #[inline]
    fn offset(&self, i: usize) -> usize {
        // In bounds by construction: decode_meta validated the table
        // against the mapping.
        let at = self.offsets_base + i * 8;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.map[at..at + 8]);
        u64::from_le_bytes(raw) as usize
    }
}

impl HpStore for MmapHpArena {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.payload.num_nodes
    }

    #[inline]
    fn total_entries(&self) -> usize {
        self.payload.entries
    }

    #[inline]
    fn range(&self, v: NodeId) -> Range<usize> {
        let i = v.index();
        self.offset(i)..self.offset(i + 1)
    }

    fn entries_into(&self, v: NodeId, out: &mut Vec<HpEntry>) -> Result<(), SlingError> {
        out.clear();
        let range = checked_range(self, v)?;
        // Fault point: the mapping itself is immutable and shared, so
        // `Corrupt`/`ShortRead` here synthesize the CorruptIndex a
        // mutilated file would raise, instead of flipping bytes in place.
        match crate::faults::check(crate::faults::point::MMAP_VALIDATE) {
            None => {}
            Some(crate::faults::FaultAction::Error) => {
                return Err(SlingError::Io(crate::faults::injected_error(
                    crate::faults::point::MMAP_VALIDATE,
                )))
            }
            Some(crate::faults::FaultAction::Delay(d)) => std::thread::sleep(d),
            Some(_) => {
                return Err(SlingError::CorruptIndex(format!(
                    "injected corruption at {} (node {})",
                    crate::faults::point::MMAP_VALIDATE,
                    v.index()
                )))
            }
        }
        let reads = self.payload.read_entries(&self.map, range, out)?;
        if reads.blocks > 0 {
            KernelCounters::bump_by(&obs::KERNEL.block_decodes, reads.blocks);
            KernelCounters::bump_by(&obs::KERNEL.backend_bytes_read, reads.bytes);
        }
        if !out
            .windows(2)
            .all(|w| in_run_order((w[0].step, w[0].node.0), (w[1].step, w[1].node.0)))
        {
            out.clear();
            return Err(SlingError::CorruptIndex(format!(
                "the run of node {} is not in (step, node) order",
                v.index()
            )));
        }
        Ok(())
    }

    /// The entry payload lives in the page cache, not on this struct's
    /// heap: only the handle and the payload geometry (the block
    /// directory and the v3 global dictionary) count.
    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.payload.heap_bytes()
    }

    /// `madvise(WILLNEED)` the byte ranges holding `H(v)`, so a cold
    /// query faults its pages in with batched readahead instead of one
    /// major fault per range. Advisory only: failures and out-of-range
    /// ids are ignored, and the read path still governs correctness.
    fn prefetch(&self, v: NodeId) {
        if let Ok(range) = checked_range(self, v) {
            self.payload.byte_ranges(range, |bytes| {
                let _ = self
                    .map
                    .advise_range(Advice::WillNeed, bytes.start, bytes.len());
            });
        }
    }
}

/// The query engine: a storage backend plus all query-side metadata
/// (config, correction factors, §5.2 reduction bitmap, §5.3 marks) held
/// **by value**.
///
/// It exposes the full SLING query surface — single-pair,
/// single-source, top-k, joins, batches — with `Result`-returning
/// methods, since the file-backed stores can fail mid-query. All
/// backends return **identical** scores for the same persisted index,
/// and those scores equal the [`SlingIndex`] convenience methods'.
///
/// A long-lived server opens an index once, wraps the engine in an
/// [`std::sync::Arc`], and lets every worker thread query it for the
/// process lifetime: it is `Send + Sync` whenever the store is (both
/// backends are), and queries take `&self`. Each worker keeps its
/// own [`QueryWorkspace`] for every query kind; that is where a
/// §5.2-reduced or §5.3-marked node's effective list is restored, so
/// the hot path shares only immutable state.
pub struct SharedEngine<S: HpStore> {
    store: S,
    config: SlingConfig,
    d: Vec<f64>,
    reduced: Vec<bool>,
    marks: MarkArena,
    stats: BuildStats,
}

impl SharedEngine<MmapHpArena> {
    /// Open a persisted index in any format as an owned mapped engine,
    /// verifying it matches `graph`. Open cost is the header, offset
    /// table and (for `SLNGIDX2`/`SLNGIDX3`) block directory validation
    /// plus the `O(n)` query-side metadata; the entry payload stays in
    /// the page cache and is read on demand, one checked run at a time.
    pub fn open_mmap(
        graph: &DiGraph,
        path: impl AsRef<Path>,
    ) -> Result<SharedEngine<MmapHpArena>, SlingError> {
        let file = std::fs::File::open(path)?;
        // SAFETY: the standard memmap contract — the caller must not
        // truncate the index file while the arena is alive. Concurrent
        // *content* corruption is tolerated: every read is checked and
        // errors surface as SlingError.
        let map = unsafe { Mmap::map(&file) }?;
        let meta = decode_meta(&map)?;
        meta.check_graph(graph)?;
        Ok(SharedEngine {
            store: MmapHpArena {
                offsets_base: meta.offsets_base,
                payload: meta.payload,
                map,
            },
            config: meta.config,
            d: meta.d,
            reduced: meta.reduced,
            marks: meta.marks,
            stats: meta.stats,
        })
    }

    /// [`SharedEngine::open_mmap`], which opens every format. Kept only
    /// because `perfbench/` names it.
    pub fn open_mmap_compressed(
        graph: &DiGraph,
        path: impl AsRef<Path>,
    ) -> Result<SharedEngine<MmapHpArena>, SlingError> {
        Self::open_mmap(graph, path)
    }
}

/// Where [`SharedEngine::open`] keeps an index's entry payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Residency {
    /// Decode the whole payload, in any format, into an [`HpArena`].
    Mem,
    /// Map the file, in any format, and read entries out of the page
    /// cache ([`MmapHpArena`]). Only the `O(n)` metadata is resident.
    Mapped,
}

impl SharedEngine<IndexStore> {
    /// Open a persisted index in any format, verifying it matches
    /// `graph` — the one opener for callers that choose the residency
    /// at run time. Both residencies read the payload through the same
    /// reader, so they accept the same files and answer alike.
    pub fn open(
        graph: &DiGraph,
        path: impl AsRef<Path>,
        residency: Residency,
    ) -> Result<SharedEngine<IndexStore>, SlingError> {
        Ok(match residency {
            Residency::Mem => SlingIndex::load(graph, path)?
                .into_shared_engine()
                .map_store(IndexStore::Mem),
            Residency::Mapped => {
                SharedEngine::open_mmap(graph, path)?.map_store(IndexStore::Mapped)
            }
        })
    }
}

impl From<SlingIndex> for SharedEngine<HpArena> {
    /// Consume an in-memory index into an owned engine over its arena.
    fn from(index: SlingIndex) -> Self {
        SharedEngine {
            store: index.hp,
            config: index.config,
            d: index.d,
            reduced: index.reduced,
            marks: index.marks,
            stats: index.stats,
        }
    }
}

impl<S: HpStore> SharedEngine<S> {
    /// The same engine over `wrap(store)`: the metadata moves across
    /// unchanged.
    fn map_store<T: HpStore>(self, wrap: impl FnOnce(S) -> T) -> SharedEngine<T> {
        SharedEngine {
            store: wrap(self.store),
            config: self.config,
            d: self.d,
            reduced: self.reduced,
            marks: self.marks,
            stats: self.stats,
        }
    }

    pub(crate) fn engine_ref(&self) -> EngineRef<'_, S> {
        EngineRef {
            store: &self.store,
            config: &self.config,
            d: &self.d,
            reduced: &self.reduced,
            marks: &self.marks,
        }
    }

    /// The backing store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &SlingConfig {
        &self.config
    }

    /// Build statistics recorded in the index.
    pub fn stats(&self) -> BuildStats {
        self.stats
    }

    /// Number of nodes of the indexed graph.
    pub fn num_nodes(&self) -> usize {
        self.reduced.len()
    }

    /// Heap-resident bytes: store + query-side metadata.
    pub fn resident_bytes(&self) -> usize {
        self.store.resident_bytes()
            + self.d.len() * 8
            + self.reduced.len()
            + self.marks.resident_bytes()
    }

    fn check_pair(&self, u: NodeId, v: NodeId) -> Result<(), SlingError> {
        let e = self.engine_ref();
        e.check_node(u)?;
        e.check_node(v)
    }

    /// Single-pair SimRank estimate `s̃(u, v)` (Algorithm 3).
    pub fn single_pair(&self, graph: &DiGraph, u: NodeId, v: NodeId) -> Result<f64, SlingError> {
        let mut ws = QueryWorkspace::new();
        self.single_pair_with(graph, &mut ws, u, v)
    }

    /// Single-pair query reusing caller-provided buffers — the server
    /// workers' hot path.
    pub fn single_pair_with(
        &self,
        graph: &DiGraph,
        ws: &mut QueryWorkspace,
        u: NodeId,
        v: NodeId,
    ) -> Result<f64, SlingError> {
        self.check_pair(u, v)?;
        single_pair_core(self.engine_ref(), graph, ws, u, v)
    }

    /// Single-pair query through the **linear-merge oracle**: the same
    /// effective lists as [`SharedEngine::single_pair_with`], merged
    /// without the galloping dispatch. The equivalence suites pin
    /// `single_pair_with` to it, bit for bit, on every backend.
    pub fn single_pair_materialized_with(
        &self,
        graph: &DiGraph,
        ws: &mut QueryWorkspace,
        u: NodeId,
        v: NodeId,
    ) -> Result<f64, SlingError> {
        self.check_pair(u, v)?;
        crate::single_pair::single_pair_materialized_core(self.engine_ref(), graph, ws, u, v)
    }

    /// Single-source query from `u` (Algorithm 6).
    pub fn single_source(&self, graph: &DiGraph, u: NodeId) -> Result<Vec<f64>, SlingError> {
        let mut ws = QueryWorkspace::new();
        let mut out = Vec::new();
        self.single_source_with(graph, &mut ws, u, &mut out)?;
        Ok(out)
    }

    /// Single-source query into caller-provided buffers; allocation-free
    /// after warm-up on every backend.
    pub fn single_source_with(
        &self,
        graph: &DiGraph,
        ws: &mut QueryWorkspace,
        u: NodeId,
        out: &mut Vec<f64>,
    ) -> Result<(), SlingError> {
        self.engine_ref().check_node(u)?;
        single_source_core(self.engine_ref(), graph, ws, u, out)
    }

    /// Algorithm 6 with early termination (see
    /// [`SlingIndex::single_source_truncated`]). Returns the residual
    /// bound that was dropped.
    pub fn single_source_truncated(
        &self,
        graph: &DiGraph,
        ws: &mut QueryWorkspace,
        u: NodeId,
        slack: f64,
        out: &mut Vec<f64>,
    ) -> Result<f64, SlingError> {
        self.engine_ref().check_node(u)?;
        single_source_truncated_core(self.engine_ref(), graph, ws, u, slack, out)
    }

    /// Top-k most similar nodes to `u` (excluding `u`), heap-selected.
    pub fn top_k(
        &self,
        graph: &DiGraph,
        u: NodeId,
        k: usize,
    ) -> Result<Vec<(NodeId, f64)>, SlingError> {
        let mut ws = QueryWorkspace::new();
        let mut scores = Vec::new();
        self.top_k_with(graph, &mut ws, &mut scores, u, k)
    }

    /// Top-k reusing caller-provided buffers. `scores` holds the full
    /// clamped Algorithm-6 vector afterwards, exactly as
    /// [`SharedEngine::single_source_with`] leaves it. The selection
    /// visits only the `t` nodes the query reached, in `O(t log k)`, and
    /// answers bit-identically to [`crate::topk::select_top_k`] over
    /// `scores`; sizing `scores` to `n` zeros is the one `O(n)` pass.
    pub fn top_k_with(
        &self,
        graph: &DiGraph,
        ws: &mut QueryWorkspace,
        scores: &mut Vec<f64>,
        u: NodeId,
        k: usize,
    ) -> Result<Vec<(NodeId, f64)>, SlingError> {
        self.engine_ref().check_node(u)?;
        top_k_core(self.engine_ref(), graph, ws, scores, u, k, 0.0)
    }

    /// All unordered pairs with `s̃(u, v) ≥ tau` (see
    /// [`SlingIndex::threshold_join`]).
    pub fn threshold_join(
        &self,
        graph: &DiGraph,
        tau: f64,
        strategy: JoinStrategy,
    ) -> Result<Vec<JoinPair>, SlingError> {
        threshold_join_core(self.engine_ref(), graph, tau, strategy)
    }
}

impl<S: HpStore + Sync> SharedEngine<S> {
    /// Evaluate a batch of single-pair queries on `threads` workers
    /// (results positionally aligned with `pairs`).
    pub fn batch_single_pair(
        &self,
        graph: &DiGraph,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
    ) -> Result<Vec<f64>, SlingError> {
        for &(u, v) in pairs {
            self.check_pair(u, v)?;
        }
        crate::batch::batch_single_pair_core(self.engine_ref(), graph, pairs, threads)
    }

    /// Evaluate single-source queries from every node in `sources` on
    /// `threads` workers.
    pub fn batch_single_source(
        &self,
        graph: &DiGraph,
        sources: &[NodeId],
        threads: usize,
    ) -> Result<Vec<Vec<f64>>, SlingError> {
        for &u in sources {
            self.engine_ref().check_node(u)?;
        }
        crate::batch::batch_single_source_core(self.engine_ref(), graph, sources, threads)
    }
}

impl SlingIndex {
    /// Consume the index into an owned, `Arc`-shareable engine over its
    /// in-memory arena (see [`SharedEngine`]).
    pub fn into_shared_engine(self) -> SharedEngine<HpArena> {
        SharedEngine::from(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SlingConfig;
    use sling_graph::generators::{barabasi_albert, two_cliques_bridge};
    use std::path::PathBuf;

    const C: f64 = 0.6;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sling_store_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("index.slng")
    }

    fn cfg() -> SlingConfig {
        SlingConfig::from_epsilon(C, 0.1)
            .with_seed(13)
            .with_enhancement(true)
    }

    /// Every backend returns the arena's run entry for entry: mapped v1,
    /// and v2 and v3 with blocks sized so typical runs sit inside one
    /// block while some straddle a boundary, so both block read paths run.
    #[test]
    fn arena_and_mmap_stores_agree_entrywise() {
        let g = barabasi_albert(160, 3, 9).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let (v1, v2, v3) = (
            tmp("entrywise_v1"),
            tmp("entrywise_v2"),
            tmp("entrywise_v3"),
        );
        idx.save(&v1).unwrap();
        let opts = crate::codec::CompressOptions {
            block_entries: 512,
            quantize_values: false,
        };
        idx.save_v2(&v2, &opts).unwrap();
        idx.save_v3(&v3, &opts).unwrap();
        let [mmap, c2, c3] = [&v1, &v2, &v3].map(|p| SharedEngine::open_mmap(&g, p).unwrap());
        let stores: [(&str, &dyn HpStore); 3] =
            [("v1", mmap.store()), ("v2", c2.store()), ("v3", c3.store())];
        let (mut want, mut got) = (Vec::new(), Vec::new());
        let (mut saw_inside, mut saw_straddle) = (false, false);
        for (label, store) in stores {
            assert_eq!(store.num_nodes(), HpStore::num_nodes(&idx.hp), "{label}");
            assert_eq!(
                store.total_entries(),
                HpStore::total_entries(&idx.hp),
                "{label}"
            );
        }
        for v in g.nodes() {
            let range = HpStore::range(&idx.hp, v);
            if !range.is_empty() {
                if range.start / 512 == (range.end - 1) / 512 {
                    saw_inside = true;
                } else {
                    saw_straddle = true;
                }
            }
            idx.hp.entries_into(v, &mut want).unwrap();
            assert_eq!(want.len(), range.len());
            for (label, store) in stores {
                assert_eq!(store.range(v), range, "{label} range of {v:?}");
                store.entries_into(v, &mut got).unwrap();
                assert_eq!(got, want, "H({v:?}) differs between arena and {label}");
            }
        }
        assert!(saw_inside, "no run sat inside a single block");
        assert!(saw_straddle, "no run straddled a block boundary");
        for p in [&v1, &v2, &v3] {
            std::fs::remove_file(p).ok();
        }
    }

    /// A node id past the store is `NodeOutOfRange` on every backend and
    /// through the enum store, never a panic or an empty run.
    #[test]
    fn entries_into_rejects_node_ids_past_the_store() {
        let g = barabasi_albert(120, 3, 8).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let (v1, v2, v3) = (tmp("oor_v1"), tmp("oor_v2"), tmp("oor_v3"));
        idx.save(&v1).unwrap();
        let opts = crate::codec::CompressOptions::default();
        idx.save_v2(&v2, &opts).unwrap();
        idx.save_v3(&v3, &opts).unwrap();
        let [mmap, c2, c3] = [&v1, &v2, &v3].map(|p| SharedEngine::open_mmap(&g, p).unwrap());
        let engines = [
            SharedEngine::open(&g, &v1, Residency::Mapped).unwrap(),
            SharedEngine::open(&g, &v3, Residency::Mapped).unwrap(),
            SharedEngine::open(&g, &v3, Residency::Mem).unwrap(),
        ];
        let stores: [(&str, &dyn HpStore); 7] = [
            ("arena", &idx.hp),
            ("mapped v1", mmap.store()),
            ("mapped v2", c2.store()),
            ("mapped v3", c3.store()),
            ("IndexStore::Mapped v1", engines[0].store()),
            ("IndexStore::Mapped v3", engines[1].store()),
            ("IndexStore::Mem", engines[2].store()),
        ];
        let n = g.num_nodes() as u32;
        let mut out = vec![HpEntry::new(0, NodeId(0), 0.5)];
        for (label, store) in stores {
            for v in [n, n + 1, u32::MAX] {
                let got = store.entries_into(NodeId(v), &mut out);
                assert!(
                    matches!(got, Err(SlingError::NodeOutOfRange { node, n: nn }) if node == v && nn == n),
                    "{label} node {v}: {got:?}"
                );
            }
            store.entries_into(NodeId(n - 1), &mut out).unwrap();
        }
        for p in [&v1, &v2, &v3] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn mmap_open_is_metadata_only() {
        let g = barabasi_albert(200, 3, 7).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let path = tmp("o1open");
        let mut bytes = idx.to_bytes();
        // Corrupt the *entry payload* (last 8 bytes = final HP value) with
        // a NaN. A full decode rejects this file; a metadata-only open
        // must accept it — proving open never scans the payload.
        let len = bytes.len();
        bytes[len - 8..].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SlingIndex::from_bytes(&g, &bytes),
            Err(SlingError::CorruptIndex(_))
        ));
        let engine = SharedEngine::open_mmap(&g, &path).unwrap();
        // And the handle holds O(n) metadata, not the O(n/eps) payload.
        assert!(engine.resident_bytes() < idx.resident_bytes());
        assert!(
            HpStore::resident_bytes(engine.store()) < 256,
            "mmap store must not materialize entries"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn engine_from_index_matches_index_queries() {
        let g = two_cliques_bridge(5);
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let engine = SharedEngine::from(idx.clone());
        for u in g.nodes() {
            assert_eq!(
                engine.single_source(&g, u).unwrap(),
                idx.single_source(&g, u)
            );
            for v in g.nodes() {
                assert_eq!(
                    engine.single_pair(&g, u, v).unwrap(),
                    idx.single_pair(&g, u, v)
                );
            }
        }
        assert!(engine.single_pair(&g, NodeId(0), NodeId(99)).is_err());
        assert!(engine.single_source(&g, NodeId(99)).is_err());
    }

    #[test]
    fn mmap_engine_matches_in_memory_exactly() {
        let g = barabasi_albert(150, 2, 3).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let path = tmp("exact");
        idx.save(&path).unwrap();
        let engine = SharedEngine::open_mmap(&g, &path).unwrap();
        for u in [NodeId(0), NodeId(17), NodeId(149)] {
            assert_eq!(
                engine.single_source(&g, u).unwrap(),
                idx.single_source(&g, u)
            );
            assert_eq!(engine.top_k(&g, u, 7).unwrap(), idx.top_k(&g, u, 7));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batch_queries_reject_out_of_range_nodes() {
        let g = two_cliques_bridge(4);
        let engine = SlingIndex::build(&g, &cfg()).unwrap().into_shared_engine();
        assert!(matches!(
            engine.batch_single_pair(&g, &[(NodeId(0), NodeId(9999))], 1),
            Err(SlingError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            engine.batch_single_source(&g, &[NodeId(1), NodeId(9999)], 2),
            Err(SlingError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn mmap_rejects_wrong_graph() {
        let g = two_cliques_bridge(4);
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let path = tmp("wronggraph");
        idx.save(&path).unwrap();
        let other = two_cliques_bridge(5);
        assert!(matches!(
            SharedEngine::open_mmap(&other, &path),
            Err(SlingError::GraphMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shared_engine_matches_index_and_is_arc_shareable() {
        let g = barabasi_albert(120, 3, 19).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let path = tmp("shared");
        idx.save(&path).unwrap();
        let shared = std::sync::Arc::new(SharedEngine::open_mmap(&g, &path).unwrap());
        assert_eq!(shared.num_nodes(), g.num_nodes());
        assert_eq!(shared.stats().entries_stored, idx.stats().entries_stored);
        // The engine and the index agree bit-for-bit — from multiple
        // threads sharing one Arc.
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let shared = std::sync::Arc::clone(&shared);
                let (g, idx) = (&g, &idx);
                s.spawn(move || {
                    let mut ws = QueryWorkspace::new();
                    for i in 0..30u32 {
                        let (u, v) = (NodeId((t * 31 + i) % 120), NodeId((i * 7 + 1) % 120));
                        let want = idx.single_pair(g, u, v);
                        assert_eq!(shared.single_pair_with(g, &mut ws, u, v).unwrap(), want);
                    }
                    let u = NodeId(t % 120);
                    assert_eq!(shared.single_source(g, u).unwrap(), idx.single_source(g, u));
                    assert_eq!(shared.top_k(g, u, 5).unwrap(), idx.top_k(g, u, 5));
                });
            }
        });
        // Batches go through the same shared-engine API.
        let pairs = vec![(NodeId(0), NodeId(1)), (NodeId(5), NodeId(80))];
        assert_eq!(
            shared.batch_single_pair(&g, &pairs, 2).unwrap(),
            idx.batch_single_pair(&g, &pairs, 1)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn prefetch_is_advisory_and_harmless_everywhere() {
        let g = two_cliques_bridge(4);
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let path = tmp("prefetch");
        idx.save(&path).unwrap();
        let engine = SharedEngine::open_mmap(&g, &path).unwrap();
        for v in g.nodes() {
            // Mmap override and the in-memory default no-op.
            engine.store().prefetch(v);
            HpStore::prefetch(&idx.hp, v);
        }
        // Out-of-range ids must not panic (advisory path, no checks owed).
        engine.store().prefetch(NodeId(10_000));
        // Results unchanged after prefetching.
        assert_eq!(
            engine.single_pair(&g, NodeId(0), NodeId(1)).unwrap(),
            idx.single_pair(&g, NodeId(0), NodeId(1))
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compressed_mmap_agrees_entrywise_and_bitwise() {
        let g = barabasi_albert(140, 3, 23).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let path = tmp("compressed");
        // Tiny blocks so runs straddle block boundaries.
        let opts = crate::codec::CompressOptions {
            block_entries: 16,
            quantize_values: false,
        };
        idx.save_v2(&path, &opts).unwrap();
        let engine = SharedEngine::open_mmap(&g, &path).unwrap();
        assert!(crate::format::inspect_file(&path).unwrap().values_exact);
        assert_eq!(
            engine.store().num_blocks(),
            idx.hp.total_entries().div_ceil(16)
        );
        let mut a = Vec::new();
        let mut b = Vec::new();
        for v in g.nodes() {
            assert_eq!(
                HpStore::range(&idx.hp, v),
                HpStore::range(engine.store(), v)
            );
            idx.hp.entries_into(v, &mut a).unwrap();
            engine.store().entries_into(v, &mut b).unwrap();
            assert_eq!(a, b, "H({v:?}) differs between arena and compressed mmap");
        }
        // Full query surface, bit-identical.
        for u in [NodeId(0), NodeId(71), NodeId(139)] {
            assert_eq!(
                engine.single_source(&g, u).unwrap(),
                idx.single_source(&g, u)
            );
            assert_eq!(engine.top_k(&g, u, 6).unwrap(), idx.top_k(&g, u, 6));
        }
        // O(n) resident: the block directory, far below the arena.
        assert!(engine.store().resident_bytes() < idx.hp.resident_bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compressed_mmap_quantized_is_close_and_flagged() {
        let g = barabasi_albert(120, 3, 5).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let path = tmp("quantized");
        let opts = crate::codec::CompressOptions {
            quantize_values: true,
            ..Default::default()
        };
        idx.save_v2(&path, &opts).unwrap();
        let engine = SharedEngine::open_mmap(&g, &path).unwrap();
        assert!(!crate::format::inspect_file(&path).unwrap().values_exact);
        for (u, v) in [(0u32, 1u32), (5, 80), (119, 3)] {
            let want = idx.single_pair(&g, NodeId(u), NodeId(v));
            let got = engine.single_pair(&g, NodeId(u), NodeId(v)).unwrap();
            // Quantization error is orders of magnitude below eps.
            assert!((want - got).abs() < 1e-7, "({u},{v}): {want} vs {got}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compressed_mmap_answers_concurrent_queries_bit_identically() {
        let g = barabasi_albert(100, 3, 11).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let path = tmp("concurrent_compressed");
        idx.save_v2(&path, &crate::codec::CompressOptions::default())
            .unwrap();
        let engine = std::sync::Arc::new(SharedEngine::open_mmap(&g, &path).unwrap());
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let engine = std::sync::Arc::clone(&engine);
                let (g, idx) = (&g, &idx);
                s.spawn(move || {
                    let mut ws = QueryWorkspace::new();
                    for i in 0..40u32 {
                        let (u, v) = (NodeId((t * 17 + i) % 100), NodeId((i * 3 + 1) % 100));
                        assert_eq!(
                            engine.single_pair_with(g, &mut ws, u, v).unwrap(),
                            idx.single_pair(g, u, v)
                        );
                    }
                });
            }
        });
        // Prefetch stays advisory and harmless.
        engine.store().prefetch(NodeId(3));
        engine.store().prefetch(NodeId(99_999));
        std::fs::remove_file(&path).ok();
    }

    /// A mapped arena's resident figure is exactly its handle, its block
    /// directory and, for `SLNGIDX3`, its global dictionary, each sized
    /// from the file's own header.
    #[test]
    fn compressed_resident_bytes_sum_their_parts() {
        let g = barabasi_albert(150, 3, 17).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let opts = crate::codec::CompressOptions {
            block_entries: 64,
            quantize_values: false,
        };
        for (tag, bytes) in [
            ("v2", idx.to_bytes_v2(&opts)),
            ("v3", idx.to_bytes_v3(&opts)),
        ] {
            let path = tmp(&format!("resident_{tag}"));
            std::fs::write(&path, &bytes).unwrap();
            let crate::format::PayloadLayout::Blocked(geo) =
                decode_meta(&bytes).unwrap().payload.layout
            else {
                panic!("{tag} is not blocked");
            };
            let dict = geo.global_dict.map_or(0, |d| d.len());
            assert_eq!(dict > 0, tag == "v3", "{tag} dictionary of {dict}");
            let engine = SharedEngine::open_mmap(&g, &path).unwrap();
            assert_eq!(
                HpStore::resident_bytes(engine.store()),
                std::mem::size_of::<MmapHpArena>() + geo.block_offsets.len() * 8 + dict * 8,
                "{tag}"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    /// A NaN over the last v1 value fails exactly the owning node's run
    /// read, and every query that reads that node from a mapped engine.
    #[test]
    fn mmap_entries_into_validates_the_run() {
        let g = barabasi_albert(80, 3, 3).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let path = tmp("zc_corrupt");
        let mut bytes = idx.to_bytes();
        let len = bytes.len();
        bytes[len - 8..].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let engine = SharedEngine::open_mmap(&g, &path).unwrap();
        let mut scratch = Vec::new();
        let rejected: Vec<NodeId> = g
            .nodes()
            .filter(|&v| engine.store().entries_into(v, &mut scratch).is_err())
            .collect();
        assert_eq!(
            rejected.len(),
            1,
            "exactly the poisoned run must be rejected"
        );
        let bad = rejected[0];
        let other = NodeId((bad.0 + 1) % g.num_nodes() as u32);
        let mut ws = QueryWorkspace::new();
        for (u, v) in [(bad, other), (other, bad)] {
            assert!(
                matches!(
                    engine.single_pair_with(&g, &mut ws, u, v),
                    Err(SlingError::CorruptIndex(_))
                ),
                "single_pair_with({u:?},{v:?})"
            );
        }
        let mut scores = Vec::new();
        assert!(matches!(
            engine.top_k_with(&g, &mut ws, &mut scores, bad, 5),
            Err(SlingError::CorruptIndex(_))
        ));
        // The other nodes still answer.
        engine
            .top_k_with(&g, &mut ws, &mut scores, other, 5)
            .unwrap();
        std::fs::remove_file(&path).ok();
    }

    /// Two same-step entries of one node's run swapped (node ids and
    /// values), in a v1 image and in a one-entry-per-block v3 image: the
    /// eager decode refuses both files, and the mapped engine opens them
    /// but refuses every query that reads that node, while every other
    /// node answers bit-identically to the intact file.
    #[test]
    fn a_run_out_of_order_is_refused_by_both_residencies() {
        let g = barabasi_albert(120, 3, 8).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let (bad, i) = g
            .nodes()
            .find_map(|v| {
                let run = idx.hp.range(v);
                (run.start + 1..run.end)
                    .find(|&i| idx.hp.steps[i - 1] == idx.hp.steps[i])
                    .map(|i| (v, i))
            })
            .expect("a run with two entries at one step");
        let mut swapped = idx.clone();
        swapped.hp.nodes.swap(i - 1, i);
        swapped.hp.values.swap(i - 1, i);
        let one_per_block = crate::codec::CompressOptions {
            block_entries: 1,
            quantize_values: false,
        };
        let images = [
            ("v1", swapped.to_bytes(), idx.to_bytes()),
            (
                "v3",
                swapped.to_bytes_v3(&one_per_block),
                idx.to_bytes_v3(&one_per_block),
            ),
        ];
        let refused = |r: Result<(), SlingError>| matches!(r, Err(SlingError::CorruptIndex(_)));
        for (label, bytes, intact) in images {
            let (path, intact_path) = (
                tmp(&format!("swap_{label}")),
                tmp(&format!("intact_{label}")),
            );
            std::fs::write(&path, &bytes).unwrap();
            std::fs::write(&intact_path, &intact).unwrap();
            assert!(
                refused(SlingIndex::from_bytes(&g, &bytes).map(drop)),
                "{label}"
            );
            assert!(
                refused(SharedEngine::open(&g, &path, Residency::Mem).map(drop)),
                "{label}"
            );
            let mapped = SharedEngine::open(&g, &path, Residency::Mapped).unwrap();
            let want = SharedEngine::open(&g, &intact_path, Residency::Mapped).unwrap();
            assert!(refused(mapped.single_source(&g, bad).map(drop)), "{label}");
            assert!(refused(mapped.top_k(&g, bad, 5).map(drop)), "{label}");
            for v in g.nodes().filter(|&v| v != bad) {
                for (x, y) in [(bad, v), (v, bad)] {
                    assert!(
                        refused(mapped.single_pair(&g, x, y).map(drop)),
                        "{label} ({x:?}, {y:?})"
                    );
                }
                let other = NodeId((v.0 + 7) % 120);
                if other != bad {
                    assert_eq!(
                        mapped.single_pair(&g, v, other).unwrap().to_bits(),
                        want.single_pair(&g, v, other).unwrap().to_bits(),
                        "{label} ({v:?}, {other:?})"
                    );
                }
                let bits = |s: Vec<f64>| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(mapped.single_source(&g, v).unwrap()),
                    bits(want.single_source(&g, v).unwrap()),
                    "{label} {v:?}"
                );
                assert_eq!(
                    mapped.top_k(&g, v, 5).unwrap(),
                    want.top_k(&g, v, 5).unwrap(),
                    "{label} {v:?}"
                );
            }
            std::fs::remove_file(&path).ok();
            std::fs::remove_file(&intact_path).ok();
        }
    }

    /// An engine restores a §5.2-reduced node into the caller's
    /// workspace buffer, as the bare index does, so the buffer keeps the
    /// capacity of the restored list for the next query to reuse.
    #[test]
    fn engine_restores_leave_their_lists_capacity_in_the_workspace() {
        let g = barabasi_albert(150, 3, 31).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let mut reduced = g.nodes().filter(|&x| idx.is_reduced(x));
        let (u, v) = (reduced.next().unwrap(), reduced.next().unwrap());
        let mut lists = QueryWorkspace::new();
        idx.effective_entries(&g, u, &mut lists, crate::index::Buf::A);
        idx.effective_entries(&g, v, &mut lists, crate::index::Buf::B);
        let (len_u, len_v) = (lists.buf_a.len(), lists.buf_b.len());
        assert!(len_u > 0 && len_v > 0);
        let engine = SharedEngine::from(idx.clone());

        let mut ws = QueryWorkspace::new();
        let got = engine.single_pair_with(&g, &mut ws, u, v).unwrap();
        assert_eq!(got.to_bits(), idx.single_pair(&g, u, v).to_bits());
        assert!(
            ws.buf_a.capacity() >= len_u,
            "buf_a {}",
            ws.buf_a.capacity()
        );
        assert!(
            ws.buf_b.capacity() >= len_v,
            "buf_b {}",
            ws.buf_b.capacity()
        );

        let (mut ws, mut scores) = (QueryWorkspace::new(), Vec::new());
        let top = engine.top_k_with(&g, &mut ws, &mut scores, u, 5).unwrap();
        assert_eq!(top, idx.top_k(&g, u, 5));
        let cap = ws.buf_a.capacity();
        assert!(cap >= len_u, "buf_a {cap}");
    }

    #[test]
    fn open_keeps_mapped_files_out_of_memory_and_rejects_bad_input() {
        let g = barabasi_albert(120, 3, 8).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let (v1, v3) = (tmp("open_v1"), tmp("open_v3"));
        idx.save(&v1).unwrap();
        idx.save_v3(&v3, &crate::codec::CompressOptions::default())
            .unwrap();
        for path in [&v1, &v3] {
            let mapped = SharedEngine::open(&g, path, Residency::Mapped).unwrap();
            let mem = SharedEngine::open(&g, path, Residency::Mem).unwrap();
            assert!(mapped.resident_bytes() < mem.resident_bytes(), "{path:?}");
        }
        // Wrong graph, a short file, and an unknown magic are errors.
        let other = two_cliques_bridge(5);
        for residency in [Residency::Mem, Residency::Mapped] {
            assert!(matches!(
                SharedEngine::open(&other, &v3, residency),
                Err(SlingError::GraphMismatch { .. })
            ));
        }
        let junk = tmp("open_junk");
        for bytes in [&b"SLNG"[..], b"SLNGIDX9 and then some"] {
            std::fs::write(&junk, bytes).unwrap();
            assert!(matches!(
                SharedEngine::open(&g, &junk, Residency::Mapped),
                Err(SlingError::CorruptIndex(_))
            ));
        }
        for p in [&v1, &v3, &junk] {
            std::fs::remove_file(p).ok();
        }
    }
}
