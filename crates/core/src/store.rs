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
//! sets — and three backends implement it:
//!
//! * [`crate::hp::HpArena`] — the in-memory parallel-array arena;
//! * [`MmapHpArena`] — a memory-mapped view of a persisted `SLNGIDX1`
//!   index file: opening validates the header and the offset table but
//!   never decodes the entry payload, so open cost is independent of
//!   index size and a query decodes and checks its runs straight out of
//!   the page cache;
//! * [`CompressedMmapArena`] — the same mapped view over the
//!   block-compressed `SLNGIDX2`/`SLNGIDX3` files, reading each run out
//!   of the blocks it touches in one validating pass per block.
//!
//! Every backend answers a read the same way: [`HpStore::entries_into`]
//! copies one node's validated run into a caller-owned buffer, and the
//! query kernels consume that `&[HpEntry]`.
//!
//! The two mapped backends are the one out-of-core path: the OS page
//! cache is the buffer pool, and only the `O(n)` metadata is resident.
//! [`SharedEngine::open`] is the one opener that picks a backend at run
//! time: [`Residency::Mem`] decodes any format into an arena, and
//! [`Residency::Mapped`] sniffs the file header and maps it with the
//! backend for its format. Either way the result is an engine over the
//! enum-dispatched [`IndexStore`].
//!
//! [`SharedEngine`] is the one query engine. It bundles a store with the
//! query-side metadata (config, correction factors, §5.2 reduction
//! bitmap, §5.3 marks) and exposes the full query API — single-pair,
//! single-source, top-k, joins, batches — with identical scores across
//! backends: same entries, same merge order, same floating-point
//! arithmetic. Each query reads its endpoints' effective lists into the
//! caller's [`QueryWorkspace`], restoring a §5.2-reduced or §5.3-marked
//! node there, the same path the bare [`SlingIndex`] takes.

// The mapped backends read untrusted bytes at query time: a corrupt or
// truncated file must be a `SlingError`, never a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::io::Read;
use std::ops::Range;
use std::path::Path;

use memmap2::{Advice, Mmap};
use sling_graph::{DiGraph, NodeId};

use crate::codec::block::is_probability;
use crate::codec::{expected_block_len, read_block_run};
use crate::config::SlingConfig;
use crate::enhance::MarkArena;
use crate::error::SlingError;
use crate::format::{decode_meta, BlockedGeometry, FormatVersion, PayloadGeometry};
use crate::hp::{HpArena, HpEntry};
use crate::index::{BuildStats, QueryWorkspace, SlingIndex};
use crate::join::{threshold_join_core, JoinPair, JoinStrategy};
use crate::obs::{self, KernelCounters};
use crate::single_pair::single_pair_core;
use crate::single_source::{single_source_core, SingleSourceWorkspace};
use crate::topk::{single_source_truncated_core, top_k_core};

/// Read interface to a packed hitting-probability store.
///
/// Entry indices are *global*: node `v`'s run occupies `range(v)` of a
/// conceptual array of `total_entries()` entries sorted by
/// `(owner, step, node)`. [`HpStore::entries_into`] is the one way a
/// query reads a run. Backends that read from untrusted bytes (the
/// mapped ones) must bound-check every decoded entry
/// (`node < num_nodes`, a finite probability value), so it returns
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

/// Reject payload values that cannot be hitting probabilities. The
/// out-of-core backends decode entries from untrusted bytes at query
/// time; letting a non-finite value through would poison downstream
/// score sorts (which rightly assume finite scores) with a panic instead
/// of an error.
fn check_value(i: usize, value: f64) -> Result<(), SlingError> {
    if !is_probability(value) {
        return Err(SlingError::CorruptIndex(format!(
            "entry {i} holds a non-probability HP value {value}"
        )));
    }
    Ok(())
}

/// The store of an engine opened by [`SharedEngine::open`]: one of the
/// three backends, chosen at open time and dispatched once per store
/// call. Every variant answers bit-identically for a lossless file.
pub enum IndexStore {
    /// The decoded in-memory arena ([`Residency::Mem`]).
    Mem(HpArena),
    /// A mapped raw `SLNGIDX1` file.
    Mmap(MmapHpArena),
    /// A mapped block-compressed `SLNGIDX2`/`SLNGIDX3` file.
    Compressed(CompressedMmapArena),
}

/// Run `$body` with `$s` bound to the concrete store of an
/// [`IndexStore`].
macro_rules! on_store {
    ($store:expr, |$s:ident| $body:expr) => {
        match $store {
            IndexStore::Mem($s) => $body,
            IndexStore::Mmap($s) => $body,
            IndexStore::Compressed($s) => $body,
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

/// Memory-mapped view of a persisted `SLNGIDX1` index file.
///
/// `open` maps the file and validates the header, metadata, and offset
/// table — it never decodes the entry payload, so the cost is independent
/// of the number of stored entries and no `HpArena` is materialized.
/// Entries are decoded on demand, one `(step, node, value)` at a time,
/// straight from the mapping; repeated queries hit the page cache. Every
/// decoded entry is bound-checked so a file corrupted *after* open still
/// surfaces as [`SlingError::CorruptIndex`], never a panic.
pub struct MmapHpArena {
    map: Mmap,
    num_nodes: usize,
    entries: usize,
    /// Byte offset of the `(n + 1)`-entry `u64` HP offset table.
    offsets_base: usize,
    steps_base: usize,
    nodes_base: usize,
    values_base: usize,
}

impl MmapHpArena {
    /// Map `path` and validate its structure (header + offset table
    /// only). Returns the arena plus the decoded query-side metadata.
    pub(crate) fn open_with_meta(
        path: impl AsRef<Path>,
    ) -> Result<(MmapHpArena, crate::format::DecodedMeta), SlingError> {
        let file = std::fs::File::open(path)?;
        // SAFETY: the standard memmap contract — the caller must not
        // truncate the index file while the arena is alive. Concurrent
        // *content* corruption is tolerated: reads are bound-checked and
        // decode errors surface as SlingError.
        let map = unsafe { Mmap::map(&file) }?;
        let meta = decode_meta(&map)?;
        let &PayloadGeometry::Raw {
            steps_base,
            nodes_base,
            values_base,
        } = &meta.payload
        else {
            return Err(SlingError::CorruptIndex(
                "block-compressed index: MmapHpArena maps SLNGIDX1 files only; open it \
                 with CompressedMmapArena, or with SharedEngine::open, which picks the \
                 backend from the header"
                    .to_string(),
            ));
        };
        let arena = MmapHpArena {
            num_nodes: meta.num_nodes,
            entries: meta.entries,
            offsets_base: meta.offsets_base,
            steps_base,
            nodes_base,
            values_base,
            map,
        };
        Ok((arena, meta))
    }

    /// Map and validate `path` without retaining the metadata. Prefer
    /// [`SharedEngine::open_mmap`], which keeps the correction factors and
    /// reduction bitmap needed to answer queries.
    pub fn open(path: impl AsRef<Path>) -> Result<MmapHpArena, SlingError> {
        Ok(Self::open_with_meta(path)?.0)
    }

    #[inline]
    fn read_u64(&self, at: usize) -> u64 {
        // In bounds by construction: decode_meta validated that every
        // section lies inside the mapping.
        u64::from_le_bytes(le_bytes(&self.map, at))
    }

    #[inline]
    fn offset(&self, i: usize) -> usize {
        self.read_u64(self.offsets_base + i * 8) as usize
    }

    /// Decode entry `i`, bound-checking the node id against `n`.
    #[inline]
    fn decode_entry(&self, i: usize) -> Result<HpEntry, SlingError> {
        // Hard bound, not a debug_assert: the offset table lives in the
        // mapping and can mutate after open, and an index past `entries`
        // must surface as CorruptIndex rather than a slice panic.
        if i >= self.entries {
            return Err(SlingError::CorruptIndex(format!(
                "mmap entry index {i} past the {} stored entries",
                self.entries
            )));
        }
        let step = u16::from_le_bytes(le_bytes(&self.map, self.steps_base + i * 2));
        let node = u32::from_le_bytes(le_bytes(&self.map, self.nodes_base + i * 4));
        if node as usize >= self.num_nodes {
            return Err(SlingError::CorruptIndex(format!(
                "mmap entry {i} references node {node} past n = {}",
                self.num_nodes
            )));
        }
        let value = f64::from_bits(self.read_u64(self.values_base + i * 8));
        check_value(i, value)?;
        Ok(HpEntry::new(step, NodeId(node), value))
    }

    /// Bytes of the underlying mapping (for space reports).
    pub fn mapped_bytes(&self) -> usize {
        self.map.len()
    }

    /// `madvise(WILLNEED)` the byte ranges holding `H(v)`'s three payload
    /// sections, so a cold query faults its entries in with batched
    /// readahead instead of one major fault per section. Advisory only:
    /// alignment is handled inside the mapping and failures (or a range
    /// the offset table has corrupted) are ignored — the bound-checked
    /// decode path still governs correctness.
    pub fn prefetch_entries(&self, v: NodeId) {
        if v.index() >= self.num_nodes {
            return;
        }
        let range = self.range(v);
        if range.start > range.end || range.end > self.entries || range.is_empty() {
            return;
        }
        let count = range.len();
        for (base, width) in [
            (self.steps_base, 2usize),
            (self.nodes_base, 4),
            (self.values_base, 8),
        ] {
            let _ =
                self.map
                    .advise_range(Advice::WillNeed, base + range.start * width, count * width);
        }
    }
}

impl HpStore for MmapHpArena {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    #[inline]
    fn total_entries(&self) -> usize {
        self.entries
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
        out.reserve(range.len());
        for i in range {
            out.push(self.decode_entry(i)?);
        }
        Ok(())
    }

    /// The entry payload lives in the page cache, not on this struct's
    /// heap: only the handle itself counts.
    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }

    fn prefetch(&self, v: NodeId) {
        self.prefetch_entries(v);
    }
}

/// The `N` bytes of `bytes` at `at`, for a fixed-width little-endian
/// read. Callers pass offsets that `decode_meta` validated against the
/// mapping, so the slice is in bounds.
#[inline(always)]
fn le_bytes<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&bytes[at..at + N]);
    out
}

/// Memory-mapped view of a block-compressed `SLNGIDX2`/`SLNGIDX3` index
/// file.
///
/// The compressed sibling of [`MmapHpArena`]: `open` maps the file and
/// validates the header, offset table, and block directory — never the
/// payload — so open cost is independent of the number of stored
/// entries. A query reads a run straight from the page cache with one
/// [`read_block_run`] pass over each block the run touches: the pass
/// validates the whole block (counts, run shapes, node bounds, value
/// range) and keeps only the run's entries, so a file corrupted *after*
/// open still surfaces as [`SlingError::CorruptIndex`], never a panic.
/// Nothing decoded is kept between queries.
///
/// In lossless mode (the default for `sling compact`) queries return
/// scores **bit-identical** to every other backend serving the same
/// index; quantized files answer with ≤ 2⁻³³ value error and report
/// [`CompressedMmapArena::values_exact`]` == false`.
pub struct CompressedMmapArena {
    map: Mmap,
    num_nodes: usize,
    entries: usize,
    /// Byte offset of the `(n + 1)`-entry `u64` HP offset table.
    offsets_base: usize,
    /// Entries per block.
    block_entries: usize,
    /// Byte offset of the first block.
    blocks_base: usize,
    /// Validated block directory (resident, so it cannot be corrupted
    /// under us after open).
    block_offsets: Vec<u64>,
    values_exact: bool,
    /// The resident v3 global value dictionary (`None` for v2 files).
    global_dict: Option<Vec<f64>>,
}

impl CompressedMmapArena {
    /// Map `path` and validate its structure (header + offset table +
    /// block directory only). Returns the arena plus the decoded
    /// query-side metadata.
    pub(crate) fn open_with_meta(
        path: impl AsRef<Path>,
    ) -> Result<(CompressedMmapArena, crate::format::DecodedMeta), SlingError> {
        let file = std::fs::File::open(path)?;
        // SAFETY: the standard memmap contract — the caller must not
        // truncate the index file while the arena is alive. Concurrent
        // *content* corruption is tolerated: every block read is fully
        // validated and errors surface as SlingError.
        let map = unsafe { Mmap::map(&file) }?;
        let mut meta = decode_meta(&map)?;
        let geo = match &mut meta.payload {
            PayloadGeometry::Blocked(geo) => BlockedGeometry {
                block_entries: geo.block_entries,
                blocks_base: geo.blocks_base,
                block_offsets: std::mem::take(&mut geo.block_offsets),
                values_exact: geo.values_exact,
                global_dict: std::mem::take(&mut geo.global_dict),
                aux_bytes: geo.aux_bytes,
            },
            PayloadGeometry::Raw { .. } => {
                return Err(SlingError::CorruptIndex(
                    "SLNGIDX1 index: CompressedMmapArena maps block-compressed files only; \
                     open it with MmapHpArena or SharedEngine::open, or convert it with \
                     `sling compact`"
                        .to_string(),
                ))
            }
        };
        let arena = CompressedMmapArena {
            num_nodes: meta.num_nodes,
            entries: meta.entries,
            offsets_base: meta.offsets_base,
            block_entries: geo.block_entries,
            blocks_base: geo.blocks_base,
            block_offsets: geo.block_offsets,
            values_exact: geo.values_exact,
            global_dict: geo.global_dict,
            map,
        };
        Ok((arena, meta))
    }

    /// Map and validate `path` without retaining the metadata. Prefer
    /// [`SharedEngine::open_mmap_compressed`], which keeps the
    /// correction factors and reduction bitmap needed to answer queries.
    pub fn open(path: impl AsRef<Path>) -> Result<CompressedMmapArena, SlingError> {
        Ok(Self::open_with_meta(path)?.0)
    }

    /// Whether decoded values are bit-identical to the index that was
    /// compacted (false for quantized files).
    pub fn values_exact(&self) -> bool {
        self.values_exact
    }

    /// Number of payload blocks.
    pub fn num_blocks(&self) -> usize {
        self.block_offsets.len() - 1
    }

    /// Bytes of the underlying mapping (for space reports).
    pub fn mapped_bytes(&self) -> usize {
        self.map.len()
    }

    #[inline]
    fn offset(&self, i: usize) -> usize {
        u64::from_le_bytes(le_bytes(&self.map, self.offsets_base + i * 8)) as usize
    }

    /// Append the entries `run` (block-local) of block `b` to `out`,
    /// validating the whole block.
    fn read_block(
        &self,
        b: usize,
        run: Range<usize>,
        out: &mut Vec<HpEntry>,
    ) -> Result<(), SlingError> {
        let expected = expected_block_len(b, self.num_blocks(), self.block_entries, self.entries)?;
        // In bounds by construction: decode_meta validated the directory
        // against the mapping length, and the directory is resident.
        let raw = &self.map[self.blocks_base + self.block_offsets[b] as usize
            ..self.blocks_base + self.block_offsets[b + 1] as usize];
        KernelCounters::bump(&obs::KERNEL.block_decodes);
        KernelCounters::bump_by(&obs::KERNEL.backend_bytes_read, raw.len() as u64);
        read_block_run(
            raw,
            expected,
            self.global_dict.as_deref(),
            self.num_nodes,
            run,
            out,
        )
    }

    /// `madvise(WILLNEED)` the encoded byte range of the blocks holding
    /// `H(v)`, so a cold query faults its pages in with batched
    /// readahead. Advisory only; failures and out-of-range ids are
    /// ignored.
    pub fn prefetch_entries(&self, v: NodeId) {
        if v.index() >= self.num_nodes {
            return;
        }
        let range = self.range(v);
        if range.start > range.end || range.end > self.entries || range.is_empty() {
            return;
        }
        let (b0, b1) = (
            range.start / self.block_entries,
            (range.end - 1) / self.block_entries,
        );
        if b1 >= self.num_blocks() {
            return;
        }
        let lo = self.blocks_base + self.block_offsets[b0] as usize;
        let hi = self.blocks_base + self.block_offsets[b1 + 1] as usize;
        let _ = self.map.advise_range(Advice::WillNeed, lo, hi - lo);
    }
}

impl HpStore for CompressedMmapArena {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    #[inline]
    fn total_entries(&self) -> usize {
        self.entries
    }

    #[inline]
    fn range(&self, v: NodeId) -> Range<usize> {
        let i = v.index();
        self.offset(i)..self.offset(i + 1)
    }

    fn entries_into(&self, v: NodeId, out: &mut Vec<HpEntry>) -> Result<(), SlingError> {
        out.clear();
        let range = checked_range(self, v)?;
        if range.is_empty() {
            return Ok(());
        }
        out.reserve(range.len());
        let be = self.block_entries;
        for b in range.start / be..=(range.end - 1) / be {
            let first = b * be;
            let run = range.start.max(first) - first..range.end.min(first + be) - first;
            self.read_block(b, run, out)?;
        }
        Ok(())
    }

    /// The encoded payload lives in the page cache; resident heap is the
    /// block directory plus the v3 global value dictionary.
    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.block_offsets.len() * 8
            + self.global_dict.as_ref().map_or(0, |d| d.len() * 8)
    }

    fn prefetch(&self, v: NodeId) {
        self.prefetch_entries(v);
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
/// process lifetime: it is `Send + Sync` whenever the store is (all
/// three backends are), and queries take `&self`. Workers keep their
/// own [`QueryWorkspace`]/[`SingleSourceWorkspace`], which is where a
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
    /// Open a persisted index as an owned mmap engine, verifying
    /// it matches `graph`. Open cost is header + offset-table validation
    /// plus the `O(n)` query-side metadata — the entry payload stays in
    /// the page cache and is decoded on demand, bound-checked.
    pub fn open_mmap(
        graph: &DiGraph,
        path: impl AsRef<Path>,
    ) -> Result<SharedEngine<MmapHpArena>, SlingError> {
        let (arena, meta) = MmapHpArena::open_with_meta(path)?;
        if meta.num_nodes != graph.num_nodes() || meta.num_edges != graph.num_edges() {
            return Err(SlingError::GraphMismatch {
                expected_nodes: meta.num_nodes,
                found_nodes: graph.num_nodes(),
            });
        }
        Ok(SharedEngine {
            store: arena,
            config: meta.config,
            d: meta.d,
            reduced: meta.reduced,
            marks: meta.marks,
            stats: meta.stats,
        })
    }
}

impl SharedEngine<CompressedMmapArena> {
    /// Open a block-compressed `SLNGIDX2` index as an owned mmap engine,
    /// verifying it matches `graph`. Open cost is header, offset-table,
    /// and block-directory validation plus the `O(n)` query-side
    /// metadata; each run is read on demand from the blocks it touches.
    /// A lossless file answers bit-identically to every other backend.
    pub fn open_mmap_compressed(
        graph: &DiGraph,
        path: impl AsRef<Path>,
    ) -> Result<SharedEngine<CompressedMmapArena>, SlingError> {
        let (arena, meta) = CompressedMmapArena::open_with_meta(path)?;
        if meta.num_nodes != graph.num_nodes() || meta.num_edges != graph.num_edges() {
            return Err(SlingError::GraphMismatch {
                expected_nodes: meta.num_nodes,
                found_nodes: graph.num_nodes(),
            });
        }
        Ok(SharedEngine {
            store: arena,
            config: meta.config,
            d: meta.d,
            reduced: meta.reduced,
            marks: meta.marks,
            stats: meta.stats,
        })
    }
}

/// Where [`SharedEngine::open`] keeps an index's entry payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Residency {
    /// Decode the whole payload, in any format, into an [`HpArena`].
    Mem,
    /// Map the file and read entries out of the page cache: `SLNGIDX1`
    /// through [`MmapHpArena`], `SLNGIDX2`/`SLNGIDX3` through
    /// [`CompressedMmapArena`]. Only the `O(n)` metadata is resident.
    Mapped,
}

impl SharedEngine<IndexStore> {
    /// Open a persisted index in any format, verifying it matches
    /// `graph` — the one opener for callers that choose the residency
    /// at run time. [`Residency::Mapped`] reads the file's magic and
    /// maps it with the backend for that format, so no caller pairs a
    /// file with a backend by hand.
    pub fn open(
        graph: &DiGraph,
        path: impl AsRef<Path>,
        residency: Residency,
    ) -> Result<SharedEngine<IndexStore>, SlingError> {
        let path = path.as_ref();
        Ok(match residency {
            Residency::Mem => SlingIndex::load(graph, path)?
                .into_shared_engine()
                .map_store(IndexStore::Mem),
            Residency::Mapped => {
                let mut magic = Vec::with_capacity(8);
                std::fs::File::open(path)?.take(8).read_to_end(&mut magic)?;
                match crate::format::detect_version(&magic)? {
                    FormatVersion::V1 => {
                        SharedEngine::open_mmap(graph, path)?.map_store(IndexStore::Mmap)
                    }
                    FormatVersion::V2 | FormatVersion::V3 => {
                        SharedEngine::open_mmap_compressed(graph, path)?
                            .map_store(IndexStore::Compressed)
                    }
                }
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
        let mut ws = SingleSourceWorkspace::new();
        let mut out = Vec::new();
        self.single_source_with(graph, &mut ws, u, &mut out)?;
        Ok(out)
    }

    /// Single-source query into caller-provided buffers; allocation-free
    /// after warm-up on every backend.
    pub fn single_source_with(
        &self,
        graph: &DiGraph,
        ws: &mut SingleSourceWorkspace,
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
        ws: &mut SingleSourceWorkspace,
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
        let mut ws = SingleSourceWorkspace::new();
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
        ws: &mut SingleSourceWorkspace,
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
        let mmap = MmapHpArena::open(&v1).unwrap();
        let (c2, c3) = (
            CompressedMmapArena::open(&v2).unwrap(),
            CompressedMmapArena::open(&v3).unwrap(),
        );
        let stores: [(&str, &dyn HpStore); 3] = [("v1", &mmap), ("v2", &c2), ("v3", &c3)];
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
        let mmap = MmapHpArena::open(&v1).unwrap();
        let (c2, c3) = (
            CompressedMmapArena::open(&v2).unwrap(),
            CompressedMmapArena::open(&v3).unwrap(),
        );
        let engines = [
            SharedEngine::open(&g, &v1, Residency::Mapped).unwrap(),
            SharedEngine::open(&g, &v3, Residency::Mapped).unwrap(),
            SharedEngine::open(&g, &v3, Residency::Mem).unwrap(),
        ];
        let stores: [(&str, &dyn HpStore); 7] = [
            ("arena", &idx.hp),
            ("mapped v1", &mmap),
            ("mapped v2", &c2),
            ("mapped v3", &c3),
            ("IndexStore::Mmap", engines[0].store()),
            ("IndexStore::Compressed", engines[1].store()),
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
        let engine = SharedEngine::open_mmap_compressed(&g, &path).unwrap();
        assert!(engine.store().values_exact());
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
        let engine = SharedEngine::open_mmap_compressed(&g, &path).unwrap();
        assert!(!engine.store().values_exact());
        for (u, v) in [(0u32, 1u32), (5, 80), (119, 3)] {
            let want = idx.single_pair(&g, NodeId(u), NodeId(v));
            let got = engine.single_pair(&g, NodeId(u), NodeId(v)).unwrap();
            // Quantization error is orders of magnitude below eps.
            assert!((want - got).abs() < 1e-7, "({u},{v}): {want} vs {got}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn backends_refuse_the_other_generation() {
        let g = two_cliques_bridge(4);
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let v1_path = tmp("gen_v1");
        let v2_path = tmp("gen_v2");
        idx.save(&v1_path).unwrap();
        idx.save_v2(&v2_path, &crate::codec::CompressOptions::default())
            .unwrap();
        // Plain mmap on a v2 file: structured error naming the fix.
        let Err(err) = MmapHpArena::open(&v2_path) else {
            panic!("plain mmap opened a v2 file");
        };
        assert!(err.to_string().contains("CompressedMmapArena"), "{err}");
        // Compressed arena on a v1 file: structured error too.
        let Err(err) = CompressedMmapArena::open(&v1_path) else {
            panic!("compressed arena opened a v1 file");
        };
        assert!(err.to_string().contains("compact"), "{err}");
        // But the eager loader reads both.
        assert!(SlingIndex::load(&g, &v1_path).is_ok());
        assert!(SlingIndex::load(&g, &v2_path).is_ok());
        std::fs::remove_file(&v1_path).ok();
        std::fs::remove_file(&v2_path).ok();
    }

    #[test]
    fn compressed_mmap_answers_concurrent_queries_bit_identically() {
        let g = barabasi_albert(100, 3, 11).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let path = tmp("concurrent_compressed");
        idx.save_v2(&path, &crate::codec::CompressOptions::default())
            .unwrap();
        let engine = std::sync::Arc::new(SharedEngine::open_mmap_compressed(&g, &path).unwrap());
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

    /// A compressed arena's resident figure is exactly its handle, its
    /// block directory and, for `SLNGIDX3`, its global dictionary, each
    /// sized from the file's own header.
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
            let PayloadGeometry::Blocked(geo) = decode_meta(&bytes).unwrap().payload else {
                panic!("{tag} is not blocked");
            };
            let dict = geo.global_dict.map_or(0, |d| d.len());
            assert_eq!(dict > 0, tag == "v3", "{tag} dictionary of {dict}");
            let arena = CompressedMmapArena::open(&path).unwrap();
            assert_eq!(
                HpStore::resident_bytes(&arena),
                std::mem::size_of::<CompressedMmapArena>() + geo.block_offsets.len() * 8 + dict * 8,
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
        let mmap = MmapHpArena::open(&path).unwrap();
        let mut scratch = Vec::new();
        let rejected: Vec<NodeId> = g
            .nodes()
            .filter(|&v| mmap.entries_into(v, &mut scratch).is_err())
            .collect();
        assert_eq!(
            rejected.len(),
            1,
            "exactly the poisoned run must be rejected"
        );
        let bad = rejected[0];
        let other = NodeId((bad.0 + 1) % g.num_nodes() as u32);
        let engine = SharedEngine::open_mmap(&g, &path).unwrap();
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
        let (mut ss, mut scores) = (SingleSourceWorkspace::new(), Vec::new());
        assert!(matches!(
            engine.top_k_with(&g, &mut ss, &mut scores, bad, 5),
            Err(SlingError::CorruptIndex(_))
        ));
        // The other nodes still answer.
        engine
            .top_k_with(&g, &mut ss, &mut scores, other, 5)
            .unwrap();
        std::fs::remove_file(&path).ok();
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

        let mut ss = SingleSourceWorkspace::new();
        let mut scores = Vec::new();
        let top = engine.top_k_with(&g, &mut ss, &mut scores, u, 5).unwrap();
        assert_eq!(top, idx.top_k(&g, u, 5));
        let cap = ss.query.buf_a.capacity();
        assert!(cap >= len_u, "query.buf_a {cap}");
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
