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
//! * [`MmapHpArena`] — a **zero-copy memory-mapped view** of a persisted
//!   `SLNGIDX1` index file: opening validates the header and the offset
//!   table but never decodes the entry payload, so open cost is
//!   independent of index size and queries read entries straight out of
//!   the page cache;
//! * [`CompressedMmapArena`] — the same mapped view over the
//!   block-compressed `SLNGIDX2`/`SLNGIDX3` files, decoding only the
//!   blocks a query touches through a small decoded-block cache.
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
//! bitmap, §5.3 marks) and a [`RestoreCache`] of restored effective
//! lists, and exposes the full query API — single-pair, single-source,
//! top-k, joins, batches — with identical scores across backends: same
//! entries, same merge order, same floating-point arithmetic.

use std::io::Read;
use std::ops::Range;
use std::path::Path;

use memmap2::{Advice, Mmap};
use sling_graph::{DiGraph, NodeId};

use std::sync::Arc;

use parking_lot::Mutex;

use crate::cache::LruList;
use crate::codec::block::{
    max_node, values_all_probabilities, DecodedBlock, MAX_PROBABILITY, SWEEP_LANES,
};
use crate::codec::{decode_block, decode_block_with_dict, expected_block_len};
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
use crate::topk::{select_top_k, single_source_truncated_core};

/// Read interface to a packed hitting-probability store.
///
/// Entry indices are *global*: node `v`'s run occupies `range(v)` of a
/// conceptual array of `total_entries()` entries sorted by
/// `(owner, step, node)`. Backends that read from untrusted bytes (the
/// mapped ones) must bound-check every decoded entry
/// (`node < num_nodes`), so the fallible methods return [`SlingError`]
/// rather than panicking on a corrupt or truncated file.
pub trait HpStore {
    /// Number of nodes covered by the store.
    fn num_nodes(&self) -> usize;

    /// Total entries across all nodes.
    fn total_entries(&self) -> usize;

    /// Global entry-index range of `H(v)`.
    fn range(&self, v: NodeId) -> Range<usize>;

    /// Materialize `H(v)` into `out` (cleared first), in `(step, node)`
    /// order.
    fn entries_into(&self, v: NodeId, out: &mut Vec<HpEntry>) -> Result<(), SlingError>;

    /// Random access by global entry index (used by §5.3 mark expansion).
    fn entry_at(&self, i: usize) -> Result<HpEntry, SlingError>;

    /// Whether `H(v)` stores the exact `(step, node)` key. The default
    /// binary-searches the sorted run through [`HpStore::entry_at`];
    /// backends with direct array access may override.
    fn contains_key(&self, v: NodeId, step: u16, node: NodeId) -> Result<bool, SlingError> {
        let range = checked_range(self, v)?;
        let (mut lo, mut hi) = (range.start, range.end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let e = self.entry_at(mid)?;
            match e.key().cmp(&(step, node)) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(true),
            }
        }
        Ok(false)
    }

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

    /// Borrow `H(v)` from the backend **without copying** when the
    /// backend already holds the run in a directly consumable layout.
    ///
    /// `scratch` is a caller-owned buffer the backend *may* materialize
    /// into (runs straddling block boundaries);
    /// backends with resident or mapped storage return a borrowed (or
    /// refcount-shared) [`EntryAccess`] and leave `scratch` untouched.
    /// Every returned view is fully validated (node bounds, value
    /// range), exactly like [`HpStore::entries_into`] — the streaming
    /// query kernels index the correction factors with the decoded node
    /// ids, so a corrupt file must surface here as [`SlingError`], never
    /// as a panic downstream.
    ///
    /// The default materializes through [`HpStore::entries_into`].
    fn entries_ref<'s>(
        &'s self,
        v: NodeId,
        scratch: &'s mut Vec<HpEntry>,
    ) -> Result<EntryAccess<'s>, SlingError> {
        self.entries_into(v, scratch)?;
        Ok(EntryAccess::Slice(scratch))
    }
}

/// Zero-copy view of one node's stored entry run `H(v)`, borrowed from
/// an [`HpStore`] backend via [`HpStore::entries_ref`].
///
/// The variants mirror how each backend physically holds its entries, so
/// the query kernels consume backend-owned data in place instead of
/// copying every list into [`crate::QueryWorkspace`] buffers first:
///
/// * [`EntryAccess::Columns`] — structure-of-arrays column slices (the
///   in-memory [`HpArena`]); the seed/merge loops read the contiguous
///   `steps`/`nodes`/`values` columns directly.
/// * [`EntryAccess::RawLe`] — raw little-endian section bytes straight
///   out of an `SLNGIDX1` mapping ([`MmapHpArena`]); entries are decoded
///   on the fly with unaligned loads, after one cheap validation sweep.
/// * [`EntryAccess::Block`] — one decoded `SLNGIDX2`/`SLNGIDX3` block
///   covering the whole run ([`CompressedMmapArena`]): shared by refcount
///   out of the block scratch cache, no per-entry copy.
/// * [`EntryAccess::Slice`] — entries the backend materialized into the
///   caller's scratch buffer (multi-block runs and the §5.2/§5.3
///   restored lists).
///
/// All variants are sorted by `(step, node)` and pre-validated, so
/// consumers may index the correction-factor array with the node ids.
pub enum EntryAccess<'a> {
    /// Borrowed structure-of-arrays columns, all the same length.
    Columns {
        /// Walk steps, ascending.
        steps: &'a [u16],
        /// Hit node ids, ascending within a step.
        nodes: &'a [u32],
        /// Hitting probabilities.
        values: &'a [f64],
    },
    /// Raw little-endian `SLNGIDX1` section bytes (`2 | 4 | 8` bytes per
    /// entry respectively); pre-validated.
    RawLe {
        /// `u16` steps, little-endian.
        steps: &'a [u8],
        /// `u32` node ids, little-endian.
        nodes: &'a [u8],
        /// `f64` values, little-endian bit patterns.
        values: &'a [u8],
    },
    /// Sub-range `lo..hi` of one decoded (and validated) payload block.
    Block {
        /// The decoded block, shared with the backend's scratch cache.
        block: Arc<DecodedBlock>,
        /// First entry of the run within the block.
        lo: usize,
        /// One past the last entry of the run within the block.
        hi: usize,
    },
    /// Entries materialized into a buffer (typically the caller's
    /// scratch).
    Slice(&'a [HpEntry]),
}

impl EntryAccess<'_> {
    /// Number of entries in the run.
    pub fn len(&self) -> usize {
        match self {
            EntryAccess::Columns { steps, .. } => steps.len(),
            EntryAccess::RawLe { steps, .. } => steps.len() / 2,
            EntryAccess::Block { lo, hi, .. } => hi - lo,
            EntryAccess::Slice(s) => s.len(),
        }
    }

    /// Whether the run is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decode entry `i` (for tests and diagnostics; the kernels use the
    /// monomorphized [`EntryRun`] views instead).
    pub fn get(&self, i: usize) -> HpEntry {
        match self {
            EntryAccess::Columns {
                steps,
                nodes,
                values,
            } => HpEntry::new(steps[i], NodeId(nodes[i]), values[i]),
            EntryAccess::RawLe {
                steps,
                nodes,
                values,
            } => HpEntry::new(
                u16::from_le_bytes([steps[i * 2], steps[i * 2 + 1]]),
                NodeId(u32::from_le_bytes(
                    nodes[i * 4..i * 4 + 4].try_into().unwrap(),
                )),
                f64::from_le_bytes(values[i * 8..i * 8 + 8].try_into().unwrap()),
            ),
            EntryAccess::Block { block, lo, .. } => HpEntry::new(
                block.steps[lo + i],
                NodeId(block.nodes[lo + i]),
                block.values[lo + i],
            ),
            EntryAccess::Slice(s) => s[i],
        }
    }
}

/// Uniform random access to a sorted entry run — the monomorphization
/// surface of the streaming kernels. Three concrete shapes exist
/// (columns, raw little-endian bytes, `&[HpEntry]`); [`with_run!`]
/// dispatches an [`EntryAccess`] to a shape-specific instantiation so
/// the merge/seed inner loops carry no per-entry branching.
pub(crate) trait EntryRun: Copy {
    /// Entries in the run.
    fn len(&self) -> usize;
    /// `(step, node)` sort key of entry `i`.
    fn key(&self, i: usize) -> (u16, u32);
    /// Value of entry `i`.
    fn value(&self, i: usize) -> f64;
}

/// Structure-of-arrays column view (arena and decoded blocks).
#[derive(Clone, Copy)]
pub(crate) struct ColumnsRun<'a> {
    pub steps: &'a [u16],
    pub nodes: &'a [u32],
    pub values: &'a [f64],
}

impl EntryRun for ColumnsRun<'_> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.steps.len()
    }

    #[inline(always)]
    fn key(&self, i: usize) -> (u16, u32) {
        (self.steps[i], self.nodes[i])
    }

    #[inline(always)]
    fn value(&self, i: usize) -> f64 {
        self.values[i]
    }
}

/// Raw little-endian `SLNGIDX1` section view (zero-copy mmap); decodes
/// one fixed-width field per accessor call with unaligned loads.
#[derive(Clone, Copy)]
pub(crate) struct RawLeRun<'a> {
    pub steps: &'a [u8],
    pub nodes: &'a [u8],
    pub values: &'a [u8],
}

impl EntryRun for RawLeRun<'_> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.steps.len() / 2
    }

    #[inline(always)]
    fn key(&self, i: usize) -> (u16, u32) {
        let step = u16::from_le_bytes([self.steps[i * 2], self.steps[i * 2 + 1]]);
        let node = u32::from_le_bytes(self.nodes[i * 4..i * 4 + 4].try_into().unwrap());
        (step, node)
    }

    #[inline(always)]
    fn value(&self, i: usize) -> f64 {
        f64::from_le_bytes(self.values[i * 8..i * 8 + 8].try_into().unwrap())
    }
}

impl EntryRun for &[HpEntry] {
    #[inline(always)]
    fn len(&self) -> usize {
        (**self).len()
    }

    #[inline(always)]
    fn key(&self, i: usize) -> (u16, u32) {
        (self[i].step, self[i].node.0)
    }

    #[inline(always)]
    fn value(&self, i: usize) -> f64 {
        self[i].value
    }
}

/// Dispatch an `&EntryAccess` to a concrete [`EntryRun`] shape and run
/// `$body` with `$run` bound to it — the variant match happens once per
/// run, never per entry.
macro_rules! with_run {
    ($access:expr, |$run:ident| $body:expr) => {
        match $access {
            $crate::store::EntryAccess::Columns {
                steps,
                nodes,
                values,
            } => {
                let $run = $crate::store::ColumnsRun {
                    steps: *steps,
                    nodes: *nodes,
                    values: *values,
                };
                $body
            }
            $crate::store::EntryAccess::RawLe {
                steps,
                nodes,
                values,
            } => {
                let $run = $crate::store::RawLeRun {
                    steps: *steps,
                    nodes: *nodes,
                    values: *values,
                };
                $body
            }
            $crate::store::EntryAccess::Block { block, lo, hi } => {
                let $run = $crate::store::ColumnsRun {
                    steps: &block.steps[*lo..*hi],
                    nodes: &block.nodes[*lo..*hi],
                    values: &block.values[*lo..*hi],
                };
                $body
            }
            $crate::store::EntryAccess::Slice(s) => {
                let $run: &[$crate::hp::HpEntry] = s;
                $body
            }
        }
    };
}
pub(crate) use with_run;

/// `range(v)` with the structural sanity the untrusted backends need
/// before trusting it: well-ordered and inside the entry array. A store
/// whose offset table mutates underneath it (a file overwritten after
/// open) must surface that as an error, not an out-of-bounds access.
fn checked_range<S: HpStore + ?Sized>(store: &S, v: NodeId) -> Result<Range<usize>, SlingError> {
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
        self.fill(v, out);
        Ok(())
    }

    fn entry_at(&self, i: usize) -> Result<HpEntry, SlingError> {
        Ok(HpEntry::new(
            self.steps[i],
            NodeId(self.nodes[i]),
            self.values[i],
        ))
    }

    fn contains_key(&self, v: NodeId, step: u16, node: NodeId) -> Result<bool, SlingError> {
        Ok(HpArena::contains_key(self, v, step, node))
    }

    fn resident_bytes(&self) -> usize {
        HpArena::resident_bytes(self)
    }

    /// True zero-copy: the arena *is* the structure-of-arrays layout the
    /// kernels consume, so borrowing `H(v)` is three slice operations.
    fn entries_ref<'s>(
        &'s self,
        v: NodeId,
        _scratch: &'s mut Vec<HpEntry>,
    ) -> Result<EntryAccess<'s>, SlingError> {
        let r = HpArena::range(self, v);
        Ok(EntryAccess::Columns {
            steps: &self.steps[r.clone()],
            nodes: &self.nodes[r.clone()],
            values: &self.values[r],
        })
    }
}

/// Reject payload values that cannot be hitting probabilities. The
/// out-of-core backends decode entries from untrusted bytes at query
/// time; letting a non-finite value through would poison downstream
/// score sorts (which rightly assume finite scores) with a panic instead
/// of an error.
fn check_value(i: usize, value: f64) -> Result<(), SlingError> {
    if !value.is_finite() || !(0.0..=MAX_PROBABILITY).contains(&value) {
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

    fn entry_at(&self, i: usize) -> Result<HpEntry, SlingError> {
        on_store!(self, |s| s.entry_at(i))
    }

    fn contains_key(&self, v: NodeId, step: u16, node: NodeId) -> Result<bool, SlingError> {
        on_store!(self, |s| HpStore::contains_key(s, v, step, node))
    }

    fn resident_bytes(&self) -> usize {
        on_store!(self, |s| HpStore::resident_bytes(s))
    }

    #[inline]
    fn prefetch(&self, v: NodeId) {
        on_store!(self, |s| s.prefetch(v))
    }

    #[inline]
    fn entries_ref<'s>(
        &'s self,
        v: NodeId,
        scratch: &'s mut Vec<HpEntry>,
    ) -> Result<EntryAccess<'s>, SlingError> {
        on_store!(self, |s| s.entries_ref(v, scratch))
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
    /// The engine's memo of restored effective lists. `None` on the
    /// bare [`SlingIndex`], where a restoring node is materialized into
    /// the query workspace instead.
    pub restore_cache: Option<&'a RestoreCache>,
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

    /// Whether `v`'s effective list differs from its stored run: §5.2
    /// dropped its steps 1–2, or §5.3 marks expand it. Decided entirely
    /// at build time (the reduction bitmap and the mark offsets are
    /// index artifacts), so this is two O(1) loads. A node that needs
    /// no restore — the common case on large graphs — is consumed in
    /// place from the backend; one that does goes through
    /// [`crate::index::resolve_restored`].
    #[inline]
    pub fn needs_restore(&self, v: NodeId) -> bool {
        self.reduced[v.index()]
            || (self.config.enhance_accuracy
                && !self.marks.is_empty()
                && !self.marks.marks_of(v).is_empty())
    }
}

/// Zero-copy memory-mapped view of a persisted `SLNGIDX1` index file.
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
        u64::from_le_bytes(self.map[at..at + 8].try_into().unwrap())
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
        let step = u16::from_le_bytes(
            self.map[self.steps_base + i * 2..self.steps_base + i * 2 + 2]
                .try_into()
                .unwrap(),
        );
        let node = u32::from_le_bytes(
            self.map[self.nodes_base + i * 4..self.nodes_base + i * 4 + 4]
                .try_into()
                .unwrap(),
        );
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
        // Same fault point as `entries_ref`: both are "read and validate
        // one run from the mapping" sites, so a chaos schedule covers a
        // query regardless of which accessor its restore path takes.
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

    fn entry_at(&self, i: usize) -> Result<HpEntry, SlingError> {
        self.decode_entry(i)
    }

    /// The entry payload lives in the page cache, not on this struct's
    /// heap: only the handle itself counts.
    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }

    fn prefetch(&self, v: NodeId) {
        self.prefetch_entries(v);
    }

    /// Zero-copy borrow straight out of the mapping: the three section
    /// slices holding `H(v)` plus one branch-light validation sweep
    /// (node bounds, value range) — no per-entry decode-and-push, no
    /// buffer write. The sweep keeps the corrupt-file contract of
    /// [`MmapHpArena::decode_entry`]: a file mutilated after open
    /// surfaces as [`SlingError::CorruptIndex`], never a panic or an
    /// out-of-bounds correction-factor read in the kernels.
    fn entries_ref<'s>(
        &'s self,
        v: NodeId,
        _scratch: &'s mut Vec<HpEntry>,
    ) -> Result<EntryAccess<'s>, SlingError> {
        let range = checked_range(self, v)?;
        // In bounds: decode_meta validated every section against the
        // mapping for `entries` entries, and range.end <= entries.
        let steps = &self.map[self.steps_base + range.start * 2..self.steps_base + range.end * 2];
        let nodes = &self.map[self.nodes_base + range.start * 4..self.nodes_base + range.end * 4];
        let values =
            &self.map[self.values_base + range.start * 8..self.values_base + range.end * 8];
        // Fault point: the mapping itself is immutable and shared, so
        // `Corrupt`/`ShortRead` here synthesize the CorruptIndex the
        // sweep would raise on a mutilated file, instead of flipping
        // bytes in place.
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
        validate_raw_le(nodes, values, range.start, self.num_nodes)?;
        Ok(EntryAccess::RawLe {
            steps,
            nodes,
            values,
        })
    }
}

/// Validate the raw little-endian node/value sections of one entry run:
/// every node id below `n`, every value a finite probability. The hot
/// sweep is two branchless *lane-striped* folds over the contiguous
/// sections — [`SWEEP_LANES`] independent accumulators per stripe so the
/// compiler can vectorize the u32 max and the f64 range compares, plus a
/// scalar tail. Only a failing run pays a second pass to name the
/// offending entry (matching the per-entry decode errors).
// `(v >= 0.0) & (v <= MAX)` is two non-short-circuit lane compares on
// purpose; `RangeInclusive::contains` would reintroduce `&&`.
#[allow(clippy::manual_range_contains)]
pub(crate) fn validate_raw_le(
    nodes: &[u8],
    values: &[u8],
    base: usize,
    n: usize,
) -> Result<(), SlingError> {
    // Node sweep: lane-parallel max over the u32 column, one bound
    // compare at the end.
    let mut node_lanes = [0u32; SWEEP_LANES];
    let mut node_chunks = nodes.chunks_exact(4 * SWEEP_LANES);
    for stripe in &mut node_chunks {
        for (m, c) in node_lanes.iter_mut().zip(stripe.chunks_exact(4)) {
            *m = (*m).max(u32::from_le_bytes(c.try_into().unwrap()));
        }
    }
    let mut max_node = node_lanes.into_iter().max().unwrap_or(0);
    for c in node_chunks.remainder().chunks_exact(4) {
        max_node = max_node.max(u32::from_le_bytes(c.try_into().unwrap()));
    }
    if max_node as usize >= n {
        for (i, c) in nodes.chunks_exact(4).enumerate() {
            let node = u32::from_le_bytes(c.try_into().unwrap());
            if node as usize >= n {
                return Err(SlingError::CorruptIndex(format!(
                    "mmap entry {} references node {node} past n = {n}",
                    base + i
                )));
            }
        }
    }
    // Value sweep: lane-parallel range fold. The two compares are
    // equivalent to `check_value`'s predicate — NaN fails both, ±∞ fails
    // one — see `codec::block::values_all_probabilities`.
    let mut ok_lanes = [true; SWEEP_LANES];
    let mut value_chunks = values.chunks_exact(8 * SWEEP_LANES);
    for stripe in &mut value_chunks {
        for (ok, c) in ok_lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            let value = f64::from_le_bytes(c.try_into().unwrap());
            *ok &= (value >= 0.0) & (value <= MAX_PROBABILITY);
        }
    }
    let mut all_ok = ok_lanes.into_iter().all(|ok| ok);
    for c in value_chunks.remainder().chunks_exact(8) {
        let value = f64::from_le_bytes(c.try_into().unwrap());
        all_ok &= (value >= 0.0) & (value <= MAX_PROBABILITY);
    }
    if !all_ok {
        for (i, c) in values.chunks_exact(8).enumerate() {
            check_value(base + i, f64::from_le_bytes(c.try_into().unwrap()))?;
        }
    }
    Ok(())
}

/// Decoded-block scratch cache of a compressed backend.
///
/// Queries against a blocked payload decode whole blocks to read one
/// `O(1/ε)` entry run; consecutive queries overwhelmingly land in the
/// same few blocks (hubs cluster, batch pairs repeat endpoints), so a
/// small cache of decoded blocks turns the second touch into a memcpy.
/// The cache is sharded by block index — each worker's hot blocks hash
/// to different shards, so concurrent workers contend only when they
/// genuinely share a block — and each shard is an independently locked
/// [`LruList`] holding a handful of `Arc`-shared decoded blocks.
/// Everything cached has already been validated (node bounds, value
/// range), so hits skip re-validation too.
struct BlockScratchCache {
    shards: Box<[Mutex<LruList<u64, Arc<DecodedBlock>>>]>,
    per_shard: usize,
}

impl BlockScratchCache {
    /// Shard count (power of two) — sized for the thread-per-core worker
    /// pools the server runs.
    const SHARDS: usize = 8;

    /// Decoded blocks kept per shard — 64 blocks total, which at the
    /// default 1024-entry geometry keeps a ~64K-entry working set
    /// (≈ 1 MiB of columns) decoded. That covers every block of a
    /// mid-size index outright, so uniformly random pair workloads stop
    /// thrashing the cache instead of paying a decode per query.
    const PER_SHARD: usize = 8;

    fn new() -> Self {
        BlockScratchCache {
            shards: (0..Self::SHARDS)
                .map(|_| Mutex::new(LruList::new()))
                .collect(),
            per_shard: Self::PER_SHARD,
        }
    }

    /// Cached block `b`, or decode-and-admit through `decode`.
    fn get_or_decode(
        &self,
        b: usize,
        decode: impl FnOnce() -> Result<DecodedBlock, SlingError>,
    ) -> Result<Arc<DecodedBlock>, SlingError> {
        let key = b as u64;
        let shard = &self.shards[b & (Self::SHARDS - 1)];
        if let Some(hit) = shard.lock().get(&key) {
            return Ok(Arc::clone(hit));
        }
        // Decode with the lock released: a racing worker decoding the
        // same block does redundant work, but never serializes others.
        let block = Arc::new(decode()?);
        let mut guard = shard.lock();
        if guard.get(&key).is_none() {
            if guard.len() >= self.per_shard {
                guard.pop_lru();
            }
            guard.insert(key, Arc::clone(&block));
        }
        Ok(block)
    }

    /// Estimated heap bytes of the decoded blocks currently cached
    /// (14 bytes per decoded entry across the three columns).
    fn resident_bytes(&self, block_entries: usize) -> usize {
        let cached: usize = self.shards.iter().map(|s| s.lock().len()).sum();
        cached * (block_entries * 14 + std::mem::size_of::<DecodedBlock>())
    }
}

/// Cache of **restored effective entry lists** for §5.2-reduced and
/// §5.3-marked nodes.
///
/// A reduced node's effective list is rebuilt on every query — the exact
/// two-hop recomputation costs up to `γ/θ` edge operations, which
/// dominates hub queries on power-law graphs (the hub's restored list is
/// orders of magnitude bigger than its stored run). But the restored
/// list is **immutable** for a given index + graph, so every
/// [`SharedEngine`] memoizes it: a sharded, entry-budgeted LRU of
/// `Arc`-shared lists, the same lock-per-shard pattern as
/// [`BlockScratchCache`]. A hit turns a hub restore into a refcount
/// bump, and the streaming kernels then borrow the cached list exactly
/// like a backend-owned run. Misses compute outside the lock; results
/// are bit-identical by construction (the cached list *is* the computed
/// list).
pub struct RestoreCache {
    shards: Box<[Mutex<RestoreShard>]>,
    per_shard_entries: usize,
    /// Generation epoch the cached lists were restored under. Lists
    /// tagged with any other epoch read as misses (and are dropped on
    /// touch), so a serving layer that rebuilds the graph/index behind a
    /// live engine can invalidate every memoized restore in O(1) —
    /// without it, nothing would invalidate a restored hub list when the
    /// engine underneath the cache changes.
    epoch: std::sync::atomic::AtomicU64,
}

#[derive(Default)]
struct RestoreShard {
    lists: LruList<u32, (u64, Arc<Vec<HpEntry>>)>,
    entries: usize,
}

impl RestoreCache {
    /// Shard count (power of two).
    const SHARDS: usize = 8;

    /// Default total entry budget: ~64K entries ≈ 1.5 MiB of restored
    /// lists per engine — enough for the hot hubs of a skewed workload,
    /// bounded for long-lived servers.
    pub const DEFAULT_TOTAL_ENTRIES: usize = 1 << 16;

    pub(crate) fn new() -> Self {
        RestoreCache {
            shards: (0..Self::SHARDS).map(|_| Mutex::default()).collect(),
            per_shard_entries: (Self::DEFAULT_TOTAL_ENTRIES / Self::SHARDS).max(1),
            epoch: std::sync::atomic::AtomicU64::new(0),
        }
    }

    #[inline]
    fn shard(&self, v: NodeId) -> &Mutex<RestoreShard> {
        &self.shards[(v.0 as usize) & (Self::SHARDS - 1)]
    }

    /// The current generation epoch (see [`RestoreCache::advance_epoch`]).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Bump the generation epoch, lazily invalidating every cached
    /// list; returns the new epoch. Stale lists are dropped on touch.
    pub fn advance_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, std::sync::atomic::Ordering::AcqRel) + 1
    }

    /// Drop every cached list immediately (the eager sibling of
    /// [`RestoreCache::advance_epoch`]; the budget is kept).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut shard = shard.lock();
            shard.lists.clear();
            shard.entries = 0;
        }
    }

    /// Cached restored list of `v`, if resident and from the current
    /// epoch; a stale list is dropped on touch.
    pub(crate) fn get(&self, v: NodeId) -> Option<Arc<Vec<HpEntry>>> {
        let current = self.epoch();
        let mut shard = self.shard(v).lock();
        let hit = match shard.lists.get(&v.0) {
            Some((epoch, list)) if *epoch == current => Some(Arc::clone(list)),
            Some(_) => {
                let (_, stale) = shard.lists.remove(&v.0).expect("entry just observed");
                shard.entries -= stale.len();
                None
            }
            None => None,
        };
        drop(shard);
        match hit.is_some() {
            true => KernelCounters::bump(&obs::KERNEL.restore_cache_hits),
            false => KernelCounters::bump(&obs::KERNEL.restore_cache_misses),
        }
        hit
    }

    /// Admit a list restored under generation `epoch`, evicting LRU
    /// lists until it fits the shard's entry budget (an oversized list
    /// is admitted alone — reuse is node-driven). A stale `epoch` — the
    /// engine was invalidated while
    /// the restore ran — drops the insert instead of admitting a list
    /// computed against retired state.
    pub(crate) fn insert_tagged(&self, v: NodeId, list: Arc<Vec<HpEntry>>, epoch: u64) {
        if epoch != self.epoch() {
            return;
        }
        let mut shard = self.shard(v).lock();
        match shard.lists.get(&v.0) {
            // A racing worker restored it first this epoch; keep theirs.
            Some((live, _)) if *live == epoch => return,
            Some(_) => {
                let (_, stale) = shard.lists.remove(&v.0).expect("entry just observed");
                shard.entries -= stale.len();
            }
            None => {}
        }
        while shard.entries + list.len() > self.per_shard_entries {
            let Some((_, (_, old))) = shard.lists.pop_lru() else {
                break;
            };
            shard.entries -= old.len();
        }
        shard.entries += list.len();
        shard.lists.insert(v.0, (epoch, list));
    }

    /// Estimated heap bytes of the cached lists.
    pub fn resident_bytes(&self) -> usize {
        let entries: usize = self.shards.iter().map(|s| s.lock().entries).sum();
        entries * std::mem::size_of::<HpEntry>()
    }
}

/// Decode and fully validate one block's bytes: directory-consistent
/// entry count, run shapes, node-id bounds, value range.
fn decode_block_validated(
    raw: &[u8],
    b: usize,
    num_blocks: usize,
    block_entries: usize,
    total_entries: usize,
    num_nodes: usize,
    global_dict: Option<&[f64]>,
) -> Result<DecodedBlock, SlingError> {
    let expected = expected_block_len(b, num_blocks, block_entries, total_entries)?;
    KernelCounters::bump(&obs::KERNEL.block_decodes);
    KernelCounters::bump_by(&obs::KERNEL.backend_bytes_read, raw.len() as u64);
    let mut block = DecodedBlock::default();
    match global_dict {
        Some(dict) => decode_block_with_dict(raw, expected, dict, &mut block)?,
        None => decode_block(raw, expected, &mut block)?,
    }
    // Bound-check ids and value ranges once per decode; cache hits skip
    // this entirely. The hot path is two lane-striped column folds; only
    // a failing block pays the per-entry rescan that names the entry.
    let base = b * block_entries;
    if max_node(&block.nodes) as usize >= num_nodes {
        for (i, &node) in block.nodes.iter().enumerate() {
            if node as usize >= num_nodes {
                return Err(SlingError::CorruptIndex(format!(
                    "block entry {} references node {node} past n = {num_nodes}",
                    base + i,
                )));
            }
        }
    }
    if !values_all_probabilities(&block.values) {
        for (i, &value) in block.values.iter().enumerate() {
            check_value(base + i, value)?;
        }
    }
    Ok(block)
}

/// Append the part of global entry range `range` that falls inside
/// block `b` to `out`.
fn push_block_range(
    block: &DecodedBlock,
    b: usize,
    block_entries: usize,
    range: &Range<usize>,
    out: &mut Vec<HpEntry>,
) {
    let lo = range.start.max(b * block_entries) - b * block_entries;
    let hi = range.end.min((b + 1) * block_entries) - b * block_entries;
    for i in lo..hi {
        out.push(HpEntry::new(
            block.steps[i],
            NodeId(block.nodes[i]),
            block.values[i],
        ));
    }
}

/// Zero-copy memory-mapped view of a block-compressed `SLNGIDX2` index
/// file.
///
/// The compressed sibling of [`MmapHpArena`]: `open` maps the file and
/// validates the header, offset table, and block directory — never the
/// payload — so open cost is independent of the number of stored
/// entries. Queries decode exactly the blocks their entry range touches,
/// straight from the page cache, through a sharded decoded-block scratch
/// cache (see [`BlockScratchCache`]) that makes repeated touches of a
/// hot block free. Every decoded block is fully validated (counts,
/// run shapes, node bounds, value range) before use, so a file corrupted
/// *after* open still surfaces as [`SlingError::CorruptIndex`], never a
/// panic.
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
    cache: BlockScratchCache,
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
        // *content* corruption is tolerated: block decodes are fully
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
            cache: BlockScratchCache::new(),
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
        u64::from_le_bytes(
            self.map[self.offsets_base + i * 8..self.offsets_base + i * 8 + 8]
                .try_into()
                .unwrap(),
        ) as usize
    }

    /// Decode block `b` from the mapping, fully validated.
    fn decode_block_at(&self, b: usize) -> Result<DecodedBlock, SlingError> {
        let (lo, hi) = (
            self.blocks_base + self.block_offsets[b] as usize,
            self.blocks_base + self.block_offsets[b + 1] as usize,
        );
        // In bounds by construction: decode_meta validated the directory
        // against the mapping length, and the directory is resident.
        decode_block_validated(
            &self.map[lo..hi],
            b,
            self.num_blocks(),
            self.block_entries,
            self.entries,
            self.num_nodes,
            self.global_dict.as_deref(),
        )
    }

    /// Block `b`, served from the scratch cache.
    fn block(&self, b: usize) -> Result<Arc<DecodedBlock>, SlingError> {
        self.cache.get_or_decode(b, || self.decode_block_at(b))
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
            let block = self.block(b)?;
            push_block_range(&block, b, be, &range, out);
        }
        Ok(())
    }

    fn entry_at(&self, i: usize) -> Result<HpEntry, SlingError> {
        if i >= self.entries {
            return Err(SlingError::CorruptIndex(format!(
                "compressed entry index {i} past the {} stored entries",
                self.entries
            )));
        }
        let b = i / self.block_entries;
        let block = self.block(b)?;
        let j = i - b * self.block_entries;
        Ok(HpEntry::new(
            block.steps[j],
            NodeId(block.nodes[j]),
            block.values[j],
        ))
    }

    /// The encoded payload lives in the page cache; resident heap is the
    /// block directory plus the decoded-block scratch cache.
    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.block_offsets.len() * 8
            + self.cache.resident_bytes(self.block_entries)
    }

    fn prefetch(&self, v: NodeId) {
        self.prefetch_entries(v);
    }

    /// Runs covered by a single block — the overwhelmingly common case,
    /// since `O(1/ε)` runs are far shorter than a block — are served as a
    /// refcounted sub-range of the cached decoded block, skipping the
    /// per-entry gather copy. Runs straddling block boundaries fall back
    /// to materializing into `scratch`.
    fn entries_ref<'s>(
        &'s self,
        v: NodeId,
        scratch: &'s mut Vec<HpEntry>,
    ) -> Result<EntryAccess<'s>, SlingError> {
        let range = checked_range(self, v)?;
        if range.is_empty() {
            return Ok(EntryAccess::Slice(&[]));
        }
        let be = self.block_entries;
        let (b0, b1) = (range.start / be, (range.end - 1) / be);
        if b0 == b1 {
            let block = self.block(b0)?;
            let (lo, hi) = (range.start - b0 * be, range.end - b0 * be);
            // decode_block_validated pinned the block's entry count to
            // the directory, so the run range always fits; guard anyway
            // so a logic slip cannot become a slice panic.
            if hi <= block.steps.len() {
                return Ok(EntryAccess::Block { block, lo, hi });
            }
        }
        self.entries_into(v, scratch)?;
        Ok(EntryAccess::Slice(scratch))
    }
}

/// The query engine: a storage backend plus all query-side metadata
/// (config, correction factors, §5.2 reduction bitmap, §5.3 marks) held
/// **by value**, and a [`RestoreCache`] of restored effective lists.
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
/// own [`QueryWorkspace`]/[`SingleSourceWorkspace`], so the hot path
/// shares only immutable state and the sharded restore cache.
pub struct SharedEngine<S: HpStore> {
    store: S,
    config: SlingConfig,
    d: Vec<f64>,
    reduced: Vec<bool>,
    marks: MarkArena,
    stats: BuildStats,
    restore: RestoreCache,
}

impl SharedEngine<MmapHpArena> {
    /// Open a persisted index as an owned zero-copy mmap engine, verifying
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
            restore: RestoreCache::new(),
        })
    }
}

impl SharedEngine<CompressedMmapArena> {
    /// Open a block-compressed `SLNGIDX2` index as an owned mmap engine,
    /// verifying it matches `graph`. Open cost is header, offset-table,
    /// and block-directory validation plus the `O(n)` query-side
    /// metadata; blocks are decoded on demand through the arena's
    /// scratch cache. A lossless file answers bit-identically to every
    /// other backend.
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
            restore: RestoreCache::new(),
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
            restore: RestoreCache::new(),
        }
    }
}

impl<S: HpStore> SharedEngine<S> {
    /// The same engine over `wrap(store)`: metadata and restore cache
    /// move across unchanged.
    fn map_store<T: HpStore>(self, wrap: impl FnOnce(S) -> T) -> SharedEngine<T> {
        SharedEngine {
            store: wrap(self.store),
            config: self.config,
            d: self.d,
            reduced: self.reduced,
            marks: self.marks,
            stats: self.stats,
            restore: self.restore,
        }
    }

    pub(crate) fn engine_ref(&self) -> EngineRef<'_, S> {
        EngineRef {
            store: &self.store,
            config: &self.config,
            d: &self.d,
            reduced: &self.reduced,
            marks: &self.marks,
            restore_cache: Some(&self.restore),
        }
    }

    /// The backing store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The engine's memo of restored §5.2/§5.3 effective lists. Exposed
    /// so lifecycle layers can inspect residency and invalidate it
    /// ([`RestoreCache::advance_epoch`] / [`RestoreCache::clear`]) when
    /// the graph or index behind a live engine changes — the in-place
    /// rebuild scenario. (The shipped generation-swap path replaces the
    /// whole engine, restore cache included, so it never needs these
    /// hooks; they exist for embedders that mutate state *behind* a
    /// long-lived engine instead of republishing one.)
    pub fn restore_cache(&self) -> &RestoreCache {
        &self.restore
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
            + self.restore.resident_bytes()
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

    /// Single-pair query through the **materializing reference path**:
    /// both effective entry lists copied into the workspace, linear
    /// merge, no restore cache. The oracle the equivalence suites pin
    /// [`SharedEngine::single_pair_with`] to, bit for bit, on every
    /// backend.
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

    /// Single-source query through the **materializing reference path**
    /// (see [`SharedEngine::single_pair_materialized_with`]).
    pub fn single_source_materialized_with(
        &self,
        graph: &DiGraph,
        ws: &mut SingleSourceWorkspace,
        u: NodeId,
        out: &mut Vec<f64>,
    ) -> Result<(), SlingError> {
        self.engine_ref().check_node(u)?;
        crate::single_source::single_source_materialized_core(self.engine_ref(), graph, ws, u, out)
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

    /// Top-k reusing caller-provided buffers (`scores` holds the full
    /// Algorithm-6 vector afterwards).
    pub fn top_k_with(
        &self,
        graph: &DiGraph,
        ws: &mut SingleSourceWorkspace,
        scores: &mut Vec<f64>,
        u: NodeId,
        k: usize,
    ) -> Result<Vec<(NodeId, f64)>, SlingError> {
        self.single_source_with(graph, ws, u, scores)?;
        Ok(select_top_k(scores, Some(u), k))
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

    #[test]
    fn arena_and_mmap_stores_agree_entrywise() {
        let g = barabasi_albert(120, 3, 5).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let path = tmp("entrywise");
        idx.save(&path).unwrap();
        let mmap = MmapHpArena::open(&path).unwrap();
        assert_eq!(HpStore::num_nodes(&idx.hp), mmap.num_nodes);
        assert_eq!(
            HpStore::total_entries(&idx.hp),
            HpStore::total_entries(&mmap)
        );
        let mut a = Vec::new();
        let mut b = Vec::new();
        for v in g.nodes() {
            assert_eq!(HpStore::range(&idx.hp, v), HpStore::range(&mmap, v));
            idx.hp.entries_into(v, &mut a).unwrap();
            mmap.entries_into(v, &mut b).unwrap();
            assert_eq!(a, b, "H({v:?}) differs between arena and mmap");
            for e in &a {
                assert!(mmap.contains_key(v, e.step, e.node).unwrap());
            }
            assert!(!mmap.contains_key(v, u16::MAX, NodeId(0)).unwrap());
        }
        for i in 0..HpStore::total_entries(&mmap) {
            assert_eq!(idx.hp.entry_at(i).unwrap(), mmap.entry_at(i).unwrap());
        }
        std::fs::remove_file(&path).ok();
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
        for i in (0..idx.hp.total_entries()).step_by(7) {
            assert_eq!(
                idx.hp.entry_at(i).unwrap(),
                engine.store().entry_at(i).unwrap()
            );
        }
        // Full query surface, bit-identical.
        for u in [NodeId(0), NodeId(71), NodeId(139)] {
            assert_eq!(
                engine.single_source(&g, u).unwrap(),
                idx.single_source(&g, u)
            );
            assert_eq!(engine.top_k(&g, u, 6).unwrap(), idx.top_k(&g, u, 6));
        }
        // O(n) resident: directory + scratch cache, far below the arena.
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
    fn compressed_mmap_concurrent_queries_share_the_scratch_cache() {
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

    #[test]
    fn entries_ref_is_zero_copy_per_backend() {
        let g = barabasi_albert(160, 3, 9).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let v1 = tmp("zc_v1");
        let v2 = tmp("zc_v2");
        idx.save(&v1).unwrap();
        // Blocks sized so typical runs fit inside one block while some
        // still straddle a boundary — both access shapes get exercised.
        idx.save_v2(
            &v2,
            &crate::codec::CompressOptions {
                block_entries: 512,
                quantize_values: false,
            },
        )
        .unwrap();
        let mmap = MmapHpArena::open(&v1).unwrap();
        let compressed = CompressedMmapArena::open(&v2).unwrap();
        let mut scratch = Vec::new();
        let mut expect = Vec::new();
        let (mut saw_block, mut saw_straddle) = (false, false);
        for v in g.nodes() {
            idx.hp.entries_into(v, &mut expect).unwrap();
            // Arena: structure-of-arrays columns, no scratch write.
            let access = idx.hp.entries_ref(v, &mut scratch).unwrap();
            assert!(matches!(access, EntryAccess::Columns { .. }));
            assert_eq!(access.len(), expect.len());
            for (i, want) in expect.iter().enumerate() {
                assert_eq!(&access.get(i), want);
            }
            drop(access);
            // Mmap: raw little-endian section bytes, no scratch write.
            scratch.clear();
            let access = mmap.entries_ref(v, &mut scratch).unwrap();
            assert!(matches!(access, EntryAccess::RawLe { .. }));
            for (i, want) in expect.iter().enumerate() {
                assert_eq!(&access.get(i), want);
            }
            drop(access);
            assert!(scratch.is_empty(), "mmap entries_ref wrote scratch");
            // Compressed: refcounted block for intra-block runs,
            // materialized slice for straddling ones — same entries.
            let access = compressed.entries_ref(v, &mut scratch).unwrap();
            match &access {
                EntryAccess::Block { .. } => saw_block = true,
                EntryAccess::Slice(_) => saw_straddle = true,
                other => panic!("unexpected access shape {}", other.len()),
            }
            for (i, want) in expect.iter().enumerate() {
                assert_eq!(&access.get(i), want);
            }
        }
        assert!(saw_block, "no run was served from a single block");
        assert!(saw_straddle, "no run straddled a block boundary");
        std::fs::remove_file(&v1).ok();
        std::fs::remove_file(&v2).ok();
    }

    #[test]
    fn mmap_entries_ref_validates_the_run() {
        let g = barabasi_albert(80, 3, 3).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let path = tmp("zc_corrupt");
        let mut bytes = idx.to_bytes();
        // Poison the last HP value with a NaN: the zero-copy borrow of
        // the owning node's run must fail its validation sweep.
        let len = bytes.len();
        bytes[len - 8..].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let mmap = MmapHpArena::open(&path).unwrap();
        let mut scratch = Vec::new();
        let mut rejected = 0;
        for v in g.nodes() {
            if mmap.entries_ref(v, &mut scratch).is_err() {
                rejected += 1;
            }
        }
        assert_eq!(rejected, 1, "exactly the poisoned run must be rejected");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restore_cache_serves_hot_nodes_bit_identically() {
        let g = barabasi_albert(150, 3, 31).unwrap();
        let config = cfg(); // enhancement on; space reduction on
        let idx = SlingIndex::build(&g, &config).unwrap();
        assert!(idx.stats().reduced_nodes > 0, "fixture must reduce nodes");
        let engine = SharedEngine::from(idx.clone());
        let mut ws = QueryWorkspace::new();
        // Repeated hub-style queries: the second round must hit the
        // restore cache (non-zero residency) and stay bit-identical to
        // the cache-less SlingIndex path.
        for _round in 0..2 {
            for v in 1..40u32 {
                let want = idx.single_pair(&g, NodeId(0), NodeId(v));
                let got = engine
                    .single_pair_with(&g, &mut ws, NodeId(0), NodeId(v))
                    .unwrap();
                assert_eq!(want.to_bits(), got.to_bits(), "pair (0,{v})");
            }
        }
        assert!(
            engine.restore.resident_bytes() > 0,
            "restored lists were never cached"
        );
        // Single-source through the same cache agrees too.
        for u in [NodeId(0), NodeId(75)] {
            assert_eq!(
                engine.single_source(&g, u).unwrap(),
                idx.single_source(&g, u)
            );
        }
    }

    #[test]
    fn restore_cache_eviction_respects_the_budget() {
        let cache = RestoreCache::new();
        let per_shard = cache.per_shard_entries;
        // Insert many same-shard lists, each 1/4 of the shard budget:
        // residency must never exceed the budget.
        let list_len = (per_shard / 4).max(1);
        for i in 0..32u32 {
            let node = NodeId(i * RestoreCache::SHARDS as u32); // same shard
            let list = Arc::new(vec![HpEntry::new(0, NodeId(0), 1.0); list_len]);
            cache.insert_tagged(node, list, cache.epoch());
            let resident = cache.shards[0].lock().entries;
            assert!(resident <= per_shard, "{resident} > {per_shard}");
        }
        // The most recent insert is still resident.
        assert!(cache
            .get(NodeId(31 * RestoreCache::SHARDS as u32))
            .is_some());
        // An oversized list is admitted alone.
        let huge = Arc::new(vec![HpEntry::new(0, NodeId(0), 1.0); per_shard * 2]);
        cache.insert_tagged(NodeId(8), Arc::clone(&huge), cache.epoch());
        assert!(cache.get(NodeId(8)).is_some());
    }

    #[test]
    fn restore_cache_epoch_and_clear_invalidate_lists() {
        let cache = RestoreCache::new();
        let list = Arc::new(vec![HpEntry::new(0, NodeId(0), 1.0); 4]);
        cache.insert_tagged(NodeId(3), Arc::clone(&list), cache.epoch());
        assert!(cache.get(NodeId(3)).is_some());
        // Epoch bump: the stale list reads as a miss, is dropped on
        // touch, and its entries leave the budget accounting.
        assert_eq!(cache.advance_epoch(), 1);
        assert!(cache.get(NodeId(3)).is_none());
        assert_eq!(cache.resident_bytes(), 0);
        // A stale-tagged insert (restore raced the invalidation) is
        // dropped.
        cache.insert_tagged(NodeId(3), Arc::clone(&list), 0);
        assert!(cache.get(NodeId(3)).is_none());
        // Fresh inserts under the new epoch work; clear() empties
        // eagerly.
        cache.insert_tagged(NodeId(3), Arc::clone(&list), 1);
        assert!(cache.get(NodeId(3)).is_some());
        cache.clear();
        assert!(cache.get(NodeId(3)).is_none());
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn shared_engine_restore_cache_invalidation_recomputes_bit_identically() {
        let g = barabasi_albert(150, 3, 31).unwrap();
        let config = cfg();
        let idx = SlingIndex::build(&g, &config).unwrap();
        assert!(idx.stats().reduced_nodes > 0, "fixture must reduce nodes");
        let engine = SharedEngine::from(idx.clone());
        let mut ws = QueryWorkspace::new();
        let want = idx.single_pair(&g, NodeId(0), NodeId(1));
        assert_eq!(
            engine
                .single_pair_with(&g, &mut ws, NodeId(0), NodeId(1))
                .unwrap(),
            want
        );
        assert!(engine.restore_cache().resident_bytes() > 0);
        // Lifecycle-style invalidation on a live engine: queries keep
        // answering bit-identically, through a repopulated cache.
        engine.restore_cache().advance_epoch();
        assert_eq!(
            engine
                .single_pair_with(&g, &mut ws, NodeId(0), NodeId(1))
                .unwrap(),
            want
        );
        engine.restore_cache().clear();
        assert_eq!(engine.restore_cache().resident_bytes(), 0);
        assert_eq!(
            engine
                .single_pair_with(&g, &mut ws, NodeId(0), NodeId(1))
                .unwrap(),
            want
        );
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
