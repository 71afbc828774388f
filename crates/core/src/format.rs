//! Binary persistence of a [`SlingIndex`] — the `SLNGIDX1`, `SLNGIDX2`
//! and `SLNGIDX3` formats.
//!
//! A small hand-rolled format (magic + version + little-endian sections)
//! rather than a serde backend: the index is dominated by four large
//! primitive arrays, which serialize as flat byte runs with no
//! per-element overhead. The graph itself is *not* stored — on load the
//! caller passes the graph and the header's `(n, m)` fingerprint is
//! verified against it.
//!
//! Three payload layouts share one metadata prefix; the magic doubles as
//! the version tag and **every shipped generation stays readable
//! forever**:
//!
//! ## Shared metadata prefix (all versions)
//!
//! ```text
//! magic "SLNGIDX1" | "SLNGIDX2" | "SLNGIDX3" | n u64 | m u64
//! config: c, epsilon, eps_d, theta, delta f64 | seed u64 | gamma f64 | flags u8
//! stats: 5 × u64
//! d:        n × f64
//! reduced:  n × u8
//! marks:    (n+1) × u64 offsets | len u64 | len × u32 locals
//! hp:       (n+1) × u64 offsets | entries u64
//! ```
//!
//! ## `SLNGIDX1` payload: raw sections
//!
//! ```text
//! steps:  entries × u16
//! nodes:  entries × u32
//! values: entries × f64
//! ```
//!
//! The three entry arrays are stored as contiguous *sections* (not
//! interleaved records) so the mapped backend can address them directly
//! with per-entry arithmetic — 14 bytes per entry, no decode.
//!
//! ## `SLNGIDX2` payload: compressed blocks
//!
//! ```text
//! flags          u8     (bit 0: values are bit-exact / lossless)
//! block_entries  u64    (entries per block; the last block may be short)
//! num_blocks     u64    (== ceil(entries / block_entries))
//! directory:     (num_blocks + 1) × u64 byte offsets into the block
//!                area, monotone from 0; the last offset is the total
//!                payload byte length
//! blocks:        concatenated [`crate::codec::block`] encodings — steps
//!                run-length coded, node ids delta-varint coded per
//!                (owner, step) run, values behind a per-block
//!                [`crate::codec::value`] section tag (raw f64 /
//!                dictionary, both bit-exact; or fixed-point u32 when
//!                the exactness flag is clear)
//! ```
//!
//! ## `SLNGIDX3` payload: compressed blocks + cross-block value dictionary
//!
//! ```text
//! flags          u8     (bit 0: values are bit-exact / lossless)
//! block_entries  u64    (entries per block; the last block may be short)
//! num_blocks     u64    (== ceil(entries / block_entries))
//! global_dict:   len varint, then len × f64 LE — the file-wide value
//!                dictionary, most frequent value first (empty when
//!                quantized)
//! directory:     num_blocks × varint byte *lengths*, one per block
//!                (each ≥ 1); prefix sums reconstruct the v2-style
//!                monotone offset table
//! blocks:        same [`crate::codec::block`] encodings as v2, plus
//!                one extra value codec: tag 3 codes each value as a
//!                varint index into `global_dict` (offset by one), with
//!                index 0 escaping to split-plane residual storage — a
//!                shared table of the escapes' upper 16 bits
//!                (sign + exponent + mantissa head) followed by each
//!                escape's low 48 mantissa bits, bit-exact
//! ```
//!
//! The v3 encoder picks the cheapest of raw / per-block dictionary /
//! global dictionary per block by exact byte cost, so a v3 file is never
//! larger than its v2 equivalent; quantized v3 blocks are byte-identical
//! to v2's.
//!
//! Each block is independently decodable (given the resident global
//! dictionary for v3), so a read touches only the blocks its entry range
//! covers. `decode_meta` validates everything **up to** the entry payload
//! — including the block directory and the v3 global dictionary — and
//! reports the payload geometry. The geometry's `read_entries` is the one
//! reader of every format's entries: it appends a global entry range to
//! a buffer and checks each entry it reads. [`SlingIndex::decode`] calls
//! it on the file image one block-sized chunk at a time, and the mapped
//! backend ([`crate::store::MmapHpArena`]) calls it on its mapping, one
//! node's run per read, so both residencies accept the same files. No
//! mapped open ever reads the payload.
//!
//! Every malformed input — truncation, bad magic, non-monotone offsets,
//! out-of-range ids, overflowing section sizes, inconsistent block
//! directories — surfaces as [`SlingError::CorruptIndex`]; no input may
//! panic the decoder.

// Every decoder here reads untrusted bytes: a malformed input must be a
// `SlingError`, never a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fs::File;
use std::io::{Read, Write};
use std::ops::Range;
use std::path::Path;

use bytes::{Buf, BufMut};
use sling_graph::{DiGraph, NodeId};

use crate::codec::block::{is_probability, DEFAULT_BLOCK_ENTRIES, MAX_BLOCK_ENTRIES};
use crate::codec::{
    encode_payload, encode_payload_v3, expected_block_len, read_block_run, varint, CompressOptions,
};
use crate::config::SlingConfig;
use crate::enhance::MarkArena;
use crate::error::SlingError;
use crate::hp::{HpArena, HpEntry};
use crate::index::{BuildStats, SlingIndex};

/// Bit 0 of the v2 payload flags: values decode bit-identical to the
/// encoded index.
const FLAG_VALUES_EXACT: u8 = 1;

/// On-disk format generation of a persisted index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FormatVersion {
    /// `SLNGIDX1`: raw fixed-width payload sections.
    V1,
    /// `SLNGIDX2`: block-compressed payload.
    V2,
    /// `SLNGIDX3`: block-compressed payload with a cross-block value
    /// dictionary and a varint-delta block directory.
    V3,
}

impl FormatVersion {
    /// Every generation, oldest first.
    pub const ALL: [FormatVersion; 3] = [FormatVersion::V1, FormatVersion::V2, FormatVersion::V3];

    /// The 8-byte magic that opens a file of this generation — the one
    /// table the header sniffer, the writers, and the lifecycle manifest
    /// all read, so they cannot disagree on which generations exist.
    pub fn magic(self) -> &'static [u8; 8] {
        match self {
            FormatVersion::V1 => b"SLNGIDX1",
            FormatVersion::V2 => b"SLNGIDX2",
            FormatVersion::V3 => b"SLNGIDX3",
        }
    }

    /// The generation whose magic is exactly `magic`, if any.
    pub fn from_magic(magic: &[u8]) -> Option<FormatVersion> {
        Self::ALL
            .into_iter()
            .find(|v| v.magic().as_slice() == magic)
    }
}

impl std::fmt::Display for FormatVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&String::from_utf8_lossy(self.magic()))
    }
}

/// Identify the format generation of an index byte image by its magic.
pub fn detect_version(bytes: &[u8]) -> Result<FormatVersion, SlingError> {
    let magic = bytes
        .get(..8)
        .ok_or_else(|| corrupt("truncated while reading magic"))?;
    FormatVersion::from_magic(magic).ok_or_else(|| corrupt("bad magic"))
}

/// A file's entry payload: where it lives, how it is laid out, and the
/// bounds its entries obey. [`PayloadGeometry::read_entries`] is the one
/// reader of every format's entries, for both residencies.
pub(crate) struct PayloadGeometry {
    /// Node count of the header: every entry's node id lies below it.
    pub num_nodes: usize,
    /// Total stored entries.
    pub entries: usize,
    pub layout: PayloadLayout,
}

/// How a file's entry payload is laid out.
pub(crate) enum PayloadLayout {
    /// `SLNGIDX1`: three raw fixed-width sections.
    Raw {
        steps_base: usize,
        nodes_base: usize,
        values_base: usize,
    },
    /// `SLNGIDX2` / `SLNGIDX3`: a validated block directory.
    Blocked(BlockedGeometry),
}

/// What one [`PayloadGeometry::read_entries`] call walked: the encoded
/// blocks it passed over and their bytes (both 0 for `SLNGIDX1`).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct BlockReads {
    pub blocks: u64,
    pub bytes: u64,
}

impl PayloadGeometry {
    /// Append the entries `range` (global entry indices) of the payload
    /// to `out`, in stored order. `bytes` is the whole file image this
    /// geometry was decoded from.
    ///
    /// Every entry is checked as it is read: its node id lies below
    /// `num_nodes` and its value is a probability ([`is_probability`]).
    /// A blocked layout also validates each block it touches whole
    /// ([`read_block_run`]). The `(step, node)` order of a node's run is
    /// the caller's to check ([`crate::hp::in_run_order`]), since a range
    /// may span nodes. On error `out` is left as it was.
    pub(crate) fn read_entries(
        &self,
        bytes: &[u8],
        range: Range<usize>,
        out: &mut Vec<HpEntry>,
    ) -> Result<BlockReads, SlingError> {
        if range.start > range.end || range.end > self.entries {
            return Err(corrupt(format!(
                "entries {range:?} requested from a payload of {}",
                self.entries
            )));
        }
        let base = out.len();
        let read = match &self.layout {
            &PayloadLayout::Raw {
                steps_base,
                nodes_base,
                values_base,
            } => self.read_raw([steps_base, nodes_base, values_base], bytes, range, out),
            PayloadLayout::Blocked(geo) => self.read_blocks(geo, bytes, range, out),
        };
        if read.is_err() {
            out.truncate(base);
        }
        read
    }

    fn read_raw(
        &self,
        [steps_base, nodes_base, values_base]: [usize; 3],
        bytes: &[u8],
        range: Range<usize>,
        out: &mut Vec<HpEntry>,
    ) -> Result<BlockReads, SlingError> {
        let section = |base: usize, width: usize| {
            bytes
                .get(base + range.start * width..base + range.end * width)
                .ok_or_else(|| corrupt(format!("entries {range:?} escape the file")))
        };
        let mut steps = section(steps_base, 2)?;
        let mut nodes = section(nodes_base, 4)?;
        let mut values = section(values_base, 8)?;
        out.reserve(range.len());
        for i in range {
            let (step, node, value) = (steps.get_u16_le(), nodes.get_u32_le(), values.get_f64_le());
            if node as usize >= self.num_nodes {
                return Err(corrupt(format!(
                    "entry {i} references node {node} past n = {}",
                    self.num_nodes
                )));
            }
            if !is_probability(value) {
                return Err(corrupt(format!(
                    "entry {i} holds a non-probability HP value {value}"
                )));
            }
            out.push(HpEntry::new(step, NodeId(node), value));
        }
        Ok(BlockReads::default())
    }

    fn read_blocks(
        &self,
        geo: &BlockedGeometry,
        bytes: &[u8],
        range: Range<usize>,
        out: &mut Vec<HpEntry>,
    ) -> Result<BlockReads, SlingError> {
        let mut reads = BlockReads::default();
        if range.is_empty() {
            return Ok(reads);
        }
        let be = geo.block_entries;
        out.reserve(range.len());
        for b in range.start / be..=(range.end - 1) / be {
            let first = b * be;
            let run = range.start.max(first) - first..range.end.min(first + be) - first;
            let expected = expected_block_len(b, geo.num_blocks(), be, self.entries)?;
            let block = bytes
                .get(geo.block_bytes(b))
                .ok_or_else(|| corrupt(format!("block {b} escapes the file")))?;
            reads.blocks += 1;
            reads.bytes += block.len() as u64;
            read_block_run(
                block,
                expected,
                geo.global_dict.as_deref(),
                self.num_nodes,
                run,
                out,
            )?;
        }
        Ok(reads)
    }

    /// Entries per chunk of an eager decode: one block, so each block is
    /// walked once.
    fn chunk_entries(&self) -> usize {
        match &self.layout {
            PayloadLayout::Raw { .. } => DEFAULT_BLOCK_ENTRIES,
            PayloadLayout::Blocked(geo) => geo.block_entries,
        }
    }

    /// Hand `visit` the byte ranges of the file that hold entries
    /// `range`: one per raw section, or the span of the blocks the range
    /// touches. Nothing for an empty range or one past the payload.
    pub(crate) fn byte_ranges(&self, range: Range<usize>, mut visit: impl FnMut(Range<usize>)) {
        if range.is_empty() || range.end > self.entries {
            return;
        }
        match &self.layout {
            &PayloadLayout::Raw {
                steps_base,
                nodes_base,
                values_base,
            } => {
                for (base, width) in [(steps_base, 2), (nodes_base, 4), (values_base, 8)] {
                    visit(base + range.start * width..base + range.end * width);
                }
            }
            PayloadLayout::Blocked(geo) => {
                let be = geo.block_entries;
                let (first, last) = (
                    geo.block_bytes(range.start / be),
                    geo.block_bytes((range.end - 1) / be),
                );
                visit(first.start..last.end);
            }
        }
    }

    /// Blocks in the payload (0 for `SLNGIDX1`).
    pub(crate) fn num_blocks(&self) -> usize {
        match &self.layout {
            PayloadLayout::Raw { .. } => 0,
            PayloadLayout::Blocked(geo) => geo.num_blocks(),
        }
    }

    /// Heap bytes of the geometry: the block directory and the v3 global
    /// dictionary (nothing for `SLNGIDX1`).
    pub(crate) fn heap_bytes(&self) -> usize {
        match &self.layout {
            PayloadLayout::Raw { .. } => 0,
            PayloadLayout::Blocked(geo) => {
                geo.block_offsets.len() * 8 + geo.global_dict.as_ref().map_or(0, |d| d.len() * 8)
            }
        }
    }
}

/// Validated v2/v3 payload geometry (see the module docs for the
/// layouts).
pub(crate) struct BlockedGeometry {
    /// Entries per block (the last block may be short).
    pub block_entries: usize,
    /// Byte offset of the first block within the file.
    pub blocks_base: usize,
    /// `num_blocks + 1` byte offsets relative to `blocks_base`,
    /// validated monotone; the last equals the payload byte length.
    /// (For v3 these are reconstructed from the varint length
    /// directory.)
    pub block_offsets: Vec<u64>,
    /// Whether value decoding is bit-exact (lossless codecs only).
    pub values_exact: bool,
    /// The file-wide value dictionary: `Some` exactly for `SLNGIDX3`
    /// images (possibly empty under quantization). `None` marks a v2
    /// context, where a global-dictionary value section is corrupt.
    pub global_dict: Option<Vec<f64>>,
    /// Bytes the directory (and, for v3, the global dictionary) occupy
    /// between the payload flags and the first block — the container
    /// overhead charged to the compressed payload by `inspect`.
    pub aux_bytes: usize,
}

impl BlockedGeometry {
    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.block_offsets.len() - 1
    }

    /// Total encoded payload bytes.
    pub fn payload_len(&self) -> usize {
        self.block_offsets.last().map_or(0, |&end| end as usize)
    }

    /// File byte range of block `b < num_blocks()`.
    fn block_bytes(&self, b: usize) -> Range<usize> {
        self.blocks_base + self.block_offsets[b] as usize
            ..self.blocks_base + self.block_offsets[b + 1] as usize
    }
}

/// Everything in a persisted index *except* the entry payload: the
/// query-side metadata plus the payload geometry. Produced by
/// [`decode_meta`], shared by the full decoder and the out-of-core
/// backends.
pub(crate) struct DecodedMeta {
    pub version: FormatVersion,
    pub config: SlingConfig,
    pub stats: BuildStats,
    pub num_nodes: usize,
    pub num_edges: usize,
    pub d: Vec<f64>,
    pub reduced: Vec<bool>,
    pub marks: MarkArena,
    /// Per-node entry offsets; `n + 1` values, validated monotone with
    /// `hp_offsets[0] = 0` and `hp_offsets[n] = entries`.
    pub hp_offsets: Vec<u64>,
    /// Total stored entries.
    pub entries: usize,
    /// Byte offset of the on-file HP offset table.
    pub offsets_base: usize,
    /// Layout of the entry payload.
    pub payload: PayloadGeometry,
    /// Expected total file size; validated `<=` the available bytes.
    pub total_len: usize,
}

impl DecodedMeta {
    /// The graph fingerprint check every opener makes: the header's
    /// `(n, m)` must be `graph`'s.
    pub(crate) fn check_graph(&self, graph: &DiGraph) -> Result<(), SlingError> {
        if self.num_nodes != graph.num_nodes() || self.num_edges != graph.num_edges() {
            return Err(SlingError::GraphMismatch {
                expected_nodes: self.num_nodes,
                found_nodes: graph.num_nodes(),
            });
        }
        Ok(())
    }
}

fn corrupt(what: impl Into<String>) -> SlingError {
    SlingError::CorruptIndex(what.into())
}

fn need(buf: &[u8], n: usize, what: &str) -> Result<(), SlingError> {
    if buf.remaining() < n {
        Err(corrupt(format!("truncated while reading {what}")))
    } else {
        Ok(())
    }
}

/// Decode and validate the metadata prefix of a persisted index image
/// (either format generation).
///
/// Cost is `O(n + entries / block_entries)` and **independent of the
/// number of stored entries**: the payload sections are bound-checked
/// against the image length but never read.
pub(crate) fn decode_meta(bytes: &[u8]) -> Result<DecodedMeta, SlingError> {
    let version = detect_version(bytes)?;
    let mut buf = &bytes[8..];
    need(buf, 16, "header")?;
    let n = buf.get_u64_le() as usize;
    let m = buf.get_u64_le() as usize;
    // A file with n nodes stores at least n reduction bytes, so n can
    // never exceed the image size; rejecting early keeps every later
    // `n`-sized allocation and loop bounded by the input length.
    if n > bytes.len() {
        return Err(corrupt(format!("node count {n} exceeds file size")));
    }

    need(buf, 7 * 8 + 1, "config")?;
    let c = buf.get_f64_le();
    let epsilon = buf.get_f64_le();
    let eps_d = buf.get_f64_le();
    let theta = buf.get_f64_le();
    let delta_raw = buf.get_f64_le();
    let seed = buf.get_u64_le();
    let gamma = buf.get_f64_le();
    let flags = buf.get_u8();
    let config = SlingConfig {
        c,
        epsilon,
        eps_d,
        theta,
        delta: if delta_raw.is_nan() {
            None
        } else {
            Some(delta_raw)
        },
        seed,
        adaptive_dk: flags & 1 != 0,
        space_reduction: flags & 2 != 0,
        gamma,
        enhance_accuracy: flags & 4 != 0,
        exact_diagonal: flags & 8 != 0,
        threads: 1,
    };

    need(buf, 5 * 8, "stats")?;
    let stats = BuildStats {
        dk_samples: buf.get_u64_le(),
        entries_before_reduction: buf.get_u64_le() as usize,
        entries_stored: buf.get_u64_le() as usize,
        reduced_nodes: buf.get_u64_le() as usize,
        marked_entries: buf.get_u64_le() as usize,
    };

    need(buf, n * 8 + n, "correction factors")?;
    let mut d = Vec::with_capacity(n);
    for _ in 0..n {
        d.push(buf.get_f64_le());
    }
    let mut reduced = Vec::with_capacity(n);
    for _ in 0..n {
        reduced.push(buf.get_u8() != 0);
    }

    need(buf, (n + 1) * 8 + 8, "mark offsets")?;
    let mut mark_offsets = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        mark_offsets.push(buf.get_u64_le());
    }
    let mark_len = buf.get_u64_le() as usize;
    if mark_len > buf.remaining() / 4 {
        return Err(corrupt("truncated while reading mark entries"));
    }
    let mut mark_local = Vec::with_capacity(mark_len);
    for _ in 0..mark_len {
        mark_local.push(buf.get_u32_le());
    }

    let offsets_base = bytes.len() - buf.remaining();
    need(buf, (n + 1) * 8 + 8, "hp offsets")?;
    let mut hp_offsets = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        hp_offsets.push(buf.get_u64_le());
    }
    let entries = buf.get_u64_le() as usize;

    // Offset-table validation: monotone from 0 to `entries`. This is the
    // invariant every backend's `range(v)` relies on for in-bounds entry
    // access.
    if hp_offsets.first() != Some(&0) || hp_offsets.last().map(|&end| end as usize) != Some(entries)
    {
        return Err(corrupt("hp offsets mismatch"));
    }
    if hp_offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(corrupt("hp offsets not monotone"));
    }

    let marks = MarkArena {
        offsets: mark_offsets,
        local: mark_local,
    };
    if !marks.validate_runs(&hp_offsets) {
        return Err(corrupt("mark arena fails validation"));
    }
    if d.iter().any(|x| !x.is_finite()) {
        return Err(corrupt("non-finite correction factor"));
    }
    config.validate()?;

    let (layout, total_len) = match version {
        FormatVersion::V1 => {
            // Payload section geometry, overflow-checked against the
            // image size.
            let steps_base = bytes.len() - buf.remaining();
            let section = |base: usize, width: usize| -> Result<usize, SlingError> {
                entries
                    .checked_mul(width)
                    .and_then(|sz| base.checked_add(sz))
                    .ok_or_else(|| corrupt("entry section size overflows"))
            };
            let nodes_base = section(steps_base, 2)?;
            let values_base = section(nodes_base, 4)?;
            let total_len = section(values_base, 8)?;
            (
                PayloadLayout::Raw {
                    steps_base,
                    nodes_base,
                    values_base,
                },
                total_len,
            )
        }
        FormatVersion::V2 | FormatVersion::V3 => {
            need(buf, 1 + 16, "block header")?;
            let payload_flags = buf.get_u8();
            let block_entries = buf.get_u64_le() as usize;
            let num_blocks = buf.get_u64_le() as usize;
            if !(1..=MAX_BLOCK_ENTRIES).contains(&block_entries) {
                return Err(corrupt(format!(
                    "block size {block_entries} outside 1..={MAX_BLOCK_ENTRIES}"
                )));
            }
            if num_blocks != entries.div_ceil(block_entries) {
                return Err(corrupt(format!(
                    "directory holds {num_blocks} blocks; {entries} entries at {block_entries} \
                     per block need {}",
                    entries.div_ceil(block_entries)
                )));
            }
            // One more `n`-class bound before allocating the directory.
            if num_blocks > bytes.len() {
                return Err(corrupt(format!(
                    "block count {num_blocks} exceeds file size"
                )));
            }
            let aux_base = bytes.len() - buf.remaining();
            let (block_offsets, global_dict) = match version {
                FormatVersion::V2 => {
                    need(buf, (num_blocks + 1) * 8, "block directory")?;
                    let mut block_offsets = Vec::with_capacity(num_blocks + 1);
                    for _ in 0..=num_blocks {
                        block_offsets.push(buf.get_u64_le());
                    }
                    if block_offsets.first() != Some(&0) {
                        return Err(corrupt("block directory does not start at 0"));
                    }
                    // Strictly monotone: every block holds at least one
                    // entry, so it encodes to at least one byte.
                    if block_offsets.windows(2).any(|w| w[0] >= w[1]) {
                        return Err(corrupt("block directory not strictly monotone"));
                    }
                    (block_offsets, None)
                }
                FormatVersion::V3 => {
                    // Global value dictionary.
                    let dict_len = varint::read_u64(&mut buf)? as usize;
                    if dict_len > buf.remaining() / 8 {
                        return Err(corrupt("truncated while reading the global dictionary"));
                    }
                    let mut dict = Vec::with_capacity(dict_len);
                    for _ in 0..dict_len {
                        dict.push(buf.get_f64_le());
                    }
                    if !dict.iter().all(|&v| is_probability(v)) {
                        return Err(corrupt("non-probability value in the global dictionary"));
                    }
                    // Varint-delta directory: per-block byte lengths,
                    // prefix-summed into the monotone offset table every
                    // blocked reader consumes. Length ≥ 1 per block
                    // keeps the reconstruction strictly monotone.
                    let mut block_offsets = Vec::with_capacity(num_blocks + 1);
                    block_offsets.push(0u64);
                    let mut total = 0u64;
                    for b in 0..num_blocks {
                        let len = varint::read_u64(&mut buf)?;
                        if len == 0 {
                            return Err(corrupt(format!("block {b} claims zero bytes")));
                        }
                        total = total
                            .checked_add(len)
                            .ok_or_else(|| corrupt("block directory lengths overflow"))?;
                        block_offsets.push(total);
                    }
                    (block_offsets, Some(dict))
                }
                FormatVersion::V1 => unreachable!(),
            };
            let blocks_base = bytes.len() - buf.remaining();
            let aux_bytes = blocks_base - aux_base;
            let payload_len = block_offsets
                .last()
                .map(|&end| end as usize)
                .ok_or_else(|| corrupt("empty block directory"))?;
            // Bound the entry count by the payload bytes (every encoded
            // entry costs at least one node-column byte) — the v2
            // analogue of v1's `total_len` section check, and the bound
            // that keeps the eager decoder's `entries`-sized allocations
            // proportional to the input. Without it a ~100 KB file could
            // claim ~10¹⁰ entries (a tiny directory of `MAX_BLOCK_ENTRIES`
            // blocks) and drive the decoder into a huge allocation before
            // any block-level validation can fire.
            if entries > payload_len {
                return Err(corrupt(format!(
                    "{entries} entries cannot fit a {payload_len}-byte block payload"
                )));
            }
            let total_len = blocks_base
                .checked_add(payload_len)
                .ok_or_else(|| corrupt("block payload size overflows"))?;
            (
                PayloadLayout::Blocked(BlockedGeometry {
                    block_entries,
                    blocks_base,
                    block_offsets,
                    values_exact: payload_flags & FLAG_VALUES_EXACT != 0,
                    global_dict,
                    aux_bytes,
                }),
                total_len,
            )
        }
    };
    if total_len > bytes.len() {
        return Err(corrupt("truncated while reading hp entries"));
    }

    Ok(DecodedMeta {
        version,
        config,
        stats,
        num_nodes: n,
        num_edges: m,
        d,
        reduced,
        marks,
        hp_offsets,
        entries,
        offsets_base,
        payload: PayloadGeometry {
            num_nodes: n,
            entries,
            layout,
        },
        total_len,
    })
}

/// Summary of a persisted index file, for `sling inspect` and the
/// `sling compact` before/after report.
#[derive(Clone, Debug)]
pub struct IndexFileInfo {
    /// Format generation.
    pub version: FormatVersion,
    /// Node count recorded in the header.
    pub num_nodes: usize,
    /// Edge count recorded in the header.
    pub num_edges: usize,
    /// Stored HP entries.
    pub entries: usize,
    /// Total file bytes (header through payload).
    pub total_bytes: usize,
    /// Bytes of the entry payload sections. For `SLNGIDX3` this
    /// includes the global dictionary and the varint directory (the
    /// container bytes its compression depends on), so the reported
    /// ratio is honest about where the payload's information lives.
    pub payload_bytes: usize,
    /// Bytes of the block byte directory (0 for v1; counted inside
    /// `payload_bytes` for v3 only).
    pub directory_bytes: usize,
    /// Bytes of the v3 global value dictionary (0 for v1/v2; counted
    /// inside `payload_bytes`).
    pub global_dict_bytes: usize,
    /// Bytes the same entries occupy in the raw v1 layout (14/entry) —
    /// the denominator of the compression ratio.
    pub raw_payload_bytes: usize,
    /// Blocks in the payload (0 for v1).
    pub num_blocks: usize,
    /// Entries per block (0 for v1).
    pub block_entries: usize,
    /// Whether values decode bit-identical to the index that was saved
    /// (always true for v1; false for quantized v2).
    pub values_exact: bool,
}

impl IndexFileInfo {
    /// Payload bytes relative to the raw v1 layout (1.0 = no change).
    pub fn compression_ratio(&self) -> f64 {
        if self.raw_payload_bytes == 0 {
            1.0
        } else {
            self.payload_bytes as f64 / self.raw_payload_bytes as f64
        }
    }
}

/// Inspect a persisted index image: version, sizes, block geometry.
/// Validates the metadata prefix but never decodes the payload.
pub fn inspect_bytes(bytes: &[u8]) -> Result<IndexFileInfo, SlingError> {
    let meta = decode_meta(bytes)?;
    let (
        payload_bytes,
        directory_bytes,
        global_dict_bytes,
        num_blocks,
        block_entries,
        values_exact,
    ) = match &meta.payload.layout {
        PayloadLayout::Raw { steps_base, .. } => (meta.total_len - steps_base, 0, 0, 0, 0, true),
        PayloadLayout::Blocked(geo) => {
            let dict_bytes = geo
                .global_dict
                .as_ref()
                .map_or(0, |d| varint::len_u64(d.len() as u64) + d.len() * 8);
            let dir_bytes = geo.aux_bytes - dict_bytes;
            // v2's fixed-width directory predates the per-section
            // accounting and stays outside payload_bytes for
            // continuity; v3's aux bytes are part of the payload's
            // information and are charged to it.
            let payload = match geo.global_dict {
                Some(_) => geo.payload_len() + geo.aux_bytes,
                None => geo.payload_len(),
            };
            (
                payload,
                dir_bytes,
                dict_bytes,
                geo.num_blocks(),
                geo.block_entries,
                geo.values_exact,
            )
        }
    };
    Ok(IndexFileInfo {
        version: meta.version,
        num_nodes: meta.num_nodes,
        num_edges: meta.num_edges,
        entries: meta.entries,
        total_bytes: meta.total_len,
        payload_bytes,
        directory_bytes,
        global_dict_bytes,
        raw_payload_bytes: meta.entries * 14,
        num_blocks,
        block_entries,
        values_exact,
    })
}

/// Inspect a persisted index file (see [`inspect_bytes`]).
pub fn inspect_file(path: impl AsRef<Path>) -> Result<IndexFileInfo, SlingError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    inspect_bytes(&bytes)
}

/// Where a payload's bytes go, section by section — the attribution
/// report behind `sling inspect`. For blocked formats the per-block
/// numbers come from [`crate::codec::block::block_section_sizes`]
/// (framing-validated scans, no column materialization).
#[derive(Clone, Debug, Default)]
pub struct PayloadBreakdown {
    /// v1: the raw step section. v2/v3: block headers — entry/run
    /// counts plus the run-length-coded step directory.
    pub step_bytes: usize,
    /// Node id column (raw `u32`s for v1, per-run delta varints after).
    pub node_bytes: usize,
    /// Value sections, including their codec tag bytes.
    pub value_bytes: usize,
    /// Block byte directory (fixed `u64`s for v2, varint deltas for v3;
    /// 0 for v1).
    pub directory_bytes: usize,
    /// v3 global value dictionary (0 otherwise).
    pub global_dict_bytes: usize,
    /// Value bytes grouped by codec tag: `(tag, blocks, bytes)`,
    /// ascending by tag. Empty for v1 (no tags).
    pub value_codecs: Vec<(u8, usize, usize)>,
}

/// Compute the per-section byte attribution of an index image's payload.
pub fn payload_breakdown(bytes: &[u8]) -> Result<PayloadBreakdown, SlingError> {
    use crate::codec::block::block_section_sizes;

    let meta = decode_meta(bytes)?;
    match &meta.payload.layout {
        PayloadLayout::Raw { .. } => Ok(PayloadBreakdown {
            step_bytes: meta.entries * 2,
            node_bytes: meta.entries * 4,
            value_bytes: meta.entries * 8,
            ..PayloadBreakdown::default()
        }),
        PayloadLayout::Blocked(geo) => {
            let dict_bytes = geo
                .global_dict
                .as_ref()
                .map_or(0, |d| varint::len_u64(d.len() as u64) + d.len() * 8);
            let mut out = PayloadBreakdown {
                directory_bytes: geo.aux_bytes - dict_bytes,
                global_dict_bytes: dict_bytes,
                ..PayloadBreakdown::default()
            };
            let num_blocks = geo.num_blocks();
            let mut by_tag: std::collections::BTreeMap<u8, (usize, usize)> =
                std::collections::BTreeMap::new();
            for b in 0..num_blocks {
                let expected = expected_block_len(b, num_blocks, geo.block_entries, meta.entries)?;
                let s = block_section_sizes(&bytes[geo.block_bytes(b)], expected)?;
                out.step_bytes += s.header_bytes;
                out.node_bytes += s.node_bytes;
                out.value_bytes += s.value_bytes;
                let slot = by_tag.entry(s.value_tag).or_default();
                slot.0 += 1;
                slot.1 += s.value_bytes;
            }
            out.value_codecs = by_tag
                .into_iter()
                .map(|(tag, (blocks, bytes))| (tag, blocks, bytes))
                .collect();
            Ok(out)
        }
    }
}

impl SlingIndex {
    /// Serialize the shared metadata prefix (everything up to the entry
    /// payload) under `magic`.
    fn write_prefix(&self, magic: &[u8; 8], out: &mut Vec<u8>) {
        let n = self.num_nodes;
        out.put_slice(magic);
        out.put_u64_le(n as u64);
        out.put_u64_le(self.num_edges as u64);

        // Config.
        out.put_f64_le(self.config.c);
        out.put_f64_le(self.config.epsilon);
        out.put_f64_le(self.config.eps_d);
        out.put_f64_le(self.config.theta);
        out.put_f64_le(self.config.delta.unwrap_or(f64::NAN));
        out.put_u64_le(self.config.seed);
        out.put_f64_le(self.config.gamma);
        let flags = (self.config.adaptive_dk as u8)
            | (self.config.space_reduction as u8) << 1
            | (self.config.enhance_accuracy as u8) << 2
            | (self.config.exact_diagonal as u8) << 3;
        out.put_u8(flags);

        // Stats.
        out.put_u64_le(self.stats.dk_samples);
        out.put_u64_le(self.stats.entries_before_reduction as u64);
        out.put_u64_le(self.stats.entries_stored as u64);
        out.put_u64_le(self.stats.reduced_nodes as u64);
        out.put_u64_le(self.stats.marked_entries as u64);

        // Correction factors and reduction bitmap.
        for &x in &self.d {
            out.put_f64_le(x);
        }
        for &r in &self.reduced {
            out.put_u8(r as u8);
        }

        // Marks.
        for &o in &self.marks.offsets {
            out.put_u64_le(o);
        }
        out.put_u64_le(self.marks.local.len() as u64);
        for &l in &self.marks.local {
            out.put_u32_le(l);
        }

        // HP offset table.
        for &o in &self.hp.offsets {
            out.put_u64_le(o);
        }
        out.put_u64_le(self.hp.total_entries() as u64);
    }

    /// Serialize the full index into a byte vector (`SLNGIDX1`, the raw
    /// decode-free layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.num_nodes;
        let entries = self.hp.total_entries();
        let mut out = Vec::with_capacity(64 + n * 9 + entries * 14 + self.marks.local.len() * 4);
        self.write_prefix(FormatVersion::V1.magic(), &mut out);
        for &s in &self.hp.steps {
            out.put_u16_le(s);
        }
        for &nd in &self.hp.nodes {
            out.put_u32_le(nd);
        }
        for &v in &self.hp.values {
            out.put_f64_le(v);
        }
        out
    }

    /// Serialize into the block-compressed `SLNGIDX2` layout. With
    /// default (lossless) options every backend serving the result
    /// returns scores bit-identical to this index; with
    /// [`CompressOptions::quantize_values`] the values carry ≤ 2⁻³³
    /// absolute quantization error and the file is flagged inexact.
    pub fn to_bytes_v2(&self, opts: &CompressOptions) -> Vec<u8> {
        let n = self.num_nodes;
        let mut out = Vec::with_capacity(64 + n * 9 + self.marks.local.len() * 4);
        self.write_prefix(FormatVersion::V2.magic(), &mut out);
        let payload = encode_payload(
            &self.hp.steps,
            &self.hp.nodes,
            &self.hp.values,
            &self.hp.offsets,
            opts,
        );
        out.put_u8(if opts.quantize_values {
            0
        } else {
            FLAG_VALUES_EXACT
        });
        out.put_u64_le(payload.block_entries as u64);
        out.put_u64_le((payload.block_offsets.len() - 1) as u64);
        for &o in &payload.block_offsets {
            out.put_u64_le(o);
        }
        out.extend_from_slice(&payload.bytes);
        out
    }

    /// Serialize into the `SLNGIDX3` layout: v2's blocks plus a
    /// cross-block value dictionary and a varint-delta block directory.
    /// Lossless by default (bit-identical round trip and never larger
    /// than v2); [`CompressOptions::quantize_values`] behaves as in
    /// [`SlingIndex::to_bytes_v2`].
    pub fn to_bytes_v3(&self, opts: &CompressOptions) -> Vec<u8> {
        let n = self.num_nodes;
        let mut out = Vec::with_capacity(64 + n * 9 + self.marks.local.len() * 4);
        self.write_prefix(FormatVersion::V3.magic(), &mut out);
        let payload = encode_payload_v3(
            &self.hp.steps,
            &self.hp.nodes,
            &self.hp.values,
            &self.hp.offsets,
            opts,
        );
        out.put_u8(if opts.quantize_values {
            0
        } else {
            FLAG_VALUES_EXACT
        });
        out.put_u64_le(payload.block_entries as u64);
        out.put_u64_le((payload.block_offsets.len() - 1) as u64);
        varint::write_u64(&mut out, payload.global_dict.len() as u64);
        for &v in &payload.global_dict {
            out.put_f64_le(v);
        }
        for w in payload.block_offsets.windows(2) {
            varint::write_u64(&mut out, w[1] - w[0]);
        }
        out.extend_from_slice(&payload.bytes);
        out
    }

    /// Decode a persisted index image of any format generation
    /// **without** a graph fingerprint check (the header's `(n, m)` are
    /// retained). Used by format-conversion tools; queries should go
    /// through [`SlingIndex::from_bytes`], which verifies the graph.
    pub fn decode(bytes: &[u8]) -> Result<Self, SlingError> {
        Self::from_meta(decode_meta(bytes)?, bytes)
    }

    /// Deserialize an index previously produced by
    /// [`SlingIndex::to_bytes`], [`SlingIndex::to_bytes_v2`] or
    /// [`SlingIndex::to_bytes_v3`], verifying it matches `graph`. The
    /// fingerprint is checked against the `O(n)` metadata *before* the
    /// entry payload is decoded, so a wrong-graph load fails fast without
    /// touching the payload.
    pub fn from_bytes(graph: &DiGraph, bytes: &[u8]) -> Result<Self, SlingError> {
        let meta = decode_meta(bytes)?;
        meta.check_graph(graph)?;
        Self::from_meta(meta, bytes)
    }

    /// Read the whole entry payload described by `meta` through the one
    /// reader, one block-sized chunk at a time into a reused buffer, and
    /// check the run order of every node ([`HpArena::validate`]).
    fn from_meta(meta: DecodedMeta, bytes: &[u8]) -> Result<Self, SlingError> {
        let (payload, entries) = (&meta.payload, meta.entries);
        let chunk = payload.chunk_entries();
        let mut steps = Vec::with_capacity(entries);
        let mut nodes = Vec::with_capacity(entries);
        let mut values = Vec::with_capacity(entries);
        let mut buf = Vec::with_capacity(chunk.min(entries));
        for lo in (0..entries).step_by(chunk) {
            buf.clear();
            payload.read_entries(bytes, lo..entries.min(lo + chunk), &mut buf)?;
            steps.extend(buf.iter().map(|e| e.step));
            nodes.extend(buf.iter().map(|e| e.node.0));
            values.extend(buf.iter().map(|e| e.value));
        }
        let hp = HpArena {
            offsets: meta.hp_offsets,
            steps,
            nodes,
            values,
        };
        hp.validate()?;
        Ok(SlingIndex {
            config: meta.config,
            num_nodes: meta.num_nodes,
            num_edges: meta.num_edges,
            d: meta.d,
            hp,
            reduced: meta.reduced,
            marks: meta.marks,
            stats: meta.stats,
        })
    }

    /// Persist to a file (`SLNGIDX1`).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SlingError> {
        let mut f = File::create(path)?;
        f.write_all(&self.to_bytes())?;
        Ok(())
    }

    /// Persist to a file in the block-compressed `SLNGIDX2` layout.
    pub fn save_v2(
        &self,
        path: impl AsRef<Path>,
        opts: &CompressOptions,
    ) -> Result<(), SlingError> {
        let mut f = File::create(path)?;
        f.write_all(&self.to_bytes_v2(opts))?;
        Ok(())
    }

    /// Persist to a file in the `SLNGIDX3` layout.
    pub fn save_v3(
        &self,
        path: impl AsRef<Path>,
        opts: &CompressOptions,
    ) -> Result<(), SlingError> {
        let mut f = File::create(path)?;
        f.write_all(&self.to_bytes_v3(opts))?;
        Ok(())
    }

    /// Load from a file (any format generation), verifying against
    /// `graph`.
    pub fn load(graph: &DiGraph, path: impl AsRef<Path>) -> Result<Self, SlingError> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        Self::from_bytes(graph, &bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sling_graph::generators::{barabasi_albert, two_cliques_bridge};
    use sling_graph::NodeId;

    fn cfg() -> SlingConfig {
        SlingConfig::from_epsilon(0.6, 0.1)
            .with_seed(21)
            .with_enhancement(true)
    }

    #[test]
    fn byte_round_trip_preserves_everything() {
        let g = barabasi_albert(120, 2, 4).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let bytes = idx.to_bytes();
        let back = SlingIndex::from_bytes(&g, &bytes).unwrap();
        assert_eq!(idx.d, back.d);
        assert_eq!(idx.hp, back.hp);
        assert_eq!(idx.reduced, back.reduced);
        assert_eq!(idx.marks, back.marks);
        assert_eq!(idx.config, back.config);
        // Queries agree exactly.
        for (u, v) in [(0u32, 1u32), (5, 80), (119, 3)] {
            assert_eq!(
                idx.single_pair(&g, NodeId(u), NodeId(v)),
                back.single_pair(&g, NodeId(u), NodeId(v))
            );
        }
    }

    #[test]
    fn v2_byte_round_trip_is_bit_identical_and_smaller() {
        let g = barabasi_albert(150, 3, 8).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let v1 = idx.to_bytes();
        let v2 = idx.to_bytes_v2(&CompressOptions::default());
        assert!(v2.len() < v1.len(), "v2 {} vs v1 {}", v2.len(), v1.len());
        let back = SlingIndex::from_bytes(&g, &v2).unwrap();
        assert_eq!(idx.d, back.d);
        assert_eq!(idx.hp, back.hp, "lossless v2 must be bit-identical");
        assert_eq!(idx.reduced, back.reduced);
        assert_eq!(idx.marks, back.marks);
        assert_eq!(idx.config, back.config);
    }

    #[test]
    fn v2_quantized_round_trip_is_close_and_flagged() {
        let g = two_cliques_bridge(5);
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let opts = CompressOptions {
            quantize_values: true,
            ..CompressOptions::default()
        };
        let v2 = idx.to_bytes_v2(&opts);
        let info = inspect_bytes(&v2).unwrap();
        assert!(!info.values_exact);
        let back = SlingIndex::from_bytes(&g, &v2).unwrap();
        assert_eq!(idx.hp.steps, back.hp.steps);
        assert_eq!(idx.hp.nodes, back.hp.nodes);
        for (a, b) in idx.hp.values.iter().zip(&back.hp.values) {
            assert!((a - b).abs() <= 0.5 / (u32::MAX as f64), "{a} vs {b}");
        }
    }

    #[test]
    fn v3_byte_round_trip_is_bit_identical_and_no_larger_than_v2() {
        let g = barabasi_albert(150, 3, 8).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let v2 = idx.to_bytes_v2(&CompressOptions::default());
        let v3 = idx.to_bytes_v3(&CompressOptions::default());
        assert!(v3.len() <= v2.len(), "v3 {} vs v2 {}", v3.len(), v2.len());
        assert_eq!(detect_version(&v3).unwrap(), FormatVersion::V3);
        let back = SlingIndex::from_bytes(&g, &v3).unwrap();
        assert_eq!(idx.d, back.d);
        assert_eq!(idx.hp, back.hp, "lossless v3 must be bit-identical");
        assert_eq!(idx.reduced, back.reduced);
        assert_eq!(idx.marks, back.marks);
        assert_eq!(idx.config, back.config);
    }

    #[test]
    fn v3_quantized_round_trip_is_close_and_flagged() {
        let g = two_cliques_bridge(5);
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let opts = CompressOptions {
            quantize_values: true,
            ..CompressOptions::default()
        };
        let v3 = idx.to_bytes_v3(&opts);
        let info = inspect_bytes(&v3).unwrap();
        assert!(!info.values_exact);
        assert_eq!(info.global_dict_bytes, varint::len_u64(0));
        let back = SlingIndex::from_bytes(&g, &v3).unwrap();
        assert_eq!(idx.hp.steps, back.hp.steps);
        assert_eq!(idx.hp.nodes, back.hp.nodes);
        for (a, b) in idx.hp.values.iter().zip(&back.hp.values) {
            assert!((a - b).abs() <= 0.5 / (u32::MAX as f64), "{a} vs {b}");
        }
    }

    #[test]
    fn v3_extreme_block_sizes_round_trip() {
        let g = two_cliques_bridge(4);
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        for block_entries in [1usize, 7, 1 << 20] {
            let opts = CompressOptions {
                block_entries,
                quantize_values: false,
            };
            let back = SlingIndex::from_bytes(&g, &idx.to_bytes_v3(&opts)).unwrap();
            assert_eq!(idx.hp, back.hp, "block_entries = {block_entries}");
        }
    }

    #[test]
    fn v3_meta_reports_dictionary_and_compact_directory() {
        let g = barabasi_albert(120, 3, 9).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let opts = CompressOptions {
            block_entries: 64,
            quantize_values: false,
        };
        let bytes = idx.to_bytes_v3(&opts);
        let meta = decode_meta(&bytes).unwrap();
        assert_eq!(meta.version, FormatVersion::V3);
        assert_eq!(meta.total_len, bytes.len());
        let PayloadLayout::Blocked(geo) = meta.payload.layout else {
            panic!("v3 image decoded to a raw geometry");
        };
        assert_eq!(geo.block_entries, 64);
        assert_eq!(geo.num_blocks(), meta.entries.div_ceil(64));
        assert!(geo.values_exact);
        assert!(geo.global_dict.as_ref().is_some_and(|d| !d.is_empty()));
        assert_eq!(geo.blocks_base + geo.payload_len(), bytes.len());
        // The varint directory beats v2's fixed (num_blocks + 1) × u64.
        let dict_bytes = geo
            .global_dict
            .as_ref()
            .map(|d| varint::len_u64(d.len() as u64) + d.len() * 8)
            .unwrap();
        assert!(geo.aux_bytes - dict_bytes < (geo.num_blocks() + 1) * 8);
        // Reconstructed offsets are strictly monotone from 0.
        assert_eq!(geo.block_offsets.first(), Some(&0));
        assert!(geo.block_offsets.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn v2_extreme_block_sizes_round_trip() {
        let g = two_cliques_bridge(4);
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        for block_entries in [1usize, 7, 1 << 20] {
            let opts = CompressOptions {
                block_entries,
                quantize_values: false,
            };
            let back = SlingIndex::from_bytes(&g, &idx.to_bytes_v2(&opts)).unwrap();
            assert_eq!(idx.hp, back.hp, "block_entries = {block_entries}");
        }
    }

    #[test]
    fn file_round_trip() {
        let g = two_cliques_bridge(4);
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let path = std::env::temp_dir().join(format!("sling_fmt_{}.idx", std::process::id()));
        idx.save(&path).unwrap();
        let back = SlingIndex::load(&g, &path).unwrap();
        assert_eq!(idx.hp, back.hp);
        // The v2 file loads through the same entry point.
        idx.save_v2(&path, &CompressOptions::default()).unwrap();
        let back = SlingIndex::load(&g, &path).unwrap();
        assert_eq!(idx.hp, back.hp);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_wrong_graph() {
        let g = two_cliques_bridge(4);
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let other = two_cliques_bridge(5);
        let err = SlingIndex::from_bytes(&other, &idx.to_bytes()).unwrap_err();
        assert!(matches!(err, SlingError::GraphMismatch { .. }));
        let err = SlingIndex::from_bytes(&other, &idx.to_bytes_v2(&CompressOptions::default()))
            .unwrap_err();
        assert!(matches!(err, SlingError::GraphMismatch { .. }));
    }

    #[test]
    fn rejects_truncation_and_corruption() {
        let g = two_cliques_bridge(4);
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        for bytes in [
            idx.to_bytes(),
            idx.to_bytes_v2(&CompressOptions::default()),
            idx.to_bytes_v3(&CompressOptions::default()),
        ] {
            // Truncations at various prefixes must all error, never panic.
            for cut in [0, 4, 8, 20, 60, bytes.len() / 2, bytes.len() - 1] {
                assert!(
                    SlingIndex::from_bytes(&g, &bytes[..cut]).is_err(),
                    "cut {cut} accepted"
                );
            }
            // Corrupt magic.
            let mut bad = bytes.clone();
            bad[0] ^= 0xff;
            assert!(SlingIndex::from_bytes(&g, &bad).is_err());
        }
    }

    #[test]
    fn meta_decode_reports_section_geometry() {
        let g = two_cliques_bridge(5);
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let bytes = idx.to_bytes();
        let meta = decode_meta(&bytes).unwrap();
        assert_eq!(meta.version, FormatVersion::V1);
        assert_eq!(meta.num_nodes, g.num_nodes());
        assert_eq!(meta.num_edges, g.num_edges());
        assert_eq!(meta.entries, idx.hp.total_entries());
        assert_eq!(meta.hp_offsets, idx.hp.offsets);
        assert_eq!(meta.total_len, bytes.len());
        let PayloadLayout::Raw {
            steps_base,
            nodes_base,
            values_base,
        } = meta.payload.layout
        else {
            panic!("v1 image decoded to a blocked geometry");
        };
        assert_eq!(nodes_base - steps_base, meta.entries * 2);
        assert_eq!(values_base - nodes_base, meta.entries * 4);
        // The payload sections hold exactly the arena arrays.
        let steps_raw = &bytes[steps_base..nodes_base];
        assert_eq!(
            steps_raw
                .chunks(2)
                .map(|c| u16::from_le_bytes(c.try_into().unwrap()))
                .collect::<Vec<_>>(),
            idx.hp.steps
        );
    }

    #[test]
    fn meta_decode_reports_block_geometry() {
        let g = two_cliques_bridge(5);
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let opts = CompressOptions {
            block_entries: 32,
            quantize_values: false,
        };
        let bytes = idx.to_bytes_v2(&opts);
        let meta = decode_meta(&bytes).unwrap();
        assert_eq!(meta.version, FormatVersion::V2);
        assert_eq!(meta.total_len, bytes.len());
        let PayloadLayout::Blocked(geo) = meta.payload.layout else {
            panic!("v2 image decoded to a raw geometry");
        };
        assert_eq!(geo.block_entries, 32);
        assert_eq!(geo.num_blocks(), meta.entries.div_ceil(32));
        assert!(geo.values_exact);
        assert_eq!(geo.blocks_base + geo.payload_len(), bytes.len());
    }

    #[test]
    fn meta_decode_rejects_oversized_counts() {
        let g = two_cliques_bridge(4);
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        for mut bytes in [idx.to_bytes(), idx.to_bytes_v2(&CompressOptions::default())] {
            // Blow up the node count field: must be rejected before any
            // n-sized allocation happens.
            bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
            assert!(SlingIndex::from_bytes(&g, &bytes).is_err());
            assert!(decode_meta(&bytes).is_err());
        }
    }

    #[test]
    fn v2_rejects_entry_counts_larger_than_the_payload() {
        let g = two_cliques_bridge(4);
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let opts = CompressOptions {
            block_entries: MAX_BLOCK_ENTRIES,
            quantize_values: false,
        };
        let mut bytes = idx.to_bytes_v2(&opts);
        let meta = decode_meta(&bytes).unwrap();
        let n = meta.num_nodes;
        // Claim MAX_BLOCK_ENTRIES entries: still consistent with the
        // one-block directory, but far beyond the payload bytes. The
        // decoder must reject this *in decode_meta* — before any
        // entries-sized allocation — or a ~100 KB file could demand a
        // multi-gigabyte decode.
        let claimed = (MAX_BLOCK_ENTRIES as u64).to_le_bytes();
        let last_off = meta.offsets_base + n * 8;
        bytes[last_off..last_off + 8].copy_from_slice(&claimed);
        bytes[last_off + 8..last_off + 16].copy_from_slice(&claimed);
        let Err(err) = decode_meta(&bytes) else {
            panic!("oversized entry claim accepted");
        };
        assert!(err.to_string().contains("cannot fit"), "{err}");
        assert!(SlingIndex::decode(&bytes).is_err());
    }

    #[test]
    fn inspect_reports_both_generations() {
        let g = barabasi_albert(100, 3, 5).unwrap();
        let idx = SlingIndex::build(&g, &cfg()).unwrap();
        let v1 = inspect_bytes(&idx.to_bytes()).unwrap();
        assert_eq!(v1.version, FormatVersion::V1);
        assert_eq!(v1.entries, idx.hp.total_entries());
        assert_eq!(v1.payload_bytes, v1.raw_payload_bytes);
        assert_eq!(v1.compression_ratio(), 1.0);
        assert!(v1.values_exact);

        let v2 = inspect_bytes(&idx.to_bytes_v2(&CompressOptions::default())).unwrap();
        assert_eq!(v2.version, FormatVersion::V2);
        assert_eq!(v2.entries, v1.entries);
        assert!(v2.payload_bytes < v1.payload_bytes);
        assert!(v2.compression_ratio() < 1.0);
        assert!(v2.values_exact);
        assert!(v2.num_blocks > 0);
        assert_eq!(v2.block_entries, crate::codec::DEFAULT_BLOCK_ENTRIES);
        assert_eq!(v2.directory_bytes, (v2.num_blocks + 1) * 8);
        assert_eq!(v2.global_dict_bytes, 0);

        let v3 = inspect_bytes(&idx.to_bytes_v3(&CompressOptions::default())).unwrap();
        assert_eq!(v3.version, FormatVersion::V3);
        assert_eq!(v3.entries, v1.entries);
        // v3 payload_bytes charges the dictionary + directory and still
        // beats v2's block bytes alone.
        assert!(v3.payload_bytes < v2.payload_bytes);
        assert!(v3.global_dict_bytes > 0);
        assert!(v3.directory_bytes > 0);
        assert!(v3.values_exact);
    }
}
