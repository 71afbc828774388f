//! Independently decodable entry blocks — the unit of the `SLNGIDX2`
//! payload.
//!
//! The global entry array (sorted by `(owner, step, node)`) is cut into
//! fixed-size blocks of [`DEFAULT_BLOCK_ENTRIES`] entries (the last may
//! be short). Each block is self-contained: decoding needs only the
//! block's bytes and its expected entry count, never a neighbouring
//! block — which is what lets the compressed mmap backend decode exactly
//! the blocks a query touches.
//!
//! ## Block layout
//!
//! ```text
//! num_entries  varint                (== expected count, validated)
//! num_runs     varint
//! runs:        num_runs × (step varint, len varint ≥ 1), Σ len == num_entries
//! nodes:       per run: first node absolute varint, then (delta − 1) varints
//! value_tag    u8                    (see crate::codec::value)
//! values:      codec-specific payload, num_entries values
//! ```
//!
//! A *run* is a maximal span of entries sharing one `(owner, step)` key —
//! node ids are strictly increasing inside it, so consecutive deltas are
//! ≥ 1 and `delta − 1` packs the common +1 case into a zero byte. The
//! encoder breaks runs at owner boundaries (two owners may store the same
//! step) and at block boundaries (independence), which is why run
//! boundaries are an encoder input rather than derived from the step
//! column.
//!
//! The decoder validates everything: counts against the directory,
//! run-length sums, node-id overflow, value-section length, and that the
//! block's bytes are consumed exactly. Any violation is
//! [`SlingError::CorruptIndex`]; no input may panic.

use crate::codec::value::{
    codec_for_tag, decode_values_global, encode_values_lossless, encode_values_quantized,
    encode_values_v3, GlobalDict, TAG_GLOBAL_DICT,
};
use crate::codec::varint;
use crate::error::SlingError;

/// Default entries per block: big enough that the per-block dictionary
/// and directory overhead amortize, small enough that decoding a block
/// to serve one `O(1/ε)` entry run stays cheap.
pub const DEFAULT_BLOCK_ENTRIES: usize = 1024;

/// Hard ceiling on entries per block, bounding what a corrupt directory
/// can make a decoder allocate.
pub const MAX_BLOCK_ENTRIES: usize = 1 << 20;

fn corrupt(what: impl Into<String>) -> SlingError {
    SlingError::CorruptIndex(what.into())
}

/// Lane width of the chunked validation sweeps ([`max_node`],
/// [`values_all_probabilities`] and the raw-section sweep in
/// `crate::store::validate_raw_le`): the folds process this many
/// independent accumulators per stripe so the compiler can keep them in
/// vector registers, with a scalar tail for the remainder.
pub(crate) const SWEEP_LANES: usize = 8;

/// Upper probability bound the validators accept: the exact tolerance of
/// `crate::store::check_value`, shared so the wide sweeps and the
/// per-entry rescans can never disagree on what passes.
pub(crate) const MAX_PROBABILITY: f64 = 1.0 + 1e-9;

/// Maximum node id in a decoded node column — a lane-parallel max fold.
/// Callers compare the result against `n` once and only a failing column
/// pays a per-entry rescan to name the offending entry.
pub(crate) fn max_node(nodes: &[u32]) -> u32 {
    let mut lanes = [0u32; SWEEP_LANES];
    let mut chunks = nodes.chunks_exact(SWEEP_LANES);
    for stripe in &mut chunks {
        for (m, &v) in lanes.iter_mut().zip(stripe) {
            *m = (*m).max(v);
        }
    }
    let mut max = lanes.into_iter().max().unwrap_or(0);
    for &v in chunks.remainder() {
        max = max.max(v);
    }
    max
}

/// Whether every value is a finite probability in
/// `0.0..=`[`MAX_PROBABILITY`] — a lane-parallel boolean fold.
///
/// The per-lane predicate `(v >= 0.0) & (v <= MAX_PROBABILITY)` is
/// exactly `v.is_finite() && (0.0..=MAX_PROBABILITY).contains(&v)`:
/// NaN fails both comparisons and ±∞ fails one, so the explicit
/// finiteness test is redundant and the fold stays two branchless
/// compares per lane.
// The two non-short-circuit compares are the point; `contains` is `&&`.
#[allow(clippy::manual_range_contains)]
pub(crate) fn values_all_probabilities(values: &[f64]) -> bool {
    let mut lanes = [true; SWEEP_LANES];
    let mut chunks = values.chunks_exact(SWEEP_LANES);
    for stripe in &mut chunks {
        for (ok, &v) in lanes.iter_mut().zip(stripe) {
            *ok &= (v >= 0.0) & (v <= MAX_PROBABILITY);
        }
    }
    let mut all = lanes.into_iter().all(|ok| ok);
    for &v in chunks.remainder() {
        all &= (v >= 0.0) & (v <= MAX_PROBABILITY);
    }
    all
}

/// One decoded block: the three entry columns, parallel and
/// `num_entries` long. Reused across decodes (buffers are cleared, not
/// reallocated) and shared via `Arc` by the block caches.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DecodedBlock {
    pub steps: Vec<u16>,
    pub nodes: Vec<u32>,
    pub values: Vec<f64>,
}

impl DecodedBlock {
    /// Entries held.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the block holds no entries.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    fn clear(&mut self) {
        self.steps.clear();
        self.nodes.clear();
        self.values.clear();
    }
}

/// Value-section encoding mode of [`encode_block_with`].
#[derive(Clone, Copy)]
pub enum ValueMode<'a> {
    /// v2 lossless: the smaller of raw/per-block-dictionary.
    Lossless,
    /// Lossy fixed-point `u32` (flagged file-wide).
    Quantized,
    /// v3 lossless: cross-block [`GlobalDict`] with split-plane escapes,
    /// falling back to raw/per-block-dictionary per block by exact cost.
    Global(&'a GlobalDict),
}

/// Encode one block. `run_starts` lists the local indices (ascending,
/// starting with 0) where a new `(owner, step)` run begins; the columns
/// must be equally long and non-empty.
///
/// `quantize_values` selects the lossy fixed-point value codec; the
/// default lossless path picks the smaller of raw/dictionary per block.
/// (The v3 encoder calls [`encode_block_with`] directly.)
pub fn encode_block(
    steps: &[u16],
    nodes: &[u32],
    values: &[f64],
    run_starts: &[usize],
    quantize_values: bool,
    out: &mut Vec<u8>,
) {
    let mode = if quantize_values {
        ValueMode::Quantized
    } else {
        ValueMode::Lossless
    };
    encode_block_with(steps, nodes, values, run_starts, mode, out)
}

/// Encode one block with an explicit value-section mode (see
/// [`ValueMode`]); the step/node column encodings are identical across
/// modes and format generations.
pub fn encode_block_with(
    steps: &[u16],
    nodes: &[u32],
    values: &[f64],
    run_starts: &[usize],
    mode: ValueMode<'_>,
    out: &mut Vec<u8>,
) {
    let count = steps.len();
    debug_assert!(count > 0, "empty blocks are never written");
    debug_assert_eq!(nodes.len(), count);
    debug_assert_eq!(values.len(), count);
    debug_assert_eq!(run_starts.first(), Some(&0));

    varint::write_u64(out, count as u64);
    varint::write_u64(out, run_starts.len() as u64);

    // Run directory: (step, length) per run.
    for (i, &start) in run_starts.iter().enumerate() {
        let end = run_starts.get(i + 1).copied().unwrap_or(count);
        debug_assert!(start < end, "empty run at {start}");
        varint::write_u64(out, steps[start] as u64);
        varint::write_u64(out, (end - start) as u64);
    }

    // Node column: absolute first id per run, then gap − 1 deltas.
    for (i, &start) in run_starts.iter().enumerate() {
        let end = run_starts.get(i + 1).copied().unwrap_or(count);
        varint::write_u64(out, nodes[start] as u64);
        for j in start + 1..end {
            debug_assert!(nodes[j] > nodes[j - 1], "run not strictly increasing");
            varint::write_u64(out, (nodes[j] - nodes[j - 1] - 1) as u64);
        }
    }

    // Value column, behind its codec tag.
    match mode {
        ValueMode::Quantized => encode_values_quantized(values, out),
        ValueMode::Lossless => encode_values_lossless(values, out),
        ValueMode::Global(dict) => encode_values_v3(values, dict, out),
    }
}

/// Decode one block into `out` (cleared first), validating it holds
/// exactly `expected_entries` entries and consumes `bytes` exactly.
/// v1/v2 context: a [`TAG_GLOBAL_DICT`] value section is rejected.
pub fn decode_block(
    bytes: &[u8],
    expected_entries: usize,
    out: &mut DecodedBlock,
) -> Result<(), SlingError> {
    decode_block_ctx(bytes, expected_entries, None, out)
}

/// Decode one block of an `SLNGIDX3` payload: like [`decode_block`],
/// additionally resolving [`TAG_GLOBAL_DICT`] value sections against the
/// file's resident global dictionary.
pub fn decode_block_with_dict(
    bytes: &[u8],
    expected_entries: usize,
    global_dict: &[f64],
    out: &mut DecodedBlock,
) -> Result<(), SlingError> {
    decode_block_ctx(bytes, expected_entries, Some(global_dict), out)
}

fn decode_block_ctx(
    bytes: &[u8],
    expected_entries: usize,
    global_dict: Option<&[f64]>,
    out: &mut DecodedBlock,
) -> Result<(), SlingError> {
    out.clear();
    if expected_entries == 0 || expected_entries > MAX_BLOCK_ENTRIES {
        return Err(corrupt(format!(
            "block directory expects {expected_entries} entries (valid: 1..={MAX_BLOCK_ENTRIES})"
        )));
    }
    let mut buf = bytes;
    let count = varint::read_u32(&mut buf)? as usize;
    if count != expected_entries {
        return Err(corrupt(format!(
            "block holds {count} entries, directory says {expected_entries}"
        )));
    }
    let num_runs = varint::read_u32(&mut buf)? as usize;
    if num_runs == 0 || num_runs > count {
        return Err(corrupt(format!(
            "block of {count} entries claims {num_runs} runs"
        )));
    }

    // Run directory.
    let mut run_lens = Vec::with_capacity(num_runs);
    out.steps.reserve(count);
    let mut total = 0usize;
    for _ in 0..num_runs {
        let step = varint::read_u16(&mut buf)?;
        let len = varint::read_u32(&mut buf)? as usize;
        if len == 0 {
            return Err(corrupt("zero-length run"));
        }
        total += len;
        if total > count {
            return Err(corrupt("run lengths exceed the block entry count"));
        }
        for _ in 0..len {
            out.steps.push(step);
        }
        run_lens.push(len);
    }
    if total != count {
        return Err(corrupt(format!(
            "run lengths cover {total} of {count} entries"
        )));
    }

    // Node column.
    out.nodes.reserve(count);
    for &len in &run_lens {
        let mut node = varint::read_u32(&mut buf)?;
        out.nodes.push(node);
        for _ in 1..len {
            let gap = varint::read_u32(&mut buf)? as u64;
            let next = node as u64 + gap + 1;
            node = u32::try_from(next)
                .map_err(|_| corrupt(format!("node delta overflows u32 ({next})")))?;
            out.nodes.push(node);
        }
    }

    // Value column.
    if buf.is_empty() {
        return Err(corrupt("block truncated before the value section"));
    }
    let tag = buf[0];
    buf = &buf[1..];
    match (tag, global_dict) {
        (TAG_GLOBAL_DICT, Some(dict)) => {
            decode_values_global(&mut buf, count, dict, &mut out.values)?
        }
        (TAG_GLOBAL_DICT, None) => {
            return Err(corrupt(
                "global-dictionary value section outside an SLNGIDX3 payload",
            ));
        }
        _ => codec_for_tag(tag)?.decode(&mut buf, count, &mut out.values)?,
    }

    if !buf.is_empty() {
        return Err(corrupt(format!(
            "{} trailing bytes after the block payload",
            buf.len()
        )));
    }
    Ok(())
}

/// Per-section byte sizes of one encoded block, as reported by
/// [`block_section_sizes`] for `sling inspect` attribution.
#[derive(Clone, Copy, Debug, Default)]
pub struct BlockSections {
    /// Entry/run counts plus the run directory.
    pub header_bytes: usize,
    /// Delta-coded node column.
    pub node_bytes: usize,
    /// Codec tag of the value section (see `crate::codec::value`).
    pub value_tag: u8,
    /// Value section, including its tag byte.
    pub value_bytes: usize,
}

/// Measure where a block's bytes go, section by section, without
/// materializing its columns. Framing (counts, run shapes, varint
/// truncation) is validated; node-id ranges and value payloads are not —
/// callers wanting full validation decode the block instead.
pub fn block_section_sizes(
    bytes: &[u8],
    expected_entries: usize,
) -> Result<BlockSections, SlingError> {
    if expected_entries == 0 || expected_entries > MAX_BLOCK_ENTRIES {
        return Err(corrupt(format!(
            "block directory expects {expected_entries} entries (valid: 1..={MAX_BLOCK_ENTRIES})"
        )));
    }
    let mut buf = bytes;
    let count = varint::read_u32(&mut buf)? as usize;
    if count != expected_entries {
        return Err(corrupt(format!(
            "block holds {count} entries, directory says {expected_entries}"
        )));
    }
    let num_runs = varint::read_u32(&mut buf)? as usize;
    if num_runs == 0 || num_runs > count {
        return Err(corrupt(format!(
            "block of {count} entries claims {num_runs} runs"
        )));
    }
    let mut run_lens = Vec::with_capacity(num_runs);
    let mut total = 0usize;
    for _ in 0..num_runs {
        let _step = varint::read_u16(&mut buf)?;
        let len = varint::read_u32(&mut buf)? as usize;
        if len == 0 {
            return Err(corrupt("zero-length run"));
        }
        total += len;
        if total > count {
            return Err(corrupt("run lengths exceed the block entry count"));
        }
        run_lens.push(len);
    }
    if total != count {
        return Err(corrupt(format!(
            "run lengths cover {total} of {count} entries"
        )));
    }
    let header_bytes = bytes.len() - buf.len();

    // Node column: per run one absolute id plus len − 1 deltas.
    for &len in &run_lens {
        for _ in 0..len {
            varint::read_u64(&mut buf)?;
        }
    }
    let node_bytes = bytes.len() - buf.len() - header_bytes;

    if buf.is_empty() {
        return Err(corrupt("block truncated before the value section"));
    }
    Ok(BlockSections {
        header_bytes,
        node_bytes,
        value_tag: buf[0],
        value_bytes: buf.len(),
    })
}

/// Compute the local run-start indices for a block slice, given the
/// owner of each entry. `owners` and `steps` are the block's columns; a
/// run breaks when either changes (and implicitly at the block start).
pub fn run_starts(owners: &[u32], steps: &[u16]) -> Vec<usize> {
    let mut starts = Vec::new();
    for i in 0..steps.len() {
        if i == 0 || owners[i] != owners[i - 1] || steps[i] != steps[i - 1] {
            starts.push(i);
        }
    }
    starts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(steps: &[u16], nodes: &[u32], values: &[f64], owners: &[u32], quantize: bool) {
        let starts = run_starts(owners, steps);
        let mut bytes = Vec::new();
        encode_block(steps, nodes, values, &starts, quantize, &mut bytes);
        let mut block = DecodedBlock::default();
        decode_block(&bytes, steps.len(), &mut block).unwrap();
        assert_eq!(block.steps, steps);
        assert_eq!(block.nodes, nodes);
        if quantize {
            for (a, b) in values.iter().zip(&block.values) {
                assert!((a - b).abs() <= 0.5 / (u32::MAX as f64));
            }
        } else {
            assert_eq!(
                block.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                values.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn round_trips_multi_owner_multi_step_blocks() {
        // Owner 3: step 0 {3}, step 1 {0, 1, 9}; owner 4: step 1 {2, 7}.
        let owners = [3u32, 3, 3, 3, 4, 4];
        let steps = [0u16, 1, 1, 1, 1, 1];
        let nodes = [3u32, 0, 1, 9, 2, 7];
        let values = [1.0, 0.5, 0.5, 0.5, 1.0 / 3.0, 1.0 / 3.0];
        round_trip(&steps, &nodes, &values, &owners, false);
        round_trip(&steps, &nodes, &values, &owners, true);
    }

    #[test]
    fn adjacent_owners_with_equal_steps_stay_separate_runs() {
        let owners = [1u32, 1, 2, 2];
        let steps = [1u16, 1, 1, 1];
        let starts = run_starts(&owners, &steps);
        assert_eq!(starts, vec![0, 2]);
        // Node ids may go *backwards* across the owner boundary; the
        // absolute restart per run makes that legal.
        let nodes = [5u32, 9, 2, 3];
        let values = [0.1, 0.2, 0.3, 0.4];
        round_trip(&steps, &nodes, &values, &owners, false);
    }

    #[test]
    fn max_delta_ids_round_trip() {
        let owners = [0u32, 0, 0];
        let steps = [2u16, 2, 2];
        let nodes = [0u32, 1, u32::MAX];
        let values = [0.5, 0.25, 0.125];
        round_trip(&steps, &nodes, &values, &owners, false);
    }

    #[test]
    fn single_entry_block() {
        round_trip(&[7], &[42], &[0.125], &[9], false);
    }

    #[test]
    fn rejects_count_mismatch_and_zero_expectation() {
        let mut bytes = Vec::new();
        encode_block(&[0, 0], &[1, 2], &[0.5, 0.5], &[0], false, &mut bytes);
        let mut block = DecodedBlock::default();
        assert!(decode_block(&bytes, 3, &mut block).is_err());
        assert!(decode_block(&bytes, 0, &mut block).is_err());
        assert!(decode_block(&bytes, MAX_BLOCK_ENTRIES + 1, &mut block).is_err());
        assert!(decode_block(&bytes, 2, &mut block).is_ok());
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        let mut bytes = Vec::new();
        encode_block(&[0, 1], &[4, 4], &[1.0, 0.5], &[0, 1], false, &mut bytes);
        let mut block = DecodedBlock::default();
        decode_block(&bytes, 2, &mut block).unwrap();
        // Every truncation errors.
        for cut in 0..bytes.len() {
            assert!(
                decode_block(&bytes[..cut], 2, &mut block).is_err(),
                "cut {cut} accepted"
            );
        }
        // Trailing garbage errors.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_block(&extended, 2, &mut block).is_err());
    }

    #[test]
    fn rejects_node_overflow() {
        // One run of two entries whose delta pushes past u32::MAX.
        let mut bytes = Vec::new();
        varint::write_u64(&mut bytes, 2); // entries
        varint::write_u64(&mut bytes, 1); // runs
        varint::write_u64(&mut bytes, 0); // step
        varint::write_u64(&mut bytes, 2); // run len
        varint::write_u64(&mut bytes, u32::MAX as u64); // first node
        varint::write_u64(&mut bytes, 0); // delta-1 = 0 -> node u32::MAX + 1
        bytes.push(super::super::value::TAG_RAW_F64);
        bytes.extend_from_slice(&0.5f64.to_le_bytes());
        bytes.extend_from_slice(&0.5f64.to_le_bytes());
        let mut block = DecodedBlock::default();
        let err = decode_block(&bytes, 2, &mut block).unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
    }

    #[test]
    fn rejects_bad_run_shapes() {
        let mut block = DecodedBlock::default();
        // Zero runs for a non-empty block.
        let mut bytes = Vec::new();
        varint::write_u64(&mut bytes, 1);
        varint::write_u64(&mut bytes, 0);
        assert!(decode_block(&bytes, 1, &mut block).is_err());
        // Zero-length run.
        let mut bytes = Vec::new();
        varint::write_u64(&mut bytes, 1);
        varint::write_u64(&mut bytes, 1);
        varint::write_u64(&mut bytes, 0); // step
        varint::write_u64(&mut bytes, 0); // len 0
        assert!(decode_block(&bytes, 1, &mut block).is_err());
        // Run lengths overshooting the count.
        let mut bytes = Vec::new();
        varint::write_u64(&mut bytes, 2);
        varint::write_u64(&mut bytes, 1);
        varint::write_u64(&mut bytes, 0);
        varint::write_u64(&mut bytes, 5);
        assert!(decode_block(&bytes, 2, &mut block).is_err());
    }
}
