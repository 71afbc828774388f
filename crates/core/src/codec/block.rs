//! Independently decodable entry blocks — the unit of the `SLNGIDX2`
//! payload.
//!
//! The global entry array (sorted by `(owner, step, node)`) is cut into
//! fixed-size blocks of [`DEFAULT_BLOCK_ENTRIES`] entries (the last may
//! be short). Each block is self-contained: reading it needs only the
//! block's bytes and its expected entry count, never a neighbouring
//! block — which is what lets the compressed mmap backend read only the
//! blocks a query touches.
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
//! [`read_block_run`] is the one block decoder. It walks a block once,
//! validates all of it — counts against the directory, run-length sums,
//! node-id overflow and bound, value-section length, value range, and
//! that the block's bytes are consumed exactly — and keeps only the
//! entries of the run a query asked for. The eager [`decode_block`]
//! calls it over the whole block. Any violation is
//! [`SlingError::CorruptIndex`]; no input may panic.

use std::ops::Range;

use sling_graph::NodeId;

use crate::codec::value::{
    encode_values_lossless, encode_values_quantized, encode_values_v3, read_values_column,
    read_values_global, GlobalDict, TAG_GLOBAL_DICT,
};
use crate::codec::varint;
use crate::error::SlingError;
use crate::hp::HpEntry;

/// Default entries per block: big enough that the per-block dictionary
/// and directory overhead amortize, small enough that walking a block
/// to serve one `O(1/ε)` entry run stays cheap.
pub const DEFAULT_BLOCK_ENTRIES: usize = 1024;

/// Hard ceiling on entries per block, bounding what a corrupt directory
/// can make a decoder allocate.
pub const MAX_BLOCK_ENTRIES: usize = 1 << 20;

fn corrupt(what: impl Into<String>) -> SlingError {
    SlingError::CorruptIndex(what.into())
}

/// Upper probability bound the validators accept: the exact tolerance of
/// `crate::store::check_value`, shared so the wide sweeps and the
/// per-entry checks can never disagree on what passes.
pub(crate) const MAX_PROBABILITY: f64 = 1.0 + 1e-9;

/// Whether `v` is a finite probability in `0.0..=`[`MAX_PROBABILITY`]
/// (NaN and ±∞ fall outside the range).
#[inline]
pub(crate) fn is_probability(v: f64) -> bool {
    (0.0..=MAX_PROBABILITY).contains(&v)
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

/// Decode one whole block into `out` (cleared first), validating it
/// holds exactly `expected_entries` entries and consumes `bytes`
/// exactly: [`read_block_run`] over every entry, with no node-id bound.
/// v1/v2 context: a [`TAG_GLOBAL_DICT`] value section is rejected.
pub fn decode_block(
    bytes: &[u8],
    expected_entries: usize,
    out: &mut Vec<HpEntry>,
) -> Result<(), SlingError> {
    out.clear();
    read_block_run(
        bytes,
        expected_entries,
        None,
        usize::MAX,
        0..expected_entries,
        out,
    )
}

/// Decode one whole block of an `SLNGIDX3` payload: like
/// [`decode_block`], additionally resolving [`TAG_GLOBAL_DICT`] value
/// sections against the file's global dictionary, which must hold only
/// probabilities.
pub fn decode_block_with_dict(
    bytes: &[u8],
    expected_entries: usize,
    global_dict: &[f64],
    out: &mut Vec<HpEntry>,
) -> Result<(), SlingError> {
    out.clear();
    read_block_run(
        bytes,
        expected_entries,
        Some(global_dict),
        usize::MAX,
        0..expected_entries,
        out,
    )
}

/// Read the entries `run` (block-local indices) of one encoded block,
/// appending them to `out` in `(step, node)` order — the one block
/// decoder.
///
/// The whole block is checked, not just the run: it must hold exactly
/// `expected_entries` entries in well-shaped runs, every node id must
/// fit `u32` and lie below `num_nodes`, every value must be a finite
/// probability, and the value section must end exactly at the end of
/// `bytes`. `global_dict` resolves [`TAG_GLOBAL_DICT`] value sections
/// (`None` outside an `SLNGIDX3` payload, where such a section is an
/// error) and must hold only probabilities. On error `out` is left as
/// it was.
///
/// Allocates nothing beyond `out` on global-dictionary blocks, the
/// `SLNGIDX3` lossless layout: the run directory is walked a second time
/// in step with the node column instead of being stored, and the run's
/// escaped values are patched in place (see
/// `crate::codec::value::read_values_global`). Raw, per-block-dictionary
/// and fixed-point value sections decode their column into a scratch
/// vector first.
pub fn read_block_run(
    bytes: &[u8],
    expected_entries: usize,
    global_dict: Option<&[f64]>,
    num_nodes: usize,
    run: Range<usize>,
    out: &mut Vec<HpEntry>,
) -> Result<(), SlingError> {
    let base = out.len();
    let read = read_run(bytes, expected_entries, global_dict, num_nodes, run, out);
    if read.is_err() {
        out.truncate(base);
    }
    read
}

fn read_run(
    bytes: &[u8],
    expected_entries: usize,
    global_dict: Option<&[f64]>,
    num_nodes: usize,
    run: Range<usize>,
    out: &mut Vec<HpEntry>,
) -> Result<(), SlingError> {
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
    if run.start > run.end || run.end > count {
        return Err(corrupt(format!(
            "entries {run:?} requested from a block of {count}"
        )));
    }
    let num_runs = varint::read_u32(&mut buf)? as usize;
    if num_runs == 0 || num_runs > count {
        return Err(corrupt(format!(
            "block of {count} entries claims {num_runs} runs"
        )));
    }

    // Run directory, first walk: shapes only.
    let directory = buf;
    let mut total = 0usize;
    for _ in 0..num_runs {
        varint::read_u16(&mut buf)?;
        let len = varint::read_u32(&mut buf)? as usize;
        if len == 0 {
            return Err(corrupt("zero-length run"));
        }
        total += len;
        if total > count {
            return Err(corrupt("run lengths exceed the block entry count"));
        }
    }
    if total != count {
        return Err(corrupt(format!(
            "run lengths cover {total} of {count} entries"
        )));
    }

    // Node column, walked in step with a second pass over the directory.
    // Every id is decoded, since the overflow and bound checks need it,
    // but only the requested entries are kept. Ids rise within a run, so
    // its last id is its largest: one check per run covers both. (The
    // u64 sum of at most 2^20 u32 gaps cannot wrap.)
    let overflow = |node: u64| corrupt(format!("node delta overflows u32 ({node})"));
    let kept_from = out.len();
    out.reserve(run.len());
    let mut directory = directory;
    let mut at = 0usize;
    for _ in 0..num_runs {
        let step = varint::read_u16(&mut directory)?;
        let len = varint::read_u32(&mut directory)? as usize;
        let mut node = u64::from(varint::read_u32(&mut buf)?);
        if at + len <= run.start || at >= run.end {
            for _ in 1..len {
                node += u64::from(varint::read_u32(&mut buf)?) + 1;
            }
        } else {
            for i in at..at + len {
                if i > at {
                    node += u64::from(varint::read_u32(&mut buf)?) + 1;
                }
                if run.contains(&i) {
                    let id = u32::try_from(node).map_err(|_| overflow(node))?;
                    out.push(HpEntry::new(step, NodeId(id), 0.0));
                }
            }
        }
        at += len;
        let last = u32::try_from(node).map_err(|_| overflow(node))?;
        if last as usize >= num_nodes {
            return Err(corrupt(format!(
                "block entry {} references node {last} past n = {num_nodes}",
                at - 1
            )));
        }
    }

    // Value column, written into the kept entries.
    let Some((&tag, section)) = buf.split_first() else {
        return Err(corrupt("block truncated before the value section"));
    };
    let kept = &mut out[kept_from..];
    match (tag, global_dict) {
        (TAG_GLOBAL_DICT, Some(dict)) => read_values_global(section, count, dict, run, kept),
        (TAG_GLOBAL_DICT, None) => Err(corrupt(
            "global-dictionary value section outside an SLNGIDX3 payload",
        )),
        _ => read_values_column(tag, section, count, run, kept),
    }
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
        let mut block = Vec::new();
        decode_block(&bytes, steps.len(), &mut block).unwrap();
        assert_eq!(block.iter().map(|e| e.step).collect::<Vec<_>>(), steps);
        assert_eq!(block.iter().map(|e| e.node.0).collect::<Vec<_>>(), nodes);
        if quantize {
            for (a, b) in values.iter().zip(&block) {
                assert!((a - b.value).abs() <= 0.5 / (u32::MAX as f64));
            }
        } else {
            assert_eq!(
                block.iter().map(|e| e.value.to_bits()).collect::<Vec<_>>(),
                values.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
        // Every sub-run reads back the matching slice of the block.
        for lo in 0..=steps.len() {
            for hi in lo..=steps.len() {
                let mut part = vec![HpEntry::new(9, NodeId(9), 0.9)];
                read_block_run(&bytes, steps.len(), None, usize::MAX, lo..hi, &mut part).unwrap();
                assert_eq!(part[0], HpEntry::new(9, NodeId(9), 0.9), "prefix kept");
                assert_eq!(&part[1..], &block[lo..hi], "run {lo}..{hi}");
            }
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

    /// Reading one run checks the whole block: a node id at or past `n`,
    /// or an escaped value of 1.5, in the *other* run fails the read.
    #[test]
    fn a_bad_entry_in_another_run_fails_the_read() {
        // Owner 0: step 1 {1, 2}; owner 1: step 1 {5, 50}.
        let (steps, nodes, owners) = ([1u16; 4], [1u32, 2, 5, 50], [0u32, 0, 1, 1]);
        let starts = run_starts(&owners, &steps);
        let values = [0.5, 0.5, 0.5, 0.25];
        let dict = GlobalDict::build(&[0.5, 0.5, 0.25, 0.25]);
        let read = |bytes: &[u8], n: usize| {
            let mut out = Vec::new();
            let res = read_block_run(bytes, 4, Some(dict.values()), n, 0..2, &mut out);
            assert_eq!(out.len(), if res.is_ok() { 2 } else { 0 });
            res
        };
        let mut bytes = Vec::new();
        encode_block_with(
            &steps,
            &nodes,
            &values,
            &starts,
            ValueMode::Global(&dict),
            &mut bytes,
        );
        assert!(read(&bytes, 51).is_ok());
        assert!(read(&bytes, 50).is_err(), "node 50 in run 2 passed n = 50");

        for (last, ok) in [(0.75, true), (1.5, false)] {
            let values = [0.5, 0.5, 0.25, last];
            // Global-dictionary section: `last` is not in the dictionary,
            // so it escapes.
            let mut bytes = Vec::new();
            encode_block_with(
                &steps,
                &nodes,
                &values,
                &starts,
                ValueMode::Global(&dict),
                &mut bytes,
            );
            let tag = block_section_sizes(&bytes, 4).unwrap().value_tag;
            assert_eq!(tag, TAG_GLOBAL_DICT);
            assert_eq!(read(&bytes, 51).is_ok(), ok, "escaped {last}");
            // Raw column.
            let mut bytes = Vec::new();
            encode_block(&steps, &nodes, &values, &starts, false, &mut bytes);
            let mut out = Vec::new();
            let res = read_block_run(&bytes, 4, None, 51, 0..2, &mut out);
            assert_eq!(res.is_ok(), ok, "raw {last}");
        }
    }

    #[test]
    fn rejects_runs_outside_the_block() {
        let mut bytes = Vec::new();
        encode_block(&[0, 0], &[1, 2], &[0.5, 0.5], &[0], false, &mut bytes);
        let mut out = Vec::new();
        assert!(read_block_run(&bytes, 2, None, 3, 1..3, &mut out).is_err());
        let backwards = Range { start: 2, end: 1 };
        assert!(read_block_run(&bytes, 2, None, 3, backwards, &mut out).is_err());
        assert!(out.is_empty());
        read_block_run(&bytes, 2, None, 3, 2..2, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn rejects_count_mismatch_and_zero_expectation() {
        let mut bytes = Vec::new();
        encode_block(&[0, 0], &[1, 2], &[0.5, 0.5], &[0], false, &mut bytes);
        let mut block = Vec::new();
        assert!(decode_block(&bytes, 3, &mut block).is_err());
        assert!(decode_block(&bytes, 0, &mut block).is_err());
        assert!(decode_block(&bytes, MAX_BLOCK_ENTRIES + 1, &mut block).is_err());
        assert!(decode_block(&bytes, 2, &mut block).is_ok());
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        let mut bytes = Vec::new();
        encode_block(&[0, 1], &[4, 4], &[1.0, 0.5], &[0, 1], false, &mut bytes);
        let mut block = Vec::new();
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
        let mut block = Vec::new();
        let err = decode_block(&bytes, 2, &mut block).unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
    }

    #[test]
    fn rejects_bad_run_shapes() {
        let mut block = Vec::new();
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
