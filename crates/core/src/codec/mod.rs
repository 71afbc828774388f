//! Compressed index payloads: light-weight block encodings for the
//! hitting-probability entry sections.
//!
//! The `SLNGIDX1` payload stores three raw parallel arrays — `u16`
//! steps, `u32` node ids, `f64` values — at 14 bytes per entry. That is
//! decode-free but wasteful: within one `(owner, step)` run node ids are
//! a strictly increasing sequence of small gaps, steps repeat for whole
//! runs, and Algorithm 2's local updates hand entire runs the same value
//! (`√c / |I(v)|` for every step-1 entry). This module exploits all
//! three, block-wise, so the out-of-core backend still reads only the
//! blocks a query touches:
//!
//! * [`varint`] — LEB128 integers, the shared primitive;
//! * [`block`] — the independently decodable entry block: steps
//!   run-length coded, node ids delta-coded per run, plus a tagged value
//!   section — and [`read_block_run`], the one block decoder, which
//!   validates a whole block and keeps one run of it;
//! * [`value`] — the tagged value-section encodings (raw `f64`,
//!   per-block dictionary, lossy fixed-point `u32`, and the `SLNGIDX3`
//!   global dictionary).
//!
//! [`encode_payload`] / [`encode_payload_v3`] turn a whole
//! [`HpArena`](crate::hp::HpArena) payload into blocks. The `SLNGIDX2`
//! and `SLNGIDX3` containers around them (header, directory, global
//! dictionary) live in [`crate::format`], whose one payload reader walks
//! the blocks of an entry range with [`read_block_run`], for the eager
//! decode and the mapped backend alike.
//!
//! Lossless mode (the default) is **bit-exact**: every backend serving a
//! compressed index returns scores bit-identical to the uncompressed
//! one. Quantized mode trades that for 4-byte values (error ≤ 2⁻³³,
//! negligible against any build-time ε) and is flagged in the header.

// Every decoder here reads untrusted bytes: a malformed input must be a
// `SlingError`, never a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod block;
pub mod value;
pub mod varint;

pub use block::{encode_block, read_block_run, ValueMode, DEFAULT_BLOCK_ENTRIES};
pub use value::GlobalDict;

use crate::error::SlingError;

/// Knobs of the `SLNGIDX2` encoder.
#[derive(Clone, Debug)]
pub struct CompressOptions {
    /// Entries per block (the last block may be short). Clamped to
    /// `1..=`[`block::MAX_BLOCK_ENTRIES`] when encoding.
    pub block_entries: usize,
    /// Quantize values to fixed-point `u32` (lossy, ≤ 2⁻³³ absolute
    /// error, flagged in the header). Default `false`: bit-exact.
    pub quantize_values: bool,
}

impl Default for CompressOptions {
    fn default() -> Self {
        CompressOptions {
            block_entries: DEFAULT_BLOCK_ENTRIES,
            quantize_values: false,
        }
    }
}

impl CompressOptions {
    /// Effective entries-per-block after clamping.
    pub fn effective_block_entries(&self) -> usize {
        self.block_entries.clamp(1, block::MAX_BLOCK_ENTRIES)
    }
}

/// Encoded payload: concatenated blocks plus their byte directory.
pub struct EncodedPayload {
    /// Entries per block used by the encoder.
    pub block_entries: usize,
    /// `num_blocks + 1` byte offsets into `bytes`, monotone from 0.
    pub block_offsets: Vec<u64>,
    /// The concatenated encoded blocks.
    pub bytes: Vec<u8>,
}

/// `SLNGIDX3` payload: concatenated blocks, their byte directory, and
/// the cross-block value dictionary every [`read_block_run`] call over
/// its blocks resolves against (empty under quantization).
pub struct EncodedPayloadV3 {
    /// Entries per block used by the encoder.
    pub block_entries: usize,
    /// `num_blocks + 1` byte offsets into `bytes`, monotone from 0.
    pub block_offsets: Vec<u64>,
    /// The file-wide value dictionary, most frequent first.
    pub global_dict: Vec<f64>,
    /// The concatenated encoded blocks.
    pub bytes: Vec<u8>,
}

/// Encode the three entry columns into blocks. `owner_offsets` is the
/// `(n + 1)`-entry per-node offset table (the run structure every block
/// encoder needs to know where owners change).
pub fn encode_payload(
    steps: &[u16],
    nodes: &[u32],
    values: &[f64],
    owner_offsets: &[u64],
    opts: &CompressOptions,
) -> EncodedPayload {
    let mode = if opts.quantize_values {
        ValueMode::Quantized
    } else {
        ValueMode::Lossless
    };
    encode_payload_with(
        steps,
        nodes,
        values,
        owner_offsets,
        opts.effective_block_entries(),
        mode,
    )
}

/// Encode the three entry columns into an `SLNGIDX3` payload: lossless
/// blocks share one cross-block value dictionary (built here from the
/// whole value column); quantized mode keeps the v2 fixed-point codec
/// and an empty dictionary.
pub fn encode_payload_v3(
    steps: &[u16],
    nodes: &[u32],
    values: &[f64],
    owner_offsets: &[u64],
    opts: &CompressOptions,
) -> EncodedPayloadV3 {
    let dict = if opts.quantize_values {
        GlobalDict::empty()
    } else {
        GlobalDict::build(values)
    };
    let mode = if opts.quantize_values {
        ValueMode::Quantized
    } else {
        ValueMode::Global(&dict)
    };
    let enc = encode_payload_with(
        steps,
        nodes,
        values,
        owner_offsets,
        opts.effective_block_entries(),
        mode,
    );
    EncodedPayloadV3 {
        block_entries: enc.block_entries,
        block_offsets: enc.block_offsets,
        global_dict: dict.values().to_vec(),
        bytes: enc.bytes,
    }
}

fn encode_payload_with(
    steps: &[u16],
    nodes: &[u32],
    values: &[f64],
    owner_offsets: &[u64],
    be: usize,
    mode: ValueMode<'_>,
) -> EncodedPayload {
    let entries = steps.len();
    let num_blocks = entries.div_ceil(be);
    let mut bytes = Vec::new();
    let mut block_offsets = Vec::with_capacity(num_blocks + 1);
    block_offsets.push(0);

    // Owner of each entry, tracked by a cursor over the offset table —
    // O(entries + n) over the whole payload.
    let mut owner = 0usize;
    let mut owners_buf: Vec<u32> = Vec::with_capacity(be);
    for b in 0..num_blocks {
        let lo = b * be;
        let hi = (lo + be).min(entries);
        owners_buf.clear();
        for i in lo..hi {
            while owner + 1 < owner_offsets.len() && owner_offsets[owner + 1] as usize <= i {
                owner += 1;
            }
            owners_buf.push(owner as u32);
        }
        let starts = block::run_starts(&owners_buf, &steps[lo..hi]);
        block::encode_block_with(
            &steps[lo..hi],
            &nodes[lo..hi],
            &values[lo..hi],
            &starts,
            mode,
            &mut bytes,
        );
        block_offsets.push(bytes.len() as u64);
    }
    EncodedPayload {
        block_entries: be,
        block_offsets,
        bytes,
    }
}

/// Entry count block `b` must hold given the file geometry.
pub(crate) fn expected_block_len(
    b: usize,
    num_blocks: usize,
    block_entries: usize,
    entries: usize,
) -> Result<usize, SlingError> {
    if block_entries == 0 || b >= num_blocks {
        return Err(SlingError::CorruptIndex(format!(
            "block index {b} outside the {num_blocks}-block directory"
        )));
    }
    let lo = b * block_entries;
    let hi = (lo + block_entries).min(entries);
    if lo >= hi {
        return Err(SlingError::CorruptIndex(format!(
            "block {b} covers no entries ({entries} total, {block_entries} per block)"
        )));
    }
    Ok(hi - lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{BlockedGeometry, PayloadGeometry, PayloadLayout};
    use crate::hp::HpEntry;

    /// Read a whole encoded payload back through the one payload reader
    /// (`PayloadGeometry::read_entries`), as the eager decode does, under
    /// the given directory, block size, entry count and dictionary.
    fn read_payload(
        bytes: &[u8],
        block_offsets: &[u64],
        block_entries: usize,
        entries: usize,
        global_dict: Option<&[f64]>,
    ) -> Result<Vec<HpEntry>, SlingError> {
        let geometry = PayloadGeometry {
            num_nodes: usize::MAX,
            entries,
            layout: PayloadLayout::Blocked(BlockedGeometry {
                block_entries,
                blocks_base: 0,
                block_offsets: block_offsets.to_vec(),
                values_exact: true,
                global_dict: global_dict.map(<[f64]>::to_vec),
                aux_bytes: 0,
            }),
        };
        let mut out = Vec::new();
        geometry.read_entries(bytes, 0..entries, &mut out)?;
        Ok(out)
    }

    /// The three columns of a read-back payload.
    fn columns(entries: &[HpEntry]) -> (Vec<u16>, Vec<u32>, Vec<u64>) {
        (
            entries.iter().map(|e| e.step).collect(),
            entries.iter().map(|e| e.node.0).collect(),
            entries.iter().map(|e| e.value.to_bits()).collect(),
        )
    }

    /// A payload shaped like real index data: several owners, step runs,
    /// repeated values.
    fn sample_columns() -> (Vec<u16>, Vec<u32>, Vec<f64>, Vec<u64>) {
        let mut steps = Vec::new();
        let mut nodes = Vec::new();
        let mut values = Vec::new();
        let mut offsets = vec![0u64];
        for v in 0..40u32 {
            // step 0: self entry.
            steps.push(0);
            nodes.push(v);
            values.push(1.0);
            // step 1: a few in-neighbours sharing one value.
            let deg = 1 + (v % 4);
            for j in 0..deg {
                steps.push(1);
                nodes.push((v + j * 3) % 40);
                values.push(0.774_596_669_241_483_4 / deg as f64);
            }
            // sort the step-1 nodes we just pushed (they must ascend).
            let lo = steps.len() - deg as usize;
            let mut run: Vec<u32> = nodes[lo..].to_vec();
            run.sort_unstable();
            run.dedup();
            // Rebuild the run without duplicates.
            steps.truncate(lo);
            nodes.truncate(lo);
            values.truncate(lo);
            for &nd in &run {
                steps.push(1);
                nodes.push(nd);
                values.push(0.774_596_669_241_483_4 / deg as f64);
            }
            offsets.push(steps.len() as u64);
        }
        (steps, nodes, values, offsets)
    }

    #[test]
    fn payload_round_trips_across_block_sizes() {
        let (steps, nodes, values, offsets) = sample_columns();
        for be in [1usize, 3, 16, 64, 100_000] {
            let opts = CompressOptions {
                block_entries: be,
                quantize_values: false,
            };
            let enc = encode_payload(&steps, &nodes, &values, &offsets, &opts);
            assert_eq!(
                enc.block_offsets.len(),
                steps.len().div_ceil(enc.block_entries) + 1
            );
            let back = read_payload(
                &enc.bytes,
                &enc.block_offsets,
                enc.block_entries,
                steps.len(),
                None,
            )
            .unwrap();
            let (s2, n2, v2) = columns(&back);
            assert_eq!(s2, steps, "block_entries = {be}");
            assert_eq!(n2, nodes);
            assert_eq!(v2, values.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_payload_encodes_to_zero_blocks() {
        let enc = encode_payload(&[], &[], &[], &[0, 0, 0], &CompressOptions::default());
        assert_eq!(enc.block_offsets, vec![0]);
        assert!(enc.bytes.is_empty());
        let back = read_payload(&[], &enc.block_offsets, enc.block_entries, 0, None).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn compressed_payload_is_smaller_than_raw() {
        let (steps, nodes, values, offsets) = sample_columns();
        let enc = encode_payload(
            &steps,
            &nodes,
            &values,
            &offsets,
            &CompressOptions::default(),
        );
        let raw = steps.len() * 14;
        assert!(
            enc.bytes.len() * 2 < raw,
            "compressed {} vs raw {raw}",
            enc.bytes.len()
        );
    }

    #[test]
    fn v3_payload_round_trips_bit_exactly_and_is_no_larger_than_v2() {
        let (steps, nodes, values, offsets) = sample_columns();
        let opts = CompressOptions {
            block_entries: 16,
            quantize_values: false,
        };
        let v2 = encode_payload(&steps, &nodes, &values, &offsets, &opts);
        let v3 = encode_payload_v3(&steps, &nodes, &values, &offsets, &opts);
        assert!(
            v3.bytes.len() <= v2.bytes.len(),
            "v3 {} vs v2 {}",
            v3.bytes.len(),
            v2.bytes.len()
        );
        assert!(!v3.global_dict.is_empty());
        let back = read_payload(
            &v3.bytes,
            &v3.block_offsets,
            v3.block_entries,
            steps.len(),
            Some(&v3.global_dict),
        )
        .unwrap();
        let (s, n, v) = columns(&back);
        assert_eq!(s, steps);
        assert_eq!(n, nodes);
        assert_eq!(v, values.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        // At least one block leans on the shared dictionary, and a v2
        // decoder (no dictionary in scope) refuses that block.
        let num_blocks = v3.block_offsets.len() - 1;
        let mut saw_global = false;
        for b in 0..num_blocks {
            let (lo, hi) = (
                v3.block_offsets[b] as usize,
                v3.block_offsets[b + 1] as usize,
            );
            let expected =
                expected_block_len(b, num_blocks, v3.block_entries, steps.len()).unwrap();
            let sections = block::block_section_sizes(&v3.bytes[lo..hi], expected).unwrap();
            if sections.value_tag == value::TAG_GLOBAL_DICT {
                saw_global = true;
                let mut block = Vec::new();
                let err = read_block_run(
                    &v3.bytes[lo..hi],
                    expected,
                    None,
                    usize::MAX,
                    0..expected,
                    &mut block,
                )
                .unwrap_err();
                assert!(err.to_string().contains("SLNGIDX3"), "{err}");
            }
        }
        assert!(saw_global, "no block chose the global dictionary");
    }

    #[test]
    fn quantized_v3_payload_matches_v2_block_bytes() {
        let (steps, nodes, values, offsets) = sample_columns();
        let opts = CompressOptions {
            block_entries: 16,
            quantize_values: true,
        };
        let v2 = encode_payload(&steps, &nodes, &values, &offsets, &opts);
        let v3 = encode_payload_v3(&steps, &nodes, &values, &offsets, &opts);
        assert_eq!(v3.bytes, v2.bytes);
        assert!(v3.global_dict.is_empty());
    }

    #[test]
    fn decode_rejects_inconsistent_directories() {
        let (steps, nodes, values, offsets) = sample_columns();
        let opts = CompressOptions {
            block_entries: 16,
            quantize_values: false,
        };
        let enc = encode_payload(&steps, &nodes, &values, &offsets, &opts);
        // Directory escaping the payload.
        let mut bad = enc.block_offsets.clone();
        *bad.last_mut().unwrap() = enc.bytes.len() as u64 + 40;
        assert!(read_payload(&enc.bytes, &bad, 16, steps.len(), None).is_err());
        // Wrong total entry count.
        assert!(read_payload(&enc.bytes, &enc.block_offsets, 16, steps.len() + 1, None).is_err());
        // Wrong block size.
        assert!(read_payload(&enc.bytes, &enc.block_offsets, 15, steps.len(), None).is_err());
        // The intact geometry reads.
        assert!(read_payload(&enc.bytes, &enc.block_offsets, 16, steps.len(), None).is_ok());
    }
}
