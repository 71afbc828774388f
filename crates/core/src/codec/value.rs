//! Value-section codecs: how a block's hitting-probability values are
//! laid out in bytes.
//!
//! The step and node columns compress with fixed schemes (run-length and
//! delta-varint — see [`crate::codec::block`]); the value column is where
//! the encodings genuinely compete, so each block's value section starts
//! with a one-byte tag naming its encoding:
//!
//! * [`TAG_RAW_F64`] — 8 bytes per value, bit-exact. The fallback that
//!   can never lose.
//! * [`TAG_DICT_F64`] — per-block dictionary of distinct bit patterns
//!   plus a varint index per entry, bit-exact. Algorithm 2's local
//!   updates give every step-1 entry of a node the value `√c / |I(v)|`
//!   and step-2 entries repeat across shared in-neighborhoods, so real
//!   blocks hold far fewer distinct values than entries.
//! * [`TAG_FIXED_U32`] — values quantized to `round(v · (2³² − 1))`,
//!   4 bytes each. Lossy (≤ 2⁻³³ absolute error — three orders of
//!   magnitude below any ε the index is built with), flagged in the file
//!   header so readers know scores are no longer bit-identical to the
//!   uncompressed index.
//!
//! The lossless encoder picks the smaller of raw/dict **per block**, so
//! a pathological block (all-distinct values) costs at most one tag byte
//! over the raw layout.
//!
//! The `SLNGIDX3` payload adds a fourth, **cross-block** scheme:
//! a file-wide [`GlobalDict`] of the hot bit patterns (every step-0
//! value is exactly `1.0`, step-1 values are `√c/|I(v)|` — one distinct
//! value per in-degree — and step-2 values repeat across shared
//! in-neighborhoods, so the same few thousand patterns recur in every
//! block), referenced by [`TAG_GLOBAL_DICT`] sections via a varint code
//! per value. Values outside the dictionary escape as **split planes**:
//! the high 16 bits of the `f64` (sign + exponent + 4 mantissa bits —
//! probabilities share a handful of exponents) behind a per-section
//! `u16` dictionary, plus the raw low 48 mantissa bits. Bit-exact, and
//! the v3 encoder still falls back to raw/per-block-dict per block, so
//! no block can regress past one tag byte.
//!
//! Every malformed section surfaces as [`SlingError::CorruptIndex`],
//! never a panic.

use std::ops::Range;

use crate::codec::block::is_probability;
use crate::codec::varint;
use crate::error::SlingError;
use crate::hp::HpEntry;

fn corrupt(what: impl Into<String>) -> SlingError {
    SlingError::CorruptIndex(what.into())
}

/// Tag of the raw `f64` value section.
pub const TAG_RAW_F64: u8 = 0;
/// Tag of the per-block dictionary value section.
pub const TAG_DICT_F64: u8 = 1;
/// Tag of the fixed-point `u32` value section.
pub const TAG_FIXED_U32: u8 = 2;
/// Tag of the `SLNGIDX3` cross-block global-dictionary section (only
/// valid inside a v3 payload, which carries the [`GlobalDict`]).
pub const TAG_GLOBAL_DICT: u8 = 3;

/// Pick the smaller lossless encoding for `values` and append it
/// (tag byte included) to `out`.
pub fn encode_values_lossless(values: &[f64], out: &mut Vec<u8>) {
    let dict_len = dict_cost(values);
    if dict_len < values.len() * 8 {
        out.push(TAG_DICT_F64);
        encode_dict(values, out);
    } else {
        out.push(TAG_RAW_F64);
        encode_raw(values, out);
    }
}

/// Append the quantized encoding of `values` (tag byte included).
pub fn encode_values_quantized(values: &[f64], out: &mut Vec<u8>) {
    out.push(TAG_FIXED_U32);
    encode_fixed(values, out);
}

/// Exact byte cost of the dictionary encoding of `values` (without
/// encoding), used to choose against raw.
fn dict_cost(values: &[f64]) -> usize {
    let mut dict: sling_graph::FxHashMap<u64, u32> = sling_graph::FxHashMap::default();
    let mut index_bytes = 0usize;
    for v in values {
        let next = dict.len() as u32;
        let idx = *dict.entry(v.to_bits()).or_insert(next);
        index_bytes += varint::len_u64(idx as u64);
    }
    varint::len_u64(dict.len() as u64) + dict.len() * 8 + index_bytes
}

/// [`TAG_RAW_F64`]: 8-byte little-endian `f64` per value; bit-exact.
fn encode_raw(values: &[f64], out: &mut Vec<u8>) {
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decode exactly `count` [`TAG_RAW_F64`] values from the front of `buf`
/// (advancing it) into `out`.
fn decode_raw(buf: &mut &[u8], count: usize, out: &mut Vec<f64>) -> Result<(), SlingError> {
    let need = count
        .checked_mul(8)
        .ok_or_else(|| corrupt("value count overflows"))?;
    if buf.len() < need {
        return Err(corrupt("truncated raw value section"));
    }
    out.extend(
        buf[..need]
            .as_chunks::<8>()
            .0
            .iter()
            .map(|c| f64::from_le_bytes(*c)),
    );
    *buf = &buf[need..];
    Ok(())
}

/// [`TAG_DICT_F64`]: per-block dictionary of distinct bit patterns (in
/// first-occurrence order) plus a varint dictionary index per value;
/// bit-exact.
///
/// Layout: `dict_len varint | dict_len × f64 | count × varint index`.
fn encode_dict(values: &[f64], out: &mut Vec<u8>) {
    let mut dict: sling_graph::FxHashMap<u64, u32> = sling_graph::FxHashMap::default();
    let mut order: Vec<u64> = Vec::new();
    let mut indices: Vec<u32> = Vec::with_capacity(values.len());
    for v in values {
        let bits = v.to_bits();
        let next = order.len() as u32;
        let idx = *dict.entry(bits).or_insert_with(|| {
            order.push(bits);
            next
        });
        indices.push(idx);
    }
    varint::write_u64(out, order.len() as u64);
    for bits in order {
        out.extend_from_slice(&bits.to_le_bytes());
    }
    for idx in indices {
        varint::write_u64(out, idx as u64);
    }
}

/// Decode exactly `count` [`TAG_DICT_F64`] values from the front of
/// `buf` (advancing it) into `out`.
fn decode_dict(buf: &mut &[u8], count: usize, out: &mut Vec<f64>) -> Result<(), SlingError> {
    let dict_len = varint::read_u32(buf)? as usize;
    // A dictionary cannot be larger than the values it describes.
    if dict_len > count {
        return Err(corrupt(format!(
            "value dictionary of {dict_len} entries for {count} values"
        )));
    }
    if count > 0 && dict_len == 0 {
        return Err(corrupt("empty value dictionary for a non-empty block"));
    }
    let bytes: &[u8] = buf;
    let Some((dict, rest)) = bytes.split_at_checked(dict_len * 8) else {
        return Err(corrupt("truncated value dictionary"));
    };
    let (dict, _) = dict.as_chunks::<8>();
    *buf = rest;
    out.reserve(count);
    for _ in 0..count {
        let idx = varint::read_u32(buf)? as usize;
        let v = dict
            .get(idx)
            .ok_or_else(|| corrupt(format!("value index {idx} past dictionary ({dict_len})")))?;
        out.push(f64::from_le_bytes(*v));
    }
    Ok(())
}

/// Quantization scale of [`TAG_FIXED_U32`] sections: the full `u32`
/// range maps the unit interval.
const FIXED_SCALE: f64 = u32::MAX as f64;

/// Quantize a probability to fixed-point `u32` (clamped to the unit
/// range, so the `1 + 1e-9` tolerance the decoders accept cannot wrap).
#[inline]
pub fn quantize(v: f64) -> u32 {
    (v.clamp(0.0, 1.0) * FIXED_SCALE).round() as u32
}

/// Inverse of [`quantize`].
#[inline]
pub fn dequantize(q: u32) -> f64 {
    q as f64 / FIXED_SCALE
}

/// [`TAG_FIXED_U32`]: 4-byte fixed-point values; lossy within `2⁻³³`,
/// flagged file-wide.
fn encode_fixed(values: &[f64], out: &mut Vec<u8>) {
    for v in values {
        out.extend_from_slice(&quantize(*v).to_le_bytes());
    }
}

/// Decode exactly `count` [`TAG_FIXED_U32`] values from the front of
/// `buf` (advancing it) into `out`.
fn decode_fixed(buf: &mut &[u8], count: usize, out: &mut Vec<f64>) -> Result<(), SlingError> {
    let need = count
        .checked_mul(4)
        .ok_or_else(|| corrupt("value count overflows"))?;
    if buf.len() < need {
        return Err(corrupt("truncated fixed-point value section"));
    }
    out.extend(
        buf[..need]
            .as_chunks::<4>()
            .0
            .iter()
            .map(|c| dequantize(u32::from_le_bytes(*c))),
    );
    *buf = &buf[need..];
    Ok(())
}

/// Cross-block value dictionary of an `SLNGIDX3` payload: the bit
/// patterns worth storing **once per file** instead of once per block.
///
/// Built from the full value column: every pattern occurring at least
/// twice enters, most-frequent first (ties broken by ascending bits, so
/// the order — and therefore the encoded file — is deterministic), which
/// hands the hottest values one-byte codes. Stored resident by the
/// compressed backends, so global-dictionary hits decode with one array
/// load and zero per-block dictionary bytes.
pub struct GlobalDict {
    values: Vec<f64>,
    index: sling_graph::FxHashMap<u64, u32>,
}

impl GlobalDict {
    /// Hard ceiling on dictionary entries: bounds the resident footprint
    /// and keeps every code a ≤ 3-byte varint.
    pub const MAX_ENTRIES: usize = 1 << 20;

    /// An empty dictionary (every value escapes — used by quantized v3
    /// payloads, whose blocks use the fixed-point codec instead).
    pub fn empty() -> GlobalDict {
        GlobalDict {
            values: Vec::new(),
            index: sling_graph::FxHashMap::default(),
        }
    }

    /// Build the dictionary from the full value column.
    pub fn build(values: &[f64]) -> GlobalDict {
        let mut counts: sling_graph::FxHashMap<u64, u64> = sling_graph::FxHashMap::default();
        for v in values {
            *counts.entry(v.to_bits()).or_insert(0) += 1;
        }
        let mut freq: Vec<(u64, u64)> = counts
            .into_iter()
            .filter(|&(_, count)| count >= 2)
            .collect();
        // Most frequent first; ascending bits on ties for determinism.
        freq.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        freq.truncate(Self::MAX_ENTRIES);
        let mut dict = GlobalDict {
            values: Vec::with_capacity(freq.len()),
            index: sling_graph::FxHashMap::default(),
        };
        for (i, (bits, _)) in freq.into_iter().enumerate() {
            dict.values.push(f64::from_bits(bits));
            dict.index.insert(bits, i as u32);
        }
        dict
    }

    /// Dictionary entries in code order (what the file stores).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    #[inline]
    fn lookup(&self, bits: u64) -> Option<u32> {
        self.index.get(&bits).copied()
    }
}

/// Pick the smallest lossless `SLNGIDX3` encoding for one block's value
/// section and append it (tag byte included) to `out`: global dictionary
/// with split-plane escapes, per-block dictionary, or raw — by exact
/// byte cost, ties to the global scheme (its dictionary bytes are
/// already paid file-wide).
pub fn encode_values_v3(values: &[f64], dict: &GlobalDict, out: &mut Vec<u8>) {
    let raw = values.len() * 8;
    let per_block = dict_cost(values);
    let global = global_cost(values, dict);
    if global <= per_block && global < raw {
        out.push(TAG_GLOBAL_DICT);
        encode_values_global(values, dict, out);
    } else if per_block < raw {
        out.push(TAG_DICT_F64);
        encode_dict(values, out);
    } else {
        out.push(TAG_RAW_F64);
        encode_raw(values, out);
    }
}

/// Exact byte cost of the [`TAG_GLOBAL_DICT`] encoding of `values`
/// (without encoding), used to choose against raw/per-block-dict.
fn global_cost(values: &[f64], dict: &GlobalDict) -> usize {
    let mut bytes = 0usize;
    let mut hi_seen: sling_graph::FxHashMap<u16, u32> = sling_graph::FxHashMap::default();
    for v in values {
        let bits = v.to_bits();
        match dict.lookup(bits) {
            Some(idx) => bytes += varint::len_u64(idx as u64 + 1),
            None => {
                let hi = (bits >> 48) as u16;
                let next = hi_seen.len() as u32;
                let hi_idx = *hi_seen.entry(hi).or_insert(next);
                // escape code 0 + hi-plane index + 6 low bytes.
                bytes += 1 + varint::len_u64(hi_idx as u64) + 6;
            }
        }
    }
    bytes + varint::len_u64(hi_seen.len() as u64) + hi_seen.len() * 2
}

/// Encode one [`TAG_GLOBAL_DICT`] value section (tag byte **not**
/// included).
///
/// Layout:
///
/// ```text
/// count × varint code            (0 = escape, else global index + 1)
/// hi_dict_len varint
/// hi_dict_len × u16 LE           (distinct high-16-bit planes of the
///                                 escaped values, first-occurrence order)
/// n_escapes × varint hi_idx      (per escape, into the hi dictionary)
/// n_escapes × 6 bytes LE         (low 48 mantissa bits, raw)
/// ```
///
/// `n_escapes` is implied by the zero codes. Splitting the escaped `f64`s
/// into a sign/exponent plane (the high 16 bits, drawn from a handful of
/// distinct patterns since HP values are probabilities) and a raw
/// mantissa plane keeps an escape at ~8 bytes while dictionary hits cost
/// 1–2 — and unlike [`TAG_DICT_F64`], no per-block dictionary bytes are
/// paid for values the whole file shares.
pub(crate) fn encode_values_global(values: &[f64], dict: &GlobalDict, out: &mut Vec<u8>) {
    let mut escaped: Vec<u64> = Vec::new();
    for v in values {
        let bits = v.to_bits();
        match dict.lookup(bits) {
            Some(idx) => varint::write_u64(out, idx as u64 + 1),
            None => {
                varint::write_u64(out, 0);
                escaped.push(bits);
            }
        }
    }
    let mut hi_map: sling_graph::FxHashMap<u16, u32> = sling_graph::FxHashMap::default();
    let mut hi_order: Vec<u16> = Vec::new();
    let mut hi_indices: Vec<u32> = Vec::with_capacity(escaped.len());
    for &bits in &escaped {
        let hi = (bits >> 48) as u16;
        let next = hi_order.len() as u32;
        let idx = *hi_map.entry(hi).or_insert_with(|| {
            hi_order.push(hi);
            next
        });
        hi_indices.push(idx);
    }
    varint::write_u64(out, hi_order.len() as u64);
    for hi in &hi_order {
        out.extend_from_slice(&hi.to_le_bytes());
    }
    for idx in hi_indices {
        varint::write_u64(out, idx as u64);
    }
    for &bits in &escaped {
        out.extend_from_slice(&bits.to_le_bytes()[..6]);
    }
}

/// Read one block's [`TAG_GLOBAL_DICT`] value section of `count` values
/// (tag byte already consumed; `section` runs to the end of the block),
/// writing the values of the block entries `run` into `kept`, one slot
/// per entry of the run.
///
/// The whole section is checked, not just the run's part: every code
/// inside `dict`, the size of the hi-plane dictionary, every escape's
/// hi-plane index, every escaped value a probability, and that the
/// section ends exactly at the end of the block. `dict` must hold only
/// probabilities — the format layer checks a file's dictionary when it
/// opens the file — so a hit needs only its bound check.
///
/// Allocates nothing. The mantissa plane is the last `6 · n_escapes`
/// bytes of the section, so the hi-index plane must end exactly where
/// it begins; the run's escapes are patched in order by walking the
/// run's codes a second time alongside the two planes.
pub(crate) fn read_values_global(
    section: &[u8],
    count: usize,
    dict: &[f64],
    run: Range<usize>,
    kept: &mut [HpEntry],
) -> Result<(), SlingError> {
    let past_dict = |code: usize| {
        corrupt(format!(
            "global dictionary code {code} past {} entries",
            dict.len()
        ))
    };
    // A code outside the run only counts an escape and is bound-checked:
    // it is inside the dictionary when it is at most its length, and the
    // escape code 0 always is. No branch on the escape, which is common.
    let skip = |buf: &mut &[u8], n_escapes: &mut usize| -> Result<(), SlingError> {
        let code = varint::read_u32(buf)? as usize;
        if code > dict.len() {
            return Err(past_dict(code));
        }
        *n_escapes += usize::from(code == 0);
        Ok(())
    };
    let mut buf = section;
    let mut n_escapes = 0usize;
    for _ in 0..run.start {
        skip(&mut buf, &mut n_escapes)?;
    }
    let (run_codes, escapes_before_run) = (buf, n_escapes);
    for slot in kept.iter_mut() {
        match varint::read_u32(&mut buf)? as usize {
            0 => n_escapes += 1,
            code => slot.value = *dict.get(code - 1).ok_or_else(|| past_dict(code))?,
        }
    }
    for _ in run.end..count {
        skip(&mut buf, &mut n_escapes)?;
    }

    let hi_dict_len = varint::read_u32(&mut buf)? as usize;
    if hi_dict_len > n_escapes {
        return Err(corrupt(format!(
            "hi-plane dictionary of {hi_dict_len} entries for {n_escapes} escapes"
        )));
    }
    if n_escapes > 0 && hi_dict_len == 0 {
        return Err(corrupt("empty hi-plane dictionary with escaped values"));
    }
    let Some((hi_dict, planes)) = buf.split_at_checked(hi_dict_len * 2) else {
        return Err(corrupt("truncated hi-plane dictionary"));
    };
    let (hi_dict, _) = hi_dict.as_chunks::<2>();
    let Some(index_len) = planes.len().checked_sub(n_escapes * 6) else {
        return Err(corrupt("truncated mantissa plane"));
    };
    let (mut hi_index, mantissas) = planes.split_at(index_len);
    let (mantissas, _) = mantissas.as_chunks::<6>();
    let (mut run_codes, mut run_slots) = (run_codes, kept.iter_mut());
    for (j, low) in mantissas.iter().enumerate() {
        let idx = varint::read_u32(&mut hi_index)? as usize;
        let hi = hi_dict.get(idx).ok_or_else(|| {
            corrupt(format!(
                "hi-plane index {idx} past dictionary ({hi_dict_len})"
            ))
        })?;
        let mut bits = [0u8; 8];
        bits[..6].copy_from_slice(low);
        bits[6..].copy_from_slice(hi);
        let value = f64::from_le_bytes(bits);
        if !is_probability(value) {
            return Err(corrupt(format!(
                "escaped value {value} is not a probability"
            )));
        }
        if j >= escapes_before_run {
            // The run's next escape: its next zero code.
            for slot in run_slots.by_ref() {
                if varint::read_u64(&mut run_codes)? == 0 {
                    slot.value = value;
                    break;
                }
            }
        }
    }
    if !hi_index.is_empty() {
        return Err(trailing(hi_index.len()));
    }
    Ok(())
}

/// Read one block's raw, per-block-dictionary or fixed-point value
/// section of `count` values (tag byte `tag` already consumed; `section`
/// runs to the end of the block), writing the values of the block
/// entries `run` into `kept`. An unknown tag, a value that is not a
/// probability, and a section that does not end exactly at the end of
/// the block are all corrupt.
pub(crate) fn read_values_column(
    tag: u8,
    section: &[u8],
    count: usize,
    run: Range<usize>,
    kept: &mut [HpEntry],
) -> Result<(), SlingError> {
    let mut buf = section;
    let mut values = Vec::new();
    match tag {
        TAG_RAW_F64 => decode_raw(&mut buf, count, &mut values),
        TAG_DICT_F64 => decode_dict(&mut buf, count, &mut values),
        TAG_FIXED_U32 => decode_fixed(&mut buf, count, &mut values),
        other => Err(corrupt(format!("unknown value codec tag {other}"))),
    }?;
    if !buf.is_empty() {
        return Err(trailing(buf.len()));
    }
    if let Some((i, v)) = values
        .iter()
        .enumerate()
        .find(|(_, v)| !is_probability(**v))
    {
        return Err(corrupt(format!(
            "block entry {i} holds a non-probability HP value {v}"
        )));
    }
    let run_values = values
        .get(run)
        .ok_or_else(|| corrupt("value section shorter than its block"))?;
    for (slot, &v) in kept.iter_mut().zip(run_values) {
        slot.value = v;
    }
    Ok(())
}

fn trailing(bytes: usize) -> SlingError {
    corrupt(format!("{bytes} trailing bytes after the block payload"))
}

#[cfg(test)]
mod tests {
    use super::*;

    type Decode = fn(&mut &[u8], usize, &mut Vec<f64>) -> Result<(), SlingError>;

    fn round_trip(encode: fn(&[f64], &mut Vec<u8>), decode: Decode, values: &[f64]) -> Vec<f64> {
        let mut bytes = Vec::new();
        encode(values, &mut bytes);
        let mut buf = bytes.as_slice();
        let mut out = Vec::new();
        decode(&mut buf, values.len(), &mut out).unwrap();
        assert!(buf.is_empty(), "decoder left bytes behind");
        out
    }

    #[test]
    fn raw_and_dict_are_bit_exact() {
        let values = [1.0, 1.0 / 3.0, 0.25, 1.0 / 3.0, 1e-300, 0.0, 1.0];
        for (encode, decode) in [
            (encode_raw as fn(&[f64], &mut Vec<u8>), decode_raw as Decode),
            (encode_dict, decode_dict),
        ] {
            let back = round_trip(encode, decode, &values);
            assert_eq!(
                values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                back.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn dict_wins_on_repetitive_blocks_raw_on_distinct() {
        let repetitive: Vec<f64> = (0..256).map(|i| [0.5, 0.25, 0.125][i % 3]).collect();
        let mut lossless = Vec::new();
        encode_values_lossless(&repetitive, &mut lossless);
        assert_eq!(lossless[0], TAG_DICT_F64);
        assert!(
            lossless.len() < repetitive.len() * 8 / 2,
            "{}",
            lossless.len()
        );

        let distinct: Vec<f64> = (0..256).map(|i| 1.0 / (i as f64 + 3.0)).collect();
        let mut lossless = Vec::new();
        encode_values_lossless(&distinct, &mut lossless);
        assert_eq!(lossless[0], TAG_RAW_F64);
        assert_eq!(lossless.len(), 1 + distinct.len() * 8);
    }

    #[test]
    fn fixed_point_error_is_negligible_and_flagged() {
        let values = [0.0, 1.0, 1.0 / 3.0, 0.999_999_9, 1e-12];
        let back = round_trip(encode_fixed, decode_fixed, &values);
        for (a, b) in values.iter().zip(&back) {
            assert!((a - b).abs() <= 0.5 / (u32::MAX as f64), "{a} vs {b}");
            assert!((0.0..=1.0).contains(b));
        }
        // Exactly representable endpoints survive.
        assert_eq!(back[0], 0.0);
        assert_eq!(back[1], 1.0);
        // Values outside the unit range clamp instead of wrapping.
        assert_eq!(quantize(1.0 + 1e-9), u32::MAX);
        assert_eq!(quantize(-0.5), 0);
    }

    /// Read values `run` of a section of `count` values into fresh slots.
    fn read_global(
        bytes: &[u8],
        count: usize,
        dict: &[f64],
        run: Range<usize>,
    ) -> Result<Vec<f64>, SlingError> {
        let mut kept = vec![HpEntry::new(0, sling_graph::NodeId(0), -1.0); run.len()];
        read_values_global(bytes, count, dict, run, &mut kept)?;
        Ok(kept.iter().map(|e| e.value).collect())
    }

    /// Round-trip a whole section, and check that every sub-run reads
    /// back the matching slice of it.
    fn global_round_trip(values: &[f64], dict: &GlobalDict) -> Vec<f64> {
        let mut bytes = Vec::new();
        encode_values_global(values, dict, &mut bytes);
        let n = values.len();
        let out = read_global(&bytes, n, dict.values(), 0..n).unwrap();
        for lo in 0..=n {
            for hi in lo..=n {
                let part = read_global(&bytes, n, dict.values(), lo..hi).unwrap();
                assert_eq!(part, out[lo..hi], "run {lo}..{hi}");
            }
        }
        // The section must end at the end of the block.
        bytes.push(0);
        assert!(read_global(&bytes, n, dict.values(), 0..n).is_err());
        out
    }

    #[test]
    fn global_dict_is_bit_exact_with_and_without_escapes() {
        // Hot values (repeated — enter the dict) mixed with singletons
        // (escape through the split planes).
        let mut values = Vec::new();
        for i in 0..64 {
            values.push([1.0, 0.5, 1.0 / 3.0][i % 3]);
            values.push(1.0 / (i as f64 + 3.0)); // distinct: escapes
        }
        let dict = GlobalDict::build(&values);
        assert!(dict.len() >= 3);
        let back = global_round_trip(&values, &dict);
        assert_eq!(
            values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // All-hit and all-miss sections round-trip too.
        let hits = [1.0, 0.5, 0.5, 1.0 / 3.0];
        assert_eq!(global_round_trip(&hits, &dict), hits);
        let misses = [0.123_456_789, 0.987_654_321e-3];
        assert_eq!(global_round_trip(&misses, &dict), misses);
        // And against an empty dictionary everything escapes.
        assert_eq!(global_round_trip(&misses, &GlobalDict::empty()), misses);
    }

    #[test]
    fn global_dict_orders_by_frequency_deterministically() {
        let mut values = vec![0.25; 10];
        values.extend(std::iter::repeat_n(0.5, 20));
        values.push(0.75); // singleton: excluded
        let dict = GlobalDict::build(&values);
        assert_eq!(dict.values(), &[0.5, 0.25]);
    }

    #[test]
    fn v3_chooser_prefers_global_on_shared_values_raw_on_distinct() {
        let shared: Vec<f64> = (0..256).map(|i| [0.5, 0.25, 0.125][i % 3]).collect();
        let dict = GlobalDict::build(&shared);
        let mut out = Vec::new();
        encode_values_v3(&shared, &dict, &mut out);
        assert_eq!(out[0], TAG_GLOBAL_DICT);
        // ~1 byte per value + the tiny hi-plane header: far below the
        // per-block dict cost (3 × 8 dict bytes + indices).
        assert!(out.len() < shared.len() + 16, "{}", out.len());

        let distinct: Vec<f64> = (0..256).map(|i| 1.0 / (i as f64 + 3.0)).collect();
        let mut out = Vec::new();
        encode_values_v3(&distinct, &GlobalDict::build(&distinct), &mut out);
        // All singletons: empty global dict; escapes cost ≥ raw, so the
        // chooser must fall back to raw.
        assert_eq!(out[0], TAG_RAW_F64);
        assert_eq!(out.len(), 1 + distinct.len() * 8);
    }

    #[test]
    fn global_decoder_rejects_malformed_input() {
        let dict = vec![0.5, 0.25];
        // Code past the dictionary.
        let mut bytes = Vec::new();
        varint::write_u64(&mut bytes, 3); // index 2 into a 2-entry dict
        assert!(read_global(&bytes, 1, &dict, 0..1).is_err());
        // Truncated mid-codes.
        assert!(read_global(&[], 1, &dict, 0..1).is_err());
        // Escape with an empty hi-plane dictionary.
        let mut bytes = Vec::new();
        varint::write_u64(&mut bytes, 0); // escape
        varint::write_u64(&mut bytes, 0); // hi_dict_len = 0
        assert!(read_global(&bytes, 1, &dict, 0..1).is_err());
        // Hi-plane dictionary bigger than the escape count.
        let mut bytes = Vec::new();
        varint::write_u64(&mut bytes, 0); // escape
        varint::write_u64(&mut bytes, 5); // hi_dict_len = 5 > 1 escape
        assert!(read_global(&bytes, 1, &dict, 0..1).is_err());
        // Hi-plane index past its dictionary.
        let mut bytes = Vec::new();
        varint::write_u64(&mut bytes, 0); // escape
        varint::write_u64(&mut bytes, 1); // hi_dict_len = 1
        bytes.extend_from_slice(&0x3fe0u16.to_le_bytes());
        varint::write_u64(&mut bytes, 9); // hi index 9 past the 1-entry dict
        bytes.extend_from_slice(&[0u8; 6]);
        assert!(read_global(&bytes, 1, &dict, 0..1).is_err());
        // An escaped value must be a probability: 0x3fe0 << 48 is 0.5,
        // 0x3ff8 << 48 is 1.5. The check covers escapes outside the run.
        for (hi, ok) in [(0x3fe0u16, true), (0x3ff8, false)] {
            let mut bytes = Vec::new();
            varint::write_u64(&mut bytes, 1); // hit: 0.5
            varint::write_u64(&mut bytes, 0); // escape
            varint::write_u64(&mut bytes, 1); // hi_dict_len = 1
            bytes.extend_from_slice(&hi.to_le_bytes());
            varint::write_u64(&mut bytes, 0);
            bytes.extend_from_slice(&[0u8; 6]);
            assert_eq!(read_global(&bytes, 2, &dict, 0..1).is_ok(), ok, "{hi:#x}");
            assert_eq!(read_global(&bytes, 2, &dict, 1..2).is_ok(), ok, "{hi:#x}");
        }
        // Truncated mantissa plane.
        let mut bytes = Vec::new();
        varint::write_u64(&mut bytes, 0);
        varint::write_u64(&mut bytes, 1);
        bytes.extend_from_slice(&0x3fe0u16.to_le_bytes());
        varint::write_u64(&mut bytes, 0);
        bytes.extend_from_slice(&[0u8; 3]); // needs 6
        assert!(read_global(&bytes, 1, &dict, 0..1).is_err());
    }

    #[test]
    fn decoders_reject_malformed_input() {
        // Truncated raw section.
        let mut buf: &[u8] = &[0u8; 15];
        assert!(decode_raw(&mut buf, 2, &mut Vec::new()).is_err());
        // Truncated fixed-point section.
        let mut buf: &[u8] = &[0u8; 7];
        assert!(decode_fixed(&mut buf, 2, &mut Vec::new()).is_err());
        // Dict larger than the block.
        let mut bytes = Vec::new();
        varint::write_u64(&mut bytes, 100);
        let mut buf = bytes.as_slice();
        assert!(decode_dict(&mut buf, 3, &mut Vec::new()).is_err());
        // Empty dict for a non-empty block.
        let mut buf: &[u8] = &[0u8];
        assert!(decode_dict(&mut buf, 3, &mut Vec::new()).is_err());
        // Index past the dictionary.
        let mut bytes = Vec::new();
        varint::write_u64(&mut bytes, 1);
        bytes.extend_from_slice(&0.5f64.to_le_bytes());
        varint::write_u64(&mut bytes, 7); // index 7 into a 1-entry dict
        let mut buf = bytes.as_slice();
        assert!(decode_dict(&mut buf, 1, &mut Vec::new()).is_err());
        // Unknown tag.
        let mut kept = [HpEntry::new(0, sling_graph::NodeId(0), 0.0)];
        assert!(read_values_column(200, &[], 0, 0..0, &mut kept[..0]).is_err());
    }
}
