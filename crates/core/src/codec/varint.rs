//! LEB128 variable-length integers — the primitive every block encoding
//! in this subsystem is built from.
//!
//! Little-endian base-128: each byte carries 7 payload bits, the high bit
//! flags continuation. Values the payload actually stores — node-id
//! deltas inside a run, run lengths, walk steps, dictionary indices —
//! are overwhelmingly small, so most encode to a single byte; the worst
//! case for a `u64` is 10 bytes.
//!
//! The decoder is hardened for untrusted input: it rejects truncation,
//! overlong encodings past 10 bytes, and overflow of the 64-bit value,
//! always as [`SlingError::CorruptIndex`] — never a panic.

use crate::error::SlingError;

/// Maximum encoded length of a `u64` (⌈64 / 7⌉ bytes).
pub const MAX_VARINT_LEN: usize = 10;

/// Append the LEB128 encoding of `v` to `out`.
#[inline]
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Encoded length of `v` in bytes (without encoding it).
#[inline]
pub fn len_u64(v: u64) -> usize {
    // bits needed, rounded up to 7-bit groups; zero still takes one byte.
    (64 - v.leading_zeros() as usize).max(1).div_ceil(7)
}

/// Decode one LEB128 `u64` from the front of `buf`, advancing it.
///
/// The one- and two-byte encodings — nearly every node-id gap, run
/// length and dictionary code — are decoded inline; anything longer,
/// truncated or malformed goes through the general loop.
#[inline(always)]
pub fn read_u64(buf: &mut &[u8]) -> Result<u64, SlingError> {
    let bytes: &[u8] = buf;
    match *bytes {
        [b0, ref rest @ ..] if b0 < 0x80 => {
            *buf = rest;
            Ok(u64::from(b0))
        }
        [b0, b1, ref rest @ ..] if b1 < 0x80 => {
            *buf = rest;
            Ok(u64::from(b0 & 0x7f) | (u64::from(b1) << 7))
        }
        _ => read_u64_long(buf),
    }
}

/// The general loop behind [`read_u64`]: encodings of three or more
/// bytes, and every rejection.
fn read_u64_long(buf: &mut &[u8]) -> Result<u64, SlingError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().enumerate() {
        if i >= MAX_VARINT_LEN {
            break;
        }
        let payload = (byte & 0x7f) as u64;
        // The 10th byte may only carry the single remaining bit.
        if shift == 63 && payload > 1 {
            return Err(SlingError::CorruptIndex(
                "varint overflows 64 bits".to_string(),
            ));
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            *buf = &buf[i + 1..];
            return Ok(value);
        }
        shift += 7;
    }
    Err(SlingError::CorruptIndex(
        if buf.len() >= MAX_VARINT_LEN {
            "varint longer than 10 bytes"
        } else {
            "truncated varint"
        }
        .to_string(),
    ))
}

/// Decode a varint that must fit `u32` (node ids, run lengths, counts).
#[inline(always)]
pub fn read_u32(buf: &mut &[u8]) -> Result<u32, SlingError> {
    let v = read_u64(buf)?;
    u32::try_from(v)
        .map_err(|_| SlingError::CorruptIndex(format!("varint {v} exceeds the u32 field range")))
}

/// Decode a varint that must fit `u16` (walk steps).
#[inline(always)]
pub fn read_u16(buf: &mut &[u8]) -> Result<u16, SlingError> {
    let v = read_u64(buf)?;
    u16::try_from(v)
        .map_err(|_| SlingError::CorruptIndex(format!("varint {v} exceeds the u16 field range")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            255,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut out = Vec::new();
            write_u64(&mut out, v);
            assert_eq!(out.len(), len_u64(v), "length of {v}");
            let mut buf = out.as_slice();
            assert_eq!(read_u64(&mut buf).unwrap(), v);
            assert!(buf.is_empty(), "decoder left bytes behind for {v}");
        }
    }

    #[test]
    fn small_values_take_one_byte() {
        for v in 0..128u64 {
            let mut out = Vec::new();
            write_u64(&mut out, v);
            assert_eq!(out, vec![v as u8]);
        }
    }

    #[test]
    fn rejects_truncation() {
        let mut out = Vec::new();
        write_u64(&mut out, u64::MAX);
        for cut in 0..out.len() {
            let mut buf = &out[..cut];
            assert!(read_u64(&mut buf).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn rejects_overlong_and_overflow() {
        // 11 continuation bytes: too long even if it would terminate.
        let mut buf: &[u8] = &[0x80u8; 11];
        assert!(read_u64(&mut buf).is_err());
        // 10 bytes whose last carries more than the 1 remaining bit.
        let overflow: &[u8] = &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        let mut buf = overflow;
        assert!(read_u64(&mut buf).is_err());
        // The same prefix with a legal final byte is u64::MAX.
        let max: &[u8] = &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        let mut buf = max;
        assert_eq!(read_u64(&mut buf).unwrap(), u64::MAX);
    }

    #[test]
    fn narrow_reads_enforce_their_range() {
        let mut out = Vec::new();
        write_u64(&mut out, u16::MAX as u64 + 1);
        assert!(read_u16(&mut out.as_slice()).is_err());
        assert_eq!(read_u32(&mut out.as_slice()).unwrap(), 65_536);
        let mut out = Vec::new();
        write_u64(&mut out, u32::MAX as u64 + 1);
        assert!(read_u32(&mut out.as_slice()).is_err());
    }
}
