//! Delta + zigzag + varint encoding for `i64`/`u64` sequences.
//!
//! Numeric log columns are strongly clustered: timestamps are nearly sorted,
//! latencies are small, tenant ids repeat. Storing the zigzag-encoded
//! difference between consecutive values as varints exploits all of that.

use crate::varint::{put_ivarint, put_uvarint, read_ivarint, read_uvarint};
use logstore_types::{Error, Result};

/// Encodes a sequence of `i64` values.
pub fn encode_i64(values: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 2 + 8);
    encode_i64_into(values, &mut out);
    out
}

/// Appends the bytes [`encode_i64`] returns to `out`, so an encoder that
/// writes many blocks reuses one buffer.
pub fn encode_i64_into(values: &[i64], out: &mut Vec<u8>) {
    put_uvarint(out, values.len() as u64);
    let mut prev = 0i64;
    for &v in values {
        put_ivarint(out, v.wrapping_sub(prev));
        prev = v;
    }
}

/// Decodes a sequence produced by [`encode_i64`].
pub fn decode_i64(buf: &[u8], max_len: usize) -> Result<Vec<i64>> {
    let mut out = Vec::new();
    decode_i64_into(buf, max_len, &mut out)?;
    Ok(out)
}

/// Decodes into a caller-owned buffer so batch scans can reuse allocations.
/// `out` is cleared first.
pub fn decode_i64_into(buf: &[u8], max_len: usize, out: &mut Vec<i64>) -> Result<()> {
    let mut pos = 0;
    let n = read_count(buf, &mut pos, max_len)?;
    out.clear();
    out.reserve(n);
    let mut prev = 0i64;
    for _ in 0..n {
        prev = prev.wrapping_add(read_ivarint(buf, &mut pos)?);
        out.push(prev);
    }
    if pos != buf.len() {
        return Err(Error::corruption("trailing bytes after delta stream"));
    }
    Ok(())
}

/// Reads a stream's value count: at most `max_len`, and no more than the
/// bytes left, since every value takes one — so a forged count sizes
/// nothing.
fn read_count(buf: &[u8], pos: &mut usize, max_len: usize) -> Result<usize> {
    let n = read_uvarint(buf, pos)? as usize;
    if n > max_len {
        return Err(Error::corruption("delta stream longer than declared"));
    }
    if n > buf.len() - *pos {
        return Err(Error::corruption("delta count past the stream"));
    }
    Ok(n)
}

/// Encodes a sequence of `u64` values (delta via wrapping i64 arithmetic).
pub fn encode_u64(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 2 + 8);
    encode_u64_into(values, &mut out);
    out
}

/// Appends the bytes [`encode_u64`] returns to `out`.
pub fn encode_u64_into(values: &[u64], out: &mut Vec<u8>) {
    put_uvarint(out, values.len() as u64);
    let mut prev = 0u64;
    for &v in values {
        put_ivarint(out, v.wrapping_sub(prev) as i64);
        prev = v;
    }
}

/// Decodes a sequence produced by [`encode_u64`].
pub fn decode_u64(buf: &[u8], max_len: usize) -> Result<Vec<u64>> {
    let mut out = Vec::new();
    decode_u64_into(buf, max_len, &mut out)?;
    Ok(out)
}

/// Decodes into a caller-owned buffer so batch scans can reuse allocations.
/// `out` is cleared first.
pub fn decode_u64_into(buf: &[u8], max_len: usize, out: &mut Vec<u64>) -> Result<()> {
    let mut pos = 0;
    let n = read_count(buf, &mut pos, max_len)?;
    out.clear();
    out.reserve(n);
    let mut prev = 0u64;
    for _ in 0..n {
        prev = prev.wrapping_add(read_ivarint(buf, &mut pos)? as u64);
        out.push(prev);
    }
    if pos != buf.len() {
        return Err(Error::corruption("trailing bytes after delta stream"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sorted_timestamps_compress_tightly() {
        let ts: Vec<i64> = (0..10_000).map(|i| 1_600_000_000_000 + i * 3).collect();
        let enc = encode_i64(&ts);
        // Each delta is 3 → one byte each plus the count prefix.
        assert!(enc.len() < ts.len() + 16, "encoded {} bytes", enc.len());
        assert_eq!(decode_i64(&enc, ts.len()).unwrap(), ts);
    }

    #[test]
    fn extremes_roundtrip() {
        let vs = vec![i64::MIN, i64::MAX, 0, -1, 1, i64::MIN, i64::MAX];
        assert_eq!(decode_i64(&encode_i64(&vs), vs.len()).unwrap(), vs);
        let us = vec![u64::MAX, 0, u64::MAX / 2, 1];
        assert_eq!(decode_u64(&encode_u64(&us), us.len()).unwrap(), us);
    }

    #[test]
    fn empty_roundtrip() {
        assert!(decode_i64(&encode_i64(&[]), 0).unwrap().is_empty());
        assert!(decode_u64(&encode_u64(&[]), 0).unwrap().is_empty());
    }

    #[test]
    fn length_guard() {
        let enc = encode_i64(&[1, 2, 3]);
        assert!(decode_i64(&enc, 2).is_err());
    }

    #[test]
    fn a_count_past_the_bytes_left_is_rejected_before_reserving() {
        // Two bytes declaring 2^31 values, under a caller bound that
        // allows them: the count must not size the output.
        let mut forged = Vec::new();
        put_uvarint(&mut forged, 1 << 31);
        forged.push(0);
        let mut out = Vec::new();
        assert!(decode_i64_into(&forged, usize::MAX, &mut out).is_err());
        assert!(decode_u64(&forged, usize::MAX).is_err());
        assert_eq!(out.capacity(), 0);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut enc = encode_i64(&[1, 2, 3]);
        enc.push(0);
        assert!(decode_i64(&enc, 3).is_err());
    }

    proptest! {
        #[test]
        fn prop_i64_roundtrip(vs in proptest::collection::vec(any::<i64>(), 0..512)) {
            prop_assert_eq!(decode_i64(&encode_i64(&vs), vs.len()).unwrap(), vs);
        }

        #[test]
        fn prop_u64_roundtrip(vs in proptest::collection::vec(any::<u64>(), 0..512)) {
            prop_assert_eq!(decode_u64(&encode_u64(&vs), vs.len()).unwrap(), vs);
        }
    }
}
