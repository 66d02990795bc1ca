//! LEB128 variable-length integers and zigzag transforms.
//!
//! These are the workhorse encodings of every on-disk structure in LogStore:
//! posting lists, delta-coded numeric columns, string length prefixes and
//! the LogBlock section offsets all use them.

use logstore_types::{Error, Result};

/// Maximum encoded size of a `u64` varint.
pub const MAX_VARINT_LEN: usize = 10;

/// Appends `v` to `buf` in LEB128 format.
#[inline]
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Appends a zigzag-encoded `i64`.
#[inline]
pub fn put_ivarint(buf: &mut Vec<u8>, v: i64) {
    put_uvarint(buf, zigzag_encode(v));
}

/// Reads a varint from `buf` starting at `*pos`, advancing `*pos`.
#[inline]
pub fn read_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut result: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or_else(|| Error::corruption("varint truncated"))?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(Error::corruption("varint overflows u64"));
        }
        result |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(result);
        }
        shift += 7;
        if shift > 63 {
            return Err(Error::corruption("varint too long"));
        }
    }
}

/// Reads a zigzag-encoded `i64`.
#[inline]
pub fn read_ivarint(buf: &[u8], pos: &mut usize) -> Result<i64> {
    Ok(zigzag_decode(read_uvarint(buf, pos)?))
}

/// Maps signed to unsigned so that small-magnitude values encode short.
#[inline]
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[inline]
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Number of bytes [`put_uvarint`] would emit for `v`.
#[inline]
pub fn uvarint_len(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

/// Appends a fixed-width little-endian `u32` (used where random access
/// matters more than size, e.g. section tables).
#[inline]
pub fn put_u32_le(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Reads a fixed-width little-endian `u32`.
#[inline]
pub fn read_u32_le(buf: &[u8], pos: &mut usize) -> Result<u32> {
    let bytes = buf
        .get(*pos..)
        .and_then(<[u8]>::first_chunk)
        .ok_or_else(|| Error::corruption("u32 truncated"))?;
    *pos += 4;
    Ok(u32::from_le_bytes(*bytes))
}

/// Appends a fixed-width little-endian `u64`.
#[inline]
pub fn put_u64_le(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Reads a fixed-width little-endian `u64`.
#[inline]
pub fn read_u64_le(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let bytes = buf
        .get(*pos..)
        .and_then(<[u8]>::first_chunk)
        .ok_or_else(|| Error::corruption("u64 truncated"))?;
    *pos += 8;
    Ok(u64::from_le_bytes(*bytes))
}

/// Appends a length-prefixed byte slice.
pub fn put_bytes(buf: &mut Vec<u8>, data: &[u8]) {
    put_uvarint(buf, data.len() as u64);
    buf.extend_from_slice(data);
}

/// Reads a length-prefixed byte slice.
pub fn read_bytes<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8]> {
    let len = read_uvarint(buf, pos)? as usize;
    let end =
        pos.checked_add(len).ok_or_else(|| Error::corruption("byte slice length overflow"))?;
    let out = buf.get(*pos..end).ok_or_else(|| Error::corruption("byte slice truncated"))?;
    *pos = end;
    Ok(out)
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string.
pub fn read_str<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a str> {
    let bytes = read_bytes(buf, pos)?;
    std::str::from_utf8(bytes).map_err(|_| Error::corruption("invalid utf-8 string"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uvarint_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            assert_eq!(buf.len(), uvarint_len(v));
            let mut pos = 0;
            assert_eq!(read_uvarint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zigzag_maps_small_magnitudes_small() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
        assert_eq!(zigzag_decode(zigzag_encode(i64::MIN)), i64::MIN);
        assert_eq!(zigzag_decode(zigzag_encode(i64::MAX)), i64::MAX);
    }

    #[test]
    fn truncated_varint_is_error() {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, u64::MAX);
        buf.pop();
        let mut pos = 0;
        assert!(read_uvarint(&buf, &mut pos).is_err());
    }

    #[test]
    fn overlong_varint_is_error() {
        let buf = [0x80u8; 11];
        let mut pos = 0;
        assert!(read_uvarint(&buf, &mut pos).is_err());
    }

    #[test]
    fn fixed_width_roundtrip() {
        let mut buf = Vec::new();
        put_u32_le(&mut buf, 0xdead_beef);
        put_u64_le(&mut buf, 0x0123_4567_89ab_cdef);
        let mut pos = 0;
        assert_eq!(read_u32_le(&buf, &mut pos).unwrap(), 0xdead_beef);
        assert_eq!(read_u64_le(&buf, &mut pos).unwrap(), 0x0123_4567_89ab_cdef);
        assert!(read_u32_le(&buf, &mut pos).is_err());
    }

    #[test]
    fn strings_and_bytes_roundtrip() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hello");
        put_bytes(&mut buf, &[1, 2, 3]);
        let mut pos = 0;
        assert_eq!(read_str(&buf, &mut pos).unwrap(), "hello");
        assert_eq!(read_bytes(&buf, &mut pos).unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, &[0xff, 0xfe]);
        let mut pos = 0;
        assert!(read_str(&buf, &mut pos).is_err());
    }

    proptest! {
        #[test]
        fn prop_uvarint_roundtrip(v in any::<u64>()) {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut pos = 0;
            prop_assert_eq!(read_uvarint(&buf, &mut pos).unwrap(), v);
            prop_assert_eq!(pos, buf.len());
        }

        #[test]
        fn prop_ivarint_roundtrip(v in any::<i64>()) {
            let mut buf = Vec::new();
            put_ivarint(&mut buf, v);
            let mut pos = 0;
            prop_assert_eq!(read_ivarint(&buf, &mut pos).unwrap(), v);
        }

        #[test]
        fn prop_uvarint_len_matches(v in any::<u64>()) {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            prop_assert_eq!(buf.len(), uvarint_len(v));
        }
    }
}
