//! Byte-level run-length encoding.
//!
//! Effective for low-cardinality columns (booleans, null bitsets, repeated
//! enum-like strings after dictionary encoding). The format is a sequence of
//! tokens:
//!
//! ```text
//! token := repeat | literal
//! repeat  := varint(2*run_len + 1)  byte        // run_len >= MIN_RUN
//! literal := varint(2*lit_len)      byte^lit_len
//! ```
//!
//! The low bit of the leading varint distinguishes token kinds, so the
//! stream is self-describing and resynchronises without padding.

use crate::varint::{put_uvarint, read_uvarint};
use logstore_types::{Error, Result};

/// Runs shorter than this are cheaper as literals.
const MIN_RUN: usize = 3;

/// Compresses `input` with RLE.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    compress_into(input, &mut out);
    out
}

/// [`compress`], appending to `out`.
pub(crate) fn compress_into(input: &[u8], out: &mut Vec<u8>) {
    out.reserve(input.len() / 4 + 8);
    let mut i = 0;
    let mut lit_start = 0;
    while i < input.len() {
        // Measure the run starting at i.
        let b = input[i];
        let mut run = 1;
        while i + run < input.len() && input[i + run] == b {
            run += 1;
        }
        if run >= MIN_RUN {
            flush_literal(out, &input[lit_start..i]);
            put_uvarint(out, (run as u64) * 2 + 1);
            out.push(b);
            i += run;
            lit_start = i;
        } else {
            i += run;
        }
    }
    flush_literal(out, &input[lit_start..]);
}

fn flush_literal(out: &mut Vec<u8>, lit: &[u8]) {
    if !lit.is_empty() {
        put_uvarint(out, (lit.len() as u64) * 2);
        out.extend_from_slice(lit);
    }
}

/// Decompresses an RLE stream produced by [`compress`].
///
/// `max_len` bounds the output size to protect against decompression bombs
/// from corrupted inputs.
pub fn decompress(input: &[u8], max_len: usize) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < input.len() {
        let head = read_uvarint(input, &mut pos)?;
        let len = (head / 2) as usize;
        if out.len() + len > max_len {
            return Err(Error::corruption("rle output exceeds declared length"));
        }
        if head & 1 == 1 {
            // Repeat run.
            let b = *input.get(pos).ok_or_else(|| Error::corruption("rle repeat truncated"))?;
            pos += 1;
            out.resize(out.len() + len, b);
        } else {
            let end = pos + len;
            let lit =
                input.get(pos..end).ok_or_else(|| Error::corruption("rle literal truncated"))?;
            out.extend_from_slice(lit);
            pos = end;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c, data.len()).unwrap();
        assert_eq!(d, data);
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(&[]);
        roundtrip(&[7]);
        roundtrip(&[1, 2]);
    }

    #[test]
    fn long_runs_shrink() {
        let data = vec![0u8; 10_000];
        let c = compress(&data);
        assert!(c.len() < 10, "10k zero bytes should compress to a few bytes");
        roundtrip(&data);
    }

    #[test]
    fn incompressible_data_survives() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        roundtrip(&data);
    }

    #[test]
    fn mixed_runs_and_literals() {
        let mut data = Vec::new();
        data.extend_from_slice(b"abc");
        data.extend(std::iter::repeat_n(b'x', 50));
        data.extend_from_slice(b"defgh");
        data.extend(std::iter::repeat_n(b'y', 3));
        roundtrip(&data);
    }

    #[test]
    fn bomb_protection() {
        let mut c = Vec::new();
        put_uvarint(&mut c, 1_000_000u64 * 2 + 1);
        c.push(0);
        assert!(decompress(&c, 100).is_err());
    }

    #[test]
    fn truncated_streams_error() {
        let c = compress(&[9u8; 100]);
        assert!(decompress(&c[..c.len() - 1], 100).is_err());
        let mut lit = Vec::new();
        put_uvarint(&mut lit, 10 * 2);
        lit.extend_from_slice(&[1, 2, 3]); // claims 10, has 3
        assert!(decompress(&lit, 100).is_err());
    }

    proptest! {
        #[test]
        fn prop_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
            roundtrip(&data);
        }

        #[test]
        fn prop_roundtrip_low_cardinality(
            data in proptest::collection::vec(0u8..4, 0..2048)
        ) {
            roundtrip(&data);
        }
    }
}
