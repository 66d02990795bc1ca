//! LZ77 compression with two effort profiles.
//!
//! The stream format is LZ4-flavoured (but not LZ4-compatible): a sequence
//! of tokens, each carrying a literal run followed by a back-reference:
//!
//! ```text
//! sequence := token  ext_lit*  literal^lit_len  offset_u16_le  ext_match*
//! token    := (lit_len_nibble << 4) | match_len_nibble
//! ```
//!
//! A nibble of 15 means the length continues in extension bytes (each
//! 0..=255; 255 continues). Match lengths are stored minus [`MIN_MATCH`].
//! The final sequence carries only literals (no offset / match).
//!
//! * [`compress_fast`] — greedy parse with a single-probe hash table. Mirrors
//!   the CPU/ratio point of LZ4/Snappy in the paper's compression menu.
//! * [`compress_high`] — hash-chain match finder with lazy evaluation.
//!   Better ratio at more CPU; stands in for ZSTD, LogStore's default.

use crate::varint::{put_uvarint, read_uvarint};
use logstore_types::{Error, Result};

/// Minimum match length worth encoding (shorter is cheaper as literals).
pub const MIN_MATCH: usize = 4;
/// Maximum back-reference distance (offset is a u16).
pub const MAX_OFFSET: usize = u16::MAX as usize;

const FAST_HASH_BITS: u32 = 15;
const HIGH_HASH_BITS: u32 = 16;
/// How many chain links the high-effort match finder follows.
const HIGH_CHAIN_DEPTH: usize = 64;

#[inline]
fn read4(input: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(input[pos..pos + 4].try_into().expect("4 bytes available"))
}

#[inline]
fn hash(v: u32, bits: u32) -> usize {
    (v.wrapping_mul(2654435761) >> (32 - bits)) as usize
}

/// Length of the common prefix of `input[a..]` and `input[b..]` (bounded by
/// the input end).
#[inline]
fn common_len(input: &[u8], mut a: usize, mut b: usize) -> usize {
    let start = b;
    while b < input.len() && input[a] == input[b] {
        a += 1;
        b += 1;
    }
    b - start
}

fn put_len_nibble(out: &mut Vec<u8>, len: usize) {
    // Extension bytes after a nibble of 15.
    let mut rest = len - 15;
    while rest >= 255 {
        out.push(255);
        rest -= 255;
    }
    out.push(rest as u8);
}

fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], offset: usize, match_len: usize) {
    debug_assert!(match_len >= MIN_MATCH);
    debug_assert!((1..=MAX_OFFSET).contains(&offset));
    let ml = match_len - MIN_MATCH;
    let lit_nibble = literals.len().min(15) as u8;
    let match_nibble = ml.min(15) as u8;
    out.push((lit_nibble << 4) | match_nibble);
    if literals.len() >= 15 {
        put_len_nibble(out, literals.len());
    }
    out.extend_from_slice(literals);
    out.extend_from_slice(&(offset as u16).to_le_bytes());
    if ml >= 15 {
        put_len_nibble(out, ml);
    }
}

fn emit_final(out: &mut Vec<u8>, literals: &[u8]) {
    let lit_nibble = literals.len().min(15) as u8;
    out.push(lit_nibble << 4);
    if literals.len() >= 15 {
        put_len_nibble(out, literals.len());
    }
    out.extend_from_slice(literals);
}

/// Greedy single-probe compression (the "fast" profile).
pub fn compress_fast(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    put_uvarint(&mut out, input.len() as u64);
    if input.len() < MIN_MATCH {
        emit_final(&mut out, input);
        return out;
    }
    // table[h] stores position + 1; 0 means empty.
    let mut table = vec![0u32; 1 << FAST_HASH_BITS];
    let mut i = 0;
    let mut anchor = 0;
    let limit = input.len() - MIN_MATCH;
    while i <= limit {
        let h = hash(read4(input, i), FAST_HASH_BITS);
        let cand = table[h] as usize;
        table[h] = (i + 1) as u32;
        if cand > 0 {
            let c = cand - 1;
            if i - c <= MAX_OFFSET && read4(input, c) == read4(input, i) {
                let mlen = MIN_MATCH + common_len(input, c + MIN_MATCH, i + MIN_MATCH);
                emit_sequence(&mut out, &input[anchor..i], i - c, mlen);
                i += mlen;
                anchor = i;
                continue;
            }
        }
        i += 1;
    }
    emit_final(&mut out, &input[anchor..]);
    out
}

struct ChainFinder {
    head: Vec<u32>,
    prev: Vec<u32>,
}

impl ChainFinder {
    fn new(len: usize) -> Self {
        ChainFinder { head: vec![u32::MAX; 1 << HIGH_HASH_BITS], prev: vec![u32::MAX; len] }
    }

    #[inline]
    fn insert(&mut self, input: &[u8], pos: usize) {
        let h = hash(read4(input, pos), HIGH_HASH_BITS);
        self.prev[pos] = self.head[h];
        self.head[h] = pos as u32;
    }

    /// Longest match ending no further than [`MAX_OFFSET`] back from `pos`.
    fn find(&self, input: &[u8], pos: usize) -> Option<(usize, usize)> {
        let h = hash(read4(input, pos), HIGH_HASH_BITS);
        let mut cand = self.head[h];
        let mut best: Option<(usize, usize)> = None;
        let mut depth = 0;
        while cand != u32::MAX && depth < HIGH_CHAIN_DEPTH {
            let c = cand as usize;
            if c >= pos {
                // `pos` (or a later position) may already be inserted when
                // the lazy path probes ahead; a position cannot match itself.
                cand = self.prev[c];
                continue;
            }
            if pos - c > MAX_OFFSET {
                break; // chain positions only get older
            }
            // Cheap reject: check the byte just past the current best.
            let best_len = best.map_or(MIN_MATCH - 1, |(_, l)| l);
            if pos + best_len < input.len()
                && c + best_len < input.len()
                && input[c + best_len] == input[pos + best_len]
                && read4(input, c) == read4(input, pos)
            {
                let len = MIN_MATCH + common_len(input, c + MIN_MATCH, pos + MIN_MATCH);
                if len > best_len {
                    best = Some((pos - c, len));
                }
            }
            cand = self.prev[c];
            depth += 1;
        }
        best
    }
}

/// Hash-chain compression with lazy matching (the "high" profile).
pub fn compress_high(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    put_uvarint(&mut out, input.len() as u64);
    if input.len() < MIN_MATCH {
        emit_final(&mut out, input);
        return out;
    }
    let mut finder = ChainFinder::new(input.len());
    let mut i = 0;
    let mut anchor = 0;
    let limit = input.len() - MIN_MATCH;
    while i <= limit {
        finder.insert(input, i);
        let Some((offset, len)) = finder.find(input, i) else {
            i += 1;
            continue;
        };
        // Lazy evaluation: if the match starting at i+1 is strictly longer,
        // emit input[i] as a literal and take the later match instead.
        let (mut offset, mut len) = (offset, len);
        if i < limit {
            finder.insert(input, i + 1);
            if let Some((o2, l2)) = finder.find(input, i + 1) {
                if l2 > len + 1 {
                    i += 1;
                    offset = o2;
                    len = l2;
                }
            }
        }
        emit_sequence(&mut out, &input[anchor..i], offset, len);
        // Index the positions covered by the match so later data can
        // reference into it (skip ones already inserted).
        let match_end = (i + len).min(limit + 1);
        let mut p = i + 1;
        while p < match_end {
            if finder.prev[p] == u32::MAX {
                let h = hash(read4(input, p), HIGH_HASH_BITS);
                if finder.head[h] != p as u32 {
                    finder.insert(input, p);
                }
            }
            p += 1;
        }
        i += len;
        anchor = i;
    }
    emit_final(&mut out, &input[anchor..]);
    out
}

fn read_len_nibble(input: &[u8], pos: &mut usize, nibble: usize) -> Result<usize> {
    if nibble < 15 {
        return Ok(nibble);
    }
    let mut len = 15;
    loop {
        let b =
            *input.get(*pos).ok_or_else(|| Error::corruption("lz length extension truncated"))?;
        *pos += 1;
        len += b as usize;
        if b != 255 {
            return Ok(len);
        }
    }
}

/// Appends `match_len` bytes starting `offset` back from the end of `out`.
/// The caller checked `1 <= offset <= out.len()`.
#[inline]
fn copy_match(out: &mut Vec<u8>, offset: usize, match_len: usize) {
    let start = out.len() - offset;
    if offset >= match_len {
        out.extend_from_within(start..start + match_len);
        return;
    }
    // The match overlaps the bytes it produces: the output is the last
    // `offset` bytes repeated. Every copy doubles the stretch from `start`
    // that already holds whole periods, so the next one may take all of it.
    let mut copied = 0;
    while copied < match_len {
        let n = (offset + copied).min(match_len - copied);
        out.extend_from_within(start..start + n);
        copied += n;
    }
}

/// Decompresses a stream produced by [`compress_fast`] or [`compress_high`].
///
/// `max_len` bounds the output (decompression-bomb guard); the stream's own
/// declared length must not exceed it, nor what `input` can expand to.
pub fn decompress(input: &[u8], max_len: usize) -> Result<Vec<u8>> {
    let mut pos = 0;
    let declared = read_uvarint(input, &mut pos)? as usize;
    if declared > max_len {
        return Err(Error::corruption("lz declared length exceeds limit"));
    }
    // The densest sequence is a run of match-length extension bytes, each
    // worth at most 255 output bytes: a stream that declares more than
    // that cannot be honest, and must not size the allocation below.
    if declared > input.len().saturating_mul(255) {
        return Err(Error::corruption("lz declared length exceeds what the stream can hold"));
    }
    let mut out = Vec::with_capacity(declared);
    while pos < input.len() {
        let token = input[pos];
        pos += 1;
        let lit_len = read_len_nibble(input, &mut pos, (token >> 4) as usize)?;
        let lit_end = pos + lit_len;
        let lits =
            input.get(pos..lit_end).ok_or_else(|| Error::corruption("lz literals truncated"))?;
        out.extend_from_slice(lits);
        pos = lit_end;
        if pos == input.len() {
            break; // final literal-only sequence
        }
        let off_bytes =
            input.get(pos..pos + 2).ok_or_else(|| Error::corruption("lz offset truncated"))?;
        let offset = u16::from_le_bytes(off_bytes.try_into().expect("2 bytes")) as usize;
        pos += 2;
        if offset == 0 || offset > out.len() {
            return Err(Error::corruption("lz offset out of range"));
        }
        let match_len = MIN_MATCH + read_len_nibble(input, &mut pos, (token & 0x0f) as usize)?;
        if out.len() + match_len > declared {
            return Err(Error::corruption("lz output exceeds declared length"));
        }
        copy_match(&mut out, offset, match_len);
    }
    if out.len() != declared {
        return Err(Error::corruption(format!(
            "lz output length {} != declared {}",
            out.len(),
            declared
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn roundtrip_both(data: &[u8]) {
        for compressed in [compress_fast(data), compress_high(data)] {
            let d = decompress(&compressed, data.len()).unwrap();
            assert_eq!(d, data);
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        roundtrip_both(&[]);
        roundtrip_both(b"a");
        roundtrip_both(b"abc");
        roundtrip_both(b"abcd");
    }

    #[test]
    fn repetitive_text_compresses() {
        let data: Vec<u8> =
            b"GET /api/v1/users 200 12ms ".iter().copied().cycle().take(50_000).collect();
        let fast = compress_fast(&data);
        let high = compress_high(&data);
        assert!(fast.len() < data.len() / 4, "fast ratio too poor: {}", fast.len());
        assert!(high.len() <= fast.len(), "high should not be worse than fast");
        roundtrip_both(&data);
    }

    #[test]
    fn log_like_data_high_beats_fast() {
        // Semi-repetitive log lines with varying numbers.
        let mut data = Vec::new();
        for i in 0..2000 {
            data.extend_from_slice(
                format!(
                    "2020-11-11 00:{:02}:{:02} INFO request id={} latency={}ms\n",
                    i / 60 % 60,
                    i % 60,
                    i * 7,
                    i % 300
                )
                .as_bytes(),
            );
        }
        let fast = compress_fast(&data);
        let high = compress_high(&data);
        assert!(high.len() < fast.len(), "high {} !< fast {}", high.len(), fast.len());
        roundtrip_both(&data);
    }

    #[test]
    fn random_data_survives() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let data: Vec<u8> = (0..10_000).map(|_| rng.gen()).collect();
        roundtrip_both(&data);
    }

    #[test]
    fn long_run_matches() {
        let mut data = vec![0u8; 100_000];
        data.extend_from_slice(b"tail");
        roundtrip_both(&data);
    }

    #[test]
    fn far_matches_beyond_window_are_not_used() {
        // A 4-byte pattern repeated with > 64KiB gap; must still roundtrip.
        let mut data = b"MAGIC".to_vec();
        data.extend(std::iter::repeat_n(1u8, 70_000));
        data.extend_from_slice(b"MAGIC");
        roundtrip_both(&data);
    }

    #[test]
    fn zero_offset_rejected() {
        // Hand-crafted stream: declared len 4, one sequence with no
        // literals and offset 0 — a back-reference into nothing.
        let mut stream = Vec::new();
        put_uvarint(&mut stream, 4);
        stream.push(0x00); // token: 0 literals, match nibble 0 (len 4)
        stream.extend_from_slice(&0u16.to_le_bytes());
        assert!(decompress(&stream, 16).is_err());
    }

    #[test]
    fn out_of_range_offset_rejected() {
        let mut stream = Vec::new();
        put_uvarint(&mut stream, 8);
        stream.push(0x10); // 1 literal, match len 4
        stream.push(b'a');
        stream.extend_from_slice(&100u16.to_le_bytes()); // only 1 byte out
        assert!(decompress(&stream, 16).is_err());
    }

    #[test]
    fn bomb_guard() {
        let data = vec![7u8; 4096];
        let c = compress_fast(&data);
        assert!(decompress(&c, 16).is_err());
    }

    #[test]
    fn declared_length_mismatch_rejected() {
        let data = b"hello world hello world hello world";
        let c = compress_fast(data);
        // Claim a longer payload than the stream produces.
        let mut forged = Vec::new();
        put_uvarint(&mut forged, 1000);
        forged.extend_from_slice(&c[1..]); // original length fit in 1 byte
        assert!(decompress(&forged, 2000).is_err());
    }

    #[test]
    fn declared_length_beyond_the_streams_reach_rejected_before_allocating() {
        // Six bytes that claim a gigabyte: no stream expands more than
        // 255x, so this is refused by arithmetic, not by running out of
        // input after reserving the gigabyte.
        let mut forged = Vec::new();
        put_uvarint(&mut forged, 1 << 30);
        forged.push(0x00);
        assert_eq!(forged.len(), 6);
        let err = decompress(&forged, 1 << 30).unwrap_err();
        assert!(err.to_string().contains("can hold"), "{err}");
        // The bound is the format's, not a guess: one token, a two-byte
        // offset and `k` saturated extension bytes after a single literal
        // expand to just under 255x.
        let k = 64;
        let mut dense = Vec::new();
        let len = 1 + MIN_MATCH + 15 + 255 * k;
        put_uvarint(&mut dense, len as u64);
        dense.extend_from_slice(&[0x1f, b'z', 1, 0]);
        dense.extend(std::iter::repeat_n(255u8, k));
        dense.push(0);
        assert!(len > 200 * dense.len());
        assert_eq!(decompress(&dense, len).unwrap(), vec![b'z'; len]);
    }

    /// The decoder as it was before matches were copied in chunks: one
    /// `push` per match byte, which is correct for every overlap by
    /// construction. Kept as the oracle for [`copy_match`].
    fn decompress_bytewise(input: &[u8]) -> Vec<u8> {
        let mut pos = 0;
        let declared = read_uvarint(input, &mut pos).unwrap() as usize;
        let mut out = Vec::new();
        while pos < input.len() {
            let token = input[pos];
            pos += 1;
            let lit_len = read_len_nibble(input, &mut pos, (token >> 4) as usize).unwrap();
            out.extend_from_slice(&input[pos..pos + lit_len]);
            pos += lit_len;
            if pos == input.len() {
                break;
            }
            let offset = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
            pos += 2;
            let match_len =
                MIN_MATCH + read_len_nibble(input, &mut pos, (token & 0x0f) as usize).unwrap();
            let start = out.len() - offset;
            for k in 0..match_len {
                let b = out[start + k];
                out.push(b);
            }
        }
        assert_eq!(out.len(), declared);
        out
    }

    #[test]
    fn chunked_match_copy_is_the_bytewise_copy_at_every_overlap() {
        let literals: Vec<u8> = (b'a'..b'a' + 16).collect();
        for offset in 1..=16usize {
            for match_len in MIN_MATCH..=300 {
                let mut stream = Vec::new();
                put_uvarint(&mut stream, (literals.len() + match_len + 3) as u64);
                emit_sequence(&mut stream, &literals, offset, match_len);
                emit_final(&mut stream, b"end");
                let expected = decompress_bytewise(&stream);
                // The period of an overlapping match is its offset.
                let period = &literals[literals.len() - offset..];
                assert!(expected[literals.len()..literals.len() + match_len]
                    .iter()
                    .zip(period.iter().cycle())
                    .all(|(a, b)| a == b));
                assert_eq!(
                    decompress(&stream, expected.len()).unwrap(),
                    expected,
                    "offset {offset} match_len {match_len}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Short alphabets and short periods make both compressors emit
        /// overlapping matches of every small offset.
        #[test]
        fn prop_chunked_copy_matches_bytewise_on_compressor_streams(
            runs in proptest::collection::vec((proptest::collection::vec(0u8..4, 1..9), 1usize..60), 0..40)
        ) {
            let data: Vec<u8> = runs
                .iter()
                .flat_map(|(unit, times)| unit.iter().copied().cycle().take(unit.len() * times))
                .collect();
            for stream in [compress_fast(&data), compress_high(&data)] {
                prop_assert_eq!(&decompress_bytewise(&stream), &data);
                prop_assert_eq!(&decompress(&stream, data.len()).unwrap(), &data);
            }
        }

        #[test]
        fn prop_roundtrip_fast(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let c = compress_fast(&data);
            prop_assert_eq!(decompress(&c, data.len()).unwrap(), data);
        }

        #[test]
        fn prop_roundtrip_high(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let c = compress_high(&data);
            prop_assert_eq!(decompress(&c, data.len()).unwrap(), data);
        }

        #[test]
        fn prop_roundtrip_textlike(
            words in proptest::collection::vec("[a-e]{1,6}", 0..400)
        ) {
            let data = words.join(" ").into_bytes();
            let c = compress_high(&data);
            prop_assert_eq!(decompress(&c, data.len()).unwrap(), data);
        }

        #[test]
        fn prop_decompress_never_panics(
            garbage in proptest::collection::vec(any::<u8>(), 0..512)
        ) {
            let _ = decompress(&garbage, 1 << 16);
        }
    }
}
