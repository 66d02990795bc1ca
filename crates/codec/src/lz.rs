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
//!
//! # The high profile's match finder
//!
//! The output is fixed by one rule: at each position, the longest match
//! among the [`HIGH_CHAIN_DEPTH`] newest earlier positions with the same
//! hash of their first four bytes, within [`MAX_OFFSET`], the nearest on
//! ties; and a lazy probe one position on that wins only when it is two or
//! more bytes longer. `ChainFinder` evaluates that rule cheaply, and the
//! test module keeps the plain evaluation as the byte-level oracle.
//!
//! * `head`, 64 Ki `u32`s, maps a hash to its newest position, stored as
//!   a generation base plus the position. Each input takes the bases from
//!   the previous input's end up, so reusing the finder invalidates the
//!   whole table by moving the base: no 256 KiB refill per frame. The
//!   table is cleared only when the `u32` space runs out.
//! * `prev`, one `u16` per input byte, holds the distance back to the
//!   previous position of the same chain, or 0 for none. A link longer
//!   than [`MAX_OFFSET`] is stored as none: no match can reach it, so the
//!   walk ends exactly where a distance check would have ended it, and the
//!   walk's working set is half that of `u32` positions.
//! * Each position is hashed once, when it is inserted; a walk starts from
//!   `prev` of the position itself.
//! * A candidate is first compared on the four bytes that end one past the
//!   current best: only a candidate that matches there can be longer. Then
//!   its prefix is compared eight bytes at a time.
//! * The lazy probe asks for a match of at least the first match's length
//!   plus two from the start, so it rejects most candidates on their first
//!   four-byte compare.

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

#[inline]
fn read8(input: &[u8], pos: usize) -> u64 {
    u64::from_le_bytes(input[pos..pos + 8].try_into().expect("8 bytes available"))
}

/// Length of the common prefix of `input[a..]` and `input[b..]`, `a < b`
/// (bounded by the input end). Compares eight bytes at a time: the first
/// differing byte of two little-endian words is their XOR's lowest set
/// byte.
#[inline]
fn common_len(input: &[u8], mut a: usize, mut b: usize) -> usize {
    debug_assert!(a < b);
    let start = b;
    while b + 8 <= input.len() {
        let diff = read8(input, a) ^ read8(input, b);
        if diff != 0 {
            return b - start + (diff.trailing_zeros() / 8) as usize;
        }
        a += 8;
        b += 8;
    }
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
    let mut out = Vec::new();
    compress_fast_into(input, &mut out);
    out
}

/// [`compress_fast`], appending to `out`.
pub(crate) fn compress_fast_into(input: &[u8], out: &mut Vec<u8>) {
    out.reserve(input.len() / 2 + 16);
    put_uvarint(out, input.len() as u64);
    if input.len() < MIN_MATCH {
        emit_final(out, input);
        return;
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
                emit_sequence(out, &input[anchor..i], i - c, mlen);
                i += mlen;
                anchor = i;
                continue;
            }
        }
        i += 1;
    }
    emit_final(out, &input[anchor..]);
}

/// The high profile's match finder, reusable from input to input.
///
/// * `head[hash]` is the newest position with that hash of its first four
///   bytes, stored as `base + pos`. An input owns the values from its
///   `base` up, so starting the next input only moves `base` past this
///   one (no refill); the table is cleared only when the `u32` space runs
///   out.
/// * `prev[pos]` is the distance back to the previous position with the
///   same hash, or 0 when there is none within [`MAX_OFFSET`]: a match
///   can reach no further, so a longer link ends the chain exactly where
///   the walk would have stopped at it. Two bytes a link, and never read
///   before it is written: positions are inserted in order, once each.
#[derive(Debug, Default)]
pub(crate) struct ChainFinder {
    head: Vec<u32>,
    prev: Vec<u16>,
    base: u32,
    /// Where the next input's positions start.
    next_base: u32,
    /// Positions below this one are inserted.
    inserted: usize,
}

impl ChainFinder {
    /// Starts an input of `len` bytes.
    fn reset(&mut self, len: usize) {
        let len = u32::try_from(len).expect("an LZ input is under 4 GiB");
        if self.head.is_empty() || self.next_base.checked_add(len).is_none() {
            self.head.clear();
            self.head.resize(1 << HIGH_HASH_BITS, 0);
            // 0 marks an empty slot: no input starts there.
            self.next_base = 1;
        }
        self.base = self.next_base;
        self.next_base += len;
        self.prev.resize(len as usize, 0);
        self.inserted = 0;
    }

    /// Inserts every position below `end` not inserted yet.
    #[inline]
    fn insert_until(&mut self, input: &[u8], end: usize) {
        while self.inserted < end {
            let pos = self.inserted;
            let h = hash(read4(input, pos), HIGH_HASH_BITS);
            let here = self.base + pos as u32;
            let newest = self.head[h];
            let back = if newest >= self.base { (here - newest) as usize } else { 0 };
            self.prev[pos] = if back <= MAX_OFFSET { back as u16 } else { 0 };
            self.head[h] = here;
            self.inserted += 1;
        }
    }

    /// Longest match for the inserted position `pos`, among the
    /// [`HIGH_CHAIN_DEPTH`] newest earlier positions of its chain within
    /// [`MAX_OFFSET`], if one is longer than `shorter` (at least
    /// `MIN_MATCH - 1`). Ties keep the nearer match.
    ///
    /// The answer is the nearest of the longest candidates, so it depends
    /// only on which candidates the walk visits, not on how each is
    /// rejected: a candidate that beats the best so far matches it one
    /// byte further, hence on the four bytes ending there, which is the
    /// first thing compared.
    fn find(&self, input: &[u8], pos: usize, shorter: usize) -> Option<(usize, usize)> {
        let most = input.len() - pos;
        if shorter >= most {
            return None;
        }
        let mut best = (0, shorter);
        let mut c = pos;
        for _ in 0..HIGH_CHAIN_DEPTH {
            let back = self.prev[c] as usize;
            if back == 0 {
                break;
            }
            c -= back;
            if pos - c > MAX_OFFSET {
                break; // chain positions only get older
            }
            let edge = best.1 + 1 - 4;
            if read4(input, c + edge) == read4(input, pos + edge)
                && read4(input, c) == read4(input, pos)
            {
                let len = MIN_MATCH + common_len(input, c + MIN_MATCH, pos + MIN_MATCH);
                if len > best.1 {
                    best = (pos - c, len);
                    if len == most {
                        break; // nothing can be longer
                    }
                }
            }
        }
        (best.0 > 0).then_some(best)
    }
}

/// Hash-chain compression with lazy matching (the "high" profile).
pub fn compress_high(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    compress_high_into(&mut ChainFinder::default(), input, &mut out);
    out
}

/// [`compress_high`], appending to `out` with a reused `finder`.
pub(crate) fn compress_high_into(finder: &mut ChainFinder, input: &[u8], out: &mut Vec<u8>) {
    out.reserve(input.len() / 2 + 16);
    put_uvarint(out, input.len() as u64);
    if input.len() < MIN_MATCH {
        emit_final(out, input);
        return;
    }
    finder.reset(input.len());
    let mut i = 0;
    let mut anchor = 0;
    let limit = input.len() - MIN_MATCH;
    while i <= limit {
        finder.insert_until(input, i + 1);
        let Some((offset, len)) = finder.find(input, i, MIN_MATCH - 1) else {
            i += 1;
            continue;
        };
        // Lazy evaluation: if the match starting at i+1 is longer by two or
        // more, emit input[i] as a literal and take the later match
        // instead. Only such a match matters, so the search asks for no
        // less.
        let (mut offset, mut len) = (offset, len);
        if i < limit {
            finder.insert_until(input, i + 2);
            if let Some((o2, l2)) = finder.find(input, i + 1, len + 1) {
                i += 1;
                offset = o2;
                len = l2;
            }
        }
        emit_sequence(out, &input[anchor..i], offset, len);
        // Index the positions covered by the match so later data can
        // reference into it.
        finder.insert_until(input, (i + len).min(limit + 1));
        i += len;
        anchor = i;
    }
    emit_final(out, &input[anchor..]);
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

    /// The high profile as it was before its finder was reused: fresh
    /// `u32` head and chain tables per call, every link followed to its
    /// position, bytes compared one at a time. Kept as the byte-level
    /// oracle of [`compress_high`].
    fn reference_compress_high(input: &[u8]) -> Vec<u8> {
        const NONE: u32 = u32::MAX;
        fn common_len_bytewise(input: &[u8], mut a: usize, mut b: usize) -> usize {
            let start = b;
            while b < input.len() && input[a] == input[b] {
                a += 1;
                b += 1;
            }
            b - start
        }
        struct Finder {
            head: Vec<u32>,
            prev: Vec<u32>,
        }
        impl Finder {
            fn insert(&mut self, input: &[u8], pos: usize) {
                let h = hash(read4(input, pos), HIGH_HASH_BITS);
                self.prev[pos] = self.head[h];
                self.head[h] = pos as u32;
            }
            fn find(&self, input: &[u8], pos: usize) -> Option<(usize, usize)> {
                let h = hash(read4(input, pos), HIGH_HASH_BITS);
                let mut cand = self.head[h];
                let mut best: Option<(usize, usize)> = None;
                let mut depth = 0;
                while cand != NONE && depth < HIGH_CHAIN_DEPTH {
                    let c = cand as usize;
                    if c >= pos {
                        cand = self.prev[c];
                        continue;
                    }
                    if pos - c > MAX_OFFSET {
                        break;
                    }
                    let best_len = best.map_or(MIN_MATCH - 1, |(_, l)| l);
                    if pos + best_len < input.len()
                        && c + best_len < input.len()
                        && input[c + best_len] == input[pos + best_len]
                        && read4(input, c) == read4(input, pos)
                    {
                        let len =
                            MIN_MATCH + common_len_bytewise(input, c + MIN_MATCH, pos + MIN_MATCH);
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
        let mut out = Vec::new();
        put_uvarint(&mut out, input.len() as u64);
        if input.len() < MIN_MATCH {
            emit_final(&mut out, input);
            return out;
        }
        let mut finder =
            Finder { head: vec![NONE; 1 << HIGH_HASH_BITS], prev: vec![NONE; input.len()] };
        let mut i = 0;
        let mut anchor = 0;
        let limit = input.len() - MIN_MATCH;
        while i <= limit {
            finder.insert(input, i);
            let Some((offset, len)) = finder.find(input, i) else {
                i += 1;
                continue;
            };
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
            let match_end = (i + len).min(limit + 1);
            let mut p = i + 1;
            while p < match_end {
                if finder.prev[p] == NONE {
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

    /// Asserts that a fresh and a reused finder both emit the oracle's
    /// bytes for `data`.
    fn assert_high_is_reference(finder: &mut ChainFinder, data: &[u8]) {
        let expected = reference_compress_high(data);
        assert_eq!(compress_high(data), expected, "fresh finder, {} bytes", data.len());
        let mut out = vec![0xAB];
        compress_high_into(finder, data, &mut out);
        assert_eq!(out[0], 0xAB, "appends");
        assert_eq!(out[1..], expected[..], "reused finder, {} bytes", data.len());
    }

    /// `count` distinct 4-byte words that share one bucket of the high
    /// profile's hash: every chain link between them is a collision.
    fn colliding_words(count: usize) -> Vec<[u8; 4]> {
        let target = hash(0x6f6c_6c65, HIGH_HASH_BITS);
        (0u32..)
            .map(|k| 0x6f6c_6c65u32.wrapping_add(k.wrapping_mul(0x9e37)))
            .filter(|v| hash(*v, HIGH_HASH_BITS) == target)
            .take(count)
            .map(u32::to_le_bytes)
            .collect()
    }

    #[test]
    fn high_is_the_reference_on_runs_past_the_window() {
        let mut finder = ChainFinder::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1712);
        // One byte repeated past 64 KiB, a period-3 run past it, a
        // pattern whose second copy is out of reach, and random bytes
        // around a long run.
        let mut inputs = vec![vec![0u8; 70_000], b"abc".repeat(30_000)];
        let mut far = b"MAGIC-far".to_vec();
        far.extend((0..70_000u32).map(|i| (i % 251) as u8 ^ (i / 251) as u8));
        far.extend_from_slice(b"MAGIC-far");
        inputs.push(far);
        let mut noisy: Vec<u8> = (0..5_000).map(|_| rng.gen()).collect();
        noisy.extend(std::iter::repeat_n(9u8, 80_000));
        noisy.extend((0..5_000).map(|_| rng.gen::<u8>()));
        inputs.push(noisy);
        for data in &inputs {
            assert_high_is_reference(&mut finder, data);
        }
    }

    #[test]
    fn high_is_the_reference_at_the_depth_and_window_edges() {
        let mut finder = ChainFinder::default();
        // The last `ABCD` has 65 earlier ones: the longest match is the
        // 65th back (out of the walk's reach), the next longest the 64th
        // (the last one it visits), and the 63 nearest share five bytes.
        let mut deep = b"ABCD0123456789xyzLONGER!".to_vec();
        deep.extend_from_slice(b"ABCD0123456789xyz-");
        for k in 0..63u8 {
            deep.extend_from_slice(&[b'A', b'B', b'C', b'D', b'Q', b'a' + k % 26, b'0' + k / 26]);
        }
        deep.extend_from_slice(b"ABCD0123456789xyzLONGER!");
        assert_high_is_reference(&mut finder, &deep);
        // A pattern whose only earlier copy is exactly `MAX_OFFSET` back,
        // and one whose copy is a byte further. No 4-gram of the filler
        // shares the pattern's hash, so the copy is the first link of its
        // chain.
        let filler = b"abcdefg";
        let bucket = |w: &[u8]| hash(read4(w, 0), HIGH_HASH_BITS);
        let doubled = filler.repeat(2);
        assert!(doubled.windows(4).all(|w| bucket(w) != bucket(b"WXYZ")));
        for gap in [MAX_OFFSET, MAX_OFFSET + 1] {
            let mut far = b"WXYZ".to_vec();
            far.extend(filler.iter().cycle().take(gap - 4));
            far.extend_from_slice(b"WXYZ!");
            assert_high_is_reference(&mut finder, &far);
            // The last match, offset 0xffff, then the literal `!`.
            let reached = compress_high(&far).ends_with(&[0xff, 0xff, 0x10, b'!']);
            assert_eq!(reached, gap == MAX_OFFSET, "gap {gap}");
        }
    }

    #[test]
    fn high_is_the_reference_on_hash_collisions() {
        let words = colliding_words(80);
        let mut finder = ChainFinder::default();
        // Chains longer than the walk's depth, all collisions: each word
        // once, then every word again in a shifted order, byte-shifted.
        let mut data: Vec<u8> = words.iter().flatten().copied().collect();
        for shift in 1..5 {
            data.extend(words.iter().cycle().skip(shift * 7).take(words.len()).flatten());
            data.push(shift as u8);
        }
        assert_high_is_reference(&mut finder, &data);
        // Colliding words with equal next bytes: the cheap reject passes
        // and the full compare must decide.
        let mut tied = Vec::new();
        for (k, w) in words.iter().enumerate() {
            tied.extend_from_slice(w);
            tied.extend_from_slice(b"same-tail");
            tied.push(k as u8 % 3);
        }
        assert_high_is_reference(&mut finder, &tied);
    }

    #[test]
    fn high_is_the_reference_at_every_short_length() {
        // Lengths around the 4-byte minimum match and the 8-byte compare.
        let mut finder = ChainFinder::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1711);
        for len in 0..=40 {
            for alphabet in [1u8, 2, 3, 255] {
                for _ in 0..8 {
                    let data: Vec<u8> = (0..len).map(|_| rng.gen_range(0..alphabet)).collect();
                    assert_high_is_reference(&mut finder, &data);
                }
            }
        }
    }

    #[test]
    fn a_reused_finder_forgets_the_previous_input() {
        // Long, short, long: the short input's positions sit where the
        // long one's did, and the second long input must see neither.
        let mut rng = rand::rngs::StdRng::seed_from_u64(1713);
        let long_a: Vec<u8> = (0..50_000).map(|_| rng.gen_range(b'a'..b'e')).collect();
        let short = long_a[1_000..1_400].to_vec();
        let long_b: Vec<u8> = long_a.iter().rev().map(|b| b ^ 1).collect();
        let mut finder = ChainFinder::default();
        for data in [&long_a, &short, &long_b, &long_a] {
            assert_high_is_reference(&mut finder, data);
        }
    }

    #[test]
    fn a_reused_finder_starts_over_when_its_positions_run_out() {
        let mut finder = ChainFinder::default();
        let data = b"GET /api/v1/users 200 GET /api/v1/users 404".repeat(40);
        assert_high_is_reference(&mut finder, &data);
        // The next input would overflow the u32 position space: the table
        // is cleared, and nothing of the previous inputs is matched.
        finder.next_base = u32::MAX - 100;
        assert_high_is_reference(&mut finder, &data);
        assert_eq!(finder.base, 1);
        assert_high_is_reference(&mut finder, &data[..500]);
        assert_eq!(finder.base, 1 + data.len() as u32);
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

        /// A finder reused across a sequence of inputs emits, for each,
        /// the bytes of a fresh reference finder: short alphabets, runs of
        /// every period from 1 to 16, words that collide in the hash.
        #[test]
        fn prop_high_is_the_reference(
            inputs in proptest::collection::vec(
                proptest::collection::vec(
                    (proptest::collection::vec(0u8..4, 1..17), 1usize..40, 0usize..3),
                    0..30,
                ),
                1..4,
            )
        ) {
            let words = colliding_words(16);
            let mut finder = ChainFinder::default();
            for segments in &inputs {
                let mut data = Vec::new();
                for (unit, times, kind) in segments {
                    match kind {
                        0 => data.extend(unit.iter().cycle().take(unit.len() * times)),
                        1 => data.extend(unit.iter().map(|b| b'a' + b)),
                        _ => data.extend(unit.iter().flat_map(|b| words[*b as usize * 4 % 16])),
                    }
                }
                let expected = reference_compress_high(&data);
                let mut out = Vec::new();
                compress_high_into(&mut finder, &data, &mut out);
                prop_assert_eq!(&out, &expected);
                prop_assert_eq!(compress_high(&data), expected);
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

    proptest! {
        // Each case compresses ≈ 64 KiB twice in a debug build.
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Inputs past 64 KiB whose pattern repeats at distances around
        /// the last one a `u16` link holds (65 535) and the first it does
        /// not, over a filler drawn from a short alphabet, ending in a
        /// tail of 4, 5 or 8 bytes copied from earlier.
        #[test]
        fn prop_high_is_the_reference_at_the_window_edge(
            pattern in proptest::collection::vec(any::<u8>(), 4..12),
            gap in (MAX_OFFSET - 2)..(MAX_OFFSET + 3),
            alphabet in 1u8..4,
            seed in any::<u64>(),
            tail in prop_oneof![Just(4usize), Just(5), Just(8)],
            tail_from in 0usize..60_000,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut data = pattern.clone();
            let filler = gap.saturating_sub(pattern.len());
            data.extend((0..filler).map(|_| b'0' + rng.gen_range(0..alphabet)));
            data.extend_from_slice(&pattern);
            data.extend_from_slice(&pattern);
            let copy = data[tail_from..tail_from + tail].to_vec();
            data.extend_from_slice(&copy);
            let mut finder = ChainFinder::default();
            let mut out = Vec::new();
            compress_high_into(&mut finder, &data, &mut out);
            prop_assert_eq!(out, reference_compress_high(&data));
        }
    }
}
