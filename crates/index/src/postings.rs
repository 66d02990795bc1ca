//! Posting lists: the ascending row ids of one term in one LogBlock, each
//! stored in the smaller of two containers (Roaring's array-or-bitmap
//! choice, made once per list since a LogBlock is one container's span).
//!
//! Layout: `varint(count << 1 | container)`, then
//!
//! * container 0, **delta-varints**: `varint(delta)` per id, where the
//!   first delta is the id itself and each later one `id[i] - id[i-1]`
//!   (always >= 1). A list costs at least one byte per id.
//! * container 1, **bitset**: exactly `ceil(rows / 8)` bytes, bit `i % 8`
//!   of byte `i / 8` set for row `i` — the little-endian bytes of
//!   [`RowIdSet`]'s words, so decoding one is a copy. A list costs one
//!   bit per row of the block, whatever its length.
//!
//! The writer picks the bitset when it is strictly smaller: a term on more
//! than about one row in eight.

use crate::rowset::RowIdSet;
use logstore_codec::varint::{put_uvarint, read_uvarint};
use logstore_types::{Error, Result};

/// Encodes a strictly-ascending row-id list of a block of `rows` rows.
pub fn encode(ids: &[u32], rows: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(ids.len().min(rows.div_ceil(8) as usize) + 4);
    encode_into(&mut out, ids, rows);
    out
}

/// [`encode`], appending to `out`.
pub fn encode_into(out: &mut Vec<u8>, ids: &[u32], rows: u32) {
    debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "posting ids must be strictly ascending");
    debug_assert!(ids.last().is_none_or(|&id| id < rows), "posting id past the block's rows");
    let count = ids.len() as u64;
    let bitset = rows.div_ceil(8) as usize;
    let start = out.len();
    // Every id takes a delta byte: more ids than bitset bytes need not try.
    if ids.len() <= bitset {
        put_uvarint(out, count << 1);
        let body = out.len();
        let mut prev = 0u32;
        for (i, &id) in ids.iter().enumerate() {
            let delta = if i == 0 { id } else { id - prev };
            put_uvarint(out, u64::from(delta));
            prev = id;
        }
        if out.len() - body <= bitset {
            return;
        }
        out.truncate(start);
    }
    put_uvarint(out, count << 1 | 1);
    let body = out.len();
    out.resize(body + bitset, 0);
    for &id in ids {
        out[body + (id / 8) as usize] |= 1 << (id % 8);
    }
}

/// Decodes a posting list produced by [`encode`] for a block of `rows`
/// rows. Every id must lie below `rows` (corruption guard).
pub fn decode(buf: &[u8], rows: u32) -> Result<RowIdSet> {
    let mut pos = 0;
    let head = read_uvarint(buf, &mut pos)?;
    let (n, body) = (head >> 1, &buf[pos..]);
    if head & 1 == 1 {
        let set = RowIdSet::from_le_bytes(rows, body).ok_or_else(|| {
            Error::corruption("bitset posting list is not one bit per row of the block")
        })?;
        if u64::from(set.count()) != n {
            return Err(Error::corruption("bitset posting list count mismatch"));
        }
        return Ok(set);
    }
    // Every id takes a byte: a count past them sizes nothing.
    if n > u64::from(rows) || n > body.len() as u64 {
        return Err(Error::corruption("posting list longer than row universe"));
    }
    let mut out = RowIdSet::empty(rows);
    let mut prev: u64 = 0;
    for i in 0..n {
        let delta = read_uvarint(buf, &mut pos)?;
        let id = if i == 0 { Some(delta) } else { prev.checked_add(delta) };
        let id = id.ok_or_else(|| Error::corruption("posting id overflows"))?;
        if id >= u64::from(rows) {
            return Err(Error::corruption("posting id out of range"));
        }
        if i > 0 && delta == 0 {
            return Err(Error::corruption("posting list not strictly ascending"));
        }
        out.insert(id as u32);
        prev = id;
    }
    if pos != buf.len() {
        return Err(Error::corruption("trailing bytes after posting list"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ids(set: &RowIdSet) -> Vec<u32> {
        set.to_vec()
    }

    fn is_bitset(enc: &[u8]) -> bool {
        let mut pos = 0;
        read_uvarint(enc, &mut pos).unwrap() & 1 == 1
    }

    #[test]
    fn forged_counts_and_overflowing_ids_are_corruption() {
        let mut forged = Vec::new();
        put_uvarint(&mut forged, 1000 << 1);
        put_uvarint(&mut forged, 1);
        assert!(matches!(decode(&forged, 1 << 20), Err(Error::Corruption(_))));
        let mut overflow = Vec::new();
        put_uvarint(&mut overflow, 2 << 1);
        [5, u64::MAX].iter().for_each(|&v| put_uvarint(&mut overflow, v));
        assert!(matches!(decode(&overflow, u32::MAX), Err(Error::Corruption(_))));
    }

    #[test]
    fn roundtrip_basic() {
        for ids_in in [vec![], vec![0], vec![0, 1, 2], vec![5, 100, 10_000]] {
            let enc = encode(&ids_in, 1 << 20);
            assert!(!is_bitset(&enc));
            assert_eq!(ids(&decode(&enc, 1 << 20).unwrap()), ids_in);
        }
    }

    #[test]
    fn dense_lists_take_one_bit_per_row() {
        let all: Vec<u32> = (0..10_000).collect();
        let enc = encode(&all, 10_000);
        assert!(is_bitset(&enc));
        assert!(enc.len() <= 10_000 / 8 + 4, "{}", enc.len());
        assert_eq!(ids(&decode(&enc, 10_000).unwrap()), all);
        // One row in four: still a bitset; one in sixteen: deltas.
        let quarter: Vec<u32> = (0..10_000).step_by(4).collect();
        assert!(is_bitset(&encode(&quarter, 10_000)));
        let sparse: Vec<u32> = (0..10_000).step_by(16).collect();
        assert!(!is_bitset(&encode(&sparse, 10_000)));
    }

    #[test]
    fn a_bitset_is_exactly_one_bit_per_row() {
        let enc = encode(&(0..70).collect::<Vec<u32>>(), 70);
        assert!(is_bitset(&enc));
        assert_eq!(enc.len(), 2 + 9, "a two-byte head and ceil(70 / 8) bytes");
        // One byte short, one byte over, or read as a block of other rows.
        assert!(matches!(decode(&enc[..enc.len() - 1], 70), Err(Error::Corruption(_))));
        let mut long = enc.clone();
        long.push(0);
        assert!(matches!(decode(&long, 70), Err(Error::Corruption(_))));
        assert!(matches!(decode(&enc, 80), Err(Error::Corruption(_))));
        // A bit past the rows, or a count the bits do not hold.
        let mut past = enc.clone();
        *past.last_mut().unwrap() |= 0x80;
        assert!(matches!(decode(&past, 70), Err(Error::Corruption(_))));
        let mut miscounted = enc.clone();
        miscounted[2] &= !1;
        assert!(matches!(decode(&miscounted, 70), Err(Error::Corruption(_))));
        assert_eq!(decode(&enc, 70).unwrap(), RowIdSet::full(70));
    }

    #[test]
    fn out_of_range_id_rejected() {
        let enc = encode(&[5, 50], 1000);
        assert!(decode(&enc, 50).is_err()); // id 50 not < 50
        assert!(decode(&enc, 51).is_ok());
    }

    #[test]
    fn duplicate_rejected() {
        // Craft: count 2, first id 7, delta 0.
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 2 << 1);
        put_uvarint(&mut buf, 7);
        put_uvarint(&mut buf, 0);
        assert!(decode(&buf, 100).is_err());
    }

    proptest! {
        /// Lists from empty to every row, over blocks of a few rows to a
        /// few thousand: each decodes to its ids in whichever container
        /// the writer picked, and that container is the smaller one.
        #[test]
        fn prop_both_containers_roundtrip(
            rows in 1u32..3000,
            density in 0u32..=64,
            seed in any::<u64>(),
        ) {
            let mut x = seed | 1;
            let ids_in: Vec<u32> = (0..rows)
                .filter(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % 64) < u64::from(density)
                })
                .collect();
            let enc = encode(&ids_in, rows);
            prop_assert_eq!(ids(&decode(&enc, rows).unwrap()), ids_in.clone());
            let mut deltas = Vec::new();
            let mut prev = 0;
            for (i, &id) in ids_in.iter().enumerate() {
                put_uvarint(&mut deltas, u64::from(if i == 0 { id } else { id - prev }));
                prev = id;
            }
            let bitset = rows.div_ceil(8) as usize;
            prop_assert_eq!(is_bitset(&enc), bitset < deltas.len());
            let mut head = 0;
            read_uvarint(&enc, &mut head).unwrap();
            prop_assert_eq!(enc.len() - head, bitset.min(deltas.len()));
        }
    }
}
