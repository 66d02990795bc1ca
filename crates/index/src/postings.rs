//! Posting lists: sorted row-id sequences with delta-varint encoding.

use logstore_codec::varint::{put_uvarint, read_uvarint};
use logstore_types::{Error, Result};

/// Encodes a strictly-ascending row-id list.
///
/// Layout: `varint(count)` then `varint(delta)` per id, where the first
/// delta is the id itself and subsequent deltas are `id[i] - id[i-1]`
/// (always >= 1 for strictly ascending input).
pub fn encode(ids: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ids.len() + 4);
    encode_into(&mut out, ids);
    out
}

/// [`encode`], appending to `out`.
pub fn encode_into(out: &mut Vec<u8>, ids: &[u32]) {
    debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "posting ids must be strictly ascending");
    put_uvarint(out, ids.len() as u64);
    let mut prev = 0u32;
    for (i, &id) in ids.iter().enumerate() {
        let delta = if i == 0 { id } else { id - prev };
        put_uvarint(out, u64::from(delta));
        prev = id;
    }
}

/// Decodes a posting list produced by [`encode`].
///
/// `max_row` bounds ids (corruption guard).
pub fn decode(buf: &[u8], max_row: u32) -> Result<Vec<u32>> {
    let mut pos = 0;
    let n = read_uvarint(buf, &mut pos)? as usize;
    // Every id takes a byte: a count past them sizes nothing.
    if n > max_row as usize || n > buf.len() - pos {
        return Err(Error::corruption("posting list longer than row universe"));
    }
    let mut out = Vec::with_capacity(n);
    let mut prev: u64 = 0;
    for i in 0..n {
        let delta = read_uvarint(buf, &mut pos)?;
        let id = if i == 0 { Some(delta) } else { prev.checked_add(delta) };
        let id = id.ok_or_else(|| Error::corruption("posting id overflows"))?;
        if id >= u64::from(max_row) {
            return Err(Error::corruption("posting id out of range"));
        }
        if i > 0 && delta == 0 {
            return Err(Error::corruption("posting list not strictly ascending"));
        }
        out.push(id as u32);
        prev = id;
    }
    if pos != buf.len() {
        return Err(Error::corruption("trailing bytes after posting list"));
    }
    Ok(out)
}

/// Intersects two sorted id lists (galloping for size-skewed inputs).
pub fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    // Gallop when the size ratio is big enough to win.
    if large.len() / (small.len().max(1)) >= 16 {
        let mut out = Vec::with_capacity(small.len());
        let mut lo = 0;
        for &x in small {
            match large[lo..].binary_search(&x) {
                Ok(i) => {
                    out.push(x);
                    lo += i + 1;
                }
                Err(i) => lo += i,
            }
            if lo >= large.len() {
                break;
            }
        }
        return out;
    }
    let mut out = Vec::with_capacity(small.len());
    let (mut i, mut j) = (0, 0);
    while i < small.len() && j < large.len() {
        match small[i].cmp(&large[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(small[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Unions two sorted id lists.
pub fn union(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn forged_counts_and_overflowing_ids_are_corruption() {
        let mut forged = Vec::new();
        put_uvarint(&mut forged, 1000);
        put_uvarint(&mut forged, 1);
        assert!(matches!(decode(&forged, 1 << 20), Err(Error::Corruption(_))));
        let mut overflow = Vec::new();
        [2, 5, u64::MAX].iter().for_each(|&v| put_uvarint(&mut overflow, v));
        assert!(matches!(decode(&overflow, u32::MAX), Err(Error::Corruption(_))));
    }

    #[test]
    fn roundtrip_basic() {
        for ids in [vec![], vec![0], vec![0, 1, 2], vec![5, 100, 10_000]] {
            let enc = encode(&ids);
            assert_eq!(decode(&enc, 1 << 20).unwrap(), ids);
        }
    }

    #[test]
    fn dense_lists_encode_one_byte_per_id() {
        let ids: Vec<u32> = (0..10_000).collect();
        let enc = encode(&ids);
        assert!(enc.len() <= ids.len() + 4);
    }

    #[test]
    fn out_of_range_id_rejected() {
        let enc = encode(&[5, 50]);
        assert!(decode(&enc, 50).is_err()); // id 50 not < 50
        assert!(decode(&enc, 51).is_ok());
    }

    #[test]
    fn duplicate_rejected() {
        // Craft: count 2, first id 7, delta 0.
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 2);
        put_uvarint(&mut buf, 7);
        put_uvarint(&mut buf, 0);
        assert!(decode(&buf, 100).is_err());
    }

    #[test]
    fn intersect_union_basics() {
        assert_eq!(intersect(&[1, 3, 5], &[2, 3, 5, 9]), vec![3, 5]);
        assert_eq!(union(&[1, 3], &[2, 3]), vec![1, 2, 3]);
        assert_eq!(intersect(&[], &[1]), Vec::<u32>::new());
        assert_eq!(union(&[], &[1]), vec![1]);
    }

    #[test]
    fn galloping_path_exercised() {
        let small = vec![500u32, 9_999];
        let large: Vec<u32> = (0..10_000).collect();
        assert_eq!(intersect(&small, &large), small);
        let missing = vec![20_000u32];
        assert_eq!(intersect(&missing, &large), Vec::<u32>::new());
    }

    proptest! {
        #[test]
        fn prop_roundtrip(ids in proptest::collection::btree_set(0u32..100_000, 0..300)) {
            let ids: Vec<u32> = ids.into_iter().collect();
            let enc = encode(&ids);
            prop_assert_eq!(decode(&enc, 100_000).unwrap(), ids);
        }

        #[test]
        fn prop_set_ops_match_btreeset(
            a in proptest::collection::btree_set(0u32..1000, 0..100),
            b in proptest::collection::btree_set(0u32..1000, 0..100),
        ) {
            let av: Vec<u32> = a.iter().copied().collect();
            let bv: Vec<u32> = b.iter().copied().collect();
            let inter: Vec<u32> = a.intersection(&b).copied().collect();
            let uni: Vec<u32> = a.union(&b).copied().collect();
            prop_assert_eq!(intersect(&av, &bv), inter);
            prop_assert_eq!(union(&av, &bv), uni);
        }
    }
}
