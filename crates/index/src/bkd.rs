//! One-dimensional block KD-tree (BKD) point index for numeric columns.
//!
//! The paper uses Lucene's BKD tree for numeric columns. LogStore only
//! indexes scalar values, so the 1-D specialization applies: points
//! `(value, row_id)` are globally sorted by value and packed into fixed-size
//! leaves; a fence array of per-leaf minimum values routes range queries to
//! the leaves that can contain matches. This is exactly the shape a 1-D BKD
//! collapses to, with the same `O(log n + k)` query cost.
//!
//! Layout — two pack members, so a range query on object storage fetches
//! the small fence array plus only the leaves that intersect the range:
//!
//! ```text
//! fences: varint n_points, varint leaf_size, varint n_leaves
//!         n_leaves * (ivarint fence_delta, varint leaf_offset_delta, varint leaf_len)
//! leaves: per leaf, varint count, ivarint value deltas, varint row ids
//! ```

use crate::rowset::RowIdSet;
use logstore_codec::varint::{put_ivarint, put_uvarint, read_ivarint, read_uvarint};
use logstore_types::{Error, Result};

/// Default number of points per leaf.
pub const DEFAULT_LEAF_SIZE: usize = 512;

/// Order-preserving map from `u64` to `i64`, letting unsigned columns share
/// the signed tree. `u64_to_ord(a) < u64_to_ord(b)` iff `a < b`.
#[inline]
pub fn u64_to_ord(v: u64) -> i64 {
    (v ^ (1 << 63)) as i64
}

/// Inverse of [`u64_to_ord`].
#[inline]
pub fn ord_to_u64(v: i64) -> u64 {
    (v as u64) ^ (1 << 63)
}

/// Accumulates points while a LogBlock column is being built.
#[derive(Debug)]
pub struct BkdWriter {
    points: Vec<(i64, u32)>,
    leaf_size: usize,
    /// No point so far has a smaller value than the one added before it.
    sorted: bool,
}

impl Default for BkdWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl BkdWriter {
    /// Creates a writer with the default leaf size.
    pub fn new() -> Self {
        Self::with_leaf_size(DEFAULT_LEAF_SIZE)
    }

    /// Creates a writer with a custom leaf size (must be > 0).
    pub fn with_leaf_size(leaf_size: usize) -> Self {
        assert!(leaf_size > 0, "leaf size must be positive");
        BkdWriter { points: Vec::new(), leaf_size, sorted: true }
    }

    /// Adds one point.
    pub fn add(&mut self, value: i64, row_id: u32) {
        self.sorted &= self.points.last().is_none_or(|&(last, _)| last <= value);
        self.points.push((value, row_id));
    }

    /// True when the points arrived in non-decreasing value order — for a
    /// writer fed in row order, a column sorted in its block, which a
    /// constant column is too.
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Number of points added.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no points were added.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Sorts and packs the tree, returning `(header+fences, leaf blob)`.
    /// Storing the two as separate pack members lets a range query on
    /// object storage fetch the small fence array plus only the leaves that
    /// intersect the range.
    pub fn finish_split(mut self) -> (Vec<u8>, Vec<u8>) {
        self.points.sort_unstable();
        let n_leaves = self.points.len().div_ceil(self.leaf_size);

        // Build leaf blobs first so fence entries can carry offsets.
        let mut blobs = Vec::new();
        let mut fences = Vec::with_capacity(n_leaves); // (min_value, offset, len)
        for leaf in self.points.chunks(self.leaf_size) {
            let start = blobs.len();
            put_uvarint(&mut blobs, leaf.len() as u64);
            let mut prev = 0i64;
            for &(v, _) in leaf {
                put_ivarint(&mut blobs, v.wrapping_sub(prev));
                prev = v;
            }
            for &(_, id) in leaf {
                put_uvarint(&mut blobs, u64::from(id));
            }
            fences.push((leaf[0].0, start, blobs.len() - start));
        }

        let mut out = Vec::new();
        put_uvarint(&mut out, self.points.len() as u64);
        put_uvarint(&mut out, self.leaf_size as u64);
        put_uvarint(&mut out, n_leaves as u64);
        let mut prev_fence = 0i64;
        let mut prev_offset = 0usize;
        for (min, offset, len) in &fences {
            put_ivarint(&mut out, min.wrapping_sub(prev_fence));
            put_uvarint(&mut out, (offset - prev_offset) as u64);
            put_uvarint(&mut out, *len as u64);
            prev_fence = *min;
            prev_offset = *offset;
        }
        (out, blobs)
    }
}

/// The parsed fence array: routes range queries to leaf byte ranges.
#[derive(Debug)]
pub struct BkdDictReader {
    n_points: usize,
    fences: Vec<(i64, usize, usize)>,
}

impl BkdDictReader {
    /// Parses a header produced by [`BkdWriter::finish_split`].
    pub fn open(data: &[u8]) -> Result<Self> {
        let mut pos = 0;
        let n_points = read_uvarint(data, &mut pos)? as usize;
        let _leaf_size = read_uvarint(data, &mut pos)? as usize;
        let n_leaves = read_uvarint(data, &mut pos)? as usize;
        // A fence takes at least three bytes: a count past them sizes
        // nothing.
        if n_leaves > n_points.saturating_add(1) || n_leaves > (data.len() - pos) / 3 {
            return Err(Error::corruption("bkd leaf count implausible"));
        }
        let mut fences = Vec::with_capacity(n_leaves);
        let mut fence = 0i64;
        let mut offset = 0usize;
        for _ in 0..n_leaves {
            fence = fence.wrapping_add(read_ivarint(data, &mut pos)?);
            offset = offset
                .checked_add(read_uvarint(data, &mut pos)? as usize)
                .ok_or_else(|| Error::corruption("bkd leaf offset overflows"))?;
            let len = read_uvarint(data, &mut pos)? as usize;
            fences.push((fence, offset, len));
        }
        if pos != data.len() {
            return Err(Error::corruption("trailing bytes after bkd fences"));
        }
        Ok(BkdDictReader { n_points, fences })
    }

    /// Total indexed points.
    pub fn len(&self) -> usize {
        self.n_points
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.n_points == 0
    }

    /// Byte ranges of the leaves that can contain values in `[lo, hi]`.
    pub fn leaf_ranges(&self, lo: i64, hi: i64) -> Vec<(usize, usize)> {
        if lo > hi || self.fences.is_empty() {
            return Vec::new();
        }
        let first_ge = self.fences.partition_point(|(f, _, _)| *f < lo);
        let start = first_ge.saturating_sub(1);
        self.fences[start..]
            .iter()
            .take_while(|(f, _, _)| *f <= hi)
            .map(|(_, offset, len)| (*offset, *len))
            .collect()
    }

    /// Scans one fetched leaf for values in `[lo, hi]`, adding matching
    /// row ids to `out`; a row id outside `out`'s universe is corruption.
    pub fn scan_leaf_bytes(&self, blob: &[u8], lo: i64, hi: i64, out: &mut RowIdSet) -> Result<()> {
        let mut pos = 0;
        let count = read_uvarint(blob, &mut pos)? as usize;
        // A point takes at least two bytes, its value and its row id.
        if count > self.n_points || count > (blob.len() - pos) / 2 {
            return Err(Error::corruption("bkd leaf count out of range"));
        }
        let mut values = Vec::with_capacity(count);
        let mut prev = 0i64;
        for _ in 0..count {
            prev = prev.wrapping_add(read_ivarint(blob, &mut pos)?);
            values.push(prev);
        }
        for &value in &values {
            let id = read_uvarint(blob, &mut pos)?;
            if id >= u64::from(out.universe()) {
                return Err(Error::corruption("bkd row id out of range"));
            }
            if value >= lo && value <= hi {
                out.insert(id as u32);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{seq::SliceRandom, SeedableRng};

    /// A split tree held in memory, read the way a LogBlock reads it:
    /// fence lookup, then a range of the leaves member per leaf.
    struct Tree {
        dict: BkdDictReader,
        leaves: Vec<u8>,
        max_row: u32,
    }

    impl Tree {
        /// Sorted row ids of points with `lo <= value <= hi`.
        fn query_range(&self, lo: i64, hi: i64) -> Result<Vec<u32>> {
            let mut out = RowIdSet::empty(self.max_row);
            for (offset, len) in self.dict.leaf_ranges(lo, hi) {
                let leaf = &self.leaves[offset..offset + len];
                self.dict.scan_leaf_bytes(leaf, lo, hi, &mut out)?;
            }
            Ok(out.to_vec())
        }
    }

    fn build(points: &[(i64, u32)], leaf: usize) -> Tree {
        let mut w = BkdWriter::with_leaf_size(leaf);
        for &(v, id) in points {
            w.add(v, id);
        }
        let max_row = points.iter().map(|p| p.1).max().map_or(0, |m| m + 1);
        let (dict, leaves) = w.finish_split();
        Tree { dict: BkdDictReader::open(&dict).unwrap(), leaves, max_row }
    }

    #[test]
    fn empty_tree() {
        let r = build(&[], 4);
        assert!(r.dict.is_empty() && r.leaves.is_empty());
        assert_eq!(r.query_range(i64::MIN, i64::MAX).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn point_and_range_queries() {
        let points: Vec<(i64, u32)> = (0..100).map(|i| (i * 10, i as u32)).collect();
        let r = build(&points, 8);
        assert_eq!(r.query_range(500, 500).unwrap(), vec![50]);
        assert_eq!(r.query_range(505, 506).unwrap(), Vec::<u32>::new());
        assert_eq!(r.query_range(0, 30).unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(r.query_range(980, 2000).unwrap(), vec![98, 99]);
        assert_eq!(r.query_range(i64::MIN, i64::MAX).unwrap().len(), 100);
    }

    #[test]
    fn duplicate_values_across_leaves() {
        // 100 points all with the same value, tiny leaves.
        let points: Vec<(i64, u32)> = (0..100).map(|i| (7, i as u32)).collect();
        let r = build(&points, 4);
        assert_eq!(r.query_range(7, 7).unwrap().len(), 100);
        assert_eq!(r.query_range(6, 6).unwrap(), Vec::<u32>::new());
        assert_eq!(r.query_range(8, 100).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn unsorted_insertion_order() {
        let mut points: Vec<(i64, u32)> = (0..1000).map(|i| (i as i64, i as u32)).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        points.shuffle(&mut rng);
        let r = build(&points, 64);
        assert_eq!(r.query_range(100, 199).unwrap(), (100..200).collect::<Vec<u32>>());
    }

    #[test]
    fn negative_values_and_extremes() {
        let points = vec![(i64::MIN, 0u32), (-5, 1), (0, 2), (5, 3), (i64::MAX, 4)];
        let r = build(&points, 2);
        assert_eq!(r.query_range(i64::MIN, -1).unwrap(), vec![0, 1]);
        assert_eq!(r.query_range(0, i64::MAX).unwrap(), vec![2, 3, 4]);
    }

    #[test]
    fn forged_counts_are_corruption_and_size_nothing() {
        // A fence array claiming 2^40 points in 2^39 leaves, in ten bytes.
        let mut dict = Vec::new();
        [1u64 << 40, 8, 1 << 39].iter().for_each(|&v| put_uvarint(&mut dict, v));
        assert!(matches!(BkdDictReader::open(&dict), Err(Error::Corruption(_))));
        // Fences whose offsets overflow.
        let mut dict = Vec::new();
        [4u64, 2, 2].iter().for_each(|&v| put_uvarint(&mut dict, v));
        for _ in 0..2 {
            put_ivarint(&mut dict, 0);
            put_uvarint(&mut dict, u64::MAX);
            put_uvarint(&mut dict, 1);
        }
        assert!(matches!(BkdDictReader::open(&dict), Err(Error::Corruption(_))));
        // A leaf claiming more points than its bytes hold.
        let reader = BkdDictReader { n_points: usize::MAX, fences: Vec::new() };
        let mut leaf = Vec::new();
        put_uvarint(&mut leaf, 1 << 40);
        let scanned = reader.scan_leaf_bytes(&leaf, 0, 1, &mut RowIdSet::empty(10));
        assert!(matches!(scanned, Err(Error::Corruption(_))));
    }

    #[test]
    fn sortedness_is_non_decreasing_arrival() {
        let writer = |values: &[i64]| {
            let mut w = BkdWriter::new();
            values.iter().enumerate().for_each(|(row, &v)| w.add(v, row as u32));
            w.is_sorted()
        };
        assert!(writer(&[]) && writer(&[3]) && writer(&[7, 7, 7]) && writer(&[-1, 0, 0, 9]));
        assert!(!writer(&[1, 2, 1]) && !writer(&[5, 4]));
    }

    #[test]
    fn inverted_range_is_empty() {
        let r = build(&[(1, 0), (2, 1)], 2);
        assert_eq!(r.query_range(5, 1).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn u64_ord_mapping_preserves_order() {
        let mut vals = vec![0u64, 1, 42, u64::MAX / 2, u64::MAX - 1, u64::MAX];
        let mapped: Vec<i64> = vals.iter().map(|&v| u64_to_ord(v)).collect();
        assert!(mapped.windows(2).all(|w| w[0] < w[1]));
        for &v in &vals {
            assert_eq!(ord_to_u64(u64_to_ord(v)), v);
        }
        vals.reverse();
    }

    #[test]
    fn truncated_rejected() {
        let mut w = BkdWriter::new();
        for i in 0..100 {
            w.add(i, i as u32);
        }
        let (dict, leaves) = w.finish_split();
        assert!(BkdDictReader::open(&dict[..dict.len() / 2]).is_err());
        // The fence array is a whole pack member: nothing may follow it.
        let mut padded = dict.clone();
        padded.push(0);
        assert!(BkdDictReader::open(&padded).is_err());
        // A leaf cut short, or naming a row the block lacks.
        let dict = BkdDictReader::open(&dict).unwrap();
        let half = &leaves[..leaves.len() / 2];
        assert!(dict.scan_leaf_bytes(half, 0, 99, &mut RowIdSet::empty(100)).is_err());
        assert!(dict.scan_leaf_bytes(&leaves, 0, 99, &mut RowIdSet::empty(50)).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_matches_naive_filter(
            values in proptest::collection::vec(-1000i64..1000, 0..300),
            lo in -1100i64..1100,
            span in 0i64..500,
        ) {
            let hi = lo + span;
            let points: Vec<(i64, u32)> =
                values.iter().enumerate().map(|(i, &v)| (v, i as u32)).collect();
            let r = build(&points, 16);
            let mut expect: Vec<u32> = points
                .iter()
                .filter(|(v, _)| *v >= lo && *v <= hi)
                .map(|(_, id)| *id)
                .collect();
            expect.sort_unstable();
            prop_assert_eq!(r.query_range(lo, hi).unwrap(), expect);
        }
    }
}
