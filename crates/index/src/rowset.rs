//! Dense row-id bitmaps.
//!
//! Predicate evaluation inside a LogBlock produces per-predicate row-id
//! sets that are intersected (AND of WHERE conjuncts) and unioned. A dense
//! `u64`-word bitmap is ideal here because LogBlocks are bounded (hundreds
//! of thousands of rows), so even the worst case is a few KiB.

use std::fmt;

/// A fixed-universe set of row ids `[0, len)`.
#[derive(Clone, PartialEq, Eq)]
pub struct RowIdSet {
    len: u32,
    words: Vec<u64>,
}

impl RowIdSet {
    /// Creates an empty set over the universe `[0, len)`.
    pub fn empty(len: u32) -> Self {
        RowIdSet { len, words: vec![0; (len as usize).div_ceil(64)] }
    }

    /// Creates a full set over the universe `[0, len)`.
    pub fn full(len: u32) -> Self {
        let mut s = Self::empty(len);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.trim_tail();
        s
    }

    /// Builds a set from an iterator of row ids (need not be sorted).
    pub fn from_iter(len: u32, ids: impl IntoIterator<Item = u32>) -> Self {
        let mut s = Self::empty(len);
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// The set whose words are the little-endian `bytes`: bit `i % 8` of
    /// byte `i / 8` is row `i`. `None` unless `bytes` is exactly
    /// `ceil(len / 8)` long and sets no bit at or past `len`.
    pub fn from_le_bytes(len: u32, bytes: &[u8]) -> Option<Self> {
        if bytes.len() != len.div_ceil(8) as usize {
            return None;
        }
        let mut s = Self::empty(len);
        for (word, chunk) in s.words.iter_mut().zip(bytes.chunks(8)) {
            let mut le = [0u8; 8];
            le[..chunk.len()].copy_from_slice(chunk);
            *word = u64::from_le_bytes(le);
        }
        let tail = s.words.last().copied();
        s.trim_tail();
        (s.words.last().copied() == tail).then_some(s)
    }

    /// The universe size.
    pub fn universe(&self) -> u32 {
        self.len
    }

    /// Adds a row id. Panics in debug builds if out of range.
    #[inline]
    pub fn insert(&mut self, id: u32) {
        debug_assert!(id < self.len, "row id {id} out of universe {}", self.len);
        self.words[(id / 64) as usize] |= 1u64 << (id % 64);
    }

    /// Removes a row id.
    #[inline]
    pub fn remove(&mut self, id: u32) {
        if id < self.len {
            self.words[(id / 64) as usize] &= !(1u64 << (id % 64));
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        id < self.len && self.words[(id / 64) as usize] & (1u64 << (id % 64)) != 0
    }

    /// Number of set bits.
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// True if no bits are set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place intersection. Panics if universes differ.
    pub fn intersect_with(&mut self, other: &RowIdSet) {
        assert_eq!(self.len, other.len, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place union. Panics if universes differ.
    pub fn union_with(&mut self, other: &RowIdSet) {
        assert_eq!(self.len, other.len, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place complement within the universe.
    pub fn negate(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.trim_tail();
    }

    fn trim_tail(&mut self) {
        let bits = self.len as usize % 64;
        if bits != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << bits) - 1;
            }
        }
    }

    /// Sets every id in `[start, end)` (used when a whole block is accepted
    /// by its SMA without decoding).
    pub fn insert_range(&mut self, start: u32, end: u32) {
        let end = end.min(self.len);
        if start >= end {
            return;
        }
        let (first_word, last_word) = ((start / 64) as usize, ((end - 1) / 64) as usize);
        for w in first_word..=last_word {
            let mut mask = !0u64;
            if w == first_word {
                mask &= !0u64 << (start % 64);
            }
            if w == last_word {
                let tail = (end - 1) % 64;
                mask &= if tail == 63 { !0 } else { (1u64 << (tail + 1)) - 1 };
            }
            self.words[w] |= mask;
        }
    }

    /// True if any id in `[start, end)` is set. Used by the scanner to skip
    /// decoding blocks whose row range is already fully excluded.
    pub fn any_in_range(&self, start: u32, end: u32) -> bool {
        let end = end.min(self.len);
        if start >= end {
            return false;
        }
        let (first_word, last_word) = ((start / 64) as usize, ((end - 1) / 64) as usize);
        for w in first_word..=last_word {
            let mut word = self.words[w];
            if w == first_word {
                word &= !0u64 << (start % 64);
            }
            if w == last_word {
                let tail = (end - 1) % 64;
                word &= if tail == 63 { !0 } else { (1u64 << (tail + 1)) - 1 };
            }
            if word != 0 {
                return true;
            }
        }
        false
    }

    /// Iterates set row ids in ascending order.
    pub fn iter(&self) -> RowIdIter<'_> {
        RowIdIter { set: self, word_idx: 0, current: self.words.first().copied().unwrap_or(0) }
    }

    /// Collects set row ids into a vector (ascending).
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
    }
}

impl fmt::Debug for RowIdSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RowIdSet({}/{})", self.count(), self.len)
    }
}

/// Iterator over set bits.
pub struct RowIdIter<'a> {
    set: &'a RowIdSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for RowIdIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros();
                self.current &= self.current - 1;
                return Some(self.word_idx as u32 * 64 + bit);
            }
            self.word_idx += 1;
            self.current = *self.set.words.get(self.word_idx)?;
        }
    }
}

impl<'a> IntoIterator for &'a RowIdSet {
    type Item = u32;
    type IntoIter = RowIdIter<'a>;
    fn into_iter(self) -> RowIdIter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_contains_remove() {
        let mut s = RowIdSet::empty(100);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(99);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(99));
        assert!(!s.contains(50));
        assert_eq!(s.count(), 4);
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn full_and_negate_respect_universe() {
        let s = RowIdSet::full(70);
        assert_eq!(s.count(), 70);
        let mut n = s.clone();
        n.negate();
        assert!(n.is_empty());
        let mut e = RowIdSet::empty(70);
        e.negate();
        assert_eq!(e, s);
    }

    #[test]
    fn set_algebra() {
        let a = RowIdSet::from_iter(10, [1, 3, 5, 7]);
        let b = RowIdSet::from_iter(10, [3, 4, 5]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.to_vec(), vec![3, 5]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.to_vec(), vec![1, 3, 4, 5, 7]);
    }

    #[test]
    fn iterator_is_sorted_and_complete() {
        let ids = [97u32, 0, 64, 63, 13];
        let s = RowIdSet::from_iter(100, ids);
        assert_eq!(s.to_vec(), vec![0, 13, 63, 64, 97]);
    }

    #[test]
    fn empty_universe() {
        let s = RowIdSet::empty(0);
        assert!(s.is_empty());
        assert_eq!(s.to_vec(), Vec::<u32>::new());
        assert_eq!(RowIdSet::full(0).count(), 0);
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn universe_mismatch_panics() {
        let mut a = RowIdSet::empty(10);
        a.intersect_with(&RowIdSet::empty(20));
    }

    #[test]
    fn le_bytes_are_the_words() {
        let s = RowIdSet::from_le_bytes(70, &[0b101, 0, 0, 0, 0, 0, 0, 0x80, 0b10_0000]).unwrap();
        assert_eq!(s.to_vec(), vec![0, 2, 63, 69]);
        assert!(RowIdSet::from_le_bytes(70, &[0; 8]).is_none(), "a byte short");
        assert!(RowIdSet::from_le_bytes(70, &[0; 10]).is_none(), "a byte over");
        assert!(RowIdSet::from_le_bytes(70, &[0, 0, 0, 0, 0, 0, 0, 0, 0x40]).is_none(), "row 70");
        assert_eq!(RowIdSet::from_le_bytes(0, &[]), Some(RowIdSet::empty(0)));
    }

    #[test]
    fn insert_range_word_boundaries() {
        let mut s = RowIdSet::empty(200);
        s.insert_range(10, 10); // empty
        assert!(s.is_empty());
        s.insert_range(60, 70); // crosses word boundary
        assert_eq!(s.to_vec(), (60..70).collect::<Vec<u32>>());
        s.insert_range(0, 1);
        s.insert_range(199, 300); // clamped to universe
        assert!(s.contains(0) && s.contains(199) && !s.contains(198));
        let mut full = RowIdSet::empty(200);
        full.insert_range(0, 200);
        assert_eq!(full, RowIdSet::full(200));
    }

    #[test]
    fn any_in_range_boundaries() {
        let s = RowIdSet::from_iter(200, [0, 64, 127, 199]);
        assert!(s.any_in_range(0, 1));
        assert!(!s.any_in_range(1, 64));
        assert!(s.any_in_range(64, 65));
        assert!(s.any_in_range(100, 128));
        assert!(!s.any_in_range(128, 199));
        assert!(s.any_in_range(199, 200));
        assert!(!s.any_in_range(200, 300), "clamped to universe");
        assert!(!s.any_in_range(50, 50), "empty range");
        assert!(!s.any_in_range(60, 10), "inverted range");
    }

    proptest! {
        #[test]
        fn prop_any_in_range_matches_naive(
            ids in proptest::collection::btree_set(0u32..300, 0..50),
            start in 0u32..320,
            span in 0u32..100,
        ) {
            let s = RowIdSet::from_iter(300, ids.iter().copied());
            let end = start + span;
            let naive = ids.iter().any(|&i| i >= start && i < end);
            prop_assert_eq!(s.any_in_range(start, end), naive);
        }

        #[test]
        fn prop_matches_btreeset(
            ids in proptest::collection::btree_set(0u32..500, 0..100),
            other in proptest::collection::btree_set(0u32..500, 0..100),
        ) {
            let a = RowIdSet::from_iter(500, ids.iter().copied());
            let b = RowIdSet::from_iter(500, other.iter().copied());
            prop_assert_eq!(a.count() as usize, ids.len());
            prop_assert_eq!(a.to_vec(), ids.iter().copied().collect::<Vec<_>>());

            let mut inter = a.clone();
            inter.intersect_with(&b);
            let expect: Vec<u32> = ids.intersection(&other).copied().collect();
            prop_assert_eq!(inter.to_vec(), expect);

            let mut uni = a.clone();
            uni.union_with(&b);
            let expect: Vec<u32> = ids.union(&other).copied().collect();
            prop_assert_eq!(uni.to_vec(), expect);

            let mut neg = a.clone();
            neg.negate();
            let expect: Vec<u32> =
                (0..500).filter(|i| !ids.contains(i)).collect();
            prop_assert_eq!(neg.to_vec(), expect);
            let _ = BTreeSet::<u32>::new();
        }
    }
}
