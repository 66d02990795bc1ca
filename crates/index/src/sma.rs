//! Small Materialized Aggregates (SMA).
//!
//! Following Moerkotte's SMAs (the paper's reference \[44\]), every column and every
//! column block records `min`, `max`, `null_count` and `row_count`. These
//! drive the multi-level data-skipping strategy of Figure 8: a predicate
//! that cannot be satisfied by the min/max range prunes the whole column
//! block (or column) without touching its data.

use logstore_codec::valser::{put_value, read_value};
use logstore_codec::varint::{put_uvarint, read_uvarint};
use logstore_types::{Cell, CmpOp, Error, Result, Value};
use std::cmp::Ordering;

/// Min/max/null statistics over a run of values.
#[derive(Debug, Clone, PartialEq)]
pub struct Sma {
    /// Smallest non-null value, if any non-null value was seen.
    pub min: Option<Value>,
    /// Largest non-null value, if any non-null value was seen.
    pub max: Option<Value>,
    /// Number of NULLs seen.
    pub null_count: u32,
    /// Total number of values seen (including NULLs).
    pub row_count: u32,
}

impl Default for Sma {
    fn default() -> Self {
        Self::new()
    }
}

impl Sma {
    /// An empty aggregate.
    pub fn new() -> Self {
        Sma { min: None, max: None, null_count: 0, row_count: 0 }
    }

    /// Folds one value into the aggregate.
    pub fn update(&mut self, v: &Value) {
        self.update_cell(v.cell());
    }

    /// [`Sma::update`] with a borrowed cell: a cell is copied only when it
    /// becomes the new min or max.
    pub fn update_cell(&mut self, cell: Cell<'_>) {
        let null = cell.is_null();
        self.fold(1, u32::from(null), (!null).then_some((cell, cell)));
    }

    /// Folds in `row_count` values, `null_count` of them NULL, whose
    /// smallest and largest non-null values are `extremes`: what a column
    /// block builder knows of a segment once it has read it. A cell is
    /// copied only when it becomes the new min or max.
    pub fn fold(
        &mut self,
        row_count: u32,
        null_count: u32,
        extremes: Option<(Cell<'_>, Cell<'_>)>,
    ) {
        self.row_count += row_count;
        self.null_count += null_count;
        let Some((min, max)) = extremes else { return };
        if self.min.as_ref().is_none_or(|m| min.total_cmp(m.cell()) == Ordering::Less) {
            self.min = Some(min.to_value());
        }
        if self.max.as_ref().is_none_or(|m| max.total_cmp(m.cell()) == Ordering::Greater) {
            self.max = Some(max.to_value());
        }
    }

    /// Merges another aggregate into this one (column SMA = merge of its
    /// block SMAs).
    pub fn merge(&mut self, other: &Sma) {
        self.row_count += other.row_count;
        self.null_count += other.null_count;
        if let Some(m) = &other.min {
            if self.min.as_ref().is_none_or(|cur| m.total_cmp(cur) == Ordering::Less) {
                self.min = Some(m.clone());
            }
        }
        if let Some(m) = &other.max {
            if self.max.as_ref().is_none_or(|cur| m.total_cmp(cur) == Ordering::Greater) {
                self.max = Some(m.clone());
            }
        }
    }

    /// True if every value seen was NULL (or nothing was seen).
    pub fn all_null(&self) -> bool {
        self.null_count == self.row_count
    }

    /// Conservative test: can any value summarized by this SMA satisfy
    /// `value_in_block op literal`? `false` means the block is safely
    /// skippable; `true` means "maybe".
    pub fn may_match(&self, op: CmpOp, literal: &Value) -> bool {
        if self.all_null() || literal.is_null() {
            return false; // NULL never matches any operator
        }
        let (Some(min), Some(max)) = (&self.min, &self.max) else {
            return false;
        };
        match op {
            CmpOp::Eq => {
                min.total_cmp(literal) != Ordering::Greater
                    && max.total_cmp(literal) != Ordering::Less
            }
            CmpOp::Lt => min.total_cmp(literal) == Ordering::Less,
            CmpOp::Le => min.total_cmp(literal) != Ordering::Greater,
            CmpOp::Gt => max.total_cmp(literal) == Ordering::Greater,
            CmpOp::Ge => max.total_cmp(literal) != Ordering::Less,
            // Ne and Contains cannot be pruned by min/max (beyond all-null).
            CmpOp::Ne | CmpOp::Contains => true,
        }
    }

    /// Dual of [`Sma::may_match`]: conservative test that **every** value
    /// summarized by this SMA satisfies `value op literal`. `true` lets the
    /// scanner accept a whole block without reading it (the
    /// early-selection-evaluation idea of the PSMA work the paper builds
    /// on). `false` means "not provable", not "no".
    pub fn always_matches(&self, op: CmpOp, literal: &Value) -> bool {
        if self.row_count == 0 || self.null_count > 0 || literal.is_null() {
            return false; // NULLs never match anything
        }
        let (Some(min), Some(max)) = (&self.min, &self.max) else {
            return false;
        };
        match op {
            CmpOp::Eq => {
                min.total_cmp(literal) == Ordering::Equal
                    && max.total_cmp(literal) == Ordering::Equal
            }
            CmpOp::Ne => {
                max.total_cmp(literal) == Ordering::Less
                    || min.total_cmp(literal) == Ordering::Greater
            }
            CmpOp::Lt => max.total_cmp(literal) == Ordering::Less,
            CmpOp::Le => max.total_cmp(literal) != Ordering::Greater,
            CmpOp::Gt => min.total_cmp(literal) == Ordering::Greater,
            CmpOp::Ge => min.total_cmp(literal) != Ordering::Less,
            CmpOp::Contains => false,
        }
    }

    /// Serializes the aggregate.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_uvarint(&mut out, u64::from(self.row_count));
        put_uvarint(&mut out, u64::from(self.null_count));
        put_value(&mut out, self.min.as_ref().unwrap_or(&Value::Null));
        put_value(&mut out, self.max.as_ref().unwrap_or(&Value::Null));
        out
    }

    /// Reads an aggregate written by [`Sma::serialize`], advancing `pos`.
    pub fn deserialize(buf: &[u8], pos: &mut usize) -> Result<Self> {
        let row_count = read_uvarint(buf, pos)?;
        let null_count = read_uvarint(buf, pos)?;
        if null_count > row_count || row_count > u64::from(u32::MAX) {
            return Err(Error::corruption("sma counts inconsistent"));
        }
        let min = read_value(buf, pos)?;
        let max = read_value(buf, pos)?;
        Ok(Sma {
            min: (!min.is_null()).then_some(min),
            max: (!max.is_null()).then_some(max),
            null_count: null_count as u32,
            row_count: row_count as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sma_of(values: &[Value]) -> Sma {
        let mut s = Sma::new();
        for v in values {
            s.update(v);
        }
        s
    }

    #[test]
    fn tracks_min_max_nulls() {
        let s = sma_of(&[Value::I64(5), Value::Null, Value::I64(-3), Value::I64(9)]);
        assert_eq!(s.min, Some(Value::I64(-3)));
        assert_eq!(s.max, Some(Value::I64(9)));
        assert_eq!(s.null_count, 1);
        assert_eq!(s.row_count, 4);
        assert!(!s.all_null());
    }

    #[test]
    fn all_null_prunes_everything() {
        let s = sma_of(&[Value::Null, Value::Null]);
        assert!(s.all_null());
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Contains] {
            assert!(!s.may_match(op, &Value::I64(0)));
        }
    }

    #[test]
    fn range_pruning_semantics() {
        let s = sma_of(&[Value::I64(10), Value::I64(100)]);
        assert!(s.may_match(CmpOp::Eq, &Value::I64(10)));
        assert!(s.may_match(CmpOp::Eq, &Value::I64(55)));
        assert!(!s.may_match(CmpOp::Eq, &Value::I64(9)));
        assert!(!s.may_match(CmpOp::Eq, &Value::I64(101)));
        assert!(s.may_match(CmpOp::Lt, &Value::I64(11)));
        assert!(!s.may_match(CmpOp::Lt, &Value::I64(10)));
        assert!(s.may_match(CmpOp::Le, &Value::I64(10)));
        assert!(!s.may_match(CmpOp::Le, &Value::I64(9)));
        assert!(s.may_match(CmpOp::Gt, &Value::I64(99)));
        assert!(!s.may_match(CmpOp::Gt, &Value::I64(100)));
        assert!(s.may_match(CmpOp::Ge, &Value::I64(100)));
        assert!(!s.may_match(CmpOp::Ge, &Value::I64(101)));
        assert!(s.may_match(CmpOp::Ne, &Value::I64(55)));
    }

    #[test]
    fn string_pruning() {
        let s = sma_of(&[Value::from("apple"), Value::from("pear")]);
        assert!(s.may_match(CmpOp::Eq, &Value::from("banana")));
        assert!(!s.may_match(CmpOp::Eq, &Value::from("zebra")));
        assert!(s.may_match(CmpOp::Contains, &Value::from("anything")));
    }

    #[test]
    fn merge_equals_combined_updates() {
        let a = sma_of(&[Value::I64(1), Value::Null]);
        let b = sma_of(&[Value::I64(-7), Value::I64(3)]);
        let mut merged = a.clone();
        merged.merge(&b);
        let direct = sma_of(&[Value::I64(1), Value::Null, Value::I64(-7), Value::I64(3)]);
        assert_eq!(merged, direct);
    }

    #[test]
    fn serialize_roundtrip() {
        for s in [
            Sma::new(),
            sma_of(&[Value::Null]),
            sma_of(&[Value::from("x"), Value::from("y"), Value::Null]),
            sma_of(&[Value::U64(u64::MAX)]),
        ] {
            let bytes = s.serialize();
            let mut pos = 0;
            assert_eq!(Sma::deserialize(&bytes, &mut pos).unwrap(), s);
            assert_eq!(pos, bytes.len());
        }
    }

    #[test]
    fn inconsistent_counts_rejected() {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 1); // row_count
        put_uvarint(&mut buf, 2); // null_count > row_count
        put_value(&mut buf, &Value::Null);
        put_value(&mut buf, &Value::Null);
        let mut pos = 0;
        assert!(Sma::deserialize(&buf, &mut pos).is_err());
    }

    #[test]
    fn always_matches_semantics() {
        let s = sma_of(&[Value::I64(10), Value::I64(10)]);
        assert!(s.always_matches(CmpOp::Eq, &Value::I64(10)));
        assert!(!s.always_matches(CmpOp::Eq, &Value::I64(11)));
        let r = sma_of(&[Value::I64(10), Value::I64(20)]);
        assert!(r.always_matches(CmpOp::Ge, &Value::I64(10)));
        assert!(r.always_matches(CmpOp::Le, &Value::I64(20)));
        assert!(r.always_matches(CmpOp::Lt, &Value::I64(21)));
        assert!(r.always_matches(CmpOp::Gt, &Value::I64(9)));
        assert!(r.always_matches(CmpOp::Ne, &Value::I64(5)));
        assert!(!r.always_matches(CmpOp::Ne, &Value::I64(15)));
        assert!(!r.always_matches(CmpOp::Eq, &Value::I64(15)));
        assert!(!r.always_matches(CmpOp::Contains, &Value::from("x")));
        // NULLs poison the guarantee.
        let n = sma_of(&[Value::I64(10), Value::Null]);
        assert!(!n.always_matches(CmpOp::Ge, &Value::I64(0)));
        assert!(!Sma::new().always_matches(CmpOp::Ge, &Value::I64(0)));
    }

    proptest! {
        /// Completeness dual: if the SMA says "always", every value matches.
        #[test]
        fn prop_always_matches_is_sound(
            values in proptest::collection::vec(-50i64..50, 1..50),
            lit in -60i64..60,
            op_idx in 0usize..6,
        ) {
            let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
            let op = ops[op_idx];
            let vals: Vec<Value> = values.iter().map(|&v| Value::I64(v)).collect();
            let s = sma_of(&vals);
            let lit = Value::I64(lit);
            if s.always_matches(op, &lit) {
                for v in &vals {
                    prop_assert!(op.eval(v, &lit),
                        "sma accepted all but {v:?} {op} {lit:?} fails");
                }
            }
        }

        /// Soundness: if the SMA says "skip", no value in the run matches.
        #[test]
        fn prop_pruning_is_sound(
            values in proptest::collection::vec(-50i64..50, 1..50),
            lit in -60i64..60,
            op_idx in 0usize..6,
        ) {
            let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
            let op = ops[op_idx];
            let vals: Vec<Value> = values.iter().map(|&v| Value::I64(v)).collect();
            let s = sma_of(&vals);
            let lit = Value::I64(lit);
            if !s.may_match(op, &lit) {
                for v in &vals {
                    prop_assert!(!op.eval(v, &lit),
                        "sma pruned but {v:?} {op} {lit:?} matches");
                }
            }
        }
    }
}
