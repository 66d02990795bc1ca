//! Typed column batches.
//!
//! A [`ColumnVec`] is one column of a run of rows in flat typed buffers —
//! what predicate kernels and aggregation read instead of one boxed
//! [`Value`] per cell. A decoded LogBlock column block is one (built by the
//! column codec through [`ColumnVec::from_parts`]), and so is each column
//! of a real-time run (filled through [`ColumnVec::push_exact`] and
//! [`ColumnVec::append`]):
//! both sources of a query are evaluated by the same kernels.

use crate::value::{Cell, DataType, Value};
use crate::{Error, Result};

/// One column of consecutive rows in typed, batch-oriented layout.
///
/// The whole batch sits in flat buffers (`Vec<i64>`, bit-packed bools, a
/// byte arena plus ranges for strings), so evaluation runs over it without
/// per-row allocation, and a cell is read as a borrowed [`Cell`].
#[derive(Debug, Default, Clone)]
pub struct ColumnVec {
    len: usize,
    /// Null bitset: bit `i` set ⇒ row `i` is NULL.
    nulls: Vec<u8>,
    /// Whether any bit of `nulls` is set.
    has_nulls: bool,
    data: ColumnData,
}

/// Typed payload of a [`ColumnVec`].
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// `Int64` values (placeholder 0 in NULL slots).
    I64(Vec<i64>),
    /// `UInt64` values (placeholder 0 in NULL slots).
    U64(Vec<u64>),
    /// Bit-packed booleans, bit `i` = row `i`.
    Bool(Vec<u8>),
    /// String payload arena plus per-row `(start, end)` byte ranges.
    Str {
        /// The bytes the ranges point into (a decoded data frame keeps its
        /// length prefixes in here; the ranges skip them).
        data: Vec<u8>,
        /// Byte range of each row's payload within `data`.
        ranges: Vec<(u32, u32)>,
    },
}

impl Default for ColumnData {
    fn default() -> Self {
        ColumnData::I64(Vec::new())
    }
}

impl ColumnVec {
    /// Assembles a batch of `len` rows from its buffers, checking that they
    /// describe `len` rows: a bitset of `len` bits, one value per row, and
    /// string ranges that lie inside the arena. String payloads are *not*
    /// checked to be UTF-8 — [`ColumnVec::cell`] reads an invalid one as
    /// NULL — so a decoder validates what it hands in.
    pub fn from_parts(len: usize, nulls: Vec<u8>, data: ColumnData) -> Result<ColumnVec> {
        let rows_described = match &data {
            ColumnData::I64(vals) => vals.len() == len,
            ColumnData::U64(vals) => vals.len() == len,
            ColumnData::Bool(bits) => bits.len() == len.div_ceil(8),
            ColumnData::Str { data, ranges } => {
                ranges.len() == len
                    && ranges.iter().all(|&(start, end)| start <= end && end as usize <= data.len())
            }
        };
        if !rows_described || nulls.len() != len.div_ceil(8) {
            return Err(Error::corruption("column batch buffers do not describe its row count"));
        }
        let has_nulls = nulls.iter().any(|byte| *byte != 0);
        Ok(ColumnVec { len, nulls, has_nulls, data })
    }

    /// Takes the batch apart, so a decoder can reuse its buffers for the
    /// next block.
    pub fn into_parts(self) -> (Vec<u8>, ColumnData) {
        (self.nulls, self.data)
    }

    /// An empty batch of `dtype`.
    pub fn empty(dtype: DataType) -> ColumnVec {
        let data = match dtype {
            DataType::Int64 => ColumnData::I64(Vec::new()),
            DataType::UInt64 => ColumnData::U64(Vec::new()),
            DataType::Bool => ColumnData::Bool(Vec::new()),
            DataType::String => ColumnData::Str { data: Vec::new(), ranges: Vec::new() },
        };
        ColumnVec { data, ..ColumnVec::default() }
    }

    /// The type of the batch's cells.
    pub fn data_type(&self) -> DataType {
        match &self.data {
            ColumnData::I64(_) => DataType::Int64,
            ColumnData::U64(_) => DataType::UInt64,
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Str { .. } => DataType::String,
        }
    }

    /// Appends `cell` exactly as it is — a NULL, or a cell of the batch's
    /// type with room for it in the string arena — and returns `true`;
    /// returns `false` and changes nothing otherwise.
    pub fn push_exact(&mut self, cell: Cell<'_>) -> bool {
        let i = self.len;
        let (byte, bit, opens_byte) = (i / 8, 1u8 << (i % 8), i.is_multiple_of(8));
        match (&mut self.data, cell) {
            (_, Cell::Null) => {
                self.push_nulls(1);
                return true;
            }
            (ColumnData::I64(vals), Cell::I64(v)) => vals.push(v),
            (ColumnData::U64(vals), Cell::U64(v)) => vals.push(v),
            (ColumnData::Bool(bits), Cell::Bool(b)) => {
                if opens_byte {
                    bits.push(0);
                }
                if b {
                    bits[byte] |= bit;
                }
            }
            (ColumnData::Str { data, ranges }, Cell::Str(s)) => {
                let Ok(end) = u32::try_from(data.len() + s.len()) else { return false };
                ranges.push((data.len() as u32, end));
                data.extend_from_slice(s.as_bytes());
            }
            _ => return false,
        }
        if opens_byte {
            self.nulls.push(0);
        }
        self.len += 1;
        true
    }

    /// Appends `n` NULLs.
    pub fn push_nulls(&mut self, n: usize) {
        for _ in 0..n {
            let i = self.len;
            let (byte, bit, opens_byte) = (i / 8, 1u8 << (i % 8), i.is_multiple_of(8));
            match &mut self.data {
                ColumnData::I64(vals) => vals.push(0),
                ColumnData::U64(vals) => vals.push(0),
                ColumnData::Bool(bits) if opens_byte => bits.push(0),
                ColumnData::Bool(_) => {}
                // Every push checked that the arena's end fits a `u32`.
                ColumnData::Str { data, ranges } => {
                    ranges.push((data.len() as u32, data.len() as u32))
                }
            }
            if opens_byte {
                self.nulls.push(0);
            }
            self.nulls[byte] |= bit;
            self.len += 1;
        }
        self.has_nulls |= n > 0;
    }

    /// Appends every row of `other` in bulk — buffers are copied, not
    /// cells — and returns `true`, if it is a batch of the same type whose
    /// strings fit the arena; returns `false` and changes nothing
    /// otherwise.
    pub fn append(&mut self, other: &ColumnVec) -> bool {
        let at = self.len;
        match (&mut self.data, &other.data) {
            (ColumnData::I64(vals), ColumnData::I64(more)) => vals.extend_from_slice(more),
            (ColumnData::U64(vals), ColumnData::U64(more)) => vals.extend_from_slice(more),
            (ColumnData::Bool(bits), ColumnData::Bool(more)) => {
                append_bits(bits, at, more, other.len)
            }
            (ColumnData::Str { data, ranges }, ColumnData::Str { data: more, ranges: theirs }) => {
                if u32::try_from(data.len() + more.len()).is_err() {
                    return false;
                }
                let base = data.len() as u32;
                data.extend_from_slice(more);
                ranges.extend(theirs.iter().map(|&(start, end)| (base + start, base + end)));
            }
            _ => return false,
        }
        append_bits(&mut self.nulls, at, &other.nulls, other.len);
        self.has_nulls |= other.has_nulls;
        self.len += other.len;
        true
    }

    /// Keeps the first `len` rows.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        match &mut self.data {
            ColumnData::I64(vals) => vals.truncate(len),
            ColumnData::U64(vals) => vals.truncate(len),
            ColumnData::Bool(bits) => truncate_bits(bits, len),
            ColumnData::Str { data, ranges } => {
                data.truncate(ranges[len].0 as usize);
                ranges.truncate(len);
            }
        }
        truncate_bits(&mut self.nulls, len);
        self.has_nulls = self.nulls.iter().any(|byte| *byte != 0);
        self.len = len;
    }

    /// Rows in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The typed payload.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// True when some row is NULL: a kernel over a batch without NULLs
    /// need not ask row by row.
    #[inline]
    pub fn has_nulls(&self) -> bool {
        self.has_nulls
    }

    /// True when row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls[i / 8] & (1 << (i % 8)) != 0
    }

    /// Row `i` as a typed cell borrowed from the batch: nothing is
    /// allocated until the caller decides the cell must outlive it.
    #[inline]
    pub fn cell(&self, i: usize) -> Cell<'_> {
        if self.is_null(i) {
            return Cell::Null;
        }
        match &self.data {
            ColumnData::I64(vs) => Cell::I64(vs[i]),
            ColumnData::U64(vs) => Cell::U64(vs[i]),
            ColumnData::Bool(bits) => Cell::Bool(bits[i / 8] & (1 << (i % 8)) != 0),
            ColumnData::Str { data, ranges } => {
                let (start, end) = ranges[i];
                // Builders validate every non-null slice; unreachable in
                // practice, but stay total rather than panic.
                std::str::from_utf8(&data[start as usize..end as usize])
                    .map_or(Cell::Null, Cell::Str)
            }
        }
    }

    /// Materializes one cell.
    pub fn value(&self, i: usize) -> Value {
        self.cell(i).to_value()
    }

    /// The non-null string payload of row `i`, if this is a string batch.
    pub fn str_at(&self, i: usize) -> Option<&str> {
        match self.cell(i) {
            Cell::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Approximate footprint in bytes (drives `bytes_decoded`).
    pub fn approx_bytes(&self) -> u64 {
        let payload = match &self.data {
            ColumnData::I64(vs) => vs.len() * 8,
            ColumnData::U64(vs) => vs.len() * 8,
            ColumnData::Bool(bits) => bits.len(),
            ColumnData::Str { data, ranges } => data.len() + ranges.len() * 8,
        };
        (payload + self.nulls.len()) as u64
    }
}

/// Keeps the first `len` bits of a bitset, the bits past them zero.
fn truncate_bits(bits: &mut Vec<u8>, len: usize) {
    bits.truncate(len.div_ceil(8));
    if let (Some(last), 1..) = (bits.last_mut(), len % 8) {
        *last &= (1u8 << (len % 8)) - 1;
    }
}

/// Appends the first `n` bits of `src` to the bitset `dst` of `len` bits.
/// Bits past the end of a bitset are zero, in `src` and in `dst`.
fn append_bits(dst: &mut Vec<u8>, len: usize, src: &[u8], n: usize) {
    let src = &src[..n.div_ceil(8)];
    let shift = len % 8;
    if shift == 0 {
        dst.extend_from_slice(src);
        return;
    }
    for &byte in src {
        if let Some(last) = dst.last_mut() {
            *last |= byte << shift;
        }
        dst.push(byte >> (8 - shift));
    }
    dst.truncate((len + n).div_ceil(8));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells_of(batch: &ColumnVec) -> Vec<Value> {
        (0..batch.len()).map(|i| batch.value(i)).collect()
    }

    /// A batch of `dtype` holding `values`, pushed cell by cell.
    fn batch_of(dtype: DataType, values: &[Value]) -> ColumnVec {
        let mut batch = ColumnVec::empty(dtype);
        for value in values {
            assert!(batch.push_exact(value.cell()), "{value} in a {dtype} batch");
        }
        batch
    }

    #[test]
    fn pushed_cells_roundtrip_every_type_with_nulls() {
        let cases: Vec<(DataType, Vec<Value>)> = vec![
            (DataType::Int64, vec![Value::I64(-5), Value::Null, Value::I64(i64::MAX)]),
            (DataType::UInt64, vec![Value::U64(u64::MAX), Value::Null, Value::U64(0)]),
            (
                DataType::Bool,
                (0..11)
                    .map(|i| if i == 4 { Value::Null } else { Value::Bool(i % 3 == 0) })
                    .collect(),
            ),
            (
                DataType::String,
                vec![Value::from("hello"), Value::Null, Value::from(""), Value::from("wörld")],
            ),
            (DataType::String, vec![]),
        ];
        for (dtype, values) in cases {
            let batch = batch_of(dtype, &values);
            assert_eq!(batch.len(), values.len());
            assert_eq!(cells_of(&batch), values, "{dtype}");
            // What pushes build is what `from_parts` accepts.
            let (nulls, data) = batch.into_parts();
            let again = ColumnVec::from_parts(values.len(), nulls, data).unwrap();
            assert_eq!(cells_of(&again), values, "{dtype}");
        }
    }

    #[test]
    fn bulk_append_and_truncate_are_the_cell_by_cell_batch() {
        // Every type, NULLs included, cut at every bit offset: appending
        // `tail` to `head` in bulk gives the batch pushed cell by cell, and
        // truncating it back gives `head` again.
        let cases: Vec<(DataType, Vec<Value>)> = vec![
            (
                DataType::Int64,
                (0..19).map(|i| if i % 5 == 0 { Value::Null } else { Value::I64(-i) }).collect(),
            ),
            (
                DataType::UInt64,
                (0..19).map(|i| if i % 4 == 1 { Value::Null } else { Value::U64(i) }).collect(),
            ),
            (
                DataType::Bool,
                (0..19)
                    .map(|i| if i % 3 == 2 { Value::Null } else { Value::Bool(i % 2 == 0) })
                    .collect(),
            ),
            (
                DataType::String,
                (0..19)
                    .map(
                        |i| {
                            if i % 6 == 3 {
                                Value::Null
                            } else {
                                Value::from("x".repeat(i as usize))
                            }
                        },
                    )
                    .collect(),
            ),
        ];
        for (dtype, values) in cases {
            let whole = batch_of(dtype, &values);
            for cut in 0..=values.len() {
                let batch = |vals: &[Value]| batch_of(dtype, vals);
                let mut head = batch(&values[..cut]);
                assert!(head.append(&batch(&values[cut..])), "{dtype} at {cut}");
                assert_eq!(cells_of(&head), cells_of(&whole), "{dtype} at {cut}");
                assert_eq!(
                    (head.nulls.clone(), head.has_nulls),
                    (whole.nulls.clone(), whole.has_nulls)
                );
                head.truncate(cut);
                let again = batch(&values[..cut]);
                assert_eq!(cells_of(&head), cells_of(&again), "{dtype} at {cut}");
                assert_eq!(
                    (head.nulls.clone(), head.has_nulls),
                    (again.nulls.clone(), again.has_nulls)
                );
            }
            // A batch of another type is refused and changes nothing.
            let other = if dtype == DataType::Int64 { DataType::String } else { DataType::Int64 };
            let mut copy = batch_of(dtype, &values);
            assert!(!copy.append(&batch_of(other, &[Value::Null, Value::Null])));
            assert_eq!(cells_of(&copy), values);
        }
    }

    #[test]
    fn push_exact_takes_nulls_and_its_own_type_only() {
        let mut batch = ColumnVec::empty(DataType::Int64);
        assert!(batch.push_exact(Cell::I64(3)) && batch.push_exact(Cell::Null));
        assert!(!batch.push_exact(Cell::U64(4)), "no conversion");
        assert!(!batch.push_exact(Cell::Str("5")));
        assert_eq!(cells_of(&batch), vec![Value::I64(3), Value::Null]);
        let mut strings = ColumnVec::empty(DataType::String);
        strings.push_nulls(2);
        assert!(!strings.push_exact(Cell::Bool(true)));
        assert_eq!(cells_of(&strings), vec![Value::Null; 2]);
    }

    #[test]
    fn from_parts_rejects_buffers_of_another_row_count() {
        let ok = |len, nulls, data| ColumnVec::from_parts(len, nulls, data).is_ok();
        assert!(ok(3, vec![0], ColumnData::I64(vec![1, 2, 3])));
        assert!(!ok(3, vec![0], ColumnData::I64(vec![1, 2])));
        assert!(!ok(9, vec![0], ColumnData::U64(vec![0; 9])), "nine rows need two bitset bytes");
        assert!(!ok(9, vec![0, 0], ColumnData::Bool(vec![0])));
        let arena = b"abc".to_vec();
        assert!(ok(1, vec![0], ColumnData::Str { data: arena.clone(), ranges: vec![(1, 3)] }));
        assert!(!ok(1, vec![0], ColumnData::Str { data: arena.clone(), ranges: vec![(1, 4)] }));
        assert!(!ok(1, vec![0], ColumnData::Str { data: arena, ranges: vec![(2, 1)] }));
    }
}
