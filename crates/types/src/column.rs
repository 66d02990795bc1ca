//! Typed column batches.
//!
//! A [`ColumnVec`] is one column of a run of rows in flat typed buffers —
//! what predicate kernels and aggregation read instead of one boxed
//! [`Value`] per cell. A decoded LogBlock column block is one (built by the
//! column codec through [`ColumnVec::from_parts`]), and so is a transposed
//! column of a real-time run (built by [`ColumnVec::from_cells`]): both
//! sources of a query are evaluated by the same kernels.

use crate::value::{Cell, DataType, Value};
use crate::{Error, Result};

/// One column of consecutive rows in typed, batch-oriented layout.
///
/// The whole batch sits in flat buffers (`Vec<i64>`, bit-packed bools, a
/// byte arena plus ranges for strings), so evaluation runs over it without
/// per-row allocation, and a cell is read as a borrowed [`Cell`].
#[derive(Debug, Default)]
pub struct ColumnVec {
    len: usize,
    /// Null bitset: bit `i` set ⇒ row `i` is NULL.
    nulls: Vec<u8>,
    /// Whether any bit of `nulls` is set.
    has_nulls: bool,
    data: ColumnData,
}

/// Typed payload of a [`ColumnVec`].
#[derive(Debug)]
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

    /// Transposes one column out of rows: `cells` yields the column's cell
    /// of each row, in row order. A cell of another type than `dtype` is an
    /// error (`UInt64` and `Int64` convert where the value fits, as they do
    /// on the write path).
    pub fn from_cells<'a>(
        dtype: DataType,
        cells: impl ExactSizeIterator<Item = Cell<'a>>,
    ) -> Result<ColumnVec> {
        let len = cells.len();
        let mut nulls = vec![0u8; len.div_ceil(8)];
        let mut data = match dtype {
            DataType::Int64 => ColumnData::I64(Vec::with_capacity(len)),
            DataType::UInt64 => ColumnData::U64(Vec::with_capacity(len)),
            DataType::Bool => ColumnData::Bool(vec![0u8; len.div_ceil(8)]),
            DataType::String => {
                ColumnData::Str { data: Vec::new(), ranges: Vec::with_capacity(len) }
            }
        };
        for (i, cell) in cells.enumerate() {
            let (byte, bit) = (i / 8, 1u8 << (i % 8));
            if cell.is_null() {
                nulls[byte] |= bit;
            }
            let mismatch = || Error::invalid(format!("{cell:?} in a {dtype} column"));
            match (&mut data, cell) {
                (ColumnData::I64(vals), cell) => vals.push(match cell {
                    Cell::Null => 0,
                    Cell::I64(v) => v,
                    Cell::U64(v) => i64::try_from(v).map_err(|_| mismatch())?,
                    _ => return Err(mismatch()),
                }),
                (ColumnData::U64(vals), cell) => vals.push(match cell {
                    Cell::Null => 0,
                    Cell::U64(v) => v,
                    Cell::I64(v) => u64::try_from(v).map_err(|_| mismatch())?,
                    _ => return Err(mismatch()),
                }),
                (ColumnData::Bool(_), Cell::Null | Cell::Bool(false)) => {}
                (ColumnData::Bool(bits), Cell::Bool(true)) => bits[byte] |= bit,
                (ColumnData::Str { data, ranges }, Cell::Null | Cell::Str(_)) => {
                    let start = data.len();
                    if let Cell::Str(s) = cell {
                        data.extend_from_slice(s.as_bytes());
                    }
                    let end = u32::try_from(data.len())
                        .map_err(|_| Error::invalid("string column batch exceeds 4 GiB"))?;
                    ranges.push((start as u32, end));
                }
                (ColumnData::Bool(_) | ColumnData::Str { .. }, _) => return Err(mismatch()),
            }
        }
        let has_nulls = nulls.iter().any(|byte| *byte != 0);
        Ok(ColumnVec { len, nulls, has_nulls, data })
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

    /// Approximate footprint in bytes (drives `bytes_decoded` and the
    /// accounting of cached real-time columns).
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

#[cfg(test)]
mod tests {
    use super::*;

    fn cells_of(batch: &ColumnVec) -> Vec<Value> {
        (0..batch.len()).map(|i| batch.value(i)).collect()
    }

    #[test]
    fn from_cells_roundtrips_every_type_with_nulls() {
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
            let batch = ColumnVec::from_cells(dtype, values.iter().map(Value::cell)).unwrap();
            assert_eq!(batch.len(), values.len());
            assert_eq!(cells_of(&batch), values, "{dtype}");
            // What `from_cells` builds is what `from_parts` accepts.
            let (nulls, data) = batch.into_parts();
            let again = ColumnVec::from_parts(values.len(), nulls, data).unwrap();
            assert_eq!(cells_of(&again), values, "{dtype}");
        }
    }

    #[test]
    fn from_cells_converts_numbers_that_fit_and_rejects_other_types() {
        let fits = [Value::U64(7), Value::I64(8)];
        let as_i64 = ColumnVec::from_cells(DataType::Int64, fits.iter().map(Value::cell)).unwrap();
        assert_eq!(cells_of(&as_i64), vec![Value::I64(7), Value::I64(8)]);
        let as_u64 = ColumnVec::from_cells(DataType::UInt64, fits.iter().map(Value::cell)).unwrap();
        assert_eq!(cells_of(&as_u64), vec![Value::U64(7), Value::U64(8)]);
        for (dtype, bad) in [
            (DataType::Int64, Value::from("x")),
            (DataType::Int64, Value::U64(u64::MAX)),
            (DataType::UInt64, Value::I64(-1)),
            (DataType::Bool, Value::I64(1)),
            (DataType::String, Value::Bool(true)),
        ] {
            assert!(ColumnVec::from_cells(dtype, std::iter::once(bad.cell())).is_err(), "{bad}");
        }
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
