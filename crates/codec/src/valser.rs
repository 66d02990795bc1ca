//! Compact binary serialization of [`Value`]s.
//!
//! Used by LogBlock metadata (SMA min/max values) and by the benchmark
//! probes' row payloads ([`crate::batch`]). One tag byte followed by a
//! varint/length-prefixed payload.

use crate::varint::{put_ivarint, put_str, put_uvarint, read_ivarint, read_str, read_uvarint};
use logstore_types::{Cell, Error, Result, Value};

const TAG_NULL: u8 = 0;
const TAG_I64: u8 = 1;
const TAG_U64: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_BOOL_FALSE: u8 = 4;
const TAG_BOOL_TRUE: u8 = 5;

/// Appends a serialized value.
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    put_cell(buf, v.cell());
}

/// Appends a serialized cell: the bytes [`put_value`] writes for its owned
/// copy.
pub fn put_cell(buf: &mut Vec<u8>, cell: Cell<'_>) {
    match cell {
        Cell::Null => buf.push(TAG_NULL),
        Cell::I64(x) => {
            buf.push(TAG_I64);
            put_ivarint(buf, x);
        }
        Cell::U64(x) => {
            buf.push(TAG_U64);
            put_uvarint(buf, x);
        }
        Cell::Str(s) => {
            buf.push(TAG_STR);
            put_str(buf, s);
        }
        Cell::Bool(false) => buf.push(TAG_BOOL_FALSE),
        Cell::Bool(true) => buf.push(TAG_BOOL_TRUE),
    }
}

/// Reads a value written by [`put_value`].
pub fn read_value(buf: &[u8], pos: &mut usize) -> Result<Value> {
    let tag = *buf.get(*pos).ok_or_else(|| Error::corruption("value tag truncated"))?;
    *pos += 1;
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_I64 => Value::I64(read_ivarint(buf, pos)?),
        TAG_U64 => Value::U64(read_uvarint(buf, pos)?),
        TAG_STR => Value::Str(read_str(buf, pos)?.to_string()),
        TAG_BOOL_FALSE => Value::Bool(false),
        TAG_BOOL_TRUE => Value::Bool(true),
        other => return Err(Error::corruption(format!("unknown value tag {other}"))),
    })
}

/// Serializes a row of `len` borrowed cells with a leading arity.
pub fn put_cells<'a>(buf: &mut Vec<u8>, len: usize, cells: impl IntoIterator<Item = Cell<'a>>) {
    put_uvarint(buf, len as u64);
    for cell in cells {
        put_cell(buf, cell);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Serializes a row (a slice of values) with a leading arity.
    pub(crate) fn put_row(buf: &mut Vec<u8>, row: &[Value]) {
        put_cells(buf, row.len(), row.iter().map(Value::cell));
    }

    /// Reads a row written by [`put_row`]: its round-trip reference.
    pub(crate) fn read_row(buf: &[u8], pos: &mut usize) -> Result<Vec<Value>> {
        let n = read_uvarint(buf, pos)? as usize;
        // Every value costs at least its tag byte, so an arity larger than
        // the bytes left is corrupt — and must not size-hint an
        // allocation.
        if n > (1 << 20).min(buf.len().saturating_sub(*pos)) {
            return Err(Error::corruption("row arity implausibly large"));
        }
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(read_value(buf, pos)?);
        }
        Ok(row)
    }

    fn roundtrip(v: &Value) {
        let mut buf = Vec::new();
        put_value(&mut buf, v);
        let mut pos = 0;
        assert_eq!(&read_value(&buf, &mut pos).unwrap(), v);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(&Value::Null);
        roundtrip(&Value::I64(i64::MIN));
        roundtrip(&Value::I64(i64::MAX));
        roundtrip(&Value::U64(u64::MAX));
        roundtrip(&Value::from(""));
        roundtrip(&Value::from("héllo wörld"));
        roundtrip(&Value::Bool(true));
        roundtrip(&Value::Bool(false));
    }

    #[test]
    fn row_roundtrip() {
        let row = vec![Value::U64(7), Value::I64(-1), Value::from("x"), Value::Null];
        let mut buf = Vec::new();
        put_row(&mut buf, &row);
        let mut pos = 0;
        assert_eq!(read_row(&buf, &mut pos).unwrap(), row);
    }

    #[test]
    fn bad_tag_rejected() {
        let mut pos = 0;
        assert!(read_value(&[200], &mut pos).is_err());
        let mut pos = 0;
        assert!(read_value(&[], &mut pos).is_err());
    }

    #[test]
    fn huge_arity_rejected() {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, u64::MAX);
        let mut pos = 0;
        assert!(read_row(&buf, &mut pos).is_err());
    }

    #[test]
    fn arity_beyond_the_bytes_left_is_rejected_before_allocating() {
        // Four bytes claiming a million values: within the absolute cap,
        // but the buffer cannot hold them, so nothing is sized by it.
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 1 << 20);
        assert_eq!(buf.len(), 3);
        buf.push(TAG_NULL);
        let mut pos = 0;
        let err = read_row(&buf, &mut pos).unwrap_err();
        assert!(err.to_string().contains("implausibly large"), "{err}");
        // An arity the bytes left can hold still decodes.
        let mut pos = 0;
        assert_eq!(read_row(&[1, TAG_NULL], &mut pos).unwrap(), vec![Value::Null]);
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<i64>().prop_map(Value::I64),
            any::<u64>().prop_map(Value::U64),
            ".{0,32}".prop_map(Value::Str),
            any::<bool>().prop_map(Value::Bool),
        ]
    }

    proptest! {
        #[test]
        fn prop_value_roundtrip(v in arb_value()) {
            roundtrip(&v);
        }

        #[test]
        fn prop_row_roundtrip(row in proptest::collection::vec(arb_value(), 0..16)) {
            let mut buf = Vec::new();
            put_row(&mut buf, &row);
            let mut pos = 0;
            prop_assert_eq!(read_row(&buf, &mut pos).unwrap(), row);
            prop_assert_eq!(pos, buf.len());
        }
    }
}
