//! Dynamic values and their types.
//!
//! LogStore columns are typed; individual cells are [`Value`]s. The type
//! system is deliberately small — logs are integers, strings, booleans and
//! timestamps — which keeps the columnar format and the index structures
//! simple and fast.

use std::cmp::Ordering;
use std::fmt;

/// The physical type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer. Timestamps are stored as `Int64` milliseconds.
    Int64,
    /// 64-bit unsigned integer (tenant ids, counters).
    UInt64,
    /// UTF-8 string. Eligible for inverted (full-text) indexing.
    String,
    /// Boolean flag.
    Bool,
}

impl DataType {
    /// True for types indexed with the BKD tree (numeric point index).
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int64 | DataType::UInt64)
    }

    /// Stable one-byte tag used by on-disk formats.
    pub fn tag(self) -> u8 {
        match self {
            DataType::Int64 => 0,
            DataType::UInt64 => 1,
            DataType::String => 2,
            DataType::Bool => 3,
        }
    }

    /// Inverse of [`DataType::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => DataType::Int64,
            1 => DataType::UInt64,
            2 => DataType::String,
            3 => DataType::Bool,
            _ => return None,
        })
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int64 => "INT64",
            DataType::UInt64 => "UINT64",
            DataType::String => "STRING",
            DataType::Bool => "BOOL",
        };
        f.write_str(s)
    }
}

/// A single dynamically-typed cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    I64(i64),
    /// 64-bit unsigned integer.
    U64(u64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Returns the value's data type, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        self.cell().data_type()
    }

    /// True if the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extracts an `i64`, coercing `U64` when it fits.
    pub fn as_i64(&self) -> Option<i64> {
        self.cell().as_i64()
    }

    /// Extracts a `u64`, coercing non-negative `I64`.
    pub fn as_u64(&self) -> Option<u64> {
        self.cell().as_u64()
    }

    /// Extracts a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extracts a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Total ordering used by SMA computation and predicate evaluation.
    ///
    /// NULL sorts before everything; values of different types compare by
    /// type tag (mixed-type comparisons only arise from malformed queries and
    /// are rejected earlier by the planner, but a total order keeps sorting
    /// infallible). Numeric values compare numerically across `I64`/`U64`.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        self.cell().total_cmp(other.cell())
    }

    /// This value as a borrowed [`Cell`].
    #[inline]
    pub fn cell(&self) -> Cell<'_> {
        match self {
            Value::Null => Cell::Null,
            Value::I64(v) => Cell::I64(*v),
            Value::U64(v) => Cell::U64(*v),
            Value::Str(s) => Cell::Str(s),
            Value::Bool(b) => Cell::Bool(*b),
        }
    }

    /// Approximate in-memory footprint in bytes, used for cache accounting
    /// and backpressure-by-size.
    pub fn approx_size(&self) -> usize {
        self.cell().approx_size()
    }
}

/// One cell borrowed from wherever it is stored — a [`Value`], or a slot of
/// a decoded column block — so that reading a cell allocates nothing. Only
/// a cell that has to outlive its storage becomes a [`Value`]
/// ([`Cell::to_value`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell<'a> {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    I64(i64),
    /// 64-bit unsigned integer.
    U64(u64),
    /// UTF-8 string.
    Str(&'a str),
    /// Boolean.
    Bool(bool),
}

impl Cell<'_> {
    /// True if the cell is NULL.
    pub fn is_null(self) -> bool {
        matches!(self, Cell::Null)
    }

    /// The cell's type; `None` for NULL.
    pub fn data_type(self) -> Option<DataType> {
        match self {
            Cell::Null => None,
            Cell::I64(_) => Some(DataType::Int64),
            Cell::U64(_) => Some(DataType::UInt64),
            Cell::Str(_) => Some(DataType::String),
            Cell::Bool(_) => Some(DataType::Bool),
        }
    }

    /// Extracts an `i64`, coercing `U64` when it fits.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Cell::I64(v) => Some(v),
            Cell::U64(v) => i64::try_from(v).ok(),
            _ => None,
        }
    }

    /// Extracts a `u64`, coercing non-negative `I64`.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Cell::U64(v) => Some(v),
            Cell::I64(v) if v >= 0 => Some(v as u64),
            _ => None,
        }
    }

    /// [`Value::approx_size`] of the cell's owned copy.
    pub fn approx_size(self) -> usize {
        match self {
            Cell::Str(s) => std::mem::size_of::<Value>() + s.len(),
            _ => std::mem::size_of::<Value>(),
        }
    }

    /// The owned copy of this cell.
    pub fn to_value(self) -> Value {
        match self {
            Cell::Null => Value::Null,
            Cell::I64(v) => Value::I64(v),
            Cell::U64(v) => Value::U64(v),
            Cell::Str(s) => Value::Str(s.to_string()),
            Cell::Bool(b) => Value::Bool(b),
        }
    }

    /// The total order of [`Value::total_cmp`].
    #[inline]
    pub fn total_cmp(self, other: Cell<'_>) -> Ordering {
        use Cell::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (I64(a), I64(b)) => a.cmp(&b),
            (U64(a), U64(b)) => a.cmp(&b),
            (I64(a), U64(b)) => cmp_i64_u64(a, b),
            (U64(a), I64(b)) => cmp_i64_u64(b, a).reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(&b),
            (a, b) => type_rank(a).cmp(&type_rank(b)),
        }
    }
}

fn cmp_i64_u64(a: i64, b: u64) -> Ordering {
    if a < 0 {
        Ordering::Less
    } else {
        (a as u64).cmp(&b)
    }
}

fn type_rank(v: Cell<'_>) -> u8 {
    match v {
        Cell::Null => 0,
        Cell::I64(_) | Cell::U64(_) => 1,
        Cell::Str(_) => 2,
        Cell::Bool(_) => 3,
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::I64(v) => write!(f, "{v}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_type_tags_roundtrip() {
        for dt in [DataType::Int64, DataType::UInt64, DataType::String, DataType::Bool] {
            assert_eq!(DataType::from_tag(dt.tag()), Some(dt));
        }
        assert_eq!(DataType::from_tag(200), None);
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::I64(-5).as_i64(), Some(-5));
        assert_eq!(Value::U64(5).as_i64(), Some(5));
        assert_eq!(Value::U64(u64::MAX).as_i64(), None);
        assert_eq!(Value::I64(-1).as_u64(), None);
        assert_eq!(Value::from("abc").as_str(), Some("abc"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert!(Value::Null.is_null());
    }

    #[test]
    fn cross_type_numeric_ordering() {
        assert_eq!(Value::I64(-1).total_cmp(&Value::U64(0)), Ordering::Less);
        assert_eq!(Value::U64(10).total_cmp(&Value::I64(10)), Ordering::Equal);
        assert_eq!(Value::U64(u64::MAX).total_cmp(&Value::I64(i64::MAX)), Ordering::Greater);
    }

    #[test]
    fn null_sorts_first() {
        let mut vs = [Value::I64(1), Value::Null, Value::I64(-3)];
        vs.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[1], Value::I64(-3));
    }

    #[test]
    fn display_quoting() {
        assert_eq!(Value::from("x").to_string(), "'x'");
        assert_eq!(Value::I64(3).to_string(), "3");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn approx_size_counts_string_payload() {
        let small = Value::I64(1).approx_size();
        let big = Value::from("0123456789").approx_size();
        assert_eq!(big, small + 10);
    }
}
