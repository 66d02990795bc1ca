//! Log records and batches — the unit of ingestion.

use crate::ids::TenantId;
use crate::schema::TableSchema;
use crate::time::Timestamp;
use crate::value::{Cell, Value};
use crate::{Error, Result};

/// One log entry as received by the ingest path.
///
/// `tenant_id` and `ts` are first-class (they drive routing and LogBlock
/// partitioning); the remaining columns are positional values matching the
/// table schema minus its two leading key columns.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// Owning tenant.
    pub tenant_id: TenantId,
    /// Event time in epoch milliseconds.
    pub ts: Timestamp,
    /// Values for schema columns `2..` (everything after `tenant_id`, `ts`).
    pub fields: Vec<Value>,
}

impl LogRecord {
    /// Constructs a record.
    pub fn new(tenant_id: TenantId, ts: Timestamp, fields: Vec<Value>) -> Self {
        LogRecord { tenant_id, ts, fields }
    }

    /// Arity of the positional row `[tenant_id, ts, fields...]`.
    pub fn width(&self) -> usize {
        self.fields.len() + 2
    }

    /// The cells of the positional row, borrowed: what validation, the
    /// batch codec and the LogBlock builder walk instead of cloning the
    /// row with [`LogRecord::to_row`].
    pub fn cells(&self) -> impl Iterator<Item = Cell<'_>> {
        (0..self.width()).map(|col| self.cell(col))
    }

    /// Cell `col` of the positional row `[tenant_id, ts, fields...]`,
    /// borrowed; a column past the record's fields reads as NULL.
    #[inline]
    pub fn cell(&self, col: usize) -> Cell<'_> {
        match col {
            0 => Cell::U64(self.tenant_id.raw()),
            1 => Cell::I64(self.ts.millis()),
            i => self.fields.get(i - 2).map_or(Cell::Null, Value::cell),
        }
    }

    /// Expands to a full positional row `[tenant_id, ts, fields...]`. Deep
    /// clones every field: for tests and tools, not for the write path.
    pub fn to_row(&self) -> Vec<Value> {
        let mut row = Vec::with_capacity(self.fields.len() + 2);
        row.push(Value::U64(self.tenant_id.raw()));
        row.push(Value::I64(self.ts.millis()));
        row.extend(self.fields.iter().cloned());
        row
    }

    /// Rebuilds a record from a full positional row; the values after the
    /// two keys move into the record.
    pub fn from_row(row: Vec<Value>) -> Result<Self> {
        let mut cells = row.into_iter();
        let (Some(tenant_id), Some(ts)) = (cells.next(), cells.next()) else {
            return Err(Error::invalid("row shorter than the two key columns"));
        };
        let tenant_id =
            tenant_id.as_u64().ok_or_else(|| Error::invalid("tenant_id column must be UInt64"))?;
        let ts = ts.as_i64().ok_or_else(|| Error::invalid("ts column must be Int64"))?;
        Ok(LogRecord { tenant_id: TenantId(tenant_id), ts: Timestamp(ts), fields: cells.collect() })
    }

    /// Validates the record against `schema` (which must include the two
    /// leading key columns), in place.
    pub fn validate(&self, schema: &TableSchema) -> Result<()> {
        schema.check_cells(self.width(), self.cells())
    }

    /// Approximate wire size, used for traffic accounting and backpressure.
    pub fn approx_size(&self) -> usize {
        16 + self.fields.iter().map(Value::approx_size).sum::<usize>()
    }
}

/// A batch of records ingested together (the paper's write-latency
/// measurements use batches of 1000 entries).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordBatch {
    /// The records.
    pub records: Vec<LogRecord>,
}

impl RecordBatch {
    /// An empty batch.
    pub fn new() -> Self {
        RecordBatch { records: Vec::new() }
    }

    /// Wraps a vector of records.
    pub fn from_records(records: Vec<LogRecord>) -> Self {
        RecordBatch { records }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total approximate size in bytes.
    pub fn approx_size(&self) -> usize {
        self.records.iter().map(LogRecord::approx_size).sum()
    }
}

impl FromIterator<LogRecord> for RecordBatch {
    fn from_iter<I: IntoIterator<Item = LogRecord>>(iter: I) -> Self {
        RecordBatch { records: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;

    fn sample(t: u64, ts: i64) -> LogRecord {
        LogRecord::new(
            TenantId(t),
            Timestamp(ts),
            vec![
                Value::from("10.0.0.1"),
                Value::from("/api/v1"),
                Value::I64(12),
                Value::Bool(false),
                Value::from("GET /api/v1 ok"),
            ],
        )
    }

    #[test]
    fn row_roundtrip() {
        let r = sample(7, 1234);
        let row = r.to_row();
        assert_eq!(row[0], Value::U64(7));
        assert_eq!(row[1], Value::I64(1234));
        // `cell` reads the same positional row by reference, NULL beyond it.
        let cells: Vec<Value> = (0..row.len()).map(|c| r.cell(c).to_value()).collect();
        assert_eq!(cells, row);
        assert_eq!(r.cell(row.len()), Cell::Null);
        assert_eq!(LogRecord::from_row(row).unwrap(), r);
    }

    #[test]
    fn from_row_rejects_bad_keys() {
        assert!(LogRecord::from_row(vec![Value::I64(1)]).is_err());
        assert!(LogRecord::from_row(vec![Value::from("x"), Value::I64(1)]).is_err());
        assert!(LogRecord::from_row(vec![Value::U64(1), Value::from("x")]).is_err());
    }

    #[test]
    fn validates_against_request_log_schema() {
        let schema = TableSchema::request_log();
        assert!(sample(1, 1).validate(&schema).is_ok());
        let mut bad = sample(1, 1);
        bad.fields.pop();
        assert!(bad.validate(&schema).is_err());
    }

    /// In-place validation accepts and rejects exactly what the row-shaped
    /// check does on `to_row()`, with the same message: wrong arity (short
    /// and long), wrong type in a key and in a field, NULL in a NOT NULL
    /// column, NULL in a nullable one.
    #[test]
    fn validate_agrees_with_check_row_on_the_expanded_row() {
        use crate::schema::ColumnSchema;
        use crate::value::DataType;
        let strict = TableSchema::new(
            "strict",
            vec![
                ColumnSchema::new("tenant_id", DataType::UInt64).not_null(),
                ColumnSchema::new("ts", DataType::Int64).not_null(),
                ColumnSchema::new("a", DataType::String).not_null(),
                ColumnSchema::new("b", DataType::Int64),
            ],
        )
        .unwrap();
        // A schema whose key columns have the wrong types: the keys
        // themselves must be checked, not assumed.
        let odd_keys = TableSchema::new(
            "odd",
            vec![
                ColumnSchema::new("tenant_id", DataType::Int64),
                ColumnSchema::new("ts", DataType::String),
            ],
        )
        .unwrap();
        let rec = |fields: Vec<Value>| LogRecord::new(TenantId(3), Timestamp(9), fields);
        let cases = [
            rec(vec![Value::from("x"), Value::I64(1)]),
            rec(vec![Value::from("x"), Value::Null]),
            rec(vec![Value::Null, Value::I64(1)]),
            rec(vec![Value::I64(1), Value::I64(1)]),
            rec(vec![Value::from("x"), Value::U64(1)]),
            rec(vec![Value::from("x")]),
            rec(vec![Value::from("x"), Value::I64(1), Value::Bool(true)]),
            rec(vec![]),
            sample(1, 1),
        ];
        let mut rejected = 0;
        for schema in [&strict, &odd_keys, &TableSchema::request_log()] {
            for r in &cases {
                let (got, want) = (r.validate(schema), schema.check_row(&r.to_row()));
                assert_eq!(
                    got.as_ref().map_err(ToString::to_string),
                    want.as_ref().map_err(ToString::to_string),
                    "{r:?} against '{}'",
                    schema.name
                );
                rejected += usize::from(got.is_err());
            }
        }
        assert!(rejected > 10 && rejected < 3 * cases.len(), "both verdicts must be exercised");
    }

    #[test]
    fn batch_len_and_size() {
        let b = RecordBatch::from_records(vec![sample(1, 5), sample(1, 2), sample(2, 9)]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.approx_size(), 3 * sample(1, 5).approx_size());
        assert!(RecordBatch::new().is_empty());
    }
}
