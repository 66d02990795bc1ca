//! Table and column schemas.
//!
//! Every LogBlock is *self-contained* (paper §3.2): it embeds its full
//! [`TableSchema`] so a block can be parsed after being renamed or moved.
//! Schemas are small and cloned freely behind `Arc` at higher layers.

use crate::value::{Cell, DataType, Value};
use crate::{Error, Result};

/// Which secondary index is built for a column inside a LogBlock.
///
/// The paper indexes *all* columns ("Full-column indexed and Skippable"):
/// strings get an inverted index, numerics a BKD tree. `None` is supported to
/// reproduce the paper's data-skipping example where a column (e.g.
/// `latency`) is left un-indexed and must fall back to SMA + scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// No per-column index; only SMA-based block skipping applies.
    None,
    /// Inverted (term → row ids) index with whole-value exact terms AND
    /// tokens; requires a string column. Right for keyword-like fields
    /// (ip, api) that are queried with equality.
    Inverted,
    /// Block KD-tree point index; requires a numeric column.
    Bkd,
    /// Inverted index with tokens only (no whole-value exact terms); right
    /// for free-text fields (log lines) where equality queries are rare
    /// and exact terms would duplicate the column inside the dictionary —
    /// the Lucene keyword-vs-text distinction.
    FullText,
}

impl IndexKind {
    /// Stable one-byte tag for on-disk formats.
    pub fn tag(self) -> u8 {
        match self {
            IndexKind::None => 0,
            IndexKind::Inverted => 1,
            IndexKind::Bkd => 2,
            IndexKind::FullText => 3,
        }
    }

    /// Inverse of [`IndexKind::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => IndexKind::None,
            1 => IndexKind::Inverted,
            2 => IndexKind::Bkd,
            3 => IndexKind::FullText,
            _ => return None,
        })
    }

    /// The default index for a data type, mirroring the paper's
    /// "inverted index and BKD tree index, corresponding to string type and
    /// numerical type respectively".
    pub fn default_for(dt: DataType) -> Self {
        match dt {
            DataType::String => IndexKind::Inverted,
            DataType::Int64 | DataType::UInt64 => IndexKind::Bkd,
            DataType::Bool => IndexKind::None,
        }
    }
}

/// Schema of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSchema {
    /// Column name; unique within a table, case-sensitive.
    pub name: String,
    /// Physical type.
    pub data_type: DataType,
    /// Whether NULLs may appear.
    pub nullable: bool,
    /// Index built inside each LogBlock for this column.
    pub index: IndexKind,
}

impl ColumnSchema {
    /// Creates a column with the default index for its type.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        ColumnSchema {
            name: name.into(),
            data_type,
            nullable: true,
            index: IndexKind::default_for(data_type),
        }
    }

    /// Disables indexing on this column.
    pub fn without_index(mut self) -> Self {
        self.index = IndexKind::None;
        self
    }

    /// Marks a string column as free text: tokens are indexed for CONTAINS
    /// but no whole-value exact terms are stored.
    pub fn full_text(mut self) -> Self {
        self.index = IndexKind::FullText;
        self
    }

    /// Marks the column NOT NULL.
    pub fn not_null(mut self) -> Self {
        self.nullable = false;
        self
    }

    /// Validates that `cell` may be stored in this column.
    pub fn check_cell(&self, cell: Cell<'_>) -> Result<()> {
        match cell.data_type() {
            None if self.nullable => Ok(()),
            None => Err(Error::invalid(format!("column '{}' is NOT NULL", self.name))),
            Some(dt) if dt == self.data_type => Ok(()),
            Some(dt) => Err(Error::invalid(format!(
                "column '{}' expects {} but got {}",
                self.name, self.data_type, dt
            ))),
        }
    }
}

/// Schema of a log table.
///
/// By convention the first two columns of every LogStore table are
/// `tenant_id: UInt64` and `ts: Int64` — the partition keys that organise
/// LogBlocks on object storage (paper §6.1).
#[derive(Debug, Clone, PartialEq)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<ColumnSchema>,
}

impl TableSchema {
    /// Creates a schema, validating column-name uniqueness.
    pub fn new(name: impl Into<String>, columns: Vec<ColumnSchema>) -> Result<Self> {
        let name = name.into();
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|p| p.name == c.name) {
                return Err(Error::invalid(format!("duplicate column '{}'", c.name)));
            }
        }
        Ok(TableSchema { name, columns })
    }

    /// The standard application-log table used throughout the paper's
    /// evaluation: `tenant_id, ts, ip, api, latency, fail, log`.
    ///
    /// `latency` is left un-indexed to reproduce the paper's Figure 8
    /// data-skipping walk-through, where an un-indexed column is pruned via
    /// per-block SMA and otherwise scanned.
    pub fn request_log() -> Self {
        TableSchema::new(
            "request_log",
            vec![
                ColumnSchema::new("tenant_id", DataType::UInt64).not_null(),
                ColumnSchema::new("ts", DataType::Int64).not_null(),
                ColumnSchema::new("ip", DataType::String),
                ColumnSchema::new("api", DataType::String),
                ColumnSchema::new("latency", DataType::Int64).without_index(),
                ColumnSchema::new("fail", DataType::Bool),
                ColumnSchema::new("log", DataType::String).full_text(),
            ],
        )
        .expect("static schema is valid")
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Finds a column index by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Finds a column by name.
    pub fn column(&self, name: &str) -> Option<&ColumnSchema> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Validates a full row against the schema.
    pub fn check_row(&self, row: &[Value]) -> Result<()> {
        self.check_cells(row.len(), row.iter().map(Value::cell))
    }

    /// [`TableSchema::check_row`] over borrowed cells that need not be
    /// contiguous: `len` is how many cells `cells` yields.
    pub fn check_cells<'a>(
        &self,
        len: usize,
        cells: impl IntoIterator<Item = Cell<'a>>,
    ) -> Result<()> {
        if len != self.columns.len() {
            return Err(Error::invalid(format!(
                "row has {len} values, table '{}' has {} columns",
                self.name,
                self.columns.len()
            )));
        }
        for (col, cell) in self.columns.iter().zip(cells) {
            col.check_cell(cell)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_log_shape() {
        let s = TableSchema::request_log();
        assert_eq!(s.width(), 7);
        assert_eq!(s.columns[0].name, "tenant_id");
        assert_eq!(s.columns[1].name, "ts");
        assert_eq!(s.column("latency").unwrap().index, IndexKind::None);
        assert_eq!(s.column("ip").unwrap().index, IndexKind::Inverted);
        assert_eq!(s.column("ts").unwrap().index, IndexKind::Bkd);
        assert_eq!(s.column("log").unwrap().index, IndexKind::FullText);
    }

    #[test]
    fn duplicate_columns_rejected() {
        let r = TableSchema::new(
            "t",
            vec![ColumnSchema::new("a", DataType::Int64), ColumnSchema::new("a", DataType::String)],
        );
        assert!(r.is_err());
    }

    #[test]
    fn check_row_validates_types_and_arity() {
        let s = TableSchema::new(
            "t",
            vec![
                ColumnSchema::new("a", DataType::Int64).not_null(),
                ColumnSchema::new("b", DataType::String),
            ],
        )
        .unwrap();
        assert!(s.check_row(&[Value::I64(1), Value::from("x")]).is_ok());
        assert!(s.check_row(&[Value::I64(1), Value::Null]).is_ok());
        assert!(s.check_row(&[Value::Null, Value::Null]).is_err()); // NOT NULL
        assert!(s.check_row(&[Value::from("x"), Value::Null]).is_err()); // type
        assert!(s.check_row(&[Value::I64(1)]).is_err()); // arity
    }

    #[test]
    fn index_kind_tags_roundtrip() {
        for k in [IndexKind::None, IndexKind::Inverted, IndexKind::Bkd, IndexKind::FullText] {
            assert_eq!(IndexKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(IndexKind::from_tag(9), None);
    }
}
