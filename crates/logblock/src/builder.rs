//! Building LogBlocks from column batches.
//!
//! Every LogBlock is built through one input, [`LogBlockBuilder::add`]:
//! typed column batches and a selection of `(batch, row)` pairs — a drain's
//! runs and a chunk's ts-sorted rows, or a compaction source's decoded
//! block whole. The builder cuts column blocks every `block_rows` rows,
//! keeps SMAs at both granularities, builds the per-column indexes and
//! emits one packed object with the time range its `ts` SMA records
//! ([`LogBlockBuilder::finish_timed`]). An index is only written where it
//! answers something the SMAs do not: a BKD column with no NULL that
//! arrived in non-decreasing order — checked on every build, so a merge of
//! overlapping sources keeps its tree — is left out, and its `ColumnMeta`
//! says `IndexKind::None`.
//!
//! Columns are **gathered**: a batch is checked once, then each column of
//! a `block_rows` segment is copied in one typed loop ([`crate::column`]'s
//! one encoder) that folds the block SMA and feeds the column's index
//! writer. The caller keeps its batches: the data builder hands a drain's
//! runs back if the upload fails.

use crate::column::{PendingBlock, Visit};
use crate::meta::{
    col_member, index_data_member, index_member, time_range, BlockMeta, ColumnMeta, LogBlockMeta,
    META_MEMBER,
};
use crate::pack::PackWriter;
use logstore_codec::{Compression, Compressor};
use logstore_index::bkd::u64_to_ord;
use logstore_index::{BkdWriter, InvertedIndexWriter, Sma};
use logstore_types::{
    Cell, ColumnVec, DataType, Error, IndexKind, Result, TableSchema, TimeRange, Value,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default rows per column block.
pub const DEFAULT_BLOCK_ROWS: usize = 4096;

enum IndexState {
    None,
    Inverted(InvertedIndexWriter),
    /// Tokens only — no whole-value exact terms (free-text columns).
    FullText(InvertedIndexWriter),
    Bkd(BkdWriter),
}

struct ColumnState {
    /// The column block being filled, and its SMA so far.
    pending: PendingBlock,
    pending_sma: Sma,
    data: Vec<u8>,
    blocks: Vec<BlockMeta>,
    sma: Sma,
    index: IndexState,
}

/// What one column's gather folds its cells into: the segment's NULLs and
/// extremes, borrowed from its batches, and the column's index writer.
struct Fold<'a, 's> {
    first_row: u32,
    index: &'s mut IndexState,
    nulls: u32,
    extremes: Option<(Cell<'a>, Cell<'a>)>,
}

impl<'a> Fold<'a, '_> {
    /// Folds a non-null cell into the extremes: one comparison for most
    /// cells, as a new minimum is no new maximum.
    fn extreme(&mut self, cell: Cell<'a>) {
        match &mut self.extremes {
            Some((lo, _)) if cell.total_cmp(*lo).is_lt() => *lo = cell,
            Some((_, hi)) if cell.total_cmp(*hi).is_gt() => *hi = cell,
            Some(_) => {}
            None => self.extremes = Some((cell, cell)),
        }
    }
}

impl<'a> Visit<'a> for Fold<'a, '_> {
    fn cell(&mut self, row: usize, cell: Cell<'a>) {
        let row_id = self.first_row + row as u32;
        match (cell, &mut *self.index) {
            (Cell::Null, _) => {
                self.nulls += 1;
                return;
            }
            (Cell::I64(v), IndexState::Bkd(w)) => w.add(v, row_id),
            (Cell::U64(v), IndexState::Bkd(w)) => w.add(u64_to_ord(v), row_id),
            _ => {}
        }
        self.extreme(cell);
    }

    fn bytes(&mut self, row: usize, bytes: &'a [u8]) {
        let row_id = self.first_row + row as u32;
        match &mut *self.index {
            IndexState::Inverted(w) => w.add(row_id, bytes),
            IndexState::FullText(w) => w.add_text(row_id, bytes),
            IndexState::None | IndexState::Bkd(_) => {}
        }
        // Bytes order as text does: only a cell past the extremes so far is
        // read as text (and one that is not UTF-8 is left out of the SMA).
        let inside = matches!(self.extremes, Some((Cell::Str(lo), Cell::Str(hi)))
            if (lo.as_bytes()..=hi.as_bytes()).contains(&bytes));
        if !inside {
            if let Ok(text) = std::str::from_utf8(bytes) {
                self.extreme(Cell::Str(text));
            }
        }
    }
}

/// Where a builder's time went, for the engine's archive stage timers:
/// the rest of a build is `add` (index terms, SMAs, column gathers).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BuildTimes {
    /// Encoding column blocks: the column codec and its compression.
    pub encode: Duration,
    /// [`LogBlockBuilder::finish`] apart from its last blocks' encoding:
    /// index dictionaries and postings, metadata, the pack.
    pub finish: Duration,
}

/// Accumulates rows and serializes a LogBlock pack.
pub struct LogBlockBuilder {
    schema: Arc<TableSchema>,
    compression: Compression,
    block_rows: usize,
    columns: Vec<ColumnState>,
    row_count: u32,
    /// Reused by every column block this builder encodes.
    compressor: Compressor,
    times: BuildTimes,
}

impl LogBlockBuilder {
    /// Creates a builder with the default compression and block size.
    pub fn new(schema: TableSchema) -> Self {
        Self::with_options(schema, Compression::default(), DEFAULT_BLOCK_ROWS)
    }

    /// Creates a builder with explicit compression and rows-per-block.
    /// Accepts an owned schema or an `Arc` of one: a caller building many
    /// blocks of one table (the data builder) shares a single copy.
    pub fn with_options(
        schema: impl Into<Arc<TableSchema>>,
        compression: Compression,
        block_rows: usize,
    ) -> Self {
        assert!(block_rows > 0, "block_rows must be positive");
        let schema = schema.into();
        let columns = schema
            .columns
            .iter()
            .map(|c| ColumnState {
                pending: PendingBlock::new(c.data_type),
                pending_sma: Sma::new(),
                data: Vec::new(),
                blocks: Vec::new(),
                sma: Sma::new(),
                index: match c.index {
                    IndexKind::None => IndexState::None,
                    IndexKind::Inverted => IndexState::Inverted(InvertedIndexWriter::new()),
                    IndexKind::FullText => IndexState::FullText(InvertedIndexWriter::new()),
                    IndexKind::Bkd => IndexState::Bkd(BkdWriter::new()),
                },
            })
            .collect();
        LogBlockBuilder {
            schema,
            compression,
            block_rows,
            columns,
            row_count: 0,
            compressor: Compressor::default(),
            times: BuildTimes::default(),
        }
    }

    /// Appends one row (positional, matching the schema) as a one-row
    /// batch.
    pub fn add_row(&mut self, row: &[Value]) -> Result<()> {
        self.schema.check_row(row)?;
        let mut batch: Vec<ColumnVec> =
            self.schema.columns.iter().map(|c| ColumnVec::empty(c.data_type)).collect();
        batch.iter_mut().zip(row).for_each(|(column, value)| {
            column.push_exact(value.cell());
        });
        self.add(&[&batch], &[(0, 0)])
    }

    /// Appends the selected `rows`, in order: `(batch, row)` pairs into
    /// `batches`, each one [`ColumnVec`] per schema column. Every batch —
    /// its width, column types and lengths, no NULL in a NOT NULL column —
    /// and every pair is checked first; a failure adds no row
    /// (`InvalidArgument`).
    pub fn add(&mut self, batches: &[&[ColumnVec]], rows: &[(u32, u32)]) -> Result<()> {
        self.check(batches, rows)?;
        let mut rows = rows;
        while !rows.is_empty() {
            let room = self.block_rows - self.columns[0].pending.len();
            let (segment, rest) = rows.split_at(room.min(rows.len()));
            for (col, state) in self.columns.iter_mut().enumerate() {
                let (index, first_row) = (&mut state.index, self.row_count);
                let mut fold = Fold { first_row, index, nulls: 0, extremes: None };
                state.pending.gather(batches, col, segment, &mut fold);
                state.pending_sma.fold(segment.len() as u32, fold.nulls, fold.extremes);
            }
            self.row_count += segment.len() as u32;
            if self.columns[0].pending.len() >= self.block_rows {
                self.cut_blocks();
            }
            rows = rest;
        }
        Ok(())
    }

    /// Checks `batches` against the schema and `rows` against `batches`,
    /// once per call.
    fn check(&self, batches: &[&[ColumnVec]], rows: &[(u32, u32)]) -> Result<()> {
        if rows.len() > (u32::MAX - self.row_count) as usize {
            return Err(Error::invalid("logblock row limit reached"));
        }
        let columns = &self.schema.columns;
        for batch in batches {
            let len = batch.first().map_or(0, ColumnVec::len);
            if batch.len() != columns.len() || batch.iter().any(|column| column.len() != len) {
                return Err(Error::invalid(
                    "a batch is one column per schema column, of one length",
                ));
            }
            for (column, col) in batch.iter().zip(columns) {
                if column.data_type() != col.data_type || (column.has_nulls() && !col.nullable) {
                    return Err(Error::invalid(format!("a batch does not fit column {col:?}")));
                }
            }
        }
        let numeric = |dtype| matches!(dtype, DataType::Int64 | DataType::UInt64);
        if !rows.is_empty()
            && columns.iter().any(|c| c.index == IndexKind::Bkd && !numeric(c.data_type))
        {
            return Err(Error::invalid("bkd index on non-numeric column"));
        }
        let outside = |&(batch, row): &(u32, u32)| {
            let rows = batches.get(batch as usize).and_then(|batch| batch.first());
            rows.is_none_or(|column| row as usize >= column.len())
        };
        if rows.iter().any(outside) {
            return Err(Error::invalid("a selected row outside its batches"));
        }
        Ok(())
    }

    fn cut_blocks(&mut self) {
        let n = self.columns[0].pending.len();
        if n == 0 {
            return;
        }
        let start = Instant::now();
        let row_start = self.row_count - n as u32;
        for state in &mut self.columns {
            debug_assert_eq!(state.pending.len(), n, "columns out of step");
            let offset = state.data.len();
            state.pending.encode_into(self.compression, &mut self.compressor, &mut state.data);
            let sma = std::mem::take(&mut state.pending_sma);
            state.sma.merge(&sma);
            state.blocks.push(BlockMeta {
                row_start,
                row_count: n as u32,
                sma,
                offset: offset as u64,
                len: (state.data.len() - offset) as u64,
            });
        }
        self.times.encode += start.elapsed();
    }

    /// Serializes the LogBlock into pack bytes.
    pub fn finish(self) -> Result<Vec<u8>> {
        self.finish_timed().map(|(bytes, ..)| bytes)
    }

    /// [`LogBlockBuilder::finish`], also returning the range of the block's
    /// `ts` column as its SMA records it ([`LogBlockMeta::time_range`]:
    /// `None` for a block of no rows or of a schema without `ts`) and where
    /// the build's time went.
    pub fn finish_timed(mut self) -> Result<(Vec<u8>, Option<TimeRange>, BuildTimes)> {
        self.cut_blocks();
        let start = Instant::now();
        let mut pack = PackWriter::new();
        let mut column_metas = Vec::with_capacity(self.columns.len());
        let mut index_payloads = Vec::with_capacity(self.columns.len());
        for (state, col) in self.columns.into_iter().zip(&self.schema.columns) {
            let (index, index_bytes) = match state.index {
                IndexState::None => (IndexKind::None, None),
                IndexState::Inverted(w) | IndexState::FullText(w) => {
                    (col.index, Some(w.finish_split(self.row_count)))
                }
                // A column sorted in its block needs no tree: its column
                // blocks' SMAs are disjoint fences already, so a range or
                // an equality decodes at most its edge blocks.
                IndexState::Bkd(w) if w.is_sorted() && state.sma.null_count == 0 => {
                    (IndexKind::None, None)
                }
                IndexState::Bkd(w) => (col.index, Some(w.finish_split())),
            };
            column_metas.push(ColumnMeta {
                compression: self.compression,
                sma: state.sma,
                index,
                blocks: state.blocks,
            });
            index_payloads.push((index_bytes, state.data));
        }
        let time_range = time_range(&self.schema, &column_metas);
        let meta = LogBlockMeta::serialize_parts(&self.schema, self.row_count, &column_metas);
        pack.add(META_MEMBER, meta)?;
        for (i, (index_bytes, data)) in index_payloads.into_iter().enumerate() {
            if let Some((dict, blob)) = index_bytes {
                pack.add(index_member(i), dict)?;
                pack.add(index_data_member(i), blob)?;
            }
            pack.add(col_member(i), data)?;
        }
        let bytes = pack.finish();
        self.times.finish = start.elapsed();
        Ok((bytes, time_range, self.times))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::LogBlockHandle;

    fn sample_row(t: u64, ts: i64, ip: &str, latency: i64) -> Vec<Value> {
        vec![
            Value::U64(t),
            Value::I64(ts),
            Value::from(ip),
            Value::from("/api/v1"),
            Value::I64(latency),
            Value::Bool(latency > 200),
            Value::from(format!("request from {ip} took {latency}ms")),
        ]
    }

    #[test]
    fn builds_non_empty_pack() {
        let mut b =
            LogBlockBuilder::with_options(TableSchema::request_log(), Compression::LzHigh, 16);
        // Tenants and times out of order, as in a merge of overlapping
        // blocks: both numeric columns keep their trees.
        for i in 0..100 {
            b.add_row(&sample_row(i as u64 % 3, 1000 + (i ^ 1), "10.0.0.1", i)).unwrap();
        }
        let bytes = b.finish().unwrap();
        let handle = LogBlockHandle::open(&bytes).unwrap();
        let pack = handle.manifest();
        // meta + 7 columns + 5 indexes x 2 members each (latency is
        // unindexed by choice, bool columns carry no index).
        assert_eq!(pack.members().len(), 1 + 7 + 5 * 2);
        assert!(pack.entry("index.4").is_none(), "latency must be unindexed");
        assert!(pack.entry("index.5").is_none(), "bool fail column has no index");
        let meta = handle.meta();
        assert_eq!(meta.row_count, 100);
        // 100 rows at 16 rows/block = 7 blocks per column.
        assert_eq!(meta.columns[0].blocks.len(), 7);
        assert_eq!(meta.columns[0].blocks[6].row_count, 4);
    }

    /// The per-block index tags of one numeric column of `values`,
    /// nullable and BKD-indexed, beside the pack's index members.
    fn numeric_index(values: &[Option<i64>]) -> (IndexKind, usize) {
        let schema =
            TableSchema::new("n", vec![logstore_types::ColumnSchema::new("n", DataType::Int64)])
                .unwrap();
        let mut b = LogBlockBuilder::with_options(schema, Compression::None, 2);
        for v in values {
            b.add_row(&[v.map_or(Value::Null, Value::I64)]).unwrap();
        }
        let handle = LogBlockHandle::open(&b.finish().unwrap()).unwrap();
        let members =
            handle.manifest().members().iter().filter(|m| m.name.starts_with("index.")).count();
        (handle.meta().columns[0].index, members)
    }

    #[test]
    fn a_numeric_column_sorted_in_its_block_gets_no_tree() {
        let none = (IndexKind::None, 0);
        assert_eq!(numeric_index(&[Some(1), Some(2), Some(2), Some(9), Some(10)]), none);
        assert_eq!(numeric_index(&[Some(7); 5]), none, "a constant column is sorted");
        assert_eq!(numeric_index(&[]), none);
        let tree = (IndexKind::Bkd, 2);
        assert_eq!(numeric_index(&[Some(1), Some(3), Some(2)]), tree);
        assert_eq!(numeric_index(&[Some(1), None, Some(3)]), tree, "a NULL keeps the tree");
    }

    #[test]
    fn schema_violations_rejected() {
        let mut b = LogBlockBuilder::new(TableSchema::request_log());
        assert!(b.add_row(&[Value::I64(1)]).is_err());
        let mut bad = sample_row(1, 1, "x", 1);
        bad[0] = Value::from("not-a-tenant");
        assert!(b.add_row(&bad).is_err());
        let bytes = b.finish().unwrap();
        assert_eq!(LogBlockHandle::open(&bytes).unwrap().meta().row_count, 0);
    }

    /// `rows` of `request_log` as one column batch.
    fn batch(rows: &[Vec<Value>]) -> Vec<ColumnVec> {
        let schema = TableSchema::request_log();
        let column = |(c, col): (usize, &logstore_types::ColumnSchema)| {
            let mut batch = ColumnVec::empty(col.data_type);
            rows.iter().for_each(|row| assert!(batch.push_exact(row[c].cell())));
            batch
        };
        schema.columns.iter().enumerate().map(column).collect()
    }

    #[test]
    fn a_batch_the_schema_refuses_adds_no_rows() {
        let mut b = LogBlockBuilder::with_options(TableSchema::request_log(), Compression::None, 4);
        let good = batch(&[sample_row(1, 10, "a", 1), sample_row(1, 11, "b", 2)]);
        b.add(&[&good], &crate::column::whole_batch(2)).unwrap();
        // `latency` as strings: the wrong type, though the selection only
        // reads the good batch's rows before it.
        let mut wrong_type = good.clone();
        wrong_type[4] = batch(&[sample_row(1, 12, "c", 3)])[2].clone();
        let refused = b.add(&[&good, &wrong_type], &[(0, 0), (1, 0)]);
        assert!(matches!(refused, Err(Error::InvalidArgument(_))), "{refused:?}");
        // A NULL in NOT NULL `tenant_id`.
        let mut null_key = good.clone();
        null_key[0] = ColumnVec::empty(DataType::UInt64);
        null_key[0].push_nulls(2);
        assert!(matches!(b.add(&[&null_key], &[(0, 1)]), Err(Error::InvalidArgument(_))));
        // Rows and batches that are not there.
        assert!(matches!(b.add(&[&good], &[(0, 2)]), Err(Error::InvalidArgument(_))));
        assert!(matches!(b.add(&[&good], &[(1, 0)]), Err(Error::InvalidArgument(_))));
        assert!(matches!(b.add(&[&good[..6]], &[(0, 0)]), Err(Error::InvalidArgument(_))));
        let bytes = b.finish().unwrap();
        let handle = LogBlockHandle::open(&bytes).unwrap();
        assert_eq!(handle.meta().row_count, 2, "only the good batch's rows");
        assert!(handle.meta().columns.iter().all(|c| c.sma.row_count == 2));
    }

    #[test]
    fn empty_builder_finishes() {
        let b = LogBlockBuilder::new(TableSchema::request_log());
        let bytes = b.finish().unwrap();
        let handle = LogBlockHandle::open(&bytes).unwrap();
        let meta = handle.meta();
        assert_eq!(meta.row_count, 0);
        assert!(meta.columns.iter().all(|c| c.blocks.is_empty()));
    }

    #[test]
    fn time_range_tracks_ts_column() {
        let mut b = LogBlockBuilder::new(TableSchema::request_log());
        for ts in [500i64, 100, 900] {
            b.add_row(&sample_row(1, ts, "ip", 1)).unwrap();
        }
        let (bytes, range, _) = b.finish_timed().unwrap();
        let handle = LogBlockHandle::open(&bytes).unwrap();
        let r = handle.meta().time_range().unwrap();
        assert_eq!(r.start.millis(), 100);
        assert_eq!(r.end.millis(), 900);
        assert_eq!(range, Some(r), "the builder returns the range the meta records");
        let (_, empty, _) =
            LogBlockBuilder::new(TableSchema::request_log()).finish_timed().unwrap();
        assert_eq!(empty, None);
    }
}
