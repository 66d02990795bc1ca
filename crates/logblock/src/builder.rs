//! Building LogBlocks from rows.
//!
//! Every LogBlock the engine writes is built from column batches through
//! one input, [`LogBlockBuilder::add_cells`]: the data builder feeds it the
//! rows of a drain's real-time runs (all of one tenant, in timestamp
//! order), and compaction the rows of its sources' decoded column blocks.
//! The builder cuts column blocks every `block_rows` rows, maintains SMAs
//! at both granularities, builds the per-column indexes and finally emits
//! one packed object ready for upload, with the time range its `ts` SMA
//! records ([`LogBlockBuilder::finish_timed`]).
//!
//! Rows are read **by reference**. A cell is looked at once — indexed,
//! folded into the block SMA, and its bytes copied into the column's typed
//! pending buffer ([`crate::column`]'s one encoder) — and the caller keeps
//! its rows: the data builder hands them back if the upload fails. Nothing
//! on this path clones a [`Value`] or builds a per-row `Vec`. A row of
//! owned values ([`LogBlockBuilder::add_row`], for tests and tools) is read
//! as borrowed [`Cell`]s the same way.

use crate::column::PendingBlock;
use crate::meta::{
    col_member, index_data_member, index_member, time_range, BlockMeta, ColumnMeta, LogBlockMeta,
    META_MEMBER,
};
use crate::pack::PackWriter;
use logstore_codec::{Compression, Compressor};
use logstore_index::bkd::u64_to_ord;
use logstore_index::{BkdWriter, InvertedIndexWriter, Sma};
use logstore_types::{Cell, DataType, Error, IndexKind, Result, TableSchema, TimeRange, Value};
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

/// Where a builder's time went, for the engine's archive stage timers:
/// the rest of a build is `add_*` (index terms, SMAs, column pushes).
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

    /// Appends one row (positional, matching the schema).
    pub fn add_row(&mut self, row: &[Value]) -> Result<()> {
        self.schema.check_row(row)?;
        self.push_cells(row.iter().map(Value::cell))
    }

    /// Appends one row of borrowed cells (positional, matching the schema):
    /// what a row of a real-time run or of a decoded column block is read
    /// as.
    pub fn add_cells(&mut self, row: &[Cell<'_>]) -> Result<()> {
        self.schema.check_cells(row.len(), row.iter().copied())?;
        self.push_cells(row.iter().copied())
    }

    /// Appends the cells of one row that already passed the schema check.
    fn push_cells<'a>(&mut self, cells: impl IntoIterator<Item = Cell<'a>>) -> Result<()> {
        if self.row_count == u32::MAX {
            return Err(Error::invalid("logblock row limit reached"));
        }
        let row_id = self.row_count;
        for (state, (cell, col)) in
            self.columns.iter_mut().zip(cells.into_iter().zip(&self.schema.columns))
        {
            match &mut state.index {
                IndexState::None => {}
                IndexState::Inverted(w) => {
                    if let Cell::Str(s) = cell {
                        w.add(row_id, s);
                    }
                }
                IndexState::FullText(w) => {
                    if let Cell::Str(s) = cell {
                        w.add_text(row_id, s);
                    }
                }
                IndexState::Bkd(w) => {
                    if !cell.is_null() {
                        let ord = match col.data_type {
                            DataType::Int64 => cell
                                .as_i64()
                                .ok_or_else(|| Error::invalid("int64 column with non-int value"))?,
                            DataType::UInt64 => u64_to_ord(cell.as_u64().ok_or_else(|| {
                                Error::invalid("uint64 column with non-uint value")
                            })?),
                            _ => return Err(Error::invalid("bkd index on non-numeric column")),
                        };
                        w.add(ord, row_id);
                    }
                }
            }
            state.pending_sma.update_cell(cell);
            state.pending.push(cell)?;
        }
        self.row_count += 1;
        if self.columns[0].pending.len() >= self.block_rows {
            self.cut_blocks();
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
            let index_bytes = match state.index {
                IndexState::None => None,
                IndexState::Inverted(w) | IndexState::FullText(w) => Some(w.finish_split()),
                IndexState::Bkd(w) => Some(w.finish_split()),
            };
            column_metas.push(ColumnMeta {
                compression: self.compression,
                sma: state.sma,
                index: col.index,
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
        for i in 0..100 {
            b.add_row(&sample_row(1, 1000 + i, "10.0.0.1", i)).unwrap();
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
