//! Reading LogBlocks with lazy, range-based I/O.
//!
//! A LogBlock is read in two parts. A [`LogBlockHandle`] is everything
//! parsed from the object's header — the pack manifest, the `meta` member
//! and the index dictionaries, parsed on first use — and none of it
//! depends on where the bytes come from: LogBlocks are immutable, so one
//! handle serves every reader of the same object and is what the object
//! cache keeps across queries. A [`LogBlockReader`] pairs a handle with a
//! [`RangeSource`] and fetches indexes and column blocks by range only
//! when a query actually needs them.
//!
//! Because the handle states where every member lives, a caller that
//! holds one can compute all the ranges a scan will touch before reading
//! any of them (`logstore_query::ScanPlan::planned_members`) and fetch
//! them as one parallel wave. On that path data skipping is saved
//! wall-clock time, not only saved bytes: a column the SMAs decide is
//! never requested, and everything that is requested shares one OSS round
//! trip. A reader without that plan (the demand path) still downloads
//! only what it touches, but pays one round trip per cold range.

use crate::column::{decode_block, decode_block_into};
use crate::meta::{
    col_member, index_data_member, index_member, BlockMeta, LogBlockMeta, META_MEMBER,
};
use crate::pack::{PackManifest, RangeSource};
use crate::scan::DecodeStats;
use logstore_index::inverted::TermKind;
use logstore_index::{BkdDictReader, InvertedDictReader, RowIdSet};
use logstore_sync::OrderedMutex;
use logstore_types::{Cell, ColumnVec, DataType, Error, IndexKind, Result, TableSchema, Value};
use std::collections::HashMap;
use std::sync::Arc;

enum CachedDict {
    Inverted(InvertedDictReader),
    Bkd(BkdDictReader),
}

/// The parsed, source-independent header of one LogBlock (the paper's
/// "meta and index objects"). Immutable once opened, apart from the
/// dictionary memo; shared by `Arc`.
pub struct LogBlockHandle {
    manifest: PackManifest,
    meta: LogBlockMeta,
    // Index dictionaries parsed on first use; postings/leaves are always
    // range-read per lookup (the OSS-friendly access pattern). Never held
    // across I/O: the member read happens between the two lock scopes.
    dicts: OrderedMutex<HashMap<usize, Arc<CachedDict>>>,
}

impl std::fmt::Debug for LogBlockHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogBlockHandle").field("rows", &self.meta.row_count).finish_non_exhaustive()
    }
}

impl LogBlockHandle {
    /// Reads and validates the manifest and the `meta` member of `source`.
    pub fn open<S: RangeSource + ?Sized>(source: &S) -> Result<Self> {
        let manifest = PackManifest::read(source)?;
        let meta = LogBlockMeta::deserialize(&manifest.read_member_shared(source, META_MEMBER)?)?;
        // The planner names index members from the meta alone: every index
        // the meta names must be in the pack.
        let indexed = meta.columns.iter().enumerate().filter(|(_, cm)| cm.index != IndexKind::None);
        for (col, _) in indexed {
            if [index_member(col), index_data_member(col)]
                .iter()
                .any(|m| manifest.entry(m).is_none())
            {
                return Err(Error::corruption(format!("column {col}'s index is not in the pack")));
            }
        }
        let dicts = OrderedMutex::new("logblock.reader.dicts", HashMap::new());
        Ok(LogBlockHandle { manifest, meta, dicts })
    }

    /// Where every member lives inside the object.
    pub fn manifest(&self) -> &PackManifest {
        &self.manifest
    }

    /// The block's metadata.
    pub fn meta(&self) -> &LogBlockMeta {
        &self.meta
    }

    /// What a cache should charge for keeping this handle: the serialized
    /// size of everything it holds or may come to hold — prologue and
    /// manifest, the `meta` member, and every index dictionary member.
    /// Fixed at open, so the charge never changes while the handle is
    /// cached.
    pub fn charge_bytes(&self) -> usize {
        let dicts = (0..self.meta.columns.len()).map(index_member);
        let members = std::iter::once(META_MEMBER.to_string()).chain(dicts);
        let bytes: u64 = members.filter_map(|name| self.manifest.entry(&name)).map(|m| m.len).sum();
        (self.manifest.payload_start() + bytes) as usize
    }

    fn dict<S: RangeSource>(&self, source: &S, col: usize) -> Result<Arc<CachedDict>> {
        if let Some(dict) = self.dicts.lock().get(&col) {
            return Ok(Arc::clone(dict));
        }
        let cm = self
            .meta()
            .columns
            .get(col)
            .ok_or_else(|| Error::invalid(format!("column {col} out of range")))?;
        // The block's own index tag, not the schema's: a column sorted in
        // its block carries none.
        if cm.index == IndexKind::None {
            return Err(Error::invalid(format!("column {col} has no index")));
        }
        let bytes = self.manifest.read_member_shared(source, &index_member(col))?;
        let dict = match cm.index {
            IndexKind::Bkd => CachedDict::Bkd(BkdDictReader::open(&bytes)?),
            _ => CachedDict::Inverted(InvertedDictReader::open(&bytes)?),
        };
        let dict = Arc::new(dict);
        self.dicts.lock().insert(col, Arc::clone(&dict));
        Ok(dict)
    }
}

/// Reads one LogBlock: a [`LogBlockHandle`] over a [`RangeSource`].
pub struct LogBlockReader<S> {
    pub(crate) source: S,
    pub(crate) handle: Arc<LogBlockHandle>,
}

impl<S: RangeSource> LogBlockReader<S> {
    /// Opens a LogBlock: reads manifest + meta member.
    pub fn open(source: S) -> Result<Self> {
        let handle = Arc::new(LogBlockHandle::open(&source)?);
        Ok(LogBlockReader { source, handle })
    }

    /// A reader over `source` for a LogBlock whose header is already
    /// parsed: no I/O. `handle` must have been opened from the same object.
    pub fn with_handle(source: S, handle: Arc<LogBlockHandle>) -> Self {
        LogBlockReader { source, handle }
    }

    /// The block's metadata.
    pub fn meta(&self) -> &LogBlockMeta {
        &self.handle.meta
    }

    /// The embedded schema.
    pub fn schema(&self) -> &TableSchema {
        &self.handle.meta.schema
    }

    /// Total rows in the block.
    pub fn row_count(&self) -> u32 {
        self.handle.meta.row_count
    }

    fn dict(&self, col: usize) -> Result<Arc<CachedDict>> {
        self.handle.dict(&self.source, col)
    }

    fn read_member_range(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.handle.manifest.read_member_range(&self.source, name, offset, len)
    }

    /// Lazy exact-term lookup on a string column's inverted index: reads
    /// the dictionary (cached per reader) and the one posting list.
    pub fn index_lookup_exact(&self, col: usize, value: &str) -> Result<RowIdSet> {
        self.inverted_lookup(col, TermKind::Exact, value)
    }

    /// Lazy token lookup (full-text CONTAINS).
    pub fn index_lookup_token(&self, col: usize, token: &str) -> Result<RowIdSet> {
        self.inverted_lookup(col, TermKind::Token, &token.to_ascii_lowercase())
    }

    fn inverted_lookup(&self, col: usize, kind: TermKind, term: &str) -> Result<RowIdSet> {
        let dict = self.dict(col)?;
        let CachedDict::Inverted(dict) = dict.as_ref() else {
            return Err(Error::invalid(format!("column {col} has no inverted index")));
        };
        match dict.lookup_range(kind, term) {
            Some((offset, len)) => {
                let bytes =
                    self.read_member_range(&index_data_member(col), offset as u64, len as u64)?;
                InvertedDictReader::decode_postings(&bytes, self.row_count())
            }
            None => Ok(RowIdSet::empty(self.row_count())),
        }
    }

    /// Lazy BKD range query on a numeric column: reads the fence array
    /// (cached per reader) and only the intersecting leaves.
    pub fn index_query_range(&self, col: usize, lo: i64, hi: i64) -> Result<RowIdSet> {
        let dict = self.dict(col)?;
        let CachedDict::Bkd(dict) = dict.as_ref() else {
            return Err(Error::invalid(format!("column {col} has no bkd index")));
        };
        let mut out = RowIdSet::empty(self.row_count());
        for (offset, len) in dict.leaf_ranges(lo, hi) {
            let bytes =
                self.read_member_range(&index_data_member(col), offset as u64, len as u64)?;
            dict.scan_leaf_bytes(&bytes, lo, hi, &mut out)?;
        }
        Ok(out)
    }

    fn block_meta(&self, col: usize, block: usize) -> Result<(&BlockMeta, DataType)> {
        let cm = self
            .meta()
            .columns
            .get(col)
            .ok_or_else(|| Error::invalid(format!("column {col} out of range")))?;
        let bm = cm
            .blocks
            .get(block)
            .ok_or_else(|| Error::invalid(format!("block {block} out of range")))?;
        Ok((bm, self.schema().columns[col].data_type))
    }

    /// Loads and decodes one column block into one boxed [`Value`] per row:
    /// the row-at-a-time oracle of [`LogBlockReader::read_block_vec`], used
    /// by the reference scan and by tests only.
    pub fn read_block_values(&self, col: usize, block: usize) -> Result<Vec<Value>> {
        let (bm, dtype) = self.block_meta(col, block)?;
        let bytes = self.read_member_range(&col_member(col), bm.offset, bm.len)?;
        decode_block(dtype, &bytes, bm.row_count)
    }

    /// Loads and decodes one column block into a reusable typed batch.
    pub fn read_block_vec(&self, col: usize, block: usize, out: &mut ColumnVec) -> Result<()> {
        let (bm, dtype) = self.block_meta(col, block)?;
        let bytes = self.read_member_range(&col_member(col), bm.offset, bm.len)?;
        decode_block_into(dtype, &bytes, bm.row_count, out)
    }

    /// The output half of a scan (Fig 8: "merge the row-id sets, *then*
    /// load the matching rows"): for each of `columns`, in order, decodes
    /// only the column blocks that hold at least one of the sorted
    /// `row_ids` and hands `visit` every matched cell as
    /// `(position in columns, position in row_ids, cell)`. Cells borrow
    /// from one reused batch, so nothing is allocated per row; what to
    /// keep is the visitor's decision. Volume is recorded in `decode`.
    pub fn gather(
        &self,
        row_ids: &[u32],
        columns: &[usize],
        decode: &mut DecodeStats,
        mut visit: impl FnMut(usize, usize, Cell<'_>),
    ) -> Result<()> {
        debug_assert!(row_ids.windows(2).all(|w| w[0] < w[1]), "row ids must be sorted");
        let mut batch = ColumnVec::default();
        for (c, &col) in columns.iter().enumerate() {
            let cm = self
                .meta()
                .columns
                .get(col)
                .ok_or_else(|| Error::invalid(format!("column {col} out of range")))?;
            let mut i = 0; // cursor into row_ids
            for (bi, bm) in cm.blocks.iter().enumerate() {
                // The blocks tile the rows in order (`LogBlockMeta`'s
                // parse): every id below this block's start was consumed
                // by an earlier block.
                let Some(&next) = row_ids.get(i) else { break };
                let block_end = bm.row_start + bm.row_count;
                if next >= block_end {
                    continue;
                }
                self.read_block_vec(col, bi, &mut batch)?;
                decode.output_blocks_decoded += 1;
                let first = i;
                while let Some(&id) = row_ids.get(i).filter(|id| **id < block_end) {
                    visit(c, i, batch.cell((id - bm.row_start) as usize));
                    i += 1;
                }
                decode.cells_materialized += (i - first) as u64;
            }
            if i != row_ids.len() {
                return Err(Error::invalid("row id beyond block rows"));
            }
        }
        Ok(())
    }

    /// Materializes full rows for sorted `row_ids`, reading only the blocks
    /// that contain them, restricted to `projection` column indices: one
    /// [`Value`] per matched cell of [`LogBlockReader::gather`].
    pub fn read_rows(&self, row_ids: &[u32], projection: &[usize]) -> Result<Vec<Vec<Value>>> {
        let mut rows = vec![Vec::new(); row_ids.len()];
        self.gather(row_ids, projection, &mut DecodeStats::default(), |_, i, cell| {
            rows[i].push(cell.to_value())
        })?;
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LogBlockBuilder;
    use logstore_codec::Compression;
    use logstore_types::{CmpOp, TableSchema};

    fn build_block(rows: usize, block_rows: usize) -> Vec<u8> {
        let mut b = LogBlockBuilder::with_options(
            TableSchema::request_log(),
            Compression::LzHigh,
            block_rows,
        );
        for i in 0..rows {
            b.add_row(&[
                Value::U64(i as u64 % 3),
                Value::I64(1000 + i as i64),
                Value::from(format!("10.0.0.{}", i % 5)),
                Value::from(if i % 2 == 0 { "/api/users" } else { "/api/orders" }),
                Value::I64((i as i64 * 7) % 500),
                Value::Bool(i % 10 == 0),
                Value::from(format!("req {i} handled ok")),
            ])
            .unwrap();
        }
        b.finish().unwrap()
    }

    /// Every row of `r`, columns `projection`.
    fn all_rows<S: RangeSource>(r: &LogBlockReader<S>, projection: &[usize]) -> Vec<Vec<Value>> {
        let ids: Vec<u32> = (0..r.row_count()).collect();
        r.read_rows(&ids, projection).unwrap()
    }

    #[test]
    fn open_and_read_columns() {
        let r = LogBlockReader::open(build_block(100, 16)).unwrap();
        assert_eq!(r.row_count(), 100);
        let rows = all_rows(&r, &[1, 2]);
        assert_eq!(rows.len(), 100);
        assert_eq!(rows[0][0], Value::I64(1000));
        assert_eq!(rows[99][0], Value::I64(1099));
        assert_eq!(rows[7][1], Value::from("10.0.0.2"));
    }

    #[test]
    fn one_handle_serves_many_readers_without_reopening() {
        let bytes = build_block(100, 16);
        let first = LogBlockReader::open(bytes.clone()).unwrap();
        let api_col = first.schema().column_index("api").unwrap();
        let expected = first.index_lookup_exact(api_col, "/api/users").unwrap();
        // A second reader over the same handle reads no header (an empty
        // prefix would fail to open) and reuses the parsed dictionary: the
        // `index.N` member range is never requested again.
        let dict_range =
            first.handle.manifest().member_object_range(&index_member(api_col)).unwrap();
        struct NoDict(Vec<u8>, (u64, u64));
        impl RangeSource for NoDict {
            fn read_at(&self, offset: u64, len: u64) -> Result<Vec<u8>> {
                assert!(
                    offset >= self.1 .0 + self.1 .1 || offset + len <= self.1 .0,
                    "dictionary re-read at {offset}+{len}"
                );
                assert!(offset >= crate::pack::PROLOGUE_LEN, "header re-read");
                self.0.read_at(offset, len)
            }
            fn size(&self) -> u64 {
                self.0.size()
            }
        }
        let second =
            LogBlockReader::with_handle(NoDict(bytes, dict_range), Arc::clone(&first.handle));
        assert_eq!(second.index_lookup_exact(api_col, "/api/users").unwrap(), expected);
        assert_eq!(all_rows(&second, &[1]), all_rows(&first, &[1]));
    }

    #[test]
    fn handle_charge_counts_header_and_dictionaries() {
        let r = LogBlockReader::open(build_block(100, 16)).unwrap();
        let manifest = r.handle.manifest();
        let dicts: u64 = manifest
            .members()
            .iter()
            .filter(|m| {
                ["index.0", "index.1", "index.2", "index.3", "index.6"].contains(&m.name.as_str())
            })
            .map(|m| m.len)
            .sum();
        assert!(dicts > 0);
        let meta = manifest.entry(META_MEMBER).unwrap().len;
        assert_eq!(r.handle.charge_bytes() as u64, manifest.payload_start() + meta + dicts);
    }

    #[test]
    fn read_single_blocks() {
        let r = LogBlockReader::open(build_block(100, 16)).unwrap();
        let block0 = r.read_block_values(1, 0).unwrap();
        assert_eq!(block0.len(), 16);
        let last = r.read_block_values(1, 6).unwrap();
        assert_eq!(last.len(), 4);
        assert!(r.read_block_values(1, 7).is_err());
        assert!(r.read_block_values(99, 0).is_err());
    }

    #[test]
    fn inverted_index_lookup_through_reader() {
        let r = LogBlockReader::open(build_block(50, 8)).unwrap();
        let api_col = r.schema().column_index("api").unwrap();
        let hits = r.index_lookup_exact(api_col, "/api/users").unwrap();
        assert_eq!(hits.to_vec(), (0..50).filter(|i| i % 2 == 0).collect::<Vec<u32>>());
        let token_hits = r.index_lookup_token(api_col, "ORDERS").unwrap();
        assert_eq!(token_hits.to_vec(), (0..50).filter(|i| i % 2 == 1).collect::<Vec<u32>>());
        assert!(r.index_query_range(api_col, 0, 1).is_err(), "api carries no bkd tree");
    }

    #[test]
    fn bkd_index_lookup_through_reader() {
        // `tenant_id` cycles 0, 1, 2: out of order, so it keeps its tree.
        let r = LogBlockReader::open(build_block(50, 8)).unwrap();
        let tenant_col = r.schema().column_index("tenant_id").unwrap();
        let one = logstore_index::bkd::u64_to_ord(1);
        let hits = r.index_query_range(tenant_col, one, one).unwrap();
        assert_eq!(hits.to_vec(), (0..50).filter(|i| i % 3 == 1).collect::<Vec<u32>>());
        let tenant = r.index_lookup_exact(tenant_col, "1");
        assert!(tenant.is_err(), "tenant_id carries no inverted index");
    }

    #[test]
    fn a_column_sorted_in_its_block_has_no_tree() {
        // `ts` ascends: its column blocks' SMAs answer what a tree would.
        let bytes = build_block(50, 8);
        let r = LogBlockReader::open(bytes).unwrap();
        let ts_col = r.schema().column_index("ts").unwrap();
        assert_eq!(r.schema().columns[ts_col].index, IndexKind::Bkd);
        assert_eq!(r.meta().columns[ts_col].index, IndexKind::None);
        assert!(r.handle.manifest().entry(&index_member(ts_col)).is_none());
        assert!(r.handle.manifest().entry(&index_data_member(ts_col)).is_none());
        assert!(r.index_query_range(ts_col, 1010, 1019).is_err());
    }

    #[test]
    fn unindexed_column_has_no_index_to_look_up() {
        let r = LogBlockReader::open(build_block(10, 8)).unwrap();
        let lat = r.schema().column_index("latency").unwrap();
        assert!(r.index_query_range(lat, 0, 500).is_err());
        assert!(r.index_lookup_exact(lat, "7").is_err());
    }

    #[test]
    fn read_rows_projects_and_aligns() {
        let r = LogBlockReader::open(build_block(100, 16)).unwrap();
        let rows = r.read_rows(&[0, 17, 99], &[1, 2]).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], vec![Value::I64(1000), Value::from("10.0.0.0")]);
        assert_eq!(rows[1], vec![Value::I64(1017), Value::from("10.0.0.2")]);
        assert_eq!(rows[2], vec![Value::I64(1099), Value::from("10.0.0.4")]);
    }

    #[test]
    fn read_rows_out_of_range_rejected() {
        let r = LogBlockReader::open(build_block(10, 4)).unwrap();
        assert!(r.read_rows(&[10], &[0]).is_err());
    }

    #[test]
    fn sma_pruning_data_available() {
        let r = LogBlockReader::open(build_block(100, 16)).unwrap();
        let ts_col = r.schema().column_index("ts").unwrap();
        let cm = &r.meta().columns[ts_col];
        // ts block 0 covers 1000..=1015; a predicate ts >= 2000 must be
        // prunable from its SMA alone.
        assert!(!cm.blocks[0].sma.may_match(CmpOp::Ge, &Value::I64(2000)));
        assert!(cm.blocks[0].sma.may_match(CmpOp::Ge, &Value::I64(1010)));
    }
}
