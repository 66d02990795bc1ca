//! The write-optimized real-time store.
//!
//! Phase one of the two-phase write keeps rows exactly as they arrive — no
//! indexes, no compression, one big arrival-ordered table shared by all
//! tenants (paper §3.1: "all log data is stored in a single huge table ...
//! to improve space efficiency and reduce random I/O"). The table is a
//! sequence of sealed, immutable [`Run`]s plus an open tail that inserts
//! append to, and every run is a column batch: one typed [`ColumnVec`] per
//! position of the positional row `[tenant_id, ts, fields...]`. An insert
//! copies a record's cells into the tail's columns; the record itself is
//! the caller's to drop, on the thread that allocated it.
//!
//! Queries over recent data take a [`RowSnapshot`] — the runs that can
//! hold their tenant and time range, by reference — and scan its columns
//! with no lock held. The data builder drains the table into per-tenant
//! LogBlocks: a drain hands over the runs themselves ([`Drained`]), and
//! [`partition_runs`] orders their rows into archive chunks by index.

use logstore_types::{
    Cell, ColumnData, ColumnVec, DataType, LogRecord, Result, TenantId, TimeRange, Timestamp,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Rows at which the open tail seals itself into a run: what bounds the
/// rows a query scans in one run and the size of one string arena.
pub const RUN_ROWS: usize = 4096;

/// What a run knows about its rows without looking at them: enough to tell
/// a query that it has nothing for it.
#[derive(Debug)]
struct RunStats {
    min_ts: i64,
    max_ts: i64,
    tenant_rows: BTreeMap<TenantId, u32>,
}

impl Default for RunStats {
    fn default() -> Self {
        RunStats { min_ts: i64::MAX, max_ts: i64::MIN, tenant_rows: BTreeMap::new() }
    }
}

impl RunStats {
    fn add(&mut self, tenant: TenantId, ts: i64) {
        self.min_ts = self.min_ts.min(ts);
        self.max_ts = self.max_ts.max(ts);
        *self.tenant_rows.entry(tenant).or_default() += 1;
    }

    fn clear(&mut self) {
        (self.min_ts, self.max_ts) = (i64::MAX, i64::MIN);
        self.tenant_rows.clear();
    }

    fn merge(&mut self, other: &RunStats) {
        self.min_ts = self.min_ts.min(other.min_ts);
        self.max_ts = self.max_ts.max(other.max_ts);
        for (tenant, rows) in &other.tenant_rows {
            *self.tenant_rows.entry(*tenant).or_default() += rows;
        }
    }

    fn may_hold(&self, tenant: TenantId, range: TimeRange) -> bool {
        self.tenant_rows.contains_key(&tenant)
            && range.start.millis() <= self.max_ts
            && self.min_ts <= range.end.millis()
    }
}

/// A stretch of the arrival-ordered table as column batches. Sealed runs
/// are immutable and shared by reference between the store, the queries
/// reading them and the drain archiving them.
///
/// Every row of a run has the same *layout*: the same arity, and in each
/// column cells of one type or NULL. A cell is stored exactly as it
/// arrived — no `UInt64`/`Int64` conversion — so the cells read back are
/// the record's cells, and a drain intent encoded from them carries the
/// bytes the batches did. A row of another layout opens the next run.
#[derive(Debug, Default)]
pub struct Run {
    columns: Vec<ColumnVec>,
    /// The type of each column's non-NULL cells, `None` while it has none.
    types: Vec<Option<DataType>>,
    len: usize,
    /// Sum of the rows' [`LogRecord::approx_size`].
    bytes: usize,
    stats: RunStats,
}

impl Run {
    /// A run over `rows`, in the order given: what a test or a tool builds
    /// by hand. Panics if the rows do not share one layout, which rows
    /// validated against one schema always do.
    pub fn from_rows(rows: Vec<LogRecord>) -> Run {
        let mut run = Run::default();
        let pushed = run.push_rows(rows.as_slice(), 0, rows.len());
        assert_eq!(pushed, rows.len(), "rows of one run must share one layout");
        run
    }

    /// Rows in the run.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a run without rows (the store never seals one).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Arity of the run's rows.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Sum of the rows' [`LogRecord::approx_size`].
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Cell `col` of row `row`, borrowed; a column past the run's arity
    /// reads as NULL, as it does on a [`LogRecord`].
    #[inline]
    pub fn cell(&self, col: usize, row: usize) -> Cell<'_> {
        self.columns.get(col).map_or(Cell::Null, |column| column.cell(row))
    }

    /// The tenant of row `row`.
    fn tenant(&self, row: usize) -> TenantId {
        TenantId(self.keys().0[row])
    }

    /// The tenants and timestamps of every row: columns 0 and 1, typed as
    /// every [`LogRecord`] types them.
    fn keys(&self) -> (&[u64], &[i64]) {
        keys_of(&self.columns)
    }

    /// How many of the rows are `tenant`'s.
    pub fn tenant_rows(&self, tenant: TenantId) -> u32 {
        self.stats.tenant_rows.get(&tenant).copied().unwrap_or(0)
    }

    /// True when every row's `ts` lies inside `range`, so a scan need not
    /// look at the column to know.
    pub fn within(&self, range: TimeRange) -> bool {
        range.start.millis() <= self.stats.min_ts && self.stats.max_ts <= range.end.millis()
    }

    /// Column `col` of the positional row `[tenant_id, ts, fields...]` as a
    /// typed batch of `dtype`: the run's own column, by reference, when it
    /// has that type. Otherwise — a column with NULLs only, a column past
    /// the run's arity, a `UInt64` cell asked for as `Int64` — a batch
    /// converted from its cells, which is an error for a cell that is not
    /// of `dtype`; rows are validated against the schema before they reach
    /// the store, so a query meets the first case only.
    pub fn column(&self, col: usize, dtype: DataType) -> Result<Cow<'_, ColumnVec>> {
        match self.columns.get(col) {
            Some(column) if column.data_type() == dtype => Ok(Cow::Borrowed(column)),
            _ => {
                let cells = (0..self.len).map(|row| self.cell(col, row));
                Ok(Cow::Owned(ColumnVec::from_cells(dtype, cells)?))
            }
        }
    }

    /// The rows as records, in arrival order: a copy, for tests and tools.
    pub fn records(&self) -> Vec<LogRecord> {
        (0..self.len).map(|row| self.record(row)).collect()
    }

    /// Row `row` as a record (a copy).
    fn record(&self, row: usize) -> LogRecord {
        let (tenants, ts) = self.keys();
        let fields = (2..self.width()).map(|col| self.cell(col, row).to_value()).collect();
        LogRecord::new(TenantId(tenants[row]), Timestamp(ts[row]), fields)
    }

    /// True when row `row` is `record`: the same cells, the same arity.
    fn row_is(&self, row: usize, record: &LogRecord) -> bool {
        self.width() == record.fields.len() + 2
            && (0..self.width()).all(|col| self.cell(col, row) == record.cell(col))
    }

    /// Appends rows `start..end` of `rows`, column by column, as far as
    /// they fit, and returns how many it appended. A row fits when it has
    /// the run's arity (any, for an empty run) and every cell is NULL or
    /// of its column's type (any, for a column of NULLs), with room in the
    /// string arena.
    fn push_rows<R: Rows + ?Sized>(&mut self, rows: &R, start: usize, end: usize) -> usize {
        if start == end {
            return 0;
        }
        let width = rows.width(start);
        if self.len == 0 && self.columns.len() != width {
            self.columns = (0..width).map(|_| ColumnVec::default()).collect();
            self.types = vec![None; width];
        }
        let end = (start..end).find(|&i| rows.width(i) != self.width()).unwrap_or(end);
        let (old, mut fit) = (self.len, end);
        // Each column takes cells until one does not fit; the rows every
        // column took are the rows appended.
        let mut first_typed = vec![None; self.width()];
        for (col, (column, ty)) in self.columns.iter_mut().zip(&mut self.types).enumerate() {
            if ty.is_none() {
                // The column's first non-NULL cell types it; the NULLs
                // before it become NULLs of that type.
                let typed = (start..fit).find_map(|i| Some((i, rows.cell(i, col).data_type()?)));
                if let Some((i, dtype)) = typed {
                    if column.data_type() != dtype {
                        *column = ColumnVec::nulls(dtype, old);
                    }
                    (*ty, first_typed[col]) = (Some(dtype), Some(i));
                }
            }
            fit = (start..fit).find(|&i| !column.push_exact(rows.cell(i, col))).unwrap_or(fit);
        }
        let appended = fit - start;
        for (column, (ty, first)) in
            self.columns.iter_mut().zip(self.types.iter_mut().zip(first_typed))
        {
            column.truncate(old + appended);
            // A column typed only by a row that did not fit holds NULLs only.
            if first.is_some_and(|i| i >= fit) {
                *ty = None;
            }
        }
        self.len += appended;
        self.bytes += (start..fit).map(|i| rows.bytes(i)).sum::<usize>();
        let (tenants, ts) = keys_of(&self.columns);
        for (tenant, ts) in tenants[old..].iter().zip(&ts[old..]) {
            self.stats.add(TenantId(*tenant), *ts);
        }
        appended
    }

    /// Appends a copy of every row of `other` in bulk, column buffer by
    /// column buffer, if they fit as [`Run::push_rows`] says; returns
    /// whether it did. An empty run takes any rows. Buffers grow with the
    /// rows, never ahead of them: a query may seal the tail after a few.
    fn append(&mut self, other: &Run) -> bool {
        if self.is_empty() {
            let empty = |column: &ColumnVec| ColumnVec::empty(column.data_type());
            self.columns = other.columns.iter().map(empty).collect();
            self.types = vec![None; other.width()];
        }
        let agree = |(mine, theirs): (&Option<DataType>, &Option<DataType>)| {
            mine.is_none() || theirs.is_none() || mine == theirs
        };
        if other.width() != self.width() || !self.types.iter().zip(&other.types).all(agree) {
            return false;
        }
        let len = self.len;
        for (col, (theirs, their_ty)) in other.columns.iter().zip(&other.types).enumerate() {
            let column = &mut self.columns[col];
            if let (None, Some(dtype)) = (self.types[col], their_ty) {
                // A column of NULLs takes the other side's type.
                if column.data_type() != *dtype {
                    *column = ColumnVec::nulls(*dtype, len);
                }
            }
            let appended = match their_ty {
                // The other side's NULLs only, whatever their placeholder type.
                None => {
                    column.push_nulls(theirs.len());
                    true
                }
                Some(_) => column.append(theirs),
            };
            if !appended {
                // A string arena is full: the run stays as it was.
                self.columns[..=col].iter_mut().for_each(|column| column.truncate(len));
                return false;
            }
        }
        for (ty, theirs) in self.types.iter_mut().zip(&other.types) {
            *ty = ty.or(*theirs);
        }
        self.len += other.len;
        self.bytes += other.bytes;
        self.stats.merge(&other.stats);
        true
    }

    /// Removes every row, keeping the column buffers for the next rows.
    fn clear(&mut self) {
        self.columns.iter_mut().for_each(|column| column.truncate(0));
        self.types.iter_mut().for_each(|ty| *ty = None);
        self.len = 0;
        self.bytes = 0;
        self.stats.clear();
    }

    /// The rows of `self` that `keep` selects, as a run of their own.
    fn select(&self, keep: impl Fn(usize) -> bool) -> Run {
        let rows: Vec<(&Run, usize)> =
            (0..self.len).filter(|row| keep(*row)).map(|row| (self, row)).collect();
        let mut run = Run::default();
        let pushed = run.push_rows(rows.as_slice(), 0, rows.len());
        debug_assert_eq!(pushed, rows.len(), "a subset of a run fits its layout");
        run
    }
}

/// The tenants and timestamps of a run's `columns`.
fn keys_of(columns: &[ColumnVec]) -> (&[u64], &[i64]) {
    match (columns.first().map(ColumnVec::data), columns.get(1).map(ColumnVec::data)) {
        (Some(ColumnData::U64(tenants)), Some(ColumnData::I64(ts))) => (tenants, ts),
        (None, None) => (&[], &[]),
        _ => unreachable!("a run's first two columns hold record keys"),
    }
}

/// Rows to copy into runs: records, or rows of runs.
trait Rows {
    fn count(&self) -> usize;
    /// Arity of row `i`.
    fn width(&self, i: usize) -> usize;
    /// Cell `col` of row `i`.
    fn cell(&self, i: usize, col: usize) -> Cell<'_>;
    /// [`LogRecord::approx_size`] of row `i`.
    fn bytes(&self, i: usize) -> usize;
}

impl Rows for [LogRecord] {
    fn count(&self) -> usize {
        self.len()
    }

    fn width(&self, i: usize) -> usize {
        self[i].width()
    }

    #[inline]
    fn cell(&self, i: usize, col: usize) -> Cell<'_> {
        self[i].cell(col)
    }

    fn bytes(&self, i: usize) -> usize {
        self[i].approx_size()
    }
}

impl Rows for [(&Run, usize)] {
    fn count(&self) -> usize {
        self.len()
    }

    fn width(&self, i: usize) -> usize {
        self[i].0.width()
    }

    #[inline]
    fn cell(&self, i: usize, col: usize) -> Cell<'_> {
        let (run, row) = self[i];
        run.cell(col, row)
    }

    fn bytes(&self, i: usize) -> usize {
        let (run, row) = self[i];
        16 + (2..run.width()).map(|col| run.cell(col, row).approx_size()).sum::<usize>()
    }
}

/// The runs of one store a query may have rows in, taken under the shard
/// lock and read outside it. A row drained after the snapshot was taken is
/// still in it; a row inserted after is not.
#[derive(Debug, Default)]
pub struct RowSnapshot {
    /// Runs that may hold the tenant within the range, in arrival order.
    pub runs: Vec<Arc<Run>>,
    /// Runs left out because their tenant counts or time bounds exclude the
    /// query.
    pub runs_pruned: u64,
}

/// Rows a drain took out of the store, in the runs they sat in and in
/// arrival order. The runs are shared, never copied: a query that still
/// holds one keeps reading it, and the last holder frees it.
#[derive(Debug, Default)]
pub struct Drained {
    runs: Vec<Arc<Run>>,
}

impl Drained {
    /// Records as drained rows, in the order given (what a caller with
    /// records rather than a drain archives).
    pub fn from_records(records: &[LogRecord]) -> Drained {
        let mut store = RowStore::new();
        store.insert_batch(records);
        store.drain_all()
    }

    /// Rows drained.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|run| run.len()).sum()
    }

    /// True when nothing was drained.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Sum of the rows' [`LogRecord::approx_size`].
    pub fn bytes(&self) -> usize {
        self.runs.iter().map(|run| run.bytes()).sum()
    }

    /// The runs, in arrival order.
    pub fn runs(&self) -> &[Arc<Run>] {
        &self.runs
    }

    /// The rows of `rows` — `(run, row)` indexes into [`Drained::runs`] —
    /// copied into runs of their own, in the order given.
    pub fn gather(&self, rows: impl IntoIterator<Item = (u32, u32)>) -> Drained {
        let rows: Vec<(&Run, usize)> =
            rows.into_iter().map(|(run, row)| (&*self.runs[run as usize], row as usize)).collect();
        let mut store = RowStore::new();
        store.append(rows.as_slice());
        store.drain_all()
    }

    /// The rows as records, in arrival order: a copy, for tests and tools.
    pub fn records(&self) -> Vec<LogRecord> {
        self.runs.iter().flat_map(|run| run.records()).collect()
    }
}

/// One archive chunk of a drain: rows of one tenant, as `(run, row)`
/// indexes into the drain's runs, in canonical order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunChunk {
    /// The tenant every row of the chunk belongs to.
    pub tenant: TenantId,
    /// The chunk's rows, sorted by timestamp.
    pub rows: Vec<(u32, u32)>,
}

/// Splits the rows of `runs` into the canonical chunk sequence of
/// `logstore_types::partition_into_chunks` — tenants ascending, each
/// tenant's rows by timestamp with ties in arrival order, at most
/// `chunk_rows` (clamped to 1) per chunk — without moving a row: the sort
/// is over `(tenant, ts, run, row)` keys, and the last two are the arrival
/// order.
pub fn partition_runs(runs: &[Arc<Run>], chunk_rows: usize) -> Vec<RunChunk> {
    let chunk_rows = chunk_rows.max(1);
    let mut keys = Vec::with_capacity(runs.iter().map(|run| run.len()).sum());
    for (r, run) in runs.iter().enumerate() {
        let (tenants, ts) = run.keys();
        for (row, (tenant, ts)) in tenants.iter().zip(ts).enumerate() {
            keys.push((*tenant, *ts, r as u32, row as u32));
        }
    }
    keys.sort_unstable();
    let mut chunks: Vec<RunChunk> = Vec::new();
    for (tenant, _, run, row) in keys {
        match chunks.last_mut() {
            Some(chunk) if chunk.tenant.raw() == tenant && chunk.rows.len() < chunk_rows => {
                chunk.rows.push((run, row));
            }
            _ => chunks.push(RunChunk { tenant: TenantId(tenant), rows: vec![(run, row)] }),
        }
    }
    chunks
}

/// In-memory row store for one shard.
#[derive(Debug, Default)]
pub struct RowStore {
    /// Sealed runs, oldest first.
    runs: Vec<Arc<Run>>,
    /// The open tail: rows newer than every run's.
    tail: Run,
    rows: usize,
    bytes: usize,
}

impl RowStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        RowStore::default()
    }

    /// Number of buffered rows.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Approximate buffered bytes (drives flush thresholds / backpressure):
    /// the sum of the rows' [`LogRecord::approx_size`].
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// What every run and the tail know of their rows.
    fn stats(&self) -> impl Iterator<Item = &RunStats> {
        self.runs.iter().map(|run| &run.stats).chain(std::iter::once(&self.tail.stats))
    }

    /// Rows currently buffered for one tenant.
    pub fn tenant_rows(&self, tenant: TenantId) -> u64 {
        self.stats().filter_map(|stats| stats.tenant_rows.get(&tenant)).map(|n| u64::from(*n)).sum()
    }

    /// Appends one record's cells (already validated upstream); the record
    /// stays the caller's.
    pub fn insert(&mut self, record: &LogRecord) {
        self.insert_batch(std::slice::from_ref(record));
    }

    /// Appends the cells of `records`, in order, column by column.
    pub fn insert_batch(&mut self, records: &[LogRecord]) {
        self.append(records);
    }

    /// Appends `rows` to the tail, sealing it whenever it is full or the
    /// next row does not fit its layout.
    fn append<R: Rows + ?Sized>(&mut self, rows: &R) {
        let mut at = 0;
        while at < rows.count() {
            if self.tail.len >= RUN_ROWS {
                self.seal_tail();
            }
            let before = self.tail.bytes;
            let end = rows.count().min(at + RUN_ROWS - self.tail.len);
            let pushed = self.tail.push_rows(rows, at, end);
            self.rows += pushed;
            self.bytes += self.tail.bytes - before;
            if pushed == 0 {
                assert!(!self.tail.is_empty(), "a row of more than 4 GiB");
                self.seal_tail();
            }
            at += pushed;
        }
    }

    /// Moves every row of `staged` — a store that took rows off the lock —
    /// after this store's, in order: its sealed runs as they are, its tail
    /// copied onto this tail in bulk. Leaves `staged` empty, its tail's
    /// buffers kept for the next rows.
    pub fn absorb(&mut self, staged: &mut RowStore) {
        self.rows += staged.rows;
        self.bytes += staged.bytes;
        if !staged.runs.is_empty() {
            self.seal_tail();
            self.runs.append(&mut staged.runs);
        }
        if staged.tail.is_empty() {
            return staged.clear();
        }
        if self.tail.len + staged.tail.len > RUN_ROWS || !self.tail.append(&staged.tail) {
            self.seal_tail();
            let appended = self.tail.append(&staged.tail);
            debug_assert!(appended, "an empty run takes any rows");
        }
        staged.clear();
    }

    /// Removes every row, keeping the tail's buffers for the next rows.
    pub fn clear(&mut self) {
        self.runs.clear();
        self.tail.clear();
        (self.rows, self.bytes) = (0, 0);
    }

    /// Turns the open tail into a run, in O(1): the columns and what is
    /// known about them move, nothing is visited.
    fn seal_tail(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        self.runs.push(Arc::new(std::mem::take(&mut self.tail)));
    }

    /// The runs that may hold rows of `tenant` within `range`, by
    /// reference, in arrival order. The open tail is sealed first if it is
    /// one of them. Visits no row: the cost is the number of runs.
    pub fn snapshot(&mut self, tenant: TenantId, range: TimeRange) -> RowSnapshot {
        if self.tail.stats.may_hold(tenant, range) {
            self.seal_tail();
        }
        let mut snapshot = RowSnapshot::default();
        for run in &self.runs {
            if run.stats.may_hold(tenant, range) {
                snapshot.runs.push(Arc::clone(run));
            } else {
                snapshot.runs_pruned += 1;
            }
        }
        snapshot
    }

    /// Removes every row, oldest first, for the data builder to convert
    /// into LogBlocks: the runs change hands, nothing is copied.
    pub fn drain_all(&mut self) -> Drained {
        self.seal_tail();
        self.rows = 0;
        self.bytes = 0;
        Drained { runs: std::mem::take(&mut self.runs) }
    }

    /// Removes and returns all rows for one tenant, in arrival order (used
    /// when rebalancing moves a tenant off this shard: "the tenant data
    /// will be packaged and flushed to OSS", paper §4.1.5). Runs without a
    /// row of the tenant stay as they are; each of the others splits into
    /// a run of the tenant's rows, drained, and one of the rest, kept.
    pub fn drain_tenant(&mut self, tenant: TenantId) -> Drained {
        let mut drained = Drained::default();
        if self.tenant_rows(tenant) == 0 {
            return drained;
        }
        self.seal_tail();
        for run in std::mem::take(&mut self.runs) {
            if run.tenant_rows(tenant) == 0 {
                self.runs.push(run);
                continue;
            }
            let gone = run.select(|row| run.tenant(row) == tenant);
            let kept = run.select(|row| run.tenant(row) != tenant);
            self.rows -= gone.len();
            self.bytes -= gone.bytes();
            drained.runs.push(Arc::new(gone));
            if !kept.is_empty() {
                self.runs.push(Arc::new(kept));
            }
        }
        drained
    }

    /// Puts drained runs back, after every buffered row, as they are.
    pub fn restore(&mut self, drained: Drained) {
        self.seal_tail();
        self.rows += drained.len();
        self.bytes += drained.bytes();
        self.runs.extend(drained.runs);
    }

    /// Removes one buffered copy of each record in `targets` (multiset
    /// removal by value equality), returning how many were found. WAL
    /// replay uses this to re-apply a drain intent: the drained rows are
    /// somewhere in the store (their appends replayed earlier), in
    /// unknown positions because earlier drains already removed others.
    ///
    /// One pass over the runs: a run whose bounds rule every target out is
    /// not looked into, one without a match is kept as it is, and one with
    /// matches is rebuilt from the rows it keeps.
    pub fn remove_batch(&mut self, targets: &[LogRecord]) -> usize {
        if targets.is_empty() {
            return 0;
        }
        // Bucket the targets by (tenant, ts) so the scan below compares
        // whole rows only against plausible candidates.
        let mut pending: HashMap<(TenantId, i64), Vec<&LogRecord>> = HashMap::new();
        let (mut min_ts, mut max_ts) = (i64::MAX, i64::MIN);
        for t in targets {
            pending.entry((t.tenant_id, t.ts.millis())).or_default().push(t);
            min_ts = min_ts.min(t.ts.millis());
            max_ts = max_ts.max(t.ts.millis());
        }
        self.seal_tail();
        let mut found = 0;
        for run in std::mem::take(&mut self.runs) {
            if run.stats.max_ts < min_ts || max_ts < run.stats.min_ts {
                self.runs.push(run);
                continue;
            }
            let (tenants, ts) = run.keys();
            let mut gone = vec![false; run.len()];
            for (row, gone) in gone.iter_mut().enumerate() {
                let Some(candidates) = pending.get_mut(&(TenantId(tenants[row]), ts[row])) else {
                    continue;
                };
                if let Some(i) = candidates.iter().position(|t| run.row_is(row, t)) {
                    candidates.swap_remove(i);
                    *gone = true;
                }
            }
            let removed = gone.iter().filter(|g| **g).count();
            if removed == 0 {
                self.runs.push(run);
                continue;
            }
            found += removed;
            let kept = run.select(|row| !gone[row]);
            self.rows -= removed;
            self.bytes -= run.bytes() - kept.bytes();
            if !kept.is_empty() {
                self.runs.push(Arc::new(kept));
            }
        }
        found
    }

    /// Tenants with buffered rows.
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut t: Vec<TenantId> =
            self.stats().flat_map(|stats| stats.tenant_rows.keys().copied()).collect();
        t.sort_unstable();
        t.dedup();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logstore_types::{partition_into_chunks, Value};

    fn rec(t: u64, ts: i64, latency: i64) -> LogRecord {
        LogRecord::new(
            TenantId(t),
            Timestamp(ts),
            vec![
                Value::from("10.0.0.1"),
                Value::from("/api"),
                Value::I64(latency),
                Value::Bool(false),
                Value::from("msg"),
            ],
        )
    }

    fn store_with(records: Vec<LogRecord>) -> RowStore {
        let mut s = RowStore::new();
        for r in &records {
            s.insert(r);
        }
        s
    }

    fn range(start: i64, end: i64) -> TimeRange {
        TimeRange::new(Timestamp(start), Timestamp(end))
    }

    /// `ts` of the rows of tenant 1 inside `range`, read off a snapshot.
    fn visible(s: &mut RowStore, range: TimeRange) -> Vec<i64> {
        let snapshot = s.snapshot(TenantId(1), range);
        let rows = snapshot.runs.iter().flat_map(|run| run.records());
        rows.filter(|r| r.tenant_id == TenantId(1) && range.contains(r.ts))
            .map(|r| r.ts.millis())
            .collect()
    }

    fn ts_of(records: &[LogRecord]) -> Vec<i64> {
        records.iter().map(|r| r.ts.millis()).collect()
    }

    #[test]
    fn insert_tracks_counts_and_bytes() {
        let rows = vec![rec(1, 10, 5), rec(1, 20, 6), rec(2, 30, 7)];
        let s = store_with(rows.clone());
        assert_eq!(s.row_count(), 3);
        assert_eq!(s.bytes(), rows.iter().map(LogRecord::approx_size).sum::<usize>());
        assert_eq!(s.tenant_rows(TenantId(1)), 2);
        assert_eq!(s.tenant_rows(TenantId(2)), 1);
        assert_eq!(s.tenant_rows(TenantId(9)), 0);
        assert_eq!(s.tenants(), vec![TenantId(1), TenantId(2)]);
    }

    #[test]
    fn snapshot_seals_the_tail_only_for_a_query_it_can_serve_and_prunes_runs() {
        let mut s = store_with(vec![rec(1, 10, 50), rec(1, 20, 150), rec(2, 15, 150)]);
        // Another tenant, or a window the tail's rows lie outside of: the
        // tail stays open and nothing is handed out.
        for miss in
            [s.snapshot(TenantId(9), TimeRange::all()), s.snapshot(TenantId(1), range(21, 99))]
        {
            assert_eq!((miss.runs.len(), miss.runs_pruned), (0, 0));
        }
        assert!(s.runs.is_empty());
        assert_eq!(visible(&mut s, range(0, 100)), vec![10, 20]);
        assert_eq!(s.runs.len(), 1, "the tail became a run");
        // Rows after the seal open a new tail; a time-bounded query prunes
        // the run that cannot match and seals nothing it does not read.
        s.insert(&rec(1, 200, 1));
        assert_eq!(visible(&mut s, range(15, 25)), vec![20]);
        assert_eq!(s.runs.len(), 1);
        let late = s.snapshot(TenantId(1), range(150, 250));
        assert_eq!((late.runs.len(), late.runs_pruned), (1, 1));
        assert_eq!(visible(&mut s, TimeRange::all()), vec![10, 20, 200]);
        // A snapshot is a set of references: the store's accounting and
        // rows are untouched by it.
        assert_eq!((s.row_count(), s.tenant_rows(TenantId(1))), (4, 3));
    }

    #[test]
    fn the_tail_seals_itself_at_the_run_size() {
        let mut s = RowStore::new();
        for i in 0..(RUN_ROWS as i64 + 3) {
            s.insert(&rec(1, i, 0));
        }
        assert_eq!((s.runs.len(), s.runs[0].len(), s.tail.len()), (1, RUN_ROWS, 3));
        assert!(s.runs[0].within(range(0, RUN_ROWS as i64 - 1)));
        assert!(!s.runs[0].within(range(1, i64::MAX)));
    }

    #[test]
    fn a_run_is_column_batches_of_the_cells_as_they_arrived() {
        let mut s = store_with(vec![rec(1, 10, 5), rec(2, 20, 6), rec(1, 30, 7)]);
        let run = s.snapshot(TenantId(1), TimeRange::all()).runs.remove(0);
        let latency = run.column(4, DataType::Int64).unwrap();
        assert!(matches!(latency, Cow::Borrowed(_)), "the run's own column");
        assert_eq!((0..3).map(|i| latency.value(i)).collect::<Vec<_>>(), [5, 6, 7].map(Value::I64));
        assert_eq!(run.column(0, DataType::UInt64).unwrap().value(1), Value::U64(2));
        // A cell of another type than the schema's is an error, not a
        // silently different answer; a column past the rows is NULL.
        assert!(run.column(5, DataType::Int64).is_err());
        let past = run.column(9, DataType::String).unwrap();
        assert_eq!((past.len(), past.value(2)), (3, Value::Null));
    }

    #[test]
    fn a_row_of_another_layout_opens_the_next_run() {
        // NULLs, then a column's first typed cell, then a `UInt64` where
        // the column holds `Int64`, then another arity: each cell reads
        // back exactly as it arrived, and the intent bytes cannot drift.
        let row = |fields: Vec<Value>| LogRecord::new(TenantId(1), Timestamp(1), fields);
        let rows = vec![
            row(vec![Value::Null, Value::Null]),
            row(vec![Value::from("a"), Value::Null]),
            row(vec![Value::Null, Value::I64(-1)]),
            row(vec![Value::from("b"), Value::U64(7)]),
            row(vec![Value::Bool(true)]),
            row(vec![Value::Bool(false)]),
        ];
        let mut s = store_with(rows.clone());
        assert_eq!(s.row_count(), 6);
        let drained = s.drain_all();
        assert_eq!(drained.runs().iter().map(|r| r.len()).collect::<Vec<_>>(), vec![3, 1, 2]);
        assert_eq!(drained.records(), rows);
        let strings = drained.runs()[0].column(2, DataType::String).unwrap();
        assert!(matches!(strings, Cow::Borrowed(_)), "typed by its first non-NULL cell");
        assert_eq!(strings.value(0), Value::Null);
    }

    #[test]
    fn drain_all_preserves_arrival_order_across_runs_and_copies_nothing() {
        let mut s = store_with(vec![rec(1, 30, 1), rec(2, 10, 2)]);
        let held = s.snapshot(TenantId(2), TimeRange::all());
        s.insert(&rec(1, 20, 3));
        let drained = s.drain_all();
        assert_eq!(drained.len(), 3);
        assert_eq!((s.row_count(), s.bytes(), s.tenants()), (0, 0, vec![]));
        assert_eq!(ts_of(&drained.records()), vec![30, 10, 20]);
        // The run a reader holds is the drained run itself.
        assert!(Arc::ptr_eq(&held.runs[0], &drained.runs()[0]));
        assert_eq!(held.runs[0].len(), 2, "the reader keeps what it took");
        assert!(s.drain_all().is_empty());
    }

    #[test]
    fn remove_batch_is_multiset_removal() {
        // Two identical rows buffered, one in the removal set: exactly one
        // copy goes, byte/tenant accounting follows.
        let dup = rec(1, 10, 5);
        let mut s = store_with(vec![dup.clone(), dup.clone(), rec(2, 20, 6)]);
        let before = s.bytes();
        assert_eq!(s.remove_batch(std::slice::from_ref(&dup)), 1);
        assert_eq!(s.row_count(), 2);
        assert_eq!(s.tenant_rows(TenantId(1)), 1);
        assert_eq!(s.bytes(), before - dup.approx_size());
        // Absent rows are simply not found; a row that differs in one cell
        // is another row.
        assert_eq!(s.remove_batch(&[rec(9, 9, 9), rec(1, 10, 6)]), 0);
        // Removing the second copy empties the tenant.
        assert_eq!(s.remove_batch(&[dup]), 1);
        assert_eq!(s.tenant_rows(TenantId(1)), 0);
        assert_eq!(s.tenants(), vec![TenantId(2)]);
    }

    #[test]
    fn remove_batch_keeps_runs_it_takes_nothing_from() {
        let mut s = RowStore::new();
        for i in 0..(2 * RUN_ROWS as i64) {
            s.insert(&rec(1 + (i % 2) as u64, i, 0));
        }
        s.seal_tail();
        let [first, second] = [0, 1].map(|i| Arc::clone(&s.runs[i]));
        assert_eq!(s.remove_batch(&[rec(2, RUN_ROWS as i64 + 1, 0), rec(1, 0, 0)]), 2);
        assert!(!Arc::ptr_eq(&s.runs[0], &first) && !Arc::ptr_eq(&s.runs[1], &second));
        assert_eq!(s.remove_batch(&[rec(1, 2, 0)]), 1);
        assert_eq!(s.runs[0].len(), RUN_ROWS - 2);
        let untouched = Arc::clone(&s.runs[1]);
        assert_eq!(s.remove_batch(&[rec(1, 4, 0)]), 1);
        assert!(Arc::ptr_eq(&s.runs[1], &untouched), "out of the targets' bounds");
        assert_eq!(s.row_count(), 2 * RUN_ROWS - 4);
    }

    #[test]
    fn drain_tenant_extracts_only_that_tenant_and_keeps_untouched_runs() {
        let mut s = store_with(vec![rec(2, 1, 0), rec(3, 2, 0)]);
        let untouched = s.snapshot(TenantId(2), TimeRange::all()).runs.remove(0);
        for r in [rec(1, 3, 0), rec(2, 4, 0), rec(1, 5, 0)] {
            s.insert(&r);
        }
        let before = s.bytes();
        let moved = s.drain_tenant(TenantId(1)).records();
        assert_eq!(ts_of(&moved), vec![3, 5]);
        assert_eq!((s.row_count(), s.tenants()), (3, vec![TenantId(2), TenantId(3)]));
        assert_eq!(s.bytes(), before - moved.iter().map(LogRecord::approx_size).sum::<usize>());
        assert!(Arc::ptr_eq(&s.runs[0], &untouched), "a run without the tenant is not rebuilt");
        assert_eq!(ts_of(&s.drain_all().records()), vec![1, 2, 4]);
        assert!(s.drain_tenant(TenantId(1)).is_empty());
    }

    #[test]
    fn restore_puts_the_runs_back_after_every_buffered_row() {
        let mut s = store_with(vec![rec(1, 1, 0), rec(2, 2, 0)]);
        let drained = s.drain_all();
        s.insert(&rec(1, 3, 0));
        let run = Arc::clone(&drained.runs()[0]);
        s.restore(drained);
        assert_eq!((s.row_count(), s.tenant_rows(TenantId(1))), (3, 2));
        assert!(Arc::ptr_eq(&s.runs[1], &run), "restored as it was");
        assert_eq!(ts_of(&s.drain_all().records()), vec![3, 1, 2]);
    }

    mod props {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// Rows of a few tenants, timestamps with ties, and a NULL in some
        /// cells: what the canonical order must break ties on.
        fn rows() -> impl Strategy<Value = Vec<LogRecord>> {
            let cell = prop_oneof![Just(Value::Null), (0i64..3).prop_map(Value::I64)];
            vec((1u64..4, 0i64..6, cell), 0..60).prop_map(|rows| {
                rows.into_iter()
                    .enumerate()
                    .map(|(i, (t, ts, c))| {
                        LogRecord::new(TenantId(t), Timestamp(ts), vec![Value::U64(i as u64), c])
                    })
                    .collect()
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// The run partition names, chunk by chunk, exactly the rows
            /// the record partition moves, whatever the run boundaries.
            #[test]
            fn prop_run_partition_is_the_record_partition(
                rows in rows(),
                cap in 1usize..9,
                seals in vec(0usize..60, 0..4),
            ) {
                let mut s = RowStore::new();
                for (i, r) in rows.iter().enumerate() {
                    if seals.contains(&i) {
                        s.seal_tail();
                    }
                    s.insert(r);
                }
                let drained = s.drain_all();
                let by_runs: Vec<(TenantId, Vec<LogRecord>)> =
                    partition_runs(drained.runs(), cap)
                        .into_iter()
                        .map(|chunk| (chunk.tenant, drained.gather(chunk.rows).records()))
                        .collect();
                let by_records: Vec<(TenantId, Vec<LogRecord>)> =
                    partition_into_chunks(rows, cap)
                        .into_iter()
                        .map(|chunk| (chunk.tenant, chunk.rows))
                        .collect();
                prop_assert_eq!(by_runs, by_records);
            }
        }
    }
}
