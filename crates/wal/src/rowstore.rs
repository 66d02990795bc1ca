//! The write-optimized real-time store.
//!
//! Phase one of the two-phase write keeps rows exactly as they arrive — no
//! indexes, no compression, one big arrival-ordered table shared by all
//! tenants (paper §3.1: "all log data is stored in a single huge table ...
//! to improve space efficiency and reduce random I/O"). The table is a
//! sequence of sealed, immutable [`Run`]s plus an open tail that inserts
//! append to, and every run is a column batch: one [`ColumnVec`] per column
//! of the table schema, of that column's type, holding the positional row
//! `[tenant_id, ts, fields...]`. An insert copies the cells of records
//! already validated against the schema into the tail's columns; the
//! record itself is the caller's to drop, on the thread that allocated it.
//!
//! Queries over recent data take a [`RowSnapshot`] — the runs that can
//! hold their tenant and time range, by reference — and scan its columns
//! with no lock held. The data builder drains the table into per-tenant
//! LogBlocks: a drain hands over the runs themselves ([`Drained`]), and
//! [`partition_runs`] orders their rows into archive chunks by index.

use logstore_types::{
    Cell, ColumnData, ColumnVec, DataType, LogRecord, TableSchema, TenantId, TimeRange, Timestamp,
};
use std::collections::BTreeMap;
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

/// A stretch of the arrival-ordered table as column batches, one per
/// column of the table schema and of its type. Sealed runs are immutable
/// and shared by reference between the store, the queries reading them
/// and the drain archiving them.
///
/// A cell is stored exactly as it arrived, so the cells read back are the
/// record's cells; the WAL logs a run as its columns' blocks, and a replay
/// decodes them back into a run ([`Run::from_columns`]).
#[derive(Debug)]
pub struct Run {
    columns: Vec<ColumnVec>,
    len: usize,
    /// Sum of the rows' [`LogRecord::approx_size`].
    bytes: usize,
    stats: RunStats,
}

impl Run {
    /// An empty run with a column of each of `types`.
    fn of_types(types: impl Iterator<Item = DataType>) -> Run {
        let columns = types.map(ColumnVec::empty).collect();
        Run { columns, len: 0, bytes: 0, stats: RunStats::default() }
    }

    /// An empty run typed by `schema`.
    fn new(schema: &TableSchema) -> Run {
        Run::of_types(schema.columns.iter().map(|column| column.data_type))
    }

    /// An empty run of this run's column types.
    fn empty_like(&self) -> Run {
        Run::of_types(self.columns.iter().map(ColumnVec::data_type))
    }

    /// A run of decoded `columns` of one length, typed as the schema's,
    /// its bytes and stats counted from the cells as inserts count them.
    pub(crate) fn from_columns(columns: Vec<ColumnVec>) -> Run {
        let mut run = Run { len: columns[0].len(), columns, bytes: 0, stats: RunStats::default() };
        run.bytes = (0..run.len).map(|row| run.row_bytes(row)).sum();
        run.count_keys(0);
        run
    }

    /// A run over `rows`, in the order given: what a test or a tool builds
    /// by hand. Panics on a row outside `schema`.
    pub fn from_rows(schema: &TableSchema, rows: &[LogRecord]) -> Run {
        let mut run = Run::new(schema);
        let pushed = run.push_rows(rows, 0, rows.len());
        assert_eq!(pushed, rows.len(), "rows of a run must fit its schema");
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

    /// Columns of the run: the schema's.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Sum of the rows' [`LogRecord::approx_size`].
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Cell `col` of row `row`, borrowed.
    #[inline]
    pub fn cell(&self, col: usize, row: usize) -> Cell<'_> {
        self.columns[col].cell(row)
    }

    /// [`LogRecord::approx_size`] of row `row`.
    fn row_bytes(&self, row: usize) -> usize {
        16 + (2..self.width()).map(|col| self.cell(col, row).approx_size()).sum::<usize>()
    }

    /// Adds the keys of rows `from..` to what the run knows of its rows.
    fn count_keys(&mut self, from: usize) {
        let (tenants, ts) = keys_of(&self.columns);
        for (tenant, ts) in tenants[from..].iter().zip(&ts[from..]) {
            self.stats.add(TenantId(*tenant), *ts);
        }
    }

    /// The tenants and timestamps of every row: columns 0 and 1, typed as
    /// every [`LogRecord`] types them.
    fn keys(&self) -> (&[u64], &[i64]) {
        keys_of(&self.columns)
    }

    /// The tenants the run has rows of, ascending.
    pub(crate) fn tenants(&self) -> impl Iterator<Item = TenantId> + '_ {
        self.stats.tenant_rows.keys().copied()
    }

    /// True when every row's `ts` lies inside `range`, so a scan need not
    /// look at the column to know.
    pub fn within(&self, range: TimeRange) -> bool {
        range.start.millis() <= self.stats.min_ts && self.stats.max_ts <= range.end.millis()
    }

    /// Column `col` of the positional row `[tenant_id, ts, fields...]`: a
    /// typed batch of the schema column's type.
    pub fn column(&self, col: usize) -> &ColumnVec {
        &self.columns[col]
    }

    /// Every column, in schema order: the run as one batch of the
    /// LogBlock builder's input.
    pub fn columns(&self) -> &[ColumnVec] {
        &self.columns
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

    /// Appends rows `start..end` of `rows`, column by column, as far as
    /// their strings fit the arenas, and returns how many it appended.
    fn push_rows<R: Rows + ?Sized>(&mut self, rows: &R, start: usize, end: usize) -> usize {
        let (old, mut fit) = (self.len, end);
        // Each column takes cells until one does not fit; the rows every
        // column took are the rows appended.
        for (col, column) in self.columns.iter_mut().enumerate() {
            fit = (start..fit).find(|&i| !column.push_exact(rows.cell(i, col))).unwrap_or(fit);
        }
        let appended = fit - start;
        self.columns.iter_mut().for_each(|column| column.truncate(old + appended));
        self.len += appended;
        self.bytes += (start..fit).map(|i| rows.bytes(i)).sum::<usize>();
        self.count_keys(old);
        appended
    }

    /// Appends a copy of every row of `other`, a run of the same column
    /// types, in bulk, column buffer by column buffer; returns `false` and
    /// changes nothing when a string arena has no room for them.
    fn append(&mut self, other: &Run) -> bool {
        let len = self.len;
        for col in 0..self.width() {
            if !self.columns[col].append(&other.columns[col]) {
                self.columns[..col].iter_mut().for_each(|column| column.truncate(len));
                return false;
            }
        }
        self.len += other.len;
        self.bytes += other.bytes;
        self.stats.merge(&other.stats);
        true
    }

    /// Removes every row, keeping the column buffers for the next rows.
    fn clear(&mut self) {
        self.columns.iter_mut().for_each(|column| column.truncate(0));
        self.len = 0;
        self.bytes = 0;
        self.stats.clear();
    }
}

/// The tenants and timestamps of a run's `columns`.
fn keys_of(columns: &[ColumnVec]) -> (&[u64], &[i64]) {
    match (columns[0].data(), columns[1].data()) {
        (ColumnData::U64(tenants), ColumnData::I64(ts)) => (tenants, ts),
        _ => unreachable!("a run's first two columns hold record keys"),
    }
}

/// Rows to copy into runs: records, or rows of runs.
trait Rows {
    fn count(&self) -> usize;
    /// Cell `col` of row `i`.
    fn cell(&self, i: usize, col: usize) -> Cell<'_>;
    /// [`LogRecord::approx_size`] of row `i`.
    fn bytes(&self, i: usize) -> usize;
}

impl Rows for [LogRecord] {
    fn count(&self) -> usize {
        self.len()
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

    #[inline]
    fn cell(&self, i: usize, col: usize) -> Cell<'_> {
        let (run, row) = self[i];
        run.cell(col, row)
    }

    fn bytes(&self, i: usize) -> usize {
        let (run, row) = self[i];
        run.row_bytes(row)
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
    /// The shard's settle sequence number when the snapshot was taken
    /// ([`crate::ShardStore::settles`]); `0` from a bare [`RowStore`].
    pub settles: u64,
}

impl RowSnapshot {
    /// Adds those of `runs` that may hold `tenant` within `range`, in the
    /// order given, and counts the rest as pruned.
    pub(crate) fn add(&mut self, runs: &[Arc<Run>], tenant: TenantId, range: TimeRange) {
        for run in runs {
            if run.stats.may_hold(tenant, range) {
                self.runs.push(Arc::clone(run));
            } else {
                self.runs_pruned += 1;
            }
        }
    }
}

/// Rows a drain took out of the store, in the runs they sat in and in
/// arrival order. The runs are shared, never copied: a query that still
/// holds one keeps reading it, and the last holder frees it.
#[derive(Debug, Default)]
pub struct Drained {
    runs: Vec<Arc<Run>>,
}

impl Drained {
    /// Records, validated against `schema`, as drained rows in the order
    /// given (what a caller with records rather than a drain archives).
    pub fn from_records(schema: &TableSchema, records: &[LogRecord]) -> Drained {
        let mut store = RowStore::new(schema);
        store.insert_batch(records);
        store.drain_all()
    }

    /// Runs as drained rows, in the order given.
    pub(crate) fn from_runs(runs: Vec<Run>) -> Drained {
        Drained { runs: runs.into_iter().map(Arc::new).collect() }
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
        let Some((first, _)) = rows.first() else { return Drained::default() };
        let mut store = RowStore::with_tail(first.empty_like());
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

/// Splits the rows of `runs` into the canonical chunk sequence — tenants
/// ascending, each tenant's rows by timestamp with ties in arrival order,
/// at most `chunk_rows` (clamped to 1) per chunk — without moving a row:
/// the sort is over `(tenant, ts, run, row)` keys, and the last two are the
/// arrival order. The data builder uploads a drain in this order and WAL
/// replay splits a replayed drain with it, so "chunk `i` of drain `lsn`" is
/// this function's answer on both sides.
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
#[derive(Debug)]
pub struct RowStore {
    /// Sealed runs, oldest first.
    runs: Vec<Arc<Run>>,
    /// The open tail: rows newer than every run's. Its column types are
    /// the store's.
    tail: Run,
    rows: usize,
    bytes: usize,
}

impl RowStore {
    /// Creates an empty store for rows of `schema`.
    pub fn new(schema: &TableSchema) -> Self {
        RowStore::with_tail(Run::new(schema))
    }

    /// An empty store whose open tail is `tail`.
    fn with_tail(tail: Run) -> Self {
        RowStore { runs: Vec::new(), tail, rows: 0, bytes: 0 }
    }

    /// True when the store's columns have the types of `schema`'s: whether
    /// it may take rows validated against `schema`.
    pub fn is_typed_by(&self, schema: &TableSchema) -> bool {
        let types = self.tail.columns.iter().map(ColumnVec::data_type);
        types.eq(schema.columns.iter().map(|column| column.data_type))
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

    /// Appends the cells of `records`, in order, column by column. The
    /// records must be valid rows of the store's schema (a cell of another
    /// type panics); they stay the caller's.
    pub fn insert_batch(&mut self, records: &[LogRecord]) {
        self.append(records);
    }

    /// Appends `rows` to the tail, sealing it whenever it is full or a
    /// string arena has no room for the next row.
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
                assert!(!self.tail.is_empty(), "a row outside the schema, or of more than 4 GiB");
                self.seal_tail();
            }
            at += pushed;
        }
    }

    /// Moves every row of `staged` — a store of the same column types that
    /// took rows off the lock — after this store's, in order: its sealed
    /// runs as they are, its tail copied onto this tail in bulk. Leaves
    /// `staged` empty, its tail's buffers kept for the next rows.
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
            assert!(self.tail.append(&staged.tail), "an empty run takes any rows of its types");
        }
        staged.clear();
    }

    /// Appends a batch's `runs`, decoded from the WAL, as [`RowStore::absorb`]
    /// appended the staging store they were (the last one its tail).
    pub(crate) fn absorb_runs(&mut self, mut runs: Vec<Run>) {
        let Some(tail) = runs.pop() else { return };
        let mut staged = RowStore::with_tail(tail);
        staged.runs = runs.into_iter().map(Arc::new).collect();
        staged.rows = staged.runs().map(Run::len).sum();
        staged.bytes = staged.runs().map(Run::bytes).sum();
        self.absorb(&mut staged);
    }

    /// The sealed runs, then the open tail if it has rows.
    pub(crate) fn runs(&self) -> impl Iterator<Item = &Run> + Clone {
        let tail = (!self.tail.is_empty()).then_some(&self.tail);
        self.runs.iter().map(|run| &**run).chain(tail)
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
        let fresh = self.tail.empty_like();
        self.runs.push(Arc::new(std::mem::replace(&mut self.tail, fresh)));
    }

    /// The runs that may hold rows of `tenant` within `range`, by
    /// reference, in arrival order. The open tail is sealed first if it is
    /// one of them. Visits no row: the cost is the number of runs.
    pub fn snapshot(&mut self, tenant: TenantId, range: TimeRange) -> RowSnapshot {
        if self.tail.stats.may_hold(tenant, range) {
            self.seal_tail();
        }
        let mut snapshot = RowSnapshot::default();
        snapshot.add(&self.runs, tenant, range);
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

    /// Puts drained runs back, after every buffered row, as they are.
    pub fn restore(&mut self, drained: Drained) {
        self.seal_tail();
        self.rows += drained.len();
        self.bytes += drained.bytes();
        self.runs.extend(drained.runs);
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

    impl RowStore {
        /// Appends one record's cells.
        fn insert(&mut self, record: &LogRecord) {
            self.insert_batch(std::slice::from_ref(record));
        }

        /// Rows buffered for one tenant, as the runs count them.
        fn tenant_rows(&self, tenant: TenantId) -> u64 {
            self.stats()
                .filter_map(|stats| stats.tenant_rows.get(&tenant))
                .map(|n| u64::from(*n))
                .sum()
        }
    }

    fn schema() -> TableSchema {
        TableSchema::request_log()
    }

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
        let mut s = RowStore::new(&schema());
        s.insert_batch(&records);
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
        let mut s = RowStore::new(&schema());
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
        let latency = run.column(4);
        assert_eq!((0..3).map(|i| latency.value(i)).collect::<Vec<_>>(), [5, 6, 7].map(Value::I64));
        assert_eq!(run.column(0).value(1), Value::U64(2));
        assert_eq!(run.records(), vec![rec(1, 10, 5), rec(2, 20, 6), rec(1, 30, 7)]);
    }

    #[test]
    fn every_run_is_typed_by_the_schema() {
        // A column of NULLs only is a column of its schema type in the
        // tail, in a sealed run, in what a drain takes and in what a drain
        // gathers: no row retypes a run.
        let types: Vec<DataType> = schema().columns.iter().map(|c| c.data_type).collect();
        let typed = |run: &Run| -> Vec<DataType> {
            (0..run.width()).map(|c| run.column(c).data_type()).collect()
        };
        let mut quiet = rec(1, 1, 0);
        quiet.fields[2] = Value::Null;
        let mut s = store_with(vec![quiet.clone(), quiet.clone()]);
        assert!(s.is_typed_by(&schema()));
        assert_eq!(typed(&s.tail), types);
        assert_eq!(
            s.snapshot(TenantId(1), TimeRange::all()).runs[0].column(4).value(1),
            Value::Null
        );
        s.insert(&rec(2, 2, 7));
        let drained = s.drain_all();
        let gathered = drained.gather([(0, 1), (0, 0)]);
        for run in [drained.runs(), gathered.runs()].concat() {
            assert_eq!(typed(&run), types);
        }
        assert_eq!(gathered.records(), vec![quiet.clone(), quiet]);
        assert!(drained.gather([]).is_empty());
        let other = TableSchema::new("other", schema().columns[..2].to_vec()).unwrap();
        assert!(!s.is_typed_by(&other));
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
        use logstore_types::ColumnSchema;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// The keys, a row number and a nullable `Int64`.
        fn small_schema() -> TableSchema {
            TableSchema::new(
                "small",
                vec![
                    ColumnSchema::new("tenant_id", DataType::UInt64).not_null(),
                    ColumnSchema::new("ts", DataType::Int64).not_null(),
                    ColumnSchema::new("seq", DataType::UInt64),
                    ColumnSchema::new("c", DataType::Int64),
                ],
            )
            .unwrap()
        }

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
                let mut s = RowStore::new(&small_schema());
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
