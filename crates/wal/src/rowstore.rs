//! The write-optimized real-time store.
//!
//! Phase one of the two-phase write keeps rows exactly as they arrive — no
//! indexes, no compression, one big arrival-ordered table shared by all
//! tenants (paper §3.1: "all log data is stored in a single huge table ...
//! to improve space efficiency and reduce random I/O"). The table is a
//! sequence of sealed, immutable [`Run`]s plus an open tail that inserts
//! append to. Queries over recent data take a [`RowSnapshot`] — the runs
//! that can hold their tenant and time range, by reference — and scan it
//! with no lock held; the data builder drains the table into per-tenant
//! LogBlocks in the background.

use logstore_sync::OrderedMutex;
use logstore_types::{ColumnVec, DataType, LogRecord, Result, TenantId, TimeRange};
use std::collections::HashMap;
use std::sync::Arc;

/// Rows at which the open tail seals itself into a run: what bounds the
/// work a query can find untransposed in one run.
pub const RUN_ROWS: usize = 4096;

/// What a run knows about its rows without looking at them: enough to tell
/// a query that it has nothing for it.
#[derive(Debug)]
struct RunStats {
    min_ts: i64,
    max_ts: i64,
    tenant_rows: HashMap<TenantId, u32>,
}

impl RunStats {
    fn empty() -> Self {
        RunStats { min_ts: i64::MAX, max_ts: i64::MIN, tenant_rows: HashMap::new() }
    }

    fn add(&mut self, record: &LogRecord) {
        self.min_ts = self.min_ts.min(record.ts.millis());
        self.max_ts = self.max_ts.max(record.ts.millis());
        *self.tenant_rows.entry(record.tenant_id).or_default() += 1;
    }

    fn may_hold(&self, tenant: TenantId, range: TimeRange) -> bool {
        self.tenant_rows.contains_key(&tenant)
            && range.start.millis() <= self.max_ts
            && self.min_ts <= range.end.millis()
    }
}

/// A sealed stretch of the arrival-ordered table: immutable rows, shared by
/// reference between the store and the queries reading it.
///
/// A run also caches its columns in the typed layout the scan kernels read
/// ([`ColumnVec`]). A column is transposed the first time a query asks for
/// it and lives as long as the run, so ingest-only traffic pays nothing and
/// a row's `Vec<Value>` is walked once per column, not once per query.
#[derive(Debug)]
pub struct Run {
    rows: Vec<LogRecord>,
    stats: RunStats,
    /// Columns transposed so far, by schema position. Held only to look a
    /// column up or to publish one — never while transposing.
    columns: OrderedMutex<Vec<Option<Arc<ColumnVec>>>>,
}

impl Run {
    /// The one construction site, so the lock label names one lock.
    fn sealed(rows: Vec<LogRecord>, stats: RunStats) -> Run {
        Run { rows, stats, columns: OrderedMutex::new("wal.run.columns", Vec::new()) }
    }

    /// A run over `rows`, in the order given.
    pub fn from_rows(rows: Vec<LogRecord>) -> Run {
        let mut stats = RunStats::empty();
        for record in &rows {
            stats.add(record);
        }
        Run::sealed(rows, stats)
    }

    /// Rows in the run.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True for a run without rows (the store never seals one).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows, in arrival order.
    pub fn rows(&self) -> &[LogRecord] {
        &self.rows
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
    /// typed batch of `dtype`, and whether this call had to transpose it
    /// (`false`: it was cached). A cell that is not of `dtype` is an error;
    /// rows are validated against the schema before they reach the store.
    pub fn column(&self, col: usize, dtype: DataType) -> Result<(Arc<ColumnVec>, bool)> {
        if let Some(Some(cached)) = self.columns.lock().get(col) {
            return Ok((Arc::clone(cached), false));
        }
        let built = Arc::new(ColumnVec::from_cells(dtype, self.rows.iter().map(|r| r.cell(col)))?);
        let mut columns = self.columns.lock();
        if columns.len() <= col {
            columns.resize(col + 1, None);
        }
        // Two queries may transpose the same column at once; the first to
        // publish is kept, so every reader shares one copy.
        Ok((Arc::clone(columns[col].get_or_insert(built)), true))
    }

    /// Bytes held by the columns transposed so far.
    pub fn cached_bytes(&self) -> u64 {
        self.columns.lock().iter().flatten().map(|c| c.approx_bytes()).sum()
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

/// Rows a drain took out of the store, still in the runs they sat in: the
/// store hands them over in O(runs), and [`Drained::into_rows`] flattens
/// them wherever the caller has no lock to hold.
#[derive(Debug, Default)]
pub struct Drained {
    runs: Vec<Arc<Run>>,
    /// Rows that come after every run's (a tenant drain picks its rows out
    /// of the runs and hands them over flat).
    rest: Vec<LogRecord>,
    /// Rows of `rest` cloned out of a run a query still held.
    cloned: u64,
}

impl Drained {
    /// Rows drained.
    pub fn row_count(&self) -> usize {
        self.runs.iter().map(|run| run.len()).sum::<usize>() + self.rest.len()
    }

    /// The drained rows in arrival order, and how many of them had to be
    /// cloned because a query still held their run: a reader is never
    /// waited for.
    pub fn into_rows(self) -> (Vec<LogRecord>, u64) {
        let mut rows = Vec::with_capacity(self.row_count());
        let mut cloned = self.cloned;
        for run in self.runs {
            match Arc::try_unwrap(run) {
                Ok(run) => rows.extend(run.rows),
                Err(shared) => {
                    cloned += shared.len() as u64;
                    rows.extend_from_slice(&shared.rows);
                }
            }
        }
        rows.extend(self.rest);
        (rows, cloned)
    }
}

/// In-memory row store for one shard.
#[derive(Debug)]
pub struct RowStore {
    /// Sealed runs, oldest first.
    runs: Vec<Arc<Run>>,
    /// The open tail: rows newer than every run's.
    tail: Vec<LogRecord>,
    tail_stats: RunStats,
    rows: usize,
    bytes: usize,
}

impl Default for RowStore {
    fn default() -> Self {
        RowStore {
            runs: Vec::new(),
            tail: Vec::new(),
            tail_stats: RunStats::empty(),
            rows: 0,
            bytes: 0,
        }
    }
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

    /// Approximate buffered bytes (drives flush thresholds / backpressure).
    /// Counts rows only: a cached column is a copy the store can rebuild.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// What every run and the tail know of their rows.
    fn stats(&self) -> impl Iterator<Item = &RunStats> {
        self.runs.iter().map(|run| &run.stats).chain(std::iter::once(&self.tail_stats))
    }

    /// Rows currently buffered for one tenant.
    pub fn tenant_rows(&self, tenant: TenantId) -> u64 {
        self.stats().filter_map(|stats| stats.tenant_rows.get(&tenant)).map(|n| u64::from(*n)).sum()
    }

    /// Appends one record (already validated upstream).
    pub fn insert(&mut self, record: LogRecord) {
        self.rows += 1;
        self.bytes += record.approx_size();
        self.tail_stats.add(&record);
        self.tail.push(record);
        if self.tail.len() >= RUN_ROWS {
            self.seal_tail();
        }
    }

    /// Turns the open tail into a run, in O(1): the rows and what is known
    /// about them move, nothing is visited.
    fn seal_tail(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        let rows = std::mem::take(&mut self.tail);
        let stats = std::mem::replace(&mut self.tail_stats, RunStats::empty());
        self.runs.push(Arc::new(Run::sealed(rows, stats)));
    }

    /// The runs that may hold rows of `tenant` within `range`, by
    /// reference, in arrival order. The open tail is sealed first if it is
    /// one of them. Visits no row: the cost is the number of runs.
    pub fn snapshot(&mut self, tenant: TenantId, range: TimeRange) -> RowSnapshot {
        if self.tail_stats.may_hold(tenant, range) {
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

    /// Every sealed run, by reference (what a gauge of the cached columns
    /// walks: the open tail has none).
    pub fn runs(&self) -> Vec<Arc<Run>> {
        self.runs.clone()
    }

    /// Removes every row, oldest first, for the data builder to convert
    /// into LogBlocks. Hands the runs over as they are; flattening them is
    /// [`Drained::into_rows`].
    pub fn drain_all(&mut self) -> Drained {
        self.seal_tail();
        self.rows = 0;
        self.bytes = 0;
        Drained { runs: std::mem::take(&mut self.runs), ..Drained::default() }
    }

    /// Removes and returns all rows for one tenant, in arrival order (used
    /// when rebalancing moves a tenant off this shard: "the tenant data
    /// will be packaged and flushed to OSS", paper §4.1.5). Runs without a
    /// row of the tenant stay as they are, cached columns included; the
    /// others are rebuilt from the rows they keep.
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
            let (rows, shared) = match Arc::try_unwrap(run) {
                Ok(run) => (run.rows, false),
                Err(held) => (held.rows.clone(), true),
            };
            let (gone, kept): (Vec<_>, Vec<_>) =
                rows.into_iter().partition(|r| r.tenant_id == tenant);
            drained.cloned += if shared { gone.len() as u64 } else { 0 };
            drained.rest.extend(gone);
            if !kept.is_empty() {
                self.runs.push(Arc::new(Run::from_rows(kept)));
            }
        }
        self.rows -= drained.rest.len();
        let bytes: usize = drained.rest.iter().map(LogRecord::approx_size).sum();
        self.bytes = self.bytes.saturating_sub(bytes);
        drained
    }

    /// Removes one buffered copy of each record in `targets` (multiset
    /// removal by value equality), returning how many were found. WAL
    /// replay uses this to re-apply a drain intent: the drained rows are
    /// somewhere in the store (their appends replayed earlier), in
    /// unknown positions because earlier drains already removed others.
    pub fn remove_batch(&mut self, targets: &[LogRecord]) -> usize {
        if targets.is_empty() {
            return 0;
        }
        // Bucket the targets by (tenant, ts) so the scan below compares
        // full records only against plausible candidates.
        let mut pending: HashMap<(TenantId, i64), Vec<&LogRecord>> = HashMap::new();
        for t in targets {
            pending.entry((t.tenant_id, t.ts.millis())).or_default().push(t);
        }
        // Nobody reads during replay: the rows move out and the survivors
        // move back in, in their order.
        let (rows, _) = self.drain_all().into_rows();
        let buffered = rows.len();
        for r in rows {
            let matched = pending
                .get_mut(&(r.tenant_id, r.ts.millis()))
                .and_then(|cands| cands.iter().position(|t| **t == r).map(|i| cands.swap_remove(i)))
                .is_some();
            if !matched {
                self.insert(r);
            }
        }
        buffered - self.rows
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
    use logstore_types::{Timestamp, Value};

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
        for r in records {
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
        let rows = snapshot.runs.iter().flat_map(|run| run.rows());
        rows.filter(|r| r.tenant_id == TenantId(1) && range.contains(r.ts))
            .map(|r| r.ts.millis())
            .collect()
    }

    #[test]
    fn insert_tracks_counts_and_bytes() {
        let s = store_with(vec![rec(1, 10, 5), rec(1, 20, 6), rec(2, 30, 7)]);
        assert_eq!(s.row_count(), 3);
        assert!(s.bytes() > 0);
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
        s.insert(rec(1, 200, 1));
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
            s.insert(rec(1, i, 0));
        }
        assert_eq!((s.runs.len(), s.runs[0].len(), s.tail.len()), (1, RUN_ROWS, 3));
        assert!(s.runs[0].within(range(0, RUN_ROWS as i64 - 1)));
        assert!(!s.runs[0].within(range(1, i64::MAX)));
    }

    #[test]
    fn a_column_is_transposed_once_and_lives_with_its_run() {
        let mut s = store_with(vec![rec(1, 10, 5), rec(2, 20, 6), rec(1, 30, 7)]);
        let run = s.snapshot(TenantId(1), TimeRange::all()).runs.remove(0);
        let (latency, transposed) = run.column(4, DataType::Int64).unwrap();
        assert!(transposed);
        assert_eq!((0..3).map(|i| latency.value(i)).collect::<Vec<_>>(), [5, 6, 7].map(Value::I64));
        let (again, transposed) = run.column(4, DataType::Int64).unwrap();
        assert!(!transposed && Arc::ptr_eq(&latency, &again));
        let (tenants, _) = run.column(0, DataType::UInt64).unwrap();
        assert_eq!(tenants.value(1), Value::U64(2));
        assert_eq!(run.cached_bytes(), latency.approx_bytes() + tenants.approx_bytes());
        // The cache counts for nothing in the flush threshold.
        assert_eq!(s.bytes(), [5, 6, 7].map(|l| rec(1, 0, l).approx_size()).iter().sum::<usize>());
        // A cell of another type than the schema's is an error, not a
        // silently different answer.
        assert!(run.column(5, DataType::Int64).is_err());
    }

    #[test]
    fn drain_all_preserves_arrival_order_across_runs_and_never_waits_for_a_reader() {
        let mut s = store_with(vec![rec(1, 30, 1), rec(2, 10, 2)]);
        let held = s.snapshot(TenantId(2), TimeRange::all());
        s.insert(rec(1, 20, 3));
        let drained = s.drain_all();
        assert_eq!(drained.row_count(), 3);
        assert_eq!((s.row_count(), s.bytes(), s.tenants()), (0, 0, vec![]));
        // The first run is still held by `held`: its rows are cloned out,
        // the tail's run is moved.
        let (rows, cloned) = drained.into_rows();
        assert_eq!(rows.iter().map(|r| r.ts.millis()).collect::<Vec<_>>(), vec![30, 10, 20]);
        assert_eq!(cloned, 2);
        assert_eq!(held.runs[0].rows().len(), 2, "the reader keeps what it took");
        assert_eq!(s.drain_all().row_count(), 0);
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
        assert!(s.bytes() < before);
        // Absent rows are simply not found.
        assert_eq!(s.remove_batch(&[rec(9, 9, 9)]), 0);
        // Removing the second copy empties the tenant.
        assert_eq!(s.remove_batch(&[dup]), 1);
        assert_eq!(s.tenant_rows(TenantId(1)), 0);
        assert_eq!(s.tenants(), vec![TenantId(2)]);
    }

    #[test]
    fn drain_tenant_extracts_only_that_tenant_and_keeps_untouched_runs() {
        let mut s = store_with(vec![rec(2, 1, 0), rec(3, 2, 0)]);
        let untouched = s.snapshot(TenantId(2), TimeRange::all()).runs.remove(0);
        untouched.column(1, DataType::Int64).unwrap();
        for r in [rec(1, 3, 0), rec(2, 4, 0), rec(1, 5, 0)] {
            s.insert(r);
        }
        let before = s.bytes();
        let (moved, _) = s.drain_tenant(TenantId(1)).into_rows();
        assert_eq!(moved.iter().map(|r| r.ts.millis()).collect::<Vec<_>>(), vec![3, 5]);
        assert_eq!((s.row_count(), s.tenants()), (3, vec![TenantId(2), TenantId(3)]));
        assert_eq!(s.bytes(), before - moved.iter().map(LogRecord::approx_size).sum::<usize>());
        assert!(Arc::ptr_eq(&s.runs[0], &untouched), "a run without the tenant is not rebuilt");
        assert!(untouched.cached_bytes() > 0);
        let (rest, _) = s.drain_all().into_rows();
        assert_eq!(rest.iter().map(|r| r.ts.millis()).collect::<Vec<_>>(), vec![1, 2, 4]);
        assert_eq!(s.drain_tenant(TenantId(1)).row_count(), 0);
    }
}
