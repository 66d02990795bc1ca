//! The write-optimized real-time store.
//!
//! Phase one of the two-phase write keeps rows exactly as they arrive — no
//! indexes, no compression, one big arrival-ordered table shared by all
//! tenants (paper §3.1: "all log data is stored in a single huge table ...
//! to improve space efficiency and reduce random I/O"). Queries over recent
//! data scan it directly; the data builder drains it into per-tenant
//! LogBlocks in the background.

use logstore_types::{LogRecord, TenantId, TimeRange};
use std::collections::HashMap;

/// In-memory row store for one shard.
#[derive(Debug, Default)]
pub struct RowStore {
    rows: Vec<LogRecord>,
    bytes: usize,
    per_tenant_rows: HashMap<TenantId, u64>,
}

impl RowStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        RowStore::default()
    }

    /// Number of buffered rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Approximate buffered bytes (drives flush thresholds / backpressure).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Rows currently buffered for one tenant.
    pub fn tenant_rows(&self, tenant: TenantId) -> u64 {
        self.per_tenant_rows.get(&tenant).copied().unwrap_or(0)
    }

    /// Appends one record (already validated upstream).
    pub fn insert(&mut self, record: LogRecord) {
        self.bytes += record.approx_size();
        *self.per_tenant_rows.entry(record.tenant_id).or_default() += 1;
        self.rows.push(record);
    }

    /// Visits buffered rows of one tenant within a time range, in arrival
    /// order, until `f` returns `false`. Predicate logic stays with the
    /// caller, no records are cloned, and the visitor can stop early (the
    /// query layer's unordered-`LIMIT` short circuit).
    pub fn for_each_in(
        &self,
        tenant: TenantId,
        range: TimeRange,
        mut f: impl FnMut(&LogRecord) -> bool,
    ) {
        for r in &self.rows {
            if r.tenant_id == tenant && range.contains(r.ts) && !f(r) {
                return;
            }
        }
    }

    /// Removes and returns the oldest `max_rows` rows (arrival order), for
    /// the data builder to convert into LogBlocks.
    pub fn drain_oldest(&mut self, max_rows: usize) -> Vec<LogRecord> {
        let n = max_rows.min(self.rows.len());
        let drained: Vec<LogRecord> = self.rows.drain(..n).collect();
        for r in &drained {
            self.bytes = self.bytes.saturating_sub(r.approx_size());
            if let Some(count) = self.per_tenant_rows.get_mut(&r.tenant_id) {
                *count -= 1;
                if *count == 0 {
                    self.per_tenant_rows.remove(&r.tenant_id);
                }
            }
        }
        drained
    }

    /// Removes and returns all rows for one tenant (used when rebalancing
    /// moves a tenant off this shard: "the tenant data will be packaged and
    /// flushed to OSS", paper §4.1.5).
    pub fn drain_tenant(&mut self, tenant: TenantId) -> Vec<LogRecord> {
        let mut kept = Vec::with_capacity(self.rows.len());
        let mut drained = Vec::new();
        for r in self.rows.drain(..) {
            if r.tenant_id == tenant {
                self.bytes = self.bytes.saturating_sub(r.approx_size());
                drained.push(r);
            } else {
                kept.push(r);
            }
        }
        self.rows = kept;
        self.per_tenant_rows.remove(&tenant);
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
        let mut kept = Vec::with_capacity(self.rows.len());
        let mut removed = 0;
        for r in self.rows.drain(..) {
            let mut matched = false;
            if let Some(cands) = pending.get_mut(&(r.tenant_id, r.ts.millis())) {
                if let Some(i) = cands.iter().position(|t| **t == r) {
                    cands.swap_remove(i);
                    matched = true;
                }
            }
            if matched {
                removed += 1;
                self.bytes = self.bytes.saturating_sub(r.approx_size());
                if let Some(count) = self.per_tenant_rows.get_mut(&r.tenant_id) {
                    *count = count.saturating_sub(1);
                    if *count == 0 {
                        self.per_tenant_rows.remove(&r.tenant_id);
                    }
                }
            } else {
                kept.push(r);
            }
        }
        self.rows = kept;
        removed
    }

    /// Tenants with buffered rows.
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut t: Vec<TenantId> = self.per_tenant_rows.keys().copied().collect();
        t.sort_unstable();
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
    fn for_each_in_filters_tenant_and_time_and_stops_early() {
        let s = store_with(vec![rec(1, 10, 50), rec(1, 20, 150), rec(2, 15, 150), rec(1, 200, 1)]);
        let visit = |range: TimeRange, limit: usize| {
            let mut seen = Vec::new();
            s.for_each_in(TenantId(1), range, |r| {
                seen.push(r.ts);
                seen.len() < limit
            });
            seen
        };
        let range = TimeRange::new(Timestamp(0), Timestamp(100));
        assert_eq!(visit(range, usize::MAX), vec![Timestamp(10), Timestamp(20)]);
        assert_eq!(visit(TimeRange::new(Timestamp(15), Timestamp(25)), usize::MAX).len(), 1);
        assert_eq!(visit(TimeRange::all(), 2), vec![Timestamp(10), Timestamp(20)], "early stop");
    }

    #[test]
    fn drain_oldest_preserves_arrival_order() {
        let mut s = store_with(vec![rec(1, 30, 1), rec(2, 10, 2), rec(1, 20, 3)]);
        let drained = s.drain_oldest(2);
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].ts, Timestamp(30));
        assert_eq!(drained[1].ts, Timestamp(10));
        assert_eq!(s.row_count(), 1);
        assert_eq!(s.tenant_rows(TenantId(2)), 0);
        assert_eq!(s.tenant_rows(TenantId(1)), 1);
        assert!(s.drain_oldest(100).len() == 1);
        assert_eq!(s.bytes(), 0);
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
    fn drain_tenant_extracts_only_that_tenant() {
        let mut s = store_with(vec![rec(1, 1, 0), rec(2, 2, 0), rec(1, 3, 0)]);
        let moved = s.drain_tenant(TenantId(1));
        assert_eq!(moved.len(), 2);
        assert_eq!(s.row_count(), 1);
        assert_eq!(s.tenants(), vec![TenantId(2)]);
    }
}
