//! Controller metadata: tenants, retention, and the LogBlock map.
//!
//! The LogBlock map is the `<tenant_id, min_ts, max_ts> → LogBlock` index
//! of Fig 8 ① — the first level of data skipping — and the unit of
//! per-tenant expiration and billing (paper §3.1).

use logstore_sync::OrderedRwLock;
use logstore_types::{Error, Result, ShardId, TenantId, TimeRange, Timestamp};
use logstore_wal::{DrainCommit, Lsn};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Durable identity of one shard drain across the whole cluster: the
/// shard plus the LSN of the drain's checkpoint in that shard's WAL. The key
/// of the drain-commit table that makes the archive upload exactly-once
/// across crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DrainId {
    /// The shard the rows were drained from.
    pub shard: ShardId,
    /// The LSN of the drain's checkpoint.
    pub lsn: Lsn,
}

/// One archived LogBlock of one tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogBlockEntry {
    /// OSS object path.
    pub path: String,
    /// Smallest `ts` in the block.
    pub min_ts: Timestamp,
    /// Largest `ts` in the block.
    pub max_ts: Timestamp,
    /// Row count.
    pub rows: u64,
    /// Packed size in bytes.
    pub bytes: u64,
}

impl LogBlockEntry {
    /// The block's time coverage.
    pub fn time_range(&self) -> TimeRange {
        TimeRange::new(self.min_ts, self.max_ts)
    }
}

/// Per-tenant registration: retention policy and usage.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TenantInfo {
    /// Data older than this many milliseconds may be expired
    /// (None = keep forever, the archival tenants).
    pub retention_ms: Option<i64>,
    /// Total archived rows.
    pub archived_rows: u64,
    /// Total archived bytes (the billing meter).
    pub archived_bytes: u64,
}

/// The controller's metadata database.
#[derive(Debug)]
pub struct MetadataStore {
    inner: OrderedRwLock<Inner>,
    // Uploads currently between `allocate_block_path` and their commit.
    // While this is non-zero, `sweep_stale_pending` refuses to reclassify
    // pending paths as garbage: a builder registers itself *before*
    // allocating, so any path a live build holds is protected. Kept as an
    // atomic (not in `Inner`) so [`BuildGuard::drop`] never takes a lock,
    // and shared so that a guard can outlive the borrow that took it.
    builds_in_flight: Arc<AtomicU64>,
}

impl Default for MetadataStore {
    fn default() -> Self {
        MetadataStore {
            inner: OrderedRwLock::new("core.metadata.inner", Inner::default()),
            builds_in_flight: Arc::new(AtomicU64::new(0)),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    tenants: HashMap<TenantId, TenantInfo>,
    // Per tenant, blocks in registration order (chronological for a given
    // shard; overlapping across shards is fine — pruning uses time ranges).
    blocks: HashMap<TenantId, Vec<LogBlockEntry>>,
    next_block_seq: u64,
    // Drain-commit table: how many leading chunks of each drain are
    // durable and registered, and the cap they were partitioned at. WAL
    // replay looks up each drain it settles without an ack, to keep
    // committed rows out of the row store; a shard's entries are pruned
    // once no replay settles their drains.
    drain_commits: HashMap<DrainId, DrainCommit>,
    // Paths whose objects must eventually be deleted from OSS but are no
    // longer (or were never) in the live map. Persistent until a delete
    // succeeds: a failed delete stays here and is retried by the next GC
    // pass, so no object is ever leaked by a transient OSS error.
    tombstones: BTreeSet<String>,
    // Allocated paths whose upload has not committed yet. Cleared by
    // `register_block` / `commit_drain` / `commit_compaction`; a path
    // still here after its build died (crash between put and commit) is
    // an orphaned object, swept into `tombstones` by the GC pass.
    pending_paths: BTreeSet<String>,
}

/// RAII registration of an in-flight build (archive upload or compaction).
/// While any guard is alive, [`MetadataStore::sweep_stale_pending`] leaves
/// pending paths alone. Take the guard *before* allocating paths. It owns
/// its registration, so a build that finishes on another thread takes it
/// along.
#[derive(Debug)]
pub struct BuildGuard {
    builds_in_flight: Arc<AtomicU64>,
}

impl Drop for BuildGuard {
    fn drop(&mut self) {
        self.builds_in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

impl MetadataStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or updates) a tenant's retention policy.
    pub fn set_retention(&self, tenant: TenantId, retention_ms: Option<i64>) {
        self.inner.write().tenants.entry(tenant).or_default().retention_ms = retention_ms;
    }

    /// Tenant info snapshot.
    pub fn tenant_info(&self, tenant: TenantId) -> TenantInfo {
        self.inner.read().tenants.get(&tenant).cloned().unwrap_or_default()
    }

    /// Registers an in-flight build. Hold the returned guard across the
    /// whole allocate→upload→commit window so the GC pass cannot sweep the
    /// build's pending paths out from under it.
    pub fn begin_build(&self) -> BuildGuard {
        self.builds_in_flight.fetch_add(1, Ordering::SeqCst);
        BuildGuard { builds_in_flight: Arc::clone(&self.builds_in_flight) }
    }

    /// Allocates a unique LogBlock object path for a tenant. Per-tenant
    /// OSS directories give the physical isolation of §3.1. The path is
    /// recorded as a *pending intent* until a commit registers it, so an
    /// object orphaned by a crash between upload and commit is found and
    /// deleted by GC rather than leaked.
    pub fn allocate_block_path(&self, tenant: TenantId) -> String {
        let mut inner = self.inner.write();
        inner.next_block_seq += 1;
        let path = format!("tenants/{}/blk-{:012}.pack", tenant.raw(), inner.next_block_seq);
        inner.pending_paths.insert(path.clone());
        path
    }

    /// Registers one uploaded LogBlock outside any drain.
    pub fn register_block(&self, tenant: TenantId, entry: LogBlockEntry) -> Result<()> {
        self.commit_drain(None, vec![(tenant, entry)], usize::MAX)
    }

    /// Atomically registers the blocks of a drain's durable prefix — one
    /// per chunk, in chunk order — and, for a named drain, records that
    /// those chunks of it, partitioned at `chunk_rows`, are durable. One
    /// metadata transaction is what makes the upload exactly-once: a crash
    /// before this call leaves no trace (replay restores every drained row,
    /// the orphaned objects are garbage, not duplicates); a crash after it
    /// leaves the commit visible, so replay keeps the registered rows out.
    pub fn commit_drain(
        &self,
        id: Option<DrainId>,
        blocks: Vec<(TenantId, LogBlockEntry)>,
        chunk_rows: usize,
    ) -> Result<()> {
        if blocks.iter().any(|(_, entry)| entry.min_ts > entry.max_ts) {
            return Err(Error::invalid("block time range inverted"));
        }
        let mut inner = self.inner.write();
        if let Some(id) = id {
            if inner.drain_commits.contains_key(&id) {
                return Err(Error::invalid(format!("drain {id:?} committed twice")));
            }
            let commit = DrainCommit { chunks: blocks.len() as u64, chunk_rows };
            inner.drain_commits.insert(id, commit);
        }
        for (tenant, entry) in blocks {
            inner.pending_paths.remove(&entry.path);
            let info = inner.tenants.entry(tenant).or_default();
            info.archived_rows += entry.rows;
            info.archived_bytes += entry.bytes;
            inner.blocks.entry(tenant).or_default().push(entry);
        }
        Ok(())
    }

    /// What drain `id` committed (`None` if the drain never committed).
    pub fn drain_commit(&self, id: DrainId) -> Option<DrainCommit> {
        self.inner.read().drain_commits.get(&id).copied()
    }

    /// Drops the commit records of `shard`'s drains whose checkpoint LSN
    /// is below `below`. Call it only once no replay of the shard's WAL
    /// settles a drain below `below` through this table: a drain settled
    /// after its record is gone restores rows that are already on OSS.
    pub fn prune_drain_commits(&self, shard: ShardId, below: Lsn) {
        let mut inner = self.inner.write();
        inner.drain_commits.retain(|id, _| id.shard != shard || id.lsn >= below);
    }

    /// LogBlock-map pruning (Fig 8 ①): the blocks of `tenant` overlapping
    /// `range`, and how many blocks the tenant has in all — one read of one
    /// map, so "pruned = total − overlapping" holds whatever compaction or
    /// expiry does next.
    pub fn blocks_for(&self, tenant: TenantId, range: TimeRange) -> (Vec<LogBlockEntry>, u64) {
        let inner = self.inner.read();
        let Some(blocks) = inner.blocks.get(&tenant) else { return (Vec::new(), 0) };
        let overlapping =
            blocks.iter().filter(|b| b.time_range().overlaps(&range)).cloned().collect();
        (overlapping, blocks.len() as u64)
    }

    /// All blocks of a tenant.
    pub fn all_blocks(&self, tenant: TenantId) -> Vec<LogBlockEntry> {
        self.inner.read().blocks.get(&tenant).cloned().unwrap_or_default()
    }

    /// Total block count (all tenants).
    pub fn block_count(&self) -> usize {
        self.inner.read().blocks.values().map(Vec::len).sum()
    }

    /// Tenants with registered data.
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut t: Vec<TenantId> = self.inner.read().blocks.keys().copied().collect();
        t.sort_unstable();
        t
    }

    /// Removes expired blocks of `tenant` as of `now` per its retention
    /// policy. The removed paths move to the tombstone list in the *same*
    /// metadata transaction — the map swap and the tombstoning are atomic,
    /// so the subsequent OSS deletes can fail (or the process can crash)
    /// without leaking an object: the path is either live in the map or on
    /// the tombstone list, never forgotten. Returns the newly tombstoned
    /// paths.
    pub fn expire(&self, tenant: TenantId, now: Timestamp) -> Vec<String> {
        let mut inner = self.inner.write();
        let Some(retention) = inner.tenants.get(&tenant).and_then(|t| t.retention_ms) else {
            return Vec::new();
        };
        let cutoff = Timestamp(now.millis().saturating_sub(retention));
        let Some(blocks) = inner.blocks.get_mut(&tenant) else {
            return Vec::new();
        };
        let mut expired = Vec::new();
        let mut removed_rows = 0u64;
        let mut removed_bytes = 0u64;
        blocks.retain(|b| {
            // A block expires only when *all* its data is past the cutoff.
            if b.max_ts < cutoff {
                expired.push(b.path.clone());
                removed_rows += b.rows;
                removed_bytes += b.bytes;
                false
            } else {
                true
            }
        });
        if expired.is_empty() {
            return expired;
        }
        if let Some(info) = inner.tenants.get_mut(&tenant) {
            // Saturating: if accounting ever drifts, clamp to zero instead
            // of underflow-panicking the expiration pass.
            info.archived_rows = info.archived_rows.saturating_sub(removed_rows);
            info.archived_bytes = info.archived_bytes.saturating_sub(removed_bytes);
        }
        inner.tombstones.extend(expired.iter().cloned());
        expired
    }

    /// Whether `path` is currently in `tenant`'s live block map.
    pub fn is_block_mapped(&self, tenant: TenantId, path: &str) -> bool {
        self.inner
            .read()
            .blocks
            .get(&tenant)
            .is_some_and(|blocks| blocks.iter().any(|b| b.path == path))
    }

    /// Plans one compaction: verifies every source is currently mapped for
    /// `tenant` and allocates the merged block's path (as a pending
    /// intent). The sources stay live — a crash from here until the commit
    /// loses nothing but the (garbage-collected) merged upload.
    pub fn begin_compaction(&self, tenant: TenantId, sources: &[String]) -> Result<String> {
        if sources.len() < 2 {
            return Err(Error::invalid("compaction needs at least two source blocks"));
        }
        {
            let inner = self.inner.read();
            let blocks = inner
                .blocks
                .get(&tenant)
                .ok_or_else(|| Error::Stale(format!("tenant {tenant:?} has no blocks")))?;
            for src in sources {
                if !blocks.iter().any(|b| &b.path == src) {
                    return Err(Error::Stale(format!("source block {src} is no longer mapped")));
                }
            }
        }
        Ok(self.allocate_block_path(tenant))
    }

    /// Commits one compaction atomically: re-verifies the sources are
    /// still mapped (a concurrent expire or compact may have won), swaps
    /// them out for `merged` in one transaction, moves their paths to the
    /// tombstone list and bumps the map version. On a verification failure
    /// nothing changes — the caller aborts (tombstoning the merged path).
    pub fn commit_compaction(
        &self,
        tenant: TenantId,
        merged: LogBlockEntry,
        sources: &[String],
    ) -> Result<()> {
        if merged.min_ts > merged.max_ts {
            return Err(Error::invalid("block time range inverted"));
        }
        let mut inner = self.inner.write();
        let blocks = inner
            .blocks
            .get_mut(&tenant)
            .ok_or_else(|| Error::Stale(format!("tenant {tenant:?} has no blocks")))?;
        for src in sources {
            if !blocks.iter().any(|b| &b.path == src) {
                return Err(Error::Stale(format!("source block {src} is no longer mapped")));
            }
        }
        let (mut removed_rows, mut removed_bytes) = (0u64, 0u64);
        blocks.retain(|b| {
            if sources.contains(&b.path) {
                removed_rows += b.rows;
                removed_bytes += b.bytes;
                false
            } else {
                true
            }
        });
        let (path, rows, bytes) = (merged.path.clone(), merged.rows, merged.bytes);
        blocks.push(merged);
        if let Some(info) = inner.tenants.get_mut(&tenant) {
            info.archived_rows = info.archived_rows.saturating_sub(removed_rows) + rows;
            info.archived_bytes = info.archived_bytes.saturating_sub(removed_bytes) + bytes;
        }
        inner.pending_paths.remove(&path);
        inner.tombstones.extend(sources.iter().cloned());
        Ok(())
    }

    /// Aborts a planned compaction: the merged path (which may or may not
    /// have been uploaded) moves from pending to the tombstone list, so GC
    /// deletes whatever made it to OSS. Idempotent; a path that already
    /// committed is left alone.
    pub fn abort_compaction(&self, path: &str) {
        let mut inner = self.inner.write();
        if inner.pending_paths.remove(path) {
            inner.tombstones.insert(path.to_string());
        }
    }

    /// Snapshot of the tombstone list.
    pub fn tombstones(&self) -> Vec<String> {
        self.inner.read().tombstones.iter().cloned().collect()
    }

    /// Drops one tombstone after its object was deleted from OSS.
    pub fn remove_tombstone(&self, path: &str) {
        self.inner.write().tombstones.remove(path);
    }

    /// Snapshot of the pending (allocated, uncommitted) paths.
    pub fn pending_paths(&self) -> Vec<String> {
        self.inner.read().pending_paths.iter().cloned().collect()
    }

    /// Reclassifies pending paths as garbage: every pending path moves to
    /// the tombstone list. Only legal when no build is in flight (a crash
    /// left them behind); with live builds this is a no-op returning 0.
    pub fn sweep_stale_pending(&self) -> usize {
        let mut inner = self.inner.write();
        // Checked under the write lock: a build registers itself before
        // allocating, and allocation needs this lock — so a count of zero
        // here proves no live build owns any currently-pending path.
        if self.builds_in_flight.load(Ordering::SeqCst) != 0 {
            return 0;
        }
        let stale = std::mem::take(&mut inner.pending_paths);
        let swept = stale.len();
        inner.tombstones.extend(stale);
        swept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(path: &str, min: i64, max: i64, rows: u64) -> LogBlockEntry {
        LogBlockEntry {
            path: path.to_string(),
            min_ts: Timestamp(min),
            max_ts: Timestamp(max),
            rows,
            bytes: rows * 100,
        }
    }

    #[test]
    fn register_and_prune_by_time() {
        let m = MetadataStore::new();
        let t = TenantId(1);
        m.register_block(t, entry("a", 0, 100, 10)).unwrap();
        m.register_block(t, entry("b", 101, 200, 10)).unwrap();
        m.register_block(t, entry("c", 201, 300, 10)).unwrap();
        let (hits, total) = m.blocks_for(t, TimeRange::new(Timestamp(150), Timestamp(250)));
        assert_eq!((hits.len(), total), (2, 3));
        assert_eq!(hits[0].path, "b");
        assert_eq!(hits[1].path, "c");
        let (none, total) = m.blocks_for(t, TimeRange::new(Timestamp(500), Timestamp(600)));
        assert_eq!((none.len(), total), (0, 3), "pruned blocks still count");
        assert_eq!(m.blocks_for(TenantId(9), TimeRange::all()), (Vec::new(), 0));
        assert_eq!(m.block_count(), 3);
    }

    #[test]
    fn tenant_isolation_in_paths() {
        let m = MetadataStore::new();
        let p1 = m.allocate_block_path(TenantId(1));
        let p2 = m.allocate_block_path(TenantId(2));
        assert!(p1.starts_with("tenants/1/"));
        assert!(p2.starts_with("tenants/2/"));
        assert_ne!(p1, p2);
    }

    #[test]
    fn billing_counters_accumulate() {
        let m = MetadataStore::new();
        let t = TenantId(3);
        m.register_block(t, entry("a", 0, 10, 100)).unwrap();
        m.register_block(t, entry("b", 11, 20, 50)).unwrap();
        let info = m.tenant_info(t);
        assert_eq!(info.archived_rows, 150);
        assert_eq!(info.archived_bytes, 15_000);
    }

    #[test]
    fn expiration_respects_retention_and_block_boundaries() {
        let m = MetadataStore::new();
        let t = TenantId(1);
        m.set_retention(t, Some(100));
        m.register_block(t, entry("old", 0, 50, 10)).unwrap();
        m.register_block(t, entry("straddles", 60, 150, 10)).unwrap();
        m.register_block(t, entry("fresh", 160, 200, 10)).unwrap();
        let expired = m.expire(t, Timestamp(200));
        assert_eq!(expired, vec!["old"]); // cutoff = 100; only max_ts < 100
        assert_eq!(m.all_blocks(t).len(), 2);
        assert_eq!(m.tenant_info(t).archived_rows, 20);
    }

    #[test]
    fn no_retention_means_no_expiry() {
        let m = MetadataStore::new();
        let t = TenantId(1);
        m.register_block(t, entry("keep", 0, 1, 1)).unwrap();
        assert!(m.expire(t, Timestamp(i64::MAX)).is_empty());
        assert_eq!(m.all_blocks(t).len(), 1);
    }

    #[test]
    fn inverted_range_rejected() {
        let m = MetadataStore::new();
        assert!(m.register_block(TenantId(1), entry("bad", 10, 5, 1)).is_err());
    }

    #[test]
    fn expire_moves_paths_to_tombstones() {
        let m = MetadataStore::new();
        let t = TenantId(1);
        m.set_retention(t, Some(100));
        m.register_block(t, entry("old", 0, 50, 10)).unwrap();
        m.register_block(t, entry("fresh", 160, 200, 10)).unwrap();
        let expired = m.expire(t, Timestamp(200));
        assert_eq!(expired, vec!["old"]);
        assert_eq!(m.tombstones(), vec!["old"]);
        assert!(!m.is_block_mapped(t, "old"));
        assert!(m.is_block_mapped(t, "fresh"));
        // A no-op expire tombstones nothing and unmaps nothing.
        assert!(m.expire(t, Timestamp(200)).is_empty());
        assert_eq!(m.tombstones(), vec!["old"]);
        assert!(m.is_block_mapped(t, "fresh"));
        m.remove_tombstone("old");
        assert!(m.tombstones().is_empty());
    }

    #[test]
    fn drifted_accounting_saturates_instead_of_panicking() {
        let m = MetadataStore::new();
        let t = TenantId(1);
        m.set_retention(t, Some(10));
        m.register_block(t, entry("a", 0, 5, 10)).unwrap();
        // Simulate accounting drift: fewer rows on record than the block
        // claims. The expire pass must clamp, not underflow.
        m.inner.write().tenants.get_mut(&t).unwrap().archived_rows = 3;
        let expired = m.expire(t, Timestamp(1_000));
        assert_eq!(expired, vec!["a"]);
        assert_eq!(m.tenant_info(t).archived_rows, 0);
    }

    #[test]
    fn compaction_swap_is_atomic_and_tombstones_sources() {
        let m = MetadataStore::new();
        let t = TenantId(1);
        m.register_block(t, entry("a", 0, 10, 10)).unwrap();
        m.register_block(t, entry("b", 11, 20, 10)).unwrap();
        m.register_block(t, entry("c", 21, 30, 10)).unwrap();
        let sources = vec!["a".to_string(), "b".to_string()];
        let merged_path = m.begin_compaction(t, &sources).unwrap();
        assert!(m.pending_paths().contains(&merged_path));
        let mut merged = entry("m", 0, 20, 20);
        merged.path = merged_path.clone();
        m.commit_compaction(t, merged, &sources).unwrap();
        assert!(!m.is_block_mapped(t, "a"));
        assert!(!m.is_block_mapped(t, "b"));
        assert!(m.is_block_mapped(t, "c"));
        assert!(m.is_block_mapped(t, &merged_path));
        assert_eq!(m.tombstones(), vec!["a".to_string(), "b".to_string()]);
        assert!(m.pending_paths().is_empty());
        // Row/byte accounting is preserved across the swap.
        assert_eq!(m.tenant_info(t).archived_rows, 30);
    }

    #[test]
    fn commit_compaction_detects_stale_sources() {
        let m = MetadataStore::new();
        let t = TenantId(1);
        m.set_retention(t, Some(1));
        m.register_block(t, entry("a", 0, 10, 10)).unwrap();
        m.register_block(t, entry("b", 11, 20, 10)).unwrap();
        let sources = vec!["a".to_string(), "b".to_string()];
        let merged_path = m.begin_compaction(t, &sources).unwrap();
        // A concurrent expire wins the race and unmaps both sources.
        m.expire(t, Timestamp(10_000));
        let mut merged = entry("m", 0, 20, 20);
        merged.path = merged_path.clone();
        let err = m.commit_compaction(t, merged, &sources).unwrap_err();
        assert!(matches!(err, Error::Stale(_)), "expected Stale, got {err}");
        // Abort: the uploaded-but-never-committed merged object becomes a
        // tombstone so GC deletes it. Aborting twice is harmless.
        m.abort_compaction(&merged_path);
        m.abort_compaction(&merged_path);
        assert!(m.tombstones().contains(&merged_path));
        assert!(m.pending_paths().is_empty());
    }

    #[test]
    fn begin_compaction_rejects_unmapped_or_short_runs() {
        let m = MetadataStore::new();
        let t = TenantId(1);
        m.register_block(t, entry("a", 0, 10, 10)).unwrap();
        assert!(m.begin_compaction(t, &["a".to_string()]).is_err());
        let err = m.begin_compaction(t, &["a".to_string(), "ghost".to_string()]).unwrap_err();
        assert!(matches!(err, Error::Stale(_)));
    }

    #[test]
    fn sweep_respects_in_flight_builds() {
        let m = MetadataStore::new();
        let t = TenantId(1);
        let guard = m.begin_build();
        let path = m.allocate_block_path(t);
        assert_eq!(m.sweep_stale_pending(), 0, "live build's path must not be swept");
        assert!(m.tombstones().is_empty());
        drop(guard);
        assert_eq!(m.sweep_stale_pending(), 1);
        assert!(m.tombstones().contains(&path));
        assert!(m.pending_paths().is_empty());
    }

    #[test]
    fn committed_paths_leave_the_pending_set() {
        let m = MetadataStore::new();
        let t = TenantId(1);
        let path = m.allocate_block_path(t);
        let mut e = entry("x", 0, 10, 5);
        e.path = path.clone();
        m.register_block(t, e).unwrap();
        assert!(m.pending_paths().is_empty());
        assert_eq!(m.sweep_stale_pending(), 0);
    }
}
