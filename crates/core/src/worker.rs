//! Workers: shard ownership and the phase-one write path.
//!
//! A worker owns a set of shards. Each shard is one
//! [`logstore_wal::ShardStore`] — the write-optimized row store, WAL-backed
//! when the worker has a data dir — optionally Raft-replicated, plus ingest
//! accounting that feeds the traffic monitor. The store owns the storage
//! protocol (log → apply, drain → ack/restore, truncation); the worker adds
//! shard lookup, validation, BFC admission, replication, window accounting
//! and crash hooks. The data builder drains shards in the background (phase
//! two, [`crate::databuilder`]).

use crate::hooks::{CrashHooks, CrashPoint};
use crate::metadata::{DrainId, MetadataStore};
/// Raft batch payloads share the WAL's codec (including its corruption
/// guards); re-exported for replica catch-up tooling and tests.
pub use logstore_codec::batch::decode_batch;
use logstore_raft::{InProcCluster, RaftConfig, Replica};
use logstore_sync::OrderedMutex;
use logstore_types::{
    Error, LogRecord, RecordBatch, Result, ShardId, TableSchema, TenantId, TimeRange, WorkerId,
};
pub use logstore_wal::LoggedDrain;
use logstore_wal::{
    DrainResolver, DrainSeq, NoCommittedDrains, RowSnapshot, ShardStore, WalConfig,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Links durable shards to the metadata store's drain-commit table, so
/// WAL replay can tell committed (on-OSS) drain rows from lost ones.
#[derive(Clone)]
pub struct ArchiveCatalog {
    /// The cluster metadata store holding the drain-commit table.
    pub metadata: Arc<MetadataStore>,
    /// The uploader's chunk row cap (`max_rows_per_logblock`) — replay
    /// must re-chunk a drain exactly the way the uploader did.
    pub chunk_rows: usize,
}

/// Per-shard [`DrainResolver`] over the metadata store.
struct CatalogResolver {
    catalog: ArchiveCatalog,
    shard: ShardId,
}

impl DrainResolver for CatalogResolver {
    fn committed_chunks(&self, seq: DrainSeq) -> Option<u64> {
        self.catalog.metadata.drain_commit(DrainId { shard: self.shard, seq })
    }

    fn chunk_rows(&self) -> usize {
        self.catalog.chunk_rows
    }
}

/// Per-shard ingest counters for one monitoring window.
#[derive(Debug, Default, Clone)]
pub struct ShardWindow {
    /// Records ingested this window.
    pub total: u64,
    /// Per-tenant breakdown.
    pub per_tenant: HashMap<TenantId, u64>,
}

/// What a shard replica keeps of the replicated log: the count of batches
/// it applied, which is also its compaction snapshot — a replica that falls
/// behind rebuilds its rows from OSS, not from the log. (The seat a
/// follower's own `ShardStore` takes when replicas move to distinct
/// workers, ROADMAP item 4.)
#[derive(Clone, Default)]
struct ArchiveWatermark(u64);

impl Replica for ArchiveWatermark {
    fn apply(&mut self, _batch: &[u8]) {
        self.0 += 1;
    }

    fn snapshot(&self) -> Vec<u8> {
        self.0.to_le_bytes().to_vec()
    }

    fn restore(&mut self, data: &[u8]) -> Result<()> {
        let bytes = data.try_into().map_err(|_| Error::corruption("archive watermark size"))?;
        self.0 = u64::from_le_bytes(bytes);
        Ok(())
    }
}

// One label per field across all shards: the worker never holds two of
// store (`wal.shard.inner`, taken inside `ShardStore`)/raft/window at once
// (each is taken in its own scope), and the debug lock analysis enforces
// that.
struct ShardState {
    /// Phase-one storage: row store plus, on durable shards, the WAL.
    store: ShardStore,
    raft: Option<OrderedMutex<InProcCluster<ArchiveWatermark>>>,
    window: OrderedMutex<ShardWindow>,
}

/// One worker node.
pub struct Worker {
    id: WorkerId,
    shards: HashMap<ShardId, ShardState>,
    schema: TableSchema,
    backpressure_bytes: usize,
    hooks: Arc<dyn CrashHooks>,
}

impl Worker {
    /// Creates a worker owning `shard_ids`. Durable shards (those with a
    /// `data_dir`) replay their WAL on open; with an [`ArchiveCatalog`]
    /// the replay reconciles drain intents against the drain-commit table
    /// so rows already on OSS are not resurrected. `hooks` injects
    /// simulated crash points ([`crate::hooks::noop_hooks`] in production).
    #[allow(clippy::too_many_arguments)] // construction-time wiring, called once per worker
    pub fn new(
        id: WorkerId,
        shard_ids: &[ShardId],
        schema: &TableSchema,
        backpressure_bytes: usize,
        raft_replicas: usize,
        data_dir: Option<&PathBuf>,
        wal_config: WalConfig,
        seed: u64,
        archive_catalog: Option<&ArchiveCatalog>,
        hooks: Arc<dyn CrashHooks>,
    ) -> Result<Self> {
        let mut shards = HashMap::new();
        for &shard in shard_ids {
            let store = match data_dir {
                Some(dir) => {
                    let shard_dir = dir
                        .join(format!("worker-{}", id.raw()))
                        .join(format!("shard-{}", shard.raw()));
                    let catalog = archive_catalog
                        .map(|catalog| CatalogResolver { catalog: catalog.clone(), shard });
                    let resolver: &dyn DrainResolver = match &catalog {
                        Some(resolver) => resolver,
                        None => &NoCommittedDrains,
                    };
                    ShardStore::open_with(shard_dir, wal_config.clone(), resolver)?
                }
                None => ShardStore::in_memory(),
            };
            let raft = if raft_replicas > 1 {
                let mut cluster = InProcCluster::with_replicas(
                    vec![ArchiveWatermark::default(); raft_replicas],
                    RaftConfig::default(),
                    seed ^ u64::from(shard.raw()),
                );
                cluster
                    .run_until_leader(500)
                    .ok_or_else(|| Error::Raft("shard group failed to elect".into()))?;
                Some(OrderedMutex::new("core.worker.raft", cluster))
            } else {
                None
            };
            shards.insert(
                shard,
                ShardState {
                    store,
                    raft,
                    window: OrderedMutex::new("core.worker.window", ShardWindow::default()),
                },
            );
        }
        Ok(Worker { id, shards, schema: schema.clone(), backpressure_bytes, hooks })
    }

    /// This worker's id.
    pub fn id(&self) -> WorkerId {
        self.id
    }

    /// Shards owned by this worker.
    pub fn shard_ids(&self) -> Vec<ShardId> {
        let mut ids: Vec<ShardId> = self.shards.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    fn shard(&self, shard: ShardId) -> Result<&ShardState> {
        self.shards
            .get(&shard)
            .ok_or_else(|| Error::Cluster(format!("{shard} not on worker {}", self.id)))
    }

    /// Phase-one ingest of a batch into one shard — the lock-light fast
    /// path. Validation runs with no locks held; the BFC admission check
    /// and the final row-store apply each take the shard store's lock only
    /// briefly; the (possibly fsyncing) WAL group append runs with *no*
    /// locks held, so concurrent producers coalesce into shared group
    /// commits instead of queueing on the shard.
    ///
    /// Replication overlaps local persistence: the batch is submitted to
    /// the Raft group (short `propose` critical section) *before* the WAL
    /// append, and the quorum wait happens after it — the ack requires
    /// the later of quorum and local-durable, not their sum.
    /// Consumes the batch — records move into the store, never cloned.
    pub fn append(&self, shard: ShardId, batch: RecordBatch) -> Result<()> {
        let state = self.shard(shard)?;
        for r in &batch.records {
            r.validate(&self.schema)?;
        }
        // BFC admission: one short scope of the store's lock.
        let buffered = state.store.buffered_bytes();
        if buffered + batch.approx_size() > self.backpressure_bytes {
            return Err(Error::Backpressure(format!(
                "shard {shard} row store at {buffered} bytes"
            )));
        }
        // One encode per sub-batch, shared by both durable paths: the WAL
        // payload is a tag plus the batch body, the Raft entry an exact-size
        // copy of the body (the replicas keep it until the archive ack). A
        // memory-only, unreplicated shard has no log and encodes nothing.
        let payload = if state.raft.is_some() || state.store.is_durable() {
            ShardStore::encode_batch_payload(&batch.records)
        } else {
            Vec::new()
        };
        // Submit to replication first: propose only (short raft lock),
        // capturing the log index to wait on after local persistence.
        let raft_index = match &state.raft {
            Some(raft) => Some(raft.lock().propose(ShardStore::batch_body(&payload).to_vec())?),
            None => None,
        };
        // Local WAL persistence with no locks held — producers staging
        // concurrently ride one group commit. Every error return below
        // drops `logged`, which releases its LSN: the rows stay in the WAL
        // in doubt (never acked, never applied live) without pinning
        // truncation.
        let logged = state.store.log_batch(&payload)?;
        // Now wait for quorum (the paper's sync_queue wait, §4.2): drive
        // the group until the proposed entry commits on the leader.
        if let (Some(raft), Some(index)) = (&state.raft, raft_index) {
            raft.lock().commit(index, 1000)?;
        }
        // Window accounting happens only on success; tally before the
        // records move into the store.
        let total = batch.len() as u64;
        let mut per_tenant: HashMap<TenantId, u64> = HashMap::new();
        for r in &batch.records {
            *per_tenant.entry(r.tenant_id).or_default() += 1;
        }
        state.store.apply(batch.records, logged);
        let mut window = state.window.lock();
        window.total += total;
        for (tenant, n) in per_tenant {
            *window.per_tenant.entry(tenant).or_default() += n;
        }
        drop(window);
        // The batch is durable (WAL + row store) but the caller has not
        // seen Ok yet — the simulated-crash window where rows are
        // "in doubt": present after recovery, never acknowledged.
        self.hooks.reached(CrashPoint::AfterWalAppend);
        Ok(())
    }

    /// The real-time runs of one shard that may hold rows of `tenant`
    /// within `range`, by reference and in arrival order. Taking it holds
    /// the shard lock for the length of the run list; the query layer's
    /// [`logstore_query::RowCollector`] then scans the runs with no lock
    /// held, beside appends and drains.
    pub fn snapshot(
        &self,
        shard: ShardId,
        tenant: TenantId,
        range: TimeRange,
    ) -> Result<RowSnapshot> {
        Ok(self.shard(shard)?.store.snapshot(tenant, range))
    }

    /// Buffered row-store bytes of one shard.
    pub fn buffered_bytes(&self, shard: ShardId) -> Result<usize> {
        Ok(self.shard(shard)?.store.buffered_bytes())
    }

    /// Bytes of the column batches queries have left cached on one shard's
    /// buffered runs (not part of [`Worker::buffered_bytes`]).
    pub fn cached_column_bytes(&self, shard: ShardId) -> Result<u64> {
        Ok(self.shard(shard)?.store.cached_column_bytes())
    }

    /// Buffered rows of one shard.
    pub fn buffered_rows(&self, shard: ShardId) -> Result<usize> {
        Ok(self.shard(shard)?.store.buffered_rows())
    }

    /// Tenants with buffered rows on one shard. On a durable shard right
    /// after open this is the set WAL replay resurrected — the input to
    /// recovery route restoration.
    pub fn buffered_tenants(&self, shard: ShardId) -> Result<Vec<TenantId>> {
        Ok(self.shard(shard)?.store.buffered_tenants())
    }

    /// Drains `shard` if its buffer exceeds `flush_bytes` (or
    /// unconditionally when `force`), returning the drain seq and rows for
    /// the data builder (the seq is `Some` for durable shards, naming the
    /// WAL drain intent the shard logged). A non-empty drain (`Some`)
    /// opens an in-flight archive op on the shard that the engine must
    /// close with exactly one [`Worker::ack_archived`] (upload succeeded)
    /// or [`Worker::restore_unarchived`] (upload failed) — WAL truncation
    /// stays blocked until all ops on a shard are closed.
    ///
    /// One shard per call, on purpose: drained rows are in neither the row
    /// store nor the LogBlock map until their upload commits, so the
    /// engine drains a shard only when it is about to build it — never a
    /// whole worker's shards ahead of the first upload.
    ///
    /// When the drain intent fails to log, the rows are already back in
    /// the row store and the error is returned.
    pub fn drain_shard_for_build(
        &self,
        shard: ShardId,
        flush_bytes: usize,
        force: bool,
    ) -> Result<Option<LoggedDrain>> {
        self.shard(shard)?.store.drain_all(if force { 0 } else { flush_bytes })
    }

    /// Drains one tenant from one shard (rebalance flush, §4.1.5). A
    /// non-empty drain (`Some`) opens an in-flight archive op; close it
    /// with [`Worker::ack_tenant_archived`] or
    /// [`Worker::restore_unarchived`].
    pub fn drain_tenant(&self, shard: ShardId, tenant: TenantId) -> Result<Option<LoggedDrain>> {
        self.shard(shard)?.store.drain_tenant(tenant)
    }

    /// Puts drained rows that failed to archive back into the shard's
    /// store. The shard's WAL still covers them (no ack happened), so this
    /// restores queryability without re-logging anything.
    pub fn restore_unarchived(&self, shard: ShardId, rows: Vec<LogRecord>) -> Result<()> {
        self.shard(shard)?.store.restore_unarchived(rows);
        Ok(())
    }

    /// The archive ack: called by the engine once drained rows are durable
    /// on OSS. Truncates the shard's fully-archived WAL prefix and compacts
    /// the replicated log on every replica (the checkpoint task the paper's
    /// controller schedules). Truncation I/O errors propagate — the WAL
    /// keeps the extra segments (at-least-once replay), but the condition
    /// is loud instead of silently leaking disk.
    pub fn ack_archived(&self, shard: ShardId) -> Result<()> {
        self.close_archive_op(shard)?;
        match &self.shard(shard)?.raft {
            Some(raft) => raft.lock().compact(),
            None => Ok(()),
        }
    }

    /// Acks a successful rebalance flush ([`Worker::drain_tenant`]): closes
    /// the tenant drain's in-flight archive op so WAL truncation is not
    /// blocked forever. Unlike [`Worker::ack_archived`] it does not compact
    /// the replicated log — the shard's other tenants are still only in the
    /// row store. Actual truncation happens only once the shard is
    /// quiescent (no other archive in flight, nothing buffered).
    pub fn ack_tenant_archived(&self, shard: ShardId) -> Result<()> {
        self.close_archive_op(shard)
    }

    /// Closes one archive op, then truncates if the shard is quiescent. A
    /// crash between the two steps leaves the op closed but the WAL
    /// untruncated — replay reconciles via the drain commit, and a later
    /// quiescent pass truncates.
    fn close_archive_op(&self, shard: ShardId) -> Result<()> {
        let store = &self.shard(shard)?.store;
        self.hooks.reached(CrashPoint::BeforeCheckpoint);
        store.ack_archive_op();
        self.hooks.reached(CrashPoint::BeforeTruncate);
        store.truncate_if_quiescent().map(|_| ())
    }

    /// Opportunistic WAL truncation: applies a truncation that an
    /// overlapping ack had to defer, once the shard is quiescent (no
    /// archive in flight, nothing buffered). Closes no archive op, so it
    /// can never strip WAL coverage from a drain still in flight. Forced
    /// build passes call this for shards that had nothing to drain.
    pub fn truncate_quiescent(&self, shard: ShardId) -> Result<usize> {
        self.shard(shard)?.store.truncate_if_quiescent()
    }

    /// Lifetime `(appended, archived)` record counters of a shard (always
    /// `Some`; memory-only shards keep them too). The accounting invariant
    /// — `buffered == appended − archived` — is what the simulation
    /// harness checks after every recovery.
    pub fn shard_counters(&self, shard: ShardId) -> Result<Option<(u64, u64)>> {
        Ok(Some(self.shard(shard)?.store.counters()))
    }

    /// The replicated log's compaction point for `shard` (None when the
    /// shard is unreplicated). Test/observability hook.
    pub fn raft_snapshot_index(&self, shard: ShardId) -> Result<Option<u64>> {
        let state = self.shard(shard)?;
        Ok(state.raft.as_ref().map(|raft| {
            let cluster = raft.lock();
            match cluster.any_leader() {
                Some(leader) => cluster.node(leader).snapshot_index(),
                None => 0,
            }
        }))
    }

    /// Takes and resets this window's per-shard ingest counters.
    pub fn take_window(&self) -> HashMap<ShardId, ShardWindow> {
        self.shards
            .iter()
            .map(|(&shard, state)| (shard, std::mem::take(&mut *state.window.lock())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logstore_types::{Timestamp, Value};

    fn rec(t: u64, ts: i64) -> LogRecord {
        LogRecord::new(
            TenantId(t),
            Timestamp(ts),
            vec![
                Value::from("ip"),
                Value::from("/a"),
                Value::I64(1),
                Value::Bool(false),
                Value::from("m"),
            ],
        )
    }

    fn new_worker(
        shards: &[ShardId],
        backpressure_bytes: usize,
        replicas: usize,
        data_dir: Option<&PathBuf>,
        wal_config: WalConfig,
    ) -> Worker {
        Worker::new(
            WorkerId(0),
            shards,
            &TableSchema::request_log(),
            backpressure_bytes,
            replicas,
            data_dir,
            wal_config,
            7,
            None,
            crate::hooks::noop_hooks(),
        )
        .unwrap()
    }

    fn worker(replicas: usize) -> Worker {
        new_worker(&[ShardId(0), ShardId(1)], 1 << 20, replicas, None, WalConfig::default())
    }

    /// One durable shard under a fresh-per-test data dir.
    fn durable_worker(dir: &PathBuf, replicas: usize, wal_config: WalConfig) -> Worker {
        new_worker(&[ShardId(0)], 1 << 20, replicas, Some(dir), wal_config)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "logstore-worker-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn rows_of(w: &Worker, shard: ShardId, tenant: u64) -> u32 {
        let snapshot = w.snapshot(shard, TenantId(tenant), TimeRange::all()).unwrap();
        snapshot.runs.iter().map(|run| run.tenant_rows(TenantId(tenant))).sum()
    }

    #[test]
    fn append_scan_and_window_metrics() {
        let w = worker(1);
        w.append(ShardId(0), RecordBatch::from_records(vec![rec(1, 10), rec(2, 20)])).unwrap();
        w.append(ShardId(1), RecordBatch::from_records(vec![rec(1, 30)])).unwrap();
        assert_eq!(rows_of(&w, ShardId(0), 1), 1);
        let window = w.take_window();
        assert_eq!(window[&ShardId(0)].total, 2);
        assert_eq!(window[&ShardId(0)].per_tenant[&TenantId(1)], 1);
        assert_eq!(window[&ShardId(1)].total, 1);
        // Window resets after take.
        assert_eq!(w.take_window()[&ShardId(0)].total, 0);
    }

    #[test]
    fn unknown_shard_is_cluster_error() {
        let w = worker(1);
        let err = w.append(ShardId(9), RecordBatch::new()).unwrap_err();
        assert!(matches!(err, Error::Cluster(_)));
    }

    #[test]
    fn backpressure_on_full_rowstore() {
        // The limit fits one batch, not many.
        let w = new_worker(&[ShardId(0)], 2000, 1, None, WalConfig::default());
        let batch = RecordBatch::from_records((0..5).map(|i| rec(1, i)).collect());
        let mut hit_backpressure = false;
        for _ in 0..100 {
            match w.append(ShardId(0), batch.clone()) {
                Ok(()) => {}
                Err(Error::Backpressure(_)) => {
                    hit_backpressure = true;
                    break;
                }
                Err(e) => panic!("{e}"),
            }
        }
        assert!(hit_backpressure);
        // Draining relieves the pressure.
        assert!(w.drain_shard_for_build(ShardId(0), 0, true).unwrap().is_some());
        w.append(ShardId(0), batch).unwrap();
    }

    #[test]
    fn restore_unarchived_returns_rows_to_the_shard() {
        let w = worker(1);
        w.append(ShardId(0), RecordBatch::from_records(vec![rec(1, 1), rec(2, 2)])).unwrap();
        let (_seq, rows) = w.drain_shard_for_build(ShardId(0), 0, true).unwrap().unwrap();
        assert!(
            w.drain_shard_for_build(ShardId(1), 0, true).unwrap().is_none(),
            "shard 1 is empty"
        );
        assert_eq!(w.buffered_rows(ShardId(0)).unwrap(), 0);
        // Upload "failed": the engine hands the rows back.
        w.restore_unarchived(ShardId(0), rows).unwrap();
        assert_eq!(w.buffered_rows(ShardId(0)).unwrap(), 2);
        assert_eq!(rows_of(&w, ShardId(0), 1), 1);
        assert_eq!(w.shard_counters(ShardId(0)).unwrap(), Some((2, 0)));
    }

    #[test]
    fn ack_archived_is_clean_for_memory_backends() {
        let w = worker(1);
        w.append(ShardId(0), RecordBatch::from_records(vec![rec(1, 1)])).unwrap();
        w.drain_shard_for_build(ShardId(0), 0, true).unwrap();
        w.ack_archived(ShardId(0)).unwrap();
    }

    #[test]
    fn raft_replicated_appends_apply() {
        let w = worker(3);
        w.append(ShardId(0), RecordBatch::from_records(vec![rec(1, 1), rec(1, 2)])).unwrap();
        assert_eq!(w.buffered_rows(ShardId(0)).unwrap(), 2);
        assert_eq!(rows_of(&w, ShardId(0), 1), 2);
    }

    #[test]
    fn drain_shard_for_build_respects_threshold() {
        let w = worker(1);
        w.append(ShardId(0), RecordBatch::from_records(vec![rec(1, 1)])).unwrap();
        assert!(w.drain_shard_for_build(ShardId(0), usize::MAX, false).unwrap().is_none());
        let (_seq, rows) = w.drain_shard_for_build(ShardId(0), 0, false).unwrap().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(w.buffered_rows(ShardId(0)).unwrap(), 0);
    }

    #[test]
    fn drain_tenant_for_rebalance() {
        let w = worker(1);
        w.append(ShardId(0), RecordBatch::from_records(vec![rec(1, 1), rec(2, 2)])).unwrap();
        let (_seq, moved) = w.drain_tenant(ShardId(0), TenantId(1)).unwrap().unwrap();
        assert_eq!(moved.len(), 1);
        assert_eq!(w.buffered_rows(ShardId(0)).unwrap(), 1);
        assert!(w.drain_tenant(ShardId(0), TenantId(1)).unwrap().is_none());
    }

    #[test]
    fn durable_worker_recovers_from_wal() {
        let dir = temp_dir("durable");
        durable_worker(&dir, 1, WalConfig::default())
            .append(ShardId(0), RecordBatch::from_records(vec![rec(1, 1)]))
            .unwrap();
        let w = durable_worker(&dir, 1, WalConfig::default());
        assert_eq!(w.buffered_rows(ShardId(0)).unwrap(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn invalid_records_rejected_before_wal() {
        let dir = temp_dir("validate");
        let w = durable_worker(&dir, 1, WalConfig::default());
        let mut bad = rec(1, 1);
        bad.fields.pop();
        assert!(w.append(ShardId(0), RecordBatch::from_records(vec![bad])).is_err());
        assert_eq!(w.buffered_rows(ShardId(0)).unwrap(), 0);
        // WAL stayed clean: reopen sees nothing.
        drop(w);
        let w = durable_worker(&dir, 1, WalConfig::default());
        assert_eq!(w.buffered_rows(ShardId(0)).unwrap(), 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_failed_quorum_wait_does_not_pin_the_wal() {
        // The local WAL append succeeds, then replication stalls: the
        // append fails, and its LSN must stop being a truncation floor —
        // otherwise the shard's WAL never truncates again until restart.
        let dir = temp_dir("quorum-lost");
        let config = WalConfig { max_segment_bytes: 256, ..WalConfig::default() };
        let w = durable_worker(&dir, 3, config.clone());
        let raft = || w.shards[&ShardId(0)].raft.as_ref().expect("replicated shard").lock();
        raft().set_drop_rate(1.0);
        let err = w.append(ShardId(0), RecordBatch::from_records(vec![rec(1, 0)])).unwrap_err();
        assert!(matches!(err, Error::Raft(_)), "{err}");
        assert_eq!(w.buffered_rows(ShardId(0)).unwrap(), 0, "a failed append applies nothing");
        // Heal, and let the terms the partition inflated settle on one
        // leader before proposing again.
        raft().set_drop_rate(0.0);
        for _ in 0..200 {
            raft().step();
        }
        raft().run_until_leader(2000).expect("healed group elects");
        for i in 1..40 {
            w.append(ShardId(0), RecordBatch::from_records(vec![rec(1, i)])).unwrap();
        }
        let (_seq, rows) = w.drain_shard_for_build(ShardId(0), 0, true).unwrap().unwrap();
        assert_eq!(rows.len(), 39);
        w.ack_archived(ShardId(0)).unwrap();
        let segments = w.shards[&ShardId(0)].store.wal_segments();
        assert_eq!(segments, 1, "the ack must truncate the WAL back to its active segment");
        drop(w);
        let w = durable_worker(&dir, 3, config);
        assert_eq!(w.buffered_rows(ShardId(0)).unwrap(), 0, "acked rows must not resurrect");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_replicated_shard_retains_only_its_unarchived_window() {
        // Every replica — followers too — must drop the replicated log's
        // archived prefix at the ack, and nothing may keep a copy of what
        // was applied: a shard's memory is its unarchived window, however
        // long it has been ingesting.
        let dir = temp_dir("retained-window");
        let w = durable_worker(&dir, 3, WalConfig::default());
        let mut retained = Vec::new();
        for round in 0..3 {
            for i in 0..200 {
                let batch = RecordBatch::from_records(vec![rec(1, round * 200 + i)]);
                w.append(ShardId(0), batch).unwrap();
            }
            let (_seq, rows) = w.drain_shard_for_build(ShardId(0), 0, true).unwrap().unwrap();
            assert_eq!(rows.len(), 200);
            w.ack_archived(ShardId(0)).unwrap();
            let cluster = w.shards[&ShardId(0)].raft.as_ref().expect("replicated shard").lock();
            let worst = (0..3u32)
                .map(|id| cluster.node(logstore_types::NodeId(id)))
                .map(|n| n.log_len() - n.snapshot_index())
                .max();
            retained.push(worst.unwrap());
        }
        // A follower learns the last commit one append later, so it may
        // trail the compaction point by the entries in flight at the ack.
        assert!(retained.iter().all(|&n| n <= 4), "in-memory log entries per round: {retained:?}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn batch_payload_roundtrip() {
        // What `append` proposes to Raft — the body of the one encoded WAL
        // payload — is the plain batch encoding replicas decode.
        let batch = RecordBatch::from_records(vec![rec(1, 5), rec(2, 6)]);
        let payload = ShardStore::encode_batch_payload(&batch.records);
        let decoded = decode_batch(ShardStore::batch_body(&payload)).unwrap();
        assert_eq!(decoded, batch.records);
        assert_eq!(
            ShardStore::batch_body(&payload),
            logstore_codec::batch::encode_batch(&batch.records)
        );
    }
}
