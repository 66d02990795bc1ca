//! Workers: shard ownership and the phase-one write path.
//!
//! A worker owns a set of shards. Each shard is one
//! [`logstore_wal::ShardStore`] — the write-optimized row store, WAL-backed
//! when the worker has a data dir — optionally Raft-replicated, plus ingest
//! accounting that feeds the traffic monitor. The store owns the storage
//! protocol (log → apply, drain → ack/restore, truncation); the worker adds
//! shard lookup, validation, BFC admission, replication, window accounting,
//! crash hooks and drain-commit pruning. The data builder drains shards in
//! the background (phase two, [`crate::databuilder`]).

use crate::hooks::{CrashHooks, CrashPoint};
use crate::metadata::{DrainId, MetadataStore};
use logstore_raft::{InProcCluster, RaftConfig};
use logstore_sync::OrderedMutex;
use logstore_types::{Error, RecordBatch, Result, ShardId, TableSchema, TenantId, WorkerId};
use logstore_wal::{ShardStore, WalConfig};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Per-shard ingest counters for one monitoring window.
#[derive(Debug, Default, Clone)]
pub struct ShardWindow {
    /// Records ingested this window.
    pub total: u64,
    /// Per-tenant breakdown.
    pub per_tenant: HashMap<TenantId, u64>,
}

// One label per field across all shards: the worker never holds two of
// store (`wal.shard.inner`, taken inside `ShardStore`)/raft/window at once
// (each is taken in its own scope), and the debug lock analysis enforces
// that.
struct ShardState {
    /// Phase-one storage: row store plus, on durable shards, the WAL.
    store: ShardStore,
    /// The shard's replication group. Its replicas keep nothing: a replica
    /// that falls behind rebuilds its rows from OSS, not from the log.
    raft: Option<OrderedMutex<InProcCluster>>,
    window: OrderedMutex<ShardWindow>,
}

/// One worker node.
pub struct Worker {
    id: WorkerId,
    shards: HashMap<ShardId, ShardState>,
    schema: TableSchema,
    backpressure_bytes: usize,
    hooks: Arc<dyn CrashHooks>,
    /// The drain-commit table, pruned as shard WALs are cut.
    metadata: Option<Arc<MetadataStore>>,
}

impl Worker {
    /// Creates a worker owning `shard_ids`. Durable shards (those with a
    /// `data_dir`) replay their WAL on open; with the `metadata` store the
    /// replay reconciles drain intents against its drain-commit table so
    /// rows already on OSS are not resurrected. `hooks` injects simulated
    /// crash points ([`crate::hooks::noop_hooks`] in production).
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
        metadata: Option<&Arc<MetadataStore>>,
        hooks: Arc<dyn CrashHooks>,
    ) -> Result<Self> {
        let mut shards = HashMap::new();
        for &shard in shard_ids {
            let store = match data_dir {
                Some(dir) => {
                    let shard_dir = dir
                        .join(format!("worker-{}", id.raw()))
                        .join(format!("shard-{}", shard.raw()));
                    let committed = |lsn| metadata?.drain_commit(DrainId { shard, lsn });
                    ShardStore::open_with(shard_dir, wal_config.clone(), &committed)?
                }
                None => ShardStore::in_memory(),
            };
            let raft = if raft_replicas > 1 {
                let mut cluster = InProcCluster::new(
                    raft_replicas,
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
        let metadata = metadata.cloned();
        Ok(Worker { id, shards, schema: schema.clone(), backpressure_bytes, hooks, metadata })
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
        // copy of the body (the group's logs keep it until an archive ack). A
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

    /// One shard's phase-one store: its runs for a query
    /// ([`ShardStore::snapshot`]), its buffered tenants, and the drains and
    /// restores of the archive step. Acks and truncation go through
    /// [`Worker::ack_archived`] and [`Worker::truncate_quiescent`] instead:
    /// their `ShardStore` counterparts skip the crash hooks, the Raft
    /// compaction and the pruning of the drain-commit table.
    pub fn store(&self, shard: ShardId) -> Result<&ShardStore> {
        Ok(&self.shard(shard)?.store)
    }

    /// Buffered row-store bytes of one shard.
    pub fn buffered_bytes(&self, shard: ShardId) -> Result<usize> {
        Ok(self.shard(shard)?.store.buffered_bytes())
    }

    /// Buffered rows of one shard.
    pub fn buffered_rows(&self, shard: ShardId) -> Result<usize> {
        Ok(self.shard(shard)?.store.buffered_rows())
    }

    /// The archive ack: called by the engine once a drain's rows — a whole
    /// shard's or one tenant's — are durable on OSS. Closes the drain's
    /// archive op, truncates the WAL if the shard is now quiescent, and
    /// compacts the replicated log on every replica (the checkpoint task
    /// the paper's controller schedules); the replicas keep nothing, so
    /// compacting past rows still buffered loses nothing. A crash between
    /// closing the op and the cut leaves the WAL untruncated: replay
    /// reconciles via the drain commit, and a later quiescent pass cuts.
    /// Truncation I/O errors propagate — the WAL keeps the extra segments
    /// (at-least-once replay), but the condition is loud instead of
    /// silently leaking disk.
    pub fn ack_archived(&self, shard: ShardId) -> Result<()> {
        let state = self.shard(shard)?;
        self.hooks.reached(CrashPoint::BeforeCheckpoint);
        state.store.ack_archive_op();
        self.hooks.reached(CrashPoint::BeforeTruncate);
        self.truncate_quiescent(shard)?;
        match &state.raft {
            Some(raft) => raft.lock().compact(),
            None => Ok(()),
        }
    }

    /// Opportunistic WAL truncation: applies a truncation that an
    /// overlapping ack had to defer, once the shard is quiescent (no
    /// archive in flight, nothing buffered). Closes no archive op, so it
    /// can never strip WAL coverage from a drain still in flight. Forced
    /// build passes call this for shards that had nothing to drain.
    ///
    /// A cut then prunes the shard's drain-commit records it made
    /// unreachable: those of intents below the first LSN still in the WAL.
    /// After the cut, not before: a crash in between leaves records nobody
    /// reads, while a replayed intent whose record was already pruned would
    /// restore rows that are on OSS.
    pub fn truncate_quiescent(&self, shard: ShardId) -> Result<()> {
        let cut = self.shard(shard)?.store.truncate_if_quiescent()?;
        if let (Some(below), Some(metadata)) = (cut, &self.metadata) {
            metadata.prune_drain_commits(shard, below);
        }
        Ok(())
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
    use crate::databuilder::{build_and_upload_drain, BuildConfig};
    use logstore_codec::batch::decode_batch;
    use logstore_types::{LogRecord, TimeRange, Timestamp, Value};

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
        let snapshot = w.store(shard).unwrap().snapshot(TenantId(tenant), TimeRange::all());
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
        assert!(w.store(ShardId(0)).unwrap().drain_all(0).unwrap().is_some());
        w.append(ShardId(0), batch).unwrap();
    }

    #[test]
    fn restore_unarchived_returns_rows_to_the_shard() {
        let w = worker(1);
        w.append(ShardId(0), RecordBatch::from_records(vec![rec(1, 1), rec(2, 2)])).unwrap();
        let (_seq, rows) = w.store(ShardId(0)).unwrap().drain_all(0).unwrap().unwrap();
        assert!(w.store(ShardId(1)).unwrap().drain_all(0).unwrap().is_none(), "shard 1 is empty");
        assert_eq!(w.buffered_rows(ShardId(0)).unwrap(), 0);
        // Upload "failed": the engine hands the rows back.
        w.store(ShardId(0)).unwrap().restore_unarchived(rows);
        assert_eq!(w.buffered_rows(ShardId(0)).unwrap(), 2);
        assert_eq!(rows_of(&w, ShardId(0), 1), 1);
        assert_eq!(w.shard_counters(ShardId(0)).unwrap(), Some((2, 0)));
    }

    #[test]
    fn ack_archived_is_clean_for_memory_backends() {
        let w = worker(1);
        w.append(ShardId(0), RecordBatch::from_records(vec![rec(1, 1)])).unwrap();
        w.store(ShardId(0)).unwrap().drain_all(0).unwrap();
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
        assert!(w.store(ShardId(0)).unwrap().drain_all(usize::MAX).unwrap().is_none());
        let (_seq, rows) = w.store(ShardId(0)).unwrap().drain_all(0).unwrap().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(w.buffered_rows(ShardId(0)).unwrap(), 0);
    }

    #[test]
    fn drain_tenant_for_rebalance() {
        let w = worker(1);
        w.append(ShardId(0), RecordBatch::from_records(vec![rec(1, 1), rec(2, 2)])).unwrap();
        let (_seq, moved) =
            w.store(ShardId(0)).unwrap().drain_tenant(TenantId(1)).unwrap().unwrap();
        assert_eq!(moved.len(), 1);
        assert_eq!(w.buffered_rows(ShardId(0)).unwrap(), 1);
        assert!(w.store(ShardId(0)).unwrap().drain_tenant(TenantId(1)).unwrap().is_none());
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
        let (_seq, rows) = w.store(ShardId(0)).unwrap().drain_all(0).unwrap().unwrap();
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
        // applied prefix at each ack, a one-tenant ack included, and nothing
        // may keep a copy of what was applied: a shard's memory is its
        // unarchived window, however long it has been ingesting.
        let dir = temp_dir("retained-window");
        let w = durable_worker(&dir, 3, WalConfig::default());
        let store = w.store(ShardId(0)).unwrap();
        let worst_retained = || {
            let cluster = w.shards[&ShardId(0)].raft.as_ref().expect("replicated shard").lock();
            let retained = (0..3u32)
                .map(|id| cluster.node(logstore_types::NodeId(id)))
                .map(|n| n.log_len() - n.snapshot_index());
            retained.max().unwrap()
        };
        let mut retained = Vec::new();
        for round in 0..3 {
            for i in 0..200 {
                let batch = RecordBatch::from_records(vec![rec(1 + i as u64 % 2, round * 200 + i)]);
                w.append(ShardId(0), batch).unwrap();
            }
            let (_seq, moved) = store.drain_tenant(TenantId(2)).unwrap().unwrap();
            assert_eq!(moved.len(), 100);
            w.ack_archived(ShardId(0)).unwrap();
            retained.push(worst_retained());
            let (_seq, rows) = store.drain_all(0).unwrap().unwrap();
            assert_eq!(rows.len(), 100);
            w.ack_archived(ShardId(0)).unwrap();
            retained.push(worst_retained());
        }
        // A follower learns the last commit one append later, so it may
        // trail the compaction point by the entries in flight at the ack.
        assert!(retained.iter().all(|&n| n <= 4), "in-memory log entries per ack: {retained:?}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_whole_cut_prunes_the_drain_commits_it_made_unreachable() {
        // Every durable drain leaves one record in the drain-commit table.
        // Once an ack's cut leaves none of the drain's intents in the WAL,
        // the record is dead weight and must go.
        let dir = temp_dir("prune");
        let metadata = Arc::new(MetadataStore::new());
        let schema = TableSchema::request_log();
        let open = || {
            let hooks = crate::hooks::noop_hooks();
            let config = WalConfig::default();
            Worker::new(
                WorkerId(0),
                &[ShardId(0)],
                &schema,
                1 << 20,
                1,
                Some(&dir),
                config,
                7,
                Some(&metadata),
                hooks,
            )
            .unwrap()
        };
        let w = open();
        w.append(ShardId(0), RecordBatch::from_records(vec![rec(1, 1), rec(2, 2)])).unwrap();
        let (lsn, rows) = w.store(ShardId(0)).unwrap().drain_all(0).unwrap().unwrap();
        let id = DrainId { shard: ShardId(0), lsn: lsn.expect("durable shards name their drains") };
        let build = BuildConfig {
            compression: logstore_codec::Compression::LzHigh,
            block_rows: 256,
            max_rows_per_logblock: 4096,
        };
        let oss = logstore_oss::MemoryStore::new();
        let outcome =
            build_and_upload_drain(rows, &schema, &build, &oss, &metadata, Some(id), None);
        assert!(outcome.is_complete(), "{:?}", outcome.error);
        assert!(metadata.drain_commit(id).is_some(), "the upload commits its drain");
        // A record at or past the first LSN the cut keeps is not the cut's
        // to prune (a later drain's, or another shard's).
        let later = DrainId { lsn: id.lsn + 1, ..id };
        let elsewhere = DrainId { shard: ShardId(1), ..id };
        for other in [later, elsewhere] {
            metadata.commit_drain(Some(other), Vec::new(), 4096).unwrap();
        }
        w.ack_archived(ShardId(0)).unwrap();
        assert_eq!(metadata.drain_commit(id), None, "the ack's cut must prune the record");
        assert!(
            metadata.drain_commit(later).is_some() && metadata.drain_commit(elsewhere).is_some()
        );
        drop(w);
        assert_eq!(open().buffered_rows(ShardId(0)).unwrap(), 0, "acked rows must not resurrect");
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
