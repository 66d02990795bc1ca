//! Workers: shard ownership and the phase-one write path.
//!
//! A worker owns a set of shards. Each shard is one
//! [`logstore_wal::ShardStore`] — the write-optimized row store, WAL-backed
//! when the worker has a data dir — plus ingest accounting that feeds the
//! traffic monitor. The store owns the storage protocol (append, take →
//! settle → ack, the WAL cut) and validates every row against the table
//! schema; the worker adds shard lookup, BFC admission, window accounting,
//! the `AfterTruncate` crash hook and drain-commit pruning. The data
//! builder drains shards in the background (phase two,
//! [`crate::databuilder`]).

use crate::hooks::{CrashHooks, CrashPoint};
use crate::metadata::{DrainId, MetadataStore};
use logstore_obs::{Counter, Histogram, Registry};
use logstore_sync::OrderedMutex;
use logstore_types::{Error, RecordBatch, Result, ShardId, TableSchema, TenantId, WorkerId};
use logstore_wal::{Lsn, ShardStore, WalConfig};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The engine's ingest stage timers: one histogram per stage of one
/// sub-batch's phase-one write (nanoseconds per sub-batch) and the rows
/// accepted. A worker built outside an engine keeps its own, unregistered.
#[derive(Default)]
pub struct IngestTimers {
    /// Splitting a request into per-shard sub-batches (the broker's, per
    /// request).
    pub(crate) route: Arc<Histogram>,
    /// The size check and BFC admission.
    admit: Arc<Histogram>,
    /// Validating the rows against the schema, staging them into column
    /// runs and encoding the WAL payload from the runs.
    encode: Arc<Histogram>,
    /// The WAL group append.
    wal: Arc<Histogram>,
    /// Appending the staged runs to the row store under the shard lock.
    apply: Arc<Histogram>,
    /// The window accounting after the append.
    window: Arc<Histogram>,
    rows: Arc<Counter>,
}

impl IngestTimers {
    pub(crate) fn register(registry: &mut Registry) -> Self {
        IngestTimers {
            route: registry.histogram("core.broker.route_ns"),
            admit: registry.histogram("core.worker.admit_ns"),
            encode: registry.histogram("core.worker.encode_ns"),
            wal: registry.histogram("core.worker.wal_ns"),
            apply: registry.histogram("core.worker.apply_ns"),
            window: registry.histogram("core.worker.window_ns"),
            rows: registry.counter("core.worker.rows"),
        }
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

// One label per field across all shards: the worker never holds the
// store (`wal.shard.inner`, taken inside `ShardStore`) and the window at
// once (each is taken in its own scope), and the debug lock analysis
// enforces that.
struct ShardState {
    /// Phase-one storage: row store plus, on durable shards, the WAL.
    store: ShardStore,
    window: OrderedMutex<ShardWindow>,
}

/// One worker node.
pub struct Worker {
    id: WorkerId,
    shards: HashMap<ShardId, ShardState>,
    backpressure_bytes: usize,
    hooks: Arc<dyn CrashHooks>,
    /// The drain-commit table, pruned as shard WALs are cut.
    metadata: Option<Arc<MetadataStore>>,
    timers: Arc<IngestTimers>,
}

impl Worker {
    /// Creates a worker owning `shard_ids`. Durable shards (those with a
    /// `data_dir`) replay their WAL on open; with the `metadata` store the
    /// replay reconciles drain intents against its drain-commit table so
    /// rows already on OSS are not resurrected. `hooks` injects simulated
    /// crash points ([`crate::hooks::noop_hooks`] in production).
    ///
    /// `raft_replicas` and `seed` are ignored: a shard's WAL is its only
    /// log. They stay only because `bench_e2e` passes them.
    #[allow(clippy::too_many_arguments)] // construction-time wiring, called once per worker
    pub fn new(
        id: WorkerId,
        shard_ids: &[ShardId],
        schema: &TableSchema,
        backpressure_bytes: usize,
        _raft_replicas: usize,
        data_dir: Option<&PathBuf>,
        wal_config: WalConfig,
        _seed: u64,
        metadata: Option<&Arc<MetadataStore>>,
        hooks: Arc<dyn CrashHooks>,
    ) -> Result<Self> {
        let schema = Arc::new(schema.clone());
        let mut shards = HashMap::new();
        for &shard in shard_ids {
            let schema = Arc::clone(&schema);
            let store = match data_dir {
                Some(dir) => {
                    let shard_dir = dir
                        .join(format!("worker-{}", id.raw()))
                        .join(format!("shard-{}", shard.raw()));
                    let committed = |lsn| metadata?.drain_commit(DrainId { shard, lsn });
                    ShardStore::open_with(shard_dir, wal_config.clone(), schema, &committed)?
                }
                None => ShardStore::in_memory(schema),
            };
            shards.insert(
                shard,
                ShardState {
                    store,
                    window: OrderedMutex::new("core.worker.window", ShardWindow::default()),
                },
            );
        }
        let metadata = metadata.cloned();
        let timers = Arc::default();
        Ok(Worker { id, shards, backpressure_bytes, hooks, metadata, timers })
    }

    /// Records this worker's ingest stages in `timers` (an engine's).
    pub(crate) fn with_timers(mut self, timers: Arc<IngestTimers>) -> Self {
        self.timers = timers;
        self
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
    /// path. The BFC admission check takes the shard store's lock briefly;
    /// [`ShardStore::append`] then validates the batch against the schema
    /// and group-appends it to the WAL with *no* lock held, so concurrent
    /// producers coalesce into shared group commits instead of queueing on
    /// the shard, and applies it under the store's lock. The ack needs the
    /// local WAL write to be durable, nothing more. Consumes the batch —
    /// records move into the store, never cloned.
    pub fn append(&self, shard: ShardId, batch: RecordBatch) -> Result<()> {
        let start = Instant::now();
        let state = self.shard(shard)?;
        // A sub-batch larger than the whole limit is refused however empty
        // the shard is: retrying it can never succeed.
        let size = batch.approx_size();
        if size > self.backpressure_bytes {
            return Err(Error::InvalidArgument(format!(
                "a {size}-byte sub-batch exceeds shard {shard}'s {}-byte row store limit",
                self.backpressure_bytes
            )));
        }
        // BFC admission: one short scope of the store's lock.
        let buffered = state.store.buffered_bytes();
        if buffered + size > self.backpressure_bytes {
            return Err(Error::Backpressure(format!(
                "shard {shard} row store at {buffered} bytes"
            )));
        }
        // Window accounting happens only on success; tally before the
        // records move into the store.
        let total = batch.len() as u64;
        let mut per_tenant: HashMap<TenantId, u64> = HashMap::new();
        for r in &batch.records {
            *per_tenant.entry(r.tenant_id).or_default() += 1;
        }
        let admitted = Instant::now();
        let times = state.store.append_timed(batch.records)?;
        let appended = Instant::now();
        let mut window = state.window.lock();
        window.total += total;
        for (tenant, n) in per_tenant {
            *window.per_tenant.entry(tenant).or_default() += n;
        }
        drop(window);
        let timers = &self.timers;
        timers.admit.record_duration(admitted - start);
        timers.encode.record_duration(times.encode);
        timers.wal.record_duration(times.wal);
        timers.apply.record_duration(times.apply);
        timers.window.record_duration(appended.elapsed());
        timers.rows.add(total);
        // The batch is durable (WAL + row store) but the caller has not
        // seen Ok yet — the simulated-crash window where rows are
        // "in doubt": present after recovery, never acknowledged.
        self.hooks.reached(CrashPoint::AfterWalAppend);
        Ok(())
    }

    /// One shard's phase-one store: its runs for a query
    /// ([`ShardStore::snapshot`]), the tenants it holds rows of, and the
    /// takes and settles of the archive step. Acks go through
    /// [`Worker::ack_archived`] instead: [`ShardStore::ack_archived`] skips
    /// the crash hook and the pruning of the drain-commit table.
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

    /// The archive ack, once the rows of drain `drain` are durable on OSS:
    /// the store logs it and cuts its WAL ([`ShardStore::ack_archived`]),
    /// then the drain-commit records no replay reads any more are pruned —
    /// after the cut, so a crash in between (`AfterTruncate`) only leaves
    /// records the next ack prunes. WAL I/O errors propagate.
    pub fn ack_archived(&self, shard: ShardId, drain: Option<Lsn>) -> Result<()> {
        let Some(below) = self.shard(shard)?.store.ack_archived(drain)? else { return Ok(()) };
        self.hooks.reached(CrashPoint::AfterTruncate);
        if let Some(metadata) = &self.metadata {
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
        data_dir: Option<&PathBuf>,
        wal_config: WalConfig,
    ) -> Worker {
        Worker::new(
            WorkerId(0),
            shards,
            &TableSchema::request_log(),
            backpressure_bytes,
            1,
            data_dir,
            wal_config,
            7,
            None,
            crate::hooks::noop_hooks(),
        )
        .unwrap()
    }

    fn worker() -> Worker {
        new_worker(&[ShardId(0), ShardId(1)], 1 << 20, None, WalConfig::default())
    }

    /// One durable shard under a fresh-per-test data dir.
    fn durable_worker(dir: &PathBuf) -> Worker {
        new_worker(&[ShardId(0)], 1 << 20, Some(dir), WalConfig::default())
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

    fn rows_of(w: &Worker, shard: ShardId, tenant: u64) -> usize {
        let snapshot = w.store(shard).unwrap().snapshot(TenantId(tenant), TimeRange::all());
        let rows = snapshot.runs.iter().flat_map(|run| run.records());
        rows.filter(|r| r.tenant_id == TenantId(tenant)).count()
    }

    #[test]
    fn append_scan_and_window_metrics() {
        let w = worker();
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
        let w = worker();
        let err = w.append(ShardId(9), RecordBatch::new()).unwrap_err();
        assert!(matches!(err, Error::Cluster(_)));
    }

    #[test]
    fn backpressure_on_full_rowstore() {
        // The limit fits one batch, not many.
        let w = new_worker(&[ShardId(0)], 2000, None, WalConfig::default());
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
        // Taking the rows relieves the pressure.
        assert!(w.store(ShardId(0)).unwrap().take(0).unwrap().is_some());
        w.append(ShardId(0), batch).unwrap();
    }

    #[test]
    fn a_sub_batch_over_the_whole_limit_is_not_retryable() {
        // No drain can ever make room for it, so backpressure ("retry after
        // throttling") would have the client retry forever.
        let w = new_worker(&[ShardId(0)], 200, None, WalConfig::default());
        let batch = RecordBatch::from_records((0..5).map(|i| rec(1, i)).collect());
        assert!(batch.approx_size() > 200);
        let err = w.append(ShardId(0), batch).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)), "{err}");
        assert!(!err.is_retryable());
        assert_eq!(w.buffered_rows(ShardId(0)).unwrap(), 0);
    }

    #[test]
    fn a_settle_that_folds_back_returns_rows_to_the_shard() {
        let w = worker();
        w.append(ShardId(0), RecordBatch::from_records(vec![rec(1, 1), rec(2, 2)])).unwrap();
        let (_, rows) = w.store(ShardId(0)).unwrap().take(0).unwrap().unwrap();
        assert!(w.store(ShardId(1)).unwrap().take(0).unwrap().is_none(), "shard 1 is empty");
        assert_eq!(w.buffered_rows(ShardId(0)).unwrap(), 0);
        // Upload "failed": the engine's settle hands the rows back.
        w.store(ShardId(0)).unwrap().settle(|| ((), Some(rows)));
        w.store(ShardId(0)).unwrap().settled();
        assert_eq!(w.buffered_rows(ShardId(0)).unwrap(), 2);
        assert_eq!(rows_of(&w, ShardId(0), 1), 1);
        assert_eq!(w.shard_counters(ShardId(0)).unwrap(), Some((2, 0)));
    }

    #[test]
    fn ack_archived_is_clean_for_memory_backends() {
        let w = worker();
        w.append(ShardId(0), RecordBatch::from_records(vec![rec(1, 1)])).unwrap();
        let (lsn, _) = w.store(ShardId(0)).unwrap().take(0).unwrap().unwrap();
        assert_eq!(lsn, None, "no WAL, no checkpoint to name");
        w.ack_archived(ShardId(0), lsn).unwrap();
    }

    #[test]
    fn drain_shard_for_build_respects_threshold() {
        let w = worker();
        w.append(ShardId(0), RecordBatch::from_records(vec![rec(1, 1)])).unwrap();
        assert!(w.store(ShardId(0)).unwrap().take(usize::MAX).unwrap().is_none());
        let (_seq, rows) = w.store(ShardId(0)).unwrap().take(0).unwrap().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(w.buffered_rows(ShardId(0)).unwrap(), 0);
    }

    #[test]
    fn durable_worker_recovers_from_wal() {
        let dir = temp_dir("durable");
        durable_worker(&dir)
            .append(ShardId(0), RecordBatch::from_records(vec![rec(1, 1)]))
            .unwrap();
        let w = durable_worker(&dir);
        assert_eq!(w.buffered_rows(ShardId(0)).unwrap(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn invalid_records_rejected_before_wal() {
        let dir = temp_dir("validate");
        let w = durable_worker(&dir);
        let mut bad = rec(1, 1);
        bad.fields.pop();
        assert!(w.append(ShardId(0), RecordBatch::from_records(vec![bad])).is_err());
        assert_eq!(w.buffered_rows(ShardId(0)).unwrap(), 0);
        // WAL stayed clean: reopen sees nothing.
        drop(w);
        let w = durable_worker(&dir);
        assert_eq!(w.buffered_rows(ShardId(0)).unwrap(), 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn an_ack_prunes_the_drain_commits_no_replay_reads() {
        // Every durable drain leaves one record in the drain-commit table.
        // Once the drain is acked and no replay settles it through the
        // table, the record is dead weight and must go.
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
        let store = w.store(ShardId(0)).unwrap();
        let (lsn, rows) = store.take(0).unwrap().unwrap();
        let id = DrainId { shard: ShardId(0), lsn: lsn.expect("durable shards name their drains") };
        let build = BuildConfig {
            compression: logstore_codec::Compression::LzHigh,
            block_rows: 256,
            max_rows_per_logblock: 4096,
        };
        let oss = logstore_oss::MemoryStore::new();
        let outcome = store.settle(|| {
            let schema = Arc::new(schema.clone());
            (build_and_upload_drain(&rows, &schema, &build, &oss, &metadata, Some(id), None), None)
        });
        assert!(outcome.is_complete(), "{:?}", outcome.error);
        assert!(metadata.drain_commit(id).is_some(), "the upload commits its drain");
        // A record at or past the LSN the next checkpoint could take is not
        // the ack's to prune (a later drain's, or another shard's).
        let later = DrainId { lsn: id.lsn + 1, ..id };
        let elsewhere = DrainId { shard: ShardId(1), ..id };
        for other in [later, elsewhere] {
            metadata.commit_drain(Some(other), Vec::new(), 4096).unwrap();
        }
        w.ack_archived(ShardId(0), Some(id.lsn)).unwrap();
        store.settled();
        assert_eq!(metadata.drain_commit(id), None, "the ack must prune the record");
        assert!(
            metadata.drain_commit(later).is_some() && metadata.drain_commit(elsewhere).is_some()
        );
        drop(w);
        assert_eq!(open().buffered_rows(ShardId(0)).unwrap(), 0, "acked rows must not resurrect");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn batch_payload_roundtrip() {
        // The payload the benchmark's WAL probe appends is the record a
        // shard of the served schema logs for the batch, and it replays as
        // the batch's rows.
        let batch = RecordBatch::from_records(vec![rec(1, 5), rec(2, 6)]);
        let payload = ShardStore::encode_batch_payload(&batch.records);
        let dir = temp_dir("payload");
        let schema = Arc::new(TableSchema::request_log());
        let shard = ShardStore::open(&dir, WalConfig::default(), schema.clone()).unwrap();
        shard.append(batch.records.clone()).unwrap();
        drop(shard);
        let (_, log) = logstore_wal::GroupCommitWal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(log, vec![(1, payload)]);
        let shard = ShardStore::open(&dir, WalConfig::default(), schema).unwrap();
        let (_, rows) = shard.take(0).unwrap().expect("the batch replays");
        assert_eq!(rows.records(), batch.records);
        let _ = std::fs::remove_dir_all(dir);
    }
}
