//! The `LogStore` facade: one embedded, multi-tenant log database.

use crate::broker::{Broker, QueryExecution};
use crate::compactor::{self, CompactionConfig, CompactionReport, GcReport};
use crate::config::{ClusterConfig, QueryOptions};
use crate::controller::ClusterController;
use crate::databuilder::{build_and_upload_drain, BuildConfig, BuildReport};
use crate::executor::QueryPool;
use crate::hooks::{noop_hooks, CrashHooks, CrashPoint};
use crate::metadata::{DrainId, MetadataStore, TenantInfo};
use crate::worker::Worker;
use logstore_cache::{CacheStats, DiskBlockCache, Prefetcher, TieredCache};
use logstore_flow::ControlAction;
use logstore_oss::{
    ordered_wave, FaultScope, FaultyStore, MemoryStore, OssMetrics, RetryMetrics, RetryingStore,
    SimulatedOss,
};
use logstore_query::exec::QueryResult;
use logstore_types::{
    Error, LogRecord, RecordBatch, Result, ShardId, TableSchema, TenantId, Timestamp, WorkerId,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The object-storage stack every engine instance runs on, inside out: an
/// in-memory backend, a fault-injection layer (inert by default —
/// probability 0.0), the configurable latency/bandwidth simulator, and a
/// transient-failure retry decorator. Retry sits outermost so every
/// attempt pays modelled latency and passes through fault injection —
/// exactly like re-issuing a real OSS request. Figure harnesses flip the
/// latency model between OSS-like and local-SSD-like; resilience tests
/// schedule faults via [`ClusterShared::fault_layer`].
pub type Store = RetryingStore<SimulatedOss<FaultyStore<MemoryStore>>>;

/// State shared between brokers, the controller and background tasks.
pub struct ClusterShared {
    /// The served schema.
    pub schema: TableSchema,
    /// Workers, indexed by `WorkerId.raw()`. Grows under `ScaleCluster`.
    pub workers: logstore_sync::OrderedRwLock<Vec<Arc<Worker>>>,
    /// Shard placement. Grows under `ScaleCluster`.
    pub shard_to_worker: logstore_sync::OrderedRwLock<HashMap<ShardId, usize>>,
    /// The controller (routing, traffic control).
    pub controller: ClusterController,
    /// Metadata / LogBlock map.
    pub metadata: Arc<MetadataStore>,
    /// The (simulated) OSS.
    pub store: Arc<Store>,
    /// The multi-level cache: object tier and block tiers.
    pub cache: Arc<TieredCache>,
    /// The read path's request fan-out over `store` and `cache`.
    pub prefetcher: Prefetcher<Store>,
    /// The shared scatter/gather query executor pool.
    pub query_pool: QueryPool,
    /// Memory block tier capacity: the byte budget of one fetch batch.
    pub cache_memory_bytes: usize,
    /// Archive-pipeline crash hooks (no-op outside simulation).
    pub hooks: Arc<dyn CrashHooks>,
}

impl ClusterShared {
    /// Resolves the worker hosting `shard`.
    pub fn worker_for(&self, shard: ShardId) -> Result<Arc<Worker>> {
        let idx = *self
            .shard_to_worker
            .read()
            .get(&shard)
            .ok_or_else(|| Error::Cluster(format!("{shard} is not placed on any worker")))?;
        Ok(Arc::clone(&self.workers.read()[idx]))
    }

    /// Snapshot of the current worker set.
    pub fn worker_snapshot(&self) -> Vec<Arc<Worker>> {
        self.workers.read().iter().map(Arc::clone).collect()
    }

    /// The latency/bandwidth simulator layer of the store stack.
    pub fn oss_sim(&self) -> &SimulatedOss<FaultyStore<MemoryStore>> {
        self.store.inner()
    }

    /// The fault-injection layer of the store stack (resilience tests
    /// schedule faults here and inspect raw stored objects through its
    /// own `inner()`).
    pub fn fault_layer(&self) -> &FaultyStore<MemoryStore> {
        self.store.inner().inner()
    }
}

/// Outcome of an ingest call.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct IngestReport {
    /// Records accepted into phase one.
    pub accepted: u64,
    /// Records rejected by backpressure (retry after throttling).
    pub rejected: u64,
    /// Records whose shard append failed terminally: a WAL/group-commit
    /// error, or a sub-batch larger than the whole row-store limit (which
    /// must be split before it is sent again). Like `archive_degraded`, a
    /// per-shard failure degrades the report instead of failing the whole
    /// multi-shard ingest: the other sub-batches' outcomes still stand.
    /// Failed rows were never acknowledged durable.
    pub failed: u64,
    /// The first append failure behind `failed`, for diagnostics.
    pub first_failure: Option<String>,
    /// True when the piggybacked build pass hit a terminal archive failure.
    /// The accepted rows are still durable (WAL + row store) and will be
    /// re-archived, but a persistently degraded archive path grows the row
    /// store toward backpressure — details in [`LogStore::archive_stats`].
    pub archive_degraded: bool,
}

/// Lifetime counters for the archive pipeline's failure path.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveStats {
    /// Build passes that hit a terminal (post-retry) upload failure.
    pub failed_passes: u64,
    /// Rows handed back to their row store after a failed upload. Each is
    /// still WAL-covered and is re-archived by a later pass.
    pub rows_restored: u64,
}

/// Which rows one archive step takes off a shard.
enum Drain {
    /// The whole shard, once it is over the flush threshold or when forced
    /// (a build pass).
    Shard { force: bool },
    /// One tenant's rows, off the shard its route left (the
    /// flush-instead-of-migrate optimization, §4.1.5). If the upload fails
    /// the rows stay queryable on the old shard and the next build pass
    /// re-archives them: a missed rebalance, never a lost row.
    Tenant(TenantId),
}

/// An embedded LogStore cluster.
pub struct LogStore {
    config: ClusterConfig,
    shared: Arc<ClusterShared>,
    broker: Broker,
    build_config: BuildConfig,
    archive_failed_passes: AtomicU64,
    archive_rows_restored: AtomicU64,
}

/// Externally-owned parts a [`LogStore::open_with`] call can inject.
///
/// A simulated crash drops the engine but not the world: OSS and the
/// metadata service are durable remote systems that survive a node crash,
/// and the harness models that by owning both across engine incarnations.
/// `hooks` is the crash-point injector. Every `None` falls back to what
/// [`LogStore::open`] would build.
#[derive(Default)]
pub struct OpenParts {
    /// The OSS stack (survives simulated crashes when shared).
    pub store: Option<Arc<Store>>,
    /// The metadata store (tenants, LogBlock map, drain commits).
    pub metadata: Option<Arc<MetadataStore>>,
    /// Archive-pipeline crash hooks.
    pub hooks: Option<Arc<dyn CrashHooks>>,
}

impl LogStore {
    /// Builds and starts a cluster.
    pub fn open(config: ClusterConfig) -> Result<Self> {
        Self::open_with(config, OpenParts::default())
    }

    /// Builds and starts a cluster around externally-owned `parts`.
    pub fn open_with(config: ClusterConfig, parts: OpenParts) -> Result<Self> {
        let metadata = parts.metadata.unwrap_or_else(|| Arc::new(MetadataStore::new()));
        let hooks = parts.hooks.unwrap_or_else(noop_hooks);
        let controller = ClusterController::new(&config);
        let store = parts.store.unwrap_or_else(|| {
            Arc::new(RetryingStore::new(
                SimulatedOss::new(
                    FaultyStore::new(MemoryStore::new(), FaultScope::All, 0.0, config.seed),
                    config.oss_latency.clone(),
                    config.seed,
                ),
                config.oss_retry.clone(),
                config.seed,
            ))
        });
        let block_tiers = match config.cache_disk_bytes {
            Some(disk_bytes) => {
                let dir = config
                    .data_dir
                    .clone()
                    .unwrap_or_else(std::env::temp_dir)
                    .join(format!("logstore-ssd-cache-{}", std::process::id()));
                TieredCache::with_disk(
                    config.cache_memory_bytes,
                    DiskBlockCache::open_sharded(dir, disk_bytes, config.cache_shards)?,
                )
            }
            None => {
                TieredCache::memory_only_sharded(config.cache_memory_bytes, config.cache_shards)
            }
        };
        // Headers are a few percent of a LogBlock's bytes: half the block
        // budget keeps the header of far more LogBlocks than the block
        // tier has room for, and both shrink and grow together.
        let cache = Arc::new(block_tiers.with_object_tier(config.cache_memory_bytes / 2));
        let mut workers = Vec::with_capacity(config.workers as usize);
        let mut shard_to_worker = HashMap::new();
        for w in 0..config.workers {
            let shard_ids: Vec<ShardId> = (0..config.shards_per_worker)
                .map(|s| ShardId(w * config.shards_per_worker + s))
                .collect();
            for &s in &shard_ids {
                shard_to_worker.insert(s, w as usize);
            }
            let id = WorkerId(w);
            workers.push(spawn_worker(&config, &metadata, &hooks, &controller, id, &shard_ids)?);
        }
        // Recovery route restoration: WAL replay may have resurrected
        // tenant rows on shards the freshly-built routing table does not
        // cover (the tenant had been rebalanced off its home shard before
        // the restart). Reinstall a route for every (tenant, shard) pair
        // holding buffered rows, or those rows would be invisible to reads.
        let mut recovered: std::collections::BTreeMap<TenantId, Vec<ShardId>> = Default::default();
        for worker in &workers {
            for shard in worker.shard_ids() {
                for tenant in worker.store(shard)?.buffered_tenants() {
                    recovered.entry(tenant).or_default().push(shard);
                }
            }
        }
        for (tenant, shards) in recovered {
            controller.restore_routes(tenant, &shards)?;
        }
        let shared = Arc::new(ClusterShared {
            schema: config.schema.clone(),
            workers: logstore_sync::OrderedRwLock::new("core.engine.workers", workers),
            shard_to_worker: logstore_sync::OrderedRwLock::new(
                "core.engine.shard_map",
                shard_to_worker,
            ),
            controller,
            metadata,
            prefetcher: Prefetcher::new(
                Arc::clone(&store),
                Arc::clone(&cache),
                config.cache_block_size,
                config.prefetch_threads,
            ),
            store,
            cache,
            query_pool: QueryPool::new(config.query_threads)?,
            cache_memory_bytes: config.cache_memory_bytes,
            hooks,
        });
        let broker = Broker::new(Arc::clone(&shared));
        let build_config = BuildConfig {
            compression: config.compression,
            block_rows: config.block_rows,
            max_rows_per_logblock: config.max_rows_per_logblock,
        };
        Ok(LogStore {
            config,
            shared,
            broker,
            build_config,
            archive_failed_passes: AtomicU64::new(0),
            archive_rows_restored: AtomicU64::new(0),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Shared state (experiment harnesses reach through this).
    pub fn shared(&self) -> &Arc<ClusterShared> {
        &self.shared
    }

    /// Ingests a batch of records through the broker (phase one), then
    /// runs the data builder on any shard over its flush threshold.
    ///
    /// An archive failure does not fail an accepted ingest: the accepted
    /// rows are durable in phase one (WAL + row store), the archive step
    /// restores any drained-but-not-uploaded rows, and a later pass
    /// re-archives them. It is surfaced as [`IngestReport::archive_degraded`]
    /// so writers notice before backpressure; counters are in
    /// [`LogStore::archive_stats`].
    pub fn ingest(&self, records: Vec<LogRecord>) -> Result<IngestReport> {
        let mut report = self.broker.ingest(RecordBatch::from_records(records))?;
        report.archive_degraded = self.flush_if_needed().is_err();
        Ok(report)
    }

    /// Executes a query with default options.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        Ok(self.broker.query(sql, &QueryOptions::default())?.result)
    }

    /// Executes a query with explicit options, returning full diagnostics.
    pub fn query_with_options(&self, sql: &str, opts: &QueryOptions) -> Result<QueryExecution> {
        self.broker.query(sql, opts)
    }

    /// Forces phase two now: drains every shard into LogBlocks on OSS.
    /// One build pass over every worker, the workers side by side, each
    /// archiving its shards in order: the pass costs about one worker's
    /// builds plus its last OSS round, not the sum over all shards.
    pub fn flush(&self) -> Result<BuildReport> {
        self.run_builder(true)
    }

    /// Runs phase two only for shards over the flush threshold: a serial
    /// build pass on the calling thread, as ingest's piggybacked check.
    pub fn flush_if_needed(&self) -> Result<BuildReport> {
        self.run_builder(false)
    }

    /// One build pass: one task per worker, each running the archive step
    /// on that worker's shards in shard order. A forced pass runs the
    /// workers' tasks as one [`ordered_wave`] of `min(workers,
    /// prefetch_threads)` in flight; a threshold pass, and any pass at
    /// `prefetch_threads = 1`, runs on the calling thread in (worker,
    /// shard) order.
    ///
    /// Every shard is processed even when an earlier one fails — the
    /// remaining shards still need their drain — and the first error in
    /// (worker, shard) order is returned after the pass completes. Steps
    /// on different shards touch disjoint WALs, drain intents and commit
    /// records, so whatever subset of them a crash interrupts, the durable
    /// state is one some serial order of the pass also reaches. Block
    /// paths come from one global counter and interleave across workers.
    fn run_builder(&self, force: bool) -> Result<BuildReport> {
        let width = if force { self.shared.prefetcher.width() } else { 1 };
        let passes = ordered_wave(width, self.shared.worker_snapshot(), |_, worker| {
            // One shard at a time, drain to ack: a shard's rows leave the
            // row store only when its own upload is about to start, so
            // they are out of query reach for one drain's upload, never
            // for the uploads of the shards ahead of it.
            let steps = worker.shard_ids().into_iter();
            steps.map(|shard| self.archive_step(&worker, shard, Drain::Shard { force })).collect()
        });
        let mut total = BuildReport::default();
        let mut first_error: Option<Error> = None;
        for step in passes.into_iter().flat_map(Vec::into_iter) {
            match step {
                Ok(report) => total.merge(&report),
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(total),
        }
    }

    /// One traffic-control tick: the controller fetches worker ingest
    /// windows over the control-plane network, feeds the monitor, and the
    /// leader proposes the balancer's plan through the replicated log
    /// (Algorithm 1). After a rebalance, rows of tenants whose routes left
    /// a shard are packaged and flushed to OSS instead of migrating between
    /// nodes (paper §4.1.5) — this is what "helps to reduce node load in
    /// the case of system hotspots".
    pub fn control_tick(&self) -> Result<ControlAction> {
        let action = self.shared.controller.control_tick()?;
        // Vacated edges persist in the replicated state until their flush
        // is acknowledged — so they are processed on *every* tick, not
        // just the one that produced them: a controller crash between the
        // rebalance commit and the flush leaves the edge pending, and the
        // next tick (under the new leader) finishes the job. One bad
        // tenant flush must not starve the others: every vacated route is
        // attempted and the first error returned afterwards.
        let mut first_error: Option<Error> = None;
        for (tenant, shard) in self.shared.controller.vacated_routes()? {
            let flushed = self
                .shared
                .worker_for(shard)
                .and_then(|worker| self.archive_step(&worker, shard, Drain::Tenant(tenant)))
                .and_then(|_| self.shared.controller.vacate_done(tenant, shard));
            if let Err(e) = flushed {
                first_error.get_or_insert(e);
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(action),
        }
    }

    /// The archive step, phase two for one shard: drain → build → upload →
    /// admit → register → **ack**, with the engine's OSS request
    /// concurrency.
    ///
    /// The durability order is the point of this function. Draining does
    /// not checkpoint anything; only after *all* of the drained rows are
    /// durable on OSS does the ack truncate the WAL. On a terminal upload
    /// failure the un-uploaded rows go back into the shard's row store —
    /// still WAL-covered, so a crash at any point loses nothing — and a
    /// later step re-archives them. Every drain that took rows is closed
    /// by exactly one ack or restore, whatever failed before it, or its
    /// rows would vanish from the row store with the archive op left
    /// dangling. Returns what was registered, or the first error: the
    /// drain intent's, the upload's, else the ack's.
    fn archive_step(&self, worker: &Worker, shard: ShardId, drain: Drain) -> Result<BuildReport> {
        let store = worker.store(shard)?;
        let drained = match drain {
            Drain::Shard { force } => {
                store.drain_all(if force { 0 } else { self.config.rowstore_flush_bytes })
            }
            Drain::Tenant(tenant) => store.drain_tenant(tenant),
        };
        // A drain intent that failed to log left its rows in the row store.
        let Some((lsn, rows)) = drained? else {
            if matches!(drain, Drain::Shard { force: true }) {
                // Nothing to drain produces no ack, yet the shard may hold
                // a truncation an earlier overlapping ack had to defer —
                // apply it now that it is quiescent.
                worker.truncate_quiescent(shard)?;
            }
            return Ok(BuildReport::default());
        };
        // Registered before any path allocation: while this guard lives,
        // the GC pass will not sweep our pending upload paths as orphans.
        let _build = self.shared.metadata.begin_build();
        self.shared.hooks.reached(CrashPoint::AfterDrain);
        let outcome = build_and_upload_drain(
            rows,
            &self.shared.schema,
            &self.build_config,
            self.shared.store.as_ref(),
            &self.shared.metadata,
            lsn.map(|lsn| DrainId { shard, lsn }),
            Some(&self.shared.prefetcher),
        );
        self.shared.hooks.reached(CrashPoint::AfterUpload);
        let acked = if outcome.is_complete() {
            worker.ack_archived(shard)
        } else {
            self.archive_failed_passes.fetch_add(1, Ordering::Relaxed);
            self.archive_rows_restored
                .fetch_add(outcome.unarchived.len() as u64, Ordering::Relaxed);
            store.restore_unarchived(outcome.unarchived);
            Ok(())
        };
        match outcome.error {
            Some(e) => Err(e),
            None => acked.map(|()| outcome.report),
        }
    }

    /// `ScaleCluster` (Algorithm 1 lines 25–27): adds `n` workers, each
    /// with the configured shards-per-worker, and registers the new
    /// capacity with the controller. Existing data stays put — the next
    /// control tick spreads hot tenants onto the new shards.
    pub fn scale_out(&self, n: u32) -> Result<Vec<WorkerId>> {
        let mut added = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let mut workers = self.shared.workers.write();
            let mut shard_map = self.shared.shard_to_worker.write();
            let worker_id = WorkerId(workers.len() as u32);
            let next_shard = shard_map.keys().map(|s| s.raw() + 1).max().unwrap_or(0);
            let shard_ids: Vec<ShardId> =
                (0..self.config.shards_per_worker).map(|s| ShardId(next_shard + s)).collect();
            let shared = &self.shared;
            let worker = spawn_worker(
                &self.config,
                &shared.metadata,
                &shared.hooks,
                &shared.controller,
                worker_id,
                &shard_ids,
            )?;
            for &s in &shard_ids {
                shard_map.insert(s, workers.len());
            }
            workers.push(worker);
            added.push(worker_id);
        }
        Ok(added)
    }

    /// Current worker count.
    pub fn worker_count(&self) -> usize {
        self.shared.workers.read().len()
    }

    /// Sets a tenant's retention policy (None = keep forever).
    pub fn set_retention(&self, tenant: TenantId, retention_ms: Option<i64>) {
        self.shared.metadata.set_retention(tenant, retention_ms);
    }

    /// Runs the expiration task as of `now`; returns the number of
    /// objects deleted from OSS.
    ///
    /// Expiration is two decoupled steps: every tenant's expired blocks
    /// move from the live map to the persistent tombstone list (atomic,
    /// infallible, per tenant — one tenant cannot abort another), then a
    /// GC pass deletes tombstoned objects. A failed delete retains its
    /// tombstone for the next pass instead of leaking the object.
    pub fn expire(&self, now: Timestamp) -> Result<u64> {
        for tenant in self.shared.metadata.tenants() {
            self.shared.metadata.expire(tenant, now);
        }
        Ok(self.gc().deleted)
    }

    /// One compaction pass: merges runs of small adjacent LogBlocks per
    /// tenant into large blocks (rebuilding all indexes), swapping the map
    /// atomically and tombstoning the superseded objects. Sources the
    /// cache holds are read from it, and what is merged from them is
    /// cached in their place. Safe to run
    /// concurrently with ingest, queries and expiration: a lost race
    /// surfaces as a skipped run, never as data loss.
    pub fn compact(&self) -> Result<CompactionReport> {
        compactor::run_compaction(
            self.shared.store.as_ref(),
            &self.shared.metadata,
            &self.shared.schema,
            &self.build_config,
            &self.compaction_config(),
            self.shared.hooks.as_ref(),
            Some(&self.shared.prefetcher),
        )
    }

    /// One GC pass: sweeps orphaned uploads into the tombstone list and
    /// deletes tombstoned objects from OSS, `prefetch_threads` at a time
    /// (evicting their handles and blocks from the cache). Failed deletes
    /// are retried by the next pass.
    pub fn gc(&self) -> GcReport {
        compactor::run_gc(
            self.shared.store.as_ref(),
            &self.shared.metadata,
            Some(&self.shared.prefetcher),
            self.shared.hooks.as_ref(),
        )
    }

    fn compaction_config(&self) -> CompactionConfig {
        /// Minimum run of adjacent small blocks worth rewriting.
        const MIN_RUN: usize = 2;
        /// Row cap of one merged block, in multiples of the flush path's
        /// `max_rows_per_logblock` — compaction exists to build blocks
        /// *larger* than that cap.
        const MERGED_BLOCK_FACTOR: u64 = 4;
        CompactionConfig {
            small_block_rows: self
                .config
                .compact_small_rows
                .unwrap_or(self.config.max_rows_per_logblock as u64),
            min_run: MIN_RUN,
            max_merged_rows: MERGED_BLOCK_FACTOR * self.config.max_rows_per_logblock as u64,
        }
    }

    /// Per-tenant archived usage (the billing meter).
    pub fn tenant_usage(&self, tenant: TenantId) -> TenantInfo {
        self.shared.metadata.tenant_info(tenant)
    }

    /// OSS request/byte/latency counters.
    pub fn oss_metrics(&self) -> OssMetrics {
        self.shared.oss_sim().metrics()
    }

    /// Retry decorator counters (operations, retries, exhausted budgets).
    pub fn retry_metrics(&self) -> RetryMetrics {
        self.shared.store.metrics()
    }

    /// Archive-pipeline failure counters.
    pub fn archive_stats(&self) -> ArchiveStats {
        ArchiveStats {
            failed_passes: self.archive_failed_passes.load(Ordering::Relaxed),
            rows_restored: self.archive_rows_restored.load(Ordering::Relaxed),
        }
    }

    /// Cache hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Drops everything the cache holds in memory — LogBlock handles and
    /// memory-tier blocks (cold-cache experiment phases).
    pub fn clear_cache(&self) {
        self.shared.cache.clear_memory();
    }

    /// Number of registered LogBlocks.
    pub fn block_count(&self) -> usize {
        self.shared.metadata.block_count()
    }

    /// Total route edges in the routing table (Fig 12(c)).
    pub fn route_count(&self) -> usize {
        self.shared.controller.route_count()
    }
}

/// The one way a worker starts: open its shards (durable ones replay
/// against the drain-commit table), then join the cluster through the
/// replicated control plane — attach the window endpoint to the
/// control-plane network and register the shards via a `RegisterWorker`
/// command committed through the controller's Raft log.
fn spawn_worker(
    config: &ClusterConfig,
    metadata: &Arc<MetadataStore>,
    hooks: &Arc<dyn CrashHooks>,
    controller: &ClusterController,
    id: WorkerId,
    shard_ids: &[ShardId],
) -> Result<Arc<Worker>> {
    let worker = Arc::new(Worker::new(
        id,
        shard_ids,
        &config.schema,
        config.rowstore_backpressure_bytes,
        1, // ignored: shards are not replicated
        config.data_dir.as_ref(),
        config.wal.clone(),
        0, // ignored
        Some(metadata),
        Arc::clone(hooks),
    )?);
    controller.attach_worker(&worker);
    controller.register_worker(id, shard_ids, config.shard_capacity)?;
    Ok(worker)
}

#[cfg(test)]
mod tests {
    use super::*;
    use logstore_types::Value;

    fn rec(t: u64, ts: i64, latency: i64, msg: &str) -> LogRecord {
        LogRecord::new(
            TenantId(t),
            Timestamp(ts),
            vec![
                Value::from("10.0.0.1"),
                Value::from("/api/v1/users"),
                Value::I64(latency),
                Value::Bool(latency > 400),
                Value::from(msg.to_string()),
            ],
        )
    }

    fn store() -> LogStore {
        LogStore::open(ClusterConfig::for_testing()).unwrap()
    }

    #[test]
    fn ingest_then_query_realtime() {
        let s = store();
        let report =
            s.ingest(vec![rec(1, 100, 10, "hello world"), rec(1, 200, 20, "second line")]).unwrap();
        assert_eq!(report.accepted, 2);
        assert_eq!(report.rejected, 0);
        let result =
            s.query("SELECT log FROM request_log WHERE tenant_id = 1 AND ts >= 0").unwrap();
        assert_eq!(result.rows.len(), 2);
    }

    #[test]
    fn query_spans_realtime_and_archived() {
        let s = store();
        s.ingest(vec![rec(1, 100, 10, "archived row")]).unwrap();
        let report = s.flush().unwrap();
        assert_eq!(report.rows_archived, 1);
        assert!(s.block_count() >= 1);
        s.ingest(vec![rec(1, 200, 20, "fresh row")]).unwrap();
        let result = s.query("SELECT log FROM request_log WHERE tenant_id = 1").unwrap();
        assert_eq!(result.rows.len(), 2, "must merge OSS blocks with the row store");
    }

    #[test]
    fn tenant_isolation_in_queries_and_storage() {
        let s = store();
        s.ingest(vec![rec(1, 100, 10, "tenant one"), rec(2, 100, 10, "tenant two")]).unwrap();
        s.flush().unwrap();
        let r1 = s.query("SELECT log FROM request_log WHERE tenant_id = 1").unwrap();
        assert_eq!(r1.rows.len(), 1);
        assert_eq!(r1.rows[0][0], Value::from("tenant one"));
        // Physical isolation: distinct OSS prefixes.
        use logstore_oss::ObjectStore;
        assert_eq!(s.shared().fault_layer().list("tenants/1/").unwrap().len(), 1);
        assert_eq!(s.shared().fault_layer().list("tenants/2/").unwrap().len(), 1);
    }

    #[test]
    fn queries_require_tenant_pinning() {
        let s = store();
        let err = s.query("SELECT log FROM request_log WHERE latency > 5").unwrap_err();
        assert!(matches!(err, Error::Query(_)));
    }

    #[test]
    fn aggregation_across_sources() {
        let s = store();
        for i in 0..30 {
            s.ingest(vec![rec(1, i, 10, "x")]).unwrap();
        }
        s.flush().unwrap();
        for i in 30..50 {
            s.ingest(vec![rec(1, i, 10, "x")]).unwrap();
        }
        let result = s.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1").unwrap();
        assert_eq!(result.rows[0][0], Value::U64(50));
    }

    #[test]
    fn full_text_and_filters_match_across_flush() {
        let s = store();
        s.ingest(vec![
            rec(1, 1, 500, "request timeout while calling upstream"),
            rec(1, 2, 10, "request ok"),
        ])
        .unwrap();
        s.flush().unwrap();
        let result = s
            .query("SELECT log FROM request_log WHERE tenant_id = 1 AND log CONTAINS 'timeout'")
            .unwrap();
        assert_eq!(result.rows.len(), 1);
        let result =
            s.query("SELECT log FROM request_log WHERE tenant_id = 1 AND fail = true").unwrap();
        assert_eq!(result.rows.len(), 1);
    }

    #[test]
    fn expiration_removes_old_blocks() {
        let s = store();
        s.set_retention(TenantId(1), Some(1000));
        s.ingest(vec![rec(1, 0, 1, "old")]).unwrap();
        s.flush().unwrap();
        s.ingest(vec![rec(1, 10_000, 1, "new")]).unwrap();
        s.flush().unwrap();
        assert_eq!(s.block_count(), 2);
        let deleted = s.expire(Timestamp(10_500)).unwrap();
        assert_eq!(deleted, 1);
        assert_eq!(s.block_count(), 1);
        let result = s.query("SELECT log FROM request_log WHERE tenant_id = 1").unwrap();
        assert_eq!(result.rows.len(), 1);
        assert_eq!(result.rows[0][0], Value::from("new"));
    }

    #[test]
    fn usage_metering_accumulates() {
        let s = store();
        for i in 0..10 {
            s.ingest(vec![rec(3, i, 1, "meter me")]).unwrap();
        }
        s.flush().unwrap();
        let usage = s.tenant_usage(TenantId(3));
        assert_eq!(usage.archived_rows, 10);
        assert!(usage.archived_bytes > 0);
    }

    #[test]
    fn query_options_do_not_change_results() {
        let s = store();
        for i in 0..200 {
            s.ingest(vec![rec(1, i, i % 300, if i % 7 == 0 { "timeout" } else { "fine" })])
                .unwrap();
        }
        s.flush().unwrap();
        let sql = "SELECT log FROM request_log WHERE tenant_id = 1 \
                   AND latency >= 100 AND log CONTAINS 'timeout'";
        let full = s.query_with_options(sql, &QueryOptions::default()).unwrap();
        s.clear_cache();
        let baseline = s.query_with_options(sql, &QueryOptions::baseline()).unwrap();
        assert_eq!(full.result, baseline.result);
        // And the optimized path does less scanning.
        assert!(full.stats.scan.blocks_scanned <= baseline.stats.scan.blocks_scanned);
    }

    #[test]
    fn a_query_fails_while_the_control_plane_is_unreachable() {
        // A tenant that was ingested but never queried has no cached read
        // shards: the query must ask the control plane, and an unreachable
        // control plane must fail the query — not answer it without the
        // tenant's real-time rows. Likewise a tick that cannot fetch the
        // workers' windows.
        let s = store();
        for i in 0..25 {
            s.ingest(vec![rec(7, i, 1, "unflushed")]).unwrap();
        }
        let sql = "SELECT COUNT(*) FROM request_log WHERE tenant_id = 7";
        s.shared().controller.set_net_faults(1.0, 0.0, false);
        let err = s.query(sql).unwrap_err();
        assert!(matches!(err, Error::Cluster(_)), "{err}");
        let err = s.control_tick().unwrap_err();
        assert!(matches!(err, Error::Cluster(_)), "{err}");
        s.shared().controller.clear_net_faults();
        assert_eq!(s.query(sql).unwrap().rows[0][0], Value::U64(25));
    }
}
