//! The `LogStore` facade: one embedded, multi-tenant log database.

use crate::broker::{Broker, QueryExecution};
use crate::compactor::{self, CompactionConfig, CompactionReport, CompactionTimers, GcReport};
use crate::config::{ClusterConfig, QueryOptions};
use crate::controller::ClusterController;
use crate::databuilder::{
    admit_prefix, admitted, build_blocks, commit_prefix, partition, put_blocks, ArchiveTimers,
    Block, BuildConfig, BuildOutcome, BuildReport,
};
use crate::executor::QueryPool;
use crate::hooks::{noop_hooks, CrashHooks, CrashPoint};
use crate::metadata::{BuildGuard, DrainId, MetadataStore, TenantInfo};
use crate::worker::{IngestTimers, Worker};
use logstore_cache::{CacheStats, DiskBlockCache, Prefetcher, TieredCache};
use logstore_flow::ControlAction;
use logstore_obs::Registry;
use logstore_oss::{
    ordered_wave, FaultScope, FaultyStore, MemoryStore, OssMetrics, RetryMetrics, RetryingStore,
    SimulatedOss,
};
use logstore_query::exec::QueryResult;
use logstore_types::{
    Error, LogRecord, RecordBatch, Result, ShardId, TableSchema, TenantId, Timestamp, WorkerId,
};
use logstore_wal::{Drained, Lsn, RunChunk};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

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
    /// The served schema, shared with every LogBlock builder.
    pub schema: Arc<TableSchema>,
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
    /// The ingest stage timers every worker and the broker record into.
    pub(crate) ingest_timers: Arc<IngestTimers>,
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
    /// True when the piggybacked build pass hit a terminal archive failure,
    /// or reported one that an earlier pass's settle hit off the caller.
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

/// An embedded LogStore cluster.
pub struct LogStore {
    /// Where a threshold pass settles its drains: `min(workers,
    /// prefetch_threads)` threads, none at `prefetch_threads = 1`. First, so
    /// that it drops first: its drop waits for every settle in flight
    /// before anything a settle uses is torn down.
    settle_pool: Option<QueryPool>,
    config: ClusterConfig,
    shared: Arc<ClusterShared>,
    broker: Broker,
    archiver: Arc<Archiver>,
    compaction_timers: CompactionTimers,
    metrics: Registry,
}

/// A drain taken from `shard` and built, ready to settle: its checkpoint's
/// LSN, its rows, their canonical chunks, the chunks' LogBlocks as far as
/// they built, the guard that keeps the GC pass off their paths, and the
/// outcome so far.
struct Taken {
    shard: ShardId,
    lsn: Option<Lsn>,
    drained: Drained,
    chunks: Vec<RunChunk>,
    blocks: Vec<Result<Block>>,
    build: BuildGuard,
    outcome: BuildOutcome,
}

/// What an archive step works with, shared with the settles it hands to
/// the settle pool.
struct Archiver {
    shared: Arc<ClusterShared>,
    build_config: BuildConfig,
    failed_passes: AtomicU64,
    rows_restored: AtomicU64,
    timers: ArchiveTimers,
    /// The first failure of a settle that ran on the settle pool, for the
    /// next build pass to report.
    settle_error: logstore_sync::OrderedMutex<Option<Error>>,
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
        let mut metrics = Registry::new();
        let ingest_timers = Arc::new(IngestTimers::register(&mut metrics));
        let archive_timers = ArchiveTimers::register(&mut metrics);
        let compaction_timers = CompactionTimers::register(&mut metrics);
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
            let timers = Arc::clone(&ingest_timers);
            workers.push(spawn_worker(
                &config,
                &metadata,
                &hooks,
                &controller,
                id,
                &shard_ids,
                timers,
            )?);
        }
        // Recovery route restoration: WAL replay may have resurrected
        // tenant rows on shards the freshly-built routing table does not
        // cover (the tenant had been rebalanced off its home shard before
        // the restart). Reinstall a route for every (tenant, shard) pair
        // holding rows, or those rows would be invisible to reads.
        let mut recovered: BTreeMap<TenantId, Vec<ShardId>> = BTreeMap::new();
        for worker in &workers {
            for shard in worker.shard_ids() {
                for tenant in worker.store(shard)?.held_tenants() {
                    recovered.entry(tenant).or_default().push(shard);
                }
            }
        }
        for (tenant, shards) in recovered {
            controller.restore_routes(tenant, &shards)?;
        }
        let shared = Arc::new(ClusterShared {
            schema: Arc::new(config.schema.clone()),
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
            ingest_timers,
        });
        let broker = Broker::new(Arc::clone(&shared));
        let archiver = Arc::new(Archiver {
            shared: Arc::clone(&shared),
            build_config: BuildConfig {
                compression: config.compression,
                block_rows: config.block_rows,
                max_rows_per_logblock: config.max_rows_per_logblock,
            },
            failed_passes: AtomicU64::new(0),
            rows_restored: AtomicU64::new(0),
            timers: archive_timers,
            settle_error: logstore_sync::OrderedMutex::new("core.engine.settle_error", None),
        });
        // As wide as a forced pass: one settle per worker at once.
        let settle_width = (config.workers as usize).min(config.prefetch_threads);
        let settle_pool = match config.prefetch_threads > 1 {
            true => Some(QueryPool::new(settle_width)?),
            false => None,
        };
        Ok(LogStore { settle_pool, config, shared, broker, archiver, compaction_timers, metrics })
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
    /// runs a threshold pass ([`LogStore::flush_if_needed`]): a shard over
    /// its flush threshold is drained and built here, and at
    /// `prefetch_threads > 1` its upload, registration and ack — the
    /// settle — run on the settle pool, so the call returns without waiting
    /// for OSS. Until the settle ends, the drained rows stay readable from
    /// their shard.
    ///
    /// An archive failure does not fail an accepted ingest: the accepted
    /// rows are durable in phase one (WAL + row store), the archive step
    /// restores any drained-but-not-uploaded rows, and a later pass
    /// re-archives them. It is surfaced as [`IngestReport::archive_degraded`]
    /// — by this call, or for a settle that failed off the caller, by the
    /// next pass — so writers notice before backpressure; counters are in
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
    /// builds plus its last OSS round, not the sum over all shards. It is
    /// a barrier: each shard's drain first waits for a settle still in
    /// flight there, so every row buffered when it was called is on OSS
    /// when it returns `Ok`.
    pub fn flush(&self) -> Result<BuildReport> {
        self.run_builder(true)
    }

    /// Runs phase two only for shards over the flush threshold: a serial
    /// build pass on the calling thread, as ingest's piggybacked check. At
    /// `prefetch_threads > 1` each due shard is drained and built here and
    /// settled on the settle pool, so the report counts only what this
    /// call settled itself — nothing then; a settle that fails there is
    /// reported by the next pass, this one's or a forced one's.
    pub fn flush_if_needed(&self) -> Result<BuildReport> {
        self.run_builder(false)
    }

    /// One build pass: one task per worker, each running the archive step
    /// on that worker's shards in shard order. A forced pass runs the
    /// workers' tasks as one [`ordered_wave`] of `min(workers,
    /// prefetch_threads)` in flight and settles every drain on its task's
    /// thread; a threshold pass, and any pass at `prefetch_threads = 1`,
    /// runs on the calling thread in (worker, shard) order, and a threshold
    /// pass hands each settle to the settle pool when there is one.
    ///
    /// Every shard is processed even when an earlier one fails — the
    /// remaining shards still need their drain — and the first error in
    /// (worker, shard) order is returned after the pass completes. Steps
    /// on different shards touch disjoint WALs, drain intents and commit
    /// records, so whatever subset of them a crash interrupts, the durable
    /// state is one some serial order of the pass also reaches. Block
    /// paths come from one global counter and interleave across workers.
    ///
    /// The pass's wall time is recorded when any worker was due, and a
    /// threshold pass records how many were. A settle failure from the
    /// settle pool that no pass has reported yet is this pass's error, after
    /// its own.
    fn run_builder(&self, force: bool) -> Result<BuildReport> {
        let start = Instant::now();
        let width = if force { self.shared.prefetcher.width() } else { 1 };
        let settle_pool = if force { None } else { self.settle_pool.as_ref() };
        let passes = ordered_wave(width, self.shared.worker_snapshot(), |_, worker| {
            // One shard at a time: a shard's drain waits for its own last
            // settle, never for the settles of the shards ahead of it.
            let min_bytes = if force { 0 } else { self.config.rowstore_flush_bytes };
            let steps = worker.shard_ids().into_iter();
            let step = |shard| self.archiver.archive_step(&worker, shard, min_bytes, settle_pool);
            steps.map(step).collect()
        });
        // A worker was due when one of its steps took rows or failed.
        let due = |steps: &Vec<Result<Option<BuildReport>>>| {
            steps.iter().any(|step| step.as_ref().map_or(true, Option::is_some))
        };
        let workers_due = passes.iter().filter(|steps| due(steps)).count() as u64;
        let timers = &self.archiver.timers;
        if workers_due > 0 {
            timers.pass.record_duration(start.elapsed());
        }
        if !force {
            timers.workers_due.record(workers_due);
        }
        let mut total = BuildReport::default();
        let mut first_error: Option<Error> = None;
        for step in passes.into_iter().flat_map(Vec::into_iter) {
            match step {
                Ok(report) => total.merge(&report.unwrap_or_default()),
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        if let Some(e) = self.archiver.settle_error.lock().take() {
            first_error.get_or_insert(e);
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
    ///
    /// The flush is the build pass's own drain: each shard that still holds
    /// rows of a vacated tenant — buffered, or drained by a settle still in
    /// flight — is archived whole, once per tick however many of its
    /// tenants left it, settled on this thread. Then every vacated edge of
    /// the shard whose tenant it no longer holds rows of is acknowledged.
    /// Its other tenants' rows go to OSS early, as smaller LogBlocks that
    /// compaction merges later. If the archive step fails, or a threshold
    /// pass took the tenant's newest rows meanwhile, the edge stays
    /// pending, so reads still reach the rows, and a later tick retries: a
    /// missed rebalance, never a lost row.
    pub fn control_tick(&self) -> Result<ControlAction> {
        let action = self.shared.controller.control_tick()?;
        // Vacated edges persist in the replicated state until their flush
        // is acknowledged — so they are processed on *every* tick, not
        // just the one that produced them: a controller crash between the
        // rebalance commit and the flush leaves the edge pending, and the
        // next tick (under the new leader) finishes the job. One bad
        // shard must not starve the others: every shard is attempted and
        // the first error returned afterwards.
        let mut vacated: BTreeMap<ShardId, Vec<TenantId>> = BTreeMap::new();
        for (tenant, shard) in self.shared.controller.vacated_routes()? {
            vacated.entry(shard).or_default().push(tenant);
        }
        let mut first_error: Option<Error> = None;
        for (shard, tenants) in vacated {
            let flushed = self.shared.worker_for(shard).and_then(|worker| {
                let store = worker.store(shard)?;
                let held = store.held_tenants();
                if tenants.iter().any(|tenant| held.contains(tenant)) {
                    self.archiver.archive_step(&worker, shard, 0, None)?;
                }
                let held = store.held_tenants();
                let left = tenants.iter().filter(|tenant| !held.contains(tenant));
                left.into_iter().try_for_each(|&t| self.shared.controller.vacate_done(t, shard))
            });
            if let Err(e) = flushed {
                first_error.get_or_insert(e);
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(action),
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
                Arc::clone(&shared.ingest_timers),
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
    /// surfaces as a skipped run, never as data loss. A pass that returns a
    /// report records its stages (`core.compactor.*_ns`) and the rows it
    /// rewrote.
    pub fn compact(&self) -> Result<CompactionReport> {
        let report = compactor::run_compaction(
            self.shared.store.as_ref(),
            &self.shared.metadata,
            &self.shared.schema,
            &self.archiver.build_config,
            &self.compaction_config(),
            self.shared.hooks.as_ref(),
            Some(&self.shared.prefetcher),
        )?;
        self.compaction_timers.record(&report);
        Ok(report)
    }

    /// One GC pass: sweeps orphaned uploads into the tombstone list and
    /// deletes tombstoned objects from OSS, `prefetch_threads` at a time
    /// (evicting their handles and blocks from the cache). Failed deletes
    /// are retried by the next pass. Records the delete wave
    /// (`core.compactor.gc_delete_ns`).
    pub fn gc(&self) -> GcReport {
        let report = compactor::run_gc(
            self.shared.store.as_ref(),
            &self.shared.metadata,
            Some(&self.shared.prefetcher),
            self.shared.hooks.as_ref(),
        );
        self.compaction_timers.record_gc(&report);
        report
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

    /// The engine's metrics as stable text, one line per metric sorted by
    /// label (format: `logstore_obs::Registry::snapshot`). Today these are
    /// the ingest stage timers — route per request; admit, encode, WAL
    /// append, apply and window per sub-batch — and the archive step's:
    /// drain, partition, build (`add`, `encode`, `finish`), upload wave,
    /// admit, commit, ack and release, per drain; the wall time of each
    /// build pass that archived rows; the workers due per threshold pass;
    /// compaction's — plan, fetch, decode, build (`add`, `encode`,
    /// `finish`), upload and swap — per compaction pass, with the rows it
    /// rewrote; and each GC pass's delete wave.
    pub fn metrics_snapshot(&self) -> String {
        self.metrics.snapshot()
    }

    /// Archive-pipeline failure counters.
    pub fn archive_stats(&self) -> ArchiveStats {
        ArchiveStats {
            failed_passes: self.archiver.failed_passes.load(Ordering::Relaxed),
            rows_restored: self.archiver.rows_restored.load(Ordering::Relaxed),
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

impl Archiver {
    /// The archive step, phase two for one shard, with the engine's OSS
    /// request concurrency: take (drain every row, once at least
    /// `min_bytes` are buffered, and build every chunk in canonical order,
    /// up to the first that fails to build) → settle (PUT wave → admit →
    /// register → **ack**). `None` when there was nothing to take.
    ///
    /// The take runs here. With a `settle_pool` — a threshold pass at
    /// `prefetch_threads > 1` — the settle runs on the pool and the step
    /// returns an empty report once the build is done; without one — a
    /// forced pass, a control tick, any pass at width 1 — it runs here.
    /// Either way it is the same [`Archiver::settle`].
    ///
    /// The durability order is the point of this function. The take logs a
    /// checkpoint holding its rows before the upload starts; only after
    /// *all* of the drained rows are durable on OSS does the ack log itself
    /// and cut the WAL. Until the registration, the drained rows stay on the
    /// shard's side list, readable; on a terminal upload failure the
    /// un-uploaded rows go back into the shard's row store — still
    /// WAL-covered, so a crash at any point loses nothing — and a later
    /// step re-archives them. Every drain that took rows is settled,
    /// whatever failed before it, or the shard's next take would wait for
    /// good; if the step unwinds instead, that take re-raises the panic.
    /// Returns what was registered here, or the first error: the
    /// checkpoint's, the upload's, else the ack's.
    fn archive_step(
        self: &Arc<Self>,
        worker: &Arc<Worker>,
        shard: ShardId,
        min_bytes: usize,
        settle_pool: Option<&QueryPool>,
    ) -> Result<Option<BuildReport>> {
        let store = worker.store(shard)?;
        let start = Instant::now();
        // A checkpoint that failed to log left its rows in the row store.
        let (taken, waited) = store.take_timed(min_bytes)?;
        if !waited.is_zero() {
            self.timers.settle_wait.record_duration(waited);
        }
        let Some((lsn, drained)) = taken else { return Ok(None) };
        self.timers.drain.record_duration(start.elapsed().saturating_sub(waited));
        let step = catch_unwind(AssertUnwindSafe(|| {
            let (shared, config) = (&self.shared, &self.build_config);
            // Registered before any path allocation: while this guard
            // lives, the GC pass will not sweep our pending upload paths
            // as orphans. It goes with the settle, to its commit.
            let build = shared.metadata.begin_build();
            shared.hooks.reached(CrashPoint::AfterDrain);
            let mut outcome = BuildOutcome::default();
            let chunks = partition(&drained, config, &mut outcome.stages);
            let stages = &mut outcome.stages;
            let blocks =
                build_blocks(&chunks, &drained, &shared.schema, config, &shared.metadata, stages);
            self.timers.record_build(&outcome.stages);
            let taken = Taken { shard, lsn, drained, chunks, blocks, build, outcome };
            let Some(pool) = settle_pool else {
                let settled = self.settle(worker, taken);
                store.settled();
                return settled;
            };
            // A failure waits in `settle_error` for the next pass, stored
            // before the shard's next take may go; a panic abandons the
            // shard's drain with its payload, for that take to re-raise.
            let (archiver, worker) = (Arc::clone(self), Arc::clone(worker));
            pool.detach(move || {
                let settled = catch_unwind(AssertUnwindSafe(|| archiver.settle(&worker, taken)));
                let Ok(store) = worker.store(shard) else { return };
                match settled {
                    Ok(settled) => {
                        if let Err(e) = settled {
                            archiver.settle_error.lock().get_or_insert(e);
                        }
                        store.settled();
                    }
                    Err(payload) => store.abandon(payload),
                }
            });
            Ok(BuildReport::default())
        }));
        match step {
            Ok(settled) => settled.map(Some),
            Err(payload) => {
                store.abandon(Box::new("an archive step of this shard panicked"));
                resume_unwind(payload)
            }
        }
    }

    /// The settle of `taken`: the PUT wave of its built chunks, the
    /// admission of the durable prefix, and — as the shard's
    /// [`ShardStore::settle`], so that the drained rows leave its side list
    /// in the same step — the metadata commit and the fold-back of what it
    /// left unarchived; then the ack of a whole drain. Records the settle
    /// stages and releases the drain; the caller ends the settle
    /// ([`ShardStore::settled`]).
    ///
    /// [`ShardStore::settle`]: logstore_wal::ShardStore::settle
    /// [`ShardStore::settled`]: logstore_wal::ShardStore::settled
    fn settle(&self, worker: &Worker, taken: Taken) -> Result<BuildReport> {
        let Taken { shard, lsn, drained, chunks, blocks, build, mut outcome } = taken;
        let (shared, store) = (&self.shared, worker.store(shard)?);
        let prefetcher = Some(&shared.prefetcher);
        let upload = &mut outcome.stages.upload;
        let uploads = put_blocks(admitted(blocks), shared.store.as_ref(), prefetcher, upload);
        let entries = admit_prefix(uploads, prefetcher, &mut outcome);
        let drain = lsn.map(|lsn| DrainId { shard, lsn });
        let complete = store.settle(|| {
            let (config, metadata) = (&self.build_config, &shared.metadata);
            commit_prefix(entries, &chunks, &drained, config, metadata, drain, &mut outcome);
            if outcome.is_complete() {
                return (true, None);
            }
            self.failed_passes.fetch_add(1, Ordering::Relaxed);
            let unarchived = std::mem::take(&mut outcome.unarchived);
            self.rows_restored.fetch_add(unarchived.len() as u64, Ordering::Relaxed);
            (false, Some(unarchived))
        });
        shared.hooks.reached(CrashPoint::AfterUpload);
        let acked = if complete {
            let start = Instant::now();
            let acked = worker.ack_archived(shard, lsn);
            self.timers.ack.record_duration(start.elapsed());
            acked
        } else {
            Ok(())
        };
        drop(build);
        self.timers.record_settle(&outcome);
        self.release(drained);
        match outcome.error.take() {
            Some(e) => Err(e),
            None => acked.map(|()| outcome.report),
        }
    }

    /// The drain's runs die here, unless a query still reads one: then its
    /// last reader frees it.
    fn release(&self, drained: Drained) {
        let release = Instant::now();
        drop(drained);
        self.timers.release.record_duration(release.elapsed());
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
    timers: Arc<IngestTimers>,
) -> Result<Arc<Worker>> {
    let worker = Worker::new(
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
    )?;
    let worker = Arc::new(worker.with_timers(timers));
    controller.attach_worker(&worker);
    controller.register_worker(id, shard_ids, config.shard_capacity)?;
    Ok(worker)
}

#[cfg(test)]
mod tests {
    use super::*;
    use logstore_types::Value;
    use std::sync::atomic::AtomicBool;

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
    fn metrics_snapshot_times_every_archive_stage() {
        let s = store();
        let line = |snapshot: &str, label: &str| {
            let prefix = format!("{label} ");
            snapshot.lines().find_map(|l| l.strip_prefix(&prefix).map(str::to_string))
        };
        let count = |snapshot: &str, label: &str| {
            line(snapshot, label).expect("registered").split(' ').next().map(str::to_string)
        };
        let empty = s.metrics_snapshot();
        assert_eq!(count(&empty, "core.engine.pass_ns").as_deref(), Some("count=0"));
        s.ingest(vec![rec(1, 100, 10, "one"), rec(1, 101, 10, "two")]).unwrap();
        // The ingest ran one threshold pass, with no worker due.
        let after_ingest = s.metrics_snapshot();
        assert_eq!(
            line(&after_ingest, "core.engine.workers_due").as_deref(),
            Some("count=1 sum=0 p50<=0 p99<=0 max<=0")
        );
        // One request, routed to one shard: one sub-batch, timed stage by
        // stage.
        for stage in [
            "core.broker.route_ns",
            "core.worker.admit_ns",
            "core.worker.encode_ns",
            "core.worker.wal_ns",
            "core.worker.apply_ns",
            "core.worker.window_ns",
        ] {
            assert_eq!(count(&after_ingest, stage).as_deref(), Some("count=1"), "{stage}");
        }
        assert_eq!(line(&after_ingest, "core.worker.rows").as_deref(), Some("2"));
        s.flush().unwrap();
        let snapshot = s.metrics_snapshot();
        // Both rows went to one shard: one drain, timed stage by stage.
        for stage in [
            "core.engine.drain_ns",
            "core.databuilder.partition_ns",
            "core.databuilder.add_ns",
            "core.databuilder.encode_ns",
            "core.databuilder.finish_ns",
            "core.databuilder.upload_ns",
            "core.databuilder.admit_ns",
            "core.databuilder.commit_ns",
            "core.engine.ack_ns",
            "core.engine.release_ns",
            "core.engine.pass_ns",
        ] {
            assert_eq!(count(&snapshot, stage).as_deref(), Some("count=1"), "{stage}");
        }
        assert_eq!(line(&snapshot, "core.databuilder.rows").as_deref(), Some("2"));
        // No settle was in flight: no take waited.
        let waits = count(&snapshot, "core.engine.settle_wait_ns");
        assert_eq!(waits.as_deref(), Some("count=0"));
        // A forced pass is not a threshold pass.
        assert_eq!(count(&snapshot, "core.engine.workers_due").as_deref(), Some("count=1"));
        let labels: Vec<&str> = snapshot.lines().map(|l| l.split(' ').next().unwrap()).collect();
        assert!(labels.windows(2).all(|w| w[0] < w[1]), "sorted by label: {labels:?}");
    }

    #[test]
    fn metrics_snapshot_times_every_compaction_stage() {
        let s = store();
        let count = |snapshot: &str, label: &str| {
            let prefix = format!("{label} ");
            let line = snapshot.lines().find_map(|l| l.strip_prefix(&prefix).map(str::to_string));
            line.expect("registered").split(' ').next().map(str::to_string)
        };
        // Two flushes of one tenant: two small LogBlocks, one merge run.
        for ts in [100, 200] {
            s.ingest(vec![rec(1, ts, 10, "a"), rec(1, ts + 1, 10, "b")]).unwrap();
            s.flush().unwrap();
        }
        let report = s.compact().unwrap();
        assert_eq!((report.runs_committed, report.rows_rewritten), (1, 4));
        let gc = s.gc();
        assert_eq!(gc.deleted, 2);
        let snapshot = s.metrics_snapshot();
        for stage in [
            "core.compactor.plan_ns",
            "core.compactor.fetch_ns",
            "core.compactor.decode_ns",
            "core.compactor.add_ns",
            "core.compactor.encode_ns",
            "core.compactor.finish_ns",
            "core.compactor.upload_ns",
            "core.compactor.swap_ns",
            "core.compactor.gc_delete_ns",
        ] {
            assert_eq!(count(&snapshot, stage).as_deref(), Some("count=1"), "{stage}");
        }
        let rows = snapshot.lines().find_map(|l| l.strip_prefix("core.compactor.rows "));
        assert_eq!(rows, Some("4"));
    }

    #[test]
    fn a_tick_that_vacates_two_tenants_of_one_shard_drains_it_once() {
        let mut config = ClusterConfig::for_testing();
        config.shard_capacity = 5_000;
        let s = LogStore::open(config).unwrap();
        // Four tenants on shard 0: the balancer splits the two hot ones and
        // moves the two small ones off shard 0 altogether.
        let tenants = [(1, 3000), (2, 3000), (3, 100), (4, 100)];
        for (tenant, rows) in tenants {
            s.shared().controller.restore_routes(TenantId(tenant), &[ShardId(0)]).unwrap();
            s.ingest((0..rows).map(|i| rec(tenant, i, 1, "x")).collect()).unwrap();
        }
        let drains = |s: &LogStore| {
            let snapshot = s.metrics_snapshot();
            let line = snapshot.lines().find_map(|l| l.strip_prefix("core.engine.drain_ns "));
            line.and_then(|l| l.split(' ').next()?.strip_prefix("count=")?.parse::<u64>().ok())
        };
        assert_eq!(drains(&s), Some(0), "nothing was over the flush threshold");
        let action = s.control_tick().unwrap();
        assert!(matches!(action, ControlAction::Rebalanced { .. }), "{action:?}");
        let vacated = s.shared().controller.vacated_processed();
        assert!(vacated >= 2, "two tenants with rows must leave shard 0, {vacated} did");
        assert_eq!(drains(&s), Some(1), "one drain for the one vacated shard, not one per edge");
        assert!(s.shared().controller.vacated_routes().unwrap().is_empty());
        for (tenant, rows) in tenants {
            let sql = format!("SELECT COUNT(*) FROM request_log WHERE tenant_id = {tenant}");
            assert_eq!(
                s.query(&sql).unwrap().rows[0][0],
                Value::U64(rows as u64),
                "tenant {tenant}"
            );
        }
    }

    /// Parks the first archive step to reach `AfterDrain` until the test
    /// lets it go (or ten seconds pass).
    struct ParkFirstDrain {
        armed: AtomicBool,
        reached: logstore_sync::OrderedMutex<std::sync::mpsc::Sender<()>>,
        resume: logstore_sync::OrderedMutex<std::sync::mpsc::Receiver<()>>,
    }

    impl CrashHooks for ParkFirstDrain {
        fn reached(&self, point: CrashPoint) {
            if point == CrashPoint::AfterDrain && self.armed.swap(false, Ordering::SeqCst) {
                let _ = self.reached.lock().send(());
                let _ = self.resume.lock().recv_timeout(std::time::Duration::from_secs(10));
            }
        }
    }

    #[test]
    fn a_tick_acks_no_edge_whose_rows_a_failing_drain_holds() {
        // Four tenants on shard 0; the balancer moves the two small ones off
        // it. A flush has drained shard 0 and is about to upload when the
        // tick runs, and the upload then fails: the rows go back to shard
        // 0, so the edges must still be pending for reads to reach them.
        let mut config = ClusterConfig::for_testing();
        config.shard_capacity = 5_000;
        let (reached_tx, reached_rx) = std::sync::mpsc::channel();
        let (resume_tx, resume_rx) = std::sync::mpsc::channel();
        let hooks = Arc::new(ParkFirstDrain {
            armed: AtomicBool::new(true),
            reached: logstore_sync::OrderedMutex::new("core.engine.test_reached", reached_tx),
            resume: logstore_sync::OrderedMutex::new("core.engine.test_resume", resume_rx),
        });
        let s =
            LogStore::open_with(config, OpenParts { hooks: Some(hooks), ..OpenParts::default() })
                .unwrap();
        let tenants = [(1, 3000), (2, 3000), (3, 100), (4, 100)];
        for (tenant, rows) in tenants {
            s.shared().controller.restore_routes(TenantId(tenant), &[ShardId(0)]).unwrap();
            s.ingest((0..rows).map(|i| rec(tenant, i, 1, "x")).collect()).unwrap();
        }
        let count = |tenant: u64| {
            let sql = format!("SELECT COUNT(*) FROM request_log WHERE tenant_id = {tenant}");
            s.query(&sql).unwrap().rows[0][0].clone()
        };
        s.shared().fault_layer().set_scope(FaultScope::Writes);
        s.shared().fault_layer().set_probability(1.0);
        let (flushed, ticked) = std::thread::scope(|scope| {
            let flush = scope.spawn(|| s.flush());
            reached_rx.recv().expect("the flush drains shard 0");
            // The tick rebalances and, holding the moved tenants' rows
            // drained, waits for the flush's settle.
            let tick = scope.spawn(|| s.control_tick());
            std::thread::sleep(std::time::Duration::from_millis(200));
            resume_tx.send(()).unwrap();
            (flush.join().unwrap(), tick.join().unwrap())
        });
        for (tenant, rows) in tenants {
            assert_eq!(count(tenant), Value::U64(rows as u64), "tenant {tenant} mid-failure");
        }
        assert!(flushed.is_err(), "every PUT fails");
        assert!(ticked.is_err(), "the tick's own flush of shard 0 fails too: {ticked:?}");
        let pending = s.shared().controller.vacated_routes().unwrap();
        assert!(pending.iter().any(|&(t, shard)| t == TenantId(3) && shard == ShardId(0)));
        s.shared().fault_layer().set_probability(0.0);
        s.flush().unwrap();
        s.control_tick().unwrap();
        assert!(s.shared().controller.vacated_routes().unwrap().is_empty());
        for (tenant, rows) in tenants {
            assert_eq!(count(tenant), Value::U64(rows as u64), "tenant {tenant}");
        }
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
