//! Brokers: write routing and scatter/gather query execution.
//!
//! The broker is the query layer of Fig 3: it parses SQL, routes writes by
//! the controller's weighted routing table, and answers queries by merging
//! the real-time stores of the tenant's shards with the tenant's LogBlocks
//! on OSS — applying the LogBlock map (Fig 8 ①), data skipping, the
//! multi-level cache and parallel prefetch along the way.
//!
//! Archived LogBlocks are read **plan → fetch → compute**:
//!
//! * **plan** — on the calling thread, every mapped LogBlock's header
//!   ([`LogBlockHandle`]) is resolved from the cache's object tier (the
//!   unknown ones are opened together, as one wave), and the plan's member
//!   ranges are computed from the headers: everything the query will
//!   read, known before any of it is read;
//! * **fetch** — still on the calling thread, all of it goes out as one
//!   wave of coalesced range GETs across all the query's LogBlocks
//!   ([`logstore_cache::Prefetcher::fetch`]); blocks already in memory
//!   cost no request, and a fully warm query starts no thread;
//! * **compute** — one task per LogBlock on the engine's shared
//!   [`crate::executor::QueryPool`] runs `collect_block` over a reader
//!   that holds the fetched blocks. A task touches OSS only for a range
//!   the plan missed or a request that failed.
//!
//! So `prefetch_threads` bounds the requests a query keeps in flight and
//! `query_threads` bounds CPU work, and one does not starve the other.
//! The real-time row stores are scanned on the pool *while* the caller
//! plans, fetches and scans the first batch, and only then waited for: the
//! OSS rounds, the row-store scan and the first LogBlock scans overlap
//! instead of adding up.
//!
//! A shard's real-time rows are read through a snapshot of run references
//! (`logstore_wal::RowSnapshot`), outside the shard lock. The LogBlock map
//! is read *before* any row store is: a row that a drain moves from one to
//! the other in between is missed (the documented window of one drain's
//! build and upload), never counted twice.
//!
//! Nothing is resolved for the whole query at once: headers are taken a
//! chunk of LogBlocks at a time (a few per request slot), and a chunk is
//! cut into batches whose planned bytes fit the memory tier — each batch
//! one wave then one scatter, in canonical order. A query therefore pins
//! one chunk of headers and one batch of blocks however many LogBlocks
//! its time range maps to. The ablation switches only change what a
//! task's reader is built from: `use_prefetch = false` skips plan and
//! fetch (the task opens its header through the cache and demand-reads),
//! `use_cache = false` reads straight from OSS. The task body is the same
//! in every mode.
//!
//! Determinism rule: the task list is built in canonical order (shards
//! sorted by id, then LogBlocks sorted by path) and the gathered partials
//! are folded in that same order, so results, stats and first-error
//! selection are bit-identical at every `parallelism` and
//! `prefetch_threads` setting.

use crate::config::QueryOptions;
use crate::engine::{ClusterShared, IngestReport, Store};
use crate::executor::Task;
use crate::hooks::QueryPoint;
use crate::metadata::LogBlockEntry;
use logstore_cache::{CacheStats, CachedObjectSource, ObjectPlan};
use logstore_logblock::pack::RangeSource;
use logstore_logblock::reader::{LogBlockHandle, LogBlockReader};
use logstore_logblock::scan::DecodeStats;
use logstore_query::exec::{
    empty_partial, finalize, merge_partials, Partial, QueryResult, QueryStats,
};
use logstore_query::{analyze, parse_query, ExecutionCounters, QueryScope, RowCollector, ScanPlan};
use logstore_types::{Error, RecordBatch, Result, ShardId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Everything a query run reports back (drives Figures 15–17).
#[derive(Debug, Clone)]
pub struct QueryExecution {
    /// The result set.
    pub result: QueryResult,
    /// Scanner/executor counters.
    pub stats: QueryStats,
    /// LogBlocks excluded by the LogBlock map before any I/O.
    pub blocks_pruned_by_map: u64,
    /// Modelled OSS time consumed by this query.
    pub modelled_oss: Duration,
    /// Wall-clock execution time.
    pub wall: Duration,
    /// Block-cache counter increments over this query's lifetime. Taken as
    /// an engine-wide delta, so with concurrent queries the numbers include
    /// their traffic too; scheduling-dependent counters (singleflight
    /// waits) live here, NOT in [`QueryStats`], which stays bit-identical
    /// at every parallelism setting.
    pub cache: CacheStats,
    /// Attempts restarted because expiration or compaction removed a
    /// LogBlock between the map snapshot and the scan (a clean, counted
    /// outcome — never a raw OSS `NotFound`). Race-timing-dependent, so it
    /// lives here, not in [`QueryStats`].
    pub stale_retries: u64,
    /// Vectorized-decode volume and partial-transport bytes — the
    /// pushdown-vs-materialization measurement. Engine observability,
    /// deliberately outside the bit-identical [`QueryStats`] contract.
    pub counters: ExecutionCounters,
}

/// One source of a LogBlock's bytes.
enum Source {
    Cached(CachedObjectSource<Store>),
    Direct(DirectSource),
}

impl Source {
    fn path(&self) -> &str {
        match self {
            Source::Cached(s) => s.path(),
            Source::Direct(s) => &s.path,
        }
    }

    /// Reads the LogBlock's header through this source (demand reads).
    /// Only a cached source consults and feeds the object tier.
    fn open_handle(&self, shared: &ClusterShared) -> Result<Arc<LogBlockHandle>> {
        match self {
            Source::Cached(s) => shared.prefetcher.handle(s),
            Source::Direct(s) => LogBlockHandle::open(s).map(Arc::new),
        }
    }
}

/// One archived LogBlock on its way to a scan task.
struct BlockRead {
    source: Source,
    /// The header, when the caller resolved it up front (or failed to: the
    /// error is then this LogBlock's result). `None`: the task opens it.
    handle: Option<Result<Arc<LogBlockHandle>>>,
    /// Failed requests of this LogBlock's share of the fetch wave.
    prefetch_errors: u64,
}

/// One archived LogBlock with its reads planned.
struct PlannedBlock {
    handle: Result<Arc<LogBlockHandle>>,
    fetch: ObjectPlan,
}

impl RangeSource for Source {
    fn read_at(&self, offset: u64, len: u64) -> Result<Vec<u8>> {
        match self {
            Source::Cached(s) => s.read_at(offset, len),
            Source::Direct(s) => s.read_at(offset, len),
        }
    }

    fn read_at_shared(&self, offset: u64, len: u64) -> Result<Arc<Vec<u8>>> {
        match self {
            Source::Cached(s) => s.read_at_shared(offset, len),
            Source::Direct(s) => s.read_at(offset, len).map(Arc::new),
        }
    }

    fn size(&self) -> u64 {
        match self {
            Source::Cached(s) => s.size(),
            Source::Direct(s) => s.size(),
        }
    }
}

/// Uncached range reads straight from OSS (the Fig 17 baseline).
struct DirectSource {
    store: Arc<Store>,
    path: String,
    size: u64,
}

impl RangeSource for DirectSource {
    fn read_at(&self, offset: u64, len: u64) -> Result<Vec<u8>> {
        use logstore_oss::ObjectStore;
        self.store.get_range(&self.path, offset, len)
    }

    fn size(&self) -> u64 {
        self.size
    }
}

/// What one scattered source task brings back to the gather step.
type SourcePartial = (Partial, QueryStats, ExecutionCounters);

/// The broker.
pub struct Broker {
    shared: Arc<ClusterShared>,
    round_robin: AtomicU64,
}

impl Broker {
    /// Creates a broker over the shared cluster state.
    pub fn new(shared: Arc<ClusterShared>) -> Self {
        Broker { shared, round_robin: AtomicU64::new(0) }
    }

    /// Routes and appends a batch, consuming it: records are moved into
    /// their shard sub-batches, never cloned. Records of one batch may fan
    /// out to several shards; backpressure rejections are counted, not
    /// fatal — the client retries the rejected remainder (paper §4.2).
    pub fn ingest(&self, batch: RecordBatch) -> Result<IngestReport> {
        // BTreeMap: sub-batches append in shard order, so the whole ingest
        // (including any crash hook firing mid-batch) is deterministic for
        // a given routing state — a simulation-replay requirement.
        let start = std::time::Instant::now();
        let mut by_shard: std::collections::BTreeMap<ShardId, Vec<logstore_types::LogRecord>> =
            Default::default();
        for record in batch.records {
            let selector = self.round_robin.fetch_add(1, Ordering::Relaxed);
            let shard = self.shared.controller.pick_shard(record.tenant_id, selector)?;
            by_shard.entry(shard).or_default().push(record);
        }
        self.shared.ingest_timers.route.record_duration(start.elapsed());
        let mut report = IngestReport::default();
        for (shard, records) in by_shard {
            let worker = self.shared.worker_for(shard)?;
            let n = records.len() as u64;
            match worker.append(shard, RecordBatch::from_records(records)) {
                Ok(()) => report.accepted += n,
                Err(Error::Backpressure(_)) => report.rejected += n,
                // Routing/topology errors mean the request itself is bad
                // (unknown shard, no worker) — those stay fatal.
                Err(e @ Error::Cluster(_)) => return Err(e),
                // A per-shard append failure (WAL, group commit, an
                // oversized sub-batch) degrades the report instead of erasing the other
                // sub-batches' outcomes; the rows were never acked.
                Err(e) => {
                    report.failed += n;
                    if report.first_failure.is_none() {
                        report.first_failure = Some(e.to_string());
                    }
                }
            }
        }
        Ok(report)
    }

    /// Parses, plans and executes one query: scatter per-source collection
    /// tasks over the engine's query pool, gather the partials in
    /// submission order, merge, finalize.
    ///
    /// A query races expiration and compaction by design: the LogBlock map
    /// is snapshotted at plan time, and a planned block may be swapped out
    /// and garbage-collected before its scan task opens it. That surfaces
    /// as OSS `NotFound`; when the block has indeed left the map, the
    /// whole attempt is restarted against the fresh map (counted in
    /// [`QueryExecution::stale_retries`]). A `NotFound` for a block the
    /// map still claims is real corruption and stays fatal. A drain
    /// registered between the attempt's map read and its snapshot of the
    /// drained shard restarts it too: its rows may have been in neither,
    /// or in both.
    pub fn query(&self, sql: &str, opts: &QueryOptions) -> Result<QueryExecution> {
        let wall_start = std::time::Instant::now();
        let oss_before = self.shared.oss_sim().metrics().modelled_time_ns;
        let cache_before = self.shared.cache.stats();

        let parsed = parse_query(sql)?;
        if parsed.table != self.shared.schema.name {
            return Err(Error::Query(format!(
                "unknown table '{}' (this cluster serves '{}')",
                parsed.table, self.shared.schema.name
            )));
        }
        let bound = Arc::new(analyze::bind(&parsed, &self.shared.schema)?);
        let scope = QueryScope::extract(&bound);
        let tenant = scope.tenant.ok_or_else(|| {
            Error::Query("queries must pin a tenant: add 'tenant_id = <id>'".into())
        })?;
        // One physical plan serves every source task and every retry: the
        // plan depends only on the bound query, not on the map snapshot.
        let plan = Arc::new(ScanPlan::new(&bound, &self.shared.schema, opts.use_pushdown)?);

        // Bounded retry: each pass replans from the current map. Three
        // map-change losses in a row means the caller is racing a
        // pathological churn rate; surface the typed retryable error.
        const MAX_ATTEMPTS: u64 = 3;
        let mut stale_retries = 0u64;
        loop {
            match self.query_attempt(&bound, &plan, &scope, tenant, opts) {
                Ok((result, stats, blocks_pruned_by_map, counters)) => {
                    let oss_after = self.shared.oss_sim().metrics().modelled_time_ns;
                    return Ok(QueryExecution {
                        result,
                        stats,
                        blocks_pruned_by_map,
                        modelled_oss: Duration::from_nanos(oss_after.saturating_sub(oss_before)),
                        wall: wall_start.elapsed(),
                        cache: self.shared.cache.stats().delta_since(&cache_before),
                        stale_retries,
                        counters,
                    });
                }
                Err(Error::Stale(_)) if stale_retries + 1 < MAX_ATTEMPTS => stale_retries += 1,
                Err(e) => return Err(e),
            }
        }
    }

    /// One scatter/gather pass against the current LogBlock map. Returns
    /// the finalized result, the merged deterministic stats, and how many
    /// of the tenant's mapped blocks the map pruned.
    fn query_attempt(
        &self,
        bound: &Arc<logstore_query::Query>,
        plan: &Arc<ScanPlan>,
        scope: &QueryScope,
        tenant: logstore_types::TenantId,
        opts: &QueryOptions,
    ) -> Result<(QueryResult, QueryStats, u64, ExecutionCounters)> {
        let parallelism =
            if opts.parallelism == 0 { self.shared.query_pool.threads() } else { opts.parallelism };
        let pool = &self.shared.query_pool;
        let mut gathered = Gathered::default();
        self.shared.hooks.query_reached(QueryPoint::BeforeMapRead);
        // Real-time stores of every shard serving the tenant (old and new
        // routes during a rebalance window), each with its settle sequence,
        // read before the map: a shard a route left held none of the
        // tenant's rows when it left, and a settle that registers a drain
        // between the map read and the shard's snapshot moves the sequence
        // on, so the snapshot says the attempt is stale.
        let mut shards = Vec::new();
        if !scope.is_empty_window() {
            for shard in self.shared.controller.read_shards(tenant)? {
                let settles = self.shared.worker_for(shard)?.store(shard)?.settles();
                shards.push((shard, settles));
            }
        }
        // Archived LogBlocks, pruned by the LogBlock map. The map is read
        // before any row store is — a shard task snapshots its store when
        // it starts — and read once: the entries and the total are of one
        // map, whatever compaction or expiry does next.
        let (mut entries, mapped) = self.shared.metadata.blocks_for(tenant, scope.range);
        if scope.is_empty_window() {
            entries.clear();
        }
        let blocks_pruned_by_map = mapped - entries.len() as u64;
        if !scope.is_empty_window() {
            // Scatter: one task per source, in canonical order. The shards
            // first, sorted by shard id; then the LogBlocks, sorted by
            // object path (paths embed the build sequence, so this is
            // registration order).
            shards.sort_unstable();
            entries.sort_unstable_by(|a, b| a.path.cmp(&b.path));
            let mut tasks: Vec<Task<SourcePartial>> = shards
                .into_iter()
                .map(|(shard, settles)| self.shard_task(shard, settles, plan, scope, tenant))
                .collect();
            if opts.use_cache && opts.use_prefetch && !entries.is_empty() {
                // The row stores are scanned on the pool while this thread
                // plans and fetches the first batch — and while that batch
                // is scanned: it is scattered before the shard scans are
                // waited for (a single LogBlock is scanned right here). Each
                // later batch is one more scatter. Folded shards first,
                // then the batches, in canonical order.
                let shard_scans = pool.start(parallelism, tasks);
                let mut batches = self.fetched_batches(&entries, plan, opts).map(|batch| {
                    pool.scatter(parallelism, self.block_tasks(batch, plan, tenant, opts))
                });
                let first_scans = batches.next();
                gathered.fold(shard_scans.wait())?;
                for scans in first_scans.into_iter().chain(batches) {
                    gathered.fold(scans)?;
                }
            } else {
                // The LogBlock map records each block's exact packed size,
                // so opening a source needs no HEAD round-trip.
                let blocks = entries.into_iter().map(|entry| {
                    let source = if opts.use_cache {
                        Source::Cached(self.shared.prefetcher.source(&entry.path, entry.bytes))
                    } else {
                        Source::Direct(DirectSource {
                            store: Arc::clone(&self.shared.store),
                            path: entry.path,
                            size: entry.bytes,
                        })
                    };
                    BlockRead { source, handle: None, prefetch_errors: 0 }
                });
                tasks.extend(self.block_tasks(blocks, plan, tenant, opts));
                gathered.fold(pool.scatter(parallelism, tasks))?;
            }
        }

        // `finish_partial` runs the deferred aggregation of the
        // pushdown-off baseline; with pushdown (or row queries) it is a
        // pass-through. The empty-source case already has its final shape.
        let merged = if gathered.partials.is_empty() {
            empty_partial(bound)
        } else {
            plan.finish_partial(merge_partials(gathered.partials)?)?
        };
        let result = finalize(merged, bound, &self.shared.schema)?;
        Ok((result, gathered.stats, blocks_pruned_by_map, gathered.counters))
    }

    /// Plan and fetch (Fig 10) as a stream of batches, in canonical order;
    /// each batch is the readers of one wave, ready to scan.
    ///
    /// Nothing about a query is resolved all at once. Headers are taken a
    /// chunk of LogBlocks at a time — a few per request the query may keep
    /// in flight, enough to fill its waves — and a chunk is cut into
    /// batches whose planned bytes fit the memory tier (at least one
    /// LogBlock each). What a wave fetched is held until its batch is
    /// scanned, so a query pins one chunk of headers and one batch of
    /// blocks whatever its LogBlock count.
    fn fetched_batches<'a>(
        &'a self,
        entries: &'a [LogBlockEntry],
        plan: &'a ScanPlan,
        opts: &'a QueryOptions,
    ) -> impl Iterator<Item = Vec<BlockRead>> + 'a {
        const HEADERS_PER_REQUEST: usize = 4;
        let prefetcher = &self.shared.prefetcher;
        let budget = self.shared.cache_memory_bytes as u64;
        let mut chunks = entries.chunks(HEADERS_PER_REQUEST * prefetcher.width());
        let mut planned = Vec::new().into_iter().peekable();
        std::iter::from_fn(move || {
            if planned.peek().is_none() {
                planned = self.plan_chunk(chunks.next()?, plan, opts).into_iter().peekable();
            }
            let (mut handles, mut plans, mut bytes) = (Vec::new(), Vec::new(), 0u64);
            while let Some(next) =
                planned.next_if(|p| plans.is_empty() || bytes + p.fetch.bytes() <= budget)
            {
                bytes += next.fetch.bytes();
                handles.push(next.handle);
                plans.push(next.fetch);
            }
            let batch = handles.into_iter().zip(prefetcher.fetch(plans));
            Some(
                batch
                    .map(|(handle, fetched)| BlockRead {
                        source: Source::Cached(fetched.source),
                        handle: Some(handle),
                        prefetch_errors: fetched.errors,
                    })
                    .collect(),
            )
        })
    }

    /// Every entry's header — from the object tier, the unknown ones opened
    /// together as one wave — and, from the headers, the object ranges of
    /// every member `plan` may read. A header that failed to open plans
    /// nothing and carries its error to its task.
    fn plan_chunk(
        &self,
        entries: &[LogBlockEntry],
        plan: &ScanPlan,
        opts: &QueryOptions,
    ) -> Vec<PlannedBlock> {
        let objects: Vec<(&str, u64)> =
            entries.iter().map(|e| (e.path.as_str(), e.bytes)).collect();
        let handles = self.shared.prefetcher.handles(&objects);
        entries
            .iter()
            .zip(handles)
            .map(|(entry, handle)| {
                let ranges = handle.as_ref().map_or_else(
                    |_| Vec::new(),
                    |h| {
                        plan.planned_members(h.meta(), opts.use_skipping)
                            .iter()
                            .filter_map(|member| h.manifest().member_object_range(member))
                            .collect()
                    },
                );
                let fetch = self.shared.prefetcher.plan(&entry.path, entry.bytes, ranges);
                PlannedBlock { handle, fetch }
            })
            .collect()
    }

    /// The scan of one shard's real-time store, stale unless its snapshot
    /// is of settle sequence `settles`, the one read before the map.
    fn shard_task(
        &self,
        shard: ShardId,
        settles: u64,
        plan: &Arc<ScanPlan>,
        scope: &QueryScope,
        tenant: logstore_types::TenantId,
    ) -> Task<SourcePartial> {
        let shared = Arc::clone(&self.shared);
        let plan = Arc::clone(plan);
        let range = scope.range;
        Box::new(move || {
            let mut stats = QueryStats::default();
            let worker = shared.worker_for(shard)?;
            shared.hooks.query_reached(QueryPoint::BeforeRowStoreSnapshot);
            // The runs that may hold the tenant's rows, by reference: the
            // shard lock is gone before the first row is looked at. With
            // pushdown the shard returns aggregate states, and an unordered
            // LIMIT stops the walk early.
            let snapshot = worker.store(shard)?.snapshot(tenant, range);
            if snapshot.settles != settles {
                return Err(Error::Stale(format!("{shard} settled a drain mid-query")));
            }
            shared.hooks.query_reached(QueryPoint::RowStoreSnapshot);
            let mut counters = ExecutionCounters {
                realtime_runs_pruned: snapshot.runs_pruned,
                ..ExecutionCounters::default()
            };
            let mut collector = RowCollector::new(&plan, &shared.schema, tenant, range)?;
            for run in &snapshot.runs {
                if !collector.push_run(run)? {
                    break;
                }
            }
            let partial = collector.finish(&mut stats, &mut counters);
            Ok((partial, stats, counters))
        })
    }

    /// One scan task per archived LogBlock, in the order given.
    fn block_tasks(
        &self,
        blocks: impl IntoIterator<Item = BlockRead>,
        plan: &Arc<ScanPlan>,
        tenant: logstore_types::TenantId,
        opts: &QueryOptions,
    ) -> Vec<Task<SourcePartial>> {
        blocks.into_iter().map(|block| self.block_task(block, plan, tenant, opts)).collect()
    }

    /// The scan of one archived LogBlock — the same body in every mode;
    /// `block` decides where the bytes come from.
    fn block_task(
        &self,
        block: BlockRead,
        plan: &Arc<ScanPlan>,
        tenant: logstore_types::TenantId,
        opts: &QueryOptions,
    ) -> Task<SourcePartial> {
        let shared = Arc::clone(&self.shared);
        let plan = Arc::clone(plan);
        let use_skipping = opts.use_skipping;
        Box::new(move || {
            let BlockRead { source, handle, prefetch_errors } = block;
            // A failed wave request is not fatal: it is counted, and the
            // scan's own demand read succeeds or fails on its own terms.
            let mut stats = QueryStats { prefetch_errors, ..QueryStats::default() };
            let mut decode = DecodeStats::default();
            let path = source.path().to_string();
            let scan = (|| {
                let handle = match handle {
                    Some(resolved) => resolved?,
                    None => source.open_handle(&shared)?,
                };
                let reader = LogBlockReader::with_handle(source, handle);
                plan.collect_block(&reader, use_skipping, &mut stats, &mut decode)
            })();
            match scan {
                Ok(partial) => {
                    Ok((partial, stats, ExecutionCounters { decode, ..Default::default() }))
                }
                // A vanished object that the map no longer claims
                // was expired or compacted away mid-query: report
                // it as stale metadata so the broker replans,
                // instead of leaking a raw OSS NotFound.
                Err(Error::NotFound(_)) if !shared.metadata.is_block_mapped(tenant, &path) => {
                    Err(Error::Stale(format!("LogBlock {path} removed mid-query")))
                }
                Err(e) => Err(e),
            }
        })
    }
}

/// What the gather step has folded so far.
#[derive(Default)]
struct Gathered {
    stats: QueryStats,
    counters: ExecutionCounters,
    partials: Vec<Partial>,
}

impl Gathered {
    /// Gather: folds one scatter's results in submission order. The
    /// earliest source's error wins regardless of which task failed first
    /// on the clock.
    fn fold(&mut self, results: Vec<Result<SourcePartial>>) -> Result<()> {
        for task_result in results {
            let (partial, task_stats, task_counters) = task_result?;
            self.stats.merge(&task_stats);
            self.counters.absorb(&task_counters, &partial);
            self.partials.push(partial);
        }
        Ok(())
    }
}
