//! Brokers: write routing and scatter/gather query execution.
//!
//! The broker is the query layer of Fig 3: it parses SQL, routes writes by
//! the controller's weighted routing table, and answers queries by merging
//! the real-time stores of the tenant's shards with the tenant's LogBlocks
//! on OSS — applying the LogBlock map (Fig 8 ①), data skipping, the
//! multi-level cache and parallel prefetch along the way.
//!
//! Queries scatter: every source (one real-time shard scan, one LogBlock
//! open→prefetch→collect chain) becomes an independent task on the
//! engine's shared [`crate::executor::QueryPool`]. Determinism rule: the
//! task list is built in canonical order (shards sorted by id, then
//! LogBlocks sorted by path) and the gathered partials are folded in that
//! same order, so results, stats and first-error selection are
//! bit-identical at every `parallelism` setting.

use crate::config::QueryOptions;
use crate::engine::{ClusterShared, IngestReport, Store};
use crate::executor::Task;
use logstore_cache::{CacheStats, CachedObjectSource};
use logstore_logblock::pack::RangeSource;
use logstore_logblock::reader::LogBlockReader;
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

impl DirectSource {
    fn new(store: Arc<Store>, path: String, size: u64) -> Self {
        DirectSource { store, path, size }
    }
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
type SourcePartial = (Partial, QueryStats, DecodeStats);

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
        let mut by_shard: std::collections::BTreeMap<ShardId, Vec<logstore_types::LogRecord>> =
            Default::default();
        for record in batch.records {
            let selector = self.round_robin.fetch_add(1, Ordering::Relaxed);
            let shard = self.shared.controller.pick_shard(record.tenant_id, selector)?;
            by_shard.entry(shard).or_default().push(record);
        }
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
                // A per-shard append failure (WAL, group commit, Raft)
                // degrades the report instead of erasing the other
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
    /// map still claims is real corruption and stays fatal.
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
                Ok((result, stats, all_blocks, counters)) => {
                    let visited = stats.blocks_visited;
                    let oss_after = self.shared.oss_sim().metrics().modelled_time_ns;
                    return Ok(QueryExecution {
                        result,
                        stats,
                        blocks_pruned_by_map: all_blocks.saturating_sub(visited),
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
    /// the finalized result, the merged deterministic stats, and the
    /// tenant's total mapped block count (for the pruning counter).
    fn query_attempt(
        &self,
        bound: &Arc<logstore_query::Query>,
        plan: &Arc<ScanPlan>,
        scope: &QueryScope,
        tenant: logstore_types::TenantId,
        opts: &QueryOptions,
    ) -> Result<(QueryResult, QueryStats, u64, ExecutionCounters)> {
        let all_blocks = self.shared.metadata.all_blocks(tenant).len() as u64;

        // Scatter: one task per source, in canonical order.
        let mut tasks: Vec<Task<SourcePartial>> = Vec::new();
        if !scope.is_empty_window() {
            // Real-time stores of every shard serving the tenant (old and
            // new routes during a rebalance window), sorted by shard id.
            let mut shards = self.shared.controller.read_shards(tenant)?;
            shards.sort_unstable();
            for shard in shards {
                let shared = Arc::clone(&self.shared);
                let plan = Arc::clone(plan);
                let range = scope.range;
                tasks.push(Box::new(move || {
                    let mut stats = QueryStats::default();
                    let worker = shared.worker_for(shard)?;
                    // Stream records through the plan's collector: with
                    // pushdown the shard returns aggregate states, and an
                    // unordered LIMIT stops the walk early.
                    let mut collector = RowCollector::new(&plan, &shared.schema)?;
                    worker.for_each_record(shard, tenant, range, |r| collector.push_record(r))?;
                    let partial = collector.finish(&mut stats);
                    Ok((partial, stats, DecodeStats::default()))
                }));
            }
            // Archived LogBlocks, pruned by the LogBlock map, sorted by
            // object path (paths embed the build sequence, so this is
            // registration order).
            let mut entries = self.shared.metadata.blocks_for(tenant, scope.range);
            entries.sort_unstable_by(|a, b| a.path.cmp(&b.path));
            for entry in entries {
                let shared = Arc::clone(&self.shared);
                let plan = Arc::clone(plan);
                let opts = opts.clone();
                tasks.push(Box::new(move || {
                    let mut stats = QueryStats::default();
                    let mut decode = DecodeStats::default();
                    let path = entry.path.clone();
                    let scan = (|| {
                        // The LogBlock map records each block's exact packed
                        // size, so opening a source needs no HEAD round-trip.
                        let source = if opts.use_cache {
                            Source::Cached(CachedObjectSource::open_with_known_size(
                                Arc::clone(&shared.store),
                                entry.path.clone(),
                                Arc::clone(&shared.cache),
                                shared.cache_block_size,
                                entry.bytes,
                            ))
                        } else {
                            Source::Direct(DirectSource::new(
                                Arc::clone(&shared.store),
                                entry.path.clone(),
                                entry.bytes,
                            ))
                        };
                        let reader = LogBlockReader::open(source)?;
                        if opts.use_cache && opts.use_prefetch {
                            // A failed prefetch block is not fatal: it is
                            // counted, and the scan falls through to demand
                            // reads (which may themselves succeed or fail on
                            // their own terms).
                            if let Source::Cached(cached) = reader.pack().source() {
                                let ranges = prefetch_ranges(&reader, &plan);
                                let outcome = shared.prefetcher.prefetch_wave(cached, ranges);
                                stats.prefetch_errors += outcome.errors as u64;
                            }
                        }
                        plan.collect_block(&reader, opts.use_skipping, &mut stats, &mut decode)
                    })();
                    match scan {
                        Ok(partial) => Ok((partial, stats, decode)),
                        // A vanished object that the map no longer claims
                        // was expired or compacted away mid-query: report
                        // it as stale metadata so the broker replans,
                        // instead of leaking a raw OSS NotFound.
                        Err(Error::NotFound(_))
                            if !shared.metadata.is_block_mapped(tenant, &path) =>
                        {
                            Err(Error::Stale(format!("LogBlock {path} removed mid-query")))
                        }
                        Err(e) => Err(e),
                    }
                }));
            }
        }

        // Gather: fold results in submission order. The earliest source's
        // error wins regardless of which task failed first on the clock.
        let parallelism =
            if opts.parallelism == 0 { self.shared.query_pool.threads() } else { opts.parallelism };
        let mut stats = QueryStats::default();
        let mut counters = ExecutionCounters::default();
        let mut partials = Vec::with_capacity(tasks.len());
        for task_result in self.shared.query_pool.scatter(parallelism, tasks) {
            let (partial, task_stats, decode) = task_result?;
            stats.merge(&task_stats);
            counters.absorb(&decode, &partial);
            partials.push(partial);
        }

        // `finish_partial` runs the deferred aggregation of the
        // pushdown-off baseline; with pushdown (or row queries) it is a
        // pass-through. The empty-source case already has its final shape.
        let merged = if partials.is_empty() {
            empty_partial(bound)
        } else {
            plan.finish_partial(merge_partials(partials)?)?
        };
        let result = finalize(merged, bound, &self.shared.schema)?;
        Ok((result, stats, all_blocks, counters))
    }
}

/// Fig 10: the member ranges a query will touch in one LogBlock — the
/// plan for a parallel prefetch wave. Free function so scattered tasks
/// can call it without borrowing the broker. Plan-aware: only the
/// predicate columns and the plan's materialization set are fetched, so a
/// pure `COUNT(*)` prefetches predicate columns alone.
fn prefetch_ranges(reader: &LogBlockReader<Source>, plan: &ScanPlan) -> Vec<(u64, u64)> {
    let schema = reader.schema();
    let mut needed_cols: Vec<usize> = Vec::new();
    let mut push = |idx: Option<usize>| {
        if let Some(i) = idx {
            if !needed_cols.contains(&i) {
                needed_cols.push(i);
            }
        }
    };
    for p in &plan.predicates {
        push(schema.column_index(&p.column));
    }
    for name in &plan.columns {
        push(schema.column_index(name));
    }
    let mut ranges = Vec::new();
    for &col in &needed_cols {
        for member in [
            logstore_logblock::meta::index_member(col),
            logstore_logblock::meta::index_data_member(col),
            logstore_logblock::meta::col_member(col),
        ] {
            if let Some(range) = reader.pack().member_object_range(&member) {
                ranges.push(range);
            }
        }
    }
    ranges
}
