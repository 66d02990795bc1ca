//! Engine configuration.

use logstore_codec::Compression;
use logstore_oss::{LatencyModel, RetryPolicy};
use logstore_types::TableSchema;

/// Full cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Table schema served by the cluster.
    pub schema: TableSchema,
    /// Number of worker nodes.
    pub workers: u32,
    /// Shards per worker.
    pub shards_per_worker: u32,
    /// Capacity of one shard in log entries/sec (drives flow control). A
    /// tenant may put half of it on one shard before it is split.
    pub shard_capacity: u64,
    /// Column compression for LogBlocks.
    pub compression: Compression,
    /// Rows per column block inside a LogBlock.
    pub block_rows: usize,
    /// Max rows in one LogBlock (larger tenants get multiple blocks).
    pub max_rows_per_logblock: usize,
    /// Row-store bytes per shard that trigger a background build.
    pub rowstore_flush_bytes: usize,
    /// Row-store bytes per shard at which ingest is rejected (BFC).
    pub rowstore_backpressure_bytes: usize,
    /// Latency model of the simulated OSS.
    pub oss_latency: LatencyModel,
    /// Retry/backoff policy for every OSS operation (archive uploads,
    /// prefetch and demand reads alike). `RetryPolicy::none()` disables
    /// retries so injected faults surface exactly once.
    pub oss_retry: RetryPolicy,
    /// Memory block cache capacity in bytes. Two more budgets follow it:
    /// the object cache (parsed LogBlock headers kept across queries) gets
    /// half as much again, and one fetch batch of a query holds at most
    /// this many planned bytes — a larger query fetches and scans its
    /// LogBlocks in several batches.
    pub cache_memory_bytes: usize,
    /// Optional SSD cache capacity in bytes (None = memory-only).
    pub cache_disk_bytes: Option<usize>,
    /// Cache block alignment in bytes.
    pub cache_block_size: u64,
    /// Hash-shard count for the block cache's tiers (rounded up to a power
    /// of two). Each shard has its own mutex and byte budget, so parallel
    /// scans don't serialize on one lock.
    pub cache_shards: usize,
    /// OSS requests one operation keeps in flight: the width of a query's
    /// fetch waves (the paper evaluates 32), of an archive drain's
    /// LogBlock PUTs, of a compaction run's source GETs and of a GC pass's
    /// DELETEs. A forced build pass (`LogStore::flush`) multiplies it: it
    /// archives `W = min(workers, prefetch_threads)` workers at once, so W
    /// builders and up to `W × prefetch_threads` PUTs are in flight — 4 × 8
    /// = 32 PUTs on `bench_e2e`'s configuration, 6 × 32 = 192 PUTs and six
    /// builders on [`ClusterConfig::paper_like`]. A threshold pass archives
    /// one worker at a time. `1` issues every request, and runs every
    /// archive step, inline on the calling thread. A query plans four
    /// times this many LogBlocks ahead of its scan, no more.
    pub prefetch_threads: usize,
    /// Size of the engine's shared scatter/gather query pool: the upper
    /// bound on concurrently-running per-source collection tasks across
    /// ALL in-flight queries. With prefetch on these tasks compute over
    /// bytes already fetched, so this bounds CPU work, not requests.
    pub query_threads: usize,
    /// Replicate each shard's writes through an in-process Raft group of
    /// this size (1 = no replication).
    pub raft_replicas: usize,
    /// RNG seed for all deterministic randomness.
    pub seed: u64,
    /// When set, every shard keeps a durable WAL under this directory and
    /// recovers from it on reopen (phase-one durability). When `None`, the
    /// row store is memory-only (fastest; fine for benchmarks).
    pub data_dir: Option<std::path::PathBuf>,
    /// Per-shard WAL tuning: flush policy, segment size and the
    /// group-commit linger. Ignored when `data_dir` is `None`.
    pub wal: logstore_wal::WalConfig,
    /// Compaction candidate threshold: LogBlocks with fewer rows than this
    /// may be merged with their neighbours. `None` defaults to
    /// `max_rows_per_logblock` (any partially-filled block qualifies).
    pub compact_small_rows: Option<u64>,
}

impl ClusterConfig {
    /// A small, fast, fully-deterministic configuration for tests.
    pub fn for_testing() -> Self {
        ClusterConfig {
            schema: TableSchema::request_log(),
            workers: 2,
            shards_per_worker: 2,
            shard_capacity: 100_000,
            compression: Compression::LzHigh,
            block_rows: 256,
            max_rows_per_logblock: 4096,
            rowstore_flush_bytes: 4 << 20,
            rowstore_backpressure_bytes: 64 << 20,
            oss_latency: LatencyModel::zero(),
            oss_retry: RetryPolicy::none(),
            cache_memory_bytes: 8 << 20,
            cache_disk_bytes: None,
            cache_block_size: 64 * 1024,
            cache_shards: 4,
            prefetch_threads: 4,
            query_threads: 4,
            raft_replicas: 1,
            seed: 42,
            data_dir: None,
            wal: logstore_wal::WalConfig::default(),
            compact_small_rows: None,
        }
    }

    /// A configuration mirroring the paper's evaluation cluster shape:
    /// 24 shards (6 workers × 4, standing in for the paper's 24 worker
    /// processes), OSS-like latency.
    pub fn paper_like() -> Self {
        let mut c = Self::for_testing();
        c.workers = 6;
        c.shards_per_worker = 4;
        c.oss_latency = LatencyModel::oss_like();
        c.oss_retry = RetryPolicy::archival_default();
        c.cache_memory_bytes = 64 << 20;
        c.cache_shards = 16;
        c.prefetch_threads = 32;
        c.query_threads = default_query_threads();
        c
    }

    /// Total shard count.
    pub fn total_shards(&self) -> u32 {
        self.workers * self.shards_per_worker
    }
}

/// The default query-pool size: one thread per hardware thread.
pub fn default_query_threads() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(8)
}

/// Per-query execution switches (the Fig 15–17 ablations).
#[derive(Debug, Clone)]
pub struct QueryOptions {
    /// Enable the multi-level data-skipping strategy (§5.1).
    pub use_skipping: bool,
    /// Enable parallel prefetch (§5.2): plan every read of the query from
    /// the LogBlock headers and fetch it as one wave before scanning. When
    /// false (or without the cache) each scan task demand-reads instead.
    pub use_prefetch: bool,
    /// Use the shared multi-level cache — object tier and block tiers
    /// alike; when false every read, headers included, goes to OSS.
    pub use_cache: bool,
    /// Per-source collection tasks this query may run at once. `0` means
    /// "as many as the engine's query pool allows"; `1` is the sequential
    /// reference path. Results are bit-identical at every setting.
    pub parallelism: usize,
    /// Push aggregation into the scan layer: each source returns partial
    /// aggregate states instead of matched rows. When false, sources ship
    /// the matched rows of the aggregate-input columns and the executor
    /// aggregates after the merge — the row-materializing baseline of the
    /// pushdown comparison. Results are bit-identical either way.
    pub use_pushdown: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            use_skipping: true,
            use_prefetch: true,
            use_cache: true,
            parallelism: 0,
            use_pushdown: true,
        }
    }
}

impl QueryOptions {
    /// Everything off — the "before optimization" baseline of Fig 17.
    pub fn baseline() -> Self {
        QueryOptions {
            use_skipping: false,
            use_prefetch: false,
            use_cache: false,
            parallelism: 1,
            use_pushdown: false,
        }
    }

    /// Returns `self` with an explicit parallelism degree.
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testing_config_is_consistent() {
        let c = ClusterConfig::for_testing();
        assert_eq!(c.total_shards(), 4);
        assert!(c.rowstore_flush_bytes < c.rowstore_backpressure_bytes);
        assert!(c.block_rows <= c.max_rows_per_logblock);
    }

    #[test]
    fn paper_like_shape() {
        let c = ClusterConfig::paper_like();
        assert_eq!(c.total_shards(), 24);
        assert_eq!(c.prefetch_threads, 32);
    }

    #[test]
    fn retry_presets() {
        let t = ClusterConfig::for_testing();
        assert_eq!(t.oss_retry.max_attempts, 1, "tests must see every fault exactly once");
        let p = ClusterConfig::paper_like();
        assert!(p.oss_retry.max_attempts > 1, "the production archive path retries");
    }

    #[test]
    fn query_option_presets() {
        let on = QueryOptions::default();
        assert!(on.use_skipping && on.use_prefetch && on.use_cache && on.use_pushdown);
        assert_eq!(on.parallelism, 0, "default uses the engine pool's width");
        let off = QueryOptions::baseline();
        assert!(!off.use_skipping && !off.use_prefetch && !off.use_cache && !off.use_pushdown);
        assert_eq!(off.parallelism, 1, "baseline is the sequential path");
        assert_eq!(QueryOptions::default().with_parallelism(8).parallelism, 8);
        assert!(default_query_threads() >= 1);
    }
}
