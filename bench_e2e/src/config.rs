//! The frozen benchmark configuration. Every size, rate and thread count is
//! a constant of this file — nothing is derived from the machine at run
//! time — and every one is echoed into the run's output.

use logstore_core::ClusterConfig;
use logstore_oss::LatencyModel;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// `run_seconds` of `BENCHMARK.json`: the default `--seconds`.
pub const RUN_SECONDS: u64 = 20;

/// Load threads of every workload (= `nproc` of the reference sandbox).
/// `mixed` adds one maintenance driver that stands in for the scheduler the
/// engine lacks; it issues no user requests.
pub const LOAD_THREADS: usize = 2;

/// Share of `--seconds` a workload spends in its main loop. The rest runs
/// the off-side phase that gives the workload the end-to-end metrics its
/// main loop does not produce (README "Phases").
pub const MAIN_SHARE: f64 = 0.7;

/// The same for `query_cold`. Its off-side is the open-loop producer, and
/// at 20 s a 30 % share would bring the hottest shard right up to
/// `rowstore_flush_bytes`: whether the one inline flush (a ~0.5 s stall)
/// falls inside the phase would then decide `ingest_rows_per_s`. 22 % keeps
/// the shard a quarter below the threshold and still gives the 1000 acks
/// the p99 needs.
pub const COLD_MAIN_SHARE: f64 = 0.78;

/// Rows per `LogStore::ingest` call, everywhere.
pub const BATCH_ROWS: usize = 64;

/// The eight `tenant_queries` templates.
pub const TEMPLATES: usize = 8;

/// LogBlocks with fewer rows than this are compaction candidates.
pub const COMPACT_SMALL_ROWS: u64 = 2048;

/// History window of the `aged` dataset: 48 h ending at a fixed instant.
pub const HISTORY_START_MS: i64 = 1_600_000_000_000;
pub const HISTORY_SPAN_MS: i64 = 48 * 3600 * 1000;

/// Sizes and rates of one benchmark scale.
#[derive(Debug, Clone)]
pub struct Scale {
    pub name: &'static str,
    /// Fraction of modelled OSS time really slept.
    pub oss_time_scale: f64,
    pub tenants: u64,
    pub zipf_theta: f64,
    /// `aged`: history rows, ingested in `aged_slices` time slices, each
    /// followed by `flush()`.
    pub aged_rows: usize,
    pub aged_slices: usize,
    /// Rows per ingest call while loading `aged` (set-up, not measured load).
    pub load_batch_rows: usize,
    pub rowstore_flush_bytes: usize,
    /// Cache of `mixed`: several times the archived data.
    pub hot_cache_bytes: usize,
    /// Cache of `query_cold` and `ingest_sat`: a fraction of the archived data.
    pub cold_cache_bytes: usize,
    /// `ingest_sat`: batches per producer after which `peak_rss_mb` is read
    /// — memory at a fixed amount of work (about a third of what the main
    /// loop writes on the reference sandbox), so a faster engine does not
    /// look heavier for having written more rows by the end of the window.
    /// Memory grows in steps of 50-80 MB where the replicas' logs double
    /// (near 2 000 and 4 000 batches at full scale); the mark sits midway
    /// between two steps so that a step's exact position does not decide
    /// the reading.
    pub rss_mark_batches: u64,
    /// Open-loop ingest rate (`mixed`, and the ingest off-side of the
    /// query workloads), batches per second.
    pub open_batches_per_s: u64,
    /// Open-loop query rate of `mixed`.
    pub open_queries_per_s: u64,
    /// Pause between maintenance cycles of `mixed`.
    pub maintenance_pause: Duration,
    /// The last `retention_tenants` tenants expire their oldest slice.
    pub retention_tenants: u64,
    /// Distinct queries compared against `QueryOptions::baseline()`.
    pub baseline_checks: usize,
    /// Fail the run when a named percentile lacks sample support.
    pub enforce_percentile_support: bool,
    /// Iterations of each layer probe in the traced run.
    pub probe_iters: usize,
}

pub const FULL: Scale = Scale {
    name: "full",
    oss_time_scale: 1.0,
    tenants: 40,
    zipf_theta: 0.99,
    aged_rows: 160_000,
    aged_slices: 3,
    load_batch_rows: 512,
    rowstore_flush_bytes: 4 << 20,
    hot_cache_bytes: 64 << 20,
    cold_cache_bytes: 2 << 20,
    rss_mark_batches: 3000,
    open_batches_per_s: 250,
    open_queries_per_s: 100,
    maintenance_pause: Duration::from_millis(1000),
    retention_tenants: 4,
    baseline_checks: 8,
    enforce_percentile_support: true,
    probe_iters: 200,
};

pub const SMOKE: Scale = Scale {
    name: "smoke",
    oss_time_scale: 0.05,
    tenants: 8,
    zipf_theta: 0.99,
    aged_rows: 6_000,
    aged_slices: 3,
    load_batch_rows: 256,
    rowstore_flush_bytes: 256 << 10,
    hot_cache_bytes: 8 << 20,
    cold_cache_bytes: 64 << 10,
    rss_mark_batches: 100,
    open_batches_per_s: 100,
    open_queries_per_s: 20,
    maintenance_pause: Duration::from_millis(100),
    retention_tenants: 2,
    baseline_checks: 8,
    enforce_percentile_support: false,
    probe_iters: 20,
};

// The cyclic picker covers every (tenant, template) pair in eight laps only
// when the tenant count is a multiple of the template count; the cache
// warm-up relies on that.
const _: () = assert!(
    FULL.tenants.is_multiple_of(TEMPLATES as u64) && SMOKE.tenants.is_multiple_of(TEMPLATES as u64)
);

/// The `bench` engine config: `ClusterConfig::paper_like()` with the OSS
/// latency model on and really slept, 3 Raft replicas per shard, a durable
/// group-commit WAL with the default `WalConfig` (`FlushPolicy::Flush`,
/// zero commit window), and pinned pool sizes. The engine's own seed stays
/// the preset's: `--seed` feeds the generators, not the engine.
pub fn engine(scale: &Scale, data_dir: &Path, cache_memory_bytes: usize) -> ClusterConfig {
    let mut c = ClusterConfig::paper_like();
    c.workers = 4;
    c.shards_per_worker = 2;
    c.oss_latency = LatencyModel::oss_like().with_time_scale(scale.oss_time_scale);
    c.raft_replicas = 3;
    c.data_dir = Some(data_dir.to_path_buf());
    c.wal = logstore_wal::WalConfig::default();
    c.rowstore_flush_bytes = scale.rowstore_flush_bytes;
    c.block_rows = 1024;
    c.max_rows_per_logblock = 65536;
    c.cache_memory_bytes = cache_memory_bytes;
    c.cache_disk_bytes = None;
    c.query_threads = 4;
    c.prefetch_threads = 8;
    // Compaction candidates are blocks under 1/32 of the LogBlock cap. The
    // preset's default (any block under the cap) rewrites every tenant's
    // whole history on every pass, which no timed window of this length
    // could hold three cycles of.
    c.compact_small_rows = Some(COMPACT_SMALL_ROWS);
    c
}

/// One line describing the frozen config, echoed into every run's output.
pub fn describe(scale: &Scale, c: &ClusterConfig) -> String {
    format!(
        "scale={} workers={} shards/worker={} raft_replicas={} wal={:?}/window={:?} \
         oss={}us+{}ns/B jitter={} time_scale={} rowstore_flush={}B block_rows={} \
         max_rows_per_logblock={} compact_small_rows={} cache={}B disk_tier=none \
         query_threads={} prefetch_threads={} \
         engine_seed={} load_threads={} batch_rows={} tenants={} zipf={} aged={}rows/{}slices \
         open_loop={}batches/s+{}queries/s main_share={} (query_cold {})",
        scale.name,
        c.workers,
        c.shards_per_worker,
        c.raft_replicas,
        c.wal.flush,
        c.wal.group_commit_window,
        c.oss_latency.base_latency_us,
        c.oss_latency.per_byte_ns,
        c.oss_latency.jitter,
        c.oss_latency.time_scale,
        c.rowstore_flush_bytes,
        c.block_rows,
        c.max_rows_per_logblock,
        COMPACT_SMALL_ROWS,
        c.cache_memory_bytes,
        c.query_threads,
        c.prefetch_threads,
        c.seed,
        LOAD_THREADS,
        BATCH_ROWS,
        scale.tenants,
        scale.zipf_theta,
        scale.aged_rows,
        scale.aged_slices,
        scale.open_batches_per_s,
        scale.open_queries_per_s,
        MAIN_SHARE,
        COLD_MAIN_SHARE,
    )
}

/// Where runs keep their files: under `CARGO_TARGET_DIR` (the driver sets
/// it inside the checkout) or `target/`, so nothing is written outside the
/// checkout and `.gitignore` already covers it.
pub fn output_root() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("bench_e2e")
}

/// A scratch directory removed on drop (WAL files of one engine, or a
/// probe's scratch state).
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> std::io::Result<Self> {
        let dir = output_root().join(format!("run-{}-{label}", std::process::id()));
        // A stale directory can only be a leftover of a killed run with a
        // recycled pid; its WAL must not be replayed into this one.
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
