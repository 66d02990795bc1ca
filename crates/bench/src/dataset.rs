//! Shared engine + dataset construction for the query experiments
//! (Figures 15–17).
//!
//! Mirrors the paper's setup at laptop scale: a Zipfian(0.99) tenant
//! population with a 48-hour history, archived into per-tenant LogBlocks on
//! the simulated OSS, queried with the six per-tenant templates of §6.3.

use logstore_core::{ClusterConfig, LogStore};
use logstore_oss::LatencyModel;
use logstore_types::{LogRecord, Timestamp};
use logstore_workload::{LogRecordGenerator, WorkloadSpec};

/// Rows in one `rowstore_flush_bytes` (4 MiB) drain of generated records.
pub const DRAIN_ROWS: usize = 17_000;

/// One drain's worth of generated `request_log` records, five Zipfian
/// tenants interleaved in arrival order — the input the write-side kernel
/// benches (batch encode, index build, chunk build) share.
pub fn drain_rows() -> Vec<LogRecord> {
    let start = Timestamp(1_600_000_000_000);
    LogRecordGenerator::new(7).history(
        &WorkloadSpec::new(5, 0.99),
        DRAIN_ROWS,
        start,
        Timestamp(start.millis() + 60_000),
    )
}

/// A ready-to-query engine plus its workload description.
pub struct EngineSetup {
    /// The engine.
    pub store: LogStore,
    /// The tenant population.
    pub spec: WorkloadSpec,
    /// History start.
    pub start: Timestamp,
    /// History end.
    pub end: Timestamp,
}

/// Parameters for dataset construction.
#[derive(Debug, Clone)]
pub struct DatasetParams {
    /// Number of tenants.
    pub tenants: u64,
    /// Zipfian skew.
    pub theta: f64,
    /// Total history rows.
    pub rows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DatasetParams {
    fn default() -> Self {
        DatasetParams { tenants: 100, theta: 0.99, rows: 400_000, seed: 61 }
    }
}

/// Builds an engine over `latency`-modelled OSS and loads the dataset
/// through the full two-phase write path.
pub fn build_engine(latency: LatencyModel, params: &DatasetParams) -> EngineSetup {
    let mut config = ClusterConfig::for_testing();
    config.workers = 4;
    config.shards_per_worker = 2;
    config.oss_latency = latency;
    config.block_rows = 1024;
    config.max_rows_per_logblock = 65536;
    config.cache_memory_bytes = 256 << 20;
    config.cache_block_size = 8 * 1024;
    config.prefetch_threads = 32;
    // Benchmarks flush explicitly after loading.
    config.rowstore_flush_bytes = usize::MAX;
    config.rowstore_backpressure_bytes = usize::MAX;
    config.seed = params.seed;
    let store = LogStore::open(config).expect("engine open");

    let spec = WorkloadSpec::new(params.tenants, params.theta);
    let start = Timestamp(1_600_000_000_000);
    let end = Timestamp(1_600_000_000_000 + 48 * 3600 * 1000);
    let mut gen = LogRecordGenerator::new(params.seed);
    let history = gen.history(&spec, params.rows, start, end);
    for chunk in history.chunks(5000) {
        let report = store.ingest(chunk.to_vec()).expect("ingest");
        assert_eq!(report.rejected, 0, "benchmark load must not be backpressured");
    }
    let report = store.flush().expect("flush");
    assert_eq!(report.rows_archived as usize, params.rows);
    EngineSetup { store, spec, start, end }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_dataset_builds_and_queries() {
        let params = DatasetParams { tenants: 20, theta: 0.99, rows: 2000, seed: 3 };
        let setup = build_engine(LatencyModel::zero(), &params);
        assert!(setup.store.block_count() >= 20, "every tenant should have a block");
        let result =
            setup.store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1").unwrap();
        let count = result.rows[0][0].as_u64().unwrap();
        assert!(count > 100, "rank-1 tenant should dominate: {count}");
    }
}
