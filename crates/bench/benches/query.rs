//! Scatter/gather query benchmark: the same scan at increasing per-query
//! parallelism (1 → 2 → 4 → 8 workers) over a multi-LogBlock tenant.
//!
//! Uses a zero-latency store so the numbers isolate executor overhead and
//! CPU-side scaling; the wall-clock win against modelled OSS latency is
//! shown by `fig16_prefetch` and asserted by the `parallel_query`
//! integration tests.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use logstore_bench::dataset::{build_engine, DatasetParams, EngineSetup};
use logstore_core::QueryOptions;
use logstore_oss::LatencyModel;
use logstore_query::{
    analyze, parse_query, partial_approx_bytes, ExecutionCounters, QueryStats, RowCollector,
    ScanPlan,
};
use logstore_types::{TableSchema, TenantId, TimeRange, Timestamp};
use logstore_wal::ShardStore;
use logstore_workload::LogRecordGenerator;
use std::hint::black_box;

fn setup() -> (EngineSetup, String) {
    let params = DatasetParams { rows: 40_000, tenants: 20, ..DatasetParams::default() };
    let setup = build_engine(LatencyModel::zero(), &params);
    let span = setup.end - setup.start;
    let sql = format!(
        "SELECT log FROM request_log WHERE tenant_id = 1 AND ts >= {} AND ts <= {} \
         AND latency >= 50",
        setup.start.millis(),
        setup.start.millis() + span / 2
    );
    (setup, sql)
}

fn bench_parallelism(c: &mut Criterion) {
    let (setup, sql) = setup();
    let rows = setup
        .store
        .query_with_options(&sql, &QueryOptions::default())
        .expect("query")
        .result
        .rows
        .len() as u64;

    let mut group = c.benchmark_group("query/scatter_gather");
    group.throughput(Throughput::Elements(rows.max(1)));
    for parallelism in [1usize, 2, 4, 8] {
        let opts = QueryOptions::default().with_parallelism(parallelism);
        group.bench_with_input(BenchmarkId::new("workers", parallelism), &opts, |b, opts| {
            b.iter(|| {
                let exec = setup.store.query_with_options(&sql, opts).expect("query");
                black_box(exec.result.rows.len())
            })
        });
    }
    group.finish();
}

/// A 12 k-row shard the way ingest leaves it — 70 % of the rows one
/// tenant's, applied in 8-row sub-batches, each sub-batch allocated right
/// before it is applied.
fn realtime_shard() -> ShardStore {
    let start = Timestamp(1_600_000_000_000);
    let mut gen = LogRecordGenerator::new(7);
    let store = ShardStore::in_memory();
    let mut sub_batch = Vec::with_capacity(8);
    for i in 0..REALTIME_ROWS {
        let tenant = if i % 10 < 7 { 1 } else { 2 + i % 3 };
        sub_batch.push(gen.record(TenantId(tenant), Timestamp(start.millis() + i as i64 * 5)));
        if sub_batch.len() == 8 {
            let records = std::mem::replace(&mut sub_batch, Vec::with_capacity(8));
            store.append(records).expect("memory-only shards cannot fail an append");
        }
    }
    store
}

const REALTIME_ROWS: u64 = 12_000;

/// The real-time source alone: templates 4, 5 and 6 of `tenant_queries`
/// (no time bound, so every fresh row of the tenant is in scope) over one
/// shard's row store, from the snapshot to the partial. Warm: back to back.
/// Cold: 64 MB are swept between iterations, so the runs' columns come
/// from memory the way they do for a query that arrives between other
/// work. An untimed first scan prints its counters. Elements are the tenant's rows in scope (`realtime_rows_scanned`):
/// 1e9 / thrpt is the ns per fresh row DESIGN.md quotes beside
/// `logblock.scan_us_per_krow`.
fn bench_realtime_scan(c: &mut Criterion) {
    let schema = TableSchema::request_log();
    let store = realtime_shard();
    let templates = [
        (
            "template 4",
            "SELECT log, latency FROM request_log WHERE tenant_id = 1 \
             AND api = '/api/v1/search' AND latency >= 500 LIMIT 1000",
        ),
        (
            "template 5",
            "SELECT ip, COUNT(*) FROM request_log WHERE tenant_id = 1 \
             AND api = '/api/v1/search' GROUP BY ip ORDER BY COUNT(*) DESC LIMIT 10",
        ),
        ("template 6", "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 AND fail = true"),
    ];
    let mut sweep = vec![1u8; 64 << 20];
    let mut group = c.benchmark_group("query/realtime_scan");
    for (name, sql) in templates {
        let bound = analyze::bind(&parse_query(sql).unwrap(), &schema).unwrap();
        let plan = ScanPlan::new(&bound, &schema, true).unwrap();
        let scan = || {
            let (mut stats, mut counters) = (QueryStats::default(), ExecutionCounters::default());
            let snapshot = store.snapshot(TenantId(1), TimeRange::all());
            let mut collector =
                RowCollector::new(&plan, &schema, TenantId(1), TimeRange::all()).unwrap();
            for run in &snapshot.runs {
                if !collector.push_run(run).unwrap() {
                    break;
                }
            }
            let partial = collector.finish(&mut stats, &mut counters);
            (partial, stats, counters)
        };
        let (partial, stats, counters) = scan();
        println!(
            "{name}: {} rows in scope of {REALTIME_ROWS}, {} partial bytes; {} runs of {} bytes \
             of rows",
            stats.realtime_rows_scanned,
            partial_approx_bytes(&partial),
            counters.realtime_runs_visited,
            store.buffered_bytes(),
        );
        group.throughput(Throughput::Elements(stats.realtime_rows_scanned));
        group.bench_function(format!("{name}, warm"), |b| b.iter(|| black_box(scan())));
        group.bench_function(format!("{name}, cold"), |b| {
            b.iter_with_setup(
                || {
                    for byte in sweep.iter_mut().step_by(64) {
                        *byte = byte.wrapping_add(1);
                    }
                    black_box(sweep[0])
                },
                |_| black_box(scan()),
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallelism, bench_realtime_scan);
criterion_main!(benches);
