//! Scatter/gather correctness: parallel query execution must be
//! bit-identical to the sequential reference path — same rows, same
//! stats — at every parallelism setting, under every cache/skipping
//! configuration, and under fault injection (errors surface, wrong data
//! never does).

use logstore_core::{ClusterConfig, LogStore, QueryOptions};
use logstore_oss::LatencyModel;
use logstore_types::{LogRecord, TenantId, Timestamp, Value};

fn rec(t: u64, ts: i64, latency: i64, msg: &str) -> LogRecord {
    LogRecord::new(
        TenantId(t),
        Timestamp(ts),
        vec![
            Value::from(format!("10.0.{}.{}", ts % 200, latency % 250)),
            Value::from("/api/v1/users"),
            Value::I64(latency),
            Value::Bool(latency > 400),
            Value::from(msg.to_string()),
        ],
    )
}

/// Builds a store holding at least `blocks` archived LogBlocks for tenant
/// 1 plus a real-time tail, so queries genuinely scatter over many
/// sources.
fn build_store(mut config: ClusterConfig, blocks: usize, rows_per_block: usize) -> LogStore {
    config.query_threads = 8;
    let s = LogStore::open(config).unwrap();
    for b in 0..blocks {
        let batch: Vec<LogRecord> = (0..rows_per_block)
            .map(|i| {
                let ts = (b * rows_per_block + i) as i64;
                rec(
                    1,
                    ts,
                    (ts * 7 + 13) % 600,
                    &format!("request {ts} served shard-{b} trace={:08x}", ts * 2654435761i64),
                )
            })
            .collect();
        s.ingest(batch).unwrap();
        s.flush().unwrap();
    }
    // Real-time tail: rows that live only in the shards' row stores.
    let tail_start = (blocks * rows_per_block) as i64;
    let tail: Vec<LogRecord> = (0..40)
        .map(|i| rec(1, tail_start + i, (i * 11) % 600, &format!("fresh row {i}")))
        .collect();
    s.ingest(tail).unwrap();
    s
}

const QUERIES: &[&str] = &[
    "SELECT log FROM request_log WHERE tenant_id = 1",
    "SELECT log FROM request_log WHERE tenant_id = 1 AND latency >= 300",
    "SELECT log, latency FROM request_log WHERE tenant_id = 1 AND log CONTAINS 'shard-3'",
    "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 AND fail = true",
    "SELECT ip, COUNT(*) FROM request_log WHERE tenant_id = 1 GROUP BY ip ORDER BY COUNT(*) DESC LIMIT 10",
];

#[test]
fn parallel_results_bit_identical_to_sequential() {
    let s = build_store(ClusterConfig::for_testing(), 8, 64);
    assert!(s.block_count() >= 8, "need a wide scatter: {} blocks", s.block_count());
    let configs = [
        QueryOptions::default(),
        QueryOptions { use_prefetch: false, ..QueryOptions::default() },
        QueryOptions { use_skipping: false, ..QueryOptions::default() },
        QueryOptions { use_cache: false, use_prefetch: false, ..QueryOptions::default() },
    ];
    for opts in &configs {
        for sql in QUERIES {
            let reference = s.query_with_options(sql, &opts.clone().with_parallelism(1)).unwrap();
            // 0 = auto (the engine pool's width).
            for parallelism in [4usize, 8, 0] {
                let exec =
                    s.query_with_options(sql, &opts.clone().with_parallelism(parallelism)).unwrap();
                assert_eq!(
                    exec.result, reference.result,
                    "rows diverged at parallelism {parallelism} for {sql:?} with {opts:?}"
                );
                assert_eq!(
                    exec.stats, reference.stats,
                    "stats diverged at parallelism {parallelism} for {sql:?} with {opts:?}"
                );
            }
        }
    }
}

/// Where the real-time runs are cut is invisible: an engine whose row
/// stores were sealed at many points (every query between two ingests
/// seals the tails it reads) answers like one whose rows all sit in one
/// open tail until the first query — same rows, same `QueryStats`,
/// `realtime_rows_scanned` included — at parallelism 1 and 4, with and
/// without pushdown, merged behind the same archived LogBlocks.
#[test]
fn real_time_seal_points_are_invisible_at_every_parallelism() {
    let fresh = |tenant: u64, chunk: i64| -> Vec<LogRecord> {
        (0..45)
            .map(|i| {
                let ts = 100_000 + chunk * 45 + i;
                let msg = if i % 9 == 0 { "fresh timeout" } else { "fresh ok" };
                rec(tenant, ts, (ts * 13) % 600, msg)
            })
            .collect()
    };
    let sqls = |tenant: u64| -> Vec<String> {
        vec![
            format!("SELECT log FROM request_log WHERE tenant_id = {tenant}"),
            format!("SELECT log FROM request_log WHERE tenant_id = {tenant} LIMIT 70"),
            format!("SELECT log, latency FROM request_log WHERE tenant_id = {tenant} AND latency >= 300 LIMIT 30"),
            format!("SELECT COUNT(*) FROM request_log WHERE tenant_id = {tenant} AND fail = true"),
            format!("SELECT COUNT(*) FROM request_log WHERE tenant_id = {tenant} AND ts >= 100050 AND ts <= 100170"),
            format!("SELECT ip, COUNT(*), MAX(latency) FROM request_log WHERE tenant_id = {tenant} GROUP BY ip ORDER BY COUNT(*) DESC LIMIT 10"),
            format!("SELECT log FROM request_log WHERE tenant_id = {tenant} AND log CONTAINS 'timeout' ORDER BY ts DESC LIMIT 5"),
        ]
    };
    let open = |query_between_chunks: bool| -> LogStore {
        // Two archived LogBlocks per tenant, then five fresh chunks.
        let s = build_store(ClusterConfig::for_testing(), 2, 64);
        s.ingest((0..128).map(|ts| rec(2, ts, (ts * 7) % 600, "archived")).collect()).unwrap();
        s.flush().unwrap();
        for chunk in 0..5 {
            for tenant in [1, 2] {
                s.ingest(fresh(tenant, chunk)).unwrap();
            }
            if query_between_chunks {
                // Tenant 1 reads after every chunk, tenant 2 after every
                // other one: the shards' runs end in different places.
                for sql in sqls(1).iter().chain(sqls(2).iter().filter(|_| chunk % 2 == 0)) {
                    s.query(sql).unwrap();
                }
            }
        }
        s
    };
    let (sealed_often, sealed_once) = (open(true), open(false));
    for tenant in [1, 2] {
        for sql in sqls(tenant) {
            let reference = sealed_once
                .query_with_options(&sql, &QueryOptions::default().with_parallelism(1))
                .unwrap();
            assert!(reference.stats.realtime_rows_scanned > 0, "{sql}");
            let baseline = sealed_once.query_with_options(&sql, &QueryOptions::baseline()).unwrap();
            assert_eq!(baseline.result, reference.result, "baseline diverged for {sql}");
            for (label, engine) in [("sealed often", &sealed_often), ("sealed once", &sealed_once)]
            {
                for parallelism in [1usize, 4] {
                    let opts = QueryOptions::default().with_parallelism(parallelism);
                    let exec = engine.query_with_options(&sql, &opts).unwrap();
                    let at = format!("{label}, parallelism {parallelism}: {sql}");
                    assert_eq!(exec.result, reference.result, "rows diverged, {at}");
                    assert_eq!(exec.stats, reference.stats, "stats diverged, {at}");
                }
            }
        }
    }
    let runs = |s: &LogStore| {
        let sql = &sqls(1)[0];
        s.query_with_options(sql, &QueryOptions::default()).unwrap().counters.realtime_runs_visited
    };
    assert!(runs(&sealed_often) > runs(&sealed_once), "the two engines must differ in their runs");
}

#[test]
fn results_identical_at_any_cache_shard_count() {
    // The sharded cache + coalesced read path must be invisible to query
    // results: every (cache_shards, parallelism) combination returns the
    // byte-identical rows and stats of a 1-shard sequential run. A small
    // cache block size makes one LogBlock span many blocks, so the
    // coalescing planner genuinely runs.
    let mut reference: Option<Vec<_>> = None;
    for shards in [1usize, 4] {
        let mut config = ClusterConfig::for_testing();
        config.cache_shards = shards;
        config.cache_block_size = 2048;
        let s = build_store(config, 6, 64);
        let mut runs = Vec::new();
        for sql in QUERIES {
            let sequential =
                s.query_with_options(sql, &QueryOptions::default().with_parallelism(1)).unwrap();
            s.clear_cache();
            let parallel =
                s.query_with_options(sql, &QueryOptions::default().with_parallelism(8)).unwrap();
            assert_eq!(
                parallel.result, sequential.result,
                "rows diverged at cache_shards={shards} for {sql:?}"
            );
            assert_eq!(
                parallel.stats, sequential.stats,
                "stats diverged at cache_shards={shards} for {sql:?}"
            );
            runs.push(sequential.result);
        }
        match &reference {
            None => reference = Some(runs),
            Some(reference) => {
                assert_eq!(&runs, reference, "results changed between shard counts");
            }
        }
    }
}

#[test]
fn cold_scans_coalesce_origin_gets() {
    // With small cache blocks, a cold column scan touches long runs of
    // adjacent blocks; the coalesced demand path must fetch each run with
    // one GET instead of one per block, and the query must surface that in
    // its cache-stats delta.
    let mut config = ClusterConfig::for_testing();
    config.cache_block_size = 1024;
    let s = build_store(config, 1, 400);
    // The flush admitted the block it built; a cold scan starts from a
    // cache that has forgotten it.
    s.clear_cache();

    let sql = "SELECT log FROM request_log WHERE tenant_id = 1";
    let opts = QueryOptions { use_prefetch: false, ..QueryOptions::default() }.with_parallelism(1);
    let cold = s.query_with_options(sql, &opts).unwrap();
    assert!(cold.cache.misses > 4, "small blocks must produce many cold misses");
    assert!(cold.cache.coalesced_gets > 0, "adjacent cold blocks must coalesce: {:?}", cold.cache);
    assert!(cold.cache.bytes_from_origin > 0);
    // Strictly fewer origin round-trips than cold blocks fetched.
    let oss_gets = s.oss_metrics().get_requests;
    assert!(
        oss_gets < cold.cache.misses,
        "coalescing must save round-trips: {oss_gets} GETs for {} cold blocks",
        cold.cache.misses
    );

    // A warm rerun is all memory hits: no new origin traffic.
    let warm = s.query_with_options(sql, &opts).unwrap();
    assert_eq!(warm.cache.misses, 0, "warm scan must not refetch: {:?}", warm.cache);
    assert_eq!(warm.cache.bytes_from_origin, 0);
    assert!(warm.cache.memory_hits > 0);
    assert_eq!(warm.result, cold.result);
}

#[test]
fn faults_surface_as_errors_never_as_wrong_data() {
    let s = build_store(ClusterConfig::for_testing(), 4, 32);
    let opts = QueryOptions { use_cache: false, use_prefetch: false, ..QueryOptions::default() }
        .with_parallelism(4);
    let sql = "SELECT log FROM request_log WHERE tenant_id = 1";
    let correct = s.query_with_options(sql, &opts).unwrap();

    // Every read goes straight to OSS on this path, so a scheduled fault
    // must fail the query — a partial result would be wrong data.
    for faults in [1u64, 3] {
        s.shared().fault_layer().fail_next(faults);
        let err = s.query_with_options(sql, &opts).unwrap_err();
        assert!(err.to_string().contains("injected oss fault"), "unexpected error: {err}");
        s.shared().fault_layer().clear_faults();
    }
    assert!(s.shared().fault_layer().injected() >= 2);

    // With the faults cleared the same query is whole again.
    let after = s.query_with_options(sql, &opts).unwrap();
    assert_eq!(after.result, correct.result);
    assert_eq!(after.stats, correct.stats);
}

#[test]
fn prefetch_fault_degrades_to_demand_reads() {
    // Small cache blocks so one LogBlock spans many of them and the
    // prefetch wave issues real per-block GETs.
    let mut config = ClusterConfig::for_testing();
    config.cache_block_size = 1024;
    let s = build_store(config, 1, 400);

    // Forget the block the flush admitted, then warm the footer/meta/
    // latency blocks; the `log` column stays cold.
    s.clear_cache();
    let warm = QueryOptions { use_prefetch: false, ..QueryOptions::default() }.with_parallelism(1);
    s.query_with_options("SELECT latency FROM request_log WHERE tenant_id = 1", &warm).unwrap();

    // The cold `log` column is now the first thing the next query touches
    // the store for — via its prefetch wave. One scheduled fault lands on
    // a wave GET; the wave must absorb it (counted, non-fatal) and the
    // scan must fall through to a demand read for the missing block.
    let sql = "SELECT log FROM request_log WHERE tenant_id = 1";
    let injected_before = s.shared().fault_layer().injected();
    s.shared().fault_layer().fail_next(1);
    let degraded = s.query_with_options(sql, &QueryOptions::default().with_parallelism(1)).unwrap();
    assert_eq!(s.shared().fault_layer().injected(), injected_before + 1, "fault must fire");
    assert_eq!(degraded.stats.prefetch_errors, 1, "wave failure must be counted");

    // Same query with nothing scheduled: identical rows, zero errors.
    let clean = s.query_with_options(sql, &QueryOptions::default().with_parallelism(1)).unwrap();
    assert_eq!(clean.stats.prefetch_errors, 0);
    assert_eq!(degraded.result, clean.result, "degraded wave must not change results");
    assert_eq!(degraded.result.rows.len(), 440);
}

#[test]
fn scatter_speedup_scales_with_parallelism() {
    // Real (slept) per-request latency makes source collection I/O-bound:
    // the 8-way scatter over >=8 blocks must beat the sequential path by
    // a wide margin while returning the same bytes.
    let mut config = ClusterConfig::for_testing();
    let mut model = LatencyModel::zero();
    model.base_latency_us = 2_000;
    model.time_scale = 1.0;
    config.oss_latency = model;
    let s = build_store(config, 8, 48);
    assert!(s.block_count() >= 8);

    let opts = QueryOptions { use_cache: false, use_prefetch: false, ..QueryOptions::default() };
    let sql = "SELECT log FROM request_log WHERE tenant_id = 1";
    let sequential = s.query_with_options(sql, &opts.clone().with_parallelism(1)).unwrap();
    let parallel = s.query_with_options(sql, &opts.clone().with_parallelism(8)).unwrap();

    assert_eq!(parallel.result, sequential.result);
    assert_eq!(parallel.stats, sequential.stats);
    assert!(
        parallel.wall < sequential.wall.mul_f64(0.7),
        "8-way scatter should be well under the sequential wall clock: \
         parallel {:?} vs sequential {:?}",
        parallel.wall,
        sequential.wall
    );
}
