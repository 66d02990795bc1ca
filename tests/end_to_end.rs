//! End-to-end integration: the full two-phase write path and query stack
//! validated against an in-memory oracle.

use logstore::core::{ClusterConfig, LogStore, QueryOptions};
use logstore::oss::{FaultScope, RetryPolicy};
use logstore::query::{analyze, parse_query};
use logstore::types::{TableSchema, TenantId, Timestamp, Value};
use logstore::workload::{LogRecordGenerator, WorkloadSpec};

/// Builds a loaded store plus the raw records for oracle checks.
fn loaded_store(rows: usize) -> (LogStore, Vec<logstore::types::LogRecord>) {
    let mut config = ClusterConfig::for_testing();
    config.block_rows = 64;
    config.max_rows_per_logblock = 512;
    let store = LogStore::open(config).expect("open");
    let spec = WorkloadSpec::new(20, 0.99);
    let mut gen = LogRecordGenerator::new(99);
    let history = gen.history(&spec, rows, Timestamp(0), Timestamp(1_000_000));
    for chunk in history.chunks(500) {
        store.ingest(chunk.to_vec()).expect("ingest");
    }
    (store, history)
}

/// Evaluates a query naively over the raw records.
fn oracle(records: &[logstore::types::LogRecord], sql: &str) -> usize {
    let schema = TableSchema::request_log();
    let query = analyze::bind(&parse_query(sql).expect("parse"), &schema).expect("bind");
    records
        .iter()
        .filter(|r| {
            let row = r.to_row();
            query.predicates.iter().all(|p| {
                let c = schema.column_index(&p.column).expect("column");
                p.matches(&row[c])
            })
        })
        .count()
}

#[test]
fn counts_match_oracle_across_flush_boundary() {
    let (store, records) = loaded_store(3000);
    // Archive roughly half, keep the rest in the real-time store.
    store.flush().expect("flush");
    let extra: Vec<_> = records[..400].to_vec();
    // Re-ingest a slice as fresh real-time data (duplicates are fine for
    // the comparison: the oracle sees them too).
    store.ingest(extra.clone()).expect("ingest");
    let mut all = records.clone();
    all.extend(extra);

    for sql in [
        "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1",
        "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 AND fail = true",
        "SELECT COUNT(*) FROM request_log WHERE tenant_id = 2 AND latency >= 100",
        "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 AND ts >= 250000 AND ts < 750000",
        "SELECT COUNT(*) FROM request_log WHERE tenant_id = 3 AND log CONTAINS 'timeout'",
        "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 AND api = '/api/v1/search'",
        "SELECT COUNT(*) FROM request_log WHERE tenant_id = 19",
    ] {
        let expect = oracle(&all, sql);
        let result = store.query(sql).expect(sql);
        let got = result.rows[0][0].as_u64().expect("count") as usize;
        assert_eq!(got, expect, "mismatch for {sql}");
    }
}

#[test]
fn query_options_are_result_equivalent() {
    let (store, _) = loaded_store(2000);
    store.flush().expect("flush");
    let queries = [
        "SELECT log FROM request_log WHERE tenant_id = 1 AND latency >= 50 AND fail = false",
        "SELECT ip, COUNT(*) FROM request_log WHERE tenant_id = 1 GROUP BY ip \
         ORDER BY COUNT(*) DESC LIMIT 3",
        "SELECT ts, log FROM request_log WHERE tenant_id = 2 AND log CONTAINS 'ok' \
         ORDER BY ts ASC LIMIT 20",
    ];
    for sql in queries {
        let full = store.query_with_options(sql, &QueryOptions::default()).expect(sql);
        store.clear_cache();
        let baseline = store.query_with_options(sql, &QueryOptions::baseline()).expect(sql);
        assert_eq!(full.result, baseline.result, "options changed results for {sql}");
    }
}

#[test]
fn aggregates_match_oracle_across_flush_boundary() {
    let (store, records) = loaded_store(2500);
    store.flush().expect("flush");
    // Keep a slice in the real-time store so the aggregate spans sources.
    let extra: Vec<_> = records[..300].to_vec();
    store.ingest(extra.clone()).expect("ingest");
    let mut all = records.clone();
    all.extend(extra);

    let schema = TableSchema::request_log();
    let lat = schema.column_index("latency").unwrap();
    let tenant1: Vec<_> = all.iter().filter(|r| r.tenant_id == TenantId(1)).collect();
    let values: Vec<i64> = tenant1.iter().filter_map(|r| r.to_row()[lat].as_i64()).collect();
    let (sum, min, max) =
        (values.iter().sum::<i64>(), *values.iter().min().unwrap(), *values.iter().max().unwrap());

    let result = store
        .query(
            "SELECT SUM(latency), MIN(latency), MAX(latency), AVG(latency) \
             FROM request_log WHERE tenant_id = 1",
        )
        .expect("aggregate query");
    assert_eq!(
        result.columns,
        vec!["SUM(latency)", "MIN(latency)", "MAX(latency)", "AVG(latency)"]
    );
    let row = &result.rows[0];
    assert_eq!(row[0].as_i64().unwrap(), sum);
    assert_eq!(row[1].as_i64().unwrap(), min);
    assert_eq!(row[2].as_i64().unwrap(), max);
    assert_eq!(row[3].as_i64().unwrap(), sum / values.len() as i64);

    // Grouped aggregates with mixed items.
    let grouped = store
        .query(
            "SELECT api, COUNT(*), AVG(latency) FROM request_log \
             WHERE tenant_id = 1 GROUP BY api ORDER BY COUNT(*) DESC",
        )
        .expect("grouped query");
    let total: u64 = grouped.rows.iter().map(|r| r[1].as_u64().unwrap()).sum();
    assert_eq!(total, tenant1.len() as u64);
    // Counts are descending.
    let counts: Vec<u64> = grouped.rows.iter().map(|r| r[1].as_u64().unwrap()).collect();
    assert!(counts.windows(2).all(|w| w[0] >= w[1]));
}

#[test]
fn projection_order_and_limit_respected() {
    let (store, _) = loaded_store(500);
    store.flush().expect("flush");
    let result = store
        .query(
            "SELECT latency FROM request_log WHERE tenant_id = 1 \
             ORDER BY latency DESC LIMIT 10",
        )
        .expect("query");
    assert_eq!(result.columns, vec!["latency"]);
    assert!(result.rows.len() <= 10);
    let values: Vec<i64> = result.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert!(values.windows(2).all(|w| w[0] >= w[1]), "not descending: {values:?}");
}

#[test]
fn full_text_column_equality_still_works_via_scan() {
    // `log` is a FullText column: no exact terms in its index. Equality
    // must still return correct results (scan path), and CONTAINS must be
    // index-accelerated — both across the flush boundary.
    let store = LogStore::open(ClusterConfig::for_testing()).expect("open");
    let mk = |ts: i64, line: &str| {
        logstore::types::LogRecord::new(
            TenantId(1),
            Timestamp(ts),
            vec![
                logstore::types::Value::from("10.0.0.1"),
                logstore::types::Value::from("/api"),
                logstore::types::Value::I64(1),
                logstore::types::Value::Bool(false),
                logstore::types::Value::from(line),
            ],
        )
    };
    store
        .ingest(vec![
            mk(1, "connection timeout to upstream"),
            mk(2, "request served fine"),
            mk(3, "connection timeout to upstream"),
        ])
        .expect("ingest");
    store.flush().expect("flush");

    let eq = store
        .query(
            "SELECT ts FROM request_log WHERE tenant_id = 1 \
             AND log = 'connection timeout to upstream' ORDER BY ts ASC",
        )
        .expect("equality on full-text column");
    assert_eq!(eq.rows.len(), 2);
    assert_eq!(eq.rows[0][0].as_i64(), Some(1));

    let contains = store
        .query_with_options(
            "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 \
             AND log CONTAINS 'timeout'",
            &QueryOptions::default(),
        )
        .expect("contains on full-text column");
    assert_eq!(contains.result.rows[0][0], logstore::types::Value::U64(2));
    assert!(contains.stats.scan.index_lookups >= 1, "CONTAINS must use the token index");
}

#[test]
fn data_survives_many_flush_cycles() {
    let mut config = ClusterConfig::for_testing();
    config.max_rows_per_logblock = 64;
    let store = LogStore::open(config).expect("open");
    let mut total = 0u64;
    for round in 0..10 {
        let records: Vec<_> = (0..100)
            .map(|i| {
                logstore::types::LogRecord::new(
                    TenantId(1 + i % 3),
                    Timestamp(round * 1000 + i as i64),
                    vec![
                        logstore::types::Value::from("ip"),
                        logstore::types::Value::from("/a"),
                        logstore::types::Value::I64(i as i64),
                        logstore::types::Value::Bool(false),
                        logstore::types::Value::from("m"),
                    ],
                )
            })
            .collect();
        total += records.len() as u64;
        store.ingest(records).expect("ingest");
        store.flush().expect("flush");
    }
    let mut sum = 0u64;
    for t in 1..=3u64 {
        let result = store
            .query(&format!("SELECT COUNT(*) FROM request_log WHERE tenant_id = {t}"))
            .expect("count");
        sum += result.rows[0][0].as_u64().unwrap();
    }
    assert_eq!(sum, total);
}

#[test]
fn empty_tenant_queries_are_well_formed() {
    // A tenant with no rows anywhere (no route, no row-store data, no
    // LogBlocks) must query cleanly, before and after a flush.
    let (store, _) = loaded_store(500);
    for _ in 0..2 {
        let count =
            store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 555").expect("count");
        assert_eq!(count.rows[0][0].as_u64(), Some(0));
        let rows = store
            .query(
                "SELECT ts, log FROM request_log WHERE tenant_id = 555 \
                 AND log CONTAINS 'timeout' ORDER BY ts ASC LIMIT 5",
            )
            .expect("select");
        assert!(rows.rows.is_empty(), "phantom rows for an empty tenant: {:?}", rows.rows);
        let grouped = store
            .query(
                "SELECT api, COUNT(*) FROM request_log WHERE tenant_id = 555 \
                 GROUP BY api ORDER BY COUNT(*) DESC",
            )
            .expect("group");
        assert!(grouped.rows.is_empty());
        store.flush().expect("flush");
    }
}

#[test]
fn query_spans_row_store_and_oss_after_partial_archive() {
    // Fail one block upload mid-flush with no retries: the chunk prefix
    // before it commits to OSS, the rest is restored to the row store.
    // Queries must see exactly one copy of every row across both sources.
    let mut config = ClusterConfig::for_testing();
    config.oss_fault_scope = FaultScope::Writes;
    config.oss_retry = RetryPolicy::none();
    config.max_rows_per_logblock = 100;
    // One upload in flight, so "the 4th upcoming write" below names a
    // chunk rather than whichever overlapped PUT reaches the injector 4th.
    config.prefetch_threads = 1;
    let store = LogStore::open(config).expect("open");

    let records: Vec<_> = (0..1_000i64)
        .map(|i| {
            logstore::types::LogRecord::new(
                TenantId(1 + i as u64 % 2),
                Timestamp(i),
                vec![
                    Value::from("10.0.0.1"),
                    Value::from("/api"),
                    Value::I64(i),
                    Value::Bool(i % 2 == 0),
                    Value::from(if i % 9 == 0 { "timeout" } else { "ok" }),
                ],
            )
        })
        .collect();
    store.ingest(records).expect("ingest");

    // The 4th upcoming write fails; everything after it in that drain is
    // abandoned and restored.
    let faults = store.shared().fault_layer();
    faults.fail_ops(&[faults.op_index() + 3..faults.op_index() + 4]);
    store.flush().expect_err("the scheduled upload fault must fail the flush");
    assert!(faults.injected() >= 1, "the scheduled fault never fired");

    // Both sources are non-trivially populated: committed blocks on OSS
    // plus restored rows still buffered.
    assert!(store.block_count() > 0, "no chunk committed before the fault");
    let buffered: usize = {
        let workers = store.shared().workers.read();
        workers
            .iter()
            .flat_map(|w| w.shard_ids().into_iter().map(|s| w.buffered_rows(s).unwrap()))
            .sum()
    };
    assert!(buffered > 0, "no rows restored to the row store");

    for (tenant, expect) in [(1u64, 500u64), (2, 500)] {
        let count = store
            .query(&format!("SELECT COUNT(*) FROM request_log WHERE tenant_id = {tenant}"))
            .expect("count");
        assert_eq!(count.rows[0][0].as_u64(), Some(expect), "tenant {tenant} row count");
    }
    // An ordered scan spanning both sources returns every row exactly once.
    let scan = store
        .query("SELECT ts FROM request_log WHERE tenant_id = 1 ORDER BY ts ASC")
        .expect("scan");
    let ts: Vec<i64> = scan.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    let expect: Vec<i64> = (0..1_000).filter(|i| i % 2 == 0).collect();
    assert_eq!(ts, expect, "ordered scan across row store + OSS");

    // The backlog drains once faults clear, and results are unchanged.
    faults.clear_faults();
    store.flush().expect("clean flush");
    let count = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 2").expect("count");
    assert_eq!(count.rows[0][0].as_u64(), Some(500));
}

#[test]
fn rebalanced_tenant_stays_fully_queryable() {
    // A tenant split across shards by the traffic controller — with some
    // routes later vacated and their rows force-flushed to OSS — must
    // stay exactly-once queryable through the whole lifecycle.
    let mut config = ClusterConfig::for_testing();
    config.shard_capacity = 5_000;
    config.flow.per_tenant_shard_limit = 2_000;
    let store = LogStore::open(config).expect("open");
    for t in 2..=6u64 {
        store
            .ingest((0..100).map(|i| mk_row(t, i, "background")).collect())
            .expect("background ingest");
    }
    store.ingest((0..8_000).map(|i| mk_row(1, i, "hot")).collect()).expect("hot ingest");

    let action = store.control_tick().expect("tick");
    assert!(
        matches!(action, logstore::flow::ControlAction::Rebalanced { .. }),
        "expected a rebalance, got {action:?}"
    );
    assert!(store.shared().controller.read_shards(TenantId(1)).unwrap().len() >= 3);

    // Mid-rebalance: counts and ordered scans both exact.
    let count = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1").expect("count");
    assert_eq!(count.rows[0][0].as_u64(), Some(8_000));

    // Archive everything, then land fresh rows on the post-rebalance
    // routes so the tenant spans OSS blocks and multiple shards' buffers.
    store.flush().expect("flush");
    store.ingest((8_000..9_000).map(|i| mk_row(1, i, "fresh")).collect()).expect("ingest");

    let count = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1").expect("count");
    assert_eq!(count.rows[0][0].as_u64(), Some(9_000));
    let scan = store
        .query("SELECT ts FROM request_log WHERE tenant_id = 1 ORDER BY ts ASC")
        .expect("scan");
    let ts: Vec<i64> = scan.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(ts.len(), 9_000, "rebalanced tenant lost or duplicated rows");
    assert_eq!(ts, (0..9_000).collect::<Vec<i64>>(), "ordered scan must be exact");
    // Background tenants are untouched by the rebalance.
    for t in 2..=6u64 {
        let count = store
            .query(&format!("SELECT COUNT(*) FROM request_log WHERE tenant_id = {t}"))
            .expect("count");
        assert_eq!(count.rows[0][0].as_u64(), Some(100));
    }
}

fn mk_row(t: u64, i: i64, msg: &str) -> logstore::types::LogRecord {
    logstore::types::LogRecord::new(
        TenantId(t),
        Timestamp(i),
        vec![
            Value::from("10.0.0.1"),
            Value::from("/api"),
            Value::I64(i),
            Value::Bool(false),
            Value::from(msg),
        ],
    )
}
