//! Concurrency smoke tests: the engine is shared across threads in
//! production (brokers, background builder, controller); ingest, flush,
//! query and control ticks must interleave safely.

use logstore::core::{ClusterConfig, LogStore};
use logstore::types::{LogRecord, TenantId, Timestamp, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn rec(t: u64, ts: i64) -> LogRecord {
    LogRecord::new(
        TenantId(t),
        Timestamp(ts),
        vec![
            Value::from("10.0.0.1"),
            Value::from("/api"),
            Value::I64(ts % 100),
            Value::Bool(false),
            Value::from(format!("event {ts}")),
        ],
    )
}

#[test]
fn concurrent_ingest_flush_query_and_ticks() {
    let store = Arc::new(LogStore::open(ClusterConfig::for_testing()).expect("open"));
    let accepted = Arc::new(AtomicU64::new(0));
    let writers: Vec<_> = (0..4u64)
        .map(|w| {
            let store = Arc::clone(&store);
            let accepted = Arc::clone(&accepted);
            std::thread::spawn(move || {
                for round in 0..50i64 {
                    let tenant = w * 2 + (round % 2) as u64 + 1;
                    let batch: Vec<_> = (0..20).map(|i| rec(tenant, round * 100 + i)).collect();
                    let report = store.ingest(batch).expect("ingest");
                    accepted.fetch_add(report.accepted, Ordering::Relaxed);
                    assert_eq!(report.rejected, 0);
                }
            })
        })
        .collect();
    let maintenance = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            for _ in 0..20 {
                store.flush().expect("flush");
                let _ = store.control_tick().expect("tick");
                std::thread::yield_now();
            }
        })
    };
    let reader = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            for i in 0..50u64 {
                let tenant = i % 8 + 1;
                // Results vary while writers run; the call must never fail
                // or observe a torn state.
                let _ = store
                    .query(&format!("SELECT COUNT(*) FROM request_log WHERE tenant_id = {tenant}"))
                    .expect("query during concurrent writes");
            }
        })
    };
    for h in writers {
        h.join().unwrap();
    }
    maintenance.join().unwrap();
    reader.join().unwrap();

    // Quiesce: every accepted row is eventually queryable exactly once.
    store.flush().expect("final flush");
    let mut total = 0u64;
    for tenant in 1..=8u64 {
        let result = store
            .query(&format!("SELECT COUNT(*) FROM request_log WHERE tenant_id = {tenant}"))
            .expect("final count");
        total += result.rows[0][0].as_u64().unwrap();
    }
    assert_eq!(total, accepted.load(Ordering::Relaxed));
    assert_eq!(total, 4 * 50 * 20);
}

#[test]
fn concurrent_flushes_on_durable_shards_lose_nothing() {
    // The drain→upload→ack windows of concurrent build passes overlap
    // (ingest piggybacks flush_if_needed while a forced flush runs). An
    // ack's cut must never drop the WAL coverage of another pass's
    // drained-but-not-yet-uploaded rows, and after the final ack no acked
    // row may replay.
    let dir =
        std::env::temp_dir().join(format!("logstore-it-concurrent-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = ClusterConfig::for_testing();
    config.data_dir = Some(dir.clone());
    // Flush eagerly so build passes overlap constantly.
    config.rowstore_flush_bytes = 8 << 10;
    let ingested = {
        let store = Arc::new(LogStore::open(config.clone()).expect("open durable"));
        let ingested = Arc::new(AtomicU64::new(0));
        let writers: Vec<_> = (0..4u64)
            .map(|w| {
                let store = Arc::clone(&store);
                let ingested = Arc::clone(&ingested);
                std::thread::spawn(move || {
                    for round in 0..40i64 {
                        let tenant = w + 1;
                        let batch: Vec<_> = (0..10).map(|i| rec(tenant, round * 100 + i)).collect();
                        let report = store.ingest(batch).expect("ingest");
                        assert_eq!(report.rejected, 0);
                        ingested.fetch_add(report.accepted, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        let flusher = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for _ in 0..30 {
                    store.flush().expect("flush");
                    std::thread::yield_now();
                }
            })
        };
        for h in writers {
            h.join().unwrap();
        }
        flusher.join().unwrap();
        // Nothing lost while the windows overlapped: every accepted row is
        // queryable (row store or OSS).
        let total: u64 = (1..=4u64)
            .map(|t| {
                store
                    .query(&format!("SELECT COUNT(*) FROM request_log WHERE tenant_id = {t}"))
                    .expect("count")
                    .rows[0][0]
                    .as_u64()
                    .unwrap()
            })
            .sum();
        assert_eq!(total, ingested.load(Ordering::Relaxed));
        // A quiescent forced flush acks whatever is still buffered.
        store.flush().expect("final flush");
        ingested.load(Ordering::Relaxed)
    };
    assert_eq!(ingested, 4 * 40 * 10);
    // "Crash": the in-memory OSS died with the engine, so anything the
    // reopened engine sees came from the WAL. Every drain was acked, so
    // no acked row may resurrect.
    let store = LogStore::open(config).expect("reopen durable");
    for t in 1..=4u64 {
        let n = store
            .query(&format!("SELECT COUNT(*) FROM request_log WHERE tenant_id = {t}"))
            .expect("count after reopen")
            .rows[0][0]
            .as_u64()
            .unwrap();
        assert_eq!(n, 0, "tenant {t}: acked rows replayed — WAL was not truncated");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn concurrent_queries_share_the_cache() {
    let store = Arc::new(LogStore::open(ClusterConfig::for_testing()).expect("open"));
    store.ingest((0..2000).map(|i| rec(1, i)).collect()).expect("ingest");
    store.flush().expect("flush");
    let readers: Vec<_> = (0..8)
        .map(|_| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for _ in 0..20 {
                    let result = store
                        .query(
                            "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 \
                             AND latency >= 50",
                        )
                        .expect("query");
                    let n = result.rows[0][0].as_u64().unwrap();
                    assert_eq!(n, 1000); // latency = ts % 100 → half >= 50
                }
            })
        })
        .collect();
    for h in readers {
        h.join().unwrap();
    }
    let stats = store.cache_stats();
    assert!(stats.memory_hits > stats.misses, "cache must absorb repeat queries");
}
