//! Compaction, retention and GC end to end: the expire→delete ordering
//! fix (map swap before any delete, tombstones retried, one tenant's OSS
//! error isolated from the rest), background compaction of small
//! LogBlocks, and the query-vs-expire race surfacing as a clean retry
//! instead of a raw OSS `NotFound`.

use logstore::core::{ClusterConfig, LogStore, QueryOptions};
use logstore::oss::ObjectStore;
use logstore::types::{LogRecord, TenantId, Timestamp, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn rec(t: u64, ts: i64, msg: &str) -> LogRecord {
    LogRecord::new(
        TenantId(t),
        Timestamp(ts),
        vec![
            Value::from("10.0.0.1"),
            Value::from("/api"),
            Value::I64(ts % 500),
            Value::Bool(ts % 7 == 0),
            Value::from(msg),
        ],
    )
}

fn count(s: &LogStore, tenant: u64) -> u64 {
    let sql = format!("SELECT COUNT(*) FROM request_log WHERE tenant_id = {tenant}");
    s.query(&sql).expect("count query").rows[0][0].as_u64().unwrap()
}

/// Many small flushes → many small LogBlocks; one compaction pass must
/// collapse them, halve (at least) the per-query OSS GET count, and leave
/// every query result byte-identical.
#[test]
fn compaction_reduces_blocks_preserving_results() {
    let s = LogStore::open(ClusterConfig::for_testing()).unwrap();
    let mut ts = 0i64;
    for _cycle in 0..8 {
        for _ in 0..25 {
            ts += 1;
            s.ingest(vec![rec(1, ts, if ts % 3 == 0 { "timeout upstream" } else { "ok" })])
                .unwrap();
        }
        s.flush().unwrap();
    }
    let blocks_before = s.block_count();
    assert!(blocks_before >= 8, "each forced flush must cut a block, got {blocks_before}");

    let queries = [
        "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1".to_string(),
        "SELECT log FROM request_log WHERE tenant_id = 1 ORDER BY ts ASC".to_string(),
        "SELECT latency FROM request_log WHERE tenant_id = 1 AND log CONTAINS 'timeout'"
            .to_string(),
        format!("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 AND ts >= {}", ts / 2),
    ];
    let before: Vec<_> = queries.iter().map(|q| s.query(q).unwrap()).collect();

    let report = s.compact().unwrap();
    assert!(report.runs_committed >= 1, "{report:?}");
    assert_eq!(report.rows_rewritten, 200);
    let gc = s.gc();
    assert_eq!(gc.deleted as usize, report.blocks_merged as usize, "{gc:?}");
    assert_eq!(gc.retained, 0);

    let blocks_after = s.block_count();
    assert!(
        blocks_after * 2 <= blocks_before,
        "compaction must at least halve the block count: {blocks_before} -> {blocks_after}"
    );
    // The deleted sources must be gone from OSS and the surviving object
    // set must exactly mirror the map.
    let raw = s.shared().fault_layer().inner();
    let on_oss = raw.list("tenants/").unwrap().len();
    assert_eq!(on_oss, blocks_after, "OSS must hold exactly the mapped blocks");
    assert!(s.shared().metadata.tombstones().is_empty());

    for (q, reference) in queries.iter().zip(before) {
        // Scan the merged blocks cold: the block cache still holds the
        // deleted sources' neighborhoods unless eviction did its job.
        let after = s.query(q).unwrap();
        assert_eq!(after.rows, reference.rows, "result changed across compaction: {q}");
    }
}

/// The historical bug: a failed OSS delete aborted expiration *after* the
/// map was mutated, leaking the object forever. Now the map swap commits
/// first, the failed delete parks the path on the tombstone list, and the
/// next pass retries it.
#[test]
fn expired_block_survives_failed_delete_and_is_retried() {
    let s = LogStore::open(ClusterConfig::for_testing()).unwrap();
    s.set_retention(TenantId(1), Some(1_000));
    for i in 0..40 {
        s.ingest(vec![rec(1, i, "short-lived")]).unwrap();
    }
    s.flush().unwrap();
    assert_eq!(s.block_count(), 1);
    let path = s.shared().metadata.all_blocks(TenantId(1))[0].path.clone();

    // Every OSS op fails: the expire pass must still unmap the block.
    s.shared().fault_layer().fail_next(u64::MAX);
    let deleted = s.expire(Timestamp(100_000)).unwrap();
    assert_eq!(deleted, 0, "the delete failed; nothing may be reported deleted");
    assert!(s.shared().metadata.all_blocks(TenantId(1)).is_empty(), "map swap must commit");
    assert_eq!(count(&s, 1), 0, "expired rows must be invisible immediately");
    assert_eq!(
        s.shared().metadata.tombstones(),
        vec![path.clone()],
        "the undeleted object must be tombstoned, not forgotten"
    );
    let raw = s.shared().fault_layer().inner();
    assert!(raw.head(&path).is_ok(), "the object is still on OSS (delete failed)");

    // Next pass, faults cleared: the tombstone drains.
    s.shared().fault_layer().clear_faults();
    let gc = s.gc();
    assert_eq!(gc.deleted, 1);
    assert!(raw.head(&path).is_err(), "retried delete must remove the object");
    assert!(s.shared().metadata.tombstones().is_empty());
}

/// One tenant's OSS failure must not abort the other tenants' expiration:
/// the pass visits everyone, and only the failed delete's path stays
/// tombstoned.
#[test]
fn one_tenants_delete_failure_does_not_abort_others() {
    let s = LogStore::open(ClusterConfig::for_testing()).unwrap();
    for t in [1u64, 2] {
        s.set_retention(TenantId(t), Some(1_000));
        for i in 0..20 {
            s.ingest(vec![rec(t, i, "doomed")]).unwrap();
        }
    }
    s.flush().unwrap();
    assert_eq!(s.block_count(), 2);

    // Exactly one delete fails (tenant 1's block sorts first); tenant 2's
    // must proceed.
    s.shared().fault_layer().fail_next(1);
    let deleted = s.expire(Timestamp(100_000)).unwrap();
    assert_eq!(deleted, 1, "the other tenant's delete must not be aborted");
    assert!(s.shared().metadata.all_blocks(TenantId(1)).is_empty());
    assert!(s.shared().metadata.all_blocks(TenantId(2)).is_empty());
    assert_eq!(s.shared().metadata.tombstones().len(), 1);

    let gc = s.gc();
    assert_eq!(gc.deleted, 1, "the failed delete is retried next pass");
    assert_eq!(s.shared().fault_layer().inner().list("tenants/").unwrap().len(), 0);
}

/// Queries racing expiration and compaction: every query either succeeds
/// with a consistent result or reports a typed retryable error — never a
/// raw OSS `NotFound`, never a partial result.
#[test]
fn query_racing_expire_and_compact_never_sees_not_found() {
    let mut config = ClusterConfig::for_testing();
    config.rowstore_flush_bytes = 16 << 10;
    let s = Arc::new(LogStore::open(config).unwrap());
    s.set_retention(TenantId(1), Some(500));

    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..3 {
        let s = Arc::clone(&s);
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut queries = 0u64;
            let mut retried = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let sql = "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1";
                match s.query_with_options(sql, &QueryOptions::default()) {
                    Ok(exec) => retried += exec.stale_retries,
                    Err(e) => {
                        assert!(
                            e.is_retryable(),
                            "query must fail retryably or not at all, got: {e}"
                        );
                        retried += 1;
                    }
                }
                queries += 1;
            }
            (queries, retried)
        }));
    }

    // Writer/compactor/expirer loop: keep creating small blocks, merging
    // them, and expiring old ones while the readers hammer the map.
    let mut ts = 0i64;
    for cycle in 0..60 {
        for _ in 0..15 {
            ts += 10;
            s.ingest(vec![rec(1, ts, "churn")]).unwrap();
        }
        s.flush().unwrap();
        if cycle % 3 == 0 {
            s.compact().unwrap();
            s.gc();
        }
        if cycle % 4 == 0 {
            // Retention 500ms behind the newest row: steadily expire.
            s.expire(Timestamp(ts)).unwrap();
        }
    }
    stop.store(true, Ordering::Relaxed);
    let mut total_queries = 0;
    for reader in readers {
        let (queries, _retried) = reader.join().expect("reader must not panic");
        total_queries += queries;
    }
    assert!(total_queries > 0, "the readers never ran");
}

/// Retention semantics end to end: expired rows disappear from queries,
/// unexpired rows survive, accounting never underflows, and the final
/// OSS state mirrors the map.
#[test]
fn retention_expires_exactly_the_old_blocks() {
    let s = LogStore::open(ClusterConfig::for_testing()).unwrap();
    s.set_retention(TenantId(1), Some(1_000));
    // Old block: ts 0..50. New block: ts 5_000..5_050.
    for i in 0..50 {
        s.ingest(vec![rec(1, i, "old")]).unwrap();
    }
    s.flush().unwrap();
    for i in 0..50 {
        s.ingest(vec![rec(1, 5_000 + i, "new")]).unwrap();
    }
    s.flush().unwrap();
    assert_eq!(count(&s, 1), 100);

    // now = 5_500: the old block (max_ts 49 < 4_500) expires, the new one
    // (max_ts 5_049 > 4_500) must survive.
    let deleted = s.expire(Timestamp(5_500)).unwrap();
    assert_eq!(deleted, 1);
    assert_eq!(count(&s, 1), 50, "only unexpired rows survive");
    let usage = s.tenant_usage(TenantId(1));
    assert_eq!(usage.archived_rows, 50, "expire must debit the archived-row counter");
    assert_eq!(s.shared().fault_layer().inner().list("tenants/").unwrap().len(), 1);
}

/// The object tier follows a LogBlock's life: its handle is cached when
/// the block is registered, replaced by the merged block's when compaction
/// commits, and evicted when GC deletes the object. A query that planned
/// from the cached handles and loses the race to the delete — forced here,
/// not hoped for: the query's own first GET runs the compaction and the GC
/// — replans against the new map and returns the full result.
#[test]
fn cached_handles_follow_compaction_and_gc_and_a_racing_query_replans() {
    let s = Arc::new(LogStore::open(ClusterConfig::for_testing()).unwrap());
    let mut ts = 0i64;
    for _ in 0..6 {
        for _ in 0..30 {
            ts += 1;
            s.ingest(vec![rec(1, ts, "handle lifecycle")]).unwrap();
        }
        s.flush().unwrap();
    }
    let sources: Vec<String> =
        s.shared().metadata.all_blocks(TenantId(1)).into_iter().map(|e| e.path).collect();
    assert_eq!(sources.len(), 6);
    let cache = &s.shared().cache;
    assert!(sources.iter().all(|p| cache.handle(p).is_some()), "registered with the block");

    // Nothing has read a block yet, so the query's wave has to ask OSS;
    // the first GET for a source block does the compactor's and the
    // collector's work before it is allowed to proceed.
    let fired = Arc::new(AtomicBool::new(false));
    let hook = {
        let (engine, fired, sources) = (Arc::downgrade(&s), Arc::clone(&fired), sources.clone());
        move |path: &str| {
            if sources.iter().any(|p| p == path) && !fired.swap(true, Ordering::SeqCst) {
                let engine = engine.upgrade().expect("engine outlives its queries");
                let report = engine.compact().expect("compaction");
                assert_eq!(report.blocks_merged, 6);
                assert_eq!(engine.gc().deleted, 6);
            }
        }
    };
    s.shared().fault_layer().set_read_hook(Some(Arc::new(hook)));
    let sql = "SELECT log FROM request_log WHERE tenant_id = 1";
    let exec = s.query_with_options(sql, &QueryOptions::default()).expect("never a raw NotFound");
    s.shared().fault_layer().set_read_hook(None);

    assert!(fired.load(Ordering::SeqCst));
    assert!(exec.stale_retries >= 1, "the planned blocks vanished mid-query");
    assert_eq!(exec.result.rows.len(), 180, "the replanned attempt sees every row");
    assert!(sources.iter().all(|p| cache.handle(p).is_none()), "GC evicts handles with blocks");
    let merged = s.shared().metadata.all_blocks(TenantId(1));
    assert_eq!(merged.len(), 1);
    assert!(cache.handle(&merged[0].path).is_some(), "the merged block's handle is registered");
}
