//! Compaction, retention and GC end to end: the expire→delete ordering
//! fix (map swap before any delete, tombstones retried, one tenant's OSS
//! error isolated from the rest), background compaction of small
//! LogBlocks, and the query-vs-expire race surfacing as a clean retry
//! instead of a raw OSS `NotFound`.

use logstore::core::{
    ClusterConfig, CrashHooks, CrashPoint, LogStore, OpenParts, QueryOptions, SimCrash,
};
use logstore::oss::LatencyModel;
use logstore::oss::ObjectStore;
use logstore::types::{LogRecord, TenantId, Timestamp, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

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
    // The query set run cold — nothing is cold after a flush or a compact,
    // so the cache is dropped first — and the OSS GETs it cost.
    let run_cold = || {
        s.clear_cache();
        let gets = s.oss_metrics().get_requests;
        let results: Vec<_> = queries.iter().map(|q| s.query(q).unwrap()).collect();
        (results, s.oss_metrics().get_requests - gets)
    };
    let (before, gets_before) = run_cold();

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

    let (after, gets_after) = run_cold();
    for ((q, reference), after) in queries.iter().zip(before).zip(after) {
        assert_eq!(after.rows, reference.rows, "result changed across compaction: {q}");
    }
    assert!(
        gets_after * 2 <= gets_before,
        "compaction must at least halve the cold query set's OSS GETs: {gets_before} -> {gets_after}"
    );
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

/// The cache follows a LogBlock's life: the block is admitted — header
/// and bytes — when it is built, its successor when compaction merges it
/// (next test), and it is evicted when GC deletes the object. A query that
/// planned from the cached handles and loses the race to the delete —
/// forced here, not hoped for: the query's own first GET runs the
/// compaction and the GC — replans against the new map and returns the
/// full result.
#[test]
fn cached_handles_follow_compaction_and_gc_and_a_racing_query_replans() {
    let mut config = ClusterConfig::for_testing();
    // Small cache blocks, so that a LogBlock's header and its `log` column
    // are different blocks and one can be cached without the other.
    config.cache_block_size = 512;
    let s = Arc::new(LogStore::open(config).unwrap());
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
    assert!(sources.iter().all(|p| cache.handle(p).is_some()), "admitted with the block");

    // A reader that knows the blocks and has lost their data: drop
    // everything, then let a query the SMAs refute open the six headers.
    s.clear_cache();
    let refuted = "SELECT log FROM request_log WHERE tenant_id = 1 AND latency >= 1000000";
    let opened = s.query_with_options(refuted, &QueryOptions::default()).unwrap();
    assert_eq!((opened.result.rows.len(), opened.cache.object_misses), (0, 6));

    // So the query's wave has to ask OSS for the `log` column; the first
    // GET for a source block does the compactor's and the collector's
    // work before it is allowed to proceed.
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
    assert!(exec.cache.object_hits >= 6, "the first attempt planned from cached handles");
    assert!(exec.stale_retries >= 1, "the planned blocks vanished mid-query");
    assert_eq!(exec.result.rows.len(), 180, "the replanned attempt sees every row");
    assert!(sources.iter().all(|p| cache.handle(p).is_none()), "GC evicts handles with blocks");
    let merged = s.shared().metadata.all_blocks(TenantId(1));
    assert_eq!(merged.len(), 1);
    assert!(cache.handle(&merged[0].path).is_some(), "its first reader cached the merged handle");
}

/// Tenant `t` gets `blocks` small LogBlocks of 30 rows, one per flush.
fn small_blocks(s: &LogStore, t: u64, blocks: i64) {
    for b in 0..blocks {
        s.ingest((0..30).map(|i| rec(t, b * 30 + i, "write through")).collect()).unwrap();
        s.flush().unwrap();
    }
}

fn paths_of(s: &LogStore, t: u64) -> Vec<(String, u64)> {
    s.shared().metadata.all_blocks(TenantId(t)).into_iter().map(|e| (e.path, e.bytes)).collect()
}

fn all_rows(t: u64) -> String {
    format!("SELECT log, latency FROM request_log WHERE tenant_id = {t} AND log CONTAINS 'write'")
}

/// A block a flush just built is read without a request, and so is the
/// block a compaction merged out of such blocks — a pass that itself asks
/// OSS for nothing and leaves the hit counters to the queries. What the
/// cache was handed is what OSS holds: the same query from a cold cache
/// answers the same.
#[test]
fn fresh_and_merged_blocks_are_read_from_memory_and_compaction_reads_resident_sources() {
    let mut config = ClusterConfig::for_testing();
    config.cache_block_size = 512;
    let s = LogStore::open(config).unwrap();
    small_blocks(&s, 1, 5);
    assert_eq!(s.block_count(), 5);
    let gets = || s.oss_metrics().get_requests;
    assert_eq!(gets(), 0);

    let fresh = s.query_with_options(&all_rows(1), &QueryOptions::default()).unwrap();
    assert_eq!(fresh.result.rows.len(), 150);
    assert_eq!(gets(), 0, "no round for bytes this process just wrote");
    assert_eq!((fresh.cache.object_misses, fresh.cache.misses), (0, 0));

    let before = s.cache_stats();
    let report = s.compact().unwrap();
    assert_eq!((report.runs_committed, report.blocks_merged), (1, 5));
    assert_eq!(gets(), 0, "every source was resident");
    assert_eq!(s.cache_stats(), before, "compaction's reads are not lookups");

    let merged = s.query_with_options(&all_rows(1), &QueryOptions::default()).unwrap();
    assert_eq!(gets(), 0, "the merged block inherited its sources' residency");
    assert_eq!((merged.cache.object_hits, merged.cache.object_misses), (1, 0));
    assert_eq!(merged.cache.misses, 0);
    assert_eq!(merged.result, fresh.result);

    assert_eq!(s.gc().deleted, 5);
    s.clear_cache();
    let cold = s.query_with_options(&all_rows(1), &QueryOptions::default()).unwrap();
    assert!(gets() >= 2 && cold.cache.object_misses == 1, "header round, data round");
    assert_eq!((&cold.result, &cold.stats), (&merged.result, &merged.stats));
}

/// Residency is inherited, not configured. A compaction over sources the
/// cache does not hold whole downloads each exactly once, whole, caches
/// none of them and does not admit what it merged; one resident source is
/// enough for the merged block to be admitted.
#[test]
fn compaction_of_cold_sources_leaves_the_cache_alone() {
    let mut config = ClusterConfig::for_testing();
    // Cache blocks well under a source's ≈ 700 bytes, so that a query of
    // two of its columns leaves the object's tail uncached.
    config.cache_block_size = 128;
    let s = LogStore::open(config).unwrap();
    let gets = || s.oss_metrics().get_requests;
    let prefetcher = &s.shared().prefetcher;
    let cache = &s.shared().cache;

    // Tenant 1: five cold sources, the first one partly read back in.
    small_blocks(&s, 1, 5);
    s.clear_cache();
    let partly = "SELECT latency FROM request_log WHERE tenant_id = 1 AND ts <= 10";
    assert_eq!(s.query(partly).unwrap().rows.len(), 11);
    let sources = paths_of(&s, 1);
    assert!(sources.iter().all(|(path, bytes)| prefetcher.resident(path, *bytes).is_none()));
    let before = gets();
    let report = s.compact().unwrap();
    assert_eq!((report.runs_committed, report.blocks_merged), (1, 5));
    assert_eq!(gets() - before, 5, "one whole-object GET per source, partly cached or not");
    for (path, bytes) in &sources[1..] {
        assert!(cache.handle(path).is_none(), "{path}");
        assert_eq!(cache.evict_object(path), 0, "no block of a cold source was cached: {path}");
        assert!(prefetcher.resident(path, *bytes).is_none());
    }
    let merged = paths_of(&s, 1);
    assert_eq!(merged.len(), 1);
    assert!(cache.handle(&merged[0].0).is_none(), "cold stays cold");
    assert_eq!(cache.evict_object(&merged[0].0), 0);

    // Tenant 2: four cold sources and one the last flush just admitted.
    small_blocks(&s, 2, 4);
    s.clear_cache();
    small_blocks(&s, 2, 1);
    let before = gets();
    let report = s.compact().unwrap();
    assert_eq!((report.runs_committed, report.blocks_merged), (1, 5));
    assert_eq!(gets() - before, 4, "the resident source is not downloaded");
    let merged = paths_of(&s, 2);
    assert_eq!(merged.len(), 1);
    assert!(cache.handle(&merged[0].0).is_some());
    assert!(prefetcher.resident(&merged[0].0, merged[0].1).is_some(), "one is enough");
}

/// Runs `act` against the engine each time `point` is reached: what
/// someone who arrives at exactly that instant sees, or does.
struct At {
    point: CrashPoint,
    engine: Mutex<Weak<LogStore>>,
    act: Box<dyn Fn(&LogStore) + Send + Sync>,
}

impl CrashHooks for At {
    fn reached(&self, point: CrashPoint) {
        let engine = self.engine.lock().unwrap().upgrade();
        if let (true, Some(s)) = (point == self.point, engine) {
            (self.act)(&s);
        }
    }
}

fn open_with_hook(
    config: ClusterConfig,
    point: CrashPoint,
    act: impl Fn(&LogStore) + Send + Sync + 'static,
) -> Arc<LogStore> {
    let hooks = Arc::new(At { point, engine: Mutex::new(Weak::new()), act: Box::new(act) });
    let parts = OpenParts { hooks: Some(hooks.clone()), ..OpenParts::default() };
    let s = Arc::new(LogStore::open_with(config, parts).unwrap());
    *hooks.engine.lock().unwrap() = Arc::downgrade(&s);
    s
}

/// `(GETs the query issued, its object-tier hits, rows returned)` of one
/// query run from inside a crash point.
type Seen = Arc<Mutex<Vec<(u64, u64, usize)>>>;

/// An engine that runs `sql` whenever it reaches `point` — what a reader
/// arriving at that instant pays — and keeps what the query saw for the
/// test to judge once the operation has returned.
fn open_querying_at(
    config: ClusterConfig,
    point: CrashPoint,
    sql: String,
) -> (Arc<LogStore>, Seen) {
    let seen = Seen::default();
    let record = Arc::clone(&seen);
    let s = open_with_hook(config, point, move |s| {
        let before = s.oss_metrics().get_requests;
        let exec = s.query_with_options(&sql, &QueryOptions::default()).unwrap();
        let gets = s.oss_metrics().get_requests - before;
        record.lock().unwrap().push((gets, exec.cache.object_hits, exec.result.rows.len()));
    });
    (s, seen)
}

/// A block is never visible before it is cached. The map names a merged
/// block from `commit_compaction` on and a drained block from
/// `commit_drain` on; a query issued at the very next crash point — the
/// first run of a two-run pass has committed, the second may be uploaded
/// but is not swapped in yet; the drain is registered, not yet acked —
/// must find header and bytes in
/// memory. (Handles used to be inserted after the whole pass, or the whole
/// drain, had returned: such a query opened the header itself and then
/// fetched the data, two serial rounds.)
#[test]
fn a_block_is_cached_before_the_map_names_it() {
    // Small cache blocks: header and columns are different blocks, as
    // they are in a LogBlock of real size.
    let mut config = ClusterConfig::for_testing();
    config.cache_block_size = 512;
    // Compaction: tenants 1 and 2, one run each; query tenant 1 at each
    // `CompactCommitted`.
    let (s, seen) = open_querying_at(config.clone(), CrashPoint::CompactCommitted, all_rows(1));
    small_blocks(&s, 1, 3);
    small_blocks(&s, 2, 3);
    let report = s.compact().unwrap();
    assert_eq!(report.runs_committed, 2);
    let seen = std::mem::take(&mut *seen.lock().unwrap());
    assert_eq!(seen.len(), 2);
    assert_eq!(seen[0], (0, 1, 90), "after the first run's commit: (GETs, object hits, rows)");
    assert_eq!(seen[1], (0, 1, 90));

    // Drain: query the flushed tenant at `AfterUpload`.
    let (s, seen) = open_querying_at(config, CrashPoint::AfterUpload, all_rows(3));
    s.ingest((0..30).map(|i| rec(3, i, "write through")).collect()).unwrap();
    assert_eq!(s.flush().unwrap().blocks_built, 1);
    let seen = std::mem::take(&mut *seen.lock().unwrap());
    assert_eq!(seen, vec![(0, 1, 30)], "registered, not yet acked: (GETs, object hits, rows)");
}

/// An admission whose registration never happens is garbage the existing
/// collector already collects. The run loses its race after the merged
/// block was admitted (a source expires between upload and swap): the
/// merged path is tombstoned, and the GC pass that deletes the object
/// evicts header and blocks.
#[test]
fn a_lost_race_leaves_the_merged_block_cached_only_until_gc() {
    let s = open_with_hook(ClusterConfig::for_testing(), CrashPoint::CompactUploaded, |s| {
        s.set_retention(TenantId(1), Some(1));
        assert!(!s.shared().metadata.expire(TenantId(1), Timestamp(1_000_000)).is_empty());
    });
    small_blocks(&s, 1, 3);
    let sources: Vec<String> = paths_of(&s, 1).into_iter().map(|(path, _)| path).collect();

    let report = s.compact().unwrap();
    assert_eq!((report.runs_committed, report.runs_lost_races), (0, 1));
    let tombstones = s.shared().metadata.tombstones();
    let aborted: Vec<&String> = tombstones.iter().filter(|p| !sources.contains(p)).collect();
    assert_eq!((tombstones.len(), aborted.len()), (4, 1), "{tombstones:?}");
    let cache = &s.shared().cache;
    assert!(cache.handle(aborted[0]).is_some(), "admitted before the swap was attempted");

    assert_eq!(s.gc().deleted, 4);
    assert!(cache.handle(aborted[0]).is_none());
    assert_eq!(cache.evict_object(aborted[0]), 0, "no block of it is left either");
    assert_eq!(count(&s, 1), 0);
}

/// A crash inside a pass whose merged blocks are PUT as one wave. The
/// engine crashes at the *second* run's plan, upload or swap, with the
/// PUTs of the runs beside it in flight or done, and the same engine then
/// collects and compacts again: every row counts once, nothing is left
/// pending, and OSS holds only what the map names or the tombstone list
/// will delete. (A crash at one run's point can leave later runs uploaded
/// but uncommitted; the GC pass sweeps them.)
#[test]
fn a_crash_inside_a_multi_run_pass_loses_and_leaks_nothing() {
    let mut config = ClusterConfig::for_testing();
    config.prefetch_threads = 8;
    config.oss_latency = LatencyModel::oss_like().with_time_scale(0.1);
    let tenants = [1u64, 2, 3, 4];
    // The merged paths the crash leaves pending: at the second run's plan,
    // the first run's and its own; at its upload, its own and the two later
    // runs' (the wave was fed every run before the first settled); at its
    // swap, the two later runs'.
    let pending = [
        (CrashPoint::CompactPlanned, 2),
        (CrashPoint::CompactUploaded, 3),
        (CrashPoint::CompactCommitted, 2),
    ];
    for (point, orphans) in pending {
        let reached = AtomicU64::new(0);
        let s = open_with_hook(config.clone(), point, move |_| {
            if reached.fetch_add(1, Ordering::SeqCst) == 1 {
                std::panic::panic_any(SimCrash(point));
            }
        });
        for t in tenants {
            small_blocks(&s, t, 3);
        }
        let crashed = catch_unwind(AssertUnwindSafe(|| s.compact())).expect_err("no crash");
        let at = crashed.downcast_ref::<SimCrash>().map(|crash| crash.0);
        assert_eq!(at, Some(point), "the injected crash, not another panic");

        assert_eq!(s.gc().orphans_swept, orphans, "{point:?}");
        s.compact().unwrap();
        let metadata = &s.shared().metadata;
        for t in tenants {
            assert_eq!(count(&s, t), 90, "{point:?}: tenant {t}");
            assert_eq!(metadata.all_blocks(TenantId(t)).len(), 1, "{point:?}: tenant {t}");
        }
        assert!(metadata.pending_paths().is_empty(), "{point:?}");
        let known: Vec<String> = tenants
            .iter()
            .flat_map(|&t| metadata.all_blocks(TenantId(t)))
            .map(|entry| entry.path)
            .chain(metadata.tombstones())
            .collect();
        for path in s.shared().fault_layer().inner().list("tenants/").unwrap() {
            assert!(known.contains(&path), "{point:?}: {path} is neither mapped nor tombstoned");
        }
    }
}
