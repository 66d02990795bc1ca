//! Archive-pipeline fault injection: no ingested row may disappear, no
//! matter where the drain → build → upload → ack → WAL cut chain breaks.
//!
//! The simulated OSS and the LogBlock map are in-memory and die with the
//! engine, so cross-"crash" checks exercise the WAL half of the
//! invariant: a flush that failed (or never acked) must leave every row
//! WAL-covered, and a reopened engine must replay exactly one copy.
//!
//! The loss oracles run both with one upload in flight and with eight:
//! overlapped PUTs reach the fault injector in a scheduling-dependent
//! order, so these tests check exactly-once counts, never a trace. A build
//! pass runs the workers' archive steps side by side, so a crash test with
//! more than one worker identifies its crash by the typed payload, not by
//! which step reached the point first.

use logstore::core::engine::ClusterShared;
use logstore::core::{
    ClusterConfig, CrashHooks, CrashPoint, DrainId, LogStore, MetadataStore, OpenParts,
    QueryOptions, SimCrash,
};
use logstore::oss::{FaultScope, RetryPolicy};
use logstore::types::{LogRecord, ShardId, TenantId, Timestamp, Value};
use logstore::workload::queries::tenant_queries;
use logstore::workload::{LogRecordGenerator, WorkloadSpec};
use rand::SeedableRng;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock, Weak};
use std::thread::ThreadId;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("logstore-it-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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

/// Fails OSS writes with `probability` from now on.
fn write_faults(s: &LogStore, probability: f64) {
    let faults = s.shared().fault_layer();
    faults.set_scope(FaultScope::Writes);
    faults.set_probability(probability);
}

fn count(s: &LogStore, tenant: u64) -> u64 {
    let sql = format!("SELECT COUNT(*) FROM request_log WHERE tenant_id = {tenant}");
    s.query(&sql).expect("count query").rows[0][0].as_u64().unwrap()
}

/// The acceptance loop: writes fail with probability 0.3 while ≥10k
/// records stream through ingest and periodic flushes. The retry layer
/// absorbs most faults; terminal failures restore rows to the row store.
/// At every step, per-tenant COUNT(*) equals what was ingested.
#[test]
fn no_row_is_lost_under_write_faults() {
    for upload_width in [1, 8] {
        no_row_is_lost_at(upload_width);
    }
}

fn no_row_is_lost_at(upload_width: usize) {
    let mut config = ClusterConfig::for_testing();
    config.prefetch_threads = upload_width;
    config.oss_retry = RetryPolicy::archival_default().with_max_attempts(10);
    // Flush eagerly so the fault injector sees plenty of uploads.
    config.rowstore_flush_bytes = 16 << 10;
    let s = LogStore::open(config).unwrap();
    write_faults(&s, 0.3);

    const TENANTS: u64 = 4;
    const TOTAL: u64 = 12_000;
    let mut ingested = [0u64; TENANTS as usize + 1];
    for i in 0..TOTAL {
        let tenant = 1 + i % TENANTS;
        let report = s.ingest(vec![rec(tenant, i as i64, "fault loop")]).unwrap();
        assert_eq!(report.accepted, 1, "backpressure should not trigger in this workload");
        ingested[tenant as usize] += 1;
        if i % 1500 == 0 {
            // Forced flushes may fail terminally; rows must survive anyway.
            let _ = s.flush();
            for t in 1..=TENANTS {
                assert_eq!(count(&s, t), ingested[t as usize], "tenant {t} lost rows mid-loop");
            }
        }
    }
    // Terminal failures are possible but the rows always come back; drive
    // the backlog down with repeated flushes (p(fail) per pass is tiny).
    for _ in 0..50 {
        if s.flush().is_ok() {
            break;
        }
    }
    for t in 1..=TENANTS {
        assert_eq!(count(&s, t), ingested[t as usize], "tenant {t} lost rows at the end");
    }
    let retries = s.retry_metrics();
    assert!(retries.retries > 0, "p=0.3 write faults must have forced retries");
    assert!(s.shared().fault_layer().injected() > 0, "the fault injector must actually have fired");
}

/// With faults disabled, the fault-tolerant pipeline must be a no-op:
/// results are byte-identical to the sequential reference path and to a
/// fault-free engine running the same workload.
#[test]
fn fault_free_run_matches_the_sequential_path() {
    let workload: Vec<LogRecord> = (0..3_000i64)
        .map(|i| {
            rec(1 + i as u64 % 3, i, if i % 11 == 0 { "timeout calling upstream" } else { "ok" })
        })
        .collect();

    let mut faulty_config = ClusterConfig::for_testing();
    faulty_config.oss_retry = RetryPolicy::archival_default().with_max_attempts(10);
    let faulty = LogStore::open(faulty_config).unwrap();
    write_faults(&faulty, 0.3);
    let clean = LogStore::open(ClusterConfig::for_testing()).unwrap();

    for chunk in workload.chunks(100) {
        faulty.ingest(chunk.to_vec()).unwrap();
        clean.ingest(chunk.to_vec()).unwrap();
    }
    for _ in 0..50 {
        if faulty.flush().is_ok() {
            break;
        }
    }
    clean.flush().unwrap();

    for sql in [
        "SELECT log FROM request_log WHERE tenant_id = 1 ORDER BY ts ASC",
        "SELECT COUNT(*) FROM request_log WHERE tenant_id = 2",
        "SELECT log FROM request_log WHERE tenant_id = 3 AND log CONTAINS 'timeout'",
    ] {
        let via_faults = faulty.query(sql).unwrap();
        let via_clean = clean.query(sql).unwrap();
        let sequential =
            clean.query_with_options(sql, &QueryOptions::baseline().with_parallelism(1)).unwrap();
        assert_eq!(via_faults.rows, via_clean.rows, "faulty-but-retried run diverged: {sql}");
        assert_eq!(via_clean.rows, sequential.result.rows, "parallel vs sequential: {sql}");
    }
}

fn durable_config(dir: &Path) -> ClusterConfig {
    let mut config = ClusterConfig::for_testing();
    config.data_dir = Some(dir.to_path_buf());
    config.oss_retry = RetryPolicy::archival_default().with_max_attempts(3);
    config
}

fn durable_config_at(dir: &Path, upload_width: usize) -> ClusterConfig {
    let mut config = durable_config(dir);
    config.prefetch_threads = upload_width;
    config
}

/// Crash between drain and OSS durability: a flush whose uploads fail
/// terminally must leave every row WAL-covered, so an engine that dies
/// right after recovers all of them.
#[test]
fn crash_after_failed_flush_loses_nothing() {
    for upload_width in [1, 8] {
        crash_after_failed_flush_at(upload_width);
    }
}

fn crash_after_failed_flush_at(upload_width: usize) {
    let dir = temp_dir(&format!("crash-w{upload_width}"));
    const ROWS: i64 = 500;
    const TENANTS: u64 = 10;
    let total = |s: &LogStore| (1..=TENANTS).map(|t| count(s, t)).sum::<u64>();
    {
        let s = LogStore::open(durable_config_at(&dir, upload_width)).unwrap();
        // Several tenants, so every shard's drain spans several chunks and
        // the upload wave really has more than one PUT in flight.
        for i in 0..ROWS {
            s.ingest(vec![rec(1 + i as u64 % TENANTS, i, "must survive")]).unwrap();
        }
        // Every upload attempt fails: the flush drains the shards, exhausts
        // the retry budget, restores the rows and reports the error.
        s.shared().fault_layer().fail_next(u64::MAX);
        let err = s.flush().expect_err("flush must surface the terminal upload failure");
        assert!(err.to_string().contains("injected oss fault"), "{err}");
        let stats = s.archive_stats();
        assert!(stats.failed_passes > 0);
        assert_eq!(stats.rows_restored, ROWS as u64, "every drained row must be restored");
        // Restored rows are still queryable pre-crash.
        assert_eq!(total(&s), ROWS as u64);
        // Engine dropped here without a successful flush = crash.
    }
    let s = LogStore::open(durable_config_at(&dir, upload_width)).unwrap();
    assert_eq!(total(&s), ROWS as u64, "the WAL must replay every unarchived row");
    let _ = std::fs::remove_dir_all(dir);
}

/// The ack protocol end to end: a failed flush keeps the WAL (rows would
/// replay), the recovery flush succeeds, acks, and checkpoints — after
/// which the WAL is empty and nothing resurrects on reopen.
#[test]
fn recovery_flush_acks_and_checkpoints() {
    let dir = temp_dir("ack");
    {
        let s = LogStore::open(durable_config(&dir)).unwrap();
        for i in 0..200 {
            s.ingest(vec![rec(1, i, "two-phase")]).unwrap();
        }
        s.shared().fault_layer().fail_next(u64::MAX);
        assert!(s.flush().is_err());
        s.shared().fault_layer().clear_faults();
        // Recovery: the restored rows flush cleanly this time.
        let report = s.flush().unwrap();
        assert_eq!(report.rows_archived, 200);
        assert!(s.block_count() >= 1);
        assert_eq!(count(&s, 1), 200, "archived rows stay queryable from OSS");
    }
    // The in-memory OSS died with the engine, so anything the reopened
    // engine still sees must have come from the WAL. A truncated WAL —
    // the ack happened — replays nothing.
    let s = LogStore::open(durable_config(&dir)).unwrap();
    assert_eq!(count(&s, 1), 0, "acked rows must not replay: the checkpoint truncated the WAL");
    let _ = std::fs::remove_dir_all(dir);
}

/// A drain that committed part of its chunks and then crashed replays with
/// the chunk cap it was partitioned with, not the one the restarted engine
/// is configured with: exactly the uncommitted chunks come back.
#[test]
fn a_restart_with_a_different_logblock_cap_keeps_every_acked_row() {
    let dir = temp_dir("cap-change");
    let config_at = |cap: usize| {
        let mut config = durable_config_at(&dir, 1);
        config.max_rows_per_logblock = cap;
        config
    };
    let s = LogStore::open(config_at(10)).unwrap();
    s.ingest((0..30).map(|i| rec(1, i, "capped")).collect()).unwrap();
    // Three chunks of 10; the first PUT lands, the second (and its
    // retries, and everything after) fails.
    let faults = s.shared().fault_layer();
    faults.set_scope(FaultScope::Writes);
    faults.fail_ops(std::slice::from_ref(&(faults.op_index() + 1..u64::MAX)));
    assert!(s.flush().is_err());
    assert_eq!(s.archive_stats().rows_restored, 20, "one chunk committed, two restored");
    let parts = OpenParts {
        store: Some(Arc::clone(&s.shared().store)),
        metadata: Some(Arc::clone(&s.shared().metadata)),
        hooks: None,
    };
    drop(s);
    let s = LogStore::open_with(config_at(100), parts).unwrap();
    assert_eq!(count(&s, 1), 30, "10 rows on OSS and 20 replayed into the row store");
    let _ = std::fs::remove_dir_all(dir);
}

/// Reports each `AfterDrain` to the test thread and holds the flush there
/// until the test thread answers — the window in which the drained shard's
/// rows are in neither the row store nor the LogBlock map.
struct PauseAfterDrain {
    reached: Mutex<mpsc::Sender<()>>,
    resume: Mutex<mpsc::Receiver<()>>,
}

impl CrashHooks for PauseAfterDrain {
    fn reached(&self, point: CrashPoint) {
        if point == CrashPoint::AfterDrain {
            self.reached.lock().unwrap().send(()).unwrap();
            self.resume.lock().unwrap().recv().unwrap();
        }
    }
}

/// Shards are drained one at a time, each right before its own upload: a
/// query that runs while one shard's drain is outstanding still finds the
/// rows of every other shard — in the row store if their turn has not
/// come, on OSS if it has. (Draining a whole worker's shards ahead of the
/// first upload, as the build pass once did, hid the second shard's rows
/// for the whole of the first shard's upload.)
#[test]
fn a_query_during_one_shards_upload_sees_the_other_shards_rows() {
    let (reached_tx, reached_rx) = mpsc::channel();
    let (resume_tx, resume_rx) = mpsc::channel();
    let hooks = Arc::new(PauseAfterDrain {
        reached: Mutex::new(reached_tx),
        resume: Mutex::new(resume_rx),
    });
    let mut config = ClusterConfig::for_testing();
    config.workers = 1;
    config.shards_per_worker = 2;
    let parts = OpenParts { hooks: Some(hooks), ..OpenParts::default() };
    let s = LogStore::open_with(config, parts).unwrap();

    // Find one tenant homed on each shard of the single worker.
    const ROWS: u64 = 40;
    for tenant in 1..=8u64 {
        s.ingest((0..ROWS as i64).map(|i| rec(tenant, i, "shard by shard")).collect()).unwrap();
    }
    let worker = s.shared().worker_snapshot().remove(0);
    let on_shard_0 = worker.store(ShardId(0)).unwrap().buffered_tenants();
    let on_shard_1 = worker.store(ShardId(1)).unwrap().buffered_tenants();
    let only_on = |here: &[TenantId], there: &[TenantId]| {
        here.iter().find(|t| !there.contains(t)).expect("test sizing: a shard got no tenant").raw()
    };
    let first = only_on(&on_shard_0, &on_shard_1);
    let second = only_on(&on_shard_1, &on_shard_0);

    // Observe inside the pauses, assert after the flush has been released:
    // a failed assertion must not leave the flush thread parked.
    let (seen_second, seen_first, archived) = std::thread::scope(|scope| {
        let flush = scope.spawn(|| s.flush());
        // Shard 0 is drained, its upload not started.
        reached_rx.recv().unwrap();
        let seen_second = count(&s, second);
        resume_tx.send(()).unwrap();
        // Shard 1 is drained; shard 0's rows are committed and acked.
        reached_rx.recv().unwrap();
        let seen_first = count(&s, first);
        resume_tx.send(()).unwrap();
        (seen_second, seen_first, flush.join().unwrap().unwrap().rows_archived)
    });
    assert_eq!(seen_second, ROWS, "shard 1 was drained ahead of shard 0's upload");
    assert_eq!(seen_first, ROWS, "shard 0's rows must be readable from OSS");
    assert_eq!(archived, 8 * ROWS);
    assert_eq!(count(&s, first) + count(&s, second), 2 * ROWS);
}

/// Crashes the engine the first time it reaches `point`, with the typed
/// panic the simulation harness uses.
struct CrashOnce {
    point: CrashPoint,
    armed: AtomicBool,
}

impl CrashHooks for CrashOnce {
    fn reached(&self, point: CrashPoint) {
        if point == self.point && self.armed.swap(false, Ordering::SeqCst) {
            std::panic::panic_any(SimCrash(point));
        }
    }
}

/// A crash between an ack's WAL cut and the pruning of the drain commits
/// the cut made unreachable: the reopened engine holds every acked row
/// exactly once — on OSS, with nothing replayed — and the next cut prunes
/// the record the crash left behind.
#[test]
fn a_crash_after_the_cut_keeps_acked_rows_once_and_the_next_cut_prunes() {
    let dir = temp_dir("after-truncate");
    let mut config = durable_config(&dir);
    config.workers = 1;
    config.shards_per_worker = 1;
    let commits_left = |metadata: &MetadataStore| {
        let committed = |lsn| metadata.drain_commit(DrainId { shard: ShardId(0), lsn }).is_some();
        (1..64).filter(|&lsn| committed(lsn)).count()
    };
    let hooks =
        Arc::new(CrashOnce { point: CrashPoint::AfterTruncate, armed: AtomicBool::new(true) });
    let s = LogStore::open_with(
        config.clone(),
        OpenParts { hooks: Some(hooks), ..OpenParts::default() },
    )
    .unwrap();
    s.ingest((0..50).map(|i| rec(1, i, "acked once")).collect()).unwrap();
    let crash = std::panic::catch_unwind(AssertUnwindSafe(|| s.flush()))
        .expect_err("the flush must crash after its cut");
    assert!(matches!(crash.downcast_ref(), Some(SimCrash(CrashPoint::AfterTruncate))));
    let store = Arc::clone(&s.shared().store);
    let metadata = Arc::clone(&s.shared().metadata);
    drop(s);
    assert_eq!(commits_left(&metadata), 1, "the crash left the drain's commit record");

    let parts =
        OpenParts { store: Some(store), metadata: Some(Arc::clone(&metadata)), hooks: None };
    let s = LogStore::open_with(config, parts).unwrap();
    let worker = s.shared().worker_snapshot().remove(0);
    assert_eq!(worker.buffered_rows(ShardId(0)).unwrap(), 0, "the cut WAL replays nothing");
    assert_eq!(count(&s, 1), 50, "every acked row, once, from OSS");
    s.ingest((50..60).map(|i| rec(1, i, "after the crash")).collect()).unwrap();
    s.flush().unwrap();
    assert_eq!(commits_left(&metadata), 0, "the next cut prunes the record the crash left");
    assert_eq!(count(&s, 1), 60);
    let _ = std::fs::remove_dir_all(dir);
}

/// Ingests `rows` rows for each of `tenants` tenants and checks that every
/// shard of every worker holds some, so a forced pass drains them all.
fn load_every_shard(s: &LogStore, tenants: u64, rows: i64) {
    for tenant in 1..=tenants {
        s.ingest((0..rows).map(|i| rec(tenant, i, "one pass")).collect()).unwrap();
    }
    for worker in s.shared().worker_snapshot() {
        for shard in worker.shard_ids() {
            assert!(worker.buffered_rows(shard).unwrap() > 0, "test sizing: {shard} got no tenant");
        }
    }
}

/// The archive crash lattice under a concurrent build pass: two workers
/// archive side by side, and the crash fires in whichever step reaches the
/// point first while the other worker's steps run on. The caller sees the
/// typed crash, and the engine reopened on the surviving OSS and metadata
/// holds every acked row exactly once and flushes cleanly.
#[test]
fn a_crash_in_a_concurrent_pass_keeps_every_acked_row_once() {
    const TENANTS: u64 = 16;
    const ROWS: i64 = 30;
    for point in [CrashPoint::AfterDrain, CrashPoint::AfterUpload, CrashPoint::AfterTruncate] {
        let dir = temp_dir(&format!("concurrent-{point:?}"));
        let config = durable_config_at(&dir, 4);
        let hooks = Arc::new(CrashOnce { point, armed: AtomicBool::new(true) });
        let s = LogStore::open_with(
            config.clone(),
            OpenParts { hooks: Some(hooks), ..OpenParts::default() },
        )
        .unwrap();
        load_every_shard(&s, TENANTS, ROWS);
        let crash = std::panic::catch_unwind(AssertUnwindSafe(|| s.flush()))
            .expect_err("the pass must crash");
        assert!(
            matches!(crash.downcast_ref(), Some(&SimCrash(at)) if at == point),
            "{point:?}: the crash reached the caller without its payload"
        );
        let parts = OpenParts {
            store: Some(Arc::clone(&s.shared().store)),
            metadata: Some(Arc::clone(&s.shared().metadata)),
            hooks: None,
        };
        drop(s);
        let s = LogStore::open_with(config, parts).unwrap();
        for t in 1..=TENANTS {
            assert_eq!(count(&s, t), ROWS as u64, "{point:?}: tenant {t} after reopen");
        }
        s.flush().unwrap();
        for t in 1..=TENANTS {
            assert_eq!(count(&s, t), ROWS as u64, "{point:?}: tenant {t} after the next flush");
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Arrivals at `AfterDrain`, and how many of them are waiting.
#[derive(Default)]
struct Arrivals {
    arrived: usize,
    waiting: usize,
}

/// Holds the first step to reach `AfterDrain` until a second one arrives,
/// for at most ten seconds, and records whether one arrived while the
/// first was still there — two steps in flight together.
#[derive(Default)]
struct MeetAfterDrain {
    arrivals: Mutex<Arrivals>,
    changed: Condvar,
    met: AtomicBool,
}

impl CrashHooks for MeetAfterDrain {
    fn reached(&self, point: CrashPoint) {
        if point != CrashPoint::AfterDrain {
            return;
        }
        let mut arrivals = self.arrivals.lock().unwrap();
        arrivals.arrived += 1;
        if arrivals.waiting > 0 {
            self.met.store(true, Ordering::SeqCst);
        }
        self.changed.notify_all();
        if arrivals.arrived == 1 {
            arrivals.waiting += 1;
            let (mut arrivals, _) = self
                .changed
                .wait_timeout_while(arrivals, Duration::from_secs(10), |a| a.arrived < 2)
                .unwrap();
            arrivals.waiting -= 1;
        }
    }
}

/// Records each archive point with the shards emptied so far — the shard
/// whose step reached it is the newest of them — and the thread it ran on.
#[derive(Default)]
struct RecordSteps {
    shared: OnceLock<Weak<ClusterShared>>,
    seen: Mutex<Vec<(CrashPoint, Vec<u32>, ThreadId)>>,
}

impl CrashHooks for RecordSteps {
    fn reached(&self, point: CrashPoint) {
        if point == CrashPoint::AfterWalAppend {
            return;
        }
        let shared = self.shared.get().and_then(Weak::upgrade).expect("the engine is wired");
        let mut emptied = Vec::new();
        for worker in shared.worker_snapshot() {
            for shard in worker.shard_ids() {
                if worker.buffered_rows(shard).unwrap() == 0 {
                    emptied.push(shard.raw());
                }
            }
        }
        self.seen.lock().unwrap().push((point, emptied, std::thread::current().id()));
    }
}

/// With room for more than one step in flight, a forced pass runs two
/// workers' steps together, and a threshold pass stays on the calling
/// thread even with every worker due; with one request per operation a
/// pass runs every step on the calling thread in (worker, shard) order,
/// drain to cut, exactly as a serial loop over the shards would.
#[test]
fn a_pass_overlaps_workers_when_it_may_and_stays_serial_when_it_must() {
    const TENANTS: u64 = 16;
    const ROWS: i64 = 30;
    let caller = std::thread::current().id();
    let mut config = ClusterConfig::for_testing();
    config.prefetch_threads = 4;
    let meet = Arc::new(MeetAfterDrain::default());
    let parts = OpenParts { hooks: Some(Arc::clone(&meet) as _), ..OpenParts::default() };
    let s = LogStore::open_with(config, parts).unwrap();
    load_every_shard(&s, TENANTS, ROWS);
    assert_eq!(s.flush().unwrap().rows_archived, TENANTS * ROWS as u64);
    assert!(meet.met.load(Ordering::SeqCst), "no two workers' steps were in flight together");

    // A threshold pass runs on the calling thread: one ingest puts every
    // shard of both workers over a one-byte threshold.
    let record = Arc::new(RecordSteps::default());
    let parts = OpenParts { hooks: Some(Arc::clone(&record) as _), ..OpenParts::default() };
    let mut config = ClusterConfig::for_testing();
    config.prefetch_threads = 4;
    config.rowstore_flush_bytes = 1;
    let s = LogStore::open_with(config, parts).unwrap();
    record.shared.set(Arc::downgrade(s.shared())).unwrap();
    let batch = (1..=TENANTS).flat_map(|t| (0..ROWS).map(move |i| rec(t, i, "every worker due")));
    assert_eq!(s.ingest(batch.collect()).unwrap().accepted, TENANTS * ROWS as u64);
    let seen = record.seen.lock().unwrap().clone();
    let drains = seen.iter().filter(|(point, ..)| *point == CrashPoint::AfterDrain).count();
    assert_eq!(drains, 4, "test sizing: the ingest's threshold pass drains every shard");
    assert!(seen.iter().all(|(.., thread)| *thread == caller), "a threshold pass left the caller");

    let dir = temp_dir("serial-pass");
    let record = Arc::new(RecordSteps::default());
    let parts = OpenParts { hooks: Some(Arc::clone(&record) as _), ..OpenParts::default() };
    let s = LogStore::open_with(durable_config_at(&dir, 1), parts).unwrap();
    record.shared.set(Arc::downgrade(s.shared())).unwrap();
    load_every_shard(&s, TENANTS, ROWS);
    s.flush().unwrap();
    let seen = record.seen.lock().unwrap().clone();
    assert!(seen.iter().all(|(.., thread)| *thread == caller), "a serial pass left the caller");
    let mut expected = Vec::new();
    for shard in 0..4 {
        let emptied: Vec<u32> = (0..=shard).collect();
        for point in [CrashPoint::AfterDrain, CrashPoint::AfterUpload, CrashPoint::AfterTruncate] {
            expected.push((point, emptied.clone()));
        }
    }
    let order: Vec<_> = seen.into_iter().map(|(point, emptied, _)| (point, emptied)).collect();
    assert_eq!(order, expected, "a serial pass in (worker, shard) order, drain to cut");
    drop(s);
    let _ = std::fs::remove_dir_all(dir);
}

/// A fault-free forced pass archives the same thing at every width: the
/// serial pass and the concurrent one agree on per-tenant counts, block
/// counts, billed bytes and the benchmark's query templates. Only block
/// paths may differ, and no result depends on them.
#[test]
fn a_concurrent_pass_archives_what_the_serial_pass_does() {
    const TENANTS: u64 = 12;
    let (start, end) = (Timestamp(0), Timestamp(48 * 3_600_000));
    let history =
        LogRecordGenerator::new(11).history(&WorkloadSpec::new(TENANTS, 0.99), 6_000, start, end);
    let archive_at = |width| {
        let mut config = ClusterConfig::for_testing();
        config.prefetch_threads = width;
        let s = LogStore::open(config).unwrap();
        for slice in history.chunks(2_000) {
            s.ingest(slice.to_vec()).unwrap();
            s.flush().unwrap();
        }
        s
    };
    let (serial, concurrent) = (archive_at(1), archive_at(4));
    assert_eq!(serial.block_count(), concurrent.block_count());
    for t in 1..=TENANTS {
        let tenant = TenantId(t);
        assert_eq!(count(&serial, t), count(&concurrent, t), "tenant {t}");
        assert_eq!(serial.tenant_usage(tenant), concurrent.tenant_usage(tenant), "tenant {t}");
        let mut rng = rand::rngs::StdRng::seed_from_u64(t);
        for sql in tenant_queries(tenant, start, end, &mut rng) {
            assert_eq!(
                serial.query(&sql).unwrap().rows,
                concurrent.query(&sql).unwrap().rows,
                "{sql}"
            );
        }
    }
}
