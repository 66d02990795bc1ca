//! Schedule exploration of the *real* [`GroupCommitWal`] staging / seal /
//! fan-out protocol and of the [`ShardStore`] ingest / drain / ack /
//! truncate protocol on top of it.
//!
//! Each seed drives one full run through a different interleaving of
//! every `wal.group.*` / `wal.shard.*` lock, condvar and sync-point
//! operation. The invariants are the protocols' contracts: every producer
//! acks a distinct LSN, the acked set is exactly contiguous, replay after
//! close sees every record exactly once, and a shard never truncates WAL
//! coverage it still needs. Any failure prints its seed and a
//! `SCHED_SEED=<n>` replay command.

#![cfg(feature = "sched-fuzz")]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use logstore_sync::{sched, sync_point, OrderedMutex};
use logstore_types::{
    ColumnSchema, DataType, LogRecord, TableSchema, TenantId, TimeRange, Timestamp, Value,
};
use logstore_wal::{
    DrainCommit, GroupCommitWal, LoggedDrain, Lsn, RowSnapshot, ShardStore, WalConfig,
};

/// One fresh directory per schedule run (seeds must not share state).
fn fresh_dir() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "logstore-wal-sched-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const PRODUCERS: u64 = 3;
const PER_PRODUCER: u64 = 2;

/// The full producer protocol under one schedule: stage, lead or follow,
/// seal and commit under the writer lock, fan out, replay.
fn group_commit_round(window: Duration) {
    let dir = fresh_dir();
    let config = WalConfig { group_commit_window: window, ..WalConfig::default() };
    let (wal, replayed) = GroupCommitWal::open(&dir, config.clone()).expect("open wal");
    assert!(replayed.is_empty());
    let wal = Arc::new(wal);
    let acked = Arc::new(OrderedMutex::new("wal.test.sched_acked", Vec::<Lsn>::new()));

    let handles: Vec<_> = (0..PRODUCERS)
        .map(|t| {
            let (wal, acked) = (Arc::clone(&wal), Arc::clone(&acked));
            sched::spawn(move || {
                for i in 0..PER_PRODUCER {
                    let lsn = wal.append(format!("t{t}-{i}").as_bytes()).expect("append");
                    acked.lock().push(lsn);
                }
            })
        })
        .collect();
    for h in handles {
        h.join();
    }

    let total = PRODUCERS * PER_PRODUCER;
    let mut lsns = acked.lock().clone();
    lsns.sort_unstable();
    let expect: Vec<Lsn> = (1..=total).collect();
    assert_eq!(lsns, expect, "acked LSNs must be distinct and contiguous");

    let stats = wal.stats();
    assert_eq!(stats.appends, total, "every producer must be acked exactly once");
    assert!(stats.groups >= 1 && stats.groups <= total, "group count out of range");

    wal.sync().expect("sync");
    drop(wal);
    let (_, replayed) = GroupCommitWal::open(&dir, config).expect("reopen wal");
    assert_eq!(replayed.len() as u64, total, "replay must see every record exactly once");
    let replay_lsns: Vec<Lsn> = replayed.iter().map(|(l, _)| *l).collect();
    assert_eq!(replay_lsns, expect, "replay LSNs must be contiguous and ordered");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn group_commit_survives_schedule_sweep() {
    sched::explore(0..40, || group_commit_round(Duration::ZERO));
}

/// Nonzero linger exercises the leader's `staged_cv.wait_for` path — the
/// scheduler models the timeout, so the linger can end early, late, or
/// be cut short by a notify, per seed.
#[test]
fn group_commit_with_linger_survives_schedule_sweep() {
    sched::explore(0..25, || group_commit_round(Duration::from_millis(2)));
}

fn wal_segments(dir: &PathBuf) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("list shard dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("wal-"))
        .collect();
    names.sort();
    names
}

/// The rows' table: the keys and the producer that appended the row.
fn schema() -> Arc<TableSchema> {
    let columns = vec![
        ColumnSchema::new("tenant_id", DataType::UInt64).not_null(),
        ColumnSchema::new("ts", DataType::Int64).not_null(),
        ColumnSchema::new("producer", DataType::Int64),
    ];
    Arc::new(TableSchema::new("sched", columns).expect("a valid schema"))
}

/// `ts` of every row a snapshot holds, in snapshot (arrival) order.
fn snapshot_ts(snapshot: &RowSnapshot) -> Vec<i64> {
    snapshot.runs.iter().flat_map(|run| run.records()).map(|r| r.ts.millis()).collect()
}

fn buffered_ts(store: &ShardStore) -> Vec<i64> {
    let mut ts = snapshot_ts(&store.snapshot(TenantId(1), TimeRange::all()));
    ts.sort_unstable();
    ts
}

/// The shard protocol under one schedule: 2 producers x 2 appends race one
/// drain (whose upload "succeeds" -> ack, or "fails" -> restore),
/// opportunistic truncations from every side, and a reader that takes a
/// row-store snapshot, holds it across whatever the others do — the drain
/// and its ack or restore included — and takes a second one. Tiny
/// segments: every group rotates, so a wrong truncation always has a whole
/// segment to drop.
fn shard_store_round(upload_succeeds: bool) {
    let dir = fresh_dir();
    let config = WalConfig { max_segment_bytes: 1, ..WalConfig::default() };
    let store = Arc::new(ShardStore::open(&dir, config.clone(), schema()).expect("open shard"));
    let drained = Arc::new(OrderedMutex::new("wal.test.sched_drained", None::<LoggedDrain>));
    // `ts` of the drain's rows in the order it handed them out, whether or
    // not the upload then "succeeds".
    let drain_order = Arc::new(OrderedMutex::new("wal.test.sched_drain_order", Vec::<i64>::new()));
    let snapshots = Arc::new(OrderedMutex::new("wal.test.sched_snapshots", Vec::<Vec<i64>>::new()));

    let mut handles: Vec<_> = (0..2i64)
        .map(|p| {
            let store = Arc::clone(&store);
            sched::spawn(move || {
                for i in 0..2 {
                    let ts = Timestamp(p * 2 + i);
                    let records = vec![LogRecord::new(TenantId(1), ts, vec![Value::I64(p)])];
                    store.append(records).expect("append");
                    // Any thread may try to truncate at any time; right
                    // after an apply that a drain may already have taken
                    // is when a wrong quiescence check would bite.
                    store.truncate_if_quiescent().expect("producer truncation");
                }
            })
        })
        .collect();
    handles.push({
        let (store, snapshots) = (Arc::clone(&store), Arc::clone(&snapshots));
        sched::spawn(move || {
            let held = store.snapshot(TenantId(1), TimeRange::all());
            // Whatever runs here — appends, the drain, its ack or restore —
            // `held` keeps the rows it took.
            sync_point("wal.test.reader_holds");
            let later = store.snapshot(TenantId(1), TimeRange::all());
            snapshots.lock().extend([snapshot_ts(&held), snapshot_ts(&later)]);
        })
    });
    handles.push({
        let (store, drained, dir) = (Arc::clone(&store), Arc::clone(&drained), dir.clone());
        let drain_order = Arc::clone(&drain_order);
        sched::spawn(move || {
            // A drain that runs before the first apply finds nothing, and a
            // random schedule reaches the drain long before a producer's
            // append completes: try a few times, so the drain → ack window
            // is explored under both strategies.
            let drain = (0..4).find_map(|_| store.drain_all(0).expect("drain"));
            let Some((lsn, rows)) = drain else { return };
            *drain_order.lock() = rows.records().iter().map(|r| r.ts.millis()).collect();
            // The op is open: whatever else runs during the "upload", no
            // segment that existed at the drain may disappear.
            let covering = wal_segments(&dir);
            sync_point("wal.test.upload_window");
            let now = wal_segments(&dir);
            assert!(
                covering.iter().all(|seg| now.contains(seg)),
                "truncated under an open archive op: {covering:?} -> {now:?}"
            );
            if upload_succeeds {
                store.ack_archived().expect("ack truncation");
                *drained.lock() = Some((lsn, rows));
            } else {
                store.restore_unarchived(rows);
            }
        })
    });
    handles.push({
        let store = Arc::clone(&store);
        sched::spawn(move || {
            store.truncate_if_quiescent().expect("opportunistic truncation");
        })
    });
    for h in handles {
        h.join();
    }

    // Every snapshot holds each row at most once, and a drain hands rows
    // out in arrival order: the rows a snapshot and the drain share are in
    // the same order in both (a restore puts them back in that order too).
    let drain_order = drain_order.lock().clone();
    for snapshot in snapshots.lock().iter() {
        let mut distinct = snapshot.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), snapshot.len(), "a row twice in one snapshot: {snapshot:?}");
        assert!(distinct.iter().all(|ts| (0..4).contains(ts)), "{snapshot:?}");
        let shared = |of: &[i64], other: &[i64]| -> Vec<i64> {
            of.iter().copied().filter(|ts| other.contains(ts)).collect()
        };
        assert_eq!(
            shared(snapshot, &drain_order),
            shared(&drain_order, snapshot),
            "drain {drain_order:?} and snapshot {snapshot:?} disagree on arrival order"
        );
    }

    // Exactly the rows of an acked drain are gone; nothing else is.
    let (committed, archived_ts) = match drained.lock().take() {
        Some((lsn, rows)) => (lsn, rows.records().iter().map(|r| r.ts.millis()).collect()),
        None => (None, Vec::new()),
    };
    let expect: Vec<i64> = (0..4).filter(|ts| !archived_ts.contains(ts)).collect();
    assert_eq!(buffered_ts(&store), expect, "live rows");
    let (appended, archived) = store.counters();
    assert_eq!((appended, archived), (4, archived_ts.len() as u64), "live counters");
    assert_eq!(store.buffered_rows() as u64, appended - archived);

    // A restart replays exactly the rows no committed drain carried away,
    // whether or not their segments were truncated meanwhile.
    // The commit table: at most one drain, committed as one chunk.
    drop(store);
    let one_chunk = DrainCommit { chunks: 1, chunk_rows: usize::MAX };
    let store = ShardStore::open_with(&dir, config, schema(), &|lsn| {
        (committed == Some(lsn)).then_some(one_chunk)
    })
    .expect("reopen shard");
    assert_eq!(buffered_ts(&store), expect, "replayed rows");
    let (appended, archived) = store.counters();
    assert_eq!(store.buffered_rows() as u64, appended - archived);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seed budget: with the open-archive-op check removed from
/// `truncate_if_quiescent` the sweep fails at seed 12, with the
/// logged-but-unapplied check removed at seed 17, and with a seal that
/// copies the tail instead of taking it (a row twice in one snapshot, or
/// the drain and the live store disagreeing) at seed 0.
#[test]
fn shard_store_survives_schedule_sweep() {
    for upload_succeeds in [true, false] {
        sched::explore(0..150, || shard_store_round(upload_succeeds));
    }
}
