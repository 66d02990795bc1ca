//! Durability integration: WAL-backed shards recover the real-time store
//! across process "restarts" (engine reopen over the same data dir).

use logstore::core::{ClusterConfig, LogStore};
use logstore::types::{Error, LogRecord, TableSchema, TenantId, Timestamp, Value};
use logstore::wal::{ShardStore, WalConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("logstore-it-durable-{tag}-{}", std::process::id()));
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
            Value::I64(3),
            Value::Bool(false),
            Value::from(msg),
        ],
    )
}

fn durable_config(dir: &Path) -> ClusterConfig {
    let mut config = ClusterConfig::for_testing();
    config.data_dir = Some(dir.to_path_buf());
    config
}

#[test]
fn unflushed_rows_survive_restart() {
    let dir = temp_dir("restart");
    {
        let store = LogStore::open(durable_config(&dir)).expect("open");
        store
            .ingest(vec![rec(1, 100, "will survive"), rec(1, 200, "also survives")])
            .expect("ingest");
        // No flush: rows exist only in WAL + memory. Drop = crash.
    }
    let store = LogStore::open(durable_config(&dir)).expect("reopen");
    let result = store
        .query("SELECT log FROM request_log WHERE tenant_id = 1 ORDER BY ts ASC")
        .expect("query");
    assert_eq!(result.rows.len(), 2);
    assert_eq!(result.rows[0][0], Value::from("will survive"));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn flushed_rows_do_not_replay_after_restart() {
    // Regression against double-counting: archived rows must not come back
    // from the WAL on restart (checkpoint truncation).
    let dir = temp_dir("checkpoint");
    {
        let store = LogStore::open(durable_config(&dir)).expect("open");
        store.ingest(vec![rec(1, 100, "archived")]).expect("ingest");
        store.flush().expect("flush");
        store.ingest(vec![rec(1, 200, "fresh")]).expect("ingest");
    }
    // Reopen: the archived row lives only on OSS... but the simulated OSS
    // is in-memory and new per engine, so only the WAL-recovered row is
    // visible. Exactly one copy of "fresh", zero copies of "archived".
    let store = LogStore::open(durable_config(&dir)).expect("reopen");
    let result = store.query("SELECT log FROM request_log WHERE tenant_id = 1").expect("query");
    let logs: Vec<&str> = result.rows.iter().filter_map(|r| r[0].as_str()).collect();
    assert_eq!(logs, vec!["fresh"], "archived rows must not resurrect from the WAL");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_wal_record_outside_the_schema_fails_the_open() {
    // A CRC-valid batch in a shard's WAL: a row of five cells, logged by a
    // shard of a five-column table, which no append of a `request_log`
    // shard could have logged. Replay must refuse the WAL, not buffer runs
    // that every flush then fails on.
    let dir = temp_dir("outside-schema");
    {
        let shard_dir = dir.join("worker-0").join("shard-0");
        let five = TableSchema::new("five", TableSchema::request_log().columns[..5].to_vec());
        let shard = ShardStore::open(shard_dir, WalConfig::default(), Arc::new(five.unwrap()))
            .expect("open a shard of the five-column table");
        let mut short = rec(1, 200, "five cells");
        short.fields.truncate(3);
        shard.append(vec![short]).expect("a row of the five-column table");
    }
    let err = LogStore::open(durable_config(&dir)).err().expect("the open must fail");
    assert!(matches!(err, Error::Corruption(_)), "{err}");
    let _ = std::fs::remove_dir_all(dir);
}

/// `.log` bytes of the WAL segments under one shard directory. A segment
/// an ack deletes meanwhile counts as gone.
fn wal_bytes(shard_dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(shard_dir) else { return 0 };
    entries
        .filter_map(|entry| entry.ok())
        .filter(|entry| entry.file_name().to_string_lossy().ends_with(".log"))
        .filter_map(|entry| entry.metadata().ok())
        .map(|meta| meta.len())
        .sum()
}

#[test]
fn sustained_ingest_keeps_the_wal_bounded() {
    // Two producers keep both shards of one worker busy, with no forced
    // flush: only the threshold passes ingest runs drain and ack. Each
    // ack cuts its shard's WAL, so the WAL stays near what one or two
    // drains hold instead of growing with everything ever ingested.
    const THRESHOLD: usize = 64 << 10;
    const BOUND: u64 = 32 * THRESHOLD as u64;
    let dir = temp_dir("sustained");
    let mut config = durable_config(&dir);
    config.workers = 1;
    config.shards_per_worker = 2;
    config.rowstore_flush_bytes = THRESHOLD;
    config.compression = logstore::codec::Compression::None;
    let shard_dirs: Vec<PathBuf> =
        (0..2).map(|s| dir.join("worker-0").join(format!("shard-{s}"))).collect();
    let message = "x".repeat(200);
    let buffered = {
        let store = LogStore::open(config.clone()).expect("open");
        let worst = std::thread::scope(|scope| {
            let producers: Vec<_> = (0..2u64)
                .map(|p| {
                    let (store, shard_dirs, message) = (&store, &shard_dirs, &message);
                    scope.spawn(move || {
                        let mut worst = 0;
                        for round in 0..260i64 {
                            // Every tenant in every batch, so both shards
                            // take rows.
                            let batch = (0..100)
                                .map(|i| rec(1 + (i % 8) as u64, round * 100 + i, message))
                                .collect();
                            store.ingest(batch).expect("ingest");
                            if round % 10 == p as i64 {
                                worst =
                                    shard_dirs.iter().map(|d| wal_bytes(d)).fold(worst, u64::max);
                            }
                        }
                        worst
                    })
                })
                .collect();
            producers.into_iter().map(|p| p.join().unwrap()).max().unwrap()
        });
        let worker = store.shared().worker_snapshot().remove(0);
        let mut buffered = Vec::new();
        for (shard, shard_dir) in worker.shard_ids().into_iter().zip(&shard_dirs) {
            let (appended, _) = worker.shard_counters(shard).unwrap().unwrap();
            let row_bytes = rec(1, 0, &message).approx_size() as u64;
            assert!(appended * row_bytes >= 100 * THRESHOLD as u64, "test sizing: {shard}");
            let now = wal_bytes(shard_dir);
            assert!(worst.max(now) <= BOUND, "{shard}: {} WAL bytes over {BOUND}", worst.max(now));
            buffered.push(worker.buffered_rows(shard).unwrap());
        }
        buffered
        // Dropped without a flush: a crash.
    };
    let store = LogStore::open(config).expect("reopen");
    let worker = store.shared().worker_snapshot().remove(0);
    let replayed: Vec<usize> =
        worker.shard_ids().into_iter().map(|shard| worker.buffered_rows(shard).unwrap()).collect();
    assert_eq!(replayed, buffered, "a reopen holds exactly the rows that were buffered");
    let _ = std::fs::remove_dir_all(dir);
}
