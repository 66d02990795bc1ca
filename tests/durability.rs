//! Durability integration: WAL-backed shards recover the real-time store
//! across process "restarts" (engine reopen over the same data dir).

use logstore::core::{ClusterConfig, LogStore};
use logstore::types::{Error, LogRecord, TenantId, Timestamp, Value};
use logstore::wal::{GroupCommitWal, ShardStore, WalConfig};
use std::path::{Path, PathBuf};

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
    // A CRC-valid batch in a shard's WAL: one `request_log` row and one of
    // five cells, which no append of this shard could have logged. Replay
    // must refuse the WAL, not buffer a row that every flush then fails on.
    let dir = temp_dir("outside-schema");
    {
        let shard_dir = dir.join("worker-0").join("shard-0");
        let (wal, _) = GroupCommitWal::open(shard_dir, WalConfig::default()).expect("open wal");
        let mut short = rec(1, 200, "five cells");
        short.fields.truncate(3);
        let payload = ShardStore::encode_batch_payload(&[rec(1, 100, "valid"), short]);
        wal.append(&payload).expect("append");
    }
    let err = LogStore::open(durable_config(&dir)).err().expect("the open must fail");
    assert!(matches!(err, Error::Corruption(_)), "{err}");
    let _ = std::fs::remove_dir_all(dir);
}
