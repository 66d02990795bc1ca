//! Regression tests pinning the engine's global lock order.
//!
//! The instrumented sweep (PR 5) found no lock-order inversion in the
//! engine; these tests keep it that way. Each one drives the real
//! multi-lock code paths from several threads with the `logstore-sync`
//! analysis active (debug builds, or `--features lock-analysis`): if a
//! future change acquires any pair of engine locks in reverse order —
//! the controller's `cache → plane`, the worker's store/raft/window
//! scopes, or the engine's worker map — the acquisition panics with a
//! two-site cycle report and the test fails. In release builds without
//! the feature the wrappers are passthroughs and this degenerates to a
//! plain concurrency smoke test.

use logstore::core::{ClusterConfig, LogStore};
use logstore::types::{LogRecord, TenantId, Timestamp, Value};
use std::sync::Arc;

fn rec(t: u64, ts: i64) -> LogRecord {
    LogRecord::new(
        TenantId(t),
        Timestamp(ts),
        vec![
            Value::from("10.0.0.9"),
            Value::from("/order"),
            Value::I64(ts % 7),
            Value::Bool(true),
            Value::from("lock-order probe"),
        ],
    )
}

/// Controller order: `pick_shard`/`read_shards` take the route cache
/// then (on a miss) the control plane; `control_tick` holds both for the
/// whole tick; `register_worker` (via scale_out) takes the plane under
/// the engine's worker map (never the reverse).
/// Interleaving all of them from separate threads exercises every
/// `cache → plane` edge the controller may record — plus the RPC paths
/// into the plane's Raft group and simulated network.
#[test]
fn controller_cache_before_plane_order_is_pinned() {
    let store = Arc::new(LogStore::open(ClusterConfig::for_testing()).expect("open"));
    let mut joins = Vec::new();
    for w in 0..3u64 {
        let store = Arc::clone(&store);
        joins.push(std::thread::spawn(move || {
            for round in 0..40i64 {
                // Fresh tenant ids force the lazy route-init path, which
                // is the one that nests ring inside traffic.
                let tenant = 1 + w * 100 + round as u64;
                store.ingest(vec![rec(tenant, round)]).expect("ingest");
                let _ =
                    store.query(&format!("SELECT * FROM request_log WHERE tenant_id = {tenant}"));
            }
        }));
    }
    let ticker = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            for _ in 0..20 {
                let _ = store.control_tick().expect("tick");
                std::thread::yield_now();
            }
        })
    };
    let scaler = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            for _ in 0..3 {
                store.scale_out(1).expect("scale_out");
            }
        })
    };
    for j in joins {
        j.join().unwrap();
    }
    ticker.join().unwrap();
    scaler.join().unwrap();
}

/// Worker order: `append` scopes store → raft → store → window strictly
/// sequentially (never two at once; "store" is the shard store's
/// `wal.shard.inner`, and the WAL append between the first two holds
/// nothing); the archive ack path takes only the store. Replicated shards
/// make the raft lock real. Any accidental nesting (e.g. holding raft while touching
/// the window) shows up as a new edge and, combined with the reverse
/// scope elsewhere, a cycle panic.
#[test]
fn worker_append_and_archive_scopes_stay_disjoint() {
    let mut config = ClusterConfig::for_testing();
    config.raft_replicas = 3;
    let store = Arc::new(LogStore::open(config).expect("open"));
    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for round in 0..30i64 {
                    store.ingest(vec![rec(w + 1, round * 10)]).expect("ingest");
                }
            })
        })
        .collect();
    let flusher = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            for _ in 0..10 {
                store.flush().expect("flush");
                std::thread::yield_now();
            }
        })
    };
    for j in writers {
        j.join().unwrap();
    }
    flusher.join().unwrap();
    // The full archive path (drain → upload → ack → truncate) once more,
    // single-threaded, to close every scope pair.
    store.ingest(vec![rec(1, 999)]).expect("ingest");
    store.flush().expect("final flush");
}
