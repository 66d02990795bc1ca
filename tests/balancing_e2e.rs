//! Traffic-control integration: the engine's monitor → balancer → router
//! loop reacts to real ingest skew end to end.

use logstore::core::{ClusterConfig, LogStore};
use logstore::flow::ControlAction;
use logstore::types::{LogRecord, TenantId, Timestamp, Value};

fn rec(t: u64, i: i64) -> LogRecord {
    LogRecord::new(
        TenantId(t),
        Timestamp(i),
        vec![
            Value::from("ip"),
            Value::from("/a"),
            Value::I64(1),
            Value::Bool(false),
            Value::from("x"),
        ],
    )
}

fn small_cluster() -> LogStore {
    let mut config = ClusterConfig::for_testing();
    config.shard_capacity = 5_000;
    config.flow.per_tenant_shard_limit = 2_000;
    LogStore::open(config).expect("open")
}

#[test]
fn hot_tenant_gets_split_and_keeps_its_data_visible() {
    let store = small_cluster();
    // Background tenants.
    for t in 2..=10u64 {
        store.ingest((0..100).map(|i| rec(t, i)).collect()).expect("ingest");
    }
    // One tenant at 4x the per-shard tenant limit.
    store.ingest((0..8000).map(|i| rec(1, i)).collect()).expect("ingest");

    let before_routes = store.route_count();
    let action = store.control_tick().expect("tick");
    assert!(
        matches!(action, ControlAction::Rebalanced { .. }),
        "expected rebalance, got {action:?}"
    );
    assert!(store.route_count() > before_routes, "hot tenant must gain routes");
    assert!(store.shared().controller.read_shards(TenantId(1)).unwrap().len() >= 3);

    // Everything remains queryable mid-rebalance.
    let count = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1").expect("query");
    assert_eq!(count.rows[0][0].as_u64().unwrap(), 8000);

    // New writes spread across the new routes and are visible too.
    store.ingest((8000..9000).map(|i| rec(1, i)).collect()).expect("ingest");
    let count = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1").expect("query");
    assert_eq!(count.rows[0][0].as_u64().unwrap(), 9000);
}

#[test]
fn vacated_shard_rows_are_flushed_to_oss_not_migrated() {
    // §4.1.5: after a rebalance, a shard that no longer carries a tenant
    // packages that tenant's buffered rows into LogBlocks on OSS — no
    // node-to-node migration, and no rows lost.
    let store = small_cluster();
    store.ingest((0..8000).map(|i| rec(1, i)).collect()).expect("ingest");
    let blocks_before = store.block_count();
    let action = store.control_tick().expect("tick");
    assert!(matches!(action, ControlAction::Rebalanced { .. }));
    // Vacated routes are flushed and acknowledged within the tick itself:
    // nothing may be left pending, and each processed vacation put rows
    // on OSS.
    assert!(
        store.shared().controller.vacated_routes().unwrap().is_empty(),
        "all vacated routes must be flush-acknowledged by the end of the tick"
    );
    let processed = store.shared().controller.vacated_processed();
    if processed > 0 {
        assert!(
            store.block_count() > blocks_before,
            "{processed} vacated routes processed but no new LogBlocks on OSS"
        );
    }
    let count = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1").expect("query");
    assert_eq!(count.rows[0][0].as_u64().unwrap(), 8000, "no rows lost in the flush");
}

#[test]
fn saturated_cluster_requests_scale_out() {
    let mut config = ClusterConfig::for_testing();
    config.shard_capacity = 100; // entire cluster: 400 rows per window
    config.flow.per_tenant_shard_limit = 50;
    let store = LogStore::open(config).expect("open");
    store.ingest((0..5000).map(|i| rec(1, i)).collect()).expect("ingest");
    let action = store.control_tick().expect("tick");
    assert!(
        matches!(action, ControlAction::ScaleCluster { .. }),
        "expected scale-out request, got {action:?}"
    );
}

#[test]
fn scale_out_absorbs_a_saturating_tenant() {
    // Algorithm 1 end to end: saturation -> ScaleCluster -> add workers ->
    // next tick rebalances onto the new capacity.
    let mut config = ClusterConfig::for_testing();
    config.shard_capacity = 1_000;
    config.flow.per_tenant_shard_limit = 500;
    config.workers = 1;
    config.shards_per_worker = 2;
    let store = LogStore::open(config).expect("open");

    store.ingest((0..4000).map(|i| rec(1, i)).collect()).expect("ingest");
    let action = store.control_tick().expect("tick");
    let ControlAction::ScaleCluster { demand, usable_capacity } = action else {
        panic!("expected saturation, got {action:?}");
    };
    assert!(demand > usable_capacity);

    // The operator (or autoscaler) adds capacity.
    let added = store.scale_out(3).expect("scale out");
    assert_eq!(added.len(), 3);
    assert_eq!(store.worker_count(), 4);

    // Re-offer the hot load; the next tick can now rebalance it.
    store.ingest((4000..8000).map(|i| rec(1, i)).collect()).expect("ingest");
    let action = store.control_tick().expect("tick after scale-out");
    assert!(
        matches!(action, ControlAction::Rebalanced { .. }),
        "expected rebalance onto new workers, got {action:?}"
    );
    assert!(store.shared().controller.read_shards(TenantId(1)).unwrap().len() >= 4);
    // All rows remain visible.
    let count = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1").expect("query");
    assert_eq!(count.rows[0][0].as_u64().unwrap(), 8000);
    // New tenants may land on the new shards too.
    store.ingest((0..10).map(|i| rec(77, i)).collect()).expect("ingest");
    let count =
        store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 77").expect("query");
    assert_eq!(count.rows[0][0].as_u64().unwrap(), 10);
}

#[test]
fn calm_traffic_triggers_nothing() {
    let store = small_cluster();
    for t in 1..=5u64 {
        store.ingest((0..50).map(|i| rec(t, i)).collect()).expect("ingest");
    }
    assert_eq!(store.control_tick().expect("tick"), ControlAction::None);
}

#[test]
fn backpressure_reaches_the_client_and_recovers() {
    let mut config = ClusterConfig::for_testing();
    config.rowstore_backpressure_bytes = 20_000;
    config.rowstore_flush_bytes = usize::MAX; // no auto-relief
    let store = LogStore::open(config).expect("open");
    let mut rejected_seen = false;
    for round in 0..200 {
        let report = store
            .ingest((0..100).map(|i| rec(1, round * 100 + i)).collect())
            .expect("ingest call itself must not error");
        if report.rejected > 0 {
            rejected_seen = true;
            break;
        }
    }
    assert!(rejected_seen, "BFC should reject once the row store fills");
    // Archiving drains the row store; ingest works again.
    store.flush().expect("flush");
    let report = store.ingest(vec![rec(1, 999_999)]).expect("ingest");
    assert_eq!(report.accepted, 1);
    assert_eq!(report.rejected, 0);
}
