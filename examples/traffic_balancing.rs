//! Global traffic control in action: a hot tenant overloads its home
//! shard, the monitor detects it, and the max-flow balancer (Algorithm 3)
//! splits the tenant's traffic across shards — without migrating any data
//! (paper §4).
//!
//! ```sh
//! cargo run --example traffic_balancing
//! ```

use logstore::core::{ClusterConfig, LogStore};
use logstore::flow::ControlAction;
use logstore::types::{LogRecord, TenantId, Timestamp, Value};

fn record(tenant: u64, i: i64) -> LogRecord {
    LogRecord::new(
        TenantId(tenant),
        Timestamp(1_700_000_000_000 + i),
        vec![
            Value::from("10.0.0.1"),
            Value::from("/api/ingest"),
            Value::I64(5),
            Value::Bool(false),
            Value::from("burst traffic"),
        ],
    )
}

fn main() {
    let mut config = ClusterConfig::for_testing();
    // Small capacities so a modest burst is a hotspot: 4 shards of 10k/s,
    // one shard may carry at most 5k/s of a single tenant.
    config.shard_capacity = 10_000;
    config.flow.per_tenant_shard_limit = 5_000;
    let store = LogStore::open(config).expect("open cluster");

    println!("routes before any traffic: {}", store.route_count());

    // A quiet background of small tenants...
    for t in 2..=20u64 {
        store.ingest((0..50).map(|i| record(t, i)).collect()).expect("ingest");
    }
    // ...and one tenant spiking to 3x what a single shard may carry.
    store.ingest((0..15_000).map(|i| record(1, i)).collect()).expect("ingest hot tenant");

    // The controller's periodic tick (every 300 s in production) collects
    // the ingest window and rebalances.
    match store.control_tick().expect("control tick") {
        ControlAction::Rebalanced { routes_before, routes_after } => {
            println!("hotspot detected: rebalanced, routes {routes_before} -> {routes_after}");
        }
        other => println!("controller action: {other:?}"),
    }

    let reads = store.shared().controller.read_shards(TenantId(1)).expect("read shards");
    println!(
        "tenant 1 is now served by {} shard(s): {:?}",
        reads.len(),
        reads.iter().map(ToString::to_string).collect::<Vec<_>>()
    );

    // Reads keep working across the rebalance: the broker fans out to the
    // union of old and new shards while the switch-over settles.
    let count = store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1").expect("query");
    println!("tenant 1 still sees all {} of its rows", count.rows[0][0]);

    // A second quiet window converges (no further action).
    store.ingest((0..100).map(|i| record(1, 20_000 + i)).collect()).expect("ingest");
    let action = store.control_tick().expect("control tick");
    println!("next tick with calm traffic: {action:?}");
}
