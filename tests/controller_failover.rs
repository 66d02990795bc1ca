//! Controller failover end to end: the leader of the replicated control
//! plane dies — before, during, or after a rebalance — and after heal +
//! election the cluster must look exactly like one that never failed:
//!
//! * route tables converge byte-identically on every replica,
//! * the exactly-once oracle holds (every acknowledged row readable
//!   exactly once, no phantoms),
//! * every vacated route's flush is eventually acknowledged,
//! * query results match the fault-free run of the same seed.
//!
//! The whole schedule is seed-deterministic. Reproduce any failure with
//! the seed in its message:
//! `SIMTEST_SEED=<seed> cargo test --test controller_failover`.

use logstore::core::{ClusterConfig, LogStore};
use logstore::flow::ControlAction;
use logstore::types::{LogRecord, TenantId, Timestamp, Value};
use std::collections::{BTreeMap, BTreeSet};

const HOT: u64 = 1;
const BACKGROUND: [u64; 3] = [2, 3, 4];

/// When (relative to the rebalancing control tick) the controller leader
/// is killed.
#[derive(Debug, Clone, Copy, PartialEq)]
enum KillPoint {
    /// Fault-free baseline.
    None,
    /// Kill before the tick: a fresh leader plans the rebalance.
    BeforeTick,
    /// Arm the kill to fire the moment the rebalance commits: the vacated
    /// route flushes and acks all ride the failover.
    DuringRebalance,
    /// Kill right after the tick returns.
    AfterTick,
}

/// Fixed CI sweep, overridable to a single seed via `SIMTEST_SEED`.
fn sweep_seeds() -> Vec<u64> {
    match std::env::var("SIMTEST_SEED") {
        Ok(s) => {
            vec![s.parse().unwrap_or_else(|_| panic!("SIMTEST_SEED must be a u64, got {s:?}"))]
        }
        Err(_) => vec![11, 42, 20260809],
    }
}

fn config(seed: u64) -> ClusterConfig {
    let mut config = ClusterConfig::for_testing();
    config.seed = seed;
    config.shard_capacity = 5_000;
    config.flow.per_tenant_shard_limit = 2_000;
    config
}

/// A record whose `latency` column carries a unique row id, so loss and
/// duplication are individually attributable.
fn rec(t: u64, uid: i64) -> LogRecord {
    LogRecord::new(
        TenantId(t),
        Timestamp(uid),
        vec![
            Value::from("ip"),
            Value::from("/a"),
            Value::I64(uid),
            Value::Bool(false),
            Value::from("x"),
        ],
    )
}

/// Canonical, placement-independent fingerprint of the cluster's query
/// answers: per tenant, the sorted uid set plus the aggregate row. The
/// balancer's plan is equivalence-class deterministic (hash-map iteration
/// picks among equally-good plans), so raw row order may differ between
/// runs while the answer set must not.
struct Outcome {
    fingerprint: Vec<String>,
}

fn run_scenario(seed: u64, kill: KillPoint) -> Outcome {
    let store = LogStore::open(config(seed)).expect("open");
    let mut expected: BTreeMap<u64, BTreeSet<i64>> = BTreeMap::new();
    let mut next_uid = 0i64;
    let mut ingest = |store: &LogStore, tenant: u64, rows: i64| {
        let batch: Vec<LogRecord> = (0..rows)
            .map(|_| {
                let uid = next_uid;
                next_uid += 1;
                expected.entry(tenant).or_default().insert(uid);
                rec(tenant, uid)
            })
            .collect();
        let report = store.ingest(batch).expect("ingest");
        assert_eq!(report.rejected, 0, "seed {seed}: harness sizing hit backpressure");
        assert_eq!(report.failed, 0, "seed {seed}: rows failed to append");
    };

    for t in BACKGROUND {
        ingest(&store, t, 150);
    }
    ingest(&store, HOT, 8_000);

    let controller = &store.shared().controller;
    match kill {
        KillPoint::BeforeTick => {
            assert!(controller.kill_controller_leader().is_some(), "seed {seed}: no leader");
        }
        KillPoint::DuringRebalance => controller.arm_kill_on_rebalance(),
        KillPoint::None | KillPoint::AfterTick => {}
    }
    let action = store.control_tick().expect("rebalancing tick");
    assert!(
        matches!(action, ControlAction::Rebalanced { .. }),
        "seed {seed} kill {kill:?}: expected a rebalance, got {action:?}"
    );
    if kill == KillPoint::AfterTick {
        assert!(controller.kill_controller_leader().is_some(), "seed {seed}: no leader");
    }

    // Keep the cluster working with one controller replica dead: ingest
    // follows the rebalanced routes, and another tick runs through the
    // surviving quorum.
    ingest(&store, HOT, 1_000);
    for t in BACKGROUND {
        ingest(&store, t, 50);
    }
    store.control_tick().expect("tick against the surviving quorum");

    if kill != KillPoint::None {
        let live = controller.replica_states().unwrap();
        assert_eq!(live.len(), 2, "seed {seed} kill {kill:?}: one replica must be down");
        controller.heal_controllers();
    }
    store.control_tick().expect("tick after heal");

    // Convergence: nothing left to vacate, and every replica — including
    // the healed one — holds byte-identical control state.
    assert!(
        controller.vacated_routes().unwrap().is_empty(),
        "seed {seed} kill {kill:?}: vacated routes never converged"
    );
    let states = controller.replica_states().unwrap();
    assert_eq!(states.len(), 3, "seed {seed} kill {kill:?}: all replicas must be live after heal");
    for pair in states.windows(2) {
        assert_eq!(
            pair[0].1, pair[1].1,
            "seed {seed} kill {kill:?}: replicas {} and {} diverged\n\
             replay: SIMTEST_SEED={seed} cargo test --test controller_failover",
            pair[0].0, pair[1].0
        );
    }

    // Exactly-once oracle + query fingerprint.
    let mut fingerprint = Vec::new();
    for (&tenant, acked) in &expected {
        let sql = format!("SELECT latency FROM request_log WHERE tenant_id = {tenant}");
        let result = store.query(&sql).expect("uid query");
        let mut uids: Vec<i64> = result
            .rows
            .iter()
            .map(|row| match row.first() {
                Some(Value::I64(uid)) => *uid,
                other => panic!("seed {seed}: unexpected uid cell {other:?}"),
            })
            .collect();
        uids.sort_unstable();
        for pair in uids.windows(2) {
            assert!(
                pair[0] != pair[1],
                "seed {seed} kill {kill:?}: tenant {tenant} row uid {} appears twice",
                pair[0]
            );
        }
        let got: BTreeSet<i64> = uids.iter().copied().collect();
        assert_eq!(
            &got, acked,
            "seed {seed} kill {kill:?}: tenant {tenant} acknowledged rows were lost or phantom \
             rows appeared"
        );
        let agg_sql = format!(
            "SELECT COUNT(*), MIN(latency), MAX(latency), SUM(latency) \
             FROM request_log WHERE tenant_id = {tenant}"
        );
        let agg = store.query(&agg_sql).expect("aggregate query");
        fingerprint.push(format!("t{tenant}: uids={uids:?} agg={:?}", agg.rows));
    }
    Outcome { fingerprint }
}

/// The acceptance scenario: a fixed seed sweep across three kill points,
/// each compared against the fault-free baseline of the same seed.
#[test]
fn leader_kill_at_every_point_matches_fault_free_run() {
    for seed in sweep_seeds() {
        let baseline = run_scenario(seed, KillPoint::None);
        for kill in [KillPoint::BeforeTick, KillPoint::DuringRebalance, KillPoint::AfterTick] {
            let faulted = run_scenario(seed, kill);
            assert_eq!(
                faulted.fingerprint, baseline.fingerprint,
                "seed {seed} kill {kill:?}: query results diverged from the fault-free run\n\
                 replay: SIMTEST_SEED={seed} cargo test --test controller_failover"
            );
        }
    }
}

/// Control-plane network faults alone (no kill): RPC retransmission and
/// replica-side dedup must absorb drops, duplicates and reordering with
/// zero effect on query answers.
#[test]
fn network_faults_alone_are_invisible() {
    for seed in sweep_seeds() {
        let baseline = run_scenario(seed, KillPoint::None);
        let store = LogStore::open(config(seed)).expect("open");
        store.shared().controller.set_net_faults(0.1, 0.25, true);
        let mut next_uid = 0i64;
        let mut batch = |tenant: u64, rows: i64| -> Vec<LogRecord> {
            (0..rows)
                .map(|_| {
                    let uid = next_uid;
                    next_uid += 1;
                    rec(tenant, uid)
                })
                .collect()
        };
        for t in BACKGROUND {
            store.ingest(batch(t, 150)).expect("ingest");
        }
        store.ingest(batch(HOT, 8_000)).expect("ingest");
        let action = store.control_tick().expect("tick under net faults");
        assert!(matches!(action, ControlAction::Rebalanced { .. }));
        store.ingest(batch(HOT, 1_000)).expect("ingest");
        for t in BACKGROUND {
            store.ingest(batch(t, 50)).expect("ingest");
        }
        store.control_tick().expect("second tick under net faults");
        store.shared().controller.clear_net_faults();
        store.control_tick().expect("clean tick");
        let count =
            store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1").expect("count");
        assert_eq!(count.rows[0][0].as_u64(), Some(9_000), "seed {seed}: rows lost under faults");
        assert!(!baseline.fingerprint.is_empty());
    }
}
