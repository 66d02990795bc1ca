//! Seeded partition/heal/propose churn against the in-process cluster,
//! replicating the controller's state machine rather than a toy register.
//!
//! Each seed drives rounds of network abuse (message loss, cut links,
//! isolated nodes) interleaved with bursts of proposed [`CtrlCmd`]s — the
//! real route-table/topology commands the cluster controller commits
//! through this Raft — and checks the core safety properties after every
//! round:
//!
//! 1. **Prefix consistency** — any two nodes' applied sequences agree on
//!    their common prefix (no divergence, no reordering).
//! 2. **Committed-prefix monotonicity** — the longest prefix applied by a
//!    majority only ever grows; once an entry is in it, it is never lost
//!    or replaced on any node.
//! 3. **State-machine convergence** — after the final heal, folding each
//!    node's applied command log into a [`ControlState`] yields
//!    byte-identical encodings on every node.
//!
//! A second test wires the controller snapshot through the driver's
//! [`Replica`] seat: a laggard that catches up via a restored snapshot +
//! suffix must land on the same bytes as a full-log replay.
//!
//! Reproduce any failure with the seed printed in its message:
//! `SIMTEST_SEED=<seed> cargo test -p logstore-raft --test churn`.

use logstore_flow::ctrl::{ControlState, CtrlCmd};
use logstore_raft::{InProcCluster, RaftConfig, Replica};
use logstore_types::{NodeId, ShardId, TenantId, WorkerId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const NODES: usize = 5;
const ROUNDS: usize = 12;

/// Fixed CI sweep, overridable to a single seed via `SIMTEST_SEED`.
fn sweep_seeds() -> Vec<u64> {
    match std::env::var("SIMTEST_SEED") {
        Ok(s) => {
            vec![s.parse().unwrap_or_else(|_| panic!("SIMTEST_SEED must be a u64, got {s:?}"))]
        }
        Err(_) => vec![5, 17, 29, 61, 97, 20260807],
    }
}

macro_rules! churn_assert {
    ($seed:expr, $cond:expr, $($msg:tt)*) => {
        assert!(
            $cond,
            "seed {}: {}\nreplay: SIMTEST_SEED={} cargo test -p logstore-raft --test churn",
            $seed,
            format!($($msg)*),
            $seed
        )
    };
}

/// Generates the `n`-th controller command of a churn run. Distinct `n`
/// values always yield distinct encodings (tenant/worker ids and
/// capacities embed `n`), which the exactly-once oracle relies on.
fn gen_cmd(rng: &mut StdRng, n: u64) -> CtrlCmd {
    let shard = ShardId((n % 16) as u32);
    match rng.gen_range(0..8u32) {
        0 | 1 => CtrlCmd::RegisterWorker {
            worker: WorkerId((n % 8) as u32),
            shards: vec![(shard, 1_000 + n), (ShardId(((n + 1) % 16) as u32), 2_000 + n)],
        },
        2..=4 => CtrlCmd::SetRoute { tenant: TenantId(n), routes: vec![(shard, 1.0)] },
        5 | 6 => CtrlCmd::CommitRebalance {
            assignments: vec![(
                TenantId(n),
                vec![(shard, 0.5), (ShardId(((n + 3) % 16) as u32), 0.5)],
            )],
        },
        _ => CtrlCmd::VacateRoute { tenant: TenantId(n), shard },
    }
}

/// Folds a sequence of applied command payloads into a fresh control
/// state machine.
fn fold_state(entries: &[Vec<u8>]) -> ControlState {
    let mut state = ControlState::new();
    for payload in entries {
        let cmd = CtrlCmd::decode(payload).expect("applied payload must be a valid CtrlCmd");
        state.apply(&cmd);
    }
    state
}

/// A group whose replicas record the payloads they apply, in order.
type Recording = InProcCluster<Vec<Vec<u8>>>;

/// Any two nodes must agree on the common prefix of their applied logs.
fn check_prefix_consistency(c: &Recording, seed: u64, round: usize) {
    for a in 0..NODES as u32 {
        for b in (a + 1)..NODES as u32 {
            let (la, lb) = (c.replica(NodeId(a)), c.replica(NodeId(b)));
            let common = la.len().min(lb.len());
            churn_assert!(
                seed,
                la[..common] == lb[..common],
                "round {round}: nodes {a} and {b} diverged within their common prefix"
            );
        }
    }
}

/// The longest prefix applied by a majority of nodes. Prefix consistency
/// (checked first) guarantees every node with enough entries agrees on the
/// value at each position, so counting lengths suffices.
fn majority_prefix(c: &Recording) -> Vec<Vec<u8>> {
    let quorum = NODES / 2 + 1;
    let mut lens: Vec<usize> = (0..NODES as u32).map(|i| c.replica(NodeId(i)).len()).collect();
    lens.sort_unstable();
    let committed_len = lens[NODES - quorum];
    let longest =
        (0..NODES as u32).map(NodeId).max_by_key(|&i| c.replica(i).len()).expect("nonempty");
    c.replica(longest)[..committed_len].to_vec()
}

fn run_churn(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4_0a_05);
    let mut c = InProcCluster::with_replicas(vec![Vec::new(); NODES], RaftConfig::default(), seed);
    c.run_until_leader(500)
        .unwrap_or_else(|| panic!("seed {seed}: no initial leader within 500 steps"));

    let mut proposed: BTreeSet<Vec<u8>> = BTreeSet::new();
    let mut oracle: Vec<Vec<u8>> = Vec::new();
    let mut next_cmd = 0u64;

    for round in 0..ROUNDS {
        // Network abuse for this round. Every third round heals and runs
        // clean so the cluster is guaranteed windows of progress.
        if round % 3 == 2 {
            c.heal();
            c.set_drop_rate(0.0);
        } else {
            match rng.gen_range(0..4u32) {
                0 => c.set_drop_rate(rng.gen_range(0.05..0.4)),
                1 => {
                    let a = rng.gen_range(0..NODES as u32);
                    let b = rng.gen_range(0..NODES as u32);
                    if a != b {
                        c.cut(NodeId(a), NodeId(b));
                    }
                }
                2 => c.isolate(NodeId(rng.gen_range(0..NODES as u32))),
                _ => c.heal(),
            }
        }

        // Proposal burst: controller commands with unique embedded ids;
        // rejections (no leader reachable) are legal under partitions.
        let burst = rng.gen_range(1..=8usize);
        for _ in 0..burst {
            let payload = gen_cmd(&mut rng, next_cmd).encode();
            next_cmd += 1;
            if c.propose(payload.clone()).is_ok() {
                proposed.insert(payload);
            }
            for _ in 0..rng.gen_range(1..4usize) {
                c.step();
            }
        }
        for _ in 0..rng.gen_range(10..40usize) {
            c.step();
        }

        // Safety: no divergence, and the committed prefix only ever grows.
        check_prefix_consistency(&c, seed, round);
        let committed = majority_prefix(&c);
        churn_assert!(
            seed,
            committed.len() >= oracle.len() && committed[..oracle.len()] == oracle[..],
            "round {round}: committed prefix shrank or mutated \
             (was {} entries, now {})",
            oracle.len(),
            committed.len()
        );
        oracle = committed;
    }

    // Final convergence: clean network, run until all applied logs agree.
    c.heal();
    c.set_drop_rate(0.0);
    let mut converged = false;
    for _ in 0..3000 {
        c.step();
        let reference = c.replica(NodeId(0));
        if !reference.is_empty()
            && (1..NODES as u32).all(|i| c.replica(NodeId(i)) == reference)
            && c.sole_leader().is_some()
        {
            converged = true;
            break;
        }
    }
    if !converged {
        let state: Vec<String> = (0..NODES as u32)
            .map(|i| {
                let n = c.node(NodeId(i));
                format!(
                    "node {i}: role={:?} term={} commit={} log_len={} applied={}",
                    n.role(),
                    n.term(),
                    n.commit_index(),
                    n.log_len(),
                    c.replica(NodeId(i)).len()
                )
            })
            .collect();
        churn_assert!(
            seed,
            false,
            "cluster failed to converge after healing:\n{}",
            state.join("\n")
        );
    }
    check_prefix_consistency(&c, seed, ROUNDS);

    let final_log = c.replica(NodeId(0)).clone();
    churn_assert!(
        seed,
        final_log.len() >= oracle.len() && final_log[..oracle.len()] == oracle[..],
        "final log lost or reordered committed entries"
    );
    // Every applied entry was actually proposed, and exactly once.
    let mut seen = BTreeSet::new();
    for entry in &final_log {
        churn_assert!(
            seed,
            proposed.contains(entry),
            "applied a payload that was never successfully proposed: {:?}",
            String::from_utf8_lossy(entry)
        );
        churn_assert!(
            seed,
            seen.insert(entry.clone()),
            "payload applied more than once: {:?}",
            String::from_utf8_lossy(entry)
        );
    }
    churn_assert!(seed, !final_log.is_empty(), "no entry committed across {ROUNDS} churn rounds");

    // Controller-state convergence: every node's applied command log folds
    // to byte-identical route tables and topology.
    let reference = fold_state(c.replica(NodeId(0)));
    let reference_bytes = reference.encode();
    for i in 1..NODES as u32 {
        churn_assert!(
            seed,
            fold_state(c.replica(NodeId(i))).encode() == reference_bytes,
            "node {i}'s folded control state diverged from node 0"
        );
    }
    churn_assert!(seed, reference.version() > 0, "churn never moved the control state");
    println!(
        "seed {seed}: {} proposals accepted, {} committed, state version {}, \
         committed-prefix checks passed",
        proposed.len(),
        final_log.len(),
        reference.version()
    );
}

#[test]
fn seeded_partition_heal_churn() {
    for seed in sweep_seeds() {
        run_churn(seed);
    }
}

/// The controller's state machine in the driver's [`Replica`] seat, plus
/// what the oracle needs: the payloads applied one by one and the number
/// of snapshots restored.
#[derive(Default)]
struct CtrlReplica {
    state: ControlState,
    applied: Vec<Vec<u8>>,
    restores: usize,
}

impl Replica for CtrlReplica {
    fn apply(&mut self, payload: &[u8]) {
        self.state.apply(&CtrlCmd::decode(payload).expect("committed payload decodes"));
        self.applied.push(payload.to_vec());
    }

    fn snapshot(&self) -> Vec<u8> {
        self.state.encode()
    }

    fn restore(&mut self, data: &[u8]) -> logstore_types::Result<()> {
        self.state = ControlState::decode(data)?;
        self.restores += 1;
        Ok(())
    }
}

/// The controller snapshot path wired through the driver: a replica that
/// catches up via a restored snapshot plus the log suffix must reach a
/// control state byte-identical to a full replay.
fn run_snapshot_catchup(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5a97);
    let replicas = (0..3).map(|_| CtrlReplica::default()).collect();
    let mut c = InProcCluster::with_replicas(replicas, RaftConfig::default(), seed);
    let leader =
        c.run_until_leader(500).unwrap_or_else(|| panic!("seed {seed}: no initial leader"));
    // Isolate one follower before anything commits: it will have applied
    // nothing when the others compact their logs past it.
    let laggard = NodeId((leader.raw() + 1) % 3);
    c.isolate(laggard);

    let mut next_cmd = 0u64;
    let mut accepted = 0usize;
    for _ in 0..40 {
        let payload = gen_cmd(&mut rng, next_cmd).encode();
        next_cmd += 1;
        if c.propose(payload).is_ok() {
            accepted += 1;
        }
        for _ in 0..4 {
            c.step();
        }
    }
    for _ in 0..60 {
        c.step();
    }
    churn_assert!(seed, accepted > 0, "no proposal accepted while the laggard was isolated");

    // Every node compacts at its own applied index, snapshotting its
    // control state — so whichever live node leads after the heal can only
    // offer the laggard a snapshot, never the compacted entries.
    c.compact().unwrap_or_else(|e| panic!("seed {seed}: group failed to compact: {e}"));

    c.heal();
    let mut extra_due = 10usize;
    let mut converged = false;
    for _ in 0..3000 {
        c.step();
        // Keep the log moving after the heal so the laggard also replays
        // a genuine post-snapshot suffix.
        if extra_due > 0 && c.sole_leader().is_some() {
            let payload = gen_cmd(&mut rng, next_cmd).encode();
            next_cmd += 1;
            if c.propose(payload).is_ok() {
                extra_due -= 1;
            }
        }
        let commits: Vec<u64> = (0..3u32).map(|i| c.node(NodeId(i)).commit_index()).collect();
        if extra_due == 0
            && c.sole_leader().is_some()
            && commits.windows(2).all(|w| w[0] == w[1])
            && !c.replica(laggard).applied.is_empty()
        {
            converged = true;
            break;
        }
    }
    churn_assert!(seed, converged, "laggard failed to catch up after heal");

    let caught_up = c.replica(laggard);
    churn_assert!(seed, caught_up.restores > 0, "laggard caught up without a snapshot install");
    churn_assert!(
        seed,
        c.node(laggard).snapshot_index() > 0,
        "snapshot index must cover the compacted prefix"
    );

    // Reference replica: the old leader never restored a snapshot, so it
    // applied the full command history one entry at a time.
    let reference = c.replica(leader);
    churn_assert!(
        seed,
        reference.restores == 0,
        "the reference node must have replayed the full log"
    );
    churn_assert!(
        seed,
        caught_up.applied.len() < reference.applied.len(),
        "the laggard must have skipped the compacted prefix"
    );
    churn_assert!(
        seed,
        caught_up.state.encode() == fold_state(&reference.applied).encode(),
        "snapshot + suffix state diverged from full replay ({} suffix entries)",
        caught_up.applied.len()
    );
}

#[test]
fn controller_snapshot_plus_suffix_matches_full_replay() {
    for seed in sweep_seeds() {
        run_snapshot_catchup(seed);
    }
}
