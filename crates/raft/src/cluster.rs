//! The Raft group driver: N [`RaftNode`]s, one [`Replica`] state machine
//! per node, and the seeded [`SimNet`] that carries their messages.
//!
//! Messages produced in step `k` are delivered in step `k+1`; links can be
//! cut (partitions) and messages dropped probabilistically. Each step hands
//! every newly committed entry straight from a node's log to that node's
//! replica — the driver keeps no copy of what was applied. Deterministic
//! under a fixed seed, which keeps the consensus tests reproducible.

use crate::message::RaftMessage;
use crate::node::{RaftConfig, RaftNode, Role};
use logstore_net::{NetFaults, SimNet};
use logstore_types::{Error, NodeId, Result};

/// A replicated state machine: what one node of a group applies committed
/// entries to, and what log compaction folds its applied prefix into.
pub trait Replica {
    /// Applies one committed payload (never the empty election barrier).
    fn apply(&mut self, payload: &[u8]);
    /// The state after everything applied so far.
    fn snapshot(&self) -> Vec<u8>;
    /// Replaces the state with a [`Replica::snapshot`] of a peer.
    fn restore(&mut self, data: &[u8]) -> Result<()>;
}

/// The replica of a group that only needs consensus (probes, elections):
/// applies nothing and keeps nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct Discard;

impl Replica for Discard {
    fn apply(&mut self, _payload: &[u8]) {}

    fn snapshot(&self) -> Vec<u8> {
        Vec::new()
    }

    fn restore(&mut self, _data: &[u8]) -> Result<()> {
        Ok(())
    }
}

/// The recording replica of tests and benches: the applied payloads in
/// order. A restored snapshot counts as one entry — the concatenation of
/// the history it replaces — so `concat()` reads the same on a replica that
/// caught up by snapshot as on one that replayed the full log.
impl Replica for Vec<Vec<u8>> {
    fn apply(&mut self, payload: &[u8]) {
        self.push(payload.to_vec());
    }

    fn snapshot(&self) -> Vec<u8> {
        self.concat()
    }

    fn restore(&mut self, data: &[u8]) -> Result<()> {
        *self = vec![data.to_vec()];
        Ok(())
    }
}

/// A simulated Raft group and its replicas.
pub struct InProcCluster<R = Discard> {
    nodes: Vec<RaftNode>,
    replicas: Vec<R>,
    net: SimNet<RaftMessage>,
    /// The first failed [`Replica::restore`]: that replica has diverged, so
    /// [`InProcCluster::compact`] refuses.
    diverged: Option<String>,
}

impl InProcCluster {
    /// Creates an `n`-node group that discards what it commits.
    pub fn new(n: usize, config: RaftConfig, seed: u64) -> Self {
        Self::with_replicas(vec![Discard; n], config, seed)
    }
}

impl<R: Replica> InProcCluster<R> {
    /// Creates a group with one node per replica, in node-id order.
    pub fn with_replicas(replicas: Vec<R>, config: RaftConfig, seed: u64) -> Self {
        let ids: Vec<NodeId> = (0..replicas.len() as u32).map(NodeId).collect();
        let nodes = ids
            .iter()
            .map(|&id| {
                let peers: Vec<NodeId> = ids.iter().copied().filter(|&p| p != id).collect();
                RaftNode::new(id, peers, config.clone(), seed)
            })
            .collect();
        InProcCluster { nodes, replicas, net: SimNet::new(seed), diverged: None }
    }

    /// Sets a uniform message-loss probability.
    pub fn set_drop_rate(&mut self, rate: f64) {
        self.net.set_faults(NetFaults { drop_probability: rate, ..NetFaults::default() });
    }

    /// Cuts both directions between `a` and `b`.
    pub fn cut(&mut self, a: NodeId, b: NodeId) {
        self.net.cut(a.raw(), b.raw());
        self.net.cut(b.raw(), a.raw());
    }

    /// Isolates a node from everyone.
    pub fn isolate(&mut self, node: NodeId) {
        self.net.isolate(node.raw(), 0..self.nodes.len() as u32);
    }

    /// Heals all partitions.
    pub fn heal(&mut self) {
        self.net.heal();
    }

    /// One simulation step: deliver last step's messages, tick every node,
    /// then hand each node's newly committed entries (or an installed
    /// snapshot, which replaces the prefix) to its replica.
    pub fn step(&mut self) {
        for env in self.net.step() {
            for (to, message) in self.nodes[env.to as usize].handle(NodeId(env.from), env.msg) {
                self.net.send(env.to, to.raw(), message);
            }
        }
        for node in &mut self.nodes {
            let from = node.id().raw();
            for (to, message) in node.tick() {
                self.net.send(from, to.raw(), message);
            }
        }
        for (node, replica) in self.nodes.iter_mut().zip(&mut self.replicas) {
            if let Some(data) = node.take_snapshot_to_restore() {
                if let Err(e) = replica.restore(data) {
                    self.diverged.get_or_insert(format!("node {}: {e}", node.id().raw()));
                }
            }
            // Leaders append an empty no-op barrier on election; it carries
            // no application payload.
            node.apply_committed(|entry| {
                if !entry.payload.is_empty() {
                    replica.apply(&entry.payload);
                }
            });
        }
    }

    /// Runs steps until exactly one leader exists (or the limit is hit).
    pub fn run_until_leader(&mut self, max_steps: usize) -> Option<NodeId> {
        for _ in 0..max_steps {
            self.step();
            if let Some(leader) = self.sole_leader() {
                return Some(leader);
            }
        }
        None
    }

    /// The unique reachable leader, if exactly one node is leading.
    pub fn sole_leader(&self) -> Option<NodeId> {
        let leaders: Vec<NodeId> =
            self.nodes.iter().filter(|n| n.role() == Role::Leader).map(|n| n.id()).collect();
        (leaders.len() == 1).then(|| leaders[0])
    }

    /// Highest-term leader (there can transiently be two during partitions).
    pub fn any_leader(&self) -> Option<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.role() == Role::Leader)
            .max_by_key(|n| n.term())
            .map(|n| n.id())
    }

    /// Proposes on the current leader.
    pub fn propose(&mut self, payload: Vec<u8>) -> Result<u64> {
        let leader = self.any_leader().ok_or_else(|| Error::Raft("no leader".into()))?;
        self.nodes[leader.raw() as usize].propose(payload)
    }

    /// Group-wide log compaction: every node, follower or leader, folds its
    /// own applied prefix into its replica's snapshot, so no node retains
    /// more than its unapplied suffix.
    pub fn compact(&mut self) -> Result<()> {
        self.healthy()?;
        for (node, replica) in self.nodes.iter_mut().zip(&self.replicas) {
            if node.last_applied() > node.snapshot_index() {
                node.compact(node.last_applied(), replica.snapshot())?;
            }
        }
        Ok(())
    }

    fn healthy(&self) -> Result<()> {
        let failed = |why| Error::Raft(format!("replica failed to restore a snapshot: {why}"));
        self.diverged.as_ref().map_or(Ok(()), |why| Err(failed(why)))
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> &RaftNode {
        &self.nodes[id.raw() as usize]
    }

    /// Mutable node access (proposing on one specific node; tests).
    pub fn node_mut(&mut self, id: NodeId) -> &mut RaftNode {
        &mut self.nodes[id.raw() as usize]
    }

    /// The state machine of node `id`.
    pub fn replica(&self, id: NodeId) -> &R {
        &self.replicas[id.raw() as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A group whose replicas record what they apply.
    fn cluster(n: usize, seed: u64) -> InProcCluster<Vec<Vec<u8>>> {
        InProcCluster::with_replicas(vec![Vec::new(); n], RaftConfig::default(), seed)
    }

    #[test]
    fn three_nodes_elect_a_leader() {
        let mut c = cluster(3, 42);
        let leader = c.run_until_leader(200).expect("no leader elected");
        assert_eq!(c.sole_leader(), Some(leader));
    }

    #[test]
    fn replication_reaches_all_nodes() {
        let mut c = cluster(3, 7);
        c.run_until_leader(200).unwrap();
        for i in 0..20u8 {
            c.propose(vec![i]).unwrap();
            c.step();
        }
        for _ in 0..50 {
            c.step();
        }
        let expect: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i]).collect();
        for id in 0..3u32 {
            assert_eq!(c.replica(NodeId(id)), &expect, "node {id} diverged");
        }
    }

    #[test]
    fn leader_failure_triggers_reelection_without_losing_commits() {
        let mut c = cluster(3, 11);
        let first = c.run_until_leader(200).unwrap();
        for i in 0..5u8 {
            c.propose(vec![i]).unwrap();
            c.step();
        }
        for _ in 0..30 {
            c.step();
        }
        c.isolate(first);
        let mut second = None;
        for _ in 0..300 {
            c.step();
            if let Some(l) = c.any_leader() {
                if l != first && c.node(l).role() == Role::Leader {
                    second = Some(l);
                    break;
                }
            }
        }
        let second = second.expect("no new leader after isolation");
        assert_ne!(second, first);
        // New leader still has the old commits and can extend the log.
        c.node_mut(second).propose(vec![99]).unwrap();
        for _ in 0..50 {
            c.step();
        }
        let applied = c.replica(second);
        assert!(applied.len() >= 6, "applied={applied:?}");
        assert_eq!(applied[..5], (0..5u8).map(|i| vec![i]).collect::<Vec<_>>()[..]);
        assert!(applied.contains(&vec![99]));
    }

    #[test]
    fn lagging_follower_catches_up_via_snapshot() {
        let mut c = cluster(3, 33);
        let leader = c.run_until_leader(200).unwrap();
        // Commit a prefix everywhere, then cut one follower off.
        for i in 0..10u8 {
            c.propose(vec![i]).unwrap();
            c.step();
        }
        for _ in 0..50 {
            c.step();
        }
        let laggard = (0..3u32).map(NodeId).find(|&n| n != leader).unwrap();
        c.isolate(laggard);
        // More commits while the laggard is away.
        for i in 10..30u8 {
            let _ = c.propose(vec![i]);
            for _ in 0..3 {
                c.step();
            }
        }
        for _ in 0..50 {
            c.step();
        }
        // Every node compacts what it applied into its replica's snapshot;
        // the entries the leader discarded can now only reach the laggard
        // as a snapshot.
        let applied_idx = c.node(leader).commit_index();
        c.compact().expect("compact");
        assert_eq!(c.node(leader).snapshot_index(), applied_idx);
        assert!(c.node(leader).log_len() >= applied_idx, "log_len is absolute");
        assert!(c.node(laggard).snapshot_index() < applied_idx, "the laggard applied less");

        c.heal();
        for _ in 0..300 {
            c.step();
        }
        // The laggard installed the snapshot, restored its replica from it
        // and is at the leader's commit.
        assert_eq!(c.node(laggard).snapshot_index(), applied_idx);
        assert_eq!(c.replica(laggard).concat(), c.replica(leader).concat());
        assert!(c.replica(laggard).len() < 10, "the missed entries arrived as one snapshot");
        assert_eq!(c.node(laggard).commit_index(), c.node(leader).commit_index());
        // New proposals still replicate to everyone, including the laggard.
        c.propose(vec![99]).unwrap();
        for _ in 0..50 {
            c.step();
        }
        assert!(c.replica(laggard).contains(&vec![99]));
    }

    #[test]
    fn compaction_rejects_unapplied_prefix() {
        let mut c = cluster(3, 34);
        let leader = c.run_until_leader(200).unwrap();
        c.propose(vec![1]).unwrap();
        // Nothing stepped: the entry is not applied yet.
        let last = c.node(leader).log_len();
        let err = c.node_mut(leader).compact(last, vec![]).unwrap_err();
        assert!(matches!(err, logstore_types::Error::Raft(_)));
        // Compacting to an already-compacted point is a no-op.
        c.node_mut(leader).compact(0, vec![]).unwrap();
    }

    #[test]
    fn up_to_date_followers_never_see_snapshots() {
        let mut c = cluster(3, 35);
        let leader = c.run_until_leader(200).unwrap();
        for i in 0..10u8 {
            c.propose(vec![i]).unwrap();
            c.step();
        }
        for _ in 0..50 {
            c.step();
        }
        // The leader alone compacts, so a follower's compaction point moves
        // only if it installs a snapshot.
        let applied = c.node(leader).commit_index();
        let snapshot = c.replica(leader).snapshot();
        c.node_mut(leader).compact(applied, snapshot).unwrap();
        for _ in 0..50 {
            c.step();
        }
        for id in (0..3u32).map(NodeId).filter(|&id| id != leader) {
            assert_eq!(
                c.node(id).snapshot_index(),
                0,
                "node {} needlessly received a snapshot",
                id.raw()
            );
        }
        // Replication continues normally past the compaction point.
        c.propose(vec![42]).unwrap();
        for _ in 0..50 {
            c.step();
        }
        for id in 0..3u32 {
            assert!(c.replica(NodeId(id)).contains(&vec![42]));
        }
    }

    #[test]
    fn healed_partition_converges() {
        let mut c = cluster(5, 3);
        let leader = c.run_until_leader(300).unwrap();
        c.propose(vec![1]).unwrap();
        for _ in 0..30 {
            c.step();
        }
        // Partition two followers away.
        let followers: Vec<NodeId> =
            (0..5u32).map(NodeId).filter(|&n| n != leader).take(2).collect();
        for &f in &followers {
            c.isolate(f);
        }
        for i in 2..6u8 {
            if c.any_leader().is_some() {
                let _ = c.propose(vec![i]);
            }
            for _ in 0..5 {
                c.step();
            }
        }
        c.heal();
        for _ in 0..300 {
            c.step();
        }
        // All nodes converge on an identical applied prefix.
        let reference = c.replica(NodeId(0));
        assert!(!reference.is_empty());
        for id in 1..5u32 {
            assert_eq!(c.replica(NodeId(id)), reference, "node {id} diverged");
        }
    }

    #[test]
    fn lossy_network_still_commits() {
        let mut c = cluster(3, 9);
        c.set_drop_rate(0.2);
        let _ = c.run_until_leader(500).expect("leader despite 20% loss");
        let mut accepted = 0;
        for i in 0..10u8 {
            if c.propose(vec![i]).is_ok() {
                accepted += 1;
            }
            for _ in 0..10 {
                c.step();
            }
        }
        assert!(accepted > 0);
        for _ in 0..300 {
            c.step();
        }
        // Whatever committed is identical everywhere (prefix property).
        let a0 = c.replica(NodeId(0));
        for id in 1..3u32 {
            let ai = c.replica(NodeId(id));
            let common = a0.len().min(ai.len());
            assert_eq!(a0[..common], ai[..common], "divergent prefixes");
        }
        assert!(!a0.is_empty(), "nothing committed under loss");
    }

    #[test]
    fn apply_order_matches_proposal_order() {
        let mut c = cluster(3, 21);
        c.run_until_leader(200).unwrap();
        for i in 0..50u8 {
            c.propose(vec![i]).unwrap();
            if i % 5 == 0 {
                c.step();
            }
        }
        for _ in 0..100 {
            c.step();
        }
        let applied = c.replica(NodeId(0));
        assert_eq!(applied, &(0..50u8).map(|i| vec![i]).collect::<Vec<_>>());
    }

    #[test]
    fn a_long_run_retains_only_the_uncompacted_suffix() {
        // A group that commits and compacts forever must hold a bounded
        // number of entries on EVERY node: followers fold their own applied
        // prefix too, and the driver keeps no copy of what it delivered.
        let mut c = InProcCluster::new(3, RaftConfig::default(), 13);
        c.run_until_leader(200).unwrap();
        let mut retained = Vec::new();
        for round in 0..3u8 {
            for i in 0..200u8 {
                let index = c.propose(vec![round, i]).unwrap();
                let leader = c.any_leader().unwrap();
                while c.node(leader).commit_index() < index {
                    c.step();
                }
            }
            c.compact().unwrap();
            let worst = (0..3u32)
                .map(|id| c.node(NodeId(id)))
                .map(|n| n.log_len() - n.snapshot_index())
                .max();
            retained.push(worst.unwrap());
        }
        // A follower learns the last commit one append later, so it may
        // trail the leader's compaction point by the entries in flight.
        assert!(retained.iter().all(|&n| n <= 4), "in-memory entries per round: {retained:?}");
    }
}
