//! The Raft state machine (tick-driven, deterministic).

use crate::message::{LogEntry, RaftMessage};
use logstore_types::{Error, NodeId, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// Raft timing and BFC bounds, in abstract ticks.
#[derive(Debug, Clone)]
pub struct RaftConfig {
    /// Minimum election timeout.
    pub election_timeout_min: u32,
    /// Maximum election timeout (randomized per term to break ties).
    pub election_timeout_max: u32,
    /// Leader heartbeat interval.
    pub heartbeat_interval: u32,
    /// Max entries shipped per AppendEntries.
    pub max_entries_per_append: usize,
    /// BFC: max entries appended but not yet committed (the sync queue).
    pub sync_queue_limit: u64,
    /// BFC: max entries committed but not yet applied (the apply queue).
    pub apply_queue_limit: u64,
}

impl Default for RaftConfig {
    fn default() -> Self {
        RaftConfig {
            election_timeout_min: 10,
            election_timeout_max: 20,
            heartbeat_interval: 3,
            max_entries_per_append: 64,
            sync_queue_limit: 1024,
            apply_queue_limit: 1024,
        }
    }
}

/// A node's current role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Passive replica.
    Follower,
    /// Election in progress.
    Candidate,
    /// The elected writer.
    Leader,
}

/// One Raft participant.
pub struct RaftNode {
    id: NodeId,
    peers: Vec<NodeId>,
    config: RaftConfig,
    rng: StdRng,

    role: Role,
    term: u64,
    voted_for: Option<NodeId>,
    leader_hint: Option<NodeId>,
    votes: HashSet<NodeId>,

    // log[i] has index snapshot_index + i + 1 (1-based Raft indexing,
    // shifted past the compaction point).
    log: Vec<LogEntry>,
    // Log compaction state: everything at or below snapshot_index has been
    // folded into `snapshot_data`.
    snapshot_index: u64,
    snapshot_term: u64,
    snapshot_data: Vec<u8>,
    // `snapshot_data` came from the leader and the application has not
    // restored it yet (see `take_snapshot_to_restore`).
    snapshot_pending: bool,
    commit_index: u64,
    last_applied: u64,

    next_index: HashMap<NodeId, u64>,
    match_index: HashMap<NodeId, u64>,

    ticks: u32,
    timeout: u32,
    // Messages staged by the current `tick`/`handle` call: `(to, message)`.
    outbox: Vec<(NodeId, RaftMessage)>,
}

impl RaftNode {
    /// Creates a follower. `peers` excludes the node itself.
    pub fn new(id: NodeId, peers: Vec<NodeId>, config: RaftConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ u64::from(id.raw()));
        let timeout = rng.gen_range(config.election_timeout_min..=config.election_timeout_max);
        RaftNode {
            id,
            peers,
            config,
            rng,
            role: Role::Follower,
            term: 0,
            voted_for: None,
            leader_hint: None,
            votes: HashSet::new(),
            log: Vec::new(),
            snapshot_index: 0,
            snapshot_term: 0,
            snapshot_data: Vec::new(),
            snapshot_pending: false,
            commit_index: 0,
            last_applied: 0,
            next_index: HashMap::new(),
            match_index: HashMap::new(),
            ticks: 0,
            timeout,
            outbox: Vec::new(),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Highest committed index.
    pub fn commit_index(&self) -> u64 {
        self.commit_index
    }

    /// Last known leader, if any.
    pub fn leader_hint(&self) -> Option<NodeId> {
        if self.role == Role::Leader {
            Some(self.id)
        } else {
            self.leader_hint
        }
    }

    /// Entries appended but not committed (BFC sync queue depth).
    /// Saturating: a stale-snapshot install can transiently leave the
    /// commit index ahead of the truncated log.
    pub fn sync_queue_len(&self) -> u64 {
        self.last_log_index().saturating_sub(self.commit_index)
    }

    /// Entries committed but not applied (BFC apply queue depth).
    pub fn apply_queue_len(&self) -> u64 {
        self.commit_index.saturating_sub(self.last_applied)
    }

    fn last_log_index(&self) -> u64 {
        self.snapshot_index + self.log.len() as u64
    }

    fn last_log_term(&self) -> u64 {
        self.log.last().map_or(self.snapshot_term, |e| e.term)
    }

    /// Physical position of `index` in the in-memory log, if it is beyond
    /// the compaction point.
    fn phys(&self, index: u64) -> Option<usize> {
        index.checked_sub(self.snapshot_index + 1).map(|x| x as usize)
    }

    fn entry_term(&self, index: u64) -> Option<u64> {
        if index == self.snapshot_index {
            return Some(self.snapshot_term);
        }
        self.log.get(self.phys(index)?).map(|e| e.term)
    }

    fn cluster_size(&self) -> usize {
        self.peers.len() + 1
    }

    fn majority(&self) -> usize {
        self.cluster_size() / 2 + 1
    }

    fn send(&mut self, to: NodeId, message: RaftMessage) {
        self.outbox.push((to, message));
    }

    /// Advances time by one tick; returns `(to, message)` pairs to deliver.
    pub fn tick(&mut self) -> Vec<(NodeId, RaftMessage)> {
        self.ticks += 1;
        match self.role {
            Role::Leader => {
                if self.ticks >= self.config.heartbeat_interval {
                    self.ticks = 0;
                    for peer in self.peers.clone() {
                        self.send_append(peer);
                    }
                }
            }
            Role::Follower | Role::Candidate => {
                if self.ticks >= self.timeout {
                    self.start_election();
                }
            }
        }
        std::mem::take(&mut self.outbox)
    }

    fn reset_election_timer(&mut self) {
        self.ticks = 0;
        self.timeout =
            self.rng.gen_range(self.config.election_timeout_min..=self.config.election_timeout_max);
    }

    fn start_election(&mut self) {
        self.term += 1;
        self.role = Role::Candidate;
        self.voted_for = Some(self.id);
        self.votes = HashSet::from([self.id]);
        self.leader_hint = None;
        self.reset_election_timer();
        if self.votes.len() >= self.majority() {
            self.become_leader();
            return;
        }
        let msg = RaftMessage::RequestVote {
            term: self.term,
            last_log_index: self.last_log_index(),
            last_log_term: self.last_log_term(),
        };
        for peer in self.peers.clone() {
            self.send(peer, msg.clone());
        }
    }

    fn become_leader(&mut self) {
        self.role = Role::Leader;
        self.ticks = 0;
        // §5.4.2: entries inherited from earlier terms can only commit
        // once an entry of the leader's own term does. Without client
        // traffic that never happens, so append an empty no-op barrier
        // immediately (consumers skip empty payloads).
        let index = self.last_log_index() + 1;
        self.log.push(LogEntry { term: self.term, index, payload: Vec::new() });
        if self.peers.is_empty() {
            self.commit_index = index;
        }
        for peer in self.peers.clone() {
            self.next_index.insert(peer, index);
            self.match_index.insert(peer, 0);
            self.send_append(peer);
        }
    }

    fn step_down(&mut self, term: u64) {
        self.term = term;
        self.role = Role::Follower;
        self.voted_for = None;
        self.votes.clear();
        self.reset_election_timer();
    }

    fn send_append(&mut self, peer: NodeId) {
        let next = self.next_index.get(&peer).copied().unwrap_or(1);
        if next <= self.snapshot_index {
            // The follower needs entries we have already compacted away:
            // ship the snapshot instead.
            let msg = RaftMessage::InstallSnapshot {
                term: self.term,
                last_included_index: self.snapshot_index,
                last_included_term: self.snapshot_term,
                data: self.snapshot_data.clone(),
            };
            self.send(peer, msg);
            return;
        }
        let prev_log_index = next - 1;
        let prev_log_term = self.entry_term(prev_log_index).unwrap_or(0);
        // Clamped: a reordered response could still leave next_index past
        // our log end; an empty append then probes the follower backwards.
        let start = ((prev_log_index - self.snapshot_index) as usize).min(self.log.len());
        let end = (start + self.config.max_entries_per_append).min(self.log.len());
        let entries = self.log[start..end].to_vec();
        let msg = RaftMessage::AppendEntries {
            term: self.term,
            prev_log_index,
            prev_log_term,
            entries,
            leader_commit: self.commit_index,
        };
        self.send(peer, msg);
    }

    /// Handles one incoming message; returns `(to, message)` responses.
    pub fn handle(&mut self, from: NodeId, message: RaftMessage) -> Vec<(NodeId, RaftMessage)> {
        let msg_term = match &message {
            RaftMessage::RequestVote { term, .. }
            | RaftMessage::RequestVoteResp { term, .. }
            | RaftMessage::AppendEntries { term, .. }
            | RaftMessage::AppendEntriesResp { term, .. }
            | RaftMessage::InstallSnapshot { term, .. } => *term,
        };
        if msg_term > self.term {
            self.step_down(msg_term);
        }
        match message {
            RaftMessage::RequestVote { term, last_log_index, last_log_term } => {
                let up_to_date = last_log_term > self.last_log_term()
                    || (last_log_term == self.last_log_term()
                        && last_log_index >= self.last_log_index());
                let grant = term == self.term
                    && self.role == Role::Follower
                    && up_to_date
                    && self.voted_for.is_none_or(|v| v == from);
                if grant {
                    self.voted_for = Some(from);
                    self.reset_election_timer();
                }
                self.send(from, RaftMessage::RequestVoteResp { term: self.term, granted: grant });
            }
            RaftMessage::RequestVoteResp { term, granted } => {
                if self.role == Role::Candidate && term == self.term && granted {
                    self.votes.insert(from);
                    if self.votes.len() >= self.majority() {
                        self.become_leader();
                    }
                }
            }
            RaftMessage::AppendEntries {
                term,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit,
            } => {
                if term < self.term {
                    self.send(
                        from,
                        RaftMessage::AppendEntriesResp {
                            term: self.term,
                            success: false,
                            match_index: 0,
                        },
                    );
                } else {
                    // Valid leader for this term.
                    self.role = Role::Follower;
                    self.leader_hint = Some(from);
                    self.reset_election_timer();
                    let log_ok = self.entry_term(prev_log_index) == Some(prev_log_term);
                    if !log_ok {
                        let hint = self.last_log_index().min(prev_log_index.saturating_sub(1));
                        self.send(
                            from,
                            RaftMessage::AppendEntriesResp {
                                term: self.term,
                                success: false,
                                match_index: hint,
                            },
                        );
                    } else {
                        // Append, truncating any conflicting suffix.
                        // Entries at or below the compaction point are
                        // already part of the snapshot; skip them.
                        // The reported match covers only what this append
                        // verified — a stale suffix beyond it may still
                        // conflict with the leader, so claiming the full
                        // log length would let the leader's next_index run
                        // past its own log.
                        let match_index = prev_log_index + entries.len() as u64;
                        for entry in entries {
                            let Some(pos) = self.phys(entry.index) else { continue };
                            if pos < self.log.len() {
                                if self.log[pos].term != entry.term {
                                    self.log.truncate(pos);
                                    self.log.push(entry);
                                }
                            } else {
                                self.log.push(entry);
                            }
                        }
                        if leader_commit > self.commit_index {
                            self.commit_index = leader_commit.min(match_index);
                        }
                        self.send(
                            from,
                            RaftMessage::AppendEntriesResp {
                                term: self.term,
                                success: true,
                                match_index,
                            },
                        );
                    }
                }
            }
            RaftMessage::InstallSnapshot {
                term,
                last_included_index,
                last_included_term,
                data,
            } => {
                if term < self.term {
                    self.send(
                        from,
                        RaftMessage::AppendEntriesResp {
                            term: self.term,
                            success: false,
                            match_index: 0,
                        },
                    );
                } else {
                    self.role = Role::Follower;
                    self.leader_hint = Some(from);
                    self.reset_election_timer();
                    if last_included_index > self.snapshot_index {
                        // If we still hold the entry the snapshot ends at
                        // (same term), keep the suffix; otherwise discard
                        // the whole log — it conflicts or is too short.
                        match self.phys(last_included_index) {
                            Some(pos)
                                if self
                                    .log
                                    .get(pos)
                                    .is_some_and(|e| e.term == last_included_term) =>
                            {
                                self.log.drain(..=pos);
                            }
                            _ => self.log.clear(),
                        }
                        self.snapshot_index = last_included_index;
                        self.snapshot_term = last_included_term;
                        self.snapshot_data = data;
                        self.commit_index = self.commit_index.max(last_included_index);
                        // A node that already applied past the snapshot
                        // holds everything in it: restoring would roll its
                        // state machine back.
                        self.snapshot_pending |= last_included_index > self.last_applied;
                        self.last_applied = self.last_applied.max(last_included_index);
                    }
                    // Only the snapshot itself is known to match the
                    // leader; any retained suffix is unverified.
                    self.send(
                        from,
                        RaftMessage::AppendEntriesResp {
                            term: self.term,
                            success: true,
                            match_index: self.snapshot_index,
                        },
                    );
                }
            }
            RaftMessage::AppendEntriesResp { term, success, match_index } => {
                if self.role == Role::Leader && term == self.term {
                    if success {
                        let m = self.match_index.entry(from).or_insert(0);
                        *m = (*m).max(match_index);
                        self.next_index.insert(from, match_index + 1);
                        self.advance_commit();
                        // Keep streaming if the follower is behind.
                        if self.next_index[&from] <= self.last_log_index() {
                            self.send_append(from);
                        }
                    } else {
                        self.next_index.insert(from, match_index + 1);
                        self.send_append(from);
                    }
                }
            }
        }
        std::mem::take(&mut self.outbox)
    }

    fn advance_commit(&mut self) {
        let mut candidate = self.last_log_index();
        while candidate > self.commit_index {
            if self.entry_term(candidate) == Some(self.term) {
                let replicas = 1 + self.match_index.values().filter(|&&m| m >= candidate).count();
                if replicas >= self.majority() {
                    self.commit_index = candidate;
                    break;
                }
            }
            candidate -= 1;
        }
    }

    /// Proposes a payload on the leader. Applies the BFC checks of §4.2:
    /// a backed-up sync queue (replication lag) or apply queue (apply lag)
    /// rejects the proposal so the client throttles.
    pub fn propose(&mut self, payload: Vec<u8>) -> Result<u64> {
        if self.role != Role::Leader {
            return Err(Error::Raft(format!(
                "node {} is not the leader (hint: {:?})",
                self.id,
                self.leader_hint()
            )));
        }
        if self.sync_queue_len() >= self.config.sync_queue_limit {
            return Err(Error::Backpressure(format!(
                "raft sync queue at {} entries",
                self.sync_queue_len()
            )));
        }
        if self.apply_queue_len() >= self.config.apply_queue_limit {
            return Err(Error::Backpressure(format!(
                "raft apply queue at {} entries",
                self.apply_queue_len()
            )));
        }
        let index = self.last_log_index() + 1;
        self.log.push(LogEntry { term: self.term, index, payload });
        if self.peers.is_empty() {
            self.commit_index = index; // single-node group commits instantly
        }
        Ok(index)
    }

    /// Hands every committed-but-unapplied entry to `apply` in log order,
    /// borrowed from the log (the apply queue consumer).
    pub fn apply_committed(&mut self, mut apply: impl FnMut(&LogEntry)) {
        while self.last_applied < self.commit_index {
            let next = self.phys(self.last_applied + 1).and_then(|pos| self.log.get(pos));
            let Some(entry) = next else { break };
            apply(entry);
            self.last_applied += 1;
        }
    }

    /// Index of the last entry handed to the application.
    pub fn last_applied(&self) -> u64 {
        self.last_applied
    }

    /// Log length (for tests / introspection).
    pub fn log_len(&self) -> u64 {
        self.last_log_index()
    }

    /// Returns the log entry at `index` (1-based), if still in memory
    /// (compacted entries are gone).
    pub fn log_entry(&self, index: u64) -> Option<&LogEntry> {
        self.log.get(self.phys(index)?)
    }

    /// The current compaction point (all entries at or below it live only
    /// in the snapshot).
    pub fn snapshot_index(&self) -> u64 {
        self.snapshot_index
    }

    /// Folds every applied entry up to `up_to` into `snapshot` and drops
    /// them from the in-memory log (any role may compact its own applied
    /// prefix). Followers that fall behind a leader's compaction point
    /// receive the snapshot via `InstallSnapshot`.
    pub fn compact(&mut self, up_to: u64, snapshot: Vec<u8>) -> Result<()> {
        if up_to > self.last_applied {
            return Err(Error::Raft(format!(
                "cannot compact to {up_to}: only {} applied",
                self.last_applied
            )));
        }
        if up_to <= self.snapshot_index {
            return Ok(()); // already compacted past this point
        }
        let term = self
            .entry_term(up_to)
            .ok_or_else(|| Error::Raft("compaction point not in log".into()))?;
        let drop_count = (up_to - self.snapshot_index) as usize;
        self.log.drain(..drop_count);
        self.snapshot_index = up_to;
        self.snapshot_term = term;
        self.snapshot_data = snapshot;
        Ok(())
    }

    /// The snapshot installed from the leader, if one is waiting for the
    /// application to restore its state machine from it.
    pub fn take_snapshot_to_restore(&mut self) -> Option<&[u8]> {
        std::mem::take(&mut self.snapshot_pending).then_some(self.snapshot_data.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_becomes_leader_and_commits() {
        let mut n = RaftNode::new(NodeId(0), vec![], RaftConfig::default(), 1);
        for _ in 0..30 {
            n.tick();
        }
        assert_eq!(n.role(), Role::Leader);
        // Index 1 is the election no-op barrier.
        let idx = n.propose(b"x".to_vec()).unwrap();
        assert_eq!(idx, 2);
        assert_eq!(n.commit_index(), 2);
        let mut applied = Vec::new();
        n.apply_committed(|entry| applied.push(entry.payload.clone()));
        assert_eq!(applied, [b"".to_vec(), b"x".to_vec()]);
        assert_eq!(n.apply_queue_len(), 0);
    }

    #[test]
    fn followers_reject_proposals() {
        let mut n = RaftNode::new(NodeId(0), vec![NodeId(1)], RaftConfig::default(), 1);
        let err = n.propose(b"x".to_vec()).unwrap_err();
        assert!(matches!(err, Error::Raft(_)));
    }

    #[test]
    fn backpressure_on_sync_queue() {
        let config = RaftConfig { sync_queue_limit: 5, ..RaftConfig::default() };
        let mut n = RaftNode::new(NodeId(0), vec![NodeId(1), NodeId(2)], config, 1);
        // Manually crown it (no peers responding → nothing commits).
        for _ in 0..30 {
            n.tick();
            if n.role() == Role::Leader {
                break;
            }
        }
        // Force leadership via vote.
        if n.role() != Role::Leader {
            n.handle(NodeId(1), RaftMessage::RequestVoteResp { term: n.term(), granted: true });
        }
        assert_eq!(n.role(), Role::Leader);
        // The election no-op already occupies one sync-queue slot.
        for i in 0..4 {
            n.propose(vec![i]).unwrap();
        }
        let err = n.propose(vec![9]).unwrap_err();
        assert!(matches!(err, Error::Backpressure(_)), "got {err:?}");
    }

    #[test]
    fn vote_granted_only_once_per_term() {
        let mut n = RaftNode::new(NodeId(0), vec![NodeId(1), NodeId(2)], RaftConfig::default(), 1);
        let out = n.handle(
            NodeId(1),
            RaftMessage::RequestVote { term: 1, last_log_index: 0, last_log_term: 0 },
        );
        assert!(matches!(out[0].1, RaftMessage::RequestVoteResp { granted: true, .. }));
        // Second candidate in the same term is refused.
        let out = n.handle(
            NodeId(2),
            RaftMessage::RequestVote { term: 1, last_log_index: 0, last_log_term: 0 },
        );
        assert!(matches!(out[0].1, RaftMessage::RequestVoteResp { granted: false, .. }));
    }

    #[test]
    fn stale_candidate_log_rejected() {
        let mut n = RaftNode::new(NodeId(0), vec![NodeId(1)], RaftConfig::default(), 1);
        // Give the node a log entry at term 2.
        n.handle(
            NodeId(1),
            RaftMessage::AppendEntries {
                term: 2,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![LogEntry { term: 2, index: 1, payload: vec![] }],
                leader_commit: 0,
            },
        );
        // Candidate with an older log (term 1) must be refused.
        let out = n.handle(
            NodeId(1),
            RaftMessage::RequestVote { term: 3, last_log_index: 5, last_log_term: 1 },
        );
        assert!(matches!(out[0].1, RaftMessage::RequestVoteResp { granted: false, .. }));
    }

    #[test]
    fn follower_truncates_conflicting_suffix() {
        let mut n = RaftNode::new(NodeId(0), vec![NodeId(1)], RaftConfig::default(), 1);
        n.handle(
            NodeId(1),
            RaftMessage::AppendEntries {
                term: 1,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![
                    LogEntry { term: 1, index: 1, payload: b"a".to_vec() },
                    LogEntry { term: 1, index: 2, payload: b"b".to_vec() },
                ],
                leader_commit: 0,
            },
        );
        assert_eq!(n.log_len(), 2);
        // New leader at term 2 overwrites index 2.
        n.handle(
            NodeId(1),
            RaftMessage::AppendEntries {
                term: 2,
                prev_log_index: 1,
                prev_log_term: 1,
                entries: vec![LogEntry { term: 2, index: 2, payload: b"c".to_vec() }],
                leader_commit: 2,
            },
        );
        assert_eq!(n.log_len(), 2);
        assert_eq!(n.log_entry(2).unwrap().payload, b"c");
        assert_eq!(n.commit_index(), 2);
    }

    #[test]
    fn append_from_stale_leader_rejected() {
        let mut n = RaftNode::new(NodeId(0), vec![NodeId(1)], RaftConfig::default(), 1);
        n.step_down(5);
        let out = n.handle(
            NodeId(1),
            RaftMessage::AppendEntries {
                term: 3,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![],
                leader_commit: 0,
            },
        );
        assert!(matches!(out[0].1, RaftMessage::AppendEntriesResp { success: false, .. }));
    }
}
