//! Raft wire messages and log entries.

/// One replicated log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Term in which the entry was appended on the leader.
    pub term: u64,
    /// 1-based log index.
    pub index: u64,
    /// Opaque payload (a WAL batch in LogStore).
    pub payload: Vec<u8>,
}

/// Messages exchanged between Raft peers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaftMessage {
    /// Candidate soliciting a vote.
    RequestVote {
        /// Candidate's term.
        term: u64,
        /// Index of the candidate's last log entry.
        last_log_index: u64,
        /// Term of the candidate's last log entry.
        last_log_term: u64,
    },
    /// Vote response.
    RequestVoteResp {
        /// Voter's term.
        term: u64,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Log replication / heartbeat.
    AppendEntries {
        /// Leader's term.
        term: u64,
        /// Index of the entry preceding `entries`.
        prev_log_index: u64,
        /// Term of the preceding entry.
        prev_log_term: u64,
        /// Entries to append (empty for heartbeats).
        entries: Vec<LogEntry>,
        /// Leader's commit index.
        leader_commit: u64,
    },
    /// Replication response.
    AppendEntriesResp {
        /// Follower's term.
        term: u64,
        /// Whether the append matched.
        success: bool,
        /// Highest index known replicated on the follower (valid when
        /// `success`).
        match_index: u64,
    },
    /// Snapshot transfer: sent when a follower's next index falls behind
    /// the leader's compaction point. The follower replies with an
    /// [`RaftMessage::AppendEntriesResp`] acknowledging
    /// `last_included_index`.
    InstallSnapshot {
        /// Leader's term.
        term: u64,
        /// Index of the last entry covered by the snapshot.
        last_included_index: u64,
        /// Term of that entry.
        last_included_term: u64,
        /// Opaque state-machine snapshot (in LogStore: the encoded control
        /// state; empty for a [`crate::Discard`] group, which keeps nothing).
        data: Vec<u8>,
    },
}
