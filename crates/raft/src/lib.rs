//! Raft consensus with backpressure flow control.
//!
//! The paper replicates each shard's WAL across three replicas with Raft
//! (§2 "Real-time and Low-latency Writes") and integrates the BFC
//! mechanism into the protocol's two blocking points (§4.2): the
//! **sync queue** (entries appended but not yet replicated to a quorum) and
//! the **apply queue** (entries committed but not yet applied to local
//! storage). When either backs up, proposals are rejected with
//! `Error::Backpressure`, throttling the tenant that is writing too fast
//! before the node becomes unresponsive.
//!
//! The implementation is a deterministic, tick-driven state machine
//! ([`node::RaftNode`]) plus the one group driver
//! ([`cluster::InProcCluster`]) that the controller replicas run: it
//! carries the nodes' messages over a seeded `logstore_net::SimNet`
//! (partition and message-loss injection), hands every committed entry to
//! that node's [`cluster::Replica`] state machine instead of keeping it,
//! and owns group-wide log compaction ([`cluster::InProcCluster::compact`]).
//! Shard WALs are not replicated here: each shard has one local log.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod message;
pub mod node;

pub use cluster::{Discard, InProcCluster, Replica};
pub use message::{LogEntry, RaftMessage};
pub use node::{RaftConfig, RaftNode, Role};
