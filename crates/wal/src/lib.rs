//! Write path substrate: the write-ahead log and the write-optimized row
//! store.
//!
//! LogStore's first write phase ("local writing", paper §3) persists
//! incoming logs to local disk with maximal throughput: generate the WAL,
//! replicate it, apply it to a **row-oriented store with no indexes and no
//! compression** ("avoiding the use of CPU-intensive optimizations ... to
//! maximize the write throughput"). The second phase (remote archiving)
//! later drains this store into columnar LogBlocks.
//!
//! * [`segment`] — CRC-framed, length-prefixed record files with rotation.
//! * [`group::GroupCommitWal`] — the write-ahead log: concurrent
//!   leader-based group commit over segment files (one coalesced frame +
//!   barrier per epoch of staged producers), replay, rotation, truncation,
//!   and its [`WalConfig`] / [`FlushPolicy`] / [`Lsn`] types.
//! * [`rowstore::RowStore`] — the in-memory real-time store, scannable by
//!   queries for data that has not been archived yet.
//! * [`shard::ShardStore`] — WAL + row store glued together with crash
//!   recovery, the per-shard storage unit a worker manages.

#![forbid(unsafe_code)]

pub mod group;
pub mod rowstore;
pub mod segment;
pub mod shard;

pub use group::{FlushPolicy, GroupCommitStats, GroupCommitWal, Lsn, ReplayedRecord, WalConfig};
pub use rowstore::RowStore;
pub use shard::{DrainResolver, DrainSeq, NoCommittedDrains, PendingDrain, ShardStore};
