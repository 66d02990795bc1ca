//! Write path substrate: the write-ahead log and the write-optimized row
//! store.
//!
//! LogStore's first write phase ("local writing", paper §3) persists
//! incoming logs to local disk with maximal throughput: generate the WAL,
//! replicate it (here the local WAL is the only copy), apply it to a
//! **row-oriented store with no indexes and no compression** ("avoiding the use of CPU-intensive optimizations ... to
//! maximize the write throughput"). The second phase (remote archiving)
//! later drains this store into columnar LogBlocks.
//!
//! * [`segment`] — CRC-framed, length-prefixed record files with rotation.
//! * [`group::GroupCommitWal`] — the write-ahead log: concurrent
//!   leader-based group commit over segment files (one coalesced frame +
//!   barrier per epoch of staged producers), replay, rotation, truncation,
//!   and its [`WalConfig`] / [`FlushPolicy`] / [`Lsn`] types.
//! * [`rowstore::RowStore`] — the in-memory real-time store: sealed
//!   immutable [`Run`]s plus an open tail, read by queries through a
//!   [`RowSnapshot`] of run references for data that has not been
//!   archived yet.
//! * [`shard::ShardStore`] — the one per-shard phase-one store a worker
//!   runs: an optional WAL (`None` = memory-only) outside one mutex
//!   (`wal.shard.inner`) around the row store, counters and open archive
//!   ops. It owns the whole protocol — append a batch (logged with no
//!   lock held, applied under the lock), drain with a logged intent,
//!   restore or ack, truncate when quiescent — and crash recovery (WAL replay reconciled against the
//!   drain-commit table, which names each drain by its intent's LSN).

#![forbid(unsafe_code)]

pub mod group;
pub mod rowstore;
pub mod segment;
pub mod shard;

pub use group::{FlushPolicy, GroupCommitStats, GroupCommitWal, Lsn, ReplayedRecord, WalConfig};
pub use rowstore::{Drained, RowSnapshot, RowStore, Run, RUN_ROWS};
pub use shard::{DrainCommit, LoggedDrain, ShardStore};
