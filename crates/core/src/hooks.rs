//! Crash-point hooks for deterministic simulation testing.
//!
//! The archive pipeline calls [`CrashHooks::reached`] at each named point
//! of its protocol. In production the hooks are a no-op ([`NoopHooks`]);
//! the simulation harness injects an implementation that panics with a
//! [`SimCrash`] payload at a scheduled point, unwinds out of the engine,
//! drops it mid-protocol and reopens from disk — exercising exactly the
//! windows the drain-checkpoint recovery protocol exists for. Plain dependency
//! injection, no cfg gates: the production default costs one virtual call
//! per point.
//!
//! Every hook site sits **outside** lock scopes, so an unwind never leaves
//! a poisoned or held lock behind (locks are parking_lot, which recovers
//! regardless, but hooks-outside-locks keeps the reopened engine's
//! invariants trivially intact).

use std::sync::Arc;

/// Named points in the archive pipeline where a simulated crash can fire.
///
/// Each point names a distinct durable state. The lattice follows the
/// protocol order for one drain:
/// ingest (`AfterWalAppend`) → drain+checkpoint (`AfterDrain`) →
/// upload+commit (`AfterUpload`) → ack+WAL cut (`AfterTruncate`) → prune
/// of the drain commits no replay reads any more,
/// and for one compaction:
/// plan (`CompactPlanned`) → upload (`CompactUploaded`) →
/// swap+tombstone (`CompactCommitted`) → GC delete (`BeforeGcDelete`).
/// A pass settles its runs after its PUT wave, so a crash at one run's
/// point can leave later runs uploaded but uncommitted, which GC sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CrashPoint {
    /// An ingest batch is durable in the WAL and applied to the row store,
    /// but the caller has not been acknowledged yet.
    AfterWalAppend,
    /// Rows left the row store; the drain's checkpoint is synced in the
    /// WAL; the upload has not started.
    AfterDrain,
    /// The upload finished (blocks durable on OSS and the drain committed
    /// in the metadata store), but the shard has not been acked: the WAL
    /// still holds the drained rows.
    AfterUpload,
    /// A durable shard logged the ack and cut its WAL, but the
    /// drain-commit records no replay reads any more are not pruned yet.
    /// Not reached on a memory-only shard.
    AfterTruncate,
    /// A compaction run is planned: the merged block's path is recorded as
    /// a pending intent in the metadata store, nothing uploaded yet.
    CompactPlanned,
    /// The merged block is durable on OSS, but the map has not been
    /// swapped — the source blocks are still the live ones.
    CompactUploaded,
    /// The map swap committed: the merged block is live, the superseded
    /// sources sit on the tombstone list, their objects not yet deleted.
    CompactCommitted,
    /// Inside the GC pass, right before deleting one tombstoned object.
    BeforeGcDelete,
}

impl CrashPoint {
    /// Every point, in protocol order.
    pub const ALL: [CrashPoint; 8] = [
        CrashPoint::AfterWalAppend,
        CrashPoint::AfterDrain,
        CrashPoint::AfterUpload,
        CrashPoint::AfterTruncate,
        CrashPoint::CompactPlanned,
        CrashPoint::CompactUploaded,
        CrashPoint::CompactCommitted,
        CrashPoint::BeforeGcDelete,
    ];
}

/// Named points of one query attempt, in the order an attempt passes
/// them. Nothing durable changes on the read path, so these are not crash
/// points: a test parks a query at one to decide what happens beside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPoint {
    /// The attempt is about to read what it reads first: the tenant's
    /// shards, their settle sequences and the LogBlock map.
    BeforeMapRead,
    /// A source task is about to snapshot its shard's row store: the map
    /// was read.
    BeforeRowStoreSnapshot,
    /// A source task holds its shard's row-store snapshot and has not
    /// looked at a row yet; no lock is held.
    RowStoreSnapshot,
}

/// Injectable observer of archive-pipeline crash points and read-path
/// query points.
pub trait CrashHooks: Send + Sync {
    /// Called when execution reaches `point`. A simulation implementation
    /// may panic with a [`SimCrash`] payload to abort the episode here;
    /// the default does nothing.
    fn reached(&self, _point: CrashPoint) {}

    /// Called when a query attempt reaches `point`, on whichever thread got
    /// there (a pool thread for a source task), with no lock held — the
    /// hook may park it. The default does nothing.
    fn query_reached(&self, _point: QueryPoint) {}
}

/// The production hooks: every point is a no-op.
pub struct NoopHooks;

impl CrashHooks for NoopHooks {}

/// A fresh no-op hook object (the default for [`crate::LogStore::open`]).
pub fn noop_hooks() -> Arc<dyn CrashHooks> {
    Arc::new(NoopHooks)
}

/// Panic payload identifying a simulated crash, so harnesses can
/// `catch_unwind` and downcast to distinguish an injected crash from a
/// genuine bug.
#[derive(Debug, Clone, Copy)]
pub struct SimCrash(pub CrashPoint);
