//! Per-shard phase-one storage: an optional WAL in front of the row store,
//! with crash recovery.
//!
//! [`ShardStore`] is the one type that knows whether a shard has a WAL
//! (`None` = a memory-only shard), how a drain intent is logged, confirmed
//! and rolled back, and when an appended LSN stops pinning truncation. Its
//! methods take `&self`: the WAL sits *outside* the one internal mutex
//! (`wal.shard.inner`: rows, counters, open archive ops), so every group
//! append — a batch or a drain intent, either may block on an fsync — runs
//! with no lock held and concurrent producers share group commits.
//!
//! # Ingest
//!
//! [`ShardStore::append`] is the whole phase-one write: it encodes the
//! batch (only when the shard has a WAL), copies its cells into column
//! batches of their own and drops the records, group-appends the payload
//! to the WAL with no lock held, then appends the column batches to the
//! row store's tail under the lock.
//! Between the two the batch's LSN pins truncation; a drop guard releases
//! the pin if the apply unwinds, leaving the rows in the WAL "in doubt" —
//! replayed by a restart, never acknowledged, never applied live.
//! [`ShardStore::snapshot`] hands a query the runs it may have rows in, by
//! reference, so that no row is ever read under the lock.
//!
//! # Archive handshake
//!
//! [`ShardStore::drain_all`] / [`ShardStore::drain_tenant`] remove rows and
//! open an *archive op*; the caller uploads them and closes the op with
//! exactly one [`ShardStore::ack_archived`] (durable on OSS) or
//! [`ShardStore::restore_unarchived`] (upload failed — the rows go back;
//! the WAL never stopped covering them). Drain→ack windows may overlap
//! (build passes and rebalance flushes run from several threads), so the
//! ack's cut ([`ShardStore::truncate_if_quiescent`]) only drops WAL
//! segments when no op is open, nothing is buffered and no logged batch
//! awaits its apply: one pass's ack can never strip coverage from another
//! pass's drained-but-not-yet-uploaded rows.
//!
//! # Drain intents: exactly-once across crashes
//!
//! WAL coverage alone gives at-least-once: a crash after the upload but
//! before the ack would replay rows that already live in registered
//! LogBlocks on OSS — every acknowledged row present *twice*. To close
//! that window each non-empty drain appends a **drain intent** to the WAL
//! (a tagged entry carrying the drained rows) before the upload starts. The
//! intent's LSN names the drain — LSNs never restart, so the name is
//! unique for the life of the shard — and the uploader commits "the first
//! `k` chunks of drain `lsn`, partitioned at `chunk_rows`, are durable"
//! atomically in the metadata store. Replay re-executes history: batch
//! entries insert rows, intent entries remove exactly the drained multiset
//! again, and one lookup (backed by the metadata store) returns the
//! drain's [`DrainCommit`] — rows of committed chunks stay out (they are
//! queryable on OSS), the rest are reinserted just like a live
//! [`ShardStore::restore_unarchived`]. Both sides derive chunks with
//! `logstore_types::partition_into_chunks` at the recorded cap, so "chunk
//! `i` of drain `lsn`" names the same row multiset everywhere, whatever
//! the current configuration says.

use crate::group::{GroupCommitWal, Lsn, WalConfig};
use crate::rowstore::{Drained, RowSnapshot, RowStore};
use logstore_codec::batch::{decode_batch, encode_batch_into};
use logstore_codec::valser::put_cells;
use logstore_codec::varint::put_uvarint;
use logstore_sync::{sync_point, OrderedMutex};
use logstore_types::{partition_into_chunks, Error, LogRecord, Result, TenantId, TimeRange};
use std::cell::RefCell;
use std::path::Path;
use std::time::{Duration, Instant};

/// WAL payload tag: a regular appended record batch.
const PAYLOAD_BATCH: u8 = 0;
/// WAL payload tag: a drain intent (the drained rows).
const PAYLOAD_DRAIN_INTENT: u8 = 1;

/// What a drain's metadata commit recorded: its first `chunks` chunks,
/// partitioned at `chunk_rows` rows per chunk, are durable on OSS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainCommit {
    /// Leading chunks registered in the LogBlock map.
    pub chunks: u64,
    /// The chunk row cap the uploader partitioned with.
    pub chunk_rows: usize,
}

/// A drain whose intent is logged: the intent's LSN (`None` on a
/// memory-only shard) plus the drained rows, ready for the archive
/// pipeline.
pub type LoggedDrain = (Option<Lsn>, Drained);

/// Where one [`ShardStore::append_timed`] call's time went, for the
/// engine's ingest stage timers. The stages add up to the call.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AppendTimes {
    /// Encoding the WAL payload (zero on a memory-only shard).
    pub encode: Duration,
    /// The group append: waiting for, and sharing, a group commit.
    pub wal: Duration,
    /// Moving the rows into the row store, the lock wait included.
    pub apply: Duration,
}

/// A batch that is in the WAL but not yet in the row store. Its LSN is a
/// truncation floor until the batch is applied or this value is dropped.
#[must_use = "apply the batch, or drop this to leave its rows in doubt"]
struct LoggedBatch<'a> {
    pin: Option<(&'a GroupCommitWal, Lsn)>,
}

impl Drop for LoggedBatch<'_> {
    fn drop(&mut self) {
        if let Some((wal, lsn)) = self.pin {
            wal.confirm_applied(lsn);
        }
    }
}

/// Everything the shard lock guards.
#[derive(Default)]
struct Inner {
    rows: RowStore,
    /// Count of records ever appended (recovered + new).
    records_appended: u64,
    /// Records drained to the archiver so far (restores subtract).
    records_archived: u64,
    /// Drains neither acked nor rolled back yet. Their rows live only in
    /// WAL segments, so truncation must wait for all of them.
    archives_inflight: u64,
}

/// Recoverable phase-one storage for one shard (see the module docs).
pub struct ShardStore {
    /// `None` on a memory-only shard.
    wal: Option<GroupCommitWal>,
    inner: OrderedMutex<Inner>,
}

impl ShardStore {
    /// A memory-only shard: the same protocol with no WAL behind it, so
    /// nothing survives a restart and drains carry no LSN.
    pub fn in_memory() -> Self {
        Self::assemble(None, Inner::default())
    }

    /// Opens the shard directory, replaying any existing WAL. Drain intents
    /// found in the WAL are treated as never-committed (their rows are
    /// restored); use [`ShardStore::open_with`] when a metadata store can
    /// say which drains actually reached OSS.
    pub fn open(dir: impl AsRef<Path>, config: WalConfig) -> Result<Self> {
        Self::open_with(dir, config, &|_| None)
    }

    /// Opens the shard directory, replaying the WAL and reconciling each
    /// drain intent against `committed(intent lsn)`: rows of committed
    /// chunks stay archived, everything else returns to the row store.
    pub fn open_with(
        dir: impl AsRef<Path>,
        config: WalConfig,
        committed: &dyn Fn(Lsn) -> Option<DrainCommit>,
    ) -> Result<Self> {
        let (wal, replayed) = GroupCommitWal::open(dir, config)?;
        let mut rows = RowStore::new();
        let mut records_appended = 0;
        let mut records_archived = 0;
        for (lsn, payload) in replayed {
            let (tag, body) =
                payload.split_first().ok_or_else(|| Error::corruption("empty wal payload"))?;
            let records = decode_batch(body)?;
            match *tag {
                PAYLOAD_BATCH => {
                    records_appended += records.len() as u64;
                    rows.insert_batch(&records);
                }
                PAYLOAD_DRAIN_INTENT => {
                    let found = rows.remove_batch(&records);
                    if found != records.len() {
                        return Err(Error::corruption(format!(
                            "drain intent {lsn} names {} rows, only {found} buffered",
                            records.len()
                        )));
                    }
                    match committed(lsn) {
                        None => {
                            // Never committed: the live path restored (or
                            // would have restored) every row.
                            rows.insert_batch(&records);
                        }
                        Some(commit) => {
                            // The first chunks are durable on OSS; the rest
                            // behave like a live restore_unarchived.
                            let chunks = partition_into_chunks(records, commit.chunk_rows);
                            for (i, chunk) in chunks.iter().enumerate() {
                                if (i as u64) < commit.chunks {
                                    records_archived += chunk.rows.len() as u64;
                                } else {
                                    rows.insert_batch(&chunk.rows);
                                }
                            }
                        }
                    }
                }
                other => return Err(Error::corruption(format!("unknown wal payload tag {other}"))),
            }
        }
        let inner = Inner { rows, records_appended, records_archived, ..Inner::default() };
        Ok(Self::assemble(Some(wal), inner))
    }

    /// The one construction site, so the lock label names one lock.
    fn assemble(wal: Option<GroupCommitWal>, inner: Inner) -> Self {
        ShardStore { wal, inner: OrderedMutex::new("wal.shard.inner", inner) }
    }

    /// Encodes records into the tagged batch WAL payload (pure): the tag
    /// and the batch body in one buffer.
    pub fn encode_batch_payload(records: &[LogRecord]) -> Vec<u8> {
        tagged_payload(PAYLOAD_BATCH, records)
    }

    /// Phase-one ingest of one batch: appends it to the WAL with no lock
    /// held, blocking on the group's barrier so concurrent producers share
    /// one group commit, then moves the records into the row store under
    /// the lock. A memory-only shard encodes and logs nothing. An error
    /// means the WAL append failed and nothing was applied.
    pub fn append(&self, records: Vec<LogRecord>) -> Result<()> {
        self.append_timed(records).map(drop)
    }

    /// [`ShardStore::append`], also saying where its time went.
    pub fn append_timed(&self, records: Vec<LogRecord>) -> Result<AppendTimes> {
        STAGING.with_borrow_mut(|staged| {
            let start = Instant::now();
            let payload = match self.wal {
                Some(_) => Self::encode_batch_payload(&records),
                None => Vec::new(),
            };
            let encoded = Instant::now();
            stage(staged, records);
            let staged_at = Instant::now();
            let logged = self.log_batch(&payload)?;
            let logged_at = Instant::now();
            // Logged but not yet applied: the window in which a drain, an
            // ack or a cut must keep the batch's WAL coverage.
            sync_point("wal.shard.apply_window");
            self.apply(staged, logged);
            Ok(AppendTimes {
                encode: encoded - start,
                wal: logged_at - staged_at,
                apply: (staged_at - encoded) + logged_at.elapsed(),
            })
        })
    }

    /// First half of [`ShardStore::append`]: group-appends `payload` (made
    /// by [`ShardStore::encode_batch_payload`]) to the WAL. A memory-only
    /// shard ignores the payload.
    fn log_batch(&self, payload: &[u8]) -> Result<LoggedBatch<'_>> {
        let pin = match &self.wal {
            Some(wal) => {
                debug_assert_eq!(payload.first(), Some(&PAYLOAD_BATCH), "not a batch payload");
                Some((wal, wal.append(payload)?))
            }
            None => None,
        };
        Ok(LoggedBatch { pin })
    }

    /// Second half of [`ShardStore::append`]: moves the logged rows,
    /// [`stage`]d into column batches, into the row store, then releases
    /// their LSN as a truncation floor.
    fn apply(&self, staged: &mut RowStore, logged: LoggedBatch<'_>) {
        let mut inner = self.inner.lock();
        inner.records_appended += staged.row_count() as u64;
        inner.rows.absorb(staged);
        drop(inner);
        drop(logged);
    }

    /// The runs that may hold rows of `tenant` within `range`, by
    /// reference and in arrival order. The lock is held for as long as it
    /// takes to look at each run's bounds — no row is visited under it —
    /// and the caller reads the snapshot with no lock at all: appends and
    /// drains go on beside it, and what a drain takes away meanwhile stays
    /// readable through the snapshot.
    pub fn snapshot(&self, tenant: TenantId, range: TimeRange) -> RowSnapshot {
        let snapshot = self.inner.lock().rows.snapshot(tenant, range);
        sync_point("wal.shard.snapshot_window");
        snapshot
    }

    /// Rows currently buffered.
    pub fn buffered_rows(&self) -> usize {
        self.inner.lock().rows.row_count()
    }

    /// Approximate buffered bytes — what BFC admission and the flush
    /// threshold compare against.
    pub fn buffered_bytes(&self) -> usize {
        self.inner.lock().rows.bytes()
    }

    /// Tenants with buffered rows.
    pub fn buffered_tenants(&self) -> Vec<TenantId> {
        self.inner.lock().rows.tenants()
    }

    /// Live WAL segment files (`0` on a memory-only shard).
    pub fn wal_segments(&self) -> usize {
        self.wal.as_ref().map_or(0, GroupCommitWal::segment_count)
    }

    /// Lifetime counters: `(appended, archived)` record counts. The
    /// difference is always the buffered row count — the accounting
    /// invariant the simulation harness checks after every recovery.
    pub fn counters(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.records_appended, inner.records_archived)
    }

    /// Drains every buffered row, oldest first, if at least `min_bytes` are
    /// buffered (`0` = unconditionally). `None` when nothing was drained.
    /// A non-empty drain opens an archive op and has its intent logged
    /// before it returns; if the intent cannot be logged the rows go
    /// straight back and the error surfaces — no rows leave the shard
    /// without an intent, or a crash after their upload would replay them
    /// as duplicates.
    pub fn drain_all(&self, min_bytes: usize) -> Result<Option<LoggedDrain>> {
        self.drain(
            |rows| if rows.bytes() >= min_bytes { rows.drain_all() } else { Drained::default() },
        )
    }

    /// Drains one tenant's rows (rebalancing flush). Same intent/ack
    /// contract as [`ShardStore::drain_all`].
    pub fn drain_tenant(&self, tenant: TenantId) -> Result<Option<LoggedDrain>> {
        self.drain(|rows| rows.drain_tenant(tenant))
    }

    fn drain(&self, take: impl FnOnce(&mut RowStore) -> Drained) -> Result<Option<LoggedDrain>> {
        let drained = {
            let mut inner = self.inner.lock();
            let drained = take(&mut inner.rows);
            if drained.is_empty() {
                return Ok(None);
            }
            // Open the op *before* the intent is logged: truncation must
            // stay blocked across the unlocked append below. A failed
            // append rolls both counters back via restore_unarchived.
            inner.archives_inflight += 1;
            inner.records_archived += drained.len() as u64;
            drained
        };
        let Some(wal) = &self.wal else { return Ok(Some((None, drained))) };
        // The drained rows exist only in `drained` until the intent is
        // logged — the window the archive-op counter guards. The runs are
        // immutable: the intent is encoded from them outside the lock,
        // beside any query still reading them.
        sync_point("wal.shard.drain_window");
        match wal.append_durable(&intent_payload(&drained)) {
            Ok(lsn) => {
                // An intent has no apply step; release its LSN at once (the
                // open archive op blocks truncation for the drain window).
                wal.confirm_applied(lsn);
                Ok(Some((Some(lsn), drained)))
            }
            Err(e) => {
                self.restore_unarchived(drained);
                Err(e)
            }
        }
    }

    /// Puts drained-but-unarchived rows back into the row store after a
    /// failed upload, closing that drain's archive op. The rows are still
    /// covered by the WAL (no truncation happened between the drain and
    /// this call), so they are *not* re-appended — memory is restored for
    /// queries, durability was never lost. Their runs go back as they are,
    /// after every buffered row.
    pub fn restore_unarchived(&self, rows: Drained) {
        if rows.is_empty() {
            return; // An empty drain opened no op; nothing to close.
        }
        let mut inner = self.inner.lock();
        inner.archives_inflight = inner.archives_inflight.saturating_sub(1);
        inner.records_archived = inner.records_archived.saturating_sub(rows.len() as u64);
        inner.rows.restore(rows);
    }

    /// The archive ack: closes one archive op whose drained rows are now
    /// durable on OSS, then cuts the WAL if that left the shard quiescent.
    /// Returns what [`ShardStore::truncate_if_quiescent`] returns.
    pub fn ack_archived(&self) -> Result<Option<Lsn>> {
        let mut inner = self.inner.lock();
        inner.archives_inflight = inner.archives_inflight.saturating_sub(1);
        drop(inner);
        sync_point("wal.shard.ack_window");
        self.truncate_if_quiescent()
    }

    /// Drops the WAL's archived prefix if that is provably safe right now.
    /// Closes no archive op, so forced build passes also run it on shards
    /// that had nothing to drain: truncations deferred by overlapping acks
    /// are eventually applied.
    ///
    /// Returns the first LSN still in the WAL after the cut: no drain whose
    /// intent lies below it can ever be replayed again, so its commit
    /// record is no longer needed. `None` when the cut was deferred or the
    /// shard has no WAL.
    pub fn truncate_if_quiescent(&self) -> Result<Option<Lsn>> {
        let Some(wal) = &self.wal else { return Ok(None) };
        // Truncation is safe only when *everything* ever logged is durable
        // on OSS — no drain's upload is still in flight (its rows live only
        // in WAL segments, anywhere in the prefix), nothing is buffered
        // (restored or freshly ingested rows rely on WAL coverage too) and
        // no logged batch awaits its apply. The last matters twice: the
        // batch's own segment must survive, and a cut clamped at its LSN
        // would keep later drain intents while dropping the batches they
        // name — a WAL that no longer replays. Otherwise defer to a later
        // call that finds the shard quiescent. The lock is held across the
        // cut so no apply or drain slips in after the check; a batch logged
        // after it has a higher LSN than everything the cut may drop, and
        // `truncate_until` clamps at its pin.
        let inner = self.inner.lock();
        if inner.archives_inflight != 0 || inner.rows.row_count() != 0 || wal.has_unapplied() {
            return Ok(None);
        }
        // Rotate first so the (non-deletable) active segment is empty.
        wal.rotate_now()?;
        let first = wal.truncate_until(wal.next_lsn())?;
        drop(inner);
        Ok(Some(first))
    }
}

thread_local! {
    /// The column batches a producer stages its rows in before the lock,
    /// kept between appends so that staging allocates nothing.
    static STAGING: RefCell<RowStore> = RefCell::new(RowStore::new());
}

/// Copies the cells of `records` into `staged`, for [`RowStore::absorb`]
/// to append under the lock in bulk. The records are dropped here: while
/// their cells are still in cache from the payload encode, and on the
/// producer that allocated them.
fn stage(staged: &mut RowStore, records: Vec<LogRecord>) {
    // Whatever an append that failed or unwound left here was never
    // applied.
    staged.clear();
    staged.insert_batch(&records);
}

/// A WAL payload: the tag, then the batch encoding of `records`.
fn tagged_payload(tag: u8, records: &[LogRecord]) -> Vec<u8> {
    let mut payload = vec![tag];
    encode_batch_into(&mut payload, records);
    payload
}

/// The drain intent of `drained`: the bytes [`tagged_payload`] writes for
/// the drained rows as records, encoded from the runs' cells.
fn intent_payload(drained: &Drained) -> Vec<u8> {
    let mut payload = Vec::with_capacity(drained.bytes());
    payload.push(PAYLOAD_DRAIN_INTENT);
    put_uvarint(&mut payload, drained.len() as u64);
    for run in drained.runs() {
        for row in 0..run.len() {
            put_cells(&mut payload, run.width(), (0..run.width()).map(|col| run.cell(col, row)));
        }
    }
    payload
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::FlushPolicy;
    use logstore_types::{Timestamp, Value};
    use std::fs;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "logstore-shard-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rec(t: u64, ts: i64) -> LogRecord {
        LogRecord::new(
            TenantId(t),
            Timestamp(ts),
            vec![
                Value::from("ip"),
                Value::from("/a"),
                Value::I64(1),
                Value::Bool(false),
                Value::from("m"),
            ],
        )
    }

    /// Opens `dir` knowing of one committed drain: `chunks` chunks of the
    /// drain whose intent is `lsn`, partitioned at `chunk_rows`.
    fn open_with_commit(
        dir: &Path,
        config: WalConfig,
        lsn: Lsn,
        chunks: u64,
        chunk_rows: usize,
    ) -> ShardStore {
        let commit = DrainCommit { chunks, chunk_rows };
        ShardStore::open_with(dir, config, &|l| (l == lsn).then_some(commit))
            .expect("the wal must replay")
    }

    fn open(dir: &Path) -> ShardStore {
        ShardStore::open(dir, WalConfig::default()).unwrap()
    }

    /// Small segments + fsync per group, so truncation has whole segments
    /// to drop.
    fn small_segments() -> WalConfig {
        WalConfig { max_segment_bytes: 256, flush: FlushPolicy::Sync, ..WalConfig::default() }
    }

    fn append(s: &ShardStore, records: Vec<LogRecord>) {
        s.append(records).unwrap();
    }

    fn rows_of(s: &ShardStore, tenant: u64) -> Vec<LogRecord> {
        let snapshot = s.snapshot(TenantId(tenant), TimeRange::all());
        let rows = snapshot.runs.iter().flat_map(|run| run.records());
        rows.filter(|r| r.tenant_id == TenantId(tenant)).collect()
    }

    fn drain_all(s: &ShardStore) -> (Lsn, Drained) {
        let (lsn, rows) = s.drain_all(0).unwrap().expect("non-empty drain");
        (lsn.expect("durable shards name their drains"), rows)
    }

    fn ack(s: &ShardStore) -> Option<Lsn> {
        s.ack_archived().unwrap()
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = temp_dir("roundtrip");
        let s = open(&dir);
        append(&s, vec![rec(1, 10), rec(2, 20)]);
        let hits = rows_of(&s, 1);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].ts, Timestamp(10));
        assert_eq!(s.buffered_tenants(), vec![TenantId(1), TenantId(2)]);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn memory_only_shard_runs_the_same_protocol_without_a_wal() {
        let s = ShardStore::in_memory();
        append(&s, vec![rec(1, 1), rec(2, 2), rec(1, 3)]);
        assert!(s.drain_all(usize::MAX).unwrap().is_none(), "under the flush threshold");
        let (seq, moved) = s.drain_tenant(TenantId(2)).unwrap().unwrap();
        assert_eq!((seq, moved.len()), (None, 1), "no WAL, no drain intent to name");
        let (_, rest) = s.drain_all(0).unwrap().unwrap();
        assert_eq!(rest.len(), 2);
        assert!(s.drain_all(0).unwrap().is_none(), "nothing left to drain");
        s.restore_unarchived(moved);
        assert_eq!(s.ack_archived().unwrap(), None);
        assert_eq!((s.buffered_rows(), s.counters()), (1, (3, 2)));
        assert!(s.buffered_bytes() > 0);
    }

    #[test]
    fn crash_recovery_restores_rows() {
        let dir = temp_dir("recovery");
        {
            let s = open(&dir);
            for i in 0..50 {
                append(&s, vec![rec(1, i)]);
            }
            // Dropped without an ack — simulating a crash.
        }
        let s = open(&dir);
        assert_eq!(s.buffered_rows(), 50);
        assert_eq!(rows_of(&s, 1).len(), 50);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn drain_and_ack_truncate_wal() {
        let dir = temp_dir("checkpoint");
        let config = WalConfig { max_segment_bytes: 256, ..WalConfig::default() };
        let s = ShardStore::open(&dir, config.clone()).unwrap();
        for i in 0..100 {
            append(&s, vec![rec(1, i)]);
        }
        let (lsn, drained) = drain_all(&s);
        assert_eq!((lsn, drained.len()), (101, 100), "the intent follows the 100 batches");
        assert_eq!(s.counters(), (100, 100));
        assert_eq!(ack(&s), Some(102), "the cut must drop everything up to the intent");
        assert_eq!(s.wal_segments(), 1);
        drop(s);
        let s = ShardStore::open(&dir, config).unwrap();
        assert_eq!(s.buffered_rows(), 0, "archived rows must not resurrect");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn a_dropped_logged_batch_stops_pinning_truncation() {
        // The apply unwound after the WAL append: the batch is never
        // applied, and its LSN must not block truncation forever.
        let dir = temp_dir("in-doubt");
        let s = ShardStore::open(&dir, small_segments()).unwrap();
        drop(s.log_batch(&ShardStore::encode_batch_payload(&[rec(1, 0)])).unwrap());
        assert_eq!(s.buffered_rows(), 0, "an unapplied batch is not live");
        for i in 1..40 {
            append(&s, vec![rec(1, i)]);
        }
        drain_all(&s);
        assert!(ack(&s).is_some());
        assert_eq!(s.wal_segments(), 1, "the in-doubt lsn still pins the wal");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn an_unapplied_logged_batch_defers_truncation() {
        // One segment per group, so a cut could fall anywhere.
        let config = WalConfig { max_segment_bytes: 1, ..WalConfig::default() };
        let dir = temp_dir("pinned");
        let lsn = {
            let s = ShardStore::open(&dir, config.clone()).unwrap();
            append(&s, vec![rec(1, 0)]);
            // A producer stalls between its WAL append and its apply while
            // a whole drain → upload → ack cycle runs on the shard.
            let late = vec![rec(1, 1)];
            let logged = s.log_batch(&ShardStore::encode_batch_payload(&late)).unwrap();
            let (lsn, drained) = drain_all(&s);
            assert_eq!(drained.len(), 1);
            // The row store is empty and no op is open — but cutting at the
            // logged batch would keep the drain intent and drop the batch
            // it names, and cutting past it would lose an acked-to-be row.
            assert_eq!(ack(&s), None, "a logged batch awaiting its apply defers truncation");
            let mut staged = RowStore::new();
            stage(&mut staged, late);
            s.apply(&mut staged, logged);
            lsn
        };
        let s = open_with_commit(&dir, config, lsn, 1, 10);
        assert_eq!(rows_of(&s, 1), vec![rec(1, 1)], "exactly the late batch is buffered");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn restore_unarchived_rolls_back_a_failed_archive() {
        let dir = temp_dir("restore");
        let s = open(&dir);
        for i in 0..10 {
            append(&s, vec![rec(1, i)]);
        }
        let (_, drained) = drain_all(&s);
        assert_eq!(s.buffered_rows(), 0);
        assert_eq!(s.counters(), (10, 10));
        // Upload "failed": put everything back.
        s.restore_unarchived(drained);
        assert_eq!(s.buffered_rows(), 10);
        assert_eq!(s.counters(), (10, 0));
        assert_eq!(rows_of(&s, 1).len(), 10);
        // The rows were never re-appended: reopen replays exactly one copy.
        drop(s);
        let s = open(&dir);
        assert_eq!(s.buffered_rows(), 10, "WAL must hold exactly one copy of each row");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn crash_between_drain_and_ack_replays_drained_rows() {
        // Rows drained for archiving stay WAL-covered until the post-upload
        // ack. A crash inside that window with no committed upload must
        // lose nothing.
        let dir = temp_dir("drain-crash");
        {
            let s = open(&dir);
            for i in 0..25 {
                append(&s, vec![rec(1, i)]);
            }
            let (_, drained) = drain_all(&s);
            assert_eq!(drained.len(), 25);
            // Crash before the upload completed: no ack.
        }
        let s = open(&dir);
        assert_eq!(s.buffered_rows(), 25, "drained rows must replay after a crash");
        let _ = fs::remove_dir_all(dir);
    }

    /// Appends `0..n` one row per batch, drains them, and "crashes".
    fn drained_then_crashed(dir: &Path, n: i64) -> Lsn {
        let s = open(dir);
        for i in 0..n {
            append(&s, vec![rec(1, i)]);
        }
        let (lsn, drained) = drain_all(&s);
        assert_eq!(drained.len() as i64, n);
        lsn
    }

    fn open_with_commits(dir: &Path, lsn: Lsn, chunks: u64, chunk_rows: usize) -> ShardStore {
        open_with_commit(dir, WalConfig::default(), lsn, chunks, chunk_rows)
    }

    #[test]
    fn crash_after_committed_upload_does_not_duplicate_rows() {
        // The exactly-once half of the protocol: a crash after the upload
        // committed but before the ack truncated the WAL must NOT restore
        // rows that live in registered LogBlocks.
        let dir = temp_dir("commit-dedup");
        let lsn = drained_then_crashed(&dir, 30);
        // All 3 chunks (cap 10) committed: nothing comes back.
        let s = open_with_commits(&dir, lsn, 3, 10);
        assert_eq!(s.buffered_rows(), 0, "committed rows must not resurrect");
        assert_eq!(s.counters(), (30, 30));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn partial_commit_restores_only_uncommitted_chunks() {
        let dir = temp_dir("commit-partial");
        let lsn = drained_then_crashed(&dir, 30);
        // Only the first chunk (rows ts 0..10) made it before the crash.
        let s = open_with_commits(&dir, lsn, 1, 10);
        assert_eq!(s.buffered_rows(), 20);
        assert!(rows_of(&s, 1).iter().all(|r| r.ts.millis() >= 10), "committed chunk stays out");
        assert_eq!(s.counters(), (30, 10));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn interleaved_appends_and_drains_replay_consistently() {
        // append 20 → drain (committed) → append 20 more → crash. Replay
        // must keep the first drain archived and restore only the tail.
        let dir = temp_dir("interleave");
        let lsn = {
            let s = open(&dir);
            for i in 0..20 {
                append(&s, vec![rec(1, i)]);
            }
            let (lsn, _) = drain_all(&s);
            for i in 20..40 {
                append(&s, vec![rec(1, i)]);
            }
            lsn
        };
        let s = open_with_commits(&dir, lsn, 1, 100);
        assert_eq!(s.buffered_rows(), 20);
        assert!(rows_of(&s, 1).iter().all(|r| r.ts.millis() >= 20));
        let _ = fs::remove_dir_all(dir);
    }

    /// 50 rows drained (pass A), 30 more appended and drained (pass B).
    fn two_overlapping_drains(dir: &Path) -> ShardStore {
        let s = ShardStore::open(dir, small_segments()).unwrap();
        for i in 0..50 {
            append(&s, vec![rec(1, i)]);
        }
        assert_eq!(drain_all(&s).1.len(), 50);
        for i in 50..80 {
            append(&s, vec![rec(1, i)]);
        }
        assert_eq!(drain_all(&s).1.len(), 30);
        s
    }

    #[test]
    fn overlapping_archive_acks_defer_truncation_until_the_last() {
        // The drain→ack window of one build pass can overlap another's:
        // pass A drains, new rows arrive and pass B drains them, then A
        // acks while B's upload is still in flight. A's ack must not
        // truncate the WAL segments covering B's rows.
        let dir = temp_dir("overlap");
        {
            let s = two_overlapping_drains(&dir);
            assert_eq!(ack(&s), None, "ack with another archive in flight");
            // Crash here: B's upload never completed, so its rows must
            // still be WAL-covered (A's redundant replay is harmless —
            // its rows are durable on OSS and acked).
        }
        let s = ShardStore::open(&dir, small_segments()).unwrap();
        assert_eq!(s.buffered_rows(), 80, "in-flight rows must survive the overlapping ack");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn last_overlapping_ack_truncates_everything() {
        let dir = temp_dir("overlap-last");
        {
            let s = two_overlapping_drains(&dir);
            assert_eq!(ack(&s), None);
            assert!(ack(&s).is_some(), "the last ack finds the shard quiescent");
        }
        let s = ShardStore::open(&dir, small_segments()).unwrap();
        assert_eq!(s.buffered_rows(), 0, "fully-acked rows must not resurrect");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn inflight_tenant_drain_blocks_truncation() {
        // A rebalance flush (drain_tenant) overlapping a full build pass:
        // the pass's ack must keep the WAL until the tenant flush either
        // acks or restores.
        let dir = temp_dir("overlap-tenant");
        {
            let s = ShardStore::open(&dir, small_segments()).unwrap();
            for i in 0..40 {
                append(&s, vec![rec(1 + (i % 2) as u64, i)]);
            }
            let (_, moved) = s.drain_tenant(TenantId(2)).unwrap().unwrap();
            assert_eq!(moved.len(), 20);
            let (_, rest) = drain_all(&s);
            assert_eq!(rest.len(), 20);
            // The full pass acks first; the tenant flush is still in flight.
            assert_eq!(ack(&s), None, "tenant drain in flight blocks truncation");
            // The tenant flush fails and rolls back: still no truncation —
            // the restored rows live only in the WAL.
            s.restore_unarchived(moved);
            assert_eq!(s.buffered_rows(), 20);
            assert_eq!(s.truncate_if_quiescent().unwrap(), None);
        }
        let s = ShardStore::open(&dir, small_segments()).unwrap();
        assert_eq!(s.buffered_rows(), 40, "restored tenant rows must stay WAL-covered");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn truncation_keeps_wal_while_rows_buffered() {
        let dir = temp_dir("keep");
        let s = open(&dir);
        append(&s, vec![rec(1, 1)]);
        assert_eq!(s.truncate_if_quiescent().unwrap(), None);
        drop(s);
        assert_eq!(open(&dir).buffered_rows(), 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn drain_seqs_are_unique_within_and_across_opens() {
        // A drain is named by its intent's LSN, and LSNs never restart:
        // not at a whole cut, not at a reopen after one.
        let dir = temp_dir("drain-seq");
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3 {
            let s = open(&dir);
            for round in 0..2 {
                append(&s, vec![rec(1, round)]);
                let (lsn, rows) = drain_all(&s);
                assert!(seen.insert(lsn), "duplicate drain lsn {lsn}");
                s.restore_unarchived(rows);
                // Drain the restored row again next round: new LSN.
            }
            // Archive it for real: the ack's cut leaves only the fresh,
            // empty active segment for the next open to start from.
            let (lsn, _) = drain_all(&s);
            assert!(seen.insert(lsn), "duplicate drain lsn {lsn}");
            assert_eq!(ack(&s), Some(lsn + 1), "a whole cut");
            assert_eq!(s.wal_segments(), 1);
        }
        assert_eq!(seen.len(), 9);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn a_drain_while_a_query_holds_a_run_copies_nothing() {
        let dir = temp_dir("held-run");
        let s = open(&dir);
        append(&s, (0..10).map(|i| rec(1, i)).collect());
        let held = s.snapshot(TenantId(1), TimeRange::all());
        append(&s, vec![rec(2, 10)]);
        let (_, drained) = drain_all(&s);
        // The drain hands over the very runs the query holds, and the
        // query still sees every row it took.
        assert!(Arc::ptr_eq(&held.runs[0], &drained.runs()[0]));
        assert_eq!(drained.len(), 11);
        assert!(ack(&s).is_some());
        drop(drained);
        let rows: Vec<i64> =
            held.runs.iter().flat_map(|run| run.records()).map(|r| r.ts.millis()).collect();
        assert_eq!(rows, (0..10).collect::<Vec<_>>());
        let _ = fs::remove_dir_all(dir);
    }

    mod intent_bytes {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// Rows of any arity and cell types, NULLs and `UInt64`/`Int64`
        /// neighbours included: every layout change opens a run.
        fn rows() -> impl Strategy<Value = Vec<LogRecord>> {
            let cell = prop_oneof![
                Just(Value::Null),
                (-3i64..3).prop_map(Value::I64),
                (0u64..3).prop_map(Value::U64),
                "[a-cé]{0,3}".prop_map(Value::Str),
                any::<bool>().prop_map(Value::Bool),
            ];
            let row = (1u64..4, -2i64..5, vec(cell, 0..4))
                .prop_map(|(t, ts, fields)| LogRecord::new(TenantId(t), Timestamp(ts), fields));
            vec(row, 0..40)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]
            /// Staged in sub-batches and appended in bulk, the rows read
            /// back as they arrived, and the drain intent encoded from the
            /// runs is the intent the records encode to.
            #[test]
            fn prop_intent_from_runs_is_the_record_intent(
                rows in rows(),
                cuts in vec(0usize..40, 0..6),
                seal_at in vec(0usize..40, 0..3),
            ) {
                let mut store = RowStore::new();
                let mut staged = RowStore::new();
                let mut cuts = cuts;
                cuts.push(rows.len());
                cuts.sort_unstable();
                let mut start = 0;
                for cut in cuts {
                    let cut = cut.clamp(start, rows.len());
                    stage(&mut staged, rows[start..cut].to_vec());
                    store.absorb(&mut staged);
                    if seal_at.contains(&cut) {
                        store.snapshot(TenantId(1), TimeRange::all());
                    }
                    start = cut;
                }
                prop_assert_eq!(store.row_count(), rows.len());
                prop_assert_eq!(store.bytes(), rows.iter().map(LogRecord::approx_size).sum::<usize>());
                let drained = store.drain_all();
                prop_assert_eq!(&drained.records(), &rows);
                prop_assert_eq!(intent_payload(&drained), tagged_payload(PAYLOAD_DRAIN_INTENT, &rows));
            }
        }
    }

    mod hostile_records {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// A WAL payload: a batch or drain intent of a few real rows, or a
        /// known or unknown tag in front of arbitrary bytes.
        fn payload() -> impl Strategy<Value = Vec<u8>> {
            let rows = vec((1u64..3, 0i64..4), 0..6)
                .prop_map(|keys| keys.into_iter().map(|(t, ts)| rec(t, ts)).collect::<Vec<_>>());
            prop_oneof![
                (0u8..3, rows).prop_map(|(tag, rows)| tagged_payload(tag, &rows)),
                (0u8..3, vec(any::<u8>(), 0..48))
                    .prop_map(|(tag, body)| [vec![tag], body].concat()),
                vec(any::<u8>(), 0..48),
            ]
        }

        proptest! {
            /// Every frame is CRC-valid (the records go through the group
            /// commit), so replay meets the bytes as they are: it returns a
            /// shard whose counters add up, or a typed error — never a
            /// panic.
            #[test]
            fn arbitrary_wal_records_replay_or_fail_typed(
                payloads in vec(payload(), 0..8),
                commit in prop_oneof![Just(None), (0u64..4, 0usize..4).prop_map(Some)],
            ) {
                let dir = temp_dir("hostile");
                {
                    let (wal, _) = GroupCommitWal::open(&dir, WalConfig::default()).unwrap();
                    for payload in &payloads {
                        wal.append(payload).unwrap();
                    }
                }
                let commit = commit.map(|(chunks, chunk_rows)| DrainCommit { chunks, chunk_rows });
                let opened = ShardStore::open_with(&dir, WalConfig::default(), &|_| commit);
                let _ = fs::remove_dir_all(&dir);
                match opened {
                    Ok(s) => {
                        let (appended, archived) = s.counters();
                        prop_assert_eq!(s.buffered_rows() as u64 + archived, appended);
                    }
                    Err(e) => prop_assert!(
                        matches!(e, Error::Corruption(_) | Error::InvalidArgument(_)),
                        "{e}"
                    ),
                }
            }
        }
    }
}
