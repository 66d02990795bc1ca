//! Per-shard storage: WAL + row store with crash recovery.
//!
//! `ShardStore` is phase one of the two-phase write for one shard: every
//! batch is framed into the WAL first, then applied to the in-memory row
//! store. On restart the WAL replays into a fresh row store.
//!
//! The archive handshake is ack-based: the data builder drains rows with
//! [`ShardStore::drain_for_archive`], uploads them, and only then acks via
//! [`ShardStore::checkpoint`] — which truncates the archived WAL prefix.
//! If the upload fails, [`ShardStore::restore_unarchived`] puts the rows
//! back; since no checkpoint happened, the WAL still covers them and a
//! crash at any point in the window replays every drained row.
//!
//! Drain→ack windows may overlap (the engine runs build passes from
//! several threads, and rebalance flushes drain single tenants in
//! parallel with full drains). Each drain opens an in-flight archive op;
//! truncation only fires on the ack that closes the *last* one, so one
//! pass's ack can never drop WAL segments that still cover another
//! pass's drained-but-not-yet-uploaded rows.
//!
//! # Drain intents: exactly-once across crashes
//!
//! WAL coverage alone gives at-least-once: a crash after the upload but
//! before the ack would replay rows that already live in registered
//! LogBlocks on OSS — every acknowledged row present *twice*. To close
//! that window each non-empty drain appends a **drain intent** to the WAL
//! (a tagged entry carrying a [`DrainSeq`] and the drained rows) before
//! the upload starts, and the uploader commits "the first `k` chunks of
//! drain `seq` are durable" atomically in the metadata store. Replay
//! re-executes history: batch entries insert rows, intent entries remove
//! exactly the drained multiset again, and a [`DrainResolver`] (backed by
//! the metadata store) says how many chunks of that drain were committed —
//! rows of committed chunks stay out (they are queryable on OSS), the rest
//! are reinserted just like a live [`ShardStore::restore_unarchived`].
//! Both sides derive chunks with `logstore_types::partition_into_chunks`,
//! so "chunk `i` of drain `seq`" names the same row multiset everywhere.
//!
//! Drain sequence numbers must stay unique across restarts even though
//! LSNs restart after truncation, so each open bumps a durable epoch
//! counter (`epoch` file in the shard directory) and a drain is named
//! `(epoch, counter)`.

use crate::group::{GroupCommitStats, GroupCommitWal, Lsn, WalConfig};
use crate::rowstore::RowStore;
use logstore_codec::batch::{decode_batch, encode_batch};
use logstore_codec::varint::{put_uvarint, read_uvarint};
use logstore_types::{
    partition_into_chunks, ColumnPredicate, Error, LogRecord, RecordBatch, Result, TableSchema,
    TenantId, TimeRange,
};
use std::path::Path;
use std::sync::Arc;

/// WAL payload tag: a regular appended record batch.
const PAYLOAD_BATCH: u8 = 0;
/// WAL payload tag: a drain intent (seq + the drained rows).
const PAYLOAD_DRAIN_INTENT: u8 = 1;

/// Name of the per-shard epoch counter file.
const EPOCH_FILE: &str = "epoch";

/// Durable identity of one drain: unique across restarts of the shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DrainSeq {
    /// Bumped once per [`ShardStore`] open (durable in the shard dir).
    pub epoch: u64,
    /// Per-open drain counter, starting at 1.
    pub counter: u64,
}

/// Answers, during replay, whether (and how far) a drain's upload was
/// committed. Backed by the engine's metadata store in production; the
/// inert [`NoCommittedDrains`] treats every drain as never-uploaded
/// (at-least-once, the pre-intent behavior).
pub trait DrainResolver {
    /// How many leading chunks of drain `seq` are durable and registered
    /// on OSS (`None` = the drain never committed anything).
    fn committed_chunks(&self, seq: DrainSeq) -> Option<u64>;
    /// The chunk row cap the uploader used (`max_rows_per_logblock`).
    fn chunk_rows(&self) -> usize;
}

/// A resolver that knows of no committed drains: replay restores every
/// intent's rows. Safe (never loses a row) but re-archives under fresh
/// paths whatever did make it to OSS.
pub struct NoCommittedDrains;

impl DrainResolver for NoCommittedDrains {
    fn committed_chunks(&self, _seq: DrainSeq) -> Option<u64> {
        None
    }

    fn chunk_rows(&self) -> usize {
        usize::MAX
    }
}

/// A drain whose intent has not been logged yet: the output of
/// [`ShardStore::begin_drain_all`] / [`ShardStore::begin_drain_tenant`].
///
/// The two-step drain exists so the intent append — which may block on a
/// group-commit fsync — can run *outside* whatever lock guards the
/// `ShardStore`. The begin step (under the lock) removes the rows and
/// opens the in-flight archive op, so truncation stays blocked for the
/// whole unlocked window; the caller must then either log `intent` via
/// [`GroupCommitWal::append_durable`] on the [`ShardStore::wal_handle`]
/// (success) or hand `rows` back to [`ShardStore::restore_unarchived`]
/// (failure).
pub struct PendingDrain {
    /// The drain's durable identity.
    pub seq: DrainSeq,
    /// The drained rows, in drain order.
    pub rows: Vec<LogRecord>,
    /// The encoded drain-intent WAL payload.
    pub intent: Vec<u8>,
}

/// Durable, recoverable storage for one shard.
pub struct ShardStore {
    wal: Arc<GroupCommitWal>,
    rows: RowStore,
    /// Count of records ever appended (recovered + new); drives checkpoints.
    records_appended: u64,
    /// Records drained to the archiver so far.
    records_archived: u64,
    /// Drains whose upload has neither been acked ([`ShardStore::checkpoint`])
    /// nor rolled back ([`ShardStore::restore_unarchived`]) yet. Their rows
    /// live only in WAL segments, so truncation must wait for all of them.
    archives_inflight: u64,
    /// This open's durable epoch (drain seq uniqueness across restarts).
    epoch: u64,
    /// Drains issued by this open.
    drain_counter: u64,
}

impl ShardStore {
    /// Opens the shard directory, replaying any existing WAL. Drain intents
    /// found in the WAL are treated as never-committed (their rows are
    /// restored); use [`ShardStore::open_with`] when a metadata store can
    /// say which drains actually reached OSS.
    pub fn open(dir: impl AsRef<Path>, schema: TableSchema, config: WalConfig) -> Result<Self> {
        Self::open_with(dir, schema, config, &NoCommittedDrains)
    }

    /// Opens the shard directory, replaying the WAL and reconciling drain
    /// intents against `resolver`: rows of committed chunks stay archived,
    /// everything else returns to the row store.
    pub fn open_with(
        dir: impl AsRef<Path>,
        schema: TableSchema,
        config: WalConfig,
        resolver: &dyn DrainResolver,
    ) -> Result<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let epoch = bump_epoch(dir)?;
        let (wal, replayed) = GroupCommitWal::open(dir, config)?;
        let wal = Arc::new(wal);
        let mut rows = RowStore::new(schema);
        let mut records_appended = 0;
        let mut records_archived = 0;
        for (_lsn, payload) in replayed {
            let (tag, body) =
                payload.split_first().ok_or_else(|| Error::corruption("empty wal payload"))?;
            match *tag {
                PAYLOAD_BATCH => {
                    for record in decode_batch(body)? {
                        rows.insert(record);
                        records_appended += 1;
                    }
                }
                PAYLOAD_DRAIN_INTENT => {
                    let (seq, drained) = decode_drain_intent(body)?;
                    let found = rows.remove_batch(&drained);
                    if found != drained.len() {
                        return Err(Error::corruption(format!(
                            "drain intent {seq:?} names {} rows, only {found} buffered",
                            drained.len()
                        )));
                    }
                    match resolver.committed_chunks(seq) {
                        None => {
                            // Never committed: the live path restored (or
                            // would have restored) every row.
                            for r in drained {
                                rows.insert(r);
                            }
                        }
                        Some(k) => {
                            // The first k chunks are durable on OSS; the
                            // rest behave like a live restore_unarchived.
                            let chunks = partition_into_chunks(drained, resolver.chunk_rows());
                            for (i, chunk) in chunks.into_iter().enumerate() {
                                if (i as u64) < k {
                                    records_archived += chunk.rows.len() as u64;
                                } else {
                                    for r in chunk.rows {
                                        rows.insert(r);
                                    }
                                }
                            }
                        }
                    }
                }
                other => return Err(Error::corruption(format!("unknown wal payload tag {other}"))),
            }
        }
        Ok(ShardStore {
            wal,
            rows,
            records_appended,
            records_archived,
            archives_inflight: 0,
            epoch,
            drain_counter: 0,
        })
    }

    /// Appends a batch durably: WAL first, then the row store. Consumes the
    /// batch — records move into the row store, they are never cloned.
    ///
    /// This is the convenience path (validate + encode + group append +
    /// apply in one call, blocking on the group barrier). The engine's
    /// ingest fast path splits it instead: encode with
    /// [`ShardStore::encode_batch_payload`] and append on the
    /// [`ShardStore::wal_handle`] with *no* shard lock held, then apply
    /// under the lock with [`ShardStore::apply_appended`].
    pub fn append_batch(&mut self, batch: RecordBatch) -> Result<Lsn> {
        for r in &batch.records {
            r.validate(self.rows.schema())?;
        }
        let payload = Self::encode_batch_payload(&batch.records);
        let lsn = self.wal.append(&payload)?;
        self.apply_appended(batch, lsn);
        Ok(lsn)
    }

    /// Encodes records into the tagged batch WAL payload (pure; callable
    /// without any lock).
    pub fn encode_batch_payload(records: &[LogRecord]) -> Vec<u8> {
        let mut payload = vec![PAYLOAD_BATCH];
        payload.extend_from_slice(&encode_batch(records));
        payload
    }

    /// Applies a batch that is already WAL-durable at `lsn` to the row
    /// store and confirms the apply to the WAL (releasing `lsn` as a
    /// truncation floor). Second half of the split fast path.
    pub fn apply_appended(&mut self, batch: RecordBatch, lsn: Lsn) {
        self.records_appended += batch.len() as u64;
        for r in batch.records {
            self.rows.insert(r);
        }
        self.wal.confirm_applied(lsn);
    }

    /// A shareable handle to the shard's WAL, for appends that must not
    /// run under the shard's own lock (the ingest fast path and the
    /// two-step drain).
    pub fn wal_handle(&self) -> Arc<GroupCommitWal> {
        Arc::clone(&self.wal)
    }

    /// WAL coalescing counters (benchmark/test observability).
    pub fn wal_stats(&self) -> GroupCommitStats {
        self.wal.stats()
    }

    /// fsyncs the WAL.
    pub fn sync(&mut self) -> Result<()> {
        self.wal.sync()
    }

    /// Queries the real-time store.
    pub fn scan(
        &self,
        tenant: TenantId,
        range: TimeRange,
        predicates: &[ColumnPredicate],
    ) -> Vec<LogRecord> {
        self.rows.scan(tenant, range, predicates)
    }

    /// Rows currently buffered.
    pub fn buffered_rows(&self) -> usize {
        self.rows.row_count()
    }

    /// Approximate buffered bytes.
    pub fn buffered_bytes(&self) -> usize {
        self.rows.bytes()
    }

    /// The underlying row store (read access for the data builder).
    pub fn row_store(&self) -> &RowStore {
        &self.rows
    }

    /// This open's durable epoch (test/observability hook).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Drains up to `max_rows` oldest rows for archiving, appending a drain
    /// intent to the WAL before returning. `None` when nothing is buffered.
    /// A non-empty drain opens an in-flight archive op that must be closed
    /// by exactly one [`ShardStore::checkpoint`] (upload succeeded) or
    /// [`ShardStore::restore_unarchived`] (upload failed). If the intent
    /// itself cannot be logged the drained rows go straight back and the
    /// error surfaces — no rows can leave the shard without an intent, or
    /// a crash after their upload would replay them as duplicates.
    pub fn drain_for_archive(
        &mut self,
        max_rows: usize,
    ) -> Result<Option<(DrainSeq, Vec<LogRecord>)>> {
        let pending = self.begin_drain_all(max_rows);
        self.log_pending_drain(pending)
    }

    /// Drains one tenant's rows (rebalancing flush). Same intent/ack
    /// contract as [`ShardStore::drain_for_archive`].
    pub fn drain_tenant(&mut self, tenant: TenantId) -> Result<Option<(DrainSeq, Vec<LogRecord>)>> {
        let pending = self.begin_drain_tenant(tenant);
        self.log_pending_drain(pending)
    }

    /// First half of a two-step full drain: removes up to `max_rows`
    /// oldest rows and opens the in-flight archive op, but does *not* log
    /// the intent — the caller appends [`PendingDrain::intent`] durably
    /// outside the shard lock (see [`PendingDrain`]).
    pub fn begin_drain_all(&mut self, max_rows: usize) -> Option<PendingDrain> {
        let drained = self.rows.drain_oldest(max_rows);
        self.begin_drain(drained)
    }

    /// First half of a two-step tenant drain (see
    /// [`ShardStore::begin_drain_all`]).
    pub fn begin_drain_tenant(&mut self, tenant: TenantId) -> Option<PendingDrain> {
        let drained = self.rows.drain_tenant(tenant);
        self.begin_drain(drained)
    }

    fn begin_drain(&mut self, drained: Vec<LogRecord>) -> Option<PendingDrain> {
        if drained.is_empty() {
            return None;
        }
        self.drain_counter += 1;
        let seq = DrainSeq { epoch: self.epoch, counter: self.drain_counter };
        let intent = encode_drain_intent(seq, &drained);
        // Open the op *before* the intent is logged: truncation must stay
        // blocked across the caller's unlocked append window. A failed
        // append rolls both counters back via restore_unarchived.
        self.archives_inflight += 1;
        self.records_archived += drained.len() as u64;
        Some(PendingDrain { seq, rows: drained, intent })
    }

    /// Second half of the convenience (single-call) drains: logs the
    /// intent with one durable group append, restoring the rows on
    /// failure. Blocks on the group barrier — the engine uses the
    /// two-step form instead to keep that wait outside its shard lock.
    fn log_pending_drain(
        &mut self,
        pending: Option<PendingDrain>,
    ) -> Result<Option<(DrainSeq, Vec<LogRecord>)>> {
        let Some(pending) = pending else { return Ok(None) };
        match self.wal.append_durable(&pending.intent) {
            Ok(lsn) => {
                // An intent needs no apply step; confirm immediately so it
                // never pins truncation (the open archive op already
                // blocks it for the whole drain window).
                self.wal.confirm_applied(lsn);
                Ok(Some((pending.seq, pending.rows)))
            }
            Err(e) => {
                self.restore_unarchived(pending.rows);
                Err(e)
            }
        }
    }

    /// Puts drained-but-unarchived rows back into the row store after a
    /// failed upload, closing that drain's in-flight archive op. The rows
    /// are still covered by the WAL (no checkpoint happened between the
    /// drain and this call), so they are *not* re-appended — memory is
    /// restored for queries, durability was never lost.
    pub fn restore_unarchived(&mut self, rows: Vec<LogRecord>) {
        if rows.is_empty() {
            return; // An empty drain opened no op; nothing to close.
        }
        self.archives_inflight = self.archives_inflight.saturating_sub(1);
        self.records_archived = self.records_archived.saturating_sub(rows.len() as u64);
        for r in rows {
            self.rows.insert(r);
        }
    }

    /// The archive ack: closes one in-flight archive op whose drained rows
    /// are now durable on OSS, and drops fully-archived WAL segments when
    /// that is provably safe. Conservative: only whole segments are
    /// removed.
    pub fn checkpoint(&mut self) -> Result<usize> {
        self.ack_archive_op();
        self.truncate_if_quiescent()
    }

    /// Closes one in-flight archive op without attempting truncation.
    /// [`ShardStore::checkpoint`] is this plus
    /// [`ShardStore::truncate_if_quiescent`]; callers that must interleave
    /// other work (crash hooks) between the two steps use them separately.
    pub fn ack_archive_op(&mut self) {
        self.archives_inflight = self.archives_inflight.saturating_sub(1);
    }

    /// Opportunistic checkpoint: truncates the WAL if that is provably
    /// safe right now, *without* closing any in-flight archive op. Forced
    /// build passes run this on shards that had nothing to drain, so
    /// truncations deferred by overlapping acks are eventually applied.
    pub fn truncate_if_quiescent(&mut self) -> Result<usize> {
        // Records map 1:1 onto batches only loosely; truncation is safe
        // only when *everything* ever appended is durable on OSS — i.e. no
        // drain's upload is still in flight (its rows live only in WAL
        // segments, anywhere in the prefix) and nothing is buffered
        // (restored or freshly ingested rows rely on WAL coverage too).
        // Otherwise defer: a later ack or opportunistic checkpoint that
        // finds the shard quiescent truncates everything at once. Rotate
        // first so the (non-deletable) active segment is empty.
        if self.archives_inflight == 0 && self.rows.row_count() == 0 {
            self.wal.rotate_now()?;
            self.wal.truncate_until(self.wal.next_lsn())
        } else {
            Ok(0)
        }
    }

    /// Lifetime counters: `(appended, archived)` record counts. The
    /// difference is always the buffered row count — the accounting
    /// invariant the simulation harness checks after every recovery.
    pub fn counters(&self) -> (u64, u64) {
        (self.records_appended, self.records_archived)
    }
}

/// Reads, increments and persists the shard's epoch counter.
fn bump_epoch(dir: &Path) -> Result<u64> {
    let path = dir.join(EPOCH_FILE);
    let previous = match std::fs::read_to_string(&path) {
        Ok(text) => text
            .trim()
            .parse::<u64>()
            .map_err(|_| Error::corruption("epoch file is not a number"))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
        Err(e) => return Err(e.into()),
    };
    let epoch = previous + 1;
    std::fs::write(&path, epoch.to_string())?;
    Ok(epoch)
}

fn encode_drain_intent(seq: DrainSeq, rows: &[LogRecord]) -> Vec<u8> {
    let mut payload = vec![PAYLOAD_DRAIN_INTENT];
    put_uvarint(&mut payload, seq.epoch);
    put_uvarint(&mut payload, seq.counter);
    payload.extend_from_slice(&encode_batch(rows));
    payload
}

fn decode_drain_intent(body: &[u8]) -> Result<(DrainSeq, Vec<LogRecord>)> {
    let mut pos = 0;
    let epoch = read_uvarint(body, &mut pos)?;
    let counter = read_uvarint(body, &mut pos)?;
    let rows = decode_batch(&body[pos..])?;
    Ok((DrainSeq { epoch, counter }, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::FlushPolicy;
    use logstore_types::{Timestamp, Value};
    use std::collections::HashMap;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "logstore-shard-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
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

    /// Test resolver: an in-memory committed-drains table.
    #[derive(Default)]
    struct TableResolver {
        commits: HashMap<DrainSeq, u64>,
        chunk_rows: usize,
    }

    impl DrainResolver for TableResolver {
        fn committed_chunks(&self, seq: DrainSeq) -> Option<u64> {
            self.commits.get(&seq).copied()
        }

        fn chunk_rows(&self) -> usize {
            self.chunk_rows
        }
    }

    fn drain_all(s: &mut ShardStore) -> (DrainSeq, Vec<LogRecord>) {
        s.drain_for_archive(usize::MAX).unwrap().expect("non-empty drain")
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = temp_dir("roundtrip");
        let mut s =
            ShardStore::open(&dir, TableSchema::request_log(), WalConfig::default()).unwrap();
        s.append_batch(RecordBatch::from_records(vec![rec(1, 10), rec(2, 20)])).unwrap();
        let hits = s.scan(TenantId(1), TimeRange::all(), &[]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].ts, Timestamp(10));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn crash_recovery_restores_rows() {
        let dir = temp_dir("recovery");
        {
            let mut s =
                ShardStore::open(&dir, TableSchema::request_log(), WalConfig::default()).unwrap();
            for i in 0..50 {
                s.append_batch(RecordBatch::from_records(vec![rec(1, i)])).unwrap();
            }
            s.sync().unwrap();
            // Dropped without checkpoint — simulating a crash.
        }
        let s = ShardStore::open(&dir, TableSchema::request_log(), WalConfig::default()).unwrap();
        assert_eq!(s.buffered_rows(), 50);
        assert_eq!(s.scan(TenantId(1), TimeRange::all(), &[]).len(), 50);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn epochs_increase_across_opens() {
        let dir = temp_dir("epoch");
        let first = {
            let s =
                ShardStore::open(&dir, TableSchema::request_log(), WalConfig::default()).unwrap();
            s.epoch()
        };
        let s = ShardStore::open(&dir, TableSchema::request_log(), WalConfig::default()).unwrap();
        assert!(s.epoch() > first, "drain seqs must stay unique across restarts");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn invalid_records_rejected_before_wal() {
        let dir = temp_dir("validate");
        let mut s =
            ShardStore::open(&dir, TableSchema::request_log(), WalConfig::default()).unwrap();
        let mut bad = rec(1, 1);
        bad.fields.pop();
        assert!(s.append_batch(RecordBatch::from_records(vec![bad])).is_err());
        assert_eq!(s.buffered_rows(), 0);
        // WAL stayed clean: reopen sees nothing.
        drop(s);
        let s = ShardStore::open(&dir, TableSchema::request_log(), WalConfig::default()).unwrap();
        assert_eq!(s.buffered_rows(), 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn drain_and_checkpoint_truncate_wal() {
        let dir = temp_dir("checkpoint");
        let config = WalConfig { max_segment_bytes: 256, ..WalConfig::default() };
        let mut s = ShardStore::open(&dir, TableSchema::request_log(), config.clone()).unwrap();
        for i in 0..100 {
            s.append_batch(RecordBatch::from_records(vec![rec(1, i)])).unwrap();
        }
        let (_, drained) = drain_all(&mut s);
        assert_eq!(drained.len(), 100);
        assert_eq!(s.counters(), (100, 100));
        let deleted = s.checkpoint().unwrap();
        assert!(deleted > 0, "expected wal segments to be dropped");
        drop(s);
        let s = ShardStore::open(&dir, TableSchema::request_log(), config).unwrap();
        assert_eq!(s.buffered_rows(), 0, "archived rows must not resurrect");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn restore_unarchived_rolls_back_a_failed_archive() {
        let dir = temp_dir("restore");
        let mut s =
            ShardStore::open(&dir, TableSchema::request_log(), WalConfig::default()).unwrap();
        for i in 0..10 {
            s.append_batch(RecordBatch::from_records(vec![rec(1, i)])).unwrap();
        }
        let (_, drained) = drain_all(&mut s);
        assert_eq!(s.buffered_rows(), 0);
        assert_eq!(s.counters(), (10, 10));
        // Upload "failed": put everything back.
        s.restore_unarchived(drained);
        assert_eq!(s.buffered_rows(), 10);
        assert_eq!(s.counters(), (10, 0));
        assert_eq!(s.scan(TenantId(1), TimeRange::all(), &[]).len(), 10);
        // The rows were never re-appended: reopen replays exactly one copy.
        drop(s);
        let s = ShardStore::open(&dir, TableSchema::request_log(), WalConfig::default()).unwrap();
        assert_eq!(s.buffered_rows(), 10, "WAL must hold exactly one copy of each row");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn crash_between_drain_and_ack_replays_drained_rows() {
        // Rows drained for archiving stay WAL-covered until the post-upload
        // ack. A crash inside that window with no committed upload must
        // lose nothing.
        let dir = temp_dir("drain-crash");
        {
            let mut s =
                ShardStore::open(&dir, TableSchema::request_log(), WalConfig::default()).unwrap();
            for i in 0..25 {
                s.append_batch(RecordBatch::from_records(vec![rec(1, i)])).unwrap();
            }
            s.sync().unwrap();
            let (_, drained) = drain_all(&mut s);
            assert_eq!(drained.len(), 25);
            // Crash before the upload completed: no checkpoint() call.
        }
        let s = ShardStore::open(&dir, TableSchema::request_log(), WalConfig::default()).unwrap();
        assert_eq!(s.buffered_rows(), 25, "drained rows must replay after a crash");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn crash_after_committed_upload_does_not_duplicate_rows() {
        // The exactly-once half of the protocol: a crash after the upload
        // committed but before the ack truncated the WAL must NOT restore
        // rows that live in registered LogBlocks.
        let dir = temp_dir("commit-dedup");
        let seq = {
            let mut s =
                ShardStore::open(&dir, TableSchema::request_log(), WalConfig::default()).unwrap();
            for i in 0..30 {
                s.append_batch(RecordBatch::from_records(vec![rec(1, i)])).unwrap();
            }
            let (seq, drained) = drain_all(&mut s);
            assert_eq!(drained.len(), 30);
            seq
            // Crash: the upload finished and committed, the ack never ran.
        };
        // All 3 chunks (cap 10) committed: nothing comes back.
        let resolver = TableResolver { commits: HashMap::from([(seq, 3)]), chunk_rows: 10 };
        let s = ShardStore::open_with(
            &dir,
            TableSchema::request_log(),
            WalConfig::default(),
            &resolver,
        )
        .unwrap();
        assert_eq!(s.buffered_rows(), 0, "committed rows must not resurrect");
        assert_eq!(s.counters(), (30, 30));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn partial_commit_restores_only_uncommitted_chunks() {
        let dir = temp_dir("commit-partial");
        let seq = {
            let mut s =
                ShardStore::open(&dir, TableSchema::request_log(), WalConfig::default()).unwrap();
            for i in 0..30 {
                s.append_batch(RecordBatch::from_records(vec![rec(1, i)])).unwrap();
            }
            let (seq, _) = drain_all(&mut s);
            seq
        };
        // Only the first chunk (rows ts 0..10) made it before the crash.
        let resolver = TableResolver { commits: HashMap::from([(seq, 1)]), chunk_rows: 10 };
        let s = ShardStore::open_with(
            &dir,
            TableSchema::request_log(),
            WalConfig::default(),
            &resolver,
        )
        .unwrap();
        assert_eq!(s.buffered_rows(), 20);
        let restored = s.scan(TenantId(1), TimeRange::all(), &[]);
        assert!(restored.iter().all(|r| r.ts.millis() >= 10), "committed chunk must stay out");
        assert_eq!(s.counters(), (30, 10));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn interleaved_appends_and_drains_replay_consistently() {
        // append 20 → drain (committed) → append 20 more → crash. Replay
        // must keep the first drain archived and restore only the tail.
        let dir = temp_dir("interleave");
        let seq = {
            let mut s =
                ShardStore::open(&dir, TableSchema::request_log(), WalConfig::default()).unwrap();
            for i in 0..20 {
                s.append_batch(RecordBatch::from_records(vec![rec(1, i)])).unwrap();
            }
            let (seq, _) = drain_all(&mut s);
            for i in 20..40 {
                s.append_batch(RecordBatch::from_records(vec![rec(1, i)])).unwrap();
            }
            seq
        };
        let resolver = TableResolver { commits: HashMap::from([(seq, 1)]), chunk_rows: 100 };
        let s = ShardStore::open_with(
            &dir,
            TableSchema::request_log(),
            WalConfig::default(),
            &resolver,
        )
        .unwrap();
        assert_eq!(s.buffered_rows(), 20);
        let buffered = s.scan(TenantId(1), TimeRange::all(), &[]);
        assert!(buffered.iter().all(|r| r.ts.millis() >= 20));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn overlapping_archive_acks_defer_truncation_until_the_last() {
        // The drain→ack window of one build pass can overlap another's:
        // pass A drains, new rows arrive and pass B drains them, then A
        // acks while B's upload is still in flight. A's ack must not
        // truncate the WAL segments covering B's rows.
        let dir = temp_dir("overlap");
        let config =
            WalConfig { max_segment_bytes: 256, flush: FlushPolicy::Sync, ..WalConfig::default() };
        {
            let mut s = ShardStore::open(&dir, TableSchema::request_log(), config.clone()).unwrap();
            for i in 0..50 {
                s.append_batch(RecordBatch::from_records(vec![rec(1, i)])).unwrap();
            }
            let (_, a) = drain_all(&mut s);
            assert_eq!(a.len(), 50);
            for i in 50..80 {
                s.append_batch(RecordBatch::from_records(vec![rec(1, i)])).unwrap();
            }
            let (_, b) = drain_all(&mut s);
            assert_eq!(b.len(), 30);
            // A's upload finished first; B's is still in flight.
            assert_eq!(s.checkpoint().unwrap(), 0, "ack with another archive in flight");
            // Crash here: B's upload never completed, so its rows must
            // still be WAL-covered (A's redundant replay is harmless —
            // its rows are durable on OSS and acked).
        }
        let s = ShardStore::open(&dir, TableSchema::request_log(), config).unwrap();
        assert_eq!(s.buffered_rows(), 80, "in-flight rows must survive the overlapping ack");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn last_overlapping_ack_truncates_everything() {
        let dir = temp_dir("overlap-last");
        let config =
            WalConfig { max_segment_bytes: 256, flush: FlushPolicy::Sync, ..WalConfig::default() };
        {
            let mut s = ShardStore::open(&dir, TableSchema::request_log(), config.clone()).unwrap();
            for i in 0..50 {
                s.append_batch(RecordBatch::from_records(vec![rec(1, i)])).unwrap();
            }
            drain_all(&mut s);
            for i in 50..80 {
                s.append_batch(RecordBatch::from_records(vec![rec(1, i)])).unwrap();
            }
            drain_all(&mut s);
            assert_eq!(s.checkpoint().unwrap(), 0);
            assert!(s.checkpoint().unwrap() > 0, "the last ack finds the shard quiescent");
        }
        let s = ShardStore::open(&dir, TableSchema::request_log(), config).unwrap();
        assert_eq!(s.buffered_rows(), 0, "fully-acked rows must not resurrect");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn inflight_tenant_drain_blocks_truncation() {
        // A rebalance flush (drain_tenant) overlapping a full build pass:
        // the pass's ack must keep the WAL until the tenant flush either
        // acks or restores.
        let dir = temp_dir("overlap-tenant");
        let config =
            WalConfig { max_segment_bytes: 256, flush: FlushPolicy::Sync, ..WalConfig::default() };
        {
            let mut s = ShardStore::open(&dir, TableSchema::request_log(), config.clone()).unwrap();
            for i in 0..40 {
                s.append_batch(RecordBatch::from_records(vec![rec(1 + (i % 2) as u64, i)]))
                    .unwrap();
            }
            let (_, moved) = s.drain_tenant(TenantId(2)).unwrap().unwrap();
            assert_eq!(moved.len(), 20);
            let (_, rest) = drain_all(&mut s);
            assert_eq!(rest.len(), 20);
            // The full pass acks first; the tenant flush is still in flight.
            assert_eq!(s.checkpoint().unwrap(), 0, "tenant drain in flight blocks truncation");
            // The tenant flush fails and rolls back: still no truncation —
            // the restored rows live only in the WAL.
            s.restore_unarchived(moved);
            assert_eq!(s.buffered_rows(), 20);
        }
        let s = ShardStore::open(&dir, TableSchema::request_log(), config).unwrap();
        assert_eq!(s.buffered_rows(), 40, "restored tenant rows must stay WAL-covered");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn checkpoint_keeps_wal_while_rows_buffered() {
        let dir = temp_dir("keep");
        let mut s =
            ShardStore::open(&dir, TableSchema::request_log(), WalConfig::default()).unwrap();
        s.append_batch(RecordBatch::from_records(vec![rec(1, 1)])).unwrap();
        assert_eq!(s.checkpoint().unwrap(), 0);
        drop(s);
        let s = ShardStore::open(&dir, TableSchema::request_log(), WalConfig::default()).unwrap();
        assert_eq!(s.buffered_rows(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn drain_seqs_are_unique_within_and_across_opens() {
        let dir = temp_dir("drain-seq");
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3 {
            let mut s =
                ShardStore::open(&dir, TableSchema::request_log(), WalConfig::default()).unwrap();
            for round in 0..2 {
                s.append_batch(RecordBatch::from_records(vec![rec(1, round)])).unwrap();
                let (seq, rows) = drain_all(&mut s);
                assert!(seen.insert(seq), "duplicate drain seq {seq:?}");
                s.restore_unarchived(rows);
                // Drain the restored row again next round: new seq.
            }
        }
        assert_eq!(seen.len(), 6);
        let _ = std::fs::remove_dir_all(dir);
    }
}
