//! Per-shard phase-one storage: an optional WAL in front of the row store,
//! with crash recovery.
//!
//! [`ShardStore`] is the one type that knows whether a shard has a WAL
//! (`None` = a memory-only shard), how a drain is checkpointed, settled
//! and acked, and where the WAL may be cut. Its methods take `&self`: the
//! WAL sits *outside* the one internal mutex (`wal.shard.inner`: rows,
//! counters, the unsettled drain), so every group append — a batch, a
//! checkpoint or an ack — runs with no lock held and concurrent producers
//! share group commits.
//!
//! # Ingest
//!
//! [`ShardStore::append`] is the whole phase-one write: it validates the
//! batch against the shard's table schema — the one place rows are
//! validated — copies its cells into column runs of their own, encodes the
//! payload from the runs (only when the shard has a WAL: a LogBlock column
//! block per column, the batch's one encoding), group-appends it with no
//! lock held, then appends the runs to the row store's tail under the
//! lock and confirms the LSN applied before it drops the lock. In between
//! the LSN is *unapplied*; a drop guard confirms it if the apply unwinds,
//! leaving the rows "in doubt" — never acknowledged, never applied live.
//! [`ShardStore::snapshot`] hands a query the runs it may have rows in, by
//! reference, so that no row is ever read under the lock.
//!
//! # One drain, checkpoints and the cut
//!
//! [`ShardStore::take`] is the shard's one drain. It takes every buffered
//! row and logs (fsynced) a **checkpoint** of the shard at the take:
//! `take` (the WAL's next LSN), `unapplied` (the LSNs below it logged but
//! not applied), the archived counter and the drained runs — exactly what
//! it drained, since the store is empty after the take. The checkpoint's
//! LSN names the drain: the uploader commits "the first `k` chunks of
//! drain `lsn`, partitioned at `chunk_rows`, are durable" atomically in
//! the metadata store.
//!
//! The drained runs leave the row store but not the shard. They wait on a
//! **side list**, which [`ShardStore::snapshot`] still hands out, until
//! [`ShardStore::settle`] runs the metadata commit that registers the
//! drain's LogBlocks and, under the lock, drops the side runs — folding
//! what the commit left unarchived back into the store — so a row is
//! always in the store, on the side list or in the LogBlock map. The
//! shard's **settle sequence** ([`ShardStore::settles`]) is odd from just
//! before the commit until the side runs are gone; a snapshot reports it,
//! so a query that read it before its map read and finds it changed knows
//! that a commit straddled the two and retries. The drain then ends in an
//! [`ShardStore::ack_archived`] (an ack record names it) if the commit
//! archived it whole, and in [`ShardStore::settled`] either way.
//!
//! A drain is *unsettled* from its take until [`ShardStore::settled`], and
//! a shard holds one at most: a take waits for it, and a forced take
//! (`min_bytes == 0`) waits even with nothing to take, so it is a barrier.
//! A settle that panicked is [`ShardStore::abandon`]ed instead: every later
//! take re-raises the panic rather than wait, and logs nothing.
//!
//! So when a take logs its checkpoint, every earlier drain of the shard is
//! closed: acked; folded back, its unarchived rows in the store and so in
//! this checkpoint; or committed whole with an ack that failed to log, its
//! commit record saying every chunk is on OSS. No earlier drain is left for
//! a replay from this checkpoint to settle, and the checkpoint names none.
//! For the same reason the drain an ack names is the last checkpoint —
//! none is logged before its settle ends — and every drain below it is
//! closed: no replay reads a commit record below the acked LSN + 1.
//!
//! Replay decodes the logged runs straight back into runs. It starts at the
//! last checkpoint C, from an empty store: the batches C names in
//! `unapplied` or `[C.take, C)`, each joining the tail as its live append
//! did. C's drain is then archived in full if an ack names it, else its
//! committed prefix ([`DrainCommit`], split with [`partition_runs`] as the
//! builder uploaded it) stays out and the rest goes back with
//! [`RowStore::restore`]. Every batch after C follows; without a
//! checkpoint, every batch. Runs that do not decode as the schema types
//! them (another schema's fingerprint, a block the column codec rejects, a
//! NULL in a NOT NULL column), or an LSN C names that the WAL lacks or that
//! holds another kind of record, is [`Error::Corruption`]; an ack of a
//! drain no longer in the WAL is ignored. Replay reads nothing below C's
//! bound `min(take, unapplied)`, which never decreases, so every ack
//! rotates the active segment and drops the whole segments below the last
//! bound.

use crate::group::{GroupCommitWal, Lsn, ReplayedRecord, WalConfig};
use crate::rowstore::{partition_runs, Drained, RowSnapshot, RowStore, Run, RUN_ROWS};
use logstore_codec::crc::crc32c;
use logstore_codec::varint::{put_uvarint, read_uvarint};
use logstore_codec::Compression;
use logstore_logblock::column::{decode_block_into, ColumnEncoder};
use logstore_sync::{sync_point, OrderedCondvar, OrderedMutex};
use logstore_types::{ColumnVec, Error, LogRecord, Result, TableSchema, TenantId, TimeRange};
use std::any::Any;
use std::cell::RefCell;
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// WAL payload tag: a regular appended record batch.
const PAYLOAD_BATCH: u8 = 0;
/// WAL payload tag: a drain's checkpoint of the shard.
const PAYLOAD_CHECKPOINT: u8 = 1;
/// WAL payload tag: the ack of one drain, named by its checkpoint's LSN.
const PAYLOAD_ACK: u8 = 2;

/// What a drain's metadata commit recorded: its first `chunks` chunks,
/// partitioned at `chunk_rows` rows per chunk, are durable on OSS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainCommit {
    /// Leading chunks registered in the LogBlock map.
    pub chunks: u64,
    /// The chunk row cap the uploader partitioned with.
    pub chunk_rows: usize,
}

/// What a panicking settle unwound with.
pub type Payload = Box<dyn Any + Send>;

/// A drain whose checkpoint is logged: the checkpoint's LSN (`None` on a
/// memory-only shard) plus the drained rows, ready for the archive
/// pipeline.
pub type LoggedDrain = (Option<Lsn>, Drained);

/// Where one [`ShardStore::append_timed`] call's time went, for the
/// engine's ingest stage timers. The stages add up to the call.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AppendTimes {
    /// Validating the rows against the schema, staging them into column
    /// runs and encoding the WAL payload from the runs (no encoding on a
    /// memory-only shard).
    pub encode: Duration,
    /// The group append: waiting for, and sharing, a group commit.
    pub wal: Duration,
    /// Appending the staged runs to the row store under the lock, the lock
    /// wait included.
    pub apply: Duration,
}

/// A batch that is in the WAL but not yet in the row store: its LSN is
/// unapplied until the batch is applied or this value is dropped.
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

/// A checkpoint's header: what a replay starting at it reads besides its
/// rows (see the module docs).
struct Checkpoint {
    take: Lsn,
    unapplied: Vec<Lsn>,
    /// Records archived at the take, this drain's included.
    archived: u64,
}

impl Checkpoint {
    /// The cut bound: the lowest LSN a replay starting here reads.
    fn bound(&self) -> Lsn {
        self.unapplied.first().map_or(self.take, |&lowest| lowest.min(self.take))
    }

    fn put_header(&self, out: &mut Vec<u8>) {
        put_uvarint(out, self.take);
        put_uvarint(out, self.unapplied.len() as u64);
        self.unapplied.iter().for_each(|&lsn| put_uvarint(out, lsn));
        put_uvarint(out, self.archived);
    }

    /// Decodes checkpoint `lsn`'s body: the header and the drained runs.
    fn decode(typing: &Typing, lsn: Lsn, body: &[u8]) -> Result<(Self, Drained)> {
        let pos = &mut 0;
        let (take, unapplied) = (read_uvarint(body, pos)?, read_lsns(body, pos)?);
        let archived = read_uvarint(body, pos)?;
        let drained = Drained::from_runs(typing.read_runs(lsn, body, pos)?);
        Ok((Checkpoint { take, unapplied, archived }, drained))
    }
}

/// The schema the WAL's runs are typed by, and its fingerprint — a crc32c
/// over each column's type and nullability — which leads them in a record.
struct Typing {
    schema: Arc<TableSchema>,
    fingerprint: [u8; 4],
}

impl Typing {
    fn new(schema: Arc<TableSchema>) -> Typing {
        let typed: Vec<u8> =
            schema.columns.iter().flat_map(|c| [c.data_type.tag(), c.nullable.into()]).collect();
        Typing { fingerprint: crc32c(&typed).to_le_bytes(), schema }
    }

    /// Appends the fingerprint, then `uvarint count | (uvarint rows |
    /// (uvarint len | column block)^width)^count`, each block's data frame
    /// raw: what ends a batch and a checkpoint.
    fn put_runs<'a>(&self, out: &mut Vec<u8>, runs: impl Iterator<Item = &'a Run> + Clone) {
        out.extend_from_slice(&self.fingerprint);
        put_uvarint(out, runs.clone().count() as u64);
        ENCODER.with_borrow_mut(|encoder| {
            for run in runs {
                put_uvarint(out, run.len() as u64);
                for column in run.columns() {
                    let block = encoder.encode(column, Compression::None);
                    put_uvarint(out, block.len() as u64);
                    out.extend_from_slice(block);
                }
            }
        })
    }

    /// The batch payload of the rows `staged` holds.
    fn batch_payload(&self, staged: &RowStore) -> Vec<u8> {
        let mut payload = Vec::with_capacity(16 + staged.bytes());
        payload.push(PAYLOAD_BATCH);
        self.put_runs(&mut payload, staged.runs());
        payload
    }

    /// Reads the [`Typing::put_runs`] list that ends record `lsn`'s body,
    /// each column decoded as the schema types it. Another fingerprint is
    /// corruption, and so are a run of no rows or of more than the store
    /// seals and a NULL in a NOT NULL column.
    fn read_runs(&self, lsn: Lsn, body: &[u8], pos: &mut usize) -> Result<Vec<Run>> {
        if body.get(*pos..*pos + 4) != Some(&self.fingerprint[..]) {
            return Err(corrupt(lsn, "runs of another schema"));
        }
        *pos += 4;
        let count = read_uvarint(body, pos)?;
        // Every run takes bytes: a count past the body sizes nothing.
        let mut runs = Vec::with_capacity(count.min((body.len() - *pos) as u64) as usize);
        for _ in 0..count {
            let rows = read_uvarint(body, pos)?;
            if !(1..=RUN_ROWS as u64).contains(&rows) {
                return Err(corrupt(lsn, format!("a run of {rows} rows")));
            }
            let mut columns = Vec::with_capacity(self.schema.width());
            for column in &self.schema.columns {
                let len = read_uvarint(body, pos)? as usize;
                let block = body.get(*pos..).and_then(|rest| rest.get(..len));
                let block = block.ok_or_else(|| corrupt(lsn, "a block past the body"))?;
                let mut cells = ColumnVec::default();
                decode_block_into(column.data_type, block, rows as u32, &mut cells)
                    .map_err(|e| corrupt(lsn, e))?;
                if !column.nullable && cells.has_nulls() {
                    return Err(corrupt(lsn, format!("a NULL in NOT NULL '{}'", column.name)));
                }
                *pos += len;
                columns.push(cells);
            }
            runs.push(Run::from_columns(columns));
        }
        match *pos == body.len() {
            true => Ok(runs),
            false => Err(corrupt(lsn, "trailing bytes")),
        }
    }
}

/// Everything the shard lock guards.
struct Inner {
    rows: RowStore,
    /// Count of records ever appended (recovered + new).
    records_appended: u64,
    /// Records drained to the archiver so far (fold-backs subtract).
    records_archived: u64,
    /// The bound of the last logged checkpoint: acks cut below it.
    cut: Lsn,
    /// A taken drain is not settled: the next take waits for it.
    settling: bool,
    /// The runs of the taken drain until its commit: snapshots still hand
    /// them out.
    side: Vec<Arc<Run>>,
    /// The settle sequence: odd from just before a settle's commit until
    /// its side runs are gone.
    settles: u64,
    /// A settle of this shard panicked: what every later take re-raises.
    abandoned: Option<Payload>,
}

/// Recoverable phase-one storage for one shard (see the module docs).
pub struct ShardStore {
    /// `None` on a memory-only shard.
    wal: Option<GroupCommitWal>,
    /// The table every buffered and logged row is a row of.
    typing: Typing,
    inner: OrderedMutex<Inner>,
    /// `Inner::settling` went false, the settle sequence went even, or a
    /// settle was abandoned.
    logged: OrderedCondvar,
}

impl ShardStore {
    /// A memory-only shard of `schema`'s rows: the same protocol with no
    /// WAL behind it, so nothing survives a restart and drains carry no LSN.
    pub fn in_memory(schema: Arc<TableSchema>) -> Self {
        let rows = RowStore::new(&schema);
        Self::assemble(None, Typing::new(schema), rows, (0, 0))
    }

    /// Opens the shard directory, replaying any existing WAL. Drains the
    /// WAL names and never acked are treated as never committed (their rows
    /// are restored); use [`ShardStore::open_with`] when a metadata store
    /// can say which drains actually reached OSS.
    pub fn open(
        dir: impl AsRef<Path>,
        config: WalConfig,
        schema: Arc<TableSchema>,
    ) -> Result<Self> {
        Self::open_with(dir, config, schema, &|_| None)
    }

    /// Opens the shard directory, replaying the WAL from its last
    /// checkpoint and reconciling each drain it settles without an ack
    /// against `committed(checkpoint lsn)`: rows of committed chunks stay
    /// archived, everything else returns to the row store. A record that
    /// does not decode, or is not a row of `schema`, is
    /// [`Error::Corruption`].
    pub fn open_with(
        dir: impl AsRef<Path>,
        config: WalConfig,
        schema: Arc<TableSchema>,
        committed: &dyn Fn(Lsn) -> Option<DrainCommit>,
    ) -> Result<Self> {
        let (wal, log) = GroupCommitWal::open(dir, config)?;
        let typing = Typing::new(schema);
        let (rows, counters) = replay(&typing, &log, committed)?;
        Ok(Self::assemble(Some(wal), typing, rows, counters))
    }

    /// The one construction site, so the lock label names one lock.
    fn assemble(
        wal: Option<GroupCommitWal>,
        typing: Typing,
        rows: RowStore,
        (records_appended, records_archived): (u64, u64),
    ) -> Self {
        let inner = Inner {
            rows,
            records_appended,
            records_archived,
            cut: 0,
            settling: false,
            side: Vec::new(),
            settles: 0,
            abandoned: None,
        };
        ShardStore {
            wal,
            typing,
            inner: OrderedMutex::new("wal.shard.inner", inner),
            logged: OrderedCondvar::new("wal.shard.logged"),
        }
    }

    /// The batch payload a shard of [`TableSchema::request_log`] logs for
    /// its `records` (pure), for the benchmark's WAL probes; ROADMAP 1(a)
    /// deletes it along with them.
    #[doc(hidden)]
    pub fn encode_batch_payload(records: &[LogRecord]) -> Vec<u8> {
        let typing = Typing::new(Arc::new(TableSchema::request_log()));
        let mut staged = RowStore::new(&typing.schema);
        staged.insert_batch(records);
        typing.batch_payload(&staged)
    }

    /// Phase-one ingest of one batch: validates it against the schema,
    /// appends it to the WAL with no lock held, blocking on the group's
    /// barrier so concurrent producers share one group commit, then moves
    /// the records into the row store under the lock. A memory-only shard
    /// encodes and logs nothing. An error means a record is not a row of
    /// the schema (`InvalidArgument`, nothing logged) or the WAL append
    /// failed; either way nothing was applied.
    pub fn append(&self, records: Vec<LogRecord>) -> Result<()> {
        self.append_timed(records).map(drop)
    }

    /// [`ShardStore::append`], also saying where its time went.
    pub fn append_timed(&self, records: Vec<LogRecord>) -> Result<AppendTimes> {
        STAGING.with_borrow_mut(|staged| {
            let start = Instant::now();
            let schema = &self.typing.schema;
            for r in &records {
                r.validate(schema)?;
            }
            let staged = match staged {
                Some(staged) if staged.is_typed_by(schema) => staged,
                // This thread's first append, or its first to a shard of
                // another schema: the only time staging allocates.
                _ => staged.insert(RowStore::new(schema)),
            };
            stage(staged, records);
            let payload = match self.wal {
                Some(_) => self.typing.batch_payload(staged),
                None => Vec::new(),
            };
            let encoded = Instant::now();
            let logged = self.log_batch(&payload)?;
            let logged_at = Instant::now();
            // Logged but not yet applied: the window in which a checkpoint
            // must name the batch as unapplied.
            sync_point("wal.shard.apply_window");
            self.apply(staged, logged);
            Ok(AppendTimes {
                encode: encoded - start,
                wal: logged_at - encoded,
                apply: logged_at.elapsed(),
            })
        })
    }

    /// First half of [`ShardStore::append`]: group-appends `payload`, the
    /// batch payload of the staged rows, to the WAL. A memory-only shard
    /// ignores the payload.
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
    /// [`stage`]d into column batches, into the row store and confirms
    /// their LSN applied before the lock goes, so that no checkpoint finds
    /// the rows both in the store and unapplied.
    fn apply(&self, staged: &mut RowStore, logged: LoggedBatch<'_>) {
        let mut inner = self.inner.lock();
        inner.records_appended += staged.row_count() as u64;
        inner.rows.absorb(staged);
        drop(logged);
        drop(inner);
    }

    /// The runs that may hold rows of `tenant` within `range`, by
    /// reference and in arrival order: the side list's, then the store's.
    /// The lock is held for as long as it takes to look at each run's
    /// bounds — no row is visited under it — and the caller reads the
    /// snapshot with no lock at all: appends and drains go on beside it,
    /// and what a drain takes away meanwhile stays readable through the
    /// snapshot. It reports the settle sequence it was taken at.
    pub fn snapshot(&self, tenant: TenantId, range: TimeRange) -> RowSnapshot {
        let snapshot = {
            let mut inner = self.inner.lock();
            let mut snapshot = RowSnapshot { settles: inner.settles, ..RowSnapshot::default() };
            snapshot.add(&inner.side, tenant, range);
            let rows = inner.rows.snapshot(tenant, range);
            snapshot.runs.extend(rows.runs);
            snapshot.runs_pruned += rows.runs_pruned;
            snapshot
        };
        sync_point("wal.shard.snapshot_window");
        snapshot
    }

    /// The settle sequence, once no settle is between its commit and the
    /// removal of its side runs (it is even then). A reader that takes it
    /// before it reads the LogBlock map, and finds it unchanged in its
    /// snapshot, saw every row exactly once: in the map or in the shard.
    pub fn settles(&self) -> u64 {
        let mut inner = self.inner.lock();
        while inner.settles % 2 == 1 {
            self.logged.wait(&mut inner);
        }
        inner.settles
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

    /// Tenants the shard holds rows of: buffered, or on the side list of a
    /// taken drain not yet registered. Until a tenant is out of this set,
    /// its reads must reach the shard.
    pub fn held_tenants(&self) -> Vec<TenantId> {
        let inner = self.inner.lock();
        let mut tenants = inner.rows.tenants();
        tenants.extend(inner.side.iter().flat_map(|run| run.tenants()));
        tenants.sort_unstable();
        tenants.dedup();
        tenants
    }

    /// Lifetime counters: `(appended, archived)` record counts. The
    /// difference is always the buffered row count — the accounting
    /// invariant the simulation harness checks after every recovery.
    pub fn counters(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.records_appended, inner.records_archived)
    }

    /// Drains every buffered row, oldest first, if at least `min_bytes` are
    /// buffered (`0` = unconditionally); `None` when nothing was drained.
    /// The checkpoint is logged, with no lock held, before it returns; if it
    /// cannot be, the rows go straight back and the error surfaces. The
    /// drained runs stay on the side list — still in every snapshot — until
    /// [`ShardStore::settle`] registers them, and the drain is unsettled
    /// until [`ShardStore::settled`] (or [`ShardStore::abandon`]).
    ///
    /// A take that would take rows first waits for the shard's unsettled
    /// drain to settle; a forced one waits even with nothing to take. If a
    /// settle of the shard was abandoned, this re-raises its panic instead.
    pub fn take(&self, min_bytes: usize) -> Result<Option<LoggedDrain>> {
        self.take_timed(min_bytes).map(|(drain, _)| drain)
    }

    /// [`ShardStore::take`], also saying how long it waited for the shard's
    /// unsettled drain.
    pub fn take_timed(&self, min_bytes: usize) -> Result<(Option<LoggedDrain>, Duration)> {
        let wants = |rows: &RowStore| rows.row_count() > 0 && rows.bytes() >= min_bytes;
        let mut inner = self.inner.lock();
        let mut waited = Duration::ZERO;
        loop {
            if let Some(payload) = inner.abandoned.take() {
                inner.abandoned = Some(Box::new("an earlier settle of this shard panicked"));
                drop(inner);
                std::panic::resume_unwind(payload);
            }
            if !inner.settling || (min_bytes > 0 && !wants(&inner.rows)) {
                break;
            }
            let wait = Instant::now();
            self.logged.wait(&mut inner);
            waited += wait.elapsed();
        }
        if !wants(&inner.rows) {
            return Ok((None, waited));
        }
        let drained = inner.rows.drain_all();
        inner.settling = true;
        inner.side = drained.runs().to_vec();
        inner.records_archived += drained.len() as u64;
        let Some(wal) = &self.wal else { return Ok((Some((None, drained)), waited)) };
        let (take, unapplied) = wal.next_and_unapplied();
        let checkpoint = Checkpoint { take, unapplied, archived: inner.records_archived };
        drop(inner);
        // The runs are immutable: the checkpoint is encoded from them
        // outside the lock, beside any query still reading them.
        sync_point("wal.shard.drain_window");
        // The payload: tag, header, fingerprint, the drained runs.
        let mut payload = Vec::with_capacity(16 + drained.bytes());
        payload.push(PAYLOAD_CHECKPOINT);
        checkpoint.put_header(&mut payload);
        self.typing.put_runs(&mut payload, drained.runs().iter().map(|run| &**run));
        let logged = wal.append_unpinned(&payload, true);
        let mut inner = self.inner.lock();
        match logged {
            Ok(lsn) => {
                debug_assert!(checkpoint.bound() >= inner.cut, "the cut bound went back");
                inner.cut = checkpoint.bound();
                Ok((Some((Some(lsn), drained)), waited))
            }
            Err(e) => {
                inner.records_archived -= drained.len() as u64;
                inner.settling = false;
                inner.side.clear();
                inner.rows.restore(drained);
                self.logged.notify_all();
                Err(e)
            }
        }
    }

    /// Settles drain `drain`: `commit` registers what of it is durable on
    /// OSS (the metadata commit) and returns what it leaves unarchived —
    /// `None` when the whole drain is archived and its ack follows, or
    /// `Some(rows)` to close the drain by handing those rows back after
    /// every buffered row, as they are — nothing is logged: a replay settles
    /// the drain through its commit record. The settle sequence is odd
    /// while `commit` runs, and the side runs go, the unarchived rows with
    /// them back into the store, under the lock that makes it even again.
    /// If `commit` unwinds, the sequence goes even and the side runs stay:
    /// the drain is the crash's to settle, on replay.
    pub fn settle<T>(&self, commit: impl FnOnce() -> (T, Option<Drained>)) -> T {
        /// Ends the odd stretch if the commit unwinds.
        struct Even<'a>(&'a ShardStore);
        impl Drop for Even<'_> {
            fn drop(&mut self) {
                let mut inner = self.0.inner.lock();
                inner.settles += 1;
                self.0.logged.notify_all();
            }
        }
        self.inner.lock().settles += 1;
        let even = Even(self);
        sync_point("wal.shard.settle_window");
        let (value, unarchived) = commit();
        std::mem::forget(even);
        let mut inner = self.inner.lock();
        inner.side.clear();
        if let Some(rows) = unarchived {
            inner.records_archived = inner.records_archived.saturating_sub(rows.len() as u64);
            inner.rows.restore(rows);
        }
        inner.settles += 1;
        self.logged.notify_all();
        value
    }

    /// Ends the settle of the taken drain, its ack or fold-back done: the
    /// next take may go.
    pub fn settled(&self) {
        let mut inner = self.inner.lock();
        inner.settling = false;
        inner.side.clear();
        self.logged.notify_all();
    }

    /// Marks the shard's unsettled drain as abandoned by a settle that
    /// panicked with `payload`: every take from now on re-raises it (the
    /// first with the payload itself) instead of waiting for the settle.
    pub fn abandon(&self, payload: Payload) {
        let mut inner = self.inner.lock();
        inner.abandoned.get_or_insert(payload);
        self.logged.notify_all();
    }

    /// The archive ack of the unsettled drain `drain`, whose rows are
    /// durable on OSS: logs an ack record naming it and cuts the WAL below
    /// the last checkpoint's bound, with no lock held. Returns the LSN below
    /// which a replay settles no drain through its commit record any more:
    /// `drain + 1`, the drain being the last checkpoint (see the module
    /// docs); `None` on a memory-only shard.
    pub fn ack_archived(&self, drain: Option<Lsn>) -> Result<Option<Lsn>> {
        let (Some(wal), Some(lsn)) = (&self.wal, drain) else { return Ok(None) };
        let cut = self.inner.lock().cut;
        let mut ack = vec![PAYLOAD_ACK];
        put_uvarint(&mut ack, lsn);
        wal.append_unpinned(&ack, false)?;
        sync_point("wal.shard.ack_window");
        wal.cut(cut)?;
        Ok(Some(lsn + 1))
    }
}

/// Rebuilds a shard's rows and `(appended, archived)` counters from its
/// WAL, `log` (see the module docs).
fn replay(
    typing: &Typing,
    log: &[ReplayedRecord],
    committed: &dyn Fn(Lsn) -> Option<DrainCommit>,
) -> Result<(RowStore, (u64, u64))> {
    let (mut acked, mut last) = (HashSet::new(), None);
    for (i, record) in log.iter().enumerate() {
        match split(record)? {
            (_, PAYLOAD_BATCH, _) => {}
            (_, PAYLOAD_CHECKPOINT, _) => last = Some(i),
            (_, PAYLOAD_ACK, body) => {
                acked.insert(read_uvarint(body, &mut 0)?);
            }
            (lsn, tag, _) => return Err(corrupt(lsn, format!("unknown tag {tag}"))),
        }
    }
    let batch = |lsn, body| typing.read_runs(lsn, body, &mut 0);
    let (mut rows, mut archived) = (RowStore::new(&typing.schema), 0u64);
    let after = match last {
        None => 0,
        Some(i) => {
            let (c, _, body) = split(&log[i])?;
            let (checkpoint, drained) = Checkpoint::decode(typing, c, body)?;
            archived = checkpoint.archived;
            // The record at `lsn`, which checkpoint `c` names.
            let named =
                |lsn: Lsn| match lsn.checked_sub(log[0].0).and_then(|at| log.get(at as usize)) {
                    Some(record) => split(record),
                    None => Err(corrupt(c, format!("names {lsn}, which the wal does not hold"))),
                };
            for lsn in checkpoint.unapplied.iter().copied().chain(checkpoint.take..c) {
                match named(lsn)? {
                    (_, PAYLOAD_BATCH, body) => rows.absorb_runs(batch(lsn, body)?),
                    _ => return Err(corrupt(c, format!("names {lsn}, a record of another kind"))),
                }
            }
            if !acked.contains(&c) {
                let unarchived = unarchived(drained, committed(c));
                archived = archived
                    .checked_sub(unarchived.len() as u64)
                    .ok_or_else(|| corrupt(c, "restores more rows than it archived"))?;
                rows.restore(unarchived);
            }
            i + 1
        }
    };
    for record in &log[after..] {
        if let (lsn, PAYLOAD_BATCH, body) = split(record)? {
            rows.absorb_runs(batch(lsn, body)?);
        }
    }
    let appended = archived.checked_add(rows.row_count() as u64);
    Ok((rows, (appended.ok_or_else(|| corrupt(log[0].0, "counters overflow"))?, archived)))
}

/// A replayed record's LSN, tag and body.
fn split((lsn, payload): &ReplayedRecord) -> Result<(Lsn, u8, &[u8])> {
    match payload.split_first() {
        Some((tag, body)) => Ok((*lsn, *tag, body)),
        None => Err(corrupt(*lsn, "empty payload")),
    }
}

fn corrupt(lsn: Lsn, what: impl std::fmt::Display) -> Error {
    Error::corruption(format!("wal record {lsn}: {what}"))
}

/// The rows of drain `drained` that `commit` leaves off OSS. Never
/// committed: the live path restored (or would have restored) every row.
/// Committed: the first chunks are durable on OSS, and the rest go back as
/// a live [`ShardStore::settle`] folds them back.
fn unarchived(drained: Drained, commit: Option<DrainCommit>) -> Drained {
    let Some(commit) = commit else { return drained };
    let chunks = partition_runs(drained.runs(), commit.chunk_rows);
    let rest = &chunks[chunks.len().min(commit.chunks as usize)..];
    drained.gather(rest.iter().flat_map(|chunk| chunk.rows.iter().copied()))
}

thread_local! {
    /// The column batches a producer stages its rows in before the lock,
    /// kept between appends so that staging allocates nothing; typed by the
    /// schema of the shard the thread last appended to.
    static STAGING: RefCell<Option<RowStore>> = const { RefCell::new(None) };

    /// The column encoder this thread's WAL records are encoded through —
    /// its pending buffers, its scratch and the block it copies into the
    /// payload kept between records, so that encoding allocates nothing
    /// once it has seen a run of each size.
    static ENCODER: RefCell<ColumnEncoder> = RefCell::new(ColumnEncoder::default());
}

/// Copies the cells of `records` into `staged`, for the payload to be
/// encoded from and for [`RowStore::absorb`] to append under the lock in
/// bulk. The records are dropped here, on the producer that allocated
/// them.
fn stage(staged: &mut RowStore, records: Vec<LogRecord>) {
    // Whatever an append that failed or unwound left here was never
    // applied.
    staged.clear();
    staged.insert_batch(&records);
}

/// Reads a count, then that many LSNs.
fn read_lsns(body: &[u8], pos: &mut usize) -> Result<Vec<Lsn>> {
    let n = read_uvarint(body, pos)?;
    // Every LSN takes a byte: a count past the body cannot size a vector.
    (0..n.min(body.len() as u64)).map(|_| read_uvarint(body, pos)).collect()
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

    fn schema() -> Arc<TableSchema> {
        Arc::new(TableSchema::request_log())
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
    /// drain whose checkpoint is `lsn`, partitioned at `chunk_rows`.
    fn open_with_commit(
        dir: &Path,
        config: WalConfig,
        lsn: Lsn,
        chunks: u64,
        chunk_rows: usize,
    ) -> ShardStore {
        let commit = DrainCommit { chunks, chunk_rows };
        ShardStore::open_with(dir, config, schema(), &|l| (l == lsn).then_some(commit))
            .expect("the wal must replay")
    }

    fn open(dir: &Path) -> ShardStore {
        ShardStore::open(dir, WalConfig::default(), schema()).unwrap()
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

    fn take(s: &ShardStore) -> (Lsn, Drained) {
        let (lsn, rows) = s.take(0).unwrap().expect("non-empty drain");
        (lsn.expect("durable shards name their drains"), rows)
    }

    /// Archives the unsettled drain `lsn` whole: its settle, its ack and the
    /// end of its settle. Returns the ack's prune bound.
    fn ack(s: &ShardStore, lsn: Lsn) -> Option<Lsn> {
        s.settle(|| ((), None));
        let below = s.ack_archived(Some(lsn)).unwrap();
        s.settled();
        below
    }

    /// Ends the unsettled drain as a failed upload does: `rows` go back.
    fn fold_back(s: &ShardStore, rows: Drained) {
        s.settle(|| ((), Some(rows)));
        s.settled();
    }

    /// The first LSN of every WAL segment in `dir`, ascending.
    fn segments(dir: &Path) -> Vec<Lsn> {
        let mut firsts: Vec<Lsn> = fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| crate::segment::parse_segment_lsn(e.unwrap().file_name().to_str()?))
            .collect();
        firsts.sort_unstable();
        firsts
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
        let s = ShardStore::in_memory(schema());
        append(&s, vec![rec(1, 1), rec(2, 2)]);
        assert!(s.take(usize::MAX).unwrap().is_none(), "under the flush threshold");
        let (seq, moved) = s.take(0).unwrap().unwrap();
        assert_eq!((seq, moved.len()), (None, 2), "no WAL, no checkpoint to name");
        append(&s, vec![rec(1, 3)]);
        fold_back(&s, moved);
        let (_, all) = s.take(0).unwrap().unwrap();
        assert_eq!(all.len(), 3, "the late row, then the folded-back ones");
        s.settle(|| ((), None));
        assert_eq!(s.ack_archived(None).unwrap(), None);
        s.settled();
        assert!(s.take(0).unwrap().is_none(), "nothing left to drain");
        assert_eq!((s.buffered_rows(), s.counters()), (0, (3, 3)));
        append(&s, vec![rec(1, 4)]);
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
    fn an_ack_cuts_below_its_checkpoint() {
        let dir = temp_dir("checkpoint");
        let config = WalConfig { max_segment_bytes: 256, ..WalConfig::default() };
        let s = ShardStore::open(&dir, config.clone(), schema()).unwrap();
        for i in 0..100 {
            append(&s, vec![rec(1, i)]);
        }
        let (lsn, drained) = take(&s);
        assert_eq!((lsn, drained.len()), (101, 100), "the checkpoint follows the 100 batches");
        assert_eq!(s.counters(), (100, 100));
        assert_eq!(ack(&s, lsn), Some(102), "no drain is left to settle");
        // Every segment below the one holding the take (and the checkpoint)
        // is cut — four batches fill a segment, so the take opens one of
        // its own — and the ack went into a segment of its own and rotated
        // to a fresh active one.
        assert_eq!(segments(&dir), [101, 102, 103]);
        drop(s);
        let s = ShardStore::open(&dir, config, schema()).unwrap();
        assert_eq!(s.buffered_rows(), 0, "archived rows must not resurrect");
        assert_eq!(s.counters(), (100, 100), "the checkpoint carries the counters");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn a_dropped_logged_batch_stops_pinning_the_cut() {
        // The apply unwound after the WAL append: the batch is never
        // applied, and its LSN must not hold the cut back forever.
        let dir = temp_dir("in-doubt");
        let s = ShardStore::open(&dir, small_segments(), schema()).unwrap();
        drop(s.log_batch(&ShardStore::encode_batch_payload(&[rec(1, 0)])).unwrap());
        assert_eq!(s.buffered_rows(), 0, "an unapplied batch is not live");
        for i in 1..40 {
            append(&s, vec![rec(1, i)]);
        }
        let (lsn, _) = take(&s);
        assert!(ack(&s, lsn).is_some());
        assert!(segments(&dir)[0] > 1, "the in-doubt lsn no longer pins the wal");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn a_checkpoint_names_a_logged_batch_awaiting_its_apply() {
        // One segment per group, so a cut could fall anywhere.
        let config = WalConfig { max_segment_bytes: 1, ..WalConfig::default() };
        let dir = temp_dir("pinned");
        let lsn = {
            let s = ShardStore::open(&dir, config.clone(), schema()).unwrap();
            append(&s, vec![rec(1, 0)]);
            // A producer stalls between its WAL append and its apply while
            // a whole drain → upload → ack cycle runs on the shard.
            let late = vec![rec(1, 1)];
            let logged = s.log_batch(&ShardStore::encode_batch_payload(&late)).unwrap();
            let (lsn, drained) = take(&s);
            assert_eq!((lsn, drained.len()), (3, 1));
            // The checkpoint names the late batch as unapplied: the cut
            // keeps it, and drops the batch the drain took.
            assert!(ack(&s, lsn).is_some());
            assert_eq!(segments(&dir)[0], 2);
            let mut staged = RowStore::new(&schema());
            stage(&mut staged, late);
            s.apply(&mut staged, logged);
            lsn
        };
        let s = open_with_commit(&dir, config, lsn, 1, 10);
        assert_eq!(rows_of(&s, 1), vec![rec(1, 1)], "exactly the late batch is buffered");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn a_fold_back_rolls_back_a_failed_archive() {
        let dir = temp_dir("restore");
        let s = open(&dir);
        for i in 0..10 {
            append(&s, vec![rec(1, i)]);
        }
        let (_, drained) = take(&s);
        assert_eq!(s.buffered_rows(), 0);
        assert_eq!(s.counters(), (10, 10));
        // Upload "failed": put everything back.
        fold_back(&s, drained);
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
            let (_, drained) = take(&s);
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
        let (lsn, drained) = take(&s);
        assert_eq!(drained.len() as i64, n);
        lsn
    }

    fn open_with_commits(dir: &Path, lsn: Lsn, chunks: u64, chunk_rows: usize) -> ShardStore {
        open_with_commit(dir, WalConfig::default(), lsn, chunks, chunk_rows)
    }

    #[test]
    fn crash_after_committed_upload_does_not_duplicate_rows() {
        // The exactly-once half of the protocol: a crash after the upload
        // committed but before the ack must NOT restore
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
            let (lsn, _) = take(&s);
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

    #[test]
    fn drain_seqs_are_unique_within_and_across_opens() {
        // A drain is named by its checkpoint's LSN, and LSNs never
        // restart: not at a cut, not at a reopen after one.
        let dir = temp_dir("drain-seq");
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3 {
            let s = open(&dir);
            for round in 0..2 {
                append(&s, vec![rec(1, round)]);
                let (lsn, rows) = take(&s);
                assert!(seen.insert(lsn), "duplicate drain lsn {lsn}");
                fold_back(&s, rows);
                // Drain the restored row again next round: new LSN.
            }
            // Archive it for real: the ack's cut leaves the checkpoint's
            // segment and the fresh, empty active one.
            let (lsn, _) = take(&s);
            assert!(seen.insert(lsn), "duplicate drain lsn {lsn}");
            assert_eq!(ack(&s, lsn), Some(lsn + 1), "nothing left to settle");
            assert!(segments(&dir).len() <= 2);
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
        let (lsn, drained) = take(&s);
        // The drain hands over the very runs the query holds, and the
        // query still sees every row it took.
        assert!(Arc::ptr_eq(&held.runs[0], &drained.runs()[0]));
        assert_eq!(drained.len(), 11);
        assert!(ack(&s, lsn).is_some());
        drop(drained);
        let rows: Vec<i64> =
            held.runs.iter().flat_map(|run| run.records()).map(|r| r.ts.millis()).collect();
        assert_eq!(rows, (0..10).collect::<Vec<_>>());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn drained_rows_stay_readable_until_their_drain_settles() {
        let dir = temp_dir("side-list");
        let s = open(&dir);
        append(&s, (0..10).map(|i| rec(1, i)).collect());
        let before = s.snapshot(TenantId(1), TimeRange::all()).settles;
        let (lsn, drained) = s.take(0).unwrap().expect("rows to take");
        append(&s, vec![rec(2, 10)]);
        // A take waits for the unsettled one to settle, unless it is not
        // due.
        assert!(s.take(usize::MAX).unwrap().is_none());
        // Drained, uploading: the rows are on the side list, which a
        // snapshot hands out before the store's runs.
        let snapshot = s.snapshot(TenantId(1), TimeRange::all());
        assert_eq!(snapshot.runs.iter().map(|run| run.len()).sum::<usize>(), 10);
        assert_eq!(snapshot.settles, before, "no settle yet");
        assert_eq!(s.held_tenants(), vec![TenantId(1), TenantId(2)]);
        assert_eq!(s.buffered_tenants(), vec![TenantId(2)]);
        // A settle whose commit kept the first three rows off OSS: the
        // sequence is odd inside the commit, and the side runs go with the
        // three rows back into the store under the lock that ends it.
        s.settle(|| {
            assert_eq!(s.inner.lock().settles, before + 1, "odd while committing");
            ((), Some(drained.gather((0..3).map(|row| (0, row)))))
        });
        assert_eq!(s.settles(), before + 2);
        assert_eq!(rows_of(&s, 1).len(), 3);
        assert_eq!(s.counters(), (11, 7));
        // The drain is settled: the next one does not wait.
        s.settled();
        let (next, rest) = take(&s);
        assert!(next > lsn.unwrap());
        assert_eq!(rest.len(), 4);
        let _ = fs::remove_dir_all(dir);
    }

    mod run_bytes {
        use super::*;
        use logstore_types::{ColumnSchema, DataType};
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// A nullable column of every type.
        fn every_type() -> TableSchema {
            let key = |name, dtype| ColumnSchema::new(name, dtype).not_null();
            let mut columns = vec![key("tenant_id", DataType::UInt64), key("ts", DataType::Int64)];
            for (name, dtype) in [
                ("i", DataType::Int64),
                ("u", DataType::UInt64),
                ("s", DataType::String),
                ("b", DataType::Bool),
            ] {
                columns.push(ColumnSchema::new(name, dtype));
            }
            TableSchema::new("every_type", columns).unwrap()
        }

        /// Rows of [`every_type`], NULLs in every field.
        fn rows() -> impl Strategy<Value = Vec<LogRecord>> {
            let or_null = |cell: BoxedStrategy<Value>| prop_oneof![Just(Value::Null), cell];
            let fields = (
                or_null((-3i64..3).prop_map(Value::I64).boxed()),
                or_null((0u64..3).prop_map(Value::U64).boxed()),
                or_null("[a-cé]{0,3}".prop_map(Value::Str).boxed()),
                or_null(any::<bool>().prop_map(Value::Bool).boxed()),
            );
            let row = (1u64..4, -2i64..5, fields).prop_map(|(t, ts, (i, u, s, b))| {
                LogRecord::new(TenantId(t), Timestamp(ts), vec![i, u, s, b])
            });
            vec(row, 0..40)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]
            /// Staged in sub-batches and appended in bulk, the rows read
            /// back as they arrived; the payload of each sub-batch's staged
            /// runs replays into the same runs, rows and bytes, and so do
            /// the runs a checkpoint logs.
            #[test]
            fn prop_rows_from_runs_are_the_record_batch(
                rows in rows(),
                cuts in vec(0usize..40, 0..6),
                seal_at in vec(0usize..40, 0..3),
            ) {
                let typing = Typing::new(Arc::new(every_type()));
                let mut store = RowStore::new(&typing.schema);
                let mut replayed = RowStore::new(&typing.schema);
                let mut staged = RowStore::new(&typing.schema);
                let mut cuts = cuts;
                cuts.push(rows.len());
                cuts.sort_unstable();
                let mut start = 0;
                for cut in cuts {
                    let cut = cut.clamp(start, rows.len());
                    stage(&mut staged, rows[start..cut].to_vec());
                    let payload = typing.batch_payload(&staged);
                    let runs = typing.read_runs(1, &payload[1..], &mut 0).unwrap();
                    replayed.absorb_runs(runs);
                    store.absorb(&mut staged);
                    if seal_at.contains(&cut) {
                        store.snapshot(TenantId(1), TimeRange::all());
                        replayed.snapshot(TenantId(1), TimeRange::all());
                    }
                    start = cut;
                }
                prop_assert_eq!(store.row_count(), rows.len());
                prop_assert_eq!(store.bytes(), rows.iter().map(LogRecord::approx_size).sum::<usize>());
                let run_rows = |s: &RowStore| s.runs().map(Run::len).collect::<Vec<_>>();
                prop_assert_eq!(run_rows(&replayed), run_rows(&store));
                prop_assert_eq!(replayed.bytes(), store.bytes());
                prop_assert_eq!(&replayed.drain_all().records(), &rows);
                let drained = store.drain_all();
                prop_assert_eq!(&drained.records(), &rows);
                let mut logged = Vec::new();
                typing.put_runs(&mut logged, drained.runs().iter().map(|run| &**run));
                let back = typing.read_runs(1, &logged, &mut 0).unwrap();
                let back = Drained::from_runs(back);
                prop_assert_eq!((back.records(), back.bytes()), (rows, drained.bytes()));
            }
        }
    }

    mod replay {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// Sub-batches of `request_log` rows: three tenants, timestamps
        /// with ties, and equal rows.
        fn sub_batches() -> impl Strategy<Value = Vec<Vec<LogRecord>>> {
            let row = (1u64..4, 0i64..6, 0i64..3).prop_map(|(t, ts, latency)| {
                let mut row = rec(t, ts);
                row.fields[2] = Value::I64(latency);
                row
            });
            vec(vec(row, 0..6), 0..6)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            /// A take, then the fold-back of what its commit (the first `k`
            /// chunks at cap `c`, or none) leaves unarchived, as the live
            /// archive step's settle does: a reopen rebuilds the rows the live store
            /// holds, in their order, and its counters.
            #[test]
            fn prop_replay_rebuilds_what_the_live_path_holds(
                before in sub_batches(),
                commit in prop_oneof![Just(None), (0u64..5, 1usize..5).prop_map(Some)],
                after in sub_batches(),
            ) {
                let dir = temp_dir("replay-prop");
                let s = open(&dir);
                before.into_iter().for_each(|batch| append(&s, batch));
                let mut drain = None;
                if let Some((lsn, drained)) = s.take(0).unwrap() {
                    let lsn = lsn.expect("durable shards name their drains");
                    let commit = commit.map(|(chunks, chunk_rows)| DrainCommit { chunks, chunk_rows });
                    drain = commit.map(|commit| (lsn, commit));
                    fold_back(&s, unarchived(drained, commit));
                }
                after.into_iter().for_each(|batch| append(&s, batch));
                // Replay a copy of the WAL as it is now: the live rows are
                // read by a drain, whose checkpoint the copy does not hold.
                let copy = temp_dir("replay-prop-copy");
                fs::create_dir_all(&copy).unwrap();
                for entry in fs::read_dir(&dir).unwrap() {
                    let path = entry.unwrap().path();
                    fs::copy(&path, copy.join(path.file_name().unwrap())).unwrap();
                }
                let (counters, bytes) = (s.counters(), s.buffered_bytes());
                let live = s.take(0).unwrap().map(|(_, rows)| rows.records());
                drop(s);
                let lookup = |lsn| drain.and_then(|(l, commit)| (l == lsn).then_some(commit));
                let replayed = ShardStore::open_with(&copy, WalConfig::default(), schema(), &lookup);
                let _ = (fs::remove_dir_all(&dir), fs::remove_dir_all(&copy));
                let replayed = replayed.unwrap();
                prop_assert_eq!(replayed.counters(), counters);
                prop_assert_eq!(replayed.buffered_bytes(), bytes);
                let rows = replayed.take(0).unwrap().map(|(_, rows)| rows.records());
                prop_assert_eq!(rows, live);
            }
        }
    }

    mod archive_ops {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;
        use std::collections::HashMap;

        /// One step of the archive protocol.
        #[derive(Debug, Clone)]
        enum Op {
            Append(Vec<LogRecord>),
            /// Every row, unless a drain is unsettled.
            Take,
            /// The upload of the drain's first `k` chunks at cap `c`
            /// commits.
            Commit(u64, usize),
            /// The whole drain is on OSS: commit, then ack.
            Ack,
            /// The upload failed: what its commit leaves goes back.
            FoldBack,
            /// A crash and a restart.
            Reopen,
        }

        fn ops() -> impl Strategy<Value = Vec<Op>> {
            let row = (1u64..4, 0i64..6).prop_map(|(t, ts)| rec(t, ts));
            let op = prop_oneof![
                4 => vec(row, 1..5).prop_map(Op::Append),
                3 => Just(Op::Take),
                3 => (1u64..4, 1usize..5).prop_map(|(k, c)| Op::Commit(k, c)),
                3 => Just(Op::Ack),
                2 => Just(Op::FoldBack),
                1 => Just(Op::Reopen),
            ];
            vec(op, 0..40)
        }

        /// Every buffered row, in arrival order.
        fn live_rows(s: &ShardStore) -> Vec<LogRecord> {
            s.inner.lock().rows.runs().flat_map(Run::records).collect()
        }

        /// Segments small enough that the cut has whole segments to drop.
        fn config() -> WalConfig {
            WalConfig { max_segment_bytes: 512, ..WalConfig::default() }
        }

        /// The unsettled drain, the drain-commit table and what a restart
        /// must rebuild.
        struct Model {
            dir: PathBuf,
            s: ShardStore,
            unsettled: Option<(Lsn, Drained)>,
            commits: HashMap<Lsn, DrainCommit>,
            /// A batch was applied since the last checkpoint: a fold-back
            /// now puts rows after it, where a replay, which settles the
            /// drain before the batches after its checkpoint, does not.
            appended_since: bool,
            /// No fold-back since the last checkpoint came after a batch.
            ordered: bool,
        }

        impl Model {
            fn step(&mut self, op: Op) {
                match op {
                    Op::Append(rows) => {
                        append(&self.s, rows);
                        self.appended_since = true;
                    }
                    Op::Take if self.unsettled.is_none() => {
                        if let Some((lsn, drained)) = self.s.take(0).unwrap() {
                            self.unsettled = Some((lsn.expect("a durable shard"), drained));
                            (self.ordered, self.appended_since) = (true, false);
                        }
                    }
                    Op::Take => {}
                    Op::Commit(chunks, chunk_rows) => {
                        if let Some((lsn, _)) = &self.unsettled {
                            self.commits.insert(*lsn, DrainCommit { chunks, chunk_rows });
                        }
                    }
                    Op::Ack => {
                        let Some((lsn, _)) = self.unsettled.take() else { return };
                        let whole = DrainCommit { chunks: u64::MAX, chunk_rows: 1 };
                        self.commits.insert(lsn, whole);
                        let below = ack(&self.s, lsn).expect("a durable shard");
                        prop_assert_eq!(below, lsn + 1);
                        self.commits.retain(|&drain, _| drain >= below);
                        self.check_cut();
                    }
                    Op::FoldBack => {
                        let Some((lsn, drained)) = self.unsettled.take() else { return };
                        let rest = unarchived(drained, self.commits.get(&lsn).copied());
                        fold_back(&self.s, rest);
                        self.ordered &= !self.appended_since;
                    }
                    Op::Reopen => self.reopen(),
                }
            }

            /// After an ack: the WAL holds no more than the records a
            /// replay may read — those at or above the cut bound — plus
            /// the one segment the bound falls inside.
            fn check_cut(&self) {
                let cut = self.s.inner.lock().cut;
                let copy = temp_dir("archive-ops-copy");
                fs::create_dir_all(&copy).unwrap();
                let mut wal_bytes = 0;
                for entry in fs::read_dir(&self.dir).unwrap() {
                    let path = entry.unwrap().path();
                    wal_bytes += fs::copy(&path, copy.join(path.file_name().unwrap())).unwrap();
                }
                let (_, log) = GroupCommitWal::open(&copy, config()).unwrap();
                let _ = fs::remove_dir_all(&copy);
                // A frame header and two varints per record at most.
                let framed = |payload: &Vec<u8>| payload.len() as u64 + 32;
                let read: u64 =
                    log.iter().filter(|(lsn, _)| *lsn >= cut).map(|(_, p)| framed(p)).sum();
                let largest = log.iter().map(|(_, p)| framed(p)).max().unwrap_or(0);
                let segment = config().max_segment_bytes + largest;
                prop_assert!(wal_bytes <= read + segment, "{wal_bytes} > {read} + {segment}");
            }

            /// A crash and a restart: the unsettled drain is settled
            /// through its commit, and the rebuilt store is the live one
            /// plus what that commit leaves unarchived.
            fn reopen(&mut self) {
                let mut want = live_rows(&self.s);
                let (appended, mut archived) = self.s.counters();
                if let Some((lsn, drained)) = self.unsettled.take() {
                    let rest = unarchived(drained, self.commits.get(&lsn).copied());
                    archived -= rest.len() as u64;
                    want.extend(rest.records());
                    self.ordered &= !self.appended_since;
                }
                let placeholder = ShardStore::in_memory(schema());
                drop(std::mem::replace(&mut self.s, placeholder));
                let commits = &self.commits;
                self.s = ShardStore::open_with(&self.dir, config(), schema(), &|lsn| {
                    commits.get(&lsn).copied()
                })
                .unwrap();
                prop_assert_eq!(self.s.counters(), (appended, archived));
                let mut got = live_rows(&self.s);
                if !self.ordered {
                    let key = |r: &LogRecord| (r.tenant_id, r.ts);
                    want.sort_by_key(key);
                    got.sort_by_key(key);
                }
                prop_assert_eq!(got, want);
                // The rebuilt store is what a replay of the same WAL rebuilds.
                (self.ordered, self.appended_since) = (true, false);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            /// Appends, takes, commits, acks, fold-backs and restarts, one
            /// drain unsettled at a time: every ack leaves the WAL cut to
            /// what a replay reads and bounds the prune at its drain + 1,
            /// and every restart rebuilds the live rows and counters.
            #[test]
            fn prop_archive_ops_replay_and_every_ack_cuts(ops in ops()) {
                let dir = temp_dir("archive-ops");
                let s = ShardStore::open(&dir, config(), schema()).unwrap();
                let mut model = Model {
                    dir: dir.clone(),
                    s,
                    unsettled: None,
                    commits: HashMap::new(),
                    appended_since: false,
                    ordered: true,
                };
                ops.into_iter().for_each(|op| model.step(op));
                model.reopen();
                drop(model);
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }

    mod hostile_records {
        use super::*;
        use logstore_codec::compress;
        use proptest::collection::vec;
        use proptest::prelude::*;

        fn typing() -> Typing {
            Typing::new(schema())
        }

        /// A few rows of the schema.
        fn rows() -> impl Strategy<Value = Vec<LogRecord>> {
            vec((1u64..3, 0i64..4).prop_map(|(t, ts)| rec(t, ts)), 0..6)
        }

        /// LSNs in and out of a WAL of at most 8 records.
        fn lsns() -> impl Strategy<Value = Vec<Lsn>> {
            vec(0u64..12, 0..3).prop_map(|mut lsns| {
                lsns.sort_unstable();
                lsns.dedup();
                lsns
            })
        }

        /// `rows` staged as one run, if there are any.
        fn runs_of(rows: &[LogRecord]) -> Vec<Run> {
            (!rows.is_empty()).then(|| Run::from_rows(&schema(), rows)).into_iter().collect()
        }

        /// The columns of `rows`, staged as one run.
        fn columns_of(rows: &[LogRecord]) -> Vec<ColumnVec> {
            Run::from_rows(&schema(), rows).columns().to_vec()
        }

        /// A column block of each of `columns`.
        fn blocks(columns: &[ColumnVec]) -> Vec<Vec<u8>> {
            let mut encoder = ColumnEncoder::default();
            columns
                .iter()
                .map(|column| encoder.encode(column, Compression::None).to_vec())
                .collect()
        }

        /// One run's bytes: a row count, then a block of each column.
        fn run_bytes(rows: u64, columns: &[ColumnVec]) -> Vec<u8> {
            raw_run(rows, &blocks(columns))
        }

        /// One run's bytes around the given column blocks.
        fn raw_run(rows: u64, blocks: &[Vec<u8>]) -> Vec<u8> {
            let mut out = Vec::new();
            put_uvarint(&mut out, rows);
            for block in blocks {
                put_uvarint(&mut out, block.len() as u64);
                out.extend_from_slice(block);
            }
            out
        }

        /// A batch payload under `tag` of `count` runs of the given bytes,
        /// with the schema's fingerprint.
        fn batch(tag: u8, count: u64, runs: &[u8]) -> Vec<u8> {
            let mut payload = vec![tag];
            payload.extend_from_slice(&typing().fingerprint);
            put_uvarint(&mut payload, count);
            payload.extend_from_slice(runs);
            payload
        }

        /// A batch that no append of the shard logs, made from `rows` (at
        /// least one) by one of eight defects, `at` picking where.
        fn hostile(defect: u8, rows: &[LogRecord], at: usize) -> Vec<u8> {
            let n = rows.len() as u64;
            let columns = columns_of(rows);
            let valid = batch(PAYLOAD_BATCH, 1, &run_bytes(n, &columns));
            match defect {
                // Cut anywhere past the fingerprint.
                0 => valid[..5 + at % (valid.len() - 5)].to_vec(),
                // One column block without its last byte.
                1 => {
                    let mut blocks = blocks(&columns);
                    blocks[at % columns.len()].pop();
                    batch(PAYLOAD_BATCH, 1, &raw_run(n, &blocks))
                }
                // More runs than the body holds.
                2 => batch(PAYLOAD_BATCH, u64::MAX >> (at % 60), &run_bytes(n, &columns)),
                // More rows than the blocks hold.
                3 => batch(PAYLOAD_BATCH, 1, &run_bytes(n + 1 + at as u64 % 64, &columns)),
                // A run longer than any the store seals.
                4 => {
                    let long = vec![rows[0].clone(); RUN_ROWS + 1];
                    batch(PAYLOAD_BATCH, 1, &run_bytes(long.len() as u64, &columns_of(&long)))
                }
                // A NULL tenant or timestamp.
                5 => {
                    let mut columns = columns;
                    let key = &mut columns[at % 2];
                    *key = ColumnVec::empty(key.data_type());
                    key.push_nulls(rows.len());
                    batch(PAYLOAD_BATCH, 1, &run_bytes(n, &columns))
                }
                // A byte that is not UTF-8 in a string column.
                6 => {
                    let mut blocks = blocks(&columns);
                    let bitset = compress(Compression::Rle, &vec![0; rows.len().div_ceil(8)]);
                    let data: Vec<u8> = rows.iter().flat_map(|_| [1, 0xff]).collect();
                    let string = &mut blocks[2];
                    string.clear();
                    put_uvarint(string, bitset.len() as u64);
                    string.extend_from_slice(&bitset);
                    string.extend_from_slice(&compress(Compression::None, &data));
                    batch(PAYLOAD_BATCH, 1, &raw_run(n, &blocks))
                }
                // Runs of another schema.
                _ => {
                    let mut payload = valid;
                    payload[1 + at % 4] ^= 1 << (at % 8);
                    payload
                }
            }
        }

        /// A WAL payload: a batch, a checkpoint whose header names LSNs in
        /// and out of the WAL, an ack of a known or unknown drain, a batch
        /// under the unknown tag 3, a known or unknown tag in front of
        /// arbitrary bytes, or a [`hostile`] batch.
        fn payload() -> impl Strategy<Value = Vec<u8>> {
            let valid = |tag: u8, rows: &[LogRecord]| {
                let mut payload = vec![tag];
                typing().put_runs(&mut payload, runs_of(rows).iter());
                payload
            };
            let header = (0u64..12, lsns(), 0u64..40);
            let checkpoint = (header, rows()).prop_map(|((take, unapplied, archived), drained)| {
                let mut payload = vec![PAYLOAD_CHECKPOINT];
                Checkpoint { take, unapplied, archived }.put_header(&mut payload);
                typing().put_runs(&mut payload, runs_of(&drained).iter());
                payload
            });
            let ack = (0u64..12).prop_map(|lsn| {
                let mut payload = vec![PAYLOAD_ACK];
                put_uvarint(&mut payload, lsn);
                payload
            });
            let some_rows = vec((1u64..3, 0i64..4).prop_map(|(t, ts)| rec(t, ts)), 1..6);
            // Mostly batches, so that whole WALs replay too.
            prop_oneof![
                8 => rows().prop_map(move |rows| valid(PAYLOAD_BATCH, &rows)),
                3 => checkpoint,
                2 => ack,
                1 => rows().prop_map(move |rows| valid(3, &rows)),
                1 => (0u8..4, vec(any::<u8>(), 0..48))
                    .prop_map(|(tag, body)| [vec![tag], body].concat()),
                1 => vec(any::<u8>(), 0..48),
                4 => (0u8..8, some_rows, any::<usize>())
                    .prop_map(|(defect, rows, at)| hostile(defect, &rows, at)),
            ]
        }

        /// Appends `payloads` to a fresh WAL in `dir` through the group
        /// commit, so every frame is CRC-valid, and opens the shard.
        fn replay(
            dir: &Path,
            payloads: &[Vec<u8>],
            commit: Option<DrainCommit>,
        ) -> Result<ShardStore> {
            {
                let (wal, _) = GroupCommitWal::open(dir, WalConfig::default()).unwrap();
                for payload in payloads {
                    wal.append(payload).unwrap();
                }
            }
            let opened = ShardStore::open_with(dir, WalConfig::default(), schema(), &|_| commit);
            let _ = fs::remove_dir_all(dir);
            opened
        }

        #[test]
        fn every_hostile_batch_fails_the_open() {
            let rows: Vec<LogRecord> = (0..11).map(|i| rec(1 + i % 2, i as i64)).collect();
            let dir = temp_dir("hostile-each");
            let valid = ShardStore::encode_batch_payload(&rows);
            assert_eq!(
                replay(&dir, std::slice::from_ref(&valid), None).unwrap().buffered_rows(),
                11
            );
            for defect in 0..8 {
                for at in [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89] {
                    let payloads = [valid.clone(), hostile(defect, &rows, at)];
                    match replay(&dir, &payloads, None) {
                        Err(Error::Corruption(_)) => {}
                        Err(e) => panic!("defect {defect} at {at}: {e}"),
                        Ok(_) => panic!("defect {defect} at {at} replayed"),
                    }
                }
            }
        }

        proptest! {
            /// Every frame is CRC-valid (the records go through the group
            /// commit), so replay meets the bytes as they are: it returns a
            /// shard whose counters add up, or a typed error — never a
            /// panic. Runs a shard of the schema could not have logged are
            /// corruption.
            #[test]
            fn arbitrary_wal_records_replay_or_fail_typed(
                payloads in vec(payload(), 0..8),
                commit in prop_oneof![Just(None), (0u64..4, 0usize..4).prop_map(Some)],
            ) {
                let dir = temp_dir("hostile");
                let commit = commit.map(|(chunks, chunk_rows)| DrainCommit { chunks, chunk_rows });
                match replay(&dir, &payloads, commit) {
                    Ok(s) => {
                        let (appended, archived) = s.counters();
                        prop_assert_eq!(s.buffered_rows() as u64 + archived, appended);
                    }
                    Err(e) => prop_assert!(matches!(e, Error::Corruption(_)), "{e}"),
                }
            }
        }
    }
}
