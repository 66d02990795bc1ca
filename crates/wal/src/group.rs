//! Leader-based group commit over the segment substrate.
//!
//! A log that serializes every producer behind one append and pays one
//! write barrier per call makes concurrent ingest the whole bottleneck: N
//! producers ⇒ N syscalls (and, with `FlushPolicy::Sync`, N fsyncs) per N
//! batches, all strictly queued. [`GroupCommitWal`] instead lets producers
//! *stage* their encoded payloads into a contiguous per-epoch arena under
//! a short critical section; the first stager of an epoch becomes its
//! **leader** and performs a single coalesced frame append + one barrier
//! for everyone staged, fanning completion (and per-producer [`Lsn`]s)
//! back through a condvar.
//!
//! The key scheduling property is *natural batching* (BtrLog's
//! observation): the leader seals its epoch only when its turn at the
//! writer arrives, so every producer that stages while the previous
//! epoch's barrier is in flight rides the next frame. Throughput scales
//! with producers while a lone producer keeps single-append latency —
//! there is no mandatory linger (`group_commit_window` defaults to zero).
//!
//! ## Locking
//!
//! Two labeled mutexes, strictly ordered `writer → staging`:
//!
//! * `wal.group.staging` — the arena, LSN allocator, durability watermark
//!   and un-applied LSN set. Held for microseconds per stage/confirm.
//! * `wal.group.writer` — the active [`SegmentWriter`], segment map and
//!   epoch turn counter. Held across the (possibly fsyncing) group write.
//!
//! Condvar waits (`staged_cv` for durability/arena-room, `turn_cv` for
//! epoch order) hold only the mutex they wait on, which the
//! [`OrderedCondvar`] discipline enforces in analysis builds. Producers
//! call [`GroupCommitWal::append`] with **no** locks held
//! ([`assert_no_locks_held`] at entry), so a slow fsync never stalls a
//! thread that owns an engine lock.
//!
//! ## On-disk format and crash safety
//!
//! A committed epoch is one segment frame whose payload is group-framed:
//!
//! ```text
//! group := "GCW1" | uvarint count | (uvarint len | bytes)^count | crc32c
//! ```
//!
//! The trailing CRC (masked, over everything after the magic) is the
//! *tail-validity check*: a group whose segment frame is intact but whose
//! body is short-written decodes as invalid, and — in final-frame
//! position — is discarded as a torn tail exactly like a torn segment
//! frame, truncating the file to the previous frame's end. Mid-file it is
//! corruption. Because the leader's barrier covers the whole frame, either
//! every producer in the epoch was acked (frame fully durable) or none
//! were (leader never returned), so discard-on-replay is exactly-once. A
//! frame that does not start with the magic at all is an invalid group
//! body like any other: the group frame is the only format replay accepts.

use crate::segment::{
    parse_segment_seq, replay_segment, segment_file_name, SegmentWriter, MAX_PAYLOAD,
};
use logstore_codec::crc::{crc32c, mask, unmask};
use logstore_codec::varint::{put_uvarint, read_u32_le, read_uvarint};
use logstore_sync::{assert_no_locks_held, OrderedCondvar, OrderedMutex};
use logstore_types::{Error, Result};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A log sequence number: 1-based, monotonically increasing per WAL.
///
/// LSNs are contiguous within a process lifetime. After
/// [`GroupCommitWal::truncate_until`] and a reopen, numbering restarts at 1
/// from the first *surviving* record — callers that archive (and truncate)
/// must not persist absolute LSNs across restarts, and LogStore's shard
/// recovery rebuilds its row store positionally from the replay.
pub type Lsn = u64;

/// A replayed record: its LSN and payload.
pub type ReplayedRecord = (Lsn, Vec<u8>);

/// When a committed group's bytes reach the write barrier. One barrier
/// covers every producer staged in the epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// `write(2)` to the OS per group (the default): survives a process
    /// crash, not a power failure. Matches the paper's phase-one posture —
    /// replication, not fsync, covers node loss.
    Flush,
    /// Flush + fsync per group: power-fail durable acks.
    Sync,
}

/// WAL tuning knobs.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Rotate to a new segment after this many bytes.
    pub max_segment_bytes: u64,
    /// Write barrier applied per committed group.
    pub flush: FlushPolicy,
    /// How long a group-commit leader lingers for stragglers before
    /// sealing an epoch (zero = seal immediately; natural batching during
    /// the previous epoch's barrier still coalesces).
    pub group_commit_window: std::time::Duration,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            max_segment_bytes: 64 << 20,
            flush: FlushPolicy::Flush,
            group_commit_window: std::time::Duration::ZERO,
        }
    }
}

/// Magic prefix of a group-framed payload.
const GROUP_MAGIC: &[u8; 4] = b"GCW1";

/// Staging-arena cap per group-commit epoch: producers arriving at a full
/// arena wait for the next epoch. A frame stays under [`MAX_PAYLOAD`] even
/// after one oversized straggler (at most half of it) lands past the cap.
const ARENA_CAP: usize = 8 << 20;
const _: () = assert!(ARENA_CAP <= MAX_PAYLOAD / 4);

/// Counters exposed for benchmarks and tests: how well is coalescing
/// working?
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Producer appends acknowledged.
    pub appends: u64,
    /// Group frames committed (each one segment append + one barrier).
    pub groups: u64,
    /// fsync barriers issued (commit, rotation, explicit sync).
    pub fsyncs: u64,
    /// flush-only barriers issued.
    pub flushes: u64,
}

/// Mutable staging state: where producers park bytes between epochs.
#[derive(Debug)]
struct Staging {
    /// Contiguous arena of `uvarint len | payload` entries for the epoch
    /// being accumulated (no per-producer Vec churn).
    arena: Vec<u8>,
    arena_entries: u64,
    arena_first_lsn: Lsn,
    /// Epoch currently accumulating; bumped at seal.
    epoch: u64,
    /// True once this epoch has a leader (the first stager).
    leader_claimed: bool,
    /// Next LSN to hand out.
    next_lsn: Lsn,
    /// All LSNs `< durable_next` have committed.
    durable_next: Lsn,
    /// A staged producer asked for an fsync barrier on this epoch.
    sync_requested: bool,
    /// Set when a commit failed: the segment state is unknown, so every
    /// in-flight and future append fails until reopen (conservative).
    failed: Option<String>,
    /// LSNs appended but not yet applied to the row store — the floor for
    /// truncation (see [`GroupCommitWal::truncate_until`]).
    unapplied: BTreeSet<Lsn>,
}

/// Writer-side state: the open segment and the epoch turnstile.
#[derive(Debug)]
struct WriterState {
    dir: PathBuf,
    active: SegmentWriter,
    active_seq: u64,
    // seq -> first lsn in that segment.
    segment_first_lsn: BTreeMap<u64, Lsn>,
    /// The epoch whose leader may commit next (seal order == LSN order).
    next_commit_epoch: u64,
    /// The LSN the next committed group will start at.
    write_next_lsn: Lsn,
}

/// A concurrently appendable, group-committing WAL (see module docs).
#[derive(Debug)]
pub struct GroupCommitWal {
    config: WalConfig,
    staging: OrderedMutex<Staging>,
    /// Durability watermark advanced / arena room freed.
    staged_cv: OrderedCondvar,
    writer: OrderedMutex<WriterState>,
    /// `next_commit_epoch` advanced.
    turn_cv: OrderedCondvar,
    appends: AtomicU64,
    groups: AtomicU64,
    fsyncs: AtomicU64,
    flushes: AtomicU64,
}

impl GroupCommitWal {
    /// Opens (or creates) a group-commit WAL in `dir`, recovering existing
    /// segments. Group frames fan out into their member records. Returns
    /// the WAL and the replayed records in LSN order.
    pub fn open(dir: impl AsRef<Path>, config: WalConfig) -> Result<(Self, Vec<ReplayedRecord>)> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut seqs: Vec<u64> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().to_str().and_then(parse_segment_seq))
            .collect();
        seqs.sort_unstable();

        let mut replayed = Vec::new();
        let mut segment_first_lsn = BTreeMap::new();
        let mut next_lsn: Lsn = 1;
        let mut last_valid_len = 0u64;
        for (i, &seq) in seqs.iter().enumerate() {
            let path = dir.join(segment_file_name(seq));
            let replay = replay_segment(&path)?;
            let last_segment = i + 1 == seqs.len();
            if replay.torn_tail && !last_segment {
                return Err(Error::corruption(format!(
                    "torn frame in non-final wal segment {seq}"
                )));
            }
            segment_first_lsn.insert(seq, next_lsn);
            let mut valid_len = replay.valid_len;
            let frames = replay.payloads.len();
            for (j, payload) in replay.payloads.iter().enumerate() {
                match decode_group_frame(payload) {
                    Ok(entries) => {
                        for entry in entries {
                            replayed.push((next_lsn, entry));
                            next_lsn += 1;
                        }
                    }
                    // An intact segment frame with an invalid group body:
                    // in tail position the group's barrier never completed
                    // — discard it (torn tail, nobody was acked); anywhere
                    // else it is corruption.
                    Err(e) => {
                        if last_segment && j + 1 == frames {
                            valid_len = if j == 0 { 0 } else { replay.frame_ends[j - 1] };
                            break;
                        }
                        return Err(e);
                    }
                }
            }
            last_valid_len = valid_len;
        }

        let (active, active_seq) = match seqs.last() {
            Some(&seq) => {
                let path = dir.join(segment_file_name(seq));
                (SegmentWriter::open_for_append(path, last_valid_len)?, seq)
            }
            None => {
                segment_first_lsn.insert(0, 1);
                (SegmentWriter::create(dir.join(segment_file_name(0)))?, 0)
            }
        };
        let wal = GroupCommitWal {
            config,
            staging: OrderedMutex::new(
                "wal.group.staging",
                Staging {
                    arena: Vec::new(),
                    arena_entries: 0,
                    arena_first_lsn: next_lsn,
                    epoch: 0,
                    leader_claimed: false,
                    next_lsn,
                    durable_next: next_lsn,
                    sync_requested: false,
                    failed: None,
                    unapplied: BTreeSet::new(),
                },
            ),
            staged_cv: OrderedCondvar::new("wal.group.staged"),
            writer: OrderedMutex::new(
                "wal.group.writer",
                WriterState {
                    dir,
                    active,
                    active_seq,
                    segment_first_lsn,
                    next_commit_epoch: 0,
                    write_next_lsn: next_lsn,
                },
            ),
            turn_cv: OrderedCondvar::new("wal.group.turn"),
            appends: AtomicU64::new(0),
            groups: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
        };
        Ok((wal, replayed))
    }

    /// Appends a payload through group commit, returning its LSN once the
    /// group it rode in reached the configured barrier. Blocks; call with
    /// no locks held.
    pub fn append(&self, payload: &[u8]) -> Result<Lsn> {
        self.append_inner(payload, false)
    }

    /// Appends with an fsync barrier on the committing group regardless of
    /// [`WalConfig::flush`] — the durable ack for drain intents. One
    /// barrier covers the whole group: coalesced fsync, not an extra one.
    pub fn append_durable(&self, payload: &[u8]) -> Result<Lsn> {
        self.append_inner(payload, true)
    }

    fn append_inner(&self, payload: &[u8], want_sync: bool) -> Result<Lsn> {
        // A single entry must leave the group frame room under the segment
        // payload cap even on a full arena.
        if payload.len() > MAX_PAYLOAD / 2 {
            return Err(Error::invalid("wal payload exceeds group frame limit"));
        }
        assert_no_locks_held("wal.group.append");
        let (lsn, my_epoch, leader) = {
            let mut st = self.staging.lock();
            loop {
                if let Some(msg) = &st.failed {
                    return Err(poisoned(msg));
                }
                // Arena full: wait for the claimed leader to seal. A
                // would-be leader never waits (nobody else would seal).
                if st.leader_claimed && st.arena.len() >= ARENA_CAP {
                    self.staged_cv.wait(&mut st);
                    continue;
                }
                break;
            }
            let lsn = st.next_lsn;
            st.next_lsn += 1;
            if st.arena_entries == 0 {
                st.arena_first_lsn = lsn;
            }
            put_uvarint(&mut st.arena, payload.len() as u64);
            st.arena.extend_from_slice(payload);
            st.arena_entries += 1;
            st.unapplied.insert(lsn);
            st.sync_requested |= want_sync;
            let leader = !st.leader_claimed;
            st.leader_claimed = true;
            (lsn, st.epoch, leader)
        };

        if leader {
            self.commit_epoch(my_epoch)?;
            self.appends.fetch_add(1, Ordering::Relaxed);
            return Ok(lsn);
        }
        // Follower: wait for the durability watermark to pass our LSN.
        let mut st = self.staging.lock();
        while st.durable_next <= lsn && st.failed.is_none() {
            self.staged_cv.wait(&mut st);
        }
        if st.durable_next > lsn {
            self.appends.fetch_add(1, Ordering::Relaxed);
            Ok(lsn)
        } else {
            Err(poisoned(st.failed.as_deref().unwrap_or("commit failed")))
        }
    }

    /// Leader path: wait for this epoch's turn at the writer, seal the
    /// arena (picking up everyone who staged meanwhile — natural
    /// batching), write one group frame, apply one barrier, fan out.
    fn commit_epoch(&self, my_epoch: u64) -> Result<()> {
        // Optional linger: give stragglers `group_commit_window` to stage
        // before we queue for the writer. Off (zero) by default; arena
        // saturation notifies `staged_cv` to cut the linger short.
        if !self.config.group_commit_window.is_zero() {
            let mut st = self.staging.lock();
            if st.arena.len() < ARENA_CAP && st.failed.is_none() {
                let _ = self.staged_cv.wait_for(&mut st, self.config.group_commit_window);
            }
        }

        let mut wr = self.writer.lock();
        while wr.next_commit_epoch != my_epoch {
            self.turn_cv.wait(&mut wr);
        }

        // Seal under writer → staging so seal order == write order ==
        // LSN order.
        let sealed = {
            let mut st = self.staging.lock();
            let arena = std::mem::take(&mut st.arena);
            let entries = st.arena_entries;
            st.arena_entries = 0;
            let first_lsn = st.arena_first_lsn;
            let sync_requested = std::mem::take(&mut st.sync_requested);
            st.epoch += 1;
            st.leader_claimed = false;
            let poisoned_by = st.failed.clone();
            // Wake arena-room waiters (they will stage into the new epoch)
            // and, when poisoned, every durability waiter.
            self.staged_cv.notify_all();
            match poisoned_by {
                Some(msg) => Err(poisoned(&msg)),
                None => Ok((arena, entries, first_lsn, sync_requested)),
            }
        };
        let (arena, entries, first_lsn, sync_requested) = match sealed {
            Ok(s) => s,
            Err(e) => {
                // A previous commit already failed: discard the epoch
                // without touching the broken writer, but keep the
                // turnstile moving so queued leaders do not hang.
                wr.next_commit_epoch += 1;
                self.turn_cv.notify_all();
                return Err(e);
            }
        };
        let end_lsn = first_lsn + entries;
        let frame = encode_group_frame(entries, &arena);

        let result = self.write_group(&mut wr, &frame, first_lsn, sync_requested);
        wr.write_next_lsn = end_lsn;
        wr.next_commit_epoch += 1;
        self.turn_cv.notify_all();
        drop(wr);

        let mut st = self.staging.lock();
        match &result {
            Ok(()) => st.durable_next = end_lsn,
            Err(e) => st.failed = Some(e.to_string()),
        }
        self.staged_cv.notify_all();
        drop(st);
        if result.is_ok() {
            self.groups.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn write_group(
        &self,
        wr: &mut WriterState,
        frame: &[u8],
        first_lsn: Lsn,
        sync_requested: bool,
    ) -> Result<()> {
        if wr.active.len() >= self.config.max_segment_bytes {
            Self::rotate_locked(wr, first_lsn)?;
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        wr.active.append(frame)?;
        let barrier = if sync_requested { FlushPolicy::Sync } else { self.config.flush };
        match barrier {
            FlushPolicy::Flush => {
                wr.active.flush()?;
                self.flushes.fetch_add(1, Ordering::Relaxed);
            }
            FlushPolicy::Sync => {
                wr.active.sync()?;
                self.fsyncs.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Rotation under the writer lock: sync the old segment, open the
    /// next, record the first LSN it will contain.
    fn rotate_locked(wr: &mut WriterState, next_first_lsn: Lsn) -> Result<()> {
        wr.active.sync()?;
        wr.active_seq += 1;
        wr.segment_first_lsn.insert(wr.active_seq, next_first_lsn);
        wr.active = SegmentWriter::create(wr.dir.join(segment_file_name(wr.active_seq)))?;
        Ok(())
    }

    /// Marks `lsn` applied to the row store, releasing it as a truncation
    /// floor. Call exactly once per acked append, after the in-memory
    /// apply.
    pub fn confirm_applied(&self, lsn: Lsn) {
        let mut st = self.staging.lock();
        st.unapplied.remove(&lsn);
    }

    /// True while any acked append is still unconfirmed (see
    /// [`GroupCommitWal::confirm_applied`]).
    pub fn has_unapplied(&self) -> bool {
        !self.staging.lock().unapplied.is_empty()
    }

    /// Flushes and fsyncs the active segment.
    pub fn sync(&self) -> Result<()> {
        let mut wr = self.writer.lock();
        wr.active.sync()?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Forces rotation to a fresh segment (so a following
    /// [`GroupCommitWal::truncate_until`] can drop everything already
    /// written).
    pub fn rotate_now(&self) -> Result<()> {
        let mut wr = self.writer.lock();
        let next_first = wr.write_next_lsn;
        Self::rotate_locked(&mut wr, next_first)?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The LSN the next append will receive.
    pub fn next_lsn(&self) -> Lsn {
        self.staging.lock().next_lsn
    }

    /// Number of live segment files.
    pub fn segment_count(&self) -> usize {
        self.writer.lock().segment_first_lsn.len()
    }

    /// Lifetime coalescing counters.
    pub fn stats(&self) -> GroupCommitStats {
        GroupCommitStats {
            appends: self.appends.load(Ordering::Relaxed),
            groups: self.groups.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
        }
    }

    /// Deletes whole segments whose every record has `lsn < up_to`,
    /// clamped so no *unconfirmed* append (WAL-committed but not yet
    /// applied to the row store — see
    /// [`GroupCommitWal::confirm_applied`]) is ever dropped. The active
    /// segment is never deleted. Returns the number of segments removed.
    pub fn truncate_until(&self, up_to: Lsn) -> Result<usize> {
        let mut wr = self.writer.lock();
        // With appends running outside the caller's shard lock, a batch
        // can be durable here but not yet visible in the row store; if we
        // deleted its segment, an acked record would vanish. Clamp to the
        // oldest unapplied LSN (writer → staging nesting).
        let up_to = {
            let st = self.staging.lock();
            match st.unapplied.iter().next() {
                Some(&min_unapplied) => up_to.min(min_unapplied),
                None => up_to,
            }
        };
        let seqs: Vec<u64> = wr.segment_first_lsn.keys().copied().collect();
        let mut deleted = 0;
        for window in seqs.windows(2) {
            let (seq, next_seq) = (window[0], window[1]);
            let next_first = wr.segment_first_lsn[&next_seq];
            if next_first <= up_to && seq != wr.active_seq {
                std::fs::remove_file(wr.dir.join(segment_file_name(seq)))?;
                wr.segment_first_lsn.remove(&seq);
                deleted += 1;
            } else {
                break;
            }
        }
        Ok(deleted)
    }
}

fn poisoned(msg: &str) -> Error {
    Error::Internal(format!("group-commit wal poisoned by failed commit: {msg}"))
}

/// Encodes `entries` length-prefixed payloads (already concatenated in
/// `arena`) into one group frame payload.
pub(crate) fn encode_group_frame(entries: u64, arena: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(GROUP_MAGIC.len() + 10 + arena.len() + 4);
    out.extend_from_slice(GROUP_MAGIC);
    put_uvarint(&mut out, entries);
    out.extend_from_slice(arena);
    let crc = mask(crc32c(&out[GROUP_MAGIC.len()..]));
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes a group frame payload back into its member records. Any
/// structural defect — bad magic, short buffer, CRC mismatch, entry
/// overrun, trailing bytes — is a corruption error; in final-frame
/// position the caller treats it as a torn tail instead.
pub(crate) fn decode_group_frame(payload: &[u8]) -> Result<Vec<Vec<u8>>> {
    if payload.len() < GROUP_MAGIC.len() + 4 || !payload.starts_with(GROUP_MAGIC) {
        return Err(Error::corruption("group frame too short or bad magic"));
    }
    let mut crc_at = payload.len() - 4;
    let body = &payload[GROUP_MAGIC.len()..crc_at];
    if crc32c(body) != unmask(read_u32_le(payload, &mut crc_at)?) {
        return Err(Error::corruption("group frame crc mismatch"));
    }
    let mut pos = 0usize;
    let count = read_uvarint(body, &mut pos)?;
    if count > body.len() as u64 {
        return Err(Error::corruption("group frame entry count implausible"));
    }
    let mut entries = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let len = read_uvarint(body, &mut pos)? as usize;
        if body.len() - pos < len {
            return Err(Error::corruption("group frame entry overruns body"));
        }
        entries.push(body[pos..pos + len].to_vec());
        pos += len;
    }
    if pos != body.len() {
        return Err(Error::corruption("trailing bytes after group frame entries"));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "logstore-gcw-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sync_config() -> WalConfig {
        WalConfig { flush: FlushPolicy::Sync, ..WalConfig::default() }
    }

    #[test]
    fn append_assigns_monotonic_lsns_and_replays() {
        let dir = temp_dir("basic");
        {
            let (wal, replayed) = GroupCommitWal::open(&dir, WalConfig::default()).unwrap();
            assert!(replayed.is_empty());
            assert_eq!(wal.append(b"a").unwrap(), 1);
            assert_eq!(wal.append(b"b").unwrap(), 2);
            assert_eq!(wal.append_durable(b"c").unwrap(), 3);
            assert_eq!(wal.next_lsn(), 4);
        }
        {
            let (wal, replayed) = GroupCommitWal::open(&dir, WalConfig::default()).unwrap();
            assert_eq!(replayed, vec![(1, b"a".to_vec()), (2, b"b".to_vec()), (3, b"c".to_vec())]);
            assert_eq!(wal.next_lsn(), 4);
            // Appends continue the numbering after a reopen.
            assert_eq!(wal.append(b"d").unwrap(), 4);
        }
        let (_, replayed) = GroupCommitWal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(replayed.len(), 4);
        assert_eq!(replayed[3], (4, b"d".to_vec()));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn concurrent_producers_all_ack_with_coalesced_barriers() {
        let dir = temp_dir("mt");
        let (wal, _) = GroupCommitWal::open(&dir, sync_config()).unwrap();
        let wal = Arc::new(wal);
        const THREADS: usize = 16;
        const PER_THREAD: usize = 50;
        let start = Arc::new(Barrier::new(THREADS));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let wal = Arc::clone(&wal);
            let start = Arc::clone(&start);
            handles.push(std::thread::spawn(move || {
                start.wait();
                let mut lsns = Vec::new();
                for i in 0..PER_THREAD {
                    let payload = format!("t{t}-i{i}");
                    lsns.push(wal.append(payload.as_bytes()).unwrap());
                }
                lsns
            }));
        }
        let mut all: Vec<Lsn> =
            handles.into_iter().flat_map(|h| h.join().expect("producer thread")).collect();
        all.sort_unstable();
        let expect: Vec<Lsn> = (1..=(THREADS * PER_THREAD) as Lsn).collect();
        assert_eq!(all, expect, "every producer acked a distinct contiguous lsn");
        let stats = wal.stats();
        assert_eq!(stats.appends, (THREADS * PER_THREAD) as u64);
        // Every group pays exactly one fsync under FlushPolicy::Sync, so
        // fewer fsyncs than appends means producers that staged during a
        // barrier rode the next frame.
        assert_eq!(stats.fsyncs, stats.groups);
        assert!(
            stats.fsyncs < stats.appends,
            "fsyncs ({}) must coalesce below appends ({})",
            stats.fsyncs,
            stats.appends
        );
        // Replay sees every record exactly once.
        drop(wal);
        let (_, replayed) = GroupCommitWal::open(&dir, sync_config()).unwrap();
        assert_eq!(replayed.len(), THREADS * PER_THREAD);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn rotation_and_truncation_follow_confirmed_applies() {
        let dir = temp_dir("truncate");
        let config = WalConfig { max_segment_bytes: 64, ..WalConfig::default() };
        let (wal, _) = GroupCommitWal::open(&dir, config.clone()).unwrap();
        for i in 0..20u32 {
            let lsn = wal.append(&[i as u8; 16]).unwrap();
            wal.confirm_applied(lsn);
        }
        assert!(wal.segment_count() > 1, "expected rotation");
        // Records spread over rotated segments replay whole and in order.
        drop(wal);
        let (wal, replayed) = GroupCommitWal::open(&dir, config.clone()).unwrap();
        assert_eq!(replayed.len(), 20);
        assert_eq!(wal.next_lsn(), 21);
        // Truncating below the last record keeps its segment: a suffix
        // still replays.
        let before = wal.segment_count();
        let deleted = wal.truncate_until(wal.next_lsn() - 1).unwrap();
        assert!(deleted > 0);
        assert_eq!(wal.segment_count(), before - deleted);
        drop(wal);
        let (wal, replayed) = GroupCommitWal::open(&dir, config).unwrap();
        assert!(!replayed.is_empty() && replayed.len() < 20);
        assert_eq!(replayed.last().map(|(_, p)| p.clone()), Some(vec![19u8; 16]));
        // After a forced rotation everything written so far can go.
        wal.rotate_now().unwrap();
        let before = wal.segment_count();
        let deleted = wal.truncate_until(wal.next_lsn()).unwrap();
        assert_eq!(deleted, before - 1);
        assert_eq!(wal.segment_count(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn truncation_clamps_to_unapplied_lsns() {
        let dir = temp_dir("clamp");
        let config = WalConfig { max_segment_bytes: 1, ..WalConfig::default() };
        let (wal, _) = GroupCommitWal::open(&dir, config.clone()).unwrap();
        // Three appends, one per segment (tiny cap forces rotation), only
        // the first confirmed applied.
        let l1 = wal.append(b"applied").unwrap();
        wal.confirm_applied(l1);
        let _l2 = wal.append(b"committed-not-applied").unwrap();
        let _l3 = wal.append(b"also-unapplied").unwrap();
        wal.rotate_now().unwrap();
        // Asking to truncate everything must still keep l2/l3 on disk.
        wal.truncate_until(wal.next_lsn()).unwrap();
        drop(wal);
        let (_, replayed) = GroupCommitWal::open(&dir, config).unwrap();
        let payloads: Vec<&[u8]> = replayed.iter().map(|(_, p)| p.as_slice()).collect();
        assert!(payloads.contains(&b"committed-not-applied".as_slice()));
        assert!(payloads.contains(&b"also-unapplied".as_slice()));
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A group payload whose trailing CRC is wrong, and a payload that is
    /// not a group frame at all (the single-record layout of the writer
    /// that predated group commit): both sit in intact segment frames.
    fn invalid_bodies(valid_group: &[u8]) -> [Vec<u8>; 2] {
        let mut bad_crc = valid_group.to_vec();
        *bad_crc.last_mut().unwrap() ^= 0xff;
        [bad_crc, b"\x00one-record-per-frame".to_vec()]
    }

    #[test]
    fn invalid_group_body_in_tail_position_is_torn() {
        for case in 0..2 {
            let dir = temp_dir("torngroup");
            {
                let (wal, _) = GroupCommitWal::open(&dir, sync_config()).unwrap();
                wal.append(b"keep").unwrap();
                wal.append(b"doomed").unwrap();
            }
            // Replace the final frame's payload while keeping the segment
            // frame CRC consistent.
            let seg = dir.join(segment_file_name(0));
            let replay = replay_segment(&seg).unwrap();
            assert_eq!(replay.payloads.len(), 2);
            let bad = &invalid_bodies(&replay.payloads[1])[case];
            let keep_end = replay.frame_ends[0];
            let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
            f.set_len(keep_end).unwrap();
            drop(f);
            let mut w = SegmentWriter::open_for_append(&seg, keep_end).unwrap();
            w.append(bad).unwrap();
            w.sync().unwrap();
            drop(w);
            // The invalid tail is discarded exactly like a torn frame, and
            // the next append lands at the cut.
            {
                let (wal, replayed) = GroupCommitWal::open(&dir, sync_config()).unwrap();
                assert_eq!(replayed, vec![(1, b"keep".to_vec())], "case {case}");
                assert_eq!(wal.append(b"next").unwrap(), 2);
            }
            let (_, replayed) = GroupCommitWal::open(&dir, sync_config()).unwrap();
            assert_eq!(replayed, vec![(1, b"keep".to_vec()), (2, b"next".to_vec())]);
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn invalid_group_body_mid_file_is_corruption() {
        for case in 0..2 {
            let dir = temp_dir("midgroup");
            {
                let (wal, _) = GroupCommitWal::open(&dir, sync_config()).unwrap();
                wal.append(b"first").unwrap();
                wal.append(b"second").unwrap();
            }
            let seg = dir.join(segment_file_name(0));
            let replay = replay_segment(&seg).unwrap();
            let mut w = SegmentWriter::create(&seg).unwrap();
            w.append(&invalid_bodies(&replay.payloads[0])[case]).unwrap();
            w.append(&replay.payloads[1]).unwrap();
            w.sync().unwrap();
            drop(w);
            let err = GroupCommitWal::open(&dir, sync_config()).unwrap_err();
            assert!(matches!(err, Error::Corruption(_)), "case {case}: {err}");
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn oversized_payload_rejected_before_staging() {
        let dir = temp_dir("oversize");
        let (wal, _) = GroupCommitWal::open(&dir, WalConfig::default()).unwrap();
        let huge = vec![0u8; MAX_PAYLOAD / 2 + 1];
        assert!(wal.append(&huge).is_err());
        assert_eq!(wal.next_lsn(), 1, "rejected payload must not consume an lsn");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn group_commit_window_still_acks_everyone() {
        let dir = temp_dir("window");
        let config = WalConfig {
            group_commit_window: std::time::Duration::from_millis(2),
            ..WalConfig::default()
        };
        let (wal, _) = GroupCommitWal::open(&dir, config).unwrap();
        let wal = Arc::new(wal);
        let mut handles = Vec::new();
        for t in 0..4 {
            let wal = Arc::clone(&wal);
            handles.push(std::thread::spawn(move || {
                for i in 0..10 {
                    wal.append(format!("w{t}-{i}").as_bytes()).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().expect("producer thread");
        }
        assert_eq!(wal.stats().appends, 40);
        let _ = std::fs::remove_dir_all(dir);
    }

    mod codec_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Roundtrip: any batch of payloads encodes and decodes to
            /// itself.
            #[test]
            fn group_frame_roundtrip(
                entries in proptest::collection::vec(
                    proptest::collection::vec(any::<u8>(), 0..200), 0..40)
            ) {
                let mut arena = Vec::new();
                for e in &entries {
                    put_uvarint(&mut arena, e.len() as u64);
                    arena.extend_from_slice(e);
                }
                let frame = encode_group_frame(entries.len() as u64, &arena);
                prop_assert!(frame.starts_with(GROUP_MAGIC));
                let decoded = decode_group_frame(&frame).unwrap();
                prop_assert_eq!(decoded, entries);
            }

            /// Any truncation of a valid frame fails decode — the CRC tail
            /// check catches short-written group bodies.
            #[test]
            fn truncated_group_frame_is_detected(
                entries in proptest::collection::vec(
                    proptest::collection::vec(any::<u8>(), 1..100), 1..20),
                cut in 0usize..1000,
            ) {
                let mut arena = Vec::new();
                for e in &entries {
                    put_uvarint(&mut arena, e.len() as u64);
                    arena.extend_from_slice(e);
                }
                let frame = encode_group_frame(entries.len() as u64, &arena);
                let cut = cut % frame.len(); // strictly shorter
                prop_assert!(decode_group_frame(&frame[..cut]).is_err());
            }

            /// Single-bit corruption anywhere after the magic fails
            /// decode.
            #[test]
            fn flipped_bit_is_detected(
                entries in proptest::collection::vec(
                    proptest::collection::vec(any::<u8>(), 1..100), 1..20),
                pos in 0usize..1000,
                bit in 0u8..8,
            ) {
                let mut arena = Vec::new();
                for e in &entries {
                    put_uvarint(&mut arena, e.len() as u64);
                    arena.extend_from_slice(e);
                }
                let mut frame = encode_group_frame(entries.len() as u64, &arena);
                let idx = GROUP_MAGIC.len() + pos % (frame.len() - GROUP_MAGIC.len());
                frame[idx] ^= 1 << bit;
                prop_assert!(decode_group_frame(&frame).is_err());
            }
        }
    }
}
