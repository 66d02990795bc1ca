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
//! observation): the leader seals its epoch only once it holds the
//! writer, so every producer that stages while the previous epoch's
//! barrier is in flight rides the next frame. Throughput scales
//! with producers while a lone producer keeps single-append latency —
//! there is no mandatory linger (`group_commit_window` defaults to zero).
//!
//! ## Locking
//!
//! Two labeled mutexes, strictly ordered `writer → staging`:
//!
//! * `wal.group.staging` — the arena, LSN allocator, durability watermark
//!   and un-applied LSN set. Held for microseconds per stage/confirm.
//! * `wal.group.writer` — the active [`SegmentWriter`] and segment map.
//!   Held across the (possibly fsyncing) group write.
//!
//! Epochs commit in LSN order without a turn counter: only an epoch's
//! leader seals it, it seals while holding the writer, and the seal opens
//! the next epoch. So at most one epoch is unsealed at a time, and no
//! later leader can reach the writer before this one has written.
//!
//! The one condvar wait (`staged_cv`, for durability or arena room) holds
//! only the staging mutex, which the [`OrderedCondvar`] discipline
//! enforces in analysis builds. Producers call [`GroupCommitWal::append`]
//! with **no** locks held ([`assert_no_locks_held`] at entry), so a slow
//! fsync never stalls a thread that owns an engine lock.
//!
//! ## On-disk format and crash safety
//!
//! A committed epoch is one segment frame (`len | masked crc32c |
//! payload`, see [`crate::segment`]) whose payload is the epoch's entries:
//!
//! ```text
//! group := uvarint count | (uvarint len | bytes)^count
//! ```
//!
//! The segment frame's CRC is the one checksum. A frame a crash cut short
//! is a torn tail: replay truncates the file to the previous frame's end.
//! A frame whose CRC matches was written whole, so a body that then fails
//! to decode is corruption wherever it sits. Because the leader's barrier
//! covers the whole frame, either every producer in the epoch was acked
//! (frame fully durable) or none were (leader never returned), so
//! discard-on-replay is exactly-once. Each segment file is named by its
//! first LSN, and replay checks that every segment starts where the one
//! before it ended: a missing segment is corruption, not a renumbering.

use crate::segment::{
    parse_segment_lsn, replay_segment, segment_file_name, SegmentWriter, MAX_PAYLOAD,
};
use logstore_codec::varint::{put_uvarint, read_uvarint};
use logstore_sync::{assert_no_locks_held, OrderedCondvar, OrderedMutex};
use logstore_types::{Error, Result};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A log sequence number: 1-based and absolute. Numbering continues across
/// rotations, truncations and reopens (the first surviving segment's name
/// is where replay starts counting), so an LSN names one record for the
/// life of the WAL directory.
pub type Lsn = u64;

/// A replayed record: its LSN and payload.
pub type ReplayedRecord = (Lsn, Vec<u8>);

/// When a committed group's bytes reach the write barrier. One barrier
/// covers every producer staged in the epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// `write(2)` to the OS per group (the default): survives a process
    /// crash, not a power failure. The paper's phase-one posture, where
    /// replication, not fsync, covers node loss; this WAL is not
    /// replicated, so node loss is not covered here.
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

/// Writer-side state: the open segment.
#[derive(Debug)]
struct WriterState {
    dir: PathBuf,
    active: SegmentWriter,
    /// First LSN of every live segment; the last is the active segment's.
    segments: BTreeSet<Lsn>,
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
    appends: AtomicU64,
    groups: AtomicU64,
    fsyncs: AtomicU64,
    flushes: AtomicU64,
}

impl GroupCommitWal {
    /// Opens (or creates) a group-commit WAL in `dir`, recovering existing
    /// segments. Each frame fans out into its group's records, numbered
    /// from the first segment's name on. Returns the WAL and the replayed
    /// records in LSN order.
    pub fn open(dir: impl AsRef<Path>, config: WalConfig) -> Result<(Self, Vec<ReplayedRecord>)> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut segments: BTreeSet<Lsn> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().to_str().and_then(parse_segment_lsn))
            .collect();

        let mut replayed = Vec::new();
        let mut next_lsn: Lsn = segments.first().copied().unwrap_or(1);
        let mut last_valid_len = 0u64;
        for &first in &segments {
            if first != next_lsn {
                return Err(Error::corruption(format!(
                    "wal segment {first} does not start where the previous one ended ({next_lsn})"
                )));
            }
            let replay = replay_segment(dir.join(segment_file_name(first)))?;
            if replay.torn_tail && segments.last() != Some(&first) {
                return Err(Error::corruption(format!(
                    "torn frame in non-final wal segment {first}"
                )));
            }
            for payload in &replay.payloads {
                for entry in decode_group_frame(payload)? {
                    replayed.push((next_lsn, entry));
                    next_lsn += 1;
                }
            }
            last_valid_len = replay.valid_len;
        }

        let active = match segments.last() {
            Some(&first) => {
                SegmentWriter::open_for_append(dir.join(segment_file_name(first)), last_valid_len)?
            }
            None => {
                segments.insert(next_lsn);
                SegmentWriter::create(dir.join(segment_file_name(next_lsn)))?
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
                WriterState { dir, active, segments, write_next_lsn: next_lsn },
            ),
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
        let (lsn, leader) = {
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
            (lsn, leader)
        };

        if leader {
            self.commit_epoch()?;
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

    /// Leader path: take the writer, seal the arena (picking up everyone
    /// who staged meanwhile — natural batching), write one group frame,
    /// apply one barrier, fan out.
    fn commit_epoch(&self) -> Result<()> {
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
        // Seal under writer → staging so seal order == write order ==
        // LSN order.
        let sealed = {
            let mut st = self.staging.lock();
            let arena = std::mem::take(&mut st.arena);
            let entries = st.arena_entries;
            st.arena_entries = 0;
            let first_lsn = st.arena_first_lsn;
            let sync_requested = std::mem::take(&mut st.sync_requested);
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
        // A previous commit already failed: discard the epoch without
        // touching the broken writer.
        let (arena, entries, first_lsn, sync_requested) = sealed?;
        let end_lsn = first_lsn + entries;
        let frame = encode_group_frame(entries, &arena);

        let result = self.write_group(&mut wr, &frame, first_lsn, sync_requested);
        wr.write_next_lsn = end_lsn;
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
            self.rotate_locked(wr, first_lsn)?;
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

    /// Rotation under the writer lock: sync the old segment and open the
    /// next, named by the first LSN it will contain. An empty active
    /// segment already carries that name, so rotating it is a no-op.
    fn rotate_locked(&self, wr: &mut WriterState, next_first_lsn: Lsn) -> Result<()> {
        if wr.active.is_empty() {
            return Ok(());
        }
        wr.active.sync()?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        wr.segments.insert(next_first_lsn);
        wr.active = SegmentWriter::create(wr.dir.join(segment_file_name(next_first_lsn)))?;
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
        self.rotate_locked(&mut wr, next_first)
    }

    /// The LSN the next append will receive.
    pub fn next_lsn(&self) -> Lsn {
        self.staging.lock().next_lsn
    }

    /// Number of live segment files.
    pub fn segment_count(&self) -> usize {
        self.writer.lock().segments.len()
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
    /// segment is never deleted. Returns the first LSN still in the WAL:
    /// every record below it is gone.
    pub fn truncate_until(&self, up_to: Lsn) -> Result<Lsn> {
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
        // A segment may go once the next one starts at or below `up_to`;
        // the active segment has no next one.
        let firsts: Vec<Lsn> = wr.segments.iter().copied().collect();
        for pair in firsts.windows(2) {
            if pair[1] > up_to {
                break;
            }
            std::fs::remove_file(wr.dir.join(segment_file_name(pair[0])))?;
            wr.segments.remove(&pair[0]);
        }
        Ok(wr.segments.first().copied().unwrap_or(up_to))
    }
}

fn poisoned(msg: &str) -> Error {
    Error::Internal(format!("group-commit wal poisoned by failed commit: {msg}"))
}

/// Encodes `entries` length-prefixed payloads (already concatenated in
/// `arena`) into one group frame payload.
pub(crate) fn encode_group_frame(entries: u64, arena: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(10 + arena.len());
    put_uvarint(&mut out, entries);
    out.extend_from_slice(arena);
    out
}

/// Decodes a group frame payload back into its member records. The bytes
/// come from disk: an implausible count, an entry overrunning the body or
/// trailing bytes are a corruption error.
pub(crate) fn decode_group_frame(body: &[u8]) -> Result<Vec<Vec<u8>>> {
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
        // still replays, under the LSNs it was appended with.
        let before = wal.segment_count();
        let first = wal.truncate_until(20).unwrap();
        assert!((2..=20).contains(&first), "first surviving lsn {first}");
        assert!(wal.segment_count() < before);
        drop(wal);
        let (wal, replayed) = GroupCommitWal::open(&dir, config.clone()).unwrap();
        assert_eq!(replayed.first().map(|(lsn, _)| *lsn), Some(first));
        assert_eq!(replayed.last(), Some(&(20, vec![19u8; 16])));
        // After a forced rotation everything written so far can go, and
        // numbering continues across the whole cut and a reopen.
        wal.rotate_now().unwrap();
        assert_eq!(wal.truncate_until(wal.next_lsn()).unwrap(), 21);
        assert_eq!(wal.segment_count(), 1);
        drop(wal);
        let (wal, replayed) = GroupCommitWal::open(&dir, config).unwrap();
        assert!(replayed.is_empty());
        assert_eq!(wal.next_lsn(), 21);
        assert_eq!(wal.append(b"after the cut").unwrap(), 21, "lsns never restart");
        let _ = std::fs::remove_dir_all(dir);
    }

    fn segment_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn rotating_an_empty_active_segment_creates_no_file() {
        let dir = temp_dir("rotate-empty");
        let (wal, _) = GroupCommitWal::open(&dir, WalConfig::default()).unwrap();
        wal.rotate_now().unwrap();
        assert_eq!(segment_names(&dir), [segment_file_name(1)]);
        wal.append(b"a").unwrap();
        wal.rotate_now().unwrap();
        wal.rotate_now().unwrap();
        assert_eq!(segment_names(&dir), [segment_file_name(1), segment_file_name(2)]);
        assert_eq!(wal.stats().fsyncs, 1, "only the rotation away from a written segment syncs");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_missing_middle_segment_is_corruption() {
        let dir = temp_dir("missing-middle");
        let config = WalConfig { max_segment_bytes: 1, ..WalConfig::default() };
        let (wal, _) = GroupCommitWal::open(&dir, config.clone()).unwrap();
        for i in 0..3u8 {
            wal.append(&[i; 8]).unwrap();
        }
        drop(wal);
        let names = segment_names(&dir);
        assert_eq!(names.len(), 3, "one segment per group: {names:?}");
        std::fs::remove_file(dir.join(&names[1])).unwrap();
        let err = GroupCommitWal::open(&dir, config).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)), "{err}");
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
        let l2 = wal.append(b"committed-not-applied").unwrap();
        wal.append(b"also-unapplied").unwrap();
        wal.rotate_now().unwrap();
        // Asking to truncate everything must still keep l2/l3 on disk.
        assert_eq!(wal.truncate_until(wal.next_lsn()).unwrap(), l2);
        drop(wal);
        let (_, replayed) = GroupCommitWal::open(&dir, config).unwrap();
        let payloads: Vec<&[u8]> = replayed.iter().map(|(_, p)| p.as_slice()).collect();
        assert!(payloads.contains(&b"committed-not-applied".as_slice()));
        assert!(payloads.contains(&b"also-unapplied".as_slice()));
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A one-entry group whose count claims a second entry, and a payload
    /// that is not a group frame at all (the single-record layout of the
    /// writer that predated group commit).
    fn undecodable_bodies(one_entry_group: &[u8]) -> [Vec<u8>; 2] {
        let mut bad_count = one_entry_group.to_vec();
        bad_count[0] += 1;
        [bad_count, b"\x00one-record-per-frame".to_vec()]
    }

    #[test]
    fn undecodable_group_in_an_intact_frame_is_corruption() {
        for victim in [1, 0] {
            for case in 0..2 {
                let dir = temp_dir("undecodable");
                {
                    let (wal, _) = GroupCommitWal::open(&dir, sync_config()).unwrap();
                    wal.append(b"first").unwrap();
                    wal.append(b"second").unwrap();
                }
                // Rewrite the segment through `SegmentWriter`, so every frame
                // CRC matches, with the tail (1) or mid-file (0) body replaced.
                let seg = dir.join(segment_file_name(1));
                let mut payloads = replay_segment(&seg).unwrap().payloads;
                assert_eq!(payloads.len(), 2);
                payloads[victim] = undecodable_bodies(&payloads[victim])[case].clone();
                let mut w = SegmentWriter::create(&seg).unwrap();
                for payload in &payloads {
                    w.append(payload).unwrap();
                }
                w.sync().unwrap();
                drop(w);
                let err = GroupCommitWal::open(&dir, sync_config()).unwrap_err();
                assert!(matches!(err, Error::Corruption(_)), "frame {victim} case {case}: {err}");
                let _ = std::fs::remove_dir_all(dir);
            }
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
                let decoded = decode_group_frame(&frame).unwrap();
                prop_assert_eq!(decoded, entries);
            }

            /// Any truncation of a valid frame fails decode: the count
            /// promises entries the prefix does not hold.
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
        }
    }
}
