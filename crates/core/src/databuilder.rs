//! The data builder: phase two of the two-phase write.
//!
//! Drains workers' row stores, partitions the drained rows **by tenant**
//! (the row store mixes tenants for write speed; OSS storage isolates them
//! — paper §3.1), sorts each tenant's rows by timestamp, builds compressed
//! and indexed LogBlocks, uploads them to per-tenant OSS directories and
//! registers them in the controller's LogBlock map. Oversized tenants are
//! split across multiple LogBlocks.
//!
//! One drain is three steps: build, PUT wave, commit. The calling thread
//! does what only it can do deterministically — partition, build and
//! allocate paths in canonical chunk order, every chunk up to the first
//! that fails to build — then an [`ordered_wave`] of uploader threads PUTs
//! the built blocks, so a drain costs about its build CPU plus one OSS
//! round trip per wave-width of LogBlocks instead of one per LogBlock.
//! Completion order is free; **commit order is not**: after the wave
//! joins, exactly the chunks before the lowest failed index are
//! registered. A later chunk — built anyway, or whose PUT happened to
//! succeed — stays an unregistered orphan under its pending path, which
//! the GC pass sweeps, tombstones and deletes like any crash-orphaned
//! upload.
//!
//! A drain that runs under an engine also **admits** each block of the
//! durable prefix to the cache — between its PUT and its registration, so
//! no reader can learn a block's path before the bytes the builder held a
//! moment ago are in memory under it.
//!
//! Uploads are fault-tolerant: the engine's store stack retries transient
//! OSS failures with backoff, and when an upload still fails terminally,
//! [`build_and_upload`] hands every not-yet-durable row back in
//! [`BuildOutcome::unarchived`] so the caller can restore them to the row
//! store. No drained row is ever dropped on an error path.

use crate::metadata::{DrainId, LogBlockEntry, MetadataStore};
use logstore_cache::Prefetcher;
use logstore_codec::Compression;
use logstore_logblock::{BuildTimes, ColumnVec, LogBlockBuilder};
use logstore_obs::{Counter, Histogram, Registry};
use logstore_oss::{ordered_wave, ObjectStore};
use logstore_types::{Error, LogRecord, Result, TableSchema, TenantId};
use logstore_wal::{partition_runs, Drained, RunChunk};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Builder configuration.
#[derive(Debug, Clone)]
pub struct BuildConfig {
    /// Column compression.
    pub compression: Compression,
    /// Rows per column block.
    pub block_rows: usize,
    /// Max rows per LogBlock (tenant split threshold).
    pub max_rows_per_logblock: usize,
}

/// Outcome of one build pass.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BuildReport {
    /// LogBlocks uploaded.
    pub blocks_built: u64,
    /// Rows archived.
    pub rows_archived: u64,
    /// Packed bytes uploaded.
    pub bytes_uploaded: u64,
}

impl BuildReport {
    /// Accumulates another report into this one.
    pub fn merge(&mut self, other: &BuildReport) {
        self.blocks_built += other.blocks_built;
        self.rows_archived += other.rows_archived;
        self.bytes_uploaded += other.bytes_uploaded;
    }
}

/// Where one drain's build-and-upload time went, stage by stage. Each
/// stage is wall time on the thread that ran it, so the stages add up to
/// the call's wall time.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BuildStages {
    /// Splitting the drain into per-tenant, time-sorted chunks.
    pub partition: Duration,
    /// [`LogBlockBuilder::add`] (batch checks, column gathers, SMAs, index
    /// terms) and path allocation, every chunk.
    pub add: Duration,
    /// Column block encoding and compression, every chunk.
    pub encode: Duration,
    /// Index dictionaries, metadata and pack, every chunk.
    pub finish: Duration,
    /// The PUT wave of the built blocks: waiting for their PUTs.
    pub upload: Duration,
    /// Admitting the durable prefix to the cache.
    pub admit: Duration,
    /// Registering it ([`MetadataStore::commit_drain`]).
    pub commit: Duration,
}

/// The full result of a build pass, including the failure path.
///
/// The chunks before the lowest failed index are durable and registered
/// (the report counts them); every row not covered by a registered block
/// comes back in `unarchived`, copied out of the drain in chunk order, so
/// the caller can restore it.
#[derive(Debug, Default)]
pub struct BuildOutcome {
    /// What was successfully uploaded and registered.
    pub report: BuildReport,
    /// Rows that are NOT durable on OSS (empty on full success).
    pub unarchived: Drained,
    /// The lowest-indexed chunk's terminal error (or the commit's), if any.
    pub error: Option<Error>,
    /// Where the time went.
    pub stages: BuildStages,
}

impl BuildOutcome {
    /// True when every input row was archived.
    pub fn is_complete(&self) -> bool {
        self.error.is_none() && self.unarchived.is_empty()
    }
}

/// Converts drained rows into uploaded, registered LogBlocks — the serial
/// reference path: one PUT at a time, inline on the caller.
///
/// Never returns `Err`: failures are reported through
/// [`BuildOutcome::error`] together with the rows that still need a home.
/// A record that is not a row of `schema` archives nothing: the outcome
/// carries its error.
pub fn build_and_upload<S: ObjectStore>(
    rows: Vec<LogRecord>,
    schema: &TableSchema,
    config: &BuildConfig,
    store: &S,
    metadata: &MetadataStore,
) -> BuildOutcome {
    if let Err(e) = rows.iter().try_for_each(|r| r.validate(schema)) {
        return BuildOutcome { error: Some(e), ..BuildOutcome::default() };
    }
    let drained = Drained::from_records(schema, &rows);
    drop(rows);
    build_and_upload_drain(&drained, &Arc::new(schema.clone()), config, store, metadata, None, None)
}

/// [`build_and_upload`] for the runs of a shard drain, read in place. Under an
/// engine (`cache` is its [`Prefetcher`]) up to [`Prefetcher::width`] PUTs
/// are in flight — the engine's OSS request concurrency — and the blocks
/// are admitted to the cache; without one, uploads are inline, one at a
/// time, with no thread.
///
/// The chunk sequence, every block's bytes and every path are the same at
/// any width: chunks are built and their paths allocated on the calling
/// thread in canonical order, before the wave, and only the PUTs overlap.
/// After the wave joins, the committed set is the chunks before the
/// **lowest failed index** — out-of-order completion cannot widen it,
/// because a chunk's own success is never enough to register it. Every
/// chunk from that index on comes back in [`BuildOutcome::unarchived`], in
/// chunk order.
///
/// Registration is atomic: a single [`MetadataStore::commit_drain`]
/// registers the durable prefix and, with a [`DrainId`], records how many
/// leading chunks of the drain it covers and the cap they were partitioned
/// at. WAL replay after a crash splits the replayed drain with the same
/// [`partition_runs`] at that cap and keeps exactly the committed prefix
/// out of the row store — uploaded-but-uncommitted objects are garbage,
/// never duplicates.
///
/// With a `cache`, the order is PUT → admit → register: after the wave
/// joins and before anything is registered, the calling thread admits the
/// durable prefix, in chunk order ([`Prefetcher::admit`]). A registration
/// that then fails leaves admitted orphans; their paths are pending, so the
/// GC pass that deletes the objects evicts them like any other.
pub fn build_and_upload_drain<S: ObjectStore>(
    drained: &Drained,
    schema: &Arc<TableSchema>,
    config: &BuildConfig,
    store: &S,
    metadata: &MetadataStore,
    drain: Option<DrainId>,
    cache: Option<&Prefetcher<S>>,
) -> BuildOutcome {
    let mut outcome = BuildOutcome::default();
    let chunks = partition(drained, config, &mut outcome.stages);
    let blocks = build_blocks(&chunks, drained, schema, config, metadata, &mut outcome.stages);
    let uploads = put_blocks(admitted(blocks), store, cache, &mut outcome.stages.upload);
    let entries = admit_prefix(uploads, cache, &mut outcome);
    commit_prefix(entries, &chunks, drained, config, metadata, drain, &mut outcome);
    outcome
}

/// One chunk's LogBlock: its catalog entry and its packed bytes.
pub(crate) type Block = (LogBlockEntry, Vec<u8>);

/// A LogBlock after its PUT: its catalog entry, and its bytes where they
/// are kept for the cache.
pub(crate) type Uploaded = (LogBlockEntry, Option<Vec<u8>>);

/// A drain's built chunks as [`put_blocks`]'s feed: every one is admitted
/// to the cache after its PUT, so every one keeps its bytes.
pub(crate) fn admitted(
    blocks: Vec<Result<Block>>,
) -> impl ExactSizeIterator<Item = Result<(Block, bool)>> {
    blocks.into_iter().map(|block| block.map(|block| (block, true)))
}

/// The canonical chunk sequence of `drained`: tenants ascending,
/// ts-sorted, capped. WAL replay splits the drain with this same call, so
/// "chunk i of this drain" is unambiguous across crashes.
pub(crate) fn partition(
    drained: &Drained,
    config: &BuildConfig,
    stages: &mut BuildStages,
) -> Vec<RunChunk> {
    let start = Instant::now();
    let chunks = partition_runs(drained.runs(), config.max_rows_per_logblock);
    stages.partition = start.elapsed();
    chunks
}

/// The LogBlocks of `chunks`, built in chunk order up to and including the
/// first that fails to build. Adds the build stages to `stages`.
pub(crate) fn build_blocks(
    chunks: &[RunChunk],
    drained: &Drained,
    schema: &Arc<TableSchema>,
    config: &BuildConfig,
    metadata: &MetadataStore,
    stages: &mut BuildStages,
) -> Vec<Result<Block>> {
    let mut blocks = Vec::with_capacity(chunks.len());
    // Read in place: the runs are handed back whole if an upload fails.
    let runs: Vec<&[ColumnVec]> = drained.runs().iter().map(|run| run.columns()).collect();
    for chunk in chunks {
        let start = Instant::now();
        let rows = chunk.rows.len() as u64;
        let path = || metadata.allocate_block_path(chunk.tenant);
        let fill = |builder: &mut LogBlockBuilder| builder.add(&runs, &chunk.rows);
        let built = build_logblock(Arc::clone(schema), config, rows, path, fill);
        let times = built.as_ref().map_or(BuildTimes::default(), |(_, times)| *times);
        let block = built.map(|(block, _)| block);
        stages.encode += times.encode;
        stages.finish += times.finish;
        stages.add += start.elapsed().saturating_sub(times.encode + times.finish);
        let failed = block.is_err();
        blocks.push(block);
        if failed {
            break;
        }
    }
    blocks
}

/// The engine's one LogBlock PUT wave: an [`ordered_wave`] of `feed`'s
/// blocks — up to [`Prefetcher::width`] in flight under an engine, inline
/// without one — whose results come back in feed order; `upload` is set to
/// its wall time. The feed is pulled on the calling thread: a drain's
/// built chunks, or a compaction that plans and builds as it is pulled.
/// Each block says whether its bytes are kept past its PUT (to be
/// admitted to the cache); the others are dropped as soon as the PUT
/// returns, so a wave holds at most its width of them. The first failed
/// PUT stops the feed; an `Err` item of the feed itself (a failed build, a
/// lost plan race) passes through and stops nothing.
pub(crate) fn put_blocks<S: ObjectStore>(
    feed: impl IntoIterator<Item = Result<(Block, bool)>>,
    store: &S,
    cache: Option<&Prefetcher<S>>,
    upload: &mut Duration,
) -> Vec<Result<Uploaded>> {
    let width = cache.map_or(1, Prefetcher::width);
    let wave = Instant::now();
    let failed = AtomicBool::new(false);
    let mut feed = feed.into_iter();
    // Checked before each pull; the range keeps a one-block wave inline.
    let bound = feed.size_hint().1.unwrap_or(usize::MAX);
    let blocks = (0..bound).map_while(|_| (!failed.load(Ordering::SeqCst)).then(|| feed.next())?);
    let uploads = ordered_wave(width, blocks, |_, block: Result<(Block, bool)>| {
        let ((entry, bytes), keep) = block?;
        // The durability order is load-bearing: the object must exist on
        // OSS before it is registered (a registered-but-missing block
        // would fail queries; an uploaded-but-unregistered block merely
        // wastes space until GC deletes it).
        store.put(&entry.path, &bytes).inspect_err(|_| failed.store(true, Ordering::SeqCst))?;
        Ok((entry, keep.then_some(bytes)))
    });
    *upload = wave.elapsed();
    uploads
}

/// The durable prefix of `uploads` — every chunk before the lowest failed
/// index — admitted to the cache in chunk order; the failure, if any, goes
/// to the outcome.
pub(crate) fn admit_prefix<S: ObjectStore>(
    uploads: Vec<Result<Uploaded>>,
    cache: Option<&Prefetcher<S>>,
    outcome: &mut BuildOutcome,
) -> Vec<LogBlockEntry> {
    let admit = Instant::now();
    let mut entries = Vec::with_capacity(uploads.len());
    for upload in uploads {
        match upload {
            Ok((entry, bytes)) => {
                if let (Some(cache), Some(bytes)) = (cache, bytes) {
                    cache.admit(&entry.path, &bytes);
                }
                entries.push(entry);
            }
            Err(e) => {
                outcome.error = Some(e);
                break;
            }
        }
    }
    outcome.stages.admit = admit.elapsed();
    entries
}

/// Registers `entries`, the durable prefix of drain `drain`'s `chunks`, in
/// one [`MetadataStore::commit_drain`], and fills in the outcome: the
/// report, every row not in a registered block, the commit's error.
pub(crate) fn commit_prefix(
    entries: Vec<LogBlockEntry>,
    chunks: &[RunChunk],
    drained: &Drained,
    config: &BuildConfig,
    metadata: &MetadataStore,
    drain: Option<DrainId>,
    outcome: &mut BuildOutcome,
) {
    // Zero durable chunks commit nothing: replay then restores every row.
    let commit = Instant::now();
    let blocks: Vec<(TenantId, LogBlockEntry)> =
        chunks.iter().map(|c| c.tenant).zip(entries.iter().cloned()).collect();
    let committed = if blocks.is_empty() {
        0
    } else if let Err(e) = metadata.commit_drain(drain, blocks, config.max_rows_per_logblock) {
        // Nothing registered: every uploaded chunk is orphaned garbage on
        // OSS and its rows still need a home.
        outcome.error = Some(e);
        0
    } else {
        entries.len()
    };
    outcome.stages.commit = commit.elapsed();
    for entry in &entries[..committed] {
        outcome.report.blocks_built += 1;
        outcome.report.rows_archived += entry.rows;
        outcome.report.bytes_uploaded += entry.bytes;
    }
    if committed < chunks.len() {
        let rest = chunks[committed..].iter().flat_map(|chunk| chunk.rows.iter().copied());
        outcome.unarchived = drained.gather(rest);
    }
}

/// Builds one LogBlock of `rows` rows at `config`'s codec and block size
/// from what `fill` adds to the builder ([`LogBlockBuilder::add`]), and
/// returns it — its entry's range the one its `ts` SMA records — beside
/// the builder's own times. Every LogBlock the engine writes is built
/// here: a drain's chunk ([`build_blocks`]) and a compaction's merge.
/// `path` is asked for once the build succeeded: a chunk's comes from
/// [`MetadataStore::allocate_block_path`], a merged block's from
/// [`MetadataStore::begin_compaction`].
pub(crate) fn build_logblock(
    schema: impl Into<Arc<TableSchema>>,
    config: &BuildConfig,
    rows: u64,
    path: impl FnOnce() -> String,
    fill: impl FnOnce(&mut LogBlockBuilder) -> Result<()>,
) -> Result<(Block, BuildTimes)> {
    let mut builder = LogBlockBuilder::with_options(schema, config.compression, config.block_rows);
    fill(&mut builder)?;
    let (bytes, range, times) = builder.finish_timed()?;
    let range = range.ok_or_else(|| Error::invalid("a LogBlock with no ts range"))?;
    let (min_ts, max_ts, size) = (range.start, range.end, bytes.len() as u64);
    let entry = LogBlockEntry { path: path(), min_ts, max_ts, rows, bytes: size };
    Ok(((entry, bytes), times))
}

/// The engine's archive stage timers, one histogram per stage of
/// [`LogStore`]'s archive step (nanoseconds per drain) and a count of the
/// workers a threshold pass found due.
///
/// [`LogStore`]: crate::LogStore
pub(crate) struct ArchiveTimers {
    /// A take's wait for the shard's unsettled drain, per take that waited.
    pub(crate) settle_wait: Arc<Histogram>,
    pub(crate) drain: Arc<Histogram>,
    partition: Arc<Histogram>,
    add: Arc<Histogram>,
    encode: Arc<Histogram>,
    finish: Arc<Histogram>,
    upload: Arc<Histogram>,
    admit: Arc<Histogram>,
    commit: Arc<Histogram>,
    pub(crate) ack: Arc<Histogram>,
    pub(crate) release: Arc<Histogram>,
    rows: Arc<Counter>,
    /// Wall time of a build pass that archived anything.
    pub(crate) pass: Arc<Histogram>,
    /// Workers with a due shard, per threshold pass.
    pub(crate) workers_due: Arc<Histogram>,
}

impl ArchiveTimers {
    pub(crate) fn register(registry: &mut Registry) -> Self {
        ArchiveTimers {
            settle_wait: registry.histogram("core.engine.settle_wait_ns"),
            drain: registry.histogram("core.engine.drain_ns"),
            partition: registry.histogram("core.databuilder.partition_ns"),
            add: registry.histogram("core.databuilder.add_ns"),
            encode: registry.histogram("core.databuilder.encode_ns"),
            finish: registry.histogram("core.databuilder.finish_ns"),
            upload: registry.histogram("core.databuilder.upload_ns"),
            admit: registry.histogram("core.databuilder.admit_ns"),
            commit: registry.histogram("core.databuilder.commit_ns"),
            ack: registry.histogram("core.engine.ack_ns"),
            release: registry.histogram("core.engine.release_ns"),
            rows: registry.counter("core.databuilder.rows"),
            pass: registry.histogram("core.engine.pass_ns"),
            workers_due: registry.histogram("core.engine.workers_due"),
        }
    }

    /// Records one drain's build stages: partition, `add`, `encode` and
    /// `finish`.
    pub(crate) fn record_build(&self, s: &BuildStages) {
        for (histogram, d) in [
            (&self.partition, s.partition),
            (&self.add, s.add),
            (&self.encode, s.encode),
            (&self.finish, s.finish),
        ] {
            histogram.record_duration(d);
        }
    }

    /// Records one drain's settle stages — upload wave, admit and commit —
    /// and the rows it archived.
    pub(crate) fn record_settle(&self, outcome: &BuildOutcome) {
        let s = &outcome.stages;
        for (histogram, d) in
            [(&self.upload, s.upload), (&self.admit, s.admit), (&self.commit, s.commit)]
        {
            histogram.record_duration(d);
        }
        self.rows.add(outcome.report.rows_archived);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logstore_cache::TieredCache;
    use logstore_logblock::LogBlockReader;
    use logstore_oss::{FaultScope, FaultyStore, MemoryStore};
    use logstore_types::{TableSchema, TimeRange, Timestamp, Value};

    fn rec(t: u64, ts: i64) -> LogRecord {
        LogRecord::new(
            TenantId(t),
            Timestamp(ts),
            vec![
                Value::from("ip"),
                Value::from("/a"),
                Value::I64(ts % 50),
                Value::Bool(false),
                Value::from(format!("line at {ts}")),
            ],
        )
    }

    fn config() -> BuildConfig {
        BuildConfig { compression: Compression::LzHigh, block_rows: 16, max_rows_per_logblock: 50 }
    }

    fn drained(rows: &[LogRecord]) -> Drained {
        Drained::from_records(&TableSchema::request_log(), rows)
    }

    #[test]
    fn partitions_by_tenant_and_registers() {
        let store = MemoryStore::new();
        let metadata = MetadataStore::new();
        // Interleaved tenants, deliberately out of ts order.
        let mut rows = Vec::new();
        for i in (0..60i64).rev() {
            rows.push(rec(1 + (i % 2) as u64, i));
        }
        let outcome =
            build_and_upload(rows, &TableSchema::request_log(), &config(), &store, &metadata);
        assert!(outcome.is_complete());
        assert_eq!(outcome.report.rows_archived, 60);
        assert_eq!(outcome.report.blocks_built, 2); // 30 rows per tenant, one block each
        assert_eq!(store.object_count(), 2);
        // Per-tenant isolation on OSS paths.
        assert_eq!(store.list("tenants/1/").unwrap().len(), 1);
        assert_eq!(store.list("tenants/2/").unwrap().len(), 1);
        // Registered ranges prune correctly.
        let (blocks, _) = metadata.blocks_for(TenantId(1), TimeRange::all());
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].rows, 30);
    }

    #[test]
    fn oversized_tenants_split_into_multiple_blocks() {
        let store = MemoryStore::new();
        let metadata = MetadataStore::new();
        let rows: Vec<LogRecord> = (0..120).map(|i| rec(7, i)).collect();
        let outcome =
            build_and_upload(rows, &TableSchema::request_log(), &config(), &store, &metadata);
        assert!(outcome.is_complete());
        assert_eq!(outcome.report.blocks_built, 3); // 120 / 50 → 50+50+20
        let blocks = metadata.all_blocks(TenantId(7));
        assert_eq!(blocks.len(), 3);
        // Chronological, non-overlapping chunks.
        assert!(blocks[0].max_ts < blocks[1].min_ts);
        assert!(blocks[1].max_ts < blocks[2].min_ts);
    }

    #[test]
    fn uploaded_blocks_are_readable_and_sorted() {
        let store = MemoryStore::new();
        let metadata = MetadataStore::new();
        let mut rows: Vec<LogRecord> = (0..40).map(|i| rec(3, 100 - i)).collect();
        rows.reverse();
        let outcome =
            build_and_upload(rows, &TableSchema::request_log(), &config(), &store, &metadata);
        assert!(outcome.is_complete());
        let entry = &metadata.all_blocks(TenantId(3))[0];
        let bytes = store.get(&entry.path).unwrap();
        let reader = LogBlockReader::open(bytes).unwrap();
        assert_eq!(reader.row_count(), 40);
        let ts = reader.read_rows(&(0..40).collect::<Vec<u32>>(), &[1]).unwrap();
        let vals: Vec<i64> = ts.iter().map(|row| row[0].as_i64().unwrap()).collect();
        assert!(vals.windows(2).all(|w| w[0] <= w[1]), "rows must be ts-sorted");
        assert_eq!(entry.min_ts, Timestamp(61));
        assert_eq!(entry.max_ts, Timestamp(100));
    }

    #[test]
    fn empty_input_is_noop() {
        let store = MemoryStore::new();
        let metadata = MetadataStore::new();
        let outcome =
            build_and_upload(Vec::new(), &TableSchema::request_log(), &config(), &store, &metadata);
        assert!(outcome.is_complete());
        assert_eq!(outcome.report, BuildReport::default());
        assert_eq!(store.object_count(), 0);
    }

    /// A [`MemoryStore`] whose PUTs go through a test-supplied hook: the
    /// hook decides when each upload lands, fails or waits for another.
    struct PutHook<F> {
        inner: MemoryStore,
        put: F,
    }

    impl<F: Fn(&MemoryStore, &str, &[u8]) -> Result<()> + Send + Sync> ObjectStore for PutHook<F> {
        fn put(&self, path: &str, data: &[u8]) -> Result<()> {
            (self.put)(&self.inner, path, data)
        }
        fn get(&self, path: &str) -> Result<Vec<u8>> {
            self.inner.get(path)
        }
        fn get_range(&self, path: &str, o: u64, l: u64) -> Result<Vec<u8>> {
            self.inner.get_range(path, o, l)
        }
        fn head(&self, path: &str) -> Result<u64> {
            self.inner.head(path)
        }
        fn list(&self, prefix: &str) -> Result<Vec<String>> {
            self.inner.list(prefix)
        }
        fn delete(&self, path: &str) -> Result<()> {
            self.inner.delete(path)
        }
    }

    fn drain_id(shard: u32, lsn: u64) -> DrainId {
        DrainId { shard: logstore_types::ShardId(shard), lsn }
    }

    /// How many chunks of drain `id` are committed.
    fn committed_chunks(metadata: &MetadataStore, id: DrainId) -> Option<u64> {
        metadata.drain_commit(id).map(|commit| commit.chunks)
    }

    #[test]
    fn terminal_upload_failure_returns_every_undurable_row() {
        // The builder uploads tenant 1's chunks first (BTreeMap order).
        // Let exactly one PUT through, then fail the rest of this pass.
        let puts = std::sync::atomic::AtomicU64::new(0);
        let store = PutHook {
            inner: MemoryStore::new(),
            put: |inner: &MemoryStore, path: &str, data: &[u8]| {
                if puts.fetch_add(1, Ordering::SeqCst) >= 1 {
                    return Err(Error::Io(std::io::Error::other("injected put failure")));
                }
                inner.put(path, data)
            },
        };
        let metadata = MetadataStore::new();
        // Tenant 1: 120 rows → 3 chunks; tenants 2 and 3: 10 rows each.
        let mut rows: Vec<LogRecord> = (0..120).map(|i| rec(1, i)).collect();
        rows.extend((0..10).map(|i| rec(2, i)));
        rows.extend((0..10).map(|i| rec(3, i)));
        let outcome =
            build_and_upload(rows, &TableSchema::request_log(), &config(), &store, &metadata);
        // Chunk 1 of tenant 1 (50 rows) is durable; everything else came back.
        assert_eq!(outcome.report.blocks_built, 1);
        assert_eq!(outcome.report.rows_archived, 50);
        assert!(outcome.error.is_some());
        assert_eq!(outcome.unarchived.len(), 120 - 50 + 10 + 10);
        // The serial path stops at the first failure: one failed PUT, no more.
        assert_eq!(puts.load(Ordering::SeqCst), 2);
        // The registered map matches what is actually on OSS.
        assert_eq!(metadata.all_blocks(TenantId(1)).len(), 1);
        assert!(metadata.all_blocks(TenantId(2)).is_empty());
        assert!(metadata.all_blocks(TenantId(3)).is_empty());
        // Unarchived rows cover tenants 1, 2 and 3.
        let t1 = outcome.unarchived.records().iter().filter(|r| r.tenant_id == TenantId(1)).count();
        assert_eq!(t1, 70);
    }

    #[test]
    fn out_of_order_completion_commits_only_the_durable_prefix() {
        use crate::compactor::run_gc;
        use crate::hooks::NoopHooks;
        // Three chunks, three PUTs in flight. The barrier makes chunk 2
        // land first: chunk 0's PUT and chunk 1's failure both wait until
        // chunk 2's object is stored.
        let rendezvous = std::sync::Barrier::new(3);
        let store = Arc::new(PutHook {
            inner: MemoryStore::new(),
            put: |inner: &MemoryStore, path: &str, data: &[u8]| {
                if path.ends_with("000000000003.pack") {
                    inner.put(path, data)?;
                    rendezvous.wait();
                    return Ok(());
                }
                rendezvous.wait();
                if path.ends_with("000000000002.pack") {
                    return Err(Error::Io(std::io::Error::other("injected put failure")));
                }
                inner.put(path, data)
            },
        });
        let cache = Arc::new(TieredCache::memory_only(1 << 20).with_object_tier(1 << 20));
        let prefetcher = Prefetcher::new(Arc::clone(&store), Arc::clone(&cache), 1024, 8);
        let metadata = MetadataStore::new();
        let rows: Vec<LogRecord> = (0..120).map(|i| rec(8, i)).collect();
        let id = drain_id(2, 5);
        let outcome = build_and_upload_drain(
            &drained(&rows),
            &Arc::new(TableSchema::request_log()),
            &config(),
            store.as_ref(),
            &metadata,
            Some(id),
            Some(&prefetcher),
        );
        // Exactly chunk 0 is committed, although chunk 2 is on OSS too.
        assert!(outcome.error.is_some());
        assert_eq!(outcome.report.blocks_built, 1);
        assert_eq!(outcome.report.rows_archived, 50);
        assert_eq!(committed_chunks(&metadata, id), Some(1));
        let mapped = metadata.all_blocks(TenantId(8));
        assert_eq!(mapped.len(), 1);
        assert!(mapped[0].path.ends_with("000000000001.pack"));
        // Chunks 1.. come back whole, in chunk order.
        assert_eq!(outcome.unarchived.records(), rows[50..]);
        // Chunk 2 is an uploaded-but-unregistered orphan under its pending
        // path; the next GC pass sweeps, tombstones and deletes it.
        let orphan = "tenants/8/blk-000000000003.pack";
        assert!(store.head(orphan).is_ok());
        assert!(metadata.pending_paths().iter().any(|p| p == orphan));
        // Only the committed prefix was admitted to the cache — header and
        // every block — not the orphan whose PUT happened to succeed.
        assert_eq!(cache.handle(&mapped[0].path).map(|h| h.meta().row_count), Some(50));
        assert!(prefetcher.resident(&mapped[0].path, mapped[0].bytes).is_some());
        assert!(cache.handle(orphan).is_none());
        assert_eq!(cache.evict_object(orphan), 0, "no block of the orphan either");
        let gc = run_gc(store.as_ref(), &metadata, Some(&prefetcher), &NoopHooks);
        assert_eq!(gc.orphans_swept, 2, "the failed and the orphaned chunk's paths");
        assert!(store.head(orphan).is_err());
        assert_eq!(store.inner.object_count(), 1);
        assert!(metadata.pending_paths().is_empty() && metadata.tombstones().is_empty());
    }

    #[test]
    fn upload_width_changes_nothing_on_a_fault_free_drain() {
        // Five tenants, one of them split three ways: 7 chunks per drain.
        let mut rows = Vec::new();
        for i in 0..130i64 {
            rows.push(rec(1 + (i % 5) as u64, 1000 - i));
        }
        rows.extend((0..120).map(|i| rec(2, 2000 + i)));
        // Width 1 is the serial path (no cache, no thread); the others run
        // under a prefetcher of that width, admitting as the engine does.
        let run = |width: usize| {
            let (store, metadata) = (Arc::new(MemoryStore::new()), MetadataStore::new());
            let cache = Arc::new(TieredCache::memory_only(1 << 20).with_object_tier(1 << 20));
            let prefetcher = Prefetcher::new(Arc::clone(&store), cache, 1024, width);
            let id = drain_id(0, 1);
            let outcome = build_and_upload_drain(
                &drained(&rows),
                &Arc::new(TableSchema::request_log()),
                &config(),
                store.as_ref(),
                &metadata,
                Some(id),
                (width > 1).then_some(&prefetcher),
            );
            assert!(outcome.is_complete());
            let objects: Vec<(String, Vec<u8>)> = store
                .list("")
                .unwrap()
                .into_iter()
                .map(|path| {
                    let bytes = store.get(&path).unwrap();
                    (path, bytes)
                })
                .collect();
            let map: Vec<Vec<LogBlockEntry>> =
                (1..=5).map(|t| metadata.all_blocks(TenantId(t))).collect();
            (objects, map, committed_chunks(&metadata, id), outcome.report)
        };
        let serial = run(1);
        assert_eq!(serial.3.blocks_built, 7);
        assert_eq!(serial.2, Some(7));
        assert_eq!(run(8), serial, "paths, bytes, map and report must not depend on the width");
        assert_eq!(run(3), serial);
    }

    #[test]
    fn drain_mode_commits_blocks_and_chunk_count_atomically() {
        let store = MemoryStore::new();
        let metadata = MetadataStore::new();
        let rows: Vec<LogRecord> = (0..120).map(|i| rec(4, i)).collect();
        let id = drain_id(0, 1);
        let outcome = build_and_upload_drain(
            &drained(&rows),
            &Arc::new(TableSchema::request_log()),
            &config(),
            &store,
            &metadata,
            Some(id),
            None,
        );
        assert!(outcome.is_complete());
        assert_eq!(outcome.report.blocks_built, 3);
        assert_eq!(metadata.all_blocks(TenantId(4)).len(), 3);
        // The record carries the cap replay must re-partition with.
        let commit = logstore_wal::DrainCommit { chunks: 3, chunk_rows: 50 };
        assert_eq!(metadata.drain_commit(id), Some(commit));
        // The same drain cannot commit twice.
        let again = build_and_upload_drain(
            &drained(&(0..10).map(|i| rec(4, i)).collect::<Vec<_>>()),
            &Arc::new(TableSchema::request_log()),
            &config(),
            &store,
            &metadata,
            Some(id),
            None,
        );
        assert!(again.error.is_some());
        assert_eq!(again.unarchived.len(), 10, "a failed commit hands every row back");
        assert_eq!(metadata.all_blocks(TenantId(4)).len(), 3, "nothing extra registered");
    }

    #[test]
    fn drain_mode_upload_failure_commits_nothing() {
        let store = FaultyStore::new(MemoryStore::new(), FaultScope::Writes, 0.0, 1);
        let metadata = MetadataStore::new();
        let rows: Vec<LogRecord> = (0..120).map(|i| rec(6, i)).collect();
        let id = drain_id(1, 1);
        // Fail the very first chunk: zero chunks durable → no commit row,
        // so replay treats the drain as never-uploaded and restores all.
        store.fail_next(1);
        let outcome = build_and_upload_drain(
            &drained(&rows),
            &Arc::new(TableSchema::request_log()),
            &config(),
            &store,
            &metadata,
            Some(id),
            None,
        );
        assert!(outcome.error.is_some());
        assert_eq!(outcome.unarchived.len(), 120);
        assert_eq!(committed_chunks(&metadata, id), None);
        assert!(metadata.all_blocks(TenantId(6)).is_empty());
    }

    #[test]
    fn drain_mode_partial_failure_commits_the_prefix() {
        let store = FaultyStore::new(MemoryStore::new(), FaultScope::Writes, 0.0, 1);
        let metadata = MetadataStore::new();
        let rows: Vec<LogRecord> = (0..120).map(|i| rec(8, i)).collect();
        let id = drain_id(2, 5);
        // 3 chunks; the 2nd PUT fails → exactly chunk 0 is durable.
        store.fail_ops(std::slice::from_ref(&(1..2)));
        let outcome = build_and_upload_drain(
            &drained(&rows),
            &Arc::new(TableSchema::request_log()),
            &config(),
            &store,
            &metadata,
            Some(id),
            None,
        );
        assert!(outcome.error.is_some());
        assert_eq!(outcome.report.blocks_built, 1);
        assert_eq!(outcome.unarchived.len(), 70);
        assert_eq!(committed_chunks(&metadata, id), Some(1));
        assert_eq!(metadata.all_blocks(TenantId(8)).len(), 1);
    }

    mod logblock_bytes {
        use super::*;
        use logstore_types::partition_into_chunks;
        use logstore_wal::RowStore;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// `request_log` rows of three tenants, ts with ties, and a NULL
        /// possible in every nullable column.
        fn rows() -> impl Strategy<Value = Vec<LogRecord>> {
            let text = |words: &'static [&'static str]| {
                prop_oneof![
                    Just(Value::Null),
                    (0..words.len()).prop_map(move |i| Value::from(words[i]))
                ]
            };
            let row = (
                1u64..4,
                0i64..30,
                text(&["10.0.0.1", "10.0.0.2", "fe80::1"]),
                text(&["/a", "/b/c", "/ü"]),
                prop_oneof![Just(Value::Null), (-5i64..500).prop_map(Value::I64)],
                prop_oneof![Just(Value::Null), any::<bool>().prop_map(Value::Bool)],
                text(&["ok", "slow path", "timeout after retry", "naïve café"]),
            );
            let row = row.prop_map(|(t, ts, ip, api, latency, fail, log)| {
                LogRecord::new(TenantId(t), Timestamp(ts), vec![ip, api, latency, fail, log])
            });
            vec(row, 1..120)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            /// A drain's LogBlocks built from its runs, wherever the runs
            /// are cut, are the LogBlocks its records build chunk by chunk.
            #[test]
            fn prop_blocks_from_runs_are_the_blocks_from_records(
                rows in rows(),
                seals in vec(0usize..120, 0..4),
                cap in 1usize..70,
            ) {
                let schema = TableSchema::request_log();
                let config = BuildConfig { max_rows_per_logblock: cap, ..config() };
                let mut store = RowStore::new(&schema);
                for (i, r) in rows.iter().enumerate() {
                    if seals.contains(&i) {
                        // A snapshot that can have a row in the tail seals it.
                        (1..4).for_each(|t| drop(store.snapshot(TenantId(t), TimeRange::all())));
                    }
                    store.insert_batch(std::slice::from_ref(r));
                }
                let (oss, metadata) = (MemoryStore::new(), MetadataStore::new());
                let drained = store.drain_all();
                let outcome = build_and_upload_drain(
                    &drained, &Arc::new(schema.clone()), &config, &oss, &metadata, None, None,
                );
                prop_assert!(outcome.is_complete());
                let mut paths = oss.list("").unwrap();
                paths.sort_by_key(|p| p.rsplit('/').next().unwrap().to_string());
                let built: Vec<Vec<u8>> = paths.iter().map(|p| oss.get(p).unwrap()).collect();
                let want: Vec<Vec<u8>> = partition_into_chunks(rows, cap)
                    .iter()
                    .map(|chunk| {
                        let mut builder = LogBlockBuilder::with_options(
                            schema.clone(), config.compression, config.block_rows,
                        );
                        chunk.rows.iter().for_each(|r| builder.add_row(&r.to_row()).unwrap());
                        builder.finish().unwrap()
                    })
                    .collect();
                prop_assert_eq!(built, want);
            }
        }
    }

    #[test]
    fn failed_pass_can_be_retried_to_completion() {
        let store = FaultyStore::new(MemoryStore::new(), FaultScope::Writes, 0.0, 1);
        let metadata = MetadataStore::new();
        let rows: Vec<LogRecord> = (0..120).map(|i| rec(5, i)).collect();
        store.fail_next(1);
        let schema = TableSchema::request_log();
        let first = build_and_upload(rows, &schema, &config(), &store, &metadata);
        assert!(first.error.is_some());
        assert_eq!(first.report.blocks_built, 0);
        assert_eq!(first.unarchived.len(), 120);
        // Second pass with the fault cleared archives everything.
        let second =
            build_and_upload(first.unarchived.records(), &schema, &config(), &store, &metadata);
        assert!(second.is_complete());
        assert_eq!(second.report.rows_archived, 120);
        let total: u64 = metadata.all_blocks(TenantId(5)).iter().map(|b| b.rows).sum();
        assert_eq!(total, 120);
    }
}
