//! Background LogBlock compaction and OSS garbage collection.
//!
//! Per-tenant threshold flushes produce many small LogBlocks for cold
//! tenants; as history ages, the block map fragments and every query pays
//! one-plus OSS GETs per tiny block. The compactor merges runs of small
//! adjacent-in-time blocks of one tenant into a single large block — built
//! like a drain's chunk, from decoded column blocks gathered column by
//! column, by the data builder's one build function — and retires the sources through a
//! crash-safe **plan → build → upload → swap → tombstone → delete**
//! protocol:
//!
//! 1. **plan**: [`MetadataStore::begin_compaction`] verifies the sources
//!    are live and records the merged path as a pending intent
//!    ([`CrashPoint::CompactPlanned`]);
//! 2. **build + upload**: the merged block goes to OSS under the new path
//!    while the sources remain the live ones
//!    ([`CrashPoint::CompactUploaded`]) — and, when any source was read
//!    from the cache, into the cache: the map never names a block whose
//!    predecessors were in memory and which is not;
//! 3. **swap + tombstone**: one [`MetadataStore::commit_compaction`]
//!    transaction replaces the sources with the merged entry and moves
//!    their paths to the persistent tombstone list
//!    ([`CrashPoint::CompactCommitted`]);
//! 4. **delete**: a separate GC pass ([`run_gc`]) deletes tombstoned
//!    objects ([`CrashPoint::BeforeGcDelete`]), keeping every path whose
//!    delete fails for the next pass.
//!
//! A pass PUTs its merged blocks as a drain does, through the one LogBlock
//! PUT wave (`databuilder::put_blocks`). A failed build or a lost plan race
//! stays in its run; a terminal PUT failure ends the pass, as it ends a
//! drain: the runs not yet fed are never planned and wait for the next.
//!
//! The delete is *last* and *retryable by construction*: at every crash
//! point each object is either live in the map, a pending intent, or a
//! tombstone — never forgotten. This is the same ordering argument that
//! fixes the historical `run_expiration` bug (delete-then-forget leaked
//! objects on a failed delete); expiration now shares the tombstone list
//! and the GC pass.
//!
//! No lock is held across any OSS call (the store stack's
//! `assert_no_locks_held` guards enforce this): every metadata transaction
//! completes before the next I/O starts.

use crate::databuilder::{build_logblock, put_blocks, Block, BuildConfig};
use crate::hooks::{CrashHooks, CrashPoint};
use crate::metadata::{LogBlockEntry, MetadataStore};
use logstore_cache::Prefetcher;
use logstore_logblock::column::whole_batch;
use logstore_logblock::{ColumnVec, LogBlockBuilder, LogBlockReader};
use logstore_obs::{Counter, Histogram, Registry};
use logstore_oss::{ordered_wave, ObjectStore};
use logstore_types::{Error, Result, TableSchema, TenantId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What counts as "small" and how much to merge at once.
#[derive(Debug, Clone)]
pub struct CompactionConfig {
    /// Blocks with fewer rows than this are merge candidates.
    pub small_block_rows: u64,
    /// Minimum run length worth rewriting.
    pub min_run: usize,
    /// Row cap for one merged block (compaction targets *large* blocks, so
    /// this is typically several times the flush-time LogBlock cap).
    pub max_merged_rows: u64,
}

/// Outcome of one compaction pass.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CompactionReport {
    /// Merge runs committed.
    pub runs_committed: u64,
    /// Source blocks superseded (now tombstoned).
    pub blocks_merged: u64,
    /// Rows rewritten into merged blocks.
    pub rows_rewritten: u64,
    /// Merged bytes uploaded.
    pub bytes_uploaded: u64,
    /// Runs abandoned because a concurrent expire/compact won the race.
    pub runs_lost_races: u64,
    /// Where the pass's time went, every run attempted.
    pub stages: CompactionStages,
}

/// Where one compaction pass's time went, stage by stage, summed over the
/// runs it attempted. Each stage is wall time on the calling thread, so the
/// stages add up to the pass's wall time.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStages {
    /// Choosing the runs, and recording each merged path as an intent.
    pub plan: Duration,
    /// Taking the sources from the cache and the GET wave of the rest.
    pub fetch: Duration,
    /// Opening the sources and decoding their column blocks.
    pub decode: Duration,
    /// [`LogBlockBuilder::add`] (batch checks, column gathers, SMAs, index
    /// terms).
    ///
    /// [`LogBlockBuilder::add`]: logstore_logblock::LogBlockBuilder::add
    pub add: Duration,
    /// Column block encoding and compression.
    pub encode: Duration,
    /// Index dictionaries, metadata and pack.
    pub finish: Duration,
    /// The merged blocks' PUT wave, less its feed's planning and building,
    /// and their admission to the cache.
    pub upload: Duration,
    /// Swapping the sources for the merged block in the map.
    pub swap: Duration,
}

/// Outcome of one GC pass.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct GcReport {
    /// Tombstoned objects deleted from OSS.
    pub deleted: u64,
    /// Tombstones kept for the next pass because their delete failed.
    pub retained: u64,
    /// Orphaned pending paths (crash between upload and commit) swept
    /// into the tombstone list this pass.
    pub orphans_swept: u64,
    /// The delete wave's wall time, and taking the deleted paths out of
    /// the tombstone list and the cache.
    pub delete: Duration,
}

/// One planned merge: a tenant and the run of source entries to rewrite.
#[derive(Debug, Clone)]
pub struct CompactionRun {
    /// The tenant owning every source block.
    pub tenant: TenantId,
    /// The source entries, in per-tenant path order (adjacent-in-time for
    /// blocks of one shard's drain sequence).
    pub sources: Vec<LogBlockEntry>,
}

impl CompactionRun {
    fn source_paths(&self) -> Vec<String> {
        self.sources.iter().map(|e| e.path.clone()).collect()
    }

    fn rows(&self) -> u64 {
        self.sources.iter().map(|e| e.rows).sum()
    }
}

/// Selects merge runs: per tenant, sort blocks by path (allocation order —
/// adjacent paths are adjacent flushes) and take maximal runs of
/// consecutive small blocks, greedily split so no merged block exceeds
/// `max_merged_rows`. Runs shorter than `min_run` are left alone.
pub fn plan_compactions(metadata: &MetadataStore, config: &CompactionConfig) -> Vec<CompactionRun> {
    let mut runs = Vec::new();
    for tenant in metadata.tenants() {
        let mut blocks = metadata.all_blocks(tenant);
        blocks.sort_by(|a, b| a.path.cmp(&b.path));
        let mut current: Vec<LogBlockEntry> = Vec::new();
        let mut current_rows = 0u64;
        let mut flush = |run: &mut Vec<LogBlockEntry>, rows: &mut u64| {
            if run.len() >= config.min_run {
                runs.push(CompactionRun { tenant, sources: std::mem::take(run) });
            } else {
                run.clear();
            }
            *rows = 0;
        };
        for block in blocks {
            let small = block.rows < config.small_block_rows;
            if !small {
                flush(&mut current, &mut current_rows);
                continue;
            }
            if current_rows + block.rows > config.max_merged_rows {
                flush(&mut current, &mut current_rows);
            }
            current_rows += block.rows;
            current.push(block);
        }
        flush(&mut current, &mut current_rows);
    }
    runs
}

/// Executes every planned run through the full protocol. The merged
/// blocks' PUT wave (up to [`Prefetcher::width`] in flight, inline without
/// a cache) is fed on the calling thread, which plans and builds one run
/// at a time — the sources read from `cache` where it holds them whole —
/// while the PUTs before it are in flight. Once the wave has joined, the
/// caller settles each run in run order (upload, admission, swap), so
/// every crash point fires on it, in each run's own order. Only a run
/// with a resident source keeps its merged bytes past their PUT, to admit
/// them; every other run keeps its catalog entry alone, so a pass over
/// cold history holds at most the wave's width of merged blocks. The first
/// error in run order is returned, alongside nothing — the report only
/// counts committed work.
pub fn run_compaction<S: ObjectStore>(
    store: &S,
    metadata: &MetadataStore,
    schema: &TableSchema,
    build: &BuildConfig,
    config: &CompactionConfig,
    hooks: &dyn CrashHooks,
    cache: Option<&Prefetcher<S>>,
) -> Result<CompactionReport> {
    let mut report = CompactionReport::default();
    let plan = Instant::now();
    // Protect the merged paths from the stale-pending sweep until the
    // last run has settled.
    let _build_guard = metadata.begin_build();
    let runs = plan_compactions(metadata, config);
    let stages = &mut report.stages;
    stages.plan = plan.elapsed();
    // Per fed run, once built: its merged path.
    let mut built: Vec<Option<String>> = Vec::with_capacity(runs.len());
    let mut feeding = Duration::ZERO;
    let feed = runs.iter().map(|run| {
        let fed = Instant::now();
        let merged_path = metadata.begin_compaction(run.tenant, &run.source_paths());
        stages.plan += fed.elapsed();
        let merged = merged_path.and_then(|path| {
            hooks.reached(CrashPoint::CompactPlanned);
            // Nothing provably on OSS under the merged path; tombstone it
            // so GC cleans up whatever half-state a real store might hold.
            build_merged_block(store, schema, build, run, &path, cache, stages)
                .inspect_err(|_| metadata.abort_compaction(&path))
        });
        built.push(merged.as_ref().ok().map(|((entry, _), _)| entry.path.clone()));
        feeding += fed.elapsed();
        // Only a block merged from a resident source is admitted: every
        // other one drops its bytes once its PUT returns.
        merged
    });
    let mut wave = Duration::ZERO;
    let uploads = put_blocks(feed, store, cache, &mut wave);
    stages.upload = wave.saturating_sub(feeding);

    let mut first_error: Option<Error> = None;
    for ((run, built), upload) in runs.iter().zip(built).zip(uploads) {
        let settled = upload.and_then(|(entry, bytes)| {
            let settle = Instant::now();
            hooks.reached(CrashPoint::CompactUploaded);
            // PUT → admit → register: a block merged from anything the
            // cache held stays readable from memory across the swap. Should
            // the swap lose its race, GC's delete of the object evicts it.
            if let (Some(cache), Some(bytes)) = (cache, bytes) {
                cache.admit(&entry.path, &bytes);
            }
            let swap = Instant::now();
            stages.upload += swap - settle;
            let uploaded = entry.bytes;
            let committed = metadata.commit_compaction(run.tenant, entry, &run.source_paths());
            stages.swap += swap.elapsed();
            committed?;
            hooks.reached(CrashPoint::CompactCommitted);
            Ok(uploaded)
        });
        // A failed PUT or a lost swap race (a concurrent expire/compact
        // unmapped a source): the merged path is tombstoned for GC. The
        // feed settled a failed plan or build.
        if let (Err(_), Some(path)) = (&settled, &built) {
            metadata.abort_compaction(path);
        }
        match settled {
            Ok(bytes_uploaded) => {
                report.runs_committed += 1;
                report.blocks_merged += run.sources.len() as u64;
                report.rows_rewritten += run.rows();
                report.bytes_uploaded += bytes_uploaded;
            }
            Err(Error::Stale(_)) => report.runs_lost_races += 1,
            Err(e) => {
                first_error.get_or_insert(e);
            }
        }
    }
    first_error.map_or(Ok(report), Err)
}

/// Reads every source block of `run` and rebuilds one merged block under
/// `path` (its range the one its `ts` SMA records, its rows the sources'),
/// beside whether any source came from the cache. A source the memory tier
/// holds whole is taken from there — without a hit counted or a block
/// refreshed ([`Prefetcher::resident`]: the sources are about to die, and
/// the hit counters keep meaning queries). The rest are fetched whole as
/// one [`ordered_wave`] (one GET round per [`Prefetcher::width`] sources)
/// and put nothing in the cache. All are consumed in run order — the order
/// a query's scatter visits the originals — so a scan of the merged block
/// is bit-identical to scanning the sources in sequence, at any width and
/// any residency.
///
/// The merge is built like a drain's chunk ([`build_logblock`]): each
/// source is decoded one column block at a time — block `i` of every
/// column into one reused batch per column — and the batches are added
/// whole, so a merge holds one block of one source decoded. The builder's
/// batch check keeps a source with a NULL in a NOT NULL column out of the
/// merge; SMA / inverted / BKD indexes are rebuilt from scratch. Adds the
/// fetch and build stages to `stages`.
fn build_merged_block<S: ObjectStore>(
    store: &S,
    schema: &TableSchema,
    build: &BuildConfig,
    run: &CompactionRun,
    path: &str,
    cache: Option<&Prefetcher<S>>,
    stages: &mut CompactionStages,
) -> Result<(Block, bool)> {
    let fetch = Instant::now();
    let sources = &run.sources;
    let resident: Vec<Option<Vec<u8>>> = sources
        .iter()
        .map(|source| cache.and_then(|c| c.resident(&source.path, source.bytes)))
        .collect();
    let inherited = resident.iter().any(Option::is_some);
    let cold: Vec<&LogBlockEntry> =
        sources.iter().zip(&resident).filter(|(_, hit)| hit.is_none()).map(|(s, _)| s).collect();
    let width = cache.map_or(1, Prefetcher::width);
    let mut fetched = ordered_wave(width, cold, |_, source| store.get(&source.path)).into_iter();
    stages.fetch += fetch.elapsed();
    let start = Instant::now();
    let mut decode = Duration::ZERO;
    let mut batches = vec![ColumnVec::default(); schema.width()];
    let fill = |builder: &mut LogBlockBuilder| {
        for hit in resident {
            // One fetched object per miss, in the same order.
            let bytes = match hit {
                Some(bytes) => bytes,
                None => fetched
                    .next()
                    .ok_or_else(|| Error::Internal("source wave lost a result".into()))??,
            };
            let decoding = Instant::now();
            let reader = LogBlockReader::open(bytes)?;
            if reader.schema() != schema {
                return Err(Error::invalid("a compaction source of another table"));
            }
            decode += decoding.elapsed();
            // Every column has column 0's block layout (`LogBlockMeta`'s
            // parse), so block `i` of each column holds the same rows.
            for block in 0..reader.meta().columns.first().map_or(0, |c| c.blocks.len()) {
                let decoding = Instant::now();
                for (col, batch) in batches.iter_mut().enumerate() {
                    reader.read_block_vec(col, block, batch)?;
                }
                decode += decoding.elapsed();
                let rows = batches.first().map_or(0, ColumnVec::len);
                builder.add(&[&batches], &whole_batch(rows))?;
            }
        }
        Ok(())
    };
    let (block, times) = build_logblock(schema.clone(), build, run.rows(), || path.into(), fill)?;
    stages.decode += decode;
    stages.encode += times.encode;
    stages.finish += times.finish;
    stages.add += start.elapsed().saturating_sub(decode + times.encode + times.finish);
    Ok((block, inherited))
}

/// The GC pass: sweeps orphaned pending paths (no build in flight ⇒ their
/// uploads died before committing) into the tombstone list, then deletes
/// every tombstoned object, as one [`ordered_wave`] of up to
/// [`Prefetcher::width`] DELETEs ([`CrashPoint::BeforeGcDelete`] fires on
/// the calling thread as each path is handed to the wave; without a cache
/// the deletes run inline, one at a time). A
/// failed delete *retains* the tombstone for the next pass — the object is
/// never forgotten — and never aborts the rest of the pass. After the
/// wave, in path order, each deleted path leaves the tombstone list and
/// the cache — handle and blocks — so dead objects stop pinning its
/// budgets.
pub fn run_gc<S: ObjectStore>(
    store: &S,
    metadata: &MetadataStore,
    cache: Option<&Prefetcher<S>>,
    hooks: &dyn CrashHooks,
) -> GcReport {
    let mut report =
        GcReport { orphans_swept: metadata.sweep_stale_pending() as u64, ..Default::default() };
    let tombstones = metadata.tombstones();
    let feed = tombstones.iter().inspect(|_| hooks.reached(CrashPoint::BeforeGcDelete));
    let width = cache.map_or(1, Prefetcher::width);
    let wave = Instant::now();
    let deletes = ordered_wave(width, feed, |_, path| store.delete(path));
    for (path, deleted) in tombstones.iter().zip(deletes) {
        match deleted {
            Ok(()) => {
                metadata.remove_tombstone(path);
                if let Some(cache) = cache {
                    cache.evict(path);
                }
                report.deleted += 1;
            }
            Err(_) => report.retained += 1,
        }
    }
    report.delete = wave.elapsed();
    report
}

/// The engine's compaction and GC stage timers: one histogram per stage of
/// [`CompactionStages`] (nanoseconds per compaction pass), the GC pass's
/// delete wave, and a count of the rows compaction rewrote.
pub(crate) struct CompactionTimers {
    stages: [Arc<Histogram>; 8],
    gc_delete: Arc<Histogram>,
    rows: Arc<Counter>,
}

impl CompactionTimers {
    pub(crate) fn register(registry: &mut Registry) -> Self {
        CompactionTimers {
            stages: [
                registry.histogram("core.compactor.plan_ns"),
                registry.histogram("core.compactor.fetch_ns"),
                registry.histogram("core.compactor.decode_ns"),
                registry.histogram("core.compactor.add_ns"),
                registry.histogram("core.compactor.encode_ns"),
                registry.histogram("core.compactor.finish_ns"),
                registry.histogram("core.compactor.upload_ns"),
                registry.histogram("core.compactor.swap_ns"),
            ],
            gc_delete: registry.histogram("core.compactor.gc_delete_ns"),
            rows: registry.counter("core.compactor.rows"),
        }
    }

    /// Records one compaction pass's stages and the rows it rewrote.
    pub(crate) fn record(&self, report: &CompactionReport) {
        let s = &report.stages;
        let stages = [s.plan, s.fetch, s.decode, s.add, s.encode, s.finish, s.upload, s.swap];
        for (histogram, d) in self.stages.iter().zip(stages) {
            histogram.record_duration(d);
        }
        self.rows.add(report.rows_rewritten);
    }

    /// Records one GC pass's delete wave.
    pub(crate) fn record_gc(&self, report: &GcReport) {
        self.gc_delete.record_duration(report.delete);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoopHooks;
    use logstore_cache::TieredCache;
    use logstore_codec::Compression;
    use logstore_logblock::LogBlockBuilder;
    use logstore_oss::{FaultScope, FaultyStore, MemoryStore};
    use logstore_types::{Timestamp, Value};
    use std::sync::Arc;

    /// An engine-style prefetcher of `width` over `store`, its cache empty.
    fn prefetcher<S: ObjectStore>(store: &Arc<S>, width: usize) -> Prefetcher<S> {
        let cache = Arc::new(TieredCache::memory_only(1 << 20).with_object_tier(1 << 20));
        Prefetcher::new(Arc::clone(store), cache, 1024, width)
    }

    fn entry(path: &str, min: i64, max: i64, rows: u64) -> LogBlockEntry {
        LogBlockEntry {
            path: path.to_string(),
            min_ts: Timestamp(min),
            max_ts: Timestamp(max),
            rows,
            bytes: rows * 10,
        }
    }

    fn cfg() -> CompactionConfig {
        CompactionConfig { small_block_rows: 100, min_run: 2, max_merged_rows: 250 }
    }

    #[test]
    fn planner_selects_runs_of_consecutive_small_blocks() {
        let m = MetadataStore::new();
        let t = TenantId(1);
        m.register_block(t, entry("a", 0, 9, 10)).unwrap();
        m.register_block(t, entry("b", 10, 19, 10)).unwrap();
        m.register_block(t, entry("c", 20, 29, 500)).unwrap(); // large, breaks the run
        m.register_block(t, entry("d", 30, 39, 10)).unwrap();
        m.register_block(t, entry("e", 40, 49, 10)).unwrap();
        m.register_block(t, entry("f", 50, 59, 10)).unwrap();
        let runs = plan_compactions(&m, &cfg());
        assert_eq!(runs.len(), 2);
        let paths: Vec<Vec<&str>> =
            runs.iter().map(|r| r.sources.iter().map(|e| e.path.as_str()).collect()).collect();
        assert_eq!(paths, vec![vec!["a", "b"], vec!["d", "e", "f"]]);
    }

    #[test]
    fn planner_caps_merged_rows_and_skips_short_runs() {
        let m = MetadataStore::new();
        let t = TenantId(1);
        for (i, p) in ["a", "b", "c", "d", "e"].iter().enumerate() {
            m.register_block(t, entry(p, i as i64 * 10, i as i64 * 10 + 9, 90)).unwrap();
        }
        // Cap 250 → greedy runs of two 90-row blocks ([a,b], [c,d]); the
        // leftover singleton e is below min_run and stays.
        let runs = plan_compactions(&m, &cfg());
        assert_eq!(runs.len(), 2);
        assert!(runs.iter().all(|r| r.sources.len() == 2));
        // A lone small block between large ones is never worth a rewrite.
        let m2 = MetadataStore::new();
        m2.register_block(t, entry("x", 0, 9, 500)).unwrap();
        m2.register_block(t, entry("y", 10, 19, 10)).unwrap();
        m2.register_block(t, entry("z", 20, 29, 500)).unwrap();
        assert!(plan_compactions(&m2, &cfg()).is_empty());
    }

    #[test]
    fn gc_retries_failed_deletes_without_aborting_the_pass() {
        /// Counts `BeforeGcDelete` and checks it fires on the GC's caller.
        struct OnCaller(std::thread::ThreadId, std::sync::atomic::AtomicU64);
        impl CrashHooks for OnCaller {
            fn reached(&self, point: CrashPoint) {
                assert_eq!(point, CrashPoint::BeforeGcDelete);
                assert_eq!(std::thread::current().id(), self.0, "fired from a wave thread");
                self.1.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        }
        // One delete at a time (no cache), and all three as one wave.
        for width in [1, 8] {
            let store = Arc::new(FaultyStore::new(MemoryStore::new(), FaultScope::Writes, 0.0, 7));
            let wave = prefetcher(&store, width);
            let cache = (width > 1).then_some(&wave);
            let m = MetadataStore::new();
            for p in ["tenants/1/a", "tenants/1/b", "tenants/2/c"] {
                store.put(p, b"x").unwrap();
                m.register_block(TenantId(1), entry(p, 0, 1, 1)).unwrap();
            }
            m.set_retention(TenantId(1), Some(1));
            m.expire(TenantId(1), Timestamp(1_000));
            assert_eq!(m.tombstones().len(), 3);
            // One delete of the pass fails; the other two proceed.
            store.fail_next(1);
            let hooks = OnCaller(std::thread::current().id(), Default::default());
            let first = run_gc(store.as_ref(), &m, cache, &hooks);
            assert_eq!((first.deleted, first.retained), (2, 1), "width {width}");
            assert_eq!(hooks.1.load(std::sync::atomic::Ordering::SeqCst), 3);
            let kept = m.tombstones();
            assert_eq!(kept.len(), 1);
            assert!(store.inner().head(&kept[0]).is_ok(), "the retained path is the undeleted one");
            // Next pass finishes the job: nothing leaked.
            let second = run_gc(store.as_ref(), &m, cache, &NoopHooks);
            assert_eq!(second.deleted, 1);
            assert!(m.tombstones().is_empty());
            assert_eq!(store.inner().object_count(), 0);
        }
    }

    #[test]
    fn gc_sweeps_orphaned_uploads() {
        let store = MemoryStore::new();
        let m = MetadataStore::new();
        // A crash between put and commit: the object exists, the path is
        // pending, no build is in flight any more.
        let orphan = m.allocate_block_path(TenantId(1));
        store.put(&orphan, b"garbage").unwrap();
        let report = run_gc(&store, &m, None, &NoopHooks);
        assert_eq!(report.orphans_swept, 1);
        assert_eq!(report.deleted, 1);
        assert_eq!(store.object_count(), 0);
        assert!(m.pending_paths().is_empty());
        assert!(m.tombstones().is_empty());
    }

    /// `bytes` with row 0 of its one `tenant_id` column block made NULL:
    /// the column block re-encoded, its length in the meta, both members
    /// re-packed under a fresh manifest checksum.
    fn null_in_tenant_id(bytes: Vec<u8>) -> Vec<u8> {
        use logstore_logblock::column::ColumnEncoder;
        use logstore_logblock::meta::{col_member, META_MEMBER};
        use logstore_logblock::{LogBlockHandle, PackManifest, PackWriter};
        let mut meta = LogBlockHandle::open(&bytes).unwrap().meta().clone();
        assert_eq!(meta.columns[0].blocks.len(), 1, "one column block");
        let mut tenant = ColumnVec::default();
        LogBlockReader::open(bytes.clone()).unwrap().read_block_vec(0, 0, &mut tenant).unwrap();
        let rows = tenant.len();
        let (mut nulls, data) = tenant.into_parts();
        nulls[0] |= 1;
        let forged = ColumnVec::from_parts(rows, nulls, data).unwrap();
        let block = ColumnEncoder::default().encode(&forged, build().compression).to_vec();
        meta.columns[0].blocks[0].len = block.len() as u64;
        let manifest = PackManifest::read(&bytes).unwrap();
        let mut pack = PackWriter::new();
        for entry in manifest.members() {
            let member = match entry.name.as_str() {
                META_MEMBER => meta.serialize(),
                name if name == col_member(0) => block.clone(),
                name => manifest.read_member_shared(&bytes, name).unwrap().to_vec(),
            };
            pack.add(entry.name.clone(), member).unwrap();
        }
        pack.finish()
    }

    fn build() -> BuildConfig {
        BuildConfig {
            compression: Compression::LzHigh,
            block_rows: 64,
            max_rows_per_logblock: 4096,
        }
    }

    /// Puts and registers tenant `t`'s source block number `source`: ten
    /// rows, `ts` from `source * 100`. A `forged` one has a NULL in its
    /// first row's `tenant_id` (`null_in_tenant_id`).
    fn put_source<S: ObjectStore>(
        store: &S,
        m: &MetadataStore,
        t: TenantId,
        source: i64,
        forged: bool,
    ) {
        let schema = TableSchema::request_log();
        let mut b = LogBlockBuilder::with_options(schema, build().compression, 64);
        let ts = |i: i64| source * 100 + i;
        for i in 0..10 {
            let log = Value::from(format!("line {}", ts(i)));
            let row = [Value::U64(t.raw()), Value::I64(ts(i)), Value::from("ip")];
            let rest = [Value::from("/p"), Value::I64(i), Value::Bool(false), log];
            b.add_row(&[row.as_slice(), &rest].concat()).unwrap();
        }
        let bytes = b.finish().unwrap();
        let bytes = if forged { null_in_tenant_id(bytes) } else { bytes };
        let reader = LogBlockReader::open(bytes.clone()).unwrap();
        let mut tenant = ColumnVec::default();
        reader.read_block_vec(0, 0, &mut tenant).unwrap();
        assert_eq!(tenant.has_nulls(), forged, "the forged source decodes, its NULL in it");
        let path = m.allocate_block_path(t);
        store.put(&path, &bytes).unwrap();
        let bytes = bytes.len() as u64;
        let entry = LogBlockEntry {
            path,
            min_ts: Timestamp(ts(0)),
            max_ts: Timestamp(ts(9)),
            rows: 10,
            bytes,
        };
        m.register_block(t, entry).unwrap();
    }

    /// The `ts` of every row in tenant `t`'s mapped blocks, sorted.
    fn mapped_ts<S: ObjectStore>(store: &S, m: &MetadataStore, t: TenantId) -> Vec<i64> {
        let mut ts = Vec::new();
        for entry in m.all_blocks(t) {
            let reader = LogBlockReader::open(store.get(&entry.path).unwrap()).unwrap();
            let ids: Vec<u32> = (0..reader.row_count()).collect();
            for row in reader.read_rows(&ids, &[1]).unwrap() {
                let Value::I64(v) = row[0] else { panic!("ts is an I64: {row:?}") };
                ts.push(v);
            }
        }
        ts.sort_unstable();
        ts
    }

    fn merge_all() -> CompactionConfig {
        CompactionConfig { small_block_rows: 100, min_run: 2, max_merged_rows: 100 }
    }

    #[test]
    fn a_source_with_a_null_in_a_not_null_column_merges_nothing() {
        let schema = TableSchema::request_log();
        let store = MemoryStore::new();
        let m = MetadataStore::new();
        let t = TenantId(3);
        put_source(&store, &m, t, 0, false);
        put_source(&store, &m, t, 1, true);
        let before = m.all_blocks(t);
        let compacted =
            run_compaction(&store, &m, &schema, &build(), &merge_all(), &NoopHooks, None);
        assert!(matches!(compacted, Err(Error::InvalidArgument(_))), "{compacted:?}");
        assert_eq!(m.all_blocks(t), before, "the sources stay the live blocks");
        assert_eq!(store.object_count(), 2, "no merged block was uploaded");
        assert!(m.pending_paths().is_empty());
    }

    /// One pass over three tenants' runs, A, B and C, one merge each. A
    /// failed build stays in its run; a failed PUT ends the pass, and what
    /// it left is settled (committed, or sources live) and collected.
    #[test]
    fn a_failed_build_stays_in_its_run_and_a_failed_put_ends_the_pass() {
        let schema = TableSchema::request_log();
        let [a, b, c] = [TenantId(1), TenantId(2), TenantId(3)];
        // Two sources per tenant; `forged` gives the named tenant's second
        // source a NULL in a NOT NULL column.
        let setup = |forged: Option<TenantId>| {
            let store = Arc::new(FaultyStore::new(MemoryStore::new(), FaultScope::Writes, 0.0, 7));
            let m = MetadataStore::new();
            for t in [a, b, c] {
                put_source(store.as_ref(), &m, t, 0, false);
                put_source(store.as_ref(), &m, t, 1, forged == Some(t));
            }
            (store, m)
        };
        let rows: Vec<i64> = (0..10).chain(100..110).collect();
        for width in [1, 8] {
            let compact = |store: &Arc<FaultyStore<MemoryStore>>, m: &MetadataStore| {
                let wave = prefetcher(store, width);
                let cache = (width > 1).then_some(&wave);
                run_compaction(
                    store.as_ref(),
                    m,
                    &schema,
                    &build(),
                    &merge_all(),
                    &NoopHooks,
                    cache,
                )
            };

            // Build failure: B's batch check refuses a source.
            let (store, m) = setup(Some(b));
            let b_sources = m.all_blocks(b);
            let compacted = compact(&store, &m);
            assert!(matches!(compacted, Err(Error::InvalidArgument(_))), "{width}: {compacted:?}");
            assert_eq!(m.all_blocks(b), b_sources, "width {width}: B's sources stay live");
            for t in [a, c] {
                assert_eq!(m.all_blocks(t).len(), 1, "width {width}: {t:?} committed");
                assert_eq!(mapped_ts(store.as_ref(), &m, t), rows);
            }
            assert!(m.pending_paths().is_empty());

            // PUT failure: the first merged PUT of the pass fails.
            let (store, m) = setup(None);
            let sources: Vec<_> = [a, b, c].map(|t| m.all_blocks(t)).into();
            store.fail_next(1);
            assert!(compact(&store, &m).is_err(), "width {width}: the PUT error is returned");
            if width == 1 {
                // A's PUT was the first: B and C were never planned.
                assert_eq!([a, b, c].map(|t| m.all_blocks(t)).to_vec(), sources);
                assert!(m.pending_paths().is_empty(), "no path planned after A's");
                let tombstones = m.tombstones();
                assert_eq!(tombstones.len(), 1, "A's merged path: {tombstones:?}");
                assert!(sources.iter().flatten().all(|e| e.path != tombstones[0]));
                let report = compact(&store, &m).unwrap();
                assert_eq!(report.runs_committed, 3, "the next pass merges all three");
            } else {
                // Which PUT failed is up to the wave's scheduling.
                for (t, before) in [a, b, c].into_iter().zip(&sources) {
                    let now = m.all_blocks(t);
                    assert!(now == *before || now.len() == 1, "width {width}, {t:?}: {now:?}");
                }
            }
            run_gc(store.as_ref(), &m, None, &NoopHooks);
            assert!(m.pending_paths().is_empty(), "width {width}");
            for t in [a, b, c] {
                assert_eq!(mapped_ts(store.as_ref(), &m, t), rows, "width {width}, {t:?}");
            }
        }
    }

    #[test]
    fn merge_preserves_rows_and_order_end_to_end() {
        let schema = TableSchema::request_log();
        let build = BuildConfig {
            compression: Compression::LzHigh,
            block_rows: 8,
            max_rows_per_logblock: 4096,
        };
        let store = Arc::new(MemoryStore::new());
        let m = MetadataStore::new();
        let t = TenantId(9);
        // Three small source blocks with known rows.
        let mut all_rows: Vec<Vec<Value>> = Vec::new();
        for chunk in 0..3i64 {
            let mut b = LogBlockBuilder::with_options(schema.clone(), build.compression, 8);
            let (mut min, mut max) = (i64::MAX, i64::MIN);
            for i in 0..10i64 {
                let ts = chunk * 100 + i;
                let row = vec![
                    Value::U64(t.raw()),
                    Value::I64(ts),
                    Value::from("ip"),
                    Value::from("/p"),
                    Value::I64(ts % 7),
                    Value::Bool(false),
                    Value::from(format!("line {ts}")),
                ];
                b.add_row(&row).unwrap();
                all_rows.push(row);
                min = min.min(ts);
                max = max.max(ts);
            }
            let bytes = b.finish().unwrap();
            let path = m.allocate_block_path(t);
            store.put(&path, &bytes).unwrap();
            m.register_block(
                t,
                LogBlockEntry {
                    path,
                    min_ts: Timestamp(min),
                    max_ts: Timestamp(max),
                    rows: 10,
                    bytes: bytes.len() as u64,
                },
            )
            .unwrap();
        }
        let config = CompactionConfig { small_block_rows: 100, min_run: 2, max_merged_rows: 100 };
        // Cold sources, fetched four GETs at a time.
        let wave = prefetcher(&store, 4);
        let report =
            run_compaction(store.as_ref(), &m, &schema, &build, &config, &NoopHooks, Some(&wave))
                .unwrap();
        assert_eq!(report.runs_committed, 1);
        assert_eq!(report.blocks_merged, 3);
        assert_eq!(report.rows_rewritten, 30);
        let blocks = m.all_blocks(t);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].rows, 30);
        assert_eq!(blocks[0].min_ts, Timestamp(0));
        assert_eq!(blocks[0].max_ts, Timestamp(209));
        // The merged block scans to the exact concatenation of the sources.
        let reader = LogBlockReader::open(store.get(&blocks[0].path).unwrap()).unwrap();
        assert_eq!(reader.row_count(), 30);
        let ids: Vec<u32> = (0..30).collect();
        let columns: Vec<usize> = (0..schema.width()).collect();
        assert_eq!(reader.read_rows(&ids, &columns).unwrap(), all_rows);
        // GC then removes the superseded objects.
        let gc = run_gc(store.as_ref(), &m, None, &NoopHooks);
        assert_eq!(gc.deleted, 3);
        assert_eq!(store.object_count(), 1);
    }
}
