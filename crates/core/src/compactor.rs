//! Background LogBlock compaction and OSS garbage collection.
//!
//! Per-tenant threshold flushes produce many small LogBlocks for cold
//! tenants; as history ages, the block map fragments and every query pays
//! one-plus OSS GETs per tiny block. The compactor merges runs of small
//! adjacent-in-time blocks of one tenant into a single large block —
//! rebuilding the SMA / inverted / BKD indexes through the ordinary
//! [`LogBlockBuilder`] — and retires the sources through a crash-safe
//! **plan → build → upload → swap → tombstone → delete** protocol:
//!
//! 1. **plan**: [`MetadataStore::begin_compaction`] verifies the sources
//!    are live and records the merged path as a pending intent
//!    ([`CrashPoint::CompactPlanned`]);
//! 2. **build + upload**: the merged block goes to OSS under the new path
//!    while the sources remain the live ones
//!    ([`CrashPoint::CompactUploaded`]);
//! 3. **swap + tombstone**: one [`MetadataStore::commit_compaction`]
//!    transaction replaces the sources with the merged entry and moves
//!    their paths to the persistent tombstone list
//!    ([`CrashPoint::CompactCommitted`]);
//! 4. **delete**: a separate GC pass ([`run_gc`]) deletes tombstoned
//!    objects ([`CrashPoint::BeforeGcDelete`]), keeping every path whose
//!    delete fails for the next pass.
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

use crate::databuilder::{BuildConfig, RegisteredHandle};
use crate::hooks::{CrashHooks, CrashPoint};
use crate::metadata::{LogBlockEntry, MetadataStore};
use logstore_cache::TieredCache;
use logstore_logblock::{LogBlockBuilder, LogBlockHandle, LogBlockReader};
use logstore_oss::{ordered_wave, ObjectStore};
use logstore_types::{Error, Result, TableSchema, TenantId, Timestamp};
use std::sync::Arc;

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

/// Executes every planned run through the full protocol, reading each
/// run's sources with up to `width` GETs in flight. Per-run errors are
/// isolated (one tenant's failure must not abort another's merge); the
/// first error is returned after every run was attempted, alongside
/// nothing — the report only counts committed work. Beside the report
/// comes the header of every merged block now live.
pub fn run_compaction<S: ObjectStore>(
    store: &S,
    metadata: &MetadataStore,
    schema: &TableSchema,
    build: &BuildConfig,
    config: &CompactionConfig,
    hooks: &dyn CrashHooks,
    width: usize,
) -> Result<(CompactionReport, Vec<RegisteredHandle>)> {
    let mut report = CompactionReport::default();
    let mut merged = Vec::new();
    let mut first_error: Option<Error> = None;
    for run in plan_compactions(metadata, config) {
        match compact_one_run(store, metadata, schema, build, hooks, &run, width) {
            Ok((path, built)) => {
                report.runs_committed += 1;
                report.blocks_merged += run.sources.len() as u64;
                report.rows_rewritten += run.sources.iter().map(|e| e.rows).sum::<u64>();
                report.bytes_uploaded += built.len() as u64;
                // (The sources' handles go when GC deletes the objects.)
                merged.extend(LogBlockHandle::open(&built).ok().map(|h| (path, Arc::new(h))));
            }
            Err(Error::Stale(_)) => report.runs_lost_races += 1,
            Err(e) => {
                first_error.get_or_insert(e);
            }
        }
    }
    match first_error {
        Some(e) => Err(e),
        None => Ok((report, merged)),
    }
}

/// One run through plan→build→upload→swap (tombstoning is part of the
/// swap transaction; deletion belongs to [`run_gc`]). Returns the merged
/// block's path and bytes.
fn compact_one_run<S: ObjectStore>(
    store: &S,
    metadata: &MetadataStore,
    schema: &TableSchema,
    build: &BuildConfig,
    hooks: &dyn CrashHooks,
    run: &CompactionRun,
    width: usize,
) -> Result<(String, Vec<u8>)> {
    // Protect the merged path from the stale-pending sweep while we build.
    let _build_guard = metadata.begin_build();
    let source_paths: Vec<String> = run.sources.iter().map(|e| e.path.clone()).collect();
    let merged_path = metadata.begin_compaction(run.tenant, &source_paths)?;
    hooks.reached(CrashPoint::CompactPlanned);

    let built = match build_merged_block(store, schema, build, &run.sources, width) {
        Ok(bytes) => bytes,
        Err(e) => {
            // Nothing provably on OSS under the merged path; tombstone it
            // so GC cleans up whatever half-state a real store might hold.
            metadata.abort_compaction(&merged_path);
            return Err(e);
        }
    };
    if let Err(e) = store.put(&merged_path, &built) {
        metadata.abort_compaction(&merged_path);
        return Err(e);
    }
    hooks.reached(CrashPoint::CompactUploaded);

    // Source rows are a concatenation, so the merged coverage and row
    // count are exactly the union of the sources'. begin_compaction
    // rejected empty runs, making the fold seeds total.
    let mut min_ts = Timestamp(i64::MAX);
    let mut max_ts = Timestamp(i64::MIN);
    for source in &run.sources {
        min_ts = min_ts.min(source.min_ts);
        max_ts = max_ts.max(source.max_ts);
    }
    let entry = LogBlockEntry {
        path: merged_path.clone(),
        min_ts,
        max_ts,
        rows: run.sources.iter().map(|e| e.rows).sum(),
        bytes: built.len() as u64,
    };
    if let Err(e) = metadata.commit_compaction(run.tenant, entry, &source_paths) {
        // A concurrent expire/compact unmapped a source. The merged upload
        // is now garbage: tombstone it and let GC delete it.
        metadata.abort_compaction(&merged_path);
        return Err(e);
    }
    hooks.reached(CrashPoint::CompactCommitted);
    Ok((merged_path, built))
}

/// Reads every source block and rebuilds one merged block. The sources are
/// fetched as one [`ordered_wave`] (one GET round per `width` sources
/// instead of one per source) and consumed in run order (per-tenant path
/// order) — the same order a query's scatter visits the originals — so a
/// scan of the merged block is bit-identical to scanning the sources in
/// sequence, at any width. The builder recomputes SMA / inverted / BKD
/// indexes from scratch.
fn build_merged_block<S: ObjectStore>(
    store: &S,
    schema: &TableSchema,
    build: &BuildConfig,
    sources: &[LogBlockEntry],
    width: usize,
) -> Result<Vec<u8>> {
    let fetched = ordered_wave(width, sources, |_, source| store.get(&source.path));
    let mut builder =
        LogBlockBuilder::with_options(schema.clone(), build.compression, build.block_rows);
    let mut row = Vec::with_capacity(schema.width());
    for bytes in fetched {
        let reader = LogBlockReader::open(bytes?)?;
        // Each source row is gathered from the decoded columns into one
        // reused scratch row (moves, no clones) and read by reference.
        let mut columns = (0..schema.width())
            .map(|c| reader.read_column(c).map(Vec::into_iter))
            .collect::<Result<Vec<_>>>()?;
        for _ in 0..reader.row_count() {
            row.clear();
            row.extend(columns.iter_mut().filter_map(Iterator::next));
            builder.add_row(&row)?;
        }
    }
    builder.finish()
}

/// The GC pass: sweeps orphaned pending paths (no build in flight ⇒ their
/// uploads died before committing) into the tombstone list, then deletes
/// every tombstoned object. A failed delete *retains* the tombstone for
/// the next pass — the object is never forgotten — and never aborts the
/// rest of the pass. Successfully deleted paths are evicted from the
/// cache — handle and blocks — so dead objects stop pinning its budgets.
pub fn run_gc<S: ObjectStore>(
    store: &S,
    metadata: &MetadataStore,
    cache: Option<&TieredCache>,
    hooks: &dyn CrashHooks,
) -> GcReport {
    let mut report =
        GcReport { orphans_swept: metadata.sweep_stale_pending() as u64, ..Default::default() };
    for path in metadata.tombstones() {
        hooks.reached(CrashPoint::BeforeGcDelete);
        match store.delete(&path) {
            Ok(()) => {
                metadata.remove_tombstone(&path);
                if let Some(cache) = cache {
                    cache.evict_object(&path);
                }
                report.deleted += 1;
            }
            Err(_) => report.retained += 1,
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoopHooks;
    use logstore_codec::Compression;
    use logstore_oss::{FaultScope, FaultyStore, MemoryStore};
    use logstore_types::{Timestamp, Value};

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
        let store = FaultyStore::new(MemoryStore::new(), FaultScope::Writes, 0.0, 7);
        let m = MetadataStore::new();
        for p in ["tenants/1/a", "tenants/1/b", "tenants/2/c"] {
            store.put(p, b"x").unwrap();
            m.register_block(TenantId(1), entry(p, 0, 1, 1)).unwrap();
        }
        m.set_retention(TenantId(1), Some(1));
        m.expire(TenantId(1), Timestamp(1_000));
        assert_eq!(m.tombstones().len(), 3);
        // The first delete of the pass fails; the other two proceed.
        store.fail_next(1);
        let first = run_gc(&store, &m, None, &NoopHooks);
        assert_eq!(first.deleted, 2);
        assert_eq!(first.retained, 1);
        assert_eq!(m.tombstones().len(), 1);
        // Next pass finishes the job: nothing leaked.
        let second = run_gc(&store, &m, None, &NoopHooks);
        assert_eq!(second.deleted, 1);
        assert!(m.tombstones().is_empty());
        assert_eq!(store.inner().object_count(), 0);
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

    #[test]
    fn merge_preserves_rows_and_order_end_to_end() {
        let schema = TableSchema::request_log();
        let build = BuildConfig {
            compression: Compression::LzHigh,
            block_rows: 8,
            max_rows_per_logblock: 4096,
        };
        let store = MemoryStore::new();
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
        let (report, merged) =
            run_compaction(&store, &m, &schema, &build, &config, &NoopHooks, 4).unwrap();
        assert_eq!(report.runs_committed, 1);
        assert_eq!(report.blocks_merged, 3);
        assert_eq!(report.rows_rewritten, 30);
        let blocks = m.all_blocks(t);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].rows, 30);
        assert_eq!(blocks[0].min_ts, Timestamp(0));
        assert_eq!(blocks[0].max_ts, Timestamp(209));
        // The live merged block's header is handed to the caller.
        assert_eq!(merged.len(), 1);
        assert_eq!((merged[0].0.as_str(), merged[0].1.meta().row_count), (&*blocks[0].path, 30));
        // The merged block scans to the exact concatenation of the sources.
        let reader = LogBlockReader::open(store.get(&blocks[0].path).unwrap()).unwrap();
        assert_eq!(reader.row_count(), 30);
        for c in 0..schema.width() {
            let col = reader.read_column(c).unwrap();
            for (r, expected) in all_rows.iter().enumerate() {
                assert_eq!(col[r], expected[c], "row {r} col {c}");
            }
        }
        // GC then removes the superseded objects.
        let gc = run_gc(&store, &m, None, &NoopHooks);
        assert_eq!(gc.deleted, 3);
        assert_eq!(store.object_count(), 1);
    }
}
