//! The archived-LogBlock read path, pinned by structure instead of by the
//! clock: which GETs a query issues, from which thread, and which of them
//! are in flight together.
//!
//! The engine's store stack is a concrete type, so the "recording store"
//! is a read hook on the engine's own fault-injection layer
//! (`FaultyStore::set_read_hook`): it sees every GET on the requesting
//! thread and may park it. A [`Gate`] parks each GET of a *round* until the
//! whole round has been issued — a query that needs its GETs one after
//! another, or more of them than planned, cannot get through it (5 s
//! timeout = failure), and one that issues them together records that no
//! GET of the round saw another complete.

use logstore_core::broker::QueryExecution;
use logstore_core::{ClusterConfig, CrashHooks, LogStore, OpenParts, QueryOptions, QueryPoint};
use logstore_logblock::LogBlockHandle;
use logstore_oss::ObjectStore;
use logstore_query::{analyze, parse_query, QueryScope, ScanPlan};
use logstore_sync::{OrderedCondvar, OrderedMutex};
use logstore_types::{Error, LogRecord, TenantId, Timestamp, Value};
use logstore_workload::queries::tenant_queries;
use logstore_workload::{LogRecordGenerator, WorkloadSpec};
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One observed GET.
#[derive(Debug)]
struct Get {
    path: String,
    thread: String,
    /// GETs that had been let through — and, for any GET of the same query
    /// that comes after them, completed — when this one was issued.
    completed_before: usize,
}

struct GateState {
    /// Expected GETs per round; a GET beyond their sum is recorded and let
    /// straight through (the assertions count it).
    rounds: Vec<usize>,
    gets: Vec<Get>,
    released: usize,
    timed_out: bool,
}

struct Gate {
    state: OrderedMutex<GateState>,
    changed: OrderedCondvar,
}

impl Gate {
    fn install(store: &LogStore, rounds: &[usize]) -> Arc<Gate> {
        let gate = Arc::new(Gate {
            state: OrderedMutex::new(
                "test.read_path.gate",
                GateState {
                    rounds: rounds.to_vec(),
                    gets: Vec::new(),
                    released: 0,
                    timed_out: false,
                },
            ),
            changed: OrderedCondvar::new("test.read_path.gate_changed"),
        });
        let hook = Arc::clone(&gate);
        store.shared().fault_layer().set_read_hook(Some(Arc::new(move |path| hook.on_get(path))));
        gate
    }

    fn on_get(&self, path: &str) {
        let mut state = self.state.lock();
        let idx = state.gets.len();
        let get = Get {
            path: path.to_string(),
            thread: std::thread::current().name().unwrap_or("<unnamed>").to_string(),
            completed_before: state.released,
        };
        state.gets.push(get);
        // The round this GET belongs to ends at `end`.
        let mut end = 0;
        for round in &state.rounds {
            end += round;
            if idx < end {
                break;
            }
        }
        if idx >= end {
            return;
        }
        if idx + 1 == end {
            state.released = end;
            self.changed.notify_all();
            return;
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while state.released <= idx {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                // Fail the test, not the process: let everyone through.
                state.timed_out = true;
                state.released = usize::MAX;
                self.changed.notify_all();
                return;
            }
            self.changed.wait_for(&mut state, left);
        }
    }

    /// Removes the hook and returns what it saw.
    fn finish(&self, store: &LogStore) -> Vec<Get> {
        store.shared().fault_layer().set_read_hook(None);
        let mut state = self.state.lock();
        assert!(!state.timed_out, "a GET waited 5 s for its round to fill: {:?}", state.gets);
        std::mem::take(&mut state.gets)
    }
}

const BLOCK: u64 = 8 * 1024;

fn config() -> ClusterConfig {
    let mut config = ClusterConfig::for_testing();
    // Small cache blocks: one LogBlock spans many, so "which blocks" and
    // "how many runs" are real questions. The header still fits block 0.
    config.cache_block_size = BLOCK;
    config.prefetch_threads = 8;
    config.query_threads = 4;
    config
}

fn rec(ts: i64) -> LogRecord {
    let latency = (ts * 7 + 13) % 600;
    LogRecord::new(
        TenantId(1),
        Timestamp(ts),
        vec![
            Value::from(format!("10.0.{}.{}", ts % 200, latency % 250)),
            Value::from("/api/v1/users"),
            Value::I64(latency),
            Value::Bool(latency > 400),
            Value::from(format!("request {ts} served trace={:08x}", ts * 2654435761i64)),
        ],
    )
}

const ROWS_PER_BLOCK: i64 = 1500;

/// Tenant 1 with `blocks` archived LogBlocks and nothing in the row
/// stores. Building admitted every one of them to the cache, whole.
fn build_store(config: ClusterConfig, blocks: i64) -> LogStore {
    let s = LogStore::open(config).unwrap();
    for b in 0..blocks {
        s.ingest((b * ROWS_PER_BLOCK..(b + 1) * ROWS_PER_BLOCK).map(rec).collect::<Vec<_>>())
            .unwrap();
        s.flush().unwrap();
    }
    assert_eq!(s.block_count() as i64, blocks);
    s
}

fn block_paths(s: &LogStore) -> Vec<(String, u64)> {
    let mut entries = s.shared().metadata.all_blocks(TenantId(1));
    entries.sort_by(|a, b| a.path.cmp(&b.path));
    entries.into_iter().map(|e| (e.path, e.bytes)).collect()
}

fn raw_handle(s: &LogStore, path: &str) -> LogBlockHandle {
    let raw = s.shared().fault_layer().inner().get(path).unwrap();
    LogBlockHandle::open(&raw).unwrap()
}

/// Maximal contiguous runs of aligned cache blocks covering `members` of
/// one LogBlock, not counting the blocks at `warm` offsets — computed
/// here from the raw object, independently of the engine's planner.
fn runs_of(handle: &LogBlockHandle, members: &[String], block: u64, warm: &[u64]) -> usize {
    let mut blocks = BTreeSet::new();
    for member in members {
        let (offset, len) = handle.manifest().member_object_range(member).unwrap();
        if len > 0 {
            blocks.extend(offset / block..=(offset + len - 1) / block);
        }
    }
    for offset in warm {
        blocks.remove(&(offset / block));
    }
    let blocks: Vec<u64> = blocks.into_iter().collect();
    blocks.iter().enumerate().filter(|(i, b)| *i == 0 || blocks[i - 1] + 1 != **b).count()
}

/// Leaves the cache knowing every LogBlock of tenant 1 and holding none of
/// its data — a reader that has seen the blocks before and lost them to
/// eviction. Everything is dropped, then a query whose predicate the SMAs
/// refute opens each header and plans nothing. The cache block a header
/// lives in (block 0 in every fixture here, asserted) is warm afterwards;
/// `runs_of` is told so.
fn forget_all_but_the_headers(s: &LogStore) {
    s.clear_cache();
    let sql = "SELECT log FROM request_log WHERE tenant_id = 1 AND latency >= 1000000000";
    let exec = s.query_with_options(sql, &QueryOptions::default()).unwrap();
    assert!(exec.result.rows.is_empty());
    let blocks = s.block_count() as u64;
    assert_eq!((exec.cache.object_misses, exec.cache.misses), (blocks, blocks), "block 0 each");
}

const TWO_COLUMNS: &str = "SELECT log FROM request_log WHERE tenant_id = 1 AND latency >= 300";

/// `TWO_COLUMNS` reads `col.4` (latency: unindexed, undecided by SMA) and
/// `col.6` (log) — two members that are not adjacent in the pack.
fn two_column_members() -> Vec<String> {
    vec!["col.4".to_string(), "col.6".to_string()]
}

fn oracle(s: &LogStore, sql: &str) -> QueryExecution {
    s.query_with_options(sql, &QueryOptions::baseline()).unwrap()
}

#[test]
fn cold_query_with_cached_handles_is_one_round_issued_by_the_caller() {
    let s = build_store(config(), 3);
    forget_all_but_the_headers(&s);
    let members = two_column_members();
    let runs: Vec<usize> = block_paths(&s)
        .iter()
        .map(|(path, _)| runs_of(&raw_handle(&s, path), &members, BLOCK, &[0]))
        .collect();
    assert!(runs.iter().all(|r| *r == 2), "col.4 and col.6 are apart: {runs:?}");
    let total: usize = runs.iter().sum();

    let gate = Gate::install(&s, &[total]);
    let exec = s.query_with_options(TWO_COLUMNS, &QueryOptions::default()).unwrap();
    let gets = gate.finish(&s);

    assert_eq!(gets.len(), total, "exactly one GET per contiguous cold run: {gets:?}");
    for (path, _) in block_paths(&s) {
        assert_eq!(gets.iter().filter(|g| g.path == path).count(), 2, "{path}");
    }
    assert!(
        gets.iter().all(|g| g.completed_before == 0),
        "every GET of the query was issued before any completed: {gets:?}"
    );
    assert!(
        gets.iter().all(|g| !g.thread.starts_with("query-pool-")),
        "pool tasks compute, they do not fetch: {gets:?}"
    );
    assert_eq!(exec.cache.object_hits, 3, "the handles outlived the blocks");
    assert_eq!(exec.cache.object_misses, 0);
    assert_eq!(exec.stats.prefetch_errors, 0);
    assert_eq!(exec.result, oracle(&s, TWO_COLUMNS).result);
}

#[test]
fn cold_query_without_handles_is_exactly_two_rounds() {
    let s = build_store(config(), 3);
    s.clear_cache();
    let members = two_column_members();
    let mut data_runs = 0;
    for (path, _) in block_paths(&s) {
        let handle = raw_handle(&s, &path);
        let meta_end = handle.manifest().member_object_range("meta").map(|(o, l)| o + l).unwrap();
        assert!(meta_end <= BLOCK, "the fixture's header must fit cache block 0");
        // Block 0 is warm once the header round has fetched it.
        data_runs += runs_of(&handle, &members, BLOCK, &[0]);
    }

    let gate = Gate::install(&s, &[3, data_runs]);
    let exec = s.query_with_options(TWO_COLUMNS, &QueryOptions::default()).unwrap();
    let gets = gate.finish(&s);

    assert_eq!(gets.len(), 3 + data_runs, "{gets:?}");
    let (headers, data) = gets.split_at(3);
    assert!(headers.iter().all(|g| g.completed_before == 0), "one header round: {headers:?}");
    let opened: BTreeSet<&str> = headers.iter().map(|g| g.path.as_str()).collect();
    assert_eq!(opened.len(), 3, "one header GET per unknown LogBlock");
    assert!(data.iter().all(|g| g.completed_before == 3), "one data round: {data:?}");
    assert!(gets.iter().all(|g| !g.thread.starts_with("query-pool-")), "{gets:?}");
    assert_eq!((exec.cache.object_hits, exec.cache.object_misses), (0, 3));
    assert_eq!(exec.result, oracle(&s, TWO_COLUMNS).result);

    // The opened handles were cached: dropping only what a query can drop
    // by itself (nothing), the next cold-block query would be one round —
    // and this warm one is none at all.
    let gate = Gate::install(&s, &[]);
    let warm = s.query_with_options(TWO_COLUMNS, &QueryOptions::default()).unwrap();
    assert!(gate.finish(&s).is_empty(), "a fully cached query issues no GET");
    assert_eq!((warm.cache.object_hits, warm.cache.misses), (3, 0));
    assert_eq!(warm.result, exec.result);
    assert_eq!(warm.stats, exec.stats);
}

#[test]
fn a_one_run_query_fetches_inline_on_the_calling_thread() {
    let s = build_store(config(), 3);
    forget_all_but_the_headers(&s);
    // The LogBlock map prunes to the first block; the SMAs leave one `ts`
    // column block undecided, so the plan is `col.1` — inside the header's
    // cache block, as `ts` is sorted in its block and carries no tree — and
    // the output's `col.4`: one run.
    let sql = "SELECT latency FROM request_log WHERE tenant_id = 1 AND ts <= 700";
    let (path, _) = block_paths(&s).remove(0);
    let members = ["col.1".to_string(), "col.4".to_string()];
    assert_eq!(runs_of(&raw_handle(&s, &path), &members[..1], BLOCK, &[0]), 0);
    assert_eq!(runs_of(&raw_handle(&s, &path), &members, BLOCK, &[0]), 1);

    let gate = Gate::install(&s, &[1]);
    let exec = s.query_with_options(sql, &QueryOptions::default()).unwrap();
    let gets = gate.finish(&s);
    assert_eq!(gets.len(), 1, "{gets:?}");
    assert_eq!(gets[0].path, path);
    let me = std::thread::current().name().unwrap_or("<unnamed>").to_string();
    assert_eq!(gets[0].thread, me, "a single request starts no wave thread");
    assert_eq!(exec.result.rows.len(), 701);
}

#[test]
fn ablation_switches_still_separate() {
    let s = build_store(config(), 3);
    forget_all_but_the_headers(&s);
    // Prefetch off: no wave — every GET is a task's demand read. With the
    // default parallelism the three tasks run on pool threads.
    let no_prefetch = QueryOptions { use_prefetch: false, ..QueryOptions::default() };
    let gate = Gate::install(&s, &[]);
    let exec = s.query_with_options(TWO_COLUMNS, &no_prefetch).unwrap();
    let gets = gate.finish(&s);
    assert!(!gets.is_empty());
    assert!(gets.iter().all(|g| g.thread.starts_with("query-pool-")), "{gets:?}");
    assert_eq!(exec.cache.object_hits, 3, "the object tier follows use_cache, not use_prefetch");

    // Cache off: no tier is consulted or fed, headers included — the same
    // query twice costs the same GETs twice.
    let no_cache =
        QueryOptions { use_cache: false, use_prefetch: false, ..QueryOptions::default() };
    let mut counts = Vec::new();
    for _ in 0..2 {
        let gate = Gate::install(&s, &[]);
        let exec = s.query_with_options(TWO_COLUMNS, &no_cache).unwrap();
        counts.push(gate.finish(&s).len());
        assert_eq!(exec.cache.object_hits + exec.cache.object_misses, 0, "no handle reuse");
        assert_eq!(exec.cache.lookups(), 0);
    }
    assert!(counts[0] > 3 && counts[0] == counts[1], "{counts:?}");
}

#[test]
fn a_query_larger_than_the_cache_runs_in_batches_and_reads_what_it_fetched() {
    let members = two_column_members();
    let reference = build_store(config(), 5);
    let expected = reference.query_with_options(TWO_COLUMNS, &QueryOptions::default()).unwrap();

    // A memory tier smaller than one cache block admits nothing — and the
    // object tier, sized from it, no header. So the query opens its five
    // headers itself, together, each open three dependent reads (prologue,
    // manifest, meta) because block 0 is never retained; whatever a wave
    // fetched is gone from the cache before the scan starts; and every
    // LogBlock is a batch of its own ("at least one per batch").
    let mut tiny = config();
    tiny.cache_memory_bytes = 1024;
    let s = build_store(tiny, 5);
    let mut rounds = vec![5, 5, 5];
    rounds.extend(
        block_paths(&s)
            .iter()
            .map(|(path, _)| runs_of(&raw_handle(&s, path), &members, BLOCK, &[])),
    );
    let gate = Gate::install(&s, &rounds);
    let exec = s.query_with_options(TWO_COLUMNS, &QueryOptions::default()).unwrap();
    let gets = gate.finish(&s);

    // One wave per batch, in canonical order, each after the previous
    // batch's — and not one GET more: the scans read the held blocks.
    assert_eq!(gets.len(), rounds.iter().sum::<usize>(), "{gets:?}");
    for (i, get) in gets[..15].iter().enumerate() {
        assert_eq!(get.completed_before, i / 5 * 5, "the five opens advance together: {gets:?}");
    }
    let mut done = 15;
    for ((path, _), round) in block_paths(&s).iter().zip(&rounds[3..]) {
        for get in &gets[done..done + round] {
            assert_eq!((&get.path, get.completed_before), (path, done), "{gets:?}");
        }
        done += round;
    }
    assert!(gets.iter().all(|g| !g.thread.starts_with("query-pool-")), "{gets:?}");
    assert_eq!((exec.cache.object_hits, exec.cache.object_misses), (0, 5));
    assert_eq!(exec.result, expected.result);
    assert_eq!(exec.stats, expected.stats);
}

#[test]
fn a_query_over_many_logblocks_resolves_headers_a_chunk_at_a_time() {
    // Two requests in flight: headers are taken eight LogBlocks at a time.
    const CHUNK: usize = 8;
    let mut narrow = config();
    narrow.prefetch_threads = 2;
    let s = build_store(narrow, 20);
    let expected = s.query_with_options(TWO_COLUMNS, &QueryOptions::default()).unwrap();
    s.clear_cache();

    let gate = Gate::install(&s, &[]);
    let exec = s.query_with_options(TWO_COLUMNS, &QueryOptions::default()).unwrap();
    let gets = gate.finish(&s);

    // Every LogBlock costs a header GET and its data GETs, and a chunk is
    // opened, fetched and scanned before the next one is touched: the GET
    // log never returns to an earlier chunk. (Resolving every header up
    // front would walk the chunks twice — and pin twenty headers.)
    let paths: Vec<String> = block_paths(&s).into_iter().map(|(path, _)| path).collect();
    let chunk_of = |get: &Get| paths.iter().position(|p| *p == get.path).unwrap() / CHUNK;
    let chunks: Vec<usize> = gets.iter().map(chunk_of).collect();
    assert!(chunks.windows(2).all(|w| w[0] <= w[1]), "{chunks:?}");
    for path in &paths {
        assert!(gets.iter().filter(|g| g.path == *path).count() >= 2, "{path}: {gets:?}");
    }
    assert!(gets.iter().all(|g| !g.thread.starts_with("query-pool-")), "{gets:?}");
    assert_eq!((exec.cache.object_hits, exec.cache.object_misses), (0, 20));
    assert_eq!(exec.result, expected.result);
    assert_eq!(exec.stats, expected.stats);
}

/// Tenant 1 of the benchmark's generator: three archived slices plus a
/// real-time tail, and the eight `tenant_queries` templates over them.
fn workload_store(config: ClusterConfig) -> (LogStore, Vec<String>) {
    let (start, end) = (Timestamp(0), Timestamp(48 * 3_600_000));
    let s = LogStore::open(config).unwrap();
    let history =
        LogRecordGenerator::new(7).history(&WorkloadSpec::new(1, 0.99), 6_000, start, end);
    for slice in history.chunks(1_900) {
        s.ingest(slice.to_vec()).unwrap();
        if slice.len() == 1_900 {
            s.flush().unwrap();
        }
    }
    assert_eq!(s.block_count(), 3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    (s, tenant_queries(TenantId(1), start, end, &mut rng))
}

#[test]
fn every_template_fetches_exactly_its_plan() {
    let templates = workload_store(config()).1;
    assert_eq!(templates.len(), 8);
    for sql in &templates {
        // A fresh engine per template. No query has read its blocks, but
        // the flushes admitted them: nothing is asked of OSS.
        let (s, _) = workload_store(config());
        let fresh = s.query_with_options(sql, &QueryOptions::default()).unwrap();
        assert_eq!((fresh.cache.object_misses, fresh.cache.misses), (0, 0), "{sql}");
        assert_eq!(s.oss_metrics().get_requests, 0, "{sql}");
        // Now with the handles known and the blocks cold.
        forget_all_but_the_headers(&s);
        let bound = analyze::bind(&parse_query(sql).unwrap(), &s.shared().schema).unwrap();
        let plan = ScanPlan::new(&bound, &s.shared().schema, true).unwrap();
        let range = QueryScope::extract(&bound).range;
        let mut expected_gets = 0;
        let (mapped, _) = s.shared().metadata.blocks_for(TenantId(1), range);
        for entry in &mapped {
            let handle = raw_handle(&s, &entry.path);
            let members = plan.planned_members(handle.meta(), true);
            // The full-text index of `log` is fetched for CONTAINS only;
            // `tenant_id` is decided by the SMA of a single-tenant block.
            assert_eq!(
                members.iter().any(|m| m.starts_with("index.6")),
                sql.contains("log CONTAINS"),
                "{members:?} for {sql}"
            );
            assert!(!members.iter().any(|m| m.ends_with(".0")), "{members:?} for {sql}");
            expected_gets += runs_of(&handle, &members, BLOCK, &[0]);
        }

        // The wave fetches the plan — and the scans then ask for nothing
        // else: one more GET than planned would be a demand read.
        let gate = Gate::install(&s, &[]);
        let exec = s.query_with_options(sql, &QueryOptions::default()).unwrap();
        let gets = gate.finish(&s);
        assert_eq!(gets.len(), expected_gets, "{sql}: {gets:?}");
        assert!(gets.iter().all(|g| !g.thread.starts_with("query-pool-")), "{sql}: {gets:?}");
        assert_eq!(exec.cache.object_hits as usize, mapped.len());
        assert_eq!(exec.result, oracle(&s, sql).result, "{sql}");
        // What was admitted is what OSS holds.
        assert_eq!((&exec.result, &exec.stats), (&fresh.result, &fresh.stats), "{sql}");
        // A handle found in the object tier and one the query opens
        // itself are the same handle: same answer, same counters.
        s.clear_cache();
        let reopened = s.query_with_options(sql, &QueryOptions::default()).unwrap();
        assert_eq!(reopened.cache.object_misses as usize, mapped.len());
        assert_eq!((&reopened.result, &reopened.stats), (&exec.result, &exec.stats), "{sql}");
    }
}

#[test]
fn a_drain_that_fails_midway_admits_only_what_it_registered() {
    // One tenant, three chunks, PUTs one at a time; the third fails
    // terminally. The durable prefix is registered and cached; the failed
    // chunk's rows are back in the row store and its path is unknown to
    // the cache.
    let mut config = config();
    config.prefetch_threads = 1;
    config.max_rows_per_logblock = 500;
    let s = LogStore::open(config).unwrap();
    s.ingest((0..1500).map(rec).collect::<Vec<_>>()).unwrap();
    let faults = s.shared().fault_layer();
    let third_put = faults.op_index() + 2;
    faults.fail_ops(std::slice::from_ref(&(third_put..third_put + 1)));
    assert!(s.flush().is_err());
    assert_eq!(s.archive_stats().rows_restored, 500);

    let cache = &s.shared().cache;
    let registered = block_paths(&s);
    assert_eq!(registered.len(), 2);
    for (path, bytes) in &registered {
        assert!(cache.handle(path).is_some(), "{path}");
        assert!(s.shared().prefetcher.resident(path, *bytes).is_some(), "{path}");
    }
    let failed = s.shared().metadata.pending_paths();
    assert_eq!(failed.len(), 1, "{failed:?}");
    assert!(cache.handle(&failed[0]).is_none());
    assert_eq!(cache.evict_object(&failed[0]), 0);
    // Every row is still there, and the archived ones cost no request.
    let exec = s.query_with_options(TWO_COLUMNS, &QueryOptions::default()).unwrap();
    assert_eq!(exec.result, oracle(&s, TWO_COLUMNS).result);
    assert_eq!((exec.cache.object_hits, exec.cache.misses), (2, 0));
}

#[test]
fn results_and_stats_are_identical_across_the_read_path_matrix() {
    let mut reference: Option<Vec<QueryExecution>> = None;
    for prefetch_threads in [1, 8] {
        let mut config = config();
        config.prefetch_threads = prefetch_threads;
        let (s, templates) = workload_store(config);
        for parallelism in [1, 0] {
            let opts = QueryOptions::default().with_parallelism(parallelism);
            for (t, sql) in templates.iter().enumerate() {
                // Cold: neither header nor block is cached, the query
                // opens what it visits. Warm: both come from the cache.
                s.clear_cache();
                let cold = s.query_with_options(sql, &opts).unwrap();
                let warm = s.query_with_options(sql, &opts).unwrap();
                let first = reference.get_or_insert_with(Vec::new);
                if first.len() == t {
                    first.push(cold.clone());
                }
                for (label, exec) in [("cold", &cold), ("warm", &warm)] {
                    let at = format!(
                        "{label}, {prefetch_threads} prefetch threads, parallelism \
                         {parallelism}: {sql}"
                    );
                    assert_eq!(exec.result, first[t].result, "{at}");
                    assert_eq!(exec.stats, first[t].stats, "{at}");
                }
                assert_eq!(cold.cache.object_hits, 0, "no handle survives clear_cache");
                assert_eq!(warm.cache.object_misses, 0, "every opened handle is reused");
            }
        }
    }
}

#[test]
fn a_failed_open_is_not_cached() {
    let s = build_store(config(), 1);
    let (path, _) = block_paths(&s).remove(0);
    let raw = s.shared().fault_layer().inner();
    let good = raw.get(&path).unwrap();
    // Flip one byte inside the manifest body; forget the handle the
    // builder registered so the next query has to open the object.
    let mut bad = good.clone();
    bad[12] ^= 0xff;
    raw.put(&path, &bad).unwrap();
    s.clear_cache();

    let err = s.query_with_options(TWO_COLUMNS, &QueryOptions::default()).unwrap_err();
    assert!(matches!(err, Error::Corruption(_)), "{err}");
    assert!(s.shared().cache.handle(&path).is_none(), "a failed open caches nothing");

    // The object heals: the very same query re-opens it and succeeds —
    // neither a stale handle nor the bad header bytes were kept.
    raw.put(&path, &good).unwrap();
    let exec = s.query_with_options(TWO_COLUMNS, &QueryOptions::default()).unwrap();
    assert_eq!(exec.cache.object_misses, 1, "the second query re-opens");
    assert_eq!(exec.result, oracle(&s, TWO_COLUMNS).result);
    assert!(s.shared().cache.handle(&path).is_some(), "a clean open is cached");
}

// ---- The real-time source: runs read outside the shard lock ----

/// Parks the first query attempt that reaches `point` — on whichever
/// thread got there — until the test lets it go; what the test does
/// meanwhile happens *at* that point of the attempt. Every later arrival
/// passes straight through.
struct ParkAt {
    point: QueryPoint,
    armed: AtomicBool,
    reached: crossbeam::channel::Sender<()>,
    resume: crossbeam::channel::Receiver<()>,
}

impl CrashHooks for ParkAt {
    fn query_reached(&self, point: QueryPoint) {
        if point == self.point && self.armed.swap(false, Ordering::SeqCst) {
            self.reached.send(()).unwrap();
            // A test that failed and hung up must not leave the query
            // parked: a closed channel lets it go too.
            let _ = self.resume.recv_timeout(Duration::from_secs(10));
        }
    }
}

/// One worker, one shard, nothing flushed unless the test does it.
fn one_shard_config() -> ClusterConfig {
    let mut config = config();
    config.workers = 1;
    config.shards_per_worker = 1;
    config
}

/// Runs `sql` with its first attempt parked at `point`, `meanwhile` on the
/// calling thread while it is parked, and returns the query's execution.
fn query_parked_at(
    config: ClusterConfig,
    point: QueryPoint,
    prepare: impl FnOnce(&LogStore),
    sql: &str,
    meanwhile: impl FnOnce(&LogStore),
) -> (LogStore, QueryExecution) {
    let (reached_tx, reached_rx) = crossbeam::channel::unbounded();
    let (resume_tx, resume_rx) = crossbeam::channel::unbounded();
    let hooks = Arc::new(ParkAt {
        point,
        armed: AtomicBool::new(false),
        reached: reached_tx,
        resume: resume_rx,
    });
    let parts = OpenParts { hooks: Some(hooks.clone()), ..OpenParts::default() };
    let s = LogStore::open_with(config, parts).unwrap();
    prepare(&s);
    hooks.armed.store(true, Ordering::SeqCst);
    let exec = std::thread::scope(|scope| {
        let query = scope.spawn(|| s.query_with_options(sql, &QueryOptions::default()));
        reached_rx.recv_timeout(Duration::from_secs(10)).expect("the query never got there");
        meanwhile(&s);
        resume_tx.send(()).unwrap();
        query.join().unwrap().unwrap()
    });
    (s, exec)
}

const COUNT_ALL: &str = "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1";

fn count_of(exec: &QueryExecution) -> u64 {
    exec.result.rows[0][0].as_u64().unwrap()
}

#[test]
fn an_append_to_the_shard_completes_while_its_scan_is_parked() {
    // The scan holds its snapshot and no lock: an append to the same shard
    // goes through beside it (it would wait forever on the shard lock if
    // the scan read rows under it), and so does a whole flush. The parked
    // query still answers from the rows it took — each exactly once,
    // though they have meanwhile been drained, built and registered.
    let (s, exec) = query_parked_at(
        one_shard_config(),
        QueryPoint::RowStoreSnapshot,
        |s| {
            s.ingest((0..300).map(rec).collect::<Vec<_>>()).unwrap();
        },
        COUNT_ALL,
        |s| {
            let (done_tx, done_rx) = crossbeam::channel::unbounded();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    s.ingest((300..400).map(rec).collect::<Vec<_>>()).unwrap();
                    s.flush().unwrap();
                    done_tx.send(()).unwrap();
                });
                done_rx
                    .recv_timeout(Duration::from_secs(5))
                    .expect("an append or a drain waited for a parked scan");
            });
        },
    );
    assert_eq!(count_of(&exec), 300, "the rows of the snapshot, once each");
    assert_eq!(exec.stats.realtime_rows_scanned, 300);
    assert_eq!(exec.stats.blocks_visited, 0, "the map was read before the flush registered");
    let worker = s.shared().worker_snapshot().remove(0);
    assert_eq!(worker.buffered_rows(worker.shard_ids()[0]).unwrap(), 0);
    assert_eq!(count_of(&s.query_with_options(COUNT_ALL, &QueryOptions::default()).unwrap()), 400);
}

#[test]
fn a_row_racing_a_drain_is_never_counted_twice() {
    // The LogBlock map is read before the row store. A flush that lands
    // between the two reads moves rows from the second to the first: the
    // attempt misses them in the map (the documented window) and finds
    // them in its snapshot — once. Reading the row store first would find
    // them there *and* in the map.
    for sql in [COUNT_ALL, "SELECT ts FROM request_log WHERE tenant_id = 1"] {
        let (s, exec) = query_parked_at(
            one_shard_config(),
            QueryPoint::RowStoreSnapshot,
            |s| {
                s.ingest((0..250).map(rec).collect::<Vec<_>>()).unwrap();
            },
            sql,
            |s| {
                s.flush().unwrap();
            },
        );
        let rows = if sql == COUNT_ALL { count_of(&exec) } else { exec.result.rows.len() as u64 };
        assert_eq!(rows, 250, "{sql}");
        assert_eq!(exec.stats.realtime_rows_scanned + exec.stats.scan.rows_matched, 250, "{sql}");
        assert_eq!(s.block_count(), 1, "the flush did register the rows");
        assert_eq!(exec.result, oracle(&s, sql).result, "{sql}");
    }
}

#[test]
fn a_drain_registered_between_the_map_read_and_the_snapshot_restarts_the_attempt() {
    // The attempt has read the map — no block yet — and is about to take
    // its snapshot of the shard when a flush drains it, registers the
    // drain and acks it. The snapshot would hold none of the rows, and
    // the map the attempt read none: the shard's settle sequence moved
    // between the two reads, so the attempt is stale and the retry counts
    // every row, once.
    let (s, exec) = query_parked_at(
        one_shard_config(),
        QueryPoint::BeforeRowStoreSnapshot,
        |s| {
            s.ingest((0..250).map(rec).collect::<Vec<_>>()).unwrap();
        },
        COUNT_ALL,
        |s| {
            s.flush().unwrap();
        },
    );
    assert_eq!(count_of(&exec), 250);
    assert!(exec.stale_retries >= 1, "the straddling attempt was not restarted");
    assert_eq!(s.block_count(), 1, "the flush did register the rows");
    assert_eq!(exec.result, oracle(&s, COUNT_ALL).result);
}

#[test]
fn blocks_pruned_by_map_counts_the_map_the_blocks_came_from() {
    // Three small LogBlocks of which the window overlaps one; at the moment
    // the attempt is about to read the map, compaction swaps them for one
    // merged block. Entries and total come from one read: one block
    // visited, none pruned. (They used to be two reads with this point
    // between them: 3 − 1 = 2 "pruned" blocks of a map that has one.)
    let window = "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 AND ts >= 10 AND ts <= 20";
    let (s, exec) = query_parked_at(
        config(),
        QueryPoint::BeforeMapRead,
        |s| {
            for block in 0..3 {
                s.ingest((block * 100..block * 100 + 100).map(rec).collect::<Vec<_>>()).unwrap();
                s.flush().unwrap();
            }
            let before = s.query_with_options(window, &QueryOptions::default()).unwrap();
            assert_eq!((before.stats.blocks_visited, before.blocks_pruned_by_map), (1, 2));
        },
        window,
        |s| {
            assert_eq!(s.compact().unwrap().runs_committed, 1);
            assert_eq!(s.block_count(), 1);
        },
    );
    assert_eq!(count_of(&exec), 11);
    assert_eq!((exec.stats.blocks_visited, exec.blocks_pruned_by_map), (1, 0));
    assert_eq!(exec.result, oracle(&s, window).result);
}

#[test]
fn a_fresh_run_is_scanned_in_place_and_history_queries_visit_no_run() {
    // Archived rows at ts 0..1500, fresh rows at ts 10 000.. in the row
    // store of one shard.
    let s = build_store(one_shard_config(), 1);
    s.ingest((10_000..10_400).map(rec).collect::<Vec<_>>()).unwrap();
    let unbounded = "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 AND latency >= 300";
    let first = s.query_with_options(unbounded, &QueryOptions::default()).unwrap();
    // The query seals the tail and scans the run's own columns.
    assert_eq!(first.counters.realtime_runs_visited, 1);
    let second = s.query_with_options(unbounded, &QueryOptions::default()).unwrap();
    assert_eq!((&second.result, &second.stats), (&first.result, &first.stats));
    assert_eq!(second.result, oracle(&s, unbounded).result);
    // A window inside the history: the run's time bounds exclude it, no
    // row store row is looked at, and rows that arrive later stay in an
    // open tail nobody seals.
    let history =
        "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 AND ts >= 100 AND ts <= 900";
    s.ingest((10_400..10_450).map(rec).collect::<Vec<_>>()).unwrap();
    let bounded = s.query_with_options(history, &QueryOptions::default()).unwrap();
    assert_eq!(count_of(&bounded), 801);
    assert_eq!(
        (bounded.counters.realtime_runs_visited, bounded.counters.realtime_runs_pruned),
        (0, 1)
    );
    assert_eq!(bounded.stats.realtime_rows_scanned, 0);
    s.flush().unwrap();
    assert_eq!(count_of(&s.query_with_options(COUNT_ALL, &QueryOptions::default()).unwrap()), 1950);
}
