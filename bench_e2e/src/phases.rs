//! The building blocks every workload is made of: the engine under test
//! with its crash-surviving parts, closed- and open-loop drivers, and the
//! ingest and query phases built on them.

use crate::config::{self, Scale, ScratchDir, LOAD_THREADS, TEMPLATES};
use crate::dataset::{timed_ingest, BatchStream, Ledger, Picker, Stream};
use crate::stats::{open_sample, Call, OpenLoop, Samples};
use crate::trace::{ThreadTrace, Trace};
use logstore_core::broker::QueryExecution;
use logstore_core::{LogStore, MetadataStore, OpenParts, QueryOptions, Store};
use logstore_query::QueryResult;
use logstore_types::{Timestamp, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The engine under test plus the parts that survive its restart: OSS and
/// the metadata service are remote systems, so a reopen keeps both and
/// only the node-local state (row stores, caches) is rebuilt from the WAL.
pub struct Engine {
    pub store: LogStore,
    oss: Arc<Store>,
    metadata: Arc<MetadataStore>,
    dir: ScratchDir,
}

impl Engine {
    pub fn open(scale: &Scale, label: &str, cache_bytes: usize) -> Result<Self, String> {
        let dir = ScratchDir::new(label).map_err(|e| format!("scratch dir: {e}"))?;
        let store = LogStore::open(config::engine(scale, dir.path(), cache_bytes))
            .map_err(|e| format!("LogStore::open: {e}"))?;
        let oss = Arc::clone(&store.shared().store);
        let metadata = Arc::clone(&store.shared().metadata);
        Ok(Engine { store, oss, metadata, dir })
    }

    /// Drops the engine without flushing and opens a new one over the same
    /// WAL directory, OSS and metadata — a process restart.
    pub fn reopen(self, scale: &Scale, cache_bytes: usize) -> Result<Self, String> {
        let Engine { store, oss, metadata, dir } = self;
        drop(store);
        let parts = OpenParts {
            store: Some(Arc::clone(&oss)),
            metadata: Some(Arc::clone(&metadata)),
            hooks: None,
        };
        let store = LogStore::open_with(config::engine(scale, dir.path(), cache_bytes), parts)
            .map_err(|e| format!("LogStore::open_with (reopen): {e}"))?;
        Ok(Engine { store, oss, metadata, dir })
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` has no such line).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What every phase of one run shares.
pub struct Ctx<'a> {
    pub scale: &'a Scale,
    pub seed: u64,
    /// `--seconds`: the length of the timed window.
    pub seconds: f64,
    /// `--trace 1`: record spans and run the layer probes.
    pub tracing: bool,
    /// Time zero of every span of the run.
    pub origin: Instant,
}

/// How a load thread paces its operations.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// The next operation is sent when the previous one completes.
    Closed,
    /// Operations are due on a fixed schedule regardless of completions.
    Open { per_second: u64 },
}

/// When a loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Deadline(Instant),
    Ops(u64),
}

/// What one load thread measured.
#[derive(Debug, Default)]
pub struct LoopStats {
    pub ops: u64,
    /// Engine-call time, send to completion.
    pub service: Samples,
    /// Open loops only: completion minus due time.
    pub from_due: Samples,
    /// Open loops only: how late the generator sent.
    pub late: Samples,
    /// Engine-call time of the operations that record spans when tracing
    /// (`[0]`) and of those that never do (`[1]`); see [`records_spans`].
    pub service_by_tracing: [Samples; 2],
    /// Wall time of the loop (of the longest thread after a merge), the
    /// load threads' summed time, and the part of that spent neither in
    /// the engine nor sleeping — generation, booking, verification.
    pub wall: Duration,
    pub thread_time: Duration,
    pub harness_busy: Duration,
}

impl LoopStats {
    pub fn merge(&mut self, other: LoopStats) {
        self.ops += other.ops;
        self.service.merge(other.service);
        self.from_due.merge(other.from_due);
        self.late.merge(other.late);
        let [traced, plain] = other.service_by_tracing;
        self.service_by_tracing[0].merge(traced);
        self.service_by_tracing[1].merge(plain);
        self.wall = self.wall.max(other.wall);
        self.thread_time += other.thread_time;
        self.harness_busy += other.harness_busy;
    }
}

/// Whether operation `k` of a load thread records spans in a traced run.
/// Alternate rounds of eight do, so both halves see every query template
/// equally often and the difference of their service times is the cost of
/// tracing, not of the template mix.
pub fn records_spans(k: u64) -> bool {
    (k / TEMPLATES as u64).is_multiple_of(2)
}

/// Runs `op(k)` for k = 0, 1, … at `pace` until `until`.
pub fn run_loop(pace: Pace, until: Until, mut op: impl FnMut(u64) -> Call) -> LoopStats {
    let start = Instant::now();
    let schedule = match pace {
        Pace::Open { per_second } => Some(OpenLoop::new(start, per_second)),
        Pace::Closed => None,
    };
    let mut stats = LoopStats::default();
    let mut engine = Duration::ZERO;
    let mut slept = Duration::ZERO;
    for k in 0u64.. {
        match until {
            Until::Ops(n) if k >= n => break,
            Until::Deadline(d) if schedule.map_or_else(Instant::now, |s| s.due(k)) >= d => break,
            _ => {}
        }
        let due = schedule.map(|s| {
            let before = Instant::now();
            let due = s.wait_for(k);
            slept += before.elapsed();
            due
        });
        let call = op(k);
        let service = call.done.saturating_duration_since(call.sent);
        engine += service;
        stats.service.push(service);
        stats.service_by_tracing[usize::from(!records_spans(k))].push(service);
        if let Some(due) = due {
            let s = open_sample(due, call.sent, call.done);
            stats.from_due.push(s.from_due);
            stats.late.push(s.late);
        }
        stats.ops += 1;
    }
    stats.wall = start.elapsed();
    stats.thread_time = stats.wall;
    stats.harness_busy = stats.wall.saturating_sub(engine + slept);
    stats
}

/// Outcome of an ingest phase.
#[derive(Default)]
pub struct IngestPhase {
    pub stats: LoopStats,
    pub ledger: Ledger,
    /// `VmHWM` when the producers reached the phase's memory mark (the
    /// largest reading, when several did); `None` without a mark or when
    /// no producer got that far.
    pub rss_at_mark_mb: Option<f64>,
}

/// `streams.len()` threads each feed their own [`BatchStream`] into
/// `LogStore::ingest`. `label` names the request span; the request id is
/// `producer << 32 | k`. With `rss_mark_batches`, each producer reads the
/// process's `VmHWM` after that many of its own batches — memory at a
/// fixed amount of work, whatever the speed.
#[allow(clippy::too_many_arguments)] // one call site per workload phase; a struct would only rename them
pub fn ingest_phase(
    ctx: &Ctx,
    store: &LogStore,
    label: &'static str,
    streams: &[Stream],
    first_ts: Timestamp,
    pace: Pace,
    until: Until,
    rss_mark_batches: Option<u64>,
    trace: &mut Trace,
) -> IngestPhase {
    assert!(streams.len() <= LOAD_THREADS, "at most {LOAD_THREADS} load threads");
    let results: Vec<(LoopStats, Ledger, Option<f64>, ThreadTrace)> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(p, &stream)| {
                scope.spawn(move || {
                    let mut tt = ThreadTrace::new(format!("{label}-{p}"), ctx.origin, ctx.tracing);
                    let mut batches = BatchStream::new(ctx.scale, ctx.seed, stream, first_ts);
                    let mut ledger = Ledger::default();
                    let mut rss_at_mark = None;
                    let stats = run_loop(pace, until, |k| {
                        let req = (p as u64) << 32 | k;
                        let root = tt.open(records_spans(k), label, req, None);
                        let batch = batches.next_batch();
                        let call =
                            timed_ingest(store, batch, &mut ledger, false, &mut tt, req, root);
                        tt.close(root);
                        if rss_mark_batches == Some(k + 1) {
                            rss_at_mark = Some(peak_rss_mb());
                        }
                        call
                    });
                    (stats, ledger, rss_at_mark, tt)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("producer thread panicked")).collect()
    });
    let mut phase = IngestPhase::default();
    for (stats, ledger, rss_at_mark, tt) in results {
        phase.stats.merge(stats);
        phase.ledger.merge(&ledger);
        phase.rss_at_mark_mb = match (phase.rss_at_mark_mb, rss_at_mark) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        trace.absorb(tt);
    }
    phase
}

/// Sums of the per-query diagnostics `QueryExecution` carries.
#[derive(Debug, Default, Clone)]
pub struct QueryTotals {
    pub blocks_pruned_by_map: u64,
    pub blocks_visited: u64,
    pub column_blocks_pruned: u64,
    pub column_blocks_scanned: u64,
    pub index_lookups: u64,
    pub rows_matched: u64,
    pub rows_decoded: u64,
    pub partial_bytes: u64,
    pub realtime_rows_scanned: u64,
    pub prefetch_errors: u64,
    pub stale_retries: u64,
    pub modelled_oss: Duration,
    pub wall: Duration,
}

impl QueryTotals {
    fn record(&mut self, exec: &QueryExecution) {
        self.blocks_pruned_by_map += exec.blocks_pruned_by_map;
        self.blocks_visited += exec.stats.blocks_visited;
        self.column_blocks_pruned += exec.stats.scan.blocks_pruned;
        self.column_blocks_scanned += exec.stats.scan.blocks_scanned;
        self.index_lookups += exec.stats.scan.index_lookups;
        self.rows_matched += exec.stats.scan.rows_matched;
        self.rows_decoded += exec.counters.decode.rows_decoded;
        self.partial_bytes += exec.counters.partial_bytes;
        self.realtime_rows_scanned += exec.stats.realtime_rows_scanned;
        self.prefetch_errors += exec.stats.prefetch_errors;
        self.stale_retries += exec.stale_retries;
        self.modelled_oss += exec.modelled_oss;
        self.wall += exec.wall;
    }

    fn merge(&mut self, o: &QueryTotals) {
        self.blocks_pruned_by_map += o.blocks_pruned_by_map;
        self.blocks_visited += o.blocks_visited;
        self.column_blocks_pruned += o.column_blocks_pruned;
        self.column_blocks_scanned += o.column_blocks_scanned;
        self.index_lookups += o.index_lookups;
        self.rows_matched += o.rows_matched;
        self.rows_decoded += o.rows_decoded;
        self.partial_bytes += o.partial_bytes;
        self.realtime_rows_scanned += o.realtime_rows_scanned;
        self.prefetch_errors += o.prefetch_errors;
        self.stale_retries += o.stale_retries;
        self.modelled_oss += o.modelled_oss;
        self.wall += o.wall;
    }
}

/// Outcome of a query phase.
#[derive(Default)]
pub struct QueryPhase {
    pub stats: LoopStats,
    pub by_template: [Samples; TEMPLATES],
    pub totals: QueryTotals,
    pub errors: u64,
    /// Re-executions of a query whose result differed from its first
    /// execution in this phase (only counted when `stable_results`).
    pub inconsistent: u64,
}

/// A cheap order-sensitive fingerprint of a result set (8 bytes per step),
/// used to check that re-executing a query over unchanged data gives the
/// same rows without keeping or hashing every byte.
pub fn fingerprint(result: &QueryResult) -> u64 {
    fn mix(h: u64, x: u64) -> u64 {
        (h ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29)
    }
    let mut h = mix(result.rows.len() as u64, result.columns.len() as u64);
    for row in &result.rows {
        for value in row {
            h = match value {
                Value::Str(s) => {
                    let mut h = mix(h, s.len() as u64);
                    for chunk in s.as_bytes().chunks(8) {
                        let mut word = [0u8; 8];
                        word[..chunk.len()].copy_from_slice(chunk);
                        h = mix(h, u64::from_le_bytes(word));
                    }
                    h
                }
                other => mix(
                    h,
                    other
                        .as_u64()
                        .or_else(|| other.as_i64().map(|i| i as u64))
                        .or_else(|| other.as_bool().map(u64::from))
                        .unwrap_or(0x6e75_6c6c),
                ),
            };
        }
    }
    h
}

/// `pickers.len()` client threads walk `queries` through
/// `LogStore::query_with_options` (default options). With
/// `stable_results` the data does not change during the phase, so every
/// re-execution of a query must reproduce its first result.
#[allow(clippy::too_many_arguments)] // as for ingest_phase
pub fn query_phase(
    ctx: &Ctx,
    store: &LogStore,
    queries: &[Vec<String>],
    label: &'static str,
    pickers: Vec<Picker>,
    pace: Pace,
    until: Until,
    stable_results: bool,
    trace: &mut Trace,
) -> QueryPhase {
    assert!(pickers.len() <= LOAD_THREADS, "at most {LOAD_THREADS} load threads");
    let options = QueryOptions::default();
    let results: Vec<(QueryPhase, ThreadTrace)> = std::thread::scope(|scope| {
        let handles: Vec<_> = pickers
            .into_iter()
            .enumerate()
            .map(|(c, mut picker)| {
                let options = &options;
                scope.spawn(move || {
                    let mut tt = ThreadTrace::new(format!("{label}-{c}"), ctx.origin, ctx.tracing);
                    let mut phase = QueryPhase::default();
                    let mut first_seen = vec![[None::<u64>; TEMPLATES]; queries.len()];
                    phase.stats = run_loop(pace, until, |k| {
                        let req = (c as u64) << 32 | k;
                        let root = tt.open(records_spans(k), label, req, None);
                        let (tenant, template) = picker.pick(k);
                        let sql = &queries[tenant][template];
                        let span =
                            tt.open(root.is_some(), "LogStore::query_with_options", req, root);
                        let sent = Instant::now();
                        let outcome = store.query_with_options(sql, options);
                        let done = Instant::now();
                        tt.close(span);
                        phase.by_template[template].push(done - sent);
                        match outcome {
                            Ok(exec) => {
                                phase.totals.record(&exec);
                                if stable_results {
                                    let print = fingerprint(&exec.result);
                                    match first_seen[tenant][template] {
                                        None => first_seen[tenant][template] = Some(print),
                                        Some(first) if first != print => phase.inconsistent += 1,
                                        Some(_) => {}
                                    }
                                }
                            }
                            Err(e) => {
                                if phase.errors == 0 {
                                    eprintln!("bench_e2e: query failed: {e}: {sql}");
                                }
                                phase.errors += 1;
                            }
                        }
                        tt.close(root);
                        Call { sent, done }
                    });
                    (phase, tt)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("query client panicked")).collect()
    });
    let mut phase = QueryPhase::default();
    for (p, tt) in results {
        phase.stats.merge(p.stats);
        for (mine, theirs) in phase.by_template.iter_mut().zip(p.by_template) {
            mine.merge(theirs);
        }
        phase.totals.merge(&p.totals);
        phase.errors += p.errors;
        phase.inconsistent += p.inconsistent;
        trace.absorb(tt);
    }
    phase
}

/// Untimed cache fill before a timed query phase: each load thread walks
/// every distinct query of `queries` once, half a lap apart, so each query
/// is fetched cold by one client and found warm by the other.
pub fn warm_up_queries(
    ctx: &Ctx,
    store: &LogStore,
    queries: &[Vec<String>],
    trace: &mut Trace,
) -> QueryPhase {
    query_phase(
        ctx,
        store,
        queries,
        "warm-up/query",
        (0..LOAD_THREADS).map(|c| Picker::cyclic(ctx.scale, c, LOAD_THREADS)).collect(),
        Pace::Closed,
        Until::Ops((queries.len() * TEMPLATES) as u64),
        false,
        trace,
    )
}
