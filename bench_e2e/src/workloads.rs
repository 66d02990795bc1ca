//! The three workloads, and the one place every metric is computed from
//! what they measured.

use crate::check::{baseline_check, count_check, Expired};
use crate::config::{BATCH_ROWS, COLD_MAIN_SHARE, LOAD_THREADS, MAIN_SHARE};
use crate::dataset::{
    history_end, history_start, load_aged, query_set, Aged, Ledger, Picker, Stream,
};
use crate::metrics::Values;
use crate::phases::{
    ingest_phase, peak_rss_mb, query_phase, warm_up_queries, Ctx, Engine, IngestPhase, Pace,
    QueryPhase, Until,
};
use crate::stats::{coefficient_of_variation, Samples};
use crate::trace::{ThreadTrace, Trace};
use crate::{probes, WORKLOADS};
use logstore_cache::CacheStats;
use logstore_core::LogStore;
use logstore_flow::ControlAction;
use logstore_oss::OssMetrics;
use logstore_types::{TenantId, Timestamp};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What a workload hands back to `main`.
pub struct Outcome {
    /// Operations sent to the engine in the timed window and how many of
    /// them failed (rejected or failed ingest calls, failed queries).
    pub attempted: u64,
    pub failed: u64,
    /// Output-checker findings and broken workload assertions; any entry
    /// makes the run incorrect.
    pub problems: Vec<String>,
    /// Sample counts behind the timings, for the run's output.
    pub samples: String,
    pub values: Values,
    pub trace: Trace,
}

/// Engine counters at one instant.
#[derive(Clone)]
struct Snap {
    oss: OssMetrics,
    cache: CacheStats,
    retries: u64,
    /// Lifetime `(appended, archived)` rows per shard.
    shards: Vec<(u64, u64)>,
}

fn snap(store: &LogStore) -> Snap {
    let mut shards = Vec::new();
    for worker in store.shared().worker_snapshot() {
        for shard in worker.shard_ids() {
            shards.push(worker.shard_counters(shard).ok().flatten().unwrap_or((0, 0)));
        }
    }
    Snap {
        oss: store.oss_metrics(),
        cache: store.cache_stats(),
        retries: store.retry_metrics().retries,
        shards,
    }
}

/// `(bytes, rows)` buffered in the row stores, summed over every shard.
fn buffered(store: &LogStore) -> (u64, u64) {
    let (mut bytes, mut rows) = (0u64, 0u64);
    for worker in store.shared().worker_snapshot() {
        for shard in worker.shard_ids() {
            bytes += worker.buffered_bytes(shard).unwrap_or(0) as u64;
            rows += worker.buffered_rows(shard).unwrap_or(0) as u64;
        }
    }
    (bytes, rows)
}

/// Runs `f` while, in the traced run only, a sampler thread records the
/// row stores' buffered bytes four times a second; returns `f`'s result
/// and the largest sample (0 when not tracing).
fn with_buffer_sampler<T>(ctx: &Ctx, store: &LogStore, f: impl FnOnce() -> T) -> (T, u64) {
    if !ctx.tracing {
        return (f(), 0);
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut max = 0u64;
            while !stop.load(Ordering::Relaxed) {
                max = max.max(buffered(store).0);
                std::thread::sleep(Duration::from_millis(250));
            }
            max.max(buffered(store).0)
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        (out, sampler.join().expect("sampler thread panicked"))
    })
}

/// What the maintenance driver of `mixed` did.
#[derive(Default)]
struct Maintenance {
    cycles: u64,
    tick: Samples,
    rebalances: u64,
    expired_blocks: u64,
    compact_s: f64,
    gc_s: f64,
    blocks_merged: u64,
    bytes_rewritten: u64,
    compaction_puts: u64,
    gc_deleted: u64,
    runs_lost_races: u64,
    errors: Vec<String>,
}

/// Stands in for the scheduler the engine lacks: loops
/// `control_tick → expire(now) → compact → gc` with a pause until
/// `deadline`. Expiration runs before compaction on purpose — a merged
/// block spans its sources' whole time range, so once the oldest slice is
/// merged with its successors no retention cutoff can drop it.
fn maintenance_loop(
    ctx: &Ctx,
    store: &LogStore,
    now: Timestamp,
    deadline: Instant,
) -> (Maintenance, ThreadTrace) {
    let mut tt = ThreadTrace::new("maintenance", ctx.origin, ctx.tracing);
    let mut m = Maintenance::default();
    while Instant::now() < deadline {
        let req = m.cycles;
        let root = tt.open(true, "maintenance", req, None);
        let t = Instant::now();
        match tt.span("LogStore::control_tick", req, root, || store.control_tick()) {
            Ok(ControlAction::Rebalanced { .. }) => m.rebalances += 1,
            Ok(_) => {}
            Err(e) => m.errors.push(format!("control_tick: {e}")),
        }
        m.tick.push(t.elapsed());
        match tt.span("LogStore::expire", req, root, || store.expire(now)) {
            Ok(deleted) => m.expired_blocks += deleted,
            Err(e) => m.errors.push(format!("expire: {e}")),
        }
        let t = Instant::now();
        match tt.span("LogStore::compact", req, root, || store.compact()) {
            Ok(report) => {
                m.blocks_merged += report.blocks_merged;
                m.bytes_rewritten += report.bytes_uploaded;
                m.compaction_puts += report.runs_committed;
                m.runs_lost_races += report.runs_lost_races;
            }
            Err(e) => m.errors.push(format!("compact: {e}")),
        }
        m.compact_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let gc = tt.span("LogStore::gc", req, root, || store.gc());
        m.gc_s += t.elapsed().as_secs_f64();
        m.gc_deleted += gc.deleted;
        if gc.retained > 0 {
            m.errors.push(format!("gc retained {} tombstones", gc.retained));
        }
        tt.close(root);
        m.cycles += 1;
        if Instant::now() + ctx.scale.maintenance_pause >= deadline {
            break;
        }
        std::thread::sleep(ctx.scale.maintenance_pause);
    }
    (m, tt)
}

/// Everything one workload measured in its timed window.
struct Measured<'a> {
    setup: Duration,
    /// The engine as it is at the end of the timed window.
    store: &'a LogStore,
    ingest: IngestPhase,
    queries: QueryPhase,
    /// Counters around the whole timed window and around its query phase.
    window: (Snap, Snap),
    query_window: (Snap, Snap),
    /// Every row acknowledged since the engine was opened.
    lifetime: &'a Ledger,
    maintenance: Maintenance,
    buffered_bytes_max: u64,
    /// `mixed` only: its hot-read off-side and the OSS GETs made during it.
    hot: Option<(QueryPhase, u64)>,
}

fn ratio(n: f64, d: f64) -> f64 {
    if d == 0.0 {
        0.0
    } else {
        n / d
    }
}

/// Archived bytes on OSS per user byte of the archived rows, and per
/// archived row, from the billing meter (`tenant_usage`): per tenant, user
/// bytes are the generator's mean row size times the rows the meter says
/// are archived.
fn archived_bytes_per(store: &LogStore, lifetime: &Ledger) -> (f64, f64) {
    let (mut archived_bytes, mut archived_rows, mut user_bytes) = (0.0, 0.0, 0.0);
    for (tenant, l) in &lifetime.tenants {
        let usage = store.tenant_usage(*tenant);
        archived_bytes += usage.archived_bytes as f64;
        archived_rows += usage.archived_rows as f64;
        user_bytes += usage.archived_rows as f64 * ratio(l.bytes as f64, l.rows as f64);
    }
    (ratio(archived_bytes, user_bytes), ratio(archived_bytes, archived_rows))
}

/// Computes the metrics of sources (A) and (B) — counter deltas and
/// harness timings — from `m`: every end-to-end metric and every
/// per-layer metric except the WAL replay pair (set by the workload, which
/// knows whether it restarts the engine) and the layer probes.
fn measure(ctx: &Ctx, mut m: Measured) -> Result<Outcome, String> {
    let enforce = ctx.scale.enforce_percentile_support;
    let mut values = Values::default();
    let queries = m.queries.stats.ops as f64;
    let (bytes_ratio, bytes_per_row) = archived_bytes_per(m.store, m.lifetime);
    let acks = &mut m.ingest.stats;
    let asked = &mut m.queries.stats;

    values.set("setup_s", m.setup.as_secs_f64());
    values.set("ingest_rows_per_s", ratio(m.ingest.ledger.rows() as f64, acks.wall.as_secs_f64()));
    values.set("query_p95_ms", asked.service.supported_percentile("query", 95.0, enforce)?);
    values.set("queries_per_s", ratio(queries, asked.wall.as_secs_f64()));
    values.set("oss_bytes_per_user_byte", bytes_ratio);
    // Where the phase marked its memory at a fixed amount of work, that
    // reading is the metric: a faster engine must not look heavier only
    // because it got more rows in before the window closed.
    values.set("peak_rss_mb", m.ingest.rss_at_mark_mb.unwrap_or_else(peak_rss_mb));

    // flow / core.controller
    let shard_delta = |pick: fn(&(u64, u64)) -> u64| -> Vec<f64> {
        let (before, after) = (&m.window.0.shards, &m.window.1.shards);
        before.iter().zip(after).map(|(a, b)| pick(b).saturating_sub(pick(a)) as f64).collect()
    };
    values.set("flow.rejected_rows", m.ingest.ledger.rejected_rows as f64);
    values.set("flow.route_count", m.store.route_count() as f64);
    values.set("flow.shard_rows_cv", coefficient_of_variation(&shard_delta(|s| s.0)));
    values.set("core.controller.tick_ms", m.maintenance.tick.percentile(50.0));
    values.set("core.controller.rebalances", m.maintenance.rebalances as f64);
    values.set("core.controller.expired_blocks", m.maintenance.expired_blocks as f64);

    // core.broker
    values.set("core.broker.ack_p50_ms", acks.service.supported_percentile("ack", 50.0, enforce)?);
    values.set("core.broker.ack_p99_ms", acks.service.supported_percentile("ack", 99.0, enforce)?);
    values.set(
        "core.broker.ack_over_20ms_time_share",
        ratio(acks.service.time_at_or_above_s(20.0), acks.thread_time.as_secs_f64()),
    );
    values.set("core.worker.buffered_bytes_max", m.buffered_bytes_max as f64);

    // core.databuilder / logblock / index
    let run =
        |f: fn(&OssMetrics) -> u64| f(&m.window.1.oss).saturating_sub(f(&m.window.0.oss)) as f64;
    let puts = run(|o| o.put_requests);
    let blocks_built = (puts - m.maintenance.compaction_puts as f64).max(0.0);
    let archive = m.store.archive_stats();
    values.set("core.databuilder.blocks_built", blocks_built);
    values.set(
        "core.databuilder.rows_per_block",
        ratio(shard_delta(|s| s.1).iter().sum(), blocks_built),
    );
    values.set("core.databuilder.failed_passes", archive.failed_passes as f64);
    values.set("core.databuilder.rows_restored", archive.rows_restored as f64);
    values.set("logblock.bytes_per_row", bytes_per_row);
    values.set("index.lookups_per_query", ratio(m.queries.totals.index_lookups as f64, queries));

    // oss
    let gets_while_querying =
        m.query_window.1.oss.get_requests.saturating_sub(m.query_window.0.oss.get_requests);
    let archived_user_bytes = m.lifetime.bytes().saturating_sub(buffered(m.store).0) as f64;
    values.set("oss.puts", puts);
    values.set("oss.gets", run(|o| o.get_requests));
    values.set("oss.other_requests", run(|o| o.other_requests));
    values.set("oss.bytes_written", run(|o| o.bytes_written));
    values.set("oss.bytes_read", run(|o| o.bytes_read));
    values.set("oss.modelled_s", run(|o| o.modelled_time_ns) / 1e9);
    values.set("oss.gets_per_query", ratio(gets_while_querying as f64, queries));
    values.set(
        "oss.put_bytes_per_user_byte",
        ratio(m.store.oss_metrics().bytes_written as f64, archived_user_bytes),
    );
    values.set("oss.retries", m.window.1.retries.saturating_sub(m.window.0.retries) as f64);
    let t = &m.queries.totals;
    values.set(
        "oss.modelled_share_of_query_wall",
        ratio(t.modelled_oss.as_secs_f64(), t.wall.as_secs_f64()),
    );

    // cache
    let cache = m.query_window.1.cache.delta_since(&m.query_window.0.cache);
    values.set("cache.memory_hits_per_query", ratio(cache.memory_hits as f64, queries));
    values.set("cache.misses_per_query", ratio(cache.misses as f64, queries));
    values.set("cache.bytes_from_origin_per_query", ratio(cache.bytes_from_origin as f64, queries));
    values.set("cache.coalesced_gets", cache.coalesced_gets as f64);
    values.set("cache.singleflight_waits", cache.singleflight_waits as f64);
    values.set("cache.prefetch_errors", t.prefetch_errors as f64);

    // query
    values.set(
        "query.map_pruned_share",
        ratio(t.blocks_pruned_by_map as f64, (t.blocks_pruned_by_map + t.blocks_visited) as f64),
    );
    values.set(
        "query.column_blocks_pruned_share",
        ratio(
            t.column_blocks_pruned as f64,
            (t.column_blocks_pruned + t.column_blocks_scanned) as f64,
        ),
    );
    values.set("query.blocks_visited_per_query", ratio(t.blocks_visited as f64, queries));
    values.set("query.rows_decoded_per_query", ratio(t.rows_decoded as f64, queries));
    values.set(
        "query.rows_decoded_per_row_matched",
        ratio(t.rows_decoded as f64, t.rows_matched.max(1) as f64),
    );
    values.set("query.partial_bytes_per_query", ratio(t.partial_bytes as f64, queries));
    values.set(
        "query.realtime_rows_scanned_per_query",
        ratio(t.realtime_rows_scanned as f64, queries),
    );
    values.set("query.stale_retries", t.stale_retries as f64);
    values.set("query.p50_ms", asked.service.supported_percentile("query", 50.0, enforce)?);
    values.set("query.errors", m.queries.errors as f64);
    for (i, samples) in m.queries.by_template.iter_mut().enumerate() {
        let name = format!("query.t{}_p50_ms", i + 1);
        values.set(&name, samples.supported_percentile(&name, 50.0, enforce)?);
    }

    // hot: the warmed, CPU-bound read path (README "Demoted metrics")
    let (mut hot_ops, mut hot_errors, mut hot_inconsistent) = (0, 0, 0);
    match m.hot.as_mut() {
        Some((hot, gets)) => {
            let h = &mut hot.stats;
            values.set(
                "hot.query_p50_ms",
                h.service.supported_percentile("hot query", 50.0, enforce)?,
            );
            values.set(
                "hot.query_p95_ms",
                h.service.supported_percentile("hot query", 95.0, enforce)?,
            );
            values.set("hot.queries_per_s", ratio(h.ops as f64, h.wall.as_secs_f64()));
            values.set("hot.oss_gets_per_query", ratio(*gets as f64, h.ops as f64));
            (hot_ops, hot_errors, hot_inconsistent) = (h.ops, hot.errors, hot.inconsistent);
        }
        None => {
            for name in [
                "hot.query_p50_ms",
                "hot.query_p95_ms",
                "hot.queries_per_s",
                "hot.oss_gets_per_query",
            ] {
                values.set(name, 0.0);
            }
        }
    }

    // core.compactor
    values.set("core.compactor.cycles", m.maintenance.cycles as f64);
    values.set("core.compactor.compact_s", m.maintenance.compact_s);
    values.set("core.compactor.gc_s", m.maintenance.gc_s);
    values.set("core.compactor.blocks_merged", m.maintenance.blocks_merged as f64);
    values.set("core.compactor.bytes_rewritten", m.maintenance.bytes_rewritten as f64);
    values.set("core.compactor.gc_deleted", m.maintenance.gc_deleted as f64);
    values.set("core.compactor.runs_lost_races", m.maintenance.runs_lost_races as f64);
    values.set("core.compactor.block_count_end", m.store.block_count() as f64);
    values
        .set("core.compactor.tombstones_end", m.store.shared().metadata.tombstones().len() as f64);

    // tail / bench
    let from_due = if acks.from_due.len() > 0 { &mut acks.from_due } else { &mut acks.service };
    values.set(
        "tail.ack_p99_from_due_ms",
        from_due.supported_percentile("ack from due", 99.0, enforce)?,
    );
    let mut late = std::mem::take(&mut acks.late);
    late.merge(std::mem::take(&mut asked.late));
    values.set("bench.gen_late_p99_ms", late.percentile(99.0));
    let gen_cpu_share = ratio(
        (acks.harness_busy + asked.harness_busy).as_secs_f64(),
        (acks.thread_time + asked.thread_time).as_secs_f64(),
    );
    values.set("bench.gen_cpu_share", gen_cpu_share);
    // Half of the operations record spans in the traced run, the other
    // half never does: the difference of their median service times is
    // what tracing costs an operation. Taken on the loop with more
    // operations, where the two medians are known best.
    let service = if acks.ops >= asked.ops {
        &mut acks.service_by_tracing
    } else {
        &mut asked.service_by_tracing
    };
    let (traced, plain) = (service[0].percentile(50.0), service[1].percentile(50.0));
    values.set("bench.trace_overhead_share", ratio(traced - plain, plain));
    let attempted = acks.ops + asked.ops + hot_ops;
    let failed = m.ingest.ledger.failed_calls + m.queries.errors + hot_errors;
    values.set("bench.failed_share", ratio(failed as f64, attempted as f64));

    let mut problems = std::mem::take(&mut m.maintenance.errors);
    if gen_cpu_share >= 0.10 {
        problems.push(format!(
            "bench.gen_cpu_share = {gen_cpu_share:.3}: the load threads spent 10 % or more of \
             their time in the harness, so the generator, not the engine, limits the numbers"
        ));
    }
    if m.queries.inconsistent + hot_inconsistent > 0 {
        problems.push(format!(
            "{} query re-executions over unchanged data returned different rows",
            m.queries.inconsistent + hot_inconsistent
        ));
    }
    let samples = format!(
        "acks={} (due-time accounted: {}), queries={}, hot queries={}, maintenance cycles={}",
        acks.ops,
        acks.from_due.len(),
        asked.ops,
        hot_ops,
        m.maintenance.cycles
    );
    Ok(Outcome { attempted, failed, problems, samples, values, trace: Trace::default() })
}

fn seconds(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}

const PRODUCERS: [Stream; LOAD_THREADS] = [Stream::Producer(0), Stream::Producer(1)];

/// `ingest_sat`: two closed-loop producers saturate an engine that holds
/// the aged data. Its off-side runs first — two closed-loop clients read
/// the aged data cold, exactly as `query_cold` does — so that the query
/// metrics do not depend on how many rows the main loop manages to write.
/// Afterwards the engine is dropped without a flush, reopened from its
/// WAL, and every tenant's `COUNT(*)` must equal what was acknowledged.
fn ingest_sat(ctx: &Ctx) -> Result<Outcome, String> {
    let scale = ctx.scale;
    let Prepared { engine, aged, queries, setup, mut trace, mut tt } =
        prepare(ctx, "ingest_sat", scale.cold_cache_bytes, 0, false)?;
    let store = &engine.store;
    let before = snap(store);
    let off_deadline = Instant::now() + seconds(ctx.seconds * (1.0 - MAIN_SHARE));
    let asked = query_phase(
        ctx,
        store,
        &queries,
        "ingest_sat/query",
        (0..LOAD_THREADS).map(|c| Picker::cyclic(scale, c, LOAD_THREADS)).collect(),
        Pace::Closed,
        Until::Deadline(off_deadline),
        true,
        &mut trace,
    );
    let query_after = snap(store);

    let main_deadline = Instant::now() + seconds(ctx.seconds * MAIN_SHARE);
    let (main, buffered_bytes_max) = with_buffer_sampler(ctx, store, || {
        ingest_phase(
            ctx,
            store,
            "ingest_sat/ack",
            &PRODUCERS,
            history_end(),
            Pace::Closed,
            Until::Deadline(main_deadline),
            Some(scale.rss_mark_batches),
            &mut trace,
        )
    });
    let after = snap(store);

    let mut lifetime = aged.ledger;
    lifetime.merge(&main.ledger);
    let mut outcome = measure(
        ctx,
        Measured {
            setup,
            store,
            ingest: main,
            queries: asked,
            window: (before.clone(), after),
            query_window: (before, query_after),
            lifetime: &lifetime,
            maintenance: Maintenance::default(),
            buffered_bytes_max,
            hot: None,
        },
    )?;

    // The checker: restart from the WAL alone, then count.
    let root = tt.open(true, "check", 0, None);
    let restart = Instant::now();
    let engine = tt.span("LogStore::open_with (reopen)", 0, root, || {
        engine.reopen(scale, scale.hot_cache_bytes)
    })?;
    outcome.values.set("wal.replay_s", restart.elapsed().as_secs_f64());
    outcome.values.set("wal.replay_rows", buffered(&engine.store).1 as f64);
    outcome.problems.extend(count_check(&engine.store, &lifetime, None, &mut tt, root));
    tt.close(root);

    finish(ctx, &engine.store, &queries, outcome, trace, tt)
}

/// A workload at the start of its timed window: the engine holding the
/// aged data, what was loaded, the query set, and the spans so far.
struct Prepared {
    engine: Engine,
    aged: Aged,
    queries: Vec<Vec<String>>,
    /// `setup_s`: from opening the engine to here.
    setup: Duration,
    trace: Trace,
    tt: ThreadTrace,
}

/// The set-up every workload shares: opens an engine with `cache_bytes` of
/// block cache, loads `aged`, builds the query set over the history plus
/// `fresh_ms` of rows still to come, and with `warm_cache` runs every
/// distinct query once.
fn prepare(
    ctx: &Ctx,
    label: &str,
    cache_bytes: usize,
    fresh_ms: i64,
    warm_cache: bool,
) -> Result<Prepared, String> {
    let mut trace = Trace::default();
    let mut tt = ThreadTrace::new("main", ctx.origin, ctx.tracing);
    let started = Instant::now();
    let root = tt.open(true, "setup", 0, None);
    let engine =
        tt.span("LogStore::open", 0, root, || Engine::open(ctx.scale, label, cache_bytes))?;
    let aged = load_aged(&engine.store, ctx.scale, ctx.seed, &mut tt, root)?;
    let end = Timestamp(history_end().millis() + fresh_ms);
    let queries = query_set(ctx.scale, ctx.seed, history_start(), end);
    if warm_cache {
        warm_up_queries(ctx, &engine.store, &queries, &mut trace);
    }
    tt.close(root);
    Ok(Prepared { engine, aged, queries, setup: started.elapsed(), trace, tt })
}

/// `query_cold`: the cache holds a fraction of the data and two closed-loop
/// clients visit the tenants cyclically, so LRU cannot help and every query
/// waits for OSS; then (off-side) one open-loop producer ingests fresh rows
/// beside the aged data.
fn query_cold(ctx: &Ctx) -> Result<Outcome, String> {
    let scale = ctx.scale;
    let Prepared { engine, aged, queries, setup, mut trace, mut tt } =
        prepare(ctx, "query_cold", scale.cold_cache_bytes, 0, false)?;
    let store = &engine.store;

    let before = snap(store);
    let main_deadline = Instant::now() + seconds(ctx.seconds * COLD_MAIN_SHARE);
    let asked = query_phase(
        ctx,
        store,
        &queries,
        "query_cold/query",
        (0..LOAD_THREADS).map(|c| Picker::cyclic(scale, c, LOAD_THREADS)).collect(),
        Pace::Closed,
        Until::Deadline(main_deadline),
        true,
        &mut trace,
    );
    let query_after = snap(store);

    // Off-side: fresh rows arrive on a schedule well below capacity.
    let off_deadline = Instant::now() + seconds(ctx.seconds * (1.0 - COLD_MAIN_SHARE));
    let (fresh, buffered_bytes_max) = with_buffer_sampler(ctx, store, || {
        ingest_phase(
            ctx,
            store,
            "query_cold/ack",
            &[Stream::OpenIngest],
            history_end(),
            Pace::Open { per_second: scale.open_batches_per_s },
            Until::Deadline(off_deadline),
            None,
            &mut trace,
        )
    });
    let after = snap(store);

    let mut lifetime = aged.ledger;
    lifetime.merge(&fresh.ledger);
    let mut outcome = measure(
        ctx,
        Measured {
            setup,
            store,
            ingest: fresh,
            queries: asked,
            window: (before.clone(), after),
            query_window: (before, query_after),
            lifetime: &lifetime,
            maintenance: Maintenance::default(),
            buffered_bytes_max,
            hot: None,
        },
    )?;

    // The workload's reason to exist: OSS does the work.
    let gets = outcome.values.get("oss.gets_per_query").unwrap_or(0.0);
    if gets <= 1.0 {
        outcome.problems.push(format!("query_cold: oss.gets_per_query = {gets:.3}, must exceed 1"));
    }

    let root = tt.open(true, "check", 0, None);
    outcome.problems.extend(baseline_check(store, scale, ctx.seed, &queries, &mut tt, root));
    outcome.problems.extend(count_check(store, &lifetime, None, &mut tt, root));
    tt.close(root);

    finish(ctx, store, &queries, outcome, trace, tt)
}

/// `mixed`: over the aged data, one open-loop producer and one open-loop
/// query client run while a third thread drives maintenance; the last
/// `retention_tenants` tenants expire their oldest slice during the run.
/// Its off-side runs first, while the data is still only the aged set: two
/// closed-loop clients read from the warmed cache (Zipfian tenants) — the
/// CPU side of the read path, reported per-layer as `hot.*`.
fn mixed(ctx: &Ctx) -> Result<Outcome, String> {
    let scale = ctx.scale;
    let main_seconds = ctx.seconds * MAIN_SHARE;
    // Fresh rows advance one millisecond each, so the run's fresh window
    // is its row count in milliseconds.
    let fresh_ms =
        (scale.open_batches_per_s as f64 * BATCH_ROWS as f64 * main_seconds).ceil() as i64;
    let Prepared { engine, aged, queries, setup, mut trace, mut tt } =
        prepare(ctx, "mixed", scale.hot_cache_bytes, fresh_ms, true)?;
    let store = &engine.store;

    let hot_before = store.oss_metrics().get_requests;
    let hot_deadline = Instant::now() + seconds(ctx.seconds - main_seconds);
    let hot = query_phase(
        ctx,
        store,
        &queries,
        "mixed/hot-query",
        (0..LOAD_THREADS).map(|c| Picker::zipfian(scale, ctx.seed, c)).collect(),
        Pace::Closed,
        Until::Deadline(hot_deadline),
        true,
        &mut trace,
    );
    let hot_gets = store.oss_metrics().get_requests.saturating_sub(hot_before);

    // Retention that, as of the end of the fresh window, has just passed
    // the oldest slice: exactly that slice's LogBlocks expire.
    let now = Timestamp(history_end().millis() + fresh_ms);
    let expired = Expired {
        tenants: (scale.tenants - scale.retention_tenants + 1)..=scale.tenants,
        cutoff: aged.oldest_slice_end,
    };
    for tenant in expired.tenants.clone() {
        store.set_retention(TenantId(tenant), Some(now.millis() - expired.cutoff.millis() - 1));
    }

    let before = snap(store);
    let deadline = Instant::now() + seconds(main_seconds);
    let queries_ref = &queries;
    let ((fresh, asked, (maintenance, maintenance_trace)), buffered_bytes_max) =
        with_buffer_sampler(ctx, store, || {
            std::thread::scope(|scope| {
                let producer = scope.spawn(move || {
                    let mut spans = Trace::default();
                    let phase = ingest_phase(
                        ctx,
                        store,
                        "mixed/ack",
                        &[Stream::OpenIngest],
                        history_end(),
                        Pace::Open { per_second: scale.open_batches_per_s },
                        Until::Deadline(deadline),
                        None,
                        &mut spans,
                    );
                    (phase, spans)
                });
                let client = scope.spawn(move || {
                    let mut spans = Trace::default();
                    let phase = query_phase(
                        ctx,
                        store,
                        queries_ref,
                        "mixed/query",
                        // Its own stream; 0 and 1 are the hot read's.
                        vec![Picker::zipfian(scale, ctx.seed, LOAD_THREADS)],
                        Pace::Open { per_second: scale.open_queries_per_s },
                        Until::Deadline(deadline),
                        false,
                        &mut spans,
                    );
                    (phase, spans)
                });
                let driver = scope.spawn(move || maintenance_loop(ctx, store, now, deadline));
                let (fresh, ingest_spans) = producer.join().expect("mixed producer panicked");
                let (asked, query_spans) = client.join().expect("mixed query client panicked");
                trace.merge(ingest_spans);
                trace.merge(query_spans);
                (fresh, asked, driver.join().expect("maintenance driver panicked"))
            })
        });
    trace.absorb(maintenance_trace);
    let after = snap(store);
    let cycles = maintenance.cycles;

    let mut lifetime = aged.ledger;
    lifetime.merge(&fresh.ledger);
    // Everything acknowledged must be on OSS before the storage ratio and
    // the counts are taken.
    let root = tt.open(true, "check", 0, None);
    let flushed = tt.span("LogStore::flush", 0, root, || store.flush());
    let mut outcome = measure(
        ctx,
        Measured {
            setup,
            store,
            ingest: fresh,
            queries: asked,
            window: (before.clone(), after.clone()),
            query_window: (before, after),
            lifetime: &lifetime,
            maintenance,
            buffered_bytes_max,
            hot: Some((hot, hot_gets)),
        },
    )?;
    // The off-side's reason to exist: the cache serves it, OSS is idle.
    let hot_gets = outcome.values.get("hot.oss_gets_per_query").unwrap_or(0.0);
    if hot_gets >= 0.05 {
        outcome
            .problems
            .push(format!("mixed: hot.oss_gets_per_query = {hot_gets:.3}, must stay below 0.05"));
    }
    if let Err(e) = flushed {
        outcome.problems.push(format!("final flush: {e}"));
    }
    if cycles < 3 && scale.enforce_percentile_support {
        outcome
            .problems
            .push(format!("mixed: {cycles} maintenance cycles completed, need at least 3"));
    }
    outcome.problems.extend(count_check(store, &lifetime, Some(&expired), &mut tt, root));
    tt.close(root);

    finish(ctx, store, &queries, outcome, trace, tt)
}

/// Shared tail of every workload: the layer probes (traced run only) and
/// the hand-over of the spans to `main`.
fn finish(
    ctx: &Ctx,
    store: &LogStore,
    queries: &[Vec<String>],
    mut outcome: Outcome,
    mut trace: Trace,
    mut tt: ThreadTrace,
) -> Result<Outcome, String> {
    // Only `ingest_sat` restarts its engine.
    if outcome.values.get("wal.replay_s").is_none() {
        outcome.values.set("wal.replay_s", 0.0);
        outcome.values.set("wal.replay_rows", 0.0);
    }
    if ctx.tracing {
        tt.span("layer probes", 0, None, || {
            probes::run(store, ctx.scale, ctx.seed, queries, &mut outcome.values)
        })?;
    }
    trace.absorb(tt);
    outcome.trace = trace;
    Ok(outcome)
}

pub fn run(ctx: &Ctx, workload: &str) -> Result<Outcome, String> {
    match workload {
        "ingest_sat" => ingest_sat(ctx),
        "query_cold" => query_cold(ctx),
        "mixed" => mixed(ctx),
        other => Err(format!("unknown workload '{other}' (expected one of {WORKLOADS:?})")),
    }
}
