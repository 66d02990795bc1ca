//! Where phase two's time goes: loads drain-sized histories and flushes
//! each, then prints the engine's archive stage timers
//! (`LogStore::metrics_snapshot`) next to the flushes' wall time; then
//! does the same for compaction.
//!
//! ```sh
//! cargo run --release --example archive_stages [flushes] [min coverage]
//! ```
//!
//! One worker with one durable shard (its WAL in a temporary directory),
//! so a flush is one drain on the calling thread — its intent encoded,
//! written and synced as every drain of a durable engine is — and the
//! stages (the wait for the shard's unsettled drain, drain, partition,
//! build `add` / `encode` / `finish`, upload wave, admit, commit, ack,
//! release) add up to the flush. OSS latency is
//! the OSS-like model, slept at time scale 1: a PUT round sleeps ≈ 25 ms.
//!
//! The compaction round then flushes a few small histories and runs one
//! `compact()`, which merges every tenant's LogBlocks (all under the
//! engine's small-block cut), and prints its stages (plan, fetch, decode,
//! build `add` / `encode` / `finish`, upload, swap) per rewritten row next
//! to `compact()`'s wall time. The merged blocks are PUT as one wave, as a
//! drain's are: each run is planned and built while the PUTs before it are
//! in flight, so `upload` is the wave's wall time beyond that work — about
//! one PUT round per pass, not one per run. With a minimum coverage, the
//! run fails when the flush stages or the compaction stages sum to less
//! than that share of their wall time.

use logstore::core::{ClusterConfig, LogStore};
use logstore::oss::LatencyModel;
use logstore::types::Timestamp;
use logstore::workload::{LogRecordGenerator, WorkloadSpec};
use std::time::{Duration, Instant};

/// Rows in one 4 MiB drain of generated records.
const DRAIN_ROWS: usize = 17_000;
/// Flushes timed unless the first argument says otherwise.
const ROUNDS: usize = 8;
/// Small flushes before the compaction round, and the rows of each.
const SMALL_FLUSHES: usize = 8;
const SMALL_ROWS: usize = 2_048;

/// The stages of one archive step, as labelled in the snapshot.
const STAGES: [&str; 11] = [
    "core.engine.settle_wait_ns",
    "core.engine.drain_ns",
    "core.databuilder.partition_ns",
    "core.databuilder.add_ns",
    "core.databuilder.encode_ns",
    "core.databuilder.finish_ns",
    "core.databuilder.upload_ns",
    "core.databuilder.admit_ns",
    "core.databuilder.commit_ns",
    "core.engine.ack_ns",
    "core.engine.release_ns",
];

/// The stages of one compaction pass.
const COMPACTION_STAGES: [&str; 8] = [
    "core.compactor.plan_ns",
    "core.compactor.fetch_ns",
    "core.compactor.decode_ns",
    "core.compactor.add_ns",
    "core.compactor.encode_ns",
    "core.compactor.finish_ns",
    "core.compactor.upload_ns",
    "core.compactor.swap_ns",
];

/// The `sum=` of histogram `label` in `snapshot`, in nanoseconds.
fn stage_sum(snapshot: &str, label: &str) -> u64 {
    snapshot
        .lines()
        .find_map(|line| line.strip_prefix(label)?.strip_prefix(' '))
        .and_then(|rest| rest.split(' ').find_map(|field| field.strip_prefix("sum=")))
        .and_then(|sum| sum.parse().ok())
        .unwrap_or(0)
}

/// Prints each of `stages` per row of `rows` beside `wall`, and returns
/// the share of `wall` the stages cover.
fn report(snapshot: &str, stages: &[&str], rows: f64, wall: Duration, wall_label: &str) -> f64 {
    let mut staged = 0;
    for label in stages {
        let sum = stage_sum(snapshot, label);
        staged += sum;
        println!("  {label:<28} {:>8.0} ns", sum as f64 / rows);
    }
    let wall = wall.as_nanos() as f64;
    println!("  {:<28} {:>8.0} ns", "stages, summed", staged as f64 / rows);
    println!("  {wall_label:<28} {:>8.0} ns", wall / rows);
    staged as f64 / wall
}

fn main() {
    let mut args = std::env::args().skip(1);
    let rounds = args.next().map_or(ROUNDS, |a| a.parse().expect("flushes: a number"));
    let min_coverage: Option<f64> = args.next().map(|a| a.parse().expect("a share"));
    let dir = std::env::temp_dir().join(format!("logstore-archive-stages-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = ClusterConfig::paper_like();
    config.data_dir = Some(dir.clone());
    config.workers = 1;
    config.shards_per_worker = 1;
    // Slept, not only modelled: the upload wave waits for its PUTs.
    config.oss_latency = LatencyModel::oss_like().with_time_scale(1.0);
    config.block_rows = 1024;
    config.max_rows_per_logblock = 65_536;
    // No threshold pass during the load: each flush drains one history.
    config.rowstore_flush_bytes = 32 << 20;
    config.prefetch_threads = 8;
    let store = LogStore::open(config).expect("open engine");
    let mut generator = LogRecordGenerator::new(7);
    let spec = WorkloadSpec::new(5, 0.99);
    let mut minute = 0;
    let mut flush = |rows: usize| {
        let start = Timestamp(1_600_000_000_000 + minute * 60_000);
        minute += 1;
        let rows = generator.history(&spec, rows, start, Timestamp(start.millis() + 60_000));
        for batch in rows.chunks(64) {
            store.ingest(batch.to_vec()).expect("ingest");
        }
        let flush = Instant::now();
        let report = store.flush().expect("flush");
        assert_eq!(report.rows_archived, rows.len() as u64);
        flush.elapsed()
    };
    let flush_wall: Duration = (0..rounds).map(|_| flush(DRAIN_ROWS)).sum();
    let snapshot = store.metrics_snapshot();
    print!("{snapshot}");
    println!("\nper archived row, {rounds} flushes of {DRAIN_ROWS} rows:");
    let rows = (rounds * DRAIN_ROWS) as f64;
    let coverage = report(&snapshot, &STAGES, rows, flush_wall, "flush wall time");
    println!("stages / flush wall = {coverage:.3}");

    for _ in 0..SMALL_FLUSHES {
        flush(SMALL_ROWS);
    }
    let compact = Instant::now();
    let merged = store.compact().expect("compact");
    let compact_wall = compact.elapsed();
    let snapshot = store.metrics_snapshot();
    println!(
        "\nper rewritten row, one compact() of {} blocks into {} ({} rows):",
        merged.blocks_merged, merged.runs_committed, merged.rows_rewritten
    );
    let rows = merged.rows_rewritten.max(1) as f64;
    let compaction =
        report(&snapshot, &COMPACTION_STAGES, rows, compact_wall, "compact() wall time");
    println!("stages / compact() wall = {compaction:.3}");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(min) = min_coverage {
        assert!(coverage >= min, "the stages cover {coverage:.3} of the flushes, under {min}");
        assert!(merged.rows_rewritten > 0, "the compaction round merged nothing");
        assert!(compaction >= min, "the stages cover {compaction:.3} of compact(), under {min}");
    }
}
