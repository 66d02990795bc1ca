//! Where a saturated producer's time goes: two producers ingest
//! pre-generated 64-row batches as fast as they can, then the engine's
//! ingest and archive stage timers (`LogStore::metrics_snapshot`) are
//! printed next to the producers' own wall time inside `LogStore::ingest`.
//!
//! ```sh
//! cargo run --release --example ingest_stages [rows per producer] [min coverage]
//! ```
//!
//! The engine is the end-to-end benchmark's: 4 workers × 2 shards, a
//! durable WAL in a temporary directory, the OSS-like latency model slept
//! at time scale 1 (a PUT round ≈ 25 ms) and a 4 MiB flush threshold, so
//! the threshold passes that `ingest` runs take shards on the producers —
//! wait for the shard's unsettled drain, drain and build — as under
//! `ingest_sat`, and settle them — upload,
//! admit, commit, ack, release — on the engine's settle pool. Every stage
//! is timed on the thread that ran it, so the ingest and take stages add
//! up to the producers' wall time; what is left over is the untimed glue
//! between them. The settle stages are printed apart, per archived row.
//! With a minimum coverage, the run fails when the producers' stages sum
//! to less than that share of their wall time.
//!
//! Last come the WAL's bytes on disk — the largest shard's and the sum of
//! the `.log` files under the data directory — once the producers stop and
//! again after a final forced flush.

use logstore::core::{ClusterConfig, LogStore};
use logstore::oss::LatencyModel;
use logstore::types::Timestamp;
use logstore::workload::{LogRecordGenerator, WorkloadSpec};
use std::path::Path;
use std::time::{Duration, Instant};

/// Rows each producer ingests unless the first argument says otherwise.
const ROWS_PER_PRODUCER: usize = 300_000;
const PRODUCERS: usize = 2;
const BATCH_ROWS: usize = 64;

/// One sub-batch's phase-one write, and the broker's routing of a request.
const INGEST: [&str; 6] = [
    "core.broker.route_ns",
    "core.worker.admit_ns",
    "core.worker.encode_ns",
    "core.worker.wal_ns",
    "core.worker.apply_ns",
    "core.worker.window_ns",
];

/// The stages of an archive step's take, on the producer.
const TAKE: [&str; 6] = [
    "core.engine.settle_wait_ns",
    "core.engine.drain_ns",
    "core.databuilder.partition_ns",
    "core.databuilder.add_ns",
    "core.databuilder.encode_ns",
    "core.databuilder.finish_ns",
];

/// The stages of its settle, on the settle pool.
const SETTLE: [&str; 5] = [
    "core.databuilder.upload_ns",
    "core.databuilder.admit_ns",
    "core.databuilder.commit_ns",
    "core.engine.ack_ns",
    "core.engine.release_ns",
];

/// Field `key=` of metric `label` in `snapshot` (a counter's value for an
/// empty key).
fn field(snapshot: &str, label: &str, key: &str) -> u64 {
    let rest = snapshot.lines().find_map(|line| line.strip_prefix(label)?.strip_prefix(' '));
    let value = match key {
        "" => rest,
        key => rest.and_then(|rest| rest.split(' ').find_map(|f| f.strip_prefix(key))),
    };
    value.and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// The largest shard's WAL bytes and the sum over every shard: the sizes
/// of the `.log` files in each `worker-*/shard-*` directory under `dir`.
fn wal_bytes(dir: &Path) -> (u64, u64) {
    let entries = |dir: &Path| std::fs::read_dir(dir).expect("list a data directory");
    let shards = entries(dir).flat_map(|worker| entries(&worker.expect("a worker").path()));
    let per_shard = shards.map(|shard| {
        let files = entries(&shard.expect("a shard").path()).map(|f| f.expect("a file").path());
        let logs = files.filter(|f| f.extension().is_some_and(|ext| ext == "log"));
        logs.map(|f| f.metadata().expect("a segment").len()).sum::<u64>()
    });
    per_shard.fold((0, 0), |(max, sum), bytes| (max.max(bytes), sum + bytes))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let rows_per_producer =
        args.next().map_or(ROWS_PER_PRODUCER, |a| a.parse().expect("rows per producer: a number"));
    let min_coverage: Option<f64> = args.next().map(|a| a.parse().expect("a share"));
    let dir = std::env::temp_dir().join(format!("logstore-ingest-stages-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = ClusterConfig::paper_like();
    config.workers = 4;
    config.shards_per_worker = 2;
    config.oss_latency = LatencyModel::oss_like().with_time_scale(1.0);
    config.data_dir = Some(dir.clone());
    config.rowstore_flush_bytes = 4 << 20;
    config.block_rows = 1024;
    config.max_rows_per_logblock = 65_536;
    config.query_threads = 4;
    config.prefetch_threads = 8;
    let store = LogStore::open(config).expect("open engine");

    // Each producer generates every batch right before it ingests it, as a
    // closed-loop client does, and outside the time it books: the
    // producers' time is the engine's, and every record is allocated by the
    // producer that ingests it, as under `ingest_sat`.
    let spec = WorkloadSpec::new(40, 0.99);
    let walls: Vec<Duration> = std::thread::scope(|scope| {
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let (store, spec) = (&store, &spec);
                scope.spawn(move || {
                    let mut generator = LogRecordGenerator::new(11 + p as u64);
                    let mut ts = 1_700_000_000_000 + p as i64 * 10_000_000_000;
                    let mut wall = Duration::ZERO;
                    for _ in 0..rows_per_producer / BATCH_ROWS {
                        let end = Timestamp(ts + BATCH_ROWS as i64);
                        let batch = generator.history(spec, BATCH_ROWS, Timestamp(ts), end);
                        ts = end.millis();
                        let start = Instant::now();
                        let report = store.ingest(batch).expect("ingest");
                        wall += start.elapsed();
                        assert_eq!((report.rejected, report.failed), (0, 0), "{report:?}");
                    }
                    wall
                })
            })
            .collect();
        producers.into_iter().map(|p| p.join().expect("producer")).collect()
    });

    let snapshot = store.metrics_snapshot();
    print!("{snapshot}");
    let ingested = field(&snapshot, "core.worker.rows", "") as f64;
    let archived = field(&snapshot, "core.databuilder.rows", "") as f64;
    println!("\n{PRODUCERS} producers, {ingested} rows ingested, {archived} archived");
    println!("ingest stages, ns per ingested row:");
    let mut ingest = 0;
    for label in INGEST {
        let sum = field(&snapshot, label, "sum=");
        ingest += sum;
        println!("  {label:<30} {:>8.0}", sum as f64 / ingested);
    }
    let stages = |title: &str, labels: &[&str]| {
        println!("{title}, ns per archived row:");
        let mut total = 0;
        for label in labels {
            let sum = field(&snapshot, label, "sum=");
            total += sum;
            println!("  {label:<30} {:>8.0}", sum as f64 / archived.max(1.0));
        }
        println!("  {:<30} {:>8.0}", "summed", total as f64 / archived.max(1.0));
        total
    };
    let take = stages("take stages (on the producers)", &TAKE);
    let settle = stages("settle stages (on the settle pool)", &SETTLE);
    let wall: u128 = walls.iter().map(Duration::as_nanos).sum();
    let staged = ingest + take;
    println!("per ingested row:");
    println!("  {:<30} {:>8.0}", "ingest stages", ingest as f64 / ingested);
    println!("  {:<30} {:>8.0}", "take stages", take as f64 / ingested);
    println!("  {:<30} {:>8.0}", "producers' wall time", wall as f64 / ingested);
    println!("  {:<30} {:>8.0}", "settle stages, off them", settle as f64 / ingested);
    let coverage = staged as f64 / wall as f64;
    println!("producers' stages / producers' wall = {coverage:.3}");
    let due = |key| field(&snapshot, "core.engine.workers_due", key);
    println!(
        "threshold passes {}, workers found due in them {}, most in one pass <= {}",
        due("count="),
        due("sum="),
        due("max<="),
    );
    let wal = |when: &str| {
        let (max, sum) = wal_bytes(&dir);
        println!("WAL bytes {when}: largest shard {max}, all shards {sum}");
    };
    wal("after the producers stop");
    store.flush().expect("final flush");
    wal("after the final forced flush");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(min) = min_coverage {
        assert!(coverage >= min, "the stages cover {coverage:.3} of the producers, under {min}");
    }
}
