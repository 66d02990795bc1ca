//! Storage cost: raw log bytes vs packed LogBlock bytes per codec.
//!
//! The paper motivates the shared-data design with storage cost: OSS is
//! cheap per byte and LogBlocks are "read-optimized ... with a high
//! compression rate", ZSTD chosen as the default *because* "the compression
//! ratio is preferred in LogStore to reduce the amount of data transmitted
//! over the network". This harness quantifies that trade-off on a
//! realistic log corpus, including the cost of the full-column indexes
//! ("the extra space cost of the index is acceptable after using OSS").

use logstore_bench::print_table;
use logstore_codec::Compression;
use logstore_logblock::column::whole_batch;
use logstore_logblock::pack::PackManifest;
use logstore_logblock::LogBlockBuilder;
use logstore_types::{TableSchema, Timestamp};
use logstore_wal::Run;
use logstore_workload::{LogRecordGenerator, WorkloadSpec};

fn main() {
    let rows = 50_000usize;
    let spec = WorkloadSpec::new(1, 0.0); // one tenant: one LogBlock
    let mut gen = LogRecordGenerator::new(5);
    let history = gen.history(&spec, rows, Timestamp(0), Timestamp(3_600_000));
    let raw_bytes: usize = history.iter().map(|r| r.approx_size()).sum();
    println!(
        "{rows} rows of request_log, {:.1} MiB raw (in-memory row-store size)",
        raw_bytes as f64 / (1 << 20) as f64
    );

    // The rows as the column batch a drain hands the builder.
    let batch = Run::from_rows(&TableSchema::request_log(), &history);
    let selection = whole_batch(rows);
    let mut table = Vec::new();
    for codec in [Compression::None, Compression::LzFast, Compression::LzHigh] {
        let mut builder = LogBlockBuilder::with_options(TableSchema::request_log(), codec, 4096);
        let wall = std::time::Instant::now();
        builder.add(&[batch.columns()], &selection).expect("rows of the schema");
        let bytes = builder.finish().expect("finish");
        let secs = wall.elapsed().as_secs_f64();
        let pack = PackManifest::read(&bytes).expect("reopen");
        let index_bytes: u64 =
            pack.members().iter().filter(|m| m.name.starts_with("index.")).map(|m| m.len).sum();
        let data_bytes: u64 =
            pack.members().iter().filter(|m| m.name.starts_with("col.")).map(|m| m.len).sum();
        table.push(vec![
            codec.to_string(),
            format!("{:.2}", bytes.len() as f64 / (1 << 20) as f64),
            format!("{:.2}x", raw_bytes as f64 / bytes.len() as f64),
            format!("{:.2}", data_bytes as f64 / (1 << 20) as f64),
            format!("{:.2}", index_bytes as f64 / (1 << 20) as f64),
            format!("{:.1}%", index_bytes as f64 / bytes.len() as f64 * 100.0),
            format!("{:.0}k rows/s", rows as f64 / secs / 1000.0),
        ]);
    }
    print_table(
        "Storage cost per codec (one LogBlock, full-column indexes included)",
        &["codec", "packed MiB", "vs raw", "column MiB", "index MiB", "index share", "build rate"],
        &table,
    );
    println!(
        "\npaper check: the high-ratio codec ('ZSTD', our lz-high) is the default; \
         the index overhead is the price of 'Full-column indexed and Skippable', \
         deemed acceptable on cheap object storage."
    );
}
