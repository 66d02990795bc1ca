//! Storage cost: raw log bytes vs packed LogBlock bytes, per codec, per
//! column and per pack member.
//!
//! The paper motivates the shared-data design with storage cost: OSS is
//! cheap per byte and LogBlocks are "read-optimized ... with a high
//! compression rate", ZSTD chosen as the default *because* "the compression
//! ratio is preferred in LogStore to reduce the amount of data transmitted
//! over the network". This harness quantifies that trade-off on a
//! realistic log corpus, including the cost of the full-column indexes
//! ("the extra space cost of the index is acceptable after using OSS").
//!
//! It prints two shapes:
//!
//! 1. **One LogBlock**: 50 000 rows of one tenant, built at each codec;
//!    packed size, column and index totals, then each column's members —
//!    `col.N` at every codec, `index.N` (dictionary) and `index.N.data`
//!    (postings / leaves), whose bytes no codec touches.
//! 2. **The benchmark's aged shape** (`bench_e2e`'s `aged` load): 40
//!    Zipfian tenants (θ 0.99), 160 000 rows over 48 h, loaded in 3 time
//!    slices. Each slice is drained as the engine drains it
//!    (`partition_runs`: per-tenant, ts-sorted chunks of at most 65 536
//!    rows), and each chunk is built through `LogBlockBuilder::add` at
//!    `block_rows` 1 024, LZ-high. The member table sums every block, and
//!    says in how many blocks each column carried an index. Beside it, one
//!    compaction merge of two drains whose time ranges overlap (the
//!    hottest tenant's first slice split row by row between two shards),
//!    rebuilt the way the compactor rebuilds: each source decoded one
//!    column block at a time and added whole.
//!
//! The aged shape's packed bytes per raw byte (raw: `LogRecord::approx_size`,
//! the benchmark's "user bytes") is the storage half of `bench_e2e`'s
//! `oss_bytes_per_user_byte`.
//!
//! ```text
//! cargo run --release -p logstore-bench --bin storage_cost [-- --budget <file>]
//! ```
//!
//! With `--budget <file>` it exits 1 when the aged shape's bytes per raw
//! byte exceed the number in `<file>` (its first line that is not a `#`
//! comment).

use logstore_bench::print_table;
use logstore_codec::Compression;
use logstore_logblock::column::whole_batch;
use logstore_logblock::meta::{col_member, index_data_member, index_member, META_MEMBER};
use logstore_logblock::{ColumnVec, LogBlockBuilder, LogBlockHandle, LogBlockReader};
use logstore_types::{LogRecord, TableSchema, Timestamp};
use logstore_wal::{partition_runs, Run};
use logstore_workload::{LogRecordGenerator, WorkloadSpec};
use std::process::ExitCode;
use std::sync::Arc;

/// The aged shape's parameters (`bench_e2e`'s full scale and engine).
const AGED_TENANTS: u64 = 40;
const AGED_THETA: f64 = 0.99;
const AGED_ROWS: usize = 160_000;
const AGED_SLICES: usize = 3;
const AGED_SPAN_MS: i64 = 48 * 3_600_000;
const AGED_BLOCK_ROWS: usize = 1024;
const AGED_MAX_ROWS_PER_BLOCK: usize = 65_536;

/// One column's members in one or more LogBlocks.
#[derive(Debug, Default, Clone)]
struct ColumnCost {
    /// Blocks whose meta names an index for the column, and its kind.
    indexed: usize,
    kind: String,
    dict: u64,
    data: u64,
    col: u64,
}

/// What one or more packed LogBlocks spend, by column and member.
#[derive(Debug, Default)]
struct Cost {
    blocks: usize,
    packed: u64,
    meta: u64,
    columns: Vec<ColumnCost>,
}

impl Cost {
    fn add(&mut self, bytes: &Vec<u8>) {
        let handle = LogBlockHandle::open(bytes).expect("a built block opens");
        let manifest = handle.manifest();
        let len = |name: &str| manifest.entry(name).map_or(0, |m| m.len);
        self.columns.resize(handle.meta().columns.len(), ColumnCost::default());
        for (col, (cost, cm)) in self.columns.iter_mut().zip(&handle.meta().columns).enumerate() {
            let (dict, data) = (len(&index_member(col)), len(&index_data_member(col)));
            if dict + data > 0 {
                cost.indexed += 1;
                cost.kind = format!("{:?}", cm.index);
            }
            cost.dict += dict;
            cost.data += data;
            cost.col += len(&col_member(col));
        }
        self.blocks += 1;
        self.meta += len(META_MEMBER);
        self.packed += bytes.len() as u64;
    }

    fn index(&self) -> u64 {
        self.columns.iter().map(|c| c.dict + c.data).sum()
    }

    fn data(&self) -> u64 {
        self.columns.iter().map(|c| c.col).sum()
    }
}

fn mib(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1 << 20) as f64)
}

fn pct(part: u64, whole: u64) -> String {
    format!("{:.1}%", part as f64 / whole.max(1) as f64 * 100.0)
}

fn build(
    rows: &[&[ColumnVec]],
    selection: &[(u32, u32)],
    codec: Compression,
    bs: usize,
) -> Vec<u8> {
    let mut builder = LogBlockBuilder::with_options(TableSchema::request_log(), codec, bs);
    builder.add(rows, selection).expect("rows of the schema");
    builder.finish().expect("finish")
}

fn raw_bytes(records: &[LogRecord]) -> u64 {
    records.iter().map(|r| r.approx_size() as u64).sum()
}

/// Shape 1: one 50 000-row LogBlock at every codec.
fn one_block() {
    let rows = 50_000usize;
    let spec = WorkloadSpec::new(1, 0.0); // one tenant: one LogBlock
    let mut gen = LogRecordGenerator::new(5);
    let history = gen.history(&spec, rows, Timestamp(0), Timestamp(3_600_000));
    let raw = raw_bytes(&history);
    println!("{rows} rows of request_log, {} MiB raw (in-memory row-store size)", mib(raw));

    // The rows as the column batch a drain hands the builder.
    let batch = Run::from_rows(&TableSchema::request_log(), &history);
    let selection = whole_batch(rows);
    let codecs = [Compression::None, Compression::LzFast, Compression::LzHigh];
    let mut table = Vec::new();
    let mut costs = Vec::new();
    for codec in codecs {
        let wall = std::time::Instant::now();
        let bytes = build(&[batch.columns()], &selection, codec, 4096);
        let secs = wall.elapsed().as_secs_f64();
        let mut cost = Cost::default();
        cost.add(&bytes);
        table.push(vec![
            codec.to_string(),
            mib(cost.packed),
            format!("{:.2}x", raw as f64 / cost.packed as f64),
            mib(cost.data()),
            mib(cost.index()),
            pct(cost.index(), cost.packed),
            format!("{:.0}k rows/s", rows as f64 / secs / 1000.0),
        ]);
        costs.push(cost);
    }
    print_table(
        "Storage cost per codec (one LogBlock, full-column indexes included)",
        &["codec", "packed MiB", "vs raw", "column MiB", "index MiB", "index share", "build rate"],
        &table,
    );
    // Index members do not depend on the codec: show the LZ-high block's.
    let high = &costs[2];
    let schema = TableSchema::request_log();
    let mut members: Vec<Vec<String>> = schema
        .columns
        .iter()
        .enumerate()
        .map(|(col, c)| {
            let mut row = vec![c.name.clone(), high.columns[col].kind.clone()];
            row.extend(costs.iter().map(|cost| cost.columns[col].col.to_string()));
            row.extend([high.columns[col].dict.to_string(), high.columns[col].data.to_string()]);
            row
        })
        .collect();
    members.push(vec![
        META_MEMBER.into(),
        String::new(),
        costs[0].meta.to_string(),
        costs[1].meta.to_string(),
        costs[2].meta.to_string(),
        String::new(),
        String::new(),
    ]);
    print_table(
        "Bytes per member (one LogBlock; index members are the same at every codec)",
        &["column", "index", "col none", "col lz-fast", "col lz-high", "index.N", "index.N.data"],
        &members,
    );
}

/// The member table of `cost`, one row per column and the totals.
fn member_table(title: &str, cost: &Cost) {
    let schema = TableSchema::request_log();
    let mut rows: Vec<Vec<String>> = schema
        .columns
        .iter()
        .zip(&cost.columns)
        .map(|(c, m)| {
            let kind = if m.indexed == 0 { "-".to_string() } else { m.kind.clone() };
            vec![
                c.name.clone(),
                kind,
                format!("{}/{}", m.indexed, cost.blocks),
                m.col.to_string(),
                m.dict.to_string(),
                m.data.to_string(),
                pct(m.col + m.dict + m.data, cost.packed),
            ]
        })
        .collect();
    rows.push(vec![
        META_MEMBER.into(),
        String::new(),
        String::new(),
        cost.meta.to_string(),
        String::new(),
        String::new(),
        pct(cost.meta, cost.packed),
    ]);
    rows.push(vec![
        "packed".into(),
        String::new(),
        String::new(),
        cost.data().to_string(),
        String::new(),
        cost.index().to_string(),
        pct(cost.index(), cost.packed),
    ]);
    print_table(
        title,
        &["column", "index", "indexed", "col.N", "index.N", "index.N.data", "share"],
        &rows,
    );
}

/// Shape 2: the benchmark's aged load, drained per slice; returns its
/// packed bytes per raw byte.
fn aged() -> f64 {
    let schema = TableSchema::request_log();
    let spec = WorkloadSpec::new(AGED_TENANTS, AGED_THETA);
    let mut gen = LogRecordGenerator::new(5);
    let history = gen.history(&spec, AGED_ROWS, Timestamp(0), Timestamp(AGED_SPAN_MS));
    let raw = raw_bytes(&history);
    let mut cost = Cost::default();
    let slice_rows = AGED_ROWS.div_ceil(AGED_SLICES);
    for slice in history.chunks(slice_rows) {
        let runs = [Arc::new(Run::from_rows(&schema, slice))];
        let columns: Vec<&[ColumnVec]> = runs.iter().map(|run| run.columns()).collect();
        for chunk in partition_runs(&runs, AGED_MAX_ROWS_PER_BLOCK) {
            cost.add(&build(&columns, &chunk.rows, Compression::LzHigh, AGED_BLOCK_ROWS));
        }
    }
    let ratio = cost.packed as f64 / raw as f64;
    println!(
        "\naged shape: {AGED_ROWS} rows of {AGED_TENANTS} tenants in {AGED_SLICES} slices, {} MiB \
         raw; {} LogBlocks at lz-high, block_rows {AGED_BLOCK_ROWS}: {} MiB packed, {ratio:.4} \
         bytes per raw byte",
        mib(raw),
        cost.blocks,
        mib(cost.packed)
    );
    member_table("Bytes per member (aged shape, every drained LogBlock, lz-high)", &cost);

    // The hottest tenant's first slice, its rows dealt alternately to two
    // shards: two drains over one time range, then merged.
    let hot: Vec<LogRecord> =
        history[..slice_rows].iter().filter(|r| r.tenant_id.raw() == 1).cloned().collect();
    let halves: [Vec<LogRecord>; 2] =
        [0, 1].map(|half| hot.iter().skip(half).step_by(2).cloned().collect());
    let sources: Vec<Vec<u8>> = halves
        .iter()
        .map(|rows| {
            let run = Run::from_rows(&schema, rows);
            build(&[run.columns()], &whole_batch(rows.len()), Compression::LzHigh, AGED_BLOCK_ROWS)
        })
        .collect();
    let mut builder =
        LogBlockBuilder::with_options(schema.clone(), Compression::LzHigh, AGED_BLOCK_ROWS);
    let mut batches = vec![ColumnVec::default(); schema.width()];
    for source in sources {
        let reader = LogBlockReader::open(source).expect("a built block opens");
        for block in 0..reader.meta().columns[0].blocks.len() {
            for (col, batch) in batches.iter_mut().enumerate() {
                reader.read_block_vec(col, block, batch).expect("a built block decodes");
            }
            builder.add(&[&batches], &whole_batch(batches[0].len())).expect("rows of the schema");
        }
    }
    let mut merged = Cost::default();
    merged.add(&builder.finish().expect("finish"));
    member_table(
        &format!(
            "Bytes per member (a merge of two overlapping drains, {} rows, lz-high)",
            hot.len()
        ),
        &merged,
    );
    ratio
}

/// The budget in `path`: its first line that is not a `#` comment.
fn read_budget(path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let line = text
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .ok_or_else(|| format!("{path} holds no budget"))?;
    line.parse().map_err(|e| format!("{path}: budget {line:?}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let budget = match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--budget" => match read_budget(path) {
            Ok(budget) => Some(budget),
            Err(e) => {
                eprintln!("storage_cost: {e}");
                return ExitCode::FAILURE;
            }
        },
        _ => {
            eprintln!("usage: storage_cost [--budget <file>]");
            return ExitCode::FAILURE;
        }
    };
    one_block();
    let ratio = aged();
    println!(
        "\npaper check: the high-ratio codec ('ZSTD', our lz-high) is the default; \
         the index overhead is the price of 'Full-column indexed and Skippable', \
         deemed acceptable on cheap object storage."
    );
    match budget {
        Some(budget) if ratio > budget => {
            eprintln!(
                "storage_cost: the aged shape packs {ratio:.6} bytes per raw byte, over its budget \
                 of {budget}"
            );
            ExitCode::FAILURE
        }
        Some(budget) => {
            println!("aged shape within budget: {ratio:.6} <= {budget}");
            ExitCode::SUCCESS
        }
        None => ExitCode::SUCCESS,
    }
}
