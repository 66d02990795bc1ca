//! LogBlock build / scan benchmarks: the cost of phase two (columnar
//! conversion with full indexing) and the benefit of data skipping.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use logstore_bench::dataset::{drain_rows, DRAIN_ROWS};
use logstore_codec::Compression;
use logstore_logblock::column::whole_batch;
use logstore_logblock::scan::{
    evaluate_predicates, evaluate_predicates_vec, DecodeStats, ScanStats,
};
use logstore_logblock::{ColumnVec, LogBlockBuilder, LogBlockReader};
use logstore_query::{analyze, parse_query, partial_approx_bytes, QueryStats, ScanPlan};
use logstore_types::{CmpOp, ColumnPredicate, TableSchema, TenantId, Value};
use logstore_wal::{partition_runs, Run, RUN_ROWS};
use std::hint::black_box;
use std::sync::Arc;

const ROWS: usize = 20_000;

fn rows() -> Vec<Vec<Value>> {
    (0..ROWS)
        .map(|i| {
            vec![
                Value::U64(7),
                Value::I64(1_000_000 + i as i64),
                Value::from(format!("10.0.{}.{}", i / 250 % 250, i % 250)),
                Value::from(if i % 2 == 0 { "/api/users" } else { "/api/orders" }),
                Value::I64((i as i64 * 13) % 800),
                Value::Bool(i % 50 == 0),
                Value::from(format!("request {i} completed with status ok")),
            ]
        })
        .collect()
}

/// `rows` as one column batch, the builder's input.
fn batch(rows: &[Vec<Value>]) -> Vec<ColumnVec> {
    let schema = TableSchema::request_log();
    let column = |(c, col): (usize, &logstore_types::ColumnSchema)| {
        let mut batch = ColumnVec::empty(col.data_type);
        rows.iter().for_each(|row| assert!(batch.push_exact(row[c].cell())));
        batch
    };
    schema.columns.iter().enumerate().map(column).collect()
}

fn build_block(compression: Compression) -> Vec<u8> {
    let mut b = LogBlockBuilder::with_options(TableSchema::request_log(), compression, 1024);
    b.add(&[&batch(&rows())], &whole_batch(ROWS)).unwrap();
    b.finish().unwrap()
}

fn bench_build(c: &mut Criterion) {
    let data = batch(&rows());
    let selection = whole_batch(ROWS);
    let mut group = c.benchmark_group("logblock/build");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ROWS as u64));
    for compression in [Compression::LzFast, Compression::LzHigh] {
        group.bench_function(compression.to_string(), |b| {
            b.iter(|| {
                let mut builder =
                    LogBlockBuilder::with_options(TableSchema::request_log(), compression, 1024);
                builder.add(&[black_box(&data)], &selection).unwrap();
                builder.finish().unwrap()
            })
        });
    }
    group.finish();
}

/// What one archive pass builds, read the way the data builder reads it: a
/// drain of interleaved tenants in the row store's 4 096-row runs, split
/// into per-tenant chunks whose ts-sorted selections interleave the runs,
/// each chunk built into its own LogBlock. At every codec, so the
/// compression share of a build is the difference the cases print (`build
/// drain-sized chunk` is lz-high, the engine's).
fn bench_build_drain(c: &mut Criterion) {
    let schema = Arc::new(TableSchema::request_log());
    let runs: Vec<Arc<Run>> =
        drain_rows().chunks(RUN_ROWS).map(|rows| Arc::new(Run::from_rows(&schema, rows))).collect();
    let chunks = partition_runs(&runs, 65_536);
    let batches: Vec<&[ColumnVec]> = runs.iter().map(|run| run.columns()).collect();
    let mut group = c.benchmark_group("logblock/build");
    group.sample_size(10);
    group.throughput(Throughput::Elements(DRAIN_ROWS as u64));
    for (name, compression) in [
        ("build drain-sized chunk", Compression::LzHigh),
        ("build drain-sized chunk, lz-fast", Compression::LzFast),
        ("build drain-sized chunk, none", Compression::None),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                for chunk in black_box(&chunks) {
                    let mut builder =
                        LogBlockBuilder::with_options(schema.clone(), compression, 1024);
                    builder.add(&batches, &chunk.rows).unwrap();
                    black_box(builder.finish().unwrap());
                }
            })
        });
    }
    group.finish();
}

fn bench_scan(c: &mut Criterion) {
    let bytes = build_block(Compression::LzHigh);
    let reader = LogBlockReader::open(bytes).unwrap();
    let preds = vec![
        ColumnPredicate::new("ts", CmpOp::Ge, 1_005_000i64),
        ColumnPredicate::new("ts", CmpOp::Le, 1_006_000i64),
        ColumnPredicate::new("ip", CmpOp::Eq, "10.0.20.100"),
        ColumnPredicate::new("latency", CmpOp::Ge, 100i64),
    ];
    let mut group = c.benchmark_group("logblock/scan");
    group.sample_size(20);
    group.throughput(Throughput::Elements(ROWS as u64));
    for (name, skipping) in [("with-skipping", true), ("without-skipping", false)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut stats = ScanStats::default();
                evaluate_predicates(&reader, black_box(&preds), skipping, &mut stats).unwrap()
            })
        });
    }
    group.finish();
}

/// One hot query's work on one LogBlock: the largest tenant of a drain as
/// a single LogBlock, scanned from memory by the two `tenant_queries`
/// templates whose cost is their output side — template 4 loads `log` and
/// `latency` of the few rows that match, template 5 groups every row of one
/// API by `ip` — and by template 6 as the control, whose row-id set is its
/// answer. Each is timed whole (`collect_block`: predicates to partial)
/// and up to the row-id set (`evaluate_predicates_vec`); the difference is
/// the output side. The work counters of one scan are printed beside the
/// timings.
fn bench_collect_block(c: &mut Criterion) {
    let schema = TableSchema::request_log();
    let mut builder = LogBlockBuilder::with_options(schema.clone(), Compression::LzHigh, 1024);
    let mut records = drain_rows();
    records.retain(|r| r.tenant_id == TenantId(1));
    let tenant = Run::from_rows(&schema, &records);
    builder.add(&[tenant.columns()], &whole_batch(records.len())).unwrap();
    let rows = records.len() as u64;
    let reader = LogBlockReader::open(builder.finish().unwrap()).unwrap();
    let templates = [
        (
            "template 4",
            "SELECT log, latency FROM request_log WHERE tenant_id = 1 \
             AND api = '/api/v1/search' AND latency >= 500 LIMIT 1000",
        ),
        (
            "template 5",
            "SELECT ip, COUNT(*) FROM request_log WHERE tenant_id = 1 \
             AND api = '/api/v1/search' GROUP BY ip ORDER BY COUNT(*) DESC LIMIT 10",
        ),
        // The control: a pure COUNT(*) has no output side at all.
        ("template 6", "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 AND fail = true"),
    ];
    let mut group = c.benchmark_group("logblock/collect_block");
    group.sample_size(30);
    group.throughput(Throughput::Elements(rows));
    for (name, sql) in templates {
        let bound = analyze::bind(&parse_query(sql).unwrap(), &schema).unwrap();
        let plan = ScanPlan::new(&bound, &schema, true).unwrap();
        let (mut stats, mut decode) = (QueryStats::default(), DecodeStats::default());
        let partial = plan.collect_block(&reader, true, &mut stats, &mut decode).unwrap();
        println!(
            "{name}: {rows} rows, {} partial bytes; {:?}; {decode:?}",
            partial_approx_bytes(&partial),
            stats.scan
        );
        group.bench_function(format!("{name}, predicates only"), |b| {
            b.iter(|| {
                let (mut stats, mut decode) = (ScanStats::default(), DecodeStats::default());
                evaluate_predicates_vec(
                    black_box(&reader),
                    &plan.predicates,
                    true,
                    &mut stats,
                    &mut decode,
                )
                .unwrap()
            })
        });
        group.bench_function(format!("{name}, predicates to partial"), |b| {
            b.iter(|| {
                let (mut stats, mut decode) = (QueryStats::default(), DecodeStats::default());
                plan.collect_block(black_box(&reader), true, &mut stats, &mut decode).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build, bench_build_drain, bench_scan, bench_collect_block);
criterion_main!(benches);
