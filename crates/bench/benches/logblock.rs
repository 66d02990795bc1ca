//! LogBlock build / scan benchmarks: the cost of phase two (columnar
//! conversion with full indexing) and the benefit of data skipping.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use logstore_bench::dataset::{drain_rows, DRAIN_ROWS};
use logstore_codec::Compression;
use logstore_logblock::scan::{evaluate_predicates, ScanStats};
use logstore_logblock::{LogBlockBuilder, LogBlockReader};
use logstore_types::{partition_into_chunks, CmpOp, ColumnPredicate, TableSchema, Value};
use std::hint::black_box;

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

fn build_block(compression: Compression) -> Vec<u8> {
    let mut b = LogBlockBuilder::with_options(TableSchema::request_log(), compression, 1024);
    for row in rows() {
        b.add_row(&row).unwrap();
    }
    b.finish().unwrap()
}

fn bench_build(c: &mut Criterion) {
    let data = rows();
    let mut group = c.benchmark_group("logblock/build");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ROWS as u64));
    for compression in [Compression::LzFast, Compression::LzHigh] {
        group.bench_function(compression.to_string(), |b| {
            b.iter(|| {
                let mut builder =
                    LogBlockBuilder::with_options(TableSchema::request_log(), compression, 1024);
                for row in &data {
                    builder.add_row(black_box(row)).unwrap();
                }
                builder.finish().unwrap()
            })
        });
    }
    group.finish();
}

/// What one archive pass builds: a drain of interleaved tenants split into
/// per-tenant chunks, each read in place into its own LogBlock.
fn bench_build_drain(c: &mut Criterion) {
    let chunks = partition_into_chunks(drain_rows(), 65_536);
    let schema = std::sync::Arc::new(TableSchema::request_log());
    let mut group = c.benchmark_group("logblock/build");
    group.sample_size(10);
    group.throughput(Throughput::Elements(DRAIN_ROWS as u64));
    group.bench_function("build drain-sized chunk", |b| {
        b.iter(|| {
            for chunk in black_box(&chunks) {
                let mut builder =
                    LogBlockBuilder::with_options(schema.clone(), Compression::LzHigh, 1024);
                for record in &chunk.rows {
                    builder.add_record(record).unwrap();
                }
                black_box(builder.finish().unwrap());
            }
        })
    });
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

criterion_group!(benches, bench_build, bench_build_drain, bench_scan);
criterion_main!(benches);
