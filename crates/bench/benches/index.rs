//! Index micro-benchmarks: inverted index build and term lookup, BKD range
//! queries.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use logstore_bench::dataset::{drain_rows, DRAIN_ROWS};
use logstore_index::inverted::memo_slot;
use logstore_index::{
    BkdDictReader, BkdWriter, InvertedDictReader, InvertedIndexWriter, RowIdSet, TermKind,
};
use std::hint::black_box;

const ROWS: u32 = 100_000;

/// The split index as a LogBlock reads it: `(dictionary, data member)`.
fn inverted() -> (InvertedDictReader, Vec<u8>) {
    let mut w = InvertedIndexWriter::new();
    for i in 0..ROWS {
        w.add(i, format!("GET /api/v1/endpoint{} status={}", i % 500, 200 + i % 5));
    }
    let (dict, postings) = w.finish_split(ROWS);
    (InvertedDictReader::open(&dict).unwrap(), postings)
}

fn bkd() -> (BkdDictReader, Vec<u8>) {
    let mut w = BkdWriter::new();
    for i in 0..ROWS {
        w.add(i64::from(i % 10_000) * 3, i);
    }
    let (fences, leaves) = w.finish_split();
    (BkdDictReader::open(&fences).unwrap(), leaves)
}

fn lookup(idx: &(InvertedDictReader, Vec<u8>), kind: TermKind, term: &str) -> RowIdSet {
    match idx.0.lookup_range(kind, term) {
        Some((offset, len)) => {
            InvertedDictReader::decode_postings(&idx.1[offset..offset + len], ROWS).unwrap()
        }
        None => RowIdSet::empty(ROWS),
    }
}

fn query_range(idx: &(BkdDictReader, Vec<u8>), lo: i64, hi: i64) -> RowIdSet {
    let mut out = RowIdSet::empty(ROWS);
    for (offset, len) in idx.0.leaf_ranges(lo, hi) {
        idx.0.scan_leaf_bytes(&idx.1[offset..offset + len], lo, hi, &mut out).unwrap();
    }
    out
}

/// The write side: the three string columns of one drain, fed to their
/// writers the way the LogBlock builder feeds them (`ip` and `api` with
/// exact terms, `log` as free text).
fn bench_inverted_build(c: &mut Criterion) {
    let rows = drain_rows();
    let cells: Vec<[&str; 3]> = rows
        .iter()
        .map(|r| [0, 1, 4].map(|f| r.fields[f].as_str().expect("string field")))
        .collect();
    let mut group = c.benchmark_group("index/inverted");
    group.sample_size(20);
    group.throughput(Throughput::Elements(DRAIN_ROWS as u64));
    group.bench_function("inverted build (17 k log lines)", |b| {
        b.iter(|| {
            let mut writers = [(); 3].map(|()| InvertedIndexWriter::new());
            for (row_id, [ip, api, log]) in black_box(&cells).iter().enumerate() {
                writers[0].add(row_id as u32, ip);
                writers[1].add(row_id as u32, api);
                writers[2].add_text(row_id as u32, log);
            }
            writers.map(|w| w.finish_split(DRAIN_ROWS as u32))
        })
    });
    group.finish();
}

/// `count` distinct terms of `kind` in one memo slot of the index writer.
fn memo_colliding(kind: TermKind, prefix: &str, count: usize) -> Vec<String> {
    let target = memo_slot(kind, &format!("{prefix}0"));
    (0..)
        .map(|n| format!("{prefix}{n}"))
        .filter(|t| memo_slot(kind, t) == target)
        .take(count)
        .collect()
}

/// The memo's worst case: a free-text column of a drain, twelve tokens a
/// line drawn from 64 tokens that share one memo slot, so nearly every
/// push misses the memo and pays the keyed map on top of it. (Whole
/// exact cells have no such case: a repeated cell skips its tokens
/// whether or not its own lookup hit the memo.)
fn bench_inverted_build_colliding(c: &mut Criterion) {
    let tokens = memo_colliding(TermKind::Token, "t", 64);
    let mut state = 1712u64;
    let lines: Vec<String> = (0..DRAIN_ROWS)
        .map(|_| {
            let line: Vec<&str> = (0..12)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    tokens[(state >> 33) as usize % tokens.len()].as_str()
                })
                .collect();
            line.join(" ")
        })
        .collect();
    let mut group = c.benchmark_group("index/inverted");
    group.sample_size(20);
    group.throughput(Throughput::Elements(DRAIN_ROWS as u64));
    group.bench_function("inverted build (17 k lines, every token colliding in the memo)", |b| {
        b.iter(|| {
            let mut writer = InvertedIndexWriter::new();
            for (row_id, line) in black_box(&lines).iter().enumerate() {
                writer.add_text(row_id as u32, line);
            }
            writer.finish_split(DRAIN_ROWS as u32)
        })
    });
    group.finish();
}

fn bench_inverted(c: &mut Criterion) {
    let idx = inverted();
    let mut group = c.benchmark_group("index/inverted");
    group.sample_size(30);
    group.bench_function("token-lookup (200 hits)", |b| {
        b.iter(|| lookup(&idx, TermKind::Token, black_box("endpoint42")))
    });
    group.bench_function("token-lookup (miss)", |b| {
        b.iter(|| lookup(&idx, TermKind::Token, black_box("nonexistent")))
    });
    group.bench_function("exact-lookup", |b| {
        b.iter(|| lookup(&idx, TermKind::Exact, black_box("GET /api/v1/endpoint42 status=202")))
    });
    group.finish();
}

fn bench_bkd(c: &mut Criterion) {
    let idx = bkd();
    let mut group = c.benchmark_group("index/bkd");
    group.sample_size(30);
    group.bench_function("narrow-range", |b| {
        b.iter(|| query_range(&idx, black_box(300), black_box(330)))
    });
    group.bench_function("wide-range (10%)", |b| {
        b.iter(|| query_range(&idx, black_box(0), black_box(3_000)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_inverted_build,
    bench_inverted_build_colliding,
    bench_inverted,
    bench_bkd
);
criterion_main!(benches);
