//! Multi-level cache benchmarks: hit paths vs the simulated OSS miss path,
//! prefetch range merging, the write-through kernels (admitting a LogBlock
//! a writer holds, assembling one back out of the memory tier), and the
//! concurrent zipf hot/cold workload that exercises sharding, singleflight
//! and run coalescing under contention. (The pre-sharding single-mutex
//! control that workload was first compared against is frozen in
//! `BENCH_cache.json`.)

use criterion::{criterion_group, criterion_main, Criterion};
use logstore_cache::prefetch::merge_ranges;
use logstore_cache::tiered::TieredCache;
use logstore_cache::Prefetcher;
use logstore_codec::Compression;
use logstore_logblock::column::whole_batch;
use logstore_logblock::{ColumnVec, LogBlockBuilder};
use logstore_oss::{LatencyModel, MemoryStore, ObjectStore, SimulatedOss};
use logstore_types::{Cell, TableSchema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn bench_cache_paths(c: &mut Criterion) {
    let store = SimulatedOss::new(MemoryStore::new(), LatencyModel::zero(), 1);
    store.inner().put("obj", &vec![1u8; 128 * 1024]).unwrap();
    let cache = TieredCache::memory_only(64 << 20);
    let block = [(0u64, 128 * 1024u64)];
    cache.get_or_fetch_run("obj", &block, &|run| store.get_block_run("obj", run)).unwrap();

    let mut group = c.benchmark_group("cache");
    group.sample_size(50);
    group.bench_function("memory hit (128 KiB block)", |b| {
        b.iter(|| {
            cache.get_or_fetch_run("obj", black_box(&block), &|_| unreachable!("must hit")).unwrap()
        })
    });
    group.bench_function("miss + fetch (128 KiB block)", |b| {
        let mut offset = 1u64;
        b.iter(|| {
            // A fresh key every iteration forces the miss path.
            let fresh = [(offset, 128 * 1024)];
            offset += 1;
            let fetch = |_: &[(u64, u64)]| Ok(vec![store.get_range("obj", 0, 128 * 1024)?]);
            cache.get_or_fetch_run("obj", &fresh, &fetch).unwrap()
        })
    });
    group.finish();
}

fn bench_merge_ranges(c: &mut Criterion) {
    let ranges: Vec<(u64, u64)> = (0..1000).map(|i| ((i * 37) % 5000 * 100, 150)).collect();
    let mut group = c.benchmark_group("cache/prefetch");
    group.sample_size(50);
    group.bench_function("merge 1000 ranges", |b| {
        b.iter(|| merge_ranges(black_box(ranges.clone())))
    });
    group.finish();
}

/// A LogBlock of about 128 KiB: the smallest multiple of 250 rows that
/// reaches it.
fn logblock_128k() -> Vec<u8> {
    let build = |rows: i64| {
        let schema = TableSchema::request_log();
        let mut batch: Vec<ColumnVec> =
            schema.columns.iter().map(|c| ColumnVec::empty(c.data_type)).collect();
        for i in 0..rows {
            let trace = i.wrapping_mul(2654435761) as u32;
            let ip = format!("10.0.{}.{}", i % 200, trace % 250);
            let log = format!("request {i} served trace={trace:08x}");
            let row = [
                Cell::U64(1),
                Cell::I64(i),
                Cell::Str(&ip),
                Cell::Str("/api/v1/users"),
                Cell::I64((i * 7 + 13) % 600),
                Cell::Bool(i % 9 == 0),
                Cell::Str(&log),
            ];
            batch.iter_mut().zip(row).for_each(|(column, cell)| assert!(column.push_exact(cell)));
        }
        let mut b = LogBlockBuilder::with_options(schema, Compression::LzHigh, 1024);
        b.add(&[&batch], &whole_batch(rows as usize)).expect("rows match the schema");
        b.finish().expect("finish")
    };
    (1..).map(|n| build(n * 250)).find(|bytes| bytes.len() >= 128 * 1024).expect("unbounded")
}

/// The two kernels write-through adds to the archive and compaction
/// paths, at the engine's 64 KiB cache block: what a drain pays to admit
/// a block it just uploaded (header parse + one copy of every byte), and
/// what a compaction pays to take a resident source instead of a GET
/// (peek every block + one copy).
fn bench_write_through(c: &mut Criterion) {
    let bytes = logblock_128k();
    let size = bytes.len() as u64;
    let cache = Arc::new(TieredCache::memory_only_sharded(64 << 20, 16).with_object_tier(32 << 20));
    let prefetcher = Prefetcher::new(Arc::new(MemoryStore::new()), cache, 64 * 1024, 8);

    let mut group = c.benchmark_group("cache/write-through");
    group.sample_size(50);
    group.bench_function("admit 128 KiB object", |b| {
        b.iter(|| prefetcher.admit(black_box("tenants/1/blk-000000000001.pack"), black_box(&bytes)))
    });
    group.bench_function("assemble 128 KiB source from memory tier", |b| {
        b.iter(|| {
            prefetcher
                .resident(black_box("tenants/1/blk-000000000001.pack"), black_box(size))
                .expect("admitted above")
        })
    });
    group.finish();
}

/// Zipf CDF over `n` ranks with skew `s` (rank r weighted 1/(r+1)^s).
fn zipf_cdf(n: u64, s: f64) -> Vec<f64> {
    let mut weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    for w in &mut weights {
        acc += *w / total;
        *w = acc;
    }
    weights
}

/// The op mix of one thread: 80% zipf-hot point blocks, 20% cold scan
/// starts (`u64::MAX` marks a scan op). Identical streams per seed, so
/// every contender sees the same traffic.
fn zipf_ops(cdf: &[f64], blocks: u64, scan: u64, seed: u64, ops: usize) -> Vec<(u64, bool)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..ops)
        .map(|_| {
            if rng.gen_bool(0.2) {
                (rng.gen_range(0..blocks - scan), true)
            } else {
                let u: f64 = rng.gen();
                (cdf.partition_point(|&c| c < u).min(cdf.len() - 1) as u64, false)
            }
        })
        .collect()
}

/// 8 threads of zipf hot/cold traffic against the cache machinery itself
/// (zero-latency fetches): measures lock contention, singleflight dedup
/// and run-coalescing overhead, not origin latency. Cold scans draw from
/// a per-iteration epoch namespace so they stay cold across iterations.
fn bench_concurrent_zipf(c: &mut Criterion) {
    const THREADS: u64 = 8;
    const OPS: usize = 64;
    const BLOCKS: u64 = 128;
    const BLOCK: usize = 4096;
    const SCAN: u64 = 8;
    let cdf = zipf_cdf(BLOCKS, 1.1);
    let ops: Vec<Vec<(u64, bool)>> =
        (0..THREADS).map(|t| zipf_ops(&cdf, BLOCKS, SCAN, 0xBE7C4 + t, OPS)).collect();

    let mut group = c.benchmark_group("cache/concurrent");
    group.sample_size(30);

    for shards in [1usize, 8] {
        group.bench_function(
            format!("zipf hot/cold, sharded+singleflight+coalesced ({shards} shards)"),
            |b| {
                let cache = TieredCache::memory_only_sharded(BLOCKS as usize / 4 * BLOCK, shards);
                let epoch = AtomicU64::new(1);
                b.iter(|| {
                    let e = epoch.fetch_add(1, Ordering::Relaxed);
                    std::thread::scope(|scope| {
                        for per_thread in &ops {
                            let cache = &cache;
                            scope.spawn(move || {
                                for &(start, is_scan) in per_thread {
                                    if is_scan {
                                        // Epoch-unique cold run: exercises the
                                        // coalesced path end to end.
                                        let blocks: Vec<(u64, u64)> = (start..start + SCAN)
                                            .map(|b| {
                                                ((e * BLOCKS + b) * BLOCK as u64, BLOCK as u64)
                                            })
                                            .collect();
                                        let got = cache
                                            .get_or_fetch_run("cold", &blocks, &|run| {
                                                Ok(run
                                                    .iter()
                                                    .map(|&(o, l)| vec![o as u8; l as usize])
                                                    .collect())
                                            })
                                            .unwrap();
                                        black_box(got);
                                    } else {
                                        let block = [(start * BLOCK as u64, BLOCK as u64)];
                                        let got = cache
                                            .get_or_fetch_run("hot", &block, &|_| {
                                                Ok(vec![vec![start as u8; BLOCK]])
                                            })
                                            .unwrap();
                                        black_box(got);
                                    }
                                }
                            });
                        }
                    });
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cache_paths,
    bench_merge_ranges,
    bench_write_through,
    bench_concurrent_zipf
);
criterion_main!(benches);
