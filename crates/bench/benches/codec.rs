//! Codec micro-benchmarks: the CPU/ratio trade-off behind the paper's
//! Snappy/LZ4/ZSTD menu (our lz-fast / lz-high codecs), and the two
//! kernels every WAL byte passes through — the batch encoder and CRC32C.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use logstore_bench::dataset::drain_rows;
use logstore_codec::batch::encode_batch;
use logstore_codec::crc::crc32c;
use logstore_codec::varint::put_uvarint;
use logstore_codec::{compress, decompress, delta, Compression, Compressor};
use logstore_types::{partition_into_chunks, Cell, DataType, TableSchema};
use std::hint::black_box;

fn log_like_payload(n_lines: usize) -> Vec<u8> {
    let mut data = Vec::new();
    for i in 0..n_lines {
        data.extend_from_slice(
            format!(
                "2020-11-11 {:02}:{:02}:{:02} GET /api/v1/users id={} latency={}ms status=ok\n",
                i / 3600 % 24,
                i / 60 % 60,
                i % 60,
                i * 7,
                i % 300
            )
            .as_bytes(),
        );
    }
    data
}

fn bench_compress(c: &mut Criterion) {
    let data = log_like_payload(4096);
    let mut group = c.benchmark_group("codec/compress");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(data.len() as u64));
    for codec in [Compression::Rle, Compression::LzFast, Compression::LzHigh] {
        let ratio = data.len() as f64 / compress(codec, &data).len() as f64;
        group.bench_with_input(
            BenchmarkId::new(format!("{codec} (ratio {ratio:.1}x)"), data.len()),
            &data,
            |b, data| b.iter(|| compress(codec, black_box(data))),
        );
    }
    group.finish();
}

fn bench_decompress(c: &mut Criterion) {
    let data = log_like_payload(4096);
    let mut group = c.benchmark_group("codec/decompress");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(data.len() as u64));
    for codec in [Compression::LzFast, Compression::LzHigh] {
        let frame = compress(codec, &data);
        group.bench_with_input(BenchmarkId::new(codec.to_string(), data.len()), &frame, |b, f| {
            b.iter(|| decompress(black_box(f), data.len()).unwrap())
        });
    }
    group.finish();
}

/// The data frame of one `log` column block as the LogBlock builder lays
/// it out — `uvarint len ++ bytes` per row, 1 024 rows, lz-high — which is
/// what loading the matched rows of a `SELECT log …` decompresses per
/// touched block.
fn bench_decompress_log_block(c: &mut Criterion) {
    let mut data = Vec::new();
    for record in drain_rows().iter().filter(|r| r.tenant_id.raw() == 1).take(1024) {
        let log = record.fields[4].as_str().expect("log is the last string field");
        put_uvarint(&mut data, log.len() as u64);
        data.extend_from_slice(log.as_bytes());
    }
    let frame = compress(Compression::LzHigh, &data);
    let mut group = c.benchmark_group("codec/decompress");
    group.sample_size(30);
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("decompress log column block (1024 rows)", |b| {
        b.iter(|| decompress(black_box(&frame), data.len()).unwrap())
    });
    group.finish();
}

fn bench_crc32c(c: &mut Criterion) {
    let data = log_like_payload(16 << 10);
    let mut group = c.benchmark_group("codec/crc32c");
    group.sample_size(30);
    for (name, len) in [("crc32c 1 KiB", 1 << 10), ("crc32c 1 MiB", 1 << 20)] {
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_function(name, |b| b.iter(|| crc32c(black_box(&data[..len]))));
    }
    group.finish();
}

/// A broker sub-batch (8 rows) and a whole drain intent (17 000 rows).
fn bench_encode_batch(c: &mut Criterion) {
    let rows = drain_rows();
    let mut group = c.benchmark_group("codec/encode_batch");
    group.sample_size(20);
    for n in [8, rows.len()] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(format!("encode_batch {n} rows"), |b| {
            b.iter(|| encode_batch(black_box(&rows[..n])))
        });
    }
    group.finish();
}

/// Rows per column block, as `bench_e2e` and the figure harnesses build.
const BLOCK_ROWS: usize = 1024;

/// What the LogBlock builder hands its compressor for one drain: per
/// column, the data-frame input of every 1 024-row block of every
/// per-tenant chunk (delta varints for integers, bit-packed bools,
/// length-prefixed bytes for strings).
fn drain_column_inputs() -> Vec<(String, Vec<Vec<u8>>)> {
    let schema = TableSchema::request_log();
    let chunks = partition_into_chunks(drain_rows(), 65_536);
    let mut columns: Vec<(String, Vec<Vec<u8>>)> =
        schema.columns.iter().map(|c| (c.name.clone(), Vec::new())).collect();
    for block in chunks.iter().flat_map(|chunk| chunk.rows.chunks(BLOCK_ROWS)) {
        for (col, (_, inputs)) in columns.iter_mut().enumerate() {
            let (mut ints, mut uints, mut bits, mut bytes) =
                (Vec::new(), Vec::new(), vec![0u8; block.len().div_ceil(8)], Vec::new());
            for (row, record) in block.iter().enumerate() {
                match record.cell(col) {
                    Cell::I64(v) => ints.push(v),
                    Cell::U64(v) => uints.push(v),
                    Cell::Bool(v) => bits[row / 8] |= u8::from(v) << (row % 8),
                    Cell::Str(s) => {
                        put_uvarint(&mut bytes, s.len() as u64);
                        bytes.extend_from_slice(s.as_bytes());
                    }
                    Cell::Null => put_uvarint(&mut bytes, 0),
                }
            }
            inputs.push(match schema.columns[col].data_type {
                DataType::Int64 => delta::encode_i64(&ints),
                DataType::UInt64 => delta::encode_u64(&uints),
                DataType::Bool => bits,
                DataType::String => bytes,
            });
        }
    }
    columns
}

/// LZ-high per column of one drain, one frame per column block through
/// one reused [`Compressor`], as the builder compresses them: where the
/// "encode" stage of a build goes.
fn bench_lz_high_per_column(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec/lz-high per column");
    group.sample_size(20);
    for (name, inputs) in drain_column_inputs() {
        let bytes: usize = inputs.iter().map(Vec::len).sum();
        group.throughput(Throughput::Bytes(bytes as u64));
        let mut compressor = Compressor::default();
        let mut out = Vec::new();
        for input in &inputs {
            compressor.compress_into(Compression::LzHigh, input, &mut out);
        }
        let ratio = bytes as f64 / out.len() as f64;
        group.bench_function(
            format!(
                "lz-high column {name} ({} blocks, {bytes} B, ratio {ratio:.1}x)",
                inputs.len()
            ),
            |b| {
                b.iter(|| {
                    out.clear();
                    for input in black_box(&inputs) {
                        compressor.compress_into(Compression::LzHigh, input, &mut out);
                    }
                    out.len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_lz_high_per_column,
    bench_compress,
    bench_decompress,
    bench_decompress_log_block,
    bench_crc32c,
    bench_encode_batch
);
criterion_main!(benches);
