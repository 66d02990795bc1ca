//! WAL append throughput: the phase-one durability cost.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use logstore_wal::{FlushPolicy, GroupCommitWal, WalConfig};
use std::hint::black_box;

fn bench_append(c: &mut Criterion) {
    let payload = vec![7u8; 512];
    let mut group = c.benchmark_group("wal/append");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(payload.len() as u64));
    for (name, flush) in
        [("buffered", FlushPolicy::Flush), ("fsync-every-append", FlushPolicy::Sync)]
    {
        group.bench_function(name, |b| {
            let dir = std::env::temp_dir()
                .join(format!("logstore-walbench-{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let config = WalConfig { max_segment_bytes: 256 << 20, flush, ..WalConfig::default() };
            let (wal, _) = GroupCommitWal::open(&dir, config).unwrap();
            b.iter(|| wal.append(black_box(&payload)).unwrap());
            drop(wal);
            let _ = std::fs::remove_dir_all(dir);
        });
    }
    group.finish();
}

criterion_group!(benches, bench_append);
criterion_main!(benches);
