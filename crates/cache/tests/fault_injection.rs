//! Failure injection across the read stack: OSS faults must surface as
//! errors (never wrong data), must not poison the cache, and must heal on
//! retry.

use logstore_cache::{CachedObjectSource, Prefetcher, TieredCache};
use logstore_codec::Compression;
use logstore_logblock::pack::RangeSource;
use logstore_logblock::scan::{evaluate_predicates, ScanStats};
use logstore_logblock::{LogBlockBuilder, LogBlockReader};
use logstore_oss::{FaultScope, FaultyStore, MemoryStore, ObjectStore};
use logstore_types::{CmpOp, ColumnPredicate, TableSchema, Value};
use std::sync::Arc;

fn build_fixture(store: &impl ObjectStore) {
    let mut b = LogBlockBuilder::with_options(TableSchema::request_log(), Compression::LzHigh, 64);
    for i in 0..500i64 {
        b.add_row(&[
            Value::U64(1),
            Value::I64(1000 + i),
            Value::from(format!("10.0.0.{}", i % 9)),
            Value::from("/api"),
            Value::I64(i % 300),
            Value::Bool(i % 11 == 0),
            Value::from(format!("line {i}")),
        ])
        .unwrap();
    }
    store.put("tenants/1/blk.pack", &b.finish().unwrap()).unwrap();
}

fn fixture_store() -> Arc<FaultyStore<MemoryStore>> {
    let store = FaultyStore::new(MemoryStore::new(), FaultScope::Reads, 0.0, 3);
    build_fixture(store.inner());
    Arc::new(store)
}

fn scan_count(
    source: &CachedObjectSource<FaultyStore<MemoryStore>>,
) -> Result<u32, logstore_types::Error> {
    // CachedObjectSource is not Clone; reopen a reader over a shared Arc'd
    // source by reading through it directly.
    let reader = LogBlockReader::open(ManualSource(source))?;
    let mut stats = ScanStats::default();
    let preds = vec![
        ColumnPredicate::new("latency", CmpOp::Ge, 100i64),
        ColumnPredicate::new("ip", CmpOp::Eq, "10.0.0.3"),
    ];
    Ok(evaluate_predicates(&reader, &preds, true, &mut stats)?.count())
}

/// Borrowing adapter so one cached source serves several readers.
struct ManualSource<'a>(&'a CachedObjectSource<FaultyStore<MemoryStore>>);

impl RangeSource for ManualSource<'_> {
    fn read_at(&self, offset: u64, len: u64) -> logstore_types::Result<Vec<u8>> {
        self.0.read_at(offset, len)
    }
    fn size(&self) -> u64 {
        self.0.size()
    }
}

#[test]
fn faults_surface_and_heal_without_wrong_results() {
    let store = fixture_store();
    let cache = Arc::new(TieredCache::memory_only(1 << 20));
    let source = CachedObjectSource::open_with_block_size(
        Arc::clone(&store),
        "tenants/1/blk.pack",
        cache,
        4 * 1024,
    )
    .unwrap();

    // Healthy baseline.
    let expected = scan_count(&source).expect("healthy scan");
    assert!(expected > 0);

    // Inject a burst of read failures on a cold cache: the scan must error,
    // not fabricate results.
    source.cache().clear_memory();
    store.fail_next(3);
    let result = scan_count(&source);
    assert!(result.is_err(), "scan over failing OSS must error");
    assert!(store.injected() >= 1);

    // After the fault clears, the same scan heals and agrees with baseline.
    store.clear_faults();
    let healed = scan_count(&source).expect("healed scan");
    assert_eq!(healed, expected, "fault must not leave wrong data behind");
}

#[test]
fn prefetch_reports_faults_and_retry_succeeds() {
    let store = fixture_store();
    let cache = Arc::new(TieredCache::memory_only(1 << 20));
    let prefetcher = Prefetcher::new(Arc::clone(&store), cache, 4 * 1024, 4);
    let path = "tenants/1/blk.pack";
    let size = store.head(path).unwrap();
    // Two separate runs, so both scheduled faults land on the wave.
    let ends = prefetcher.plan(path, size, vec![(0, 10), (size - 10, 10)]);

    store.fail_next(2);
    assert_eq!(prefetcher.fetch(vec![ends])[0].errors, 2);

    // Retry fills the cache; subsequent reads never touch the origin.
    let whole = prefetcher.plan(path, size, vec![(0, size)]);
    assert_eq!(prefetcher.fetch(vec![whole])[0].errors, 0);
    store.fail_next(u64::MAX); // origin is now poisoned...
    let got = prefetcher.source(path, size).read_at(0, size).expect("served from cache");
    assert_eq!(got.len() as u64, size);
}

#[test]
fn flaky_store_eventually_serves_everything() {
    // 30% read-failure rate: a retry loop must still complete a full scan.
    let store = FaultyStore::new(MemoryStore::new(), FaultScope::Reads, 0.3, 11);
    build_fixture(store.inner());
    let store = Arc::new(store);
    let cache = Arc::new(TieredCache::memory_only(1 << 20));
    let mut attempts = 0;
    let count = loop {
        attempts += 1;
        assert!(attempts < 100, "retry loop diverged");
        let Ok(source) = CachedObjectSource::open_with_block_size(
            Arc::clone(&store),
            "tenants/1/blk.pack",
            Arc::clone(&cache),
            4 * 1024,
        ) else {
            continue;
        };
        match scan_count(&source) {
            Ok(n) => break n,
            Err(_) => continue, // cache keeps partial progress; retry
        }
    };
    assert!(count > 0);
}
