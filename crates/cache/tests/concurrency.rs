//! Concurrency tests for the sharded, singleflight-deduplicating cache:
//! thundering herds share one origin GET, a tiny sharded cache survives
//! get/evict races, and fetch errors propagate to every waiter without
//! becoming sticky.

use logstore_cache::{CachedObjectSource, Prefetcher, TieredCache};
use logstore_logblock::pack::RangeSource;
use logstore_oss::{LatencyModel, MemoryStore, ObjectStore, SimulatedOss};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

const BLOCK: u64 = 64 * 1024;

fn simulated_object(
    len: usize,
    latency: LatencyModel,
) -> (Arc<SimulatedOss<MemoryStore>>, Vec<u8>) {
    let object: Vec<u8> = (0..=255u8).cycle().take(len).collect();
    let store = SimulatedOss::new(MemoryStore::new(), latency, 7);
    store.inner().put("obj", &object).unwrap();
    (Arc::new(store), object)
}

#[test]
fn thundering_herd_cold_block_is_one_origin_get() {
    // 25 ms modelled request latency, scaled to ~2.5 ms of real sleep so
    // the herd genuinely piles up behind the leader's in-flight GET.
    let latency = LatencyModel::oss_like().with_time_scale(0.1);
    let (store, object) = simulated_object(BLOCK as usize, latency);
    let cache = Arc::new(TieredCache::memory_only_sharded(8 << 20, 4));
    let src = Arc::new(CachedObjectSource::open_with_known_size(
        Arc::clone(&store),
        "obj",
        Arc::clone(&cache),
        BLOCK,
        object.len() as u64,
    ));

    const READERS: usize = 32;
    let barrier = Arc::new(Barrier::new(READERS));
    let handles: Vec<_> = (0..READERS)
        .map(|_| {
            let src = Arc::clone(&src);
            let barrier = Arc::clone(&barrier);
            let expect = object.clone();
            std::thread::spawn(move || {
                barrier.wait();
                let got = src.read_at(0, BLOCK).unwrap();
                assert_eq!(got, expect);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(
        store.metrics().get_requests,
        1,
        "32 concurrent readers of one cold block must issue exactly 1 origin GET"
    );
    let stats = cache.stats();
    assert_eq!(stats.misses, 1);
    // Every reader is accounted exactly once: the leader's miss, waiters
    // blocked on its flight, and late arrivals served from memory.
    assert_eq!(stats.misses + stats.memory_hits + stats.singleflight_waits, READERS as u64);
    assert!(stats.singleflight_waits > 0, "with 2.5 ms flights someone must have waited");
}

#[test]
fn thundering_herd_on_many_blocks_is_one_get_per_block() {
    const BLOCKS: u64 = 4;
    let latency = LatencyModel::oss_like().with_time_scale(0.05);
    let (store, object) = simulated_object((BLOCK * BLOCKS) as usize, latency);
    let cache = Arc::new(TieredCache::memory_only_sharded(8 << 20, 4));
    let src = Arc::new(CachedObjectSource::open_with_known_size(
        Arc::clone(&store),
        "obj",
        Arc::clone(&cache),
        BLOCK,
        object.len() as u64,
    ));

    // 32 readers spread over 4 blocks: 8 per block, every block cold.
    let barrier = Arc::new(Barrier::new(32));
    let handles: Vec<_> = (0..32u64)
        .map(|i| {
            let src = Arc::clone(&src);
            let barrier = Arc::clone(&barrier);
            let block = i % BLOCKS;
            let expect = object[(block * BLOCK) as usize..((block + 1) * BLOCK) as usize].to_vec();
            std::thread::spawn(move || {
                barrier.wait();
                let got = src.read_at(block * BLOCK, BLOCK).unwrap();
                assert_eq!(got, expect);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Per-block dedup: at most one GET per cold block. (Exactly one per
    // block unless a reader's run-coalescing merged neighbours — either
    // way never more than the block count.)
    let gets = store.metrics().get_requests;
    assert!(
        (1..=BLOCKS).contains(&gets),
        "expected between 1 and {BLOCKS} origin GETs, saw {gets}"
    );
}

#[test]
fn concurrent_get_evict_stress_on_tiny_sharded_cache() {
    // A cache that holds only ~6 of 64 working-set blocks, split over 4
    // shards, hammered by 8 threads: every read must still return the
    // right bytes, and accounting must stay consistent.
    let cache = Arc::new(TieredCache::memory_only_sharded(6 * 1024, 4));
    const THREADS: u64 = 8;
    const OPS: u64 = 300;
    const KEYS: u64 = 64;
    let fetches = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(THREADS as usize));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let fetches = Arc::clone(&fetches);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..OPS {
                    // Deterministic per-thread walk: 17 is coprime with 64,
                    // so every thread cycles the whole working set and the
                    // tiny cache is forced to evict constantly. Each key is
                    // read twice back-to-back — the second read hits memory
                    // under any scheduling, so the hit assertion below does
                    // not depend on cross-thread timing luck.
                    let k = (t * 31 + i * 17) % KEYS;
                    for _ in 0..2 {
                        let fetch = |_: &[(u64, u64)]| {
                            fetches.fetch_add(1, Ordering::Relaxed);
                            Ok(vec![vec![k as u8; 1024]])
                        };
                        let v = cache
                            .get_or_fetch_run("stress", &[(k * 1024, 1024)], &fetch)
                            .unwrap()
                            .remove(0);
                        assert_eq!(v.len(), 1024);
                        assert!(v.iter().all(|&b| b == k as u8), "wrong bytes for key {k}");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = cache.stats();
    assert_eq!(
        stats.misses + stats.memory_hits + stats.singleflight_waits,
        THREADS * OPS * 2,
        "every lookup accounted exactly once"
    );
    assert_eq!(stats.misses, fetches.load(Ordering::Relaxed), "one fetch per counted miss");
    assert!(stats.misses > KEYS, "tiny cache must evict and refetch");
    assert!(stats.memory_hits > 0, "hot keys must hit");
}

#[test]
fn singleflight_error_propagates_to_waiters_and_is_not_sticky() {
    let cache = Arc::new(TieredCache::memory_only(1 << 20));
    const READERS: usize = 16;
    let barrier = Arc::new(Barrier::new(READERS));
    let attempts = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..READERS)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            let attempts = Arc::clone(&attempts);
            std::thread::spawn(move || {
                barrier.wait();
                cache.get_or_fetch_run("obj", &[(0, 3)], &|_| {
                    attempts.fetch_add(1, Ordering::Relaxed);
                    // Hold the flight open so the herd piles up on it.
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    Err(logstore_types::Error::NotFound("object vanished".into()))
                })
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Every caller saw the failure — waiters received the leader's error.
    for r in &results {
        let e = r.as_ref().unwrap_err();
        assert!(
            matches!(e, logstore_types::Error::NotFound(m) if m == "object vanished"),
            "waiters must receive the leader's error, got: {e}"
        );
    }
    // Dedup held: far fewer executions than callers (leaders only)…
    let leads = attempts.load(Ordering::Relaxed);
    assert!(leads < READERS as u64, "{leads} executions for {READERS} callers — no dedup");
    assert_eq!(cache.stats().singleflight_waits, READERS as u64 - leads);
    // …and the error is not cached: the next fetch runs and succeeds.
    let v = cache.get_or_fetch_run("obj", &[(0, 3)], &|_| Ok(vec![vec![1, 2, 3]])).unwrap();
    assert_eq!(*v[0], vec![1, 2, 3]);
}

#[test]
fn prefetch_and_demand_read_share_one_flight() {
    // A demand read issued while a prefetch of the same block is in flight
    // must not duplicate the origin GET.
    let latency = LatencyModel::oss_like().with_time_scale(0.1);
    let (store, object) = simulated_object(BLOCK as usize, latency);
    let cache = Arc::new(TieredCache::memory_only(8 << 20));
    let src = Arc::new(CachedObjectSource::open_with_known_size(
        Arc::clone(&store),
        "obj",
        Arc::clone(&cache),
        BLOCK,
        object.len() as u64,
    ));
    let prefetcher = {
        let (store, cache) = (Arc::clone(&store), Arc::clone(&cache));
        std::thread::spawn(move || {
            let prefetcher = Prefetcher::new(store, cache, BLOCK, 4);
            let fetched = prefetcher.fetch(vec![prefetcher.plan("obj", BLOCK, vec![(0, BLOCK)])]);
            assert_eq!(fetched[0].errors, 0);
        })
    };
    // Demand-read the same block concurrently, repeatedly.
    for _ in 0..4 {
        assert_eq!(src.read_at(0, BLOCK).unwrap(), object);
    }
    prefetcher.join().unwrap();
    assert_eq!(
        store.metrics().get_requests,
        1,
        "prefetch + demand reads of one block must share a single origin GET"
    );
}
