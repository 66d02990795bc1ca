//! Parallel prefetch (paper Fig 10).
//!
//! Before a query touches a LogBlock's members, the prefetcher takes the
//! member ranges it will need, merges duplicates and adjacent ranges
//! ("repeated data block read IO requests will be merged"), splits the
//! result into aligned cache blocks, and fetches them as one
//! [`ordered_wave`] — turning a serial chain of high-latency OSS GETs into
//! one parallel wave.

use crate::source::CachedObjectSource;
use logstore_oss::{ordered_wave, ObjectStore};
use logstore_types::Result;
use std::collections::BTreeSet;

/// Merges overlapping/adjacent `(offset, len)` ranges into a minimal sorted
/// list (the dedup step of Fig 10).
pub fn merge_ranges(mut ranges: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    ranges.retain(|(_, len)| *len > 0);
    ranges.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(ranges.len());
    for (offset, len) in ranges {
        match out.last_mut() {
            Some((last_off, last_len)) if offset <= *last_off + *last_len => {
                let end = (offset + len).max(*last_off + *last_len);
                *last_len = end - *last_off;
            }
            _ => out.push((offset, len)),
        }
    }
    out
}

/// Full accounting for one prefetch wave.
///
/// A failed block fetch does not stop the wave: the remaining queued
/// blocks are still fetched (each would otherwise silently become a
/// high-latency demand read later), and every failure is counted here so
/// the caller can decide whether a partial wave matters.
#[derive(Debug, Default)]
pub struct PrefetchOutcome {
    /// Aligned blocks fetched into the cache.
    pub fetched: usize,
    /// Aligned blocks whose fetch failed (served by demand reads later).
    pub errors: usize,
    /// The first failure, in block order, when any occurred.
    pub first_error: Option<logstore_types::Error>,
}

/// A prefetcher with a fixed parallelism degree.
#[derive(Debug, Clone)]
pub struct Prefetcher {
    threads: usize,
}

impl Prefetcher {
    /// Creates a prefetcher running `threads` parallel fetches (the paper's
    /// evaluation uses 32).
    pub fn new(threads: usize) -> Self {
        Prefetcher { threads: threads.max(1) }
    }

    /// Parallelism degree.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Prefetches `ranges` of `source` into its cache. Returns the number
    /// of aligned blocks fetched, or the wave's first error. The whole
    /// wave always runs to completion (see [`Prefetcher::prefetch_wave`]);
    /// this wrapper only collapses the outcome into a `Result` for callers
    /// that treat any failure as fatal.
    pub fn prefetch<S: ObjectStore>(
        &self,
        source: &CachedObjectSource<S>,
        ranges: Vec<(u64, u64)>,
    ) -> Result<usize> {
        let outcome = self.prefetch_wave(source, ranges);
        match outcome.first_error {
            Some(e) => Err(e),
            None => Ok(outcome.fetched),
        }
    }

    /// Prefetches `ranges` of `source` into its cache and reports the full
    /// [`PrefetchOutcome`]. Unlike a fail-fast wave, a block failure does
    /// not abandon the queue: every queued block is attempted, failures
    /// are counted, and the first error (in block order) is preserved.
    /// Blocks until the wave completes.
    pub fn prefetch_wave<S: ObjectStore>(
        &self,
        source: &CachedObjectSource<S>,
        ranges: Vec<(u64, u64)>,
    ) -> PrefetchOutcome {
        // Merge request ranges, expand to aligned blocks, dedup blocks.
        let mut blocks: BTreeSet<(u64, u64)> = BTreeSet::new();
        for (offset, len) in merge_ranges(ranges) {
            for b in source.aligned_blocks(offset, len) {
                blocks.insert(b);
            }
        }
        // One ordered wave over the blocks: results come back in block
        // order — not completion order — so the report is deterministic.
        let results = ordered_wave(self.threads, blocks, |_, (offset, len)| {
            source.prefetch_block(offset, len)
        });
        let errors = results.iter().filter(|r| r.is_err()).count();
        PrefetchOutcome {
            fetched: results.len() - errors,
            errors,
            first_error: results.into_iter().find_map(Result::err),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiered::TieredCache;
    use logstore_oss::{LatencyModel, MemoryStore, SimulatedOss};
    use std::sync::Arc;

    #[test]
    fn merge_ranges_cases() {
        assert_eq!(merge_ranges(vec![]), Vec::<(u64, u64)>::new());
        assert_eq!(merge_ranges(vec![(0, 10)]), vec![(0, 10)]);
        // Overlap, adjacency, containment, zero-length, out of order.
        assert_eq!(
            merge_ranges(vec![(20, 5), (0, 10), (10, 5), (22, 1), (7, 5), (40, 0)]),
            vec![(0, 15), (20, 5)]
        );
        assert_eq!(merge_ranges(vec![(0, 100), (10, 5)]), vec![(0, 100)]);
    }

    fn setup(
        size: usize,
        block: u64,
    ) -> (CachedObjectSource<SimulatedOss<MemoryStore>>, Arc<SimulatedOss<MemoryStore>>) {
        let store = Arc::new(SimulatedOss::new(MemoryStore::new(), LatencyModel::zero(), 1));
        store.inner().put("obj", &vec![5u8; size]).unwrap();
        let cache = Arc::new(TieredCache::memory_only(1 << 24));
        let src = CachedObjectSource::open_with_block_size(Arc::clone(&store), "obj", cache, block)
            .unwrap();
        (src, store)
    }

    #[test]
    fn prefetch_fills_cache_for_later_reads() {
        let (src, store) = setup(1 << 16, 4096);
        let p = Prefetcher::new(8);
        let fetched = p.prefetch(&src, vec![(0, 1 << 16)]).unwrap();
        assert_eq!(fetched, 16);
        let gets_after_prefetch = store.metrics().get_requests;
        // Reading everything afterwards issues no further origin requests.
        use logstore_logblock::pack::RangeSource;
        src.read_at(0, 1 << 16).unwrap();
        assert_eq!(store.metrics().get_requests, gets_after_prefetch);
    }

    #[test]
    fn duplicate_and_overlapping_requests_fetch_once() {
        let (src, store) = setup(8192, 1024);
        let p = Prefetcher::new(4);
        let ranges = vec![(0, 1000), (500, 1000), (0, 1000), (2000, 10), (2001, 5)];
        let fetched = p.prefetch(&src, ranges).unwrap();
        // Ranges collapse to [0,1500) and [2000,2011) → blocks 0,1 and 1? —
        // block 1 covers both 1024..2048 spans, so blocks {0, 1, 2}... block
        // 2 is 2048.. which 2000..2011 does not reach; [2000,2011) lies in
        // block 1. Blocks fetched: 0 and 1.
        assert_eq!(fetched, 2);
        assert_eq!(store.metrics().get_requests, 2);
    }

    #[test]
    fn empty_prefetch_is_noop() {
        let (src, store) = setup(1024, 256);
        let p = Prefetcher::new(4);
        assert_eq!(p.prefetch(&src, vec![]).unwrap(), 0);
        assert_eq!(p.prefetch(&src, vec![(10, 0)]).unwrap(), 0);
        assert_eq!(store.metrics().get_requests, 0);
    }

    #[test]
    fn prefetch_errors_surface() {
        let store = Arc::new(SimulatedOss::new(MemoryStore::new(), LatencyModel::zero(), 1));
        store.inner().put("obj", &[0u8; 100]).unwrap();
        let cache = Arc::new(TieredCache::memory_only(1 << 20));
        let src =
            CachedObjectSource::open_with_block_size(Arc::clone(&store), "obj", cache, 64).unwrap();
        // Delete the object behind the source's back.
        store.inner().delete("obj").unwrap();
        let p = Prefetcher::new(2);
        assert!(p.prefetch(&src, vec![(0, 100)]).is_err());
    }

    #[test]
    fn partial_wave_fetches_remaining_blocks() {
        use logstore_oss::{FaultScope, FaultyStore};
        let store = Arc::new(SimulatedOss::new(
            FaultyStore::new(MemoryStore::new(), FaultScope::Reads, 0.0, 1),
            LatencyModel::zero(),
            1,
        ));
        store.inner().inner().put("obj", &vec![7u8; 8 * 1024]).unwrap();
        let cache = Arc::new(TieredCache::memory_only(1 << 20));
        let src = CachedObjectSource::open_with_block_size(Arc::clone(&store), "obj", cache, 1024)
            .unwrap();
        // One scheduled fault; a single-threaded wave makes it land on a
        // deterministic block. The other 7 blocks must still be fetched.
        store.inner().fail_next(1);
        let p = Prefetcher::new(1);
        let outcome = p.prefetch_wave(&src, vec![(0, 8 * 1024)]);
        assert_eq!(outcome.errors, 1);
        assert_eq!(outcome.fetched, 7);
        assert!(outcome.first_error.is_some());
        // The fail-fast wrapper reports the same wave as an error.
        store.inner().fail_next(1);
        assert!(p.prefetch(&src, vec![(0, 8 * 1024)]).is_err());
        // After faults clear, demand reads repair the one missing block
        // and the data comes back intact.
        store.inner().clear_faults();
        use logstore_logblock::pack::RangeSource;
        assert_eq!(src.read_at(0, 8 * 1024).unwrap(), vec![7u8; 8 * 1024]);
    }

    #[test]
    fn parallelism_actually_runs_concurrently() {
        // With per-request modelled sleep and time_scale=1, 8 blocks at 4
        // threads should take ~2 rounds of 5 ms, far below the serial 40 ms.
        let mut model = LatencyModel::zero();
        model.base_latency_us = 5_000;
        model.time_scale = 1.0;
        let store = Arc::new(SimulatedOss::new(MemoryStore::new(), model, 1));
        store.inner().put("obj", &vec![1u8; 8 * 1024]).unwrap();
        let cache = Arc::new(TieredCache::memory_only(1 << 20));
        let src = CachedObjectSource::open_with_block_size(Arc::clone(&store), "obj", cache, 1024)
            .unwrap();
        let p = Prefetcher::new(4);
        let wall = std::time::Instant::now();
        p.prefetch(&src, vec![(0, 8 * 1024)]).unwrap();
        let elapsed = wall.elapsed();
        assert!(
            elapsed < std::time::Duration::from_millis(35),
            "prefetch looked serial: {elapsed:?}"
        );
    }
}
