//! Parallel prefetch (paper Fig 10): one planned fetch wave per query.
//!
//! Fig 10 reads: get the file meta, compute every range the query needs,
//! merge, fetch in parallel. [`Prefetcher`] is that pipeline for a whole
//! query at once, across every object it touches:
//!
//! 1. **Headers** — [`Prefetcher::handles`] resolves each LogBlock's
//!    [`LogBlockHandle`] from the cache's object tier, and opens the ones
//!    it does not know *together*, as one wave.
//! 2. **Plan** — the caller computes the member ranges it needs from the
//!    handles; [`Prefetcher::plan`] merges duplicates and adjacent ranges
//!    ("repeated data block read IO requests will be merged") and widens
//!    them to aligned cache blocks ([`ObjectPlan`]).
//! 3. **Fetch** — [`Prefetcher::fetch`] resolves the blocks the memory
//!    tier already holds inline, coalesces the cold rest into maximal
//!    contiguous runs per object, and sends every run of every object out
//!    as **one** [`ordered_wave`], one origin GET per run, through
//!    [`TieredCache::get_or_fetch_run`] (so the wave shares the demand
//!    path's singleflight table and disk tier).
//!
//! The blocks a wave resolved are handed to that object's
//! [`CachedObjectSource`], which serves the query from them directly: a
//! query reads what it fetched even when the cache is smaller than the
//! queries in flight. Both waves run on the calling thread's behalf — the
//! caller feeds them and blocks until they end — so nothing that merely
//! *computes* over the fetched bytes ever sleeps on a GET.
//!
//! The prefetcher is also where bytes that need no fetch enter the cache:
//! it owns the block alignment, so [`Prefetcher::admit`] files a LogBlock
//! a writer still holds under exactly the keys a wave would have filled,
//! and [`Prefetcher::resident`] hands one back whole.

use crate::source::{aligned_blocks, CachedObjectSource};
use crate::tiered::{BlockKey, TieredCache};
use logstore_logblock::LogBlockHandle;
use logstore_oss::{ordered_wave, ObjectStore};
use logstore_types::{Error, Result};
use std::sync::Arc;

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

/// One object's share of a fetch plan ([`Prefetcher::plan`]): the aligned
/// cache blocks covering what a query will read from it.
#[derive(Debug, Clone)]
pub struct ObjectPlan {
    path: String,
    size: u64,
    /// `(offset, len)`, deduplicated, in offset order.
    blocks: Vec<(u64, u64)>,
}

impl ObjectPlan {
    /// Bytes [`Prefetcher::fetch`] will hold for this object (whole
    /// blocks) — what a caller budgets a batch of plans with.
    pub fn bytes(&self) -> u64 {
        self.blocks.iter().map(|(_, len)| len).sum()
    }
}

/// One object's share of a finished wave.
pub struct Fetched<S> {
    /// A source over the object that holds every block the wave resolved
    /// for it (warm or fetched) and demand-reads anything else.
    pub source: CachedObjectSource<S>,
    /// Requests of this object that failed. Non-fatal: the blocks they
    /// would have brought are simply not held, so a read that needs them
    /// becomes a demand read and succeeds or fails on its own terms.
    pub errors: u64,
}

/// One origin request of a wave: the plan it belongs to and a contiguous
/// run of that object's cold blocks.
type Run = (usize, Vec<(u64, u64)>);

/// The read path's request fan-out: a store, the cache in front of it, the
/// block alignment, and how many requests one query keeps in flight.
pub struct Prefetcher<S> {
    store: Arc<S>,
    cache: Arc<TieredCache>,
    block_size: u64,
    width: usize,
}

impl<S: ObjectStore> Prefetcher<S> {
    /// A prefetcher keeping up to `width` requests in flight (the paper
    /// evaluates 32; `1` issues every request inline on the caller).
    pub fn new(store: Arc<S>, cache: Arc<TieredCache>, block_size: u64, width: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Prefetcher { store, cache, block_size, width: width.max(1) }
    }

    /// A demand-reading cached source over one object of known size.
    pub fn source(&self, path: &str, size: u64) -> CachedObjectSource<S> {
        CachedObjectSource::open_with_known_size(
            Arc::clone(&self.store),
            path,
            Arc::clone(&self.cache),
            self.block_size,
            size,
        )
    }

    /// Requests one wave keeps in flight.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The handle of the LogBlock behind `source`: from the object tier,
    /// or read and parsed through `source` and then cached. A header that
    /// fails to read or validate is returned as the error and caches
    /// nothing.
    pub fn handle(&self, source: &CachedObjectSource<S>) -> Result<Arc<LogBlockHandle>> {
        if let Some(handle) = self.cache.handle(source.path()) {
            return Ok(handle);
        }
        self.open_handle(source)
    }

    fn open_handle(&self, source: &CachedObjectSource<S>) -> Result<Arc<LogBlockHandle>> {
        match LogBlockHandle::open(source) {
            Ok(handle) => {
                let handle = Arc::new(handle);
                self.cache.insert_handle(source.path(), Arc::clone(&handle));
                Ok(handle)
            }
            Err(e) => {
                // The header bytes that failed validation came through the
                // block tiers: drop them too, so a retry reads the origin
                // again instead of the same bad copy.
                if matches!(e, Error::Corruption(_)) {
                    self.cache.evict_object(source.path());
                }
                Err(e)
            }
        }
    }

    /// Write-through admission: `bytes` is the LogBlock a writer has just
    /// PUT at `path` and is about to name in the LogBlock map. Afterwards
    /// the cache is as if a reader had opened the object and fetched all of
    /// it — the parsed header in the object tier, every aligned block in
    /// the block tier under the keys a [`CachedObjectSource`] computes — so
    /// the block's first reader plans and reads without a request.
    ///
    /// Bytes whose header does not open admit nothing: the first reader
    /// opens the object the usual way and reports it. An object larger
    /// than the memory tier admits its header only; its blocks would evict
    /// everything else and then each other.
    pub fn admit(&self, path: &str, bytes: &Vec<u8>) {
        let Ok(handle) = LogBlockHandle::open(bytes) else { return };
        self.cache.insert_handle(path, Arc::new(handle));
        if bytes.len() > self.cache.memory_capacity_bytes() {
            return;
        }
        let size = bytes.len() as u64;
        for (offset, len) in aligned_blocks(self.block_size, size, 0, size) {
            let block = bytes[offset as usize..(offset + len) as usize].to_vec();
            self.cache.insert(BlockKey { path: path.to_string(), offset }, Arc::new(block));
        }
    }

    /// The whole object at `path`, assembled from the memory tier when
    /// every aligned block of it is there, without counting a hit or
    /// refreshing a block ([`TieredCache::peek_in_memory`]). `None` when
    /// any block is missing: the caller GETs the object instead.
    pub fn resident(&self, path: &str, size: u64) -> Option<Vec<u8>> {
        let mut key = BlockKey { path: path.to_string(), offset: 0 };
        let blocks = aligned_blocks(self.block_size, size, 0, size)
            .into_iter()
            .map(|(offset, _)| {
                key.offset = offset;
                self.cache.peek_in_memory(&key)
            })
            .collect::<Option<Vec<_>>>()?;
        let mut object = Vec::with_capacity(size as usize);
        for block in &blocks {
            object.extend_from_slice(block);
        }
        (object.len() as u64 == size).then_some(object)
    }

    /// Drops the object at `path` — header and blocks — from every tier.
    pub fn evict(&self, path: &str) {
        self.cache.evict_object(path);
    }

    /// The handles of many LogBlocks `(path, size)`, in input order. Known
    /// ones come from the object tier inline; all the unknown ones are
    /// opened together as one wave.
    pub fn handles(&self, objects: &[(&str, u64)]) -> Vec<Result<Arc<LogBlockHandle>>> {
        let cached: Vec<_> = objects.iter().map(|(path, _)| self.cache.handle(path)).collect();
        let unknown: Vec<(&str, u64)> =
            objects.iter().zip(&cached).filter(|(_, hit)| hit.is_none()).map(|(o, _)| *o).collect();
        let mut opened = ordered_wave(self.width, unknown, |_, (path, size)| {
            self.open_handle(&self.source(path, size))
        })
        .into_iter();
        cached
            .into_iter()
            // One opened handle per miss, in the same order.
            .map(|hit| hit.map(Ok).or_else(|| opened.next()))
            .map(|handle| {
                handle.unwrap_or_else(|| Err(Error::Internal("header wave lost a result".into())))
            })
            .collect()
    }

    /// Plans the fetch of `ranges` — `(offset, len)`, any order, overlaps
    /// allowed — of the object at `path`, whose `size` is known from
    /// metadata (no HEAD is issued).
    pub fn plan(&self, path: &str, size: u64, ranges: Vec<(u64, u64)>) -> ObjectPlan {
        let mut blocks: Vec<(u64, u64)> = merge_ranges(ranges)
            .into_iter()
            .flat_map(|(offset, len)| aligned_blocks(self.block_size, size, offset, len))
            .collect();
        // Two merged ranges can share a block at their edges.
        blocks.dedup();
        ObjectPlan { path: path.to_string(), size, blocks }
    }

    /// Fetches everything `plans` name as one wave and returns one
    /// [`Fetched`] per plan, in plan order.
    ///
    /// Blocks in the memory tier are taken inline, on the caller (a fully
    /// warm plan starts no thread and issues no request); the rest form
    /// maximal contiguous runs per object, and the runs of *all* objects
    /// share one `width`-bounded wave, one origin GET each. A failed run
    /// is counted against its object and never stops the wave.
    pub fn fetch(&self, plans: Vec<ObjectPlan>) -> Vec<Fetched<S>> {
        let mut held: Vec<Vec<(u64, Arc<Vec<u8>>)>> = Vec::with_capacity(plans.len());
        // `(plan index, contiguous cold blocks)`, in plan then
        // offset order — which makes the wave's results, and so the error
        // accounting, a function of the plan and not of completion order.
        let mut runs: Vec<Run> = Vec::new();
        for (i, plan) in plans.iter().enumerate() {
            let mut warm = Vec::new();
            let mut key = BlockKey { path: plan.path.clone(), offset: 0 };
            for &block in &plan.blocks {
                key.offset = block.0;
                if let Some(hit) = self.cache.get_in_memory(&key) {
                    warm.push((block.0, hit));
                    continue;
                }
                match runs.last_mut() {
                    Some((j, run))
                        if *j == i && run.last().is_some_and(|(o, l)| o + l == block.0) =>
                    {
                        run.push(block);
                    }
                    _ => runs.push((i, vec![block])),
                }
            }
            held.push(warm);
        }
        let results = ordered_wave(self.width, &runs, |_, (i, run): &Run| {
            let path = &plans[*i].path;
            self.cache.get_or_fetch_run(path, run, &|r| self.store.get_block_run(path, r))
        });
        let mut errors = vec![0u64; plans.len()];
        for ((i, run), result) in runs.iter().zip(results) {
            match result {
                Ok(parts) => held[*i].extend(run.iter().map(|(offset, _)| *offset).zip(parts)),
                Err(_) => errors[*i] += 1,
            }
        }
        plans
            .iter()
            .zip(held)
            .zip(errors)
            .map(|((plan, held), errors)| Fetched {
                source: self.source(&plan.path, plan.size).with_held(held),
                errors,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logstore_logblock::pack::RangeSource;
    use logstore_oss::{FaultScope, FaultyStore, LatencyModel, MemoryStore, SimulatedOss};

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

    type Sim = SimulatedOss<MemoryStore>;

    fn setup(objects: &[(&str, usize)], block: u64, width: usize) -> (Prefetcher<Sim>, Arc<Sim>) {
        let store = Arc::new(SimulatedOss::new(MemoryStore::new(), LatencyModel::zero(), 1));
        for (path, size) in objects {
            store.inner().put(path, &vec![5u8; *size]).unwrap();
        }
        let cache = Arc::new(TieredCache::memory_only(1 << 24));
        (Prefetcher::new(Arc::clone(&store), cache, block, width), store)
    }

    #[test]
    fn a_contiguous_cold_range_is_one_get_and_later_reads_need_none() {
        let (p, store) = setup(&[("obj", 1 << 16)], 4096, 8);
        let fetched = p.fetch(vec![p.plan("obj", 1 << 16, vec![(0, 1 << 16)])]);
        assert_eq!(fetched.len(), 1);
        assert_eq!(fetched[0].errors, 0);
        assert_eq!(store.metrics().get_requests, 1, "16 contiguous cold blocks are one run");
        // The wave's own source serves everything from what it holds …
        assert_eq!(fetched[0].source.read_at(0, 1 << 16).unwrap(), vec![5u8; 1 << 16]);
        // … and the blocks are in the cache for everyone else.
        assert_eq!(p.source("obj", 1 << 16).read_at(100, 50_000).unwrap().len(), 50_000);
        assert_eq!(store.metrics().get_requests, 1);
    }

    #[test]
    fn duplicate_and_overlapping_requests_fetch_once() {
        let (p, store) = setup(&[("obj", 8192)], 1024, 4);
        let ranges = vec![(0, 1000), (500, 1000), (0, 1000), (2000, 10), (2001, 5), (5000, 10)];
        let request = p.plan("obj", 8192, ranges);
        // [0,1500) and [2000,2011) share block 1; [5000,5010) is block 4.
        assert_eq!(request.bytes(), 3 * 1024);
        let fetched = p.fetch(vec![request]);
        assert_eq!(fetched[0].errors, 0);
        // Blocks {0, 1} are one run, block 4 another.
        assert_eq!(store.metrics().get_requests, 2);
        assert_eq!(store.metrics().bytes_read, 3 * 1024);
    }

    #[test]
    fn one_wave_spans_objects_and_splits_runs_around_warm_blocks() {
        let (p, store) = setup(&[("a", 8192), ("b", 4096)], 1024, 8);
        // Warm block 2 of "a".
        p.source("a", 8192).read_at(2048, 10).unwrap();
        assert_eq!(store.metrics().get_requests, 1);
        let before = p.cache.stats();
        let fetched =
            p.fetch(vec![p.plan("a", 8192, vec![(0, 8192)]), p.plan("b", 4096, vec![(0, 4096)])]);
        // "a": runs [0,1] and [3..7]; "b": one run. Three GETs, one wave.
        assert_eq!(store.metrics().get_requests, 1 + 3);
        let stats = p.cache.stats().delta_since(&before);
        assert_eq!(stats.memory_hits, 1, "the warm block is one inline lookup");
        assert_eq!(stats.misses, 7 + 4);
        assert_eq!(stats.coalesced_gets, 3);
        for (f, size) in fetched.iter().zip([8192u64, 4096]) {
            assert_eq!(f.errors, 0);
            assert_eq!(f.source.read_at(0, size).unwrap().len() as u64, size);
        }
        // Reads were served from held blocks: not one more cache lookup.
        assert_eq!(p.cache.stats().delta_since(&before), stats);
    }

    #[test]
    fn an_empty_or_fully_warm_plan_issues_nothing() {
        let (p, store) = setup(&[("obj", 1024)], 256, 4);
        assert!(p.fetch(Vec::new()).is_empty());
        let empty = p.plan("obj", 1024, vec![(10, 0)]);
        assert_eq!(empty.bytes(), 0);
        p.fetch(vec![empty]);
        assert_eq!(store.metrics().get_requests, 0);
        // Warm everything, then poison the origin: a warm plan never asks.
        p.fetch(vec![p.plan("obj", 1024, vec![(0, 1024)])]);
        assert_eq!(store.metrics().get_requests, 1);
        store.inner().delete("obj").unwrap();
        let warm = p.fetch(vec![p.plan("obj", 1024, vec![(0, 1024)])]);
        assert_eq!(warm[0].errors, 0);
        assert_eq!(warm[0].source.read_at(0, 1024).unwrap().len(), 1024);
        assert_eq!(store.metrics().get_requests, 1);
    }

    #[test]
    fn a_failed_request_is_counted_and_the_demand_read_decides() {
        let (p, store) = setup(&[("gone", 100), ("here", 100)], 64, 2);
        // Delete one object behind the plan's back.
        store.inner().delete("gone").unwrap();
        let fetched =
            p.fetch(vec![p.plan("gone", 100, vec![(0, 100)]), p.plan("here", 100, vec![(0, 100)])]);
        assert_eq!(fetched[0].errors, 1, "one run, one failed request");
        assert_eq!(fetched[1].errors, 0, "the other object's run is unaffected");
        let err = fetched[0].source.read_at(0, 100).unwrap_err();
        assert!(matches!(err, logstore_types::Error::NotFound(_)), "{err}");
        assert_eq!(fetched[1].source.read_at(0, 100).unwrap(), vec![5u8; 100]);
    }

    #[test]
    fn a_partial_wave_still_fetches_the_other_runs() {
        let store = Arc::new(SimulatedOss::new(
            FaultyStore::new(MemoryStore::new(), FaultScope::Reads, 0.0, 1),
            LatencyModel::zero(),
            1,
        ));
        store.inner().inner().put("obj", &vec![7u8; 8 * 1024]).unwrap();
        let cache = Arc::new(TieredCache::memory_only(1 << 20));
        // Width 1 keeps the wave inline, so the one scheduled fault lands
        // on a deterministic run: the first.
        let p = Prefetcher::new(Arc::clone(&store), cache, 1024, 1);
        let request = p.plan("obj", 8 * 1024, vec![(0, 1024), (2048, 1024), (4096, 4096)]);
        store.inner().fail_next(1);
        let fetched = p.fetch(vec![request]);
        assert_eq!(fetched[0].errors, 1);
        // The two later runs were fetched and are held; only the failed
        // run's block is missing, and a demand read repairs it.
        assert_eq!(store.metrics().get_requests, 3);
        assert_eq!(fetched[0].source.read_at(2048, 1024).unwrap(), vec![7u8; 1024]);
        assert_eq!(fetched[0].source.read_at(4096, 4096).unwrap(), vec![7u8; 4096]);
        assert_eq!(store.metrics().get_requests, 3);
        assert_eq!(fetched[0].source.read_at(0, 8 * 1024).unwrap(), vec![7u8; 8 * 1024]);
        assert_eq!(store.metrics().get_requests, 3 + 2, "block 0 and block 1 were never held");
    }

    #[test]
    fn runs_of_one_wave_are_in_flight_together() {
        // Each GET parks until all four runs have been issued: only a wave
        // that keeps every run of every object in flight at once finishes.
        struct Rendezvous(MemoryStore, std::sync::Barrier);
        impl ObjectStore for Rendezvous {
            fn put(&self, path: &str, data: &[u8]) -> Result<()> {
                self.0.put(path, data)
            }
            fn get(&self, path: &str) -> Result<Vec<u8>> {
                self.0.get(path)
            }
            fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
                self.1.wait();
                self.0.get_range(path, offset, len)
            }
            fn head(&self, path: &str) -> Result<u64> {
                self.0.head(path)
            }
            fn list(&self, prefix: &str) -> Result<Vec<String>> {
                self.0.list(prefix)
            }
            fn delete(&self, path: &str) -> Result<()> {
                self.0.delete(path)
            }
        }
        let store = Arc::new(Rendezvous(MemoryStore::new(), std::sync::Barrier::new(4)));
        for path in ["a", "b"] {
            store.put(path, &[1u8; 4096]).unwrap();
        }
        let cache = Arc::new(TieredCache::memory_only(1 << 20));
        let p = Prefetcher::new(Arc::clone(&store), cache, 1024, 4);
        let two_runs = |path: &str| p.plan(path, 4096, vec![(0, 1024), (3000, 10)]);
        let fetched = p.fetch(vec![two_runs("a"), two_runs("b")]);
        assert!(fetched.iter().all(|f| f.errors == 0));
    }

    /// The bytes of a LogBlock of `rows` rows.
    fn logblock(rows: i64) -> Vec<u8> {
        use logstore_codec::Compression;
        use logstore_logblock::LogBlockBuilder;
        use logstore_types::{TableSchema, Value};
        let mut b =
            LogBlockBuilder::with_options(TableSchema::request_log(), Compression::LzHigh, 64);
        for i in 0..rows {
            b.add_row(&[
                Value::U64(1),
                Value::I64(i),
                Value::from("10.0.0.1"),
                Value::from("/api"),
                Value::I64(i % 30),
                Value::Bool(false),
                Value::from(format!("line {i}")),
            ])
            .unwrap();
        }
        b.finish().unwrap()
    }

    /// An origin nobody may read: every byte has to come from the cache.
    struct NoReads(MemoryStore);
    impl ObjectStore for NoReads {
        fn put(&self, path: &str, data: &[u8]) -> Result<()> {
            self.0.put(path, data)
        }
        fn get(&self, path: &str) -> Result<Vec<u8>> {
            panic!("GET {path}")
        }
        fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
            panic!("GET {path} {offset}+{len}")
        }
        fn head(&self, path: &str) -> Result<u64> {
            self.0.head(path)
        }
        fn list(&self, prefix: &str) -> Result<Vec<String>> {
            self.0.list(prefix)
        }
        fn delete(&self, path: &str) -> Result<()> {
            self.0.delete(path)
        }
    }

    #[test]
    fn an_admitted_object_is_read_under_the_keys_a_reader_computes() {
        let bytes = logblock(400);
        let size = bytes.len() as u64;
        // A block size that leaves a short last block.
        let block = 1000;
        assert!(size > 3 * block && !size.is_multiple_of(block), "{size}");
        let cache = Arc::new(TieredCache::memory_only(1 << 20).with_object_tier(1 << 20));
        let p =
            Prefetcher::new(Arc::new(NoReads(MemoryStore::new())), Arc::clone(&cache), block, 4);
        p.admit("blk", &bytes);

        // The header comes from the object tier, every member and the
        // object's tail from the block tier: the origin is never asked.
        let source = p.source("blk", size);
        let handle = p.handle(&source).unwrap();
        assert_eq!(handle.meta().row_count, 400);
        let mut ranges = vec![(0, size), (size - 1, 1), (size / block * block, size % block)];
        for member in handle.manifest().members() {
            ranges.extend(handle.manifest().member_object_range(&member.name));
        }
        assert!(ranges.len() > 10, "{ranges:?}");
        for (offset, len) in ranges {
            let want = &bytes[offset as usize..(offset + len) as usize];
            assert_eq!(source.read_at(offset, len).unwrap(), want, "{offset}+{len}");
        }
        // So does a planned wave, and so does the whole-object peek —
        // which is not a lookup.
        let fetched = p.fetch(vec![p.plan("blk", size, vec![(0, size)])]);
        assert_eq!(fetched[0].errors, 0);
        let before = cache.stats();
        assert_eq!(p.resident("blk", size).unwrap(), bytes);
        assert_eq!(cache.stats(), before);
        assert_eq!(before.misses, 0);

        // One missing block and the object is not resident.
        cache.evict_object("blk");
        assert!(p.resident("blk", size).is_none());
        p.admit("blk", &bytes);
        cache.clear_memory();
        cache.insert(BlockKey { path: "blk".into(), offset: 0 }, Arc::new(bytes[..1000].to_vec()));
        assert!(p.resident("blk", size).is_none());
    }

    #[test]
    fn admission_refuses_what_does_not_open_or_does_not_fit() {
        let store = Arc::new(MemoryStore::new());
        let bytes = logblock(400);
        let size = bytes.len() as u64;
        // Room for the object's header, not for its blocks.
        let small = size as usize / 2;
        let cache = Arc::new(TieredCache::memory_only(small).with_object_tier(1 << 20));
        let p = Prefetcher::new(Arc::clone(&store), Arc::clone(&cache), 512, 4);
        let keep = BlockKey { path: "other".into(), offset: 0 };
        cache.insert(keep.clone(), Arc::new(vec![1u8; 512]));
        p.admit("big", &bytes);
        assert!(cache.contains_in_memory(&keep), "an object that cannot fit evicts nothing");
        assert!(cache.handle("big").is_some(), "its header is in the object tier all the same");
        assert_eq!(cache.evict_object("big"), 0, "and none of its blocks is kept");

        // Bytes that are not a LogBlock: no header, no block.
        let roomy = Arc::new(TieredCache::memory_only(1 << 20).with_object_tier(1 << 20));
        let p = Prefetcher::new(store, Arc::clone(&roomy), 512, 4);
        p.admit("junk", &vec![9u8; 5000]);
        let mut torn = bytes.clone();
        torn[12] ^= 0xff;
        p.admit("torn", &torn);
        for path in ["junk", "torn"] {
            assert!(roomy.handle(path).is_none(), "{path}");
            assert_eq!(roomy.evict_object(path), 0, "{path}");
        }
    }

    #[test]
    fn handles_come_from_the_tier_or_one_wave_and_failures_cache_nothing() {
        let store = Arc::new(SimulatedOss::new(MemoryStore::new(), LatencyModel::zero(), 1));
        let mut sizes = Vec::new();
        for path in ["blk-0", "blk-1"] {
            let bytes = logblock(100);
            sizes.push(bytes.len() as u64);
            store.inner().put(path, &bytes).unwrap();
        }
        store.inner().put("junk", &[9u8; 500]).unwrap();
        let cache = Arc::new(TieredCache::memory_only(1 << 20).with_object_tier(1 << 20));
        let p = Prefetcher::new(Arc::clone(&store), Arc::clone(&cache), 64 * 1024, 4);
        let objects = [("blk-0", sizes[0]), ("junk", 500), ("blk-1", sizes[1])];
        let first = p.handles(&objects);
        assert!(first[0].is_ok() && first[2].is_ok());
        assert!(matches!(first[1], Err(logstore_types::Error::Corruption(_))));
        assert_eq!(store.metrics().get_requests, 3, "one block-0 GET per unknown object");
        assert!(cache.handle("junk").is_none(), "a failed open caches nothing");
        // Second time: two tier hits, and the failed one is read again —
        // from the origin, its bad blocks were dropped — and fails again.
        let second = p.handles(&objects);
        assert!(Arc::ptr_eq(first[0].as_ref().unwrap(), second[0].as_ref().unwrap()));
        assert!(second[1].is_err());
        assert_eq!(store.metrics().get_requests, 4);
        // Eviction drops the handle with the blocks.
        cache.evict_object("blk-0");
        assert!(cache.handle("blk-0").is_none());
        assert!(cache.handle("blk-1").is_some());
    }
}
