//! Cached, block-aligned access to OSS objects.
//!
//! [`CachedObjectSource`] adapts one OSS object into a
//! [`logstore_logblock::pack::RangeSource`], widening every read to fixed
//! cache blocks (the Fig 9 "block alignment adapter") so that nearby reads
//! — e.g. a LogBlock's manifest, meta and first column — share I/O through
//! the [`TieredCache`].
//!
//! A demand read that misses a run of contiguous blocks fetches the whole
//! run with **one** origin range GET (via
//! [`TieredCache::get_or_fetch_run`] + `ObjectStore::get_block_run`), and
//! a read for exactly one aligned block is served zero-copy as the cached
//! `Arc` through [`RangeSource::read_at_shared`].
//!
//! A source can also **hold** blocks: the query's fetch wave
//! ([`crate::prefetch::Prefetcher::fetch`]) hands it the blocks it
//! resolved, and any read those cover is served from them — no cache
//! lookup, no lock — whatever the cache has evicted since. Everything
//! else falls through to the demand path above.

use crate::tiered::TieredCache;
use logstore_logblock::pack::RangeSource;
use logstore_oss::ObjectStore;
use logstore_types::{Error, Result};
use std::sync::Arc;

/// Default cache block size (128 KiB — the middle of the paper's
/// 1k/128k/1024k block menu).
pub const DEFAULT_BLOCK_SIZE: u64 = 128 * 1024;

/// The block-aligned ranges `(offset, len)` covering `[offset, offset+len)`
/// of an object of `size` bytes. The blocks are contiguous (each starts
/// where the previous one ends) and the last is clipped to the object.
pub(crate) fn aligned_blocks(block_size: u64, size: u64, offset: u64, len: u64) -> Vec<(u64, u64)> {
    if len == 0 || offset >= size {
        return Vec::new();
    }
    let end = offset.saturating_add(len).min(size);
    let first = offset / block_size;
    let last = (end - 1) / block_size;
    (first..=last)
        .map(|b| {
            let start = b * block_size;
            (start, block_size.min(size - start))
        })
        .collect()
}

/// A cached view of one object.
pub struct CachedObjectSource<S> {
    store: Arc<S>,
    path: String,
    size: u64,
    block_size: u64,
    cache: Arc<TieredCache>,
    /// Aligned blocks `(offset, bytes)` handed over by a fetch wave, sorted
    /// by offset.
    held: Vec<(u64, Arc<Vec<u8>>)>,
}

impl<S: ObjectStore> CachedObjectSource<S> {
    /// Opens the object (one HEAD to learn its size).
    pub fn open(store: Arc<S>, path: impl Into<String>, cache: Arc<TieredCache>) -> Result<Self> {
        Self::open_with_block_size(store, path, cache, DEFAULT_BLOCK_SIZE)
    }

    /// Opens with a custom alignment block size.
    pub fn open_with_block_size(
        store: Arc<S>,
        path: impl Into<String>,
        cache: Arc<TieredCache>,
        block_size: u64,
    ) -> Result<Self> {
        let path = path.into();
        let size = store.head(&path)?;
        Ok(Self::open_with_known_size(store, path, cache, block_size, size))
    }

    /// Opens without the HEAD round-trip, for callers that already know
    /// the object's size from metadata (e.g. the LogBlock map).
    pub fn open_with_known_size(
        store: Arc<S>,
        path: impl Into<String>,
        cache: Arc<TieredCache>,
        block_size: u64,
        size: u64,
    ) -> Self {
        assert!(block_size > 0, "block size must be positive");
        CachedObjectSource { store, path: path.into(), size, block_size, cache, held: Vec::new() }
    }

    /// Hands the source aligned blocks `(offset, bytes)` of this object
    /// that the caller already resolved; reads they cover never touch the
    /// cache.
    pub fn with_held(mut self, mut blocks: Vec<(u64, Arc<Vec<u8>>)>) -> Self {
        blocks.sort_unstable_by_key(|(offset, _)| *offset);
        self.held = blocks;
        self
    }

    /// The object path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The alignment block size.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// The cache this source reads through.
    pub fn cache(&self) -> &Arc<TieredCache> {
        &self.cache
    }

    fn held_block(&self, block_offset: u64) -> Option<&Arc<Vec<u8>>> {
        let at = self.held.binary_search_by_key(&block_offset, |(offset, _)| *offset).ok()?;
        Some(&self.held[at].1)
    }

    fn fetch_block(&self, block_offset: u64, block_len: u64) -> Result<Arc<Vec<u8>>> {
        let mut run = self.fetch_covering_blocks(&[(block_offset, block_len)])?;
        run.pop().ok_or_else(|| Error::Internal("a one-block run returned no block".into()))
    }

    /// Checks `[offset, offset+len)` against the object, rejecting
    /// overflowing or out-of-bounds ranges.
    fn check_range(&self, offset: u64, len: u64) -> Result<()> {
        let end = offset.checked_add(len).ok_or_else(|| {
            logstore_types::Error::invalid(format!(
                "range {offset}+{len} overflows in object '{}'",
                self.path
            ))
        })?;
        if end > self.size {
            return Err(logstore_types::Error::invalid(format!(
                "range {offset}+{len} beyond object '{}' of {} bytes",
                self.path, self.size
            )));
        }
        Ok(())
    }

    /// Resolves every aligned block covering the range: from the held
    /// blocks when they cover all of it, otherwise through the cache,
    /// coalescing runs of cold blocks into single origin GETs.
    fn fetch_covering_blocks(&self, blocks: &[(u64, u64)]) -> Result<Vec<Arc<Vec<u8>>>> {
        let held: Option<Vec<_>> =
            blocks.iter().map(|(offset, _)| self.held_block(*offset).cloned()).collect();
        if let Some(held) = held {
            return Ok(held);
        }
        self.cache
            .get_or_fetch_run(&self.path, blocks, &|run| self.store.get_block_run(&self.path, run))
    }
}

impl<S: ObjectStore> RangeSource for CachedObjectSource<S> {
    fn read_at(&self, offset: u64, len: u64) -> Result<Vec<u8>> {
        if len == 0 {
            return Ok(Vec::new());
        }
        self.check_range(offset, len)?;
        let blocks = aligned_blocks(self.block_size, self.size, offset, len);
        let parts = self.fetch_covering_blocks(&blocks)?;
        let mut out = Vec::with_capacity(len as usize);
        for (part, (block_offset, block_len)) in parts.iter().zip(&blocks) {
            let start = offset.max(*block_offset) - block_offset;
            let end = (offset + len).min(block_offset + block_len) - block_offset;
            out.extend_from_slice(&part[start as usize..end as usize]);
        }
        Ok(out)
    }

    fn read_at_shared(&self, offset: u64, len: u64) -> Result<Arc<Vec<u8>>> {
        if len > 0 && offset.is_multiple_of(self.block_size) {
            self.check_range(offset, len)?;
            let block_len = self.block_size.min(self.size - offset);
            if len == block_len {
                // Exactly one aligned block: hand out the cached buffer
                // itself instead of copying it.
                return self.fetch_block(offset, block_len);
            }
        }
        self.read_at(offset, len).map(Arc::new)
    }

    fn size(&self) -> u64 {
        self.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logstore_oss::{LatencyModel, MemoryStore, SimulatedOss};

    type SimSource = CachedObjectSource<SimulatedOss<MemoryStore>>;

    fn setup_with_store(
        object: &[u8],
        block_size: u64,
    ) -> (Arc<SimulatedOss<MemoryStore>>, SimSource) {
        let store = SimulatedOss::new(MemoryStore::new(), LatencyModel::zero(), 1);
        store.inner().put("obj", object).unwrap();
        let store = Arc::new(store);
        let cache = Arc::new(TieredCache::memory_only(1 << 20));
        let src =
            CachedObjectSource::open_with_block_size(Arc::clone(&store), "obj", cache, block_size)
                .unwrap();
        (store, src)
    }

    fn setup(object: &[u8], block_size: u64) -> SimSource {
        setup_with_store(object, block_size).1
    }

    #[test]
    fn reads_match_raw_object() {
        let object: Vec<u8> = (0..255u8).cycle().take(1000).collect();
        let src = setup(&object, 64);
        assert_eq!(src.size(), 1000);
        for (off, len) in [(0u64, 10u64), (60, 10), (63, 2), (990, 10), (0, 1000), (500, 0)] {
            assert_eq!(
                src.read_at(off, len).unwrap(),
                object[off as usize..(off + len) as usize],
                "range {off}+{len}"
            );
        }
        assert!(src.read_at(995, 10).is_err());
    }

    #[test]
    fn overflowing_range_is_rejected_not_wrapped() {
        let src = setup(&[1u8; 100], 64);
        // offset + len wraps u64; the old unchecked addition let this pass
        // the bounds check and panic downstream.
        let err = src.read_at(u64::MAX - 5, 10).unwrap_err();
        assert!(matches!(err, logstore_types::Error::InvalidArgument(_)), "{err}");
        let err = src.read_at(50, u64::MAX).unwrap_err();
        assert!(matches!(err, logstore_types::Error::InvalidArgument(_)), "{err}");
        assert!(src.read_at_shared(u64::MAX - 63, 64).is_err());
    }

    #[test]
    fn alignment_reduces_origin_requests() {
        let object = vec![7u8; 4096];
        let src = setup(&object, 1024);
        // 8 tiny reads inside the first block → exactly 1 origin GET.
        for i in 0..8 {
            src.read_at(i * 100, 50).unwrap();
        }
        assert_eq!(src.cache.stats().misses, 1);
        assert_eq!(src.cache.stats().memory_hits, 7);
    }

    #[test]
    fn cold_spanning_read_coalesces_to_one_origin_get() {
        let object: Vec<u8> = (0..=255u8).cycle().take(8192).collect();
        let (store, src) = setup_with_store(&object, 1024);
        let got = src.read_at(0, 8192).unwrap();
        assert_eq!(got, object);
        let stats = src.cache.stats();
        assert_eq!(stats.misses, 8, "8 cold blocks");
        assert_eq!(stats.coalesced_gets, 1);
        assert_eq!(
            store.metrics().get_requests,
            1,
            "a cold run of 8 blocks must be one origin GET"
        );
    }

    #[test]
    fn warm_blocks_split_coalesced_runs() {
        let object: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let (store, src) = setup_with_store(&object, 1024);
        // Warm block 1 (bytes 1024..2048) via a tiny read.
        src.read_at(1500, 10).unwrap();
        assert_eq!(store.metrics().get_requests, 1);
        // Spanning read: runs [block 0] and [blocks 2, 3] → two more GETs.
        let got = src.read_at(0, 4096).unwrap();
        assert_eq!(got, object);
        assert_eq!(store.metrics().get_requests, 3);
    }

    #[test]
    fn full_block_read_shared_is_zero_copy() {
        let object = vec![9u8; 3000];
        let src = setup(&object, 1024);
        let a = src.read_at_shared(1024, 1024).unwrap();
        let b = src.read_at_shared(1024, 1024).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "full-block reads must share the cached Arc");
        assert_eq!(*a, object[1024..2048]);
        // The clipped tail block is also eligible.
        let tail = src.read_at_shared(2048, 3000 - 2048).unwrap();
        assert_eq!(*tail, object[2048..]);
        // Unaligned reads still work through the copying path.
        let partial = src.read_at_shared(100, 50).unwrap();
        assert_eq!(*partial, object[100..150]);
    }

    #[test]
    fn aligned_blocks_cover_and_clip() {
        let blocks = |offset, len| aligned_blocks(256, 1000, offset, len);
        assert_eq!(blocks(0, 1), vec![(0, 256)]);
        assert_eq!(blocks(255, 2), vec![(0, 256), (256, 256)]);
        // Tail block clipped to object size.
        assert_eq!(blocks(900, 100), vec![(768, 232)]);
        assert_eq!(blocks(0, 0), Vec::<(u64, u64)>::new());
        assert_eq!(blocks(2000, 5), Vec::<(u64, u64)>::new());
    }

    #[test]
    fn held_blocks_serve_without_the_cache_and_the_rest_falls_through() {
        let object: Vec<u8> = (0..=255u8).cycle().take(2048).collect();
        let (store, src) = setup_with_store(&object, 512);
        // Hold blocks 1 and 2 (bytes 512..1536), then poison nothing: the
        // counters tell which path served a read.
        let held = [512u64, 1024]
            .map(|off| (off, Arc::new(object[off as usize..off as usize + 512].to_vec())));
        let src = src.with_held(held.to_vec());
        assert_eq!(src.read_at(600, 800).unwrap(), object[600..1400]);
        let shared = src.read_at_shared(1024, 512).unwrap();
        assert!(Arc::ptr_eq(&shared, &held[1].1), "an aligned held block is handed out as is");
        assert_eq!(src.cache.stats().lookups(), 0, "held reads never touch the cache");
        assert_eq!(store.metrics().get_requests, 0);
        // A range that leaves the held blocks is a demand read, whole.
        assert_eq!(src.read_at(400, 300).unwrap(), object[400..700]);
        assert_eq!(store.metrics().get_requests, 1);
        assert_eq!(src.cache.stats().misses, 2);
    }

    /// Delegates to a [`MemoryStore`] but drops the last byte of every
    /// range reply.
    struct ShortRanges(MemoryStore);

    impl ObjectStore for ShortRanges {
        fn put(&self, path: &str, data: &[u8]) -> Result<()> {
            self.0.put(path, data)
        }
        fn get(&self, path: &str) -> Result<Vec<u8>> {
            self.0.get(path)
        }
        fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
            let mut reply = self.0.get_range(path, offset, len)?;
            reply.pop();
            Ok(reply)
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
    fn a_short_origin_reply_is_an_error_on_every_read_path() {
        let store = ShortRanges(MemoryStore::new());
        store.put("obj", &[5u8; 3000]).unwrap();
        let cache = Arc::new(TieredCache::memory_only(1 << 20));
        let src =
            CachedObjectSource::open_with_block_size(Arc::new(store), "obj", cache, 1024).unwrap();
        // A spanning read, and the zero-copy read of one aligned block.
        for err in [src.read_at(0, 3000).unwrap_err(), src.read_at_shared(1024, 1024).unwrap_err()]
        {
            assert!(matches!(err, Error::Corruption(_)), "{err}");
        }
        assert_eq!(src.cache().stats().bytes_from_origin, 0, "nothing short is cached");
    }

    #[test]
    fn spanning_read_stitches_blocks() {
        let object: Vec<u8> = (0..=255u8).cycle().take(700).collect();
        let src = setup(&object, 100);
        let got = src.read_at(50, 600).unwrap();
        assert_eq!(got, object[50..650]);
    }
}
