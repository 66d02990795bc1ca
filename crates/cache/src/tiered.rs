//! The multi-level cache (paper Fig 9), built for concurrency.
//!
//! Object tier → memory block tier → disk (SSD) block tier → origin.
//!
//! The **object tier** keeps parsed LogBlock headers
//! ([`LogBlockHandle`]: pack manifest, `meta`, index dictionaries) by
//! object path, so a query can plan every read of a LogBlock it has seen
//! before without fetching, checksumming or parsing anything. It is one
//! byte-bounded [`SizedLru`] charged [`LogBlockHandle::charge_bytes`] per
//! entry, fixed at insert; only a handle that opened cleanly is ever
//! inserted, and [`TieredCache::evict_object`] drops it with the
//! object's blocks.
//!
//! The **block tiers** hold fixed, aligned byte ranges. Memory evictions
//! spill to disk ("when its size exceeds the threshold, the memory cache
//! will spill to the SSD block cache"); disk hits are promoted back to
//! memory.
//!
//! Three mechanisms make the block path scale under parallel queries:
//!
//! * **Sharded tiers** — each tier's [`SizedLru`] is split into 2^k
//!   hash-sharded shards with a per-shard mutex and a per-shard byte
//!   budget, so parallel scans stop serializing on one global lock;
//! * **Singleflight** — a per-key in-flight table dedups concurrent misses:
//!   N readers of the same cold block perform exactly one origin GET
//!   (errors propagate to all waiters and are never cached). The
//!   prefetcher and demand reads share this table;
//! * **Coalesced runs** — [`TieredCache::get_or_fetch_run`] fetches a
//!   contiguous run of cold blocks with one origin range GET instead of
//!   one GET per block.

use crate::lru::SizedLru;
use crate::singleflight::{FlightRole, SingleFlight};
use logstore_codec::crc::crc32c;
use logstore_logblock::LogBlockHandle;
use logstore_sync::OrderedMutex;
use logstore_types::{Error, Result};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cache block key: one aligned byte range of one object.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BlockKey {
    /// Object path on OSS.
    pub path: String,
    /// Aligned block offset.
    pub offset: u64,
}

/// A coalesced origin fetch: given a contiguous run of `(offset, len)`
/// blocks, returns one buffer per requested block (see
/// `logstore_oss::ObjectStore::get_block_run`).
pub type FetchRunFn<'a> = dyn Fn(&[(u64, u64)]) -> Result<Vec<Vec<u8>>> + 'a;

/// What a run-flight leader hands back: the first block plus the tail of
/// blocks its coalesced GET also covered.
type LedRun = (Arc<Vec<u8>>, Vec<Arc<Vec<u8>>>);

/// Hit/miss and concurrency counters.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CacheStats {
    /// Served from the memory tier.
    pub memory_hits: u64,
    /// Served from the disk tier.
    pub disk_hits: u64,
    /// Fetched from the origin.
    pub misses: u64,
    /// Bytes fetched from the origin (demand + prefetch alike).
    pub bytes_from_origin: u64,
    /// Origin range GETs that covered more than one aligned block — each
    /// saved at least one round-trip over per-block fetching.
    pub coalesced_gets: u64,
    /// Lookups that blocked on another reader's in-flight fetch instead of
    /// issuing their own origin GET (the thundering-herd savings).
    pub singleflight_waits: u64,
    /// Disk-tier spill writes that failed. Non-fatal by design: a cache
    /// write can never fail a read.
    pub spill_failures: u64,
    /// LogBlock headers served from the object tier.
    pub object_hits: u64,
    /// Object-tier lookups that found no handle (the header is then read
    /// and parsed through the block tiers).
    pub object_misses: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.memory_hits + self.disk_hits + self.misses
    }

    /// Any-tier hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            (self.memory_hits + self.disk_hits) as f64 / lookups as f64
        }
    }

    /// Counter increments since `earlier` (counters are monotonic, so a
    /// plain saturating field-wise subtraction).
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            memory_hits: self.memory_hits.saturating_sub(earlier.memory_hits),
            disk_hits: self.disk_hits.saturating_sub(earlier.disk_hits),
            misses: self.misses.saturating_sub(earlier.misses),
            bytes_from_origin: self.bytes_from_origin.saturating_sub(earlier.bytes_from_origin),
            coalesced_gets: self.coalesced_gets.saturating_sub(earlier.coalesced_gets),
            singleflight_waits: self.singleflight_waits.saturating_sub(earlier.singleflight_waits),
            spill_failures: self.spill_failures.saturating_sub(earlier.spill_failures),
            object_hits: self.object_hits.saturating_sub(earlier.object_hits),
            object_misses: self.object_misses.saturating_sub(earlier.object_misses),
        }
    }
}

/// Rounds a requested shard count up to a power of two (minimum 1), so
/// shard selection is a mask instead of a modulo.
fn shard_count(requested: usize) -> usize {
    requested.max(1).next_power_of_two()
}

/// Stable per-process shard selector for a key.
fn shard_of(key: &BlockKey, mask: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) & mask
}

/// Splits a byte budget across shards, keeping the total within capacity.
fn per_shard_budget(capacity_bytes: usize, shards: usize) -> usize {
    capacity_bytes / shards
}

/// The in-memory tier: 2^k hash-sharded [`SizedLru`]s.
pub struct MemoryBlockCache {
    // One shared label for the whole pool: shards are hash-selected and a
    // thread never holds two at once (the lock analysis would flag it).
    shards: Vec<OrderedMutex<SizedLru<BlockKey, Arc<Vec<u8>>>>>,
    mask: usize,
    capacity_bytes: usize,
}

impl MemoryBlockCache {
    /// Creates a single-shard tier bounded to `capacity_bytes`.
    pub fn new(capacity_bytes: usize) -> Self {
        Self::new_sharded(capacity_bytes, 1)
    }

    /// Creates a tier of `shards` (rounded up to a power of two) shards
    /// splitting `capacity_bytes` evenly.
    pub fn new_sharded(capacity_bytes: usize, shards: usize) -> Self {
        let n = shard_count(shards);
        let budget = per_shard_budget(capacity_bytes, n);
        MemoryBlockCache {
            shards: (0..n)
                .map(|_| OrderedMutex::new("cache.memory.shard", SizedLru::new(budget)))
                .collect(),
            mask: n - 1,
            capacity_bytes: budget * n,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Bytes the tier can hold, all shards together.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Looks up a block.
    pub fn get(&self, key: &BlockKey) -> Option<Arc<Vec<u8>>> {
        self.shards[shard_of(key, self.mask)].lock().get(key).cloned()
    }

    /// Looks up a block without refreshing its recency.
    pub fn peek(&self, key: &BlockKey) -> Option<Arc<Vec<u8>>> {
        self.shards[shard_of(key, self.mask)].lock().peek(key).cloned()
    }

    /// True if the block is cached (no recency refresh — used by the
    /// coalescing planner, which must not perturb LRU order or stats).
    pub fn contains(&self, key: &BlockKey) -> bool {
        self.shards[shard_of(key, self.mask)].lock().contains(key)
    }

    /// Inserts a block, returning spilled evictions from its shard.
    pub fn put(&self, key: BlockKey, data: Arc<Vec<u8>>) -> Vec<(BlockKey, Arc<Vec<u8>>)> {
        let size = data.len();
        self.shards[shard_of(&key, self.mask)].lock().put(key, data, size)
    }

    /// Bytes held across all shards.
    pub fn used_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().used_bytes()).sum()
    }

    /// Drops every block of one object (the object was deleted from OSS).
    pub fn evict_object(&self, path: &str) -> usize {
        self.shards.iter().map(|s| s.lock().remove_matching(|k| k.path == path).len()).sum()
    }

    /// Drops everything.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }
}

/// A disk-tier index entry: where the block lives and what its bytes must
/// look like. Length and CRC are validated on every read so a truncated or
/// corrupted SSD file is treated as a miss, never served as data.
#[derive(Debug, Clone)]
struct DiskEntry {
    file: PathBuf,
    len: usize,
    crc: u32,
}

/// The on-disk (SSD) tier: one file per cached block under a root dir, with
/// a sharded in-memory LRU index whose evictions delete files.
pub struct DiskBlockCache {
    root: PathBuf,
    shards: Vec<OrderedMutex<SizedLru<BlockKey, DiskEntry>>>,
    mask: usize,
    seq: AtomicU64,
}

impl DiskBlockCache {
    /// Opens (creating) a single-shard disk tier bounded to `capacity_bytes`.
    pub fn open(root: impl AsRef<Path>, capacity_bytes: usize) -> Result<Self> {
        Self::open_sharded(root, capacity_bytes, 1)
    }

    /// Opens (creating) a disk tier of `shards` (rounded up to a power of
    /// two) index shards splitting `capacity_bytes` evenly.
    pub fn open_sharded(
        root: impl AsRef<Path>,
        capacity_bytes: usize,
        shards: usize,
    ) -> Result<Self> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        let n = shard_count(shards);
        let budget = per_shard_budget(capacity_bytes, n);
        Ok(DiskBlockCache {
            root,
            shards: (0..n)
                .map(|_| OrderedMutex::new("cache.disk.shard", SizedLru::new(budget)))
                .collect(),
            mask: n - 1,
            seq: AtomicU64::new(0),
        })
    }

    /// Number of index shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Looks up a block, reading and validating its file. A vanished,
    /// truncated or corrupted file is a miss: the index entry is evicted
    /// and the file deleted, so garbage is never served.
    pub fn get(&self, key: &BlockKey) -> Option<Vec<u8>> {
        let shard = &self.shards[shard_of(key, self.mask)];
        let entry = shard.lock().get(key).cloned()?;
        match std::fs::read(&entry.file) {
            Ok(data) if data.len() == entry.len && crc32c(&data) == entry.crc => Some(data),
            Ok(_) => {
                // Truncated or corrupted on disk; evict and delete.
                shard.lock().remove(key);
                let _ = std::fs::remove_file(&entry.file);
                None
            }
            Err(_) => {
                // File vanished under us; drop the index entry.
                shard.lock().remove(key);
                None
            }
        }
    }

    /// True if the block is indexed (no recency refresh, no file I/O).
    pub fn contains(&self, key: &BlockKey) -> bool {
        self.shards[shard_of(key, self.mask)].lock().contains(key)
    }

    /// Inserts a block (spilled from memory or fetched directly).
    pub fn put(&self, key: BlockKey, data: &[u8]) -> Result<()> {
        let file =
            self.root.join(format!("blk-{}.cache", self.seq.fetch_add(1, Ordering::Relaxed)));
        std::fs::write(&file, data)?;
        let entry = DiskEntry { file, len: data.len(), crc: crc32c(data) };
        let evicted = self.shards[shard_of(&key, self.mask)].lock().put(key, entry, data.len());
        for (_, old) in evicted {
            let _ = std::fs::remove_file(old.file);
        }
        Ok(())
    }

    /// Bytes accounted in the index, across all shards.
    pub fn used_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().used_bytes()).sum()
    }

    /// Drops every block of one object, deleting the backing files.
    pub fn evict_object(&self, path: &str) -> usize {
        let mut removed = 0;
        for shard in &self.shards {
            let evicted = shard.lock().remove_matching(|k| k.path == path);
            for (_, entry) in &evicted {
                let _ = std::fs::remove_file(&entry.file);
            }
            removed += evicted.len();
        }
        removed
    }
}

#[derive(Default)]
struct Counters {
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    bytes_from_origin: AtomicU64,
    coalesced_gets: AtomicU64,
    singleflight_waits: AtomicU64,
    spill_failures: AtomicU64,
    object_hits: AtomicU64,
    object_misses: AtomicU64,
}

type ObjectTier = OrderedMutex<SizedLru<String, Arc<LogBlockHandle>>>;

fn object_tier(capacity_bytes: usize) -> ObjectTier {
    OrderedMutex::new("cache.object.handles", SizedLru::new(capacity_bytes))
}

/// Object tier beside memory tier over disk tier over origin, with
/// per-key miss dedup on the block path.
pub struct TieredCache {
    // Zero capacity (admits nothing) until `with_object_tier`. One lock,
    // not a shard pool: a query takes it once per LogBlock, against once
    // per block read for the block tiers. Never held across I/O — handles
    // are opened before they are inserted.
    objects: ObjectTier,
    memory: MemoryBlockCache,
    disk: Option<DiskBlockCache>,
    flights: SingleFlight<BlockKey, Arc<Vec<u8>>>,
    counters: Counters,
}

impl TieredCache {
    /// A memory-only cache with a single shard.
    pub fn memory_only(capacity_bytes: usize) -> Self {
        Self::memory_only_sharded(capacity_bytes, 1)
    }

    /// A memory-only cache split into `shards` hash shards.
    pub fn memory_only_sharded(capacity_bytes: usize, shards: usize) -> Self {
        TieredCache {
            objects: object_tier(0),
            memory: MemoryBlockCache::new_sharded(capacity_bytes, shards),
            disk: None,
            flights: SingleFlight::new(),
            counters: Counters::default(),
        }
    }

    /// Memory + disk tiers (memory sharding matches the disk tier's).
    pub fn with_disk(memory_bytes: usize, disk: DiskBlockCache) -> Self {
        let shards = disk.shard_count();
        TieredCache {
            objects: object_tier(0),
            memory: MemoryBlockCache::new_sharded(memory_bytes, shards),
            disk: Some(disk),
            flights: SingleFlight::new(),
            counters: Counters::default(),
        }
    }

    /// Gives the object tier room for `capacity_bytes` of LogBlock handles
    /// (a cache built without this call keeps none).
    pub fn with_object_tier(mut self, capacity_bytes: usize) -> Self {
        self.objects = object_tier(capacity_bytes);
        self
    }

    /// The cached handle of the LogBlock stored at `path`, if any.
    pub fn handle(&self, path: &str) -> Option<Arc<LogBlockHandle>> {
        let hit = self.objects.lock().get(&path.to_string()).cloned();
        let counter =
            if hit.is_some() { &self.counters.object_hits } else { &self.counters.object_misses };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Caches the handle of the LogBlock stored at `path`. Object paths are
    /// never reused, so an entry can only ever describe the bytes it was
    /// opened from.
    pub fn insert_handle(&self, path: &str, handle: Arc<LogBlockHandle>) {
        let charge = handle.charge_bytes();
        self.objects.lock().put(path.to_string(), handle, charge);
    }

    /// Number of memory-tier shards.
    pub fn shard_count(&self) -> usize {
        self.memory.shard_count()
    }

    /// A flight leader's first step: re-check memory (a completed flight
    /// may have won the race), then disk, promoting a disk hit to memory.
    fn probe_tiers(&self, key: &BlockKey) -> Option<Arc<Vec<u8>>> {
        self.get_in_memory(key).or_else(|| {
            let data = Arc::new(self.disk.as_ref()?.get(key)?);
            self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
            self.insert(key.clone(), Arc::clone(&data));
            Some(data)
        })
    }

    /// Fetches a *contiguous run* of aligned blocks of one object —
    /// `blocks[i] = (offset, len)` with each block starting where the
    /// previous one ends — through the tiers: misses populate memory,
    /// memory evictions spill to disk, and concurrent callers for the same
    /// block share one fetch. Blocks that miss every tier are fetched with
    /// as few coalesced origin range GETs as possible via
    /// `fetch_run(&[(offset, len), ...])`, which must return one buffer of
    /// the requested length per block (see
    /// `logstore_oss::ObjectStore::get_block_run`); a one-block run is the
    /// single-block read.
    pub fn get_or_fetch_run(
        &self,
        path: &str,
        blocks: &[(u64, u64)],
        fetch_run: &FetchRunFn<'_>,
    ) -> Result<Vec<Arc<Vec<u8>>>> {
        debug_assert!(
            blocks.windows(2).all(|w| w[0].0 + w[0].1 == w[1].0),
            "get_or_fetch_run requires contiguous blocks"
        );
        let mut out: Vec<Arc<Vec<u8>>> = Vec::with_capacity(blocks.len());
        let mut i = 0;
        while i < blocks.len() {
            let key = BlockKey { path: path.to_string(), offset: blocks[i].0 };
            if let Some(hit) = self.get_in_memory(&key) {
                out.push(hit);
                i += 1;
                continue;
            }
            // Blocks the flight leader fetched beyond the first, handed out
            // of the closure so the loop consumes them without re-probing
            // (and without re-counting) the memory tier.
            let tail: std::cell::RefCell<Vec<Arc<Vec<u8>>>> = std::cell::RefCell::new(Vec::new());
            let (result, role) = self.flights.run(key.clone(), || {
                let (first, rest) = self.lead_run(&key, blocks, i, fetch_run)?;
                *tail.borrow_mut() = rest;
                Ok(first)
            });
            if role == FlightRole::Waited {
                self.counters.singleflight_waits.fetch_add(1, Ordering::Relaxed);
            }
            out.push(result?);
            i += 1;
            for block in tail.into_inner() {
                out.push(block);
                i += 1;
            }
        }
        Ok(out)
    }

    /// Leader of a run flight for `blocks[start]`: serve from a tier if
    /// possible, otherwise extend the fetch over the following blocks that
    /// are cold in every tier and not already in flight, and fetch that
    /// whole run with one origin GET.
    fn lead_run(
        &self,
        key: &BlockKey,
        blocks: &[(u64, u64)],
        start: usize,
        fetch_run: &FetchRunFn<'_>,
    ) -> Result<LedRun> {
        if let Some(hit) = self.probe_tiers(key) {
            return Ok((hit, Vec::new()));
        }
        // Extend the run over subsequent cold blocks. Stop at the first
        // block that is cached in any tier or already being fetched by
        // someone else (racy check, but a lost race only costs one
        // duplicate GET of identical immutable bytes — never wrong data).
        let mut end = start + 1;
        while end < blocks.len() {
            let next = BlockKey { path: key.path.clone(), offset: blocks[end].0 };
            let cached = self.memory.contains(&next)
                || self.disk.as_ref().is_some_and(|d| d.contains(&next));
            if cached || self.flights.is_in_flight(&next) {
                break;
            }
            end += 1;
        }
        let run = &blocks[start..end];
        let parts = fetch_run(run)?;
        if parts.len() != run.len() {
            return Err(Error::Internal(format!(
                "coalesced fetch returned {} blocks for a run of {}",
                parts.len(),
                run.len()
            )));
        }
        self.counters.misses.fetch_add(run.len() as u64, Ordering::Relaxed);
        if run.len() > 1 {
            self.counters.coalesced_gets.fetch_add(1, Ordering::Relaxed);
        }
        let mut shared: Vec<Arc<Vec<u8>>> = Vec::with_capacity(parts.len());
        for (part, (offset, len)) in parts.into_iter().zip(run) {
            if part.len() as u64 != *len {
                return Err(Error::corruption(format!(
                    "coalesced fetch returned {} bytes for block {offset}+{len}",
                    part.len()
                )));
            }
            self.counters.bytes_from_origin.fetch_add(part.len() as u64, Ordering::Relaxed);
            let part = Arc::new(part);
            self.insert(BlockKey { path: key.path.clone(), offset: *offset }, Arc::clone(&part));
            shared.push(part);
        }
        let first = shared.remove(0);
        Ok((first, shared))
    }

    /// Inserts a block directly (prefetch path). Infallible by design: a
    /// failed disk spill is counted in [`CacheStats::spill_failures`] but
    /// can never fail the caller's read.
    pub fn insert(&self, key: BlockKey, data: Arc<Vec<u8>>) {
        let spilled = self.memory.put(key, data);
        if let Some(disk) = &self.disk {
            for (k, v) in spilled {
                if disk.put(k, &v).is_err() {
                    self.counters.spill_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// True if the block is in the memory tier right now.
    pub fn contains_in_memory(&self, key: &BlockKey) -> bool {
        self.memory.contains(key)
    }

    /// Memory-tier lookup only: a hit is counted and refreshed like any
    /// other, a miss touches nothing (no flight, no disk, no origin) — the
    /// fetch planner resolves warm blocks with this, inline, and sends
    /// only the rest through [`TieredCache::get_or_fetch_run`].
    pub fn get_in_memory(&self, key: &BlockKey) -> Option<Arc<Vec<u8>>> {
        let hit = self.memory.get(key)?;
        self.counters.memory_hits.fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    /// Memory-tier lookup that leaves no trace: not counted as a hit, no
    /// recency refresh, nothing on a miss. For a reader that is not a
    /// query and whose interest says nothing about future reads —
    /// compaction taking the sources it is about to retire.
    pub fn peek_in_memory(&self, key: &BlockKey) -> Option<Arc<Vec<u8>>> {
        self.memory.peek(key)
    }

    /// Bytes the memory block tier can hold.
    pub fn memory_capacity_bytes(&self) -> usize {
        self.memory.capacity_bytes()
    }

    /// Evicts one object from every tier — its handle and every cached
    /// block (GC deleted the object; dead entries must not pin budget).
    /// Returns the number of evicted blocks.
    pub fn evict_object(&self, path: &str) -> usize {
        self.objects.lock().remove(&path.to_string());
        let mut removed = self.memory.evict_object(path);
        if let Some(disk) = &self.disk {
            removed += disk.evict_object(path);
        }
        removed
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            memory_hits: self.counters.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.counters.disk_hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            bytes_from_origin: self.counters.bytes_from_origin.load(Ordering::Relaxed),
            coalesced_gets: self.counters.coalesced_gets.load(Ordering::Relaxed),
            singleflight_waits: self.counters.singleflight_waits.load(Ordering::Relaxed),
            spill_failures: self.counters.spill_failures.load(Ordering::Relaxed),
            object_hits: self.counters.object_hits.load(Ordering::Relaxed),
            object_misses: self.counters.object_misses.load(Ordering::Relaxed),
        }
    }

    /// Clears everything held in memory — the object tier and the memory
    /// block tier (cold-cache experiment phases, tests).
    pub fn clear_memory(&self) {
        self.objects.lock().clear();
        self.memory.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(path: &str, offset: u64) -> BlockKey {
        BlockKey { path: path.to_string(), offset }
    }

    /// The single-block read: a one-block run of `len` bytes at `key`,
    /// served by `origin` on a miss.
    fn read_one(
        cache: &TieredCache,
        key: &BlockKey,
        len: u64,
        origin: impl Fn() -> Result<Vec<u8>>,
    ) -> Result<Arc<Vec<u8>>> {
        let mut run =
            cache.get_or_fetch_run(&key.path, &[(key.offset, len)], &|_| Ok(vec![origin()?]))?;
        Ok(run.remove(0))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "logstore-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_only_hit_miss_accounting() {
        let cache = TieredCache::memory_only(1 << 20);
        let k = key("obj", 0);
        let v1 = read_one(&cache, &k, 3, || Ok(vec![1, 2, 3])).unwrap();
        assert_eq!(*v1, vec![1, 2, 3]);
        let v2 = read_one(&cache, &k, 3, || panic!("must not refetch")).unwrap();
        assert_eq!(*v2, vec![1, 2, 3]);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.memory_hits, 1);
        assert_eq!(stats.bytes_from_origin, 3);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn fetch_error_propagates_and_is_not_cached() {
        let cache = TieredCache::memory_only(1 << 20);
        let k = key("obj", 0);
        let err = read_one(&cache, &k, 1, || Err(logstore_types::Error::NotFound("gone".into())));
        assert!(err.is_err());
        // A later successful fetch works.
        let v = read_one(&cache, &k, 1, || Ok(vec![9])).unwrap();
        assert_eq!(*v, vec![9]);
    }

    #[test]
    fn memory_evictions_spill_to_disk_and_promote_back() {
        let dir = temp_dir("spill");
        let disk = DiskBlockCache::open(&dir, 1 << 20).unwrap();
        // Memory tier fits only one 100-byte block.
        let cache = TieredCache::with_disk(150, disk);
        let k1 = key("obj", 0);
        let k2 = key("obj", 100);
        read_one(&cache, &k1, 100, || Ok(vec![1u8; 100])).unwrap();
        read_one(&cache, &k2, 100, || Ok(vec![2u8; 100])).unwrap(); // evicts k1 to disk
        assert!(!cache.contains_in_memory(&k1));
        // k1 now comes from disk (no refetch) and is promoted.
        let v = read_one(&cache, &k1, 100, || panic!("origin must not be hit")).unwrap();
        assert_eq!(*v, vec![1u8; 100]);
        assert_eq!(cache.stats().disk_hits, 1);
        assert!(cache.contains_in_memory(&k1));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn disk_tier_evicts_files() {
        let dir = temp_dir("evict");
        let disk = DiskBlockCache::open(&dir, 250).unwrap();
        for i in 0..10u64 {
            disk.put(key("obj", i * 100), &[i as u8; 100]).unwrap();
        }
        assert!(disk.used_bytes() <= 250);
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert!(files <= 3, "expected evicted files to be deleted, found {files}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn disk_tier_rejects_corrupted_entries() {
        let dir = temp_dir("corrupt");
        let disk = DiskBlockCache::open(&dir, 1 << 20).unwrap();
        let k = key("obj", 0);
        disk.put(k.clone(), &[7u8; 64]).unwrap();
        assert_eq!(disk.get(&k).unwrap(), vec![7u8; 64]);
        // Flip one byte in the backing file.
        let file = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let mut bytes = std::fs::read(&file).unwrap();
        bytes[10] ^= 0xff;
        std::fs::write(&file, &bytes).unwrap();
        assert!(disk.get(&k).is_none(), "corrupted entry must be a miss");
        assert_eq!(disk.used_bytes(), 0, "corrupted entry must be evicted from the index");
        assert!(disk.get(&k).is_none(), "entry stays gone");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn disk_tier_rejects_truncated_entries() {
        let dir = temp_dir("truncate");
        let disk = DiskBlockCache::open(&dir, 1 << 20).unwrap();
        let k = key("obj", 0);
        disk.put(k.clone(), &[3u8; 128]).unwrap();
        let file = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let bytes = std::fs::read(&file).unwrap();
        std::fs::write(&file, &bytes[..17]).unwrap();
        assert!(disk.get(&k).is_none(), "truncated entry must be a miss");
        assert_eq!(disk.used_bytes(), 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn spill_failure_is_counted_not_fatal() {
        let dir = temp_dir("spillfail");
        let disk = DiskBlockCache::open(&dir, 1 << 20).unwrap();
        let cache = TieredCache::with_disk(150, disk);
        // Remove the disk root so every spill write fails.
        std::fs::remove_dir_all(&dir).unwrap();
        let v1 = read_one(&cache, &key("obj", 0), 100, || Ok(vec![1u8; 100])).unwrap();
        assert_eq!(v1.len(), 100);
        // Evicting k1 spills — the spill fails, but this read must succeed.
        let v2 = read_one(&cache, &key("obj", 100), 100, || Ok(vec![2u8; 100])).unwrap();
        assert_eq!(v2.len(), 100);
        assert_eq!(cache.stats().spill_failures, 1);
        // k1 is simply gone (miss), not an error.
        let v1b = read_one(&cache, &key("obj", 0), 100, || Ok(vec![1u8; 100])).unwrap();
        assert_eq!(v1b.len(), 100);
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn direct_insert_supports_prefetch() {
        let cache = TieredCache::memory_only(1 << 20);
        let k = key("obj", 4096);
        cache.insert(k.clone(), Arc::new(vec![7u8; 10]));
        let v = read_one(&cache, &k, 10, || panic!("prefetched")).unwrap();
        assert_eq!(v.len(), 10);
        assert_eq!(cache.stats().memory_hits, 1);
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn sharded_cache_spreads_budget_and_serves_all_keys() {
        let cache = TieredCache::memory_only_sharded(1 << 20, 8);
        assert_eq!(cache.shard_count(), 8);
        for i in 0..64u64 {
            let k = key("obj", i * 4096);
            let v = read_one(&cache, &k, 1024, || Ok(vec![i as u8; 1024])).unwrap();
            assert_eq!(*v, vec![i as u8; 1024]);
        }
        // Warm re-reads all hit.
        for i in 0..64u64 {
            let k = key("obj", i * 4096);
            let v = read_one(&cache, &k, 1024, || panic!("warm")).unwrap();
            assert_eq!(*v, vec![i as u8; 1024]);
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 64);
        assert_eq!(stats.memory_hits, 64);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(TieredCache::memory_only_sharded(1 << 20, 0).shard_count(), 1);
        assert_eq!(TieredCache::memory_only_sharded(1 << 20, 3).shard_count(), 4);
        assert_eq!(TieredCache::memory_only_sharded(1 << 20, 8).shard_count(), 8);
    }

    #[test]
    fn coalesced_run_fetches_cold_blocks_in_one_get() {
        let cache = TieredCache::memory_only(1 << 20);
        let gets = AtomicU64::new(0);
        let blocks: Vec<(u64, u64)> = (0..8).map(|i| (i * 100, 100)).collect();
        let fetch = |run: &[(u64, u64)]| {
            gets.fetch_add(1, Ordering::Relaxed);
            Ok(run.iter().map(|(off, len)| vec![(*off / 100) as u8; *len as usize]).collect())
        };
        let parts = cache.get_or_fetch_run("obj", &blocks, &fetch).unwrap();
        assert_eq!(parts.len(), 8);
        for (i, p) in parts.iter().enumerate() {
            assert_eq!(**p, vec![i as u8; 100]);
        }
        assert_eq!(gets.load(Ordering::Relaxed), 1, "8 cold blocks must coalesce into one GET");
        let stats = cache.stats();
        assert_eq!(stats.misses, 8);
        assert_eq!(stats.coalesced_gets, 1);
        assert_eq!(stats.bytes_from_origin, 800);
        // Everything is now cached.
        let parts = cache.get_or_fetch_run("obj", &blocks, &fetch).unwrap();
        assert_eq!(parts.len(), 8);
        assert_eq!(gets.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats().memory_hits, 8);
    }

    #[test]
    fn coalesced_run_splits_around_warm_blocks() {
        let cache = TieredCache::memory_only(1 << 20);
        // Warm block 2 of 5.
        cache.insert(key("obj", 200), Arc::new(vec![2u8; 100]));
        let gets = AtomicU64::new(0);
        let blocks: Vec<(u64, u64)> = (0..5).map(|i| (i * 100, 100)).collect();
        let fetch = |run: &[(u64, u64)]| {
            gets.fetch_add(1, Ordering::Relaxed);
            Ok(run.iter().map(|(off, len)| vec![(*off / 100) as u8; *len as usize]).collect())
        };
        let parts = cache.get_or_fetch_run("obj", &blocks, &fetch).unwrap();
        for (i, p) in parts.iter().enumerate() {
            assert_eq!(**p, vec![i as u8; 100], "block {i}");
        }
        // Runs [0,1] and [3,4] → two GETs; the warm block breaks the run.
        assert_eq!(gets.load(Ordering::Relaxed), 2);
        let stats = cache.stats();
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.memory_hits, 1);
        assert_eq!(stats.coalesced_gets, 2);
    }

    #[test]
    fn coalesced_run_error_propagates_and_is_not_cached() {
        let cache = TieredCache::memory_only(1 << 20);
        let blocks: Vec<(u64, u64)> = (0..3).map(|i| (i * 100, 100)).collect();
        let failing = |_: &[(u64, u64)]| Err(logstore_types::Error::NotFound("object gone".into()));
        assert!(cache.get_or_fetch_run("obj", &blocks, &failing).is_err());
        let ok = |run: &[(u64, u64)]| Ok(run.iter().map(|(_, l)| vec![9u8; *l as usize]).collect());
        let parts = cache.get_or_fetch_run("obj", &blocks, &ok).unwrap();
        assert_eq!(parts.len(), 3);
    }

    #[test]
    fn coalesced_run_rejects_wrong_sized_parts() {
        let cache = TieredCache::memory_only(1 << 20);
        let blocks = vec![(0u64, 100u64), (100, 100)];
        let short = |run: &[(u64, u64)]| Ok(run.iter().map(|_| vec![0u8; 1]).collect());
        assert!(cache.get_or_fetch_run("obj", &blocks, &short).is_err());
    }

    #[test]
    fn evict_object_clears_both_tiers_and_deletes_files() {
        let dir = temp_dir("evictobj");
        let disk = DiskBlockCache::open(&dir, 1 << 20).unwrap();
        // Memory fits two 100-byte blocks; the rest of "dead" spills to disk.
        let cache = TieredCache::with_disk(250, disk);
        for i in 0..4u64 {
            read_one(&cache, &key("dead", i * 100), 100, || Ok(vec![i as u8; 100])).unwrap();
        }
        read_one(&cache, &key("live", 0), 10, || Ok(vec![9u8; 10])).unwrap();
        let removed = cache.evict_object("dead");
        assert_eq!(removed, 4, "every block of the object must go");
        for i in 0..4u64 {
            assert!(!cache.contains_in_memory(&key("dead", i * 100)));
        }
        // Dead blocks are cold again (refetched), the live object is not.
        let before = cache.stats().misses;
        read_one(&cache, &key("dead", 0), 100, || Ok(vec![0u8; 100])).unwrap();
        assert_eq!(cache.stats().misses, before + 1);
        read_one(&cache, &key("live", 0), 10, || panic!("live object stays cached")).unwrap();
        // The spilled files were deleted, only live cache files may remain.
        assert_eq!(cache.evict_object("dead"), 1, "only the refetched block remains");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_peek_is_not_a_hit_and_does_not_refresh() {
        // Room for two blocks. Peeking at the older one must leave it the
        // LRU victim; a real lookup would have saved it.
        let cache = TieredCache::memory_only(250);
        cache.insert(key("obj", 0), Arc::new(vec![0u8; 100]));
        cache.insert(key("obj", 100), Arc::new(vec![1u8; 100]));
        let before = cache.stats();
        assert_eq!(*cache.peek_in_memory(&key("obj", 0)).unwrap(), vec![0u8; 100]);
        assert!(cache.peek_in_memory(&key("obj", 900)).is_none());
        assert_eq!(cache.stats(), before, "no hit, no miss, no lookup");
        cache.insert(key("obj", 200), Arc::new(vec![2u8; 100]));
        assert!(!cache.contains_in_memory(&key("obj", 0)), "the peeked block was still the LRU");
        assert!(cache.contains_in_memory(&key("obj", 100)));
        // The control: a counted lookup refreshes, and the other block goes.
        assert!(cache.get_in_memory(&key("obj", 100)).is_some());
        cache.insert(key("obj", 300), Arc::new(vec![3u8; 100]));
        assert!(cache.contains_in_memory(&key("obj", 100)));
        assert!(!cache.contains_in_memory(&key("obj", 200)));
        assert_eq!(cache.stats().memory_hits, before.memory_hits + 1);
    }

    fn handle(rows: i64) -> Arc<LogBlockHandle> {
        use logstore_types::{TableSchema, Value};
        let mut b = logstore_logblock::LogBlockBuilder::new(TableSchema::request_log());
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
        Arc::new(LogBlockHandle::open(&b.finish().unwrap()).unwrap())
    }

    #[test]
    fn object_tier_is_byte_bounded_lru_and_empty_without_a_budget() {
        let h = handle(50);
        let charge = h.charge_bytes();
        // Room for two handles of this size, not three.
        let cache = TieredCache::memory_only(1 << 20).with_object_tier(2 * charge + charge / 2);
        for path in ["a", "b"] {
            cache.insert_handle(path, Arc::clone(&h));
        }
        assert_eq!(cache.objects.lock().used_bytes(), 2 * charge);
        assert!(cache.handle("a").is_some(), "touch a: b is now the LRU entry");
        cache.insert_handle("c", Arc::clone(&h));
        assert!(cache.handle("b").is_none());
        assert!(cache.handle("a").is_some() && cache.handle("c").is_some());
        assert_eq!(cache.objects.lock().used_bytes(), 2 * charge);
        let stats = cache.stats();
        assert_eq!((stats.object_hits, stats.object_misses), (3, 1));
        // The tier is independent of the block tiers' counters.
        assert_eq!(stats.lookups(), 0);
        cache.clear_memory();
        assert_eq!(cache.objects.lock().used_bytes(), 0);

        let off = TieredCache::memory_only(1 << 20);
        off.insert_handle("a", h);
        assert!(off.handle("a").is_none());
        assert_eq!(off.objects.lock().used_bytes(), 0);
    }

    #[test]
    fn stats_delta_since() {
        let a = CacheStats {
            memory_hits: 10,
            misses: 4,
            bytes_from_origin: 1000,
            ..Default::default()
        };
        let b = CacheStats {
            memory_hits: 25,
            misses: 5,
            bytes_from_origin: 1500,
            ..Default::default()
        };
        let d = b.delta_since(&a);
        assert_eq!(d.memory_hits, 15);
        assert_eq!(d.misses, 1);
        assert_eq!(d.bytes_from_origin, 500);
    }
}
