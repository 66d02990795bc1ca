//! Multi-level data cache and parallel prefetch (paper §5.2, Figs 9–10).
//!
//! Query execution over OSS pays tens of milliseconds per request; LogStore
//! hides that with:
//!
//! * a **three-level cache** — an object tier of parsed LogBlock headers
//!   (manifest, meta, index dictionaries: what a query needs to *plan* its
//!   reads), then a memory block tier (the paper's 8 GB block cache) that
//!   spills evictions to an SSD block tier (the 200 GB file cache), every
//!   tier one size-aware [`SizedLru`];
//! * a **block-alignment adapter** — range reads are widened to fixed cache
//!   blocks so nearby reads reuse each other's I/O;
//! * a **parallel prefetcher** — every range a query will read, across all
//!   the objects it touches, is deduplicated, merged into contiguous runs
//!   of cold blocks and fetched as one bounded wave before any of it is
//!   needed; the query then reads the very blocks the wave brought back;
//! * **write-through admission** — a writer that has just uploaded a
//!   LogBlock hands its bytes over ([`Prefetcher::admit`]) before the
//!   LogBlock map names it, so bytes this process wrote never cost a
//!   round; compaction takes the sources the memory tier holds whole from
//!   it ([`Prefetcher::resident`]) without counting as a reader.
//!
//! The read path is built for concurrency: the block tiers are
//! hash-sharded (one mutex and byte budget per shard), concurrent misses
//! on the same block are deduplicated through a [`singleflight`] table
//! that the wave and demand reads share, and a run of contiguous cold
//! blocks costs one origin GET.

#![forbid(unsafe_code)]

pub mod lru;
pub mod prefetch;
pub mod singleflight;
pub mod source;
pub mod tiered;

pub use lru::SizedLru;
pub use prefetch::{merge_ranges, Fetched, ObjectPlan, Prefetcher};
pub use singleflight::{FlightRole, SingleFlight};
pub use source::CachedObjectSource;
pub use tiered::{BlockKey, CacheStats, DiskBlockCache, MemoryBlockCache, TieredCache};
