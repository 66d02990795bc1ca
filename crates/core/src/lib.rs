//! The LogStore engine: a cluster-in-a-box implementation of the paper's
//! architecture (Fig 3).
//!
//! One [`engine::LogStore`] instance wires together:
//!
//! * **Workers** ([`worker`]) — shards with the two-phase write path:
//!   a write-optimized row store (phase one, optionally Raft-replicated and
//!   WAL-durable) drained by the **data builder** ([`databuilder`]) into
//!   per-tenant columnar LogBlocks uploaded to (simulated) OSS (phase two).
//! * **Brokers** ([`broker`]) — SQL parsing, weighted routing of writes,
//!   scatter/gather of reads over the real-time stores and the LogBlock
//!   map, with data skipping, multi-level caching and parallel prefetch.
//! * **The controller** ([`controller`]) — metadata/LogBlock-map
//!   management ([`metadata`]), the global traffic-control loop
//!   (max-flow/greedy balancers from `logstore-flow`), and data expiration.
//!
//! The cluster runs inside one process: workers are data structures, not
//! machines, which is exactly what the paper's scheduling-quality and
//! query-optimization experiments need (they measure algorithms, not
//! network stacks). Substitutions are documented in `DESIGN.md`.

#![forbid(unsafe_code)]

pub mod broker;
pub mod compactor;
pub mod config;
pub mod controller;
pub mod databuilder;
pub mod engine;
pub mod executor;
pub mod hooks;
pub mod metadata;
pub mod worker;

pub use compactor::{CompactionConfig, CompactionReport, CompactionRun, GcReport};
pub use config::{ClusterConfig, QueryOptions};
pub use engine::{ArchiveStats, IngestReport, LogStore, OpenParts, Store};
pub use executor::QueryPool;
pub use hooks::{noop_hooks, CrashHooks, CrashPoint, NoopHooks, QueryPoint, SimCrash};
pub use metadata::{BuildGuard, DrainId, LogBlockEntry, MetadataStore, TenantInfo};
