//! # LogStore
//!
//! A cloud-native and multi-tenant log database — a from-scratch Rust
//! reproduction of *"LogStore: A Cloud-Native and Multi-Tenant Log
//! Database"* (Cao et al., SIGMOD 2021).
//!
//! This facade crate re-exports every subsystem. Most applications only
//! need [`core`] (the `LogStore` engine), [`types`] and [`query`]:
//!
//! ```
//! use logstore::core::{ClusterConfig, LogStore};
//! use logstore::types::{TableSchema, TenantId};
//!
//! let store = LogStore::open(ClusterConfig::for_testing()).unwrap();
//! # let _ = store;
//! ```
//!
//! See the crate-level documentation of each module for architecture
//! details, and `DESIGN.md` in the repository root for the system
//! inventory and experiment index.

#![forbid(unsafe_code)]

pub use logstore_cache as cache;
pub use logstore_codec as codec;
pub use logstore_core as core;
pub use logstore_flow as flow;
pub use logstore_index as index;
pub use logstore_logblock as logblock;
pub use logstore_obs as obs;
pub use logstore_oss as oss;
pub use logstore_query as query;
pub use logstore_raft as raft;
pub use logstore_types as types;
pub use logstore_wal as wal;
pub use logstore_workload as workload;
