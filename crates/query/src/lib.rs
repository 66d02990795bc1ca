//! The query layer: SQL parsing, scope analysis and execution.
//!
//! LogStore exposes a SQL protocol (paper Fig 3). The evaluation workload
//! is single-tenant log retrieval with per-field filters plus lightweight
//! aggregations ("which IP addresses frequently accessed this API in the
//! past day?"), so this crate implements exactly that dialect:
//!
//! ```sql
//! SELECT log FROM request_log
//! WHERE tenant_id = 12276
//!   AND ts >= '2020-11-11 00:00:00' AND ts <= '2020-11-11 01:00:00'
//!   AND ip = '192.168.0.1' AND latency >= 100 AND fail = false
//!   AND log CONTAINS 'timeout'
//! LIMIT 100
//! ```
//!
//! plus `SELECT <col>, COUNT(*) ... GROUP BY <col> ORDER BY COUNT(*) DESC
//! LIMIT k` for the BI-style queries.
//!
//! * [`lexer`] / [`parser`] — hand-written tokenizer and recursive-descent
//!   parser (no external parser dependencies).
//! * [`ast`] — the query representation handed to brokers.
//! * [`analyze`] — extracts the routing scope (tenant, time range) that
//!   drives LogBlock-map pruning (Fig 8 ①).
//! * [`exec`] — partial results: aggregate accumulators, merging across
//!   sources, and finalization (ordering, limit, output header).
//! * [`plan`] — the physical [`plan::ScanPlan`], the one collector for
//!   LogBlocks ([`plan::ScanPlan::collect_block`]) and for real-time rows
//!   ([`plan::RowCollector`]): aggregation pushdown into the scan layer
//!   with vectorized predicate batches and the per-source `LIMIT`
//!   early-out, or — pushdown off, the reference `QueryOptions::baseline()`
//!   runs — row-at-a-time predicates and row transport.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod ast;
pub mod datetime;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod plan;

pub use analyze::QueryScope;
pub use ast::{GroupKey, OrderBy, OrderKey, Query, SelectItem};
pub use exec::{QueryResult, QueryStats};
pub use parser::parse_query;
pub use plan::{partial_approx_bytes, AggSpec, ExecutionCounters, RowCollector, ScanPlan};
