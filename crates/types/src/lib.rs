//! Core domain types shared across every LogStore crate.
//!
//! This crate is dependency-light on purpose: it defines the vocabulary of
//! the system — values, schemas, log records, identifiers, errors and time
//! helpers — so that substrate crates (codec, index, logblock, ...) can
//! interoperate without depending on each other.

#![forbid(unsafe_code)]

pub mod archive;
pub mod column;
pub mod error;
pub mod ids;
pub mod predicate;
pub mod record;
pub mod schema;
pub mod time;
pub mod value;

pub use archive::{partition_into_chunks, ArchiveChunk};
pub use column::{ColumnData, ColumnVec};
pub use error::{Error, Result};
pub use ids::{BrokerId, NodeId, ShardId, TenantId, WorkerId};
pub use predicate::{CmpOp, ColumnPredicate};
pub use record::{LogRecord, RecordBatch};
pub use schema::{ColumnSchema, IndexKind, TableSchema};
pub use time::{TimeRange, Timestamp};
pub use value::{Cell, DataType, Value};
