//! The LogBlock columnar format.
//!
//! A LogBlock is the basic unit of log data on object storage (paper §3.2).
//! It is:
//!
//! * **Self-contained** — embeds its full table schema; parseable after a
//!   rename or move.
//! * **Compressed** — column data is stored in compression frames
//!   (`lz-high`, the ZSTD stand-in, by default).
//! * **Columnar-oriented** — queries read only the columns they touch.
//! * **Full-column indexed and skippable** — every column carries an
//!   inverted or BKD index, and every column and column block carries an
//!   SMA (min/max) for data skipping. A numeric column sorted in its block
//!   is skippable by its column-block SMAs alone and carries no tree (its
//!   `ColumnMeta::index` says `None`).
//!
//! Physically, one LogBlock is one *pack* object (the paper tars the many
//! small per-block files into a single large file with a seekable manifest;
//! [`pack`] is the from-scratch equivalent). Members:
//!
//! ```text
//! meta          schema, row count, per-column + per-block metadata (Fig 4 ①②④)
//! index.<i>     the index of column i (Fig 4 ③)
//! col.<i>       the column blocks of column i (Fig 4 ⑤)
//! ```
//!
//! [`builder::LogBlockBuilder`] produces pack bytes; [`reader::LogBlockReader`]
//! consumes them through a [`pack::RangeSource`], fetching only the byte
//! ranges a query needs — which is what makes the data-skipping strategy
//! (implemented in [`scan`]) pay off on high-latency object storage. The
//! parsed header of a block is a shareable [`reader::LogBlockHandle`], and
//! [`scan::predicate_reads`] plans a scan's reads from it before any data
//! is fetched.

#![forbid(unsafe_code)]

pub mod builder;
pub mod column;
pub mod meta;
pub mod pack;
pub mod reader;
pub mod scan;

pub use builder::{BuildTimes, LogBlockBuilder};
/// The typed column batch lives beside `Cell` in `logstore_types` (a
/// real-time run caches its columns as the same type); re-exported here
/// for the readers of decoded blocks.
pub use logstore_types::{ColumnData, ColumnVec};
pub use meta::{BlockMeta, ColumnMeta, LogBlockMeta};
pub use pack::{PackManifest, PackWriter, RangeSource};
pub use reader::{LogBlockHandle, LogBlockReader};
pub use scan::{
    eval_batch, evaluate_predicates, evaluate_predicates_vec, predicate_reads, DecodeStats,
    ScanStats,
};
