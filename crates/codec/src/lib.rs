//! Compression and encoding primitives for LogStore.
//!
//! The paper compresses LogBlock column data with ZSTD by default (high
//! ratio, more CPU) and also supports LZ4 and Snappy (faster, lower ratio).
//! Those libraries are outside this workspace's allowed dependency set, so
//! this crate implements the same design space from scratch:
//!
//! * `lz::compress_fast` — greedy LZ77, small search effort: the "LZ4/Snappy"
//!   point of the trade-off curve.
//! * `lz::compress_high` — lazy-matching LZ77 with hash chains: the "ZSTD" point
//!   (better ratio, more CPU). This is LogStore's default.
//! * [`rle`] — run-length encoding for low-cardinality byte streams.
//! * [`delta`] — delta + zigzag + varint for sorted/clustered numerics
//!   (timestamps compress extremely well).
//!
//! Plus the supporting primitives every storage format needs:
//! [`varint`] (LEB128 + zigzag) and [`crc`] (CRC32C).

#![forbid(unsafe_code)]

pub mod batch;
pub mod crc;
pub mod delta;
pub mod frame;
pub mod lz;
pub mod rle;
pub mod valser;
pub mod varint;

pub use frame::{compress, decompress, Compression, Compressor};
