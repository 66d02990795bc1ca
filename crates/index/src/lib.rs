//! Index structures for LogBlock columns.
//!
//! The paper indexes *every* column ("Full-column indexed and Skippable",
//! §3.2): string columns get a Lucene-style **inverted index**, numeric
//! columns a **BKD tree**, and every column and column block carries
//! **Small Materialized Aggregates** (min/max) for data skipping. This crate
//! implements all three from scratch, plus the row-id bitmap used to combine
//! per-predicate results — which is also the layout of a dense posting
//! list ([`postings`]). A numeric column that is sorted in its LogBlock
//! needs no tree (its column-block SMAs fence it); the LogBlock builder
//! asks [`BkdWriter::is_sorted`] and leaves such a tree out.

#![forbid(unsafe_code)]

pub mod bkd;
pub mod inverted;
pub mod postings;
pub mod rowset;
pub mod sma;
pub mod tokenizer;

pub use bkd::{BkdDictReader, BkdWriter};
pub use inverted::{InvertedDictReader, InvertedIndexWriter, TermKind};
pub use rowset::RowIdSet;
pub use sma::Sma;
