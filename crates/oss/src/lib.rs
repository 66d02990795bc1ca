//! Cloud object storage abstraction and simulator.
//!
//! The paper's cloud storage layer is Alibaba OSS: a durable, cheap object
//! store accessed over HTTP with high per-request latency and limited,
//! fluctuating bandwidth. This crate provides:
//!
//! * [`ObjectStore`] — the minimal API LogStore needs (PUT / GET /
//!   range-GET / HEAD / LIST / DELETE over immutable objects).
//! * [`MemoryStore`] — the in-process backend: bare in tests, and the
//!   bottom of the engine's store stack under the wrappers below.
//! * [`SimulatedOss`] — a wrapper imposing a configurable latency and
//!   bandwidth model, so experiments reproduce the *cost structure* of
//!   remote object storage on a laptop. Modelled time is always accounted
//!   in [`OssMetrics`]; actually sleeping is controlled by a time-scale
//!   knob so unit tests run instantly while figure harnesses can produce
//!   wall-clock shapes.
//! * [`ordered_wave`] — the bounded, index-ordered request fan-out shared
//!   by prefetch, the archive upload and compaction reads.

#![forbid(unsafe_code)]

pub mod fault;
pub mod memory;
pub mod retry;
pub mod sim;
pub mod store;
pub mod wave;

pub use fault::{FaultScope, FaultyStore, ReadHook};
pub use memory::MemoryStore;
pub use retry::{RetryMetrics, RetryPolicy, RetryingStore};
pub use sim::{LatencyModel, OssMetrics, SimulatedOss};
pub use store::{validate_path, ObjectStore};
pub use wave::ordered_wave;
