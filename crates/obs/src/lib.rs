//! Engine metrics: one [`Registry`] per engine, holding counters and
//! log₂-bucketed histograms under static `crate.module.name` labels.
//!
//! Metrics are registered while the engine is assembled (`&mut Registry`)
//! and handed out as `Arc` handles; recording is one relaxed atomic add per
//! counter or three per histogram sample, with no lock and no allocation.
//! [`Registry::snapshot`] renders every metric as one line of stable text,
//! sorted by label:
//!
//! ```text
//! core.databuilder.rows 17000
//! core.engine.drain_ns count=4 sum=1203311 p50<=524288 p99<=1048576 max<=1048576
//! ```
//!
//! A histogram bucket `b > 0` holds the values in `[2^(b-1), 2^b)` and
//! bucket 0 holds 0, so a quantile is printed as the upper bound of the
//! bucket it falls in: exact to within a factor of two, which is what a
//! stage breakdown needs. `sum` is exact.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A monotonically increasing count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of buckets: 0, then one per power of two up to `2^63`.
const BUCKETS: usize = 65;

/// A distribution of `u64` samples in log₂ buckets.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket of `v`: 0 for 0, else one more than its highest set bit.
fn bucket(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The largest value bucket `b` holds.
fn bucket_max(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        u64::MAX >> (u64::BITS as usize - b)
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of the samples recorded.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Upper bound of the bucket holding the `q`-quantile (`0 < q <= 1`),
    /// or 0 for an empty histogram.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        let rank = ((total as f64 * q).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, n) in counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_max(b);
            }
        }
        0
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
}

/// Every metric of one engine, by label.
#[derive(Default)]
pub struct Registry {
    metrics: Vec<(&'static str, Metric)>,
}

/// True when `label` is `crate.module.name`: at least three dot-separated
/// segments of `[a-z0-9_]`.
fn well_formed(label: &str) -> bool {
    let segments: Vec<&str> = label.split('.').collect();
    segments.len() >= 3
        && segments.iter().all(|s| {
            !s.is_empty()
                && s.bytes().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == b'_')
        })
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&mut self, label: &'static str, metric: Metric) {
        assert!(well_formed(label), "metric label `{label}` is not `crate.module.name`");
        assert!(
            self.metrics.iter().all(|(l, _)| *l != label),
            "metric label `{label}` registered twice"
        );
        self.metrics.push((label, metric));
    }

    /// Registers a counter under `label`. Panics if the label is malformed
    /// or taken: labels are static, so either is a bug.
    pub fn counter(&mut self, label: &'static str) -> Arc<Counter> {
        let counter = Arc::new(Counter::default());
        self.register(label, Metric::Counter(Arc::clone(&counter)));
        counter
    }

    /// Registers a histogram under `label` (same rules as
    /// [`Registry::counter`]).
    pub fn histogram(&mut self, label: &'static str) -> Arc<Histogram> {
        let histogram = Arc::new(Histogram::default());
        self.register(label, Metric::Histogram(Arc::clone(&histogram)));
        histogram
    }

    /// Every metric as one line of text, sorted by label.
    pub fn snapshot(&self) -> String {
        let mut metrics: Vec<&(&'static str, Metric)> = self.metrics.iter().collect();
        metrics.sort_by_key(|(label, _)| *label);
        let mut out = String::new();
        for (label, metric) in metrics {
            let line = match metric {
                Metric::Counter(c) => format!("{label} {}\n", c.get()),
                Metric::Histogram(h) => format!(
                    "{label} count={} sum={} p50<={} p99<={} max<={}\n",
                    h.count(),
                    h.sum(),
                    h.quantile_bound(0.5),
                    h.quantile_bound(0.99),
                    h.quantile_bound(1.0),
                ),
            };
            out.push_str(&line);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(4), 3);
        assert_eq!(bucket(u64::MAX), 64);
        for v in [0, 1, 2, 3, 4, 1000, 1 << 40, u64::MAX] {
            assert!(v <= bucket_max(bucket(v)));
            assert!(bucket(v) == 0 || v > bucket_max(bucket(v) - 1));
        }
    }

    #[test]
    fn histogram_quantiles_name_the_bucket() {
        let h = Histogram::default();
        assert_eq!(h.quantile_bound(0.5), 0);
        for v in [1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!((h.count(), h.sum()), (5, 1106));
        assert_eq!(h.quantile_bound(0.5), 3);
        assert_eq!(h.quantile_bound(0.99), 1023);
        assert_eq!(h.quantile_bound(1.0), 1023);
        h.record_duration(Duration::from_micros(2));
        assert_eq!(h.sum(), 3106);
    }

    #[test]
    fn snapshot_is_sorted_stable_text() {
        let mut r = Registry::new();
        let h = r.histogram("core.engine.drain_ns");
        let c = r.counter("core.databuilder.rows");
        c.add(17);
        h.record(6);
        h.record(0);
        let text = r.snapshot();
        assert_eq!(
            text,
            "core.databuilder.rows 17\n\
             core.engine.drain_ns count=2 sum=6 p50<=0 p99<=7 max<=7\n"
        );
        assert_eq!(r.snapshot(), text, "reading does not change it");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_labels_are_refused() {
        let mut r = Registry::new();
        r.counter("core.engine.passes");
        r.histogram("core.engine.passes");
    }

    #[test]
    #[should_panic(expected = "crate.module.name")]
    fn malformed_labels_are_refused() {
        Registry::new().counter("Core.passes");
    }
}
