//! Sample statistics: percentiles with the support rule, the quartiles the
//! driver uses, and open-loop (due-time) latency accounting.

use std::time::{Duration, Instant};

/// Samples that must lie beyond a named percentile before it is reported
/// (choosing-metrics §1): p95 needs 200 samples, p99 needs 1000.
pub const SUPPORT: usize = 10;

/// Whether `n` samples support percentile `p` (in `[0, 100]`).
pub fn supports(n: usize, p: f64) -> bool {
    (n as f64) * (100.0 - p) / 100.0 >= SUPPORT as f64 - 1e-9
}

/// Latency samples of one operation kind, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ms: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ms.push(d.as_secs_f64() * 1e3);
        self.sorted = false;
    }

    pub fn merge(&mut self, other: Samples) {
        self.ms.extend(other.ms);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ms.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile; 0.0 for an empty set.
    pub fn percentile(&mut self, p: f64) -> f64 {
        self.sort();
        match self.ms.len() {
            0 => 0.0,
            n => self.ms[((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1],
        }
    }

    /// The percentile, or an error naming the shortfall when `enforce` is
    /// set and fewer than [`SUPPORT`] samples lie beyond it.
    pub fn supported_percentile(
        &mut self,
        what: &str,
        p: f64,
        enforce: bool,
    ) -> Result<f64, String> {
        if enforce && !supports(self.ms.len(), p) {
            return Err(format!(
                "{what}: p{p} needs {} samples beyond it, {} samples give {:.1}",
                SUPPORT,
                self.ms.len(),
                self.ms.len() as f64 * (100.0 - p) / 100.0
            ));
        }
        Ok(self.percentile(p))
    }

    /// Sum of the samples at or above `floor_ms`, in seconds.
    pub fn time_at_or_above_s(&self, floor_ms: f64) -> f64 {
        self.ms.iter().filter(|&&x| x >= floor_ms).sum::<f64>() / 1e3
    }
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (default "exclusive" method) — what the driver computes spreads from.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median (0 for a zero median).
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Coefficient of variation (population standard deviation over the mean).
pub fn coefficient_of_variation(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / values.len() as f64;
    var.sqrt() / mean
}

/// A fixed-rate send schedule. Operation `k` is due at `start + k/rate`
/// whether or not earlier operations have completed; latency is counted
/// from the due time, so a stall is charged to every operation it delays.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    start: Instant,
    interval: Duration,
}

/// One open-loop operation's accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenSample {
    /// How late the generator sent it (zero when it waited for the due time).
    pub late: Duration,
    /// Completion minus due time — the latency a user on a schedule sees.
    pub from_due: Duration,
    /// Completion minus send time — the service time of the call alone.
    pub service: Duration,
}

impl OpenLoop {
    pub fn new(start: Instant, per_second: u64) -> Self {
        OpenLoop { start, interval: Duration::from_nanos(1_000_000_000 / per_second.max(1)) }
    }

    pub fn due(&self, k: u64) -> Instant {
        self.start + self.interval * k as u32
    }

    /// Sleeps until operation `k` is due (returns at once when it already
    /// is) and returns the due time.
    pub fn wait_for(&self, k: u64) -> Instant {
        let due = self.due(k);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        due
    }
}

/// The engine call inside one operation: when it was sent and when it
/// completed, as read by the code that made the call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub sent: Instant,
    pub done: Instant,
}

/// Accounts one operation that was due at `due`, sent at `sent` and
/// completed at `done`.
pub fn open_sample(due: Instant, sent: Instant, done: Instant) -> OpenSample {
    OpenSample {
        late: sent.saturating_duration_since(due),
        from_due: done.saturating_duration_since(due),
        service: done.saturating_duration_since(sent),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_support_rule() {
        // p95 needs 200 samples, p99 needs 1000, p50 needs 20.
        assert!(!supports(199, 95.0));
        assert!(supports(200, 95.0));
        assert!(!supports(999, 99.0));
        assert!(supports(1000, 99.0));
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        let mut s = Samples::default();
        for i in 0..199 {
            s.push(Duration::from_millis(i));
        }
        assert!(s.supported_percentile("q", 95.0, true).is_err());
        assert!(s.supported_percentile("q", 95.0, false).is_ok(), "smoke runs do not enforce");
        s.push(Duration::from_millis(199));
        assert_eq!(s.supported_percentile("q", 95.0, true).unwrap(), 189.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for ms in [5, 1, 4, 2, 3] {
            s.push(Duration::from_millis(ms));
        }
        assert_eq!(s.percentile(50.0), 3.0);
        assert_eq!(s.percentile(100.0), 5.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(Samples::default().percentile(50.0), 0.0);
        assert_eq!(s.time_at_or_above_s(4.0), 0.009);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn due_time_latency_charges_the_stall_to_delayed_operations() {
        let start = Instant::now();
        let open = OpenLoop::new(start, 100); // every 10 ms
        assert_eq!(open.due(3), start + Duration::from_millis(30));
        // Operation 0 stalls for 35 ms; operations 1..3 were due meanwhile
        // and each takes 1 ms once sent.
        let mut clock = start + Duration::from_millis(35);
        let first = open_sample(open.due(0), start, clock);
        assert_eq!(first.from_due, Duration::from_millis(35));
        assert_eq!(first.late, Duration::ZERO);
        let mut from_due = Vec::new();
        for k in 1..=3 {
            let sent = clock.max(open.due(k));
            clock = sent + Duration::from_millis(1);
            let s = open_sample(open.due(k), sent, clock);
            assert_eq!(s.service, Duration::from_millis(1));
            from_due.push((s.late.as_millis(), s.from_due.as_millis()));
        }
        // Due at 10/20/30 ms but sent at 35/36/37 ms: the service time is
        // 1 ms each, the user-visible latency includes the queueing.
        assert_eq!(from_due, vec![(25, 26), (16, 17), (7, 8)]);
    }

    #[test]
    fn coefficient_of_variation_basics() {
        assert_eq!(coefficient_of_variation(&[5.0, 5.0, 5.0]), 0.0);
        assert!((coefficient_of_variation(&[1.0, 3.0]) - 0.5).abs() < 1e-12);
        assert_eq!(coefficient_of_variation(&[]), 0.0);
    }
}
