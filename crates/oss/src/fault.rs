//! Fault injection for object storage.
//!
//! Production OSS fails: throttling (HTTP 503), transient network errors,
//! slow tails. [`FaultyStore`] wraps any backend with a deterministic
//! failure schedule so tests can verify that every layer above — pack
//! reads, cache fills, prefetch waves, queries — surfaces errors instead
//! of corrupting state, and that retries eventually succeed.
//!
//! Three injection modes compose (any of them can fire an op):
//! * **probabilistic** — each in-scope op fails with probability `p`,
//!   deterministic under the seed;
//! * **countdown** — [`FaultyStore::fail_next`] fails the next `n`
//!   in-scope ops unconditionally;
//! * **op-indexed** — [`FaultyStore::fail_ops`] fails exact in-scope
//!   operation indexes (half-open ranges over the lifetime op counter),
//!   letting a simulation schedule say "ops 17..19 of this episode fail"
//!   and replay it exactly.
//!
//! Scope, probability and the op schedule are runtime-mutable so a
//! long-lived engine can move through fault windows mid-episode.
//!
//! A **read hook** ([`FaultyStore::set_read_hook`]) sees every GET before
//! the schedule does and may hold it back — the slow-tail case, and how a
//! test pins *which* requests are in flight together, and from which
//! thread, without timing anything.

use crate::store::ObjectStore;
use logstore_sync::OrderedMutex;
use logstore_types::{Error, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which operations to inject failures into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScope {
    /// Only reads (GET/range-GET/HEAD/LIST).
    Reads,
    /// Only writes (PUT/DELETE).
    Writes,
    /// Everything.
    All,
}

/// Observer of GET / range-GET requests: called with the object path on
/// the requesting thread, before the request proceeds. May block.
pub type ReadHook = std::sync::Arc<dyn Fn(&str) + Send + Sync>;

/// The mutable part of the failure schedule.
struct FaultPlan {
    scope: FaultScope,
    /// Probability of failing an in-scope op.
    probability: f64,
    /// Exact in-scope op indexes to fail (half-open ranges).
    fail_ops: Vec<Range<u64>>,
    read_hook: Option<ReadHook>,
}

/// An [`ObjectStore`] decorator that fails operations on a schedule.
pub struct FaultyStore<S> {
    inner: S,
    plan: OrderedMutex<FaultPlan>,
    rng: OrderedMutex<StdRng>,
    /// Fail the next N in-scope operations unconditionally.
    fail_next: AtomicU64,
    /// Lifetime count of in-scope operations (the index space of
    /// [`FaultyStore::fail_ops`]). Out-of-scope ops don't advance it, so
    /// a Writes-scoped schedule is immune to how many reads interleave.
    ops: AtomicU64,
    injected: AtomicU64,
}

impl<S: ObjectStore> FaultyStore<S> {
    /// Wraps `inner`, failing in-scope operations with `probability`
    /// (deterministic under `seed`).
    pub fn new(inner: S, scope: FaultScope, probability: f64, seed: u64) -> Self {
        FaultyStore {
            inner,
            plan: OrderedMutex::new(
                "oss.fault.plan",
                FaultPlan { scope, probability, fail_ops: Vec::new(), read_hook: None },
            ),
            rng: OrderedMutex::new("oss.fault.rng", StdRng::seed_from_u64(seed)),
            fail_next: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Queues `n` unconditional failures for the next in-scope operations.
    pub fn fail_next(&self, n: u64) {
        self.fail_next.store(n, Ordering::SeqCst);
    }

    /// Replaces the op-indexed failure schedule: in-scope operation number
    /// `i` (see [`FaultyStore::op_index`]) fails iff some range contains
    /// `i`. Deterministic by construction — no rng draw involved.
    pub fn fail_ops(&self, ranges: &[Range<u64>]) {
        self.plan.lock().fail_ops = ranges.to_vec();
    }

    /// Sets the probability applied to in-scope ops from now on.
    pub fn set_probability(&self, probability: f64) {
        self.plan.lock().probability = probability;
    }

    /// Sets which operations are in scope from now on.
    pub fn set_scope(&self, scope: FaultScope) {
        self.plan.lock().scope = scope;
    }

    /// Clears scheduled failures (countdown and op-indexed). Probability
    /// is left as-is; use [`FaultyStore::set_probability`] for that.
    pub fn clear_faults(&self) {
        self.fail_next.store(0, Ordering::SeqCst);
        self.plan.lock().fail_ops.clear();
    }

    /// Installs (or, with `None`, removes) the hook every GET and
    /// range-GET passes through first. The hook runs on the requesting
    /// thread with no store lock held, so it may park the request.
    pub fn set_read_hook(&self, hook: Option<ReadHook>) {
        self.plan.lock().read_hook = hook;
    }

    fn before_get(&self, path: &str) {
        let hook = self.plan.lock().read_hook.clone();
        if let Some(hook) = hook {
            hook(path);
        }
    }

    /// Number of failures injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Lifetime count of in-scope operations seen — the next in-scope op
    /// gets this index. Lets a schedule target "the 3rd PUT from now":
    /// `fail_ops(&[op_index() + 2..op_index() + 3])`.
    pub fn op_index(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn maybe_fail(&self, is_read: bool, op: &str) -> Result<()> {
        logstore_sync::assert_no_locks_held("FaultyStore OSS request");
        let (in_scope, probability, op_scheduled) = {
            let plan = self.plan.lock();
            let in_scope = match plan.scope {
                FaultScope::Reads => is_read,
                FaultScope::Writes => !is_read,
                FaultScope::All => true,
            };
            if !in_scope {
                (false, 0.0, false)
            } else {
                // Claim this op's index while the plan is held so the
                // index check and the counter bump are one atomic step.
                let idx = self.ops.fetch_add(1, Ordering::SeqCst);
                (true, plan.probability, plan.fail_ops.iter().any(|r| r.contains(&idx)))
            }
        };
        if !in_scope {
            return Ok(());
        }
        // checked_sub makes the countdown claim atomic: n concurrent ops
        // racing a fail_next(n) consume exactly n failures, never more.
        let countdown = self
            .fail_next
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok();
        let random = probability > 0.0 && self.rng.lock().gen_bool(probability);
        if op_scheduled || countdown || random {
            self.injected.fetch_add(1, Ordering::SeqCst);
            return Err(Error::Io(std::io::Error::other(format!(
                "injected oss fault during {op} (simulated 503)"
            ))));
        }
        Ok(())
    }
}

impl<S: ObjectStore> ObjectStore for FaultyStore<S> {
    fn put(&self, path: &str, data: &[u8]) -> Result<()> {
        self.maybe_fail(false, "put")?;
        self.inner.put(path, data)
    }

    fn get(&self, path: &str) -> Result<Vec<u8>> {
        self.before_get(path);
        self.maybe_fail(true, "get")?;
        self.inner.get(path)
    }

    fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.before_get(path);
        self.maybe_fail(true, "get_range")?;
        self.inner.get_range(path, offset, len)
    }

    fn head(&self, path: &str) -> Result<u64> {
        self.maybe_fail(true, "head")?;
        self.inner.head(path)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.maybe_fail(true, "list")?;
        self.inner.list(prefix)
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.maybe_fail(false, "delete")?;
        self.inner.delete(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryStore;
    use std::sync::Arc;

    #[test]
    fn scheduled_failures_hit_then_clear() {
        let s = FaultyStore::new(MemoryStore::new(), FaultScope::All, 0.0, 1);
        s.put("k", b"v").unwrap();
        s.fail_next(2);
        assert!(s.get("k").is_err());
        assert!(s.get("k").is_err());
        assert_eq!(s.get("k").unwrap(), b"v");
        assert_eq!(s.injected(), 2);
    }

    #[test]
    fn scope_limits_injection() {
        let s = FaultyStore::new(MemoryStore::new(), FaultScope::Writes, 0.0, 1);
        s.fail_next(1);
        // Reads are out of scope: the scheduled failure waits for a write.
        assert!(matches!(s.get("missing"), Err(Error::NotFound(_))));
        assert!(s.put("k", b"v").is_err());
        assert!(s.put("k", b"v").is_ok());
    }

    #[test]
    fn probabilistic_failures_are_deterministic() {
        let a = FaultyStore::new(MemoryStore::new(), FaultScope::Reads, 0.5, 9);
        let b = FaultyStore::new(MemoryStore::new(), FaultScope::Reads, 0.5, 9);
        a.inner().put("k", b"v").unwrap();
        b.inner().put("k", b"v").unwrap();
        let pattern_a: Vec<bool> = (0..50).map(|_| a.get("k").is_ok()).collect();
        let pattern_b: Vec<bool> = (0..50).map(|_| b.get("k").is_ok()).collect();
        assert_eq!(pattern_a, pattern_b);
        assert!(pattern_a.iter().any(|ok| *ok));
        assert!(pattern_a.iter().any(|ok| !*ok));
    }

    #[test]
    fn state_never_corrupts_under_write_faults() {
        let s = FaultyStore::new(MemoryStore::new(), FaultScope::Writes, 0.0, 1);
        s.put("stable", b"original").unwrap();
        s.fail_next(1);
        assert!(s.put("stable", b"replacement").is_err());
        // The failed PUT must not have partially applied.
        assert_eq!(s.get("stable").unwrap(), b"original");
        s.put("stable", b"replacement").unwrap();
        assert_eq!(s.get("stable").unwrap(), b"replacement");
    }

    #[test]
    fn op_indexed_schedule_fails_exact_operations() {
        let s = FaultyStore::new(MemoryStore::new(), FaultScope::All, 0.0, 1);
        s.fail_ops(&[1..3, 5..6]);
        s.put("k", b"v").unwrap(); // op 0
        assert!(s.get("k").is_err()); // op 1
        assert!(s.get("k").is_err()); // op 2
        assert!(s.get("k").is_ok()); // op 3
        assert!(s.get("k").is_ok()); // op 4
        assert!(s.get("k").is_err()); // op 5
        assert!(s.get("k").is_ok()); // op 6
        assert_eq!(s.injected(), 3);
        assert_eq!(s.op_index(), 7);
    }

    #[test]
    fn op_index_ignores_out_of_scope_operations() {
        // A Writes schedule must be replayable regardless of how many
        // reads (queries, prefetch) interleave: reads don't advance the
        // counter.
        let s = FaultyStore::new(MemoryStore::new(), FaultScope::Writes, 0.0, 1);
        s.fail_ops(&[1..2]);
        s.put("a", b"v").unwrap(); // write op 0
        for _ in 0..10 {
            let _ = s.get("a"); // out of scope, not counted
        }
        assert_eq!(s.op_index(), 1);
        assert!(s.put("b", b"v").is_err()); // write op 1
        assert!(s.put("c", b"v").is_ok()); // write op 2
    }

    #[test]
    fn runtime_setters_reshape_the_plan() {
        let s = FaultyStore::new(MemoryStore::new(), FaultScope::All, 0.0, 7);
        s.put("k", b"v").unwrap();
        s.set_probability(1.0);
        assert!(s.get("k").is_err());
        s.set_probability(0.0);
        assert!(s.get("k").is_ok());
        s.set_scope(FaultScope::Reads);
        s.fail_next(1);
        s.put("k", b"v").unwrap(); // writes now out of scope
        assert!(s.get("k").is_err());
        s.fail_ops(&[100..200]);
        s.clear_faults();
        assert!(s.get("k").is_ok());
    }

    #[test]
    fn concurrent_countdown_injects_exactly_n() {
        // Regression: fail_next must decrement atomically — 8 racing
        // readers against a countdown of 16 inject exactly 16 failures,
        // never more (a read-then-store would over-inject).
        let s = Arc::new(FaultyStore::new(MemoryStore::new(), FaultScope::All, 0.0, 1));
        s.put("k", b"v").unwrap();
        s.fail_next(16);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || (0..4).filter(|_| s.get("k").is_err()).count())
            })
            .collect();
        let failures: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(failures, 16);
        assert_eq!(s.injected(), 16);
    }
}
