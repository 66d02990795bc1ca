//! Per-key miss deduplication ("singleflight").
//!
//! When N threads miss the same cache block at once, exactly one of them —
//! the *leader* — performs the high-latency origin fetch; the others block
//! on the leader's flight and receive its result. This is the concurrency
//! half of the paper's "repeated data block read IO requests will be
//! merged": the prefetcher and demand reads share one table, so a prefetch
//! wave and a demand read for the same block never duplicate work.
//!
//! Errors propagate to every waiter and are never cached: a failed flight
//! is removed from the table before its result is published, so the next
//! arrival starts a fresh attempt.

use logstore_sync::{OrderedCondvar, OrderedMutex};
use logstore_types::{Error, Result};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// One in-flight fetch: the leader publishes into `slot` and wakes waiters.
struct Flight<V> {
    slot: OrderedMutex<Option<Result<V, Arc<Error>>>>,
    done: OrderedCondvar,
}

impl<V> Flight<V> {
    fn new() -> Self {
        Flight {
            slot: OrderedMutex::new("cache.singleflight.slot", None),
            done: OrderedCondvar::new("cache.singleflight.done"),
        }
    }
}

/// How a [`SingleFlight::run`] call obtained its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightRole {
    /// This call performed the work itself.
    Led,
    /// This call blocked on another caller's flight.
    Waited,
}

/// A table of in-flight fetches, keyed by cache key.
pub struct SingleFlight<K, V> {
    table: OrderedMutex<HashMap<K, Arc<Flight<V>>>>,
}

impl<K: Eq + Hash + Clone, V: Clone> SingleFlight<K, V> {
    /// An empty table.
    pub fn new() -> Self {
        SingleFlight { table: OrderedMutex::new("cache.singleflight.table", HashMap::new()) }
    }

    /// Number of keys currently in flight (tests / introspection).
    pub fn in_flight(&self) -> usize {
        self.table.lock().len()
    }

    /// True if `key` has a flight in progress right now. Racy by nature —
    /// callers may only use it as a heuristic (e.g. to stop extending a
    /// coalesced run at a block someone else is already fetching).
    pub fn is_in_flight(&self, key: &K) -> bool {
        self.table.lock().contains_key(key)
    }

    /// Runs `work` for `key`, deduplicating against concurrent calls: the
    /// first caller becomes the leader and executes `work`; callers that
    /// arrive while the flight is open block and share the leader's result.
    ///
    /// The leader's entry is removed from the table *before* the result is
    /// published, so an error is observed exactly by the leader and the
    /// waiters already enqueued — never by later arrivals, which retry
    /// fresh. If the leader's `work` panics, waiters receive an
    /// [`Error::Internal`] instead of blocking forever.
    pub fn run(&self, key: K, work: impl FnOnce() -> Result<V>) -> (Result<V>, FlightRole) {
        let flight = {
            let mut table = self.table.lock();
            match table.entry(key.clone()) {
                Entry::Occupied(e) => {
                    let flight = Arc::clone(e.get());
                    drop(table);
                    let mut slot = flight.slot.lock();
                    let result = loop {
                        match slot.as_ref() {
                            Some(Ok(v)) => break Ok(v.clone()),
                            Some(Err(e)) => break Err(share_error(e)),
                            None => flight.done.wait(&mut slot),
                        }
                    };
                    return (result, FlightRole::Waited);
                }
                Entry::Vacant(e) => {
                    let flight = Arc::new(Flight::new());
                    e.insert(Arc::clone(&flight));
                    flight
                }
            }
        };

        // Leader path. The guard keeps waiters from hanging if `work`
        // panics: it closes the flight with an internal error on unwind.
        let guard = FlightGuard { owner: self, key, flight: &flight, done: false };
        let result = work();
        guard.finish(match &result {
            Ok(v) => Ok(v.clone()),
            Err(e) => Err(Arc::new(share_error(e))),
        });
        (result, FlightRole::Led)
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Default for SingleFlight<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Removes the leader's table entry and publishes its result — or, if the
/// leader unwinds without finishing, publishes an internal error so the
/// waiters wake instead of blocking forever.
struct FlightGuard<'a, K: Eq + Hash + Clone, V: Clone> {
    owner: &'a SingleFlight<K, V>,
    key: K,
    flight: &'a Arc<Flight<V>>,
    done: bool,
}

impl<K: Eq + Hash + Clone, V: Clone> FlightGuard<'_, K, V> {
    fn publish(&self, result: Result<V, Arc<Error>>) {
        self.owner.table.lock().remove(&self.key);
        *self.flight.slot.lock() = Some(result);
        self.flight.done.notify_all();
    }

    fn finish(mut self, result: Result<V, Arc<Error>>) {
        self.publish(result);
        self.done = true;
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Drop for FlightGuard<'_, K, V> {
    fn drop(&mut self) {
        if !self.done {
            self.publish(Err(Arc::new(Error::Internal(
                "singleflight leader panicked before publishing".into(),
            ))));
        }
    }
}

/// Structural copy of an [`Error`] for fan-out to waiters ([`Error`] itself
/// is not `Clone` because of the `Io` variant).
pub fn share_error(e: &Error) -> Error {
    match e {
        Error::Io(io) => Error::Io(std::io::Error::new(io.kind(), io.to_string())),
        Error::Corruption(m) => Error::Corruption(m.clone()),
        Error::NotFound(m) => Error::NotFound(m.clone()),
        Error::InvalidArgument(m) => Error::InvalidArgument(m.clone()),
        Error::Parse(m) => Error::Parse(m.clone()),
        Error::Query(m) => Error::Query(m.clone()),
        Error::Backpressure(m) => Error::Backpressure(m.clone()),
        Error::Raft(m) => Error::Raft(m.clone()),
        Error::Cluster(m) => Error::Cluster(m.clone()),
        Error::Stale(m) => Error::Stale(m.clone()),
        Error::Shutdown => Error::Shutdown,
        Error::Internal(m) => Error::Internal(m.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn solo_caller_leads() {
        let sf: SingleFlight<u32, u32> = SingleFlight::new();
        let (result, role) = sf.run(1, || Ok(42));
        assert_eq!(result.unwrap(), 42);
        assert_eq!(role, FlightRole::Led);
        assert_eq!(sf.in_flight(), 0);
    }

    #[test]
    fn concurrent_callers_share_one_execution() {
        let sf: Arc<SingleFlight<u32, u32>> = Arc::new(SingleFlight::new());
        let executions = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(16));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let sf = Arc::clone(&sf);
            let executions = Arc::clone(&executions);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                let (result, role) = sf.run(7, || {
                    executions.fetch_add(1, Ordering::SeqCst);
                    // Hold the flight open long enough for others to queue.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    Ok(99)
                });
                (result.unwrap(), role)
            }));
        }
        let outcomes: Vec<(u32, FlightRole)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(outcomes.iter().all(|(v, _)| *v == 99));
        let leaders = outcomes.iter().filter(|(_, r)| *r == FlightRole::Led).count();
        // Threads serialized behind the 20 ms flight join it; a straggler
        // arriving after completion leads its own (still just re-running
        // the closure, which in the cache hits memory). With the barrier,
        // at least one waits and executions stay far below 16.
        assert!(leaders >= 1);
        assert!(executions.load(Ordering::SeqCst) <= leaders);
        assert!(outcomes.iter().any(|(_, r)| *r == FlightRole::Waited));
        assert_eq!(sf.in_flight(), 0);
    }

    #[test]
    fn distinct_keys_do_not_serialize() {
        let sf: Arc<SingleFlight<u32, u32>> = Arc::new(SingleFlight::new());
        let barrier = Arc::new(Barrier::new(4));
        let start = std::time::Instant::now();
        let handles: Vec<_> = (0..4u32)
            .map(|k| {
                let sf = Arc::clone(&sf);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    sf.run(k, || {
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        Ok(k)
                    })
                    .0
                    .unwrap()
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            start.elapsed() < std::time::Duration::from_millis(100),
            "distinct keys must fly concurrently"
        );
    }

    #[test]
    fn errors_are_not_sticky() {
        let sf: SingleFlight<u32, u32> = SingleFlight::new();
        let (result, _) = sf.run(3, || Err(Error::NotFound("gone".into())));
        assert!(result.is_err());
        assert_eq!(sf.in_flight(), 0, "failed flight must leave the table");
        let (result, _) = sf.run(3, || Ok(5));
        assert_eq!(result.unwrap(), 5);
    }

    #[test]
    fn share_error_preserves_variant_and_message() {
        let shared = share_error(&Error::Io(std::io::Error::other("disk on fire")));
        assert!(matches!(&shared, Error::Io(e) if e.to_string().contains("disk on fire")));
        assert!(matches!(share_error(&Error::Shutdown), Error::Shutdown));
        let c = share_error(&Error::corruption("bad crc"));
        assert!(matches!(&c, Error::Corruption(m) if m == "bad crc"));
    }

    #[test]
    fn leader_panic_unblocks_waiters() {
        let sf: Arc<SingleFlight<u32, u32>> = Arc::new(SingleFlight::new());
        let barrier = Arc::new(Barrier::new(2));
        let waiter = {
            let sf = Arc::clone(&sf);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                // Give the leader time to enter its flight.
                std::thread::sleep(std::time::Duration::from_millis(10));
                sf.run(1, || Ok(1)).0
            })
        };
        let leader = {
            let sf = Arc::clone(&sf);
            std::thread::spawn(move || {
                let _ = sf.run(1, || {
                    barrier.wait();
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    panic!("leader died");
                });
            })
        };
        assert!(leader.join().is_err(), "leader must panic");
        // The waiter either joined the doomed flight (internal error) or
        // arrived after it closed and led a fresh, successful run.
        match waiter.join().unwrap() {
            Ok(v) => assert_eq!(v, 1),
            Err(e) => assert!(e.to_string().contains("singleflight leader panicked"), "{e}"),
        }
        assert_eq!(sf.in_flight(), 0);
    }
}
