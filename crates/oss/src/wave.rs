//! The request wave: one bounded, index-ordered fan-out for OSS requests.
//!
//! Every OSS request costs a high, roughly fixed round trip, so anything
//! that issues several of them — a query's prefetch, an archive drain's
//! LogBlock PUTs, a compaction's source GETs — wants them in flight
//! together. [`ordered_wave`] is the one mechanism all three share: the
//! caller feeds items in order, at most `width` tasks run at once on
//! scoped threads, and the results come back **in item order** whatever
//! order the requests completed in — so first-error selection and commit
//! decisions stay a function of the input, not of scheduling.

use logstore_sync::{OrderedCondvar, OrderedMutex};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;

/// What a panicking task unwound with.
type Payload = Box<dyn Any + Send>;

struct WaveState<T, R> {
    /// Fed by the caller, drained by the worker threads.
    queue: VecDeque<(usize, T)>,
    /// `(index, result)` in completion order; sorted once the wave ends.
    results: Vec<(usize, R)>,
    /// Items fed whose task has not finished yet.
    in_flight: usize,
    /// The feed ended: idle workers exit.
    closed: bool,
    /// The lowest-indexed panic so far, re-raised on the caller once every
    /// worker has stopped. Once set, no further item is fed or started.
    panic: Option<(usize, Payload)>,
}

struct Wave<T, R> {
    state: OrderedMutex<WaveState<T, R>>,
    /// Signalled on every state change (feed, completion, close); with at
    /// most `width` waiters one condvar is plenty.
    changed: OrderedCondvar,
}

impl<T, R> Wave<T, R> {
    /// Worker loop: run queued tasks until the feed is closed and drained.
    fn work(&self, task: &(impl Fn(usize, T) -> R + Sync)) {
        loop {
            let (idx, item) = {
                let mut state = self.state.lock();
                loop {
                    // After a panic the wave is unwinding: queued items
                    // are dropped unrun, as the inline path would.
                    if state.panic.is_some() {
                        return;
                    }
                    if let Some(next) = state.queue.pop_front() {
                        break next;
                    }
                    if state.closed {
                        return;
                    }
                    self.changed.wait(&mut state);
                }
            };
            // The task (an OSS request) runs with no lock held. A panic is
            // caught here and kept with its payload — the scope would
            // re-raise only a generic "a scoped thread panicked" — and
            // retiring through a drop guard frees the in-flight slot
            // whatever happened, so the feeder never waits on a dead slot.
            let mut retire = Retire { wave: self, idx, outcome: None };
            retire.outcome = Some(std::panic::catch_unwind(AssertUnwindSafe(|| task(idx, item))));
        }
    }
}

struct Retire<'a, T, R> {
    wave: &'a Wave<T, R>,
    idx: usize,
    outcome: Option<std::thread::Result<R>>,
}

impl<T, R> Drop for Retire<'_, T, R> {
    fn drop(&mut self) {
        let mut state = self.wave.state.lock();
        match self.outcome.take() {
            Some(Ok(result)) => state.results.push((self.idx, result)),
            Some(Err(payload))
                if state.panic.as_ref().is_none_or(|(first, _)| self.idx < *first) =>
            {
                state.panic = Some((self.idx, payload));
            }
            _ => {}
        }
        state.in_flight -= 1;
        drop(state);
        self.wave.changed.notify_all();
    }
}

/// Ends the feed and wakes every idle worker when the feeding scope ends —
/// by return or by unwind (an `items` iterator that panics must not leave
/// workers parked).
struct CloseOnDrop<'a, T, R>(&'a Wave<T, R>);

impl<T, R> Drop for CloseOnDrop<'_, T, R> {
    fn drop(&mut self) {
        self.0.state.lock().closed = true;
        self.0.changed.notify_all();
    }
}

/// Runs `task(index, item)` for every item of `items` with at most `width`
/// tasks in flight, and returns the results in item order.
///
/// `items` is pulled **on the calling thread**, strictly in order, and
/// only while fewer than `width` tasks are outstanding. A lazy iterator
/// that *produces* each item (the data builder building the next
/// LogBlock) therefore overlaps its own CPU with the requests already in
/// flight, never runs more than `width` items ahead of the slowest
/// request, and can end the wave early by returning `None` (stop building
/// after the first observed failure). Tasks run on scoped threads with no
/// wave lock held; completion order is free, the returned vector is index
/// order.
///
/// A task that panics stops the wave: no further item is pulled or
/// started, the tasks already running finish, and the panic of the
/// lowest-indexed task that panicked is re-raised on the caller with its
/// own payload — a typed crash payload or an assertion message arrives
/// intact, exactly as from the inline path.
///
/// `width <= 1` — or an iterator that announces at most one item — runs
/// the same `task` inline on the caller with no thread: the serial
/// reference path, and what keeps seeded simulations a pure function of
/// their seed. A wider wave spawns at most one thread per item.
pub fn ordered_wave<T, R, I, F>(width: usize, items: I, task: F) -> Vec<R>
where
    T: Send,
    R: Send,
    I: IntoIterator<Item = T>,
    F: Fn(usize, T) -> R + Sync,
{
    let mut items = items.into_iter().enumerate();
    if width <= 1 || items.size_hint().1.is_some_and(|n| n <= 1) {
        return items.map(|(idx, item)| task(idx, item)).collect();
    }
    let wave = Wave {
        state: OrderedMutex::new(
            "oss.wave.state",
            WaveState {
                queue: VecDeque::new(),
                results: Vec::new(),
                in_flight: 0,
                closed: false,
                panic: None,
            },
        ),
        changed: OrderedCondvar::new("oss.wave.changed"),
    };
    std::thread::scope(|scope| {
        let _close = CloseOnDrop(&wave);
        let mut workers = 0;
        loop {
            // Wait for a free slot *before* producing the next item, so
            // at most `width` produced items exist at any time.
            {
                let mut state = wave.state.lock();
                while state.in_flight >= width && state.panic.is_none() {
                    wave.changed.wait(&mut state);
                }
                if state.panic.is_some() {
                    break;
                }
            }
            // Produced with no wave lock held (it may take engine locks).
            let Some(next) = items.next() else { break };
            {
                let mut state = wave.state.lock();
                state.in_flight += 1;
                state.queue.push_back(next);
            }
            if workers < width {
                workers += 1;
                scope.spawn(|| wave.work(&task));
            } else {
                wave.changed.notify_all();
            }
        }
    });
    let state = wave.state.into_inner();
    if let Some((_, payload)) = state.panic {
        std::panic::resume_unwind(payload);
    }
    let mut results = state.results;
    results.sort_unstable_by_key(|(idx, _)| *idx);
    results.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn results_are_index_ordered_at_every_width() {
        for width in [0, 1, 2, 8, 64] {
            let out = ordered_wave(width, 0..100usize, |idx, item| {
                assert_eq!(idx, item);
                item * 3
            });
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>(), "width {width}");
        }
        assert!(ordered_wave(8, Vec::<u8>::new(), |_, b| b).is_empty());
    }

    #[test]
    fn width_tasks_really_run_together() {
        // Four tasks that each wait for the other three: only a wave that
        // keeps all four in flight at once can finish.
        let barrier = Barrier::new(4);
        let out = ordered_wave(4, 0..4u32, |_, item| {
            barrier.wait();
            item
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn in_flight_never_exceeds_width_and_items_are_pulled_lazily() {
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let produced = AtomicUsize::new(0);
        let finished = AtomicUsize::new(0);
        let items = (0..40usize).inspect(|i| {
            // Item i is produced only once fewer than `width` of the
            // earlier items are unfinished.
            let ahead = produced.fetch_add(1, Ordering::SeqCst) - finished.load(Ordering::SeqCst);
            assert!(ahead < 3, "item {i} produced {ahead} ahead of completion");
        });
        let out = ordered_wave(3, items, |_, item| {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::yield_now();
            running.fetch_sub(1, Ordering::SeqCst);
            finished.fetch_add(1, Ordering::SeqCst);
            item
        });
        assert_eq!(out.len(), 40);
        assert!(peak.load(Ordering::SeqCst) <= 3);
    }

    #[test]
    fn width_one_runs_inline_on_the_caller() {
        let caller = std::thread::current().id();
        let out = ordered_wave(1, 0..5, |_, item| (item, std::thread::current().id()));
        assert!(out.iter().all(|(_, thread)| *thread == caller));
        // A single announced item needs no thread either.
        let out = ordered_wave(8, [7], |_, item| (item, std::thread::current().id()));
        assert_eq!(out, vec![(7, caller)]);
    }

    #[test]
    fn the_feed_can_stop_the_wave_early() {
        // The producer stops once a task has reported a failure. Later
        // tasks cannot finish before that report, so the window bounds
        // how far the feed ran ahead: items 0..=5 plus at most three more.
        let failed = AtomicBool::new(false);
        let items = (0..1000usize).map_while(|i| (!failed.load(Ordering::SeqCst)).then_some(i));
        let out = ordered_wave(4, items, |_, item| {
            if item == 5 {
                failed.store(true, Ordering::SeqCst);
            }
            while item > 5 && !failed.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            item
        });
        assert!((6..=9).contains(&out.len()), "got {} items", out.len());
        assert_eq!(out, (0..out.len()).collect::<Vec<_>>());
    }

    /// The message a panic payload carries, if it is a string.
    fn message(payload: &Payload) -> Option<&str> {
        payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
    }

    #[test]
    fn a_panicking_task_propagates_instead_of_hanging() {
        let outcome = std::panic::catch_unwind(|| {
            ordered_wave(2, 0..16, |_, item| {
                assert_ne!(item, 3, "task 3 fails");
                item
            })
        });
        let payload = outcome.expect_err("the wave must re-raise the task's panic");
        let message = message(&payload).unwrap_or_default();
        assert!(message.contains("task 3 fails"), "the task's own message is lost: {message:?}");
    }

    #[test]
    fn a_typed_panic_payload_reaches_the_caller() {
        #[derive(Debug, PartialEq)]
        struct Crash(u32);
        // Every task of the second half panics: whichever finishes first,
        // the caller sees the lowest index's payload among those that ran.
        let started = AtomicUsize::new(0);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            ordered_wave(4, 0..64u32, |_, item| {
                started.fetch_add(1, Ordering::SeqCst);
                if item >= 5 {
                    std::panic::panic_any(Crash(item));
                }
                item
            })
        }));
        let payload = outcome.expect_err("the wave must re-raise the task's panic");
        assert_eq!(payload.downcast_ref::<Crash>(), Some(&Crash(5)), "{payload:?}");
        // The feed stops at the first panic: at most `width` items beyond it.
        assert!(started.load(Ordering::SeqCst) <= 5 + 4, "the wave kept feeding");
    }
}
