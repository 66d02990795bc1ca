//! The scatter/gather query executor: a shared, bounded worker pool that
//! fans a query's per-source work (real-time shard scans, LogBlock scans
//! over bytes the broker already fetched) out across threads.
//!
//! Determinism is the design constraint: a parallel run must be
//! bit-identical to the sequential one. The pool therefore never merges
//! anything itself — it returns every task's result **indexed by the
//! task's position in the submission order**, whatever order tasks
//! actually finished in. The broker builds its task list in a canonical
//! order (shards sorted by id, LogBlocks sorted by path) and folds the
//! indexed results left to right, so merge order — and with it row order,
//! first-error selection and stats totals — is independent of scheduling.

use logstore_sync::OrderedMutex;
use logstore_types::{Error, Result};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A unit of work submitted to the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A boxed query task: one source's partial collection.
pub type Task<T> = Box<dyn FnOnce() -> Result<T> + Send + 'static>;

/// A fixed-size thread pool shared by every query on the engine.
///
/// Sharing bounds total query concurrency: a single engine never runs
/// more than `threads` source-collections at once no matter how many
/// queries are in flight or what per-query `parallelism` they request.
pub struct QueryPool {
    sender: Option<crossbeam::channel::Sender<Job>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl QueryPool {
    /// Spawns a pool of `threads` workers (minimum 1). Fails if the OS
    /// refuses a thread — engine construction surfaces that instead of
    /// panicking halfway through startup.
    pub fn new(threads: usize) -> Result<Self> {
        let threads = threads.max(1);
        let (sender, receiver) = crossbeam::channel::unbounded::<Job>();
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let receiver = receiver.clone();
            let handle = std::thread::Builder::new()
                .name(format!("query-pool-{i}"))
                .spawn(move || {
                    while let Ok(job) = receiver.recv() {
                        job();
                    }
                })
                .map_err(|e| Error::Internal(format!("spawn query pool thread: {e}")))?;
            handles.push(handle);
        }
        Ok(QueryPool { sender: Some(sender), handles, threads })
    }

    /// Pool size.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `tasks` with up to `parallelism` of them in flight at once and
    /// returns their results **in submission order**.
    ///
    /// `parallelism <= 1` runs every task inline on the calling thread —
    /// the sequential reference path, same task code, zero pool traffic —
    /// and so does a single task. Higher values submit
    /// `min(parallelism, tasks)` runners to the pool; each runner pulls the
    /// next unclaimed task index until none remain, so tasks start in order
    /// even though they finish in any order.
    pub fn scatter<T: Send + 'static>(
        &self,
        parallelism: usize,
        tasks: Vec<Task<T>>,
    ) -> Vec<Result<T>> {
        if tasks.len() <= 1 {
            return tasks.into_iter().map(run_task).collect();
        }
        self.start(parallelism, tasks).wait()
    }

    /// [`QueryPool::scatter`] split in two: hands `tasks` to the pool and
    /// returns at once, so the caller can do other work — fetch what the
    /// next tasks will read — before it [`Scattered::wait`]s. With
    /// `parallelism <= 1` there is nobody to hand them to: they run here,
    /// inline, before this returns.
    pub fn start<T: Send + 'static>(
        &self,
        parallelism: usize,
        tasks: Vec<Task<T>>,
    ) -> Scattered<T> {
        let total = tasks.len();
        if parallelism <= 1 {
            let results = tasks.into_iter().map(|task| Some(run_task(task))).collect();
            return Scattered { results, pending: None };
        }
        let slots: Arc<Vec<OrderedMutex<Option<Task<T>>>>> = Arc::new(
            tasks.into_iter().map(|t| OrderedMutex::new("core.executor.slot", Some(t))).collect(),
        );
        let cursor = Arc::new(AtomicUsize::new(0));
        let (result_tx, result_rx) = crossbeam::channel::unbounded::<(usize, Result<T>)>();
        let runners = parallelism.min(total);
        for _ in 0..runners {
            let slots = Arc::clone(&slots);
            let cursor = Arc::clone(&cursor);
            let result_tx = result_tx.clone();
            self.submit(Box::new(move || loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                if idx >= slots.len() {
                    return;
                }
                // Claim under a transient guard; the task itself (which
                // may issue OSS reads) runs with no lock held. The cursor
                // hands each index out once, so an empty slot means state
                // corruption — report it as this index's result rather
                // than unwinding inside a pool worker.
                let Some(task) = slots[idx].lock().take() else {
                    let _ = result_tx
                        .send((idx, Err(Error::Internal("query task slot claimed twice".into()))));
                    continue;
                };
                // A send can only fail if the gatherer gave up; nothing
                // left to do with the result then.
                let _ = result_tx.send((idx, run_task(task)));
            }));
        }
        Scattered { results: (0..total).map(|_| None).collect(), pending: Some(result_rx) }
    }

    /// Runs `job` on a pool thread, detached from the caller: dropping the
    /// pool waits for it.
    pub(crate) fn detach(&self, job: impl FnOnce() + Send + 'static) {
        self.submit(Box::new(job));
    }

    fn submit(&self, job: Job) {
        // The sender lives until Drop takes it, so a live pool always
        // sends; if the channel is somehow gone or disconnected, degrade
        // to running the job inline rather than panicking mid-query.
        match &self.sender {
            Some(sender) => {
                if let Err(e) = sender.send(job) {
                    (e.0)();
                }
            }
            None => job(),
        }
    }
}

impl Drop for QueryPool {
    fn drop(&mut self) {
        // Disconnect the channel so workers drain and exit, then join.
        self.sender.take();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Tasks handed to the pool by [`QueryPool::start`], not yet gathered.
pub struct Scattered<T> {
    /// One slot per task, in submission order; filled as results arrive.
    results: Vec<Option<Result<T>>>,
    /// `None` when the tasks already ran inline.
    pending: Option<crossbeam::channel::Receiver<(usize, Result<T>)>>,
}

impl<T> Scattered<T> {
    /// Blocks until every task has reported; results in submission order.
    pub fn wait(mut self) -> Vec<Result<T>> {
        if let Some(pending) = self.pending.take() {
            for _ in 0..self.results.len() {
                match pending.recv() {
                    Ok((idx, result)) => self.results[idx] = Some(result),
                    // Every runner sender dropped before all indices
                    // reported: a pool worker died. The fill below turns
                    // each missing slot into an error instead of hanging
                    // or panicking.
                    Err(_) => break,
                }
            }
        }
        self.results
            .into_iter()
            .map(|r| {
                r.unwrap_or_else(|| Err(Error::Internal("query pool lost a task result".into())))
            })
            .collect()
    }
}

/// Runs one task, converting a panic into an error instead of poisoning
/// the pool (a panicking task would otherwise hang the gather loop).
fn run_task<T>(task: Task<T>) -> Result<T> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)) {
        Ok(result) => result,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "query task panicked".to_string());
            Err(Error::Internal(format!("query task panicked: {msg}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    fn tasks_counting(n: usize, counter: &Arc<AtomicU64>) -> Vec<Task<usize>> {
        (0..n)
            .map(|i| {
                let counter = Arc::clone(counter);
                let task: Task<usize> = Box::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                    Ok(i * 10)
                });
                task
            })
            .collect()
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = QueryPool::new(4).unwrap();
        for parallelism in [1, 2, 4, 16] {
            let counter = Arc::new(AtomicU64::new(0));
            let results = pool.scatter(parallelism, tasks_counting(32, &counter));
            let values: Vec<usize> = results.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(values, (0..32).map(|i| i * 10).collect::<Vec<_>>());
            assert_eq!(counter.load(Ordering::Relaxed), 32);
        }
    }

    #[test]
    fn errors_keep_their_task_index() {
        let pool = QueryPool::new(4).unwrap();
        let tasks: Vec<Task<u32>> = (0..8)
            .map(|i| {
                let task: Task<u32> = Box::new(move || {
                    if i % 3 == 1 {
                        Err(Error::Internal(format!("task {i} failed")))
                    } else {
                        Ok(i)
                    }
                });
                task
            })
            .collect();
        let results = pool.scatter(4, tasks);
        for (i, r) in results.iter().enumerate() {
            if i % 3 == 1 {
                let e = r.as_ref().unwrap_err();
                assert!(e.to_string().contains(&format!("task {i}")), "{e}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u32);
            }
        }
    }

    #[test]
    fn parallelism_one_runs_inline() {
        let pool = QueryPool::new(4).unwrap();
        let caller = std::thread::current().id();
        let results = pool.scatter(
            1,
            vec![Box::new(move || {
                assert_eq!(std::thread::current().id(), caller, "must run inline");
                Ok(1u8)
            }) as Task<u8>],
        );
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].as_ref().unwrap(), &1);
    }

    #[test]
    fn start_hands_tasks_over_and_wait_gathers_them_in_order() {
        let pool = QueryPool::new(2).unwrap();
        // Both tasks block until the caller — back from `start` — lets
        // them go: `start` cannot have waited for them.
        let (go_tx, go_rx) = crossbeam::channel::unbounded::<()>();
        let tasks: Vec<Task<usize>> = (0..2usize)
            .map(|i| {
                let go = go_rx.clone();
                Box::new(move || {
                    go.recv().map_err(|e| Error::Internal(e.to_string()))?;
                    Ok(i)
                }) as Task<usize>
            })
            .collect();
        let scattered = pool.start(2, tasks);
        for _ in 0..2 {
            go_tx.send(()).unwrap();
        }
        let values: Vec<usize> = scattered.wait().into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, vec![0, 1]);
        // Sequential mode has nobody to hand over to: done at `start`.
        let caller = std::thread::current().id();
        let inline: Vec<Task<bool>> =
            vec![Box::new(move || Ok(std::thread::current().id() == caller))];
        assert!(pool.start(1, inline).wait().remove(0).unwrap());
    }

    #[test]
    fn tasks_actually_run_concurrently() {
        let pool = QueryPool::new(8).unwrap();
        let make = || -> Vec<Task<()>> {
            (0..8)
                .map(|_| {
                    let task: Task<()> = Box::new(|| {
                        std::thread::sleep(Duration::from_millis(20));
                        Ok(())
                    });
                    task
                })
                .collect()
        };
        let serial = Instant::now();
        pool.scatter(1, make());
        let serial = serial.elapsed();
        let parallel = Instant::now();
        pool.scatter(8, make());
        let parallel = parallel.elapsed();
        assert!(
            parallel < serial / 2,
            "8-way scatter should beat sequential: {parallel:?} vs {serial:?}"
        );
    }

    #[test]
    fn panicking_task_reports_instead_of_hanging() {
        let pool = QueryPool::new(2).unwrap();
        let tasks: Vec<Task<u32>> =
            vec![Box::new(|| Ok(1)), Box::new(|| panic!("boom in task")), Box::new(|| Ok(3))];
        let results = pool.scatter(2, tasks);
        assert_eq!(results[0].as_ref().unwrap(), &1);
        assert!(results[1].as_ref().unwrap_err().to_string().contains("boom in task"));
        assert_eq!(results[2].as_ref().unwrap(), &3);
        // The pool survives the panic and keeps serving.
        let after = pool.scatter(2, vec![Box::new(|| Ok(9u32)) as Task<u32>, Box::new(|| Ok(10))]);
        assert_eq!(after[0].as_ref().unwrap(), &9);
        assert_eq!(after[1].as_ref().unwrap(), &10);
    }

    #[test]
    fn shared_pool_bounds_concurrency_across_queries() {
        // 2-thread pool, two 4-task scatters from two caller threads: at
        // most 2 tasks may ever be in flight simultaneously.
        let pool = Arc::new(QueryPool::new(2).unwrap());
        let in_flight = Arc::new(AtomicU64::new(0));
        let peak = Arc::new(AtomicU64::new(0));
        let make = |in_flight: &Arc<AtomicU64>, peak: &Arc<AtomicU64>| -> Vec<Task<()>> {
            (0..4)
                .map(|_| {
                    let in_flight = Arc::clone(in_flight);
                    let peak = Arc::clone(peak);
                    let task: Task<()> = Box::new(move || {
                        let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(10));
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                        Ok(())
                    });
                    task
                })
                .collect()
        };
        let mut joins = Vec::new();
        for _ in 0..2 {
            let pool = Arc::clone(&pool);
            let tasks = make(&in_flight, &peak);
            joins.push(std::thread::spawn(move || {
                pool.scatter(4, tasks);
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "pool must bound concurrency");
    }
}
