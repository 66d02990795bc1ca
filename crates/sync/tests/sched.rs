//! Schedule-exploration regression suite: planted-bug protocol variants
//! must be *caught* within a bounded seed budget, and the correct
//! variants must *survive* a full sweep.
//!
//! Three models are miniatures of a real workspace protocol (see the
//! protocol tests in `crates/wal/tests/sched.rs` and
//! `crates/cache/tests/sched.rs` for the real implementations under the
//! same scheduler); the turnstile is a planted-ordering check of the
//! scheduler itself:
//!
//! * **singleflight** — the cache leader/waiter Condvar protocol (PR 3):
//!   the planted leader notifies *before* publishing the result, so a
//!   waiter that re-checks first parks forever (lost wakeup → deadlock).
//! * **turnstile** — tickets drawn under one lock must be committed in
//!   ticket order under another: the planted committer skips the "wait
//!   for my turn" check, so tickets commit in lock-arrival order. No live
//!   protocol has this shape (the group-commit WAL seals under its writer
//!   lock and needs no turn); the model stays because only a scheduler
//!   that really reorders lock arrivals catches the planted variant.
//! * **archive ops** — the in-flight archive op counters gating WAL
//!   truncation (PR 2): the planted truncator ignores the op gate and
//!   drops the WAL while a drained-but-unarchived batch is in flight.
//! * **controller dedup** — the replicated controller's per-replica
//!   request dedup (PR 9): the planted server checks the dedup table,
//!   drops the lock, and applies later — a check-then-act race that
//!   double-applies a retransmitted request.
//!
//! Every failure printed by [`sched::explore`] includes the seed and a
//! `SCHED_SEED=<n>` replay command; the planted tests additionally assert
//! that re-running the found seed reproduces the failure (determinism).

#![cfg(feature = "sched-fuzz")]

use std::sync::Arc;
use std::time::Duration;

use logstore_sync::{sched, sync_point, OrderedCondvar, OrderedMutex};

/// Seed budget within which each planted bug must be caught.
const CATCH_BUDGET: u64 = 80;
/// Seeds the unmodified protocols must survive.
const SWEEP: u64 = 120;

/// Finds a failing seed for `body` within the budget, asserts replay
/// determinism (the same seed fails again), and returns the report.
fn must_catch(name: &str, mut body: impl FnMut()) -> String {
    let (seed, report) = sched::find_failure(0..CATCH_BUDGET, &mut body)
        .unwrap_or_else(|| panic!("planted bug `{name}` not caught within {CATCH_BUDGET} seeds"));
    println!("planted `{name}` caught at seed {seed}; replay: SCHED_SEED={seed}\n{report}");
    let replay = sched::run_seed(seed, &mut body)
        .unwrap_or_else(|| panic!("planted bug `{name}`: seed {seed} did not replay its failure"));
    assert_eq!(report, replay, "planted bug `{name}`: seed {seed} replay diverged");
    report
}

// ---------------------------------------------------------------- model 1

/// Singleflight leader/waiter: the waiter parks until the leader
/// publishes into the shared slot. Planted variant: the leader notifies
/// first and publishes afterwards, from a separate critical section.
fn singleflight_model(planted: bool) {
    let slot = Arc::new(OrderedMutex::new("sync.test.sf_slot", None::<u32>));
    let done = Arc::new(OrderedCondvar::new("sync.test.sf_done"));

    let (lslot, ldone) = (Arc::clone(&slot), Arc::clone(&done));
    let leader = sched::spawn(move || {
        if planted {
            {
                let _g = lslot.lock();
                ldone.notify_all();
            }
            sync_point("sync.test.sf_gap");
            *lslot.lock() = Some(99);
        } else {
            let mut g = lslot.lock();
            *g = Some(99);
            ldone.notify_all();
        }
    });
    let (wslot, wdone) = (Arc::clone(&slot), Arc::clone(&done));
    let waiter = sched::spawn(move || {
        let mut g = wslot.lock();
        while g.is_none() {
            wdone.wait(&mut g);
        }
        assert_eq!(*g, Some(99));
    });
    leader.join();
    waiter.join();
}

#[test]
fn planted_singleflight_lost_wakeup_is_caught() {
    let report = must_catch("singleflight lost wakeup", || singleflight_model(true));
    assert!(report.contains("deadlock"), "expected a deadlock report, got:\n{report}");
}

#[test]
fn correct_singleflight_survives_sweep() {
    sched::explore(0..SWEEP, || singleflight_model(false));
}

// ---------------------------------------------------------------- model 2

struct Writer {
    next_commit: u64,
    log: Vec<u64>,
}

/// Turnstile: one lock hands out tickets, the writer must commit them in
/// ticket order. Planted variant: committers skip the turn check.
fn turnstile_model(planted: bool) {
    let staging = Arc::new(OrderedMutex::new("sync.test.turn_staging", 0u64));
    let writer = Arc::new(OrderedMutex::new(
        "sync.test.turn_writer",
        Writer { next_commit: 0, log: Vec::new() },
    ));
    let turn = Arc::new(OrderedCondvar::new("sync.test.turn_wake"));

    let handles: Vec<_> = (0..3)
        .map(|_| {
            let (staging, writer, turn) =
                (Arc::clone(&staging), Arc::clone(&writer), Arc::clone(&turn));
            sched::spawn(move || {
                let my_epoch = {
                    let mut s = staging.lock();
                    let e = *s;
                    *s += 1;
                    e
                };
                sync_point("sync.test.turn_sealed");
                let mut w = writer.lock();
                if !planted {
                    while w.next_commit != my_epoch {
                        turn.wait(&mut w);
                    }
                }
                w.log.push(my_epoch);
                w.next_commit += 1;
                turn.notify_all();
            })
        })
        .collect();
    for h in handles {
        h.join();
    }
    let w = writer.lock();
    assert_eq!(w.log, vec![0, 1, 2], "epochs committed out of order: {:?}", w.log);
}

#[test]
fn planted_turnstile_skipped_turn_check_is_caught() {
    let report = must_catch("turnstile skipped turn check", || turnstile_model(true));
    assert!(report.contains("out of order"), "expected the order assert, got:\n{report}");
}

#[test]
fn correct_turnstile_survives_sweep() {
    sched::explore(0..SWEEP, || turnstile_model(false));
}

// ---------------------------------------------------------------- model 3

#[derive(Default)]
struct Store {
    appended: Vec<u64>,
    wal: Vec<u64>,
    rows: Vec<u64>,
    archived: Vec<u64>,
    in_flight_ops: usize,
}

/// Archive pipeline: values live in the WAL until they are archived (or
/// still sit in the rowstore). Truncating the WAL is only safe when no
/// drained batch is in flight — a drained-but-unarchived batch exists
/// nowhere durable. Planted variant: the truncator ignores the op gate.
fn archive_ops_model(planted: bool) {
    let store = Arc::new(OrderedMutex::new("sync.test.arch_store", Store::default()));

    let producer = {
        let store = Arc::clone(&store);
        sched::spawn(move || {
            for v in 0..4u64 {
                let mut s = store.lock();
                s.appended.push(v);
                s.wal.push(v);
                s.rows.push(v);
            }
        })
    };
    let drainer = {
        let store = Arc::clone(&store);
        sched::spawn(move || {
            for _ in 0..3 {
                let batch = {
                    let mut s = store.lock();
                    if s.rows.is_empty() {
                        continue;
                    }
                    s.in_flight_ops += 1;
                    std::mem::take(&mut s.rows)
                };
                // The drained batch exists only in this thread's memory.
                sync_point("sync.test.arch_window");
                let mut s = store.lock();
                s.archived.extend(batch);
                s.in_flight_ops -= 1;
            }
        })
    };
    let truncator = {
        let store = Arc::clone(&store);
        sched::spawn(move || {
            for _ in 0..2 {
                sync_point("sync.test.arch_truncate");
                let mut s = store.lock();
                if planted || s.in_flight_ops == 0 {
                    s.wal.clear();
                    // Durability invariant at truncation: everything ever
                    // appended must survive in the rowstore or archive
                    // once its WAL record is gone.
                    let lost: Vec<u64> = s
                        .appended
                        .iter()
                        .copied()
                        .filter(|v| !s.rows.contains(v) && !s.archived.contains(v))
                        .collect();
                    assert!(lost.is_empty(), "WAL truncated while {lost:?} only in flight");
                }
            }
        })
    };
    producer.join();
    drainer.join();
    truncator.join();
}

#[test]
fn planted_archive_truncate_ignoring_ops_is_caught() {
    let report = must_catch("archive truncate ignores op gate", || archive_ops_model(true));
    assert!(report.contains("only in flight"), "expected the loss assert, got:\n{report}");
}

#[test]
fn correct_archive_ops_survive_sweep() {
    sched::explore(0..SWEEP, || archive_ops_model(false));
}

// ---------------------------------------------------------------- model 4

#[derive(Default)]
struct Controller {
    seen: Vec<u64>,
    applied: u64,
}

/// Controller RPC dedup: retransmitted requests carry the same id and
/// must apply exactly once. Planted variant: the server checks the dedup
/// table and applies in *separate* critical sections (check-then-act).
fn controller_dedup_model(planted: bool) {
    let ctl = Arc::new(OrderedMutex::new("sync.test.ctl_state", Controller::default()));
    // Two deliveries of the same request id (a retransmission), plus a
    // distinct request to keep the schedule honest.
    let reqs = [7u64, 7, 11];
    let handles: Vec<_> = reqs
        .iter()
        .map(|&req| {
            let ctl = Arc::clone(&ctl);
            sched::spawn(move || {
                if planted {
                    let dup = ctl.lock().seen.contains(&req);
                    sync_point("sync.test.ctl_gap");
                    if !dup {
                        let mut c = ctl.lock();
                        c.applied += 1;
                        c.seen.push(req);
                    }
                } else {
                    let mut c = ctl.lock();
                    if !c.seen.contains(&req) {
                        c.applied += 1;
                        c.seen.push(req);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join();
    }
    let c = ctl.lock();
    assert_eq!(c.applied, 2, "dedup failed: {} applies for 2 unique requests", c.applied);
}

#[test]
fn planted_controller_dedup_check_then_act_is_caught() {
    let report = must_catch("controller dedup check-then-act", || controller_dedup_model(true));
    assert!(report.contains("dedup failed"), "expected the dedup assert, got:\n{report}");
}

#[test]
fn correct_controller_dedup_survives_sweep() {
    sched::explore(0..SWEEP, || controller_dedup_model(false));
}

// ------------------------------------------------------------- scheduler

/// A timed wait with no notifier must fire its modeled timeout instead of
/// being reported as a deadlock.
#[test]
fn modeled_timeout_fires_without_notifier() {
    sched::explore(0..20, || {
        let m = Arc::new(OrderedMutex::new("sync.test.to_mutex", false));
        let cv = Arc::new(OrderedCondvar::new("sync.test.to_cv"));
        let h = sched::spawn(move || {
            let mut g = m.lock();
            while !*g {
                if cv.wait_for(&mut g, Duration::from_millis(1)).timed_out() {
                    return;
                }
            }
        });
        h.join();
    });
}

/// An untimed wait with no notifier is exactly a deadlock, and the report
/// names the condvar site.
#[test]
fn deadlock_report_names_the_waiting_site() {
    let (seed, report) = sched::find_failure(0..4, || {
        let m = Arc::new(OrderedMutex::new("sync.test.dl_mutex", ()));
        let cv = Arc::new(OrderedCondvar::new("sync.test.dl_cv"));
        let h = sched::spawn(move || {
            let mut g = m.lock();
            cv.wait(&mut g);
        });
        h.join();
    })
    .expect("an unnotified wait must be reported as a deadlock");
    assert!(
        report.contains("sync.test.dl_cv") && report.contains("deadlock"),
        "seed {seed}: report missing the waiting site:\n{report}"
    );
}
