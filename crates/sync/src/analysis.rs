//! The debug-build lock-analysis engine.
//!
//! Compiled only under `cfg(debug_assertions)` or the `lock-analysis`
//! feature. Two data structures drive every check:
//!
//! * a **per-thread held-lock stack** — each blocking acquisition pushes
//!   `(site, token)` and the guard's `Drop` pops it (tokens make
//!   out-of-order guard drops safe);
//! * a **global acquired-before graph** over site labels — acquiring `B`
//!   while holding `A` records the edge `A -> B` together with the full
//!   acquisition chain that first produced it, so a later inverted
//!   acquisition can print *both* conflicting chains, not just the pair
//!   of labels.
//!
//! Cycle detection is incremental: before an acquisition blocks, we check
//! whether a path already leads from the about-to-be-acquired site back to
//! any currently held site. If it does, this acquisition would close a
//! cycle in the acquired-before relation — the classic ABBA deadlock shape
//! — and we panic with a report instead of ever blocking. Checking at
//! *attempt* time means the schedule does not have to actually interleave
//! into the deadlock for the inversion to be caught: one thread observing
//! `A -> B` and any thread later attempting `B` then `A` is enough.
//!
//! `try_lock` acquisitions push onto the held stack (so
//! [`assert_no_locks_held`] still sees them) but record **no** edges and
//! never panic: a non-blocking attempt cannot participate in a deadlock,
//! and treating it as an ordering commitment would manufacture false
//! cycles from opportunistic probing.
//!
//! Site labels are `&'static str` and identity is by label, not by lock
//! instance: two locks that may be held simultaneously by one thread must
//! carry distinct labels, while a pool of same-role locks (cache shards)
//! that are never nested can share one.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

#[derive(Clone, Copy)]
struct Held {
    site: &'static str,
    token: u64,
}

thread_local! {
    static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
}

/// Tokens distinguish multiple live guards of same-label locks so a
/// guard's `Drop` removes exactly its own stack entry.
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

/// One observed acquired-before edge, with the acquisition chain (every
/// site held at the time, oldest first, ending with the acquired site)
/// that first established it.
struct Edge {
    chain: Vec<&'static str>,
}

/// Adjacency: `graph[a][b]` exists iff some thread acquired `b` while
/// holding `a`. Guarded by a plain `std::sync::Mutex` — the analysis
/// engine must not instrument its own lock.
static GRAPH: Mutex<BTreeMap<&'static str, BTreeMap<&'static str, Edge>>> =
    Mutex::new(BTreeMap::new());

fn next_token() -> u64 {
    NEXT_TOKEN.fetch_add(1, Ordering::Relaxed)
}

fn held_snapshot() -> Vec<Held> {
    HELD.with(|held| held.borrow().clone())
}

fn push_held(site: &'static str) -> u64 {
    let token = next_token();
    HELD.with(|held| held.borrow_mut().push(Held { site, token }));
    token
}

/// Called by a blocking `lock()`/`read()`/`write()` *before* it blocks.
/// Panics if this acquisition closes a cycle in the acquired-before
/// graph; otherwise records the new edges. Returns nothing — the caller
/// pushes the held entry via [`on_acquired`] only once the inner lock is
/// actually obtained, so a panicking sibling thread never leaks a stack
/// entry for a lock it does not hold.
pub(crate) fn before_blocking_acquire(site: &'static str) {
    let held = held_snapshot();
    if held.is_empty() {
        return;
    }
    if let Some(prior) = held.iter().find(|h| h.site == site) {
        panic!(
            "lock-order cycle: `{site}` acquired while already held by this thread\n  \
             held (oldest first): {}\n  \
             hint: locks that can be held together need distinct site labels; \
             re-acquiring the same lock would self-deadlock\n  \
             first acquisition token: {}",
            format_stack(&held),
            prior.token,
        );
    }
    let mut graph = GRAPH.lock().unwrap_or_else(PoisonError::into_inner);
    // Would `held -> site` close a cycle? Equivalent: does a path already
    // lead from `site` back to any held lock?
    if let Some(path) = find_path_to_any(&graph, site, &held) {
        let victim = *path.last().expect("path is never empty");
        let mut report = format!(
            "lock-order cycle: acquiring `{site}` while holding `{victim}`\n  \
             this thread's acquisition chain (oldest first): {} -> {site}\n  \
             conflicting acquired-before chain(s) previously observed:\n",
            format_stack(&held),
        );
        for pair in path.windows(2) {
            let (from, to) = (pair[0], pair[1]);
            let chain = graph
                .get(from)
                .and_then(|m| m.get(to))
                .map(|e| e.chain.join(" -> "))
                .unwrap_or_default();
            report.push_str(&format!("    `{from}` -> `{to}`  (first seen: {chain})\n"));
        }
        report.push_str(&format!(
            "  cycle: {} -> {site}\n  \
             fix: acquire these locks in one global order everywhere, or drop \
             one before taking the other (see DESIGN.md, lock ranking)",
            path.join(" -> "),
        ));
        panic!("{report}");
    }
    // Safe: record the new edges with this thread's chain as the example.
    let chain: Vec<&'static str> = held.iter().map(|h| h.site).chain([site]).collect();
    for h in &held {
        graph
            .entry(h.site)
            .or_default()
            .entry(site)
            .or_insert_with(|| Edge { chain: chain.clone() });
    }
}

/// Called once a blocking acquisition has actually obtained the lock.
pub(crate) fn on_acquired(site: &'static str) -> u64 {
    push_held(site)
}

/// Called when a `try_lock` succeeds: tracked as held, no edges recorded.
pub(crate) fn on_try_acquired(site: &'static str) -> u64 {
    push_held(site)
}

/// Called from guard `Drop`.
pub(crate) fn on_released(token: u64) {
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        // Search from the end: guards usually drop LIFO.
        if let Some(pos) = held.iter().rposition(|h| h.token == token) {
            held.remove(pos);
        }
    });
}

/// Called by `OrderedCondvar::wait`/`wait_for` before parking. A waiting
/// thread must hold exactly the one mutex it is waiting on: holding any
/// second lock across a wait stalls every other thread needing that lock
/// for an unbounded time (and deadlocks outright if the notifier needs
/// it). Removes the guard's held entry for the duration of the wait and
/// returns its site so [`after_wait`] can re-register the mutex under its
/// own label once the wait wakes.
pub(crate) fn before_wait(condvar_site: &'static str, guard_token: u64) -> &'static str {
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if held.iter().any(|h| h.token != guard_token) {
            panic!(
                "condvar `{condvar_site}`: waiting while holding other locks\n  \
                 full held stack (oldest first): {}\n  \
                 waited mutex token: {guard_token}\n  \
                 fix: release every other lock before blocking on a condvar",
                format_stack(&held),
            );
        }
        let pos = held
            .iter()
            .rposition(|h| h.token == guard_token)
            .expect("condvar wait with a guard not on the held stack");
        held.remove(pos).site
    })
}

/// Called after the wait returns — by notify *or* timeout — and the mutex
/// is re-acquired. Re-checks that the thread picked up no other lock
/// while parked (`wait_for`'s timeout path runs through here too: a
/// timed-out waiter re-registers its guard exactly like a notified one).
/// Returns the guard's new token.
pub(crate) fn after_wait(mutex_site: &'static str) -> u64 {
    HELD.with(|held| {
        let held = held.borrow();
        if !held.is_empty() {
            panic!(
                "condvar wakeup re-acquiring `{mutex_site}`: thread already holds locks\n  \
                 full held stack (oldest first): {}\n  \
                 fix: a parked waiter must hold nothing; some path acquired a lock \
                 between the wait and the mutex re-acquisition",
                format_stack(&held),
            );
        }
    });
    push_held(mutex_site)
}

/// Panics if the current thread holds any instrumented lock. See
/// [`crate::assert_no_locks_held`] for the public, always-compiled entry.
pub(crate) fn assert_no_locks_held_impl(context: &str) {
    HELD.with(|held| {
        let held = held.borrow();
        if !held.is_empty() {
            panic!(
                "blocking operation `{context}` invoked while holding locks\n  \
                 held (oldest first): {}\n  \
                 fix: finish or drop every lock before issuing blocking I/O \
                 (OSS requests must never run under a lock)",
                format_stack(&held),
            );
        }
    });
}

/// BFS from `from` over the acquired-before graph; returns the path
/// (starting at `from`, ending at the first reachable held site) if any
/// held site is reachable.
fn find_path_to_any(
    graph: &BTreeMap<&'static str, BTreeMap<&'static str, Edge>>,
    from: &'static str,
    held: &[Held],
) -> Option<Vec<&'static str>> {
    let mut parent: BTreeMap<&'static str, &'static str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(node) = queue.pop_front() {
        if let Some(next) = graph.get(node) {
            for &succ in next.keys() {
                if succ == from || parent.contains_key(succ) {
                    continue;
                }
                parent.insert(succ, node);
                if held.iter().any(|h| h.site == succ) {
                    // Reconstruct from -> ... -> succ.
                    let mut path = vec![succ];
                    let mut cur = succ;
                    while cur != from {
                        cur = parent[cur];
                        path.push(cur);
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(succ);
            }
        }
    }
    None
}

/// Renders a held stack as `site#token, …` — tokens disambiguate multiple
/// live guards of same-label locks in multi-lock reports.
fn format_stack(held: &[Held]) -> String {
    held.iter().map(|h| format!("{}#{}", h.site, h.token)).collect::<Vec<_>>().join(", ")
}

/// Test-only: whether some thread has acquired `after` while holding
/// `before` — an edge of the acquired-before graph. Lets a test pin that
/// two locks are never held together, not merely never in both orders.
#[doc(hidden)]
pub fn acquired_before(before: &str, after: &str) -> bool {
    let graph = GRAPH.lock().unwrap_or_else(PoisonError::into_inner);
    graph.get(before).is_some_and(|edges| edges.contains_key(after))
}

/// Test-only: number of locks the current thread holds. Used by the
/// detector's own tests; not part of the public API surface.
#[doc(hidden)]
pub fn held_count() -> usize {
    HELD.with(|held| held.borrow().len())
}
