//! The deterministic simulated message network — the one type in the tree
//! that queues messages between simulated nodes. The control plane's RPC
//! links (`core::controller`) and every Raft group's links
//! (`logstore_raft::InProcCluster`: the controller replicas and each
//! shard's replicas) are instances of it.
//!
//! Endpoints are small integer addresses; [`SimNet::send`] enqueues a
//! typed [`Envelope`] on the directed per-link queue, and each
//! [`SimNet::step`] advances virtual time by one tick and returns the
//! envelopes whose delivery time has arrived. All fault behaviour — drop,
//! duplication, extra latency/reordering, partitions — is driven by one
//! seeded RNG, in the style of the `SimulatedOss` fault scopes: the same
//! seed and the same call sequence replay the same deliveries, byte for
//! byte.
//!
//! Fault semantics (each deterministic under the seed):
//!
//! * **Drop** — a message sent while its link is within the drop
//!   probability roll is discarded at send time and never delivered.
//! * **Duplicate** — a message may be enqueued twice (budget: one extra
//!   copy per send); both copies carry the same `seq`. Only that extra
//!   copy is cloned: a message otherwise moves from `send` to `step`.
//! * **Reorder** — when enabled, each copy draws an independent delivery
//!   delay in `[1, max_delay]`, so later sends can overtake earlier ones.
//!   When disabled every message takes exactly one tick and per-link FIFO
//!   order is preserved.
//! * **Partition** — [`SimNet::cut`] blocks a directed link: messages
//!   already in flight are *held* (delivered after [`SimNet::heal`]),
//!   messages sent while cut are dropped. Heal therefore "eventually
//!   delivers or drops" every affected message, deterministically.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// One message in flight or delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sending endpoint.
    pub from: u32,
    /// Receiving endpoint.
    pub to: u32,
    /// Network-wide send sequence number (shared by duplicate copies).
    pub seq: u64,
    /// The payload.
    pub msg: M,
}

/// Fault knobs. The default is a perfect network: nothing dropped or
/// duplicated, every message delivered on the next step, FIFO per link.
#[derive(Debug, Clone, PartialEq)]
pub struct NetFaults {
    /// Probability a send is discarded outright.
    pub drop_probability: f64,
    /// Probability a send is enqueued twice (at most one extra copy).
    pub duplicate_probability: f64,
    /// When true, per-copy delivery delays are drawn from `[1, max_delay]`
    /// so messages can overtake each other; when false every message takes
    /// exactly one step and links are FIFO.
    pub reorder: bool,
    /// Largest delivery delay in steps when `reorder` is on (min 1).
    pub max_delay: u64,
}

impl Default for NetFaults {
    fn default() -> Self {
        NetFaults {
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            reorder: false,
            max_delay: 3,
        }
    }
}

impl NetFaults {
    /// True when every send is delivered exactly once, in order.
    pub fn is_clean(&self) -> bool {
        self.drop_probability == 0.0 && self.duplicate_probability == 0.0 && !self.reorder
    }
}

/// Lifetime delivery counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Messages accepted by [`SimNet::send`].
    pub sent: u64,
    /// Envelope deliveries (duplicates count individually).
    pub delivered: u64,
    /// Sends discarded by the drop roll.
    pub dropped: u64,
    /// Sends discarded because their link was cut.
    pub dropped_partitioned: u64,
    /// Extra copies enqueued by the duplicate roll.
    pub duplicated: u64,
}

#[derive(Debug)]
struct InFlight<M> {
    env: Envelope<M>,
    /// Virtual time at which the copy becomes deliverable.
    due: u64,
    /// Per-link admission order; ties on `due` deliver in this order.
    order: u64,
}

/// The simulated network: directed per-link queues under one seeded RNG.
#[derive(Debug)]
pub struct SimNet<M> {
    now: u64,
    next_seq: u64,
    next_order: u64,
    faults: NetFaults,
    cuts: BTreeSet<(u32, u32)>,
    links: BTreeMap<(u32, u32), Vec<InFlight<M>>>,
    rng: StdRng,
    stats: NetStats,
}

impl<M: Clone> SimNet<M> {
    /// A perfect network driven by `seed`.
    pub fn new(seed: u64) -> Self {
        SimNet {
            now: 0,
            next_seq: 0,
            next_order: 0,
            faults: NetFaults::default(),
            cuts: BTreeSet::new(),
            links: BTreeMap::new(),
            rng: StdRng::seed_from_u64(seed ^ 0x5e7_ae41),
            stats: NetStats::default(),
        }
    }

    /// Replaces the fault configuration (takes effect for future sends).
    pub fn set_faults(&mut self, faults: NetFaults) {
        self.faults = faults;
    }

    /// The active fault configuration.
    pub fn faults(&self) -> &NetFaults {
        &self.faults
    }

    /// Cuts the directed link `from → to`. In-flight messages are held
    /// until [`SimNet::heal`]; new sends on the link are dropped.
    pub fn cut(&mut self, from: u32, to: u32) {
        self.cuts.insert((from, to));
    }

    /// Cuts both directions between `a` and everyone else.
    pub fn isolate(&mut self, node: u32, peers: impl IntoIterator<Item = u32>) {
        for p in peers {
            if p != node {
                self.cut(node, p);
                self.cut(p, node);
            }
        }
    }

    /// Heals every partition (held messages become deliverable again).
    pub fn heal(&mut self) {
        self.cuts.clear();
    }

    /// True when `from → to` is currently cut.
    pub fn is_cut(&self, from: u32, to: u32) -> bool {
        self.cuts.contains(&(from, to))
    }

    /// Sends `msg` from `from` to `to`, returning the assigned sequence
    /// number (also assigned to sends that the fault roll discards, so
    /// callers can correlate).
    pub fn send(&mut self, from: u32, to: u32, msg: M) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.sent += 1;
        if self.cuts.contains(&(from, to)) {
            self.stats.dropped_partitioned += 1;
            return seq;
        }
        if self.faults.drop_probability > 0.0 && self.rng.gen_bool(self.faults.drop_probability) {
            self.stats.dropped += 1;
            return seq;
        }
        if self.faults.duplicate_probability > 0.0
            && self.rng.gen_bool(self.faults.duplicate_probability)
        {
            self.stats.duplicated += 1;
            self.enqueue(from, to, seq, msg.clone());
        }
        self.enqueue(from, to, seq, msg);
        seq
    }

    fn enqueue(&mut self, from: u32, to: u32, seq: u64, msg: M) {
        let delay = if self.faults.reorder {
            self.rng.gen_range(1..=self.faults.max_delay.max(1))
        } else {
            1
        };
        let order = self.next_order;
        self.next_order += 1;
        self.links.entry((from, to)).or_default().push(InFlight {
            env: Envelope { from, to, seq, msg },
            due: self.now + delay,
            order,
        });
    }

    /// Advances virtual time one tick and returns every envelope due for
    /// delivery, in deterministic order (links by `(from, to)`, then by
    /// due time and admission order within a link). Cut links hold their
    /// messages.
    pub fn step(&mut self) -> Vec<Envelope<M>> {
        self.now += 1;
        let now = self.now;
        let mut out = Vec::new();
        for (&link, queue) in self.links.iter_mut() {
            if self.cuts.contains(&link) {
                continue;
            }
            let mut due: Vec<_> = queue.extract_if(.., |m| m.due <= now).collect();
            due.sort_by_key(|m| (m.due, m.order));
            out.extend(due.into_iter().map(|m| m.env));
        }
        self.stats.delivered += out.len() as u64;
        out
    }

    /// True when no message is queued anywhere (cut links included).
    pub fn idle(&self) -> bool {
        self.links.values().all(Vec::is_empty)
    }

    /// Messages currently queued (in flight or held behind a cut).
    pub fn in_flight(&self) -> usize {
        self.links.values().map(Vec::len).sum()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Current virtual time in steps.
    pub fn now(&self) -> u64 {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_net() -> SimNet<u64> {
        SimNet::new(7)
    }

    #[test]
    fn perfect_network_delivers_next_step_in_order() {
        let mut net = clean_net();
        net.send(0, 1, 10);
        net.send(0, 1, 11);
        net.send(2, 1, 12);
        let got = net.step();
        let payloads: Vec<u64> = got.iter().map(|e| e.msg).collect();
        assert_eq!(payloads, vec![10, 11, 12]);
        assert!(net.idle());
        assert!(net.step().is_empty());
    }

    #[test]
    fn cut_holds_in_flight_and_drops_new_sends() {
        let mut net = clean_net();
        net.send(0, 1, 1); // in flight before the cut
        net.cut(0, 1);
        net.send(0, 1, 2); // dropped at send
        assert!(net.step().is_empty(), "cut link must hold its queue");
        net.heal();
        let got = net.step();
        assert_eq!(got.len(), 1, "held message delivers after heal");
        assert_eq!(got[0].msg, 1);
        assert_eq!(net.stats().dropped_partitioned, 1);
        assert!(net.idle());
    }

    #[test]
    fn duplicates_share_a_seq_and_are_bounded() {
        let mut net: SimNet<u64> = SimNet::new(3);
        net.set_faults(NetFaults { duplicate_probability: 1.0, ..NetFaults::default() });
        let seq = net.send(0, 1, 5);
        let got = net.step();
        assert_eq!(got.len(), 2, "duplicate budget is exactly one extra copy");
        assert!(got.iter().all(|e| e.seq == seq && e.msg == 5));
        assert!(net.idle());
    }

    #[test]
    fn drop_probability_one_discards_everything() {
        let mut net: SimNet<u64> = SimNet::new(3);
        net.set_faults(NetFaults { drop_probability: 1.0, ..NetFaults::default() });
        for i in 0..10 {
            net.send(0, 1, i);
        }
        for _ in 0..5 {
            assert!(net.step().is_empty());
        }
        assert_eq!(net.stats().dropped, 10);
    }

    #[test]
    fn same_seed_same_deliveries() {
        let script = |net: &mut SimNet<u64>| {
            net.set_faults(NetFaults {
                drop_probability: 0.3,
                duplicate_probability: 0.3,
                reorder: true,
                max_delay: 4,
            });
            let mut trace = Vec::new();
            for i in 0..50u64 {
                net.send((i % 3) as u32, ((i + 1) % 3) as u32, i);
                for env in net.step() {
                    trace.push((env.from, env.to, env.seq, env.msg));
                }
            }
            for _ in 0..10 {
                for env in net.step() {
                    trace.push((env.from, env.to, env.seq, env.msg));
                }
            }
            trace
        };
        let a = script(&mut SimNet::new(99));
        let b = script(&mut SimNet::new(99));
        assert_eq!(a, b, "identical seeds must replay identical deliveries");
        assert_ne!(a, script(&mut SimNet::new(100)), "different seed, different schedule");
    }

    #[test]
    fn isolate_cuts_both_directions() {
        let mut net = clean_net();
        net.isolate(1, 0..3);
        assert!(net.is_cut(1, 0) && net.is_cut(0, 1));
        assert!(net.is_cut(1, 2) && net.is_cut(2, 1));
        assert!(!net.is_cut(0, 2));
    }
}
