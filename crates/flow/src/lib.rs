//! Global traffic control: multi-tenant load balancing as a flow network.
//!
//! The paper's §4 models the assignment of tenant write traffic to shards
//! and workers as a single-source/single-sink flow network
//! (`S → tenants → shards → workers → T`) and balances it with a max-flow
//! computation (Dinic's algorithm), falling back to adding routes when the
//! achievable max flow cannot carry the offered load, and to cluster
//! scale-out when the whole system is saturated. A greedy balancer
//! (Algorithm 2) serves as the baseline.
//!
//! Modules:
//!
//! * [`network`] — Dinic max-flow over integer capacities.
//! * [`consistent`] — the consistent-hash ring used for initial placement.
//! * [`routing`] — weighted tenant→shard routing tables (the one route
//!   representation: normalisation and the weighted pick live here).
//! * [`monitor`] — traffic snapshots and hotspot detection.
//! * [`balancer`] — the greedy (Alg 2) and max-flow (Alg 3) planners.
//! * [`ctrl`] — the control loop (Alg 1): the replicated controller's
//!   deterministic state machine (commands applied through the Raft log)
//!   and the pure `plan_tick` that decides one control interval.
//! * [`sim`] — a queueing-theoretic traffic simulator used by tests and the
//!   Figure 12–14 harnesses.

#![forbid(unsafe_code)]

pub mod balancer;
pub mod consistent;
pub mod ctrl;
pub mod monitor;
pub mod network;
pub mod routing;
pub mod sim;

pub use balancer::{Balancer, GreedyBalancer, MaxFlowBalancer};
pub use consistent::ConsistentHashRing;
pub use ctrl::{ControlAction, ControlState, CtrlCmd, FlowControlConfig};
pub use monitor::{HotspotReport, TrafficSnapshot};
pub use network::FlowNetwork;
pub use routing::RoutingTable;
