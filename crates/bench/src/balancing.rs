//! Shared driver for the load-balancing experiments (Figures 12–14).
//!
//! Reproduces the paper's setup: 1000 tenants with Zipfian(θ) traffic over
//! a homogeneous cluster, initially placed by consistent hashing, then
//! (optionally) rebalanced by the greedy or max-flow balancer. The control
//! loop is the engine's own — `logstore_flow::ctrl::plan_tick` folded over
//! a `ControlState` — and outcomes are produced by the queueing simulator
//! in `logstore_flow::sim`.

use logstore_flow::balancer::{Balancer, GreedyBalancer, MaxFlowBalancer};
use logstore_flow::ctrl::plan_tick;
use logstore_flow::sim::{build_snapshot, simulate, ClusterTopology, SimConfig, SimResult};
use logstore_flow::{ControlAction, ControlState, CtrlCmd, FlowControlConfig};
use logstore_types::{ShardId, TenantId, WorkerId};
use logstore_workload::WorkloadSpec;
use std::collections::{BTreeMap, HashMap};

/// The policy one experiment run balances with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalancerKind {
    /// No traffic control at all (the Fig 12 baseline).
    None,
    /// Algorithm 2.
    Greedy,
    /// Algorithm 3 (the engine's planner).
    MaxFlow,
}

impl BalancerKind {
    /// The planner this kind runs; `None` runs none.
    pub fn planner(self) -> Option<&'static dyn Balancer> {
        match self {
            BalancerKind::None => None,
            BalancerKind::Greedy => Some(&GreedyBalancer),
            BalancerKind::MaxFlow => Some(&MaxFlowBalancer),
        }
    }
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct BalanceExperiment {
    /// Cluster shape.
    pub topology: ClusterTopology,
    /// Tenant population + skew.
    pub spec: WorkloadSpec,
    /// Total offered traffic (log entries / s).
    pub total_rate: u64,
    /// Flow-control knobs.
    pub flow: FlowControlConfig,
    /// Simulator knobs.
    pub sim: SimConfig,
    /// Max control ticks before declaring convergence.
    pub max_ticks: usize,
}

impl BalanceExperiment {
    /// The paper-like default: 6 workers × 4 shards (24 worker processes),
    /// 1000 tenants, offered load ≈ α × cluster capacity.
    pub fn paper_like(theta: f64) -> Self {
        let topology = ClusterTopology::homogeneous(6, 4, 100_000);
        let total_capacity: u64 = topology.worker_capacity.values().sum();
        BalanceExperiment {
            topology,
            spec: WorkloadSpec::paper(theta),
            total_rate: (total_capacity as f64 * 0.75) as u64,
            flow: FlowControlConfig { alpha: 0.85, per_tenant_shard_limit: 100_000 },
            sim: SimConfig::default(),
            max_ticks: 10,
        }
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// State with the initial (hash-only) placement.
    pub before: SimResult,
    /// State after the policy converged (same as `before` for `None`).
    pub after: SimResult,
    /// Route edges after convergence.
    pub routes: usize,
    /// Control ticks actually executed.
    pub ticks: usize,
}

/// The control state after every worker of `topology` registered and every
/// tenant was placed on its ring home shard with 100% weight (Algorithm 1
/// lines 4–7).
fn initial_state(topology: &ClusterTopology, tenants: &[TenantId]) -> ControlState {
    let mut by_worker: BTreeMap<WorkerId, Vec<(ShardId, u64)>> = BTreeMap::new();
    for (&shard, &worker) in &topology.shard_to_worker {
        by_worker.entry(worker).or_default().push((shard, topology.shard_capacity[&shard]));
    }
    let mut state = ControlState::new();
    for (worker, shards) in by_worker {
        state.apply(&CtrlCmd::RegisterWorker { worker, shards });
    }
    for &tenant in tenants {
        let home = state.home(tenant).expect("a registered topology has a non-empty ring");
        state.apply(&CtrlCmd::SetRoute { tenant, routes: vec![(home, 1.0)] });
    }
    state
}

/// Runs one (θ, balancer) cell.
pub fn run(exp: &BalanceExperiment, kind: BalancerKind) -> Outcome {
    let rates: HashMap<TenantId, u64> = exp.spec.tenant_rates(exp.total_rate);
    let mut state = initial_state(&exp.topology, &exp.spec.tenant_ids());

    let before = simulate(state.routing(), &rates, &exp.topology, &exp.sim);
    let Some(balancer) = kind.planner() else {
        return Outcome { after: before.clone(), before, routes: state.route_count(), ticks: 0 };
    };
    let mut ticks = 0;
    let mut last = before.clone();
    for _ in 0..exp.max_ticks {
        let snapshot = build_snapshot(&last, &rates, &exp.topology);
        let (action, plan) = plan_tick(&state, &snapshot, &exp.flow, balancer);
        if let Some(cmd) = plan {
            state.apply(&cmd);
        }
        ticks += 1;
        last = simulate(state.routing(), &rates, &exp.topology, &exp.sim);
        if matches!(action, ControlAction::None) {
            break;
        }
    }
    Outcome { before, after: last, routes: state.route_count(), ticks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logstore_flow::monitor::load_stddev;

    /// Pins the Fig 12–14 harness at θ = 0.99 to the values it reported
    /// at commit b9b76dc, when it still drove a control loop of its own
    /// instead of the engine's `plan_tick` over `ControlState`.
    #[test]
    fn paper_like_outcomes_match_the_previous_control_loop() {
        let exp = BalanceExperiment::paper_like(0.99);
        for (kind, routes, ticks, throughput) in [
            (BalancerKind::None, 1000, 0, 1_482_396),
            (BalancerKind::Greedy, 1029, 10, 1_800_025),
            (BalancerKind::MaxFlow, 1015, 2, 1_800_014),
        ] {
            let outcome = run(&exp, kind);
            assert_eq!(outcome.before.throughput, 1_482_396, "{kind:?}");
            assert_eq!(
                (outcome.routes, outcome.ticks, outcome.after.throughput),
                (routes, ticks, throughput),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn skewed_workload_collapses_without_control_and_recovers_with_it() {
        let exp = BalanceExperiment::paper_like(0.99);
        let none = run(&exp, BalancerKind::None);
        let maxflow = run(&exp, BalancerKind::MaxFlow);
        let offered = exp.total_rate as f64;
        assert!(
            (none.after.throughput as f64) < offered * 0.9,
            "uncontrolled skew should shed load: {} of {offered}",
            none.after.throughput
        );
        assert!(
            (maxflow.after.throughput as f64) > offered * 0.99,
            "max-flow should reach the offered rate: {} of {offered}",
            maxflow.after.throughput
        );
        assert!(
            maxflow.after.avg_latency_ms * 10.0 < none.after.avg_latency_ms,
            "latency {} vs {}",
            maxflow.after.avg_latency_ms,
            none.after.avg_latency_ms
        );
    }

    #[test]
    fn uniform_workload_needs_no_intervention() {
        let exp = BalanceExperiment::paper_like(0.0);
        let none = run(&exp, BalancerKind::None);
        let maxflow = run(&exp, BalancerKind::MaxFlow);
        // Already balanced: throughput equals offered rate both ways.
        let offered = exp.total_rate as f64;
        assert!(none.after.throughput as f64 > offered * 0.95);
        assert!(maxflow.after.throughput as f64 > offered * 0.95);
    }

    #[test]
    fn maxflow_reduces_stddev_at_high_skew() {
        let exp = BalanceExperiment::paper_like(0.99);
        let outcome = run(&exp, BalancerKind::MaxFlow);
        let before = load_stddev(&outcome.before.shard_load);
        let after = load_stddev(&outcome.after.shard_load);
        assert!(after < before / 2.0, "shard stddev before {before:.0} after {after:.0}");
    }

    #[test]
    fn maxflow_uses_fewer_routes_than_greedy_at_scale() {
        // The Fig 12(c) aggregate claim over the full 1000-tenant population.
        let exp = BalanceExperiment::paper_like(0.99);
        let greedy = run(&exp, BalancerKind::Greedy);
        let maxflow = run(&exp, BalancerKind::MaxFlow);
        assert!(
            maxflow.routes <= greedy.routes,
            "max-flow {} routes vs greedy {}",
            maxflow.routes,
            greedy.routes
        );
        // And both keep throughput near the offered rate.
        let offered = exp.total_rate as f64;
        assert!(greedy.after.throughput as f64 > offered * 0.9);
        assert!(maxflow.after.throughput as f64 > offered * 0.9);
    }
}
