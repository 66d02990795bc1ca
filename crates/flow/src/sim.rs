//! Traffic simulation for load-balancing experiments.
//!
//! The Figure 12–14 experiments need the system's response to a routing
//! plan: per-shard/per-worker load, achievable throughput, and write
//! latency. This module computes those with a standard queueing model —
//! per-shard utilisation `ρ = load/capacity` drives an M/M/1-style latency
//! `base / (1 − ρ)`, saturating as `ρ → 1`, which reproduces the paper's
//! observed collapse (throughput < 1 M rows/s and ~2000 ms latency at
//! `θ = 0.99` without flow control).

use crate::monitor::TrafficSnapshot;
use crate::routing::RoutingTable;
use logstore_types::{ShardId, TenantId, WorkerId};
use std::collections::HashMap;

/// Static cluster shape: shards, workers, capacities, placement.
#[derive(Debug, Clone, Default)]
pub struct ClusterTopology {
    /// Capacity per shard, `c(P_j)`.
    pub shard_capacity: HashMap<ShardId, u64>,
    /// Capacity per worker, `c(D_k)`.
    pub worker_capacity: HashMap<WorkerId, u64>,
    /// Which worker hosts each shard.
    pub shard_to_worker: HashMap<ShardId, WorkerId>,
}

impl ClusterTopology {
    /// A homogeneous cluster: `workers × shards_per_worker` shards, each
    /// with `shard_capacity`; worker capacity is the sum of its shards.
    pub fn homogeneous(workers: u32, shards_per_worker: u32, shard_capacity: u64) -> Self {
        let mut t = ClusterTopology::default();
        for w in 0..workers {
            t.worker_capacity.insert(WorkerId(w), shard_capacity * u64::from(shards_per_worker));
            for s in 0..shards_per_worker {
                let shard = ShardId(w * shards_per_worker + s);
                t.shard_capacity.insert(shard, shard_capacity);
                t.shard_to_worker.insert(shard, WorkerId(w));
            }
        }
        t
    }

    /// All shard ids, sorted.
    pub fn shards(&self) -> Vec<ShardId> {
        let mut s: Vec<ShardId> = self.shard_capacity.keys().copied().collect();
        s.sort_unstable();
        s
    }
}

/// Simulation tuning.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Service latency of an unloaded shard, in ms (per batch of 1000).
    pub base_latency_ms: f64,
    /// Utilisation clamp: latency saturates at `base / (1 - max_rho)`.
    pub max_rho: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { base_latency_ms: 1.0, max_rho: 0.9995 }
    }
}

/// Outcome of applying a routing plan to offered traffic.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    /// Load per shard (offered, before capacity capping).
    pub shard_load: HashMap<ShardId, u64>,
    /// Load per worker.
    pub worker_load: HashMap<WorkerId, u64>,
    /// Achievable throughput (capacity-capped at shard then worker level).
    pub throughput: u64,
    /// Traffic-weighted mean write latency in ms.
    pub avg_latency_ms: f64,
    /// Per-worker utilisation `load / capacity`.
    pub worker_utilization: HashMap<WorkerId, f64>,
    /// Per-shard tenant contributions (feeds the next snapshot).
    pub shard_tenants: HashMap<ShardId, Vec<(TenantId, u64)>>,
}

/// Applies `routes` to `tenant_rates` over `topology`.
pub fn simulate(
    routes: &RoutingTable,
    tenant_rates: &HashMap<TenantId, u64>,
    topology: &ClusterTopology,
    config: &SimConfig,
) -> SimResult {
    let mut result = SimResult::default();
    for shard in topology.shard_capacity.keys() {
        result.shard_load.insert(*shard, 0);
    }
    for worker in topology.worker_capacity.keys() {
        result.worker_load.insert(*worker, 0);
    }

    // Offered load per shard from the weighted routes.
    for (&tenant, &rate) in tenant_rates {
        let Some(tenant_routes) = routes.routes(tenant) else { continue };
        for &(shard, weight) in tenant_routes {
            let share = (rate as f64 * weight).round() as u64;
            if share == 0 {
                continue;
            }
            *result.shard_load.entry(shard).or_default() += share;
            result.shard_tenants.entry(shard).or_default().push((tenant, share));
            if let Some(w) = topology.shard_to_worker.get(&shard) {
                *result.worker_load.entry(*w).or_default() += share;
            }
        }
    }

    // Throughput: shard-capped, then scaled down on overloaded workers.
    let mut worker_through: HashMap<WorkerId, u64> = HashMap::new();
    let mut shard_through: HashMap<ShardId, u64> = HashMap::new();
    for (&shard, &load) in &result.shard_load {
        let cap = topology.shard_capacity.get(&shard).copied().unwrap_or(0);
        let t = load.min(cap);
        shard_through.insert(shard, t);
        if let Some(w) = topology.shard_to_worker.get(&shard) {
            *worker_through.entry(*w).or_default() += t;
        }
    }
    let mut throughput = 0u64;
    for (&worker, &through) in &worker_through {
        let cap = topology.worker_capacity.get(&worker).copied().unwrap_or(0);
        throughput += through.min(cap);
    }
    result.throughput = throughput;

    for (&worker, &load) in &result.worker_load {
        let cap = topology.worker_capacity.get(&worker).copied().unwrap_or(1).max(1);
        result.worker_utilization.insert(worker, load as f64 / cap as f64);
    }

    // Latency: each tenant's batch write waits for its routed shards; the
    // effective utilisation is the worse of shard and worker ρ.
    let mut weighted_latency = 0.0;
    let mut total_rate = 0.0;
    for (&tenant, &rate) in tenant_rates {
        if rate == 0 {
            continue;
        }
        let Some(tenant_routes) = routes.routes(tenant) else { continue };
        let mut tenant_latency = 0.0;
        for &(shard, weight) in tenant_routes {
            let shard_cap = topology.shard_capacity.get(&shard).copied().unwrap_or(1).max(1);
            let shard_rho =
                result.shard_load.get(&shard).copied().unwrap_or(0) as f64 / shard_cap as f64;
            let worker_rho = topology
                .shard_to_worker
                .get(&shard)
                .and_then(|w| result.worker_utilization.get(w))
                .copied()
                .unwrap_or(0.0);
            let rho = shard_rho.max(worker_rho).min(config.max_rho);
            tenant_latency += weight * config.base_latency_ms / (1.0 - rho);
        }
        weighted_latency += rate as f64 * tenant_latency;
        total_rate += rate as f64;
    }
    result.avg_latency_ms = if total_rate > 0.0 { weighted_latency / total_rate } else { 0.0 };
    result
}

/// Assembles the monitor's [`TrafficSnapshot`] from a simulation step —
/// this is what the production monitor would collect from runtime metrics.
pub fn build_snapshot(
    result: &SimResult,
    tenant_rates: &HashMap<TenantId, u64>,
    topology: &ClusterTopology,
) -> TrafficSnapshot {
    TrafficSnapshot {
        tenant_traffic: tenant_rates.clone(),
        shard_load: result.shard_load.clone(),
        shard_capacity: topology.shard_capacity.clone(),
        worker_load: result.worker_load.clone(),
        worker_capacity: topology.worker_capacity.clone(),
        shard_to_worker: topology.shard_to_worker.clone(),
        shard_tenants: result.shard_tenants.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rates(pairs: &[(u64, u64)]) -> HashMap<TenantId, u64> {
        pairs.iter().map(|&(t, r)| (TenantId(t), r)).collect()
    }

    #[test]
    fn homogeneous_topology_shape() {
        let t = ClusterTopology::homogeneous(3, 4, 100);
        assert_eq!(t.shard_capacity.len(), 12);
        assert_eq!(t.worker_capacity.len(), 3);
        assert_eq!(t.worker_capacity[&WorkerId(0)], 400);
        assert_eq!(t.shard_to_worker[&ShardId(5)], WorkerId(1));
        assert_eq!(t.shards().len(), 12);
    }

    #[test]
    fn balanced_traffic_full_throughput_low_latency() {
        let topo = ClusterTopology::homogeneous(2, 2, 100);
        let mut routes = RoutingTable::new();
        for t in 0..4u64 {
            routes.set_routes(TenantId(t), vec![(ShardId(t as u32), 1.0)]).unwrap();
        }
        let r = simulate(
            &routes,
            &rates(&[(0, 50), (1, 50), (2, 50), (3, 50)]),
            &topo,
            &SimConfig::default(),
        );
        assert_eq!(r.throughput, 200);
        assert!(r.avg_latency_ms < 3.0, "latency {} too high for ρ=0.5", r.avg_latency_ms);
        assert!((r.worker_utilization[&WorkerId(0)] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn skewed_traffic_collapses_without_balancing() {
        let topo = ClusterTopology::homogeneous(2, 2, 100);
        let mut routes = RoutingTable::new();
        for t in 0..4u64 {
            routes.set_routes(TenantId(t), vec![(ShardId(0), 1.0)]).unwrap();
        }
        let r = simulate(
            &routes,
            &rates(&[(0, 100), (1, 100), (2, 100), (3, 100)]),
            &topo,
            &SimConfig::default(),
        );
        // All 400 units hit one shard of capacity 100.
        assert_eq!(r.throughput, 100);
        assert!(r.avg_latency_ms > 100.0, "expected saturated latency, got {}", r.avg_latency_ms);
    }

    #[test]
    fn splitting_the_hot_tenant_restores_throughput() {
        let topo = ClusterTopology::homogeneous(2, 2, 100);
        let mut routes = RoutingTable::new();
        routes
            .set_routes(
                TenantId(0),
                vec![
                    (ShardId(0), 0.25),
                    (ShardId(1), 0.25),
                    (ShardId(2), 0.25),
                    (ShardId(3), 0.25),
                ],
            )
            .unwrap();
        let r = simulate(&routes, &rates(&[(0, 400)]), &topo, &SimConfig::default());
        assert_eq!(r.throughput, 400);
        let balanced = simulate(&routes, &rates(&[(0, 200)]), &topo, &SimConfig::default());
        assert!(balanced.avg_latency_ms < 3.0);
    }

    #[test]
    fn worker_capacity_caps_throughput() {
        // Two shards of 100 on one worker whose capacity is only 150.
        let mut topo = ClusterTopology::default();
        topo.worker_capacity.insert(WorkerId(0), 150);
        for p in 0..2u32 {
            topo.shard_capacity.insert(ShardId(p), 100);
            topo.shard_to_worker.insert(ShardId(p), WorkerId(0));
        }
        let mut routes = RoutingTable::new();
        routes.set_routes(TenantId(0), vec![(ShardId(0), 0.5), (ShardId(1), 0.5)]).unwrap();
        let r = simulate(&routes, &rates(&[(0, 200)]), &topo, &SimConfig::default());
        assert_eq!(r.throughput, 150);
    }

    #[test]
    fn snapshot_reflects_simulation() {
        let topo = ClusterTopology::homogeneous(1, 2, 100);
        let mut routes = RoutingTable::new();
        routes.set_routes(TenantId(7), vec![(ShardId(0), 1.0)]).unwrap();
        let tr = rates(&[(7, 42)]);
        let r = simulate(&routes, &tr, &topo, &SimConfig::default());
        let snap = build_snapshot(&r, &tr, &topo);
        assert_eq!(snap.tenant_traffic[&TenantId(7)], 42);
        assert_eq!(snap.shard_load[&ShardId(0)], 42);
        assert_eq!(snap.hottest_tenant_on(ShardId(0)), Some(TenantId(7)));
    }
}
