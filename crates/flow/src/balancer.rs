//! Rebalancing planners: the greedy baseline (Algorithm 2) and the
//! max-flow planner (Algorithm 3).

use crate::ctrl::FlowControlConfig;
use crate::monitor::{detect_hotspots, TrafficSnapshot};
use crate::network::{EdgeId, FlowNetwork};
use crate::routing::RoutingTable;
use logstore_types::{Result, ShardId, TenantId};
use std::collections::{BTreeSet, HashMap};

/// A planner that turns a traffic snapshot into a new routing table.
pub trait Balancer: Send + Sync {
    /// Human-readable name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Produces a new routing plan.
    fn rebalance(
        &self,
        snapshot: &TrafficSnapshot,
        current: &RoutingTable,
        config: &FlowControlConfig,
    ) -> Result<RoutingTable>;
}

/// Finds the tenants to act on: the hottest tenant of each hot shard
/// (Algorithms 2 and 3, lines 2–4).
fn hot_tenants(snapshot: &TrafficSnapshot, config: &FlowControlConfig) -> BTreeSet<TenantId> {
    detect_hotspots(snapshot, config.alpha)
        .hot_shards
        .iter()
        .filter_map(|&shard| snapshot.hottest_tenant_on(shard))
        .collect()
}

/// Algorithm 2: split each hot tenant across
/// `ceil(traffic / per_tenant_shard_limit)` of the least-loaded shards and
/// spread its traffic uniformly.
#[derive(Debug, Default)]
pub struct GreedyBalancer;

impl Balancer for GreedyBalancer {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn rebalance(
        &self,
        snapshot: &TrafficSnapshot,
        current: &RoutingTable,
        config: &FlowControlConfig,
    ) -> Result<RoutingTable> {
        let mut plan = current.clone();
        // Working load estimate so successive placements see earlier ones.
        let mut load: HashMap<ShardId, u64> = snapshot.shard_load.clone();
        for tenant in hot_tenants(snapshot, config) {
            let traffic = snapshot.tenant_traffic.get(&tenant).copied().unwrap_or(0);
            if traffic == 0 {
                continue;
            }
            let mut shards: BTreeSet<ShardId> =
                plan.routes(tenant).into_iter().flatten().map(|(shard, _)| *shard).collect();
            let total_needed =
                (traffic as usize).div_ceil(config.per_tenant_shard_limit.max(1) as usize);
            // CalculateAddRoutesNum: edges to add beyond what exists. The
            // tenant was picked *because* its shard is hot, so always move
            // at least some of its traffic off that shard.
            let mut n_add = total_needed.saturating_sub(shards.len()).max(1);
            while n_add > 0 {
                // GreedyFindLeastLoad over the working estimate.
                let candidate = snapshot
                    .shard_capacity
                    .keys()
                    .filter(|s| !shards.contains(s))
                    .min_by_key(|s| (load.get(s).copied().unwrap_or(0), s.raw()));
                let Some(&shard) = candidate else {
                    break; // no shard left to add
                };
                shards.insert(shard);
                n_add -= 1;
            }
            // Uniform weights across all routes (Alg 2 lines 16–19), and
            // update the working load estimate with the even share.
            let share = traffic / shards.len().max(1) as u64;
            for &s in &shards {
                *load.entry(s).or_default() += share;
            }
            plan.set_routes(tenant, shards.iter().map(|&s| (s, 1.0)).collect())?;
        }
        Ok(plan)
    }
}

/// Algorithm 3: model the whole cluster as a flow network, compute max flow
/// with Dinic, add routes only while the achievable flow is below the
/// offered traffic, and derive weights from the flow assignment.
#[derive(Debug, Default)]
pub struct MaxFlowBalancer;

impl Balancer for MaxFlowBalancer {
    fn name(&self) -> &'static str {
        "max-flow"
    }

    fn rebalance(
        &self,
        snapshot: &TrafficSnapshot,
        current: &RoutingTable,
        config: &FlowControlConfig,
    ) -> Result<RoutingTable> {
        let fmax_edge = config.per_tenant_shard_limit.max(1);
        let mut g = FlowNetwork::new();
        let s = g.add_node();
        let t = g.add_node();

        // Deterministic orderings.
        let mut tenants: Vec<TenantId> =
            snapshot.tenant_traffic.iter().filter(|(_, &tr)| tr > 0).map(|(t, _)| *t).collect();
        tenants.sort_unstable();
        let mut shards: Vec<ShardId> = snapshot.shard_capacity.keys().copied().collect();
        shards.sort_unstable();
        let mut workers: Vec<_> = snapshot.worker_capacity.keys().copied().collect();
        workers.sort_unstable();

        let tenant_node: HashMap<TenantId, usize> =
            tenants.iter().map(|&k| (k, g.add_node())).collect();
        let shard_node: HashMap<ShardId, usize> =
            shards.iter().map(|&p| (p, g.add_node())).collect();
        let worker_node: HashMap<_, usize> = workers.iter().map(|&d| (d, g.add_node())).collect();

        // S -> tenant: demand f(K_i).
        let mut demand_edge: HashMap<TenantId, EdgeId> = HashMap::new();
        for &k in &tenants {
            let e = g.add_edge(s, tenant_node[&k], snapshot.tenant_traffic[&k])?;
            demand_edge.insert(k, e);
        }
        // shard -> worker: alpha * c(P_j); worker -> T: alpha * c(D_k). The
        // paper's capacity constraints are f(P_j) <= c(P_j) and
        // f(D_k) <= alpha * c(D_k); applying the same high watermark to
        // shards keeps every shard below saturation so queueing latency
        // stays bounded after a rebalance (Fig 14(c): all workers settle
        // near alpha).
        for &p in &shards {
            if let Some(w) = snapshot.shard_to_worker.get(&p) {
                let cap = (snapshot.shard_capacity[&p] as f64 * config.alpha) as u64;
                g.add_edge(shard_node[&p], worker_node[w], cap)?;
            }
        }
        for &d in &workers {
            let cap = (snapshot.worker_capacity[&d] as f64 * config.alpha) as u64;
            g.add_edge(worker_node[&d], t, cap)?;
        }
        // tenant -> shard for each existing route, capped at the per-edge max.
        let mut route_edges: HashMap<(TenantId, ShardId), EdgeId> = HashMap::new();
        for &k in &tenants {
            for &(shard, _) in current.routes(k).into_iter().flatten() {
                if let Some(&pn) = shard_node.get(&shard) {
                    let e = g.add_edge(tenant_node[&k], pn, fmax_edge)?;
                    route_edges.insert((k, shard), e);
                }
            }
        }

        let total_demand: u64 = tenants.iter().map(|k| snapshot.tenant_traffic[k]).sum();
        let mut fmax = g.max_flow(s, t)?;

        // Alg 3 lines 9–19: add an edge for each unsatisfied hot tenant and
        // recompute until the flow meets demand or no edge can be added.
        // "Hot" is re-derived from the current flow each round — a tenant is
        // unsatisfied exactly when its source edge has residual demand —
        // otherwise the loop stalls once the initially-hot tenants are
        // satisfied while smaller tenants on the same shard still overflow.
        let mut guard = tenants.len() * shards.len() + 1;
        while fmax < total_demand && guard > 0 {
            guard -= 1;
            let mut unsatisfied: Vec<TenantId> = tenants
                .iter()
                .copied()
                .filter(|k| demand_edge.get(k).is_some_and(|de| g.edge_residual(*de) > 0))
                .collect();
            unsatisfied.sort_by_key(|k| std::cmp::Reverse(snapshot.tenant_traffic[k]));
            let mut added = false;
            for &k in &unsatisfied {
                let Some(&de) = demand_edge.get(&k) else { continue };
                if g.edge_residual(de) == 0 {
                    continue; // tenant fully satisfied
                }
                // GreedyFindLeastLoad: the shard (not yet routed for k) whose
                // path to the sink has the most headroom right now.
                let candidate = shards
                    .iter()
                    .filter(|p| !route_edges.contains_key(&(k, **p)))
                    .max_by_key(|p| {
                        let load = snapshot.shard_load.get(p).copied().unwrap_or(0);
                        let cap = snapshot.shard_capacity[p];
                        (cap.saturating_sub(load), std::cmp::Reverse(p.raw()))
                    });
                if let Some(&p) = candidate {
                    let e = g.add_edge(tenant_node[&k], shard_node[&p], fmax_edge)?;
                    route_edges.insert((k, p), e);
                    added = true;
                }
            }
            if !added {
                break; // topology exhausted; ScaleCluster() is the caller's move
            }
            fmax += g.max_flow(s, t)?;
        }

        // Weights X_ij = f(X_ij) / f(K_i) from the flow assignment.
        let mut plan = RoutingTable::new();
        let mut by_tenant: HashMap<TenantId, Vec<(ShardId, f64)>> = HashMap::new();
        for ((k, p), e) in &route_edges {
            let flow = g.edge_flow(*e);
            if flow > 0 {
                by_tenant.entry(*k).or_default().push((*p, flow as f64));
            }
        }
        for &k in &tenants {
            match by_tenant.remove(&k) {
                Some(routes) => plan.set_routes(k, routes)?,
                None => {
                    // Tenant got no flow (saturated cluster) — keep its
                    // current placement so writes still have a destination.
                    if let Some(existing) = current.routes(k) {
                        plan.set_routes(k, existing.to_vec())?;
                    }
                }
            }
        }
        // Zero-traffic tenants keep their routes untouched.
        for (k, routes) in current.iter() {
            if plan.routes(k).is_none() {
                plan.set_routes(k, routes.to_vec())?;
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logstore_types::WorkerId;

    /// 4 shards on 2 workers, shard capacity 100, worker capacity 200,
    /// alpha 1.0 for easy arithmetic.
    fn base_snapshot() -> TrafficSnapshot {
        let mut s = TrafficSnapshot::default();
        for p in 0..4u32 {
            s.shard_capacity.insert(ShardId(p), 100);
            s.shard_to_worker.insert(ShardId(p), WorkerId(p / 2));
        }
        for w in 0..2u32 {
            s.worker_capacity.insert(WorkerId(w), 200);
        }
        s
    }

    fn config() -> FlowControlConfig {
        FlowControlConfig { alpha: 1.0, per_tenant_shard_limit: 100 }
    }

    fn single_hot_tenant_snapshot() -> (TrafficSnapshot, RoutingTable) {
        let mut s = base_snapshot();
        s.tenant_traffic.insert(TenantId(1), 250);
        s.shard_load.insert(ShardId(0), 250);
        s.shard_tenants.insert(ShardId(0), vec![(TenantId(1), 250)]);
        s.worker_load.insert(WorkerId(0), 250);
        let mut rt = RoutingTable::new();
        rt.set_routes(TenantId(1), vec![(ShardId(0), 1.0)]).unwrap();
        (s, rt)
    }

    #[test]
    fn greedy_splits_hot_tenant() {
        let (s, rt) = single_hot_tenant_snapshot();
        let plan = GreedyBalancer.rebalance(&s, &rt, &config()).unwrap();
        let routes = plan.routes(TenantId(1)).unwrap();
        // 250 traffic / 100 per-shard limit → 3 shards, uniform weights.
        assert_eq!(routes.len(), 3);
        for (_, weight) in routes {
            assert!((weight - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn maxflow_satisfies_demand_with_capacity_constraints() {
        let (s, rt) = single_hot_tenant_snapshot();
        let plan = MaxFlowBalancer.rebalance(&s, &rt, &config()).unwrap();
        let routes = plan.routes(TenantId(1)).unwrap();
        // Needs >= 3 shards (100 each) and both workers (200 each).
        assert!(routes.len() >= 3, "got {routes:?}");
        let total: f64 = routes.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // No route may exceed the per-edge limit share: 100/250 = 0.4.
        for r in routes {
            assert!(r.1 <= 0.4 + 1e-9, "route {r:?} exceeds edge cap share");
        }
    }

    #[test]
    fn cold_system_is_left_alone() {
        let mut s = base_snapshot();
        s.tenant_traffic.insert(TenantId(1), 10);
        s.shard_load.insert(ShardId(0), 10);
        s.shard_tenants.insert(ShardId(0), vec![(TenantId(1), 10)]);
        let mut rt = RoutingTable::new();
        rt.set_routes(TenantId(1), vec![(ShardId(0), 1.0)]).unwrap();
        for balancer in [&GreedyBalancer as &dyn Balancer, &MaxFlowBalancer] {
            let plan = balancer.rebalance(&s, &rt, &config()).unwrap();
            assert_eq!(plan.routes(TenantId(1)).unwrap().len(), 1, "{}", balancer.name());
        }
    }

    #[test]
    fn maxflow_uses_fewer_or_equal_routes_than_greedy() {
        // Several warm tenants + one hot one: the Fig 12(c) claim.
        let mut s = base_snapshot();
        let mut rt = RoutingTable::new();
        for t in 1..=4u64 {
            let traffic = if t == 1 { 180 } else { 30 };
            s.tenant_traffic.insert(TenantId(t), traffic);
            let home = ShardId((t % 4) as u32);
            rt.set_routes(TenantId(t), vec![(home, 1.0)]).unwrap();
            *s.shard_load.entry(home).or_default() += traffic;
            s.shard_tenants.entry(home).or_default().push((TenantId(t), traffic));
        }
        for (p, w) in [(0u32, 0u32), (1, 0), (2, 1), (3, 1)] {
            let load = s.shard_load.get(&ShardId(p)).copied().unwrap_or(0);
            *s.worker_load.entry(WorkerId(w)).or_default() += load;
        }
        let greedy = GreedyBalancer.rebalance(&s, &rt, &config()).unwrap();
        let maxflow = MaxFlowBalancer.rebalance(&s, &rt, &config()).unwrap();
        // Max-flow may spend a route or two more than greedy on a tiny
        // topology because it also honors worker capacity; it must stay in
        // the same ballpark (the aggregate claim is checked in the Fig 12
        // harness over 1000 tenants).
        assert!(
            maxflow.route_count() <= greedy.route_count() + 2,
            "max-flow {} routes vs greedy {}",
            maxflow.route_count(),
            greedy.route_count()
        );
        // And the max-flow plan must respect the per-worker watermark:
        // offered load per worker stays within alpha * capacity.
        let topo = crate::sim::ClusterTopology {
            shard_capacity: s.shard_capacity.clone(),
            worker_capacity: s.worker_capacity.clone(),
            shard_to_worker: s.shard_to_worker.clone(),
        };
        let result = crate::sim::simulate(&maxflow, &s.tenant_traffic, &topo, &Default::default());
        for (w, &load) in &result.worker_load {
            let cap = s.worker_capacity[w];
            assert!(
                load as f64 <= cap as f64 + 1.0,
                "worker {w} overloaded under max-flow plan: {load}/{cap}"
            );
        }
    }

    #[test]
    fn saturated_cluster_keeps_existing_routes() {
        let mut s = base_snapshot();
        // Demand 10x the entire cluster.
        s.tenant_traffic.insert(TenantId(1), 4000);
        s.shard_load.insert(ShardId(0), 4000);
        s.shard_tenants.insert(ShardId(0), vec![(TenantId(1), 4000)]);
        s.worker_load.insert(WorkerId(0), 4000);
        let mut rt = RoutingTable::new();
        rt.set_routes(TenantId(1), vec![(ShardId(0), 1.0)]).unwrap();
        let plan = MaxFlowBalancer.rebalance(&s, &rt, &config()).unwrap();
        // Still routed somewhere; the controller escalates to ScaleCluster.
        assert!(plan.routes(TenantId(1)).is_some());
    }

    #[test]
    fn zero_traffic_tenants_preserved() {
        let (s, mut rt) = single_hot_tenant_snapshot();
        rt.set_routes(TenantId(99), vec![(ShardId(2), 1.0)]).unwrap();
        let plan = MaxFlowBalancer.rebalance(&s, &rt, &config()).unwrap();
        assert_eq!(plan.routes(TenantId(99)).unwrap()[0].0, ShardId(2));
    }
}
