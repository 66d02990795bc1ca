//! Weighted tenant→shard routing tables.
//!
//! The controller pushes tables of the form
//! `Rules{T0: {P0: X00, P1: X01, ...}, ...}` to brokers (paper §4.1.2);
//! brokers split each tenant's write traffic across its routes by weight.
//! Route *count* (the number of tenant→shard edges) is a first-class metric:
//! the paper's Figure 12(c) compares how many routes each balancer needs.
//!
//! This is the one representation of routes in the system: the replicated
//! [`crate::ctrl::ControlState`] holds its current table as a
//! [`RoutingTable`], the balancers plan over it, and brokers pick from
//! the same [`Route`] slices with [`pick`]. Tables are `BTreeMap`-backed,
//! so iteration (and everything encoded from it) is deterministic.

use crate::consistent::fnv1a;
use logstore_types::{Error, Result, ShardId, TenantId};
use std::collections::BTreeMap;

/// One tenant→shard route: the destination shard and the fraction of the
/// tenant's traffic it carries, in `[0, 1]`. A tenant's routes are sorted
/// by shard and sum to 1.
pub type Route = (ShardId, f64);

/// The routing table distributed to brokers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoutingTable {
    routes: BTreeMap<TenantId, Vec<Route>>,
}

impl RoutingTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a tenant's routes: non-positive-weight routes are dropped,
    /// duplicate shards merged, and weights normalized to sum to 1. Fails
    /// when nothing survives.
    pub fn set_routes(&mut self, tenant: TenantId, mut routes: Vec<Route>) -> Result<()> {
        routes.retain(|(_, w)| *w > 0.0);
        if routes.is_empty() {
            return Err(Error::invalid(format!("tenant {tenant} needs at least one route")));
        }
        routes.sort_by_key(|(shard, _)| *shard);
        routes.dedup_by(|b, a| {
            if a.0 == b.0 {
                a.1 += b.1;
                true
            } else {
                false
            }
        });
        let total: f64 = routes.iter().map(|(_, w)| w).sum();
        for (_, w) in &mut routes {
            *w /= total;
        }
        self.routes.insert(tenant, routes);
        Ok(())
    }

    /// Reinstalls routes exactly as a snapshot recorded them: re-normalizing
    /// weights that were normalized once already could move their last
    /// bits, and a decoded replica would differ from the one that encoded.
    pub(crate) fn restore(&mut self, tenant: TenantId, routes: Vec<Route>) {
        self.routes.insert(tenant, routes);
    }

    /// A tenant's routes, if any.
    pub fn routes(&self, tenant: TenantId) -> Option<&[Route]> {
        self.routes.get(&tenant).map(Vec::as_slice)
    }

    /// Picks a shard for one record of `tenant` (see [`pick`]).
    pub fn pick(&self, tenant: TenantId, selector: u64) -> Option<ShardId> {
        pick(self.routes.get(&tenant)?, selector)
    }

    /// Total number of tenant→shard edges (Figure 12(c)'s "routes").
    pub fn route_count(&self) -> usize {
        self.routes.values().map(Vec::len).sum()
    }

    /// Number of routed tenants.
    pub fn tenant_count(&self) -> usize {
        self.routes.len()
    }

    /// Iterates `(tenant, routes)` pairs in tenant order.
    pub fn iter(&self) -> impl Iterator<Item = (TenantId, &[Route])> {
        self.routes.iter().map(|(t, r)| (*t, r.as_slice()))
    }
}

/// Picks a shard for one record from a tenant's normalized routes,
/// weight-proportionally and deterministically in `selector` (brokers hash
/// a record attribute or a round-robin counter into it). A broker holding
/// a cached route list picks exactly as a controller replica would.
pub fn pick(routes: &[Route], selector: u64) -> Option<ShardId> {
    if routes.len() == 1 {
        return Some(routes[0].0);
    }
    // Map the selector to [0,1) and walk the cumulative weights.
    let h = fnv1a(&selector.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_le_bytes());
    let x = (h >> 11) as f64 / (1u64 << 53) as f64;
    let mut acc = 0.0;
    for (shard, weight) in routes {
        acc += weight;
        if x < acc {
            return Some(*shard);
        }
    }
    routes.last().map(|(shard, _)| *shard)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_normalize_and_dedup() {
        let mut t = RoutingTable::new();
        t.set_routes(TenantId(1), vec![(ShardId(0), 2.0), (ShardId(1), 2.0), (ShardId(0), 4.0)])
            .unwrap();
        let routes = t.routes(TenantId(1)).unwrap();
        assert_eq!(routes.len(), 2);
        let (w0, w1) = (routes[0].1, routes[1].1);
        assert_eq!((routes[0].0, routes[1].0), (ShardId(0), ShardId(1)));
        assert!((w0 - 0.75).abs() < 1e-9);
        assert!((w1 - 0.25).abs() < 1e-9);
        assert_eq!(t.route_count(), 2);
    }

    #[test]
    fn empty_or_zero_weight_routes_rejected() {
        let mut t = RoutingTable::new();
        assert!(t.set_routes(TenantId(1), vec![]).is_err());
        assert!(t.set_routes(TenantId(1), vec![(ShardId(0), 0.0)]).is_err());
    }

    #[test]
    fn pick_is_deterministic_and_weight_proportional() {
        let mut t = RoutingTable::new();
        t.set_routes(TenantId(1), vec![(ShardId(0), 0.8), (ShardId(1), 0.2)]).unwrap();
        let mut counts = [0usize; 2];
        for sel in 0..10_000u64 {
            let s = t.pick(TenantId(1), sel).unwrap();
            assert_eq!(s, t.pick(TenantId(1), sel).unwrap());
            counts[s.raw() as usize] += 1;
        }
        let frac0 = counts[0] as f64 / 10_000.0;
        assert!((frac0 - 0.8).abs() < 0.05, "got {frac0}");
    }

    #[test]
    fn pick_unrouted_tenant_is_none() {
        let t = RoutingTable::new();
        assert_eq!(t.pick(TenantId(5), 0), None);
    }

    #[test]
    fn single_route_fast_path() {
        let mut t = RoutingTable::new();
        t.set_routes(TenantId(1), vec![(ShardId(3), 1.0)]).unwrap();
        for sel in 0..100 {
            assert_eq!(t.pick(TenantId(1), sel), Some(ShardId(3)));
        }
    }
}
