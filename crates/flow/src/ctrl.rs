//! The global traffic control loop (Algorithm 1) as a deterministic state
//! machine plus a pure planner.
//!
//! Route tables, topology, and rebalance decisions live in a state machine
//! replicated through the Raft log. Every mutation is a [`CtrlCmd`] —
//! `RegisterWorker`, `SetRoute`, `CommitRebalance`, `VacateRoute` — encoded
//! to bytes, committed by quorum, and applied by each replica in log order.
//! One control tick is [`plan_tick`]: given the state and a
//! [`TrafficSnapshot`] it detects hot shards and either (a) plans a
//! rebalance when the cluster still has headroom
//! (`Σ f(D_k) ≤ α Σ c(D_k)`), or (b) asks for more workers
//! (`ScaleCluster`). The engine's leader replica and the Figure 12–14
//! harness both run that one function and fold its command.
//!
//! Determinism contract: [`ControlState`] holds only `BTreeMap`/`BTreeSet`
//! collections and applies commands with no randomness, no clock, and no
//! iteration over unordered containers, so the same command log (or a
//! snapshot plus a log suffix) produces **byte-identical** [`ControlState::encode`]
//! output on every replica. Running the balancer — which reads a
//! `HashMap`-backed traffic snapshot — happens only on the leader, which
//! proposes the *concrete* resulting assignment as a `CommitRebalance`
//! command ("propose the decision, not the computation").
//!
//! Idempotence contract: the network layer may redeliver any command
//! (client retransmits, duplicated envelopes), so every command is a no-op
//! when re-applied: a duplicated `RegisterWorker` must not double-register
//! shards or perturb the consistent-hash ring, a replayed `SetRoute` must
//! not clobber a later rebalance, and a repeated `VacateRoute` must not
//! double-count.

use crate::balancer::Balancer;
use crate::consistent::ConsistentHashRing;
use crate::monitor::{detect_hotspots, TrafficSnapshot};
use crate::routing::{Route, RoutingTable};
use crate::sim::ClusterTopology;
use logstore_types::{Error, Result, ShardId, TenantId, WorkerId};
use std::collections::{BTreeMap, BTreeSet};

/// Tuning knobs of the control loop.
#[derive(Debug, Clone)]
pub struct FlowControlConfig {
    /// High watermark for shard/worker load (the paper's α, e.g. 0.85).
    pub alpha: f64,
    /// Maximum traffic of one tenant a single shard should carry — the
    /// per-edge capacity `f_max` of the flow network and the divisor of
    /// `CalculateAddRoutesNum`.
    pub per_tenant_shard_limit: u64,
}

impl Default for FlowControlConfig {
    fn default() -> Self {
        FlowControlConfig { alpha: 0.85, per_tenant_shard_limit: 100_000 }
    }
}

/// What one control tick decided.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlAction {
    /// No hot spots; nothing changed.
    None,
    /// Traffic was rebalanced; the new table was produced.
    Rebalanced {
        /// Route edges before the plan.
        routes_before: usize,
        /// Route edges after the plan.
        routes_after: usize,
    },
    /// The cluster is saturated; more workers are needed.
    ScaleCluster {
        /// Total offered traffic.
        demand: u64,
        /// `α ×` total worker capacity.
        usable_capacity: u64,
    },
}

/// One control tick (Algorithm 1 lines 9–29): hotspot detection, then
/// either nothing, a scale-out request, or a concrete rebalancing plan for
/// the caller to commit (the engine proposes it through Raft; a harness
/// applies it directly). Pure: `state` is only read.
pub fn plan_tick(
    state: &ControlState,
    snapshot: &TrafficSnapshot,
    flow: &FlowControlConfig,
    balancer: &dyn Balancer,
) -> (ControlAction, Option<CtrlCmd>) {
    if detect_hotspots(snapshot, flow.alpha).is_empty() {
        return (ControlAction::None, None);
    }
    let demand = snapshot.total_traffic();
    let usable = (snapshot.total_worker_capacity() as f64 * flow.alpha) as u64;
    if demand > usable {
        // Line 25: only adding workers can help.
        return (ControlAction::ScaleCluster { demand, usable_capacity: usable }, None);
    }
    match balancer.rebalance(snapshot, &state.routes, flow) {
        Ok(plan) => (
            ControlAction::Rebalanced {
                routes_before: state.route_count(),
                routes_after: plan.route_count(),
            },
            Some(CtrlCmd::CommitRebalance {
                assignments: plan.iter().map(|(t, routes)| (t, routes.to_vec())).collect(),
            }),
        ),
        // A planner failure leaves the current table in force.
        Err(_) => (ControlAction::None, None),
    }
}

/// A control-plane mutation, applied through the Raft log.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlCmd {
    /// Adds a worker and the shards it hosts (with per-shard capacity).
    /// Re-registration with the identical shard set is a no-op.
    RegisterWorker {
        /// The worker being registered.
        worker: WorkerId,
        /// `(shard, capacity)` pairs hosted by this worker.
        shards: Vec<(ShardId, u64)>,
    },
    /// Installs a tenant's initial routes (lazy placement / recovery
    /// restore). A no-op when the tenant is already routed, so redelivery
    /// cannot clobber a later rebalance.
    SetRoute {
        /// The tenant being routed.
        tenant: TenantId,
        /// `(shard, weight)` pairs; weights are normalized on apply.
        routes: Vec<Route>,
    },
    /// Atomically replaces the whole routing table with the balancer's
    /// plan. The `(tenant, shard)` edges it loses join the pending
    /// vacations, and reads keep reaching them until each one's flush is
    /// acknowledged; an edge the new table routes again leaves the set.
    CommitRebalance {
        /// The complete new table: every routed tenant with its routes.
        assignments: Vec<(TenantId, Vec<Route>)>,
    },
    /// Acknowledges that a vacated route's buffered rows were flushed to
    /// OSS: the edge leaves the pending set, and with it the tenant's reads.
    VacateRoute {
        /// The tenant whose route was vacated.
        tenant: TenantId,
        /// The shard that no longer serves the tenant.
        shard: ShardId,
    },
}

const CMD_REGISTER: u8 = 1;
const CMD_SET_ROUTE: u8 = 2;
const CMD_REBALANCE: u8 = 3;
const CMD_VACATE: u8 = 4;

impl CtrlCmd {
    /// Serializes to the byte payload carried in the Raft log.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            CtrlCmd::RegisterWorker { worker, shards } => {
                out.push(CMD_REGISTER);
                out.extend_from_slice(&worker.raw().to_le_bytes());
                out.extend_from_slice(&(shards.len() as u32).to_le_bytes());
                for (shard, cap) in shards {
                    out.extend_from_slice(&shard.raw().to_le_bytes());
                    out.extend_from_slice(&cap.to_le_bytes());
                }
            }
            CtrlCmd::SetRoute { tenant, routes } => {
                out.push(CMD_SET_ROUTE);
                out.extend_from_slice(&tenant.raw().to_le_bytes());
                encode_routes(&mut out, routes);
            }
            CtrlCmd::CommitRebalance { assignments } => {
                out.push(CMD_REBALANCE);
                out.extend_from_slice(&(assignments.len() as u32).to_le_bytes());
                for (tenant, routes) in assignments {
                    out.extend_from_slice(&tenant.raw().to_le_bytes());
                    encode_routes(&mut out, routes);
                }
            }
            CtrlCmd::VacateRoute { tenant, shard } => {
                out.push(CMD_VACATE);
                out.extend_from_slice(&tenant.raw().to_le_bytes());
                out.extend_from_slice(&shard.raw().to_le_bytes());
            }
        }
        out
    }

    /// Parses a payload produced by [`CtrlCmd::encode`].
    pub fn decode(bytes: &[u8]) -> Result<CtrlCmd> {
        let mut r = Reader::new(bytes);
        let cmd = match r.u8()? {
            CMD_REGISTER => {
                let worker = WorkerId(r.u32()?);
                let n = r.count(12)?;
                let mut shards = Vec::with_capacity(n);
                for _ in 0..n {
                    shards.push((ShardId(r.u32()?), r.u64()?));
                }
                CtrlCmd::RegisterWorker { worker, shards }
            }
            CMD_SET_ROUTE => {
                let tenant = TenantId(r.u64()?);
                let routes = decode_routes(&mut r)?;
                CtrlCmd::SetRoute { tenant, routes }
            }
            CMD_REBALANCE => {
                let n = r.count(12)?;
                let mut assignments = Vec::with_capacity(n);
                for _ in 0..n {
                    let tenant = TenantId(r.u64()?);
                    assignments.push((tenant, decode_routes(&mut r)?));
                }
                CtrlCmd::CommitRebalance { assignments }
            }
            CMD_VACATE => {
                CtrlCmd::VacateRoute { tenant: TenantId(r.u64()?), shard: ShardId(r.u32()?) }
            }
            tag => return Err(Error::invalid(format!("unknown CtrlCmd tag {tag}"))),
        };
        r.finish()?;
        Ok(cmd)
    }
}

fn encode_routes(out: &mut Vec<u8>, routes: &[Route]) {
    out.extend_from_slice(&(routes.len() as u32).to_le_bytes());
    for (shard, weight) in routes {
        out.extend_from_slice(&shard.raw().to_le_bytes());
        out.extend_from_slice(&weight.to_bits().to_le_bytes());
    }
}

fn decode_routes(r: &mut Reader<'_>) -> Result<Vec<Route>> {
    let n = r.count(12)?;
    let mut routes = Vec::with_capacity(n);
    for _ in 0..n {
        routes.push((ShardId(r.u32()?), f64::from_bits(r.u64()?)));
    }
    Ok(routes)
}

/// The replicated controller state. See the module docs for the
/// determinism and idempotence contracts.
#[derive(Debug, Clone)]
pub struct ControlState {
    shard_capacity: BTreeMap<ShardId, u64>,
    shard_to_worker: BTreeMap<ShardId, WorkerId>,
    worker_shards: BTreeMap<WorkerId, Vec<(ShardId, u64)>>,
    routes: RoutingTable,
    /// Edges rebalances took out of the table whose flush is not yet
    /// acknowledged: reads fan out to them beside the current routes.
    pending_vacated: BTreeSet<(TenantId, ShardId)>,
    version: u64,
    epoch: u64,
    vacated_total: u64,
    /// Derived from the registered shards; rebuilt on topology change and
    /// on decode, never encoded.
    ring: ConsistentHashRing,
}

impl Default for ControlState {
    fn default() -> Self {
        ControlState::new()
    }
}

/// `CTR1` snapshots also carried the displaced route table.
const STATE_MAGIC: &[u8; 4] = b"CTR2";

impl ControlState {
    /// An empty state: no workers, no routes.
    pub fn new() -> Self {
        ControlState {
            shard_capacity: BTreeMap::new(),
            shard_to_worker: BTreeMap::new(),
            worker_shards: BTreeMap::new(),
            routes: RoutingTable::new(),
            pending_vacated: BTreeSet::new(),
            version: 0,
            epoch: 0,
            vacated_total: 0,
            ring: ConsistentHashRing::new(&[]),
        }
    }

    fn rebuild_ring(&mut self) {
        let shards: Vec<ShardId> = self.shard_capacity.keys().copied().collect();
        self.ring = ConsistentHashRing::new(&shards);
    }

    /// Applies one committed command. Returns `true` when the state
    /// changed (duplicated deliveries return `false` and leave every byte
    /// untouched).
    pub fn apply(&mut self, cmd: &CtrlCmd) -> bool {
        match cmd {
            CtrlCmd::RegisterWorker { worker, shards } => {
                let mut normalized: Vec<(ShardId, u64)> = shards.clone();
                normalized.sort_by_key(|(s, _)| *s);
                normalized.dedup_by_key(|(s, _)| *s);
                if self.worker_shards.get(worker) == Some(&normalized) {
                    return false; // redelivered registration: nothing to do
                }
                for &(shard, cap) in &normalized {
                    self.shard_capacity.insert(shard, cap);
                    self.shard_to_worker.insert(shard, *worker);
                }
                self.worker_shards.insert(*worker, normalized);
                self.rebuild_ring();
                self.version += 1;
                true
            }
            CtrlCmd::SetRoute { tenant, routes } => {
                if self.is_routed(*tenant) {
                    return false; // already routed: redelivery or lost race
                }
                if self.routes.set_routes(*tenant, routes.clone()).is_err() {
                    return false; // no positive-weight route: nothing to install
                }
                self.version += 1;
                true
            }
            CtrlCmd::CommitRebalance { assignments } => {
                let mut new_table = RoutingTable::new();
                for (tenant, routes) in assignments {
                    if new_table.set_routes(*tenant, routes.clone()).is_err() {
                        // A plan that would leave a tenant without a shard
                        // is malformed: the table in force stays.
                        return false;
                    }
                }
                if new_table == self.routes {
                    return false; // retried commit of the plan already in force
                }
                let old = std::mem::replace(&mut self.routes, new_table);
                // Edges still pending from an earlier plan stay pending: their
                // shards may still buffer the tenant's rows.
                for (tenant, routes) in old.iter() {
                    self.pending_vacated.extend(routes.iter().map(|(shard, _)| (tenant, *shard)));
                }
                let routes = &self.routes;
                self.pending_vacated.retain(|(tenant, shard)| {
                    !routes.routes(*tenant).is_some_and(|rs| rs.iter().any(|(s, _)| s == shard))
                });
                self.version += 1;
                self.epoch += 1;
                true
            }
            CtrlCmd::VacateRoute { tenant, shard } => {
                if !self.pending_vacated.remove(&(*tenant, *shard)) {
                    return false; // already vacated (or never pending)
                }
                self.vacated_total += 1;
                self.version += 1;
                self.epoch += 1;
                true
            }
        }
    }

    /// The current routing table (balancer input, simulator input).
    pub fn routing(&self) -> &RoutingTable {
        &self.routes
    }

    /// A tenant's current routes, if placed.
    pub fn routes(&self, tenant: TenantId) -> Option<&[Route]> {
        self.routes.routes(tenant)
    }

    /// True when the tenant has routes.
    pub fn is_routed(&self, tenant: TenantId) -> bool {
        self.routes.routes(tenant).is_some()
    }

    /// The tenant's home shard on the consistent-hash ring (initial
    /// placement before any explicit route exists).
    pub fn home(&self, tenant: TenantId) -> Option<ShardId> {
        self.ring.assign(tenant)
    }

    /// The shards a read for `tenant` must fan out to: its current routes
    /// and its pending vacated edges — reads go "to the nodes in both old
    /// and new plans within a period of time" (paper §4.1.5) — falling back
    /// to the ring's home shard for unplaced tenants.
    pub fn read_shards(&self, tenant: TenantId) -> Vec<ShardId> {
        let routed = self.routes.routes(tenant).into_iter().flatten().map(|(shard, _)| *shard);
        let edges = (tenant, ShardId(u32::MIN))..=(tenant, ShardId(u32::MAX));
        let pending = self.pending_vacated.range(edges).map(|(_, shard)| *shard);
        let mut shards: Vec<ShardId> = routed.chain(pending).collect();
        if shards.is_empty() {
            return self.ring.assign(tenant).into_iter().collect();
        }
        shards.sort_unstable();
        shards.dedup();
        shards
    }

    /// Tenant→shard edges in the current table (Figure 12(c)'s metric).
    pub fn route_count(&self) -> usize {
        self.routes.route_count()
    }

    /// Vacated edges awaiting a flush acknowledgement.
    pub fn pending_vacated(&self) -> Vec<(TenantId, ShardId)> {
        self.pending_vacated.iter().copied().collect()
    }

    /// Lifetime count of acknowledged vacations.
    pub fn vacated_total(&self) -> u64 {
        self.vacated_total
    }

    /// Bumps on every effective mutation.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Bumps only on route-*invalidating* mutations (rebalance, vacate) —
    /// clients key their route caches on this, so lazy placement of new
    /// tenants does not thrash everyone else's cache.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of ring points (regression hook for the idempotence fix).
    pub fn ring_points(&self) -> usize {
        self.ring.point_count()
    }

    /// Registered workers, sorted.
    pub fn workers(&self) -> Vec<WorkerId> {
        self.worker_shards.keys().copied().collect()
    }

    /// The cluster topology implied by the registered workers.
    pub fn topology(&self) -> ClusterTopology {
        let mut t = ClusterTopology::default();
        for (&shard, &cap) in &self.shard_capacity {
            t.shard_capacity.insert(shard, cap);
        }
        for (&shard, &worker) in &self.shard_to_worker {
            t.shard_to_worker.insert(shard, worker);
        }
        for (&worker, shards) in &self.worker_shards {
            t.worker_capacity.insert(worker, shards.iter().map(|(_, c)| c).sum());
        }
        t
    }

    /// Serializes the full state. Byte-identical across replicas that
    /// applied the same command log (all maps are `BTree*`; floats encode
    /// via `to_bits`).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(STATE_MAGIC);
        out.extend_from_slice(&(self.shard_capacity.len() as u32).to_le_bytes());
        for (&shard, &cap) in &self.shard_capacity {
            out.extend_from_slice(&shard.raw().to_le_bytes());
            out.extend_from_slice(&cap.to_le_bytes());
        }
        out.extend_from_slice(&(self.shard_to_worker.len() as u32).to_le_bytes());
        for (&shard, &worker) in &self.shard_to_worker {
            out.extend_from_slice(&shard.raw().to_le_bytes());
            out.extend_from_slice(&worker.raw().to_le_bytes());
        }
        out.extend_from_slice(&(self.worker_shards.len() as u32).to_le_bytes());
        for (&worker, shards) in &self.worker_shards {
            out.extend_from_slice(&worker.raw().to_le_bytes());
            out.extend_from_slice(&(shards.len() as u32).to_le_bytes());
            for (shard, cap) in shards {
                out.extend_from_slice(&shard.raw().to_le_bytes());
                out.extend_from_slice(&cap.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.routes.tenant_count() as u32).to_le_bytes());
        for (tenant, routes) in self.routes.iter() {
            out.extend_from_slice(&tenant.raw().to_le_bytes());
            encode_routes(&mut out, routes);
        }
        out.extend_from_slice(&(self.pending_vacated.len() as u32).to_le_bytes());
        for &(tenant, shard) in &self.pending_vacated {
            out.extend_from_slice(&tenant.raw().to_le_bytes());
            out.extend_from_slice(&shard.raw().to_le_bytes());
        }
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.vacated_total.to_le_bytes());
        out
    }

    /// Parses an [`ControlState::encode`] payload (the snapshot install
    /// path) and rebuilds the derived ring.
    pub fn decode(bytes: &[u8]) -> Result<ControlState> {
        let mut r = Reader::new(bytes);
        if r.bytes(4)? != STATE_MAGIC {
            return Err(Error::invalid("bad ControlState snapshot magic"));
        }
        let mut state = ControlState::new();
        for _ in 0..r.count(12)? {
            let shard = ShardId(r.u32()?);
            state.shard_capacity.insert(shard, r.u64()?);
        }
        for _ in 0..r.count(8)? {
            let shard = ShardId(r.u32()?);
            state.shard_to_worker.insert(shard, WorkerId(r.u32()?));
        }
        for _ in 0..r.count(8)? {
            let worker = WorkerId(r.u32()?);
            let n = r.count(12)?;
            let mut shards = Vec::with_capacity(n);
            for _ in 0..n {
                shards.push((ShardId(r.u32()?), r.u64()?));
            }
            state.worker_shards.insert(worker, shards);
        }
        for _ in 0..r.count(12)? {
            let tenant = TenantId(r.u64()?);
            state.routes.restore(tenant, decode_routes(&mut r)?);
        }
        for _ in 0..r.count(12)? {
            let tenant = TenantId(r.u64()?);
            state.pending_vacated.insert((tenant, ShardId(r.u32()?)));
        }
        state.version = r.u64()?;
        state.epoch = r.u64()?;
        state.vacated_total = r.u64()?;
        r.finish()?;
        state.rebuild_ring();
        Ok(state)
    }
}

/// Little-endian cursor over an encoded payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(Error::invalid("truncated control-plane payload"));
        };
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// A `u32` count of elements that take at least `min_bytes` each (the
    /// fixed-width fields each one starts with): a count the rest of the
    /// payload cannot hold is an error, so nothing is sized or looped from
    /// it.
    fn count(&mut self, min_bytes: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        match n.checked_mul(min_bytes) {
            Some(bytes) if bytes <= self.buf.len() - self.pos => Ok(n),
            _ => Err(Error::invalid(format!("a count of {n} past the control-plane payload"))),
        }
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn finish(self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(Error::invalid(format!(
                "{} trailing bytes in control-plane payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::MaxFlowBalancer;

    fn register(worker: u32, shards: &[u32], cap: u64) -> CtrlCmd {
        CtrlCmd::RegisterWorker {
            worker: WorkerId(worker),
            shards: shards.iter().map(|&s| (ShardId(s), cap)).collect(),
        }
    }

    /// Two workers × two shards of capacity 100, tenant 1 on shard 0.
    fn two_worker_state() -> ControlState {
        let mut state = ControlState::new();
        state.apply(&register(0, &[0, 1], 100));
        state.apply(&register(1, &[2, 3], 100));
        state.apply(&CtrlCmd::SetRoute { tenant: TenantId(1), routes: vec![(ShardId(0), 1.0)] });
        state
    }

    /// What the monitor would report with tenant 1 offering `demand`, all
    /// of it on shard 0 when `hot`.
    fn snapshot(state: &ControlState, hot: bool, demand: u64) -> TrafficSnapshot {
        let topology = state.topology();
        let mut s = TrafficSnapshot {
            shard_capacity: topology.shard_capacity,
            worker_capacity: topology.worker_capacity,
            shard_to_worker: topology.shard_to_worker,
            ..Default::default()
        };
        s.tenant_traffic.insert(TenantId(1), demand);
        if hot {
            s.shard_load.insert(ShardId(0), demand);
            s.shard_tenants.insert(ShardId(0), vec![(TenantId(1), demand)]);
            s.worker_load.insert(WorkerId(0), demand);
        }
        s
    }

    fn tick(state: &ControlState, snapshot: &TrafficSnapshot) -> (ControlAction, Option<CtrlCmd>) {
        let flow = FlowControlConfig { alpha: 0.85, per_tenant_shard_limit: 100 };
        plan_tick(state, snapshot, &flow, &MaxFlowBalancer)
    }

    /// Algorithm 1 lines 4–7: initial placement is the ring home shard
    /// with 100% weight.
    #[test]
    fn initial_placement_uses_ring() {
        let mut state = ControlState::new();
        state.apply(&register(0, &[0, 1], 100));
        for t in (0..10).map(TenantId) {
            let home = state.home(t).unwrap();
            assert!(state.apply(&CtrlCmd::SetRoute { tenant: t, routes: vec![(home, 1.0)] }));
            assert_eq!(state.routes(t).unwrap(), &[(home, 1.0)]);
        }
        assert_eq!(state.routing().tenant_count(), 10);
        assert_eq!(state.route_count(), 10);
    }

    #[test]
    fn cold_tick_is_noop() {
        let state = two_worker_state();
        assert_eq!(tick(&state, &snapshot(&state, false, 10)), (ControlAction::None, None));
    }

    #[test]
    fn hot_tick_rebalances() {
        let mut state = two_worker_state();
        let (action, cmd) = tick(&state, &snapshot(&state, true, 250));
        let ControlAction::Rebalanced { routes_before, routes_after } = action else {
            panic!("expected rebalance, got {action:?}");
        };
        assert_eq!(routes_before, 1);
        assert!(routes_after >= 3);
        assert!(state.apply(&cmd.expect("a rebalance carries its plan")));
        assert_eq!(state.route_count(), routes_after);
        // Reads must consult old and new shards during switch-over.
        let reads = state.read_shards(TenantId(1));
        assert!(reads.contains(&ShardId(0)));
        assert!(reads.len() >= 3);
    }

    #[test]
    fn saturation_escalates_to_scaling() {
        let state = two_worker_state();
        let (action, cmd) = tick(&state, &snapshot(&state, true, 1000));
        // 0.85 × (2 workers × 200).
        assert_eq!(action, ControlAction::ScaleCluster { demand: 1000, usable_capacity: 340 });
        assert_eq!(cmd, None);
    }

    #[test]
    fn command_codec_roundtrip() {
        let cmds = [
            register(3, &[6, 7], 1000),
            CtrlCmd::SetRoute {
                tenant: TenantId(9),
                routes: vec![(ShardId(1), 0.5), (ShardId(2), 0.5)],
            },
            CtrlCmd::CommitRebalance {
                assignments: vec![
                    (TenantId(1), vec![(ShardId(0), 1.0)]),
                    (TenantId(2), vec![(ShardId(1), 0.25), (ShardId(3), 0.75)]),
                ],
            },
            CtrlCmd::VacateRoute { tenant: TenantId(4), shard: ShardId(2) },
        ];
        for cmd in cmds {
            assert_eq!(CtrlCmd::decode(&cmd.encode()).unwrap(), cmd);
        }
        assert!(CtrlCmd::decode(&[99]).is_err());
        assert!(CtrlCmd::decode(&[]).is_err());
    }

    /// Satellite 4 regression: a redelivered `RegisterWorker` must not
    /// double-register shards or perturb the consistent-hash ring.
    #[test]
    fn register_worker_is_idempotent_under_redelivery() {
        let mut state = ControlState::new();
        assert!(state.apply(&register(0, &[0, 1], 100)));
        assert!(state.apply(&register(1, &[2, 3], 100)));
        let bytes = state.encode();
        let ring_points = state.ring_points();
        let version = state.version();

        // Redeliver both registrations (any order, any number of times).
        for _ in 0..3 {
            assert!(!state.apply(&register(1, &[2, 3], 100)));
            assert!(!state.apply(&register(0, &[0, 1], 100)));
        }
        assert_eq!(state.encode(), bytes, "redelivery must leave every byte untouched");
        assert_eq!(state.ring_points(), ring_points);
        assert_eq!(state.version(), version);
        assert_eq!(state.topology().shard_capacity.len(), 4);

        // A *changed* registration (scale-up of the same worker) applies.
        assert!(state.apply(&register(1, &[2, 3, 4], 100)));
        assert_eq!(state.topology().shard_capacity.len(), 5);
    }

    #[test]
    fn set_route_redelivery_does_not_clobber_rebalance() {
        let mut state = ControlState::new();
        state.apply(&register(0, &[0, 1], 100));
        let init = CtrlCmd::SetRoute { tenant: TenantId(7), routes: vec![(ShardId(0), 1.0)] };
        assert!(state.apply(&init));
        assert!(!state.apply(&init), "duplicate SetRoute is a no-op");
        // Rebalance moves the tenant; a late redelivered SetRoute must not
        // drag it back.
        state.apply(&CtrlCmd::CommitRebalance {
            assignments: vec![(TenantId(7), vec![(ShardId(1), 1.0)])],
        });
        assert!(!state.apply(&init));
        assert_eq!(state.routes(TenantId(7)).unwrap(), &[(ShardId(1), 1.0)]);
    }

    #[test]
    fn rebalance_tracks_vacated_edges_and_settling_reads() {
        let mut state = ControlState::new();
        state.apply(&register(0, &[0, 1, 2], 100));
        state.apply(&CtrlCmd::SetRoute { tenant: TenantId(1), routes: vec![(ShardId(0), 1.0)] });
        let epoch0 = state.epoch();
        state.apply(&CtrlCmd::CommitRebalance {
            assignments: vec![(TenantId(1), vec![(ShardId(1), 0.5), (ShardId(2), 0.5)])],
        });
        assert_eq!(state.pending_vacated(), vec![(TenantId(1), ShardId(0))]);
        assert!(state.epoch() > epoch0, "rebalance must invalidate client caches");
        // Reads fan out to old ∪ new while the vacation settles…
        assert_eq!(state.read_shards(TenantId(1)), vec![ShardId(0), ShardId(1), ShardId(2)]);
        // …then narrow once the flush is acknowledged.
        let vacate = CtrlCmd::VacateRoute { tenant: TenantId(1), shard: ShardId(0) };
        assert!(state.apply(&vacate));
        assert!(!state.apply(&vacate), "duplicate vacate must not double-count");
        assert_eq!(state.vacated_total(), 1);
        assert_eq!(state.read_shards(TenantId(1)), vec![ShardId(1), ShardId(2)]);
        assert!(state.pending_vacated().is_empty());
        // Re-committing the identical plan is a no-op (cross-leader retry).
        let v = state.version();
        assert!(!state.apply(&CtrlCmd::CommitRebalance {
            assignments: vec![(TenantId(1), vec![(ShardId(1), 0.5), (ShardId(2), 0.5)])],
        }));
        assert_eq!(state.version(), v);
    }

    /// Satellite 2 (in-crate half): the same command log applied directly
    /// and via snapshot + suffix yields byte-identical state.
    #[test]
    fn snapshot_plus_suffix_is_byte_identical() {
        let log: Vec<CtrlCmd> = vec![
            register(0, &[0, 1], 100),
            register(1, &[2, 3], 100),
            CtrlCmd::SetRoute { tenant: TenantId(1), routes: vec![(ShardId(0), 1.0)] },
            CtrlCmd::SetRoute { tenant: TenantId(2), routes: vec![(ShardId(2), 1.0)] },
            CtrlCmd::CommitRebalance {
                assignments: vec![
                    (TenantId(1), vec![(ShardId(1), 0.5), (ShardId(3), 0.5)]),
                    (TenantId(2), vec![(ShardId(2), 1.0)]),
                ],
            },
            CtrlCmd::VacateRoute { tenant: TenantId(1), shard: ShardId(0) },
            CtrlCmd::SetRoute { tenant: TenantId(5), routes: vec![(ShardId(3), 1.0)] },
        ];
        // Replica A: the whole log.
        let mut a = ControlState::new();
        for cmd in &log {
            a.apply(cmd);
        }
        // Replica B: snapshot at the midpoint, then the suffix.
        let mid = 4;
        let mut snap_src = ControlState::new();
        for cmd in &log[..mid] {
            snap_src.apply(cmd);
        }
        let mut b = ControlState::decode(&snap_src.encode()).unwrap();
        for cmd in &log[mid..] {
            b.apply(cmd);
        }
        assert_eq!(a.encode(), b.encode(), "route tables must be byte-identical");
        assert_eq!(a.ring_points(), b.ring_points());
        // And the codec round-trips the final state too.
        let c = ControlState::decode(&a.encode()).unwrap();
        assert_eq!(c.encode(), a.encode());
    }

    /// A second rebalance before the first one's flush was acknowledged:
    /// the edge it left pending is still read, because its shard may still
    /// buffer the tenant's rows.
    #[test]
    fn a_later_rebalance_keeps_an_unflushed_vacated_edge() {
        let mut state = ControlState::new();
        state.apply(&register(0, &[0, 1, 2], 100));
        state.apply(&CtrlCmd::SetRoute { tenant: TenantId(1), routes: vec![(ShardId(0), 1.0)] });
        let plan = |shard| CtrlCmd::CommitRebalance {
            assignments: vec![(TenantId(1), vec![(ShardId(shard), 1.0)])],
        };
        assert!(state.apply(&plan(1)));
        // Shard 0's flush failed: no VacateRoute before the next plan.
        assert!(state.apply(&plan(2)));
        let (t, s) = (TenantId(1), ShardId);
        assert_eq!(state.pending_vacated(), vec![(t, s(0)), (t, s(1))]);
        assert_eq!(state.read_shards(t), vec![s(0), s(1), s(2)]);
        // A plan that routes a pending edge again takes it out of the set.
        assert!(state.apply(&plan(0)));
        assert_eq!(state.pending_vacated(), vec![(t, s(1)), (t, s(2))]);
        assert_eq!(state.read_shards(t), vec![s(0), s(1), s(2)]);
        assert!(state.apply(&CtrlCmd::VacateRoute { tenant: t, shard: s(1) }));
        assert_eq!(state.read_shards(t), vec![s(0), s(2)]);
        let decoded = ControlState::decode(&state.encode()).unwrap();
        assert_eq!(decoded.read_shards(t), vec![s(0), s(2)]);
    }

    /// Reads reach a tenant's current routes and its own pending edges,
    /// never another tenant's.
    #[test]
    fn read_shards_union_current_routes_and_pending_edges() {
        let mut state = ControlState::new();
        state.apply(&register(0, &[0, 1, 2, 3], 100));
        for (tenant, shard) in [(1, 0), (2, 3)] {
            let routes = vec![(ShardId(shard), 1.0)];
            state.apply(&CtrlCmd::SetRoute { tenant: TenantId(tenant), routes });
        }
        state.apply(&CtrlCmd::CommitRebalance {
            assignments: vec![
                (TenantId(1), vec![(ShardId(1), 0.5), (ShardId(2), 0.5)]),
                (TenantId(2), vec![(ShardId(3), 1.0)]),
            ],
        });
        assert_eq!(state.read_shards(TenantId(1)), vec![ShardId(0), ShardId(1), ShardId(2)]);
        assert_eq!(state.read_shards(TenantId(2)), vec![ShardId(3)]);
        let home = state.home(TenantId(0)).unwrap();
        assert_eq!(state.read_shards(TenantId(0)), vec![home], "unplaced: the ring home only");
    }

    /// A count no payload of that length can hold is an error before any
    /// vector is sized from it (it aborted the process on a 137 GB
    /// allocation), and a snapshot in the layout before the pending-edge
    /// read set fails typed.
    #[test]
    fn a_count_past_the_payload_is_an_error() {
        let count = [0xff; 4];
        let payloads = [
            [&[CMD_REBALANCE][..], &count].concat(),
            [&[CMD_REGISTER][..], &[0; 4], &count].concat(),
            [&[CMD_SET_ROUTE][..], &[0; 8], &count].concat(),
        ];
        for payload in payloads {
            assert!(matches!(CtrlCmd::decode(&payload), Err(Error::InvalidArgument(_))));
        }
        let state = two_worker_state().encode();
        let mut huge = STATE_MAGIC.to_vec();
        huge.extend_from_slice(&count);
        let old = [&b"CTR1"[..], &state[4..]].concat();
        for snapshot in [huge, old] {
            assert!(matches!(ControlState::decode(&snapshot), Err(Error::InvalidArgument(_))));
        }
    }

    mod hostile {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// Valid encodings of every command and of a state with workers,
        /// routes and a pending edge.
        fn valid() -> Vec<Vec<u8>> {
            let mut state = two_worker_state();
            state.apply(&CtrlCmd::CommitRebalance {
                assignments: vec![(TenantId(1), vec![(ShardId(1), 0.5), (ShardId(2), 0.5)])],
            });
            let cmds = [
                register(3, &[6, 7], 1000),
                CtrlCmd::SetRoute { tenant: TenantId(9), routes: vec![(ShardId(1), 1.0)] },
                CtrlCmd::CommitRebalance {
                    assignments: vec![(TenantId(2), vec![(ShardId(1), 0.25), (ShardId(3), 0.75)])],
                },
                CtrlCmd::VacateRoute { tenant: TenantId(4), shard: ShardId(2) },
            ];
            cmds.iter().map(CtrlCmd::encode).chain([state.encode()]).collect()
        }

        /// Decodes `bytes` both ways. Each returns, `Ok` or `Err`; a state
        /// that decodes re-encodes to bytes that decode to it again.
        fn decode_both(bytes: &[u8]) {
            let _ = CtrlCmd::decode(bytes);
            if let Ok(state) = ControlState::decode(bytes) {
                let again = ControlState::decode(&state.encode()).unwrap();
                assert_eq!(again.encode(), state.encode());
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]
            /// Arbitrary bytes, and valid encodings with a few bytes
            /// overwritten, cut or extended, decode or fail typed: never a
            /// panic, never an allocation sized by an unchecked count.
            #[test]
            fn prop_control_plane_decoders_return_on_any_bytes(
                bytes in vec(any::<u8>(), 0..64),
                which in 0usize..5,
                edits in vec((any::<usize>(), any::<u8>()), 1..4),
                cut in any::<usize>(),
            ) {
                decode_both(&bytes);
                let mut mutated = valid().swap_remove(which);
                for (at, byte) in edits {
                    let at = at % mutated.len();
                    mutated[at] = byte;
                }
                decode_both(&mutated);
                decode_both(&mutated[..cut % (mutated.len() + 1)]);
                mutated.extend_from_slice(&bytes);
                decode_both(&mutated);
            }
        }
    }

    #[test]
    fn unplaced_tenant_reads_fall_back_to_ring_home() {
        let mut state = ControlState::new();
        state.apply(&register(0, &[0, 1, 2, 3], 100));
        let home = state.home(TenantId(42)).unwrap();
        assert_eq!(state.read_shards(TenantId(42)), vec![home]);
    }
}
