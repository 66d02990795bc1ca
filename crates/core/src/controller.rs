//! The replicated cluster controller and its message-passing control plane.
//!
//! The paper's shape — LogStore keeps its control plane on a replicated
//! coordination service — so controller death and network partitions are
//! scenarios the architecture can express:
//!
//! * **Explicit messages.** Brokers, workers and controller replicas talk
//!   through typed request/response envelopes ([`CtrlMsg`]) over a
//!   simulated network (`logstore-net`) with seeded drop / duplication /
//!   reorder / partition faults. Every facade call below is an RPC: the
//!   client sends a request, retransmits on silence, follows `NotLeader`
//!   redirects, and replicas deduplicate by request id so redelivery is
//!   harmless.
//! * **A Raft-replicated state machine.** Route tables, topology and
//!   rebalance decisions live in [`ControlState`] (`logstore-flow`),
//!   mutated only by [`CtrlCmd`]s committed through the `logstore-raft`
//!   log: each replica's state *is* the group driver's state machine for
//!   that node (`InProcCluster<CtrlReplica>`), fed by the driver as
//!   entries commit. The balancer — whose `HashMap` iteration is not
//!   deterministic — runs only on the leader, which proposes the
//!   *concrete* route table it produced (`CommitRebalance`): replicas
//!   apply decisions, never recompute them. Any replica serves
//!   linearizable reads after a commit barrier, and leader failover is an
//!   ordinary Raft election.
//! * **Snapshot catch-up.** Every [`COMPACT_EVERY`] commits the group
//!   compacts: each replica folds its applied prefix into
//!   `ControlState::encode()`, so a lagging or freshly-healed replica
//!   `restore`s the leader's snapshot and replays only the suffix.
//!
//! Client-side, brokers keep a per-tenant route cache keyed on the state's
//! `epoch`, which bumps only on route-*invalidating* commands (rebalance,
//! vacate) — the ingest hot path picks shards locally and pays an RPC only
//! on cache miss.
//!
//! Lock order (enforced by the `logstore-sync` analysis in debug builds):
//! `core.controller.cache` → `core.controller.plane`. The cache lock may
//! be held while taking the plane on a miss; never the reverse.

use crate::config::ClusterConfig;
use crate::worker::{ShardWindow, Worker};
use logstore_flow::balancer::MaxFlowBalancer;
use logstore_flow::ctrl::{plan_tick, ControlState, CtrlCmd};
use logstore_flow::routing::{pick, Route};
use logstore_flow::{ControlAction, FlowControlConfig, TrafficSnapshot};
use logstore_net::{NetFaults, SimNet};
use logstore_raft::{InProcCluster, RaftConfig, Replica, Role};
use logstore_sync::OrderedMutex;
use logstore_types::{Error, NodeId, Result, ShardId, TenantId, WorkerId};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A control-plane RPC request (client → replica).
#[derive(Debug, Clone)]
pub enum CtrlRequest {
    /// Routes for one tenant, lazily placing it on its ring home shard.
    Route {
        /// The tenant to route.
        tenant: TenantId,
    },
    /// The shards a read for `tenant` must fan out to.
    ReadShards {
        /// The tenant being queried.
        tenant: TenantId,
    },
    /// Registers a worker and its shards (idempotent in the state machine).
    RegisterWorker {
        /// The worker joining the cluster.
        worker: WorkerId,
        /// `(shard, capacity)` pairs it hosts.
        shards: Vec<(ShardId, u64)>,
    },
    /// Reinstalls recovered routes (equal weights) after a WAL replay.
    RestoreRoutes {
        /// The recovered tenant.
        tenant: TenantId,
        /// Shards holding its replayed rows.
        shards: Vec<ShardId>,
    },
    /// One control tick over the collected ingest windows.
    Tick {
        /// Per-worker, per-shard ingest windows.
        windows: HashMap<WorkerId, HashMap<ShardId, ShardWindow>>,
    },
    /// Acknowledges that a vacated route's rows were flushed to OSS.
    VacateDone {
        /// The vacated tenant.
        tenant: TenantId,
        /// The shard it vacated.
        shard: ShardId,
    },
    /// Vacated edges still awaiting their flush acknowledgement.
    Vacated,
    /// Total route-edge count (Fig 12(c)).
    RouteCount,
}

/// A control-plane RPC response (replica → client).
#[derive(Debug, Clone)]
pub enum CtrlResponse {
    /// The tenant's routes. `routed` is false for the unplaced ring
    /// fallback (which must not be cached — lazy placement may follow).
    Routes {
        /// Normalized `(shard, weight)` pairs.
        routes: Vec<Route>,
        /// True when the state machine holds explicit routes.
        routed: bool,
        /// State epoch at evaluation (cache key).
        epoch: u64,
    },
    /// Read fan-out shards.
    Shards {
        /// Sorted deduped shard set.
        shards: Vec<ShardId>,
        /// True when the tenant has explicit routes.
        routed: bool,
        /// State epoch at evaluation.
        epoch: u64,
    },
    /// Mutation acknowledged (committed by quorum).
    Ack {
        /// State epoch at evaluation.
        epoch: u64,
    },
    /// Control tick outcome.
    TickDone {
        /// What the tick decided.
        action: ControlAction,
        /// State epoch after the tick.
        epoch: u64,
    },
    /// Pending vacated edges.
    VacatedPairs {
        /// `(tenant, shard)` pairs, sorted.
        pairs: Vec<(TenantId, ShardId)>,
        /// State epoch at evaluation.
        epoch: u64,
    },
    /// Route-edge count.
    Count {
        /// The count.
        n: usize,
    },
    /// This replica is not the leader; retry there.
    NotLeader {
        /// The replica it believes is leading, if known.
        hint: Option<u32>,
    },
    /// The request failed terminally.
    Failed {
        /// Why.
        error: String,
    },
}

/// One message on the simulated control-plane network.
#[derive(Debug, Clone)]
pub enum CtrlMsg {
    /// Client request to a controller replica.
    Request {
        /// Client-unique request id (dedup key).
        id: u64,
        /// The request.
        req: CtrlRequest,
    },
    /// Replica response to the client.
    Response {
        /// Echoed request id.
        id: u64,
        /// The response.
        resp: CtrlResponse,
    },
    /// Fetch a worker's ingest window (controller → worker).
    WindowFetch {
        /// Request id (the worker caches its reply by id, because taking
        /// a window is destructive and fetches may be redelivered).
        id: u64,
    },
    /// A worker's ingest window (worker → controller).
    WindowData {
        /// Echoed request id.
        id: u64,
        /// The per-shard window.
        windows: HashMap<ShardId, ShardWindow>,
    },
}

/// Retransmit the in-flight request every this many net steps.
const RETX_INTERVAL: usize = 30;
/// Give up an RPC after this many net steps (covers several elections).
const RPC_BUDGET: usize = 6000;
/// Replay cache size (completed request ids per replica / worker).
const DEDUP_CAP: usize = 256;
/// Group log compaction threshold, in entries the leader committed past
/// its last snapshot.
const COMPACT_EVERY: u64 = 64;
/// Controller replica count: the route table, topology and rebalance
/// decisions are a state machine replicated through a Raft group of this
/// size, which survives the loss of one replica.
const CONTROLLER_REPLICAS: usize = 3;

/// A read or proposal waiting for its commit barrier.
struct PendingReply {
    id: u64,
    from: u32,
    /// Fires once the replica's commit index reaches this.
    wait_index: u64,
    req: CtrlRequest,
    /// Tick action decided at serve time (the proposal carries the plan).
    action: Option<ControlAction>,
}

/// One replica's state machine in the Raft driver's seat: committed
/// [`CtrlCmd`]s fold into it, its encoding is the compaction snapshot.
struct CtrlReplica(ControlState);

impl Replica for CtrlReplica {
    fn apply(&mut self, payload: &[u8]) {
        // Only `CtrlCmd::encode` output is ever proposed; an entry that
        // does not decode is skipped identically on every replica.
        if let Ok(cmd) = CtrlCmd::decode(payload) {
            self.0.apply(&cmd);
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        self.0.encode()
    }

    fn restore(&mut self, data: &[u8]) -> Result<()> {
        self.0 = ControlState::decode(data)?;
        Ok(())
    }
}

/// The last [`DEDUP_CAP`] replies by request id, oldest evicted first: a
/// redelivered request replays its reply instead of running twice.
struct ReplayCache<T> {
    replies: HashMap<u64, T>,
    order: VecDeque<u64>,
}

impl<T> ReplayCache<T> {
    fn new() -> Self {
        ReplayCache { replies: HashMap::new(), order: VecDeque::new() }
    }

    fn get(&self, id: u64) -> Option<&T> {
        self.replies.get(&id)
    }

    fn insert(&mut self, id: u64, reply: T) {
        if self.replies.insert(id, reply).is_none() {
            self.order.push_back(id);
            if self.order.len() > DEDUP_CAP {
                if let Some(old) = self.order.pop_front() {
                    self.replies.remove(&old);
                }
            }
        }
    }
}

/// One replica's serving bookkeeping (its state lives in the Raft driver).
struct Serving {
    completed: ReplayCache<CtrlResponse>,
    pending: Vec<PendingReply>,
}

/// A worker's endpoint on the control-plane network.
struct WorkerEndpoint {
    worker: Arc<Worker>,
    /// Window responses by request id: `take_window` is destructive, so a
    /// redelivered fetch must replay the cached reply, not take again.
    served: ReplayCache<HashMap<ShardId, ShardWindow>>,
}

/// The control plane: the Raft group and its per-replica state machines,
/// the serving state, the RPC network, and the attached worker endpoints.
struct ControlPlane {
    raft: InProcCluster<CtrlReplica>,
    serving: Vec<Serving>,
    net: SimNet<CtrlMsg>,
    /// Worker endpoints keyed by raw worker id.
    workers: BTreeMap<u32, WorkerEndpoint>,
    /// The currently-killed replica, if any (at most one at a time).
    killed: Option<u32>,
    /// Where the client sends first.
    leader_hint: u32,
    next_req: u64,
    flow: FlowControlConfig,
    /// Kill the leader right after the next rebalancing tick responds.
    arm_kill: bool,
}

impl ControlPlane {
    fn client_addr(&self) -> u32 {
        CONTROLLER_REPLICAS as u32
    }

    fn worker_addr(&self, worker: u32) -> u32 {
        CONTROLLER_REPLICAS as u32 + 1 + worker
    }

    fn next_live(&self, from: u32) -> u32 {
        let n = CONTROLLER_REPLICAS as u32;
        let mut t = (from + 1) % n;
        while self.killed == Some(t) {
            t = (t + 1) % n;
        }
        t
    }

    /// Replica `i`'s state machine.
    fn state(&self, i: usize) -> &ControlState {
        &self.raft.replica(NodeId(i as u32)).0
    }

    /// One network tick: deliver envelopes, serve replicas and workers,
    /// step Raft (which applies commits), fire pending replies, maybe
    /// compact. Returns the messages delivered to the client this tick.
    fn pump(&mut self) -> Result<Vec<CtrlMsg>> {
        // Preemption point for schedule exploration: each delivered batch
        // (and the dedup decisions inside it) is one atomic step.
        logstore_sync::sync_point("core.controller.pump");
        let mut to_client = Vec::new();
        for env in self.net.step() {
            if (env.to as usize) < CONTROLLER_REPLICAS {
                if self.killed == Some(env.to) {
                    continue; // a dead replica's inbox goes nowhere
                }
                self.serve_replica(env.to as usize, env.from, env.msg);
            } else if env.to == self.client_addr() {
                to_client.push(env.msg);
            } else {
                self.serve_worker(env.to, env.from, env.msg);
            }
        }
        self.raft.step();
        self.flush_pending();
        self.maybe_compact()?;
        Ok(to_client)
    }

    /// Serves one request at replica `i`: dedup, leadership check, then
    /// either a commit-barrier read or a proposal through the log.
    fn serve_replica(&mut self, i: usize, from: u32, msg: CtrlMsg) {
        let CtrlMsg::Request { id, req } = msg else { return };
        if let Some(resp) = self.serving[i].completed.get(id).cloned() {
            self.respond(i, from, id, resp);
            return;
        }
        if self.serving[i].pending.iter().any(|p| p.id == id) {
            return; // duplicate of an in-flight request
        }
        let node_id = NodeId(i as u32);
        if self.raft.node(node_id).role() != Role::Leader {
            let hint = self.raft.any_leader().map(NodeId::raw);
            self.respond(i, from, id, CtrlResponse::NotLeader { hint });
            return;
        }
        // Mutations that are already satisfied degrade to barrier reads —
        // that is what makes redelivered requests harmless.
        let mut action = None;
        let proposal: Option<CtrlCmd> = match &req {
            CtrlRequest::Route { tenant } => {
                // With no shard in the ring there is nothing to place: the
                // barrier read below answers `Failed`.
                let sm = self.state(i);
                let home = sm.home(*tenant).filter(|_| !sm.is_routed(*tenant));
                home.map(|home| CtrlCmd::SetRoute { tenant: *tenant, routes: vec![(home, 1.0)] })
            }
            CtrlRequest::RegisterWorker { worker, shards } => {
                // The state machine is idempotent anyway; skipping the
                // proposal for an identical re-registration keeps the log
                // free of no-op entries.
                let mut probe = self.state(i).clone();
                let cmd = CtrlCmd::RegisterWorker { worker: *worker, shards: shards.clone() };
                probe.apply(&cmd).then_some(cmd)
            }
            CtrlRequest::RestoreRoutes { tenant, shards } => {
                if self.state(i).is_routed(*tenant) || shards.is_empty() {
                    None
                } else {
                    Some(CtrlCmd::SetRoute {
                        tenant: *tenant,
                        routes: shards.iter().map(|&s| (s, 1.0)).collect(),
                    })
                }
            }
            CtrlRequest::Tick { windows } => {
                let state = self.state(i);
                let snapshot = snapshot_from_windows(state, windows);
                let (a, proposal) = plan_tick(state, &snapshot, &self.flow, &MaxFlowBalancer);
                action = Some(a);
                proposal
            }
            CtrlRequest::VacateDone { tenant, shard } => {
                let pending = self.state(i).pending_vacated().contains(&(*tenant, *shard));
                pending.then_some(CtrlCmd::VacateRoute { tenant: *tenant, shard: *shard })
            }
            CtrlRequest::ReadShards { .. } | CtrlRequest::Vacated | CtrlRequest::RouteCount => None,
        };
        let wait_index = match proposal {
            Some(cmd) => match self.raft.node_mut(node_id).propose(cmd.encode()) {
                Ok(index) => index,
                Err(e) => {
                    self.respond(i, from, id, CtrlResponse::Failed { error: e.to_string() });
                    return;
                }
            },
            // Linearizable read: all entries present at receipt must commit
            // first (the election no-op barrier makes this live for a fresh
            // leader).
            None => self.raft.node(node_id).log_len(),
        };
        self.serving[i].pending.push(PendingReply { id, from, wait_index, req, action });
    }

    /// Serves a worker endpoint: window fetches with replay-by-id.
    fn serve_worker(&mut self, to: u32, from: u32, msg: CtrlMsg) {
        let CtrlMsg::WindowFetch { id } = msg else { return };
        let Some(worker) = to.checked_sub(CONTROLLER_REPLICAS as u32 + 1) else { return };
        let Some(ep) = self.workers.get_mut(&worker) else { return };
        let windows = match ep.served.get(id) {
            Some(cached) => cached.clone(),
            None => {
                let fresh = ep.worker.take_window();
                ep.served.insert(id, fresh.clone());
                fresh
            }
        };
        self.net.send(to, from, CtrlMsg::WindowData { id, windows });
    }

    fn respond(&mut self, i: usize, to: u32, id: u64, resp: CtrlResponse) {
        self.net.send(i as u32, to, CtrlMsg::Response { id, resp });
    }

    /// Fires pending replies whose barrier committed; bounces the pending
    /// queue of any replica that lost leadership.
    fn flush_pending(&mut self) {
        for i in 0..CONTROLLER_REPLICAS {
            if self.serving[i].pending.is_empty() || self.killed == Some(i as u32) {
                continue;
            }
            let node_id = NodeId(i as u32);
            if self.raft.node(node_id).role() != Role::Leader {
                let hint = self.raft.any_leader().map(NodeId::raw);
                for p in std::mem::take(&mut self.serving[i].pending) {
                    self.respond(i, p.from, p.id, CtrlResponse::NotLeader { hint });
                }
                continue;
            }
            let commit = self.raft.node(node_id).commit_index();
            let mut still_waiting = Vec::new();
            for p in std::mem::take(&mut self.serving[i].pending) {
                if p.wait_index > commit {
                    still_waiting.push(p);
                    continue;
                }
                let resp = self.evaluate(i, &p);
                self.serving[i].completed.insert(p.id, resp.clone());
                self.respond(i, p.from, p.id, resp);
            }
            self.serving[i].pending = still_waiting;
        }
    }

    /// Evaluates a barrier-cleared request against replica `i`'s state.
    fn evaluate(&self, i: usize, p: &PendingReply) -> CtrlResponse {
        let sm = self.state(i);
        let epoch = sm.epoch();
        match &p.req {
            CtrlRequest::Route { tenant } => match sm.routes(*tenant) {
                Some(routes) => {
                    CtrlResponse::Routes { routes: routes.to_vec(), routed: true, epoch }
                }
                None => match sm.home(*tenant) {
                    Some(home) => {
                        CtrlResponse::Routes { routes: vec![(home, 1.0)], routed: false, epoch }
                    }
                    None => CtrlResponse::Failed { error: "no shards in ring".to_string() },
                },
            },
            CtrlRequest::ReadShards { tenant } => CtrlResponse::Shards {
                shards: sm.read_shards(*tenant),
                routed: sm.is_routed(*tenant),
                epoch,
            },
            CtrlRequest::RegisterWorker { .. }
            | CtrlRequest::RestoreRoutes { .. }
            | CtrlRequest::VacateDone { .. } => CtrlResponse::Ack { epoch },
            CtrlRequest::Tick { .. } => CtrlResponse::TickDone {
                action: p.action.clone().unwrap_or(ControlAction::None),
                epoch,
            },
            CtrlRequest::Vacated => {
                CtrlResponse::VacatedPairs { pairs: sm.pending_vacated(), epoch }
            }
            CtrlRequest::RouteCount => CtrlResponse::Count { n: sm.route_count() },
        }
    }

    /// Group log compaction once the leader has [`COMPACT_EVERY`] commits
    /// past its snapshot: every replica folds its applied prefix into its
    /// encoded state, so healed laggards catch up by snapshot + suffix
    /// instead of full replay.
    fn maybe_compact(&mut self) -> Result<()> {
        let Some(leader) = self.raft.sole_leader() else { return Ok(()) };
        let node = self.raft.node(leader);
        if self.killed == Some(leader.raw())
            || node.commit_index() < node.snapshot_index() + COMPACT_EVERY
        {
            return Ok(());
        }
        self.raft.compact()
    }

    /// One client RPC: send, retransmit on silence, follow `NotLeader`
    /// redirects, and return the first non-redirect response.
    fn rpc(&mut self, req: CtrlRequest) -> Result<CtrlResponse> {
        let id = self.next_req;
        self.next_req += 1;
        let client = self.client_addr();
        let mut target = self.leader_hint;
        if self.killed == Some(target) {
            target = self.next_live(target);
        }
        let mut since_send = RETX_INTERVAL; // send immediately
        for _ in 0..RPC_BUDGET {
            if since_send >= RETX_INTERVAL {
                since_send = 0;
                if self.killed == Some(target) {
                    target = self.next_live(target);
                }
                self.net.send(client, target, CtrlMsg::Request { id, req: req.clone() });
            }
            since_send += 1;
            for msg in self.pump()? {
                let CtrlMsg::Response { id: rid, resp } = msg else { continue };
                if rid != id {
                    continue; // a late response to an older request
                }
                match resp {
                    CtrlResponse::NotLeader { hint } => {
                        let next = hint
                            .filter(|&h| {
                                (h as usize) < CONTROLLER_REPLICAS && self.killed != Some(h)
                            })
                            .unwrap_or_else(|| self.next_live(target));
                        target = if next == target { self.next_live(target) } else { next };
                        since_send = RETX_INTERVAL; // redirect: resend now
                    }
                    CtrlResponse::Failed { error } => return Err(Error::Cluster(error)),
                    other => {
                        self.leader_hint = target;
                        return Ok(other);
                    }
                }
            }
        }
        Err(Error::Cluster(format!("control plane unreachable (request {id} timed out)")))
    }

    /// Fetches every attached worker's ingest window over the network.
    fn fetch_windows(&mut self) -> Result<HashMap<WorkerId, HashMap<ShardId, ShardWindow>>> {
        let mut out = HashMap::new();
        let targets: Vec<u32> = self.workers.keys().copied().collect();
        let client = self.client_addr();
        for w in targets {
            let id = self.next_req;
            self.next_req += 1;
            let addr = self.worker_addr(w);
            let mut since_send = RETX_INTERVAL;
            let mut got = None;
            'wait: for _ in 0..RPC_BUDGET {
                if since_send >= RETX_INTERVAL {
                    since_send = 0;
                    self.net.send(client, addr, CtrlMsg::WindowFetch { id });
                }
                since_send += 1;
                for msg in self.pump()? {
                    let CtrlMsg::WindowData { id: rid, windows } = msg else { continue };
                    if rid == id {
                        got = Some(windows);
                        break 'wait;
                    }
                }
            }
            match got {
                Some(windows) => {
                    out.insert(WorkerId(w), windows);
                }
                None => return Err(Error::Cluster(format!("worker-{w} window fetch timed out"))),
            }
        }
        Ok(out)
    }

    /// Kills the current leader (isolates its Raft node and blackholes its
    /// inbox). At most one replica is down at a time — the group of
    /// [`CONTROLLER_REPLICAS`] keeps its quorum — so a pending kill heals
    /// first.
    fn kill_leader(&mut self) -> Option<u32> {
        let leader = self.raft.any_leader()?;
        if self.killed == Some(leader.raw()) {
            return None;
        }
        if self.killed.take().is_some() {
            self.raft.heal();
        }
        self.raft.isolate(leader);
        self.killed = Some(leader.raw());
        Some(leader.raw())
    }

    fn heal(&mut self) {
        self.raft.heal();
        self.killed = None;
    }

    /// Pumps until every live replica converged on one commit index under
    /// a sole leader (test/assertion support).
    fn settle(&mut self) -> Result<()> {
        for _ in 0..RPC_BUDGET {
            self.pump()?;
            if self.raft.sole_leader().is_none() {
                continue;
            }
            let live: Vec<u64> = (0..CONTROLLER_REPLICAS)
                .filter(|&i| self.killed != Some(i as u32))
                .map(|i| self.raft.node(NodeId(i as u32)).commit_index())
                .collect();
            if self.net.idle() && live.windows(2).all(|w| w[0] == w[1]) {
                break;
            }
        }
        Ok(())
    }
}

/// Assembles the monitor's snapshot from the replicated topology and the
/// collected ingest windows.
fn snapshot_from_windows(
    state: &ControlState,
    windows: &HashMap<WorkerId, HashMap<ShardId, ShardWindow>>,
) -> TrafficSnapshot {
    let topology = state.topology();
    let mut snapshot = TrafficSnapshot {
        shard_capacity: topology.shard_capacity,
        worker_capacity: topology.worker_capacity,
        shard_to_worker: topology.shard_to_worker,
        ..Default::default()
    };
    for (&worker, shards) in windows {
        for (&shard, window) in shards {
            *snapshot.shard_load.entry(shard).or_default() += window.total;
            *snapshot.worker_load.entry(worker).or_default() += window.total;
            for (&tenant, &count) in &window.per_tenant {
                *snapshot.tenant_traffic.entry(tenant).or_default() += count;
                snapshot.shard_tenants.entry(shard).or_default().push((tenant, count));
            }
        }
    }
    snapshot
}

/// The broker-side route cache, keyed on the control state's epoch.
#[derive(Default)]
struct RouteCache {
    epoch: u64,
    routes: HashMap<TenantId, Vec<Route>>,
    read_shards: HashMap<TenantId, Vec<ShardId>>,
}

impl RouteCache {
    /// Adopts a response's epoch; a newer epoch invalidates everything
    /// (some rebalance or vacate has changed routes under us).
    fn observe_epoch(&mut self, epoch: u64) {
        if epoch > self.epoch {
            self.routes.clear();
            self.read_shards.clear();
            self.epoch = epoch;
        }
    }

    fn invalidate(&mut self, tenant: TenantId) {
        self.routes.remove(&tenant);
        self.read_shards.remove(&tenant);
    }
}

/// The engine-side controller facade: every method is a client RPC into
/// the replicated control plane (plus a route cache on the hot paths).
pub struct ClusterController {
    cache: OrderedMutex<RouteCache>,
    plane: OrderedMutex<ControlPlane>,
    vacated_processed: AtomicU64,
}

impl ClusterController {
    /// Builds the control plane from the cluster configuration and elects
    /// the first leader. Workers join via [`ClusterController::register_worker`]
    /// — the topology starts empty.
    pub fn new(config: &ClusterConfig) -> Self {
        let replicas = (0..CONTROLLER_REPLICAS).map(|_| CtrlReplica(ControlState::new()));
        let serving = (0..CONTROLLER_REPLICAS)
            .map(|_| Serving { completed: ReplayCache::new(), pending: Vec::new() });
        let mut plane = ControlPlane {
            raft: InProcCluster::with_replicas(
                replicas.collect(),
                RaftConfig::default(),
                config.seed ^ 0xC7A1,
            ),
            serving: serving.collect(),
            net: SimNet::new(config.seed ^ 0x0e47),
            workers: BTreeMap::new(),
            killed: None,
            leader_hint: 0,
            next_req: 0,
            flow: FlowControlConfig {
                per_tenant_shard_limit: config.shard_capacity / 2,
                ..FlowControlConfig::default()
            },
            arm_kill: false,
        };
        if let Some(leader) = plane.raft.run_until_leader(RPC_BUDGET) {
            plane.leader_hint = leader.raw();
        }
        ClusterController {
            cache: OrderedMutex::new("core.controller.cache", RouteCache::default()),
            plane: OrderedMutex::new("core.controller.plane", plane),
            vacated_processed: AtomicU64::new(0),
        }
    }

    /// Attaches a worker's endpoint to the control-plane network so ticks
    /// can fetch its ingest windows by message.
    pub fn attach_worker(&self, worker: &Arc<Worker>) {
        let mut plane = self.plane.lock();
        plane.workers.insert(
            worker.id().raw(),
            WorkerEndpoint { worker: Arc::clone(worker), served: ReplayCache::new() },
        );
    }

    /// Registers a worker and its shards through the replicated log
    /// (`ScaleCluster`, Algorithm 1 lines 25–27). Idempotent under
    /// redelivery: re-registering the identical shard set neither
    /// double-registers shards nor perturbs the consistent-hash ring.
    pub fn register_worker(
        &self,
        worker: WorkerId,
        shard_ids: &[ShardId],
        shard_capacity: u64,
    ) -> Result<()> {
        let shards = shard_ids.iter().map(|&s| (s, shard_capacity)).collect();
        let resp = self.plane.lock().rpc(CtrlRequest::RegisterWorker { worker, shards })?;
        match resp {
            CtrlResponse::Ack { .. } => Ok(()),
            other => Err(unexpected("RegisterWorker", &other)),
        }
    }

    /// Shard that should receive one record of `tenant` (cached weighted
    /// pick; on miss, an RPC that lazily places the tenant on its ring
    /// home shard).
    pub fn pick_shard(&self, tenant: TenantId, selector: u64) -> Result<ShardId> {
        let mut cache = self.cache.lock();
        if let Some(routes) = cache.routes.get(&tenant) {
            if let Some(shard) = pick(routes, selector) {
                return Ok(shard);
            }
        }
        let resp = self.plane.lock().rpc(CtrlRequest::Route { tenant })?;
        match resp {
            CtrlResponse::Routes { routes, routed, epoch } => {
                cache.observe_epoch(epoch);
                let shard = pick(&routes, selector)
                    .ok_or_else(|| Error::Cluster(format!("no route for {tenant}")))?;
                if routed && epoch == cache.epoch {
                    cache.routes.insert(tenant, routes);
                }
                Ok(shard)
            }
            other => Err(unexpected("Route", &other)),
        }
    }

    /// Reinstalls routes for a tenant recovered from durable shard state
    /// (WAL replay found its rows on `shards`). Restored routes use equal
    /// weights; the next control tick re-optimizes them.
    pub fn restore_routes(&self, tenant: TenantId, shards: &[ShardId]) -> Result<()> {
        if shards.is_empty() {
            return Ok(());
        }
        let mut cache = self.cache.lock();
        let resp = self
            .plane
            .lock()
            .rpc(CtrlRequest::RestoreRoutes { tenant, shards: shards.to_vec() })?;
        match resp {
            CtrlResponse::Ack { epoch } => {
                cache.observe_epoch(epoch);
                cache.invalidate(tenant);
                Ok(())
            }
            other => Err(unexpected("RestoreRoutes", &other)),
        }
    }

    /// `(tenant, shard)` pairs vacated by a rebalance and not yet
    /// flush-acknowledged — the shards whose buffered rows for that tenant
    /// should be "packaged and flushed to OSS" (paper §4.1.5).
    pub fn vacated_routes(&self) -> Result<Vec<(TenantId, ShardId)>> {
        match self.plane.lock().rpc(CtrlRequest::Vacated)? {
            CtrlResponse::VacatedPairs { pairs, .. } => Ok(pairs),
            other => Err(unexpected("Vacated", &other)),
        }
    }

    /// Acknowledges one vacated route's flush: the edge leaves the pending
    /// set, and with it the tenant's reads, through the replicated log.
    pub fn vacate_done(&self, tenant: TenantId, shard: ShardId) -> Result<()> {
        let mut cache = self.cache.lock();
        let resp = self.plane.lock().rpc(CtrlRequest::VacateDone { tenant, shard })?;
        match resp {
            CtrlResponse::Ack { epoch } => {
                cache.observe_epoch(epoch);
                self.vacated_processed.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            other => Err(unexpected("VacateDone", &other)),
        }
    }

    /// Lifetime count of vacated routes this client has flush-acknowledged.
    pub fn vacated_processed(&self) -> u64 {
        self.vacated_processed.load(Ordering::Relaxed)
    }

    /// Shards a read for `tenant` must consult (its current routes and its
    /// vacated edges whose flush is not acknowledged yet; the ring home for
    /// unplaced tenants).
    pub fn read_shards(&self, tenant: TenantId) -> Result<Vec<ShardId>> {
        let mut cache = self.cache.lock();
        if let Some(shards) = cache.read_shards.get(&tenant) {
            return Ok(shards.clone());
        }
        match self.plane.lock().rpc(CtrlRequest::ReadShards { tenant })? {
            CtrlResponse::Shards { shards, routed, epoch } => {
                cache.observe_epoch(epoch);
                if routed && epoch == cache.epoch {
                    cache.read_shards.insert(tenant, shards.clone());
                }
                Ok(shards)
            }
            other => Err(unexpected("ReadShards", &other)),
        }
    }

    /// Current route-edge count (Fig 12(c)).
    pub fn route_count(&self) -> usize {
        match self.plane.lock().rpc(CtrlRequest::RouteCount) {
            Ok(CtrlResponse::Count { n }) => n,
            _ => 0,
        }
    }

    /// One traffic-control tick: fetches every worker's ingest window over
    /// the network, then asks the leader to plan. A rebalance is proposed
    /// as a concrete `CommitRebalance` and acknowledged only after quorum.
    pub fn control_tick(&self) -> Result<ControlAction> {
        let mut cache = self.cache.lock();
        let mut plane = self.plane.lock();
        let windows = plane.fetch_windows()?;
        let resp = plane.rpc(CtrlRequest::Tick { windows })?;
        let CtrlResponse::TickDone { action, epoch } = resp else {
            return Err(unexpected("Tick", &resp));
        };
        if plane.arm_kill && matches!(action, ControlAction::Rebalanced { .. }) {
            // Mid-rebalance kill: the plan is committed, the vacated-route
            // flushes have not happened yet — they must survive failover.
            plane.arm_kill = false;
            plane.kill_leader();
        }
        drop(plane);
        cache.observe_epoch(epoch);
        Ok(action)
    }

    /// Kills the current controller leader (simtest fault). Returns the
    /// killed replica, or `None` when there is no quorum to spare or no
    /// leader to kill.
    pub fn kill_controller_leader(&self) -> Option<u32> {
        self.plane.lock().kill_leader()
    }

    /// Arms a leader kill that fires right after the next rebalancing tick
    /// — the "kill the leader mid-rebalance" scenario.
    pub fn arm_kill_on_rebalance(&self) {
        self.plane.lock().arm_kill = true;
    }

    /// True while a kill armed by [`ClusterController::arm_kill_on_rebalance`]
    /// has not fired (nor been disarmed by a heal).
    pub fn kill_armed(&self) -> bool {
        self.plane.lock().arm_kill
    }

    /// Revives every killed replica and heals all controller partitions.
    pub fn heal_controllers(&self) {
        let mut plane = self.plane.lock();
        plane.arm_kill = false;
        plane.heal();
    }

    /// Configures control-plane network faults (seeded, deterministic).
    pub fn set_net_faults(&self, drop_probability: f64, duplicate_probability: f64, reorder: bool) {
        self.plane.lock().net.set_faults(NetFaults {
            drop_probability,
            duplicate_probability,
            reorder,
            max_delay: 4,
        });
    }

    /// Restores a perfect control-plane network.
    pub fn clear_net_faults(&self) {
        self.plane.lock().net.set_faults(NetFaults::default());
    }

    /// Encoded state of every live replica after letting the group settle
    /// — byte-identical entries are the convergence oracle of the
    /// failover tests.
    pub fn replica_states(&self) -> Result<Vec<(u32, Vec<u8>)>> {
        let mut plane = self.plane.lock();
        plane.settle()?;
        Ok((0..CONTROLLER_REPLICAS)
            .filter(|&i| plane.killed != Some(i as u32))
            .map(|i| (i as u32, plane.state(i).encode()))
            .collect())
    }

    /// Tick entry point for tests that hand-craft windows instead of
    /// attaching workers.
    #[cfg(test)]
    fn control_tick_with(
        &self,
        windows: HashMap<WorkerId, HashMap<ShardId, ShardWindow>>,
    ) -> Result<ControlAction> {
        let mut cache = self.cache.lock();
        let resp = self.plane.lock().rpc(CtrlRequest::Tick { windows })?;
        let CtrlResponse::TickDone { action, epoch } = resp else {
            return Err(unexpected("Tick", &resp));
        };
        cache.observe_epoch(epoch);
        Ok(action)
    }
}

fn unexpected(what: &str, resp: &CtrlResponse) -> Error {
    Error::Cluster(format!("unexpected control-plane response to {what}: {resp:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A controller with the `for_testing` topology registered explicitly
    /// (workers no longer arrive via the constructor).
    /// The registered topology, once every replica has caught up.
    fn topology(c: &ClusterController) -> logstore_flow::sim::ClusterTopology {
        let mut plane = c.plane.lock();
        plane.settle().unwrap();
        plane.state(0).topology()
    }

    fn controller() -> ClusterController {
        let config = ClusterConfig::for_testing();
        let c = ClusterController::new(&config);
        for w in 0..config.workers {
            let shard_ids: Vec<ShardId> = (0..config.shards_per_worker)
                .map(|s| ShardId(w * config.shards_per_worker + s))
                .collect();
            c.register_worker(WorkerId(w), &shard_ids, config.shard_capacity).unwrap();
        }
        c
    }

    #[test]
    fn pick_shard_is_stable_per_tenant() {
        let c = controller();
        let s1 = c.pick_shard(TenantId(5), 0).unwrap();
        let s2 = c.pick_shard(TenantId(5), 1).unwrap();
        assert_eq!(s1, s2, "single-route tenant always lands on its home shard");
        assert_eq!(c.read_shards(TenantId(5)).unwrap(), vec![s1]);
    }

    #[test]
    fn register_worker_redelivery_is_idempotent() {
        let c = controller();
        let before = topology(&c);
        let states = c.replica_states().unwrap();
        // Redeliver worker 0's registration several times.
        for _ in 0..3 {
            c.register_worker(WorkerId(0), &[ShardId(0), ShardId(1)], 100_000).unwrap();
        }
        assert_eq!(topology(&c).shard_capacity, before.shard_capacity);
        assert_eq!(
            c.replica_states().unwrap(),
            states,
            "redelivered registration must not change a single replicated byte"
        );
    }

    #[test]
    fn control_tick_rebalances_hot_tenant() {
        let c = controller();
        let hot = TenantId(1);
        let home = c.pick_shard(hot, 0).unwrap();
        // Simulate a window where the tenant hammers its home shard well
        // beyond capacity * alpha (capacity 100k, alpha 0.85).
        let mut shard_windows = HashMap::new();
        let window = ShardWindow { total: 200_000, per_tenant: HashMap::from([(hot, 200_000)]) };
        shard_windows.insert(home, window);
        let worker = topology(&c).shard_to_worker[&home];
        let mut windows = HashMap::new();
        windows.insert(worker, shard_windows);
        let action = c.control_tick_with(windows).unwrap();
        assert!(
            matches!(action, ControlAction::Rebalanced { .. }),
            "expected rebalance, got {action:?}"
        );
        assert!(c.read_shards(hot).unwrap().len() > 1, "hot tenant must gain shards");
        assert!(
            !c.vacated_routes().unwrap().is_empty() || c.read_shards(hot).unwrap().contains(&home)
        );
    }

    #[test]
    fn leader_kill_and_heal_keeps_serving() {
        let c = controller();
        let t = TenantId(7);
        let before = c.pick_shard(t, 0).unwrap();
        let killed = c.kill_controller_leader().expect("kill the leader");
        // Cached routes keep serving instantly; a fresh RPC must drive the
        // election through and land on a new leader with the same answer.
        assert_eq!(c.read_shards(t).unwrap(), vec![before]);
        assert_eq!(c.pick_shard(t, 0).unwrap(), before);
        assert_ne!(c.plane.lock().raft.any_leader(), Some(NodeId(killed)));
        c.heal_controllers();
        let states = c.replica_states().unwrap();
        assert_eq!(states.len(), 3, "all replicas live after heal");
        assert!(
            states.windows(2).all(|w| w[0].1 == w[1].1),
            "replicas must converge byte-identically after heal"
        );
    }

    #[test]
    fn rpc_survives_network_faults() {
        let c = controller();
        c.set_net_faults(0.3, 0.3, true);
        let t = TenantId(11);
        let shard = c.pick_shard(t, 0).unwrap();
        for sel in 0..50 {
            assert_eq!(c.pick_shard(t, sel).unwrap(), shard, "routes stable under faults");
        }
        assert_eq!(c.read_shards(t).unwrap(), vec![shard]);
        c.clear_net_faults();
        let states = c.replica_states().unwrap();
        assert!(states.windows(2).all(|w| w[0].1 == w[1].1));
    }
}
