//! Episode execution: engine lifecycle, oracle, invariant battery.

use crate::crash::ArmedCrashes;
use crate::plan::{SimOp, SimPlan};
use logstore_core::{
    ClusterConfig, CrashHooks, CrashPoint, LogStore, MetadataStore, OpenParts, QueryOptions,
    SimCrash, Store,
};
use logstore_oss::{
    FaultScope, FaultyStore, LatencyModel, MemoryStore, ObjectStore, RetryPolicy, RetryingStore,
    SimulatedOss,
};
use logstore_types::{LogRecord, TenantId, Timestamp, Value};
use logstore_workload::LogRecordGenerator;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An invariant violation (or harness-level error) with everything needed
/// to reproduce it.
#[derive(Debug, Clone)]
pub struct SimFailure {
    /// The episode's seed.
    pub seed: u64,
    /// Schedule step index at which the violation surfaced.
    pub step: usize,
    /// What went wrong.
    pub message: String,
    /// The episode's event trace up to the failure.
    pub trace: Vec<String>,
}

impl std::fmt::Display for SimFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "simulation invariant violated at step {} (seed {}): {}",
            self.step, self.seed, self.message
        )?;
        writeln!(f, "replay: SIMTEST_SEED={} cargo test -p logstore-simtest", self.seed)?;
        writeln!(f, "trace ({} events):", self.trace.len())?;
        for line in &self.trace {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

impl std::error::Error for SimFailure {}

/// What a completed episode did.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct EpisodeReport {
    /// Schedule steps executed.
    pub ops: usize,
    /// Simulated crashes fired (each followed by a recovery).
    pub crashes: u64,
    /// The crash points that fired, in order.
    pub crash_points: Vec<CrashPoint>,
    /// OSS faults the fault layer injected.
    pub faults_injected: u64,
    /// Rows acknowledged to the oracle over the episode.
    pub rows_acked: u64,
    /// Invariant batteries run (scheduled + post-recovery + final).
    pub checks: u64,
    /// LogBlocks on OSS at episode end.
    pub blocks: usize,
    /// The full event trace (deterministic for a seed, modulo control
    /// ticks — see [`SimPlan::without_control_ticks`]).
    pub trace: Vec<String>,
}

/// Outcome of one engine call under crash injection.
enum Outcome<T> {
    /// The call returned (possibly an engine error).
    Done(logstore_types::Result<T>),
    /// A simulated crash unwound the call; the engine is dropped.
    Crashed(CrashPoint),
}

static EPISODE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Keeps simulated crashes out of stderr: a [`SimCrash`] panic is an
/// *expected* control-flow event of every episode, so the default hook's
/// message + backtrace for it is pure noise (and with hundreds of soak
/// episodes, megabytes of it). Real panics still print normally.
fn silence_sim_crash_panics() {
    static SILENCE: std::sync::Once = std::sync::Once::new();
    SILENCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<SimCrash>().is_none() {
                default_hook(info);
            }
        }));
    });
}

/// One seeded, schedule-driven run of the full engine.
///
/// The episode owns the "world outside the node": the OSS stack and the
/// metadata store survive simulated crashes, the engine and its caches do
/// not, and the WAL directory on disk is the node's durable local state.
pub struct Episode {
    seed: u64,
    config: ClusterConfig,
    data_dir: std::path::PathBuf,
    store: Arc<Store>,
    metadata: Arc<MetadataStore>,
    crashes: Arc<ArmedCrashes>,
    engine: Option<LogStore>,
    /// Acknowledged rows per tenant, keyed by the unique id each record
    /// carries in its `latency` column.
    oracle: BTreeMap<u64, BTreeMap<i64, LogRecord>>,
    /// Rows whose ingest call crashed mid-flight: present after recovery
    /// (the WAL covered them) or gone, never duplicated.
    in_doubt: BTreeMap<i64, LogRecord>,
    tenants: BTreeSet<u64>,
    generator: LogRecordGenerator,
    clock_ms: i64,
    next_uid: i64,
    report: EpisodeReport,
}

impl Episode {
    /// Runs `plan` end to end: every scheduled op, then the final clean
    /// flush and accounting battery.
    pub fn run(plan: &SimPlan) -> Result<EpisodeReport, SimFailure> {
        let mut episode = Episode::new(plan.seed)?;
        for (step, op) in plan.ops.iter().enumerate() {
            episode.apply(step, op)?;
        }
        episode.finish(plan.ops.len())
    }

    /// Builds the world and opens the first engine incarnation.
    pub fn new(seed: u64) -> Result<Self, SimFailure> {
        silence_sim_crash_panics();
        let data_dir = std::env::temp_dir().join(format!(
            "logstore-simtest-{}-{}-{}",
            std::process::id(),
            seed,
            EPISODE_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&data_dir);
        let mut config = ClusterConfig::for_testing();
        config.seed = seed;
        config.data_dir = Some(data_dir.clone());
        // Small thresholds so threshold flushes fire and drains span
        // several chunks (multi-block commits, partial-prefix crashes).
        config.rowstore_flush_bytes = 24 * 1024;
        config.max_rows_per_logblock = 48;
        config.block_rows = 16;
        // One OSS request in flight per operation: the archive upload,
        // compaction reads and prefetch then run inline on the calling
        // thread, so the order in which PUTs reach the fault layer — and
        // with it which upload an injected fault hits — stays a pure
        // function of the seed (`determinism_same_seed_same_trace`). The
        // overlapped path gets its exactly-once coverage from
        // `tests/archive_faults.rs`, whose oracle does not need a trace.
        config.prefetch_threads = 1;
        // Writes-scoped faults: uploads fail, queries keep working — and
        // (critically for replay) reads never advance the fault layer's
        // op counter or rng.
        let store: Arc<Store> = Arc::new(RetryingStore::new(
            SimulatedOss::new(
                FaultyStore::new(MemoryStore::new(), FaultScope::Writes, 0.0, seed),
                LatencyModel::zero(),
                seed,
            ),
            RetryPolicy::none(),
            seed,
        ));
        let metadata = Arc::new(MetadataStore::new());
        let crashes = Arc::new(ArmedCrashes::new());
        let mut episode = Episode {
            seed,
            config,
            data_dir,
            store,
            metadata,
            crashes,
            engine: None,
            oracle: BTreeMap::new(),
            in_doubt: BTreeMap::new(),
            tenants: BTreeSet::new(),
            generator: LogRecordGenerator::new(seed ^ 0xfeed),
            clock_ms: 0,
            next_uid: 0,
            report: EpisodeReport::default(),
        };
        episode.reopen(0)?;
        Ok(episode)
    }

    /// The live engine (test sabotage hooks reach through this).
    pub fn engine(&self) -> &LogStore {
        self.engine.as_ref().expect("episode engine is open")
    }

    /// The episode-owned metadata store.
    pub fn metadata(&self) -> &Arc<MetadataStore> {
        &self.metadata
    }

    /// Test-only sabotage: re-ingests an already-acknowledged row without
    /// telling the oracle — a synthetic exactly-once bug the next
    /// [`SimOp::CheckQueries`] on that tenant must catch as a duplicate.
    pub fn inject_duplicate_row(&mut self, tenant: u64) {
        let row = self
            .oracle
            .get(&tenant)
            .and_then(|rows| rows.values().next())
            .cloned()
            .expect("tenant has acknowledged rows to duplicate");
        self.engine().ingest(vec![row]).expect("sabotage ingest");
    }

    /// Applies one scheduled op.
    pub fn apply(&mut self, step: usize, op: &SimOp) -> Result<(), SimFailure> {
        self.report.ops += 1;
        match op {
            SimOp::Ingest { tenant, rows } => {
                self.tenants.insert(*tenant);
                let batch: Vec<LogRecord> = (0..*rows).map(|_| self.make_record(*tenant)).collect();
                let cloned = batch.clone();
                match self.guarded(move |engine| engine.ingest(cloned)) {
                    Outcome::Done(Ok(r)) => {
                        if r.rejected != 0 {
                            return Err(self.failure(
                                step,
                                format!(
                                    "{} rows hit backpressure; harness sizing is wrong",
                                    r.rejected
                                ),
                            ));
                        }
                        if r.failed != 0 {
                            // The harness injects no WAL faults, so a
                            // degraded append is a real bug.
                            return Err(self.failure(
                                step,
                                format!(
                                    "{} rows failed to append: {}",
                                    r.failed,
                                    r.first_failure.as_deref().unwrap_or("(no detail)")
                                ),
                            ));
                        }
                        let acked = self.oracle.entry(*tenant).or_default();
                        for row in batch {
                            acked.insert(uid_of(&row), row);
                        }
                        self.report.rows_acked += *rows as u64;
                        self.trace(step, format!("ingest t{tenant} rows={rows} acked"));
                    }
                    Outcome::Done(Err(e)) => {
                        return Err(self.failure(step, format!("ingest failed terminally: {e}")));
                    }
                    Outcome::Crashed(point) => {
                        for row in batch {
                            self.in_doubt.insert(uid_of(&row), row);
                        }
                        self.trace(step, format!("ingest t{tenant} rows={rows} CRASH {point:?}"));
                        self.recover(step, point)?;
                    }
                }
            }
            SimOp::FlushAll | SimOp::FlushIfNeeded => {
                let force = matches!(op, SimOp::FlushAll);
                let label = if force { "flush" } else { "flush-if-needed" };
                match self.guarded(
                    move |engine| {
                        if force {
                            engine.flush()
                        } else {
                            engine.flush_if_needed()
                        }
                    },
                ) {
                    Outcome::Done(Ok(report)) => {
                        self.trace(step, format!("{label} archived={}", report.rows_archived));
                    }
                    Outcome::Done(Err(_)) => {
                        // Fault-window upload failure: rows restored to the
                        // row store, re-archived later. Legal.
                        self.trace(step, format!("{label} degraded (faults)"));
                    }
                    Outcome::Crashed(point) => {
                        self.trace(step, format!("{label} CRASH {point:?}"));
                        self.recover(step, point)?;
                    }
                }
            }
            SimOp::Compact => {
                match self.guarded(|engine| engine.compact().map(|r| (r, engine.gc()))) {
                    Outcome::Done(Ok((compact, gc))) => {
                        self.trace(
                            step,
                            format!(
                                "compact runs={} merged={} races={} gc del={} kept={} orphans={}",
                                compact.runs_committed,
                                compact.blocks_merged,
                                compact.runs_lost_races,
                                gc.deleted,
                                gc.retained,
                                gc.orphans_swept
                            ),
                        );
                    }
                    Outcome::Done(Err(_)) => {
                        // A merged-block upload lost to the fault window;
                        // the sources stay mapped, the intent is aborted to
                        // a tombstone. Legal.
                        self.trace(step, "compact degraded (faults)".to_string());
                    }
                    Outcome::Crashed(point) => {
                        self.trace(step, format!("compact CRASH {point:?}"));
                        self.recover(step, point)?;
                    }
                }
            }
            SimOp::ControlTick => match self.guarded(|engine| engine.control_tick()) {
                Outcome::Done(Ok(action)) => {
                    self.trace(step, format!("control-tick {action:?}"));
                }
                Outcome::Done(Err(_)) => {
                    // A vacated-route flush lost to the fault window; the
                    // rows went back to their old shard. Legal.
                    self.trace(step, "control-tick degraded (faults)".to_string());
                }
                Outcome::Crashed(point) => {
                    self.trace(step, format!("control-tick CRASH {point:?}"));
                    self.recover(step, point)?;
                }
            },
            SimOp::CheckQueries { tenant } => {
                self.trace(step, format!("check-queries t{tenant}"));
                self.check_tenant(step, *tenant, false)?;
            }
            SimOp::FaultWindow { probability } => {
                self.fault_layer().set_probability(*probability);
                self.trace(step, format!("fault-window p={probability:.2}"));
            }
            SimOp::ClearFaults => {
                self.fault_layer().set_probability(0.0);
                self.fault_layer().clear_faults();
                self.trace(step, "clear-faults".to_string());
            }
            SimOp::ArmCrash { point, countdown } => {
                self.crashes.arm(*point, *countdown);
                self.trace(step, format!("arm-crash {point:?} countdown={countdown}"));
            }
            SimOp::NetFault { drop, dup, reorder } => {
                self.engine().shared().controller.set_net_faults(*drop, *dup, *reorder);
                self.trace(
                    step,
                    format!("net-fault drop={drop:.2} dup={dup:.2} reorder={reorder}"),
                );
            }
            SimOp::ClearNetFaults => {
                self.engine().shared().controller.clear_net_faults();
                self.trace(step, "clear-net-faults".to_string());
            }
            SimOp::KillController { during_rebalance } => {
                let controller = &self.engine().shared().controller;
                if *during_rebalance {
                    controller.arm_kill_on_rebalance();
                    self.trace(step, "kill-controller armed (fires on next rebalance)".to_string());
                } else {
                    let killed = controller.kill_controller_leader();
                    self.trace(step, format!("kill-controller killed={killed:?}"));
                }
            }
            SimOp::HealControllers => {
                self.engine().shared().controller.heal_controllers();
                self.trace(step, "heal-controllers".to_string());
            }
            SimOp::CheckInvariants => {
                self.trace(step, "check-invariants".to_string());
                self.check_all(step, false)?;
            }
        }
        Ok(())
    }

    /// Ends the episode: disarm, clear faults, one clean flush, then the
    /// final battery plus OSS accounting (every acknowledged row on OSS
    /// exactly once, nothing left buffered).
    pub fn finish(mut self, step: usize) -> Result<EpisodeReport, SimFailure> {
        self.crashes.disarm();
        self.fault_layer().set_probability(0.0);
        self.fault_layer().clear_faults();
        // The control plane also ends clean: killed controller replicas
        // revive, partitions heal, network faults clear — the final flush
        // and accounting run against a converged control plane.
        self.engine().shared().controller.heal_controllers();
        self.engine().shared().controller.clear_net_faults();
        match self.guarded(|engine| engine.flush()) {
            Outcome::Done(Ok(_)) => {}
            Outcome::Done(Err(e)) => {
                return Err(self.failure(step, format!("clean final flush failed: {e}")));
            }
            Outcome::Crashed(point) => {
                return Err(self.failure(step, format!("crash fired while disarmed: {point:?}")));
            }
        }
        self.trace(step, "final clean flush".to_string());
        self.check_all(step, false)?;
        let engine = self.engine();
        for worker in engine.shared().worker_snapshot() {
            for shard in worker.shard_ids() {
                let buffered = worker
                    .buffered_rows(shard)
                    .map_err(|e| self.plain_failure(step, format!("buffered_rows: {e}")))?;
                if buffered != 0 {
                    return Err(self.failure(
                        step,
                        format!("{shard} still buffers {buffered} rows after a clean forced flush"),
                    ));
                }
            }
        }
        for (&tenant, acked) in &self.oracle {
            let on_oss: u64 =
                self.metadata.all_blocks(TenantId(tenant)).iter().map(|e| e.rows).sum();
            if on_oss != acked.len() as u64 {
                return Err(self.plain_failure(
                    step,
                    format!(
                        "tenant {tenant}: {on_oss} rows on OSS vs {} acknowledged — \
                         archive accounting broke",
                        acked.len()
                    ),
                ));
            }
        }
        // One clean GC pass, then OSS object accounting: with faults off,
        // every tombstone and crash-orphaned upload must be deletable, and
        // the surviving object set must mirror the LogBlock map exactly —
        // an extra object is a leak, a missing one is a dangling map entry.
        let gc = match self.guarded(|engine| Ok(engine.gc())) {
            Outcome::Done(Ok(gc)) => gc,
            Outcome::Done(Err(e)) => {
                return Err(self.failure(step, format!("clean final gc failed: {e}")));
            }
            Outcome::Crashed(point) => {
                return Err(self.failure(step, format!("crash fired while disarmed: {point:?}")));
            }
        };
        self.trace(
            step,
            format!(
                "final gc deleted={} retained={} orphans={}",
                gc.deleted, gc.retained, gc.orphans_swept
            ),
        );
        if gc.retained != 0 {
            return Err(self.plain_failure(
                step,
                format!("clean final gc retained {} tombstones", gc.retained),
            ));
        }
        if !self.metadata.tombstones().is_empty() || !self.metadata.pending_paths().is_empty() {
            return Err(self.plain_failure(
                step,
                format!(
                    "episode ends with {} tombstones and {} pending paths outstanding",
                    self.metadata.tombstones().len(),
                    self.metadata.pending_paths().len()
                ),
            ));
        }
        let mapped: BTreeSet<String> = self
            .tenants
            .iter()
            .flat_map(|&t| self.metadata.all_blocks(TenantId(t)))
            .map(|e| e.path)
            .collect();
        let on_oss: BTreeSet<String> = self
            .fault_layer()
            .inner()
            .list("tenants/")
            .map_err(|e| self.plain_failure(step, format!("raw OSS list failed: {e}")))?
            .into_iter()
            .collect();
        if let Some(leaked) = on_oss.difference(&mapped).next() {
            return Err(
                self.plain_failure(step, format!("OSS object {leaked} leaked (not in any map)"))
            );
        }
        if let Some(dangling) = mapped.difference(&on_oss).next() {
            return Err(
                self.plain_failure(step, format!("mapped LogBlock {dangling} missing from OSS"))
            );
        }
        self.report.faults_injected = self.fault_layer().injected();
        self.report.blocks = self.engine().block_count();
        Ok(std::mem::take(&mut self.report))
    }

    /// Runs `f` against the live engine, converting a [`SimCrash`] unwind
    /// into [`Outcome::Crashed`] (dropping the engine). Non-simulated
    /// panics propagate — those are real bugs.
    fn guarded<T>(&mut self, f: impl FnOnce(&LogStore) -> logstore_types::Result<T>) -> Outcome<T> {
        let engine = self.engine.as_ref().expect("episode engine is open");
        match std::panic::catch_unwind(AssertUnwindSafe(|| f(engine))) {
            Ok(result) => Outcome::Done(result),
            Err(payload) => match payload.downcast_ref::<SimCrash>() {
                Some(&SimCrash(point)) => {
                    self.engine = None;
                    Outcome::Crashed(point)
                }
                None => std::panic::resume_unwind(payload),
            },
        }
    }

    /// Recovery: reopen the engine from disk and run the post-recovery
    /// battery (with in-doubt reconciliation).
    fn recover(&mut self, step: usize, point: CrashPoint) -> Result<(), SimFailure> {
        self.report.crashes += 1;
        self.report.crash_points.push(point);
        self.reopen(step)?;
        self.trace(step, format!("recovered from {point:?}"));
        self.check_all(step, true)
    }

    fn reopen(&mut self, step: usize) -> Result<(), SimFailure> {
        let parts = OpenParts {
            store: Some(Arc::clone(&self.store)),
            metadata: Some(Arc::clone(&self.metadata)),
            hooks: Some(Arc::clone(&self.crashes) as Arc<dyn CrashHooks>),
        };
        let engine = LogStore::open_with(self.config.clone(), parts)
            .map_err(|e| self.plain_failure(step, format!("engine reopen failed: {e}")))?;
        self.engine = Some(engine);
        Ok(())
    }

    /// The full battery: every tenant's differential checks plus shard
    /// accounting. With `reconcile`, engine rows unknown to the oracle may
    /// be promoted from the in-doubt set; whatever stays in doubt
    /// afterwards provably never survived and is forgotten.
    fn check_all(&mut self, step: usize, reconcile: bool) -> Result<(), SimFailure> {
        self.report.checks += 1;
        let tenants: Vec<u64> = self.tenants.iter().copied().collect();
        for tenant in tenants {
            self.check_tenant(step, tenant, reconcile)?;
        }
        if reconcile {
            self.in_doubt.clear();
        }
        // No dangling map entry: every mapped LogBlock must be backed by a
        // live object on raw OSS. Probed beneath the fault and metrics
        // layers so the check perturbs neither replay determinism nor
        // modelled costs — a compaction or GC that deleted an object
        // before (or without) swapping it out of the map is caught here.
        let raw = self.fault_layer().inner();
        for tenant in self.tenants.iter().copied() {
            for entry in self.metadata.all_blocks(TenantId(tenant)) {
                if raw.head(&entry.path).is_err() {
                    return Err(self.plain_failure(
                        step,
                        format!(
                            "tenant {tenant}: mapped LogBlock {} has no OSS object — \
                             GC deleted a live block",
                            entry.path
                        ),
                    ));
                }
            }
        }
        self.check_counters(step)
    }

    /// One tenant's differential battery.
    fn check_tenant(
        &mut self,
        step: usize,
        tenant: u64,
        reconcile: bool,
    ) -> Result<(), SimFailure> {
        let engine = self.engine.as_ref().expect("episode engine is open");
        let sql = format!("SELECT latency FROM request_log WHERE tenant_id = {tenant}");
        let sequential = engine
            .query_with_options(&sql, &QueryOptions::default().with_parallelism(1))
            .map_err(|e| self.plain_failure(step, format!("sequential query failed: {e}")))?;
        let parallel = engine
            .query_with_options(&sql, &QueryOptions::default())
            .map_err(|e| self.plain_failure(step, format!("parallel query failed: {e}")))?;
        if sequential.result != parallel.result {
            return Err(self.plain_failure(
                step,
                format!("tenant {tenant}: parallel result differs from sequential reference"),
            ));
        }
        // Aggregation-pushdown differential: partial aggregate states
        // merged across sources must reproduce the row-materializing
        // (pushdown-off) plan bit for bit, and COUNT(*) must agree with
        // the materialized row count.
        let agg_sql = format!(
            "SELECT COUNT(*), MIN(latency), MAX(latency), SUM(latency) \
             FROM request_log WHERE tenant_id = {tenant}"
        );
        let pushed = engine
            .query_with_options(&agg_sql, &QueryOptions::default())
            .map_err(|e| self.plain_failure(step, format!("pushdown query failed: {e}")))?;
        let transported = engine
            .query_with_options(
                &agg_sql,
                &QueryOptions { use_pushdown: false, ..QueryOptions::default() },
            )
            .map_err(|e| self.plain_failure(step, format!("pushdown-off query failed: {e}")))?;
        if pushed.result != transported.result {
            return Err(self.plain_failure(
                step,
                format!("tenant {tenant}: pushdown result differs from row-materializing plan"),
            ));
        }
        let expected_count = Value::U64(sequential.result.rows.len() as u64);
        if pushed.result.rows.first().and_then(|r| r.first()) != Some(&expected_count) {
            return Err(self.plain_failure(
                step,
                format!("tenant {tenant}: COUNT(*) disagrees with materialized row count"),
            ));
        }
        let mut uids = Vec::with_capacity(sequential.result.rows.len());
        for row in &sequential.result.rows {
            match row.first() {
                Some(Value::I64(uid)) => uids.push(*uid),
                other => {
                    return Err(self.plain_failure(
                        step,
                        format!("tenant {tenant}: unexpected uid cell {other:?}"),
                    ));
                }
            }
        }
        uids.sort_unstable();
        for pair in uids.windows(2) {
            if pair[0] == pair[1] {
                return Err(self.plain_failure(
                    step,
                    format!("tenant {tenant}: row uid {} appears more than once", pair[0]),
                ));
            }
        }
        let engine_uids: BTreeSet<i64> = uids.into_iter().collect();
        // Phantoms / in-doubt promotion.
        let mut promoted = Vec::new();
        for &uid in &engine_uids {
            let acked = self.oracle.get(&tenant).is_some_and(|m| m.contains_key(&uid));
            if acked {
                continue;
            }
            match self.in_doubt.get(&uid) {
                Some(row) if reconcile && row.tenant_id == TenantId(tenant) => promoted.push(uid),
                _ => {
                    return Err(self.plain_failure(
                        step,
                        format!("tenant {tenant}: engine returned unacknowledged row uid {uid}"),
                    ));
                }
            }
        }
        for uid in promoted {
            let row = self.in_doubt.remove(&uid).expect("promoted uid is in doubt");
            self.oracle.entry(tenant).or_default().insert(uid, row);
            self.report.rows_acked += 1;
            self.trace(step, format!("promoted in-doubt uid {uid} (t{tenant})"));
        }
        // Loss.
        if let Some(acked) = self.oracle.get(&tenant) {
            for uid in acked.keys() {
                if !engine_uids.contains(uid) {
                    return Err(self.plain_failure(
                        step,
                        format!("tenant {tenant}: acknowledged row uid {uid} LOST"),
                    ));
                }
            }
        }
        // Aggregate differentials against the oracle.
        let acked_rows = self.oracle.get(&tenant);
        let expect_count = acked_rows.map_or(0, BTreeMap::len) as u64;
        let expect_failed = acked_rows
            .map_or(0, |rows| rows.values().filter(|r| r.fields[3] == Value::Bool(true)).count())
            as u64;
        let count_sql = format!("SELECT COUNT(*) FROM request_log WHERE tenant_id = {tenant}");
        let failed_sql =
            format!("SELECT COUNT(*) FROM request_log WHERE tenant_id = {tenant} AND fail = true");
        let engine = self.engine.as_ref().expect("episode engine is open");
        for (sql, expected, what) in
            [(count_sql, expect_count, "COUNT(*)"), (failed_sql, expect_failed, "fail=true count")]
        {
            let result = engine
                .query(&sql)
                .map_err(|e| self.plain_failure(step, format!("{what} query failed: {e}")))?;
            let got = match result.rows.first().and_then(|r| r.first()) {
                Some(Value::U64(n)) => *n,
                Some(Value::I64(n)) => *n as u64,
                other => {
                    return Err(self.plain_failure(
                        step,
                        format!("tenant {tenant}: {what} returned {other:?}"),
                    ));
                }
            };
            if got != expected {
                return Err(self.plain_failure(
                    step,
                    format!("tenant {tenant}: {what} = {got}, oracle says {expected}"),
                ));
            }
        }
        Ok(())
    }

    /// `buffered == appended − archived` on every durable shard.
    fn check_counters(&mut self, step: usize) -> Result<(), SimFailure> {
        let engine = self.engine.as_ref().expect("episode engine is open");
        let workers = engine.shared().worker_snapshot();
        for worker in workers {
            for shard in worker.shard_ids() {
                let counters = worker
                    .shard_counters(shard)
                    .map_err(|e| self.plain_failure(step, format!("shard_counters: {e}")))?;
                let Some((appended, archived)) = counters else { continue };
                let buffered = worker
                    .buffered_rows(shard)
                    .map_err(|e| self.plain_failure(step, format!("buffered_rows: {e}")))?
                    as u64;
                let expected = appended.checked_sub(archived).ok_or_else(|| {
                    self.plain_failure(
                        step,
                        format!("{shard}: archived {archived} exceeds appended {appended}"),
                    )
                })?;
                if buffered != expected {
                    return Err(self.plain_failure(
                        step,
                        format!(
                            "{shard}: buffered {buffered} != appended {appended} − archived {archived}"
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    fn make_record(&mut self, tenant: u64) -> LogRecord {
        self.clock_ms += 1;
        let mut record = self.generator.record(TenantId(tenant), Timestamp(self.clock_ms));
        let uid = self.next_uid;
        self.next_uid += 1;
        // The latency column doubles as the row's identity: unique per
        // episode, so loss and duplication are individually attributable.
        record.fields[2] = Value::I64(uid);
        record
    }

    fn fault_layer(&self) -> &FaultyStore<MemoryStore> {
        self.store.inner().inner()
    }

    fn trace(&mut self, step: usize, line: String) {
        self.report.trace.push(format!("[{step:03}] {line}"));
    }

    fn failure(&self, step: usize, message: String) -> SimFailure {
        self.plain_failure(step, message)
    }

    fn plain_failure(&self, step: usize, message: String) -> SimFailure {
        SimFailure { seed: self.seed, step, message, trace: self.report.trace.clone() }
    }
}

fn uid_of(record: &LogRecord) -> i64 {
    match record.fields[2] {
        Value::I64(uid) => uid,
        ref other => unreachable!("harness records carry I64 uids, found {other:?}"),
    }
}

impl Drop for Episode {
    fn drop(&mut self) {
        // The engine holds WAL file handles; drop it before the sweep.
        self.engine = None;
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}
