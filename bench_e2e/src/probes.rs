//! Source (C) of the per-layer metrics: in the traced run, sampled real
//! inputs are replayed single-threaded through each layer's public
//! functions on scratch state, so every layer has a cost in isolation to
//! set against its share of the end-to-end time.
//!
//! Each probe reports the median over `Scale::probe_iters` inputs.

use crate::config::{Scale, ScratchDir};
use crate::dataset::{history_start, BatchStream, Stream};
use crate::metrics::Values;
use crate::stats::median;
use logstore_core::databuilder::{build_and_upload, BuildConfig};
use logstore_core::worker::Worker;
use logstore_core::{noop_hooks, LogStore, MetadataStore};
use logstore_logblock::{DecodeStats, LogBlockBuilder, LogBlockReader};
use logstore_oss::MemoryStore;
use logstore_query::{analyze, parse_query, QueryStats, ScanPlan};
use logstore_raft::{InProcCluster, RaftConfig};
use logstore_types::{LogRecord, RecordBatch, ShardId, TableSchema, TenantId, WorkerId};
use logstore_wal::{GroupCommitWal, ShardStore, WalConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Splits `batch` the way the broker does: one sub-batch per routed shard.
fn sub_batches(
    store: &LogStore,
    batch: Vec<LogRecord>,
    selector: &mut u64,
) -> Result<Vec<Vec<LogRecord>>, String> {
    let mut by_shard: BTreeMap<ShardId, Vec<LogRecord>> = BTreeMap::new();
    for record in batch {
        let shard = store
            .shared()
            .controller
            .pick_shard(record.tenant_id, *selector)
            .map_err(|e| format!("pick_shard: {e}"))?;
        *selector += 1;
        by_shard.entry(shard).or_default().push(record);
    }
    Ok(by_shard.into_values().collect())
}

/// Runs every layer probe against inputs regenerated from `seed` (the
/// first batches producer 0 sends) and `queries`, on the live engine's
/// routing table and otherwise scratch state, and sets the `(C)` metrics.
pub fn run(
    store: &LogStore,
    scale: &Scale,
    seed: u64,
    queries: &[Vec<String>],
    values: &mut Values,
) -> Result<(), String> {
    let iters = scale.probe_iters.max(1);
    let schema = TableSchema::request_log();
    let engine_config = store.config();
    let mut stream = BatchStream::new(scale, seed, Stream::Producer(0), history_start());
    let batches: Vec<Vec<LogRecord>> = (0..iters).map(|_| stream.next_batch()).collect();
    let rows: usize = batches.iter().map(Vec::len).sum();

    // flow: the routing decision per row, on the live routing table.
    let started = Instant::now();
    for (selector, record) in batches.iter().flatten().enumerate() {
        let shard = store.shared().controller.pick_shard(record.tenant_id, selector as u64);
        black_box(shard.map_err(|e| format!("pick_shard: {e}"))?);
    }
    values.set("flow.pick_shard_ns", started.elapsed().as_nanos() as f64 / rows as f64);

    // core.broker: WAL appends (= shard sub-batches) per ingest call.
    let mut selector = 0u64;
    let mut subs: Vec<Vec<LogRecord>> = Vec::new();
    let mut per_call = Vec::with_capacity(iters);
    for batch in &batches {
        let split = sub_batches(store, batch.clone(), &mut selector)?;
        per_call.push(split.len() as f64);
        subs.extend(split);
    }
    values.set("core.broker.subbatches_per_ingest", median(&per_call));

    // codec: batch encoding, and LZ over an encoded payload.
    let encode: Vec<f64> = batches
        .iter()
        .map(|b| {
            let t = Instant::now();
            black_box(logstore_codec::batch::encode_batch(black_box(b)));
            t.elapsed().as_nanos() as f64 / b.len() as f64
        })
        .collect();
    values.set("codec.encode_batch_ns_per_row", median(&encode));
    let payload = logstore_codec::batch::encode_batch(
        &batches.iter().take(16).flatten().cloned().collect::<Vec<_>>(),
    );
    let mb = payload.len() as f64 / 1e6;
    let lz_rounds = (iters / 10).max(3);
    let mut compress = Vec::new();
    let mut decompress = Vec::new();
    for _ in 0..lz_rounds {
        let t = Instant::now();
        let frame = logstore_codec::compress(engine_config.compression, black_box(&payload));
        compress.push(mb / t.elapsed().as_secs_f64());
        let t = Instant::now();
        let back = logstore_codec::decompress(black_box(&frame), payload.len())
            .map_err(|e| e.to_string())?;
        decompress.push(mb / t.elapsed().as_secs_f64());
        if back != payload {
            return Err("codec probe: LZ round trip changed the payload".into());
        }
    }
    values.set("codec.lz_compress_mb_per_s", median(&compress));
    values.set("codec.lz_decompress_mb_per_s", median(&decompress));

    // wal: group-commit append of each sub-batch payload, same flush policy.
    let scratch = ScratchDir::new("probes").map_err(|e| format!("probe scratch dir: {e}"))?;
    let (wal, _) = GroupCommitWal::open(scratch.path().join("wal"), WalConfig::default())
        .map_err(|e| format!("probe WAL open: {e}"))?;
    let mut wal_us = Vec::with_capacity(subs.len());
    let (mut payload_bytes, mut user_bytes) = (0u64, 0u64);
    for sub in &subs {
        let payload = ShardStore::encode_batch_payload(sub);
        payload_bytes += payload.len() as u64;
        user_bytes += sub.iter().map(|r| r.approx_size() as u64).sum::<u64>();
        let t = Instant::now();
        wal.append(&payload).map_err(|e| format!("probe WAL append: {e}"))?;
        wal_us.push(micros(t));
    }
    values.set("wal.append_us", median(&wal_us));
    values.set("wal.payload_bytes_per_user_byte", payload_bytes as f64 / user_bytes.max(1) as f64);

    // raft: propose one sub-batch and step the 3-replica group to commit.
    let mut cluster = InProcCluster::new(engine_config.raft_replicas, RaftConfig::default(), seed);
    cluster.run_until_leader(500).ok_or("probe raft group failed to elect")?;
    let mut raft_us = Vec::with_capacity(subs.len());
    for sub in &subs {
        let entry = logstore_codec::batch::encode_batch(sub);
        let t = Instant::now();
        let index = cluster.propose(entry).map_err(|e| format!("probe raft propose: {e}"))?;
        let leader = cluster.any_leader().ok_or("probe raft group lost its leader")?;
        let mut steps = 0;
        while cluster.node(leader).commit_index() < index {
            cluster.step();
            steps += 1;
            if steps > 1000 {
                return Err("probe raft group stalled".into());
            }
        }
        raft_us.push(micros(t));
    }
    values.set("raft.propose_commit_us", median(&raft_us));

    // core.worker: the whole phase-one append (encode, raft, WAL, apply)
    // of each sub-batch on a scratch worker with one durable shard.
    let data_dir = scratch.path().join("worker");
    let worker = Worker::new(
        WorkerId(0),
        &[ShardId(0)],
        &schema,
        engine_config.rowstore_backpressure_bytes,
        engine_config.raft_replicas,
        Some(&data_dir),
        WalConfig::default(),
        seed,
        None,
        noop_hooks(),
    )
    .map_err(|e| format!("probe worker: {e}"))?;
    let mut append_us = Vec::with_capacity(subs.len());
    for sub in &subs {
        let batch = RecordBatch::from_records(sub.clone());
        let t = Instant::now();
        worker.append(ShardId(0), batch).map_err(|e| format!("probe worker append: {e}"))?;
        append_us.push(micros(t));
    }
    values.set("core.worker.append_us", median(&append_us));

    // core.databuilder: drain-sized build into a zero-latency store.
    let build_config = BuildConfig {
        compression: engine_config.compression,
        block_rows: engine_config.block_rows,
        max_rows_per_logblock: engine_config.max_rows_per_logblock,
    };
    let drained: Vec<LogRecord> = batches.iter().flatten().cloned().collect();
    let mut build_us = Vec::new();
    for _ in 0..3 {
        let (sink, catalog) = (MemoryStore::new(), MetadataStore::new());
        let t = Instant::now();
        let outcome = build_and_upload(drained.clone(), &schema, &build_config, &sink, &catalog);
        build_us.push(micros(t) / (drained.len() as f64 / 1e3));
        if !outcome.is_complete() {
            return Err(format!("databuilder probe failed: {:?}", outcome.error));
        }
    }
    values.set("core.databuilder.build_us_per_krow", median(&build_us));

    // logblock: open and scan the largest tenant's block from memory.
    let mut builder = LogBlockBuilder::with_options(
        schema.clone(),
        engine_config.compression,
        engine_config.block_rows,
    );
    let mut block_rows = 0usize;
    let mut tenant_rows: Vec<&LogRecord> =
        drained.iter().filter(|r| r.tenant_id == TenantId(1)).collect();
    tenant_rows.sort_by_key(|r| r.ts);
    for record in tenant_rows {
        builder.add_row(&record.to_row()).map_err(|e| format!("logblock probe: {e}"))?;
        block_rows += 1;
    }
    let bytes = std::sync::Arc::new(builder.finish().map_err(|e| format!("logblock probe: {e}"))?);
    let parsed = parse_query(
        "SELECT COUNT(*), SUM(latency) FROM request_log WHERE tenant_id = 1 AND latency >= 100",
    )
    .map_err(|e| e.to_string())?;
    let bound = analyze::bind(&parsed, &schema).map_err(|e| e.to_string())?;
    let plan = ScanPlan::new(&bound, &schema, true).map_err(|e| e.to_string())?;
    let (mut open_us, mut scan_us) = (Vec::new(), Vec::new());
    for _ in 0..iters.min(50) {
        let t = Instant::now();
        let reader =
            LogBlockReader::open(std::sync::Arc::clone(&bytes)).map_err(|e| e.to_string())?;
        open_us.push(micros(t));
        let (mut stats, mut decode) = (QueryStats::default(), DecodeStats::default());
        let t = Instant::now();
        black_box(
            plan.collect_block(&reader, true, &mut stats, &mut decode)
                .map_err(|e| e.to_string())?,
        );
        scan_us.push(micros(t) / (block_rows.max(1) as f64 / 1e3));
    }
    values.set("logblock.open_us", median(&open_us));
    values.set("logblock.scan_us_per_krow", median(&scan_us));

    // query: SQL text to physical plan.
    let mut plan_us = Vec::new();
    for sql in queries.iter().flatten().take(iters) {
        let t = Instant::now();
        let parsed = parse_query(sql).map_err(|e| format!("{sql}: {e}"))?;
        let bound = analyze::bind(&parsed, &schema).map_err(|e| format!("{sql}: {e}"))?;
        black_box(ScanPlan::new(&bound, &schema, true).map_err(|e| format!("{sql}: {e}"))?);
        plan_us.push(micros(t));
    }
    values.set("query.parse_plan_us", median(&plan_us));
    Ok(())
}
