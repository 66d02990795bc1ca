//! The metric registry: every name `BENCHMARK.json` declares, with its unit,
//! and the one place results are printed from.

use std::collections::BTreeMap;

/// One declared metric. `bound` is the regression bound of an end-to-end
/// metric (share of the parent's median); per-layer metrics carry none.
#[derive(Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Def {
    Def { name, unit, higher_is_better: higher, bound }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Def {
    Def { name, unit, higher_is_better: higher, bound: 0.0 }
}

/// End-to-end metrics: printed by every workload with `--trace 0`.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("ingest_rows_per_s", "rows/s", true, 0.25),
    e2e("query_p95_ms", "ms", false, 0.25),
    e2e("queries_per_s", "1/s", true, 0.25),
    e2e("oss_bytes_per_user_byte", "ratio", false, 0.10),
    e2e("peak_rss_mb", "MB", false, 0.20),
];

/// Per-layer metrics (layer = crate/module name): printed by every workload
/// with `--trace 1`. A layer a workload leaves idle reports 0.
pub const PER_LAYER: &[Def] = &[
    // flow / core.controller
    layer("flow.pick_shard_ns", "ns", false),
    layer("flow.rejected_rows", "count", false),
    layer("flow.route_count", "count", false),
    layer("flow.shard_rows_cv", "ratio", false),
    layer("core.controller.tick_ms", "ms", false),
    layer("core.controller.rebalances", "count", false),
    layer("core.controller.expired_blocks", "count", true),
    // core.broker
    layer("core.broker.subbatches_per_ingest", "count", false),
    layer("core.broker.ack_p50_ms", "ms", false),
    layer("core.broker.ack_p99_ms", "ms", false),
    layer("core.broker.ack_over_20ms_time_share", "ratio", false),
    // codec
    layer("codec.encode_batch_ns_per_row", "ns", false),
    layer("codec.lz_compress_mb_per_s", "MB/s", true),
    layer("codec.lz_decompress_mb_per_s", "MB/s", true),
    // wal
    layer("wal.append_us", "us", false),
    layer("wal.payload_bytes_per_user_byte", "ratio", false),
    layer("wal.replay_s", "s", false),
    layer("wal.replay_rows", "count", false),
    // raft
    layer("raft.propose_commit_us", "us", false),
    // core.worker
    layer("core.worker.append_us", "us", false),
    layer("core.worker.buffered_bytes_max", "bytes", false),
    // core.databuilder / logblock / index
    layer("core.databuilder.blocks_built", "count", false),
    layer("core.databuilder.rows_per_block", "count", true),
    layer("core.databuilder.build_us_per_krow", "us", false),
    layer("core.databuilder.failed_passes", "count", false),
    layer("core.databuilder.rows_restored", "count", false),
    layer("logblock.bytes_per_row", "bytes", false),
    layer("logblock.open_us", "us", false),
    layer("logblock.scan_us_per_krow", "us", false),
    layer("index.lookups_per_query", "count", false),
    // oss
    layer("oss.puts", "count", false),
    layer("oss.gets", "count", false),
    layer("oss.other_requests", "count", false),
    layer("oss.bytes_written", "bytes", false),
    layer("oss.bytes_read", "bytes", false),
    layer("oss.modelled_s", "s", false),
    layer("oss.gets_per_query", "count", false),
    layer("oss.put_bytes_per_user_byte", "ratio", false),
    layer("oss.retries", "count", false),
    layer("oss.modelled_share_of_query_wall", "ratio", false),
    // cache
    layer("cache.memory_hits_per_query", "count", true),
    layer("cache.misses_per_query", "count", false),
    layer("cache.bytes_from_origin_per_query", "bytes", false),
    layer("cache.coalesced_gets", "count", true),
    layer("cache.singleflight_waits", "count", false),
    layer("cache.prefetch_errors", "count", false),
    // query
    layer("query.parse_plan_us", "us", false),
    layer("query.map_pruned_share", "ratio", true),
    layer("query.column_blocks_pruned_share", "ratio", true),
    layer("query.blocks_visited_per_query", "count", false),
    layer("query.rows_decoded_per_query", "count", false),
    layer("query.rows_decoded_per_row_matched", "ratio", false),
    layer("query.partial_bytes_per_query", "bytes", false),
    layer("query.realtime_rows_scanned_per_query", "count", false),
    layer("query.stale_retries", "count", false),
    layer("query.errors", "count", false),
    layer("query.p50_ms", "ms", false),
    layer("query.t1_p50_ms", "ms", false),
    layer("query.t2_p50_ms", "ms", false),
    layer("query.t3_p50_ms", "ms", false),
    layer("query.t4_p50_ms", "ms", false),
    layer("query.t5_p50_ms", "ms", false),
    layer("query.t6_p50_ms", "ms", false),
    layer("query.t7_p50_ms", "ms", false),
    layer("query.t8_p50_ms", "ms", false),
    // hot: the warmed, CPU-bound read path, measured by the off-side of
    // `mixed`; reported, not gated (README "Demoted metrics").
    layer("hot.query_p50_ms", "ms", false),
    layer("hot.query_p95_ms", "ms", false),
    layer("hot.queries_per_s", "1/s", true),
    layer("hot.oss_gets_per_query", "count", false),
    // core.compactor
    layer("core.compactor.cycles", "count", true),
    layer("core.compactor.compact_s", "s", false),
    layer("core.compactor.gc_s", "s", false),
    layer("core.compactor.blocks_merged", "count", false),
    layer("core.compactor.bytes_rewritten", "bytes", false),
    layer("core.compactor.gc_deleted", "count", false),
    layer("core.compactor.runs_lost_races", "count", false),
    layer("core.compactor.block_count_end", "count", false),
    layer("core.compactor.tombstones_end", "count", false),
    // Tail latency: reported, not gated (README "Demoted metrics").
    layer("tail.ack_p99_from_due_ms", "ms", false),
    // bench (validity of every number above)
    layer("bench.gen_late_p99_ms", "ms", false),
    layer("bench.gen_cpu_share", "ratio", false),
    layer("bench.trace_overhead_share", "ratio", false),
    layer("bench.failed_share", "ratio", false),
];

/// Values of one run, keyed by declared name.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets a metric. Panics on a name no table declares or one set twice:
    /// either is a bug in this harness, not in the engine.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not declared in metrics.rs"));
        assert!(self.0.insert(def.name, value).is_none(), "metric '{name}' set twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The values of `table` in table order; errors on any the run did not
    /// produce. Undeclared names cannot get in (see [`Values::set`]), so
    /// the result holds each name of the table exactly once.
    pub fn complete(&self, table: &'static [Def]) -> Result<Vec<(&'static Def, f64)>, String> {
        table
            .iter()
            .map(|d| match self.0.get(d.name) {
                Some(v) if v.is_finite() => Ok((d, *v)),
                Some(v) => Err(format!("metric '{}' is not finite: {v}", d.name)),
                None => Err(format!("metric '{}' was not measured", d.name)),
            })
            .collect()
    }
}

/// The last line of a run: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, rows: &[(&Def, f64)]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(d, v)| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", d.name, number(*v), d.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// A JSON number with all the digits measured (never exponent form for the
/// magnitudes this harness produces, never NaN/inf — checked upstream).
pub fn number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn benchmark_json() -> Json {
        json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    /// `(name, unit, better, bound)` rows of one BENCHMARK.json section.
    fn declared(section: &str) -> Vec<(String, String, String, Option<f64>)> {
        let doc = benchmark_json();
        doc.get(section)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no array '{section}'"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better"), m.get("bound").and_then(Json::as_f64))
            })
            .collect()
    }

    fn table_rows(table: &[Def], bounded: bool) -> Vec<(String, String, String, Option<f64>)> {
        table
            .iter()
            .map(|d| {
                let better = if d.higher_is_better { "higher" } else { "lower" };
                (d.name.into(), d.unit.into(), better.into(), bounded.then_some(d.bound))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_registry() {
        assert_eq!(declared("end_to_end"), table_rows(END_TO_END, true));
        assert_eq!(declared("per_layer"), table_rows(PER_LAYER, false));
    }

    #[test]
    fn every_declared_name_is_printed_exactly_once_with_its_unit() {
        for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let mut values = Values::default();
            for (i, d) in table.iter().enumerate() {
                values.set(d.name, i as f64 + 0.5);
            }
            let line = result_line(true, 7, 0, &values.complete(table).unwrap());
            let parsed = json::parse(&line).expect("result line is JSON");
            assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(parsed.get("attempted").and_then(Json::as_f64), Some(7.0));
            let Some(Json::Object(printed)) = parsed.get("metrics") else {
                panic!("metrics must be an object")
            };
            let declared = declared(section);
            assert_eq!(printed.len(), declared.len(), "{section}: one entry per declared name");
            for (name, unit, _, _) in &declared {
                let hits: Vec<_> = printed.iter().filter(|(k, _)| k == name).collect();
                assert_eq!(hits.len(), 1, "{name} printed exactly once");
                assert_eq!(hits[0].1.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                assert!(hits[0].1.get("value").and_then(Json::as_f64).is_some());
            }
        }
    }

    #[test]
    fn contract_limits_hold() {
        let doc = benchmark_json();
        let names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "metric names are used once");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound), "setup_s has the largest bound");
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS, "BENCHMARK.json lists the harness's workloads");
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::config::RUN_SECONDS as f64)
        );
    }

    #[test]
    fn unmeasured_or_unknown_metrics_are_errors() {
        let values = Values::default();
        assert!(values.complete(END_TO_END).unwrap_err().contains("setup_s"));
        let caught = std::panic::catch_unwind(|| Values::default().set("no.such.metric", 1.0));
        assert!(caught.is_err());
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(0.8127), "0.8127");
        assert_eq!(number(1234.56789), "1234.56789");
    }
}
