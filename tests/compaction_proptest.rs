//! Property: a compacted merge of N LogBlocks is indistinguishable from
//! the N originals to every reader — full column scans are bit-identical
//! to the concatenation of the sources, and real queries (aggregates,
//! predicates, skipping on or off) return byte-equal results whether they
//! scan the sources or the merged block.

use logstore::cache::{Prefetcher, TieredCache};
use logstore::core::databuilder::BuildConfig;
use logstore::core::{CompactionConfig, LogBlockEntry, MetadataStore, NoopHooks};
use logstore::logblock::DecodeStats;
use logstore::logblock::{LogBlockBuilder, LogBlockReader};
use logstore::oss::{MemoryStore, ObjectStore};
use logstore::query::exec::{finalize, merge_partials, QueryStats};
use logstore::query::{analyze, parse_query, ScanPlan};
use logstore::types::{TableSchema, TenantId, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// One generated source row: ts, then the nullable columns — ip, api,
/// latency, fail, log — each of which may be NULL.
type Row = (i64, Option<String>, Option<String>, Option<i64>, Option<bool>, Option<String>);

/// `value`, or NULL one time in four.
fn nullable<T: std::fmt::Debug + Clone + 'static>(
    value: impl Strategy<Value = T> + 'static,
) -> impl Strategy<Value = Option<T>> {
    prop_oneof![3 => value.prop_map(Some), 1 => Just(None)]
}

fn row_strategy() -> impl Strategy<Value = Row> {
    (
        0..10_000i64,
        nullable(prop_oneof![Just("10.0.0.1".to_string()), Just("10.0.0.2".to_string())]),
        nullable(prop_oneof![Just("/api".to_string()), Just("/api/v2".to_string())]),
        nullable(0..500i64),
        nullable(any::<bool>()),
        nullable(prop_oneof![
            Just("ok".to_string()),
            Just("timeout calling upstream".to_string()),
            Just("slow query".to_string()),
            Just("cache miss".to_string()),
        ]),
    )
}

fn blocks_strategy() -> impl Strategy<Value = Vec<Vec<Row>>> {
    collection::vec(collection::vec(row_strategy(), 1..40), 2..6)
}

fn to_values(tenant: u64, row: &Row) -> Vec<Value> {
    let (ts, ip, api, latency, fail, log) = row;
    let string = |s: &Option<String>| s.as_deref().map_or(Value::Null, Value::from);
    vec![
        Value::U64(tenant),
        Value::I64(*ts),
        string(ip),
        string(api),
        latency.map_or(Value::Null, Value::I64),
        fail.map_or(Value::Null, Value::Bool),
        string(log),
    ]
}

/// Rows per column block of the merge. The sources are cut at fewer, so
/// the merge's cuts fall inside the sources' blocks.
const MERGED_BLOCK_ROWS: usize = 16;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn merged_block_scans_bit_identically(
        blocks in blocks_strategy(),
        source_block_rows in 1..MERGED_BLOCK_ROWS,
    ) {
        let schema = TableSchema::request_log();
        let store = Arc::new(MemoryStore::new());
        let metadata = MetadataStore::new();
        let tenant = TenantId(1);
        let build = BuildConfig {
            compression: Default::default(),
            block_rows: MERGED_BLOCK_ROWS,
            max_rows_per_logblock: 4096,
        };

        // Build and register the N source blocks as the data builder
        // would, at a smaller column block: rows in arrival order, one
        // object per block.
        let mut source_bytes = Vec::new();
        for rows in &blocks {
            let mut builder = LogBlockBuilder::with_options(
                schema.clone(),
                build.compression,
                source_block_rows,
            );
            for row in rows {
                builder.add_row(&to_values(tenant.raw(), row)).unwrap();
            }
            let (bytes, range, _) = builder.finish_timed().unwrap();
            let range = range.unwrap();
            let path = metadata.allocate_block_path(tenant);
            store.put(&path, &bytes).unwrap();
            metadata
                .register_block(tenant, LogBlockEntry {
                    path,
                    min_ts: range.start,
                    max_ts: range.end,
                    rows: rows.len() as u64,
                    bytes: bytes.len() as u64,
                })
                .unwrap();
            source_bytes.push(bytes);
        }

        let config = CompactionConfig {
            small_block_rows: 4096,
            min_run: 2,
            max_merged_rows: 1 << 20,
        };
        // Every source is cold: fetched as waves of four GETs.
        let wave = Prefetcher::new(
            Arc::clone(&store), Arc::new(TieredCache::memory_only(1 << 20)), 1024, 4,
        );
        let report = logstore::core::compactor::run_compaction(
            store.as_ref(), &metadata, &schema, &build, &config, &NoopHooks, Some(&wave),
        ).unwrap();
        prop_assert_eq!(report.runs_committed, 1);
        prop_assert_eq!(report.blocks_merged as usize, blocks.len());

        let merged_entries = metadata.all_blocks(tenant);
        prop_assert_eq!(merged_entries.len(), 1);
        let merged = LogBlockReader::open(store.get(&merged_entries[0].path).unwrap()).unwrap();

        // 1. Full column scans equal the concatenation of the sources.
        let all_rows: Vec<Vec<Value>> = blocks
            .iter()
            .flat_map(|rows| rows.iter().map(|r| to_values(tenant.raw(), r)))
            .collect();
        prop_assert_eq!(merged.row_count() as usize, all_rows.len());
        let ids: Vec<u32> = (0..merged.row_count()).collect();
        let columns: Vec<usize> = (0..schema.width()).collect();
        let scanned = merged.read_rows(&ids, &columns).unwrap();
        for (i, (got, row)) in scanned.iter().zip(&all_rows).enumerate() {
            prop_assert_eq!(got, row, "row {}", i);
        }
        let first_cut = merged.meta().columns[0].blocks[0].row_count as usize;
        prop_assert_eq!(first_cut, all_rows.len().min(MERGED_BLOCK_ROWS));
        // The merged entry's range is its rows' exact range.
        let ts = all_rows.iter().map(|row| row[1].as_i64().unwrap());
        let range = (ts.clone().min().unwrap(), ts.max().unwrap());
        prop_assert_eq!((merged_entries[0].min_ts.millis(), merged_entries[0].max_ts.millis()), range);

        // 2. Real queries see identical results through the merged block
        // and through the sources (partials folded in block order, the
        // broker's gather order), with skipping both on and off.
        let mid_ts = 5_000;
        for sql in [
            "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1".to_string(),
            "SELECT latency FROM request_log WHERE tenant_id = 1".to_string(),
            format!("SELECT log FROM request_log WHERE tenant_id = 1 AND ts >= {mid_ts}"),
            "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 AND log CONTAINS 'timeout'"
                .to_string(),
        ] {
            let bound = analyze::bind(&parse_query(&sql).unwrap(), &schema).unwrap();
            // The reference path (`QueryOptions::baseline()`): pushdown-off
            // plan, row-at-a-time predicates, aggregation in finish_partial.
            let plan = ScanPlan::new(&bound, &schema, false).unwrap();
            for skipping in [false, true] {
                let (mut stats, mut decode) = (QueryStats::default(), DecodeStats::default());
                let via_merged = finalize(
                    plan.finish_partial(
                        plan.collect_block(&merged, skipping, &mut stats, &mut decode).unwrap(),
                    ).unwrap(),
                    &bound,
                    &schema,
                ).unwrap();

                let mut partials = Vec::new();
                for bytes in &source_bytes {
                    let reader = LogBlockReader::open(bytes.clone()).unwrap();
                    partials.push(
                        plan.collect_block(&reader, skipping, &mut stats, &mut decode).unwrap(),
                    );
                }
                let via_sources = finalize(
                    plan.finish_partial(merge_partials(partials).unwrap()).unwrap(),
                    &bound,
                    &schema,
                ).unwrap();
                prop_assert_eq!(
                    &via_merged.rows, &via_sources.rows,
                    "merged vs sources diverged: {} (skipping={})", sql, skipping
                );
            }
        }
    }
}
