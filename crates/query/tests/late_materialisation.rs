//! The output side of an archived scan, from outside the crate.
//!
//! * Differential: for generated multi-block LogBlocks — NULLs in group
//!   keys and aggregate inputs, string `MIN`/`MAX`, `i64`/`u64` mixes,
//!   `TIMEBUCKET`, a `LIMIT` that cuts inside a column block, predicates
//!   nothing matches — the pushdown plan (typed cells folded where they
//!   lie) finalizes to what `QueryOptions::baseline()` finalizes to
//!   (row-at-a-time predicates, row transport, one fold in the executor),
//!   and a LogBlock and the real-time collector yield the same partial for
//!   the same rows — one tenant's, which the LogBlock holds alone and the
//!   real-time runs hold among the other tenants'.
//! * Structure: a query whose matches all sit in one of four column blocks
//!   reads exactly that block's range of each output column, and hands the
//!   output stage exactly the matched cells.

use logstore_codec::Compression;
use logstore_logblock::meta::col_member;
use logstore_logblock::scan::DecodeStats;
use logstore_logblock::{LogBlockBuilder, LogBlockHandle, LogBlockReader, RangeSource};
use logstore_query::exec::{finalize, merge_partials, Partial};
use logstore_query::{
    analyze, parse_query, ExecutionCounters, Query, QueryStats, RowCollector, ScanPlan,
};
use logstore_types::{LogRecord, Result, TableSchema, TenantId, TimeRange, Timestamp, Value};
use logstore_wal::Run;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

fn schema() -> TableSchema {
    TableSchema::request_log()
}

fn bind(sql: &str) -> Query {
    analyze::bind(&parse_query(sql).unwrap(), &schema()).unwrap()
}

/// (tenant, ts, ip, api, latency, fail, log) with NULLs wherever the
/// schema allows them.
type Row = (u64, i64, Option<String>, String, Option<i64>, Option<bool>, String);

fn row_strategy() -> impl Strategy<Value = Row> {
    (
        prop_oneof![Just(0u64), Just(1), Just(u64::MAX)],
        0..200i64,
        prop_oneof![Just(None), "10\\.0\\.0\\.[1-4]".prop_map(Some)],
        prop_oneof![Just("/a".to_string()), Just("/b".to_string())],
        prop_oneof![Just(None), (-20..120i64).prop_map(Some), Just(Some(i64::MAX))],
        prop_oneof![Just(None), any::<bool>().prop_map(Some)],
        "[a-c]{0,3}",
    )
}

fn to_values(row: &Row) -> Vec<Value> {
    let (tenant, ts, ip, api, latency, fail, log) = row;
    vec![
        Value::U64(*tenant),
        Value::I64(*ts),
        ip.clone().map_or(Value::Null, Value::Str),
        Value::from(api.clone()),
        latency.map_or(Value::Null, Value::I64),
        fail.map_or(Value::Null, Value::Bool),
        Value::from(log.clone()),
    ]
}

fn build_block(rows: &[Row], block_rows: usize) -> LogBlockReader<Vec<u8>> {
    let mut b = LogBlockBuilder::with_options(schema(), Compression::LzHigh, block_rows);
    for row in rows {
        b.add_row(&to_values(row)).unwrap();
    }
    LogBlockReader::open(b.finish().unwrap()).unwrap()
}

fn to_record(row: &Row) -> LogRecord {
    let values = to_values(row);
    LogRecord::new(TenantId(row.0), Timestamp(row.1), values[2..].to_vec())
}

/// Query shapes over the generated rows; `{x}` is a latency threshold and
/// `{n}` a limit, both drawn per case.
const SHAPES: &[&str] = &[
    "SELECT ip, COUNT(*), MIN(log), MAX(log) FROM request_log GROUP BY ip",
    "SELECT latency, COUNT(*), SUM(tenant_id), COUNT(ip) FROM request_log GROUP BY latency",
    "SELECT fail, COUNT(latency), AVG(latency), MAX(tenant_id) FROM request_log GROUP BY fail",
    "SELECT tenant_id, COUNT(*), SUM(latency) FROM request_log WHERE latency >= {x} \
     GROUP BY tenant_id ORDER BY COUNT(*) DESC LIMIT {n}",
    "SELECT SUM(latency), SUM(tenant_id), MIN(latency), MAX(tenant_id), MIN(ip), MAX(ip), \
     COUNT(fail) FROM request_log WHERE latency >= {x}",
    "SELECT TIMEBUCKET(ts, 7), COUNT(*), MAX(latency) FROM request_log WHERE fail = true \
     GROUP BY TIMEBUCKET(ts, 7)",
    "SELECT log, latency FROM request_log WHERE latency >= {x} LIMIT {n}",
    "SELECT * FROM request_log WHERE api = '/a' LIMIT {n}",
    "SELECT log FROM request_log WHERE ts >= {x} ORDER BY latency DESC LIMIT {n}",
    "SELECT ip, COUNT(ip), MIN(ip) FROM request_log WHERE ts > 100000 GROUP BY ip",
    "SELECT COUNT(*), MAX(log), SUM(latency) FROM request_log WHERE ts > 100000",
    "SELECT log FROM request_log WHERE ts > 100000 LIMIT {n}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pushdown_is_the_baseline_and_a_block_is_the_row_store(
        rows in proptest::collection::vec(row_strategy(), 0..150),
        block_rows in 1usize..40,
        shape in 0..SHAPES.len(),
        x in -20..120i64,
        n in 1usize..60,
        use_skipping in any::<bool>(),
        tenant in prop_oneof![Just(0u64), Just(1), Just(u64::MAX)],
        run_rows in 1usize..80,
    ) {
        let sql = SHAPES[shape].replace("{x}", &x.to_string()).replace("{n}", &n.to_string());
        let query = bind(&sql);
        // The tenant's rows as one LogBlock, and every tenant's rows as
        // real-time runs of `run_rows`.
        let of_tenant: Vec<Row> = rows.iter().filter(|r| r.0 == tenant).cloned().collect();
        let reader = build_block(&of_tenant, block_rows);
        let records: Vec<LogRecord> = rows.iter().map(to_record).collect();
        let runs: Vec<Run> = records.chunks(run_rows).map(|c| Run::from_rows(c.to_vec())).collect();

        let mut results = Vec::new();
        for pushdown in [true, false] {
            let plan = ScanPlan::new(&query, &schema(), pushdown).unwrap();
            let (mut stats, mut decode) = (QueryStats::default(), DecodeStats::default());
            let from_block =
                plan.collect_block(&reader, use_skipping, &mut stats, &mut decode).unwrap();
            let mut collector =
                RowCollector::new(&plan, &schema(), TenantId(tenant), TimeRange::all()).unwrap();
            for run in &runs {
                if !collector.push_run(run).unwrap() {
                    break;
                }
            }
            let from_rows = collector.finish(&mut stats, &mut ExecutionCounters::default());
            prop_assert_eq!(&from_block, &from_rows, "block vs real-time partial: {}", &sql);
            if let Partial::Rows(shipped) = &from_block {
                // Every cell handed to the output stage was shipped, and
                // nothing else was looked at.
                let cells: usize = shipped.iter().map(Vec::len).sum();
                prop_assert_eq!(decode.cells_materialized, cells as u64);
            }
            let merged = merge_partials(vec![from_block, from_rows]).unwrap();
            let done = plan.finish_partial(merged).unwrap();
            results.push(finalize(done, &query, &schema()).unwrap());
        }
        prop_assert_eq!(&results[0], &results[1], "pushdown vs baseline: {}", &sql);
    }
}

/// Serves a pack from memory and records every range it is asked for.
struct Recording(Vec<u8>, Rc<RefCell<Vec<(u64, u64)>>>);

impl RangeSource for Recording {
    fn read_at(&self, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.1.borrow_mut().push((offset, len));
        self.0.read_at(offset, len)
    }
    fn size(&self) -> u64 {
        self.0.size()
    }
}

#[test]
fn matches_in_one_column_block_read_one_block_of_each_output_column() {
    // Four column blocks of 64 rows; the slow '/slow' requests all sit in
    // the third.
    let mut b = LogBlockBuilder::with_options(schema(), Compression::LzHigh, 64);
    for i in 0..256i64 {
        let slow = (128..192).contains(&i) && i % 4 == 0;
        b.add_row(&[
            Value::U64(1),
            Value::I64(1000 + i),
            Value::from(format!("10.0.0.{}", i % 7)),
            Value::from(if slow { "/slow" } else { "/fast" }),
            Value::I64(if slow { 900 + i } else { i % 100 }),
            Value::Bool(false),
            Value::from(format!("request {i} took a while")),
        ])
        .unwrap();
    }
    let bytes = b.finish().unwrap();
    let handle = Arc::new(LogBlockHandle::open(&bytes).unwrap());
    let reads = Rc::new(RefCell::new(Vec::new()));
    let reader =
        LogBlockReader::with_handle(Recording(bytes, Rc::clone(&reads)), Arc::clone(&handle));

    let query = bind(
        "SELECT log, latency FROM request_log WHERE tenant_id = 1 \
         AND api = '/slow' AND latency >= 500 LIMIT 1000",
    );
    let plan = ScanPlan::new(&query, &schema(), true).unwrap();
    let (mut stats, mut decode) = (QueryStats::default(), DecodeStats::default());
    let Partial::Rows(rows) = plan.collect_block(&reader, true, &mut stats, &mut decode).unwrap()
    else {
        panic!("a row query ships rows")
    };
    assert_eq!(rows.len(), 16);
    assert_eq!(stats.scan.rows_matched, 16);
    assert_eq!(rows[0], vec![Value::from("request 128 took a while"), Value::I64(1028)]);

    // Object ranges of the column members and of their third block.
    let reads = reads.borrow();
    for name in ["log", "latency"] {
        let col = schema().column_index(name).unwrap();
        let (member_start, member_len) =
            handle.manifest().member_object_range(&col_member(col)).unwrap();
        let third = &handle.meta().columns[col].blocks[2];
        let inside: Vec<(u64, u64)> = reads
            .iter()
            .copied()
            .filter(|(off, _)| (member_start..member_start + member_len).contains(off))
            .collect();
        assert!(!inside.is_empty(), "{name} was never read");
        assert!(
            inside.iter().all(|r| *r == (member_start + third.offset, third.len)),
            "{name}: reads {inside:?} outside block 2 at {}+{}",
            member_start + third.offset,
            third.len
        );
    }
    // Two predicate batches (`api` and `latency`, one undecided block
    // each), then `log` and `latency` once more for output: `latency` is
    // the only column read twice.
    assert_eq!(decode.batches_evaluated, 2);
    assert_eq!(decode.output_blocks_decoded, 2);
    assert_eq!(decode.cells_materialized, 2 * stats.scan.rows_matched);
}
