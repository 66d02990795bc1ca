//! The real-time source against a row-at-a-time oracle.
//!
//! [`RowCollector`] evaluates a query over sealed runs through their
//! column batches and the `eval_batch` kernels. The oracle below walks the
//! same rows one by one — `tenant_id`, the time range, then
//! `ColumnPredicate::matches` per conjunct on materialized cells, the way
//! the row store was scanned before it had runs — and both must agree on
//! the partial *and* on `realtime_rows_scanned`, wherever the runs are cut:
//! every row its own run, runs of seven, one full run, or seal points
//! drawn at random. The eight `tenant_queries` templates ride along with
//! shapes aimed at the kernels' corners: NULLs in every nullable column,
//! `i64`/`u64` cross-type literals, `CONTAINS`, a `LIMIT` that ends inside
//! a run.

use logstore_query::exec::{finalize, merge_partials, Partial};
use logstore_query::{
    analyze, parse_query, ExecutionCounters, Query, QueryScope, QueryStats, RowCollector, ScanPlan,
};
use logstore_types::{
    CmpOp, ColumnPredicate, LogRecord, TableSchema, TenantId, TimeRange, Timestamp, Value,
};
use logstore_wal::Run;
use proptest::prelude::*;

fn schema() -> TableSchema {
    TableSchema::request_log()
}

fn bind(sql: &str) -> Query {
    analyze::bind(&parse_query(sql).unwrap(), &schema()).unwrap()
}

/// (tenant, ts, ip, api, latency, fail, log) with NULLs wherever the
/// schema allows them.
type Row = (u64, i64, Option<String>, Option<String>, Option<i64>, Option<bool>, Option<String>);

fn row_strategy() -> impl Strategy<Value = Row> {
    (
        prop_oneof![3 => Just(1u64), 1 => Just(0u64), 1 => Just(u64::MAX)],
        0..200i64,
        prop_oneof![Just(None), "10\\.1\\.0\\.[1-4]".prop_map(Some)],
        prop_oneof![Just(None), Just(Some("/api/v1/search".to_string())), Just(Some("/b".into()))],
        prop_oneof![Just(None), (-20..700i64).prop_map(Some), Just(Some(i64::MAX))],
        prop_oneof![Just(None), any::<bool>().prop_map(Some)],
        prop_oneof![Just(None), "(timeout|ok|Timeout x|a)".prop_map(Some)],
    )
}

fn to_record(row: &Row) -> LogRecord {
    let (tenant, ts, ip, api, latency, fail, log) = row.clone();
    LogRecord::new(
        TenantId(tenant),
        Timestamp(ts),
        vec![
            ip.map_or(Value::Null, Value::Str),
            api.map_or(Value::Null, Value::Str),
            latency.map_or(Value::Null, Value::I64),
            fail.map_or(Value::Null, Value::Bool),
            log.map_or(Value::Null, Value::Str),
        ],
    )
}

/// The eight templates of `logstore_workload::queries::tenant_queries` for
/// tenant 1 over a history of `ts` 0..200 (`{lo}`/`{hi}` are a window drawn
/// per case), then the corner shapes; `{n}` is a limit drawn per case.
const SHAPES: &[&str] = &[
    "SELECT log FROM request_log WHERE tenant_id = 1 AND ts >= {lo} AND ts <= {hi} LIMIT 1000",
    "SELECT log FROM request_log WHERE tenant_id = 1 AND ts >= {lo} AND ts <= {hi} \
     AND ip = '10.1.0.2' AND latency >= 100 AND fail = false LIMIT 1000",
    "SELECT log FROM request_log WHERE tenant_id = 1 AND ts >= {lo} AND ts <= {hi} \
     AND log CONTAINS 'timeout' LIMIT 1000",
    "SELECT log, latency FROM request_log WHERE tenant_id = 1 \
     AND api = '/api/v1/search' AND latency >= 500 LIMIT 1000",
    "SELECT ip, COUNT(*) FROM request_log WHERE tenant_id = 1 \
     AND api = '/api/v1/search' GROUP BY ip ORDER BY COUNT(*) DESC LIMIT 10",
    "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 AND fail = true",
    "SELECT COUNT(*), SUM(latency), MIN(latency), MAX(latency) FROM request_log \
     WHERE tenant_id = 1 AND ts >= {lo} AND ts <= {hi}",
    "SELECT TIMEBUCKET(ts, 25), COUNT(*) FROM request_log WHERE tenant_id = 1 AND fail = true \
     GROUP BY TIMEBUCKET(ts, 25)",
    // A LIMIT that ends inside a run; NULL group keys and inputs; `!=`
    // (NULL never matches); CONTAINS on a nullable column; no match at all.
    "SELECT log, ip FROM request_log WHERE tenant_id = 1 LIMIT {n}",
    "SELECT * FROM request_log WHERE tenant_id = 1 AND latency >= 0 LIMIT {n}",
    "SELECT latency, COUNT(*), COUNT(ip), MIN(log), MAX(api) FROM request_log \
     WHERE tenant_id = 1 GROUP BY latency",
    "SELECT fail, COUNT(*), SUM(latency), SUM(tenant_id) FROM request_log \
     WHERE tenant_id = 1 GROUP BY fail",
    "SELECT COUNT(*), MAX(tenant_id) FROM request_log WHERE tenant_id = 1 AND ts > {lo}",
    "SELECT COUNT(*), COUNT(api) FROM request_log WHERE tenant_id = 1 AND api != '/b'",
    "SELECT log FROM request_log WHERE tenant_id = 1 AND log CONTAINS 'TIMEOUT' \
     ORDER BY latency DESC LIMIT {n}",
    "SELECT ip, MAX(latency) FROM request_log WHERE tenant_id = 1 AND ts > 100000 GROUP BY ip",
];

/// Conjuncts SQL cannot spell — the binder types a literal after its
/// column — appended to the plan as drawn: `u64` literals on the `i64`
/// columns, `i64` literals (one negative) on the `u64` column, and literals
/// of another type rank altogether, which order every non-NULL cell the
/// same way.
fn extra_predicates() -> Vec<Option<ColumnPredicate>> {
    let p = |column: &str, op, value: Value| Some(ColumnPredicate::new(column, op, value));
    vec![
        None,
        p("latency", CmpOp::Le, Value::U64(u64::MAX)),
        p("latency", CmpOp::Gt, Value::U64(30)),
        p("ts", CmpOp::Ne, Value::U64(7)),
        p("tenant_id", CmpOp::Ge, Value::I64(-5)),
        p("tenant_id", CmpOp::Eq, Value::I64(1)),
        p("fail", CmpOp::Lt, Value::I64(1)),
        p("ip", CmpOp::Lt, Value::Bool(true)),
        p("latency", CmpOp::Contains, Value::from("1")),
    ]
}

/// What the row store did before it had runs: every row of the tenant
/// inside the range is looked at, in arrival order, one materialized cell
/// at a time, until an unordered LIMIT is full. Returns the matched rows in
/// the plan's output columns and the rows looked at.
fn oracle(plan: &ScanPlan, scope: &QueryScope, records: &[LogRecord]) -> (Vec<Vec<Value>>, u64) {
    let schema = schema();
    let col = |name: &str| schema.column_index(name).unwrap();
    let (mut rows, mut scanned) = (Vec::new(), 0);
    for record in records {
        if plan.limit_hint.is_some_and(|limit| rows.len() >= limit) {
            break;
        }
        if Some(record.tenant_id) != scope.tenant || !scope.range.contains(record.ts) {
            continue;
        }
        scanned += 1;
        let row = record.to_row();
        if plan.predicates.iter().all(|p| p.matches(&row[col(&p.column)])) {
            rows.push(plan.columns.iter().map(|name| row[col(name)].clone()).collect());
        }
    }
    (rows, scanned)
}

/// Feeds `runs` to one collector, as a shard task does.
fn collect(plan: &ScanPlan, scope: &QueryScope, runs: &[Run]) -> (Partial, u64, ExecutionCounters) {
    let tenant = scope.tenant.expect("every shape pins a tenant");
    let mut collector = RowCollector::new(plan, &schema(), tenant, scope.range).unwrap();
    for run in runs {
        if !collector.push_run(run).unwrap() {
            break;
        }
    }
    let (mut stats, mut counters) = (QueryStats::default(), ExecutionCounters::default());
    let partial = collector.finish(&mut stats, &mut counters);
    (partial, stats.realtime_rows_scanned, counters)
}

fn cut_into_runs(records: &[LogRecord], seals: &[usize]) -> Vec<Run> {
    let mut runs = Vec::new();
    let mut start = 0;
    for &seal in seals.iter().chain(std::iter::once(&records.len())) {
        let end = seal.clamp(start, records.len());
        if end > start {
            runs.push(Run::from_rows(&schema(), &records[start..end]));
            start = end;
        }
    }
    runs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn a_run_scan_is_the_row_at_a_time_scan(
        rows in proptest::collection::vec(row_strategy(), 0..120),
        shape in 0..SHAPES.len(),
        lo in 0..200i64,
        span in 0..120i64,
        n in 1usize..40,
        seals in proptest::collection::vec(0usize..120, 0..6),
        extra in 0..extra_predicates().len(),
    ) {
        let sql = SHAPES[shape]
            .replace("{lo}", &lo.to_string())
            .replace("{hi}", &(lo + span).to_string())
            .replace("{n}", &n.to_string());
        let query = bind(&sql);
        let scope = QueryScope::extract(&query);
        let records: Vec<LogRecord> = rows.iter().map(to_record).collect();
        let mut seals = seals;
        seals.sort_unstable();
        let sevens: Vec<usize> = (7..records.len()).step_by(7).collect();
        let ones: Vec<usize> = (1..records.len()).collect();

        let mut results = Vec::new();
        for pushdown in [true, false] {
            let mut plan = ScanPlan::new(&query, &schema(), pushdown).unwrap();
            plan.predicates.extend(extra_predicates().swap_remove(extra));
            let (expected_rows, expected_scanned) = oracle(&plan, &scope, &records);
            // The oracle's partial: its rows as shipped, or folded the way
            // the pushdown-off executor folds transported rows.
            let off = ScanPlan { pushdown: false, ..plan.clone() };
            let mut expected = Partial::Rows(expected_rows);
            if pushdown {
                expected = off.finish_partial(expected).unwrap();
            }
            for cut in [&[][..], &sevens, &ones, &seals] {
                let runs = cut_into_runs(&records, cut);
                let (partial, scanned, counters) = collect(&plan, &scope, &runs);
                prop_assert_eq!(&partial, &expected, "{} with seals {:?}", &sql, cut);
                prop_assert_eq!(scanned, expected_scanned, "{} with seals {:?}", &sql, cut);
                prop_assert!(counters.realtime_runs_visited <= runs.len() as u64);
                // A scan leaves its runs as it found them.
                let (again, _, _) = collect(&plan, &scope, &runs);
                prop_assert_eq!(&again, &expected);
            }
            let merged = merge_partials(vec![expected]).unwrap();
            results.push(finalize(plan.finish_partial(merged).unwrap(), &query, &schema()).unwrap());
        }
        prop_assert_eq!(&results[0], &results[1], "pushdown vs baseline: {}", &sql);
    }
}

#[test]
fn a_window_counts_only_the_rows_inside_it() {
    let records: Vec<LogRecord> =
        (0..20).map(|ts| to_record(&(1, ts, None, None, Some(ts), None, None))).collect();
    let runs = cut_into_runs(&records, &[10]);
    let window = |lo, hi| {
        let sql = format!(
            "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 AND ts >= {lo} AND ts <= {hi}"
        );
        let query = bind(&sql);
        let plan = ScanPlan::new(&query, &schema(), true).unwrap();
        // The conjuncts themselves are dropped: what is left is the scope.
        let plan = ScanPlan { predicates: Vec::new(), ..plan };
        (plan, QueryScope::extract(&query))
    };
    // Every row of both runs is inside.
    let (plan, scope) = window(0, 19);
    let (_, scanned, counters) = collect(&plan, &scope, &runs);
    assert_eq!((scanned, counters.realtime_runs_visited), (20, 2));
    // The window cuts the second run.
    let (plan, scope) = window(0, 14);
    assert_eq!(scope.range, TimeRange::new(Timestamp(0), Timestamp(14)));
    let (partial, scanned, _) = collect(&plan, &scope, &runs);
    assert_eq!(scanned, 15);
    let Partial::Agg(states) = partial else { panic!("expected Agg") };
    assert_eq!(states[0].count, 15);
}
