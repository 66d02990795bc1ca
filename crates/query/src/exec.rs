//! Query execution: per-source collection, partial-result merging and
//! finalization.
//!
//! A LogStore query runs against several sources at once — the real-time
//! row store on each routed shard plus every pruned-in LogBlock on OSS.
//! Each source yields a [`Partial`]; the broker merges partials and
//! finalizes (ordering, limiting, header construction) once.
//!
//! Aggregation supports the paper's "lightweight BI" surface: `COUNT(*)`,
//! `COUNT/SUM/MIN/MAX/AVG(col)`, optionally per `GROUP BY` group, with
//! `ORDER BY COUNT(*)` top-k.

use crate::ast::{AggFunc, GroupKey, OrderKey, Query, SelectItem};
use logstore_logblock::scan::ScanStats;
use logstore_types::{Cell, Error, Result, TableSchema, Value};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// `Value` wrapper ordered by [`Value::total_cmp`], usable as a BTreeMap key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrdValue(pub Value);

impl Eq for OrdValue {}

impl PartialOrd for OrdValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdValue {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Accumulator for one aggregate item. One state tracks everything the five
/// functions need; `finalize` extracts the requested statistic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AggState {
    /// Rows counted (non-null values for `FUNC(col)`, all rows for
    /// `COUNT(*)`).
    pub count: u64,
    /// Numeric sum (i128 so mixes of extreme i64/u64 cannot overflow).
    pub sum: i128,
    /// Smallest value seen.
    pub min: Option<OrdValue>,
    /// Largest value seen.
    pub max: Option<OrdValue>,
}

impl AggState {
    /// Folds one cell in. `None` means the item is `COUNT(*)` (row-counted).
    /// The cell is copied only when it becomes the new `min` or `max`.
    pub fn update(&mut self, cell: Option<Cell<'_>>) {
        let Some(v) = cell else {
            self.count += 1;
            return;
        };
        match v {
            Cell::Null => return,
            Cell::I64(n) => self.sum += i128::from(n),
            Cell::U64(n) => self.sum += i128::from(n),
            Cell::Str(_) | Cell::Bool(_) => {}
        }
        self.count += 1;
        if self.min.as_ref().is_none_or(|m| v.total_cmp(m.0.cell()) == Ordering::Less) {
            self.min = Some(OrdValue(v.to_value()));
        }
        if self.max.as_ref().is_none_or(|m| v.total_cmp(m.0.cell()) == Ordering::Greater) {
            self.max = Some(OrdValue(v.to_value()));
        }
    }

    /// Merges a peer accumulator (cross-source combination).
    pub fn merge(&mut self, other: &AggState) {
        self.count += other.count;
        self.sum += other.sum;
        if let Some(m) = &other.min {
            if self.min.as_ref().is_none_or(|cur| m < cur) {
                self.min = Some(m.clone());
            }
        }
        if let Some(m) = &other.max {
            if self.max.as_ref().is_none_or(|cur| m > cur) {
                self.max = Some(m.clone());
            }
        }
    }

    /// Extracts the requested statistic.
    pub fn finalize(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count => Value::U64(self.count),
            AggFunc::Sum => {
                Value::I64(self.sum.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64)
            }
            AggFunc::Min => self.min.clone().map_or(Value::Null, |v| v.0),
            AggFunc::Max => self.max.clone().map_or(Value::Null, |v| v.0),
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::I64((self.sum / i128::from(self.count)) as i64)
                }
            }
        }
    }
}

/// A source's contribution to a query.
#[derive(Debug, Clone, PartialEq)]
pub enum Partial {
    /// Non-aggregate: materialized rows in internal-column layout.
    Rows(Vec<Vec<Value>>),
    /// `GROUP BY g`: per-group accumulators, one per aggregate item.
    Groups(BTreeMap<OrdValue, Vec<AggState>>),
    /// Global aggregate (no GROUP BY): one accumulator per aggregate item.
    Agg(Vec<AggState>),
}

/// Execution counters aggregated across sources.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct QueryStats {
    /// Data-skipping scanner counters.
    pub scan: ScanStats,
    /// LogBlocks visited (after LogBlock-map pruning).
    pub blocks_visited: u64,
    /// Real-time rows scanned.
    pub realtime_rows_scanned: u64,
    /// Prefetch block fetches that failed (non-fatal: the scan falls back
    /// to demand reads; only demand-read failures abort a query).
    pub prefetch_errors: u64,
}

impl QueryStats {
    /// Accumulates another source's counters into this one. Every field is
    /// a sum, so merging is commutative — parallel scatter/gather merges
    /// per-source stats in any completion order and still reports exactly
    /// the totals a sequential run would.
    pub fn merge(&mut self, other: &QueryStats) {
        self.scan.merge(&other.scan);
        self.blocks_visited += other.blocks_visited;
        self.realtime_rows_scanned += other.realtime_rows_scanned;
        self.prefetch_errors += other.prefetch_errors;
    }
}

/// A finalized result set.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<Value>>,
}

/// The identity partial for a query's shape.
pub fn empty_partial(query: &Query) -> Partial {
    if query.is_aggregate() {
        if query.group_by.is_some() {
            Partial::Groups(BTreeMap::new())
        } else {
            Partial::Agg(vec![AggState::default(); query.aggregate_items().len()])
        }
    } else {
        Partial::Rows(Vec::new())
    }
}

/// The columns a source must materialize for a non-aggregate query:
/// expanded projection plus (if needed) the ORDER BY column appended at
/// the end. Returns `(names, order_col_extra)` where `order_col_extra`
/// flags that the last column exists only for sorting and is stripped at
/// finalize.
pub(crate) fn internal_columns(query: &Query, schema: &TableSchema) -> Result<(Vec<String>, bool)> {
    let mut cols: Vec<String> = Vec::new();
    for item in &query.projection {
        match item {
            SelectItem::AllColumns => cols.extend(schema.columns.iter().map(|c| c.name.clone())),
            SelectItem::Column(c) => cols.push(c.clone()),
            SelectItem::CountStar | SelectItem::Agg(..) | SelectItem::TimeBucket { .. } => {}
        }
    }
    let mut extra = false;
    if let Some(order) = &query.order_by {
        if let OrderKey::Column(c) = &order.key {
            if !cols.contains(c) {
                if schema.column(c).is_none() {
                    return Err(Error::Query(format!("unknown ORDER BY column '{c}'")));
                }
                cols.push(c.clone());
                extra = true;
            }
        }
    }
    Ok((cols, extra))
}

/// The distinct columns aggregation must read: group column first (if
/// any), then each aggregate argument. Returns `(column names,
/// per-agg-item index into the names, group key)`.
pub(crate) fn agg_columns(query: &Query) -> (Vec<String>, Vec<Option<usize>>, Option<GroupKey>) {
    let mut cols: Vec<String> = Vec::new();
    let mut push = |name: &str| -> usize {
        if let Some(i) = cols.iter().position(|c| c == name) {
            i
        } else {
            cols.push(name.to_string());
            cols.len() - 1
        }
    };
    let group = query.group_by.clone();
    if let Some(g) = &group {
        push(g.column());
    }
    let mut item_cols = Vec::new();
    for (_, col) in query.aggregate_items() {
        item_cols.push(col.as_deref().map(&mut push));
    }
    (cols, item_cols, group)
}

/// Merges partials from multiple sources. All partials must share the
/// query's shape.
pub fn merge_partials(partials: Vec<Partial>) -> Result<Partial> {
    let mut iter = partials.into_iter();
    let Some(mut acc) = iter.next() else {
        return Ok(Partial::Rows(Vec::new()));
    };
    for p in iter {
        match (&mut acc, p) {
            (Partial::Rows(a), Partial::Rows(b)) => a.extend(b),
            (Partial::Agg(a), Partial::Agg(b)) => {
                if a.len() != b.len() {
                    return Err(Error::Internal("aggregate arity mismatch".into()));
                }
                for (x, y) in a.iter_mut().zip(&b) {
                    x.merge(y);
                }
            }
            (Partial::Groups(a), Partial::Groups(b)) => {
                for (k, states) in b {
                    match a.entry(k) {
                        std::collections::btree_map::Entry::Vacant(e) => {
                            e.insert(states);
                        }
                        std::collections::btree_map::Entry::Occupied(mut e) => {
                            for (x, y) in e.get_mut().iter_mut().zip(&states) {
                                x.merge(y);
                            }
                        }
                    }
                }
            }
            _ => return Err(Error::Internal("mismatched partial shapes".into())),
        }
    }
    Ok(acc)
}

/// Output header names in projection order.
fn output_columns(query: &Query, schema: &TableSchema) -> Vec<String> {
    let mut out = Vec::new();
    for item in &query.projection {
        match item {
            SelectItem::AllColumns => out.extend(schema.columns.iter().map(|c| c.name.clone())),
            SelectItem::Column(c) => out.push(c.clone()),
            SelectItem::CountStar => out.push("COUNT(*)".to_string()),
            SelectItem::Agg(func, c) => out.push(format!("{}({c})", func.name())),
            SelectItem::TimeBucket { column, width_ms } => {
                out.push(format!("TIMEBUCKET({column}, {width_ms})"))
            }
        }
    }
    out
}

/// Builds one output row from a group key + its finalized states following
/// the projection order.
fn project_agg_row(query: &Query, group_key: Option<&Value>, states: &[AggState]) -> Vec<Value> {
    let items = query.aggregate_items();
    let mut agg_idx = 0;
    let mut row = Vec::with_capacity(query.projection.len());
    for item in &query.projection {
        match item {
            SelectItem::Column(_) | SelectItem::AllColumns | SelectItem::TimeBucket { .. } => {
                // The group key is already bucket-transformed where needed.
                row.push(group_key.cloned().unwrap_or(Value::Null));
            }
            SelectItem::CountStar | SelectItem::Agg(..) => {
                let (func, _) = items[agg_idx];
                row.push(states[agg_idx].finalize(func));
                agg_idx += 1;
            }
        }
    }
    row
}

/// Finalizes a merged partial: ordering, limit, output header.
pub fn finalize(partial: Partial, query: &Query, schema: &TableSchema) -> Result<QueryResult> {
    match partial {
        Partial::Agg(states) => Ok(QueryResult {
            columns: output_columns(query, schema),
            rows: vec![project_agg_row(query, None, &states)],
        }),
        Partial::Groups(groups) => {
            let mut entries: Vec<(OrdValue, Vec<AggState>)> = groups.into_iter().collect();
            if let Some(order) = &query.order_by {
                match &order.key {
                    OrderKey::CountStar => {
                        let items = query.aggregate_items();
                        let count_idx = items
                            .iter()
                            .position(|(f, c)| *f == AggFunc::Count && c.is_none())
                            .ok_or_else(|| {
                                Error::Query(
                                    "ORDER BY COUNT(*) requires COUNT(*) in the projection".into(),
                                )
                            })?;
                        entries.sort_by_key(|(_, s)| s[count_idx].count);
                    }
                    OrderKey::Column(_) => {} // BTreeMap is already key-ordered
                }
                if order.descending {
                    entries.reverse();
                }
            }
            if let Some(limit) = query.limit {
                entries.truncate(limit);
            }
            Ok(QueryResult {
                columns: output_columns(query, schema),
                rows: entries
                    .into_iter()
                    .map(|(k, states)| project_agg_row(query, Some(&k.0), &states))
                    .collect(),
            })
        }
        Partial::Rows(mut rows) => {
            let (cols, extra) = internal_columns(query, schema)?;
            if let Some(order) = &query.order_by {
                if let OrderKey::Column(c) = &order.key {
                    let idx = cols
                        .iter()
                        .position(|x| x == c)
                        .ok_or_else(|| Error::Internal("order column missing".into()))?;
                    rows.sort_by(|a, b| a[idx].total_cmp(&b[idx]));
                    if order.descending {
                        rows.reverse();
                    }
                } else {
                    return Err(Error::Query("ORDER BY COUNT(*) without aggregation".into()));
                }
            }
            if let Some(limit) = query.limit {
                rows.truncate(limit);
            }
            let mut columns = cols;
            if extra {
                columns.pop();
                for row in &mut rows {
                    row.pop();
                }
            }
            Ok(QueryResult { columns, rows })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::bind;
    use crate::parser::parse_query;
    use crate::plan::ScanPlan;
    use logstore_logblock::builder::LogBlockBuilder;
    use logstore_logblock::reader::LogBlockReader;
    use logstore_logblock::scan::DecodeStats;

    fn schema() -> TableSchema {
        TableSchema::request_log()
    }

    fn make_rows(n: usize) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| {
                vec![
                    Value::U64(i as u64 % 2),
                    Value::I64(1000 + i as i64),
                    Value::from(format!("ip{}", i % 3)),
                    Value::from("/api"),
                    if i % 9 == 0 { Value::Null } else { Value::I64((i as i64 * 13) % 100) },
                    Value::Bool(i % 4 == 0),
                    Value::from(format!("line {i}")),
                ]
            })
            .collect()
    }

    fn block(n: usize) -> LogBlockReader<Vec<u8>> {
        let mut b =
            LogBlockBuilder::with_options(schema(), logstore_codec::Compression::LzHigh, 16);
        for row in make_rows(n) {
            b.add_row(&row).unwrap();
        }
        LogBlockReader::open(b.finish().unwrap()).unwrap()
    }

    fn q(sql: &str) -> Query {
        bind(&parse_query(sql).unwrap(), &schema()).unwrap()
    }

    /// One block's partial through the reference path `QueryOptions::
    /// baseline()` runs: the pushdown-off plan, row-at-a-time predicate
    /// evaluation, then `finish_partial`.
    fn collect(
        reader: &LogBlockReader<Vec<u8>>,
        query: &Query,
        use_skipping: bool,
        stats: &mut QueryStats,
    ) -> Partial {
        let plan = ScanPlan::new(query, &schema(), false).unwrap();
        let mut decode = DecodeStats::default();
        let shipped = plan.collect_block(reader, use_skipping, stats, &mut decode).unwrap();
        plan.finish_partial(shipped).unwrap()
    }

    fn run(sql: &str, n: usize) -> QueryResult {
        let query = q(sql);
        let p = collect(&block(n), &query, true, &mut QueryStats::default());
        finalize(p, &query, &schema()).unwrap()
    }

    /// Naive oracle over the raw rows for one aggregate function.
    fn oracle<'a>(rows: impl Iterator<Item = &'a Vec<Value>>, col: usize, func: AggFunc) -> Value {
        let mut state = AggState::default();
        for row in rows {
            state.update(Some(row[col].cell()));
        }
        state.finalize(func)
    }

    #[test]
    fn count_star_merges_across_sources() {
        let query = q("SELECT COUNT(*) FROM request_log WHERE fail = true");
        let mut stats = QueryStats::default();
        let p1 = collect(&block(40), &query, true, &mut stats);
        let p2 = collect(&block(40), &query, true, &mut stats);
        assert_eq!(stats.blocks_visited, 2);
        let merged = merge_partials(vec![p1, p2]).unwrap();
        let result = finalize(merged, &query, &schema()).unwrap();
        assert_eq!(result.columns, vec!["COUNT(*)"]);
        assert_eq!(result.rows[0][0], Value::U64(20)); // 10 per block of 40
    }

    #[test]
    fn sum_min_max_avg_match_oracle() {
        let rows = make_rows(80);
        let latency = 4;
        let result = run(
            "SELECT SUM(latency), MIN(latency), MAX(latency), AVG(latency), COUNT(latency) \
             FROM request_log",
            80,
        );
        assert_eq!(
            result.columns,
            vec!["SUM(latency)", "MIN(latency)", "MAX(latency)", "AVG(latency)", "COUNT(latency)"]
        );
        let got = &result.rows[0];
        assert_eq!(got[0], oracle(rows.iter(), latency, AggFunc::Sum));
        assert_eq!(got[1], oracle(rows.iter(), latency, AggFunc::Min));
        assert_eq!(got[2], oracle(rows.iter(), latency, AggFunc::Max));
        assert_eq!(got[3], oracle(rows.iter(), latency, AggFunc::Avg));
        assert_eq!(got[4], oracle(rows.iter(), latency, AggFunc::Count));
        // NULLs (every 9th row) are excluded from COUNT(col).
        let non_null = rows.iter().filter(|r| !r[latency].is_null()).count() as u64;
        assert_eq!(got[4], Value::U64(non_null));
        assert!(non_null < 80);
    }

    #[test]
    fn grouped_aggregates_in_projection_order() {
        let result = run(
            "SELECT ip, COUNT(*), MAX(latency) FROM request_log \
             GROUP BY ip ORDER BY COUNT(*) DESC LIMIT 2",
            60,
        );
        assert_eq!(result.columns, vec!["ip", "COUNT(*)", "MAX(latency)"]);
        assert_eq!(result.rows.len(), 2);
        assert_eq!(result.rows[0][1], Value::U64(20)); // 60 rows over 3 ips
        assert!(matches!(result.rows[0][2], Value::I64(_)));
    }

    #[test]
    fn time_bucket_grouping_buckets_rows() {
        // make_rows assigns ts = 1000 + i, so 60 rows span buckets
        // [1000,1019] -> 1000, [1020,1039] -> 1020, [1040,1059] -> 1040.
        let result = run(
            "SELECT TIMEBUCKET(ts, 20), COUNT(*) FROM request_log GROUP BY TIMEBUCKET(ts, 20)",
            60,
        );
        assert_eq!(result.columns, vec!["TIMEBUCKET(ts, 20)", "COUNT(*)"]);
        assert_eq!(
            result.rows,
            vec![
                vec![Value::I64(1000), Value::U64(20)],
                vec![Value::I64(1020), Value::U64(20)],
                vec![Value::I64(1040), Value::U64(20)],
            ]
        );
    }

    #[test]
    fn avg_of_nothing_is_null() {
        let result = run("SELECT AVG(latency) FROM request_log WHERE latency > 99999", 30);
        assert_eq!(result.rows[0][0], Value::Null);
    }

    #[test]
    fn group_by_with_order_and_limit() {
        let result = run(
            "SELECT ip, COUNT(*) FROM request_log GROUP BY ip \
             ORDER BY COUNT(*) DESC LIMIT 2",
            60,
        );
        assert_eq!(result.columns, vec!["ip", "COUNT(*)"]);
        assert_eq!(result.rows.len(), 2);
        assert_eq!(result.rows[0][1], Value::U64(20));
    }

    #[test]
    fn order_by_non_projected_column_is_stripped() {
        let query = q("SELECT log FROM request_log ORDER BY latency DESC LIMIT 3");
        let p = collect(&block(30), &query, true, &mut QueryStats::default());
        let result = finalize(p, &query, &schema()).unwrap();
        assert_eq!(result.columns, vec!["log"]);
        assert_eq!(result.rows.len(), 3);
        assert_eq!(result.rows[0].len(), 1, "sort helper column must be stripped");
    }

    #[test]
    fn select_star_expands_schema() {
        let query = q("SELECT * FROM request_log LIMIT 1");
        let p = collect(&block(5), &query, true, &mut QueryStats::default());
        let result = finalize(p, &query, &schema()).unwrap();
        assert_eq!(result.columns.len(), 7);
        assert_eq!(result.rows.len(), 1);
    }

    #[test]
    fn mismatched_partials_rejected() {
        let r =
            merge_partials(vec![Partial::Agg(vec![AggState::default()]), Partial::Rows(vec![])]);
        assert!(r.is_err());
        assert_eq!(merge_partials(vec![]).unwrap(), Partial::Rows(vec![]));
    }

    #[test]
    fn skipping_off_gives_same_results() {
        let query = q("SELECT log FROM request_log WHERE latency >= 50 AND fail = false");
        let mut s1 = QueryStats::default();
        let mut s2 = QueryStats::default();
        let with = collect(&block(100), &query, true, &mut s1);
        let without = collect(&block(100), &query, false, &mut s2);
        assert_eq!(with, without);
        assert!(s1.scan.blocks_scanned <= s2.scan.blocks_scanned);
    }

    #[test]
    fn agg_state_folds_typed_cells() {
        let mut nums = AggState::default();
        for cell in [Cell::I64(-3), Cell::Null, Cell::U64(u64::MAX), Cell::I64(7), Cell::U64(7)] {
            nums.update(Some(cell));
        }
        assert_eq!(nums.count, 4, "NULL is not counted");
        assert_eq!(nums.sum, i128::from(u64::MAX) + 11);
        assert_eq!(nums.min, Some(OrdValue(Value::I64(-3))));
        assert_eq!(nums.max, Some(OrdValue(Value::U64(u64::MAX))));

        // Strings and booleans order but do not sum; an equal cell does not
        // displace the one already held.
        let mut strs = AggState::default();
        for cell in [Cell::Str("m"), Cell::Str("b"), Cell::Str("x"), Cell::Str("b")] {
            strs.update(Some(cell));
        }
        assert_eq!((strs.count, strs.sum), (4, 0));
        assert_eq!(strs.finalize(AggFunc::Min), Value::from("b"));
        assert_eq!(strs.finalize(AggFunc::Max), Value::from("x"));
        let mut ties = AggState::default();
        ties.update(Some(Cell::I64(5)));
        ties.update(Some(Cell::U64(5)));
        assert_eq!(ties.min, Some(OrdValue(Value::I64(5))));
        assert_eq!(ties.max, Some(OrdValue(Value::I64(5))));

        // COUNT(*) counts rows, not cells.
        let mut star = AggState::default();
        star.update(None);
        star.update(None);
        assert_eq!((star.count, star.min.clone()), (2, None));
    }

    #[test]
    fn aggregate_states_merge_like_single_pass() {
        let rows = make_rows(90);
        let (a, b) = rows.split_at(40);
        let mut one = AggState::default();
        for r in &rows {
            one.update(Some(r[4].cell()));
        }
        let mut left = AggState::default();
        for r in a {
            left.update(Some(r[4].cell()));
        }
        let mut right = AggState::default();
        for r in b {
            right.update(Some(r[4].cell()));
        }
        left.merge(&right);
        assert_eq!(left, one);
    }
}
