//! Physical scan planning: aggregation pushdown and row-transport baseline.
//!
//! A bound [`Query`] compiles into one [`ScanPlan`] that every scattered
//! source task executes — one plan, two modes:
//!
//! * **Pushdown on** (`QueryOptions::use_pushdown`, the default): each
//!   LogBlock scan and each real-time shard scan evaluates predicates with
//!   the vectorized batch path and returns a *partial aggregate state*
//!   ([`Partial::Agg`] / [`Partial::Groups`]) instead of matched rows.
//!   Pure `COUNT(*)` queries skip column materialization entirely; unordered
//!   non-aggregate queries stop materializing after `LIMIT` rows per source.
//! * **Pushdown off**: sources ship [`Partial::Rows`] of the aggregate-input
//!   columns (the row-materializing baseline) and the executor aggregates
//!   once after the deterministic merge, via [`ScanPlan::finish_partial`].
//!
//! Both modes fold partials in submission order over commutative,
//! associative accumulators, so results are bit-identical to each other and
//! at every `parallelism` setting.

use crate::ast::{AggFunc, GroupKey, Query};
use crate::exec::{agg_columns, internal_columns, AggState, OrdValue, Partial, QueryStats};
use logstore_logblock::meta::{col_member, LogBlockMeta};
use logstore_logblock::pack::RangeSource;
use logstore_logblock::reader::LogBlockReader;
use logstore_logblock::scan::{
    evaluate_predicates, evaluate_predicates_vec, predicate_reads, DecodeStats,
};
use logstore_types::{Cell, ColumnPredicate, Error, LogRecord, Result, TableSchema, Value};
use std::collections::{BTreeMap, HashMap};

/// The aggregation half of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// Aggregate items in projection order; `None` column is `COUNT(*)`.
    pub items: Vec<(AggFunc, Option<String>)>,
    /// Per item, the index of its argument inside [`ScanPlan::columns`].
    pub item_cols: Vec<Option<usize>>,
    /// Optional group key; its column is always `columns[0]`.
    pub group: Option<GroupKey>,
}

/// The physical plan shipped to every source task of one query.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanPlan {
    /// Bound WHERE conjuncts.
    pub predicates: Vec<ColumnPredicate>,
    /// Columns a source must read: aggregate inputs (group key first) for
    /// aggregate queries, the internal projection otherwise. Empty for pure
    /// `COUNT(*)` — no column data is touched at all.
    pub columns: Vec<String>,
    /// Aggregation spec, `None` for row-returning queries.
    pub agg: Option<AggSpec>,
    /// True: sources return partial aggregate states. False: sources ship
    /// matched rows and aggregation is deferred to [`ScanPlan::finish_partial`].
    pub pushdown: bool,
    /// For unordered non-aggregate queries, the query's `LIMIT`: each source
    /// may stop after this many matches, because `finalize` truncates the
    /// submission-ordered concatenation to the same prefix.
    pub limit_hint: Option<usize>,
}

impl ScanPlan {
    /// Compiles a bound query against the table schema.
    pub fn new(query: &Query, schema: &TableSchema, use_pushdown: bool) -> Result<ScanPlan> {
        if query.is_aggregate() {
            let (columns, item_cols, group) = agg_columns(query);
            Ok(ScanPlan {
                predicates: query.predicates.clone(),
                columns,
                agg: Some(AggSpec { items: query.aggregate_items(), item_cols, group }),
                pushdown: use_pushdown,
                limit_hint: None,
            })
        } else {
            let (columns, _) = internal_columns(query, schema)?;
            Ok(ScanPlan {
                predicates: query.predicates.clone(),
                columns,
                agg: None,
                pushdown: use_pushdown,
                // ORDER BY needs every match before sorting; plain LIMIT is a
                // prefix of the deterministic concatenation, safe to cut
                // per source.
                limit_hint: if query.order_by.is_none() { query.limit } else { None },
            })
        }
    }

    /// Collects this plan's [`Partial`] from one LogBlock.
    ///
    /// Pushdown on: vectorized predicate evaluation (decode volume recorded
    /// in `decode`), then late materialisation — only the matched cells of
    /// the output columns are looked at ([`LogBlockReader::gather`]): a
    /// row query turns each into the `Value` it ships, an aggregate folds
    /// them where they lie, and pure `COUNT(*)` fetches no column at all.
    /// Pushdown off: row-at-a-time oracle evaluation and row transport.
    pub fn collect_block<S: RangeSource>(
        &self,
        reader: &LogBlockReader<S>,
        use_skipping: bool,
        stats: &mut QueryStats,
        decode: &mut DecodeStats,
    ) -> Result<Partial> {
        stats.blocks_visited += 1;
        let ids = if self.pushdown {
            evaluate_predicates_vec(
                reader,
                &self.predicates,
                use_skipping,
                &mut stats.scan,
                decode,
            )?
        } else {
            evaluate_predicates(reader, &self.predicates, use_skipping, &mut stats.scan)?
        };

        let agg = match &self.agg {
            Some(agg) if self.pushdown => agg,
            // Row transport — a row-returning query, or the baseline, which
            // ships the matched rows of the aggregate-input columns
            // (empty-width rows for pure COUNT(*): the row markers still
            // travel to the executor). Only the referenced columns are
            // read, cut to the limit hint before touching column data.
            _ => {
                let mut idv = ids.to_vec();
                if let Some(limit) = self.limit_hint {
                    idv.truncate(limit);
                }
                let mut rows = vec![Vec::new(); idv.len()];
                if !rows.is_empty() && !self.columns.is_empty() {
                    let cols = self.resolve_columns(|name| reader.schema().column_index(name))?;
                    reader
                        .gather(&idv, &cols, decode, |_, i, cell| rows[i].push(cell.to_value()))?;
                }
                return Ok(Partial::Rows(rows));
            }
        };

        // Pushdown: aggregate inside the scan.
        if self.columns.is_empty() {
            // Pure COUNT(*): the row-id set is the whole answer.
            let state = AggState { count: u64::from(ids.count()), ..AggState::default() };
            return Ok(Partial::Agg(vec![state; agg.items.len()]));
        }
        let mut fold = Fold::over_plan_columns(agg);
        let idv = ids.to_vec();
        if !idv.is_empty() {
            let cols = self.resolve_columns(|name| reader.schema().column_index(name))?;
            // Columns arrive one after the other and the group column is
            // `columns[0]`, so every matched row knows its group before the
            // first aggregate input shows up. Without GROUP BY all rows
            // share slot 0.
            let mut slots = vec![0; idv.len()];
            reader.gather(&idv, &cols, decode, |c, i, cell| {
                if fold.group_col == Some(c) {
                    slots[i] = fold.slot(cell);
                }
                fold.push_cell(slots[i], c, cell);
            })?;
        }
        Ok(fold.finish())
    }

    /// The pack members [`ScanPlan::collect_block`] may read from a LogBlock
    /// with this `meta` — a superset, planned from the header alone, of
    /// what it does read (Fig 10's "compute every range the query needs").
    /// A predicate column contributes what [`predicate_reads`] says the
    /// evaluation touches: nothing when the SMAs decide it, its two index
    /// members when the index answers it, its data otherwise. An output
    /// column contributes its data only, and nothing at all when the SMAs
    /// already prove the block matches no row.
    pub fn planned_members(&self, meta: &LogBlockMeta, use_skipping: bool) -> Vec<String> {
        let reads = predicate_reads(meta, &self.predicates, use_skipping);
        let mut members = reads.members;
        if reads.may_match {
            for col in self.columns.iter().filter_map(|name| meta.schema.column_index(name)) {
                let member = col_member(col);
                if !members.contains(&member) {
                    members.push(member);
                }
            }
        }
        members
    }

    /// Resolves [`ScanPlan::columns`] through a name→index lookup.
    fn resolve_columns(&self, lookup: impl Fn(&str) -> Option<usize>) -> Result<Vec<usize>> {
        self.columns
            .iter()
            .map(|name| {
                lookup(name).ok_or_else(|| Error::Query(format!("unknown column '{name}'")))
            })
            .collect()
    }

    /// Completes the executor side of the plan after the deterministic
    /// merge: with pushdown off, aggregate queries arrive as transported
    /// rows and are aggregated here; everything else passes through.
    pub fn finish_partial(&self, merged: Partial) -> Result<Partial> {
        let Some(agg) = &self.agg else { return Ok(merged) };
        if self.pushdown {
            return Ok(merged);
        }
        let Partial::Rows(rows) = merged else {
            return Err(Error::Internal("pushdown-off aggregate expects row transport".into()));
        };
        let mut fold = Fold::over_plan_columns(agg);
        for row in &rows {
            fold.push_row(|c| row[c].cell());
        }
        Ok(fold.finish())
    }
}

/// The one group/aggregate fold. A LogBlock scan feeds it column by column
/// ([`Fold::push_cell`]), the real-time collector and the baseline's
/// executor-side aggregation row by row ([`Fold::push_row`]); all three
/// get the same [`Partial`] for the same rows.
///
/// A group is a *slot*: its key is looked up borrowed and owned once, when
/// the group is first seen, and the `BTreeMap` a [`Partial::Groups`] is
/// made of is built from the slots at the end.
#[derive(Debug)]
struct Fold {
    group: Option<GroupKey>,
    /// Where a row keeps its group cell and, per aggregate item, its
    /// argument (`None`: `COUNT(*)`) — in whatever column numbering the
    /// feeder reads rows by.
    group_col: Option<usize>,
    item_cols: Vec<Option<usize>>,
    /// Slots of string keys, found by `&str`.
    strs: HashMap<String, usize>,
    /// Slots of every other key (NULL, numbers, booleans — building one to
    /// look it up allocates nothing), under `total_cmp` equality like the
    /// partial's own map, so `I64(5)` and `U64(5)` are one group here too.
    others: BTreeMap<OrdValue, usize>,
    /// Per slot, one accumulator per aggregate item. Without GROUP BY
    /// there is exactly slot 0.
    states: Vec<Vec<AggState>>,
}

impl Fold {
    fn new(agg: &AggSpec, group_col: Option<usize>, item_cols: Vec<Option<usize>>) -> Fold {
        let states = match group_col {
            Some(_) => Vec::new(),
            None => vec![vec![AggState::default(); item_cols.len()]],
        };
        Fold {
            group: agg.group.clone(),
            group_col,
            item_cols,
            strs: HashMap::new(),
            others: BTreeMap::new(),
            states,
        }
    }

    /// A fold over rows laid out as [`ScanPlan::columns`].
    fn over_plan_columns(agg: &AggSpec) -> Fold {
        Fold::new(agg, agg.group.as_ref().map(|_| 0), agg.item_cols.clone())
    }

    /// The slot of the group a raw group-column cell belongs to: the cell
    /// itself for plain `GROUP BY col`, the bucket start
    /// (`v.div_euclid(w) * w`) for `TIMEBUCKET`. NULL cells (and non-Int64
    /// cells in a bucketed group) key the NULL group.
    fn slot(&mut self, raw: Cell<'_>) -> usize {
        let key = match (&self.group, raw) {
            // `width_ms > 0` is enforced at parse/bind time; saturate the
            // (pathological, ts near i64::MIN) bucket-start overflow.
            (Some(GroupKey::TimeBucket { width_ms, .. }), Cell::I64(ts)) => {
                Cell::I64(ts.div_euclid(*width_ms).saturating_mul(*width_ms))
            }
            (Some(GroupKey::TimeBucket { .. }), _) => Cell::Null,
            (_, raw) => raw,
        };
        let next = self.states.len();
        let slot = match key {
            Cell::Str(s) => match self.strs.get(s) {
                Some(&slot) => slot,
                None => {
                    self.strs.insert(s.to_string(), next);
                    next
                }
            },
            other => *self.others.entry(OrdValue(other.to_value())).or_insert(next),
        };
        if slot == next {
            self.states.push(vec![AggState::default(); self.item_cols.len()]);
        }
        slot
    }

    /// Folds the cell of column `c` of one row whose slot is known.
    /// `COUNT(*)` items count the row when its first column passes by.
    fn push_cell(&mut self, slot: usize, c: usize, cell: Cell<'_>) {
        for (state, item_col) in self.states[slot].iter_mut().zip(&self.item_cols) {
            match item_col {
                None if c == 0 => state.update(None),
                Some(item_col) if *item_col == c => state.update(Some(cell)),
                _ => {}
            }
        }
    }

    /// Folds one whole row, read through `cell`.
    fn push_row<'c>(&mut self, cell: impl Fn(usize) -> Cell<'c>) {
        let slot = self.group_col.map_or(0, |g| self.slot(cell(g)));
        for (state, item_col) in self.states[slot].iter_mut().zip(&self.item_cols) {
            state.update(item_col.map(&cell));
        }
    }

    fn finish(mut self) -> Partial {
        if self.group.is_none() {
            return Partial::Agg(self.states.swap_remove(0));
        }
        let strs = self.strs.into_iter().map(|(k, slot)| (OrdValue(Value::Str(k)), slot));
        let groups = strs
            .chain(self.others)
            .map(|(key, slot)| (key, std::mem::take(&mut self.states[slot])))
            .collect();
        Partial::Groups(groups)
    }
}

const NULL_VALUE: Value = Value::Null;

/// Streaming collector for the real-time row store: the plan's predicates,
/// projection and (with pushdown) aggregation applied record by record,
/// without materializing a positional row per record.
#[derive(Debug)]
pub struct RowCollector {
    limit_hint: Option<usize>,
    /// `(schema column index, predicate)` pairs.
    preds: Vec<(usize, ColumnPredicate)>,
    /// Schema indices of [`ScanPlan::columns`].
    out_cols: Vec<usize>,
    /// The aggregation (over schema column indices), for an aggregate plan
    /// with pushdown; `None` means row transport into `rows`.
    fold: Option<Fold>,
    rows: Vec<Vec<Value>>,
    rows_scanned: u64,
}

impl RowCollector {
    /// Builds a collector for one real-time source task.
    pub fn new(plan: &ScanPlan, schema: &TableSchema) -> Result<RowCollector> {
        let col = |name: &str| {
            schema
                .column_index(name)
                .ok_or_else(|| Error::Query(format!("unknown column '{name}'")))
        };
        let preds = plan
            .predicates
            .iter()
            .map(|p| Ok((col(&p.column)?, p.clone())))
            .collect::<Result<_>>()?;
        let out_cols = plan.resolve_columns(|name| schema.column_index(name))?;
        let fold = match &plan.agg {
            Some(a) if plan.pushdown => {
                let items = a
                    .items
                    .iter()
                    .map(|(_, c)| c.as_deref().map(col).transpose())
                    .collect::<Result<Vec<_>>>()?;
                let group = a.group.as_ref().map(|g| col(g.column())).transpose()?;
                Some(Fold::new(a, group, items))
            }
            _ => None,
        };
        Ok(RowCollector {
            limit_hint: plan.limit_hint,
            preds,
            out_cols,
            fold,
            rows: Vec::new(),
            rows_scanned: 0,
        })
    }

    /// Feeds one record. Returns `false` when the source may stop early
    /// (unordered `LIMIT` satisfied) — the caller should end its scan.
    pub fn push_record(&mut self, record: &LogRecord) -> bool {
        self.rows_scanned += 1;
        // Positional cell access without building `to_row()`: columns 0 and
        // 1 are the record's keys, the rest live in `fields`.
        let tenant = Value::U64(record.tenant_id.raw());
        let ts = Value::I64(record.ts.millis());
        let value = |idx: usize| -> &Value {
            match idx {
                0 => &tenant,
                1 => &ts,
                i => record.fields.get(i - 2).unwrap_or(&NULL_VALUE),
            }
        };
        if !self.preds.iter().all(|(c, p)| p.matches(value(*c))) {
            return true;
        }
        match &mut self.fold {
            Some(fold) => {
                fold.push_row(|c| value(c).cell());
                true
            }
            None => {
                // Row transport (non-aggregate, or the pushdown-off baseline).
                self.rows.push(self.out_cols.iter().map(|&c| value(c).clone()).collect());
                match self.limit_hint {
                    Some(limit) => self.rows.len() < limit,
                    None => true,
                }
            }
        }
    }

    /// Finishes the source: folds the scan counter into `stats` and returns
    /// the partial in the plan's shape.
    pub fn finish(self, stats: &mut QueryStats) -> Partial {
        stats.realtime_rows_scanned += self.rows_scanned;
        match self.fold {
            Some(fold) => fold.finish(),
            None => Partial::Rows(self.rows),
        }
    }
}

/// Approximate size (bytes) of a partial as shipped from a source task to
/// the gather step — the "bytes leaving the scan layer" metric behind the
/// pushdown-vs-materialization comparison in `BENCH_query.json`.
pub fn partial_approx_bytes(partial: &Partial) -> u64 {
    fn state_bytes(s: &AggState) -> u64 {
        let opt = |v: &Option<OrdValue>| v.as_ref().map_or(1, |o| o.0.approx_size() as u64);
        8 + 16 + opt(&s.min) + opt(&s.max)
    }
    match partial {
        Partial::Rows(rows) => {
            rows.iter().map(|r| 8 + r.iter().map(|v| v.approx_size() as u64).sum::<u64>()).sum()
        }
        Partial::Agg(states) => states.iter().map(state_bytes).sum(),
        Partial::Groups(groups) => groups
            .iter()
            .map(|(k, states)| {
                k.0.approx_size() as u64 + states.iter().map(state_bytes).sum::<u64>()
            })
            .sum(),
    }
}

/// Decode/transport counters for one query execution, reported on
/// `QueryExecution` (engine-observability: excluded from the bit-identical
/// `QueryStats` contract, though in practice these are deterministic too).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ExecutionCounters {
    /// Vectorized-decode volume across all block scans.
    pub decode: DecodeStats,
    /// Approximate bytes the source tasks shipped to the gather step.
    pub partial_bytes: u64,
}

impl ExecutionCounters {
    /// Accumulates one source task's contribution.
    pub fn absorb(&mut self, decode: &DecodeStats, partial: &Partial) {
        self.decode.merge(decode);
        self.partial_bytes += partial_approx_bytes(partial);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::bind;
    use crate::exec::{finalize, merge_partials};
    use crate::parser::parse_query;
    use logstore_logblock::builder::LogBlockBuilder;
    use logstore_types::{TenantId, Timestamp};

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

    fn records(n: usize) -> Vec<LogRecord> {
        make_rows(n)
            .into_iter()
            .map(|row| {
                LogRecord::new(
                    TenantId(row[0].as_u64().unwrap()),
                    Timestamp(row[1].as_i64().unwrap()),
                    row[2..].to_vec(),
                )
            })
            .collect()
    }

    fn q(sql: &str) -> Query {
        bind(&parse_query(sql).unwrap(), &schema()).unwrap()
    }

    const SHAPES: &[&str] = &[
        "SELECT log, latency FROM request_log WHERE tenant_id = 1 AND latency < 50",
        "SELECT COUNT(*) FROM request_log WHERE fail = true",
        "SELECT SUM(latency), MIN(latency), MAX(latency), AVG(latency) FROM request_log",
        "SELECT ip, COUNT(*), MAX(latency) FROM request_log GROUP BY ip",
        "SELECT TIMEBUCKET(ts, 20), COUNT(*) FROM request_log GROUP BY TIMEBUCKET(ts, 20)",
        "SELECT TIMEBUCKET(ts, 32), MAX(latency) FROM request_log GROUP BY TIMEBUCKET(ts, 32)",
        "SELECT log FROM request_log WHERE latency >= 10 LIMIT 3",
        "SELECT log FROM request_log ORDER BY latency DESC LIMIT 3",
        // NULL group keys (every 9th latency), string MIN/MAX, Int64 and
        // UInt64 inputs side by side, a LIMIT that ends inside the second
        // 16-row column block, and predicates nothing matches.
        "SELECT latency, COUNT(*), COUNT(ip) FROM request_log GROUP BY latency",
        "SELECT MIN(ip), MAX(log), COUNT(latency) FROM request_log WHERE ts >= 1010",
        "SELECT fail, SUM(tenant_id), MAX(tenant_id), MIN(latency) FROM request_log GROUP BY fail",
        "SELECT log, ip FROM request_log WHERE latency >= 10 LIMIT 20",
        "SELECT ip, COUNT(*), MAX(log) FROM request_log WHERE latency > 99999 GROUP BY ip",
        "SELECT SUM(latency), MIN(log) FROM request_log WHERE latency > 99999",
    ];

    /// Pushdown on and the pushdown-off reference (`QueryOptions::
    /// baseline()`: row-at-a-time predicates, row transport,
    /// `finish_partial`) finalize to the same result, and within each mode
    /// a LogBlock and the real-time path yield the same partial for the
    /// same rows.
    #[test]
    fn plan_modes_agree_with_the_reference() {
        for sql in SHAPES {
            for use_skipping in [true, false] {
                let query = q(sql);
                let reader = block(60);
                let recs = records(60);

                let mut results = Vec::new();
                for pushdown in [true, false] {
                    let plan = ScanPlan::new(&query, &schema(), pushdown).unwrap();
                    let mut stats = QueryStats::default();
                    let mut decode = DecodeStats::default();
                    let from_block =
                        plan.collect_block(&reader, use_skipping, &mut stats, &mut decode).unwrap();
                    let mut collector = RowCollector::new(&plan, &schema()).unwrap();
                    for r in &recs {
                        if !collector.push_record(r) {
                            break;
                        }
                    }
                    let from_rt = collector.finish(&mut stats);
                    assert_eq!(from_block, from_rt, "block vs real-time partial for {sql}");
                    let merged = merge_partials(vec![from_block, from_rt]).unwrap();
                    let done = plan.finish_partial(merged).unwrap();
                    results.push(finalize(done, &query, &schema()).unwrap());
                    if plan.limit_hint.is_none() {
                        assert_eq!(stats.realtime_rows_scanned, 60, "{sql}");
                    }
                }
                assert_eq!(results[0], results[1], "pushdown diverges from the reference: {sql}");
            }
        }
    }

    #[test]
    fn unknown_predicate_column_is_an_error_on_both_paths() {
        let mut plan = ScanPlan::new(&q("SELECT log FROM request_log"), &schema(), true).unwrap();
        plan.predicates.push(ColumnPredicate::new("ghost", logstore_types::CmpOp::Eq, 1i64));
        assert!(RowCollector::new(&plan, &schema()).is_err());
        let (mut stats, mut decode) = (QueryStats::default(), DecodeStats::default());
        assert!(plan.collect_block(&block(5), true, &mut stats, &mut decode).is_err());
    }

    #[test]
    fn pure_count_skips_column_materialization() {
        let query = q("SELECT COUNT(*) FROM request_log WHERE latency < 50");
        let plan = ScanPlan::new(&query, &schema(), true).unwrap();
        assert!(plan.columns.is_empty());
        let mut stats = QueryStats::default();
        let mut decode = DecodeStats::default();
        let p = plan.collect_block(&block(60), true, &mut stats, &mut decode).unwrap();
        // Only the predicate column was decoded; the count came from the
        // row-id set alone.
        let Partial::Agg(states) = &p else { panic!("expected Agg") };
        assert!(states[0].count > 0);
    }

    #[test]
    fn limit_hint_cuts_per_source_work() {
        let query = q("SELECT log FROM request_log LIMIT 2");
        let plan = ScanPlan::new(&query, &schema(), true).unwrap();
        assert_eq!(plan.limit_hint, Some(2));
        let mut stats = QueryStats::default();
        let mut decode = DecodeStats::default();
        let Partial::Rows(rows) =
            plan.collect_block(&block(60), true, &mut stats, &mut decode).unwrap()
        else {
            panic!("expected Rows")
        };
        assert_eq!(rows.len(), 2, "block source must stop at the limit");

        let mut collector = RowCollector::new(&plan, &schema()).unwrap();
        let mut fed = 0;
        for r in records(60) {
            fed += 1;
            if !collector.push_record(&r) {
                break;
            }
        }
        assert_eq!(fed, 2, "realtime source must stop at the limit");

        // ORDER BY disables the early-out.
        let ordered = q("SELECT log FROM request_log ORDER BY latency ASC LIMIT 2");
        assert_eq!(ScanPlan::new(&ordered, &schema(), true).unwrap().limit_hint, None);
    }

    #[test]
    fn pushdown_ships_fewer_bytes_than_row_transport() {
        let query = q("SELECT ip, COUNT(*), SUM(latency) FROM request_log GROUP BY ip");
        let reader = block(200);
        let mut sizes = Vec::new();
        for pushdown in [true, false] {
            let plan = ScanPlan::new(&query, &schema(), pushdown).unwrap();
            let mut stats = QueryStats::default();
            let mut decode = DecodeStats::default();
            let p = plan.collect_block(&reader, true, &mut stats, &mut decode).unwrap();
            sizes.push(partial_approx_bytes(&p));
        }
        assert!(
            sizes[0] * 4 < sizes[1],
            "aggregated partial ({}) should be far smaller than row transport ({})",
            sizes[0],
            sizes[1]
        );
    }

    #[test]
    fn execution_counters_absorb_sources() {
        let query = q("SELECT COUNT(*) FROM request_log WHERE latency < 50");
        let plan = ScanPlan::new(&query, &schema(), true).unwrap();
        let mut stats = QueryStats::default();
        let mut counters = ExecutionCounters::default();
        let mut decode = DecodeStats::default();
        let p = plan.collect_block(&block(60), true, &mut stats, &mut decode).unwrap();
        counters.absorb(&decode, &p);
        assert!(counters.decode.batches_evaluated > 0);
        assert!(counters.partial_bytes > 0);
    }

    #[test]
    fn finish_partial_rejects_shape_mismatch() {
        let query = q("SELECT COUNT(*) FROM request_log");
        let plan = ScanPlan::new(&query, &schema(), false).unwrap();
        assert!(plan.finish_partial(Partial::Agg(vec![AggState::default()])).is_err());
    }
}
