//! Physical scan planning: aggregation pushdown and row-transport baseline.
//!
//! A bound [`Query`] compiles into one [`ScanPlan`] that every scattered
//! source task executes — one plan, two modes:
//!
//! * **Pushdown on** (`QueryOptions::use_pushdown`, the default): each
//!   LogBlock scan and each real-time shard scan evaluates predicates with
//!   the vectorized batch path — the same [`eval_batch`] kernels over a
//!   decoded column block or a column of a real-time run — and returns
//!   a *partial aggregate state*
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
use logstore_index::RowIdSet;
use logstore_logblock::meta::{col_member, LogBlockMeta};
use logstore_logblock::pack::RangeSource;
use logstore_logblock::reader::LogBlockReader;
use logstore_logblock::scan::{
    eval_batch, evaluate_predicates, evaluate_predicates_vec, predicate_reads, DecodeStats,
};
use logstore_types::{
    Cell, CmpOp, ColumnPredicate, ColumnVec, DataType, Error, Result, TableSchema, TenantId,
    TimeRange, Value,
};
use logstore_wal::Run;
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

/// The one group/aggregate fold over rows laid out as [`ScanPlan::columns`].
/// A LogBlock scan feeds it column by column ([`Fold::push_cell`]), the
/// real-time collector and the baseline's executor-side aggregation row by
/// row ([`Fold::push_row`]); all three get the same [`Partial`] for the
/// same rows.
///
/// A group is a *slot*: its key is looked up borrowed and owned once, when
/// the group is first seen, and the `BTreeMap` a [`Partial::Groups`] is
/// made of is built from the slots at the end.
#[derive(Debug)]
struct Fold {
    group: Option<GroupKey>,
    /// Where a row keeps its group cell and, per aggregate item, its
    /// argument (`None`: `COUNT(*)`), as positions in [`ScanPlan::columns`].
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
    fn over_plan_columns(agg: &AggSpec) -> Fold {
        let states = match agg.group {
            Some(_) => Vec::new(),
            None => vec![vec![AggState::default(); agg.item_cols.len()]],
        };
        Fold {
            group: agg.group.clone(),
            group_col: agg.group.as_ref().map(|_| 0),
            item_cols: agg.item_cols.clone(),
            strs: HashMap::new(),
            others: BTreeMap::new(),
            states,
        }
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

/// Where [`LogRecord`](logstore_types::LogRecord) keeps its two keys in the
/// positional row, whatever the schema calls them.
const TENANT_COL: (usize, DataType) = (0, DataType::UInt64);
const TS_COL: (usize, DataType) = (1, DataType::Int64);

/// The collector of one shard's real-time rows: the plan's predicates,
/// projection and (with pushdown) aggregation applied run by run, over the
/// typed column batches each [`Run`] is made of — the kernels and the fold
/// a LogBlock scan uses, so both sources yield the same [`Partial`] for the
/// same rows.
///
/// A run holds every tenant's rows in arrival order, so the scan first
/// narrows it to the *scope* — the rows of the query's tenant inside its
/// time range, what [`QueryStats::realtime_rows_scanned`] counts — and then
/// applies the WHERE conjuncts.
#[derive(Debug)]
pub struct RowCollector {
    limit_hint: Option<usize>,
    /// The scope: `tenant_id = tenant` as a literal, and the time range.
    tenant: Value,
    range: TimeRange,
    /// `(schema column index, type, predicate)` triples.
    preds: Vec<(usize, DataType, ColumnPredicate)>,
    /// Schema index and type of each of [`ScanPlan::columns`].
    out_cols: Vec<(usize, DataType)>,
    /// The aggregation, for an aggregate plan with pushdown; `None` means
    /// row transport into `rows`.
    fold: Option<Fold>,
    rows: Vec<Vec<Value>>,
    rows_scanned: u64,
    runs_visited: u64,
}

impl RowCollector {
    /// Builds a collector for one real-time source task of a query over
    /// `tenant`'s rows within `range`.
    pub fn new(
        plan: &ScanPlan,
        schema: &TableSchema,
        tenant: TenantId,
        range: TimeRange,
    ) -> Result<RowCollector> {
        let col = |name: &str| {
            let idx = schema
                .column_index(name)
                .ok_or_else(|| Error::Query(format!("unknown column '{name}'")))?;
            Ok((idx, schema.columns[idx].data_type))
        };
        let mut preds = plan
            .predicates
            .iter()
            .map(|p| col(&p.column).map(|(idx, dtype)| (idx, dtype, p.clone())))
            .collect::<Result<Vec<_>>>()?;
        // The conjunct that pins the tenant is what the scope evaluates:
        // once is enough.
        preds.retain(|(idx, _, p)| {
            !(*idx == TENANT_COL.0 && p.op == CmpOp::Eq && p.value.as_u64() == Some(tenant.raw()))
        });
        let out_cols = plan.columns.iter().map(|name| col(name)).collect::<Result<_>>()?;
        let fold = match &plan.agg {
            Some(agg) if plan.pushdown => Some(Fold::over_plan_columns(agg)),
            _ => None,
        };
        Ok(RowCollector {
            limit_hint: plan.limit_hint,
            tenant: Value::U64(tenant.raw()),
            range,
            preds,
            out_cols,
            fold,
            rows: Vec::new(),
            rows_scanned: 0,
            runs_visited: 0,
        })
    }

    /// Feeds one run. Returns `false` when the source may stop early
    /// (unordered `LIMIT` satisfied) — the caller should end its scan.
    pub fn push_run(&mut self, run: &Run) -> Result<bool> {
        let room =
            self.limit_hint.map_or(usize::MAX, |limit| limit.saturating_sub(self.rows.len()));
        if room == 0 {
            return Ok(false);
        }
        self.runs_visited += 1;
        let n = u32::try_from(run.len())
            .map_err(|_| Error::Internal("real-time run exceeds the row-id space".into()))?;
        let column = |(col, dtype): (usize, DataType)| run.column(col, dtype);
        let eval = |batch: &ColumnVec, op: CmpOp, literal: &Value| {
            let mut hits = RowIdSet::empty(n);
            eval_batch(batch, op, literal, 0, &mut hits);
            hits
        };

        let mut scope = eval(&*column(TENANT_COL)?, CmpOp::Eq, &self.tenant);
        if !run.within(self.range) {
            let ts = column(TS_COL)?;
            scope.intersect_with(&eval(&ts, CmpOp::Ge, &Value::I64(self.range.start.millis())));
            scope.intersect_with(&eval(&ts, CmpOp::Le, &Value::I64(self.range.end.millis())));
        }
        let mut matched = scope.clone();
        for (col, dtype, p) in &self.preds {
            if matched.is_empty() {
                break;
            }
            matched.intersect_with(&eval(&*column((*col, *dtype))?, p.op, &p.value));
        }

        // Late materialisation, as in a LogBlock: only a run with a match
        // has its output columns looked at, and only matched cells are.
        let mut scanned = u64::from(scope.count());
        match &mut self.fold {
            // An aggregate looks at every matched cell: it folds them from
            // the run's columns.
            Some(fold) if !matched.is_empty() => {
                let cols = self.out_cols.iter().map(|c| column(*c)).collect::<Result<Vec<_>>>()?;
                for id in &matched {
                    fold.push_row(|c| cols[c].cell(id as usize));
                }
            }
            Some(_) => {}
            // Row transport (non-aggregate, or the pushdown-off baseline)
            // ships an owned copy of each matched cell and, under a LIMIT,
            // of few.
            None => {
                let mut last = None;
                for id in matched.iter().take(room) {
                    let row = self.out_cols.iter().map(|(col, _)| run.cell(*col, id as usize));
                    let row = row.map(Cell::to_value);
                    self.rows.push(row.collect());
                    last = Some(id);
                }
                // An unordered LIMIT ends the scan at the row that filled
                // it: the scope rows behind it were never looked at.
                if let (Some(last), true) = (last, self.limit_hint == Some(self.rows.len())) {
                    scanned = scope.iter().take_while(|id| *id <= last).count() as u64;
                }
            }
        }
        self.rows_scanned += scanned;
        Ok(self.limit_hint.is_none_or(|limit| self.rows.len() < limit))
    }

    /// Finishes the source: folds the scan counter into `stats`, the run
    /// counters into `counters`, and returns the partial in the plan's
    /// shape.
    pub fn finish(self, stats: &mut QueryStats, counters: &mut ExecutionCounters) -> Partial {
        stats.realtime_rows_scanned += self.rows_scanned;
        counters.realtime_runs_visited += self.runs_visited;
        match self.fold {
            Some(fold) => fold.finish(),
            None => Partial::Rows(self.rows),
        }
    }
}

/// Approximate size (bytes) of a partial as shipped from a source task to
/// the gather step — the "bytes leaving the scan layer" metric behind the
/// pushdown-vs-materialization comparison (`ExecutionCounters::partial_bytes`).
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
/// `QueryStats` contract, though in practice all but the last are
/// deterministic too).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ExecutionCounters {
    /// Vectorized-decode volume across all block scans.
    pub decode: DecodeStats,
    /// Approximate bytes the source tasks shipped to the gather step.
    pub partial_bytes: u64,
    /// Real-time runs scanned, across the shards serving the tenant.
    pub realtime_runs_visited: u64,
    /// Real-time runs a snapshot left out: their tenant counts or time
    /// bounds exclude the query.
    pub realtime_runs_pruned: u64,
}

impl ExecutionCounters {
    /// Accumulates one source task's counters and the partial it shipped.
    pub fn absorb(&mut self, source: &ExecutionCounters, partial: &Partial) {
        self.decode.merge(&source.decode);
        self.partial_bytes += partial_approx_bytes(partial);
        self.realtime_runs_visited += source.realtime_runs_visited;
        self.realtime_runs_pruned += source.realtime_runs_pruned;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::bind;
    use crate::exec::{finalize, merge_partials};
    use crate::parser::parse_query;
    use logstore_logblock::builder::LogBlockBuilder;
    use logstore_types::{LogRecord, Timestamp};

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

    fn block_of(rows: impl IntoIterator<Item = Vec<Value>>) -> LogBlockReader<Vec<u8>> {
        let mut b =
            LogBlockBuilder::with_options(schema(), logstore_codec::Compression::LzHigh, 16);
        for row in rows {
            b.add_row(&row).unwrap();
        }
        LogBlockReader::open(b.finish().unwrap()).unwrap()
    }

    fn block(n: usize) -> LogBlockReader<Vec<u8>> {
        block_of(make_rows(n))
    }

    /// The real-time source: `runs` fed to a collector scoped to tenant 1
    /// and all of time.
    fn collect_runs(plan: &ScanPlan, runs: &[Run], stats: &mut QueryStats) -> Partial {
        let mut collector =
            RowCollector::new(plan, &schema(), TenantId(1), TimeRange::all()).unwrap();
        for run in runs {
            if !collector.push_run(run).unwrap() {
                break;
            }
        }
        collector.finish(stats, &mut ExecutionCounters::default())
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
    /// same rows: tenant 1's, which the LogBlock holds alone and the runs
    /// (two, cut mid-way) hold interleaved with tenant 0's.
    #[test]
    fn plan_modes_agree_with_the_reference() {
        for sql in SHAPES {
            for use_skipping in [true, false] {
                let query = q(sql);
                let reader = block_of(make_rows(60).into_iter().filter(|r| r[0] == Value::U64(1)));
                let mut head = records(60);
                let tail = head.split_off(23);
                let runs = [Run::from_rows(head), Run::from_rows(tail)];

                let mut results = Vec::new();
                for pushdown in [true, false] {
                    let plan = ScanPlan::new(&query, &schema(), pushdown).unwrap();
                    let mut stats = QueryStats::default();
                    let mut decode = DecodeStats::default();
                    let from_block =
                        plan.collect_block(&reader, use_skipping, &mut stats, &mut decode).unwrap();
                    let from_rt = collect_runs(&plan, &runs, &mut stats);
                    assert_eq!(from_block, from_rt, "block vs real-time partial for {sql}");
                    let merged = merge_partials(vec![from_block, from_rt]).unwrap();
                    let done = plan.finish_partial(merged).unwrap();
                    results.push(finalize(done, &query, &schema()).unwrap());
                    if plan.limit_hint.is_none() {
                        assert_eq!(stats.realtime_rows_scanned, 30, "{sql}");
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
        assert!(RowCollector::new(&plan, &schema(), TenantId(1), TimeRange::all()).is_err());
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

        // The real-time source stops inside the first run — at tenant 1's
        // second row, the fourth of the run — and never opens the second.
        let runs: Vec<Run> = records(60).chunks(7).map(|c| Run::from_rows(c.to_vec())).collect();
        let mut collector =
            RowCollector::new(&plan, &schema(), TenantId(1), TimeRange::all()).unwrap();
        assert!(!collector.push_run(&runs[0]).unwrap(), "the limit is met: stop");
        assert!(!collector.push_run(&runs[1]).unwrap());
        let mut counters = ExecutionCounters::default();
        let Partial::Rows(rows) = collector.finish(&mut stats, &mut counters) else {
            panic!("expected Rows")
        };
        assert_eq!(rows, vec![vec![Value::from("line 1")], vec![Value::from("line 3")]]);
        assert_eq!(stats.realtime_rows_scanned, 2, "tenant 1's rows up to the one that filled it");
        assert_eq!(counters.realtime_runs_visited, 1);

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
        counters.absorb(&ExecutionCounters { decode, ..Default::default() }, &p);
        assert!(counters.decode.batches_evaluated > 0);
        assert!(counters.partial_bytes > 0);
        // Two real-time sources of one run each.
        let run = [Run::from_rows(records(60))];
        for _ in 0..2 {
            let mut collector =
                RowCollector::new(&plan, &schema(), TenantId(1), TimeRange::all()).unwrap();
            assert!(collector.push_run(&run[0]).unwrap());
            let mut source = ExecutionCounters::default();
            let p = collector.finish(&mut stats, &mut source);
            assert_eq!(source.realtime_runs_visited, 1);
            counters.absorb(&source, &p);
        }
        assert_eq!(counters.realtime_runs_visited, 2);
    }

    #[test]
    fn finish_partial_rejects_shape_mismatch() {
        let query = q("SELECT COUNT(*) FROM request_log");
        let plan = ScanPlan::new(&query, &schema(), false).unwrap();
        assert!(plan.finish_partial(Partial::Agg(vec![AggState::default()])).is_err());
    }
}
