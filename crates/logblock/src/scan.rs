//! The multi-level data-skipping scan (paper §5.1, Figure 8).
//!
//! Given a conjunction of predicates over one LogBlock, evaluation proceeds
//! in the paper's order:
//!
//! 1. **Column-level SMA** — if any predicate cannot match the column's
//!    min/max, the whole block yields nothing (Fig 8 ②).
//! 2. **Index lookup** — predicates on indexed columns resolve to row-id
//!    sets by inverted/BKD lookup without touching column data (Fig 8 ③).
//! 3. **Block-level SMA** — remaining predicates skip column blocks whose
//!    min/max excludes them (Fig 8 ④, the un-indexed `latency` case).
//! 4. **Scan** — surviving blocks are decompressed and filtered row by row;
//!    the per-predicate row-id sets are intersected (Fig 8's "merging the
//!    rowid set") and the matching rows loaded.
//!
//! `use_skipping = false` disables steps 1–3 (the Figure 15 baseline).

use crate::meta::{col_member, index_data_member, index_member, ColumnMeta, LogBlockMeta};
use crate::pack::RangeSource;
use crate::reader::LogBlockReader;
use logstore_index::bkd::u64_to_ord;
use logstore_index::tokenizer::tokenize;
use logstore_index::RowIdSet;
use logstore_types::{
    CmpOp, ColumnData, ColumnPredicate, ColumnVec, DataType, Error, Result, Value,
};
use std::cmp::Ordering;

/// Counters describing how much work a scan did (drives Figure 15's
/// with/without-skipping comparison and EXPERIMENTS.md reporting).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ScanStats {
    /// Scans answered purely from the column-level SMA (block excluded).
    pub pruned_by_column_sma: u64,
    /// Column blocks skipped via block-level SMA.
    pub blocks_pruned: u64,
    /// Column blocks decompressed and scanned.
    pub blocks_scanned: u64,
    /// Index structures loaded and probed.
    pub index_lookups: u64,
    /// Rows matched by the conjunction.
    pub rows_matched: u64,
}

impl ScanStats {
    /// Accumulates another stats record into this one.
    pub fn merge(&mut self, other: &ScanStats) {
        self.pruned_by_column_sma += other.pruned_by_column_sma;
        self.blocks_pruned += other.blocks_pruned;
        self.blocks_scanned += other.blocks_scanned;
        self.index_lookups += other.index_lookups;
        self.rows_matched += other.rows_matched;
    }
}

/// Decode-volume counters of a scan: the predicate side (the first three
/// fields) and the output side (the last two). Kept separate from
/// [`ScanStats`] so they can ride on `QueryExecution` as engine deltas
/// without entering the bit-identical `QueryStats` contract.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DecodeStats {
    /// Rows decoded into typed batches for predicate evaluation.
    pub rows_decoded: u64,
    /// Approximate decoded bytes of those batches (typed buffers + null
    /// bitsets).
    pub bytes_decoded: u64,
    /// Column-block batches run through vectorized predicate evaluation.
    pub batches_evaluated: u64,
    /// Column blocks decoded to load matched rows
    /// ([`LogBlockReader::gather`]).
    pub output_blocks_decoded: u64,
    /// Matched cells handed to the output stage: one per matched row per
    /// output column, whether it became a `Value` or was folded into an
    /// aggregate.
    pub cells_materialized: u64,
}

impl DecodeStats {
    /// Accumulates another stats record into this one.
    pub fn merge(&mut self, other: &DecodeStats) {
        self.rows_decoded += other.rows_decoded;
        self.bytes_decoded += other.bytes_decoded;
        self.batches_evaluated += other.batches_evaluated;
        self.output_blocks_decoded += other.output_blocks_decoded;
        self.cells_materialized += other.cells_materialized;
    }

    /// Records one batch decoded for predicate evaluation.
    pub fn record_batch(&mut self, batch: &ColumnVec) {
        self.rows_decoded += batch.len() as u64;
        self.bytes_decoded += batch.approx_bytes();
        self.batches_evaluated += 1;
    }
}

/// `Value::total_cmp`'s numeric cross-type rule, replicated for typed loops.
fn cmp_i64_u64(a: i64, b: u64) -> Ordering {
    if a < 0 {
        Ordering::Less
    } else {
        (a as u64).cmp(&b)
    }
}

/// Inserts `base + i` for every non-NULL row `i` of `batch` that `keep`
/// accepts. `keep` is a closure the loop is compiled around, and a batch
/// without NULLs — the usual one — is not asked about them row by row.
#[inline(always)]
fn select_rows(batch: &ColumnVec, base: u32, out: &mut RowIdSet, keep: impl Fn(usize) -> bool) {
    if batch.has_nulls() {
        for i in 0..batch.len() {
            if !batch.is_null(i) && keep(i) {
                out.insert(base + i as u32);
            }
        }
    } else {
        for i in 0..batch.len() {
            if keep(i) {
                out.insert(base + i as u32);
            }
        }
    }
}

/// [`select_rows`] for the ordering operators: `ord(i)` is row `i`'s
/// ordering against the literal. The operator is matched once, outside the
/// loop, so each loop compares the way its operator needs and no more.
#[inline(always)]
fn select_ord(
    batch: &ColumnVec,
    op: CmpOp,
    base: u32,
    out: &mut RowIdSet,
    ord: impl Fn(usize) -> Ordering,
) {
    match op {
        CmpOp::Eq => select_rows(batch, base, out, |i| ord(i) == Ordering::Equal),
        CmpOp::Ne => select_rows(batch, base, out, |i| ord(i) != Ordering::Equal),
        CmpOp::Lt => select_rows(batch, base, out, |i| ord(i) == Ordering::Less),
        CmpOp::Le => select_rows(batch, base, out, |i| ord(i) != Ordering::Greater),
        CmpOp::Gt => select_rows(batch, base, out, |i| ord(i) == Ordering::Greater),
        CmpOp::Ge => select_rows(batch, base, out, |i| ord(i) != Ordering::Less),
        CmpOp::Contains => {}
    }
}

/// Evaluates `cell op literal` over a typed batch — a decoded column block
/// or a column of a real-time run — inserting the row id `base + i` of
/// every match into `out`. Exactly equivalent to calling
/// [`ColumnPredicate::matches`] on each materialized cell (the row-at-a-time
/// oracle), but with the operator and literal-type dispatch hoisted out of
/// the loop and no per-row `Value` construction.
pub fn eval_batch(batch: &ColumnVec, op: CmpOp, literal: &Value, base: u32, out: &mut RowIdSet) {
    // NULL on either side never matches.
    if literal.is_null() {
        return;
    }
    let n = batch.len();
    match (batch.data(), literal) {
        (ColumnData::I64(vals), Value::I64(b)) => {
            let vals = &vals[..n];
            select_ord(batch, op, base, out, |i| vals[i].cmp(b));
        }
        (ColumnData::I64(vals), Value::U64(b)) => {
            let vals = &vals[..n];
            select_ord(batch, op, base, out, |i| cmp_i64_u64(vals[i], *b));
        }
        (ColumnData::U64(vals), Value::U64(b)) => {
            let vals = &vals[..n];
            select_ord(batch, op, base, out, |i| vals[i].cmp(b));
        }
        (ColumnData::U64(vals), Value::I64(b)) => {
            let vals = &vals[..n];
            select_ord(batch, op, base, out, |i| cmp_i64_u64(*b, vals[i]).reverse());
        }
        (ColumnData::Str { .. }, Value::Str(needle)) if op == CmpOp::Contains => {
            // `contains_term` semantics with the needle lowered once.
            let needle_lc = needle.to_ascii_lowercase();
            if needle_lc.is_empty() {
                return;
            }
            for i in 0..n {
                let Some(hay) = batch.str_at(i) else { continue };
                if hay
                    .split(|c: char| !c.is_ascii_alphanumeric())
                    .any(|tok| tok.eq_ignore_ascii_case(&needle_lc))
                {
                    out.insert(base + i as u32);
                }
            }
        }
        (ColumnData::Str { data, ranges }, Value::Str(b)) => {
            // `str` ordering is byte-wise lexicographic, so the payload
            // bytes are compared as they lie (they were validated as UTF-8
            // when the batch was built); equality looks at the length
            // first.
            let (rhs, ranges) = (b.as_bytes(), &ranges[..n]);
            let bytes = |i: usize| &data[ranges[i].0 as usize..ranges[i].1 as usize];
            match op {
                CmpOp::Eq => select_rows(batch, base, out, |i| bytes(i) == rhs),
                CmpOp::Ne => select_rows(batch, base, out, |i| bytes(i) != rhs),
                op => select_ord(batch, op, base, out, |i| bytes(i).cmp(rhs)),
            }
        }
        (ColumnData::Bool(bits), Value::Bool(b)) => {
            select_ord(batch, op, base, out, |i| (bits[i / 8] & (1 << (i % 8)) != 0).cmp(b));
        }
        // Every remaining combination is cross-type with distinct
        // `type_rank`s (same-rank pairs are all handled above), so
        // `total_cmp` yields one constant ordering for every non-null cell:
        // all non-null rows match, or none do. CONTAINS on anything but
        // (string, string) never matches.
        (data, _) => {
            let representative = match data {
                ColumnData::I64(_) => Value::I64(0),
                ColumnData::U64(_) => Value::U64(0),
                ColumnData::Bool(_) => Value::Bool(false),
                ColumnData::Str { .. } => Value::Str(String::new()),
            };
            let constant = representative.total_cmp(literal);
            select_ord(batch, op, base, out, |_| constant);
        }
    }
}

/// Can this predicate be answered by the column's index?
fn index_capable(kind: logstore_types::IndexKind, dtype: DataType, op: CmpOp) -> bool {
    use logstore_types::IndexKind;
    match (kind, dtype) {
        // Keyword-style columns answer equality (exact terms) and CONTAINS.
        (IndexKind::Inverted, DataType::String) => matches!(op, CmpOp::Eq | CmpOp::Contains),
        // Free-text columns carry tokens only: CONTAINS, never equality.
        (IndexKind::FullText, DataType::String) => op == CmpOp::Contains,
        (IndexKind::Bkd, DataType::Int64 | DataType::UInt64) => {
            matches!(op, CmpOp::Eq | CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge)
        }
        _ => false,
    }
}

/// Maps a comparison against a numeric literal to an inclusive ord-space
/// range, or `None` when the predicate cannot match any value of the
/// column's type (e.g. `uint64 < 0`).
fn numeric_range(dtype: DataType, op: CmpOp, literal: &Value) -> Result<Option<(i64, i64)>> {
    // Express the literal on the column's ord axis, saturating out-of-domain
    // literals to the domain edge with a flag for which side they fell off.
    let (ord, below, above) = match dtype {
        DataType::Int64 => match literal {
            Value::I64(v) => (*v, false, false),
            Value::U64(v) => match i64::try_from(*v) {
                Ok(v) => (v, false, false),
                Err(_) => (i64::MAX, false, true),
            },
            _ => return Err(Error::invalid("numeric predicate with non-numeric literal")),
        },
        DataType::UInt64 => match literal {
            Value::U64(v) => (u64_to_ord(*v), false, false),
            Value::I64(v) if *v >= 0 => (u64_to_ord(*v as u64), false, false),
            Value::I64(_) => (u64_to_ord(0), true, false),
            _ => return Err(Error::invalid("numeric predicate with non-numeric literal")),
        },
        _ => return Err(Error::invalid("numeric range on non-numeric column")),
    };
    let range = match (op, below, above) {
        // Literal below the domain: x > lit / x >= lit / x != lit are all
        // true, x < lit / x <= lit / x == lit are all false.
        (CmpOp::Gt | CmpOp::Ge, true, _) => Some((i64::MIN, i64::MAX)),
        (_, true, _) => None,
        (CmpOp::Lt | CmpOp::Le, _, true) => Some((i64::MIN, i64::MAX)),
        (_, _, true) => None,
        (CmpOp::Eq, _, _) => Some((ord, ord)),
        (CmpOp::Lt, _, _) => ord.checked_sub(1).map(|hi| (i64::MIN, hi)),
        (CmpOp::Le, _, _) => Some((i64::MIN, ord)),
        (CmpOp::Gt, _, _) => ord.checked_add(1).map(|lo| (lo, i64::MAX)),
        (CmpOp::Ge, _, _) => Some((ord, i64::MAX)),
        (CmpOp::Ne | CmpOp::Contains, _, _) => {
            return Err(Error::Internal("non-range op in numeric_range".into()))
        }
    };
    Ok(range)
}

/// What a column block's SMA alone decides about one predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// No row of the block can match (Fig 8 ④).
    NoMatch,
    /// Every row of the block matches.
    AllMatch,
    /// The block has to be looked at: through the column index or decoded.
    Undecided,
}

/// How one predicate is evaluated over one LogBlock column — decided from
/// the meta member alone, before any data is read. The scan executes this
/// and the fetch planner ([`predicate_reads`]) turns it into byte ranges,
/// so the two cannot disagree about what gets read.
struct PredicateAccess {
    /// One verdict per column block, in row order.
    verdicts: Vec<Verdict>,
    /// True: the undecided blocks are resolved by one column-index lookup
    /// (`index.N` + `index.N.data`). False: each is decoded from `col.N`.
    use_index: bool,
}

impl PredicateAccess {
    /// Plans `p` over the column described by `cm`.
    fn plan(cm: &ColumnMeta, dtype: DataType, p: &ColumnPredicate, use_skipping: bool) -> Self {
        // Cheapest evidence first: block SMAs can prove blocks entirely in
        // (`always_matches`) or out (`may_match`, Fig 8 ④) without
        // touching data.
        let verdicts: Vec<Verdict> = cm
            .blocks
            .iter()
            .map(|bm| {
                if !use_skipping {
                    Verdict::Undecided
                } else if !bm.sma.may_match(p.op, &p.value) {
                    Verdict::NoMatch
                } else if bm.sma.always_matches(p.op, &p.value) {
                    Verdict::AllMatch
                } else {
                    Verdict::Undecided
                }
            })
            .collect();
        let undecided = verdicts.iter().filter(|v| **v == Verdict::Undecided).count();
        // String equality on long literals cannot use the inverted index:
        // values beyond MAX_EXACT_LEN carry no exact term (see
        // `logstore_index::inverted::MAX_EXACT_LEN`).
        let exact_indexable = !(dtype == DataType::String
            && p.op == CmpOp::Eq
            && p.value.as_str().is_some_and(|s| s.len() > logstore_index::inverted::MAX_EXACT_LEN));
        // Use the column index only when it is capable for this operator
        // and the SMA left a substantial share of blocks undecided — for a
        // couple of boundary blocks (the typical `ts` range case), scanning
        // them beats fetching the whole-column index from OSS.
        let use_index = use_skipping
            && index_capable(cm.index, dtype, p.op)
            && exact_indexable
            && undecided * 4 > cm.blocks.len().max(1);
        PredicateAccess { verdicts, use_index }
    }

    /// True when the SMAs settle every block: nothing is read.
    fn is_decided(&self) -> bool {
        self.verdicts.iter().all(|v| *v != Verdict::Undecided)
    }
}

/// The pack members a predicate evaluation may read, planned from the
/// meta member alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredicateReads {
    /// Member names, each at most once, in predicate order.
    pub members: Vec<String>,
    /// False when the SMAs already prove that no row matches, so nothing
    /// after the predicates (the output columns) will be read either.
    pub may_match: bool,
}

/// Plans the reads of [`evaluate_predicates`] for `predicates` over a
/// LogBlock with this `meta`: a superset of what the evaluation touches
/// (it stops early once an intermediate result is empty, which only data
/// can tell). Whole members, not per-block ranges.
pub fn predicate_reads(
    meta: &LogBlockMeta,
    predicates: &[ColumnPredicate],
    use_skipping: bool,
) -> PredicateReads {
    // Unknown columns plan nothing; the evaluation reports them.
    let resolved: Vec<(usize, &ColumnPredicate)> = predicates
        .iter()
        .filter_map(|p| meta.schema.column_index(&p.column).map(|col| (col, p)))
        .collect();
    let mut reads = PredicateReads { members: Vec::new(), may_match: true };
    if use_skipping
        && resolved.iter().any(|(col, p)| !meta.columns[*col].sma.may_match(p.op, &p.value))
    {
        reads.may_match = false;
        return reads;
    }
    for (col, p) in resolved {
        let dtype = meta.schema.columns[col].data_type;
        let access = PredicateAccess::plan(&meta.columns[col], dtype, p, use_skipping);
        let wanted = if access.use_index {
            vec![index_member(col), index_data_member(col)]
        } else if access.is_decided() {
            Vec::new()
        } else {
            vec![col_member(col)]
        };
        for member in wanted {
            if !reads.members.contains(&member) {
                reads.members.push(member);
            }
        }
        if !access.use_index && access.verdicts.iter().all(|v| *v == Verdict::NoMatch) {
            reads.may_match = false;
            return reads;
        }
    }
    reads
}

/// Evaluates a conjunction of predicates over one LogBlock, returning the
/// matching row ids. Row-at-a-time `Value` evaluation — kept as the oracle
/// for [`evaluate_predicates_vec`].
pub fn evaluate_predicates<S: RangeSource>(
    reader: &LogBlockReader<S>,
    predicates: &[ColumnPredicate],
    use_skipping: bool,
    stats: &mut ScanStats,
) -> Result<RowIdSet> {
    evaluate_predicates_impl(reader, predicates, use_skipping, stats, None)
}

/// Vectorized predicate evaluation: identical pruning/index structure to
/// [`evaluate_predicates`], but surviving blocks decode into reusable typed
/// [`ColumnVec`] batches and predicates run via [`eval_batch`] selection
/// bitmaps (which then intersect with the index row-id sets). Decode volume
/// is recorded in `decode`.
pub fn evaluate_predicates_vec<S: RangeSource>(
    reader: &LogBlockReader<S>,
    predicates: &[ColumnPredicate],
    use_skipping: bool,
    stats: &mut ScanStats,
    decode: &mut DecodeStats,
) -> Result<RowIdSet> {
    evaluate_predicates_impl(reader, predicates, use_skipping, stats, Some(decode))
}

fn evaluate_predicates_impl<S: RangeSource>(
    reader: &LogBlockReader<S>,
    predicates: &[ColumnPredicate],
    use_skipping: bool,
    stats: &mut ScanStats,
    mut decode: Option<&mut DecodeStats>,
) -> Result<RowIdSet> {
    let n = reader.row_count();
    let mut result = RowIdSet::full(n);
    if predicates.is_empty() {
        stats.rows_matched += u64::from(n);
        return Ok(result);
    }

    // Resolve columns up front so unknown columns fail loudly.
    let mut resolved = Vec::with_capacity(predicates.len());
    for p in predicates {
        let col = reader
            .schema()
            .column_index(&p.column)
            .ok_or_else(|| Error::invalid(format!("unknown column '{}'", p.column)))?;
        resolved.push((col, p));
    }

    if use_skipping {
        // Step 1: column-level SMA pruning (Fig 8 ②).
        for (col, p) in &resolved {
            if !reader.meta().columns[*col].sma.may_match(p.op, &p.value) {
                stats.pruned_by_column_sma += 1;
                return Ok(RowIdSet::empty(n));
            }
        }
    }

    // Steps 2–4 per predicate: only blocks the SMA cannot decide need the
    // column index (Fig 8 ③) or a scan (Fig 8 ⑤).
    // One scratch batch shared across predicates: consecutive predicates on
    // same-typed columns reuse its buffers.
    let mut scratch = ColumnVec::default();
    for (col, p) in &resolved {
        let dtype = reader.schema().columns[*col].data_type;
        let cm = &reader.meta().columns[*col];
        let PredicateAccess { verdicts, use_index } =
            PredicateAccess::plan(cm, dtype, p, use_skipping);
        let blocks = &cm.blocks;
        if use_index {
            stats.index_lookups += 1;
            let ids = match dtype {
                DataType::String => match p.op {
                    CmpOp::Eq => {
                        let Some(s) = p.value.as_str() else {
                            return Err(Error::invalid("string equality with non-string literal"));
                        };
                        reader.index_lookup_exact(*col, s)?
                    }
                    CmpOp::Contains => {
                        let Some(needle) = p.value.as_str() else {
                            return Err(Error::invalid("CONTAINS with non-string literal"));
                        };
                        // CONTAINS matches a single whole term (see
                        // `contains_term`); multi-token or empty needles
                        // match nothing, same as the scan path. A needle
                        // is one term when its only run is all of it.
                        let mut runs = tokenize(needle);
                        match (runs.next(), runs.next()) {
                            (Some(run), None) if run.len() == needle.len() => {
                                reader.index_lookup_token(*col, needle)?
                            }
                            _ => RowIdSet::empty(n),
                        }
                    }
                    _ => unreachable!("index_capable gated"),
                },
                DataType::Int64 | DataType::UInt64 => match numeric_range(dtype, p.op, &p.value)? {
                    Some((lo, hi)) => reader.index_query_range(*col, lo, hi)?,
                    None => RowIdSet::empty(n),
                },
                DataType::Bool => unreachable!("index_capable gated"),
            };
            result.intersect_with(&ids);
        } else {
            let mut matched = RowIdSet::empty(n);
            for ((bi, bm), verdict) in blocks.iter().enumerate().zip(&verdicts) {
                let block_end = bm.row_start + bm.row_count;
                match verdict {
                    Verdict::NoMatch => {
                        stats.blocks_pruned += 1;
                    }
                    Verdict::AllMatch => {
                        matched.insert_range(bm.row_start, block_end);
                    }
                    Verdict::Undecided => {
                        // If everything in this block is already excluded by
                        // earlier predicates, decoding it cannot add matches.
                        if use_skipping && !result.any_in_range(bm.row_start, block_end) {
                            stats.blocks_pruned += 1;
                            continue;
                        }
                        stats.blocks_scanned += 1;
                        match decode.as_deref_mut() {
                            Some(d) => {
                                reader.read_block_vec(*col, bi, &mut scratch)?;
                                d.record_batch(&scratch);
                                eval_batch(&scratch, p.op, &p.value, bm.row_start, &mut matched);
                            }
                            None => {
                                let values = reader.read_block_values(*col, bi)?;
                                for (off, v) in values.iter().enumerate() {
                                    if p.matches(v) {
                                        matched.insert(bm.row_start + off as u32);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            result.intersect_with(&matched);
        }
        if result.is_empty() {
            return Ok(result);
        }
    }

    stats.rows_matched += u64::from(result.count());
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LogBlockBuilder;
    use logstore_codec::Compression;
    use logstore_types::{IndexKind, TableSchema};

    /// 200 rows: ts 1000..1200, ip cycles 0..5, latency = i % 500,
    /// fail = (i % 10 == 0), log mentions "error" on failures.
    fn block() -> LogBlockReader<Vec<u8>> {
        let mut b =
            LogBlockBuilder::with_options(TableSchema::request_log(), Compression::LzHigh, 32);
        for i in 0..200u32 {
            let fail = i % 10 == 0;
            b.add_row(&[
                Value::U64(u64::from(i % 3)),
                Value::I64(1000 + i64::from(i)),
                Value::from(format!("192.168.0.{}", i % 5)),
                Value::from("/api/query"),
                Value::I64(i64::from(i) % 500),
                Value::Bool(fail),
                Value::from(if fail {
                    format!("req {i} error timeout")
                } else {
                    format!("req {i} ok")
                }),
            ])
            .unwrap();
        }
        LogBlockReader::open(b.finish().unwrap()).unwrap()
    }

    fn eval(preds: &[ColumnPredicate], skipping: bool) -> (Vec<u32>, ScanStats) {
        let r = block();
        let mut stats = ScanStats::default();
        let ids = evaluate_predicates(&r, preds, skipping, &mut stats).unwrap();
        // The vectorized path must agree bit-for-bit with the row path,
        // including ScanStats (decode counters are separate by design).
        let mut vstats = ScanStats::default();
        let mut decode = DecodeStats::default();
        let vids = evaluate_predicates_vec(&r, preds, skipping, &mut vstats, &mut decode).unwrap();
        assert_eq!(vids.to_vec(), ids.to_vec(), "vectorized ids diverge for {preds:?}");
        assert_eq!(vstats, stats, "vectorized ScanStats diverge for {preds:?}");
        assert_eq!(decode.batches_evaluated, stats.blocks_scanned);
        (ids.to_vec(), stats)
    }

    fn naive(preds: &[ColumnPredicate]) -> Vec<u32> {
        let r = block();
        let schema = r.schema().clone();
        let mut out = Vec::new();
        for id in 0..r.row_count() {
            let rows = r.read_rows(&[id], &(0..schema.width()).collect::<Vec<_>>()).unwrap();
            let row = &rows[0];
            if preds.iter().all(|p| {
                let c = schema.column_index(&p.column).unwrap();
                p.matches(&row[c])
            }) {
                out.push(id);
            }
        }
        out
    }

    #[test]
    fn empty_conjunction_matches_all() {
        let (ids, _) = eval(&[], true);
        assert_eq!(ids.len(), 200);
    }

    #[test]
    fn paper_example_query_matches_naive() {
        // The Fig 8 walk-through: ts range + ip equality + latency >= + fail =.
        let preds = vec![
            ColumnPredicate::new("ts", CmpOp::Ge, 1050i64),
            ColumnPredicate::new("ts", CmpOp::Le, 1150i64),
            ColumnPredicate::new("ip", CmpOp::Eq, "192.168.0.1"),
            ColumnPredicate::new("latency", CmpOp::Ge, 100i64),
            ColumnPredicate::new("fail", CmpOp::Eq, false),
        ];
        let expect = naive(&preds);
        assert!(!expect.is_empty());
        let (with, s_with) = eval(&preds, true);
        let (without, s_without) = eval(&preds, false);
        assert_eq!(with, expect);
        assert_eq!(without, expect);
        assert!(s_with.index_lookups > 0);
        assert!(
            s_with.blocks_scanned < s_without.blocks_scanned,
            "skipping must scan fewer blocks: {} vs {}",
            s_with.blocks_scanned,
            s_without.blocks_scanned
        );
    }

    #[test]
    fn column_sma_prunes_whole_block() {
        let preds = vec![ColumnPredicate::new("ts", CmpOp::Gt, 99_999i64)];
        let (ids, stats) = eval(&preds, true);
        assert!(ids.is_empty());
        assert_eq!(stats.pruned_by_column_sma, 1);
        assert_eq!(stats.blocks_scanned, 0);
        assert_eq!(stats.index_lookups, 0);
    }

    #[test]
    fn contains_uses_inverted_index() {
        let preds = vec![ColumnPredicate::new("log", CmpOp::Contains, "error")];
        let (ids, stats) = eval(&preds, true);
        assert_eq!(ids, (0..200).filter(|i| i % 10 == 0).collect::<Vec<u32>>());
        assert_eq!(stats.index_lookups, 1);
        assert_eq!(stats.blocks_scanned, 0);
        assert_eq!(ids, naive(&preds));
    }

    #[test]
    fn multi_token_contains_matches_scan_semantics() {
        let preds = vec![ColumnPredicate::new("log", CmpOp::Contains, "error timeout")];
        assert_eq!(naive(&preds), Vec::<u32>::new());
        let (ids, _) = eval(&preds, true);
        assert!(ids.is_empty());
    }

    #[test]
    fn ne_falls_back_to_scan() {
        let preds = vec![ColumnPredicate::new("ip", CmpOp::Ne, "192.168.0.1")];
        let (ids, stats) = eval(&preds, true);
        assert_eq!(ids, naive(&preds));
        assert_eq!(stats.index_lookups, 0);
        assert!(stats.blocks_scanned > 0);
    }

    #[test]
    fn unindexed_latency_prunes_by_block_sma() {
        // latency = i % 500 over 200 rows, blocks of 32 — every block spans
        // a distinct latency range, so latency >= 190 prunes early blocks.
        let preds = vec![ColumnPredicate::new("latency", CmpOp::Ge, 190i64)];
        let (ids, stats) = eval(&preds, true);
        assert_eq!(ids, naive(&preds));
        assert!(stats.blocks_pruned > 0, "expected block-level pruning");
    }

    #[test]
    fn uint64_tenant_predicates() {
        let preds = vec![ColumnPredicate::new("tenant_id", CmpOp::Eq, 1u64)];
        let (ids, _) = eval(&preds, true);
        assert_eq!(ids, naive(&preds));
        // Negative literal on unsigned column: Ge matches everything,
        // Eq matches nothing.
        let ge = vec![ColumnPredicate::new("tenant_id", CmpOp::Ge, -5i64)];
        let (ids, _) = eval(&ge, true);
        assert_eq!(ids.len(), 200);
        let eq = vec![ColumnPredicate::new("tenant_id", CmpOp::Eq, -5i64)];
        let (ids, _) = eval(&eq, true);
        assert!(ids.is_empty());
    }

    #[test]
    fn unknown_column_is_error() {
        let r = block();
        let mut stats = ScanStats::default();
        let preds = vec![ColumnPredicate::new("nope", CmpOp::Eq, 1i64)];
        assert!(evaluate_predicates(&r, &preds, true, &mut stats).is_err());
    }

    #[test]
    fn matched_ids_materialize_through_read_rows() {
        let r = block();
        let mut stats = ScanStats::default();
        let preds = vec![ColumnPredicate::new("ts", CmpOp::Eq, 1005i64)];
        let ids = evaluate_predicates(&r, &preds, true, &mut stats).unwrap();
        let cols = ["log", "latency"].map(|c| r.schema().column_index(c).unwrap());
        let rows = r.read_rows(&ids.to_vec(), &cols).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::from("req 5 ok"));
        assert_eq!(rows[0][1], Value::I64(5));
    }

    #[test]
    fn skipping_and_naive_agree_on_many_shapes() {
        let cases: Vec<Vec<ColumnPredicate>> = vec![
            vec![ColumnPredicate::new("fail", CmpOp::Eq, true)],
            vec![ColumnPredicate::new("latency", CmpOp::Lt, 10i64)],
            vec![
                ColumnPredicate::new("ts", CmpOp::Gt, 1100i64),
                ColumnPredicate::new("fail", CmpOp::Eq, true),
            ],
            vec![ColumnPredicate::new("api", CmpOp::Eq, "/api/query")],
            vec![ColumnPredicate::new("api", CmpOp::Eq, "/api/other")],
            vec![
                ColumnPredicate::new("log", CmpOp::Contains, "ok"),
                ColumnPredicate::new("tenant_id", CmpOp::Ne, 0u64),
            ],
        ];
        for preds in cases {
            let expect = naive(&preds);
            let (with, _) = eval(&preds, true);
            let (without, _) = eval(&preds, false);
            assert_eq!(with, expect, "skipping mismatch for {preds:?}");
            assert_eq!(without, expect, "baseline mismatch for {preds:?}");
        }
    }

    /// Serves a pack from memory and records every range it is asked for.
    struct Recording(Vec<u8>, std::cell::RefCell<Vec<(u64, u64)>>);

    impl RangeSource for Recording {
        fn read_at(&self, offset: u64, len: u64) -> Result<Vec<u8>> {
            self.1.borrow_mut().push((offset, len));
            self.0.read_at(offset, len)
        }
        fn size(&self) -> u64 {
            self.0.size()
        }
    }

    fn recording_block() -> LogBlockReader<Recording> {
        let r = block();
        let bytes = r.handle.manifest().members().iter().map(|m| m.len).sum::<u64>()
            + r.handle.manifest().payload_start();
        let source = Recording(r.source.read_at(0, bytes).unwrap(), Default::default());
        LogBlockReader::with_handle(source, std::sync::Arc::clone(&r.handle))
    }

    #[test]
    fn planned_reads_cover_every_read_the_evaluation_makes() {
        let cases: Vec<Vec<ColumnPredicate>> = vec![
            vec![],
            vec![ColumnPredicate::new("fail", CmpOp::Eq, true)],
            vec![ColumnPredicate::new("latency", CmpOp::Ge, 150i64)],
            vec![ColumnPredicate::new("ts", CmpOp::Ge, 1190i64)],
            vec![ColumnPredicate::new("ts", CmpOp::Eq, 1100i64)],
            vec![ColumnPredicate::new("ip", CmpOp::Eq, "192.168.0.3")],
            vec![
                ColumnPredicate::new("ts", CmpOp::Gt, 1100i64),
                ColumnPredicate::new("log", CmpOp::Contains, "error"),
                ColumnPredicate::new("latency", CmpOp::Lt, 150i64),
            ],
            vec![
                ColumnPredicate::new("api", CmpOp::Eq, "/api/other"),
                ColumnPredicate::new("fail", CmpOp::Eq, true),
            ],
            vec![ColumnPredicate::new("ts", CmpOp::Ge, 5000i64)],
        ];
        for preds in &cases {
            for skipping in [true, false] {
                let r = recording_block();
                let planned = predicate_reads(r.meta(), preds, skipping);
                let ranges: Vec<(u64, u64)> = planned
                    .members
                    .iter()
                    .map(|m| r.handle.manifest().member_object_range(m).unwrap())
                    .collect();
                let mut stats = ScanStats::default();
                let ids = evaluate_predicates(&r, preds, skipping, &mut stats).unwrap();
                for &(off, len) in r.source.1.borrow().iter() {
                    assert!(
                        ranges.iter().any(|&(lo, n)| lo <= off && off + len <= lo + n),
                        "read {off}+{len} outside the plan {:?} for {preds:?} (skipping {skipping})",
                        planned.members
                    );
                }
                assert!(planned.may_match || ids.is_empty(), "{preds:?}");
            }
        }
    }

    /// A block of `rows` rows, `block_rows` per column block, whose numeric
    /// columns are shaped as `shape` says: 0, a drained chunk (`tenant_id`
    /// constant, `ts` ascending with repeats); 1, a compaction merge of two
    /// such chunks over one time range (`ts` out of order); 2, tenants
    /// interleaved (`tenant_id` out of order, `ts` ascending).
    fn shaped_block(shape: u8, rows: u32, block_rows: usize) -> LogBlockReader<Vec<u8>> {
        let schema = TableSchema::request_log();
        let mut b = LogBlockBuilder::with_options(schema.clone(), Compression::LzFast, block_rows);
        let row = |i: u32, tenant: u64, ts: i64| {
            vec![
                Value::U64(tenant),
                Value::I64(ts),
                Value::from(format!("10.0.0.{}", i % 4)),
                Value::from("/api/query"),
                Value::I64(i64::from(i % 50)),
                Value::Bool(i.is_multiple_of(7)),
                Value::from(format!("req {i} ok")),
            ]
        };
        let rows: Vec<Vec<Value>> = match shape {
            0 => (0..rows).map(|i| row(i, 5, 1000 + i64::from(i / 3))).collect(),
            1 => {
                let half = |parity| (0..rows).filter(move |i| i % 2 == parity);
                let source = |parity| half(parity).map(|i| row(i, 5, 1000 + i64::from(i / 3)));
                source(0).chain(source(1)).collect()
            }
            _ => (0..rows).map(|i| row(i, u64::from(i % 3), 1000 + i64::from(i))).collect(),
        };
        for r in &rows {
            b.add_row(r).unwrap();
        }
        LogBlockReader::open(b.finish().unwrap()).unwrap()
    }

    fn numeric_predicate() -> impl proptest::Strategy<Value = ColumnPredicate> {
        use proptest::prelude::*;
        const OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        prop_oneof![
            (0..OPS.len(), 995i64..1080).prop_map(|(op, v)| ColumnPredicate::new("ts", OPS[op], v)),
            (0..OPS.len(), 0u64..7).prop_map(|(op, v)| ColumnPredicate::new(
                "tenant_id",
                OPS[op],
                v
            )),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]
        /// Skipping on or off, over sorted, constant and merged columns:
        /// the same rows as the row-at-a-time oracle; the plan names only
        /// members the pack holds, and covers every read the evaluation
        /// makes.
        #[test]
        fn prop_skipping_agrees_on_sorted_constant_and_merged_columns(
            shape in 0u8..3,
            rows in 1u32..200,
            block_rows in 1usize..40,
            preds in proptest::collection::vec(numeric_predicate(), 1..3),
        ) {
            let r = shaped_block(shape, rows, block_rows);
            let width: Vec<usize> = (0..r.schema().width()).collect();
            let all = r.read_rows(&(0..r.row_count()).collect::<Vec<_>>(), &width).unwrap();
            // A tree exactly where the column is out of order.
            for col in [0, 1] {
                let sorted = all.windows(2).all(|w| w[0][col].total_cmp(&w[1][col]).is_le());
                let kind = if sorted { IndexKind::None } else { IndexKind::Bkd };
                proptest::prop_assert_eq!(r.meta().columns[col].index, kind, "column {}", col);
            }
            let merged_out_of_order = shape == 1 && r.meta().columns[1].index == IndexKind::Bkd;
            proptest::prop_assert!(shape != 1 || rows < 8 || merged_out_of_order);
            let expect: Vec<u32> = (0..r.row_count())
                .filter(|&id| preds.iter().all(|p| {
                    p.matches(&all[id as usize][r.schema().column_index(&p.column).unwrap()])
                }))
                .collect();
            for skipping in [true, false] {
                let planned = predicate_reads(r.meta(), &preds, skipping);
                for member in &planned.members {
                    proptest::prop_assert!(r.handle.manifest().entry(member).is_some(), "{member}");
                }
                let bytes = r.source.clone();
                let recording = LogBlockReader::with_handle(
                    Recording(bytes, Default::default()),
                    std::sync::Arc::clone(&r.handle),
                );
                let mut stats = ScanStats::default();
                let ids = evaluate_predicates(&recording, &preds, skipping, &mut stats).unwrap();
                proptest::prop_assert_eq!(ids.to_vec(), expect.clone());
                let mut vstats = ScanStats::default();
                let mut decode = DecodeStats::default();
                let vids = evaluate_predicates_vec(&r, &preds, skipping, &mut vstats, &mut decode)
                    .unwrap();
                proptest::prop_assert_eq!(vids.to_vec(), expect.clone());
                let ranges: Vec<(u64, u64)> = planned
                    .members
                    .iter()
                    .map(|m| r.handle.manifest().member_object_range(m).unwrap())
                    .collect();
                for &(off, len) in recording.source.1.borrow().iter() {
                    proptest::prop_assert!(
                        ranges.iter().any(|&(lo, n)| lo <= off && off + len <= lo + n),
                        "read {}+{} outside the plan {:?}", off, len, planned.members
                    );
                }
                proptest::prop_assert!(planned.may_match || expect.is_empty());
            }
        }
    }

    #[test]
    fn planned_reads_name_only_what_the_smas_leave_open() {
        let r = block();
        let reads = |preds: &[ColumnPredicate]| predicate_reads(r.meta(), preds, true);
        // Every block's SMA proves the predicate: nothing to read.
        let all = reads(&[ColumnPredicate::new("ts", CmpOp::Ge, 0i64)]);
        assert_eq!((all.members.len(), all.may_match), (0, true));
        // The column SMA excludes the LogBlock.
        let none = reads(&[
            ColumnPredicate::new("latency", CmpOp::Ge, 0i64),
            ColumnPredicate::new("ts", CmpOp::Ge, 5000i64),
        ]);
        assert_eq!((none.members.len(), none.may_match), (0, false));
        // An index-capable predicate the SMAs cannot decide reads the two
        // index members and not the column; an unindexed one reads the
        // column; a couple of boundary blocks are scanned, not looked up.
        let log = r.schema().column_index("log").unwrap();
        let contains = reads(&[ColumnPredicate::new("log", CmpOp::Contains, "error")]);
        assert_eq!(contains.members, vec![index_member(log), index_data_member(log)]);
        let latency = reads(&[ColumnPredicate::new("latency", CmpOp::Ge, 150i64)]);
        assert_eq!(latency.members, vec![col_member(4)]);
        let boundary = reads(&[ColumnPredicate::new("ts", CmpOp::Ge, 1190i64)]);
        assert_eq!(boundary.members, vec![col_member(1)]);
        // Without skipping every predicate column is decoded.
        let off = predicate_reads(r.meta(), &[ColumnPredicate::new("ts", CmpOp::Ge, 0i64)], false);
        assert_eq!(off.members, vec![col_member(1)]);
    }
}
