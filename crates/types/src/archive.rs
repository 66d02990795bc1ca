//! The canonical partition of drained rows into archive chunks, over
//! records: the reference the run-based partition is tested against.
//!
//! The archive pipeline identifies what a drain produced by a *chunk
//! index*, not by object paths: the data builder uploads one LogBlock per
//! chunk and commits "the first `k` chunks of drain X are durable", and
//! WAL replay splits a replayed drain intent with the same function the
//! builder used (`logstore_wal::partition_runs`) to decide which of its
//! rows are already on OSS. That function partitions the drain's runs in
//! place; [`partition_into_chunks`] states the same order over records, so
//! proptests and benchmarks can check and feed it.
//!
//! The order is fully determined by the input multiset: tenants ascending,
//! each tenant's rows stable-sorted by timestamp (ties keep arrival
//! order), then split into chunks of at most `chunk_rows` rows. Because
//! the builder commits only the chunks before the lowest failed index —
//! however many later uploads happened to succeed — the committed set is
//! always a prefix of this global chunk sequence.

use crate::ids::TenantId;
use crate::record::LogRecord;
use std::collections::BTreeMap;

/// One archive chunk: all rows become a single LogBlock of `tenant`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveChunk {
    /// The tenant every row in this chunk belongs to.
    pub tenant: TenantId,
    /// The chunk's rows, sorted by timestamp.
    pub rows: Vec<LogRecord>,
}

/// Splits drained rows into the canonical chunk sequence.
///
/// `chunk_rows` is the LogBlock row cap (`max_rows_per_logblock`); values
/// below 1 are treated as 1. Chunks come back ordered by
/// `(tenant, chunk index)` and every chunk holds at least one row.
pub fn partition_into_chunks(rows: Vec<LogRecord>, chunk_rows: usize) -> Vec<ArchiveChunk> {
    let chunk_rows = chunk_rows.max(1);
    let mut by_tenant: BTreeMap<TenantId, Vec<LogRecord>> = BTreeMap::new();
    for r in rows {
        by_tenant.entry(r.tenant_id).or_default().push(r);
    }
    let mut chunks = Vec::new();
    for (tenant, mut records) in by_tenant {
        records.sort_by_key(|r| r.ts);
        let mut rest = records;
        while !rest.is_empty() {
            let tail = rest.split_off(rest.len().min(chunk_rows));
            chunks.push(ArchiveChunk { tenant, rows: rest });
            rest = tail;
        }
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;
    use crate::value::Value;

    fn rec(t: u64, ts: i64, tag: i64) -> LogRecord {
        LogRecord::new(TenantId(t), Timestamp(ts), vec![Value::I64(tag)])
    }

    #[test]
    fn chunks_are_tenant_ordered_and_ts_sorted() {
        let rows = vec![rec(2, 5, 0), rec(1, 9, 1), rec(1, 3, 2), rec(2, 1, 3)];
        let chunks = partition_into_chunks(rows, 10);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].tenant, TenantId(1));
        assert_eq!(chunks[0].rows[0].ts, Timestamp(3));
        assert_eq!(chunks[0].rows[1].ts, Timestamp(9));
        assert_eq!(chunks[1].tenant, TenantId(2));
        assert_eq!(chunks[1].rows[0].ts, Timestamp(1));
    }

    #[test]
    fn oversized_tenants_split_at_the_cap() {
        let rows: Vec<LogRecord> = (0..7).map(|i| rec(1, i, i)).collect();
        let chunks = partition_into_chunks(rows, 3);
        let sizes: Vec<usize> = chunks.iter().map(|c| c.rows.len()).collect();
        assert_eq!(sizes, vec![3, 3, 1]);
    }

    #[test]
    fn ties_keep_arrival_order() {
        // Stable sort: equal timestamps must not be reordered, or replay
        // could disagree with the builder about chunk membership.
        let rows = vec![rec(1, 7, 10), rec(1, 7, 11), rec(1, 7, 12)];
        let chunks = partition_into_chunks(rows, 2);
        assert_eq!(chunks[0].rows[0].fields[0], Value::I64(10));
        assert_eq!(chunks[0].rows[1].fields[0], Value::I64(11));
        assert_eq!(chunks[1].rows[0].fields[0], Value::I64(12));
    }

    #[test]
    fn zero_cap_is_clamped() {
        let chunks = partition_into_chunks(vec![rec(1, 1, 0), rec(1, 2, 1)], 0);
        assert_eq!(chunks.len(), 2);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// Rows with globally distinct timestamps: with no ties, the chunk
        /// sequence must be a pure function of the row *set*, independent
        /// of arrival order.
        fn distinct_rows() -> BoxedStrategy<Vec<LogRecord>> {
            (1usize..40, 1u64..5)
                .prop_map(|(n, tenants)| {
                    (0..n)
                        .map(|i| rec(1 + i as u64 % tenants, i as i64, i as i64))
                        .collect::<Vec<_>>()
                })
                .boxed()
        }

        fn shuffled(mut rows: Vec<LogRecord>, seed: u64) -> Vec<LogRecord> {
            let mut rng = StdRng::seed_from_u64(seed);
            for i in (1..rows.len()).rev() {
                rows.swap(i, rng.gen_range(0..=i));
            }
            rows
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn prop_partition_ignores_arrival_order(
                rows in distinct_rows(),
                seed in any::<u64>(),
                cap in 1usize..9,
            ) {
                let canonical = partition_into_chunks(rows.clone(), cap);
                let permuted = partition_into_chunks(shuffled(rows, seed), cap);
                prop_assert_eq!(canonical, permuted);
            }

            #[test]
            fn prop_chunks_are_well_formed(
                rows in distinct_rows(),
                seed in any::<u64>(),
                cap in 1usize..9,
            ) {
                let rows = shuffled(rows, seed);
                let total = rows.len();
                let chunks = partition_into_chunks(rows, cap);
                let mut seen = 0;
                let mut prev_tenant = None;
                for chunk in &chunks {
                    prop_assert!(!chunk.rows.is_empty());
                    prop_assert!(chunk.rows.len() <= cap);
                    prop_assert!(chunk.rows.iter().all(|r| r.tenant_id == chunk.tenant));
                    prop_assert!(chunk.rows.windows(2).all(|w| w[0].ts <= w[1].ts));
                    // Tenants appear as contiguous ascending runs.
                    if let Some(prev) = prev_tenant {
                        prop_assert!(chunk.tenant >= prev);
                    }
                    prev_tenant = Some(chunk.tenant);
                    seen += chunk.rows.len();
                }
                prop_assert_eq!(seen, total, "no row lost or duplicated");
            }
        }
    }
}
