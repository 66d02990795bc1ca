//! The output checker: the engine's answers against what the generator
//! handed it. Every mismatch is a line of text; any line fails the run.

use crate::config::{Scale, LOAD_THREADS, TEMPLATES};
use crate::dataset::{stream_seed, Ledger, Stream};
use crate::trace::{SpanId, ThreadTrace};
use logstore_core::{LogStore, QueryOptions};
use logstore_types::{TenantId, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `jobs` on up to `LOAD_THREADS` checker threads, keeping job order.
fn in_parallel<T: Send, R: Send>(jobs: Vec<T>, work: impl Fn(T) -> R + Sync) -> Vec<R> {
    let lanes = LOAD_THREADS.min(jobs.len()).max(1);
    let mut striped: Vec<Vec<(usize, T)>> = (0..lanes).map(|_| Vec::new()).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        striped[i % lanes].push((i, job));
    }
    let work = &work;
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = striped
            .into_iter()
            .map(|lane| {
                scope.spawn(move || lane.into_iter().map(|(i, j)| (i, work(j))).collect::<Vec<_>>())
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("checker thread panicked")).collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

fn count(store: &LogStore, sql: &str) -> Result<u64, String> {
    let result = store.query(sql).map_err(|e| format!("{sql}: {e}"))?;
    result
        .rows
        .first()
        .and_then(|row| row.first())
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("{sql}: no count in {:?}", result.rows))
}

/// Retention applied during the run: tenants in `tenants` may have lost
/// exactly the rows of their oldest slice (those with `ts <= cutoff`).
pub struct Expired {
    pub tenants: std::ops::RangeInclusive<u64>,
    pub cutoff: Timestamp,
}

/// Per-tenant `COUNT(*)` must equal the rows the generator was
/// acknowledged for. For a tenant under retention, every row newer than
/// the cutoff must still be there, and the total must be either the full
/// count (nothing expired yet) or the full count minus the oldest slice.
pub fn count_check(
    store: &LogStore,
    ledger: &Ledger,
    expired: Option<&Expired>,
    tt: &mut ThreadTrace,
    parent: Option<SpanId>,
) -> Vec<String> {
    let span = tt.open(parent.is_some(), "check/count", 0, parent);
    let jobs: Vec<(TenantId, crate::dataset::TenantLedger)> =
        ledger.tenants.iter().map(|(t, l)| (*t, *l)).collect();
    let problems: Vec<String> = in_parallel(jobs, |(tenant, want)| {
        let t = tenant.raw();
        let total = match count(store, &format!("SELECT COUNT(*) FROM request_log WHERE tenant_id = {t}")) {
            Ok(n) => n,
            Err(e) => return vec![e],
        };
        let Some(exp) = expired.filter(|e| e.tenants.contains(&t)) else {
            return if total == want.rows {
                vec![]
            } else {
                vec![format!("tenant {t}: COUNT(*) = {total}, generator was acknowledged for {}", want.rows)]
            };
        };
        let mut out = Vec::new();
        let kept = want.rows - want.oldest_slice_rows;
        if total != want.rows && total != kept {
            out.push(format!(
                "tenant {t} (retention): COUNT(*) = {total}, expected {} or {kept} (oldest slice expired)",
                want.rows
            ));
        }
        let newer = format!(
            "SELECT COUNT(*) FROM request_log WHERE tenant_id = {t} AND ts > {}",
            exp.cutoff.millis()
        );
        match count(store, &newer) {
            Ok(n) if n == kept => {}
            Ok(n) => out.push(format!("tenant {t} (retention): {n} rows newer than the cutoff, expected {kept}")),
            Err(e) => out.push(e),
        }
        out
    })
    .into_iter()
    .flatten()
    .collect();
    tt.close(span);
    problems
}

/// One seeded query per template: the default (optimized) execution must
/// return exactly what `QueryOptions::baseline()` — no skipping, no cache,
/// no prefetch, no pushdown, sequential — returns. The baseline pays the
/// modelled OSS latency for every column it reads, which is why this is a
/// sample and not every distinct query (README "Output checker").
pub fn baseline_check(
    store: &LogStore,
    scale: &Scale,
    seed: u64,
    queries: &[Vec<String>],
    tt: &mut ThreadTrace,
    parent: Option<SpanId>,
) -> Vec<String> {
    let span = tt.open(parent.is_some(), "check/baseline", 0, parent);
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, Stream::BaselineSample));
    let jobs: Vec<&String> = (0..scale.baseline_checks)
        .map(|i| &queries[rng.gen_range(0..queries.len())][i % TEMPLATES])
        .collect();
    let problems = in_parallel(jobs, |sql| {
        let fast = store.query_with_options(sql, &QueryOptions::default());
        let slow = store.query_with_options(sql, &QueryOptions::baseline());
        match (fast, slow) {
            (Ok(f), Ok(s)) if f.result == s.result => None,
            (Ok(f), Ok(s)) => Some(format!(
                "{sql}: optimized execution returned {} rows, baseline {} rows, and they differ",
                f.result.rows.len(),
                s.result.rows.len()
            )),
            (Err(e), _) | (_, Err(e)) => Some(format!("{sql}: {e}")),
        }
    })
    .into_iter()
    .flatten()
    .collect();
    tt.close(span);
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_jobs_keep_their_order() {
        assert_eq!(in_parallel((0..7).collect(), |x| x * 10), vec![0, 10, 20, 30, 40, 50, 60]);
        assert_eq!(in_parallel(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
    }
}
