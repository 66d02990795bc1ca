//! Generated inputs — records, batches and SQL, all derived from `--seed` —
//! and the ledger of what the generator handed to the engine, which the
//! output checker compares the engine's answers against.

use crate::config::{Scale, BATCH_ROWS, HISTORY_SPAN_MS, HISTORY_START_MS, TEMPLATES};
use crate::stats::Call;
use crate::trace::{SpanId, ThreadTrace};
use logstore_core::{IngestReport, LogStore};
use logstore_types::{LogRecord, TenantId, Timestamp};
use logstore_workload::queries::tenant_queries;
use logstore_workload::{LogRecordGenerator, WorkloadSpec, Zipfian};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Distinct generator streams of one run; each gets its own RNG seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    History,
    Queries,
    QueryPicker(usize),
    Producer(usize),
    OpenIngest,
    BaselineSample,
}

/// The RNG seed of `stream` under `--seed`.
pub fn stream_seed(seed: u64, stream: Stream) -> u64 {
    let lane = match stream {
        Stream::History => 1,
        Stream::Queries => 2,
        Stream::QueryPicker(i) => 100 + i as u64,
        Stream::Producer(i) => 200 + i as u64,
        Stream::OpenIngest => 300,
        Stream::BaselineSample => 400,
    };
    // SplitMix64 finalizer: nearby seeds give unrelated streams.
    let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(lane);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn spec(scale: &Scale) -> WorkloadSpec {
    WorkloadSpec::new(scale.tenants, scale.zipf_theta)
}

pub fn history_start() -> Timestamp {
    Timestamp(HISTORY_START_MS)
}

pub fn history_end() -> Timestamp {
    Timestamp(HISTORY_START_MS + HISTORY_SPAN_MS)
}

/// What one tenant was acknowledged for.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TenantLedger {
    pub rows: u64,
    /// Sum of `LogRecord::approx_size` — the "user bytes".
    pub bytes: u64,
    /// Rows of the oldest `aged` slice: what retention may expire.
    pub oldest_slice_rows: u64,
}

/// Per-tenant tallies of every acknowledged row.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    pub tenants: BTreeMap<TenantId, TenantLedger>,
    pub rejected_rows: u64,
    pub failed_rows: u64,
    /// `ingest` calls whose report was not "all accepted".
    pub failed_calls: u64,
}

impl Ledger {
    /// Tallies a batch before it moves into the engine.
    fn tally(batch: &[LogRecord]) -> Vec<(TenantId, u64, u64)> {
        let mut per: Vec<(TenantId, u64, u64)> = Vec::new();
        for r in batch {
            let size = r.approx_size() as u64;
            match per.iter_mut().find(|(t, _, _)| *t == r.tenant_id) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += size;
                }
                None => per.push((r.tenant_id, 1, size)),
            }
        }
        per
    }

    /// Books `report` for a batch tallied by [`Ledger::tally`]. A batch the
    /// engine did not fully accept is counted as failed and leaves the
    /// per-tenant expectation untouched — the checker will then report the
    /// surplus, which is the point: no operation may fail on these
    /// workloads.
    fn book(
        &mut self,
        tally: Vec<(TenantId, u64, u64)>,
        report: &IngestReport,
        oldest_slice: bool,
    ) {
        self.rejected_rows += report.rejected;
        self.failed_rows += report.failed;
        if report.rejected + report.failed > 0 {
            self.failed_calls += 1;
            return;
        }
        for (tenant, rows, bytes) in tally {
            let e = self.tenants.entry(tenant).or_default();
            e.rows += rows;
            e.bytes += bytes;
            if oldest_slice {
                e.oldest_slice_rows += rows;
            }
        }
    }

    pub fn merge(&mut self, other: &Ledger) {
        for (tenant, t) in &other.tenants {
            let e = self.tenants.entry(*tenant).or_default();
            e.rows += t.rows;
            e.bytes += t.bytes;
            e.oldest_slice_rows += t.oldest_slice_rows;
        }
        self.rejected_rows += other.rejected_rows;
        self.failed_rows += other.failed_rows;
        self.failed_calls += other.failed_calls;
    }

    pub fn rows(&self) -> u64 {
        self.tenants.values().map(|t| t.rows).sum()
    }

    pub fn bytes(&self) -> u64 {
        self.tenants.values().map(|t| t.bytes).sum()
    }
}

/// Calls `LogStore::ingest` with `batch`, books the outcome and records
/// the engine-call span under `parent`. An `Err` from the engine counts
/// the whole batch as failed.
pub fn timed_ingest(
    store: &LogStore,
    batch: Vec<LogRecord>,
    ledger: &mut Ledger,
    oldest_slice: bool,
    tt: &mut ThreadTrace,
    req: u64,
    parent: Option<SpanId>,
) -> Call {
    let tally = Ledger::tally(&batch);
    let rows = batch.len() as u64;
    let span = tt.open(parent.is_some(), "LogStore::ingest", req, parent);
    let sent = std::time::Instant::now();
    let outcome = store.ingest(batch);
    let done = std::time::Instant::now();
    tt.close(span);
    match outcome {
        Ok(report) => ledger.book(tally, &report, oldest_slice),
        Err(e) => {
            eprintln!("bench_e2e: ingest failed: {e}");
            ledger.failed_rows += rows;
            ledger.failed_calls += 1;
        }
    }
    Call { sent, done }
}

/// An endless stream of Zipfian `BATCH_ROWS`-row batches whose timestamps
/// advance one millisecond per row from `first_ts`.
pub struct BatchStream {
    generator: LogRecordGenerator,
    rng: StdRng,
    spec: WorkloadSpec,
    sampler: Zipfian,
    next_ts: i64,
}

impl BatchStream {
    pub fn new(scale: &Scale, seed: u64, stream: Stream, first_ts: Timestamp) -> Self {
        let spec = spec(scale);
        let s = stream_seed(seed, stream);
        BatchStream {
            generator: LogRecordGenerator::new(s),
            rng: StdRng::seed_from_u64(s ^ 0x5eed),
            sampler: spec.sampler(),
            spec,
            next_ts: first_ts.millis(),
        }
    }

    pub fn next_batch(&mut self) -> Vec<LogRecord> {
        (0..BATCH_ROWS)
            .map(|_| {
                let tenant = self.spec.sample_tenant(&self.sampler, &mut self.rng);
                self.next_ts += 1;
                self.generator.record(tenant, Timestamp(self.next_ts))
            })
            .collect()
    }
}

/// The eight query templates of every tenant over `[start, end]`:
/// `set[tenant - 1][template]`.
pub fn query_set(scale: &Scale, seed: u64, start: Timestamp, end: Timestamp) -> Vec<Vec<String>> {
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, Stream::Queries));
    (1..=scale.tenants)
        .map(|t| {
            let queries = tenant_queries(TenantId(t), start, end, &mut rng);
            assert_eq!(queries.len(), TEMPLATES, "the workload crate defines eight templates");
            queries
        })
        .collect()
}

/// How a query client walks the query set.
pub enum Picker {
    /// Zipfian tenant choice, templates round-robin: popular tenants stay
    /// cache-resident (`mixed` and its hot-read off-side).
    Zipfian { sampler: Zipfian, spec: WorkloadSpec, rng: StdRng },
    /// Tenants visited cyclically: between two visits of a tenant every
    /// other tenant's data passes through the cache, so LRU cannot help
    /// (`query_cold`). Templates advance with every query and shift by one
    /// each lap, so even a short phase runs all eight and eight laps run
    /// every distinct query once.
    Cyclic { tenants: u64, offset: u64 },
}

impl Picker {
    pub fn zipfian(scale: &Scale, seed: u64, client: usize) -> Self {
        let spec = spec(scale);
        Picker::Zipfian {
            sampler: spec.sampler(),
            spec,
            rng: StdRng::seed_from_u64(stream_seed(seed, Stream::QueryPicker(client))),
        }
    }

    /// Client `client` of `clients` starts its laps at an even offset.
    pub fn cyclic(scale: &Scale, client: usize, clients: usize) -> Self {
        Picker::Cyclic {
            tenants: scale.tenants,
            offset: scale.tenants * client as u64 / clients.max(1) as u64,
        }
    }

    /// `(tenant index, template index)` of this client's `k`-th query.
    pub fn pick(&mut self, k: u64) -> (usize, usize) {
        match self {
            Picker::Zipfian { sampler, spec, rng } => {
                let tenant = spec.sample_tenant(sampler, rng).raw() as usize - 1;
                (tenant, (k % TEMPLATES as u64) as usize)
            }
            Picker::Cyclic { tenants, offset } => {
                let tenant = ((k + *offset) % *tenants) as usize;
                (tenant, ((k + k / *tenants) % TEMPLATES as u64) as usize)
            }
        }
    }
}

/// The loaded `aged` dataset.
pub struct Aged {
    pub ledger: Ledger,
    /// Newest timestamp of the oldest slice: a retention cutoff just past
    /// it expires exactly that slice's LogBlocks (each slice is flushed on
    /// its own, so no block straddles two slices).
    pub oldest_slice_end: Timestamp,
    pub blocks_built: u64,
    pub bytes_uploaded: u64,
}

/// Generates the 48 h history and loads it through the full write path in
/// `aged_slices` time slices, each followed by `flush()`.
pub fn load_aged(
    store: &LogStore,
    scale: &Scale,
    seed: u64,
    tt: &mut ThreadTrace,
    parent: Option<SpanId>,
) -> Result<Aged, String> {
    let mut generator = LogRecordGenerator::new(stream_seed(seed, Stream::History));
    let history = tt.span("generate history", 0, parent, || {
        generator.history(&spec(scale), scale.aged_rows, history_start(), history_end())
    });
    let slice_rows = scale.aged_rows.div_ceil(scale.aged_slices.max(1));
    let mut aged = Aged {
        ledger: Ledger::default(),
        oldest_slice_end: history_start(),
        blocks_built: 0,
        bytes_uploaded: 0,
    };
    let mut rows = history.into_iter().peekable();
    for slice in 0..scale.aged_slices {
        let mut left = slice_rows;
        while left > 0 && rows.peek().is_some() {
            let batch: Vec<LogRecord> =
                rows.by_ref().take(scale.load_batch_rows.min(left)).collect();
            left -= batch.len();
            if slice == 0 {
                aged.oldest_slice_end = batch.last().map_or(aged.oldest_slice_end, |r| r.ts);
            }
            timed_ingest(store, batch, &mut aged.ledger, slice == 0, tt, slice as u64, parent);
        }
        let report = tt
            .span("LogStore::flush", slice as u64, parent, || store.flush())
            .map_err(|e| format!("flush of aged slice {slice}: {e}"))?;
        aged.blocks_built += report.blocks_built;
        aged.bytes_uploaded += report.bytes_uploaded;
    }
    if aged.ledger.failed_calls > 0 {
        return Err(format!(
            "loading aged: {} rows rejected, {} failed",
            aged.ledger.rejected_rows, aged.ledger.failed_rows
        ));
    }
    Ok(aged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SMOKE;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let t0 = history_start();
        let mut a = BatchStream::new(&SMOKE, 11, Stream::Producer(0), t0);
        let mut b = BatchStream::new(&SMOKE, 11, Stream::Producer(0), t0);
        let mut c = BatchStream::new(&SMOKE, 12, Stream::Producer(0), t0);
        let mut d = BatchStream::new(&SMOKE, 11, Stream::Producer(1), t0);
        let batch = a.next_batch();
        assert_eq!(batch, b.next_batch());
        assert_ne!(batch, c.next_batch());
        assert_ne!(batch, d.next_batch());
        assert_eq!(batch.len(), BATCH_ROWS);
        assert_eq!(batch.last().map(|r| r.ts), Some(Timestamp(t0.millis() + BATCH_ROWS as i64)));
        assert_eq!(
            query_set(&SMOKE, 11, t0, history_end()),
            query_set(&SMOKE, 11, t0, history_end())
        );
        assert_ne!(
            query_set(&SMOKE, 11, t0, history_end()),
            query_set(&SMOKE, 12, t0, history_end())
        );
    }

    #[test]
    fn cyclic_picker_visits_every_tenant_before_repeating() {
        let tenants = SMOKE.tenants;
        let mut p = Picker::cyclic(&SMOKE, 1, 2);
        let lap: Vec<(usize, usize)> = (0..tenants).map(|k| p.pick(k)).collect();
        assert_eq!(lap[0].0, (tenants / 2) as usize, "second client starts half a lap in");
        let mut visited: Vec<usize> = lap.iter().map(|x| x.0).collect();
        visited.sort_unstable();
        assert_eq!(visited, (0..tenants as usize).collect::<Vec<_>>());
        // Eight laps run every (tenant, template) pair exactly once.
        let mut pairs: Vec<(usize, usize)> =
            (0..tenants * TEMPLATES as u64).map(|k| p.pick(k)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), tenants as usize * TEMPLATES);
        // And a single lap already mixes the templates.
        assert!((0..TEMPLATES).all(|t| lap.iter().any(|x| x.1 == t)));
    }

    #[test]
    fn zipfian_picker_round_robins_templates() {
        let mut p = Picker::zipfian(&SMOKE, 11, 0);
        let templates: Vec<usize> = (0..16).map(|k| p.pick(k).1).collect();
        assert_eq!(templates, (0..16).map(|k| k % TEMPLATES).collect::<Vec<_>>());
    }

    #[test]
    fn ledger_books_only_fully_accepted_batches() {
        let mut stream = BatchStream::new(&SMOKE, 11, Stream::OpenIngest, history_start());
        let batch = stream.next_batch();
        let bytes: u64 = batch.iter().map(|r| r.approx_size() as u64).sum();
        let mut ledger = Ledger::default();
        let ok = IngestReport { accepted: BATCH_ROWS as u64, ..Default::default() };
        ledger.book(Ledger::tally(&batch), &ok, true);
        assert_eq!((ledger.rows(), ledger.bytes()), (BATCH_ROWS as u64, bytes));
        assert_eq!(
            ledger.tenants.values().map(|t| t.oldest_slice_rows).sum::<u64>(),
            ledger.rows()
        );
        let partial = IngestReport { accepted: 60, rejected: 4, ..Default::default() };
        ledger.book(Ledger::tally(&batch), &partial, false);
        assert_eq!(ledger.rows(), BATCH_ROWS as u64, "a partly rejected batch is not booked");
        assert_eq!((ledger.rejected_rows, ledger.failed_calls), (4, 1));
        let mut sum = Ledger::default();
        sum.merge(&ledger);
        sum.merge(&ledger);
        assert_eq!(sum.rows(), 2 * BATCH_ROWS as u64);
    }
}
