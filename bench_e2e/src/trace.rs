//! Harness-side spans around each engine entry point (choosing-metrics §4).
//!
//! Spans are recorded from the benchmark's own files only — spans inside
//! the engine are ROADMAP item 1. Each load thread owns a [`ThreadTrace`]
//! (no sharing, no locks on the hot path); they are merged into one
//! [`Trace`] when the run ends, kept in memory until then, and written out
//! as one JSON file.

use crate::json::escape;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span inside its thread's list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// Request id: spans of one request (an ack, a query, a maintenance
    /// cycle) share it.
    req: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// One thread's spans.
#[derive(Debug)]
pub struct ThreadTrace {
    thread: String,
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl ThreadTrace {
    /// `origin` is shared by every thread of a run so their spans line up.
    pub fn new(thread: impl Into<String>, origin: Instant, enabled: bool) -> Self {
        ThreadTrace { thread: thread.into(), origin, enabled, spans: Vec::new() }
    }

    /// Opens a span now. Returns `None` (and records nothing) when tracing
    /// is off or `sampled` is false.
    pub fn open(
        &mut self,
        sampled: bool,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        if !(self.enabled && sampled) {
            return None;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            req,
            parent: parent.map(|p| p.0),
            start_ns: now,
            end_ns: now,
        });
        Some(SpanId(self.spans.len() - 1))
    }

    /// Closes a span now; a `None` id (untraced operation) is a no-op.
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(SpanId(i)) = id {
            self.spans[i].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(true, name, req, parent);
        let out = f();
        self.close(id);
        out
    }
}

/// Aggregate of the spans sharing one name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    /// Sum of span durations, seconds.
    pub total_s: f64,
    /// Sum of self times (duration minus the part covered by child spans).
    pub self_s: f64,
}

/// Every thread's spans of one run.
#[derive(Debug, Default)]
pub struct Trace {
    threads: Vec<ThreadTrace>,
}

impl Trace {
    pub fn absorb(&mut self, thread: ThreadTrace) {
        if !thread.spans.is_empty() {
            self.threads.push(thread);
        }
    }

    pub fn merge(&mut self, other: Trace) {
        self.threads.extend(other.threads);
    }

    pub fn span_count(&self) -> usize {
        self.threads.iter().map(|t| t.spans.len()).sum()
    }

    /// Totals per span name. Children never outlive their parent here (the
    /// harness closes them first), so the covered part of a parent is the
    /// plain sum of its direct children's durations.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for t in &self.threads {
            let mut child_ns = vec![0u64; t.spans.len()];
            for s in &t.spans {
                if let Some(p) = s.parent {
                    child_ns[p] += s.end_ns - s.start_ns;
                }
            }
            for (s, covered) in t.spans.iter().zip(child_ns) {
                let dur = s.end_ns - s.start_ns;
                let e = out.entry(s.name).or_default();
                e.count += 1;
                e.total_s += dur as f64 / 1e9;
                e.self_s += dur.saturating_sub(covered) as f64 / 1e9;
            }
        }
        out
    }

    /// Writes `{"workload":..,"spans":[..]}`; span ids are global
    /// (`thread:index`) so a parent reference is unambiguous.
    pub fn write_json(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{\"workload\": \"{}\", \"spans\": [", escape(workload))?;
        let mut first = true;
        for t in &self.threads {
            for (i, s) in t.spans.iter().enumerate() {
                let parent = match s.parent {
                    Some(p) => format!("\"{}:{p}\"", escape(&t.thread)),
                    None => "null".into(),
                };
                write!(
                    w,
                    "{}\n{{\"id\": \"{}:{i}\", \"name\": \"{}\", \"req\": {}, \"parent\": {parent}, \
                     \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                    if first { "" } else { "," },
                    escape(&t.thread),
                    escape(s.name),
                    s.req,
                    s.start_ns as f64 / 1e3,
                    s.end_ns as f64 / 1e3,
                )?;
                first = false;
            }
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    #[test]
    fn self_time_is_span_minus_children() {
        let origin = Instant::now();
        let mut t = ThreadTrace::new("p0", origin, true);
        let root = t.open(true, "ack", 7, None);
        let child = t.open(true, "LogStore::ingest", 7, root);
        t.close(child);
        t.close(root);
        // Pin the clock readings so the arithmetic is exact.
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 10_000;
        t.spans[1].start_ns = 1_000;
        t.spans[1].end_ns = 8_000;
        let mut trace = Trace::default();
        trace.absorb(t);
        let names = trace.by_name();
        assert_eq!(names["ack"], NameTotals { count: 1, total_s: 10e-6, self_s: 3e-6 });
        assert_eq!(names["LogStore::ingest"].self_s, 7e-6);
    }

    #[test]
    fn disabled_or_unsampled_spans_record_nothing() {
        let mut off = ThreadTrace::new("t", Instant::now(), false);
        assert_eq!(off.open(true, "x", 0, None), None);
        off.close(None);
        assert_eq!(off.span("y", 0, None, || 5), 5);
        let mut on = ThreadTrace::new("t", Instant::now(), true);
        assert_eq!(on.open(false, "x", 0, None), None);
        let mut trace = Trace::default();
        trace.absorb(off);
        trace.absorb(on);
        assert_eq!(trace.span_count(), 0);
    }

    #[test]
    fn trace_file_is_json_with_parent_links() {
        let mut t = ThreadTrace::new("maint", Instant::now(), true);
        let root = t.open(true, "maintenance", 3, None);
        t.span("compact", 3, root, || ());
        t.close(root);
        let mut trace = Trace::default();
        trace.absorb(t);
        let path =
            std::env::temp_dir().join(format!("bench_e2e-trace-{}.json", std::process::id()));
        trace.write_json(&path, "mixed").unwrap();
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let spans = doc.get("spans").and_then(Json::as_array).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(Json::as_str), Some("maint:0"));
        assert_eq!(spans[1].get("req").and_then(Json::as_f64), Some(3.0));
    }
}
