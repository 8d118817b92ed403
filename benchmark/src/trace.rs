//! Span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around its
//! calls into each layer — nothing inside the product is instrumented.
//! They are kept in memory and written out once, after the last timed
//! iteration. Calls made millions of times per run (policy decisions,
//! reconcile ticks, submits) are not spanned one by one: they are
//! folded into an [`Agg`] attached to the span they ran under, and
//! count as that span's children when its self time is taken.

use std::fmt::Write as _;
use std::time::Instant;

use crate::agg::Agg;

pub type SpanId = usize;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Iteration the span belongs to: the identifier spans of one
    /// operation share.
    pub iteration: u32,
    pub aggs: Vec<(&'static str, Agg)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
    iteration: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            iteration: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            iteration: self.iteration,
            aggs: Vec::new(),
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`; returns
    /// its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].dur_ns() as f64 / 1e9
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Opens the root span of the next iteration.
    pub fn open_iteration(&mut self) -> SpanId {
        assert!(self.stack.is_empty(), "iterations do not nest");
        self.iteration += 1;
        self.open("iteration")
    }

    /// Attaches the aggregate of a high-frequency call to span `id`.
    pub fn attach(&mut self, id: SpanId, name: &'static str, agg: Agg) {
        self.spans[id].aggs.push((name, agg));
    }

    /// A span's duration minus what its child spans and attached
    /// aggregates cover.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum();
        let aggs: u64 = self.spans[id].aggs.iter().map(|(_, a)| a.total_ns).sum();
        self.spans[id].dur_ns().saturating_sub(children + aggs)
    }

    /// Writes the trace to `out/trace-<workload>.json` in this package —
    /// the only place the benchmark writes.
    pub fn write_out(&self, workload: &str) {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{workload}.json"));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, self.to_json(workload)))
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }

    /// The trace as one JSON document.
    fn to_json(&self, workload: &str) -> String {
        assert!(self.stack.is_empty(), "trace written with open spans");
        let mut out = format!("{{\"workload\": \"{workload}\", \"spans\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {id}, \"name\": \"{}\", \"iteration\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"aggregates\": [",
                s.name,
                s.iteration,
                s.start_ns,
                s.end_ns,
                self.self_ns(id)
            );
            for (k, (name, a)) in s.aggs.iter().enumerate() {
                // Trailing empty buckets carry no information.
                let used = a.buckets.iter().rposition(|&c| c > 0).map_or(0, |p| p + 1);
                let _ = write!(
                    out,
                    "{}{{\"name\": \"{name}\", \"count\": {}, \"total_ns\": {}, \"log2_ns_buckets\": {:?}}}",
                    if k > 0 { ", " } else { "" },
                    a.count,
                    a.total_ns,
                    &a.buckets[..used]
                );
            }
            let last = id + 1 == self.spans.len();
            let _ = writeln!(out, "]}}{}", if last { "" } else { "," });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_aggregates() {
        let mut t = Tracer::new();
        let it = t.open_iteration();
        let child = t.open("phase");
        t.close(child);
        t.close(it);
        // Fix the clock readings so the arithmetic is exact.
        t.spans[it].start_ns = 0;
        t.spans[it].end_ns = 1_000;
        t.spans[child].start_ns = 100;
        t.spans[child].end_ns = 400;
        let mut a = Agg::default();
        a.record(250);
        t.attach(it, "call", a);
        assert_eq!(t.self_ns(it), 1_000 - 300 - 250);
        assert_eq!(t.self_ns(child), 300);
        assert_eq!(t.spans[child].parent, Some(it));
        assert_eq!(t.spans[child].iteration, 1);
        let json = t.to_json("w");
        assert!(json.contains("\"name\": \"phase\", \"iteration\": 1, \"parent\": 0"));
        assert!(json.contains("\"count\": 1, \"total_ns\": 250"));
    }
}
