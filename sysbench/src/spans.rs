//! Bench-side spans: one per call the benchmark makes into a layer.
//!
//! The repo's own `dlrm_trace::Span` has a fixed vocabulary and no
//! parent link, so the spans recorded *around* the program live here;
//! the engine's own spans are adopted as children of the call that
//! produced them. Spans stay in memory until the run ends.

use dlrm_core::trace::{SpanKind, TraceCollector};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct BenchSpan {
    pub name: &'static str,
    pub start_ms: f64,
    pub end_ms: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share this identifier.
    pub request: u64,
}

impl BenchSpan {
    pub fn duration_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<BenchSpan>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ms(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }

    /// Opens a span; children recorded before [`Self::close`] may name
    /// the returned index as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ms();
        self.spans.push(BenchSpan {
            name,
            start_ms: now,
            end_ms: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ms = self.now_ms();
    }

    /// Times `f` as one span and returns its result and duration in ms.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let span = self.open(name, parent, request);
        let out = f();
        self.close(span);
        (out, self.spans[span].duration_ms())
    }

    /// Adopts the engine's spans for one `run_overlapped` call as
    /// children of `parent`. The observer's clock starts when it is
    /// created, which the caller does right after opening `parent`.
    pub fn adopt_engine_spans(&mut self, parent: usize, engine: &TraceCollector) {
        let base = self.spans[parent].start_ms;
        let request = self.spans[parent].request;
        for s in engine.spans() {
            let name = match s.kind {
                SpanKind::DenseOp => "engine.dense_op",
                SpanKind::SparseOp(_) => "engine.sparse_op",
                SpanKind::RpcOutstanding(_) => "engine.rpc_outstanding",
                // The observer's own E2E duplicates `parent`.
                _ => continue,
            };
            self.spans.push(BenchSpan {
                name,
                start_ms: base + s.start,
                end_ms: base + s.end(),
                parent: Some(parent),
                request,
            });
        }
    }

    pub fn children(&self, parent: usize) -> impl Iterator<Item = &BenchSpan> {
        self.spans.iter().filter(move |s| s.parent == Some(parent))
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ms\":{},\"end_ms\":{}}}\n",
                s.name, s.request, s.start_ms, s.end_ms
            ));
        }
        out
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered_ms(lo: f64, hi: f64, intervals: impl Iterator<Item = (f64, f64)>) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .map(|(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = lo;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    covered
}

/// A span's self time: its duration minus the part of that interval its
/// children cover. Overlapping children are counted once.
pub fn self_ms(span: &BenchSpan, children: impl Iterator<Item = (f64, f64)>) -> f64 {
    span.duration_ms() - covered_ms(span.start_ms, span.end_ms, children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ms: f64, end_ms: f64) -> BenchSpan {
        BenchSpan {
            name: "t",
            start_ms,
            end_ms,
            parent: None,
            request: 0,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let parent = span(0.0, 10.0);
        // [1,4] and [3,6] overlap; [8,12] sticks out past the parent.
        let kids = [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)];
        assert_eq!(covered_ms(0.0, 10.0, kids.into_iter()), 7.0);
        assert_eq!(self_ms(&parent, kids.into_iter()), 3.0);
        assert_eq!(self_ms(&parent, std::iter::empty()), 10.0);
        // A child nested inside another adds nothing.
        assert_eq!(self_ms(&parent, [(2.0, 8.0), (3.0, 4.0)].into_iter()), 4.0);
    }

    #[test]
    fn tracer_links_children_and_writes_one_line_per_span() {
        let mut t = Tracer::new();
        let root = t.open("request", None, 7);
        let (v, ms) = t.time("load", Some(root), 7, || 41 + 1);
        t.close(root);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
        assert_eq!(t.children(root).count(), 1);
        assert!(t.spans[root].end_ms >= t.spans[1].end_ms);
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text
            .lines()
            .next()
            .unwrap()
            .starts_with("{\"id\":0,\"name\":\"request\",\"request\":7,\"parent\":null,"));
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
    }
}
