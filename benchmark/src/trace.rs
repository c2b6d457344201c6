//! In-memory spans around the calls into each layer.
//!
//! A span is `(name, start, end, parent, request id)`. Spans are recorded
//! from the benchmark's side of every public entry point, kept in memory,
//! and written out once at the end. A layer's *self time* is its span's
//! duration minus the part its child spans cover.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub req: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { t0: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Run `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, req: u32, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, req, parent, start_ns, end_ns: start_ns });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    /// Per span name, the self time in ns of every request that has the
    /// span (summed when a request has several).
    pub fn self_ns(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut per_req: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            *per_req.entry((s.name, s.req)).or_insert(0) += (s.end_ns - s.start_ns) - child;
        }
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for ((name, _), ns) in per_req {
            out.entry(name).or_default().push(ns);
        }
        out
    }

    /// Per root span name, the whole duration in ns of every such span.
    pub fn total_ns(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).collect()
    }

    /// The trace file: one array per field, index-aligned, `parent` = −1
    /// for a root (compact enough for 10⁴–10⁵ spans).
    pub fn to_json(&self, provenance: Value) -> Value {
        let col = |f: &dyn Fn(&Span) -> Value| Value::Arr(self.spans.iter().map(f).collect());
        Value::obj([
            ("provenance", provenance),
            ("unit", Value::str("ns since trace start")),
            ("name", col(&|s| Value::str(s.name))),
            ("req", col(&|s| Value::Num(s.req as f64))),
            ("parent", col(&|s| Value::Num(s.parent.map_or(-1.0, |p| p as f64)))),
            ("start", col(&|s| Value::Num(s.start_ns as f64))),
            ("end", col(&|s| Value::Num(s.end_ns as f64))),
        ])
    }
}

/// Median of a sample (0 when empty); sorts in place.
pub fn median_u64(xs: &mut [u64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable();
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2] as f64
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) as f64 / 2.0
    }
}
