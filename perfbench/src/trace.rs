//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into each layer's public functions
//! from the benchmark's own code; nothing inside the program is
//! instrumented. Each span records its name, start, end, parent span and
//! op id. Counters ride on the span that produced them, so ratios are
//! taken where the work happens. Spans stay in memory until the run
//! ends, then go out as JSON Lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub op: u64,
    pub counters: Vec<(&'static str, f64)>,
}

/// A span recorded on a worker thread, before it is merged into the
/// tracer (its parent is always a span of the owning tracer).
pub struct LocalSpan {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub counters: Vec<(&'static str, f64)>,
}

impl LocalSpan {
    /// Times `f` as a span named `name`.
    pub fn time<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, LocalSpan) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (
            out,
            LocalSpan {
                name,
                start,
                end,
                counters: Vec::new(),
            },
        )
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> SpanId {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
            counters: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Records a root span timed by the caller.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            op,
            counters: Vec::new(),
        });
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Renames a span whose call turned out to do another layer's work
    /// (for example, a memoized lookup instead of a computation).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        self.spans[id].name = name;
    }

    pub fn count(&mut self, id: SpanId, name: &'static str, value: f64) {
        self.spans[id].counters.push((name, value));
    }

    /// Merges a span recorded on a worker thread.
    pub fn merge(&mut self, local: LocalSpan, op: u64, parent: SpanId) {
        let (start_ns, end_ns) = (self.ns(local.start), self.ns(local.end));
        self.spans.push(Span {
            name: local.name,
            start_ns,
            end_ns,
            parent: Some(parent),
            op,
            counters: local.counters,
        });
    }

    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Per-layer aggregates: self time, call count and summed counters.
    /// A span's self time is its duration minus the part of it that its
    /// children cover (children of one span may overlap when they ran on
    /// parallel workers, so their intervals are merged first).
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let kids = &mut children[i];
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if b <= a {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            let layer = out.entry(s.name).or_default();
            layer.calls += 1;
            layer.self_ns += dur.saturating_sub(covered);
            for &(k, v) in &s.counters {
                *layer.counters.entry(k).or_default() += v;
            }
        }
        out
    }

    /// The spans as JSON Lines (`name`, `start_ns`, `end_ns`, `parent`,
    /// `op`, counters), in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}",
                s.name, s.start_ns, s.end_ns, s.op
            );
            for (k, v) in &s.counters {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Aggregate of every span of one layer.
#[derive(Default, Debug)]
pub struct Layer {
    pub calls: u64,
    pub self_ns: u64,
    pub counters: BTreeMap<&'static str, f64>,
}

impl Layer {
    /// Mean self time per call, in milliseconds.
    pub fn ms_per_call(&self) -> f64 {
        self.self_ns as f64 / 1e6 / self.calls.max(1) as f64
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }
}
