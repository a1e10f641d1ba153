//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The store lives in memory for the whole traced run and is written out
//! once, when the run ends. A disabled tracer records nothing, so the same
//! code path serves the untraced comparison run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::{self_times, Interval};

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<SpanId>,
    job: u64,
}

/// Per-layer totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    pub spans: usize,
    pub self_ns: u64,
    pub wall_ns: u64,
}

impl LayerTotal {
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`]. Returns `None` when
    /// tracing is off.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, job: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start = self.now();
        self.spans.push(SpanRec {
            name,
            start,
            end: start,
            parent,
            job,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end = self.now();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, job);
        let out = f();
        self.close(id);
        out
    }

    /// Record an already-timed interval (nanoseconds since the origin).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        job: u64,
        start: u64,
        end: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(SpanRec {
            name,
            start,
            end,
            parent,
            job,
        });
        Some(self.spans.len() - 1)
    }

    /// Self and wall time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotal> {
        let intervals: Vec<Interval> = self
            .spans
            .iter()
            .map(|s| Interval {
                start: s.start,
                end: s.end,
                parent: s.parent,
            })
            .collect();
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self_times(&intervals)) {
            let t = out.entry(s.name).or_default();
            t.spans += 1;
            t.self_ns += self_ns;
            t.wall_ns += s.end - s.start;
        }
        out
    }

    /// The layer table: per span name, its span count, self time and share
    /// of the self time of every span (which sums to the roots' wall time).
    pub fn table(&self) -> Vec<String> {
        let layers = self.layers();
        let total: u64 = layers.values().map(|t| t.self_ns).sum();
        layers
            .iter()
            .map(|(name, t)| {
                format!(
                    "layer {name:<10} spans {:>7} self {:>11.3} ms share {:.4}",
                    t.spans,
                    t.self_ms(),
                    t.self_ns as f64 / total.max(1) as f64
                )
            })
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as a JSON array: name, start and end in nanoseconds from
    /// the run's origin, parent span index, and job id.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(self.spans.len() * 80 + 2);
        s.push('[');
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
                sp.name, sp.start, sp.end, sp.job
            );
        }
        s.push_str("]\n");
        s
    }
}
