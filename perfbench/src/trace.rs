//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions: name, start, end, parent span and a unit id
//! shared by the spans of one unit of work. Nothing is written until the
//! run ends. With tracing off every method is a no-op apart from running
//! the wrapped closure, so the untraced run executes the same calls.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub unit: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder: spans, counters and derived gauges of one run.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
    gauges: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded (the traced run).
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` belonging to `unit`; the span's
    /// parent is the innermost open span. The result passes through
    /// `black_box`, so a replayed call whose value is dropped still runs.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        unit: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return std::hint::black_box(f(self));
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            unit,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let r = std::hint::black_box(f(self));
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Adds `v` to counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.counters.entry(name).or_insert(0.0) += v;
        }
    }

    /// Sets a derived per-pass value (ratios, residuals).
    pub fn set(&mut self, name: &'static str, v: f64) {
        if self.on {
            self.gauges.insert(name, v);
        }
    }

    /// Total seconds spent in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .sum::<f64>()
            * 1e-9
    }

    /// Total seconds spent in spans of any of `names`.
    pub fn total_of(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.total_s(n)).sum()
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Per-span self time: duration minus the time its child spans cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Value of a per-layer metric averaged over `passes`: a span name
    /// gives seconds per pass, a counter its count per pass, a gauge its
    /// value. `None` when the run never touched the layer.
    pub fn layer_value(&self, name: &str, passes: usize) -> Option<f64> {
        let per = passes.max(1) as f64;
        if let Some(&g) = self.gauges.get(name) {
            return Some(g);
        }
        if let Some(&c) = self.counters.get(name) {
            return Some(c / per);
        }
        self.spans
            .iter()
            .any(|s| s.name == name)
            .then(|| self.total_s(name) / per)
    }

    /// Self seconds per pass of every span name, for the report.
    pub fn self_times(&self, passes: usize) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name).or_insert(0.0) += ns as f64 * 1e-9 / passes.max(1) as f64;
        }
        out
    }

    /// The spans as tab-separated lines (id, parent, unit, name, start,
    /// end, self), written once when the run ends.
    pub fn dump(&self) -> String {
        let mut out = String::from("id\tparent\tunit\tname\tstart_ns\tend_ns\tself_ns\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{:016x}\t{}\t{}\t{}\t{self_ns}",
                s.unit, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// A unit id from the parts that name one unit of work.
pub fn unit_id(parts: &[u64]) -> u64 {
    let mut d = crate::util::Digest::new();
    for &p in parts {
        d.u64(p);
    }
    d.finish()
}
