//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a layer, start and end, and the span that caused it;
//! every span of one operation carries that operation's id. Spans stay in
//! memory and are written out when the run ends. A disabled tracer records
//! nothing and only runs the closure.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// Layers spans are attributed to, with the metric their self time is
/// reported as: the benchmark's own client code first, then the
/// repository's crates.
pub const LAYERS: [(&str, &str); 7] = [
    ("client", "client.self_ms"),
    ("ir", "ir.self_ms"),
    ("core", "core.self_ms"),
    ("relational", "relational.self_ms"),
    ("ml", "ml.self_ms"),
    ("serve", "serve.self_ms"),
    ("storage", "storage.self_ms"),
];

#[derive(Debug, Clone)]
pub struct Span {
    pub op: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u64>,
    op: u64,
    next: u64,
}

impl Tracer {
    /// A tracer for one client thread; `base` keeps op and span ids of
    /// different threads apart.
    pub fn new(on: bool, epoch: Instant, base: u64) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: base << 40,
            next: base << 40,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Run one operation under a new op id and a root span.
    pub fn op<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.op += 1;
        self.span("client", name, f)
    }

    /// Run `f` inside a span of `layer`.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        self.next += 1;
        let id = self.next;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.stack.pop();
        self.spans.push(Span {
            op: self.op,
            id,
            parent,
            layer,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        out
    }

    /// Record a child of the current span for work the engine timed itself
    /// (`ExecutionReport::data_time`, `ml_time`), placed at `start`.
    pub fn child(&mut self, layer: &'static str, name: &'static str, start: Instant, d: Duration) {
        if !self.on {
            return;
        }
        self.next += 1;
        let start_ns = self.ns(start);
        self.spans.push(Span {
            op: self.op,
            id: self.next,
            parent: self.stack.last().copied(),
            layer,
            name,
            start_ns,
            end_ns: start_ns + d.as_nanos() as u64,
        });
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Operations traced (distinct op ids).
    pub fn ops(&self) -> usize {
        let mut ops: Vec<u64> = self.spans.iter().map(|s| s.op).collect();
        ops.sort_unstable();
        ops.dedup();
        ops.len()
    }

    /// Self time per layer in nanoseconds: each span's duration minus the
    /// part its children cover (children of one span never overlap, since
    /// each client thread runs its calls one after another).
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, u64> = LAYERS.iter().map(|(l, _)| (*l, 0)).collect();
        for s in &self.spans {
            let own = s
                .dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            *out.entry(s.layer).or_default() += own;
        }
        out
    }

    /// Durations in milliseconds of the spans with this layer and name.
    pub fn durations_ms(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.id, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        t.op("op", |t| {
            t.span("core", "prepare", |t| {
                t.child("ml", "score", Instant::now(), Duration::from_millis(2));
                std::thread::sleep(Duration::from_millis(5));
            })
        });
        let own = t.self_ns();
        let core = own["core"] as f64 / 1e6;
        assert!((2.5..1000.0).contains(&core), "core self {core} ms");
        assert_eq!(own["ml"], 2_000_000);
        assert_eq!(t.ops(), 1);
        assert!(t.spans().iter().all(|s| s.op == t.spans()[0].op));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let v = t.op("op", |t| t.span("core", "x", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
