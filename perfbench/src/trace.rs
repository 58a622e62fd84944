//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions, and the per-layer figures derived from them.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

/// One timed call. Times are ns since the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `plan.build`; `op` for the whole operation.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<u32>,
    /// Operation the span belongs to.
    pub op: u64,
}

/// A span recorder. A disabled trace records nothing, so the same code
/// path serves the traced and the untraced replay.
#[derive(Debug, Clone)]
pub struct Trace {
    on: bool,
    epoch: Instant,
    op: u64,
    stack: Vec<u32>,
    /// Recorded spans, in start order.
    pub spans: Vec<Span>,
}

/// Handle of an open span (`None` when tracing is off).
pub type Open = Option<u32>;

impl Trace {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool, epoch: Instant) -> Trace {
        Trace {
            on,
            epoch,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Close a span opened by [`Trace::begin`].
    pub fn end(&mut self, open: Open) {
        if let Some(id) = open {
            self.spans[id as usize].end = self.now();
            self.stack.pop();
        }
    }

    /// Open the root span of operation `op`.
    pub fn begin_op(&mut self, op: u64) -> Open {
        self.op = op;
        self.begin("op")
    }

    /// Time `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }
}

/// Per-name aggregate of a span set.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// Self time of every span of the name, ns.
    pub self_ns: Vec<f64>,
    /// Duration of every span of the name, ns.
    pub dur_ns: Vec<f64>,
}

impl LayerTimes {
    /// Total self time, ms.
    pub fn busy_ms(&self) -> f64 {
        self.self_ns.iter().sum::<f64>() / 1e6
    }
}

/// Self time (duration minus the direct children's durations) per span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.end - s.start);
        }
    }
    own
}

/// Aggregate spans by name.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTimes> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTimes> = BTreeMap::new();
    for (s, o) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_default();
        e.self_ns.push(o as f64);
        e.dur_ns.push((s.end - s.start) as f64);
    }
    out
}

/// Sum of layer self times over the sum of op durations: the share of
/// operation wall time the recorded layer calls account for.
pub fn coverage(spans: &[Span]) -> f64 {
    let own = self_times(spans);
    let (mut layers, mut ops) = (0u64, 0u64);
    for (s, o) in spans.iter().zip(own) {
        if s.name == "op" {
            ops += s.end - s.start;
        } else {
            layers += o;
        }
    }
    if ops == 0 {
        0.0
    } else {
        layers as f64 / ops as f64
    }
}

/// Spans as JSON lines (name, start, end, parent, op).
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 72);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}, \"op\": {}}}",
            s.name, s.start, s.end, s.op
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 15, 25, Some(1)),
            span("c", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        assert!((coverage(&spans) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false, Instant::now());
        let op = t.begin_op(3);
        t.time("x", || ());
        t.end(op);
        assert!(t.spans.is_empty());
    }
}
