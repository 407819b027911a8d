//! In-memory spans recorded by the benchmark around its calls into the
//! engine's public API. Nothing inside the crates is instrumented: a
//! span covers one public call, and the step durations `ExecStats`
//! already returns are attached to the `execute` span as children.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Handle of an open span (`NONE` when tracing is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    const NONE: SpanId = SpanId(usize::MAX);
}

#[derive(Debug, Clone)]
struct Span {
    op: u64,
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    dur_ns: u64,
}

/// Per-name totals over a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layer {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self time: duration minus the time of direct children.
    pub self_ns: u64,
}

/// Span recorder. When off, every call is a branch and nothing is kept.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            op: 0,
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
        }
    }

    /// True when spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of a new operation.
    pub fn begin_op(&mut self) -> SpanId {
        self.op += 1;
        self.enter_under("op", None)
    }

    /// Opens a span named `name` under `parent`.
    pub fn enter(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let parent = (parent != SpanId::NONE).then_some(parent.0);
        self.enter_under(name, parent)
    }

    fn enter_under(&mut self, name: &'static str, parent: Option<usize>) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op: self.op,
            name,
            parent,
            start_ns,
            dur_ns: 0,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes `id`.
    pub fn exit(&mut self, id: SpanId) {
        if id != SpanId::NONE {
            let now = self.now_ns();
            let s = &mut self.spans[id.0];
            s.dur_ns = now - s.start_ns;
        }
    }

    /// Records a child of `parent` whose duration was measured by the
    /// engine itself (an `ExecStats` step time).
    pub fn child(&mut self, parent: SpanId, name: &'static str, dur: Duration) {
        if parent == SpanId::NONE {
            return;
        }
        let start_ns = self.spans[parent.0].start_ns;
        self.spans.push(Span {
            op: self.op,
            name,
            parent: Some(parent.0),
            start_ns,
            dur_ns: dur.as_nanos() as u64,
        });
    }

    /// Per-name totals with self time = span − direct children.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let l = out.entry(s.name).or_default();
            l.count += 1;
            l.total_ns += s.dur_ns;
            l.self_ns += s.dur_ns.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"span":{i},"op":{},"name":"{}","parent":{parent},"start_ns":{},"dur_ns":{}}}"#,
                s.op, s.name, s.start_ns, s.dur_ns
            )?;
        }
        w.flush()
    }
}

/// Prints the per-layer table: calls, total and self time per name, and
/// self time per operation (per root `op` span).
pub fn print_table(layers: &BTreeMap<&'static str, Layer>) {
    let ops = layers.get("op").map_or(0, |l| l.count);
    println!(
        "{:<14} {:>9} {:>12} {:>12} {:>14}",
        "span", "calls", "total_ms", "self_ms", "self_us_per_op"
    );
    for (name, l) in layers {
        println!(
            "{:<14} {:>9} {:>12.3} {:>12.3} {:>14.3}",
            name,
            l.count,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6,
            l.self_ns as f64 / 1e3 / ops.max(1) as f64
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let op = t.begin_op();
        let ex = t.enter("execute", op);
        t.child(ex, "search", Duration::from_nanos(0));
        t.exit(ex);
        t.exit(op);
        let layers = t.layers();
        assert_eq!(layers["op"].count, 1);
        assert_eq!(
            layers["op"].self_ns,
            layers["op"].total_ns - layers["execute"].total_ns
        );
        assert_eq!(layers["search"].total_ns, 0);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let op = t.begin_op();
        let ex = t.enter("execute", op);
        t.child(ex, "search", Duration::from_millis(1));
        t.exit(ex);
        t.exit(op);
        assert!(t.layers().is_empty());
    }
}
