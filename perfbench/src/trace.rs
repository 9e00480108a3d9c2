//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), a start, an end and the span that
//! was open when it began. Spans stay in memory while the run measures and
//! are written out as Chrome trace-event JSON when it ends, loadable in the
//! same viewer (Perfetto, `chrome://tracing`) as the simulator's own span
//! exports. A layer's self time is the time its spans cover minus the time
//! their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

pub struct Tracer {
    on: bool,
    workload: &'static str,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Tracer {
        Tracer { on: false, workload, t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Turn recording on or off for the spans begun from now on.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Some(id)
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.truncate(pos);
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per layer (the name up to its first `.`), milliseconds.
    pub fn self_ms(&self) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(&s.name).to_string();
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Chrome trace-event JSON of every recorded span (timestamps in us).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let layer = s.name.split('.').next().unwrap_or(&s.name);
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"workload\":\"{}\"}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                self.workload
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new("w");
        t.set_on(true);
        let outer = t.begin("a.outer");
        t.span("b.inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
        t.end(outer);
        let s = t.self_ms();
        assert!(s["b"] >= 5.0);
        assert!(s["a"] < s["b"]);
        assert!(t.chrome_json().contains("\"parent\":0"));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new("w");
        let id = t.begin("a.x");
        t.end(id);
        assert_eq!(t.len(), 0);
    }
}
