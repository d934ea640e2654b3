//! The traced pass's span recorder.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. Each span keeps its name, the operation it belongs to,
//! its parent and its start and end, all in memory until the run ends.
//! (The library's `telemetry::SpanRecorder` has no parent links or
//! operation ids, which the self-time table needs.)

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Attribute the spans that follow to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span. `f` gets the recorder back so it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Run `f` inside a span named `name` when tracing, bare otherwise.
    pub fn maybe<T>(rec: Option<&mut Recorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
        match rec {
            Some(rec) => rec.span(name, |_| f()),
            None => f(),
        }
    }

    /// End every open span now — after a panic unwound through them.
    pub fn close_all(&mut self) {
        let now = self.now_ns();
        for id in std::mem::take(&mut self.open) {
            self.spans[id].end_ns = now;
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Total ms of the spans named `name`, per operation.
    pub fn per_op(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut m = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *m.entry(s.op).or_insert(0.0) += s.ms();
        }
        m
    }

    /// Per-op ratio of two spans' durations, for ops that have both.
    pub fn ratios(&self, num: &str, den: &str) -> Vec<f64> {
        let dens = self.per_op(den);
        self.per_op(num)
            .into_iter()
            .filter_map(|(op, n)| dens.get(&op).map(|d| n / d))
            .collect()
    }

    /// Self time per span name — each span's duration minus what its
    /// direct children cover (children never overlap: they run in
    /// sequence on one thread) — as `(name, spans, total self ms)`,
    /// largest first.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut table: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let entry = table.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += (s.end_ns - s.start_ns - child) as f64 / 1e6;
        }
        let mut rows: Vec<_> = table.into_iter().map(|(n, (c, ms))| (n, c, ms)).collect();
        rows.sort_by(|a, b| b.2.total_cmp(&a.2));
        rows
    }

    /// The spans as a chrome://tracing document: one complete ("X")
    /// event per span, one lane per operation, microsecond timestamps.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"op\":{},\"parent\":{}}}}}",
                s.name,
                s.op,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut rec = Recorder::default();
        rec.set_op(3);
        rec.span("outer", |rec| {
            spin(200_000);
            rec.span("inner", |_| spin(500_000));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let table = rec.self_times();
        let outer = table.iter().find(|r| r.0 == "outer").expect("outer row");
        let inner = table.iter().find(|r| r.0 == "inner").expect("inner row");
        assert!(inner.2 >= 0.5);
        assert!(outer.2 >= 0.2 && outer.2 < spans[0].ms() - 0.49);
        assert!((outer.2 + inner.2 - spans[0].ms()).abs() < 1e-9);

        let doc = serde_json::parse_value_complete(&rec.to_chrome_json()).expect("valid JSON");
        let events = doc["traceEvents"].as_array().expect("event array");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1]["args"]["parent"].as_u64(), Some(0));
        assert_eq!(rec.ratios("inner", "outer").len(), 1);
    }
}
