//! Spans recorded by the benchmark around its own calls into the crates' public functions.
//!
//! Spans are kept in memory and written out when the run ends.  A [`Tracer`] that is off
//! still runs the wrapped call, at the cost of one branch, so the timed and the traced run
//! share one code path and differ only in what is recorded.

use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: `parent` is the index of the enclosing span, `op_id` ties together the
/// spans of one operation (a round, a trial, a served job).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans against one clock origin.
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { origin: Instant::now(), on, spans: Vec::new(), open: Vec::new() }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `call` inside a span named `name`; spans opened by `call` become its children.
    pub fn span<R>(&mut self, name: &str, op_id: u64, call: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return call(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(index);
        let result = call(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Records a span measured elsewhere (a client thread's timestamps) under `parent`, and
    /// returns its index; `None` when the tracer is off.
    pub fn record(
        &mut self,
        name: &str,
        op_id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let since = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: since(start),
            end_ns: since(end),
            parent,
            op_id,
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.duration_ns() as f64 / 1e9)
            .collect()
    }
}

/// Self time per span name: each span's duration minus the durations of its direct children.
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut child_time = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_time[parent] += span.duration_ns();
        }
    }
    let mut by_name = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_time) {
        *by_name.entry(span.name.clone()).or_insert(0) +=
            span.duration_ns().saturating_sub(children);
    }
    by_name
}

/// The trace file's document: the spans in recording order plus per-name self time.
pub fn to_value(workload: &str, spans: &[Span]) -> Value {
    let int = |v: u64| Value::Integer(v as i128);
    let rows = spans
        .iter()
        .map(|span| {
            let mut row = BTreeMap::new();
            row.insert("name".to_string(), Value::String(span.name.clone()));
            row.insert("start_ns".to_string(), int(span.start_ns));
            row.insert("end_ns".to_string(), int(span.end_ns));
            row.insert("parent".to_string(), span.parent.map_or(Value::Null, |p| int(p as u64)));
            row.insert("op_id".to_string(), int(span.op_id));
            Value::Object(row)
        })
        .collect();
    let self_ns = self_times_ns(spans).into_iter().map(|(name, ns)| (name, int(ns))).collect();
    let mut doc = BTreeMap::new();
    doc.insert("workload".to_string(), Value::String(workload.to_string()));
    doc.insert("spans".to_string(), Value::Array(rows));
    doc.insert("self_ns".to_string(), Value::Object(self_ns));
    Value::Object(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: name.to_string(), start_ns, end_ns, parent, op_id: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // round [0,100) holds two siblings, build [10,40) and run [50,90); run holds a
        // nested step [60,70).  Grandchildren are charged to their parent only.
        let spans = vec![
            span("round", 0, 100, None),
            span("build", 10, 40, Some(0)),
            span("run", 50, 90, Some(0)),
            span("step", 60, 70, Some(2)),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs["round"], 100 - 30 - 40);
        assert_eq!(selfs["build"], 30);
        assert_eq!(selfs["run"], 40 - 10);
        assert_eq!(selfs["step"], 10);
        assert_eq!(selfs.values().sum::<u64>(), 100, "self times partition the root span");
    }

    #[test]
    fn tracer_nests_spans_and_is_transparent_when_off() {
        let mut tracer = Tracer::new(true);
        let out = tracer.span("outer", 7, |t| t.span("inner", 7, |_| 41) + 1);
        assert_eq!(out, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name.as_str(), spans[0].parent), ("outer", None));
        assert_eq!(
            (spans[1].name.as_str(), spans[1].parent, spans[1].op_id),
            ("inner", Some(0), 7)
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", 0, |t| t.span("inner", 0, |_| 5)), 5);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn recorded_spans_hang_under_the_parent_given() {
        let mut tracer = Tracer::new(true);
        let t0 = Instant::now();
        let job = tracer.record("job", 3, None, t0, t0 + std::time::Duration::from_millis(5));
        let part = tracer.record("submit", 3, job, t0, t0 + std::time::Duration::from_millis(2));
        assert_eq!((job, part), (Some(0), Some(1)));
        assert_eq!(tracer.spans()[1].parent, Some(0));
        assert_eq!(self_times_ns(tracer.spans())["job"], 3_000_000);
        assert_eq!(Tracer::new(false).record("job", 0, None, t0, t0), None);
    }
}
