//! In-memory span recorder for the traced pass.
//!
//! Spans are taken from the benchmark's own code around calls into each
//! layer's public entry points; nothing inside the simulator is
//! instrumented. They are kept in memory and written to `trace.json`
//! when the run ends. A layer's self time is its span minus the part of
//! it its child spans cover.

use std::time::Instant;

use crate::json::Value;

/// One timed interval. `parent` is an index into the recorder's span
/// list; `cell` names the unit (simulation cell or probe stream) all
/// spans of one piece of work share.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub cell: String,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans against one epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `work` as a span named `name`, nested under whichever span
    /// is open, and returns `work`'s value with the span's duration in
    /// nanoseconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        cell: &str,
        work: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, u64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            cell: cell.to_string(),
        });
        self.open.push(id);
        let value = work(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (value, end_ns - start_ns)
    }

    /// Records an already-measured interval as a child of the open
    /// span. Used where per-call spans would cost more than the call
    /// (the churn bursts): the caller accumulates a total and files it
    /// once.
    pub fn record(&mut self, name: &'static str, cell: &str, duration_ns: u64) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(duration_ns),
            end_ns,
            parent: self.open.last().copied(),
            cell: cell.to_string(),
        });
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// The `trace.json` rendering: one object per span plus its self
    /// time.
    pub fn to_json(&self) -> Value {
        let self_ns = self_times_ns(&self.spans);
        Value::Arr(
            self.spans
                .iter()
                .zip(self_ns)
                .map(|(s, self_ns)| {
                    Value::obj([
                        ("name", Value::Str(s.name.to_string())),
                        ("cell", Value::Str(s.cell.clone())),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("self_ns", Value::Num(self_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus its direct children's.
/// Children never overlap one another (the recorder is single-threaded
/// and strictly nested), so a plain subtraction is exact.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut self_ns: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            self_ns[parent] = self_ns[parent].saturating_sub(span.duration_ns());
        }
    }
    self_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            cell: "c".to_string(),
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("cell", 0, 100, None),
            span("sim.new", 5, 15, Some(0)),
            span("workloads.run", 15, 95, Some(0)),
            span("sim.apply", 20, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 10, 40, 40]);
    }

    #[test]
    fn recorder_nests_and_orders_spans() {
        let mut t = Tracer::default();
        let ((), outer_ns) = t.span("outer", "u", |t| {
            t.span("inner", "u", |_| std::hint::black_box(1 + 1));
            t.record("filed", "u", 0);
        });
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[0].duration_ns(), outer_ns);
        let self_ns = self_times_ns(spans);
        assert_eq!(
            self_ns[0],
            spans[0].duration_ns() - spans[1].duration_ns() - spans[2].duration_ns()
        );
        assert_eq!(t.durations_ns("inner").len(), 1);
    }
}
