//! In-memory spans around the benchmark's own calls into each layer
//! (workload → pass → unit, plus one span per layer kernel), written out
//! once at exit as a Chrome trace that Perfetto opens.

use snicbench_core::json::Json;

use crate::host::Stopwatch;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Unit id: the position of this unit within its parent's work.
    pub unit: u64,
    /// Simulated requests (or kernel operations) done inside the span.
    pub ops: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder. Spans nest by call structure: a span opened inside
/// another's closure is its child.
#[derive(Debug)]
pub struct Tracer {
    origin: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; `f` returns its result and the
    /// operation count to record on the span.
    pub fn span<R>(&mut self, name: &str, unit: u64, f: impl FnOnce(&mut Tracer) -> (R, u64)) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.origin.elapsed_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            unit,
            ops: 0,
        });
        self.open.push(id);
        let (result, ops) = f(self);
        self.open.pop();
        let span = &mut self.spans[id];
        span.end_ns = self.origin.elapsed_ns();
        span.ops = ops;
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The Chrome trace: one complete (`"ph": "X"`) event per span.
    pub fn chrome_trace(&self) -> Json {
        let events = self.spans.iter().enumerate().map(|(id, s)| {
            Json::obj([
                ("name", Json::str(s.name.clone())),
                ("cat", Json::str("perfbench")),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(1)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::U64(id as u64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                        ),
                        ("unit", Json::U64(s.unit)),
                        ("ops", Json::U64(s.ops)),
                        ("self_us", Json::Num(self_ns(&self.spans, id) as f64 / 1e3)),
                    ]),
                ),
            ])
        });
        Json::obj([
            ("traceEvents", Json::arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover (overlapping children count once).
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.dur_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s".into(),
            start_ns,
            end_ns,
            parent,
            unit: 0,
            ops: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            // Overlaps the previous child: 25..30 is covered once.
            span(25, 50, Some(0)),
            // A grandchild never counts against the root.
            span(12, 20, Some(1)),
            // Clipped to the parent's interval.
            span(90, 140, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 40 - 10);
        assert_eq!(self_ns(&spans, 1), 20 - 8);
        assert_eq!(self_ns(&spans, 3), 8);
    }

    #[test]
    fn spans_nest_and_render_as_chrome_trace() {
        let mut t = Tracer::new();
        let r = t.span("pass", 0, |t| {
            let a = t.span("unit", 0, |_| (1, 5));
            let b = t.span("unit", 1, |_| (2, 7));
            (a + b, 12)
        });
        assert_eq!(r, 3);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[1].parent, s[2].parent, s[0].parent),
            (Some(0), Some(0), None)
        );
        assert_eq!((s[0].ops, s[1].ops, s[2].ops), (12, 5, 7));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        let doc = Json::parse(&t.chrome_trace().to_pretty()).expect("trace parses back");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents");
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("X"));
    }
}
