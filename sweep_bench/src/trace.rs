//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Every span is opened and closed on the benchmark's main thread, so spans
//! nest strictly. They stay in memory until the run ends, then render as a
//! Chrome trace-event file (Perfetto opens it) and as a per-name summary of
//! total and self time. A disabled [`Tracer`] runs the wrapped calls and
//! records nothing, so the untraced measurement shares this code path.

use avc_population::telemetry::export::json_escape;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`store.append`, `driver.run`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for one workload.
pub struct Tracer {
    workload: &'static str,
    enabled: bool,
    origin: Instant,
    state: RefCell<State>,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for `workload`; a disabled one records nothing.
    #[must_use]
    pub fn new(workload: &'static str, enabled: bool) -> Tracer {
        Tracer {
            workload,
            enabled,
            origin: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(name, f).0
    }

    /// As [`Tracer::span`], also returning the call's duration in
    /// nanoseconds (measured even when the tracer is disabled).
    pub fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        if !self.enabled {
            let started = Instant::now();
            let out = f();
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            return (out, ns);
        }
        let id = {
            let mut state = self.state.borrow_mut();
            let id = state.spans.len();
            let parent = state.open.last().copied();
            state.spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            state.open.push(id);
            id
        };
        let out = f();
        let end = self.now_ns();
        let mut state = self.state.borrow_mut();
        assert_eq!(state.open.pop(), Some(id), "spans must close in order");
        let span = &mut state.spans[id];
        span.end_ns = end;
        (out, span.dur_ns())
    }

    /// A copy of every closed span, in opening order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }

    /// Durations in nanoseconds of every span named `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.state
            .borrow()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Durations of spans named `name` whose parent is named `parent`.
    #[must_use]
    pub fn durations_under(&self, name: &str, parent: &str) -> Vec<f64> {
        let state = self.state.borrow();
        let spans = &state.spans;
        spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_some_and(|p| spans[p].name == parent))
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// The Chrome trace-event document for the recorded spans.
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        chrome_trace(self.workload, &self.spans())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.dur_ns() - covered
        })
        .collect()
}

/// Per-name totals: `(count, total ns, self ns)`.
#[must_use]
pub fn summary(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let slot = out.entry(span.name).or_default();
        slot.0 += 1;
        slot.1 += span.dur_ns();
        slot.2 += own;
    }
    out
}

/// Renders spans as Chrome trace events (`ph: "X"`). Times are whole
/// microseconds, as the format specifies, floored at both ends so nesting
/// and ordering survive the rounding; exact nanoseconds ride in `args`.
#[must_use]
pub fn chrome_trace(workload: &str, spans: &[Span]) -> String {
    let workload = json_escape(workload);
    let mut out = format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n\
         {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
         \"args\":{{\"name\":\"{workload}\"}}}}"
    );
    for ((id, span), own) in spans.iter().enumerate().zip(self_times(spans)) {
        let ts = span.start_ns / 1_000;
        let dur = span.end_ns / 1_000 - ts;
        let parent = span.parent.map_or(-1, |p| p as i64);
        out.push_str(&format!(
            ",\n{{\"name\":\"{}\",\"cat\":\"sweep_bench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{ts},\"dur\":{dur},\"args\":{{\"id\":{id},\"parent\":{parent},\
             \"workload\":\"{workload}\",\"dur_ns\":{},\"self_ns\":{own}}}}}",
            span.name,
            span.dur_ns()
        ));
    }
    out.push_str("\n]}\n");
    out
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
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 25, 50, Some(0)), // overlaps `a`: 10..50 covered once
            span("leaf", 12, 20, Some(1)),
            span("c", 90, 100, Some(0)),
        ];
        assert_eq!(self_times(&spans), [50, 12, 25, 8, 10]);
        let totals = summary(&spans);
        assert_eq!(totals["root"], (1, 100, 50));
        assert_eq!(totals["a"], (1, 20, 12));
    }

    #[test]
    fn tracer_nests_spans_under_the_innermost_open_one() {
        let tracer = Tracer::new("w", true);
        let got = tracer.span("outer", || {
            tracer.span("inner", || ());
            tracer.span("inner", || 7)
        });
        assert_eq!(got, 7);
        let spans = tracer.spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            shape,
            [("outer", None), ("inner", Some(0)), ("inner", Some(0))]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(tracer.durations_under("inner", "outer").len(), 2);
        assert!(tracer.durations_under("outer", "inner").is_empty());

        let off = Tracer::new("w", false);
        assert_eq!(off.span("outer", || 3), 3);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_reparses_with_the_repository_json_parser() {
        use avc_store::json::Json;
        let spans = [
            span("root", 1_500, 9_999, None),
            span("child", 2_000, 2_400, Some(0)),
        ];
        let text = chrome_trace("fig3 \"x\"", &spans);
        let doc = Json::parse(&text).expect("trace is valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 3);
        let child = &events[2];
        assert_eq!(child.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(child.get("ts").and_then(Json::as_int), Some(2));
        assert_eq!(child.get("dur").and_then(Json::as_int), Some(0));
        let args = child.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_int), Some(0));
        assert_eq!(args.get("dur_ns").and_then(Json::as_int), Some(400));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("self_ns")
                .and_then(Json::as_int),
            Some(8_099)
        );
    }
}
