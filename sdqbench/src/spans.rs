//! A small in-memory span recorder for the traced run.
//!
//! `obs::trace` is not reused: switching it on also switches on every
//! span site inside the library (the measured code would change), and
//! its flight recorder keeps 16 traces where a replay needs hundreds.
//! Here the harness records a span around each call into a layer, keeps
//! them all in memory, and writes them out when the run ends.

use std::time::Instant;

/// One completed span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Layer-qualified name, e.g. `durable.wal_append`.
    pub name: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one replayed op share this id.
    pub op: u32,
}

impl SpanRec {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans on one thread. A disabled recorder runs the same code
/// and records nothing, which is how the tracer's own cost is measured.
pub struct Recorder {
    t0: Instant,
    enabled: bool,
    op: u32,
    open: Vec<usize>,
    /// Every span opened so far, in start order.
    pub spans: Vec<SpanRec>,
}

/// An open span; hand it back to [`Recorder::close`].
#[must_use = "a span measures until closed"]
pub struct Open(Option<usize>);

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            t0: Instant::now(),
            enabled,
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Spans opened from here on belong to op `id`.
    pub fn set_op(&mut self, id: u32) {
        self.op = id;
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Close a span (and any span left open inside it).
    pub fn close(&mut self, span: Open) {
        let Some(idx) = span.0 else { return };
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == idx {
                break;
            }
        }
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            // Clip the child to its parent, so a child that ran over
            // cannot push a self time below zero.
            let start = s.start_ns.max(spans[p].start_ns);
            let end = s.end_ns.min(spans[p].end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Samples of `name`'s self time, in nanoseconds, one per span.
pub fn self_ns_of(spans: &[SpanRec], name: &str) -> Vec<f64> {
    self_times(spans)
        .into_iter()
        .zip(spans)
        .filter(|(_, s)| s.name == name)
        .map(|(t, _)| t as f64)
        .collect()
}

/// Samples of `name`'s whole duration, in nanoseconds, one per span.
pub fn duration_ns_of(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// The spans in Chrome's trace-event format (`chrome://tracing`,
/// Perfetto): one complete event per span, one track per op kind.
pub fn chrome_json(spans: &[SpanRec]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"op\":{},\"parent\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.op,
            s.parent.map_or(-1, |p| p as i64),
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_covered_time_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` by 10: the union covers 10..60.
            span("b", 30, 60, Some(0)),
            span("a.inner", 15, 20, Some(1)),
            // Runs past its parent: clipped at 100.
            span("late", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 30, 5, 40]);
        assert_eq!(self_ns_of(&spans, "a"), vec![25.0]);
        assert_eq!(duration_ns_of(&spans, "a"), vec![30.0]);
    }

    #[test]
    fn recorder_nests_spans_and_tags_ops() {
        let mut rec = Recorder::new(true);
        rec.set_op(7);
        let root = rec.open("op");
        let inner = rec.open("layer");
        rec.close(inner);
        let sibling = rec.open("next");
        rec.close(sibling);
        rec.close(root);
        let names: Vec<_> = rec.spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            names,
            vec![("op", None, 7), ("layer", Some(0), 7), ("next", Some(0), 7)]
        );
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);
        assert!(chrome_json(&rec.spans).contains("\"name\":\"layer\""));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let s = rec.open("op");
        rec.close(s);
        assert!(rec.spans.is_empty());
    }
}
