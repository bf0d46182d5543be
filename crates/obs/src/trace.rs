//! `obs::trace` — request-scoped tracing: span trees, a flight recorder,
//! and explainable detection.
//!
//! The metrics core ([`crate`]) answers *how much / how slow on
//! aggregate*; this module answers *where did this request spend its
//! time*. One traced request produces one [`TraceReport`]: a tree of
//! [`SpanRecord`]s with hierarchical parent ids, microsecond timestamps
//! on a single clock, and per-span key/value attributes ("grouping path:
//! dense", "cache: patch", "memo: hit").
//!
//! ## Design
//!
//! - **Gating.** Tracing is disabled by default; the cost of a disabled
//!   span site is one relaxed atomic load. Enable with `SDQ_TRACE=1`
//!   (read once) or programmatically via [`set_enabled`].
//! - **One thread per trace.** A request is served on the thread that
//!   opened its [`root`], and so is every span under it: the trace's
//!   clock, id counter, open-span stack and buffer of completed spans all
//!   live in that thread's local state. [`span()`] pushes an open frame
//!   onto the stack; dropping the guard moves the completed record into
//!   the buffer — no atomics, no locks, no allocation beyond the record
//!   itself. Spans opened on any other thread find no trace and are
//!   no-ops.
//! - **Flight recorder.** A completed root span assembles the trace and
//!   pushes it into a bounded global ring ([`ring_capacity`] entries,
//!   oldest evicted), readable via [`last_trace`] / [`recent_traces`]
//!   and served over the wire by the `Request::Trace` op.
//!
//! Spans created while no request is traced on the thread are no-ops,
//! so backends driven directly (not through `api::dispatch`, which opens
//! the root span) stay untraced and unbuffered even when tracing is on.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Display;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Flight-recorder depth: completed request traces retained.
const RING: usize = 16;

// ------------------------------------------------------------------ gating

fn flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| AtomicBool::new(crate::env::flag("SDQ_TRACE").unwrap_or(false)))
}

/// Is tracing on? One relaxed load — this is the whole cost of a span
/// site while tracing is disabled.
#[inline]
pub fn enabled() -> bool {
    flag().load(Ordering::Relaxed)
}

/// Turn tracing on or off process-wide (overrides `SDQ_TRACE`).
pub fn set_enabled(on: bool) {
    flag().store(on, Ordering::Relaxed);
}

// ------------------------------------------------------------- span records

/// One completed span. Timestamps are microseconds since the root span's
/// start, measured on the trace's single `Instant` clock.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanRecord {
    /// Trace-unique id (1-based; the root is the span whose `parent` is 0).
    pub id: u64,
    /// Parent span id; 0 for the root.
    pub parent: u64,
    /// Span name, e.g. `api.detect`, `shard.export`, `detect.cfd`.
    pub name: String,
    /// Start offset in microseconds from the trace start.
    pub start_us: u64,
    /// End offset in microseconds from the trace start.
    pub end_us: u64,
    /// Ordinal of the thread that ran the span. Every span runs on the
    /// request thread, so this reads 0; it stays in the wire format and
    /// the Chrome export's `tid`.
    pub thread: u64,
    /// Key/value attributes attached while the span was open.
    pub attrs: Vec<(String, String)>,
}

impl SpanRecord {
    /// Wall time of the span in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Look up an attribute by key (first match).
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// One completed request trace: the span tree of a single dispatched
/// request, root first, remaining spans sorted by start time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceReport {
    /// Root span name (`api.<kind>`).
    pub name: String,
    /// Root span wall time in microseconds.
    pub duration_us: u64,
    /// All spans of the request.
    pub spans: Vec<SpanRecord>,
}

impl TraceReport {
    /// The root span (parent id 0).
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.parent == 0)
    }

    /// Direct children of span `id`, in start order.
    pub fn children(&self, id: u64) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent == id).collect()
    }

    /// Render the span tree as an indented text block:
    ///
    /// ```text
    /// api.detect                      4123µs
    ///   cluster.scatter               3800µs
    ///     shard.export                 950µs  shard=0
    ///       detect.cfd                 310µs  cfd=2 memo=recompute path=dense
    /// ```
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        if let Some(root) = self.root() {
            self.render_span(root, 0, &mut out);
        }
        out
    }

    fn render_span(&self, s: &SpanRecord, depth: usize, out: &mut String) {
        use std::fmt::Write;
        let name_col = format!("{:indent$}{}", "", s.name, indent = depth * 2);
        let _ = write!(out, "{name_col:<34} {:>9}µs", s.duration_us());
        for (k, v) in &s.attrs {
            let _ = write!(out, "  {k}={v}");
        }
        out.push('\n');
        for c in self.children(s.id) {
            self.render_span(c, depth + 1, out);
        }
    }

    /// Export as Chrome trace-event JSON (an array of complete `"ph":"X"`
    /// events), loadable in `chrome://tracing` or Perfetto. Timestamps
    /// and durations are microseconds; `tid` is the span's thread
    /// ordinal, attributes land in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"sdq\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{",
                json_escape(&s.name),
                s.start_us,
                s.duration_us(),
                s.thread
            ));
            for (j, (k, v)) in s.attrs.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
            }
            out.push_str("}}");
        }
        out.push(']');
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// -------------------------------------------------------- trace machinery

/// An open (not yet completed) span on some thread's stack.
struct OpenSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    start_us: u64,
    attrs: Vec<(String, String)>,
}

/// Per-thread trace state: the start of the request traced on this
/// thread (if any), the last span id handed out, the open-span stack, and
/// the buffer of completed spans.
#[derive(Default)]
struct Tls {
    t0: Option<Instant>,
    last_id: u64,
    parent: u64,
    open: Vec<OpenSpan>,
    done: Vec<SpanRecord>,
}

thread_local! {
    static TLS: RefCell<Tls> = RefCell::new(Tls::default());
}

/// RAII span guard. Inactive (`id == 0`) when tracing is off or no
/// request is traced on this thread; then every method is a no-op.
#[must_use = "a span measures until dropped"]
pub struct Span {
    id: u64,
}

/// Open a span under the current thread's innermost open span. Names
/// should be `'static` dotted paths (`detect.cfd`); dynamic detail goes
/// into attributes, not the name.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { id: 0 };
    }
    span_slow(name)
}

#[cold]
fn span_slow(name: &'static str) -> Span {
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        let Some(t0) = t.t0 else {
            return Span { id: 0 };
        };
        t.last_id += 1;
        let id = t.last_id;
        let start_us = t0.elapsed().as_micros() as u64;
        let parent = t.parent;
        t.open.push(OpenSpan {
            id,
            parent,
            name,
            start_us,
            attrs: Vec::new(),
        });
        t.parent = id;
        Span { id }
    })
}

impl Span {
    /// Is this guard recording?
    pub fn active(&self) -> bool {
        self.id != 0
    }

    /// Attach a key/value attribute to this span.
    pub fn attr(&self, key: &str, value: impl Display) {
        if self.id == 0 {
            return;
        }
        TLS.with(|t| {
            let mut t = t.borrow_mut();
            if let Some(o) = t.open.iter_mut().rev().find(|o| o.id == self.id) {
                o.attrs.push((key.to_string(), value.to_string()));
            }
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        TLS.with(|t| {
            let mut t = t.borrow_mut();
            let Some(t0) = t.t0 else {
                return;
            };
            let Some(pos) = t.open.iter().rposition(|o| o.id == self.id) else {
                return;
            };
            let end_us = t0.elapsed().as_micros() as u64;
            // Spans are guard-scoped, so closes are LIFO; any deeper
            // frames still open (a leaked guard) close with this one.
            let closed: Vec<OpenSpan> = t.open.drain(pos..).collect();
            t.parent = closed[0].parent;
            for o in closed {
                t.done.push(SpanRecord {
                    id: o.id,
                    parent: o.parent,
                    name: o.name.to_string(),
                    start_us: o.start_us,
                    end_us,
                    thread: 0,
                    attrs: o.attrs,
                });
            }
        });
    }
}

/// Attach an attribute to the current thread's innermost open span — the
/// deep-code escape hatch for sites that don't hold the guard (e.g. the
/// grouping-path dispatch tagging its caller's per-CFD span).
#[inline]
pub fn note(key: &str, value: impl Display) {
    if !enabled() {
        return;
    }
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        if let Some(o) = t.open.last_mut() {
            o.attrs.push((key.to_string(), value.to_string()));
        }
    });
}

// ------------------------------------------------------------- root spans

/// Guard for one traced request: opens the trace and its root span; on
/// drop, assembles the [`TraceReport`] and records it in the flight
/// recorder.
#[must_use = "the request trace completes when dropped"]
pub struct RequestTrace {
    /// Did this guard open the trace (rather than nest under one)?
    owner: bool,
    root: Option<Span>,
}

/// Begin a traced request on this thread (the root span of a new trace).
/// Inert when tracing is off; on a thread that already carries a trace
/// (nested dispatch), degrades to a plain child span.
pub fn root(name: &'static str) -> RequestTrace {
    if !enabled() {
        return RequestTrace {
            owner: false,
            root: None,
        };
    }
    let owner = TLS.with(|t| {
        let mut t = t.borrow_mut();
        if t.t0.is_some() {
            return false;
        }
        t.t0 = Some(Instant::now());
        t.last_id = 0;
        t.parent = 0;
        true
    });
    RequestTrace {
        owner,
        root: Some(span(name)),
    }
}

impl Drop for RequestTrace {
    fn drop(&mut self) {
        // Close the root span first so it lands in this thread's buffer.
        drop(self.root.take());
        if !self.owner {
            return;
        }
        let mut spans = TLS.with(|t| {
            let mut t = t.borrow_mut();
            t.t0 = None;
            t.open.clear();
            t.parent = 0;
            std::mem::take(&mut t.done)
        });
        // Root first, then start order; ids break ties deterministically.
        spans.sort_by_key(|s| (s.parent != 0, s.start_us, s.id));
        let (name, duration_us) = spans
            .first()
            .map(|r| (r.name.clone(), r.duration_us()))
            .unwrap_or_default();
        record(TraceReport {
            name,
            duration_us,
            spans,
        });
    }
}

// -------------------------------------------------------- flight recorder

fn recorder() -> &'static Mutex<VecDeque<TraceReport>> {
    static R: OnceLock<Mutex<VecDeque<TraceReport>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(VecDeque::with_capacity(RING)))
}

fn record(report: TraceReport) {
    let mut ring = recorder()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if ring.len() == RING {
        ring.pop_front();
    }
    ring.push_back(report);
}

/// The flight recorder's depth (completed traces retained).
pub fn ring_capacity() -> usize {
    RING
}

/// The most recently completed request trace, if any.
pub fn last_trace() -> Option<TraceReport> {
    recorder()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .back()
        .cloned()
}

/// All retained traces, oldest first (at most [`ring_capacity`]).
pub fn recent_traces() -> Vec<TraceReport> {
    recorder()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .cloned()
        .collect()
}

/// Drop every retained trace (tests and demos that want a clean ring).
pub fn clear() {
    recorder()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    // The enabled flag and the recorder are process-global; tests
    // serialize on one lock and leave tracing enabled for the module.
    fn lock() -> MutexGuard<'static, ()> {
        static M: OnceLock<Mutex<()>> = OnceLock::new();
        M.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _g = lock();
        set_enabled(false);
        clear();
        {
            let _r = root("api.noop");
            let _s = span("child");
        }
        assert!(last_trace().is_none());
        set_enabled(true);
    }

    #[test]
    fn root_and_children_form_one_tree() {
        let _g = lock();
        set_enabled(true);
        {
            let _r = root("api.demo");
            let s = span("step.one");
            s.attr("k", "v");
            drop(s);
            let _s2 = span("step.two");
            note("deep", 7);
        }
        let t = last_trace().expect("trace recorded");
        assert_eq!(t.name, "api.demo");
        let root_span = t.root().expect("root present");
        assert_eq!(root_span.name, "api.demo");
        let kids = t.children(root_span.id);
        assert_eq!(kids.len(), 2);
        assert_eq!(kids[0].name, "step.one");
        assert_eq!(kids[0].attr("k"), Some("v"));
        assert_eq!(kids[1].attr("deep"), Some("7"));
        for s in &t.spans {
            assert!(s.end_us >= s.start_us, "span is balanced");
        }
    }

    #[test]
    fn ring_is_bounded() {
        let _g = lock();
        set_enabled(true);
        clear();
        for _ in 0..(RING + 5) {
            let _r = root("api.tick");
        }
        let all = recent_traces();
        assert_eq!(all.len(), RING, "ring holds exactly its capacity");
        assert!(last_trace().is_some());
    }

    #[test]
    fn chrome_json_shape_and_escaping() {
        let t = TraceReport {
            name: "api.x".into(),
            duration_us: 10,
            spans: vec![SpanRecord {
                id: 1,
                parent: 0,
                name: "api.x".into(),
                start_us: 0,
                end_us: 10,
                thread: 0,
                attrs: vec![("note".into(), "a\"b\\c".into())],
            }],
        };
        let j = t.to_chrome_json();
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"ph\":\"X\""));
        assert!(j.contains("\\\"b\\\\c"));
        assert!(j.contains("\"dur\":10"));
    }

    #[test]
    fn render_tree_indents_children() {
        let t = TraceReport {
            name: "api.r".into(),
            duration_us: 9,
            spans: vec![
                SpanRecord {
                    id: 1,
                    name: "api.r".into(),
                    end_us: 9,
                    ..SpanRecord::default()
                },
                SpanRecord {
                    id: 2,
                    parent: 1,
                    name: "inner".into(),
                    start_us: 1,
                    end_us: 5,
                    attrs: vec![("k".into(), "v".into())],
                    ..SpanRecord::default()
                },
            ],
        };
        let txt = t.render_tree();
        assert!(txt.contains("api.r"));
        assert!(txt.contains("  inner"));
        assert!(txt.contains("k=v"));
    }
}
