//! `obs` — the telemetry core of semandaq.
//!
//! A self-contained, zero-external-dependency metrics layer (the build
//! environment has no registry access, matching the `crates/compat`
//! discipline) built from three primitives:
//!
//! - [`Counter`] — a monotonically increasing `AtomicU64`,
//! - [`Gauge`] — a settable `AtomicI64` for point-in-time levels,
//! - [`Histogram`] — a log₂-bucketed distribution with atomic count,
//!   sum, and max, read out as p50/p95/p99/max,
//!
//! all hanging off one global [`Registry`]. Call sites hold cheap `Arc`
//! handles (typically cached in a `OnceLock` so the name lookup and the
//! registry lock are paid once per process, not per increment); the
//! hot-path cost of an increment is one relaxed atomic add.
//!
//! Latency is captured with [`SpanTimer`], an RAII guard that records
//! elapsed nanoseconds into its histogram on drop:
//!
//! ```
//! let _span = obs::span("demo_section_ns");
//! // ... timed work ...
//! drop(_span); // or fall out of scope
//! assert_eq!(obs::histogram("demo_section_ns").count(), 1);
//! ```
//!
//! [`snapshot()`] freezes the whole registry into a serializable
//! [`MetricsReport`] (plain `String`/`u64`/`i64` fields, sorted by name),
//! and [`render_text()`] prints it in Prometheus text-exposition style.
//! Metric names may embed a literal label set (`requests_total{kind="x"}`);
//! histogram readouts splice their `quantile` label into it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub mod env;
pub mod trace;

pub use trace::{SpanRecord, TraceReport};

/// A monotonically increasing counter. All operations are relaxed
/// atomics: increments from racing threads never lose counts, and
/// readers see some recent value — exactly the guarantee metrics need.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time level: signed, settable, steppable.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Set the gauge to an absolute value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Step the gauge by a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Bucket count for the log₂ histogram: bucket 0 holds the value 0,
/// bucket `i ≥ 1` holds values in `[2^(i-1), 2^i - 1]` — 65 buckets
/// cover the full `u64` range with ≤ 2x relative error per readout.
const N_BUCKETS: usize = 65;

/// A log₂-bucketed distribution. Recording is two relaxed adds plus a
/// relaxed `fetch_max`; readout walks the 65 buckets to estimate
/// quantiles (reported as the bucket's inclusive upper bound, clamped to
/// the observed max, so estimates are exact for the top of the range and
/// never overshoot).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Fold one observation in.
    #[inline]
    pub fn record(&self, v: u64) {
        let idx = (64 - v.leading_zeros()) as usize; // v = 0 lands in bucket 0
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest observation, 0 if empty.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Freeze this histogram into a named snapshot with quantile readout.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        let max = self.max();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    // Inclusive upper bound of bucket i, clamped to max.
                    let upper = if i == 0 {
                        0
                    } else if i >= 64 {
                        u64::MAX
                    } else {
                        (1u64 << i) - 1
                    };
                    return upper.min(max);
                }
            }
            max
        };
        HistogramSnapshot {
            name: name.to_string(),
            count,
            sum: self.sum(),
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
            max,
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// RAII span timer: records elapsed nanoseconds into its histogram when
/// dropped. Construct via [`span()`] (registry lookup) or
/// [`SpanTimer::new`] with a cached histogram handle.
#[must_use = "a span records its duration on drop; binding it to _ drops it immediately"]
pub struct SpanTimer {
    hist: Arc<Histogram>,
    start: Instant,
}

impl SpanTimer {
    /// Start timing into `hist`.
    pub fn new(hist: Arc<Histogram>) -> Self {
        SpanTimer {
            hist,
            start: Instant::now(),
        }
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos();
        self.hist.record(ns.min(u64::MAX as u128) as u64);
    }
}

/// One named metric slot in the registry.
#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A name → metric map under one mutex. Registration (`counter`/`gauge`/
/// `histogram`) is get-or-create and returns a shared handle; the
/// per-call cost is one lock plus one ordered lookup, which call sites
/// amortize away by caching the handle.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        // A poisoned lock only means some thread panicked while holding
        // it; the map itself is always in a consistent state.
        self.metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The metric registered as `name`, created by `make` if absent.
    fn get_or_insert(&self, name: &str, make: fn() -> Metric) -> Metric {
        let mut metrics = self.lock();
        if let Some(m) = metrics.get(name) {
            return m.clone();
        }
        metrics.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Get or create the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_insert(name, || Metric::Counter(Arc::default())) {
            Metric::Counter(c) => c,
            _ => kind_mismatch(name),
        }
    }

    /// Get or create the gauge `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, || Metric::Gauge(Arc::default())) {
            Metric::Gauge(g) => g,
            _ => kind_mismatch(name),
        }
    }

    /// Get or create the histogram `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, || Metric::Histogram(Arc::default())) {
            Metric::Histogram(h) => h,
            _ => kind_mismatch(name),
        }
    }

    /// Freeze every metric into a [`MetricsReport`], sorted by name
    /// within each kind (the map's own order) so output (and wire
    /// encoding) is deterministic.
    pub fn snapshot(&self) -> MetricsReport {
        let mut report = MetricsReport::default();
        for (name, metric) in self.lock().iter() {
            match metric {
                Metric::Counter(c) => report.counters.push((name.clone(), c.get())),
                Metric::Gauge(g) => report.gauges.push((name.clone(), g.get())),
                Metric::Histogram(h) => report.histograms.push(h.snapshot(name)),
            }
        }
        report
    }

    /// Prometheus-style text exposition of the current state.
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }

    /// Zero every registered metric **in place**.
    ///
    /// Instrumented modules cache their `Arc<Counter>`/`Arc<Histogram>`
    /// handles in module-local `OnceLock`s (one lookup under the lock
    /// per process, not per increment), so a reset MUST NOT remove or
    /// replace registry entries: a cached handle pointing at an orphaned
    /// metric would keep counting into an object [`Registry::snapshot`]
    /// can no longer see, silently zeroing that module's telemetry for
    /// the rest of the process. Resetting therefore zeroes each metric
    /// where it stands — every handle cached before the reset stays
    /// live, and increments through it are visible to the next
    /// snapshot. Pinned by `reset_keeps_cached_module_handles_live` in
    /// `tests/metrics_invariants.rs`.
    pub fn reset(&self) {
        for metric in self.lock().values() {
            match metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }
}

/// The kind-mismatch panic, raised after the registry lock is released.
fn kind_mismatch(name: &str) -> ! {
    panic!("metric '{name}' is already registered with a different kind")
}

/// The process-wide registry every instrumented crate records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

/// Get or create a counter in the [`global()`] registry.
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Get or create a gauge in the [`global()`] registry.
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// Get or create a histogram in the [`global()`] registry.
pub fn histogram(name: &str) -> Arc<Histogram> {
    global().histogram(name)
}

/// Start an RAII span recording into the global histogram `name`.
pub fn span(name: &str) -> SpanTimer {
    SpanTimer::new(histogram(name))
}

/// Snapshot the [`global()`] registry.
pub fn snapshot() -> MetricsReport {
    global().snapshot()
}

/// Text exposition of the [`global()`] registry.
pub fn render_text() -> String {
    global().render_text()
}

/// Zero every metric in the [`global()`] registry (test/bench helper).
/// Zeroes in place — cached handles stay live; see [`Registry::reset`].
pub fn reset() {
    global().reset()
}

/// A frozen histogram: count, sum, and quantile readout. All fields are
/// plain integers so the report serializes exactly through any codec.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    pub max: u64,
}

/// A frozen registry: everything the process has measured, sorted by
/// name, in serialization-friendly form. This is what the wire
/// protocol's `Request::Metrics` returns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsReport {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<HistogramSnapshot>,
}

/// Split `requests_total{kind="x"}` into (`requests_total`,
/// `{kind="x"}`); names without labels split into (name, "").
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], &name[i..]),
        None => (name, ""),
    }
}

/// Splice an extra `key="value"` label into a (possibly empty) label set.
fn with_label(labels: &str, key: &str, value: &str) -> String {
    if labels.is_empty() {
        format!("{{{key}=\"{value}\"}}")
    } else {
        let inner = labels
            .strip_prefix('{')
            .and_then(|l| l.strip_suffix('}'))
            .unwrap_or(labels);
        format!("{{{inner},{key}=\"{value}\"}}")
    }
}

impl MetricsReport {
    /// Render in Prometheus text-exposition style: one `name value` line
    /// per counter and gauge; histograms expand to `_count`/`_sum`/`_max`
    /// lines plus `quantile`-labelled p50/p95/p99 lines.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("{name} {v}\n"));
        }
        for h in &self.histograms {
            let (stem, labels) = split_labels(&h.name);
            out.push_str(&format!("{stem}_count{labels} {}\n", h.count));
            out.push_str(&format!("{stem}_sum{labels} {}\n", h.sum));
            out.push_str(&format!("{stem}_max{labels} {}\n", h.max));
            for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                out.push_str(&format!(
                    "{stem}{} {v}\n",
                    with_label(labels, "quantile", q)
                ));
            }
        }
        out
    }

    /// Value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Snapshot of histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests share the process-global registry; use distinct names per
    // test so they cannot interfere under the parallel test runner.

    #[test]
    fn counter_counts() {
        let c = counter("t_counter_counts");
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        // Get-or-create returns the same underlying slot.
        assert_eq!(counter("t_counter_counts").get(), 42);
    }

    #[test]
    fn gauge_steps_and_sets() {
        let g = gauge("t_gauge_steps");
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot("t");
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.max, 1000);
        // Rank 500 lands in bucket 9 (values 256..=511) → upper bound 511.
        assert_eq!(s.p50, 511);
        // Ranks 950 and 990 land in bucket 10 (512..=1023), clamped to max.
        assert_eq!(s.p95, 1000);
        assert_eq!(s.p99, 1000);
    }

    #[test]
    fn histogram_zero_and_empty() {
        let h = Histogram::default();
        let empty = h.snapshot("t");
        assert_eq!((empty.count, empty.p50, empty.max), (0, 0, 0));
        h.record(0);
        let s = h.snapshot("t");
        assert_eq!((s.count, s.p50, s.max), (1, 0, 0));
    }

    #[test]
    fn histogram_full_range_does_not_overflow() {
        let h = Histogram::default();
        h.record(u64::MAX);
        let s = h.snapshot("t");
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.p50, u64::MAX);
    }

    #[test]
    fn span_records_elapsed_ns() {
        let h = histogram("t_span_ns");
        {
            let _span = SpanTimer::new(Arc::clone(&h));
            std::hint::black_box(0);
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        counter("t_snap_b").inc();
        counter("t_snap_a").add(2);
        histogram("t_snap_h").record(7);
        let report = snapshot();
        let names: Vec<&str> = report.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(report.counter("t_snap_a"), Some(2));
        assert_eq!(report.histogram("t_snap_h").map(|h| h.count), Some(1));
    }

    #[test]
    fn render_text_exposition() {
        counter("t_render_total{kind=\"x\"}").add(3);
        histogram("t_render_ns{kind=\"x\"}").record(100);
        let text = render_text();
        assert!(text.contains("t_render_total{kind=\"x\"} 3\n"));
        assert!(text.contains("t_render_ns_count{kind=\"x\"} 1\n"));
        assert!(text.contains("t_render_ns{kind=\"x\",quantile=\"0.5\"} "));
        // Unlabelled histograms get a fresh label set; the quantile
        // estimate (bucket upper bound 7) clamps to the observed max.
        histogram("t_render_plain_ns").record(5);
        assert!(render_text().contains("t_render_plain_ns{quantile=\"0.5\"} 5\n"));
    }

    #[test]
    fn kind_collision_panics() {
        // A local registry: the deliberate panics must not touch the one
        // other tests share.
        let r = Registry::default();
        r.counter("t_collision").inc();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.gauge("t_collision")));
        assert!(err.is_err());
        // A panic while the lock is held poisons it; the registry reads on.
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = r.lock();
            panic!("poison the registry lock");
        }));
        assert!(poison.is_err() && r.metrics.is_poisoned());
        assert_eq!(r.counter("t_collision").get(), 1);
        assert_eq!(r.snapshot().counter("t_collision"), Some(1));
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let c = counter("t_reset_c");
        let h = histogram("t_reset_h");
        c.add(5);
        h.record(9);
        // Zero only these two slots' worth: global reset is fine — other
        // tests assert on deltas of their own names after their writes.
        c.reset();
        h.reset();
        assert_eq!(c.get(), 0);
        let s = h.snapshot("t_reset_h");
        assert_eq!((s.count, s.sum, s.max, s.p50), (0, 0, 0, 0));
        // The handle still feeds the same registry slot.
        c.inc();
        assert_eq!(snapshot().counter("t_reset_c"), Some(1));
    }
}
