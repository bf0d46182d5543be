//! Tracing invariants: one traced request must come back as one coherent
//! span tree — balanced guards, parents that exist, child intervals inside
//! the root's — even when the cluster's scatter fanned the work out across
//! shard workers. The trace layer (enable flag, flight recorder) is
//! process-global, so every test serializes on one mutex and restores the
//! disabled default before releasing it.

use std::sync::{Mutex, MutexGuard, OnceLock};

use semandaq::api::{dispatch_line, QualityBackend, Request, Response};
use semandaq::cluster::{HashRouter, ShardedQualityServer};
use semandaq::colstore::Snapshot;
use semandaq::datagen::{customer::CANONICAL_CFDS, dirty_customers};
use semandaq::minidb::{RowId, Value};
use semandaq::obs::{trace, TraceReport};
use semandaq::system::{DataMonitor, MonitorMode, QualityServer};

const ROWS: usize = 400;
const SEED: u64 = 777;

fn lock() -> MutexGuard<'static, ()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    M.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Tracing-on scope: clears the ring, enables tracing, and on drop
/// disables it and clears the ring again so sibling tests (and the rest
/// of the suite) observe the disabled default.
struct TraceOn;

fn trace_on() -> TraceOn {
    trace::clear();
    trace::set_enabled(true);
    TraceOn
}

impl Drop for TraceOn {
    fn drop(&mut self) {
        trace::set_enabled(false);
        trace::clear();
    }
}

/// Structural invariants every completed trace must satisfy: exactly one
/// root, every parent id resolves, every span is balanced (end ≥ start)
/// and its interval sits inside the root's.
fn assert_coherent_tree(report: &TraceReport, label: &str) {
    let root = report.root().unwrap_or_else(|| panic!("{label}: no root"));
    assert_eq!(root.parent, 0, "{label}: root has no parent");
    let roots = report.spans.iter().filter(|s| s.parent == 0).count();
    assert_eq!(roots, 1, "{label}: exactly one root span");
    let ids: Vec<u64> = report.spans.iter().map(|s| s.id).collect();
    for s in &report.spans {
        assert!(s.end_us >= s.start_us, "{label}: balanced span {}", s.name);
        if s.parent != 0 {
            assert!(
                ids.contains(&s.parent),
                "{label}: span '{}' has a dangling parent {}",
                s.name,
                s.parent
            );
            // Wall-clock containment in the root: child spans — including
            // ones recorded on worker threads — cannot start before the
            // request or outlive it.
            assert!(
                s.start_us >= root.start_us && s.end_us <= root.end_us,
                "{label}: '{}' [{}, {}] escapes root [{}, {}]",
                s.name,
                s.start_us,
                s.end_us,
                root.start_us,
                root.end_us
            );
        }
    }
}

/// The acceptance scenario: one Detect on a 4-shard cluster produces a
/// single span tree rooted at `api.detect`, with the scatter, one export
/// span per shard (on scatter worker threads), and per-CFD detect spans
/// carrying memo attributes — all correctly parented across the thread
/// boundary.
#[test]
fn cluster_detect_is_one_tree_across_shard_threads() {
    let _g = lock();
    let _t = trace_on();
    let d = dirty_customers(ROWS, 0.05, SEED);
    let mut c = ShardedQualityServer::partition(
        d.db.table("customer").unwrap(),
        4,
        Box::new(HashRouter::new(vec![1])),
    )
    .unwrap();
    dispatch_line(
        &mut c,
        &Request::RegisterCfds {
            text: CANONICAL_CFDS.to_string(),
        }
        .encode(),
    );
    dispatch_line(&mut c, &Request::Detect.encode());

    let report = trace::last_trace().expect("detect recorded a trace");
    assert_eq!(report.name, "api.detect");
    assert_coherent_tree(&report, "cluster detect");
    let root = report.root().unwrap();

    let scatter = report
        .spans
        .iter()
        .find(|s| s.name == "cluster.scatter")
        .expect("scatter span present");
    assert_eq!(scatter.parent, root.id, "scatter nests under the request");

    let exports: Vec<_> = report
        .spans
        .iter()
        .filter(|s| s.name == "shard.export")
        .collect();
    assert_eq!(exports.len(), 4, "one export span per shard");
    let mut shards: Vec<String> = exports
        .iter()
        .map(|s| s.attr("shard").expect("shard attr").to_string())
        .collect();
    shards.sort();
    assert_eq!(shards, ["0", "1", "2", "3"], "every shard tagged once");
    for e in &exports {
        assert_eq!(
            e.parent, scatter.id,
            "export spans parent under the scatter across the thread boundary"
        );
    }
    // The dispatcher only joins: every export ran on a scoped worker, so
    // none carries the dispatcher's thread ordinal (thread 0), even on a
    // single core.
    assert!(
        exports.iter().all(|s| s.thread != root.thread),
        "exports ran on scatter worker threads"
    );

    let cfd_spans: Vec<_> = report
        .spans
        .iter()
        .filter(|s| s.name == "detect.cfd")
        .collect();
    assert_eq!(
        cfd_spans.len(),
        4 * d.cfds.len(),
        "each shard traces each CFD"
    );
    for s in &cfd_spans {
        assert_eq!(
            s.attr("memo").expect("memo attr"),
            "recompute",
            "cold detect recomputes every fragment"
        );
        assert!(
            exports.iter().any(|e| e.id == s.parent),
            "per-CFD spans nest under their shard's export span"
        );
    }
    assert!(
        report.spans.iter().any(|s| s.name == "cluster.merge"),
        "the gather is traced too"
    );

    // A second detect rides the memo — same tree shape, memo=hit.
    dispatch_line(&mut c, &Request::Detect.encode());
    let warm = trace::last_trace().unwrap();
    assert_coherent_tree(&warm, "warm cluster detect");
    assert!(warm
        .spans
        .iter()
        .filter(|s| s.name == "detect.cfd")
        .all(|s| s.attr("memo") == Some("hit")));
}

/// The single-server columnar path: per-CFD spans carry the grouping-path
/// attribute (`dense`/`hashed`/`wide`/`constant`) the detector chose, and
/// a detect over a multi-chunk table runs on the request's own thread —
/// no fan-out, every CFD span on the caller's thread.
#[test]
fn detect_spans_carry_grouping_path_on_the_request_thread() {
    let _g = lock();
    let _t = trace_on();
    let d = dirty_customers(10_000, 0.05, SEED);
    let table = d.db.table("customer").unwrap();
    assert!(
        Snapshot::of(table).n_chunks() >= 2,
        "the table spans several chunks at the default chunk size"
    );
    let mut s = QualityServer::new(d.db.clone(), "customer").unwrap();
    dispatch_line(
        &mut s,
        &Request::RegisterCfds {
            text: CANONICAL_CFDS.to_string(),
        }
        .encode(),
    );
    dispatch_line(&mut s, &Request::Detect.encode());
    let report = trace::last_trace().unwrap();
    assert_eq!(report.name, "api.detect");
    assert_coherent_tree(&report, "server detect");
    let paths: Vec<&str> = report
        .spans
        .iter()
        .filter(|s| s.name == "detect.cfd")
        .filter_map(|s| s.attr("path"))
        .collect();
    assert!(
        !paths.is_empty()
            && paths
                .iter()
                .all(|p| ["dense", "hashed", "wide", "constant"].contains(p)),
        "every recomputed CFD is tagged with its grouping path, got {paths:?}"
    );
    // The snapshot-cache decision is recorded on the cold request.
    assert!(
        report
            .spans
            .iter()
            .any(|s| s.name == "cache.snapshot" && s.attr("decision") == Some("encode")),
        "cold detect encodes"
    );

    // Serial on the caller's thread: no morsel spans, and every per-CFD
    // span was recorded on the request root's thread.
    let root = report.root().unwrap();
    assert!(
        report.spans.iter().all(|s| s.name != "detect.morsel"),
        "single-node detect does not fan out"
    );
    let cfd_spans: Vec<_> = report
        .spans
        .iter()
        .filter(|s| s.name == "detect.cfd")
        .collect();
    assert_eq!(cfd_spans.len(), d.cfds.len());
    assert!(
        cfd_spans.iter().all(|s| s.thread == root.thread),
        "every detect.cfd span sits on the request's thread"
    );

    // One cell update: the variable CFDs over CNT rescan to seed their
    // group state, through the same grouping scan, tagged the same way.
    dispatch_line(
        &mut s,
        &Request::UpdateCell {
            row: RowId(0),
            col: 1,
            value: Value::str("NOWHERE"),
        }
        .encode(),
    );
    dispatch_line(&mut s, &Request::Detect.encode());
    let after = trace::last_trace().unwrap();
    assert_eq!(after.name, "api.detect");
    let rescans: Vec<Option<&str>> = after
        .spans
        .iter()
        .filter(|s| s.name == "detect.cfd" && s.attr("memo") == Some("recompute"))
        .map(|s| s.attr("path"))
        .collect();
    assert!(
        !rescans.is_empty()
            && rescans.iter().all(|p| {
                p.is_some_and(|p| ["dense", "hashed", "wide", "constant"].contains(&p))
            }),
        "every rescan after a write is tagged with its grouping path, got {rescans:?}"
    );
}

/// Does span `id` sit anywhere below span `ancestor`?
fn descends_from(report: &TraceReport, id: u64, ancestor: u64) -> bool {
    let mut at = id;
    while let Some(s) = report.spans.iter().find(|s| s.id == at) {
        if s.parent == ancestor {
            return true;
        }
        at = s.parent;
    }
    false
}

/// A single-node Audit over a cached report is one `audit.report` span
/// under the request with no detection below it: the columnar audit reads
/// the detect memo instead of re-running it. Without a cached report the
/// same span carries the detect it needs.
#[test]
fn cached_single_node_audit_traces_no_detection() {
    let _g = lock();
    let _t = trace_on();
    let d = dirty_customers(ROWS, 0.05, SEED);
    let mut s = QualityServer::new(d.db.clone(), "customer").unwrap();
    dispatch_line(
        &mut s,
        &Request::RegisterCfds {
            text: CANONICAL_CFDS.to_string(),
        }
        .encode(),
    );
    // Audit with no cached report: the detect runs inside the audit span.
    dispatch_line(&mut s, &Request::Audit.encode());
    let cold = trace::last_trace().unwrap();
    assert_eq!(cold.name, "api.audit");
    assert_coherent_tree(&cold, "cold audit");
    let span = cold
        .spans
        .iter()
        .find(|s| s.name == "audit.report")
        .expect("audit.report span");
    assert!(
        cold.spans
            .iter()
            .any(|c| c.name == "detect.cfd" && descends_from(&cold, c.id, span.id)),
        "an audit without a cached report detects under its span"
    );

    // Audit again: the report and the snapshot are cached.
    dispatch_line(&mut s, &Request::Audit.encode());
    let warm = trace::last_trace().unwrap();
    assert_eq!(warm.name, "api.audit");
    assert_coherent_tree(&warm, "cached audit");
    let spans: Vec<_> = warm
        .spans
        .iter()
        .filter(|s| s.name == "audit.report")
        .collect();
    assert_eq!(spans.len(), 1, "exactly one audit.report span");
    assert_eq!(spans[0].parent, warm.root().unwrap().id);
    assert!(
        !warm.spans.iter().any(|c| c.name == "detect.cfd"),
        "a cached audit runs no detection"
    );
}

/// The cluster's mirror of the test above: an Audit over a cached report
/// is one `audit.report` span with no scatter, export or detection below
/// it, since the audit grades from the merged report's value counts and
/// the shards' cached snapshots. A cold Audit carries the scatter it needs.
#[test]
fn cached_cluster_audit_traces_no_detection() {
    let _g = lock();
    let _t = trace_on();
    let d = dirty_customers(ROWS, 0.05, SEED);
    let mut c = ShardedQualityServer::partition(
        d.db.table("customer").unwrap(),
        3,
        Box::new(HashRouter::new(vec![1])),
    )
    .unwrap();
    dispatch_line(
        &mut c,
        &Request::RegisterCfds {
            text: CANONICAL_CFDS.to_string(),
        }
        .encode(),
    );
    dispatch_line(&mut c, &Request::Audit.encode());
    let cold = trace::last_trace().unwrap();
    assert_eq!(cold.name, "api.audit");
    assert_coherent_tree(&cold, "cold cluster audit");
    let span = cold
        .spans
        .iter()
        .find(|s| s.name == "audit.report")
        .expect("audit.report span");
    assert!(
        cold.spans
            .iter()
            .any(|c| c.name == "cluster.scatter" && descends_from(&cold, c.id, span.id)),
        "an audit without a cached report scatters under its span"
    );

    dispatch_line(&mut c, &Request::Audit.encode());
    let warm = trace::last_trace().unwrap();
    assert_eq!(warm.name, "api.audit");
    assert_coherent_tree(&warm, "cached cluster audit");
    let spans: Vec<_> = warm
        .spans
        .iter()
        .filter(|s| s.name == "audit.report")
        .collect();
    assert_eq!(spans.len(), 1, "exactly one audit.report span");
    assert_eq!(spans[0].parent, warm.root().unwrap().id);
    for name in ["cluster.scatter", "shard.export", "detect.cfd"] {
        assert!(
            !warm.spans.iter().any(|c| c.name == name),
            "a cached cluster audit runs no {name}"
        );
    }
}

/// The flight recorder retains exactly the last `ring_capacity()` traces,
/// oldest evicted first.
#[test]
fn flight_recorder_ring_is_bounded() {
    let _g = lock();
    let _t = trace_on();
    let n = trace::ring_capacity();
    for _ in 0..n + 5 {
        let _rt = trace::root("ring.filler");
    }
    let _rt = trace::root("ring.newest");
    drop(_rt);
    let traces = trace::recent_traces();
    assert_eq!(traces.len(), n, "ring bounded at capacity");
    assert_eq!(
        trace::last_trace().unwrap().name,
        "ring.newest",
        "newest survives, oldest evicted"
    );
}

/// `Request::Trace` round-trips through `dispatch_line` on every
/// trace-capable backend, returning the span tree of the *previous*
/// request, codec-stable.
#[test]
fn trace_round_trips_through_dispatch_line_on_every_backend() {
    let _g = lock();
    let _t = trace_on();
    let d = dirty_customers(ROWS, 0.05, SEED);
    let table = d.db.table("customer").unwrap();
    let mut backends: Vec<(&str, Box<dyn QualityBackend>)> = vec![
        (
            "server",
            Box::new(QualityServer::new(d.db.clone(), "customer").unwrap()),
        ),
        (
            "cluster",
            Box::new(
                ShardedQualityServer::partition(table, 3, Box::new(HashRouter::new(vec![1])))
                    .unwrap(),
            ),
        ),
        (
            "monitor",
            Box::new(
                DataMonitor::new(
                    d.db.clone(),
                    "customer",
                    Vec::new(),
                    MonitorMode::DetectOnly,
                )
                .unwrap(),
            ),
        ),
    ];
    for (label, b) in &mut backends {
        assert!(b.capabilities().trace, "{label} advertises tracing");
        dispatch_line(
            b.as_mut(),
            &Request::RegisterCfds {
                text: CANONICAL_CFDS.to_string(),
            }
            .encode(),
        );
        dispatch_line(b.as_mut(), &Request::Detect.encode());
        let out = dispatch_line(b.as_mut(), &Request::Trace.encode());
        let resp = Response::decode(&out).unwrap_or_else(|e| panic!("{label}: {e}"));
        let Response::Trace(report) = resp else {
            panic!("{label}: expected Trace, got {resp:?}");
        };
        // The trace guard of the Trace request itself only completes after
        // the response is built, so the wire always carries the previous
        // request — here, the detect.
        assert_eq!(report.name, "api.detect", "{label}");
        assert_coherent_tree(&report, label);
        let reencoded = Response::Trace(report.clone()).encode();
        assert_eq!(
            Response::decode(&reencoded).unwrap(),
            Response::Trace(report.clone()),
            "{label}: codec round-trip"
        );
        // The exporter produces one well-formed JSON array with one event
        // per span (validated structurally here; CI parses it with a real
        // JSON parser).
        let chrome = report.to_chrome_json();
        assert!(chrome.starts_with('[') && chrome.ends_with(']'), "{label}");
        assert_eq!(
            chrome.matches("\"ph\":\"X\"").count(),
            report.spans.len(),
            "{label}: one complete event per span"
        );
    }
}

/// Tracing off (the default) records nothing and hands out inert guards —
/// the zero-overhead contract the benchmarks rely on.
#[test]
fn disabled_tracing_records_nothing() {
    let _g = lock();
    trace::set_enabled(false);
    trace::clear();
    let d = dirty_customers(100, 0.05, SEED);
    let mut s = QualityServer::new(d.db, "customer").unwrap();
    dispatch_line(
        &mut s,
        &Request::RegisterCfds {
            text: CANONICAL_CFDS.to_string(),
        }
        .encode(),
    );
    dispatch_line(&mut s, &Request::Detect.encode());
    assert!(trace::last_trace().is_none(), "no trace captured");
    assert!(!semandaq::obs::trace::span("noop").active());
    // The wire op degrades to a protocol error, not a panic.
    let out = dispatch_line(&mut s, &Request::Trace.encode());
    let resp = Response::decode(&out).unwrap();
    assert!(
        matches!(resp, Response::Error { ref message } if message.contains("SDQ_TRACE")),
        "got {resp:?}"
    );
}
