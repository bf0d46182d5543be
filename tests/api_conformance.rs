//! Backend conformance: one shared mutation + detect + audit + repair
//! script runs against every [`QualityBackend`] — `QualityServer` (its
//! default columnar detector), `ShardedQualityServer` (hash and
//! round-robin routers, shard counts 1/3/5) and `DataMonitor` — and every
//! backend must produce `normalized()`-equal violation reports, equal
//! quality reports (every field) and equal row counts at every step. Every
//! backend audits in code space; at each step the audit of every backend
//! that exposes its table (the server and the cluster) must also equal
//! the value-space `audit::quality_report` over that table and report,
//! and the monitor's audit must equal theirs.
//! Repair-capable backends (the server and all six cluster configs)
//! additionally run the script's `Repair` step, must end with an
//! all-clean `audit()` and pairwise-equal repaired tables; the monitor
//! must refuse repair with `CfdError::Unsupported` both directly and
//! through the wire. The same script also runs through the wire protocol
//! (`Request` → `dispatch` → `Response`) and must observe the same
//! summaries.

use semandaq::api::{
    dispatch, dispatch_line, Mutation, MutationBatch, QualityBackend, Request, Response,
};
use semandaq::audit::{quality_report, QualityReport};
use semandaq::cfd::parse::parse_cfds;
use semandaq::cfd::CfdError;
use semandaq::cluster::{HashRouter, RoundRobinRouter, ShardRouter, ShardedQualityServer};
use semandaq::datagen::{customer::CANONICAL_CFDS, dirty_customers};
use semandaq::detect::ViolationReport;
use semandaq::minidb::{RowId, Table, Value};
use semandaq::system::{DataMonitor, MonitorMode, QualityServer};

const ROWS: usize = 200;
const SEED: u64 = 4242;

/// One backend under test, kept concrete so the repair conformance can
/// reach the repaired relation (the trait has no table accessor — tables
/// are pulled through the explorer APIs, not the command protocol).
enum Backend {
    Server(QualityServer),
    Cluster(ShardedQualityServer),
    Monitor(DataMonitor),
}

impl Backend {
    fn as_dyn(&mut self) -> &mut dyn QualityBackend {
        match self {
            Backend::Server(s) => s,
            Backend::Cluster(c) => c,
            Backend::Monitor(m) => m,
        }
    }

    /// The backend's current relation, materialized (the cluster merges
    /// its shards; every row under its global id).
    fn table(&self) -> Option<Table> {
        match self {
            Backend::Server(s) => s.table().ok().cloned(),
            Backend::Cluster(c) => c.merged_table().ok(),
            Backend::Monitor(_) => None,
        }
    }
}

/// Every backend under test, over identical initial data, labelled.
fn backends() -> Vec<(String, Backend)> {
    let d = dirty_customers(ROWS, 0.05, SEED);
    let table = d.db.table("customer").unwrap();
    let mut out: Vec<(String, Backend)> = Vec::new();
    let s = QualityServer::new(d.db.clone(), "customer").unwrap();
    out.push(("server/columnar".to_string(), Backend::Server(s)));
    for shards in [1usize, 3, 5] {
        let routers: Vec<(&str, Box<dyn ShardRouter>)> = vec![
            ("rr", Box::new(RoundRobinRouter::default())),
            ("hash", Box::new(HashRouter::new(vec![1]))),
        ];
        for (rname, router) in routers {
            let c = ShardedQualityServer::partition(table, shards, router).unwrap();
            out.push((format!("cluster/{rname}/s{shards}"), Backend::Cluster(c)));
        }
    }
    // The monitor starts with an empty rule set; the script registers the
    // canonical rules through the trait like everywhere else.
    let m = DataMonitor::new(
        d.db.clone(),
        "customer",
        Vec::new(),
        MonitorMode::DetectOnly,
    )
    .unwrap();
    out.push(("monitor".to_string(), Backend::Monitor(m)));
    out
}

/// A donor row (clone of the first live row) with one corrupted column.
fn dirty_row(corrupt_col: usize, v: &str) -> Vec<Value> {
    let d = dirty_customers(ROWS, 0.05, SEED);
    let mut row: Vec<Value> =
        d.db.table("customer")
            .unwrap()
            .iter()
            .next()
            .unwrap()
            .1
            .to_vec();
    row[corrupt_col] = Value::str(v);
    row
}

/// A table's rows keyed by global id — the comparison form for
/// "`normalized()`-equal repaired relations" across backends.
type TableRows = Vec<(RowId, Vec<Value>)>;

fn table_rows(t: &Table) -> TableRows {
    let mut rows: TableRows = t.iter().map(|(id, r)| (id, r.to_vec())).collect();
    rows.sort_by_key(|(id, _)| *id);
    rows
}

/// One observed step: the normalized report, the whole quality report and
/// the row count after the step.
#[derive(Debug, PartialEq)]
struct Step {
    report: ViolationReport,
    audit: QualityReport,
    rows: usize,
}

/// The shared script: register → observe → batch-mutate → observe →
/// single mutations → observe → (capable backends only) repair → observe.
/// Deterministic row picks (global ids are allocated identically by every
/// backend).
fn run_script(backend: &mut Backend) -> Vec<Step> {
    let mut steps = Vec::new();
    let cfds = parse_cfds(CANONICAL_CFDS).expect("canonical rules parse");
    let mut observe = |backend: &mut Backend| {
        let b = backend.as_dyn();
        let report = b.detect().expect("detect").normalized();
        // last_report must now be current and agree with the detect.
        let cached = b
            .last_report()
            .expect("report cached after detect")
            .normalized();
        assert_eq!(cached, report, "last_report == detect");
        let audit = b.audit().expect("audit");
        let rows = b.len();
        // The code-space audit equals the value-space oracle.
        if let Some(table) = backend.table() {
            let want = quality_report(&table, &cfds, &report).expect("oracle audit");
            assert_eq!(audit, want, "audit == quality_report");
        }
        steps.push(Step {
            report,
            audit,
            rows,
        });
    };

    let rules = backend
        .as_dyn()
        .register_cfds(CANONICAL_CFDS)
        .expect("canonical rules");
    assert!(rules > 0);
    observe(backend);

    // A mixed batch: two dirty inserts, a corrupting cell update, a
    // delete — all through the amortized path.
    let out = backend
        .as_dyn()
        .apply_batch(MutationBatch {
            mutations: vec![
                Mutation::Insert(dirty_row(2, "WRONGCITY")),
                Mutation::SetCell {
                    row: RowId(3),
                    col: 2,
                    value: Value::str("ELSEWHERE"),
                },
                Mutation::Insert(dirty_row(1, "XX")),
                Mutation::Delete(RowId(7)),
            ],
        })
        .expect("batch applies");
    assert_eq!(out.applied, 4);
    assert_eq!(
        out.inserted,
        vec![RowId(ROWS as u64), RowId(ROWS as u64 + 1)],
        "global id allocation is backend-independent"
    );
    observe(backend);

    // Single-mutation surface: overwrite one cell, delete one insert.
    let b = backend.as_dyn();
    b.update_cell(RowId(3), 2, Value::str("RESTORED"))
        .expect("update");
    b.delete(out.inserted[0]).expect("delete");
    observe(backend);

    // The repair step: capability-gated, so only the backends that
    // advertise it run it — and they must end all-clean.
    if backend.as_dyn().capabilities().repair {
        let summary = backend
            .as_dyn()
            .repair()
            .expect("repair-capable backend repairs");
        assert_eq!(summary.residual, 0, "repair converges");
        assert!(summary.changes > 0, "the script left something to fix");
        observe(backend);
        let last = steps.last().unwrap();
        assert!(last.report.is_empty(), "all-clean after repair");
        assert_eq!(last.audit.dirty_fraction(), 0.0);
    }
    steps
}

#[test]
fn all_backends_agree_on_the_shared_script() {
    let mut all = backends();
    let (ref_label, reference) = {
        let (label, b) = &mut all[0];
        (label.clone(), run_script(b))
    };
    assert!(
        !reference[0].report.is_empty(),
        "the workload has violations to find"
    );
    assert!(reference[0].audit.dirty_fraction() > 0.0);
    let ref_table = table_rows(&all[0].1.table().expect("server exposes its table"));
    for (label, b) in &mut all[1..] {
        let capable = b.as_dyn().capabilities().repair;
        let got = run_script(b);
        // Non-capable backends skip the post-repair step; everything they
        // do observe must match the reference prefix.
        let want = if capable {
            &reference[..]
        } else {
            &reference[..reference.len() - 1]
        };
        assert_eq!(got.len(), want.len(), "backend '{label}'");
        for (i, (g, want)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g, want,
                "step {i}: backend '{label}' diverges from '{ref_label}'"
            );
        }
        if capable {
            assert_eq!(
                table_rows(&b.table().expect("capable backends expose tables")),
                ref_table,
                "backend '{label}': repaired relation diverges from '{ref_label}'"
            );
        }
    }
}

#[test]
fn capabilities_describe_each_backend() {
    for (label, b) in &mut backends() {
        let caps = b.as_dyn().capabilities();
        match label.as_str() {
            "server/columnar" => {
                assert!(caps.repair);
                assert!(!caps.streaming);
                assert_eq!(caps.shards, 1);
            }
            "monitor" => {
                assert!(!caps.repair);
                assert!(caps.streaming);
            }
            l => {
                assert!(l.starts_with("cluster/"));
                assert!(caps.repair, "{l}: sharded repair is a capability now");
                let shards: usize = l.rsplit("/s").next().unwrap().parse().unwrap();
                assert_eq!(caps.shards, shards, "{l}");
            }
        }
    }
}

#[test]
fn repair_is_capability_gated_and_agrees_across_backends() {
    let mut repaired: Vec<(String, TableRows)> = Vec::new();
    for (label, mut b) in backends() {
        b.as_dyn().register_cfds(CANONICAL_CFDS).unwrap();
        let caps = b.as_dyn().capabilities();
        let outcome = b.as_dyn().repair();
        if caps.repair {
            let summary = outcome.unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(summary.residual, 0, "{label} converges");
            assert!(summary.changes > 0, "{label} had something to fix");
            assert!(
                b.as_dyn().detect().unwrap().is_empty(),
                "{label} is clean after repair"
            );
            assert_eq!(
                b.as_dyn().audit().unwrap().dirty_fraction(),
                0.0,
                "{label}: all-clean audit"
            );
            repaired.push((
                label,
                table_rows(&b.table().expect("capable backends expose tables")),
            ));
        } else {
            // Refused directly…
            assert!(
                matches!(outcome, Err(CfdError::Unsupported(_))),
                "{label} must refuse repair"
            );
            // …and through the wire, as an encoded Error response.
            let wire = dispatch(b.as_dyn(), Request::Repair);
            let Response::Error { message } = wire else {
                panic!("{label}: wire repair must answer Error, got {wire:?}");
            };
            assert!(
                message.contains("does not support repair"),
                "{label}: {message}"
            );
        }
    }
    // Every repair-capable backend converged on the same relation.
    assert_eq!(repaired.len(), 7, "the server + 6 cluster configs");
    let (ref_label, reference) = &repaired[0];
    for (label, rows) in &repaired[1..] {
        assert_eq!(rows, reference, "'{label}' vs '{ref_label}'");
    }
}

#[test]
fn metrics_round_trip_through_dispatch_line_on_every_backend() {
    for (label, mut b) in backends() {
        assert!(
            b.as_dyn().capabilities().metrics,
            "{label}: every in-process backend shares the obs registry"
        );
        b.as_dyn().register_cfds(CANONICAL_CFDS).unwrap();
        b.as_dyn().detect().unwrap();
        // Full wire loop: encoded request line in, encoded response line
        // out, decoded back on the client side.
        let out = dispatch_line(b.as_dyn(), &Request::Metrics.encode());
        let resp = Response::decode(&out).unwrap_or_else(|e| panic!("{label}: {e}"));
        let Response::Metrics(report) = resp else {
            panic!("{label}: expected Metrics, got {resp:?}");
        };
        // The decoded report must survive another exact codec round-trip…
        let reencoded = Response::Metrics(report.clone()).encode();
        assert_eq!(
            Response::decode(&reencoded).unwrap(),
            Response::Metrics(report.clone()),
            "{label}"
        );
        // …and already contains the dispatch instrumentation's record of
        // this very request (the counter bumps before the snapshot).
        assert!(
            report
                .counter("api_requests_total{kind=\"metrics\"}")
                .unwrap_or(0)
                >= 1,
            "{label}: dispatch counts the metrics request itself"
        );
    }
}

#[test]
fn malformed_mutation_frames_answer_an_error_on_every_backend() {
    // A column index past the schema, and a row shorter than the schema:
    // a keyed router would index the missing column, the table the
    // missing schema slot.
    let frames = [
        (
            r#"{"op":"update_cell","row":0,"col":9,"value":"z"}"#,
            "unknown column",
        ),
        (r#"{"op":"insert","row":["only"]}"#, "arity"),
    ];
    for (label, mut b) in backends() {
        b.as_dyn().register_cfds(CANONICAL_CFDS).unwrap();
        let before = b.as_dyn().detect().unwrap().normalized();
        for (frame, needle) in frames {
            let out = dispatch_line(b.as_dyn(), frame);
            let resp = Response::decode(&out).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(
                matches!(&resp, Response::Error { message } if message.contains(needle)),
                "{label}: {frame} must answer an encoded error, got {resp:?}"
            );
            // The backend still serves the next request, over unchanged data.
            let next = Response::decode(&dispatch_line(b.as_dyn(), &Request::Len.encode()));
            assert_eq!(next.unwrap(), Response::Len { rows: ROWS }, "{label}");
        }
        assert_eq!(b.as_dyn().detect().unwrap().normalized(), before, "{label}");
    }
}

#[test]
fn dispatched_wire_script_matches_direct_calls() {
    // Drive every backend through encoded Requests; the wire summaries
    // must agree across backends exactly like the direct reports do.
    let mut summaries: Vec<(String, bool, Vec<Response>)> = Vec::new();
    for (label, mut b) in backends() {
        let capable = b.as_dyn().capabilities().repair;
        let requests = vec![
            Request::RegisterCfds {
                text: CANONICAL_CFDS.to_string(),
            },
            Request::Capabilities,
            Request::Len,
            Request::Detect,
            Request::ApplyBatch {
                batch: MutationBatch {
                    mutations: vec![
                        Mutation::Insert(dirty_row(2, "WRONGCITY")),
                        Mutation::Delete(RowId(5)),
                    ],
                },
            },
            Request::Detect,
            Request::Audit,
            Request::Repair,
            Request::Detect,
            Request::Audit,
            Request::LastReport,
            Request::Len,
        ];
        let mut responses = Vec::new();
        for req in requests {
            // Round-trip the request through its wire form before serving
            // it, exactly as a remote client would.
            let decoded = Request::decode(&req.encode()).expect("request round-trips");
            assert_eq!(decoded, req);
            let resp = dispatch(b.as_dyn(), decoded);
            let wire = Response::decode(&resp.encode()).expect("response round-trips");
            assert_eq!(wire, resp);
            // The only legitimate refusal in the script is the monitor's
            // capability-gated Repair.
            if matches!(req, Request::Repair) && !capable {
                assert!(
                    matches!(&resp, Response::Error { message } if message.contains("repair")),
                    "{label}: non-capable repair must refuse over the wire"
                );
            } else {
                assert!(
                    !matches!(resp, Response::Error { .. }),
                    "{label}: unexpected error for {req:?}"
                );
            }
            responses.push(resp);
        }
        summaries.push((label, capable, responses));
    }
    // Capabilities legitimately differ, and the monitor diverges from the
    // Repair request onward (its refusal leaves the data dirty); every
    // response before that — and, among capable backends, every response
    // including the repair summary — must be equal.
    let (ref_label, _, reference) = &summaries[0];
    let repair_at = 7;
    for (label, capable, got) in &summaries[1..] {
        for (i, (g, want)) in got.iter().zip(reference).enumerate() {
            if matches!(want, Response::Caps(_)) || (!capable && i >= repair_at) {
                continue;
            }
            assert_eq!(g, want, "request {i}: '{label}' vs '{ref_label}'");
        }
    }
}
