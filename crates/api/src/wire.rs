//! The serializable command protocol: [`Request`] / [`Response`] plus
//! [`dispatch`], the front door any transport can sit behind.
//!
//! A quality service decodes one request per message, dispatches it
//! against whatever [`QualityBackend`] it hosts, and encodes the response
//! — `examples/quality_service.rs` runs exactly that loop. The encoding
//! is a line of JSON, produced and parsed by the hand-written codec below
//! (the workspace has no serialization framework).
//!
//! Scalars are encoded so that decoding is exact, not best-effort:
//! strings and booleans map to their JSON forms, while typed numbers are
//! tagged — `Value::Int(42)` is `["i","42"]` and `Value::Float` rides
//! Rust's shortest-round-trip float rendering (`["f","0.1"]`, NaN and
//! infinities included) — so a decoded mutation is `==` to the one
//! encoded, which is what lets the round-trip tests assert equality on
//! every variant.

use std::sync::{Arc, OnceLock};

use cfd::{CfdError, CfdResult};
use detect::ViolationReport;
use minidb::{RowId, Value};

use crate::backend::{Capabilities, Mutation, MutationBatch, QualityBackend, RepairSummary};

// ---------------------------------------------------------------- messages

/// One command against a quality backend.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register CFDs (textual notation, newline-separated).
    RegisterCfds {
        /// The rules.
        text: String,
    },
    /// Insert one row.
    Insert {
        /// The row values, in schema order.
        row: Vec<Value>,
    },
    /// Delete one row.
    Delete {
        /// Target row.
        row: RowId,
    },
    /// Overwrite one cell.
    UpdateCell {
        /// Target row.
        row: RowId,
        /// Target column.
        col: usize,
        /// New value.
        value: Value,
    },
    /// Apply a mutation batch in one pass (the bulk-ingest path).
    ApplyBatch {
        /// The batch.
        batch: MutationBatch,
    },
    /// Run error detection.
    Detect,
    /// Produce the audit summary.
    Audit,
    /// Run batch repair (capability-gated).
    Repair,
    /// The cached detection report, if current.
    LastReport,
    /// Number of live rows.
    Len,
    /// What the backend supports.
    Capabilities,
    /// Snapshot the telemetry registry (capability-gated).
    Metrics,
    /// The span tree of the last completed traced request
    /// (capability-gated; traces are captured while `SDQ_TRACE=1`).
    Trace,
}

/// Every request's wire op name, by [`Request::kind_index`].
pub const REQUEST_KINDS: [&str; 13] = [
    "register_cfds",
    "insert",
    "delete",
    "update_cell",
    "apply_batch",
    "detect",
    "audit",
    "repair",
    "last_report",
    "len",
    "capabilities",
    "metrics",
    "trace",
];

impl Request {
    /// The request's position in [`REQUEST_KINDS`]: a per-kind table
    /// (of metric handles, say) is indexed by it.
    pub fn kind_index(&self) -> usize {
        match self {
            Request::RegisterCfds { .. } => 0,
            Request::Insert { .. } => 1,
            Request::Delete { .. } => 2,
            Request::UpdateCell { .. } => 3,
            Request::ApplyBatch { .. } => 4,
            Request::Detect => 5,
            Request::Audit => 6,
            Request::Repair => 7,
            Request::LastReport => 8,
            Request::Len => 9,
            Request::Capabilities => 10,
            Request::Metrics => 11,
            Request::Trace => 12,
        }
    }

    /// The request's wire op name — also the `kind` label the dispatcher
    /// (and the network tier's per-connection counters) record per-request
    /// counters and latency histograms under.
    pub fn kind_str(&self) -> &'static str {
        REQUEST_KINDS[self.kind_index()]
    }

    /// True when serving the request cannot change the relation, the rule
    /// set, or any derived state a later request could observe — the
    /// MVCC-lite split the network tier's `ConcurrentEngine` is built on:
    /// read-only requests are served lock-free from the latest published
    /// epoch snapshot while mutating ones funnel through the single
    /// writer. `Detect` and `Audit` are read-only in this sense even
    /// though the serial trait takes `&mut self` for them (they only
    /// refresh caches, never data).
    pub fn is_read_only(&self) -> bool {
        match self {
            Request::Detect
            | Request::Audit
            | Request::LastReport
            | Request::Len
            | Request::Capabilities
            | Request::Metrics
            | Request::Trace => true,
            Request::RegisterCfds { .. }
            | Request::Insert { .. }
            | Request::Delete { .. }
            | Request::UpdateCell { .. }
            | Request::ApplyBatch { .. }
            | Request::Repair => false,
        }
    }

    /// The request's root span name (`api.<kind>`) — static so disabled
    /// tracing allocates nothing.
    fn trace_name(&self) -> &'static str {
        match self {
            Request::RegisterCfds { .. } => "api.register_cfds",
            Request::Insert { .. } => "api.insert",
            Request::Delete { .. } => "api.delete",
            Request::UpdateCell { .. } => "api.update_cell",
            Request::ApplyBatch { .. } => "api.apply_batch",
            Request::Detect => "api.detect",
            Request::Audit => "api.audit",
            Request::Repair => "api.repair",
            Request::LastReport => "api.last_report",
            Request::Len => "api.len",
            Request::Capabilities => "api.capabilities",
            Request::Metrics => "api.metrics",
            Request::Trace => "api.trace",
        }
    }
}

/// Wire summary of a [`ViolationReport`] (violation records and headline
/// tallies; full reports are pulled through the explorer APIs, not the
/// command protocol).
#[derive(Debug, Clone, PartialEq)]
pub struct ReportSummary {
    /// Violation records detected.
    pub violations: usize,
    /// Rows with `vio(t) > 0`.
    pub dirty_rows: usize,
    /// Sum of all `vio(t)` tallies.
    pub total_vio: u64,
    /// `(cfd index, violations)` pairs, ascending by index.
    pub per_cfd: Vec<(usize, usize)>,
}

impl ReportSummary {
    /// Summarize a detection report.
    pub fn of(report: &ViolationReport) -> ReportSummary {
        let mut per_cfd: Vec<(usize, usize)> =
            report.per_cfd.iter().map(|(&i, &n)| (i, n)).collect();
        per_cfd.sort_unstable();
        ReportSummary {
            violations: report.len(),
            dirty_rows: report.vio.len(),
            total_vio: report.vio.values().sum(),
            per_cfd,
        }
    }
}

/// Wire summary of an audit (`audit::QualityReport` headline numbers).
#[derive(Debug, Clone, PartialEq)]
pub struct AuditSummary {
    /// Live tuples audited.
    pub tuples: usize,
    /// Tuple counts `[verified, probably, arguably, dirty]`.
    pub classes: [usize; 4],
    /// Fraction of tuples that are dirty.
    pub dirty_fraction: f64,
}

impl AuditSummary {
    /// Summarize an audit report.
    pub fn of(report: &audit::QualityReport) -> AuditSummary {
        AuditSummary {
            tuples: report.tuples,
            classes: report.tuple_classes,
            dirty_fraction: report.dirty_fraction(),
        }
    }
}

/// The answer to one [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// CFDs registered; the backend now enforces this many rules.
    Registered {
        /// Active rule count.
        rules: usize,
    },
    /// Row inserted.
    Inserted {
        /// Assigned id.
        row: RowId,
    },
    /// Row deleted.
    Deleted {
        /// Deleted id.
        row: RowId,
        /// Its former values.
        values: Vec<Value>,
    },
    /// Cell overwritten.
    CellUpdated {
        /// Target row.
        row: RowId,
        /// Target column.
        col: usize,
        /// The previous value.
        old: Value,
    },
    /// Batch applied.
    BatchApplied {
        /// Mutations applied.
        applied: usize,
        /// Ids assigned to the batch's inserts, in batch order.
        inserted: Vec<RowId>,
    },
    /// Detection ran (or a cached report was current).
    Report(ReportSummary),
    /// No report is cached (`LastReport` after a mutation).
    NoReport,
    /// Audit summary.
    Audited(AuditSummary),
    /// Repair ran.
    Repaired(RepairSummary),
    /// Row count.
    Len {
        /// Live rows.
        rows: usize,
    },
    /// Capability descriptor.
    Caps(Capabilities),
    /// Telemetry snapshot.
    Metrics(obs::MetricsReport),
    /// Span tree of the last completed traced request.
    Trace(obs::TraceReport),
    /// The request failed; the backend state reflects any prefix that did
    /// apply (see [`QualityBackend::apply_batch`]).
    Error {
        /// Human-readable cause.
        message: String,
    },
}

// --------------------------------------------------------------- dispatch

/// `api_requests_total{kind=...}` and `api_request_ns{kind=...}` of
/// `request`'s kind, registered by the first dispatch of that kind: after
/// it, a dispatch takes no registry lock and formats no name.
fn request_obs(request: &Request) -> &'static (Arc<obs::Counter>, Arc<obs::Histogram>) {
    type Slot = OnceLock<(Arc<obs::Counter>, Arc<obs::Histogram>)>;
    static SLOTS: [Slot; REQUEST_KINDS.len()] = [const { OnceLock::new() }; REQUEST_KINDS.len()];
    let i = request.kind_index();
    SLOTS[i].get_or_init(|| {
        let kind = REQUEST_KINDS[i];
        (
            obs::counter(&format!("api_requests_total{{kind=\"{kind}\"}}")),
            obs::histogram(&format!("api_request_ns{{kind=\"{kind}\"}}")),
        )
    })
}

/// Serve one request against a backend. Never panics and never returns
/// `Err` — failures become [`Response::Error`], which is what a request
/// loop wants to send back rather than tear down the connection.
///
/// Every dispatch bumps `api_requests_total{kind=...}` and records its
/// wall time into `api_request_ns{kind=...}` in the `obs` global
/// registry, so a `Request::Metrics` over the same connection reads back
/// the service's own traffic profile. Each kind's handles are resolved
/// once per process, by its first dispatch.
pub fn dispatch(backend: &mut dyn QualityBackend, request: Request) -> Response {
    fn err(e: CfdError) -> Response {
        Response::Error {
            message: e.to_string(),
        }
    }
    let (requests, ns) = request_obs(&request);
    requests.inc();
    let _span = obs::SpanTimer::new(Arc::clone(ns));
    // Root span of the request's trace (inert unless tracing is on). The
    // trace completes — and lands in the flight recorder — when this
    // guard drops, after the response is built; a `Request::Trace`
    // therefore reads back the *previous* request, never itself.
    let _trace = obs::trace::root(request.trace_name());
    match request {
        Request::RegisterCfds { text } => match backend.register_cfds(&text) {
            Ok(rules) => Response::Registered { rules },
            Err(e) => err(e),
        },
        Request::Insert { row } => match backend.insert(row) {
            Ok(row) => Response::Inserted { row },
            Err(e) => err(e),
        },
        Request::Delete { row } => match backend.delete(row) {
            Ok(values) => Response::Deleted { row, values },
            Err(e) => err(e),
        },
        Request::UpdateCell { row, col, value } => match backend.update_cell(row, col, value) {
            Ok(old) => Response::CellUpdated { row, col, old },
            Err(e) => err(e),
        },
        Request::ApplyBatch { batch } => match backend.apply_batch(batch) {
            Ok(out) => Response::BatchApplied {
                applied: out.applied,
                inserted: out.inserted,
            },
            Err(e) => err(e),
        },
        Request::Detect => match backend.detect() {
            Ok(report) => Response::Report(ReportSummary::of(&report)),
            Err(e) => err(e),
        },
        Request::Audit => match backend.audit() {
            Ok(report) => Response::Audited(AuditSummary::of(&report)),
            Err(e) => err(e),
        },
        Request::Repair => match backend.repair() {
            Ok(summary) => Response::Repaired(summary),
            Err(e) => err(e),
        },
        Request::LastReport => match backend.last_summary() {
            Some(summary) => Response::Report(summary),
            None => Response::NoReport,
        },
        Request::Len => Response::Len {
            rows: backend.len(),
        },
        Request::Capabilities => Response::Caps(backend.capabilities()),
        Request::Metrics => match backend.metrics() {
            Ok(report) => Response::Metrics(report),
            Err(e) => err(e),
        },
        Request::Trace => match backend.trace() {
            Ok(report) => Response::Trace(report),
            Err(e) => err(e),
        },
    }
}

/// Longest frame [`dispatch_line`] (and the network transport sitting in
/// front of it) accepts, in bytes. A frame beyond the cap is refused with
/// an encoded protocol error *without parsing it* — the cap is what keeps
/// one client from making the service buffer an unbounded line.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Decode one encoded request, dispatch it, and encode the response — the
/// inner step of a text-transport service loop. Malformed, empty, and
/// oversized (> [`MAX_FRAME_BYTES`]) frames all become an encoded
/// [`Response::Error`]; this function never panics and never swallows a
/// frame silently.
pub fn dispatch_line(backend: &mut dyn QualityBackend, line: &str) -> String {
    if line.len() > MAX_FRAME_BYTES {
        return Response::Error {
            message: format!(
                "frame too large: {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
                line.len()
            ),
        }
        .encode();
    }
    match Request::decode(line) {
        Ok(req) => dispatch(backend, req).encode(),
        Err(e) => Response::Error {
            message: e.to_string(),
        }
        .encode(),
    }
}

// ----------------------------------------------------------------- codec

impl Request {
    /// Encode to one line of JSON.
    pub fn encode(&self) -> String {
        let j = match self {
            Request::RegisterCfds { text } => obj(&[
                ("op", Json::str("register_cfds")),
                ("text", Json::str(text)),
            ]),
            Request::Insert { row } => obj(&[("op", Json::str("insert")), ("row", values(row))]),
            Request::Delete { row } => {
                obj(&[("op", Json::str("delete")), ("row", Json::num(row.0))])
            }
            Request::UpdateCell { row, col, value } => obj(&[
                ("op", Json::str("update_cell")),
                ("row", Json::num(row.0)),
                ("col", Json::num(*col as u64)),
                ("value", value_json(value)),
            ]),
            Request::ApplyBatch { batch } => obj(&[
                ("op", Json::str("apply_batch")),
                (
                    "mutations",
                    Json::Arr(batch.mutations.iter().map(mutation_json).collect()),
                ),
            ]),
            Request::Detect => obj(&[("op", Json::str("detect"))]),
            Request::Audit => obj(&[("op", Json::str("audit"))]),
            Request::Repair => obj(&[("op", Json::str("repair"))]),
            Request::LastReport => obj(&[("op", Json::str("last_report"))]),
            Request::Len => obj(&[("op", Json::str("len"))]),
            Request::Capabilities => obj(&[("op", Json::str("capabilities"))]),
            Request::Metrics => obj(&[("op", Json::str("metrics"))]),
            Request::Trace => obj(&[("op", Json::str("trace"))]),
        };
        j.render()
    }

    /// Decode from the JSON form produced by [`Request::encode`].
    pub fn decode(text: &str) -> CfdResult<Request> {
        let j = Json::parse(text)?;
        let op = j.field_str("op")?;
        Ok(match op {
            "register_cfds" => Request::RegisterCfds {
                text: j.field_str("text")?.to_string(),
            },
            "insert" => Request::Insert {
                row: decode_values(j.field("row")?)?,
            },
            "delete" => Request::Delete {
                row: RowId(j.field_u64("row")?),
            },
            "update_cell" => Request::UpdateCell {
                row: RowId(j.field_u64("row")?),
                col: j.field_usize("col")?,
                value: decode_value(j.field("value")?)?,
            },
            "apply_batch" => Request::ApplyBatch {
                batch: MutationBatch {
                    mutations: j
                        .field("mutations")?
                        .as_arr()?
                        .iter()
                        .map(decode_mutation)
                        .collect::<CfdResult<_>>()?,
                },
            },
            "detect" => Request::Detect,
            "audit" => Request::Audit,
            "repair" => Request::Repair,
            "last_report" => Request::LastReport,
            "len" => Request::Len,
            "capabilities" => Request::Capabilities,
            "metrics" => Request::Metrics,
            "trace" => Request::Trace,
            other => return Err(parse_err(format!("unknown op '{other}'"))),
        })
    }
}

impl Response {
    /// Encode to one line of JSON.
    pub fn encode(&self) -> String {
        let j = match self {
            Response::Registered { rules } => obj(&[
                ("ok", Json::str("registered")),
                ("rules", Json::num(*rules as u64)),
            ]),
            Response::Inserted { row } => {
                obj(&[("ok", Json::str("inserted")), ("row", Json::num(row.0))])
            }
            Response::Deleted { row, values: v } => obj(&[
                ("ok", Json::str("deleted")),
                ("row", Json::num(row.0)),
                ("values", values(v)),
            ]),
            Response::CellUpdated { row, col, old } => obj(&[
                ("ok", Json::str("cell_updated")),
                ("row", Json::num(row.0)),
                ("col", Json::num(*col as u64)),
                ("old", value_json(old)),
            ]),
            Response::BatchApplied { applied, inserted } => obj(&[
                ("ok", Json::str("batch_applied")),
                ("applied", Json::num(*applied as u64)),
                (
                    "inserted",
                    Json::Arr(inserted.iter().map(|r| Json::num(r.0)).collect()),
                ),
            ]),
            Response::Report(s) => obj(&[
                ("ok", Json::str("report")),
                ("violations", Json::num(s.violations as u64)),
                ("dirty_rows", Json::num(s.dirty_rows as u64)),
                ("total_vio", Json::num(s.total_vio)),
                (
                    "per_cfd",
                    Json::Arr(
                        s.per_cfd
                            .iter()
                            .map(|&(i, n)| {
                                Json::Arr(vec![Json::num(i as u64), Json::num(n as u64)])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::NoReport => obj(&[("ok", Json::str("no_report"))]),
            Response::Audited(s) => obj(&[
                ("ok", Json::str("audited")),
                ("tuples", Json::num(s.tuples as u64)),
                (
                    "classes",
                    Json::Arr(s.classes.iter().map(|&c| Json::num(c as u64)).collect()),
                ),
                ("dirty_fraction", Json::float(s.dirty_fraction)),
            ]),
            Response::Repaired(s) => obj(&[
                ("ok", Json::str("repaired")),
                ("changes", Json::num(s.changes as u64)),
                ("iterations", Json::num(s.iterations as u64)),
                ("total_cost", Json::float(s.total_cost)),
                ("residual", Json::num(s.residual as u64)),
            ]),
            Response::Len { rows } => {
                obj(&[("ok", Json::str("len")), ("rows", Json::num(*rows as u64))])
            }
            Response::Caps(c) => obj(&[
                ("ok", Json::str("capabilities")),
                ("backend", Json::str(&c.backend)),
                ("repair", Json::Bool(c.repair)),
                ("streaming", Json::Bool(c.streaming)),
                ("shards", Json::num(c.shards as u64)),
                ("metrics", Json::Bool(c.metrics)),
                ("trace", Json::Bool(c.trace)),
            ]),
            Response::Metrics(m) => obj(&[
                ("ok", Json::str("metrics")),
                (
                    "counters",
                    Json::Arr(
                        m.counters
                            .iter()
                            .map(|(n, v)| Json::Arr(vec![Json::str(n), Json::num(*v)]))
                            .collect(),
                    ),
                ),
                (
                    // Gauges are signed; the integer token stays unsigned,
                    // so the value rides a decimal string.
                    "gauges",
                    Json::Arr(
                        m.gauges
                            .iter()
                            .map(|(n, v)| Json::Arr(vec![Json::str(n), Json::str(&v.to_string())]))
                            .collect(),
                    ),
                ),
                (
                    "histograms",
                    Json::Arr(
                        m.histograms
                            .iter()
                            .map(|h| {
                                obj(&[
                                    ("name", Json::str(&h.name)),
                                    ("count", Json::num(h.count)),
                                    ("sum", Json::num(h.sum)),
                                    ("p50", Json::num(h.p50)),
                                    ("p95", Json::num(h.p95)),
                                    ("p99", Json::num(h.p99)),
                                    ("max", Json::num(h.max)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::Trace(t) => obj(&[
                ("ok", Json::str("trace")),
                ("name", Json::str(&t.name)),
                ("duration_us", Json::num(t.duration_us)),
                (
                    "spans",
                    Json::Arr(t.spans.iter().map(span_record_json).collect()),
                ),
            ]),
            Response::Error { message } => obj(&[("err", Json::str(message))]),
        };
        j.render()
    }

    /// Decode from the JSON form produced by [`Response::encode`].
    pub fn decode(text: &str) -> CfdResult<Response> {
        let j = Json::parse(text)?;
        if let Ok(message) = j.field_str("err") {
            return Ok(Response::Error {
                message: message.to_string(),
            });
        }
        let ok = j.field_str("ok")?;
        Ok(match ok {
            "registered" => Response::Registered {
                rules: j.field_usize("rules")?,
            },
            "inserted" => Response::Inserted {
                row: RowId(j.field_u64("row")?),
            },
            "deleted" => Response::Deleted {
                row: RowId(j.field_u64("row")?),
                values: decode_values(j.field("values")?)?,
            },
            "cell_updated" => Response::CellUpdated {
                row: RowId(j.field_u64("row")?),
                col: j.field_usize("col")?,
                old: decode_value(j.field("old")?)?,
            },
            "batch_applied" => Response::BatchApplied {
                applied: j.field_usize("applied")?,
                inserted: j
                    .field("inserted")?
                    .as_arr()?
                    .iter()
                    .map(|v| Ok(RowId(v.as_u64()?)))
                    .collect::<CfdResult<_>>()?,
            },
            "report" => Response::Report(ReportSummary {
                violations: j.field_usize("violations")?,
                dirty_rows: j.field_usize("dirty_rows")?,
                total_vio: j.field_u64("total_vio")?,
                per_cfd: j
                    .field("per_cfd")?
                    .as_arr()?
                    .iter()
                    .map(|p| {
                        let p = p.as_arr()?;
                        if p.len() != 2 {
                            return Err(parse_err("per_cfd entry must be a pair".into()));
                        }
                        Ok((p[0].as_usize()?, p[1].as_usize()?))
                    })
                    .collect::<CfdResult<_>>()?,
            }),
            "no_report" => Response::NoReport,
            "audited" => {
                let cls = j.field("classes")?.as_arr()?;
                if cls.len() != 4 {
                    return Err(parse_err("classes must hold 4 counts".into()));
                }
                let mut classes = [0usize; 4];
                for (slot, v) in classes.iter_mut().zip(cls) {
                    *slot = v.as_usize()?;
                }
                Response::Audited(AuditSummary {
                    tuples: j.field_usize("tuples")?,
                    classes,
                    dirty_fraction: j.field("dirty_fraction")?.as_float()?,
                })
            }
            "repaired" => Response::Repaired(RepairSummary {
                changes: j.field_usize("changes")?,
                iterations: j.field_usize("iterations")?,
                total_cost: j.field("total_cost")?.as_float()?,
                residual: j.field_usize("residual")?,
            }),
            "len" => Response::Len {
                rows: j.field_usize("rows")?,
            },
            "capabilities" => Response::Caps(Capabilities {
                backend: j.field_str("backend")?.to_string(),
                repair: j.field("repair")?.as_bool()?,
                streaming: j.field("streaming")?.as_bool()?,
                shards: j.field_usize("shards")?,
                metrics: j.field("metrics")?.as_bool()?,
                trace: j.field("trace")?.as_bool()?,
            }),
            "metrics" => Response::Metrics(obs::MetricsReport {
                counters: j
                    .field("counters")?
                    .as_arr()?
                    .iter()
                    .map(|p| {
                        let [name, v] = p.as_arr()? else {
                            return Err(parse_err("counter entry must be a pair".into()));
                        };
                        Ok((name.as_str()?.to_string(), v.as_u64()?))
                    })
                    .collect::<CfdResult<_>>()?,
                gauges: j
                    .field("gauges")?
                    .as_arr()?
                    .iter()
                    .map(|p| {
                        let [name, v] = p.as_arr()? else {
                            return Err(parse_err("gauge entry must be a pair".into()));
                        };
                        let v = v.as_str()?;
                        let v: i64 = v
                            .parse()
                            .map_err(|e| parse_err(format!("bad gauge value '{v}': {e}")))?;
                        Ok((name.as_str()?.to_string(), v))
                    })
                    .collect::<CfdResult<_>>()?,
                histograms: j
                    .field("histograms")?
                    .as_arr()?
                    .iter()
                    .map(|h| {
                        Ok(obs::HistogramSnapshot {
                            name: h.field_str("name")?.to_string(),
                            count: h.field_u64("count")?,
                            sum: h.field_u64("sum")?,
                            p50: h.field_u64("p50")?,
                            p95: h.field_u64("p95")?,
                            p99: h.field_u64("p99")?,
                            max: h.field_u64("max")?,
                        })
                    })
                    .collect::<CfdResult<_>>()?,
            }),
            "trace" => Response::Trace(obs::TraceReport {
                name: j.field_str("name")?.to_string(),
                duration_us: j.field_u64("duration_us")?,
                spans: j
                    .field("spans")?
                    .as_arr()?
                    .iter()
                    .map(decode_span_record)
                    .collect::<CfdResult<_>>()?,
            }),
            other => return Err(parse_err(format!("unknown response tag '{other}'"))),
        })
    }
}

fn span_record_json(s: &obs::SpanRecord) -> Json {
    obj(&[
        ("id", Json::num(s.id)),
        ("parent", Json::num(s.parent)),
        ("name", Json::str(&s.name)),
        ("start_us", Json::num(s.start_us)),
        ("end_us", Json::num(s.end_us)),
        ("thread", Json::num(s.thread)),
        (
            "attrs",
            Json::Arr(
                s.attrs
                    .iter()
                    .map(|(k, v)| Json::Arr(vec![Json::str(k), Json::str(v)]))
                    .collect(),
            ),
        ),
    ])
}

fn decode_span_record(j: &Json) -> CfdResult<obs::SpanRecord> {
    Ok(obs::SpanRecord {
        id: j.field_u64("id")?,
        parent: j.field_u64("parent")?,
        name: j.field_str("name")?.to_string(),
        start_us: j.field_u64("start_us")?,
        end_us: j.field_u64("end_us")?,
        thread: j.field_u64("thread")?,
        attrs: j
            .field("attrs")?
            .as_arr()?
            .iter()
            .map(|p| {
                let [k, v] = p.as_arr()? else {
                    return Err(parse_err("attr entry must be a pair".into()));
                };
                Ok((k.as_str()?.to_string(), v.as_str()?.to_string()))
            })
            .collect::<CfdResult<_>>()?,
    })
}

fn mutation_json(m: &Mutation) -> Json {
    match m {
        Mutation::Insert(row) => obj(&[("m", Json::str("insert")), ("row", values(row))]),
        Mutation::Delete(id) => obj(&[("m", Json::str("delete")), ("row", Json::num(id.0))]),
        Mutation::SetCell { row, col, value } => obj(&[
            ("m", Json::str("set")),
            ("row", Json::num(row.0)),
            ("col", Json::num(*col as u64)),
            ("value", value_json(value)),
        ]),
    }
}

fn decode_mutation(j: &Json) -> CfdResult<Mutation> {
    Ok(match j.field_str("m")? {
        "insert" => Mutation::Insert(decode_values(j.field("row")?)?),
        "delete" => Mutation::Delete(RowId(j.field_u64("row")?)),
        "set" => Mutation::SetCell {
            row: RowId(j.field_u64("row")?),
            col: j.field_usize("col")?,
            value: decode_value(j.field("value")?)?,
        },
        other => return Err(parse_err(format!("unknown mutation '{other}'"))),
    })
}

/// Encode a [`Value`] with exact-round-trip scalar tagging (see module
/// docs): `null`, `true`/`false`, `"text"`, `["i","42"]`, `["f","0.1"]`.
fn value_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::Arr(vec![Json::str("i"), Json::str(&i.to_string())]),
        Value::Float(f) => Json::Arr(vec![Json::str("f"), Json::str(&format!("{f:?}"))]),
        Value::Str(s) => Json::str(s),
    }
}

fn decode_value(j: &Json) -> CfdResult<Value> {
    match j {
        Json::Null => Ok(Value::Null),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Str(s) => Ok(Value::str(s)),
        Json::Arr(parts) => {
            let [tag, body] = parts.as_slice() else {
                return Err(parse_err("tagged scalar must be a [tag, body] pair".into()));
            };
            let body = body.as_str()?;
            match tag.as_str()? {
                "i" => body
                    .parse()
                    .map(Value::Int)
                    .map_err(|e| parse_err(format!("bad int '{body}': {e}"))),
                "f" => body
                    .parse()
                    .map(Value::Float)
                    .map_err(|e| parse_err(format!("bad float '{body}': {e}"))),
                t => Err(parse_err(format!("unknown scalar tag '{t}'"))),
            }
        }
        Json::Num(_) | Json::Obj(_) => Err(parse_err("not a value encoding".into())),
    }
}

fn values(vs: &[Value]) -> Json {
    Json::Arr(vs.iter().map(value_json).collect())
}

fn decode_values(j: &Json) -> CfdResult<Vec<Value>> {
    j.as_arr()?.iter().map(decode_value).collect()
}

fn obj(fields: &[(&str, Json)]) -> Json {
    Json::Obj(
        fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

fn parse_err(m: String) -> CfdError {
    CfdError::Parse(m)
}

// ------------------------------------------------------------- mini JSON
//
// The protocol's own JSON value: render + recursive-descent parse. Covers
// exactly what the messages above use (objects, arrays, strings, unsigned
// integer tokens, booleans, null); floats never appear as JSON numbers —
// they ride tagged strings for exact round-trips.

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    /// An integer token, kept as its digit string (ids and counts; always
    /// written from a `u64`, so no sign or fraction).
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    fn num(n: u64) -> Json {
        Json::Num(n.to_string())
    }

    /// Floats cross the wire as tagged strings (module docs).
    fn float(f: f64) -> Json {
        Json::Arr(vec![Json::str("f"), Json::str(&format!("{f:?}"))])
    }

    fn field(&self, key: &str) -> CfdResult<&Json> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| parse_err(format!("missing field '{key}'"))),
            _ => Err(parse_err(format!("field '{key}' on a non-object"))),
        }
    }

    fn field_str(&self, key: &str) -> CfdResult<&str> {
        self.field(key)?.as_str()
    }

    fn field_u64(&self, key: &str) -> CfdResult<u64> {
        self.field(key)?.as_u64()
    }

    /// A `u64` field narrowed to `usize` — an encoded protocol error on a
    /// 32-bit build when the count doesn't fit, never a silent wrap.
    fn field_usize(&self, key: &str) -> CfdResult<usize> {
        let v = self.field_u64(key)?;
        usize::try_from(v).map_err(|_| {
            parse_err(format!(
                "field '{key}': {v} does not fit this platform's usize"
            ))
        })
    }

    fn as_str(&self) -> CfdResult<&str> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(parse_err("expected a string".into())),
        }
    }

    fn as_bool(&self) -> CfdResult<bool> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err(parse_err("expected a boolean".into())),
        }
    }

    fn as_u64(&self) -> CfdResult<u64> {
        match self {
            Json::Num(s) => s
                .parse()
                .map_err(|e| parse_err(format!("bad integer '{s}': {e}"))),
            _ => Err(parse_err("expected an integer".into())),
        }
    }

    /// [`Json::as_u64`] narrowed to `usize` with the same no-wrap rule as
    /// [`Json::field_usize`].
    fn as_usize(&self) -> CfdResult<usize> {
        let v = self.as_u64()?;
        usize::try_from(v).map_err(|_| parse_err(format!("{v} does not fit this platform's usize")))
    }

    /// A float field: the tagged `["f","..."]` form (or a bare integer
    /// token, accepted leniently).
    fn as_float(&self) -> CfdResult<f64> {
        match self {
            Json::Num(s) => s
                .parse()
                .map_err(|e| parse_err(format!("bad number '{s}': {e}"))),
            Json::Arr(_) => match decode_value(self)? {
                Value::Float(f) => Ok(f),
                _ => Err(parse_err("expected a float".into())),
            },
            _ => Err(parse_err("expected a number".into())),
        }
    }

    fn as_arr(&self) -> CfdResult<&[Json]> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err(parse_err("expected an array".into())),
        }
    }

    fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(s) => out.push_str(s),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    fn parse(text: &str) -> CfdResult<Json> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(parse_err(format!(
                "trailing input at byte {} of message",
                p.pos
            )));
        }
        Ok(v)
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> CfdResult<u8> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| parse_err("unexpected end of message".into()))
    }

    fn expect(&mut self, b: u8) -> CfdResult<()> {
        if self.peek()? != b {
            return Err(parse_err(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )));
        }
        self.pos += 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, value: Json) -> CfdResult<Json> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(parse_err(format!("bad literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> CfdResult<Json> {
        match self.peek()? {
            b'n' => self.literal("null", Json::Null),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'"' => Ok(Json::Str(self.string()?)),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b']' => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(parse_err(format!("bad array at byte {}", self.pos))),
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut fields = Vec::new();
                if self.peek()? == b'}' {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.peek()?; // position on the key
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b'}' => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(parse_err(format!("bad object at byte {}", self.pos))),
                    }
                }
            }
            b'0'..=b'9' => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
                    self.pos += 1;
                }
                Ok(Json::Num(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .expect("digits are UTF-8")
                        .to_string(),
                ))
            }
            b => Err(parse_err(format!(
                "unexpected '{}' at byte {}",
                b as char, self.pos
            ))),
        }
    }

    fn string(&mut self) -> CfdResult<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&b) = rest.first() else {
                return Err(parse_err("unterminated string".into()));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let esc = rest
                        .get(1)
                        .ok_or_else(|| parse_err("dangling escape".into()))?;
                    self.pos += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| parse_err("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| parse_err(format!("bad \\u escape '{hex}'")))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| parse_err(format!("bad code point {code}")))?,
                            );
                        }
                        e => return Err(parse_err(format!("unknown escape '\\{}'", *e as char))),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through untouched).
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| parse_err("invalid UTF-8 in string".into()))?;
                    let c = s.chars().next().expect("nonempty checked");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(r: Request) {
        let line = r.encode();
        let back = Request::decode(&line).unwrap_or_else(|e| panic!("decode {line}: {e}"));
        assert_eq!(back, r, "wire form: {line}");
    }

    fn roundtrip_response(r: Response) {
        let line = r.encode();
        let back = Response::decode(&line).unwrap_or_else(|e| panic!("decode {line}: {e}"));
        assert_eq!(back, r, "wire form: {line}");
    }

    fn awkward_values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Float(0.1),
            Value::Float(f64::NEG_INFINITY),
            Value::str("plain"),
            Value::str("quotes \" and \\ and \n newline, unicode: Ω→é"),
            Value::str(""),
        ]
    }

    #[test]
    fn every_request_variant_round_trips() {
        for r in [
            Request::RegisterCfds {
                text: "customer: [CC='44'] -> [CNT='UK']\nr: [A] -> [B]".into(),
            },
            Request::Insert {
                row: awkward_values(),
            },
            Request::Delete { row: RowId(7) },
            Request::UpdateCell {
                row: RowId(3),
                col: 2,
                value: Value::str("it's quoted"),
            },
            Request::ApplyBatch {
                batch: vec![
                    Mutation::Insert(awkward_values()),
                    Mutation::Delete(RowId(0)),
                    Mutation::SetCell {
                        row: RowId(1),
                        col: 4,
                        value: Value::Null,
                    },
                ]
                .into(),
            },
            Request::Detect,
            Request::Audit,
            Request::Repair,
            Request::LastReport,
            Request::Len,
            Request::Capabilities,
            Request::Metrics,
            Request::Trace,
        ] {
            roundtrip_request(r);
        }
    }

    #[test]
    fn every_response_variant_round_trips() {
        for r in [
            Response::Registered { rules: 5 },
            Response::Inserted { row: RowId(9) },
            Response::Deleted {
                row: RowId(2),
                values: awkward_values(),
            },
            Response::CellUpdated {
                row: RowId(1),
                col: 0,
                old: Value::Float(2.5),
            },
            Response::BatchApplied {
                applied: 3,
                inserted: vec![RowId(10), RowId(11)],
            },
            Response::Report(ReportSummary {
                violations: 4,
                dirty_rows: 6,
                total_vio: 11,
                per_cfd: vec![(0, 3), (2, 1)],
            }),
            Response::NoReport,
            Response::Audited(AuditSummary {
                tuples: 100,
                classes: [90, 4, 3, 3],
                dirty_fraction: 0.03,
            }),
            Response::Repaired(RepairSummary {
                changes: 12,
                iterations: 3,
                total_cost: 7.25,
                residual: 0,
            }),
            Response::Len { rows: 1234 },
            Response::Caps(Capabilities {
                backend: "sharded-cluster".into(),
                repair: false,
                streaming: false,
                shards: 4,
                metrics: true,
                trace: true,
            }),
            Response::Metrics(obs::MetricsReport {
                counters: vec![
                    ("api_requests_total{kind=\"detect\"}".into(), 3),
                    ("colstore_snapshot_encodes_total".into(), u64::MAX),
                ],
                gauges: vec![("cluster_shards".into(), -1), ("depth".into(), i64::MIN)],
                histograms: vec![obs::HistogramSnapshot {
                    name: "api_request_ns{kind=\"detect\"}".into(),
                    count: 3,
                    sum: 12_000,
                    p50: 4_095,
                    p95: 8_191,
                    p99: 8_191,
                    max: 7_800,
                }],
            }),
            Response::Metrics(obs::MetricsReport::default()),
            Response::Trace(obs::TraceReport {
                name: "api.detect".into(),
                duration_us: 4_200,
                spans: vec![
                    obs::SpanRecord {
                        id: 1,
                        parent: 0,
                        name: "api.detect".into(),
                        start_us: 0,
                        end_us: 4_200,
                        thread: 0,
                        attrs: Vec::new(),
                    },
                    obs::SpanRecord {
                        id: 2,
                        parent: 1,
                        name: "shard.export".into(),
                        start_us: 10,
                        end_us: 900,
                        thread: 2,
                        attrs: vec![
                            ("shard".into(), "0".into()),
                            ("quoted".into(), "a \"b\" c".into()),
                        ],
                    },
                ],
            }),
            Response::Trace(obs::TraceReport::default()),
            Response::Error {
                message: "bad \"row\"".into(),
            },
        ] {
            roundtrip_response(r);
        }
    }

    #[test]
    fn nan_floats_round_trip() {
        let line = Request::Insert {
            row: vec![Value::Float(f64::NAN)],
        }
        .encode();
        let Request::Insert { row } = Request::decode(&line).unwrap() else {
            panic!("wrong variant");
        };
        let Value::Float(f) = row[0] else {
            panic!("wrong value");
        };
        assert!(f.is_nan());
    }

    /// The values most likely to break a newline-delimited log: raw
    /// newlines and control characters in text, non-finite floats, empty
    /// strings. The durability WAL stores mutations *in this encoding*,
    /// so these pins are load-bearing for crash recovery, not just for
    /// the TCP transport.
    fn wal_critical_rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::str("line one\nline two\r\nline three")],
            vec![Value::str("\n"), Value::str("\r"), Value::str("\t")],
            vec![Value::str("\u{0}\u{1}\u{8}\u{b}\u{c}\u{1f}\u{7f}")],
            vec![
                Value::Float(f64::NAN),
                Value::Float(f64::INFINITY),
                Value::Float(f64::NEG_INFINITY),
                Value::Float(-0.0),
            ],
            vec![Value::str(""), Value::Null, Value::str("")],
            vec![
                Value::str("mixed \n \u{0} \"quoted\" Ω"),
                Value::Int(i64::MIN),
            ],
        ]
    }

    /// Every WAL-critical mutation encodes to exactly one physical line
    /// (no raw newline anywhere — the log's framing depends on it) and
    /// decodes back `==`, NaN compared by bit pattern.
    #[test]
    fn wal_critical_mutations_encode_single_line_and_round_trip() {
        for row in wal_critical_rows() {
            for req in [
                Request::Insert { row: row.clone() },
                Request::ApplyBatch {
                    batch: vec![
                        Mutation::Insert(row.clone()),
                        Mutation::SetCell {
                            row: RowId(0),
                            col: 0,
                            value: row[0].clone(),
                        },
                    ]
                    .into(),
                },
            ] {
                let line = req.encode();
                assert!(
                    !line.contains('\n') && !line.contains('\r'),
                    "encoding leaked a raw line break: {line:?}"
                );
                let back = Request::decode(&line).unwrap_or_else(|e| panic!("decode {line}: {e}"));
                // NaN != NaN, so compare via the canonical re-encoding
                // (bit-exact float rendering) as well as structurally
                // where possible.
                assert_eq!(back.encode(), line, "re-encode is canonical");
            }
        }
    }

    /// The same payloads through the full server-side step (`decode` →
    /// dispatch → `encode`): a mutation carrying WAL-hostile values must
    /// be *served*, not refused, and the answer must be a single line.
    #[test]
    fn wal_critical_mutations_dispatch_cleanly() {
        let mut b = Inert;
        for row in wal_critical_rows() {
            let line = Request::Insert { row }.encode();
            let out = dispatch_line(&mut b, &line);
            assert!(!out.contains('\n'), "response leaked a newline: {out:?}");
            let resp = Response::decode(&out).unwrap();
            assert_eq!(resp, Response::Inserted { row: RowId(0) }, "served: {line}");
        }
    }

    /// One of every [`Request`] variant — the exhaustiveness backstop for
    /// the classification tests below (the `match` inside `is_read_only`
    /// already breaks the build on a new variant; this pins the *values*).
    fn every_request() -> Vec<Request> {
        vec![
            Request::RegisterCfds {
                text: "r: [A] -> [B]".into(),
            },
            Request::Insert {
                row: vec![Value::Null],
            },
            Request::Delete { row: RowId(0) },
            Request::UpdateCell {
                row: RowId(0),
                col: 0,
                value: Value::Null,
            },
            Request::ApplyBatch {
                batch: MutationBatch::new(),
            },
            Request::Detect,
            Request::Audit,
            Request::Repair,
            Request::LastReport,
            Request::Len,
            Request::Capabilities,
            Request::Metrics,
            Request::Trace,
        ]
    }

    #[test]
    fn every_variant_has_its_own_kind_slot() {
        let mut slots: Vec<usize> = every_request().iter().map(Request::kind_index).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..REQUEST_KINDS.len()).collect::<Vec<_>>());
    }

    #[test]
    fn every_variant_is_classified_read_or_write() {
        let reads = [
            "detect",
            "audit",
            "last_report",
            "len",
            "capabilities",
            "metrics",
            "trace",
        ];
        let writes = [
            "register_cfds",
            "insert",
            "delete",
            "update_cell",
            "apply_batch",
            "repair",
        ];
        let all = every_request();
        assert_eq!(all.len(), reads.len() + writes.len(), "variant inventory");
        for r in &all {
            let kind = r.kind_str();
            if r.is_read_only() {
                assert!(reads.contains(&kind), "{kind} classified read-only");
                assert!(!writes.contains(&kind), "{kind} in exactly one class");
            } else {
                assert!(writes.contains(&kind), "{kind} classified mutating");
                assert!(!reads.contains(&kind), "{kind} in exactly one class");
            }
        }
        // Every kind label is distinct (the obs/net counters key on it).
        let mut kinds: Vec<&str> = all.iter().map(|r| r.kind_str()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), all.len(), "kind_str labels are unique");
    }

    /// A no-op backend for exercising the `dispatch_line` framing edges.
    struct Inert;

    impl QualityBackend for Inert {
        fn capabilities(&self) -> Capabilities {
            Capabilities {
                backend: "inert".into(),
                repair: false,
                streaming: false,
                shards: 1,
                metrics: false,
                trace: false,
            }
        }
        fn register_cfds(&mut self, _text: &str) -> CfdResult<usize> {
            Ok(0)
        }
        fn insert(&mut self, _row: Vec<Value>) -> CfdResult<RowId> {
            Ok(RowId(0))
        }
        fn delete(&mut self, _row: RowId) -> CfdResult<Vec<Value>> {
            Ok(Vec::new())
        }
        fn update_cell(&mut self, _row: RowId, _col: usize, _value: Value) -> CfdResult<Value> {
            Ok(Value::Null)
        }
        fn detect(&mut self) -> CfdResult<ViolationReport> {
            Ok(ViolationReport::default())
        }
        fn audit(&mut self) -> CfdResult<audit::QualityReport> {
            Err(CfdError::Unsupported("inert".into()))
        }
        fn last_report(&self) -> Option<ViolationReport> {
            None
        }
        fn len(&self) -> usize {
            0
        }
    }

    #[test]
    fn dispatch_line_turns_bad_frames_into_encoded_protocol_errors() {
        let mut b = Inert;
        // Empty, malformed, truncated, and unknown-op frames: always an
        // encoded Response::Error that decodes cleanly — never a panic,
        // never a silent drop.
        for bad in ["", "   ", "{", "not json", "{\"op\":\"nope\"}", "[1,2"] {
            let out = dispatch_line(&mut b, bad);
            let resp = Response::decode(&out).unwrap_or_else(|e| panic!("{bad:?}: {e}"));
            assert!(
                matches!(resp, Response::Error { .. }),
                "{bad:?} answered {out}"
            );
        }
        // A well-formed frame still works after the errors.
        let out = dispatch_line(&mut b, &Request::Len.encode());
        assert_eq!(Response::decode(&out).unwrap(), Response::Len { rows: 0 });
    }

    #[test]
    fn dispatch_line_caps_frame_length_without_parsing() {
        let mut b = Inert;
        // An oversized frame of valid JSON shape: refused by length alone.
        let huge = format!(
            "{{\"op\":\"register_cfds\",\"text\":\"{}\"}}",
            "x".repeat(MAX_FRAME_BYTES + 1)
        );
        let out = dispatch_line(&mut b, &huge);
        let Response::Error { message } = Response::decode(&out).unwrap() else {
            panic!("oversized frame must be refused: {out}");
        };
        assert!(message.contains("frame too large"), "{message}");
        // At the cap exactly: parsed normally (and refused as malformed
        // only if it actually is).
        let at_cap = "x".repeat(MAX_FRAME_BYTES);
        let out = dispatch_line(&mut b, &at_cap);
        let Response::Error { message } = Response::decode(&out).unwrap() else {
            panic!("garbage frame must still error");
        };
        assert!(!message.contains("frame too large"), "{message}");
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "{\"op\":\"detect\"} trailing",
            "{\"op\":\"nope\"}",
            "{\"op\":\"insert\",\"row\":[{\"weird\":1}]}",
            "{\"op\":\"delete\",\"row\":\"seven\"}",
            "[1,2",
            "{\"op\":\"insert\",\"row\":[[\"i\",\"notanint\"]]}",
        ] {
            assert!(Request::decode(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn whitespace_tolerant_decode() {
        let r = Request::decode(
            " { \"op\" : \"update_cell\" , \"row\" : 4 ,\n\t\"col\": 1, \"value\": null } ",
        )
        .unwrap();
        assert_eq!(
            r,
            Request::UpdateCell {
                row: RowId(4),
                col: 1,
                value: Value::Null
            }
        );
    }
}
