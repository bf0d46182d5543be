//! The traced run: where the time of a workload goes, layer by layer.
//!
//! Three sources, none of them inside the library:
//!
//! * **counts** — `obs::snapshot()` deltas over the measured (untraced)
//!   phase, divided by the writes, rows or seconds they belong to;
//! * **replay** — the first ops of the workload's own script, sent once
//!   through the real stack on one connection and once through the
//!   *unrolled* stack: the same work assembled from each crate's public
//!   functions, one harness-side span per call, in stack order. The
//!   unrolled time over the real time is the reconciliation;
//! * **probes** — calls into one layer at a time, on the workload's
//!   relation, for what no op path isolates (encode, scan at one thread
//!   and at the default, the oracle, the spill path, a cluster detect).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use api::wire::{AuditSummary, ReportSummary};
use api::{dispatch, Capabilities, Mutation, MutationBatch, QualityBackend, Request, Response};
use cfd::Cfd;
use cluster::ShardedQualityServer;
use colstore::{detect_cached_threads, Snapshot, SnapshotCache, TableDelta};
use durable::{Durable, PagedStore, Wal};
use minidb::{Database, DbError, DbResult, RowId, Value};
use net::publish::Reclaimer;
use net::read::serve_read;
use net::{Client, EpochState, NetServer, Published};
use semandaq_core::{DetectorKind, QualityServer, ServerConfig};

use crate::report::Values;
use crate::script::{Op, Workload, World, RELATION, RULES};
use crate::spans::{self, Recorder, SpanRec};
use crate::stack::{
    cluster_backend, durable_backend, empty_server, loaded_server, net_config, Backend, KeepAwake,
    WorkDir,
};
use crate::stats::{median, percentile};
use crate::workloads::{fresh_server, scripts, step_request, Outcome, RunConfig, Step, SESSION};

/// Ops a replay sends at most.
const REPLAY_OPS: usize = 200;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Median wall time of `reps` calls of `f`, in µs.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            us(t)
        })
        .collect();
    median(&samples)
}

// ------------------------------------------------------------------ counts

fn counts(workload: Workload, out: &Outcome, values: &mut BTreeMap<&'static str, f64>) {
    let Some((before, after)) = &out.obs else {
        return;
    };
    let counter = |name: &str| {
        after.counter(name).unwrap_or(0) as f64 - before.counter(name).unwrap_or(0) as f64
    };
    let samples = |name: &str| {
        let count = |r: &obs::MetricsReport| r.histogram(name).map_or(0, |h| h.count);
        count(after) as f64 - count(before) as f64
    };
    let per = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
    let writes = out.write_requests as f64;
    let share = |hit: f64, miss: f64| per(hit, hit + miss);
    let repairs = counter("repair_runs_total");
    let entries = [
        (
            "net.epochs_per_write",
            per(counter("net_epochs_published_total"), writes),
        ),
        ("net.backpressure_total", counter("net_backpressure_total")),
        (
            "durable.wal_fsyncs_per_write",
            per(samples("wal_fsync_ns"), writes),
        ),
        (
            "durable.wal_bytes_per_row",
            per(counter("wal_append_bytes_total"), out.write_rows as f64),
        ),
        (
            "colstore.fragments_reused_share",
            share(
                counter("colstore_detect_fragments_reused_total"),
                counter("colstore_detect_fragments_computed_total"),
            ),
        ),
        (
            "colstore.rebuild_fallbacks",
            counter("colstore_snapshot_rebuild_fallbacks_total"),
        ),
        (
            "colstore.rows_scanned_per_s",
            per(counter("detect_rows_scanned_total"), out.elapsed_s),
        ),
        (
            "colstore.morsel_steals",
            counter("detect_morsel_steals_total"),
        ),
        (
            "cluster.partials_reused_share",
            share(
                counter("cluster_partials_reused_total"),
                counter("cluster_partials_computed_total"),
            ),
        ),
        (
            "cluster.exported_members_per_detect",
            per(
                counter("cluster_exported_members_total"),
                counter("cluster_detects_total"),
            ),
        ),
        (
            "repair.rounds",
            per(counter("repair_rounds_total"), repairs),
        ),
        (
            "repair.changes",
            per(counter("repair_changes_total"), repairs),
        ),
    ];
    values.extend(entries);
    // The tails the measured phase saw, and its other detail.
    let p99 = |samples: &[f64]| {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, 99.0)
    };
    values.insert("read_p99_us", p99(&out.reads_us));
    values.insert("write_p99_ms", p99(&out.writes_ms));
    values.extend(out.detail.iter().map(|(k, v)| (*k, *v)));
    // The gated metrics under the names the quantity has on this workload.
    let ops_per_s = median(&out.rates);
    match workload {
        Workload::ReadHeavy => values.insert("read_rps", ops_per_s),
        Workload::IngestBurst => values.insert("ingest_rows_per_s", ops_per_s),
        Workload::ClusterMixed => values.insert("mixed_rps", ops_per_s),
        Workload::BatchClean => {
            values.insert("detect_cold_ms", median(&out.reads_us) / 1e3);
            values.insert("repair_ms", median(&out.writes_ms))
        }
    };
}

// ---------------------------------------------------------------- unrolled

/// The backend half of the unrolled stack.
enum Engine {
    /// A single node taken apart: the table, the snapshot cache and the
    /// WAL, each called directly.
    Parts {
        db: Database,
        cache: SnapshotCache,
        wal: Option<Wal>,
    },
    /// The cluster, whole: its shards are not reachable from outside.
    Cluster(ShardedQualityServer),
}

/// The unrolled service stack: codec, engine, publication cell.
struct Unrolled {
    engine: Engine,
    cfds: Vec<Cfd>,
    threads: usize,
    published: Published<EpochState>,
    slot: usize,
    reclaimer: Reclaimer<EpochState>,
    epoch: u64,
}

fn capabilities() -> Capabilities {
    Capabilities {
        backend: "unrolled".into(),
        repair: false,
        streaming: false,
        shards: 1,
        metrics: false,
        trace: false,
    }
}

fn epoch_state(epoch: u64, detect: ReportSummary, audit: AuditSummary, len: usize) -> EpochState {
    EpochState {
        epoch,
        writes_applied: epoch,
        caps: capabilities(),
        detect: Response::Report(detect.clone()),
        audit: Response::Audited(audit),
        last_report: Some(detect),
        len,
    }
}

/// `QualityServer::apply_batch`, the table half: the mutations in order,
/// and the deltas the snapshot cache is to replay.
fn apply_batch(db: &mut Database, batch: MutationBatch) -> DbResult<(Response, Vec<TableDelta>)> {
    let mut deltas = Vec::with_capacity(batch.len());
    let mut inserted = Vec::new();
    for m in batch.mutations {
        deltas.push(match m {
            Mutation::Insert(row) => {
                let id = db.insert_row(RELATION, row)?;
                inserted.push(id);
                TableDelta::Inserted(id)
            }
            Mutation::Delete(id) => {
                db.delete_row(RELATION, id)?;
                TableDelta::Deleted(id)
            }
            Mutation::SetCell { row, col, value } => {
                db.update_cell(RELATION, row, col, value)?;
                TableDelta::CellSet(row, col)
            }
        });
    }
    let applied = deltas.len();
    Ok((Response::BatchApplied { applied, inserted }, deltas))
}

impl Unrolled {
    fn new(cfg: &RunConfig, world: &World, wal_dir: &Path) -> Unrolled {
        let engine = if cfg.workload == Workload::ClusterMixed {
            Engine::Cluster(cluster_backend(world))
        } else {
            let wal = cfg.workload.is_durable().then(|| {
                let path = wal_dir.join("unrolled.wal");
                let _ = std::fs::remove_file(&path);
                Wal::open(&path).expect("open a WAL file")
            });
            Engine::Parts {
                db: world.db.clone(),
                cache: SnapshotCache::new(),
                wal,
            }
        };
        let mut me = Unrolled {
            engine,
            cfds: world.cfds.clone(),
            threads: colstore::morsel::resolve_threads(None),
            published: Published::new(
                Arc::new(epoch_state(
                    0,
                    ReportSummary::of(&Default::default()),
                    AuditSummary {
                        tuples: 0,
                        classes: [0; 4],
                        dirty_fraction: 0.0,
                    },
                    0,
                )),
                4,
            ),
            slot: 0,
            reclaimer: Reclaimer::new(),
            epoch: 0,
        };
        me.slot = me.published.register().expect("a free reader slot");
        // The first capture is set-up, as it is in `ConcurrentEngine::new`.
        let mut quiet = Recorder::new(false);
        me.capture_and_publish(&mut quiet);
        me
    }

    /// Apply one mutating request to the engine: log, table, snapshot.
    fn apply(&mut self, rec: &mut Recorder, request: Request) -> Response {
        let fail = |e: &dyn std::fmt::Display| Response::Error {
            message: e.to_string(),
        };
        match &mut self.engine {
            Engine::Cluster(cluster) => {
                let s = rec.open("cluster.apply");
                let response = dispatch(cluster, request);
                rec.close(s);
                response
            }
            Engine::Parts { db, cache, wal } => {
                if let Some(wal) = wal {
                    // As `Durable` does: encode the request again, append, fsync.
                    let s = rec.open("durable.wal_append");
                    let logged = wal.append(&request.encode());
                    rec.close(s);
                    if let Err(e) = logged {
                        return fail(&e);
                    }
                }
                let s = rec.open("minidb.apply");
                let applied = match request {
                    Request::Insert { row } => db.insert_row(RELATION, row).map(|id| {
                        (
                            Response::Inserted { row: id },
                            vec![TableDelta::Inserted(id)],
                        )
                    }),
                    Request::Delete { row } => db.delete_row(RELATION, row).map(|values| {
                        (
                            Response::Deleted { row, values },
                            vec![TableDelta::Deleted(row)],
                        )
                    }),
                    Request::UpdateCell { row, col, value } => {
                        db.update_cell(RELATION, row, col, value).map(|old| {
                            (
                                Response::CellUpdated { row, col, old },
                                vec![TableDelta::CellSet(row, col)],
                            )
                        })
                    }
                    Request::ApplyBatch { batch } => apply_batch(db, batch),
                    other => Err(DbError::Plan(format!(
                        "{} is not a table mutation",
                        other.kind_str()
                    ))),
                };
                rec.close(s);
                let (response, deltas) = match applied {
                    Ok(done) => done,
                    Err(e) => return fail(&e),
                };
                let table = db.table(RELATION).expect("relation exists");
                let s = rec.open("colstore.patch");
                match deltas.as_slice() {
                    // One-row requests take the one-row notes, as
                    // `QualityServer::{insert, delete, update_cell}` do.
                    [TableDelta::Inserted(id)] => cache.note_insert(table, *id),
                    [TableDelta::Deleted(id)] => cache.note_delete(table, *id),
                    [TableDelta::CellSet(id, col)] => cache.note_set_cell(table, *id, *col),
                    batch => cache.note_batch(table, batch),
                }
                rec.close(s);
                response
            }
        }
    }

    /// What one epoch waits for: detect, audit, summaries, publication.
    fn capture_and_publish(&mut self, rec: &mut Recorder) {
        let capture = rec.open("core.capture");
        let (report, audit, len) = match &mut self.engine {
            Engine::Cluster(cluster) => {
                let s = rec.open("cluster.detect_touched");
                let report = cluster.detect().expect("cluster detects");
                rec.close(s);
                let s = rec.open("audit.report");
                let audit = cluster.audit().expect("cluster audits");
                rec.close(s);
                (report, audit, cluster.len())
            }
            Engine::Parts { db, cache, .. } => {
                let table = db.table(RELATION).expect("relation exists");
                let s = rec.open("colstore.detect_patched");
                let report = detect_cached_threads(cache, table, &self.cfds, self.threads)
                    .expect("columnar detect");
                rec.close(s);
                let s = rec.open("audit.report");
                let audit = audit::quality_report(table, &self.cfds, &report).expect("audit");
                rec.close(s);
                (report, audit, table.len())
            }
        };
        let s = rec.open("api.summarize");
        let state = epoch_state(
            self.epoch + 1,
            ReportSummary::of(&report),
            AuditSummary::of(&audit),
            len,
        );
        rec.close(s);
        rec.close(capture);
        let s = rec.open("net.publish");
        self.epoch += 1;
        let (_, tag, old) = self.published.publish(Arc::new(state));
        self.reclaimer.retire(tag, old);
        self.reclaimer.collect(&self.published);
        rec.close(s);
    }

    /// One request, codec to codec.
    fn serve(&mut self, rec: &mut Recorder, request: &Request) -> Response {
        let read = request.is_read_only();
        let root = rec.open(if read { "op.read" } else { "op.write" });
        let s = rec.open("api.encode_req");
        let line = request.encode();
        rec.close(s);
        let s = rec.open("api.decode_req");
        let decoded = Request::decode(&line).expect("own encoding decodes");
        rec.close(s);
        let response = if read {
            let s = rec.open("net.published_load");
            let state = self.published.load(self.slot);
            rec.close(s);
            let s = rec.open("net.serve_read");
            let response = serve_read(&state, &decoded).unwrap_or(Response::NoReport);
            rec.close(s);
            response
        } else {
            let response = self.apply(rec, decoded);
            self.capture_and_publish(rec);
            response
        };
        let s = rec.open("api.encode_resp");
        let line = response.encode();
        rec.close(s);
        let s = rec.open("api.decode_resp");
        let decoded = Response::decode(&line).expect("own encoding decodes");
        rec.close(s);
        rec.close(root);
        decoded
    }
}

impl Drop for Unrolled {
    fn drop(&mut self) {
        self.published.release(self.slot);
        self.reclaimer.drain(&self.published);
    }
}

/// One unrolled pass of the `batch_clean` session.
fn unrolled_session(world: &World, rec: &mut Recorder) {
    let threads = colstore::morsel::resolve_threads(None);
    let mut state: Option<(Database, SnapshotCache, bool)> = None;
    let mut cfds: Vec<Cfd> = Vec::new();
    let mut last_report = None;
    for (i, &step) in SESSION.iter().enumerate() {
        rec.set_op(i as u32);
        if step_request(step).is_none() {
            let db = match step {
                Step::FreshMain => &world.db,
                _ => world.repair_db.as_ref().expect("batch_clean world"),
            };
            state = Some((db.clone(), SnapshotCache::new(), step == Step::FreshSql));
            continue;
        }
        let (db, cache, sql) = state.as_mut().expect("session starts with a fresh server");
        let root = rec.open(if step == Step::Repair {
            "op.write"
        } else {
            "op.read"
        });
        match step {
            Step::Register => {
                let s = rec.open("cfd.parse");
                cfds = cfd::parse::parse_cfds(RULES).expect("rules parse");
                rec.close(s);
            }
            Step::Detect if *sql => {
                let s = rec.open("detect.sql");
                last_report = detect::detect_sql(db, RELATION, &cfds).ok();
                rec.close(s);
            }
            Step::Detect => {
                let table = db.table(RELATION).expect("relation exists");
                let s = rec.open("colstore.detect");
                last_report = detect_cached_threads(cache, table, &cfds, threads).ok();
                rec.close(s);
            }
            Step::Audit => {
                let table = db.table(RELATION).expect("relation exists");
                let report = last_report.as_ref().expect("audit follows detect");
                let s = rec.open("audit.report");
                let _ = audit::quality_report(table, &cfds, report);
                rec.close(s);
            }
            Step::Repair => {
                let s = rec.open("repair.resolve");
                let cfg = repair::RepairConfig::default();
                let _ = repair::batch_repair_with_cache(db, RELATION, &cfds, &cfg, cache);
                rec.close(s);
            }
            _ => {}
        }
        rec.close(root);
    }
}

// ------------------------------------------------------------------ replay

/// The ops a replay sends: the first connection's script from its start,
/// with the second connection's ops dealt in at a fixed ratio, so both
/// paths are sampled.
fn replay_ops(cfg: &RunConfig, world: &World) -> Vec<Op> {
    let mut scripts = scripts(cfg.workload, world, cfg);
    let every = match cfg.workload {
        // Connection R's reads, with one of W's updates per twenty.
        Workload::ReadHeavy => Some(20),
        // The burst's writes, with one of the prober's reads per five.
        Workload::IngestBurst => Some(5),
        _ => None,
    };
    (0..REPLAY_OPS)
        .map(|i| {
            let second = every.is_some_and(|n| i % n == n - 1);
            scripts[usize::from(second)].next_op()
        })
        .collect()
}

/// What the replay of one workload found.
#[derive(Default)]
struct Replay {
    /// Median real send→reply of a read / a mutating request, µs.
    real_read_us: f64,
    real_write_us: f64,
    /// The traced unrolled pass.
    spans: Vec<SpanRec>,
    /// Wall time of the unrolled pass, traced and untraced, µs.
    traced_us: f64,
    untraced_us: f64,
    /// Probes that need the live service.
    loopback_rtt_us: f64,
    loopback_rtt_idle_us: f64,
    read_inproc_us: f64,
}

/// Send `ops` through the real stack on one connection, unpipelined,
/// until the budget runs out. Returns how many were sent.
fn real_service_pass(
    cfg: &RunConfig,
    world: &World,
    ops: &[Op],
    budget: Duration,
    out: &mut Replay,
) -> usize {
    let dir = WorkDir::create("replay");
    let awake = KeepAwake::start();
    let backend: Backend = if cfg.workload.is_durable() {
        Box::new(durable_backend(world, dir.path()).0)
    } else {
        Box::new(cluster_backend(world))
    };
    let server = NetServer::serve(backend, net_config()).expect("bind a loopback port");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let (mut reads, mut writes, mut mine) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut sent = 0;
    for op in ops {
        if start.elapsed() > budget {
            break;
        }
        let request = op.request(&mine);
        let t = Instant::now();
        let response = client.request(&request).expect("replayed request");
        if request.is_read_only() {
            reads.push(us(t));
        } else {
            writes.push(us(t));
        }
        match response {
            Response::Inserted { row } => mine.push(row),
            Response::BatchApplied { inserted, .. } => mine.extend(inserted),
            _ => {}
        }
        sent += 1;
    }
    out.real_read_us = median(&reads);
    out.real_write_us = median(&writes);
    let mut rtt_us = || {
        median_us(2_000, || {
            let _ = client.request(&Request::Len);
        })
    };
    out.loopback_rtt_us = rtt_us();
    // And as a lone client meets it: with nothing else running, both the
    // worker's core and the client's halt between requests.
    drop(awake);
    out.loopback_rtt_idle_us = rtt_us();
    let handle = server.handle().expect("a free reader slot");
    out.read_inproc_us = median_us(20_000, || {
        std::hint::black_box(handle.request(Request::Detect));
    });
    drop(handle);
    drop(client);
    drop(server.shutdown());
    sent
}

fn unrolled_service_pass(
    cfg: &RunConfig,
    world: &World,
    ops: &[Op],
    traced: bool,
) -> (Vec<SpanRec>, f64) {
    let dir = WorkDir::create("unrolled");
    let mut stack = Unrolled::new(cfg, world, dir.path());
    let mut rec = Recorder::new(traced);
    let mut mine = Vec::new();
    let t = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        rec.set_op(i as u32);
        match stack.serve(&mut rec, &op.request(&mine)) {
            Response::Inserted { row } => mine.push(row),
            Response::BatchApplied { inserted, .. } => mine.extend(inserted),
            _ => {}
        }
    }
    (rec.spans, us(t))
}

fn replay(cfg: &RunConfig, world: &World) -> Replay {
    let mut out = Replay::default();
    if cfg.workload.is_service() {
        let ops = replay_ops(cfg, world);
        let budget = Duration::from_secs_f64((cfg.seconds / 5.0).min(2.0));
        let sent = real_service_pass(cfg, world, &ops, budget, &mut out);
        let ops = &ops[..sent];
        (_, out.untraced_us) = unrolled_service_pass(cfg, world, ops, false);
        (out.spans, out.traced_us) = unrolled_service_pass(cfg, world, ops, true);
    } else {
        // The real pass is one session through `dispatch`, as measured.
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        let mut server: Option<QualityServer> = None;
        for &step in &SESSION {
            match step_request(step) {
                None => server = Some(fresh_server(step, world)),
                Some(request) => {
                    let backend = server.as_mut().expect("session starts with a fresh server");
                    let t = Instant::now();
                    dispatch(backend, request);
                    if step == Step::Repair {
                        &mut writes
                    } else {
                        &mut reads
                    }
                    .push(us(t));
                }
            }
        }
        out.real_read_us = median(&reads);
        out.real_write_us = median(&writes);
        for traced in [false, true] {
            let mut rec = Recorder::new(traced);
            let t = Instant::now();
            unrolled_session(world, &mut rec);
            if traced {
                (out.spans, out.traced_us) = (rec.spans, us(t));
            } else {
                out.untraced_us = us(t);
            }
        }
    }
    out
}

fn replay_metrics(r: &Replay, values: &mut BTreeMap<&'static str, f64>) {
    // A layer's time is its spans' self time; an op's is its whole span.
    let span_us = |name: &str| median(&spans::self_ns_of(&r.spans, name)) / 1e3;
    for (metric, span) in [
        ("api.encode_req_us", "api.encode_req"),
        ("api.decode_req_us", "api.decode_req"),
        ("api.encode_resp_us", "api.encode_resp"),
        ("api.decode_resp_us", "api.decode_resp"),
        ("api.summarize_us", "api.summarize"),
        ("durable.wal_append_us", "durable.wal_append"),
        ("minidb.apply_us", "minidb.apply"),
        ("colstore.patch_us", "colstore.patch"),
        ("colstore.detect_patched_us", "colstore.detect_patched"),
    ] {
        values.insert(metric, span_us(span));
    }
    values.insert("repair.resolve_ms", span_us("repair.resolve") / 1e3);
    values.insert("net.loopback_rtt_us", r.loopback_rtt_us);
    values.insert("net.loopback_rtt_idle_us", r.loopback_rtt_idle_us);
    values.insert("net.read_inproc_us", r.read_inproc_us);
    // The honesty check: what the unrolled write path adds up to, against
    // what a client waited for the same writes through the real stack.
    let unrolled_write_us = median(&spans::duration_ns_of(&r.spans, "op.write")) / 1e3;
    if unrolled_write_us > 0.0 && r.real_write_us > 0.0 {
        values.insert(
            "net.write_unattributed_us",
            r.real_write_us - unrolled_write_us,
        );
        values.insert("net.reconcile_share", unrolled_write_us / r.real_write_us);
    }
    if r.untraced_us > 0.0 {
        values.insert(
            "bench.trace_overhead_share",
            (r.traced_us - r.untraced_us) / r.untraced_us,
        );
    }
}

// ------------------------------------------------------------------ probes

/// One-layer-at-a-time calls on the workload's relation.
fn probes(world: &World, values: &mut BTreeMap<&'static str, f64>) {
    let table = world.table();
    let cfds = &world.cfds;
    let threads = colstore::morsel::resolve_threads(None);
    let rows = table.len();

    // colstore: full encode, then the scan at one thread and at the default.
    values.insert(
        "colstore.encode_ms",
        median_us(3, || drop(Snapshot::of(table))) / 1e3,
    );
    let snap = Snapshot::of(table);
    let scan = |threads: usize| {
        median_us(5, || {
            let _ = colstore::detect_on_snapshot_threads(&snap, cfds, threads);
        }) / 1e3
    };
    let (scan_t1, scan_default) = (scan(1), scan(threads));
    values.insert("colstore.scan_t1_ms", scan_t1);
    values.insert("colstore.scan_ms", scan_default);
    values.insert("colstore.scan_speedup", scan_t1 / scan_default);

    // detect: the oracle, and the exchange merge over this snapshot's partials.
    let mut native = None;
    values.insert(
        "detect.native_ms",
        median_us(3, || native = detect::detect_native(table, cfds).ok()) / 1e3,
    );
    let partials = colstore::cfd_partials(&snap, cfds).expect("partials export");
    values.insert(
        "detect.merge_partials_us",
        median_us(3, || {
            let mut report = detect::ViolationReport::default();
            for (idx, part) in partials.iter().enumerate() {
                detect::merge_cfd_partials(idx, [part], &mut report);
            }
            std::hint::black_box(report);
        }),
    );

    // audit: the report over the oracle's violations.
    let native = native.expect("oracle detects");
    values.insert(
        "audit.report_us",
        median_us(3, || {
            let _ = audit::quality_report(table, cfds, &native);
        }),
    );

    // core: what one epoch waits for after a one-row write, and a repeat
    // detect of an unchanged relation — resident, then with the snapshot
    // held to a tenth of its size and spilled to a paged file.
    let touch = |server: &mut QualityServer, i: usize| {
        let row = RowId((i * 7919 % rows) as u64);
        let value = Value::str(format!("PROBE{i}"));
        server
            .update_cell(row, 2, value)
            .expect("base rows are live");
    };
    let mut server = loaded_server(&world.db);
    server.detect().expect("cold detect");
    let captures: Vec<f64> = (0..5)
        .map(|i| {
            touch(&mut server, i);
            let t = Instant::now();
            server.detect().expect("detect");
            server.audit().expect("audit");
            us(t)
        })
        .collect();
    values.insert("core.capture_us", median(&captures));
    values.insert(
        "core.detect_warm_us",
        median_us(20, || {
            server.detect().expect("detect");
        }),
    );
    drop(server);

    let dir = WorkDir::create("spill");
    let cols = table.schema().arity();
    let store = PagedStore::create(
        &dir.path().join("spill.pages"),
        colstore::default_chunk_rows(),
        4,
    )
    .expect("create the spill file");
    let mut spilled = QualityServer::new(world.db.clone(), RELATION)
        .expect("relation exists")
        .with_config(ServerConfig {
            detector: DetectorKind::Columnar,
            mem_budget: Some(rows * cols * 4 / 10),
            spill_store: Some(store),
            ..ServerConfig::default()
        });
    spilled.register_cfds(RULES).expect("canonical rules");
    spilled.detect().expect("cold detect");
    let before = obs::snapshot();
    const DETECTS: usize = 5;
    let detects: Vec<f64> = (0..DETECTS)
        .map(|i| {
            // A one-row write first, or the memo answers without a scan.
            touch(&mut spilled, i);
            let t = Instant::now();
            spilled.detect().expect("detect");
            us(t)
        })
        .collect();
    values.insert("core.detect_spilled_us", median(&detects));
    let after = obs::snapshot();
    let delta =
        |name: &str| (after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)) as f64;
    let (faults, hits) = (
        delta("spill_page_faults_total"),
        delta("spill_pool_hits_total"),
    );
    values.insert("durable.page_faults_per_detect", faults / DETECTS as f64);
    values.insert(
        "durable.pool_hit_share",
        if faults + hits > 0.0 {
            hits / (faults + hits)
        } else {
            0.0
        },
    );
    drop(spilled);

    // durable: a log of inserts and nothing else, reopened into an empty
    // server — what replaying one record costs.
    let log_dir = WorkDir::create("replay-log");
    let mut logged =
        Durable::open(log_dir.path(), empty_server(world)).expect("open WAL directory");
    logged.set_sync(false);
    for (_, row) in table.iter().take(2_000) {
        logged.insert(row.to_vec()).expect("logged insert");
    }
    drop(logged);
    let t = Instant::now();
    let reopened = Durable::open(log_dir.path(), empty_server(world)).expect("reopen");
    values.insert(
        "durable.replay_ns_per_record",
        t.elapsed().as_nanos() as f64 / reopened.recovery().records_replayed.max(1) as f64,
    );
    drop(reopened);

    // cluster: a detect after a one-row write, and its two phases.
    let mut cluster = cluster_backend(world);
    cluster.detect().expect("cold detect");
    let (mut touched, mut scatter, mut merge) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..5 {
        let row = RowId((i * 7919 % rows) as u64);
        cluster
            .update_cell(row, 2, Value::str(format!("PROBE{i}")))
            .expect("base rows are live");
        let t = Instant::now();
        cluster.detect().expect("detect");
        touched.push(us(t));
        let stats = cluster.last_detect_stats();
        scatter.push(stats.scatter_ns as f64 / 1e3);
        merge.push(stats.merge_ns as f64 / 1e3);
    }
    values.insert("cluster.detect_touched_us", median(&touched));
    values.insert("cluster.scatter_us", median(&scatter));
    values.insert("cluster.merge_us", median(&merge));

    // net: the publication cell on its own, one reader registered.
    let state = |epoch| {
        Arc::new(epoch_state(
            epoch,
            ReportSummary::of(&native),
            AuditSummary {
                tuples: rows,
                classes: [0; 4],
                dirty_fraction: 0.0,
            },
            rows,
        ))
    };
    let published = Published::new(state(0), 2);
    let slot = published.register().expect("a free reader slot");
    const LOADS: u32 = 1_000_000;
    let t = Instant::now();
    for _ in 0..LOADS {
        std::hint::black_box(published.load(slot));
    }
    values.insert(
        "net.published_load_ns",
        t.elapsed().as_nanos() as f64 / f64::from(LOADS),
    );
    let mut reclaimer = Reclaimer::new();
    let mut epoch = 0;
    values.insert(
        "net.publish_us",
        median_us(1_000, || {
            epoch += 1;
            let (_, tag, old) = published.publish(state(epoch));
            reclaimer.retire(tag, old);
            reclaimer.collect(&published);
        }),
    );
    published.release(slot);
    reclaimer.drain(&published);
}

/// The layer probe of one workload, after its measured phase: counts of
/// that phase, the replay through the real and the unrolled stack, and
/// the one-layer probes. Writes the replay's spans as a Chrome trace
/// beside the executable and returns every layer metric.
pub fn probe(cfg: &RunConfig, world: &World, outcome: &Outcome) -> Values {
    let mut values = BTreeMap::new();
    counts(cfg.workload, outcome, &mut values);
    let replayed = replay(cfg, world);
    replay_metrics(&replayed, &mut values);
    probes(world, &mut values);
    if let Ok(exe) = std::env::current_exe() {
        let dir = exe.with_file_name("sdqbench-trace");
        let path = dir.join(format!("{}.trace.json", cfg.workload.name()));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans::chrome_json(&replayed.spans)));
        match written {
            Ok(()) => println!(
                "{} spans written to {}",
                replayed.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("trace not written: {e}"),
        }
    }
    values.into_iter().collect()
}
