//! The measured phase of the four workloads, with tracing off: set the
//! program up, drive it closed-loop for the run's seconds, then hold its
//! final answers against the oracle.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use api::{dispatch, Request, Response};
use durable::Durable;
use minidb::RowId;
use net::Client;
use semandaq_core::{DetectorKind, QualityServer, ServerConfig};

use crate::oracle::{acknowledges, reference_table, Acked, Answers};
use crate::script::{
    Role, Script, Sizes, Workload, World, PIPELINE_DEPTH, PROBE_READS, RELATION, RULES,
};
use crate::stack::{empty_server, peak_rss_mb, start_service, KeepAwake, Service, WorkDir};
use crate::stats;

/// Connection W of `svc_read_heavy` sends one update per this long.
pub const WRITE_TICK: Duration = Duration::from_millis(500);
/// The probing connection of `svc_ingest_burst` reads once per this long.
pub const PROBE_TICK: Duration = Duration::from_millis(100);

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the relation and the scripts.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Relation sizes.
    pub sizes: Sizes,
    /// How many times to set the program up (the median is reported).
    pub setups: usize,
    /// A traced run: the measured phase is followed by the two-writer
    /// pass, whose numbers go with the layer metrics.
    pub trace: bool,
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Send→reply of every read, µs.
    pub reads_us: Vec<f64>,
    /// Send→reply (due→reply on a schedule) of every mutating request, ms.
    pub writes_ms: Vec<f64>,
    /// Completion rate of each segment of the run, ops/s: what counts as
    /// an op, and how long a segment is, is per workload. `ops_per_s` is
    /// their median, so a stall of a second or two moves it little.
    pub rates: Vec<f64>,
    /// Wall time of the measured phase.
    pub elapsed_s: f64,
    /// Requests sent.
    pub attempted: u64,
    /// Requests failed, refused, timed out or answered wrongly, plus one
    /// per final answer the oracle rejects.
    pub failed: u64,
    /// Wall time of each set-up.
    pub setups_s: Vec<f64>,
    /// `VmHWM` of the process when the measured phase ended: one set-up
    /// and the phase, before the oracle is consulted and before the
    /// set-up is repeated.
    pub peak_rss_mb: f64,
    /// Acknowledged mutating requests (a batch is one).
    pub write_requests: u64,
    /// Rows those requests mutated (a batch counts its rows).
    pub write_rows: u64,
    /// Ungated detail by metric name.
    pub detail: BTreeMap<&'static str, f64>,
    /// What the correctness gate found wrong.
    pub wrong: Vec<String>,
    /// `obs` registry just before and just after the measured phase.
    pub obs: Option<(obs::MetricsReport, obs::MetricsReport)>,
}

/// What one connection did.
#[derive(Default)]
struct ConnLog {
    reads_us: Vec<f64>,
    writes_ms: Vec<f64>,
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    write_rows: u64,
    acked: Vec<Acked>,
    /// Ids the service assigned to this connection's inserts, in order.
    mine: Vec<RowId>,
    wrong: Vec<String>,
    /// `(seconds since start, reads + mutated rows so far)`, one mark per
    /// segment of replies.
    marks: Vec<(f64, u64)>,
}

impl ConnLog {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.wrong.len() < 5 {
            self.wrong.push(what);
        }
    }

    /// Completion rates, ops/s, over consecutive stretches of marks that
    /// each span at least `min_seconds`.
    fn rates(&self, min_seconds: f64) -> Vec<f64> {
        let mut rates = Vec::new();
        let mut marks = self.marks.iter();
        let Some(mut from) = marks.next() else {
            return rates;
        };
        for mark in marks {
            if mark.0 - from.0 >= min_seconds && mark.0 > from.0 {
                rates.push((mark.1 - from.1) as f64 / (mark.0 - from.0));
                from = mark;
            }
        }
        rates
    }

    fn read_done(&mut self, sent: Instant, request: &Request, response: &Response, rows: usize) {
        self.reads_us.push(sent.elapsed().as_secs_f64() * 1e6);
        let right_size = !matches!(response, Response::Len { rows: n } if rows > 0 && *n != rows);
        if !acknowledges(request, response) || !right_size {
            self.fail(format!("{request:?} answered {response:?}"));
        }
    }

    fn write_done(&mut self, since: Instant, request: Request, response: Response) {
        self.writes_ms.push(since.elapsed().as_secs_f64() * 1e3);
        if !acknowledges(&request, &response) {
            return self.fail(format!("{} answered {response:?}", request.kind_str()));
        }
        match &response {
            Response::Inserted { row } => self.mine.push(*row),
            Response::BatchApplied { inserted, .. } => self.mine.extend(inserted),
            _ => {}
        }
        self.write_rows += match &request {
            Request::ApplyBatch { batch } => batch.len() as u64,
            _ => 1,
        };
        self.acked.push((request, response));
    }
}

/// Drive one connection until `deadline`, closed loop: `plan.depth`
/// requests go out as one TCP write (so the service queues them back to back and
/// one writer batch absorbs them), the next group follows the last reply.
/// With a tick `(period, per_tick)`, `per_tick` groups are due at
/// `start + (k + ½)·period`; a mutating request on a schedule is timed
/// from when it was due, however late it was sent. Reads are always timed
/// from their own send.
fn drive_connection(
    addr: SocketAddr,
    script: &mut Script<'_>,
    plan: &ConnPlan,
    start: Instant,
    deadline: Instant,
    expect_rows: usize,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut replies = 0u64;
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            log.fail(format!("connect: {e}"));
            return log;
        }
    };
    let _ = client.set_timeout(Some(Duration::from_secs(30)));
    for group in 0u32.. {
        let due = match plan.tick {
            Some((period, per_tick)) => {
                let due = start + period.mul_f64(f64::from(group / per_tick) + 0.5);
                if due >= deadline {
                    break;
                }
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                if group % per_tick == 0 {
                    log.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                }
                Some(due)
            }
            None if Instant::now() >= deadline => break,
            None => None,
        };
        let requests: Vec<Request> = (0..plan.depth)
            .map(|_| script.next_op().request(&log.mine))
            .collect();
        let frames: String = requests.iter().map(|r| r.encode() + "\n").collect();
        log.attempted += requests.len() as u64;
        let sent = Instant::now();
        if let Err(e) = client.write_fragment(frames.as_bytes()) {
            log.fail(format!("send: {e}"));
            break;
        }
        for request in requests {
            match client.recv() {
                Ok(response) if request.is_read_only() => {
                    log.read_done(sent, &request, &response, expect_rows)
                }
                Ok(response) => log.write_done(due.unwrap_or(sent), request, response),
                Err(e) => {
                    log.fail(format!("{}: {e}", request.kind_str()));
                    return log;
                }
            }
            replies += 1;
            if replies.is_multiple_of(plan.segment) {
                log.marks.push((
                    start.elapsed().as_secs_f64(),
                    log.reads_us.len() as u64 + log.write_rows,
                ));
            }
        }
    }
    log
}

/// One connection of a service workload: its role, how many requests
/// it pipelines, its schedule (closed loop without one), and what makes
/// one segment of its completion rate: `segment` replies, stretched to
/// at least `segment_seconds`.
#[derive(Clone)]
struct ConnPlan {
    role: Role,
    depth: usize,
    tick: Option<(Duration, u32)>,
    segment: u64,
    segment_seconds: f64,
}

/// The connections of `workload`. The first one is the closed loop whose
/// completions are `ops_per_s`; a second one, where there is one, runs
/// on a schedule beside it.
fn plan(workload: Workload) -> Vec<ConnPlan> {
    let conn = |role, depth, tick, segment| ConnPlan {
        role,
        depth,
        tick,
        segment,
        segment_seconds: 0.0,
    };
    match workload {
        // A segment is a second of reads: it holds two of W's writes, so
        // whatever a write costs the reader shows in every segment.
        Workload::ReadHeavy => vec![
            ConnPlan {
                segment_seconds: 2.0 * WRITE_TICK.as_secs_f64(),
                ..conn(Role::Reader, 1, None, 1_000)
            },
            conn(Role::Ticker, 1, Some((WRITE_TICK, 1)), 1),
        ],
        // A segment is one whole cycle of the burst's mix, so every
        // segment carries the same two batches.
        Workload::IngestBurst => vec![
            conn(Role::Burst, PIPELINE_DEPTH, None, 20),
            conn(Role::Prober, 1, Some((PROBE_TICK, PROBE_READS as u32)), 1),
        ],
        Workload::ClusterMixed => vec![conn(Role::Mixed, 1, None, 10)],
        Workload::BatchClean => Vec::new(),
    }
}

/// The scripts of `workload`'s connections, in connection order.
pub fn scripts<'w>(workload: Workload, world: &'w World, cfg: &RunConfig) -> Vec<Script<'w>> {
    plan(workload)
        .iter()
        .map(|p| Script::new(p.role, world, cfg.sizes, cfg.seed, (0, 1)))
        .collect()
}

/// What the connections of one phase did.
struct Driven {
    logs: Vec<ConnLog>,
    elapsed_s: f64,
    /// `obs` registry just before and just after.
    obs: (obs::MetricsReport, obs::MetricsReport),
}

/// Drive one connection per plan, each with its script, for `seconds`,
/// with the cores kept awake.
fn drive(
    addr: SocketAddr,
    plans: &[ConnPlan],
    scripts: &mut [Script<'_>],
    seconds: f64,
    expect_rows: usize,
) -> Driven {
    let before = obs::snapshot();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let awake = KeepAwake::start();
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .zip(scripts)
            .map(|(p, script)| {
                scope.spawn(move || drive_connection(addr, script, p, start, deadline, expect_rows))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    drop(awake);
    Driven {
        logs,
        elapsed_s: start.elapsed().as_secs_f64(),
        obs: (before, obs::snapshot()),
    }
}

/// What the service answers now against the oracle over the base table
/// with every acknowledged op of `logs` applied. Returns the expected
/// answers (for further checks) and what was wrong.
fn check_served(
    addr: SocketAddr,
    world: &World,
    logs: Vec<ConnLog>,
) -> (Option<Answers>, Vec<String>) {
    let served = ask_over_tcp(addr);
    let acked: Vec<Vec<Acked>> = logs.into_iter().map(|l| l.acked).collect();
    let expected = reference_table(world.table(), &acked)
        .map(|reference| Answers::of_oracle(&reference, &world.cfds));
    match (served, expected) {
        (Ok(served), Ok(expected)) => {
            let wrong = served.mismatches(&expected, "service");
            (Some(expected), wrong)
        }
        (Err(e), expected) => (expected.ok(), vec![e]),
        (_, Err(e)) => (None, vec![e]),
    }
}

fn ask_over_tcp(addr: SocketAddr) -> Result<Answers, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut failure = None;
    let answers = Answers::ask(|request| {
        client.request(&request).unwrap_or_else(|e| {
            failure = Some(format!("final read: {e}"));
            Response::NoReport
        })
    });
    failure.map_or(Ok(answers), Err)
}

fn measure_service(
    cfg: &RunConfig,
    world: &World,
    service: Service,
    dir: &WorkDir,
    out: &mut Outcome,
) {
    let addr = service.server.local_addr();
    let plans = plan(cfg.workload);
    let mut scripts = scripts(cfg.workload, world, cfg);
    // Only inserts and deletes change the row count, and only the burst
    // and the mix send them.
    let expect_rows = if cfg.workload == Workload::ReadHeavy {
        world.table().len()
    } else {
        0
    };
    let Driven {
        logs,
        elapsed_s,
        obs,
    } = drive(addr, &plans, &mut scripts, cfg.seconds, expect_rows);
    out.elapsed_s = elapsed_s;
    out.obs = Some(obs);
    out.peak_rss_mb = peak_rss_mb();

    let mut late = Vec::new();
    for log in &logs {
        out.reads_us.extend(&log.reads_us);
        out.writes_ms.extend(&log.writes_ms);
        late.extend(&log.late_ms);
        out.attempted += log.attempted;
        out.failed += log.failed;
        out.write_requests += log.acked.len() as u64;
        out.write_rows += log.write_rows;
        out.wrong.extend(log.wrong.iter().cloned());
    }
    out.rates = logs[0].rates(plans[0].segment_seconds);
    if out.rates.is_empty() {
        // Too short a run for one whole segment: the overall rate.
        out.rates
            .push((logs[0].reads_us.len() as u64 + logs[0].write_rows) as f64 / out.elapsed_s);
    }
    out.detail
        .insert("bench.writer_late_ms", stats::median(&late));

    // The correctness gate.
    let (expected, mut wrong) = check_served(addr, world, logs);
    let mut backend = service.server.shutdown();
    if cfg.workload.is_durable() {
        // The shutdown above took no checkpoint. Drop the backend, reopen
        // its directory into an empty server, and the log alone must
        // bring every acknowledged write back.
        drop(backend);
        let t = Instant::now();
        match Durable::open(dir.path(), empty_server(world)) {
            Ok(mut recovered) => {
                out.detail
                    .insert("recover_ms", t.elapsed().as_secs_f64() * 1e3);
                let replayed = recovered.recovery().records_replayed as u64;
                if replayed != out.write_requests {
                    wrong.push(format!(
                        "recovery replayed {replayed} records, {} writes were acknowledged",
                        out.write_requests
                    ));
                }
                if let Some(expected) = &expected {
                    wrong.extend(
                        Answers::of_backend(&mut recovered).mismatches(expected, "recovered"),
                    );
                }
            }
            Err(e) => wrong.push(format!("recovery failed: {e}")),
        }
    } else if let Some(expected) = &expected {
        // No WAL: the backend handed back must still hold the final state.
        wrong.extend(Answers::of_backend(&mut backend).mismatches(expected, "backend"));
    }
    out.failed += wrong.len() as u64;
    out.wrong.extend(wrong);
}

/// Share of the run's seconds the two-writer pass measures for.
const TWO_WRITER_SHARE: f64 = 0.4;

/// The two-writer pass of a traced run: a fresh service, and two
/// connections that both play the workload's writing role, each over its
/// own half of the base rows. Nothing here is gated. Two closed-loop
/// writers race for the writer thread's coalescing window, and whether
/// the second one's requests join the epoch the first one opened (every
/// write waits one capture) or the next (two captures) is decided by
/// microseconds; `net.two_writer_epochs_per_write` says which it was, the
/// other two what it cost. The final answers are held against the oracle
/// like the measured phase's.
fn two_writers(cfg: &RunConfig, world: &World, out: &mut Outcome) {
    let writer = plan(cfg.workload).swap_remove(0);
    let plans = [writer.clone(), writer];
    let mut scripts: Vec<Script<'_>> = (0..plans.len())
        .map(|k| Script::new(plans[k].role, world, cfg.sizes, cfg.seed, (k, plans.len())))
        .collect();
    let dir = WorkDir::create("two-writers");
    let service = start_service(cfg.workload, world, dir.path());
    let addr = service.server.local_addr();
    let driven = drive(
        addr,
        &plans,
        &mut scripts,
        cfg.seconds * TWO_WRITER_SHARE,
        0,
    );

    let (mut writes_ms, mut ops, mut acked) = (Vec::new(), 0u64, 0u64);
    for log in &driven.logs {
        writes_ms.extend(&log.writes_ms);
        ops += log.reads_us.len() as u64 + log.write_rows;
        acked += log.acked.len() as u64;
        out.attempted += log.attempted;
        out.failed += log.failed;
        out.wrong.extend(log.wrong.iter().cloned());
    }
    let (before, after) = &driven.obs;
    let epochs = |r: &obs::MetricsReport| r.counter("net_epochs_published_total").unwrap_or(0);
    out.detail
        .insert("net.two_writer_p50_ms", stats::median(&writes_ms));
    out.detail
        .insert("net.two_writer_ops_per_s", ops as f64 / driven.elapsed_s);
    out.detail.insert(
        "net.two_writer_epochs_per_write",
        (epochs(after) - epochs(before)) as f64 / f64::max(acked as f64, 1.0),
    );

    let (_, wrong) = check_served(addr, world, driven.logs);
    drop(service.server.shutdown());
    out.failed += wrong.len() as u64;
    out.wrong
        .extend(wrong.into_iter().map(|w| format!("two writers: {w}")));
}

/// One step of the `batch_clean` session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A fresh default (columnar) server over the 100k-row relation.
    FreshMain,
    /// A fresh default server over the 20k-row relation.
    FreshRepair,
    /// A fresh `DetectorKind::Sql` server over the 20k-row relation.
    FreshSql,
    /// `RegisterCfds`
    Register,
    /// `Detect`
    Detect,
    /// `Audit`
    Audit,
    /// `Repair`
    Repair,
}

/// The paper's session, in order. Steps 2, 4 and 7 and the last are the
/// named timings: cold detect, audit, repair, SQL detect.
pub const SESSION: [Step; 12] = [
    Step::FreshMain,
    Step::Register,
    Step::Detect,
    Step::Detect,
    Step::Audit,
    Step::FreshRepair,
    Step::Register,
    Step::Repair,
    Step::Detect,
    Step::FreshSql,
    Step::Register,
    Step::Detect,
];

/// A fresh server for one of the session's `Fresh*` steps.
pub fn fresh_server(step: Step, world: &World) -> QualityServer {
    let repair_db = world.repair_db.as_ref().expect("batch_clean world");
    let (db, detector) = match step {
        Step::FreshMain => (&world.db, DetectorKind::Columnar),
        Step::FreshRepair => (repair_db, DetectorKind::Columnar),
        _ => (repair_db, DetectorKind::Sql),
    };
    QualityServer::new(db.clone(), RELATION)
        .expect("relation exists")
        .with_config(ServerConfig {
            detector,
            ..ServerConfig::default()
        })
}

/// The wire request of a session step (`None` for the `Fresh*` steps).
pub fn step_request(step: Step) -> Option<Request> {
    match step {
        Step::Register => Some(Request::RegisterCfds { text: RULES.into() }),
        Step::Detect => Some(Request::Detect),
        Step::Audit => Some(Request::Audit),
        Step::Repair => Some(Request::Repair),
        _ => None,
    }
}

fn measure_batch(cfg: &RunConfig, world: &World, out: &mut Outcome) {
    let deadline = Duration::from_secs_f64(cfg.seconds);
    let before = obs::snapshot();
    let start = Instant::now();
    // Per session position: the reply of the first iteration (every later
    // one must repeat it) and the latencies of all iterations, in ms.
    let mut first: Vec<Option<Response>> = vec![None; SESSION.len()];
    let mut times_ms: Vec<Vec<f64>> = vec![Vec::new(); SESSION.len()];
    // The first iteration's three servers, kept for the oracle.
    let mut kept: Vec<QualityServer> = Vec::new();
    while start.elapsed() < deadline {
        let began = Instant::now();
        let mut servers: Vec<QualityServer> = Vec::new();
        for (i, &step) in SESSION.iter().enumerate() {
            let Some(request) = step_request(step) else {
                servers.push(fresh_server(step, world));
                continue;
            };
            let backend = servers
                .last_mut()
                .expect("session starts with a fresh server");
            let t = Instant::now();
            let response = dispatch(backend, request.clone());
            times_ms[i].push(t.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            let repeats = first[i].as_ref().is_none_or(|f| *f == response);
            if !acknowledges(&request, &response) || !repeats {
                out.failed += 1;
                out.wrong
                    .push(format!("step {i} {step:?} answered {response:?}"));
            }
            first[i].get_or_insert(response);
        }
        // One session is one segment: its requests over its wall time.
        let session_requests = SESSION
            .iter()
            .filter(|s| step_request(**s).is_some())
            .count();
        out.rates
            .push(session_requests as f64 / began.elapsed().as_secs_f64());
        if kept.is_empty() {
            kept = servers;
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out.obs = Some((before, obs::snapshot()));
    out.peak_rss_mb = peak_rss_mb();
    // Cold detect is the session's read, repair its write.
    out.reads_us = times_ms[2].iter().map(|ms| ms * 1e3).collect();
    out.writes_ms = times_ms[7].clone();
    out.detail.insert("audit_ms", stats::median(&times_ms[4]));
    out.detail
        .insert("sql_detect_ms", stats::median(&times_ms[11]));

    // The correctness gate: the three servers of the first iteration, in
    // their final states, against the oracle over the same tables; and
    // the replies that were given on the way.
    let mut wrong = Vec::new();
    let replied = |i: usize| first[i].clone().unwrap_or(Response::NoReport);
    for (server, detect_at, who) in [(0, 2, "cold detect"), (1, 8, "repaired"), (2, 11, "sql")] {
        let Some(server) = kept.get_mut(server) else {
            wrong.push(format!("{who}: the session never finished once"));
            continue;
        };
        let table = server.table().expect("relation exists").clone();
        let expected = Answers::of_oracle(&table, &world.cfds);
        wrong.extend(Answers::of_backend(server).mismatches(&expected, who));
        if replied(detect_at) != expected.detect {
            wrong.push(format!(
                "{who}: step {detect_at} answered {:?}",
                replied(detect_at)
            ));
        }
    }
    if let Some(Response::Repaired(summary)) = &first[7] {
        if summary.residual != 0 || summary.changes == 0 {
            wrong.push(format!("repair did not converge: {summary:?}"));
        }
    }
    out.failed += wrong.len() as u64;
    out.wrong.extend(wrong);
}

/// One set-up of `workload`: generate its relation and, for a service
/// workload, load it and start serving. Returns its wall time too.
fn set_up(cfg: &RunConfig, dir: &WorkDir) -> (World, Option<Service>, f64) {
    let t = Instant::now();
    let world = World::generate(cfg.workload, cfg.sizes, cfg.seed);
    let service = cfg
        .workload
        .is_service()
        .then(|| start_service(cfg.workload, &world, dir.path()));
    (world, service, t.elapsed().as_secs_f64())
}

/// Set the workload up, measure it, check it; then set it up again
/// `cfg.setups - 1` times for the median of `setup_s`. The repeats come
/// last because memory a torn-down set-up leaves with the allocator would
/// otherwise count in the measured phase's `peak_rss_mb`. The measured
/// world is handed back for the layer probe.
pub fn run(cfg: &RunConfig) -> (Outcome, World) {
    let mut out = Outcome::default();
    let dir = WorkDir::create(cfg.workload.name());
    let (world, service, seconds) = set_up(cfg, &dir);
    out.setups_s.push(seconds);
    match service {
        Some(service) => {
            out.detail
                .insert("durable.checkpoint_ms", service.checkpoint_ms);
            measure_service(cfg, &world, service, &dir, &mut out);
            if cfg.trace && cfg.workload != Workload::ReadHeavy {
                two_writers(cfg, &world, &mut out);
            }
        }
        None => measure_batch(cfg, &world, &mut out),
    }
    for _ in 1..cfg.setups {
        let dir = WorkDir::create("set-up");
        let (again, service, seconds) = set_up(cfg, &dir);
        out.setups_s.push(seconds);
        // Torn down untimed, before the next one: set-ups do not overlap.
        if let Some(service) = service {
            drop(service.server.shutdown());
        }
        drop(again);
    }
    (out, world)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::Op;

    #[test]
    fn at_most_one_connection_of_a_measured_phase_mutates() {
        for workload in Workload::ALL.into_iter().filter(|w| w.is_service()) {
            let cfg = RunConfig {
                workload,
                seed: 11,
                seconds: 1.0,
                sizes: Sizes::SMOKE,
                setups: 1,
                trace: false,
            };
            let world = World::generate(workload, cfg.sizes, cfg.seed);
            let writers = scripts(workload, &world, &cfg)
                .iter_mut()
                .map(|s| (0..100).any(|_| !matches!(s.next_op(), Op::Read(_))))
                .filter(|writes| *writes)
                .count();
            assert_eq!(writers, 1, "{}", workload.name());
            assert!(plan(workload).len() <= 2, "at most nproc connections");
        }
    }

    #[test]
    fn segment_rates_span_at_least_the_asked_time() {
        let log = ConnLog {
            marks: vec![
                (0.0, 0),
                (0.5, 40),
                (1.0, 150),
                (1.25, 190),
                (2.0, 250),
                (2.5, 300),
            ],
            ..ConnLog::default()
        };
        assert_eq!(log.rates(0.0).len(), 5);
        // 0→1 s and 1→2 s; the last half second is no whole segment.
        assert_eq!(log.rates(1.0), vec![150.0, 100.0]);
        assert!(ConnLog::default().rates(0.0).is_empty());
    }
}
