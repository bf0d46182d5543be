//! Quality service: one backend behind the serializable command protocol.
//!
//! A client-side script is *serialized* into JSON request lines, shipped
//! through [`semandaq::api::dispatch_line`] (decode → dispatch → encode —
//! exactly what a network transport would do on the server side), and the
//! decoded responses drive the client's view. The backend is chosen by
//! flag; the script is backend-agnostic — that is the point of the
//! unified API.
//!
//! ```sh
//! cargo run --example quality_service                      # all backends
//! cargo run --example quality_service -- --backend single
//! cargo run --example quality_service -- --backend cluster
//! cargo run --example quality_service -- --backend monitor
//! cargo run --example quality_service -- --backend cluster --metrics
//! ```
//!
//! `--metrics` appends the Prometheus-style exposition of the process-wide
//! telemetry registry after the request loop — the same numbers a
//! `Request::Metrics` over the wire would carry.
//!
//! `--trace` enables request-scoped tracing, then after the loop prints
//! the rendered span tree of the slowest captured request and writes all
//! captured traces as a Chrome trace-event file (`chrome://tracing`,
//! Perfetto) next to the binary.
//!
//! The same script also runs *over TCP*:
//!
//! ```sh
//! # server: serve the chosen backend until a stdin line (or EOF)
//! cargo run --example quality_service -- --backend cluster --listen 127.0.0.1:7744 --metrics
//! # clients: N concurrent mixed read/write sessions against it
//! cargo run --example quality_service -- --connect 127.0.0.1:7744 --clients 4
//! ```
//!
//! **Durability.** `--wal DIR` (or `SDQ_WAL_DIR`) wraps the backend in a
//! [`semandaq::durable::Durable`] write-ahead log: every accepted
//! mutation is logged before it applies, and a restart — including a
//! `kill -9` — replays the log's valid prefix back to the exact
//! pre-crash state. A clean server shutdown checkpoints and rotates the
//! log. `SDQ_MEM_BUDGET` additionally bounds snapshot residency by
//! spilling cold chunks to a paged file in the same directory.
//!
//! Two small modes support the crash-recovery smoke test in CI:
//! `--report` recovers the WAL offline and prints the encoded detect
//! report; `--probe ADDR` asks a running server for the same report over
//! TCP — byte-equal outputs mean server recovery matches serial replay.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use semandaq::api::{dispatch_line, Mutation, MutationBatch, QualityBackend, Request, Response};
use semandaq::cluster::{HashRouter, ShardedQualityServer};
use semandaq::colstore::ChunkStore;
use semandaq::datagen::{customer::CANONICAL_CFDS, dirty_customers};
use semandaq::durable::{Durable, PagedStore, CHECKPOINT_FILE, SPILL_FILE};
use semandaq::minidb::{RowId, Value};
use semandaq::net::{Client, NetConfig, NetServer};
use semandaq::system::{DataMonitor, MonitorMode, QualityServer, ServerConfig};

const ROWS: usize = 2_000;
const SEED: u64 = 42;

/// The spill store for `SDQ_MEM_BUDGET`, if one is configured: a paged
/// file in `dir` (the WAL directory when logging, the temp dir
/// otherwise).
fn spill_store(dir: Option<&Path>) -> Arc<dyn ChunkStore> {
    let dir = dir
        .map(Path::to_path_buf)
        .unwrap_or_else(std::env::temp_dir);
    std::fs::create_dir_all(&dir).expect("create spill dir");
    let page_codes = semandaq::colstore::default_chunk_rows();
    PagedStore::create(&dir.join(SPILL_FILE), page_codes, 0).expect("create spill file")
}

/// Stand up the chosen backend over the dirty customer workload (`rows`
/// seeded rows — zero when a checkpoint will supply the data), honoring
/// `SDQ_MEM_BUDGET` (cold snapshot chunks spill to a paged file under
/// `spill_dir`).
fn backend_seeded(
    kind: &str,
    spill_dir: Option<&Path>,
    rows: usize,
) -> Box<dyn QualityBackend + Send> {
    let w = dirty_customers(rows, 0.05, SEED);
    let budget = semandaq::obs::env::bytes("SDQ_MEM_BUDGET");
    match kind {
        "single" => {
            let mut config = ServerConfig::from_env();
            config.spill_store = budget.map(|_| spill_store(spill_dir));
            Box::new(
                QualityServer::new(w.db, "customer")
                    .unwrap()
                    .with_config(config),
            )
        }
        // "sharded" is the historical spelling, kept as an alias.
        "cluster" | "sharded" => {
            let mut c = ShardedQualityServer::partition(
                w.db.table("customer").unwrap(),
                4,
                Box::new(HashRouter::new(vec![1])),
            )
            .unwrap();
            if let Some(b) = budget {
                c = c.with_spill(spill_store(spill_dir), b);
            }
            Box::new(c)
        }
        "monitor" => Box::new(
            DataMonitor::new(w.db, "customer", Vec::new(), MonitorMode::DetectOnly).unwrap(),
        ),
        other => panic!("unknown backend '{other}' (single | cluster | monitor)"),
    }
}

fn backend(kind: &str, spill_dir: Option<&Path>) -> Box<dyn QualityBackend + Send> {
    backend_seeded(kind, spill_dir, ROWS)
}

/// Open (and recover) the WAL-wrapped backend, announcing what replay
/// found on stderr — stdout stays clean for `--report` diffing.
///
/// The demo workload is seeded only on *first* boot: once a checkpoint
/// exists it carries every row (seed included), and restore requires the
/// backend to start empty.
fn open_durable(kind: &str, dir: &Path) -> Durable<Box<dyn QualityBackend + Send>> {
    let seed_rows = if dir.join(CHECKPOINT_FILE).exists() {
        0
    } else {
        ROWS
    };
    let d = Durable::open(dir, backend_seeded(kind, Some(dir), seed_rows)).expect("recover WAL");
    let r = d.recovery();
    eprintln!(
        "wal: {} — {} checkpoint rows, {} records replayed ({} re-failed), \
         {} torn bytes truncated",
        dir.display(),
        r.checkpoint_rows,
        r.records_replayed,
        r.records_refailed,
        r.truncated_bytes
    );
    d
}

/// The backend with durability applied: when a WAL directory is
/// configured, wrap in [`Durable`] — prior state replays now, and every
/// future mutation logs before it applies.
fn service_backend(kind: &str, wal: Option<&Path>) -> Box<dyn QualityBackend + Send> {
    match wal {
        None => backend(kind, None),
        Some(dir) => Box::new(open_durable(kind, dir)),
    }
}

/// A donor row with one corrupted column — traffic that violates a rule.
fn dirty_row(corrupt_col: usize, v: &str) -> Vec<Value> {
    let w = dirty_customers(ROWS, 0.05, SEED);
    let mut row: Vec<Value> =
        w.db.table("customer")
            .unwrap()
            .iter()
            .next()
            .unwrap()
            .1
            .to_vec();
    row[corrupt_col] = Value::str(v);
    row
}

/// The client script: registration, mixed ingest batches, detection,
/// audit, repair, introspection.
fn script() -> Vec<Request> {
    let ingest_1 = MutationBatch {
        mutations: vec![
            Mutation::Insert(dirty_row(2, "WRONGCITY")),
            Mutation::Insert(dirty_row(1, "XX")),
            Mutation::SetCell {
                row: RowId(17),
                col: 2,
                value: Value::str("ELSEWHERE"),
            },
        ],
    };
    let ingest_2 = MutationBatch {
        mutations: vec![
            Mutation::Delete(RowId(ROWS as u64)), // drop the first dirty insert
            Mutation::Insert(dirty_row(3, "00000")),
        ],
    };
    vec![
        Request::Capabilities,
        Request::Len,
        Request::RegisterCfds {
            text: CANONICAL_CFDS.to_string(),
        },
        Request::Detect,
        Request::Audit,
        Request::ApplyBatch { batch: ingest_1 },
        Request::Detect,
        Request::ApplyBatch { batch: ingest_2 },
        Request::Detect,
        Request::Audit,
        Request::Repair, // capability-gated: server + cluster repair, monitor refuses
        Request::Detect,
        Request::LastReport,
        Request::Len,
    ]
}

fn preview(line: &str) -> String {
    const MAX: usize = 96;
    if line.len() <= MAX {
        line.to_string()
    } else {
        let cut = (0..=MAX).rev().find(|&i| line.is_char_boundary(i)).unwrap();
        format!("{}… (+{} bytes)", &line[..cut], line.len() - cut)
    }
}

fn serve(kind: &str, wal: Option<&Path>) {
    println!("=== backend: {kind} ===");
    let mut b = service_backend(kind, wal);
    for request in script() {
        // Client side: serialize. Server side: decode, dispatch, encode.
        let wire_in = request.encode();
        let wire_out = dispatch_line(b.as_mut(), &wire_in);
        // Client side again: decode the answer.
        let response = Response::decode(&wire_out).expect("server speaks the protocol");
        println!("→ {}", preview(&wire_in));
        println!("← {}", preview(&wire_out));
        match response {
            Response::Report(s) => println!(
                "  {} violations over {} dirty rows",
                s.violations, s.dirty_rows
            ),
            Response::Audited(s) => println!(
                "  {} tuples, {:.1}% dirty",
                s.tuples,
                s.dirty_fraction * 100.0
            ),
            Response::Repaired(s) => println!(
                "  repaired: {} changes in {} rounds, {} residual",
                s.changes, s.iterations, s.residual
            ),
            Response::Error { message } => println!("  refused: {message}"),
            _ => {}
        }
    }
    println!();
}

/// Serve one backend over TCP until stdin yields a line (or EOF) — the
/// shutdown handshake the CI fifo uses. Drains the writer queue before
/// returning the backend for post-shutdown work.
fn listen_with<B: QualityBackend + Send + 'static>(b: B, addr: Option<String>, kind: &str) -> B {
    let mut config = NetConfig::from_env();
    if let Some(addr) = addr {
        config.addr = addr;
    }
    let server = NetServer::serve(b, config).expect("bind listen address");
    println!(
        "listening on {} (backend: {kind}; a stdin line or EOF stops the server)",
        server.local_addr()
    );
    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);
    server.shutdown()
}

/// Serve over TCP; with a WAL directory, log every accepted mutation and
/// checkpoint on clean shutdown (a `kill -9` instead leaves the log for
/// the next start to replay).
fn listen(kind: &str, addr: Option<String>, wal: Option<&Path>) {
    match wal {
        None => {
            let b = listen_with(backend(kind, None), addr, kind);
            println!("server stopped; {} rows after shutdown drain", b.len());
        }
        Some(dir) => {
            let mut d = listen_with(open_durable(kind, dir), addr, kind);
            match d.checkpoint() {
                Ok(()) => println!(
                    "server stopped; checkpointed {} rows, wal rotated to generation {}",
                    d.len(),
                    d.wal_generation()
                ),
                Err(e) => println!("server stopped; {} rows (checkpoint skipped: {e})", d.len()),
            }
        }
    }
}

/// Offline crash-recovery check: replay the WAL into a fresh backend and
/// print the encoded detect report (stdout carries only that line).
fn report(kind: &str, wal: &Path) {
    let mut b = service_backend(kind, Some(wal));
    println!("{}", dispatch_line(b.as_mut(), &Request::Detect.encode()));
}

/// Online half of the same check: ask a running server for its detect
/// report over TCP and print the same encoded line.
fn probe(addr: &str) {
    let mut client = Client::connect(addr).expect("connect");
    let resp = client.request(&Request::Detect).expect("round trip");
    println!("{}", resp.encode());
}

/// One client session: mixed reads and writes that stay out of other
/// clients' way (each mutates only rows it inserted itself), ending with
/// a `Request::Metrics` that proves the service counted the traffic.
/// `peers` is the total session count — the bound on how many rows the
/// others can delete while this one works.
fn client_session(addr: &str, c: usize, peers: usize) {
    let mut client = Client::connect(addr).expect("connect");
    let mut served = 0usize;
    let mut ask = |client: &mut Client, req: &Request| -> Response {
        let resp = client.request(req).expect("round trip");
        assert!(
            !matches!(resp, Response::Error { .. }),
            "client {c}: {req:?} refused: {resp:?}"
        );
        served += 1;
        resp
    };
    ask(&mut client, &Request::Capabilities);
    let Response::Len { rows: before } = ask(&mut client, &Request::Len) else {
        panic!("client {c}: Len answered something else");
    };
    ask(&mut client, &Request::Detect);
    let Response::Inserted { row: own } = ask(
        &mut client,
        &Request::Insert {
            row: dirty_row(2, &format!("CLIENT{c}")),
        },
    ) else {
        panic!("client {c}: Insert answered something else");
    };
    // Read-your-writes: the insert reply arrived after its epoch
    // published, so the row count includes the row (minus whatever other
    // clients deleted concurrently), and — the real pin — the mutations
    // below on the freshly inserted row must find it.
    let Response::Len { rows: after } = ask(&mut client, &Request::Len) else {
        panic!("client {c}: Len answered something else");
    };
    assert!(
        after + peers > before,
        "client {c}: own insert is visible (len {before} -> {after})"
    );
    ask(
        &mut client,
        &Request::UpdateCell {
            row: own,
            col: 2,
            value: Value::str("MOVED"),
        },
    );
    ask(&mut client, &Request::Detect);
    ask(&mut client, &Request::Audit);
    ask(&mut client, &Request::Delete { row: own });
    ask(&mut client, &Request::LastReport);
    let Response::Metrics(report) = ask(&mut client, &Request::Metrics) else {
        panic!("client {c}: Metrics answered something else");
    };
    let detects = report
        .counter("net_requests_total{kind=\"detect\"}")
        .unwrap_or(0);
    assert!(detects > 0, "client {c}: the service counts requests");
    println!("client {c}: {served} requests served, net detect count {detects}");
}

/// N concurrent sessions against a running server.
fn connect(addr: &str, clients: usize) {
    // Rules are registered once, not per client — re-registration is a
    // write every client would race on.
    let mut ctl = Client::connect(addr).expect("connect");
    let resp = ctl
        .request(&Request::RegisterCfds {
            text: CANONICAL_CFDS.to_string(),
        })
        .expect("register rules");
    assert!(
        matches!(resp, Response::Registered { .. }),
        "rule registration refused: {resp:?}"
    );
    let sessions: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.to_string();
            std::thread::spawn(move || client_session(&addr, c, clients))
        })
        .collect();
    for s in sessions {
        s.join().expect("client session clean");
    }
    println!("{clients} concurrent clients OK against {addr}");
}

/// Pull `--flag [value]` out of the argument list; the value is taken
/// only when the next argument isn't itself a flag.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<Option<String>> {
    let at = args.iter().position(|a| a == flag)?;
    args.remove(at);
    let value = if args.get(at).is_some_and(|a| !a.starts_with("--")) {
        Some(args.remove(at))
    } else {
        None
    };
    Some(value)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let metrics = args.iter().any(|a| a == "--metrics");
    let trace = args.iter().any(|a| a == "--trace");
    args.retain(|a| a != "--metrics" && a != "--trace");
    if trace {
        semandaq::obs::trace::set_enabled(true);
    }
    // WAL directory: flag wins, `SDQ_WAL_DIR` is the env spelling.
    let wal: Option<PathBuf> = take_flag(&mut args, "--wal")
        .map(|v| v.expect("--wal needs DIR"))
        .or_else(|| semandaq::obs::env::string("SDQ_WAL_DIR"))
        .map(PathBuf::from);
    if let Some(addr) = take_flag(&mut args, "--probe") {
        probe(&addr.expect("--probe needs ADDR"));
        return;
    }
    if args.iter().any(|a| a == "--report") {
        args.retain(|a| a != "--report");
        let kind = take_flag(&mut args, "--backend")
            .map(|v| v.expect("--backend needs a kind"))
            .unwrap_or_else(|| "single".into());
        assert!(
            args.is_empty(),
            "--report takes only --backend/--wal, got {args:?}"
        );
        let wal = wal.expect("--report needs --wal DIR (or SDQ_WAL_DIR)");
        report(&kind, &wal);
        return;
    }
    let listen_to = take_flag(&mut args, "--listen");
    let connect_to = take_flag(&mut args, "--connect");
    let clients = take_flag(&mut args, "--clients")
        .map(|v| {
            v.expect("--clients needs a count")
                .parse::<usize>()
                .expect("--clients needs a number")
        })
        .unwrap_or(1);
    match (connect_to, listen_to, args.as_slice()) {
        (Some(addr), None, []) => {
            // `--clients 0` is a request for no work — refuse it loudly
            // rather than silently rounding up to one session.
            if clients == 0 {
                eprintln!("--clients 0 would run no sessions; pass a positive count");
                std::process::exit(2);
            }
            connect(&addr.expect("--connect needs ADDR"), clients);
            return;
        }
        (None, Some(addr), []) => listen("single", addr, wal.as_deref()),
        (None, Some(addr), [flag, kind]) if flag == "--backend" => {
            listen(kind, addr, wal.as_deref())
        }
        (None, None, []) => {
            for kind in ["single", "cluster", "monitor"] {
                serve(kind, wal.as_deref());
            }
        }
        (None, None, [flag, kind]) if flag == "--backend" => serve(kind, wal.as_deref()),
        (_, _, other) => panic!(
            "usage: quality_service [--backend single|cluster|monitor] [--listen [ADDR]] \
             [--connect ADDR [--clients N]] [--wal DIR] [--report] [--probe ADDR] \
             [--metrics] [--trace], got {other:?}"
        ),
    }
    if metrics {
        println!("=== metrics ===");
        print!("{}", semandaq::obs::render_text());
    }
    if trace {
        let traces = semandaq::obs::trace::recent_traces();
        match traces.iter().max_by_key(|t| t.duration_us) {
            None => println!("=== trace: nothing captured ==="),
            Some(slowest) => {
                println!("=== trace: {} captured requests ===", traces.len());
                for t in &traces {
                    println!(
                        "{:<14} {:>8}µs  {} spans",
                        t.name,
                        t.duration_us,
                        t.spans.len()
                    );
                }
                println!("--- slowest ---");
                print!("{}", slowest.render_tree());
                // One Chrome trace-event file for *all* captured requests,
                // written next to the binary so repeat runs overwrite.
                let events: Vec<String> = traces
                    .iter()
                    .map(|t| {
                        let json = t.to_chrome_json();
                        // Splice each report's event array into one stream.
                        json.trim_start_matches('[')
                            .trim_end_matches(']')
                            .trim()
                            .to_string()
                    })
                    .filter(|s| !s.is_empty())
                    .collect();
                let path = std::env::current_exe()
                    .map(|p| p.with_file_name("quality_service_trace.json"))
                    .unwrap_or_else(|_| std::path::PathBuf::from("quality_service_trace.json"));
                match std::fs::write(&path, format!("[{}]", events.join(","))) {
                    Ok(()) => println!("chrome trace written to {}", path.display()),
                    Err(e) => println!("chrome trace not written: {e}"),
                }
            }
        }
    }
}
