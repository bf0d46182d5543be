//! Service-tier correctness over real backends and a real socket.
//!
//! The load-bearing test drives a `NetServer` on loopback with reader
//! threads hammering `Detect`/`Audit`/`Len` while a writer client
//! streams the mutation script, and checks the MVCC-lite contract from
//! both sides:
//!
//! * **no torn state** — an in-process handle pairs each published
//!   epoch's `writes_applied` with the answer a fresh backend gives
//!   after exactly that serial prefix (replayed through the same
//!   `dispatch`), and demands equality;
//! * **every wire read is some epoch** — socket readers may race the
//!   writer, so each of their answers must be *a member* of the serial
//!   prefix answer set;
//! * **the end state is serial** — after shutdown the backend's table
//!   and its final detect/audit/report/len wire responses are
//!   byte-identical to the same script run serially through `dispatch`,
//!   for the single-node server and the sharded cluster alike.
//!
//! Around that: frame-edge behavior over TCP (malformed / empty /
//! oversized lines answer encoded errors and the connection
//! resynchronizes), pipelining order, connection and write-queue
//! backpressure, idle-timeout behavior, and `Send` pins for every
//! backend the writer thread may own.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Duration;

use semandaq::api::wire::MAX_FRAME_BYTES;
use semandaq::api::{dispatch, Mutation, MutationBatch, QualityBackend, Request, Response};
use semandaq::cluster::{HashRouter, ShardedQualityServer};
use semandaq::datagen::{customer::CANONICAL_CFDS, dirty_customers};
use semandaq::minidb::{RowId, Table, Value};
use semandaq::net::{Client, NetConfig, NetServer};
use semandaq::system::{DataMonitor, MonitorMode, QualityServer};

const ROWS: usize = 200;
const SEED: u64 = 4242;

fn single() -> QualityServer {
    let d = dirty_customers(ROWS, 0.05, SEED);
    QualityServer::new(d.db, "customer").unwrap()
}

fn cluster() -> ShardedQualityServer {
    let d = dirty_customers(ROWS, 0.05, SEED);
    ShardedQualityServer::partition(
        d.db.table("customer").unwrap(),
        3,
        Box::new(HashRouter::new(vec![1])),
    )
    .unwrap()
}

/// Loopback config sized for tests: OS-assigned port, small pool.
fn test_config() -> NetConfig {
    NetConfig {
        addr: "127.0.0.1:0".into(),
        net_threads: 4,
        max_conns: 32,
        queue_depth: 64,
        idle_timeout: Duration::from_secs(10),
        max_frame: MAX_FRAME_BYTES,
    }
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

fn table_rows(t: &Table) -> Vec<(RowId, Vec<Value>)> {
    let mut rows: Vec<(RowId, Vec<Value>)> = t.iter().map(|(id, r)| (id, r.to_vec())).collect();
    rows.sort_by_key(|(id, _)| *id);
    rows
}

/// The deterministic mutation stream: registration, a mixed batch, then
/// interleaved inserts / deletes / cell updates. Global row ids are
/// allocated identically by every backend, so the targets are fixed.
fn write_script() -> Vec<Request> {
    let mut script = vec![
        Request::RegisterCfds {
            text: CANONICAL_CFDS.to_string(),
        },
        Request::ApplyBatch {
            batch: MutationBatch {
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
            },
        },
    ];
    // The batch inserted global ids 200 and 201; loop inserts continue
    // from 202, one per iteration.
    for i in 0..12u64 {
        script.push(Request::Insert {
            row: dirty_row(3, &format!("Z{i:04}")),
        });
        if i % 3 == 0 {
            script.push(Request::Delete {
                row: RowId(ROWS as u64 + 2 + i),
            });
        }
        if i % 4 == 0 {
            script.push(Request::UpdateCell {
                row: RowId(i + 10),
                col: 2,
                value: Value::str("MOVED"),
            });
        }
    }
    script
}

/// Epilogue reads whose final answers must match serial `dispatch`
/// byte for byte.
fn epilogue() -> [Request; 4] {
    [
        Request::Detect,
        Request::Audit,
        Request::LastReport,
        Request::Len,
    ]
}

/// What a serial run answers after each write prefix.
struct Prefix {
    detect: Response,
    audit: Response,
    len: usize,
}

/// Rows of a table in id order, the byte-comparable final state.
type TableRows = Vec<(RowId, Vec<Value>)>;

/// Replay the script one write at a time through serial `dispatch`,
/// recording the detect/audit/len answers after every prefix (index i =
/// "first i writes applied"). Returns the prefixes, the final table,
/// and the encoded epilogue responses.
fn serial_reference<B: QualityBackend>(
    backend: &mut B,
    table_of: impl Fn(&B) -> Table,
) -> (Vec<Prefix>, TableRows, Vec<String>) {
    let mut prefixes = vec![Prefix {
        detect: dispatch(backend, Request::Detect),
        audit: dispatch(backend, Request::Audit),
        len: backend.len(),
    }];
    for write in write_script() {
        dispatch(backend, write);
        prefixes.push(Prefix {
            detect: dispatch(backend, Request::Detect),
            audit: dispatch(backend, Request::Audit),
            len: backend.len(),
        });
    }
    let finals = epilogue()
        .into_iter()
        .map(|req| dispatch(backend, req).encode())
        .collect();
    (prefixes, table_rows(&table_of(backend)), finals)
}

/// The tentpole test body, generic over the concrete backend so the
/// final table can be compared.
fn service_matches_serial<B: QualityBackend + Send + 'static>(
    make: fn() -> B,
    table_of: fn(&B) -> Table,
) {
    let (prefixes, serial_table, serial_finals) = {
        let mut serial = make();
        serial_reference(&mut serial, table_of)
    };
    // Membership sets for racing socket readers.
    let legal_detects: HashSet<String> = prefixes.iter().map(|p| p.detect.encode()).collect();
    let legal_audits: HashSet<String> = prefixes.iter().map(|p| p.audit.encode()).collect();
    let legal_lens: HashSet<usize> = prefixes.iter().map(|p| p.len).collect();

    let server = NetServer::serve(make(), test_config()).expect("bind loopback");
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let reads_served = Arc::new(AtomicUsize::new(0));

    // Socket readers: hammer Detect / Audit / Len; all answers must be
    // members of the serial prefix sets.
    let wire_readers: Vec<_> = (0..3)
        .map(|r| {
            let stop = Arc::clone(&stop);
            let reads = Arc::clone(&reads_served);
            let detects = legal_detects.clone();
            let audits = legal_audits.clone();
            let lens = legal_lens.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("reader connects");
                client.set_timeout(Some(Duration::from_secs(30))).unwrap();
                while !stop.load(SeqCst) {
                    let detect = client.request(&Request::Detect).expect("detect over wire");
                    assert!(
                        detects.contains(&detect.encode()),
                        "reader {r}: detect answer is no serial prefix: {detect:?}"
                    );
                    let audit = client.request(&Request::Audit).expect("audit over wire");
                    assert!(
                        audits.contains(&audit.encode()),
                        "reader {r}: audit answer is no serial prefix: {audit:?}"
                    );
                    match client.request(&Request::Len).expect("len over wire") {
                        Response::Len { rows } => {
                            assert!(lens.contains(&rows), "reader {r}: torn len {rows}")
                        }
                        other => panic!("reader {r}: {other:?}"),
                    }
                    reads.fetch_add(3, SeqCst);
                }
            })
        })
        .collect();

    // In-process reader: pairs each epoch's writes_applied with the
    // exact serial prefix — the no-torn-state check.
    let paired_reader = {
        let handle = server.handle().expect("in-process handle");
        let stop = Arc::clone(&stop);
        let prefix_answers: Vec<(Response, usize)> =
            prefixes.iter().map(|p| (p.detect.clone(), p.len)).collect();
        std::thread::spawn(move || {
            let mut paired = 0usize;
            let mut last_epoch = 0;
            while !stop.load(SeqCst) {
                let state = handle.state();
                assert!(state.epoch >= last_epoch, "epochs are monotone");
                last_epoch = state.epoch;
                let (detect, len) = &prefix_answers[state.writes_applied as usize];
                assert_eq!(
                    &state.detect, detect,
                    "epoch {} (prefix {}): torn detect state",
                    state.epoch, state.writes_applied
                );
                assert_eq!(state.len, *len, "epoch {}: torn len", state.epoch);
                paired += 1;
                std::thread::yield_now();
            }
            paired
        })
    };

    // The writer client: stream the script over its own connection.
    let mut writer = Client::connect(addr).expect("writer connects");
    writer.set_timeout(Some(Duration::from_secs(30))).unwrap();
    for write in write_script() {
        let response = writer.request(&write).expect("write round-trips");
        assert!(
            !matches!(response, Response::Error { .. }),
            "script write refused: {response:?}"
        );
    }
    // Read-your-writes: this connection saw its replies, so its reads
    // observe the full script.
    let finals: Vec<String> = epilogue()
        .into_iter()
        .map(|req| writer.request(&req).expect("epilogue").encode())
        .collect();
    assert_eq!(
        finals, serial_finals,
        "final detect/audit/report/len diverge from serial dispatch"
    );

    stop.store(true, SeqCst);
    for r in wire_readers {
        r.join().expect("wire reader clean");
    }
    assert!(paired_reader.join().expect("paired reader clean") > 0);
    assert!(
        reads_served.load(SeqCst) > 0,
        "readers overlapped the writer"
    );
    drop(writer);

    let backend = server.shutdown();
    assert_eq!(
        table_rows(&table_of(&backend)),
        serial_table,
        "final table diverges from the serial run"
    );
}

#[test]
fn single_node_service_matches_serial_dispatch() {
    service_matches_serial(single, |s| s.table().unwrap().clone());
}

#[test]
fn cluster_service_matches_serial_dispatch() {
    service_matches_serial(cluster, |c| c.merged_table().unwrap());
}

/// Several clients, each mixing inserts, cell updates and detects over its
/// own connection: within the queue depth no request is refused, and
/// every insert lands.
fn concurrent_writers_are_never_refused<B: QualityBackend + Send + 'static>(make: fn() -> B) {
    const CLIENTS: usize = 4;
    const REQS: usize = 40;
    let mut backend = make();
    backend.register_cfds(CANONICAL_CFDS).unwrap();
    let server = NetServer::serve(backend, test_config()).expect("bind loopback");
    let addr = server.local_addr();
    let sessions: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                client.set_timeout(Some(Duration::from_secs(30))).unwrap();
                for i in 0..REQS {
                    // 1 insert + 1 cell update per 10 detects.
                    let req = match i % 10 {
                        0 => Request::Insert {
                            row: dirty_row(2, "MIXCITY"),
                        },
                        5 => Request::UpdateCell {
                            row: RowId(((c * 37 + i) % ROWS) as u64),
                            col: 2,
                            value: Value::str("MOVED"),
                        },
                        _ => Request::Detect,
                    };
                    let response = client.request(&req).expect("request round-trips");
                    assert!(
                        !matches!(response, Response::Error { .. }),
                        "client {c}: request {i} refused: {response:?}"
                    );
                }
            })
        })
        .collect();
    for s in sessions {
        s.join().expect("client clean");
    }
    let backend = server.shutdown();
    assert_eq!(
        backend.len(),
        ROWS + CLIENTS * REQS / 10,
        "every insert landed"
    );
}

#[test]
fn concurrent_writers_are_never_refused_on_either_backend() {
    concurrent_writers_are_never_refused(single);
    concurrent_writers_are_never_refused(cluster);
}

#[test]
fn frame_edges_answer_errors_and_resynchronize() {
    let server = NetServer::serve(single(), test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    // Malformed, empty, and unknown-op frames: encoded errors, no drop.
    for bad in ["not json", "", "{\"op\":\"nope\"}", "{"] {
        client.send_raw(bad).unwrap();
        match client.recv().unwrap() {
            Response::Error { .. } => {}
            other => panic!("{bad:?} answered {other:?}"),
        }
    }
    // An oversized frame: one error, then the connection resyncs at the
    // newline and keeps serving.
    client.send_raw(&"x".repeat(MAX_FRAME_BYTES + 10)).unwrap();
    match client.recv().unwrap() {
        Response::Error { message } => assert!(message.contains("frame too large"), "{message}"),
        other => panic!("oversized frame answered {other:?}"),
    }
    match client.request(&Request::Len).unwrap() {
        Response::Len { rows } => assert_eq!(rows, ROWS),
        other => panic!("post-resync request answered {other:?}"),
    }
    server.shutdown();
}

#[test]
fn pipelined_frames_answer_in_order_with_read_your_writes() {
    let server = NetServer::serve(single(), test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    // Five frames shipped before any response is read.
    client.send(&Request::Len).unwrap();
    client
        .send(&Request::Insert {
            row: dirty_row(2, "PIPELINED-1"),
        })
        .unwrap();
    client.send(&Request::Len).unwrap();
    client
        .send(&Request::Insert {
            row: dirty_row(2, "PIPELINED-2"),
        })
        .unwrap();
    client.send(&Request::Detect).unwrap();

    let len_before = match client.recv().unwrap() {
        Response::Len { rows } => rows,
        other => panic!("frame 1: {other:?}"),
    };
    assert!(matches!(
        client.recv().unwrap(),
        Response::Inserted { row: RowId(200) }
    ));
    match client.recv().unwrap() {
        // The read between the two writes must observe the first one.
        Response::Len { rows } => assert_eq!(rows, len_before + 1),
        other => panic!("frame 3: {other:?}"),
    }
    assert!(matches!(
        client.recv().unwrap(),
        Response::Inserted { row: RowId(201) }
    ));
    assert!(matches!(client.recv().unwrap(), Response::Report(_)));
    server.shutdown();
}

#[test]
fn connection_backpressure_is_an_explicit_error_frame() {
    let mut config = test_config();
    config.max_conns = 1;
    config.net_threads = 1;
    let server = NetServer::serve(single(), config).unwrap();

    let mut first = Client::connect(server.local_addr()).unwrap();
    first.set_timeout(Some(Duration::from_secs(30))).unwrap();
    // A served round trip guarantees the first connection is counted.
    assert!(matches!(
        first.request(&Request::Len).unwrap(),
        Response::Len { .. }
    ));
    let mut second = Client::connect(server.local_addr()).unwrap();
    second.set_timeout(Some(Duration::from_secs(30))).unwrap();
    match second.recv().unwrap() {
        Response::Error { message } => {
            assert!(message.contains("too many connections"), "{message}")
        }
        other => panic!("over-capacity connection answered {other:?}"),
    }
    drop(second);
    drop(first);
    server.shutdown();
}

#[test]
fn write_queue_backpressure_refuses_instead_of_growing() {
    let mut config = test_config();
    config.queue_depth = 1;
    let server = NetServer::serve(single(), config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();

    // Stall the writer with one big batch, then pipeline single writes
    // against a depth-1 queue: most must be refused, in order.
    let stall = MutationBatch {
        mutations: (0..2_000)
            .map(|i| Mutation::Insert(dirty_row(2, &format!("STALL{i}"))))
            .collect(),
    };
    client.send(&Request::ApplyBatch { batch: stall }).unwrap();
    const FOLLOWERS: usize = 400;
    for i in 0..FOLLOWERS {
        client
            .send(&Request::Insert {
                row: dirty_row(2, &format!("FOLLOW{i}")),
            })
            .unwrap();
    }
    assert!(matches!(
        client.recv().unwrap(),
        Response::BatchApplied { applied: 2_000, .. }
    ));
    let mut accepted = 0usize;
    let mut refused = 0usize;
    for _ in 0..FOLLOWERS {
        match client.recv().unwrap() {
            Response::Inserted { .. } => accepted += 1,
            Response::Error { message } => {
                assert!(message.contains("write queue is full"), "{message}");
                refused += 1;
            }
            other => panic!("follower answered {other:?}"),
        }
    }
    assert!(refused > 0, "a depth-1 queue under flood must refuse");
    drop(client);
    let backend = server.shutdown();
    assert_eq!(
        backend.len(),
        ROWS + 2_000 + accepted,
        "accepted writes all applied, refused writes all dropped"
    );
}

#[test]
fn idle_connections_are_closed_and_midframe_timeouts_are_reported() {
    let mut config = test_config();
    config.idle_timeout = Duration::from_millis(200);
    let server = NetServer::serve(single(), config).unwrap();

    // Idle between frames: quiet close.
    let mut idle = Client::connect(server.local_addr()).unwrap();
    idle.set_timeout(Some(Duration::from_secs(30))).unwrap();
    assert!(matches!(
        idle.request(&Request::Len).unwrap(),
        Response::Len { .. }
    ));
    match idle.recv() {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        Ok(other) => panic!("idle close sent {other:?}"),
    }

    // Timeout mid-frame: an explicit error frame, then close.
    let mut stuck = Client::connect(server.local_addr()).unwrap();
    stuck.set_timeout(Some(Duration::from_secs(30))).unwrap();
    // Half a frame, no newline.
    stuck.write_fragment(b"{\"op\":\"le").unwrap();
    match stuck.recv().unwrap() {
        Response::Error { message } => assert!(message.contains("timeout"), "{message}"),
        other => panic!("mid-frame timeout answered {other:?}"),
    }
    server.shutdown();
}

#[test]
fn wire_metrics_report_carries_net_request_counters() {
    let server = NetServer::serve(single(), test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    assert!(matches!(
        client.request(&Request::Detect).unwrap(),
        Response::Report(_)
    ));
    let Response::Metrics(report) = client.request(&Request::Metrics).unwrap() else {
        panic!("metrics over the wire");
    };
    assert!(
        report
            .counter("net_requests_total{kind=\"detect\"}")
            .unwrap_or(0)
            >= 1,
        "the transport counts served requests per kind"
    );
    assert!(report.counter("net_connections_total").unwrap_or(0) >= 1);
    server.shutdown();
}

#[test]
fn shutdown_reports_are_not_needed_for_trailing_unterminated_frames() {
    // A client that forgets the final newline before EOF still gets its
    // frame served.
    let server = NetServer::serve(single(), test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    client
        .write_fragment(Request::Len.encode().as_bytes())
        .unwrap();
    client.shutdown_write().unwrap();
    match client.recv().unwrap() {
        Response::Len { rows } => assert_eq!(rows, ROWS),
        other => panic!("trailing frame answered {other:?}"),
    }
    server.shutdown();
}

/// The writer thread takes ownership of the backend, so every engine the
/// service tier can front must be `Send`. Compile-time pins.
#[test]
fn every_backend_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<QualityServer>();
    assert_send::<ShardedQualityServer>();
    assert_send::<DataMonitor>();
    assert_send::<Box<dyn QualityBackend + Send>>();
    // The monitor is constructible behind the service tier too.
    let d = dirty_customers(16, 0.05, SEED);
    let monitor = DataMonitor::new(d.db, "customer", Vec::new(), MonitorMode::DetectOnly).unwrap();
    let server = NetServer::serve(monitor, test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert!(matches!(
        client.request(&Request::Len).unwrap(),
        Response::Len { rows: 16 }
    ));
    server.shutdown();
}

/// In-process handles are not capped by the worker count: a two-worker
/// server hands out 32, and every one reads the same published epoch.
#[test]
fn in_process_handles_are_not_capped_by_the_worker_count() {
    let config = NetConfig {
        net_threads: 2,
        ..test_config()
    };
    let server = NetServer::serve(single(), config).unwrap();
    let handles: Vec<_> = (0..32)
        .map(|_| server.handle().expect("handles are not capped"))
        .collect();
    let published = handles[0].state();
    for h in &handles {
        assert!(Arc::ptr_eq(&h.state(), &published), "one epoch for all");
        assert_eq!(h.request(Request::Detect), published.detect);
    }
    drop(handles);
    server.shutdown();
}
