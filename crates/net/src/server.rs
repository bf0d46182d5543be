//! The TCP transport: newline-framed `Request`/`Response` over loopback
//! or LAN, served by a worker pool on top of [`ConcurrentEngine`].
//!
//! Framing is exactly the serial service loop's: one encoded request per
//! line, one encoded response per line, in frame order. Clients may
//! *pipeline* — send many frames without waiting — and the server reads
//! ahead: buffered write frames are queued to the single writer back to
//! back (so one writer batch absorbs them), and their replies are
//! flushed, still in order, before any later read is answered.
//!
//! Backpressure is explicit, never silent: a connection beyond
//! `max_conns` gets one encoded `Response::Error` frame and a close; a
//! write beyond the engine's queue depth gets `Response::Error` in its
//! frame's response slot. Oversized frames (> `max_frame` bytes before a
//! newline) get an error frame and the connection resynchronizes at the
//! next newline. An idle connection (no bytes for `idle_timeout`) is
//! closed — quietly between frames, with an error frame mid-frame.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use api::wire::{Request, Response, MAX_FRAME_BYTES, REQUEST_KINDS};
use api::QualityBackend;
use obs::{Counter, Gauge, Histogram};

use crate::engine::{recv_reply, ConcurrentEngine, EngineConfig, EngineHandle};

/// Transport tuning. [`NetConfig::from_env`] reads the `SDQ_*` knobs the
/// README documents; [`Default`] is `from_env` with nothing set.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Listen address (`SDQ_LISTEN`, default `127.0.0.1:7744`; use port
    /// 0 to let the OS pick — read it back with [`NetServer::local_addr`]).
    pub addr: String,
    /// Worker threads, i.e. connections served simultaneously
    /// (`SDQ_NET_THREADS`, default 4).
    pub net_threads: usize,
    /// Accepted-and-not-yet-closed connection cap (`SDQ_MAX_CONNS`,
    /// default 64); beyond it a connection gets one error frame.
    pub max_conns: usize,
    /// Bound on queued write jobs (`SDQ_QUEUE_DEPTH`, default 256).
    pub queue_depth: usize,
    /// Close a connection silent for this long (`SDQ_NET_IDLE_MS`,
    /// default 30 000 ms).
    pub idle_timeout: Duration,
    /// Longest accepted frame in bytes (fixed to the protocol's
    /// [`MAX_FRAME_BYTES`]).
    pub max_frame: usize,
}

impl NetConfig {
    /// Read the `SDQ_LISTEN` / `SDQ_NET_THREADS` / `SDQ_MAX_CONNS` /
    /// `SDQ_QUEUE_DEPTH` / `SDQ_NET_IDLE_MS` environment knobs, with the
    /// documented defaults for anything unset. A malformed value warns
    /// loudly once (see [`obs::env`]) before the default applies.
    pub fn from_env() -> NetConfig {
        fn num(name: &'static str, default: usize) -> usize {
            obs::env::positive(name).unwrap_or(default)
        }
        NetConfig {
            addr: obs::env::string("SDQ_LISTEN").unwrap_or_else(|| "127.0.0.1:7744".into()),
            net_threads: num("SDQ_NET_THREADS", 4),
            max_conns: num("SDQ_MAX_CONNS", 64),
            queue_depth: num("SDQ_QUEUE_DEPTH", 256),
            idle_timeout: Duration::from_millis(num("SDQ_NET_IDLE_MS", 30_000) as u64),
            max_frame: MAX_FRAME_BYTES,
        }
    }
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig::from_env()
    }
}

/// Pre-resolved telemetry handles — one registry lookup per process, one
/// atomic increment per event afterwards (same idiom as the colstore's
/// cache counters).
struct NetObs {
    connections_total: Arc<Counter>,
    connections_open: Arc<Gauge>,
    backpressure_total: Arc<Counter>,
    /// `net_requests_total{kind="…"}` per wire op, plus a slot for
    /// frames that never decoded into a request.
    requests: Vec<(&'static str, Arc<Counter>)>,
}

/// `"invalid"` counts undecodable frames beside the wire ops.
const INVALID: &str = "invalid";

fn net_obs() -> &'static NetObs {
    static OBS: OnceLock<NetObs> = OnceLock::new();
    OBS.get_or_init(|| NetObs {
        connections_total: obs::counter("net_connections_total"),
        connections_open: obs::gauge("net_connections_open"),
        backpressure_total: obs::counter("net_backpressure_total"),
        requests: REQUEST_KINDS
            .iter()
            .chain([&INVALID])
            .map(|k| {
                (
                    *k,
                    obs::counter(&format!("net_requests_total{{kind=\"{k}\"}}")),
                )
            })
            .collect(),
    })
}

/// `net_request_ns{kind="…"}` of `request`'s kind, registered when a
/// connection first serves that kind: later requests take no registry
/// lock and format no name.
fn request_ns(request: &Request) -> &'static Arc<Histogram> {
    static SLOTS: [OnceLock<Arc<Histogram>>; REQUEST_KINDS.len()] =
        [const { OnceLock::new() }; REQUEST_KINDS.len()];
    let i = request.kind_index();
    SLOTS[i]
        .get_or_init(|| obs::histogram(&format!("net_request_ns{{kind=\"{}\"}}", REQUEST_KINDS[i])))
}

fn count_request(kind: &str) {
    let o = net_obs();
    if let Some((_, c)) = o.requests.iter().find(|(k, _)| *k == kind) {
        c.inc();
    }
}

/// A running TCP service over one backend. Dropping without
/// [`NetServer::shutdown`] aborts the accept loop but leaks the backend;
/// call `shutdown` to drain the writer queue and take the backend back.
pub struct NetServer<B> {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    engine: ConcurrentEngine<B>,
}

impl<B: QualityBackend + Send + 'static> NetServer<B> {
    /// Bind `config.addr`, publish the backend's state as epoch 0, and
    /// start accepting connections.
    pub fn serve(backend: B, config: NetConfig) -> std::io::Result<NetServer<B>> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let engine = ConcurrentEngine::new(
            backend,
            EngineConfig {
                queue_depth: config.queue_depth,
                // Workers plus headroom for in-process handles
                // (`NetServer::handle`) used by embedding code.
                max_readers: config.net_threads + 8,
            },
        );
        let stop = Arc::new(AtomicBool::new(false));
        let open = Arc::new(AtomicUsize::new(0));
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        let workers: Vec<JoinHandle<()>> = (0..config.net_threads.max(1))
            .map(|i| {
                let handle = engine.handle().expect("a reader slot per worker");
                let conn_rx = Arc::clone(&conn_rx);
                let open = Arc::clone(&open);
                let config = config.clone();
                std::thread::Builder::new()
                    .name(format!("sdq-net-worker-{i}"))
                    .spawn(move || loop {
                        let next = {
                            let rx = conn_rx.lock().expect("connection queue");
                            rx.recv()
                        };
                        match next {
                            Ok(stream) => {
                                serve_connection(stream, &handle, &config);
                                open.fetch_sub(1, SeqCst);
                                net_obs().connections_open.add(-1);
                            }
                            Err(_) => return, // accept loop is gone
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();

        let accept = {
            let stop = Arc::clone(&stop);
            let max_conns = config.max_conns.max(1);
            std::thread::Builder::new()
                .name("sdq-net-accept".into())
                .spawn(move || {
                    accept_loop(listener, conn_tx, stop, open, max_conns);
                })
                .expect("spawn accept loop")
        };

        Ok(NetServer {
            addr,
            stop,
            accept: Some(accept),
            workers,
            engine,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// An in-process [`EngineHandle`] on the served engine — what the
    /// embedding program (or a test) uses to read published epochs
    /// without a socket.
    pub fn handle(&self) -> Option<EngineHandle> {
        self.engine.handle()
    }

    /// Stop accepting, wait for in-flight connections to finish, drain
    /// the writer queue, and return the backend with every accepted
    /// write applied.
    pub fn shutdown(mut self) -> B {
        self.stop.store(true, SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // The accept loop dropped the connection channel; each worker
        // exits once its current connection (if any) closes.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.engine.shutdown()
    }
}

fn accept_loop(
    listener: TcpListener,
    conn_tx: mpsc::Sender<TcpStream>,
    stop: Arc<AtomicBool>,
    open: Arc<AtomicUsize>,
    max_conns: usize,
) {
    while !stop.load(SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                net_obs().connections_total.inc();
                if open.load(SeqCst) >= max_conns {
                    net_obs().backpressure_total.inc();
                    refuse_connection(stream, max_conns);
                    continue;
                }
                open.fetch_add(1, SeqCst);
                net_obs().connections_open.add(1);
                if conn_tx.send(stream).is_err() {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Over-capacity connection: one explicit error frame, then close.
fn refuse_connection(stream: TcpStream, max_conns: usize) {
    let _ = stream.set_nonblocking(false);
    let mut stream = stream;
    let refusal = Response::Error {
        message: format!("too many connections (limit {max_conns}); retry later"),
    };
    let _ = write_frame(&mut stream, &refusal);
}

fn write_frame(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let mut line = response.encode();
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// Incremental newline framing over a raw socket, with read-ahead (many
/// frames per `read`) and oversize resynchronization.
struct FrameReader {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`.
    start: usize,
    max_frame: usize,
    /// Discarding an oversized frame until its terminating newline.
    skipping: bool,
}

enum FrameEvent {
    /// A complete frame (without its newline).
    Frame(String),
    /// The frame under construction crossed `max_frame` — the caller
    /// answers with an error; subsequent bytes are discarded to the
    /// next newline.
    Oversized(usize),
}

impl FrameReader {
    fn new(max_frame: usize) -> FrameReader {
        FrameReader {
            buf: Vec::with_capacity(4096),
            start: 0,
            max_frame,
            skipping: false,
        }
    }

    /// Next event available from buffered bytes, if any.
    fn next_buffered(&mut self) -> Option<FrameEvent> {
        loop {
            let pending = &self.buf[self.start..];
            match pending.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    if self.skipping {
                        // Tail of an already-refused oversized frame.
                        self.start += nl + 1;
                        self.skipping = false;
                        continue;
                    }
                    if nl > self.max_frame {
                        // A complete frame can still be over the cap
                        // when it arrived faster than the incremental
                        // check below sampled it.
                        self.start += nl + 1;
                        return Some(FrameEvent::Oversized(nl));
                    }
                    let line = String::from_utf8_lossy(&pending[..nl]).into_owned();
                    self.start += nl + 1;
                    return Some(FrameEvent::Frame(line));
                }
                None => {
                    if !self.skipping && pending.len() > self.max_frame {
                        let seen = pending.len();
                        // Refuse now; drop what's buffered and discard
                        // until the newline arrives.
                        self.buf.clear();
                        self.start = 0;
                        self.skipping = true;
                        return Some(FrameEvent::Oversized(seen));
                    }
                    if self.skipping {
                        // Keep memory flat while discarding.
                        self.buf.clear();
                        self.start = 0;
                    }
                    return None;
                }
            }
        }
    }

    /// Pull more bytes off the socket. Returns the byte count (0 = EOF).
    fn fill(&mut self, stream: &mut TcpStream) -> std::io::Result<usize> {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 64 * 1024 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let mut chunk = [0u8; 16 * 1024];
        let n = stream.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// Unterminated trailing bytes (a final frame the client forgot to
    /// newline-terminate before EOF), if any.
    fn take_partial(&mut self) -> Option<String> {
        if self.skipping || self.start >= self.buf.len() {
            return None;
        }
        let line = String::from_utf8_lossy(&self.buf[self.start..]).into_owned();
        self.buf.clear();
        self.start = 0;
        Some(line)
    }

    fn mid_frame(&self) -> bool {
        self.skipping || self.start < self.buf.len()
    }
}

/// Serve one connection to completion: frames in, responses out, in
/// frame order, with pipelined writes.
fn serve_connection(mut stream: TcpStream, handle: &EngineHandle, config: &NetConfig) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(config.idle_timeout));
    let mut reader = FrameReader::new(config.max_frame);
    // Reply receivers for pipelined (queued, unacknowledged) writes, in
    // frame order; flushed before any later response is written.
    let mut pending: Vec<Receiver<Response>> = Vec::new();
    loop {
        while let Some(event) = reader.next_buffered() {
            let served = match event {
                FrameEvent::Frame(line) => serve_frame(&line, handle, &mut pending, &mut stream),
                FrameEvent::Oversized(seen) => {
                    count_request(INVALID);
                    net_obs().backpressure_total.inc();
                    flush_pending(&mut pending, &mut stream).and_then(|()| {
                        write_frame(
                            &mut stream,
                            &Response::Error {
                                message: format!(
                                    "frame too large: {seen}+ bytes exceeds the {} byte cap",
                                    config.max_frame
                                ),
                            },
                        )
                    })
                }
            };
            if served.is_err() {
                return; // client went away mid-write
            }
        }
        // Nothing left buffered: before blocking on the socket, flush
        // replies for every pipelined write.
        if flush_pending(&mut pending, &mut stream).is_err() {
            return;
        }
        match reader.fill(&mut stream) {
            Ok(0) => {
                // EOF. A trailing unterminated frame still gets served.
                if let Some(line) = reader.take_partial() {
                    let _ = serve_frame(&line, handle, &mut pending, &mut stream);
                    let _ = flush_pending(&mut pending, &mut stream);
                }
                return;
            }
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if reader.mid_frame() {
                    let _ = write_frame(
                        &mut stream,
                        &Response::Error {
                            message: "read timeout mid-frame; closing".into(),
                        },
                    );
                } // else: idle between frames — quiet close.
                return;
            }
            Err(_) => return,
        }
    }
}

/// Handle one complete frame. Reads answer immediately (after earlier
/// write replies flush); writes queue and reply later, preserving order.
fn serve_frame(
    line: &str,
    handle: &EngineHandle,
    pending: &mut Vec<Receiver<Response>>,
    stream: &mut TcpStream,
) -> std::io::Result<()> {
    let trace = obs::trace::root("net.request");
    let request = match Request::decode(line) {
        Ok(request) => request,
        Err(e) => {
            count_request(INVALID);
            obs::trace::note("kind", "invalid");
            drop(trace);
            flush_pending(pending, stream)?;
            return write_frame(
                stream,
                &Response::Error {
                    message: e.to_string(),
                },
            );
        }
    };
    let kind = request.kind_str();
    count_request(kind);
    obs::trace::note("kind", kind);
    let _span = obs::SpanTimer::new(Arc::clone(request_ns(&request)));
    if request.is_read_only() {
        // In-order semantics: answers to earlier queued writes first.
        flush_pending(pending, stream)?;
        let response = handle.request(request);
        drop(trace);
        return write_frame(stream, &response);
    }
    match handle.submit_write(request) {
        Ok(reply) => {
            pending.push(reply);
            Ok(())
        }
        Err(refusal) => {
            // Backpressure / shutdown: this frame's answer is the
            // refusal, still in frame order.
            net_obs().backpressure_total.inc();
            drop(trace);
            flush_pending(pending, stream)?;
            write_frame(stream, &refusal)
        }
    }
}

fn flush_pending(
    pending: &mut Vec<Receiver<Response>>,
    stream: &mut TcpStream,
) -> std::io::Result<()> {
    for reply in pending.drain(..) {
        write_frame(stream, &recv_reply(&reply))?;
    }
    Ok(())
}
