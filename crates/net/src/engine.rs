//! [`ConcurrentEngine`]: single-writer / multi-reader service core over
//! any [`QualityBackend`].
//!
//! The serial trait takes `&mut self` even for reads (`detect` / `audit`
//! memoize), so readers cannot share the backend directly. Instead the
//! one writer thread *prepares the answers at publish time*: after each
//! coalesced batch of mutations it refreshes detection, audit, the last
//! report, the row count and the capabilities, bundles them into an
//! immutable [`EpochState`], and publishes it through the [`Published`]
//! cell. A read takes a shared lock for one `Arc` clone, then clones a
//! ready-made [`Response`] out of it — by construction every read equals
//! the serial answer at *some* published write prefix (`writes_applied`
//! names which one).
//!
//! Writes funnel through a bounded queue into the writer thread, which
//! dispatches them through the exact same [`api::wire::dispatch`] the
//! serial service loop uses — serialization semantics are therefore
//! identical to the serial backend. Replies are sent only *after* the
//! next epoch is published, so a client that received its write reply is
//! guaranteed that its own subsequent reads observe the write
//! (read-your-writes per connection).
//!
//! One deliberate divergence from a serial request stream: `LastReport`
//! answers from the epoch's refreshed report, so after a mutation it
//! returns the new report where a serial backend would say "no current
//! report" until the next explicit `Detect`. The report it returns is
//! always exactly the epoch's detect answer.

use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;

use api::wire::{dispatch, AuditSummary, ReportSummary, Response};
use api::{Capabilities, QualityBackend, Request};
use cfd::CfdError;

use crate::read::{serve_read, Published};

/// Everything a read needs, frozen at one publication point.
pub struct EpochState {
    /// Publication sequence number (0 = the pre-write initial state).
    pub epoch: u64,
    /// Write jobs the writer had attempted (successfully or not) when
    /// this state was captured — the index of the serial prefix this
    /// state is equivalent to. The torn-state tests replay the same
    /// prefix serially and demand equality.
    pub writes_applied: u64,
    /// The backend's capabilities (static per backend in practice).
    pub caps: Capabilities,
    /// Ready answer for `Request::Detect`.
    pub detect: Response,
    /// Ready answer for `Request::Audit`.
    pub audit: Response,
    /// The refreshed detection summary (`None` only when detection
    /// itself failed for this epoch).
    pub last_report: Option<ReportSummary>,
    /// Live row count.
    pub len: usize,
}

/// `net_capture_ns`: wall time of one [`capture`] (detect + audit +
/// summaries), i.e. what eager publication adds to a write.
fn capture_ns() -> &'static Arc<obs::Histogram> {
    static H: OnceLock<Arc<obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| obs::histogram("net_capture_ns"))
}

/// Capture the current [`EpochState`] off the backend, mirroring exactly
/// how [`api::wire::dispatch`] builds each response.
fn capture<B: QualityBackend>(backend: &mut B, epoch: u64, writes_applied: u64) -> EpochState {
    let _span = obs::SpanTimer::new(Arc::clone(capture_ns()));
    fn err(e: CfdError) -> Response {
        Response::Error {
            message: e.to_string(),
        }
    }
    let detect = match backend.detect() {
        Ok(report) => Response::Report(ReportSummary::of(&report)),
        Err(e) => err(e),
    };
    let audit = match backend.audit() {
        Ok(report) => Response::Audited(AuditSummary::of(&report)),
        Err(e) => err(e),
    };
    // After the refresh above, the cached report *is* this epoch's
    // detect answer (when detection succeeded); it is summarized where
    // the backend holds it, not cloned out first.
    let last_report = backend.last_summary();
    EpochState {
        epoch,
        writes_applied,
        caps: backend.capabilities(),
        detect,
        audit,
        last_report,
        len: backend.len(),
    }
}

/// One queued unit of writer work.
enum Job {
    /// A mutating request plus where to send its reply.
    Request(Request, mpsc::Sender<Response>),
    /// Drain the queue, publish, and exit.
    Stop,
}

/// The concurrent service core. Construction spawns the writer thread;
/// [`ConcurrentEngine::shutdown`] drains it and returns the backend.
pub struct ConcurrentEngine<B> {
    /// Shared between the writer, every handle, and the engine front.
    published: Arc<Published<EpochState>>,
    jobs: mpsc::SyncSender<Job>,
    writer: JoinHandle<B>,
}

/// Tuning for [`ConcurrentEngine::new`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Bound on queued-but-unapplied write jobs; a full queue answers
    /// `Response::Error` (backpressure) instead of growing.
    pub queue_depth: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig { queue_depth: 256 }
    }
}

impl<B: QualityBackend + Send + 'static> ConcurrentEngine<B> {
    /// Publish the backend's current state as epoch 0 and start the
    /// writer thread.
    pub fn new(mut backend: B, config: EngineConfig) -> ConcurrentEngine<B> {
        let initial = capture(&mut backend, 0, 0);
        let published = Arc::new(Published::new(Arc::new(initial), 0));
        let (jobs, rx) = mpsc::sync_channel(config.queue_depth.max(1));
        let writer = {
            let published = Arc::clone(&published);
            std::thread::Builder::new()
                .name("sdq-net-writer".into())
                .spawn(move || writer_loop(backend, published, rx))
                .expect("spawn writer thread")
        };
        ConcurrentEngine {
            published,
            jobs,
            writer,
        }
    }

    /// A new reader/writer handle.
    pub fn handle(&self) -> EngineHandle {
        EngineHandle {
            published: Arc::clone(&self.published),
            jobs: self.jobs.clone(),
        }
    }

    /// Stop the writer: queued writes are drained, applied, and
    /// published, then the thread exits and the backend comes back —
    /// with every accepted write applied. Outstanding handles keep
    /// serving reads from the final epoch; their writes are refused.
    pub fn shutdown(self) -> B {
        let _ = self.jobs.send(Job::Stop);
        self.writer.join().expect("writer thread panicked")
    }
}

/// The writer thread: apply writes in arrival order through the serial
/// `dispatch`, publish one epoch per coalesced batch, reply after
/// publishing.
fn writer_loop<B: QualityBackend>(
    mut backend: B,
    published: Arc<Published<EpochState>>,
    rx: mpsc::Receiver<Job>,
) -> B {
    let published_total = obs::counter("net_epochs_published_total");
    let mut epoch: u64 = 0;
    let mut writes_applied: u64 = 0;
    let mut stop = false;
    while !stop {
        // Block for the first job, then coalesce everything already
        // queued into one batch → one refresh + publish for the lot.
        let first = match rx.recv() {
            Ok(job) => job,
            Err(_) => break, // engine front dropped without Stop
        };
        let mut replies = Vec::new();
        let mut job = Some(first);
        loop {
            match job.take() {
                Some(Job::Request(request, reply)) => {
                    writes_applied += 1;
                    let response = dispatch(&mut backend, request);
                    replies.push((reply, response));
                }
                Some(Job::Stop) => stop = true,
                None => unreachable!(),
            }
            match rx.try_recv() {
                Ok(next) => job = Some(next),
                Err(_) => break,
            }
        }
        epoch += 1;
        let state = capture(&mut backend, epoch, writes_applied);
        let (now, _, old) = published.publish(Arc::new(state));
        debug_assert_eq!(now, epoch, "single writer owns the epoch counter");
        // Freed here, outside the write lock, unless a reader still holds it.
        drop(old);
        published_total.inc();
        // Reply *after* publish: a client holding its write reply reads
        // an epoch that includes the write.
        for (reply, response) in replies {
            let _ = reply.send(response);
        }
    }
    backend
}

/// One client of a [`ConcurrentEngine`]: reads from the latest epoch,
/// writes queued to the single writer. A clone is another handle on the
/// same engine.
#[derive(Clone)]
pub struct EngineHandle {
    published: Arc<Published<EpochState>>,
    jobs: mpsc::SyncSender<Job>,
}

impl EngineHandle {
    /// The latest published state: a shared lock held for one `Arc` clone.
    pub fn state(&self) -> Arc<EpochState> {
        self.published.load(0)
    }

    /// The current publication epoch.
    pub fn epoch(&self) -> u64 {
        self.published.epoch()
    }

    /// Serve one request with the read/write split: read-only kinds
    /// answer from the latest epoch without touching the writer;
    /// mutating kinds enqueue and block for the post-publish reply.
    pub fn request(&self, request: Request) -> Response {
        if request.is_read_only() {
            let state = self.state();
            if let Some(response) = serve_read(&state, &request) {
                return response;
            }
            return serve_introspection(&state, &request);
        }
        match self.submit_write(request) {
            Ok(reply) => recv_reply(&reply),
            Err(busy) => busy,
        }
    }

    /// Queue a mutating request without waiting for the reply; the
    /// transport uses this to pipeline writes from one connection.
    /// `Err` carries the ready backpressure / shutdown error response.
    pub fn submit_write(&self, request: Request) -> Result<mpsc::Receiver<Response>, Response> {
        debug_assert!(!request.is_read_only(), "reads never visit the queue");
        let (reply, rx) = mpsc::channel();
        match self.jobs.try_send(Job::Request(request, reply)) {
            Ok(()) => Ok(rx),
            Err(mpsc::TrySendError::Full(_)) => Err(Response::Error {
                message: "write queue is full: service is applying a backlog, retry".into(),
            }),
            Err(mpsc::TrySendError::Disconnected(_)) => Err(Response::Error {
                message: "service is shutting down".into(),
            }),
        }
    }
}

/// Wait for a queued write's reply.
pub fn recv_reply(reply: &mpsc::Receiver<Response>) -> Response {
    reply.recv().unwrap_or(Response::Error {
        message: "service is shutting down".into(),
    })
}

/// `Metrics` / `Trace`: the only reads not served from the epoch state —
/// they snapshot the live process-wide `obs` registry / flight recorder
/// (capability-gated, mirroring the backend defaults' exact refusals).
fn serve_introspection(state: &EpochState, request: &Request) -> Response {
    fn err(e: CfdError) -> Response {
        Response::Error {
            message: e.to_string(),
        }
    }
    match request {
        Request::Metrics => {
            if !state.caps.metrics {
                return err(CfdError::Unsupported(format!(
                    "backend '{}' does not expose metrics",
                    state.caps.backend
                )));
            }
            Response::Metrics(obs::snapshot())
        }
        Request::Trace => {
            if !state.caps.trace {
                return err(CfdError::Unsupported(format!(
                    "backend '{}' does not expose request traces",
                    state.caps.backend
                )));
            }
            match obs::trace::last_trace() {
                Some(report) => Response::Trace(report),
                None => err(CfdError::Unsupported(
                    "no completed request trace captured (enable SDQ_TRACE=1 or \
                     obs::trace::set_enabled, then run a request)"
                        .into(),
                )),
            }
        }
        other => err(CfdError::Unsupported(format!(
            "request '{}' is not a read",
            other.kind_str()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use api::{Mutation, MutationBatch};
    use cfd::CfdResult;
    use minidb::{RowId, Value};

    /// Toy backend: a grow-only list of i64 rows, "detection" counts
    /// negative values. Deterministic, cheap, and stateful enough to
    /// catch torn epochs.
    #[derive(Default)]
    struct Counting {
        rows: Vec<Option<i64>>,
    }

    impl Counting {
        fn live(&self) -> impl Iterator<Item = i64> + '_ {
            self.rows.iter().flatten().copied()
        }
    }

    impl QualityBackend for Counting {
        fn capabilities(&self) -> Capabilities {
            Capabilities {
                backend: "counting".into(),
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
        fn insert(&mut self, row: Vec<Value>) -> CfdResult<RowId> {
            let v = match row.first() {
                Some(Value::Int(v)) => *v,
                _ => return Err(CfdError::Malformed("int rows only".into())),
            };
            self.rows.push(Some(v));
            Ok(RowId(self.rows.len() as u64 - 1))
        }
        fn delete(&mut self, row: RowId) -> CfdResult<Vec<Value>> {
            self.rows
                .get_mut(row.index())
                .and_then(Option::take)
                .map(|v| vec![Value::Int(v)])
                .ok_or_else(|| CfdError::Malformed(format!("no row {}", row.0)))
        }
        fn update_cell(&mut self, row: RowId, _col: usize, value: Value) -> CfdResult<Value> {
            let slot = self
                .rows
                .get_mut(row.index())
                .and_then(Option::as_mut)
                .ok_or_else(|| CfdError::Malformed(format!("no row {}", row.0)))?;
            let Value::Int(v) = value else {
                return Err(CfdError::Malformed("int rows only".into()));
            };
            Ok(Value::Int(std::mem::replace(slot, v)))
        }
        fn detect(&mut self) -> CfdResult<detect::ViolationReport> {
            let mut report = detect::ViolationReport::default();
            for (i, v) in self.rows.iter().enumerate() {
                if matches!(v, Some(v) if *v < 0) {
                    report.push_single(0, RowId(i as u64));
                }
            }
            Ok(report)
        }
        fn audit(&mut self) -> CfdResult<audit::QualityReport> {
            Err(CfdError::Unsupported("counting".into()))
        }
        fn last_report(&self) -> Option<detect::ViolationReport> {
            None
        }
        fn len(&self) -> usize {
            self.live().count()
        }
    }

    fn insert(v: i64) -> Request {
        Request::Insert {
            row: vec![Value::Int(v)],
        }
    }

    #[test]
    fn reads_see_consistent_epochs_while_writes_stream() {
        let engine = ConcurrentEngine::new(Counting::default(), EngineConfig::default());
        let writer = engine.handle();
        let reader = engine.handle();

        const WRITES: i64 = 300;
        let pump = std::thread::spawn(move || {
            for v in 0..WRITES {
                // Alternate sign so the violation count moves with the
                // prefix length.
                let signed = if v % 2 == 0 { v } else { -v };
                match writer.request(insert(signed)) {
                    Response::Inserted { .. } => {}
                    other => panic!("insert refused: {other:?}"),
                }
            }
        });

        // Every observed state must equal the serial prefix it names:
        // `writes_applied` inserts → len == prefix, violations == count
        // of negatives in the prefix.
        let mut last_epoch = 0;
        loop {
            let state = reader.state();
            assert!(state.epoch >= last_epoch, "epochs are monotone");
            last_epoch = state.epoch;
            let prefix = state.writes_applied as i64;
            assert_eq!(state.len, prefix as usize, "len is a serial prefix");
            let negatives = (0..prefix).filter(|v| v % 2 == 1).count();
            match &state.detect {
                Response::Report(s) => {
                    assert_eq!(s.dirty_rows, negatives, "no torn detect state")
                }
                other => panic!("detect answer: {other:?}"),
            }
            if prefix == WRITES {
                break;
            }
            std::thread::yield_now();
        }
        pump.join().unwrap();

        let backend = engine.shutdown();
        assert_eq!(backend.rows.len(), WRITES as usize, "all writes applied");
    }

    #[test]
    fn replies_arrive_after_their_epoch_is_published() {
        let engine = ConcurrentEngine::new(Counting::default(), EngineConfig::default());
        let h = engine.handle();
        for v in 0..50 {
            assert!(matches!(h.request(insert(v)), Response::Inserted { .. }));
            // Read-your-writes: the reply means the covering epoch is out.
            let state = h.state();
            assert!(state.len as i64 > v, "write {v} visible after its reply");
        }
        engine.shutdown();
    }

    #[test]
    fn batch_and_failed_writes_match_serial_dispatch() {
        let engine = ConcurrentEngine::new(Counting::default(), EngineConfig::default());
        let h = engine.handle();
        let batch = MutationBatch::from(vec![
            Mutation::Insert(vec![Value::Int(1)]),
            Mutation::Insert(vec![Value::Int(-2)]),
            Mutation::SetCell {
                row: RowId(0),
                col: 0,
                value: Value::Int(5),
            },
        ]);
        let concurrent = [
            h.request(Request::ApplyBatch {
                batch: batch.clone(),
            }),
            h.request(Request::Delete { row: RowId(99) }), // fails
            h.request(insert(7)),
            h.request(Request::Detect),
            h.request(Request::Len),
            h.request(Request::LastReport),
        ];
        drop(h);
        engine.shutdown();

        let mut serial = Counting::default();
        let expect = [
            dispatch(&mut serial, Request::ApplyBatch { batch }),
            dispatch(&mut serial, Request::Delete { row: RowId(99) }),
            dispatch(&mut serial, insert(7)),
            dispatch(&mut serial, Request::Detect),
            dispatch(&mut serial, Request::Len),
            dispatch(&mut serial, Request::LastReport),
        ];
        // (`Counting::last_report` is always `None`, so the engine's
        // refreshed-report divergence is invisible here — the service
        // tests cover it against the real backends.)
        assert_eq!(concurrent, expect);
    }

    #[test]
    fn backpressure_answers_error_instead_of_queueing_unboundedly() {
        // A rendezvous-depth queue plus a writer stalled on its first
        // job: the next try_send must see Full.
        let engine = ConcurrentEngine::new(Counting::default(), EngineConfig { queue_depth: 1 });
        let h = engine.handle();
        let mut saw_backpressure = false;
        let mut pending = Vec::new();
        for v in 0..1_000 {
            match h.submit_write(insert(v)) {
                Ok(rx) => pending.push(rx),
                Err(Response::Error { message }) => {
                    assert!(message.contains("write queue is full"), "{message}");
                    saw_backpressure = true;
                    break;
                }
                Err(other) => panic!("unexpected refusal: {other:?}"),
            }
        }
        assert!(saw_backpressure, "a depth-1 queue must eventually refuse");
        for rx in pending {
            assert!(matches!(recv_reply(&rx), Response::Inserted { .. }));
        }
        engine.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_writes() {
        let engine = ConcurrentEngine::new(Counting::default(), EngineConfig::default());
        let h = engine.handle();
        let pending: Vec<_> = (0..100)
            .map(|v| h.submit_write(insert(v)).expect("queue has room"))
            .collect();
        let backend = engine.shutdown();
        assert_eq!(backend.rows.len(), 100, "accepted writes survive shutdown");
        for rx in pending {
            assert!(matches!(recv_reply(&rx), Response::Inserted { .. }));
        }
        // The surviving handle still reads the final epoch but cannot
        // write.
        assert_eq!(h.state().len, 100);
        assert!(matches!(h.request(insert(1)), Response::Error { .. }));
    }
}
