//! # Semandaq — umbrella crate
//!
//! Re-exports every component of the Semandaq reproduction so examples and
//! downstream users can depend on a single crate:
//!
//! * [`api`] — the unified quality API: the `QualityBackend` trait every
//!   engine implements, the shared `Mutation`/`MutationBatch` vocabulary,
//!   and the serializable `Request`/`Response` command protocol.
//! * [`minidb`] — the relational substrate (SQL engine).
//! * [`cfd`] — conditional functional dependencies and static analysis.
//! * [`detect`] — SQL-based, native, and incremental violation detection.
//! * [`repair`] — cost-based data repair (batch + incremental).
//! * [`audit`] — quality metrics, reports, quality map and charts.
//! * [`explore`] — drill-down navigation, tuple inspection, cleansing review.
//! * [`colstore`] — columnar snapshot store: dictionary-encoded columns and
//!   vectorized CFD detection.
//! * [`cluster`] — sharded quality cluster: partitioned colstore shards
//!   with scatter/gather CFD detection and report merge.
//! * [`discovery`] — FD/CFD discovery from reference data.
//! * [`datagen`] — seeded workload generators.
//! * [`durable`] — the durability tier: CRC-framed mutation write-ahead
//!   log with startup replay and checkpointing (`Durable`), plus the
//!   paged cold-chunk spill store (`PagedStore`), whose every fault-in
//!   checks its page's CRC-32.
//! * [`net`] — the TCP service tier: a single-writer / lock-free
//!   multi-reader `ConcurrentEngine` over any backend, a newline-framed
//!   `NetServer` transport, and a blocking `Client`.
//! * [`obs`] — zero-dependency telemetry: counters, gauges, latency
//!   histograms and span timers on a global registry, snapshotted as a
//!   `MetricsReport` (also served over the wire via `Request::Metrics`).
//! * [`system`] (re-export of `semandaq-core`) — the assembled system:
//!   constraint engine, quality server, data monitor.

pub use api;
pub use audit;
pub use cfd;
pub use cluster;
pub use colstore;
pub use datagen;
pub use detect;
pub use discovery;
pub use durable;
pub use explore;
pub use minidb;
pub use net;
pub use obs;
pub use repair;
pub use semandaq_core as system;
