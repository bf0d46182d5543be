//! # Network service tier
//!
//! Turns any [`QualityBackend`](api::QualityBackend) into a many-client
//! TCP service, in two layers:
//!
//! * [`ConcurrentEngine`] — the concurrency layer. One writer thread
//!   owns the backend and applies mutating requests in arrival order
//!   through the serial [`api::wire::dispatch`]; after each coalesced
//!   batch it captures an immutable [`EpochState`] (ready-made detect /
//!   audit / report / len / capabilities answers) and publishes it as an
//!   `Arc` behind an `RwLock`. Readers ([`EngineHandle`]) serve every
//!   read-only request from the latest epoch: a shared lock held for one
//!   `Arc` clone, then a clone of a ready answer, so every read equals
//!   the serial answer at some prefix of the writes. Writes ride a
//!   bounded queue with per-request reply channels; replies follow the
//!   covering publish, so each client reads its own writes.
//! * [`NetServer`] / [`Client`] — the transport layer. `std::net` only
//!   (no async runtime): a nonblocking accept loop feeds a worker pool;
//!   each connection speaks newline-delimited [`api::dispatch_line`]
//!   framing with pipelining, explicit backpressure errors, idle
//!   timeouts, and oversize resynchronization. [`NetServer::shutdown`]
//!   stops accepting, drains the writer queue, and hands the backend
//!   back with every accepted write applied.
//!
//! The split between read-only and mutating requests lives on the
//! protocol itself — [`api::Request::is_read_only`] — so the engine,
//! the transport, and the telemetry agree on it by construction.

#![warn(missing_docs)]

pub mod client;
pub mod engine;
pub mod publish;
pub mod read;
pub mod server;

pub use client::Client;
pub use engine::{ConcurrentEngine, EngineConfig, EngineHandle, EpochState};
pub use read::Published;
pub use server::{NetConfig, NetServer};
