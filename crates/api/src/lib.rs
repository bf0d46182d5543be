//! # Unified quality API
//!
//! One request surface over every engine in the workspace. The paper's
//! Fig. 1 presents Semandaq as a *single* facade wiring six components
//! over a relation; as the reproduction grew engines — the single-node
//! [`QualityServer`], the sharded cluster, the streaming monitor — each
//! sprouted its own incompatible surface. This crate folds them back into
//! one:
//!
//! * [`QualityBackend`] — the trait every engine implements: CFD
//!   registration, a full mutation surface ([`Mutation`] /
//!   [`MutationBatch`] with amortized [`QualityBackend::apply_batch`]),
//!   detection, audit, and capability-gated repair. Every implementation
//!   keeps its derived state (cached snapshots, detect memos, cached
//!   reports) coherent under mutations through the trait.
//! * [`wire`] — the serializable [`wire::Request`] / [`wire::Response`]
//!   command protocol and [`wire::dispatch`]: decode a request stream,
//!   serve it from any backend. The front door for every transport.
//!   Dispatch is instrumented (per-kind request counters and latency
//!   histograms in the `obs` global registry), and the capability-gated
//!   [`wire::Request::Metrics`] op ships the registry snapshot — a
//!   [`MetricsReport`] — back over the same codec.
//!
//! The conformance suite (`tests/api_conformance.rs` at the workspace
//! root) runs one shared script against every backend and pins
//! `normalized()`-equal reports across all of them.
//!
//! [`QualityServer`]: https://docs.rs/semandaq-core

#![warn(missing_docs)]

pub mod backend;
pub mod wire;

pub use backend::{
    apply_mutation, BatchOutcome, Capabilities, Mutation, MutationBatch, QualityBackend,
    RepairSummary,
};
pub use obs::{HistogramSnapshot, MetricsReport};
pub use wire::{dispatch, dispatch_line, Request, Response, MAX_FRAME_BYTES, REQUEST_KINDS};
