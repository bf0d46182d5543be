//! # cluster — the sharded quality cluster
//!
//! Scale-out for the Semandaq quality server: one relation partitioned
//! across N colstore-backed shards, with exact scatter/gather CFD
//! detection.
//!
//! * [`ShardRouter`] — pluggable placement: [`HashRouter`] (deterministic
//!   FxHash over chosen key columns) or [`RoundRobinRouter`] (perfect
//!   balance, value-blind). Placement is a performance knob, never a
//!   correctness one.
//! * [`ShardedQualityServer`] — routes `insert` / `delete` / `update_cell`
//!   to the owning shard, keeping each shard's epoch-versioned
//!   [`colstore::SnapshotCache`] patched in lock-step; `detect()` scatters
//!   per-CFD partial export across shards (scoped workers pulling shards
//!   off one shared queue, per-shard memoization against column epochs)
//!   and gathers with the partial-group merge of [`detect::exchange`],
//!   kept per CFD between detects so only changed groups re-merge.
//! * [`ShardedQualityServer::repair`] — cross-shard repair (see
//!   [`repair`]): each round detects through the exchange, builds
//!   **global** equivalence classes over the merged per-group
//!   partials with the shared plan/resolve core of `repair::rounds`, and
//!   routes the cell changes back as per-shard snapshot patch batches —
//!   output-identical to single-node `batch_repair` of the merged table.
//!
//! The merged report is `normalized()`-equal to single-node columnar
//! detection on every instance, router and shard count — constant CFDs are
//! embarrassingly parallel per row, and variable CFDs only conflict within
//! an LHS group, so per-group partial aggregation loses nothing.

#![warn(missing_docs)]

pub mod repair;
pub mod router;
pub mod server;

pub use router::{HashRouter, RoundRobinRouter, ShardRouter};
pub use server::{DetectStats, ShardedQualityServer};
