//! # detect — the Semandaq Error Detector
//!
//! Two interchangeable detection engines over the same CFD semantics:
//!
//! * [`sql_detector::detect_sql`] — the paper's code path: pattern tableaux
//!   encoded relationally, merged QC/QV SQL queries generated and executed
//!   on the [`minidb`] substrate;
//! * [`native::detect_native`] — a direct hash-based reference detector
//!   (cross-validates SQL detection; the baseline in experiment E1).
//!
//! Plus [`exchange`], the partial-aggregation wire format and coordinator
//! merge that let a *sharded* cluster of quality servers — Semandaq's
//! servers that "run independently in a distributed way" — reproduce
//! single-node detection exactly (constant CFDs shard-local, variable
//! CFDs via per-group partial states). Columnar detection over cached
//! snapshots — also the data monitor's incremental detection, a detect
//! over a patched snapshot that recomputes only the rules an update
//! touched — lives in the `colstore` crate.

#![warn(missing_docs)]

pub mod exchange;
pub mod fxhash;
pub mod native;
pub mod sql_detector;
pub mod sqlgen;
pub mod violation;

pub use exchange::{merge_cfd_partials, CfdPartial, GroupPartial, MergedCfd};
pub use native::detect_native;
pub use sql_detector::{detect_sql, detect_sql_per_pattern};
pub use violation::{VioTally, Violation, ViolationKind, ViolationReport};
