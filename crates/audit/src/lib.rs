//! # audit — the Semandaq Data Auditor
//!
//! Summarized quality reporting over detection results:
//!
//! * [`classify`](mod@classify) — tuple- and cell-level classes (verified / probably /
//!   arguably clean / dirty), exactly the taxonomy the demo's §3 defines,
//!   as per-tuple and per-cell maps;
//! * [`stats`] — min/avg/max of `vio(t)`, histograms, group-size stats,
//!   folded in one pass ([`StatsFold`]) from a report or from histograms;
//! * [`quality_map`](mod@quality_map) — the tuple-level shading of Fig. 3;
//! * [`report`] — the assembled Fig. 4 report (attribute bar chart +
//!   per-CFD pie + headline numbers), counted in one pass over the
//!   violations and one over the live rows by a [`ReportBuilder`] that
//!   the columnar server and the sharded cluster fill from codes instead
//!   of values, or assembled from class counts kept elsewhere
//!   ([`QualityReport::from_counts`]);
//! * [`charts`] — plain-text bar / stacked-bar / pie renderers.

#![warn(missing_docs)]

pub mod charts;
pub mod classify;
pub mod quality_map;
pub mod report;
pub mod stats;

pub use classify::{classify, grade, Classification, CleanClass};
pub use quality_map::{quality_map, QualityMap};
pub use report::{quality_report, AttributeBreakdown, QualityReport, ReportBuilder};
pub use stats::{violation_stats, StatsFold, ViolationStats};
