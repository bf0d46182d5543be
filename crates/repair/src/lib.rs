//! # repair — the Semandaq Data Cleanser
//!
//! Cost-based CFD repair by attribute-value modification (Cong, Fan,
//! Geerts, Jia, Ma — VLDB 2007, the paper's reference \[8\]):
//!
//! * [`cost`] — `w(t,A) · DL(v, v')/max(|v|,|v'|)` change costs;
//! * [`eqclass`] — union-find equivalence classes over cells with pins;
//! * [`rounds`] — the engine-agnostic detect → resolve round loop over a
//!   [`RepairStore`] (point reads, lock-step cell writes, detection,
//!   dictionary-backed domain statistics) — shared by the single-node
//!   batch repair and the sharded cluster's cross-shard repair;
//! * [`batch::batch_repair`] — BatchRepair: the round loop bound to one
//!   `minidb` relation with a cached columnar snapshot, mixing
//!   constant-rule pinning, LHS breaking, and group merging;
//! * [`incremental::incremental_repair`] — IncRepair for deltas against a
//!   clean database (the Data Monitor's repair engine);
//! * [`alternatives`] — ranked candidate fixes per cell (Fig 5's pop-up);
//! * [`quality`] — precision/recall scoring against ground truth (E5).

#![warn(missing_docs)]

pub mod alternatives;
pub mod batch;
pub mod cost;
pub mod eqclass;
pub mod incremental;
pub mod quality;
pub mod rounds;

pub use alternatives::{alternatives_for, Alternative};
pub use batch::{
    batch_repair, batch_repair_with_cache, CellChange, ChangeReason, RepairConfig, RepairResult,
};
pub use cost::{damerau_levenshtein, normalized_distance, WeightModel};
pub use eqclass::{CellRef, EqClasses};
pub use incremental::incremental_repair;
pub use quality::{score_repair, RepairQuality};
pub use rounds::{repair_rounds, ColumnCounts, RepairStore};
