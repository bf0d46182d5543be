//! # explore — the Semandaq Data Explorer
//!
//! The interactive surface of the demo, reproduced as deterministic state
//! machines over detection/repair results:
//!
//! * [`navigate::NavigationSession`] — the four-table drill-down of Fig. 2
//!   (embedded FD → pattern tuple → LHS match → RHS values → tuples), every
//!   level annotated with violation counts;
//! * [`inspect::inspect_tuple`] — the reverse view: tuple → relevant CFDs,
//!   violations and conflicting witnesses;
//! * [`review::ReviewSession`] — the cleansing review of Fig. 5: diff
//!   against the original, ranked alternatives per modified cell,
//!   accept/override, and re-detection over the caller's patched snapshot
//!   cache after overrides;
//! * [`render`] — the shared ASCII table renderer.

#![warn(missing_docs)]

pub mod inspect;
pub mod navigate;
pub mod render;
pub mod review;

pub use inspect::{inspect_tuple, render_inspection, CfdRelevance};
pub use navigate::{FdEntry, LhsEntry, NavigationSession, PatternEntry, RhsEntry};
pub use render::render_table;
pub use review::{diff_tables, ReviewEntry, ReviewSession, ReviewState};
