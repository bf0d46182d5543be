//! # colstore — columnar snapshot store with vectorized CFD detection
//!
//! A new execution layer under the Semandaq detector: an immutable,
//! dictionary-encoded columnar copy of a [`minidb::Table`] plus a detector
//! that evaluates CFDs over integer codes instead of cloned `Value` rows.
//!
//! * [`Dictionary`] — per-column value ↔ dense `u32` code mapping, with
//!   code 0 ([`NULL_CODE`]) reserved for SQL NULL; code equality is exactly
//!   `Value::strong_eq` equality, so code comparisons reproduce the
//!   reference semantics.
//! * [`Column`] — fixed-size immutable code chunks (`Arc`-shared) plus one
//!   mutable tail chunk and the dictionary; cloning bumps refcounts,
//!   appending is an O(1) tail push, and a chunk is the unit of scan
//!   work.
//! * [`Snapshot`] — one encode pass over a table's live rows; the unit of
//!   reuse across a whole CFD set (one encode, N rules) and across engines.
//! * [`detect_columnar`] / [`detect_on_snapshot`] — constant CFDs by
//!   branch-free code comparison over chunks, variable CFDs by grouping
//!   packed `u64` (or wide `[u32]`) LHS code keys. Returns reports
//!   `normalized()`-equal to [`detect_native`](::detect::detect_native) on every instance.
//! * [`cfd_partials`] — a shard's per-group partial state in the cluster's
//!   exchange format; the cluster scatters these exports over scoped
//!   workers sized by [`morsel::resolve_threads`]. Detection itself runs
//!   on the caller's thread.
//! * [`SnapshotCache`] / [`detect_cached`] — the epoch-versioned snapshot
//!   lifecycle: one cached `Arc<Snapshot>` tagged with the table's mutation
//!   epoch, returned for free while the epochs match and **incrementally
//!   patched** (append / swap-remove / single-cell re-encode) when the
//!   caller reports its deltas, with a delta-threshold fallback to full
//!   re-encode. Beside it the cache keeps one state per CFD: the CFD's
//!   materialized violations and, once a write has touched the CFD, its
//!   LHS groups in code space (RHS code counts and members), patched with
//!   the snapshot, so a detect after a write re-materializes only the
//!   groups the write touched. The steady-state engine under
//!   `QualityServer::detect`, `DataMonitor` and `batch_repair`.
//! * [`audit_cached`] — the code-space auditor of the server and the data
//!   monitor: the Fig. 4 quality report, equal to `audit::quality_report`
//!   field for field. After a [`detect_cached`] it is read off counters
//!   the cache keeps beside the detect state and moves with every write,
//!   so an audit costs O(rows touched since the last one); the first
//!   audit seeds them. Any other report is graded afresh from its
//!   per-member value counts and the snapshot codes; that pass's second
//!   half, [`grade_snapshot`], also grades the sharded cluster's shards.

#![warn(missing_docs)]

pub mod column;
pub mod detect;
pub mod dictionary;
mod grades;
pub mod lifecycle;
pub mod morsel;
pub mod snapshot;
pub mod spill;

pub use self::column::{default_chunk_rows, Column, ColumnBuilder};
pub use self::detect::{
    cfd_partial_one, cfd_partials, detect_columnar, detect_on_snapshot, detect_on_snapshot_threads,
};
pub use self::dictionary::{Dictionary, NULL_CODE};
pub use self::lifecycle::{
    audit_cached, detect_cached, detect_cached_threads, grade_snapshot, SnapshotCache, TableDelta,
};
pub use self::snapshot::Snapshot;
pub use self::spill::{ChunkGuard, ChunkStore, MemChunkStore, PageHandle};
