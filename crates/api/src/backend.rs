//! The [`QualityBackend`] trait and the shared mutation vocabulary.
//!
//! Every engine facade in the workspace — the single-node
//! `QualityServer`, the sharded cluster, the streaming `DataMonitor` —
//! speaks this one surface. Callers program against
//! `&mut dyn QualityBackend` and pick the engine by construction, exactly
//! as the paper's Fig. 1 presents one system over interchangeable
//! execution strategies.

use audit::QualityReport;
use cfd::{CfdError, CfdResult};
use detect::ViolationReport;
use minidb::{RowId, Value};

use crate::wire::ReportSummary;

/// One mutation against the audited relation — the vocabulary shared by
/// every backend's ingest path (the monitor's update stream, the sharded
/// router, the wire protocol's batches).
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// Insert a new tuple; the backend assigns the next global row id.
    Insert(Vec<Value>),
    /// Delete a tuple by id.
    Delete(RowId),
    /// Overwrite one cell.
    SetCell {
        /// Target row.
        row: RowId,
        /// Target column (schema position).
        col: usize,
        /// New value.
        value: Value,
    },
}

/// An ordered batch of mutations, applied atomically with respect to
/// derived state: backends route and apply the whole batch in one pass and
/// patch each touched snapshot once, instead of paying per-row epoch and
/// copy-on-write bookkeeping (see `SnapshotCache::note_batch`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MutationBatch {
    /// The mutations, in application order. Later entries may reference
    /// rows inserted by earlier entries in the same batch.
    pub mutations: Vec<Mutation>,
}

impl MutationBatch {
    /// An empty batch.
    pub fn new() -> MutationBatch {
        MutationBatch::default()
    }

    /// Append one mutation.
    pub fn push(&mut self, m: Mutation) {
        self.mutations.push(m);
    }

    /// Number of mutations.
    pub fn len(&self) -> usize {
        self.mutations.len()
    }

    /// True when the batch holds no mutations.
    pub fn is_empty(&self) -> bool {
        self.mutations.is_empty()
    }
}

impl From<Vec<Mutation>> for MutationBatch {
    fn from(mutations: Vec<Mutation>) -> MutationBatch {
        MutationBatch { mutations }
    }
}

impl FromIterator<Mutation> for MutationBatch {
    fn from_iter<I: IntoIterator<Item = Mutation>>(iter: I) -> MutationBatch {
        MutationBatch {
            mutations: iter.into_iter().collect(),
        }
    }
}

/// What applying a [`MutationBatch`] did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchOutcome {
    /// Mutations applied (equals the batch length on success).
    pub applied: usize,
    /// Row ids assigned to the batch's inserts, in batch order.
    pub inserted: Vec<RowId>,
}

/// What a backend can do, beyond the mandatory surface.
#[derive(Debug, Clone, PartialEq)]
pub struct Capabilities {
    /// Human-readable backend name (e.g. `"quality-server"`).
    pub backend: String,
    /// Does [`QualityBackend::repair`] work?
    pub repair: bool,
    /// Does the backend maintain violations incrementally per mutation
    /// (a streaming monitor), as opposed to on-demand batch detection?
    pub streaming: bool,
    /// Number of partitions the relation is spread over (1 = single node).
    pub shards: usize,
    /// Does [`QualityBackend::metrics`] answer with telemetry? True for
    /// every in-process backend (they share the `obs` global registry).
    pub metrics: bool,
    /// Does [`QualityBackend::trace`] answer with request traces? True
    /// for every in-process backend (they share the `obs::trace` flight
    /// recorder); traces are only captured while tracing is enabled
    /// (`SDQ_TRACE=1` / `obs::trace::set_enabled`).
    pub trace: bool,
}

/// Wire-friendly summary of a repair pass (the full
/// `repair::RepairResult`, with per-cell changes, stays available on the
/// concrete server type).
#[derive(Debug, Clone, PartialEq)]
pub struct RepairSummary {
    /// Cell changes applied.
    pub changes: usize,
    /// Detect→resolve iterations used.
    pub iterations: usize,
    /// Total cost charged by the repair cost model.
    pub total_cost: f64,
    /// Violations left unresolved (0 on convergence).
    pub residual: usize,
}

/// The unified quality API: one relation under a CFD set, with mutation,
/// detection, audit and (capability-gated) repair.
///
/// Implementations must keep every derived structure — cached snapshots,
/// per-CFD detect memos, cached reports — coherent across these calls:
/// mutating through the trait is always safe, and a `detect` after any
/// mutation sequence reflects exactly the mutated data.
pub trait QualityBackend {
    /// What this backend supports.
    fn capabilities(&self) -> Capabilities;

    /// Register CFDs in the textual notation
    /// (`rel: [A='x', B=_] -> [C=_]`, one rule per line). Returns the
    /// number of rules the backend now enforces. Backends with a static
    /// analysis gate reject sets they can prove unsatisfiable.
    fn register_cfds(&mut self, text: &str) -> CfdResult<usize>;

    /// Insert a row; returns its assigned id.
    fn insert(&mut self, row: Vec<Value>) -> CfdResult<RowId>;

    /// Delete a row by id; returns its former values.
    fn delete(&mut self, row: RowId) -> CfdResult<Vec<Value>>;

    /// Overwrite one cell; returns the previous value.
    fn update_cell(&mut self, row: RowId, col: usize, value: Value) -> CfdResult<Value>;

    /// Apply a whole batch in one pass — the high-throughput ingest path.
    ///
    /// On success this is equivalent to applying the mutations one by one
    /// (the property tests pin this), but backends amortize routing and
    /// snapshot patching across the batch. On a failed mutation the
    /// already-applied mutations stay applied, derived state stays
    /// coherent, and the error is returned — single-node backends apply a
    /// batch-order prefix, while a partitioned backend applies a
    /// *per-partition* prefix (mutations after the failed one may have
    /// landed on sibling partitions; see the implementation's docs). A
    /// failed batch is not safely retryable by suffix on every backend.
    ///
    /// The default implementation is the one-by-one loop.
    fn apply_batch(&mut self, batch: MutationBatch) -> CfdResult<BatchOutcome> {
        let mut outcome = BatchOutcome::default();
        for m in batch.mutations {
            if let Some(id) = apply_mutation(self, m)? {
                outcome.inserted.push(id);
            }
            outcome.applied += 1;
        }
        Ok(outcome)
    }

    /// Run error detection; caches and returns the report.
    fn detect(&mut self) -> CfdResult<ViolationReport>;

    /// The data auditor's quality report (runs detection first if no
    /// report is cached).
    fn audit(&mut self) -> CfdResult<QualityReport>;

    /// The most recent detection report, if one is current (mutations
    /// invalidate it; streaming backends always have one).
    fn last_report(&self) -> Option<ViolationReport>;

    /// The wire summary of [`QualityBackend::last_report`]. The default
    /// summarizes a copy; a backend that holds its report overrides it to
    /// summarize the report where it lies.
    fn last_summary(&self) -> Option<ReportSummary> {
        self.last_report().map(|r| ReportSummary::of(&r))
    }

    /// Number of live rows in the audited relation.
    fn len(&self) -> usize;

    /// True when the relation holds no live rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Run batch repair, if [`Capabilities::repair`] says so; the default
    /// refuses.
    fn repair(&mut self) -> CfdResult<RepairSummary> {
        Err(CfdError::Unsupported(format!(
            "backend '{}' does not support repair",
            self.capabilities().backend
        )))
    }

    /// Snapshot the telemetry registry, if [`Capabilities::metrics`] says
    /// so. In-process backends all record into the `obs` global registry,
    /// so the default returns its snapshot; a remote proxy would override
    /// this to forward the request.
    fn metrics(&self) -> CfdResult<obs::MetricsReport> {
        if !self.capabilities().metrics {
            return Err(CfdError::Unsupported(format!(
                "backend '{}' does not expose metrics",
                self.capabilities().backend
            )));
        }
        Ok(obs::snapshot())
    }

    /// Export every live row with its stable id, in id order — the raw
    /// material of a durability checkpoint. The default refuses; backends
    /// that can enumerate their relation (and honor [`restore_row`] below)
    /// override it.
    ///
    /// [`restore_row`]: QualityBackend::restore_row
    fn export_rows(&self) -> CfdResult<Vec<(RowId, Vec<Value>)>> {
        Err(CfdError::Unsupported(format!(
            "backend '{}' does not support checkpoint export",
            self.capabilities().backend
        )))
    }

    /// Re-insert a checkpointed row under its original id. Only valid on
    /// a backend whose relation is empty or being restored in ascending
    /// id order (the id allocator is advanced past `id`); the default
    /// refuses.
    fn restore_row(&mut self, id: RowId, row: Vec<Value>) -> CfdResult<()> {
        let _ = (id, row);
        Err(CfdError::Unsupported(format!(
            "backend '{}' does not support checkpoint restore",
            self.capabilities().backend
        )))
    }

    /// The id the next insert will be assigned — the id allocator's
    /// position. This can sit past the last live row (ids of deleted rows
    /// are never reused), which is why a checkpoint must record it
    /// explicitly: restoring the rows alone would resume allocation too
    /// early and break replay id-determinism. The default refuses.
    fn next_row_id(&self) -> CfdResult<u64> {
        Err(CfdError::Unsupported(format!(
            "backend '{}' does not expose its row-id allocator",
            self.capabilities().backend
        )))
    }

    /// Advance the id allocator so the next insert is assigned
    /// `RowId(next)` (no-op if it is already at or past `next`) — the
    /// restore-side twin of [`next_row_id`]. The default refuses.
    ///
    /// [`next_row_id`]: QualityBackend::next_row_id
    fn restore_arena(&mut self, next: u64) -> CfdResult<()> {
        let _ = next;
        Err(CfdError::Unsupported(format!(
            "backend '{}' does not support checkpoint restore",
            self.capabilities().backend
        )))
    }

    /// The span tree of the most recently completed traced request, if
    /// [`Capabilities::trace`] says so. In-process backends share the
    /// `obs::trace` flight recorder, so the default reads it; a remote
    /// proxy would override this to forward the request. Errors when no
    /// trace has been captured (tracing off, or no request completed).
    fn trace(&self) -> CfdResult<obs::TraceReport> {
        if !self.capabilities().trace {
            return Err(CfdError::Unsupported(format!(
                "backend '{}' does not expose request traces",
                self.capabilities().backend
            )));
        }
        obs::trace::last_trace().ok_or_else(|| {
            CfdError::Unsupported(
                "no completed request trace captured (enable SDQ_TRACE=1 or \
                 obs::trace::set_enabled, then run a request)"
                    .into(),
            )
        })
    }
}

/// Boxed backends are backends: forwards *every* method — including the
/// defaulted ones — so a `Box<dyn QualityBackend + Send>` handed to the
/// network tier's generic `ConcurrentEngine<B>` keeps each concrete
/// backend's overridden `apply_batch`/`repair`/`metrics`/`trace`
/// behavior instead of falling back to the trait defaults.
impl<T: QualityBackend + ?Sized> QualityBackend for Box<T> {
    fn capabilities(&self) -> Capabilities {
        (**self).capabilities()
    }
    fn register_cfds(&mut self, text: &str) -> CfdResult<usize> {
        (**self).register_cfds(text)
    }
    fn insert(&mut self, row: Vec<Value>) -> CfdResult<RowId> {
        (**self).insert(row)
    }
    fn delete(&mut self, row: RowId) -> CfdResult<Vec<Value>> {
        (**self).delete(row)
    }
    fn update_cell(&mut self, row: RowId, col: usize, value: Value) -> CfdResult<Value> {
        (**self).update_cell(row, col, value)
    }
    fn apply_batch(&mut self, batch: MutationBatch) -> CfdResult<BatchOutcome> {
        (**self).apply_batch(batch)
    }
    fn detect(&mut self) -> CfdResult<ViolationReport> {
        (**self).detect()
    }
    fn audit(&mut self) -> CfdResult<QualityReport> {
        (**self).audit()
    }
    fn last_report(&self) -> Option<ViolationReport> {
        (**self).last_report()
    }
    fn last_summary(&self) -> Option<ReportSummary> {
        (**self).last_summary()
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }
    fn repair(&mut self) -> CfdResult<RepairSummary> {
        (**self).repair()
    }
    fn export_rows(&self) -> CfdResult<Vec<(RowId, Vec<Value>)>> {
        (**self).export_rows()
    }
    fn restore_row(&mut self, id: RowId, row: Vec<Value>) -> CfdResult<()> {
        (**self).restore_row(id, row)
    }
    fn next_row_id(&self) -> CfdResult<u64> {
        (**self).next_row_id()
    }
    fn restore_arena(&mut self, next: u64) -> CfdResult<()> {
        (**self).restore_arena(next)
    }
    fn metrics(&self) -> CfdResult<obs::MetricsReport> {
        (**self).metrics()
    }
    fn trace(&self) -> CfdResult<obs::TraceReport> {
        (**self).trace()
    }
}

/// Apply one [`Mutation`] through the trait's single-mutation surface;
/// returns the assigned id for an insert. The canonical mutation →
/// method mapping — the trait's default [`QualityBackend::apply_batch`],
/// the equivalence tests and the benchmarks all share it instead of
/// re-spelling the match.
pub fn apply_mutation(
    b: &mut (impl QualityBackend + ?Sized),
    m: Mutation,
) -> CfdResult<Option<RowId>> {
    match m {
        Mutation::Insert(row) => b.insert(row).map(Some),
        Mutation::Delete(id) => b.delete(id).map(|_| None),
        Mutation::SetCell { row, col, value } => b.update_cell(row, col, value).map(|_| None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy backend exercising the trait's default methods.
    #[derive(Default)]
    struct Rows(Vec<Option<Vec<Value>>>);

    impl QualityBackend for Rows {
        fn capabilities(&self) -> Capabilities {
            Capabilities {
                backend: "toy".into(),
                repair: false,
                streaming: false,
                shards: 1,
                metrics: true,
                trace: true,
            }
        }
        fn register_cfds(&mut self, _text: &str) -> CfdResult<usize> {
            Ok(0)
        }
        fn insert(&mut self, row: Vec<Value>) -> CfdResult<RowId> {
            self.0.push(Some(row));
            Ok(RowId(self.0.len() as u64 - 1))
        }
        fn delete(&mut self, row: RowId) -> CfdResult<Vec<Value>> {
            self.0
                .get_mut(row.index())
                .and_then(Option::take)
                .ok_or_else(|| CfdError::Malformed("bad row".into()))
        }
        fn update_cell(&mut self, row: RowId, col: usize, value: Value) -> CfdResult<Value> {
            let r = self
                .0
                .get_mut(row.index())
                .and_then(Option::as_mut)
                .ok_or_else(|| CfdError::Malformed("bad row".into()))?;
            Ok(std::mem::replace(&mut r[col], value))
        }
        fn detect(&mut self) -> CfdResult<ViolationReport> {
            Ok(ViolationReport::default())
        }
        fn audit(&mut self) -> CfdResult<QualityReport> {
            Err(CfdError::Unsupported("toy".into()))
        }
        fn last_report(&self) -> Option<ViolationReport> {
            None
        }
        fn len(&self) -> usize {
            self.0.iter().flatten().count()
        }
    }

    #[test]
    fn default_apply_batch_loops_and_collects_inserts() {
        let mut b = Rows::default();
        let batch: MutationBatch = vec![
            Mutation::Insert(vec![Value::str("a")]),
            Mutation::Insert(vec![Value::str("b")]),
            Mutation::SetCell {
                row: RowId(0),
                col: 0,
                value: Value::str("z"),
            },
            Mutation::Delete(RowId(1)),
        ]
        .into();
        let out = b.apply_batch(batch).unwrap();
        assert_eq!(out.applied, 4);
        assert_eq!(out.inserted, vec![RowId(0), RowId(1)]);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn failed_batch_keeps_prefix_and_reports_error() {
        let mut b = Rows::default();
        let batch: MutationBatch = vec![
            Mutation::Insert(vec![Value::str("a")]),
            Mutation::Delete(RowId(77)),
            Mutation::Insert(vec![Value::str("never")]),
        ]
        .into();
        assert!(b.apply_batch(batch).is_err());
        assert_eq!(b.len(), 1, "prefix before the failure stays applied");
    }

    #[test]
    fn default_repair_refuses() {
        let mut b = Rows::default();
        assert!(matches!(b.repair(), Err(CfdError::Unsupported(_))));
    }
}
