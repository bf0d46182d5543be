//! The sharded quality server: scatter/gather CFD detection over
//! partitioned colstore shards.
//!
//! A [`ShardedQualityServer`] hash- or round-robin-partitions one relation
//! across N shards. Each shard owns a [`minidb::Table`] holding its rows
//! **under their global row ids** (via [`Table::insert_at`] — no id
//! translation anywhere) plus its own epoch-versioned
//! [`colstore::SnapshotCache`], so routed mutations patch each shard's
//! dictionary-encoded snapshot incrementally exactly like a single-node
//! server's.
//!
//! Detection is scatter/gather:
//!
//! 1. **Scatter** — every shard, in shard order on the caller's thread,
//!    exports one [`CfdPartial`] per CFD from its cached snapshot:
//!    constant CFDs resolve fully shard-local; variable CFDs export the
//!    per-group partial state of `detect::exchange`. Exports are
//!    memoized per shard per CFD against the cache's per-column epochs —
//!    a shard whose rows and relevant columns are untouched since the
//!    last detect ships the same `Arc` again.
//! 2. **Gather** — the coordinator keeps one [`MergedCfd`] per CFD
//!    between detects: singles concatenate, groups union by LHS key, and
//!    any merged group with ≥ 2 distinct RHS values becomes a violation —
//!    whether the disagreement sat inside one shard or only exists across
//!    shards. A partial that is the same `Arc` as last time costs nothing;
//!    a changed one is compared with the last one group by group, and only
//!    the LHS keys whose shard groups changed, appeared or vanished are
//!    re-merged. The report is assembled from the kept per-key member
//!    lists and their merged RHS value counts, one refcount bump each.
//!
//! The merged [`ViolationReport`] is `normalized()`-equal to single-node
//! [`colstore::detect_columnar`] over the union of the rows, for every
//! router and shard count (`tests/sharded_cluster.rs` pins this by
//! property).
//!
//! The audit ([`ShardedQualityServer::audit`]) grades in code space,
//! reading no `Value`: the report's members are marked majority or
//! minority from their merged value counts
//! ([`audit::ReportBuilder::mark_report`]), then each shard's cached
//! snapshot is graded under its global row ids
//! ([`colstore::grade_snapshot`]). After a detect at the same epoch it
//! runs no detection and encodes nothing.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use api::wire::ReportSummary;
use api::{Capabilities, QualityBackend, RepairSummary};
use audit::{QualityReport, ReportBuilder};
use cfd::parse::parse_cfds;
use cfd::{BoundCfd, Cfd, CfdError, CfdResult};
use colstore::detect::needed_columns;
use colstore::{cfd_partial_one, grade_snapshot, SnapshotCache};
use detect::exchange::{CfdPartial, MergedCfd};
use detect::ViolationReport;
use minidb::{DbError, RowId, Schema, Table, Value};

use crate::router::ShardRouter;

pub(crate) fn db_err(e: DbError) -> CfdError {
    CfdError::Malformed(e.to_string())
}

/// Global-registry handles for the exchange telemetry, resolved once per
/// process. The scatter-side counters are bumped by each shard's export,
/// the gather-side ones by the merge, both on the caller's thread. After
/// every detect, partials exported == partials merged —
/// the gather loop consumes exactly what the scatter shipped (pinned by
/// `tests/metrics_invariants.rs`).
struct ClusterObs {
    shard_export_ns: Arc<obs::Histogram>,
    partials_exported: Arc<obs::Counter>,
    partials_merged: Arc<obs::Counter>,
    partials_computed: Arc<obs::Counter>,
    partials_reused: Arc<obs::Counter>,
    groups_remerged: Arc<obs::Counter>,
    exported_groups: Arc<obs::Counter>,
    exported_members: Arc<obs::Counter>,
    detects: Arc<obs::Counter>,
    scatter_ns: Arc<obs::Histogram>,
    merge_ns: Arc<obs::Histogram>,
}

fn cluster_obs() -> &'static ClusterObs {
    static OBS: OnceLock<ClusterObs> = OnceLock::new();
    OBS.get_or_init(|| ClusterObs {
        shard_export_ns: obs::histogram("cluster_shard_export_ns"),
        partials_exported: obs::counter("cluster_partials_exported_total"),
        partials_merged: obs::counter("cluster_partials_merged_total"),
        partials_computed: obs::counter("cluster_partials_computed_total"),
        partials_reused: obs::counter("cluster_partials_reused_total"),
        groups_remerged: obs::counter("cluster_groups_remerged_total"),
        exported_groups: obs::counter("cluster_exported_groups_total"),
        exported_members: obs::counter("cluster_exported_members_total"),
        detects: obs::counter("cluster_detects_total"),
        scatter_ns: obs::histogram("cluster_scatter_ns"),
        merge_ns: obs::histogram("cluster_merge_ns"),
    })
}

/// One shard: its slice of the relation plus derived columnar state.
pub(crate) struct Shard {
    pub(crate) table: Table,
    pub(crate) cache: SnapshotCache,
    /// Per-CFD memoized partial export, tagged with the table epoch it was
    /// computed at; freshness is decided by the cache's per-column epoch
    /// bookkeeping ([`SnapshotCache::fragment_fresh`]).
    memo: Vec<Option<(u64, Arc<CfdPartial>)>>,
}

/// What one shard hands back from the scatter phase.
struct ShardExport {
    partials: Vec<Arc<CfdPartial>>,
    computed: u64,
    reused: u64,
}

impl Shard {
    fn new(relation: &str, schema: Schema, n_cfds: usize) -> Shard {
        Shard {
            table: Table::new(relation, schema),
            cache: SnapshotCache::new(),
            memo: vec![None; n_cfds],
        }
    }

    /// The scatter phase on one shard: snapshot (cached / patched /
    /// re-encoded as the epoch dictates) and per-CFD partial export.
    fn export(&mut self, bound: &[BoundCfd], cols: &[Vec<usize>], needed: &[usize]) -> ShardExport {
        // Per-shard detect wall-time: one sample per shard per detect.
        let _span = obs::SpanTimer::new(Arc::clone(&cluster_obs().shard_export_ns));
        let snap = self.cache.snapshot_projected(&self.table, needed);
        let epoch = self.table.epoch();
        let mut out = ShardExport {
            partials: Vec::with_capacity(bound.len()),
            computed: 0,
            reused: 0,
        };
        for (i, b) in bound.iter().enumerate() {
            let sp = obs::trace::span("detect.cfd");
            sp.attr("cfd", i);
            match &self.memo[i] {
                Some((e, p)) if self.cache.fragment_fresh(*e, &cols[i]) => {
                    sp.attr("memo", "hit");
                    out.reused += 1;
                    out.partials.push(Arc::clone(p));
                }
                _ => {
                    sp.attr("memo", "recompute");
                    out.computed += 1;
                    let p = Arc::new(cfd_partial_one(&snap, b));
                    self.memo[i] = Some((epoch, Arc::clone(&p)));
                    out.partials.push(p);
                }
            }
        }
        let o = cluster_obs();
        o.partials_exported.add(out.partials.len() as u64);
        o.partials_computed.add(out.computed);
        o.partials_reused.add(out.reused);
        o.exported_groups
            .add(out.partials.iter().map(|p| p.n_groups() as u64).sum());
        o.exported_members
            .add(out.partials.iter().map(|p| p.n_members() as u64).sum());
        out
    }
}

/// Telemetry of the most recent [`ShardedQualityServer::detect`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct DetectStats {
    /// Wall time of the scatter phase (snapshot + partial export, all
    /// shards in turn).
    pub scatter_ns: u64,
    /// Wall time of the coordinator merge: re-merging the LHS keys whose
    /// shard groups changed, plus assembling the report from every CFD's
    /// kept groups.
    pub merge_ns: u64,
    /// LHS groups shipped across the exchange.
    pub exported_groups: u64,
    /// Per-row entries shipped (group members + constant violators) — the
    /// dominant term of the exchange volume.
    pub exported_members: u64,
    /// Partials recomputed this detect.
    pub partials_computed: u64,
    /// Partials replayed from a shard memo (rows and columns untouched).
    pub partials_reused: u64,
    /// LHS keys re-merged at the coordinator: those whose group changed,
    /// appeared or vanished on some shard since the last detect.
    pub groups_remerged: u64,
}

/// A quality server whose relation is partitioned across N shards.
pub struct ShardedQualityServer {
    relation: String,
    pub(crate) schema: Schema,
    pub(crate) cfds: Vec<Cfd>,
    router: Box<dyn ShardRouter>,
    pub(crate) shards: Vec<Shard>,
    /// Next global row id — the same sequence a single-node table would
    /// have assigned, which is what makes sharded reports id-compatible.
    next_row: u64,
    stats: DetectStats,
    /// Per CFD, the cross-shard merge kept between detects; reset by
    /// `register_cfds`.
    merged: Vec<MergedCfd>,
    /// The most recent scatter/gather report; dropped by any mutation.
    last_report: Option<ViolationReport>,
}

impl ShardedQualityServer {
    /// An empty cluster over `n_shards` shards (clamped to ≥ 1).
    pub fn new(
        relation: &str,
        schema: Schema,
        n_shards: usize,
        router: Box<dyn ShardRouter>,
    ) -> ShardedQualityServer {
        let n = n_shards.max(1);
        ShardedQualityServer {
            relation: relation.to_string(),
            schema: schema.clone(),
            cfds: Vec::new(),
            router,
            shards: (0..n)
                .map(|_| Shard::new(relation, schema.clone(), 0))
                .collect(),
            next_row: 0,
            stats: DetectStats::default(),
            merged: Vec::new(),
            last_report: None,
        }
    }

    /// Bound the cluster's snapshot residency at `budget` bytes total:
    /// every shard's cache shares `store` and gets an equal slice of the
    /// budget, so a detect over shards much larger than memory faults
    /// spilled chunks back page-at-a-time instead of holding every shard
    /// resident (see [`SnapshotCache::with_spill`]).
    pub fn with_spill(
        mut self,
        store: std::sync::Arc<dyn colstore::ChunkStore>,
        budget: usize,
    ) -> ShardedQualityServer {
        let per_shard = budget / self.shards.len().max(1);
        for s in &mut self.shards {
            s.cache = std::mem::take(&mut s.cache).with_spill(Arc::clone(&store), per_shard);
        }
        self
    }

    /// Sealed snapshot chunks evicted to the spill store across shards
    /// (0 without [`ShardedQualityServer::with_spill`]).
    pub fn spilled_chunks(&self) -> u64 {
        self.shards.iter().map(|s| s.cache.spilled_chunks()).sum()
    }

    /// Partition an existing table across `n_shards` shards, preserving
    /// every row's id (the columnar snapshot of each shard is built lazily
    /// at the first detect).
    pub fn partition(
        table: &Table,
        n_shards: usize,
        router: Box<dyn ShardRouter>,
    ) -> CfdResult<ShardedQualityServer> {
        let mut me =
            ShardedQualityServer::new(table.name(), table.schema().clone(), n_shards, router);
        let n = me.shards.len();
        for (id, row) in table.iter() {
            let sid = me.router.route(row, n);
            me.shards[sid]
                .table
                .insert_at(id, row.to_vec())
                .map_err(db_err)?;
        }
        me.next_row = table.arena_size() as u64;
        Ok(me)
    }

    /// Register the CFD set to detect (bound-checked against the schema
    /// now, so a later `detect` cannot fail on a bad rule). Replaces any
    /// previous set and drops every shard's partial memo and the
    /// coordinator's kept merges.
    pub fn register_cfds(&mut self, cfds: Vec<Cfd>) -> CfdResult<()> {
        for c in &cfds {
            c.bind(&self.schema)?;
        }
        for s in &mut self.shards {
            s.memo = vec![None; cfds.len()];
        }
        self.merged = std::iter::repeat_with(MergedCfd::default)
            .take(cfds.len())
            .collect();
        self.cfds = cfds;
        self.drop_report();
        Ok(())
    }

    /// The audited relation.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// The registered CFDs.
    pub fn cfds(&self) -> &[Cfd] {
        &self.cfds
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Live rows per shard — the placement balance.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.table.len()).collect()
    }

    /// Total live rows across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.table.len()).sum()
    }

    /// True when no shard holds a live row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read access to one shard's table (rows live under global ids).
    pub fn shard_table(&self, shard: usize) -> &Table {
        &self.shards[shard].table
    }

    /// The shard owning a row, if the row is live: the one shard table
    /// that holds it (ids are global, so at most one does).
    pub fn shard_of(&self, id: RowId) -> Option<usize> {
        self.shards.iter().position(|s| s.table.contains(id))
    }

    /// Total full snapshot encodes across shards (the steady-state probe:
    /// a detect→mutate→detect loop must keep this at one per shard).
    pub fn snapshot_encodes(&self) -> u64 {
        self.shards.iter().map(|s| s.cache.encodes()).sum()
    }

    /// Telemetry of the most recent `detect` call.
    pub fn last_detect_stats(&self) -> DetectStats {
        self.stats
    }

    // ---------------------------------------------------------- mutations

    /// Insert a row: the row is checked against the schema, the router
    /// picks the shard, the cluster assigns the next global id, and the
    /// shard's snapshot cache patches in lock-step. A rejected row uses
    /// up no id.
    pub fn insert(&mut self, row: Vec<Value>) -> CfdResult<RowId> {
        let id = RowId(self.next_row);
        self.place(id, row)?;
        self.next_row += 1;
        Ok(id)
    }

    /// Delete a row by global id; returns its values.
    pub fn delete(&mut self, id: RowId) -> CfdResult<Vec<Value>> {
        let sid = self.owning_shard(id)?;
        let shard = &mut self.shards[sid];
        let old = shard.table.delete(id).map_err(db_err)?;
        shard.cache.note_delete(&shard.table, id);
        self.drop_report();
        Ok(old)
    }

    /// Overwrite one cell by global id; returns the previous value.
    pub fn update_cell(&mut self, id: RowId, col: usize, value: Value) -> CfdResult<Value> {
        let sid = self.owning_shard(id)?;
        let shard = &mut self.shards[sid];
        let old = shard.table.update_cell(id, col, value).map_err(db_err)?;
        shard.cache.note_set_cell(&shard.table, id, col);
        self.drop_report();
        Ok(old)
    }

    /// Check `row` against the schema (a router may index any column), route
    /// it and store it under `id` on its shard, patching that shard's
    /// snapshot.
    fn place(&mut self, id: RowId, row: Vec<Value>) -> CfdResult<()> {
        let row = self.schema.check_row(row).map_err(db_err)?;
        let sid = self.router.route(&row, self.shards.len());
        let shard = &mut self.shards[sid];
        shard.table.insert_at(id, row).map_err(db_err)?;
        shard.cache.note_insert(&shard.table, id);
        self.drop_report();
        Ok(())
    }

    /// Forget the cached report: the data changed.
    pub(crate) fn drop_report(&mut self) {
        self.last_report = None;
    }

    fn owning_shard(&self, id: RowId) -> CfdResult<usize> {
        self.shard_of(id)
            .ok_or_else(|| db_err(DbError::BadRowId(id.0)))
    }

    // ---------------------------------------------------------- detection

    /// Scatter/gather detection: shard-local partial export (one shard
    /// after another) followed by the coordinator merge, which re-merges
    /// only the LHS keys whose shard groups changed. The result is
    /// `normalized()`-equal to single-node columnar detection over the
    /// union of the shards' rows.
    pub fn detect(&mut self) -> CfdResult<ViolationReport> {
        let bound: Vec<BoundCfd> = self
            .cfds
            .iter()
            .map(|c| c.bind(&self.schema))
            .collect::<CfdResult<_>>()?;
        let cols: Vec<Vec<usize>> = bound
            .iter()
            .map(|b| b.lhs_cols.iter().copied().chain([b.rhs_col]).collect())
            .collect();
        let needed = needed_columns(&bound);

        // Scatter: export shard 0, 1, … in order on the caller's thread;
        // the merge below is order-sensitive.
        let t0 = Instant::now();
        let scatter_span = obs::trace::span("cluster.scatter");
        let exports: Vec<ShardExport> = self
            .shards
            .iter_mut()
            .enumerate()
            .map(|(i, shard)| {
                let sp = obs::trace::span("shard.export");
                sp.attr("shard", i);
                shard.export(&bound, &cols, &needed)
            })
            .collect();
        drop(scatter_span);
        let scatter_ns = t0.elapsed().as_nanos() as u64;

        // Gather: fold each CFD's partials into its kept merge. Each pass
        // consumes one partial per shard (a partial skipped as unchanged
        // is consumed too), so merges consumed == partials exported.
        let t1 = Instant::now();
        let merge_span = obs::trace::span("cluster.merge");
        merge_span.attr("shards", exports.len());
        let mut report = ViolationReport::default();
        let exported_members: u64 = exports
            .iter()
            .flat_map(|e| &e.partials)
            .map(|p| p.n_members() as u64)
            .sum();
        let mut groups_remerged = 0;
        for (idx, merged) in self.merged.iter_mut().enumerate() {
            groups_remerged +=
                merged.merge(idx, exports.iter().map(|e| &e.partials[idx]), &mut report);
            cluster_obs().partials_merged.add(exports.len() as u64);
        }
        drop(merge_span);
        let merge_ns = t1.elapsed().as_nanos() as u64;
        let o = cluster_obs();
        o.detects.inc();
        o.scatter_ns.record(scatter_ns);
        o.merge_ns.record(merge_ns);
        o.groups_remerged.add(groups_remerged);
        self.stats = DetectStats {
            scatter_ns,
            merge_ns,
            exported_groups: exports
                .iter()
                .flat_map(|e| &e.partials)
                .map(|p| p.n_groups() as u64)
                .sum(),
            exported_members,
            partials_computed: exports.iter().map(|e| e.computed).sum(),
            partials_reused: exports.iter().map(|e| e.reused).sum(),
            groups_remerged,
        };
        self.last_report = Some(report.clone());
        Ok(report)
    }

    /// The most recent scatter/gather report, if no mutation has landed
    /// since it was computed.
    pub fn last_report(&self) -> Option<&ViolationReport> {
        self.last_report.as_ref()
    }

    /// Data auditor over the sharded relation: the Fig. 4 quality report,
    /// graded in code space from the merged scatter/gather report (runs a
    /// detect first if no report is cached). Rows keep their global ids,
    /// so this is the single-node audit of the same data, field for field.
    ///
    /// No `Value` is read or hashed:
    ///
    /// * **pass 1** marks each single-tuple violator, and each violating
    ///   group's members majority or minority from the merged value
    ///   counts the report carries ([`ReportBuilder::mark_report`]);
    /// * **pass 2** grades each shard's snapshot
    ///   ([`colstore::grade_snapshot`]), which the detect left fresh, so
    ///   nothing is encoded. It runs serially on the caller's thread.
    pub fn audit(&mut self) -> CfdResult<QualityReport> {
        let _sp = obs::trace::span("audit.report");
        if self.last_report.is_none() {
            self.detect()?;
        }
        let report = self.last_report.as_ref().expect("detect caches its report");
        let mut audit = ReportBuilder::new(&self.schema, self.next_row as usize, &self.cfds)?;
        audit.mark_report(report);
        // Pass 2: every shard's rows, graded under their global ids.
        let needed = needed_columns(audit.bound());
        for shard in &mut self.shards {
            let snap = shard.cache.snapshot_projected(&shard.table, &needed);
            grade_snapshot(&snap, &mut audit);
        }
        Ok(audit.finish(report))
    }

    /// Materialize the union of the shards as one table, every row under
    /// its global id — exactly the table a single-node server over the
    /// same data would hold. O(rows); used by conformance checks, not
    /// by detection (which exchanges compact per-group partials) or the
    /// auditor (which grades the shards' snapshots in code space).
    pub fn merged_table(&self) -> CfdResult<Table> {
        let mut rows: Vec<(RowId, &[Value])> =
            self.shards.iter().flat_map(|s| s.table.iter()).collect();
        rows.sort_unstable_by_key(|(id, _)| *id);
        let mut merged = Table::new(&self.relation, self.schema.clone());
        for (id, row) in rows {
            merged.insert_at(id, row.to_vec()).map_err(db_err)?;
        }
        Ok(merged)
    }
}

/// The unified-API view of the cluster. Repair is a first-class cluster
/// capability: [`ShardedQualityServer::repair`] (see `crate::repair`)
/// builds global equivalence classes over the detection exchange's merged
/// per-group partials and routes the resulting cell changes back to their
/// owning shards, so the trait's `repair()` reports the wire-friendly
/// summary like the single-node server's does.
impl QualityBackend for ShardedQualityServer {
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            backend: "sharded-cluster".into(),
            repair: true,
            streaming: false,
            shards: self.shards.len(),
            metrics: true,
            trace: true,
        }
    }

    fn register_cfds(&mut self, text: &str) -> CfdResult<usize> {
        ShardedQualityServer::register_cfds(self, parse_cfds(text)?)?;
        Ok(self.cfds.len())
    }

    fn insert(&mut self, row: Vec<Value>) -> CfdResult<RowId> {
        ShardedQualityServer::insert(self, row)
    }

    fn delete(&mut self, row: RowId) -> CfdResult<Vec<Value>> {
        ShardedQualityServer::delete(self, row)
    }

    fn update_cell(&mut self, row: RowId, col: usize, value: Value) -> CfdResult<Value> {
        ShardedQualityServer::update_cell(self, row, col, value)
    }

    fn detect(&mut self) -> CfdResult<ViolationReport> {
        ShardedQualityServer::detect(self)
    }

    fn audit(&mut self) -> CfdResult<QualityReport> {
        ShardedQualityServer::audit(self)
    }

    fn last_report(&self) -> Option<ViolationReport> {
        self.last_report.clone()
    }

    fn last_summary(&self) -> Option<ReportSummary> {
        self.last_report.as_ref().map(ReportSummary::of)
    }

    fn len(&self) -> usize {
        ShardedQualityServer::len(self)
    }

    fn repair(&mut self) -> CfdResult<RepairSummary> {
        let r = ShardedQualityServer::repair(self)?;
        Ok(RepairSummary {
            changes: r.changes.len(),
            iterations: r.iterations,
            total_cost: r.total_cost,
            residual: r.residual.len(),
        })
    }

    fn export_rows(&self) -> CfdResult<Vec<(RowId, Vec<Value>)>> {
        // Id order across shards — the union a single-node table would
        // export, so a cluster checkpoint restores onto any shard count.
        let mut rows: Vec<(RowId, Vec<Value>)> = self
            .shards
            .iter()
            .flat_map(|s| s.table.iter().map(|(id, r)| (id, r.to_vec())))
            .collect();
        rows.sort_unstable_by_key(|(id, _)| *id);
        Ok(rows)
    }

    fn restore_row(&mut self, id: RowId, row: Vec<Value>) -> CfdResult<()> {
        // Route exactly like a live insert, but keep the checkpointed id —
        // the router sees the same values, so the row lands on the shard
        // it lived on (for the same shard count; a different count is a
        // legitimate re-partition).
        self.place(id, row)?;
        self.next_row = self.next_row.max(id.0 + 1);
        Ok(())
    }

    fn next_row_id(&self) -> CfdResult<u64> {
        Ok(self.next_row)
    }

    fn restore_arena(&mut self, next: u64) -> CfdResult<()> {
        self.next_row = self.next_row.max(next);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{HashRouter, RoundRobinRouter};
    use api::{Mutation, MutationBatch};
    use colstore::detect_columnar;
    use datagen::dirty_customers;

    fn single_node(rows: usize, noise: f64, seed: u64) -> (Table, Vec<Cfd>) {
        let d = dirty_customers(rows, noise, seed);
        (d.db.table("customer").unwrap().clone(), d.cfds)
    }

    fn assert_cluster_matches(table: &Table, cfds: &[Cfd], mut c: ShardedQualityServer) {
        c.register_cfds(cfds.to_vec()).unwrap();
        let sharded = c.detect().unwrap().normalized();
        let single = detect_columnar(table, cfds).unwrap().normalized();
        assert_eq!(sharded, single);
    }

    #[test]
    fn partitioned_detection_matches_single_node() {
        let (t, cfds) = single_node(400, 0.06, 41);
        for n in [1usize, 2, 4, 7] {
            let c = ShardedQualityServer::partition(&t, n, Box::new(RoundRobinRouter::default()))
                .unwrap();
            assert_eq!(c.len(), t.len());
            assert_cluster_matches(&t, &cfds, c);
        }
    }

    #[test]
    fn hash_router_matches_too() {
        let (t, cfds) = single_node(300, 0.08, 42);
        // Key on CNT (column 1): variable-CFD groups over [CNT, ZIP] split
        // less, constant rules unaffected.
        let c = ShardedQualityServer::partition(&t, 4, Box::new(HashRouter::new(vec![1]))).unwrap();
        assert_cluster_matches(&t, &cfds, c);
    }

    #[test]
    fn routed_updates_keep_cluster_exact() {
        let (mut t, cfds) = single_node(200, 0.05, 43);
        let mut c =
            ShardedQualityServer::partition(&t, 3, Box::new(RoundRobinRouter::default())).unwrap();
        c.register_cfds(cfds.clone()).unwrap();
        // Warm the shard snapshots, then stream identical mutations into
        // both the cluster and the reference table.
        c.detect().unwrap();
        let encodes = c.snapshot_encodes();
        assert_eq!(encodes, 3, "one encode per shard");
        let ids = t.row_ids();
        for (i, &id) in ids.iter().take(12).enumerate() {
            let v = Value::str(format!("CITY{i}"));
            t.update_cell(id, 2, v.clone()).unwrap();
            c.update_cell(id, 2, v).unwrap();
        }
        let victim = ids[20];
        t.delete(victim).unwrap();
        c.delete(victim).unwrap();
        let donor: Vec<Value> = t.iter().next().unwrap().1.to_vec();
        let id_t = t.insert(donor.clone()).unwrap();
        let id_c = c.insert(donor).unwrap();
        assert_eq!(id_t, id_c, "global id allocation mirrors single-node");
        let sharded = c.detect().unwrap().normalized();
        let single = detect_columnar(&t, &cfds).unwrap().normalized();
        assert_eq!(sharded, single);
        assert_eq!(
            c.snapshot_encodes(),
            encodes,
            "routed mutations patch shard snapshots, never re-encode"
        );
    }

    #[test]
    fn unchanged_shards_reuse_their_partials() {
        let (t, cfds) = single_node(150, 0.05, 44);
        let mut c =
            ShardedQualityServer::partition(&t, 2, Box::new(RoundRobinRouter::default())).unwrap();
        c.register_cfds(cfds.clone()).unwrap();
        c.detect().unwrap();
        let first = c.last_detect_stats();
        assert_eq!(first.partials_computed, 2 * cfds.len() as u64);
        c.detect().unwrap();
        let second = c.last_detect_stats();
        assert_eq!(second.partials_computed, 0, "nothing changed");
        assert_eq!(second.partials_reused, 2 * cfds.len() as u64);
        // Touch one cell on one shard: only that shard's affected CFDs
        // recompute.
        let id = c.shard_table(0).iter().next().unwrap().0;
        let old = c.shard_table(0).get(id).unwrap()[2].clone();
        c.update_cell(id, 2, Value::str("ELSEWHERE")).unwrap();
        c.update_cell(id, 2, old).unwrap();
        c.detect().unwrap();
        let third = c.last_detect_stats();
        assert!(
            third.partials_reused >= cfds.len() as u64,
            "shard 1 untouched"
        );
        assert!(third.partials_computed < 2 * cfds.len() as u64);
    }

    #[test]
    fn register_cfds_resets_the_kept_merges() {
        let (t, cfds) = single_node(200, 0.06, 53);
        let mut c =
            ShardedQualityServer::partition(&t, 3, Box::new(HashRouter::new(vec![1]))).unwrap();
        c.register_cfds(cfds.clone()).unwrap();
        c.detect().unwrap();
        let cold = c.last_detect_stats().groups_remerged;
        assert!(cold > 0, "a cold detect merges every key");
        c.detect().unwrap();
        assert_eq!(c.last_detect_stats().groups_remerged, 0, "nothing changed");
        // The same number of rules, in another order: each index now names
        // another CFD, and the kept merges start over.
        let reversed: Vec<Cfd> = cfds.iter().rev().cloned().collect();
        c.register_cfds(reversed.clone()).unwrap();
        assert_eq!(
            c.detect().unwrap().normalized(),
            detect_columnar(&t, &reversed).unwrap().normalized()
        );
        assert_eq!(c.last_detect_stats().groups_remerged, cold);
    }

    #[test]
    fn apply_batch_matches_per_row_application() {
        let (t, cfds) = single_node(300, 0.05, 48);
        let mut batched =
            ShardedQualityServer::partition(&t, 3, Box::new(RoundRobinRouter::default())).unwrap();
        let mut stepped =
            ShardedQualityServer::partition(&t, 3, Box::new(RoundRobinRouter::default())).unwrap();
        batched.register_cfds(cfds.clone()).unwrap();
        stepped.register_cfds(cfds.clone()).unwrap();
        // Warm both so the batch lands on cached shard snapshots.
        batched.detect().unwrap();
        stepped.detect().unwrap();
        let encodes = batched.snapshot_encodes();
        let ids = t.row_ids();
        let donor: Vec<Value> = t.iter().next().unwrap().1.to_vec();
        let muts = vec![
            Mutation::Insert(donor.clone()),
            Mutation::SetCell {
                row: ids[5],
                col: 2,
                value: Value::str("BATCHCITY"),
            },
            Mutation::Delete(ids[9]),
            Mutation::Insert(donor),
            Mutation::SetCell {
                row: ids[11],
                col: 1,
                value: Value::str("ZZ"),
            },
        ];
        for m in muts.clone() {
            api::apply_mutation(&mut stepped, m).unwrap();
        }
        let out = batched
            .apply_batch(MutationBatch { mutations: muts })
            .unwrap();
        assert_eq!(out.applied, 5);
        assert_eq!(out.inserted.len(), 2);
        assert_eq!(
            batched.detect().unwrap().normalized(),
            stepped.detect().unwrap().normalized()
        );
        assert_eq!(
            batched.snapshot_encodes(),
            encodes,
            "the batch patched shard snapshots, never re-encoded"
        );
    }

    #[test]
    fn failed_batch_keeps_prefix_and_stays_coherent() {
        let (t, cfds) = single_node(60, 0.05, 49);
        let mut c =
            ShardedQualityServer::partition(&t, 2, Box::new(RoundRobinRouter::default())).unwrap();
        c.register_cfds(cfds.clone()).unwrap();
        c.detect().unwrap();
        let donor: Vec<Value> = t.iter().next().unwrap().1.to_vec();
        let err = c.apply_batch(MutationBatch {
            mutations: vec![
                Mutation::Insert(donor),
                Mutation::Delete(RowId(9_999)), // fails
                Mutation::Delete(RowId(0)),     // never reached
            ],
        });
        assert!(err.is_err());
        assert_eq!(c.len(), t.len() + 1, "prefix applied, suffix not");
        assert!(
            c.shard_of(RowId(0)).is_some(),
            "unreached delete not applied"
        );
        // Derived state is still coherent: detect equals single-node over
        // the actual (prefix-mutated) data.
        let mut reference = t.clone();
        let first: Vec<Value> = reference.iter().next().unwrap().1.to_vec();
        let id = reference.insert(first).unwrap();
        assert_eq!(id, RowId(t.arena_size() as u64));
        assert_eq!(
            c.detect().unwrap().normalized(),
            detect_columnar(&reference, &cfds).unwrap().normalized()
        );
    }

    #[test]
    fn rejected_insert_run_leaves_no_ghost_mapping() {
        // An insert whose run is rejected at apply time, followed in the
        // same batch by a delete of that id: the reconcile pass must not
        // resurrect an owner mapping for a row that never existed.
        let (t, cfds) = single_node(40, 0.0, 52);
        let mut c =
            ShardedQualityServer::partition(&t, 2, Box::new(RoundRobinRouter::default())).unwrap();
        c.register_cfds(cfds).unwrap();
        let ghost = RowId(t.arena_size() as u64);
        let err = c.apply_batch(MutationBatch {
            mutations: vec![
                Mutation::Insert(vec![Value::str("wrong-arity")]),
                Mutation::Delete(ghost),
            ],
        });
        assert!(err.is_err());
        assert!(
            c.shard_of(ghost).is_none(),
            "rejected insert must not leave an owner mapping"
        );
        assert!(c.delete(ghost).is_err(), "ghost row is not addressable");
        assert_eq!(c.len(), t.len());
        // Derived state is untouched: detection still matches single-node
        // over the original data.
        let cfds = c.cfds().to_vec();
        assert_eq!(
            c.detect().unwrap().normalized(),
            detect_columnar(&t, &cfds).unwrap().normalized()
        );
    }

    #[test]
    fn audit_matches_single_node_dirty_fraction() {
        let d = datagen::dirty_customers(400, 0.06, 50);
        let t = d.db.table("customer").unwrap();
        let mut c =
            ShardedQualityServer::partition(t, 4, Box::new(HashRouter::new(vec![1]))).unwrap();
        c.register_cfds(d.cfds.clone()).unwrap();
        let sharded = c.audit().unwrap();
        let single =
            audit::quality_report(t, &d.cfds, &detect_columnar(t, &d.cfds).unwrap()).unwrap();
        assert_eq!(sharded.tuples, single.tuples);
        assert_eq!(sharded.tuple_classes, single.tuple_classes);
        assert_eq!(sharded.dirty_fraction(), single.dirty_fraction());
    }

    #[test]
    fn last_report_tracks_mutations() {
        let (t, cfds) = single_node(50, 0.05, 51);
        let mut c =
            ShardedQualityServer::partition(&t, 2, Box::new(RoundRobinRouter::default())).unwrap();
        c.register_cfds(cfds).unwrap();
        assert!(c.last_report().is_none());
        c.detect().unwrap();
        assert!(c.last_report().is_some());
        let donor: Vec<Value> = t.iter().next().unwrap().1.to_vec();
        c.insert(donor).unwrap();
        assert!(
            c.last_report().is_none(),
            "mutation drops the cached report"
        );
    }

    #[test]
    fn unknown_row_errors() {
        let (t, _) = single_node(50, 0.0, 45);
        let mut c =
            ShardedQualityServer::partition(&t, 2, Box::new(RoundRobinRouter::default())).unwrap();
        assert!(c.delete(RowId(9_999)).is_err());
        assert!(c.update_cell(RowId(9_999), 0, Value::Null).is_err());
    }

    #[test]
    fn empty_cluster_detects_nothing() {
        let (t, cfds) = single_node(10, 0.0, 46);
        let mut c = ShardedQualityServer::new(
            "customer",
            t.schema().clone(),
            4,
            Box::new(HashRouter::default()),
        );
        c.register_cfds(cfds).unwrap();
        assert!(c.is_empty());
        assert!(c.detect().unwrap().is_empty());
    }
}
