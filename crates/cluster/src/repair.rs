//! Sharded repair: cross-shard equivalence classes over the detection
//! exchange, making the cluster capability-complete.
//!
//! A shard-local repair is semantically wrong for the same reason
//! shard-local detection is: a variable CFD's group can span shards, look
//! clean on every one of them, and only conflict merged (the HOSP demo's
//! cross-shard `XR-9` conflict). Worse, repair must judge candidate fixes
//! *globally* — the cost-ordered target value of an equivalence class
//! depends on every member, wherever it lives. So the cluster repairs at
//! the coordinator, reusing the two machines the workspace already has:
//!
//! 1. **Detection per round is the scatter/gather exchange.** Each round
//!    of the repair loop calls [`ShardedQualityServer::detect`]: shards
//!    export their per-group partial states (memoized against column
//!    epochs, so later rounds only re-export what the previous round's
//!    edits touched), and the coordinator merges them into a report that
//!    is `normalized()`-equal to single-node detection.
//! 2. **Resolution is the shared plan/resolve core** of
//!    [`repair::rounds`]: equivalence classes ([`repair::EqClasses`]) are
//!    built over the merged report's `(row id, value)` members — rows keep
//!    their **global** ids on every shard, so class membership needs no
//!    translation — and target values are picked with the shared cost
//!    model. The classes are *global by construction*: two cells merged
//!    through a cross-shard group land in one class exactly as they would
//!    single-node.
//!
//! The resulting [`CellChange`]s route back to their owning shards
//! immediately, and each write patches its shard's cached snapshot
//! ([`SnapshotCache::note_set_cell`]), as the single node's repair store
//! does: every shard's snapshot stays in lock-step, and no round
//! re-encodes. Active-domain statistics are merged across the shards'
//! snapshot dictionaries ([`colstore::Column::value_counts`]), decoding
//! each distinct value once per shard.
//!
//! Because the per-round reports are `normalized()`-equal to single-node
//! detection and the resolve core is shared, the cluster's repair output —
//! the change list, its order, the costs, the repaired relation — is
//! *identical* to [`repair::batch_repair`] over the merged table, for
//! every router and shard count (`tests/sharded_repair.rs` pins this by
//! property).
//!
//! [`CellChange`]: repair::CellChange
//! [`SnapshotCache::note_set_cell`]: colstore::SnapshotCache::note_set_cell

use cfd::{BoundCfd, Cfd, CfdResult};
use colstore::detect::needed_columns;
use detect::fxhash::FxHashMap;
use detect::ViolationReport;
use minidb::{RowId, Schema, Value};
use repair::{repair_rounds, ColumnCounts, RepairConfig, RepairResult, RepairStore};

use crate::server::ShardedQualityServer;

impl ShardedQualityServer {
    /// Cross-shard BatchRepair under the default [`RepairConfig`] — see
    /// the module docs. The repaired cluster ends `normalized()`-equal to
    /// a single-node [`repair::batch_repair`] of the merged relation.
    pub fn repair(&mut self) -> CfdResult<RepairResult> {
        self.repair_with_config(&RepairConfig::default())
    }

    /// [`ShardedQualityServer::repair`] with an explicit configuration.
    pub fn repair_with_config(&mut self, cfg: &RepairConfig) -> CfdResult<RepairResult> {
        let cfds = self.cfds.clone();
        let bound: Vec<BoundCfd> = cfds
            .iter()
            .map(|c| c.bind(&self.schema))
            .collect::<CfdResult<_>>()?;
        // The same projection the scatter export builds per shard — so the
        // store's dictionary reads are cache hits on the snapshots the
        // round's detect just used, never fresh encodes.
        let needed = needed_columns(&bound);

        let mut store = ClusterStore {
            cluster: self,
            needed,
        };
        let result = repair_rounds(&mut store, &cfds, cfg)?;

        // Parity with the single-node server: repair invalidates the
        // cached report, the next detect/audit recomputes (riding the
        // still-fresh partial memos and the coordinator's kept merges).
        self.drop_report();
        Ok(result)
    }
}

/// The cluster's [`RepairStore`]: point reads and writes go to the
/// owning shard, each write patches that shard's snapshot, and detection
/// is the scatter/gather exchange.
struct ClusterStore<'a> {
    cluster: &'a mut ShardedQualityServer,
    /// Columns of the registered CFD set — the shard snapshots'
    /// projection.
    needed: Vec<usize>,
}

impl RepairStore for ClusterStore<'_> {
    fn schema(&self) -> CfdResult<Schema> {
        Ok(self.cluster.schema.clone())
    }

    fn len(&self) -> usize {
        self.cluster.len()
    }

    fn row(&self, id: RowId) -> Option<&[Value]> {
        self.cluster
            .shards
            .iter()
            .find_map(|s| s.table.get(id).ok())
    }

    fn set_cell(&mut self, id: RowId, col: usize, value: Value) -> CfdResult<Value> {
        self.cluster.update_cell(id, col, value)
    }

    fn detect(&mut self, _cfds: &[Cfd]) -> CfdResult<ViolationReport> {
        // The loop always detects the registered set (`repair_with_config`
        // passes it through).
        self.cluster.detect()
    }

    fn value_counts(&mut self, cols: &[usize]) -> CfdResult<Vec<(usize, ColumnCounts)>> {
        // Merge per-column tallies across shards, decoding each distinct
        // value once through its shard's snapshot dictionary. Counts are
        // additive, so the merged pool equals the single-node pool over
        // the union of the rows.
        let mut merged: Vec<(ColumnCounts, FxHashMap<Value, usize>)> =
            cols.iter().map(|_| Default::default()).collect();
        for shard in &mut self.cluster.shards {
            let snap = shard.cache.snapshot_projected(&shard.table, &self.needed);
            for (&c, (vals, index)) in cols.iter().zip(merged.iter_mut()) {
                for (v, n) in snap.column(c).value_counts() {
                    match index.get(&v) {
                        Some(&i) => vals[i].1 += n,
                        None => {
                            index.insert(v.clone(), vals.len());
                            vals.push((v, n));
                        }
                    }
                }
            }
        }
        Ok(cols
            .iter()
            .zip(merged)
            .map(|(&c, (vals, _))| (c, vals))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RoundRobinRouter;
    use datagen::dirty_customers;
    use repair::batch_repair;

    #[test]
    fn sharded_repair_converges_and_matches_single_node() {
        let d = dirty_customers(300, 0.05, 91);
        let table = d.db.table("customer").unwrap();
        let mut cluster =
            ShardedQualityServer::partition(table, 3, Box::new(RoundRobinRouter::default()))
                .unwrap();
        cluster.register_cfds(d.cfds.clone()).unwrap();
        let sharded = cluster.repair().unwrap();
        assert!(sharded.residual.is_empty());
        assert!(!sharded.changes.is_empty());
        assert!(cluster.detect().unwrap().is_empty());

        let mut db = d.db.clone();
        let single = batch_repair(&mut db, "customer", &d.cfds, &RepairConfig::default()).unwrap();
        assert_eq!(sharded.changes, single.changes, "identical change lists");
        assert_eq!(sharded.iterations, single.iterations);
    }

    #[test]
    fn repair_rounds_patch_shard_snapshots_without_reencodes() {
        let d = dirty_customers(400, 0.05, 92);
        let table = d.db.table("customer").unwrap();
        let mut cluster =
            ShardedQualityServer::partition(table, 4, Box::new(RoundRobinRouter::default()))
                .unwrap();
        cluster.register_cfds(d.cfds.clone()).unwrap();
        cluster.detect().unwrap();
        let encodes = cluster.snapshot_encodes();
        assert_eq!(encodes, 4, "one encode per shard");
        let r = cluster.repair().unwrap();
        assert!(r.residual.is_empty());
        assert_eq!(
            cluster.snapshot_encodes(),
            encodes,
            "repair rounds replay per-shard cell batches, never re-encode"
        );
        assert!(cluster.detect().unwrap().is_empty());
        assert_eq!(cluster.snapshot_encodes(), encodes);
    }

    #[test]
    fn trait_repair_reports_the_summary() {
        use api::QualityBackend;
        let d = dirty_customers(150, 0.05, 93);
        let table = d.db.table("customer").unwrap();
        let mut cluster =
            ShardedQualityServer::partition(table, 2, Box::new(RoundRobinRouter::default()))
                .unwrap();
        cluster.register_cfds(d.cfds.clone()).unwrap();
        assert!(cluster.capabilities().repair);
        let summary = QualityBackend::repair(&mut cluster).unwrap();
        assert_eq!(summary.residual, 0);
        assert!(summary.changes > 0);
        assert!(
            QualityBackend::last_report(&cluster).is_none(),
            "repair invalidates the cached report, like the single-node server"
        );
    }
}
