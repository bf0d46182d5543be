//! BatchRepair: the cost-greedy, equivalence-class repair of \[8\], bound to
//! a single-node `minidb` relation.
//!
//! Each iteration detects the current violations and resolves them by
//! attribute-value modifications:
//!
//! * **constant CFDs** — either assign the RHS constant (pinning the cell's
//!   class) or, when cheaper / forced by a conflicting pin, change a
//!   constant-patterned LHS cell so the pattern no longer applies;
//! * **variable CFDs** — merge the RHS cells of the violating group into
//!   one equivalence class and assign the weighted-cheapest target value;
//!   members whose class is pinned to a conflicting constant leave the
//!   group via an LHS break instead.
//!
//! The detect→resolve loop itself lives in [`crate::rounds`] (shared with
//! the sharded cluster's repair); this module supplies its single-node
//! [`RepairStore`]: detection over a cached, epoch-versioned columnar
//! snapshot, cell writes that patch the snapshot in lock-step, and
//! active-domain statistics counted straight over the snapshot's
//! dictionary codes — after the first encode, no repair phase walks the
//! heap table again. Reports are `normalized()`, so the resolution order —
//! and therefore the repair output — is identical to the historical
//! `detect_native`-per-round implementation.

pub use crate::rounds::{
    fresh_value, is_fresh, CellChange, ChangeReason, RepairConfig, RepairResult,
};

use cfd::{Cfd, CfdResult};
use colstore::{detect_cached, SnapshotCache};
use detect::ViolationReport;
use minidb::{Database, DbError, RowId, Schema, Table, Value};

use crate::rounds::{repair_rounds, ColumnCounts, RepairStore};

fn db_err(e: DbError) -> cfd::CfdError {
    cfd::CfdError::Malformed(format!("repair failed: {e}"))
}

/// The single-node [`RepairStore`]: one `minidb` relation plus the
/// caller's snapshot cache. Every cell write patches the cached snapshot
/// (`note_set_cell`), every detect rides it (`detect_cached`), and the
/// domain pool is counted over its dictionary codes — the store does zero
/// full-table scans after the initial encode.
struct TableStore<'a> {
    db: &'a mut Database,
    relation: &'a str,
    cache: &'a mut SnapshotCache,
}

impl TableStore<'_> {
    fn table(&self) -> CfdResult<&Table> {
        self.db.table(self.relation).map_err(db_err)
    }
}

impl RepairStore for TableStore<'_> {
    fn schema(&self) -> CfdResult<Schema> {
        Ok(self.table()?.schema().clone())
    }

    fn len(&self) -> usize {
        self.db.table(self.relation).map(Table::len).unwrap_or(0)
    }

    fn row(&self, id: RowId) -> Option<Vec<Value>> {
        self.db
            .table(self.relation)
            .ok()?
            .get(id)
            .ok()
            .map(<[Value]>::to_vec)
    }

    fn set_cell(&mut self, id: RowId, col: usize, value: Value) -> CfdResult<Value> {
        let old = self
            .db
            .update_cell(self.relation, id, col, value)
            .map_err(db_err)?;
        let table = self.db.table(self.relation).map_err(db_err)?;
        self.cache.note_set_cell(table, id, col);
        Ok(old)
    }

    fn detect(&mut self, cfds: &[Cfd]) -> CfdResult<ViolationReport> {
        let table = self.db.table(self.relation).map_err(db_err)?;
        detect_cached(self.cache, table, cfds)
    }

    fn value_counts(&mut self, cols: &[usize]) -> CfdResult<Vec<(usize, ColumnCounts)>> {
        // The loop detects before it pools domains, so the cache already
        // holds a snapshot covering the CFD columns (cols ⊆ that
        // projection) at the current epoch — this is a cache hit, never an
        // encode.
        let table = self.db.table(self.relation).map_err(db_err)?;
        let snap = self.cache.snapshot_projected(table, cols);
        Ok(cols
            .iter()
            .map(|&c| (c, snap.column(c).value_counts()))
            .collect())
    }
}

/// Run BatchRepair on `db.relation` under `cfds` with a private snapshot
/// cache (see [`batch_repair_with_cache`] to share one with a caller that
/// also detects over the relation, e.g. `QualityServer`).
pub fn batch_repair(
    db: &mut Database,
    relation: &str,
    cfds: &[Cfd],
    cfg: &RepairConfig,
) -> CfdResult<RepairResult> {
    let mut cache = SnapshotCache::new();
    batch_repair_with_cache(db, relation, cfds, cfg, &mut cache)
}

/// [`batch_repair`] against a caller-owned [`SnapshotCache`]: each round's
/// detection runs over the cached snapshot, patched cell-by-cell as the
/// resolvers edit the table — `detect_native` is off the main path. On
/// return the cache is synced to the repaired table, so a following
/// columnar detect pays zero encode work.
pub fn batch_repair_with_cache(
    db: &mut Database,
    relation: &str,
    cfds: &[Cfd],
    cfg: &RepairConfig,
    cache: &mut SnapshotCache,
) -> CfdResult<RepairResult> {
    db.table(relation).map_err(db_err)?; // fail early on a bad relation
    let mut store = TableStore {
        db,
        relation,
        cache,
    };
    repair_rounds(&mut store, cfds, cfg)
}

/// Convenience: repair and then verify over the repair-synced snapshot;
/// returns the result plus the post-repair violation total (violation
/// records: single rows + violating groups). The verification detect rides
/// the same cache the repair loop patched, so it pays zero encode work —
/// no fresh full-table rescan.
pub fn repair_and_verify(
    db: &mut Database,
    relation: &str,
    cfds: &[Cfd],
    cfg: &RepairConfig,
) -> CfdResult<(RepairResult, u64)> {
    let mut cache = SnapshotCache::new();
    let result = batch_repair_with_cache(db, relation, cfds, cfg, &mut cache)?;
    let report = detect_cached(&mut cache, db.table(relation).map_err(db_err)?, cfds)?;
    Ok((result, report.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::dirty_customers;
    use detect::detect_native;

    #[test]
    fn repairs_dirty_customers_to_zero_violations() {
        let mut d = dirty_customers(300, 0.05, 77);
        let (result, remaining) =
            repair_and_verify(&mut d.db, "customer", &d.cfds, &RepairConfig::default()).unwrap();
        assert_eq!(remaining, 0, "residual: {:?}", result.residual.violations);
        assert!(result.residual.is_empty());
        assert!(!result.changes.is_empty());
    }

    #[test]
    fn clean_data_is_untouched() {
        let mut d = dirty_customers(200, 0.0, 5);
        let r = batch_repair(&mut d.db, "customer", &d.cfds, &RepairConfig::default()).unwrap();
        assert!(r.changes.is_empty());
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn repair_is_deterministic() {
        let run = || {
            let mut d = dirty_customers(150, 0.06, 99);
            batch_repair(&mut d.db, "customer", &d.cfds, &RepairConfig::default()).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.changes, b.changes);
    }

    #[test]
    fn repair_rounds_do_zero_extra_encodes() {
        // Every phase of a repair — the per-round detects, the domain
        // pooling, the final residual check and the verify — must ride the
        // one snapshot encoded up front; cell edits patch it in lock-step.
        let mut d = dirty_customers(400, 0.05, 88);
        let mut cache = SnapshotCache::new();
        detect_cached(&mut cache, d.db.table("customer").unwrap(), &d.cfds).unwrap();
        assert_eq!(cache.encodes(), 1, "warm-up detect pays the one encode");
        let r = batch_repair_with_cache(
            &mut d.db,
            "customer",
            &d.cfds,
            &RepairConfig::default(),
            &mut cache,
        )
        .unwrap();
        assert!(r.residual.is_empty());
        assert!(!r.changes.is_empty());
        assert_eq!(
            cache.encodes(),
            1,
            "repair rounds (incl. active-domain pooling) must not re-encode"
        );
        // The post-repair verify rides the synced cache too.
        let report = detect_cached(&mut cache, d.db.table("customer").unwrap(), &d.cfds).unwrap();
        assert!(report.is_empty());
        assert_eq!(cache.encodes(), 1, "verify is encode-free");
    }

    #[test]
    fn similarity_cost_prefers_typo_fixes() {
        // A UK group where one street has a one-char typo: the cheap target
        // is the majority (correct) spelling.
        let mut db = Database::new();
        db.execute("CREATE TABLE customer (NAME TEXT, CNT TEXT, CITY TEXT, ZIP TEXT, STR TEXT, CC TEXT, AC TEXT)").unwrap();
        db.execute(
            "INSERT INTO customer VALUES \
             ('a','UK','EDI','EH4','Mayfield Rd','44','131'), \
             ('b','UK','EDI','EH4','Mayfield Rd','44','131'), \
             ('c','UK','EDI','EH4','Mayfeild Rd','44','131')",
        )
        .unwrap();
        let cfds = cfd::parse::parse_cfds("customer: [CNT='UK', ZIP=_] -> [STR=_]").unwrap();
        let r = batch_repair(&mut db, "customer", &cfds, &RepairConfig::default()).unwrap();
        assert!(r.residual.is_empty());
        assert_eq!(r.changes.len(), 1);
        assert_eq!(r.changes[0].new, Value::str("Mayfield Rd"));
        assert_eq!(r.changes[0].row, RowId(2));
    }

    #[test]
    fn constant_rule_pins_rhs_and_repairs() {
        let mut db = Database::new();
        db.execute("CREATE TABLE customer (NAME TEXT, CNT TEXT, CITY TEXT, ZIP TEXT, STR TEXT, CC TEXT, AC TEXT)").unwrap();
        db.execute("INSERT INTO customer VALUES ('a','US','EDI','EH4','High St','44','131')")
            .unwrap();
        let cfds = cfd::parse::parse_cfds("customer: [CC='44'] -> [CNT='UK']").unwrap();
        let r = batch_repair(&mut db, "customer", &cfds, &RepairConfig::default()).unwrap();
        assert!(r.residual.is_empty());
        assert_eq!(r.changes.len(), 1);
        // Cheapest fix: CNT US → UK (distance 1/2) beats changing CC.
        assert_eq!(r.changes[0].new, Value::str("UK"));
        assert!(matches!(
            r.changes[0].reason,
            ChangeReason::ConstantRhs { .. }
        ));
    }

    #[test]
    fn conflicting_constant_rules_break_lhs() {
        // Both rules fire on the same tuple with different RHS constants;
        // resolution must modify an LHS attribute instead of ping-ponging.
        let mut db = Database::new();
        db.execute("CREATE TABLE r (A TEXT, B TEXT, C TEXT)")
            .unwrap();
        db.execute("INSERT INTO r VALUES ('a1','b1','x')").unwrap();
        // also provide alternative domain values
        db.execute("INSERT INTO r VALUES ('a2','b2','y')").unwrap();
        let cfds = cfd::parse::parse_cfds(
            "r: [A='a1'] -> [C='c1']\n\
             r: [B='b1'] -> [C='c2']",
        )
        .unwrap();
        let r = batch_repair(&mut db, "r", &cfds, &RepairConfig::default()).unwrap();
        assert!(
            r.residual.is_empty(),
            "residual: {:?}",
            r.residual.violations
        );
        // Verify final state satisfies both rules.
        let final_report = detect_native(db.table("r").unwrap(), &cfds).unwrap();
        assert!(final_report.is_empty());
    }

    #[test]
    fn ablation_similarity_off_changes_choices() {
        let build = || {
            let mut db = Database::new();
            db.execute("CREATE TABLE customer (NAME TEXT, CNT TEXT, CITY TEXT, ZIP TEXT, STR TEXT, CC TEXT, AC TEXT)").unwrap();
            db.execute(
                "INSERT INTO customer VALUES \
                 ('a','UK','EDI','EH4','Mayfield Rd','44','131'), \
                 ('b','UK','EDI','EH4','Mayfeild Rd','44','131')",
            )
            .unwrap();
            db
        };
        let cfds = cfd::parse::parse_cfds("customer: [CNT='UK', ZIP=_] -> [STR=_]").unwrap();
        let mut with_sim = build();
        let r1 = batch_repair(&mut with_sim, "customer", &cfds, &RepairConfig::default()).unwrap();
        let mut no_sim = build();
        let cfg = RepairConfig {
            use_similarity: false,
            ..RepairConfig::default()
        };
        let r2 = batch_repair(&mut no_sim, "customer", &cfds, &cfg).unwrap();
        // Both repair fully…
        assert!(r1.residual.is_empty() && r2.residual.is_empty());
        // …but the similarity-aware run is strictly cheaper than 0/1 cost.
        assert!(r1.total_cost < r2.total_cost);
    }
}
