//! The Data Monitor (Fig. 1): watches updates and keeps quality from
//! degrading. Per the paper it "(1) invokes incremental detection … if the
//! database has not been cleansed; or (2) invokes incremental repair …
//! otherwise".
//!
//! The monitor is a [`QualityServer`] plus a [`MonitorMode`]. Every update
//! goes through the server's mutation surface, which patches its snapshot
//! cache — and, with it, the cache's per-CFD group state in code space —
//! and ends with the server's detect, [`colstore::detect_cached`]. That
//! detect replays the rules whose columns the update left alone and, for
//! each rule it touched, re-materializes only the LHS groups the update
//! changed (the first update over a rule rescans it once, seeding its
//! state). That detect is the incremental detection of \[3\] §7; the
//! report it caches answers [`DataMonitor::violations`],
//! [`DataMonitor::vio_of`] and [`DataMonitor::report`] until the next
//! update. Repair-on-arrival repairs the updated row against the rest of
//! the relation and replays the changed cells into the same cache, so a
//! steady stream never re-encodes the table.

use api::wire::ReportSummary;
use api::{Capabilities, Mutation, QualityBackend};
use audit::QualityReport;
use cfd::parse::parse_cfds;
use cfd::{Cfd, CfdResult};
use detect::ViolationReport;
use minidb::{Database, RowId, Value};

use crate::server::QualityServer;

/// The monitor's historical name for the shared mutation type: an update
/// against the monitored relation is exactly an [`api::Mutation`].
pub type Update = Mutation;

/// Monitoring mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorMode {
    /// Database not cleansed yet: track violations incrementally.
    DetectOnly,
    /// Database was cleansed: repair incoming deltas on arrival.
    RepairOnArrival,
}

/// Outcome of applying one update.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateOutcome {
    /// Row the update affected (the new id for inserts).
    pub row: Option<RowId>,
    /// Total violations after the update (and any repair).
    pub violations: u64,
    /// Cells changed by incremental repair (empty in detect-only mode).
    pub repairs: usize,
}

/// The data monitor: a quality server whose report is kept current under
/// the update stream.
pub struct DataMonitor {
    server: QualityServer,
    mode: MonitorMode,
}

impl DataMonitor {
    /// Start monitoring `relation` in `db` under `cfds`: one encode of
    /// every column, so later rule sets ride it too, then the first detect.
    pub fn new(
        db: Database,
        relation: &str,
        cfds: Vec<Cfd>,
        mode: MonitorMode,
    ) -> CfdResult<DataMonitor> {
        let mut server = QualityServer::new(db, relation)?;
        server.encode_all_columns()?;
        let mut monitor = DataMonitor { server, mode };
        monitor.set_cfds(cfds)?;
        Ok(monitor)
    }

    /// The report of the last update's detect. Construction, `set_cfds`
    /// and every update end with one, so it is only absent after an update
    /// whose repair or detect failed.
    fn current(&self) -> Option<&ViolationReport> {
        self.server.last_report()
    }

    /// Current total number of violations.
    pub fn violations(&self) -> u64 {
        self.current().map_or(0, |r| r.len() as u64)
    }

    /// Current `vio(t)` of a row.
    pub fn vio_of(&self, row: RowId) -> u64 {
        self.current().map_or(0, |r| r.vio.get(row))
    }

    /// The current violation report.
    pub fn report(&self) -> ViolationReport {
        self.current().cloned().unwrap_or_default()
    }

    /// Batch detection over the maintained snapshot (zero encode work in
    /// steady state; every fragment replays, since the last update's
    /// detect already brought the touched ones up to date). Equal to
    /// [`Self::report`].
    pub fn detect(&mut self) -> CfdResult<ViolationReport> {
        self.server.detect()
    }

    /// Number of full snapshot encodes since monitoring began (1 after
    /// construction; steady-state streams keep it there).
    pub fn snapshot_encodes(&self) -> u64 {
        self.server.snapshot_encodes()
    }

    /// The monitored database.
    pub fn database(&self) -> &Database {
        self.server.database()
    }

    /// Switch mode (e.g. after an explicit cleansing pass).
    pub fn set_mode(&mut self, mode: MonitorMode) {
        self.mode = mode;
    }

    /// The monitored CFD set.
    pub fn cfds(&self) -> &[Cfd] {
        self.server.engine().cfds()
    }

    /// Replace the monitored CFD set (no consistency gate) and detect
    /// under it. Every rule is bound against the schema first: a rule over
    /// an unknown column is an error and leaves the old rules and report
    /// in place.
    pub fn set_cfds(&mut self, cfds: Vec<Cfd>) -> CfdResult<()> {
        let schema = self.server.table()?.schema();
        for c in &cfds {
            c.bind(schema)?;
        }
        self.server.engine_mut().replace(cfds);
        self.server.refresh()?;
        Ok(())
    }

    /// Apply one update; returns the effect on data quality.
    pub fn apply(&mut self, update: Mutation) -> CfdResult<UpdateOutcome> {
        let row = match update {
            Update::Insert(values) => Some(self.server.insert(values)?),
            Update::Delete(id) => {
                self.server.delete(id)?;
                None
            }
            Update::SetCell { row, col, value } => {
                self.server.update_cell(row, col, value)?;
                Some(row)
            }
        };
        self.settle(row)
    }

    /// Detect after an update to `row` (`None` for a delete). In
    /// [`MonitorMode::RepairOnArrival`] a row the update left violating is
    /// repaired before the outcome is taken; the repair's residual, a
    /// detect of the repaired table, is then the current report.
    fn settle(&mut self, row: Option<RowId>) -> CfdResult<UpdateOutcome> {
        let mut report = self.server.refresh()?;
        let mut repairs = 0usize;
        if let (MonitorMode::RepairOnArrival, Some(id)) = (self.mode, row) {
            if report.vio.contains(id) {
                repairs = self.server.repair_rows(&[id])?;
                report = self
                    .server
                    .last_report()
                    .expect("repair_rows caches its residual");
            }
        }
        Ok(UpdateOutcome {
            row,
            violations: report.len() as u64,
            repairs,
        })
    }
}

/// The unified-API view of the streaming monitor: every trait mutation is
/// one server mutation settled exactly as [`DataMonitor::apply`] settles
/// it, so incremental detection (and, in [`MonitorMode::RepairOnArrival`],
/// on-arrival repair) runs per update — the batch entry point deliberately
/// keeps the per-update semantics and uses the trait's one-by-one loop.
/// Reads forward to the server.
impl QualityBackend for DataMonitor {
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            backend: "data-monitor".into(),
            repair: false,
            streaming: true,
            shards: 1,
            metrics: true,
            trace: true,
        }
    }

    fn register_cfds(&mut self, text: &str) -> CfdResult<usize> {
        self.set_cfds(parse_cfds(text)?)?;
        Ok(self.cfds().len())
    }

    fn insert(&mut self, row: Vec<Value>) -> CfdResult<RowId> {
        let id = self.server.insert(row)?;
        self.settle(Some(id))?;
        Ok(id)
    }

    fn delete(&mut self, row: RowId) -> CfdResult<Vec<Value>> {
        let old = self.server.delete(row)?;
        self.settle(None)?;
        Ok(old)
    }

    fn update_cell(&mut self, row: RowId, col: usize, value: Value) -> CfdResult<Value> {
        let old = self.server.update_cell(row, col, value)?;
        self.settle(Some(row))?;
        Ok(old)
    }

    fn detect(&mut self) -> CfdResult<ViolationReport> {
        self.server.detect()
    }

    fn audit(&mut self) -> CfdResult<QualityReport> {
        self.server.audit()
    }

    fn last_report(&self) -> Option<ViolationReport> {
        QualityBackend::last_report(&self.server)
    }

    fn last_summary(&self) -> Option<ReportSummary> {
        self.server.last_summary()
    }

    fn len(&self) -> usize {
        QualityBackend::len(&self.server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate_customers, CustomerConfig};
    use detect::detect_native;

    fn clean_db(rows: usize) -> (Database, Vec<Cfd>) {
        let t = generate_customers(&CustomerConfig {
            rows,
            ..CustomerConfig::default()
        });
        let mut db = Database::new();
        db.register_table(t);
        (db, datagen::canonical_cfds())
    }

    fn dirty_insert(db: &Database) -> Vec<Value> {
        let donor: Vec<Value> = db
            .table("customer")
            .unwrap()
            .iter()
            .next()
            .unwrap()
            .1
            .to_vec();
        let mut row = donor;
        row[2] = Value::str("WRONGCITY");
        row
    }

    #[test]
    fn detect_only_mode_tracks_violations() {
        let (db, cfds) = clean_db(100);
        let mut m = DataMonitor::new(db, "customer", cfds, MonitorMode::DetectOnly).unwrap();
        assert_eq!(m.violations(), 0);
        let row = dirty_insert(m.database());
        let out = m.apply(Update::Insert(row)).unwrap();
        assert!(out.violations > 0);
        assert_eq!(out.repairs, 0);
        // Deleting the offending row restores cleanliness.
        let id = out.row.unwrap();
        let out = m.apply(Update::Delete(id)).unwrap();
        assert_eq!(out.violations, 0);
    }

    #[test]
    fn repair_mode_fixes_dirty_arrivals() {
        let (db, cfds) = clean_db(100);
        let mut m =
            DataMonitor::new(db, "customer", cfds.clone(), MonitorMode::RepairOnArrival).unwrap();
        let row = dirty_insert(m.database());
        let out = m.apply(Update::Insert(row)).unwrap();
        assert_eq!(out.violations, 0, "arrival must be repaired");
        assert!(out.repairs > 0);
        // Cross-check against batch detection.
        let batch = detect_native(m.database().table("customer").unwrap(), &cfds).unwrap();
        assert!(batch.is_empty());
    }

    #[test]
    fn cell_updates_flow_through_the_monitor() {
        let (db, cfds) = clean_db(80);
        let ids = db.table("customer").unwrap().row_ids();
        let mut m = DataMonitor::new(db, "customer", cfds, MonitorMode::DetectOnly).unwrap();
        // Corrupt CNT of an existing row.
        let out = m
            .apply(Update::SetCell {
                row: ids[0],
                col: 1,
                value: Value::str("XX"),
            })
            .unwrap();
        assert!(out.violations > 0);
        assert!(m.vio_of(ids[0]) > 0);
    }

    #[test]
    fn snapshot_stays_in_lock_step_with_update_stream() {
        let (db, cfds) = clean_db(60);
        let ids = db.table("customer").unwrap().row_ids();
        let mut m =
            DataMonitor::new(db, "customer", cfds.clone(), MonitorMode::DetectOnly).unwrap();
        assert_eq!(m.snapshot_encodes(), 1, "construction encodes once");
        // A mixed stream: dirty insert, corrupting update, delete.
        let row = dirty_insert(m.database());
        let out = m.apply(Update::Insert(row)).unwrap();
        m.apply(Update::SetCell {
            row: ids[3],
            col: 2,
            value: Value::str("ELSEWHERE"),
        })
        .unwrap();
        m.apply(Update::Delete(out.row.unwrap())).unwrap();
        // Snapshot-backed detection agrees with the incremental state and
        // with batch detection, with zero further encodes.
        let snap_report = m.detect().unwrap().normalized();
        assert_eq!(snap_report, m.report().normalized());
        let batch = detect_native(m.database().table("customer").unwrap(), &cfds)
            .unwrap()
            .normalized();
        assert_eq!(snap_report, batch);
        assert_eq!(
            m.snapshot_encodes(),
            1,
            "stream was patched, not re-encoded"
        );
    }

    #[test]
    fn repair_on_arrival_keeps_snapshot_synced() {
        let (db, cfds) = clean_db(80);
        let mut m =
            DataMonitor::new(db, "customer", cfds.clone(), MonitorMode::RepairOnArrival).unwrap();
        for _ in 0..3 {
            let row = dirty_insert(m.database());
            let out = m.apply(Update::Insert(row)).unwrap();
            assert_eq!(out.violations, 0);
            assert!(out.repairs > 0, "repair-on-arrival fixed the insert");
        }
        // The repair edits were replayed into the snapshot: detection over
        // it is clean and never re-encoded.
        assert!(m.detect().unwrap().is_empty());
        assert_eq!(m.snapshot_encodes(), 1);
    }

    #[test]
    fn undoing_the_noise_restores_zero_violations() {
        let d = datagen::dirty_customers(120, 0.03, 31);
        let mut m = DataMonitor::new(d.db, "customer", d.cfds, MonitorMode::DetectOnly).unwrap();
        assert!(m.violations() > 0);
        for n in d.mask.iter().rev() {
            m.apply(Update::SetCell {
                row: n.row,
                col: n.col,
                value: n.original.clone(),
            })
            .unwrap();
        }
        assert_eq!(m.violations(), 0);
        assert!(m.report().is_empty());
        assert_eq!(m.snapshot_encodes(), 1);
    }

    #[test]
    fn monitor_report_matches_batch() {
        let (db, cfds) = clean_db(60);
        let mut m =
            DataMonitor::new(db, "customer", cfds.clone(), MonitorMode::DetectOnly).unwrap();
        for _ in 0..3 {
            let row = dirty_insert(m.database());
            m.apply(Update::Insert(row)).unwrap();
        }
        let inc = m.report().normalized();
        let batch = detect_native(m.database().table("customer").unwrap(), &cfds)
            .unwrap()
            .normalized();
        assert_eq!(inc, batch);
    }
}
