//! The data quality server: one facade wiring the six components of Fig. 1
//! over a [`minidb::Database`].

use std::sync::Arc;

use api::wire::ReportSummary;
use api::{BatchOutcome, Capabilities, Mutation, MutationBatch, QualityBackend, RepairSummary};
use audit::{quality_map, QualityMap, QualityReport};
use cfd::{CfdError, CfdResult, Consistency};
use colstore::{audit_cached, detect_cached, ChunkStore, MemChunkStore, SnapshotCache, TableDelta};
use detect::{detect_sql, ViolationReport};
use discovery::{mine_constant_cfds, mine_variable_cfds, CtaneConfig, MinerConfig};
use explore::{inspect_tuple, CfdRelevance, NavigationSession, ReviewSession};
use minidb::{Database, DbError, RowId, Schema, Table, Value};
use repair::{batch_repair_with_cache, incremental_repair, RepairConfig, RepairResult};

use crate::engine::ConstraintEngine;

fn db_err(e: DbError) -> CfdError {
    CfdError::Malformed(e.to_string())
}

/// Which detection engine the server uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorKind {
    /// SQL-generated queries executed on the embedded engine (the paper's
    /// code path).
    Sql,
    /// Columnar detection over a cached, epoch-versioned snapshot: the
    /// first detect encodes, repeat detects on an unchanged table do zero
    /// encode work, and a repair pass patches the snapshot in lock-step
    /// (the fastest engine at scale; see `colstore::lifecycle`).
    Columnar,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Detection engine.
    pub detector: DetectorKind,
    /// Repair configuration.
    pub repair: RepairConfig,
    /// Resident-byte budget for the columnar snapshot cache. When set,
    /// sealed snapshot chunks beyond the budget spill to `spill_store`
    /// (oldest chunks first) and detect faults them back page-at-a-time —
    /// a detect over a table ~10× the budget completes in budget-bounded
    /// residency. `None` keeps every chunk resident.
    pub mem_budget: Option<usize>,
    /// Where spilled chunks go. `None` with a budget set falls back to an
    /// in-memory store ([`MemChunkStore`] — residency accounting without
    /// disk I/O); the service tier passes a `durable::PagedStore` here.
    pub spill_store: Option<Arc<dyn ChunkStore>>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            // Columnar is the fastest engine at every measured scale
            // (`sdqbench`'s `detect_cold_ms` against `detect.native_ms` and
            // `sql_detect_ms`); the paper's SQL path stays one
            // `with_config` away.
            detector: DetectorKind::Columnar,
            repair: RepairConfig::default(),
            mem_budget: None,
            spill_store: None,
        }
    }
}

impl ServerConfig {
    /// The default configuration with `SDQ_MEM_BUDGET` (a byte size like
    /// `64m`) bounding snapshot residency. Request tracing reads its own
    /// `SDQ_TRACE` (see `obs::trace`).
    pub fn from_env() -> ServerConfig {
        ServerConfig {
            mem_budget: obs::env::bytes("SDQ_MEM_BUDGET"),
            ..ServerConfig::default()
        }
    }
}

/// The assembled Semandaq system for one relation.
pub struct QualityServer {
    /// The underlying database (public for power users; the server's
    /// methods keep detector state coherent).
    db: Database,
    relation: String,
    engine: ConstraintEngine,
    config: ServerConfig,
    last_report: Option<ViolationReport>,
    /// Epoch-versioned columnar snapshot of the audited relation, shared by
    /// `detect()` (under `DetectorKind::Columnar`) and `repair()`.
    snapshots: SnapshotCache,
}

impl QualityServer {
    /// Create a server over an existing database and target relation.
    pub fn new(db: Database, relation: &str) -> CfdResult<QualityServer> {
        db.table(relation).map_err(db_err)?;
        Ok(QualityServer {
            db,
            relation: relation.to_string(),
            engine: ConstraintEngine::new(),
            config: ServerConfig::default(),
            last_report: None,
            snapshots: SnapshotCache::new(),
        })
    }

    /// Create a server by importing CSV text ("connecting" a data source).
    pub fn from_csv(name: &str, schema: Schema, csv_text: &str) -> CfdResult<QualityServer> {
        let table = minidb::csv::table_from_csv(name, schema, csv_text).map_err(db_err)?;
        let mut db = Database::new();
        db.register_table(table);
        QualityServer::new(db, name)
    }

    /// Adjust the configuration.
    pub fn with_config(mut self, config: ServerConfig) -> QualityServer {
        if let Some(budget) = config.mem_budget {
            let store = config
                .spill_store
                .clone()
                .unwrap_or_else(MemChunkStore::shared);
            self.snapshots = std::mem::take(&mut self.snapshots).with_spill(store, budget);
        }
        self.config = config;
        self
    }

    /// Sealed snapshot chunks this server's cache has evicted to the
    /// spill store (0 without a `mem_budget`).
    pub fn spilled_chunks(&self) -> u64 {
        self.snapshots.spilled_chunks()
    }

    /// The constraint engine.
    pub fn engine(&self) -> &ConstraintEngine {
        &self.engine
    }

    /// Mutable access to the constraint engine. Drops the cached report:
    /// it may no longer describe the engine's rules.
    pub fn engine_mut(&mut self) -> &mut ConstraintEngine {
        self.last_report = None;
        &mut self.engine
    }

    /// The database (read access).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The audited relation.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// The audited table.
    pub fn table(&self) -> CfdResult<&Table> {
        self.db.table(&self.relation).map_err(db_err)
    }

    /// Register CFDs (textual notation); rejected if inconsistent.
    pub fn register_cfds(&mut self, text: &str) -> CfdResult<Consistency> {
        self.last_report = None;
        self.engine.register_text(text)
    }

    // --------------------------------------------------------- mutations
    //
    // The server's first-class mutation surface. Every write patches the
    // snapshot cache in lock-step with the table — mutating through these
    // methods (rather than behind the server's back via a database handle)
    // is what keeps the columnar detect path encode-free in steady state.

    /// Insert a row into the audited relation; returns its id. The cached
    /// snapshot is patched, not invalidated.
    pub fn insert(&mut self, row: Vec<Value>) -> CfdResult<RowId> {
        let id = self.db.insert_row(&self.relation, row).map_err(db_err)?;
        let table = self.db.table(&self.relation).map_err(db_err)?;
        self.snapshots.note_insert(table, id);
        self.last_report = None;
        Ok(id)
    }

    /// Delete a row from the audited relation; returns its former values.
    pub fn delete(&mut self, id: RowId) -> CfdResult<Vec<Value>> {
        let old = self.db.delete_row(&self.relation, id).map_err(db_err)?;
        let table = self.db.table(&self.relation).map_err(db_err)?;
        self.snapshots.note_delete(table, id);
        self.last_report = None;
        Ok(old)
    }

    /// Overwrite one cell of the audited relation; returns the previous
    /// value.
    pub fn update_cell(&mut self, id: RowId, col: usize, value: Value) -> CfdResult<Value> {
        let old = self
            .db
            .update_cell(&self.relation, id, col, value)
            .map_err(db_err)?;
        let table = self.db.table(&self.relation).map_err(db_err)?;
        self.snapshots.note_set_cell(table, id, col);
        self.last_report = None;
        Ok(old)
    }

    /// Apply a whole mutation batch in one pass: the table mutations are
    /// applied in order, then the snapshot cache replays them as a single
    /// batch ([`SnapshotCache::note_batch`]) — one epoch-gap check and one
    /// copy-on-write pass per touched column instead of per-row
    /// bookkeeping. On a failed mutation the applied prefix stays applied
    /// (and stays patched); the error is returned.
    pub fn apply_batch(&mut self, batch: MutationBatch) -> CfdResult<BatchOutcome> {
        let mut outcome = BatchOutcome::default();
        let mut deltas: Vec<TableDelta> = Vec::with_capacity(batch.len());
        let mut failed: Option<CfdError> = None;
        for m in batch.mutations {
            let applied = match m {
                Mutation::Insert(row) => self.db.insert_row(&self.relation, row).map(|id| {
                    outcome.inserted.push(id);
                    deltas.push(TableDelta::Inserted(id));
                }),
                Mutation::Delete(id) => self.db.delete_row(&self.relation, id).map(|_| {
                    deltas.push(TableDelta::Deleted(id));
                }),
                Mutation::SetCell { row, col, value } => self
                    .db
                    .update_cell(&self.relation, row, col, value)
                    .map(|_| {
                        deltas.push(TableDelta::CellSet(row, col));
                    }),
            };
            match applied {
                Ok(()) => outcome.applied += 1,
                Err(e) => {
                    failed = Some(db_err(e));
                    break;
                }
            }
        }
        let table = self.db.table(&self.relation).map_err(db_err)?;
        self.snapshots.note_batch(table, &deltas);
        self.last_report = None;
        match failed {
            None => Ok(outcome),
            Some(e) => Err(e),
        }
    }

    /// Discover constraints from the current data (treated as reference
    /// data) and register the consistent result: constant rules first,
    /// then variable rules.
    pub fn discover_constraints(
        &mut self,
        miner: &MinerConfig,
        ctane: &CtaneConfig,
    ) -> CfdResult<usize> {
        let table = self.table()?;
        let mut rules: Vec<cfd::Cfd> = mine_constant_cfds(table, miner)
            .into_iter()
            .map(|d| d.cfd)
            .collect();
        rules.extend(mine_variable_cfds(table, ctane).into_iter().map(|d| d.cfd));
        let n = rules.len();
        self.engine.register(rules)?;
        self.last_report = None;
        Ok(n)
    }

    /// Run the error detector; caches and returns the report.
    ///
    /// Under [`DetectorKind::Columnar`] the snapshot is cached across
    /// calls, keyed by the table's mutation epoch: repeat detects on an
    /// unchanged table perform zero snapshot encodes, and a `repair()`
    /// in between patches the snapshot instead of invalidating it.
    pub fn detect(&mut self) -> CfdResult<ViolationReport> {
        self.refresh().cloned()
    }

    /// [`Self::detect`] without the copy: caches the report and lends it.
    pub(crate) fn refresh(&mut self) -> CfdResult<&ViolationReport> {
        let report = match self.config.detector {
            DetectorKind::Sql => {
                let cfds = self.engine.cfds().to_vec();
                detect_sql(&mut self.db, &self.relation, &cfds)?
            }
            DetectorKind::Columnar => {
                // Disjoint field borrows: the cache is written while the
                // database and the rules are only read.
                let table = self.db.table(&self.relation).map_err(db_err)?;
                detect_cached(&mut self.snapshots, table, self.engine.cfds())?
            }
        };
        Ok(self.last_report.insert(report))
    }

    /// Number of full snapshot encodes the columnar path has performed —
    /// the steady-state probe (repeat detects on an unchanged table must
    /// not increase it).
    pub fn snapshot_encodes(&self) -> u64 {
        self.snapshots.encodes()
    }

    /// Encode every column of the relation into the snapshot cache, so a
    /// later rule set over any of its columns rides the cached snapshot.
    pub(crate) fn encode_all_columns(&mut self) -> CfdResult<()> {
        let table = self.db.table(&self.relation).map_err(db_err)?;
        self.snapshots.snapshot(table);
        Ok(())
    }

    /// The cached detection report, if any.
    pub fn last_report(&self) -> Option<&ViolationReport> {
        self.last_report.as_ref()
    }

    /// Run detection unless a report for the current data is cached.
    fn ensure_report(&mut self) -> CfdResult<()> {
        if self.last_report.is_none() {
            self.detect()?;
        }
        Ok(())
    }

    /// Data auditor: the Fig. 4 quality report over the cached detection
    /// report (detecting first if none is cached).
    ///
    /// The report is assembled in code space from the detection report's
    /// per-member value counts and the snapshot cache's codes
    /// ([`colstore::audit_cached`]), whichever detector produced it; no
    /// row's `Value`s are read. Under [`DetectorKind::Sql`] the first
    /// audit encodes the snapshot.
    pub fn audit(&mut self) -> CfdResult<QualityReport> {
        let _sp = obs::trace::span("audit.report");
        self.ensure_report()?;
        // Disjoint field borrows: the report and the table are read while
        // the cache is written; nothing is cloned.
        let report = self.last_report.as_ref().expect("detect caches its report");
        let table = self.db.table(&self.relation).map_err(db_err)?;
        audit_cached(&mut self.snapshots, table, self.engine.cfds(), report)
    }

    /// Data auditor: the Fig. 3 quality map.
    pub fn map(&mut self) -> CfdResult<QualityMap> {
        self.ensure_report()?;
        let report = self.last_report.as_ref().expect("detect caches its report");
        Ok(quality_map(self.table()?, report))
    }

    /// Data explorer: open the Fig. 2 navigation over the cached report.
    /// (Runs detection first if needed.)
    pub fn navigate(&mut self) -> CfdResult<(ViolationReport, Vec<cfd::Cfd>)> {
        self.ensure_report()?;
        let report = self.last_report.clone().expect("detect caches its report");
        Ok((report, self.engine.cfds().to_vec()))
    }

    /// Convenience for examples/tests: build a navigation session over
    /// caller-held report and constraints (borrow rules make the server
    /// unable to hand out a self-borrowing session).
    pub fn navigation<'a>(
        table: &'a Table,
        cfds: &'a [cfd::Cfd],
        report: &'a ViolationReport,
    ) -> CfdResult<NavigationSession<'a>> {
        NavigationSession::new(table, cfds, report)
    }

    /// Data explorer: reverse inspection of one tuple.
    pub fn inspect(&mut self, row: RowId) -> CfdResult<Vec<CfdRelevance>> {
        self.ensure_report()?;
        let report = self.last_report.as_ref().expect("detect caches its report");
        inspect_tuple(self.table()?, self.engine.cfds(), report, row)
    }

    /// Data cleanser: run batch repair; invalidates the cached report.
    ///
    /// The repair loop shares the server's snapshot cache: its per-round
    /// detection rides the patched snapshot, and on return the cache is
    /// synced to the repaired table — a following columnar `detect()`
    /// pays zero encode work.
    pub fn repair(&mut self) -> CfdResult<RepairResult> {
        let cfds = self.engine.cfds().to_vec();
        let result = batch_repair_with_cache(
            &mut self.db,
            &self.relation,
            &cfds,
            &self.config.repair,
            &mut self.snapshots,
        )?;
        self.last_report = None;
        Ok(result)
    }

    /// Repair-on-arrival for the data monitor: repair only `rows` against
    /// the rest of the relation ([`incremental_repair`]) and return the
    /// number of cell changes. Its cell writes patch the snapshot cache,
    /// and its residual is a columnar detect of the repaired table, so it
    /// becomes the cached report. An error leaves no report: cells may
    /// already have been written.
    pub(crate) fn repair_rows(&mut self, rows: &[RowId]) -> CfdResult<usize> {
        self.last_report = None;
        let result = incremental_repair(
            &mut self.db,
            &self.relation,
            self.engine.cfds(),
            rows,
            &self.config.repair,
            &mut self.snapshots,
        )?;
        self.last_report = Some(result.residual);
        Ok(result.changes.len())
    }

    /// Open a cleansing review session (Fig. 5) over a repair result. An
    /// override patches the server's snapshot cache, so the next detect
    /// re-encodes nothing.
    pub fn review<'a>(
        &'a mut self,
        changes: &[repair::CellChange],
    ) -> CfdResult<ReviewSession<'a>> {
        self.last_report = None; // review edits the data
        ReviewSession::new(
            &mut self.db,
            &mut self.snapshots,
            &self.relation,
            self.engine.cfds(),
            changes,
        )
    }

    /// Store the engine's pattern tableaux relationally in the server's
    /// own database (see [`ConstraintEngine::store_tableaux`]).
    pub fn store_tableaux(&mut self) -> CfdResult<Vec<String>> {
        // Disjoint field borrows: the engine is read while the database is
        // written, no clone needed.
        self.engine.store_tableaux(&mut self.db, &self.relation)
    }

    /// Take the server apart: its database, the audited relation's name
    /// and the registered rules.
    pub fn into_parts(self) -> (Database, String, Vec<cfd::Cfd>) {
        (self.db, self.relation, self.engine.cfds().to_vec())
    }
}

/// The unified-API view of the single-node server. Inherent methods with
/// richer return types (the [`Consistency`] verdict of `register_cfds`,
/// the borrowed `last_report`, the full [`RepairResult`] of `repair`)
/// stay available on the concrete type; `dyn QualityBackend` callers get
/// the wire-friendly forms.
impl QualityBackend for QualityServer {
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            backend: "quality-server".into(),
            repair: true,
            streaming: false,
            shards: 1,
            metrics: true,
            trace: true,
        }
    }

    fn register_cfds(&mut self, text: &str) -> CfdResult<usize> {
        let verdict = QualityServer::register_cfds(self, text)?;
        if !verdict.is_consistent() {
            return Err(CfdError::Malformed(
                "CFD set rejected: unsatisfiable together with the registered rules".into(),
            ));
        }
        Ok(self.engine.len())
    }

    fn insert(&mut self, row: Vec<Value>) -> CfdResult<RowId> {
        QualityServer::insert(self, row)
    }

    fn delete(&mut self, row: RowId) -> CfdResult<Vec<Value>> {
        QualityServer::delete(self, row)
    }

    fn update_cell(&mut self, row: RowId, col: usize, value: Value) -> CfdResult<Value> {
        QualityServer::update_cell(self, row, col, value)
    }

    fn apply_batch(&mut self, batch: MutationBatch) -> CfdResult<BatchOutcome> {
        QualityServer::apply_batch(self, batch)
    }

    fn detect(&mut self) -> CfdResult<ViolationReport> {
        QualityServer::detect(self)
    }

    fn audit(&mut self) -> CfdResult<QualityReport> {
        QualityServer::audit(self)
    }

    fn last_report(&self) -> Option<ViolationReport> {
        self.last_report.clone()
    }

    fn last_summary(&self) -> Option<ReportSummary> {
        self.last_report.as_ref().map(ReportSummary::of)
    }

    fn len(&self) -> usize {
        self.table().map(Table::len).unwrap_or(0)
    }

    fn repair(&mut self) -> CfdResult<RepairSummary> {
        let r = QualityServer::repair(self)?;
        Ok(RepairSummary {
            changes: r.changes.len(),
            iterations: r.iterations,
            total_cost: r.total_cost,
            residual: r.residual.len(),
        })
    }

    fn export_rows(&self) -> CfdResult<Vec<(RowId, Vec<Value>)>> {
        Ok(self
            .table()?
            .iter()
            .map(|(id, row)| (id, row.to_vec()))
            .collect())
    }

    fn restore_row(&mut self, id: RowId, row: Vec<Value>) -> CfdResult<()> {
        self.db
            .table_mut(&self.relation)
            .map_err(db_err)?
            .insert_at(id, row)
            .map_err(db_err)?;
        let table = self.db.table(&self.relation).map_err(db_err)?;
        self.snapshots.note_insert(table, id);
        self.last_report = None;
        Ok(())
    }

    fn next_row_id(&self) -> CfdResult<u64> {
        Ok(self.table()?.arena_size() as u64)
    }

    fn restore_arena(&mut self, next: u64) -> CfdResult<()> {
        self.db
            .table_mut(&self.relation)
            .map_err(db_err)?
            .reserve(next);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::dirty_customers;
    use detect::detect_native;

    fn server(rows: usize, noise: f64, seed: u64) -> QualityServer {
        let d = dirty_customers(rows, noise, seed);
        let mut s = QualityServer::new(d.db, "customer").unwrap();
        s.register_cfds(datagen::customer::CANONICAL_CFDS).unwrap();
        s
    }

    #[test]
    fn end_to_end_detect_audit_repair() {
        let mut s = server(200, 0.05, 71);
        let report = s.detect().unwrap();
        assert!(!report.is_empty());
        let audit = s.audit().unwrap();
        assert!(audit.dirty_fraction() > 0.0);
        let repair = s.repair().unwrap();
        assert!(repair.residual.is_empty());
        let after = s.detect().unwrap();
        assert!(after.is_empty());
        let audit2 = s.audit().unwrap();
        assert_eq!(audit2.dirty_fraction(), 0.0);
    }

    /// The server's report under `detector`, next to the native oracle's
    /// over the same table and rules.
    fn report_and_oracle(
        detector: DetectorKind,
        rows: usize,
        seed: u64,
    ) -> (ViolationReport, ViolationReport) {
        let mut s = server(rows, 0.06, seed).with_config(ServerConfig {
            detector,
            ..ServerConfig::default()
        });
        let report = s.detect().unwrap().normalized();
        let oracle = detect_native(s.table().unwrap(), s.engine.cfds()).unwrap();
        (report, oracle.normalized())
    }

    #[test]
    fn sql_detector_agrees_with_native_via_config() {
        let (report, oracle) = report_and_oracle(DetectorKind::Sql, 150, 72);
        assert_eq!(report, oracle);
    }

    #[test]
    fn sql_server_audits_in_code_space() {
        let mut s = server(150, 0.06, 73).with_config(ServerConfig {
            detector: DetectorKind::Sql,
            ..ServerConfig::default()
        });
        let got = s.audit().unwrap();
        let report = s.last_report().unwrap();
        let want = audit::quality_report(s.table().unwrap(), s.engine.cfds(), report).unwrap();
        assert!(got.dirty_fraction() > 0.0);
        assert_eq!(got, want);
    }

    #[test]
    fn columnar_detector_agrees_with_native_via_config() {
        let (report, oracle) = report_and_oracle(DetectorKind::Columnar, 200, 75);
        assert_eq!(report, oracle);
    }

    #[test]
    fn repeat_detects_on_unchanged_table_encode_one_snapshot() {
        let mut s = server(200, 0.06, 78).with_config(ServerConfig {
            detector: DetectorKind::Columnar,
            ..ServerConfig::default()
        });
        let a = s.detect().unwrap().normalized();
        assert_eq!(s.snapshot_encodes(), 1, "first detect pays the encode");
        let b = s.detect().unwrap().normalized();
        assert_eq!(
            s.snapshot_encodes(),
            1,
            "second detect on an unchanged table must do zero encode work"
        );
        assert_eq!(a, b);
        // Audit/map/inspect ride the cached report and stay encode-free too.
        s.audit().unwrap();
        s.map().unwrap();
        assert_eq!(s.snapshot_encodes(), 1);
    }

    #[test]
    fn repair_patches_the_server_snapshot_instead_of_invalidating() {
        let mut s = server(200, 0.05, 79).with_config(ServerConfig {
            detector: DetectorKind::Columnar,
            ..ServerConfig::default()
        });
        assert!(!s.detect().unwrap().is_empty());
        let encodes_before_repair = s.snapshot_encodes();
        let repair = s.repair().unwrap();
        assert!(repair.residual.is_empty());
        assert_eq!(
            s.snapshot_encodes(),
            encodes_before_repair,
            "repair rounds ride the patched snapshot"
        );
        assert!(s.detect().unwrap().is_empty());
        assert_eq!(
            s.snapshot_encodes(),
            encodes_before_repair,
            "post-repair detect reuses the repair-synced snapshot"
        );
    }

    #[test]
    fn review_override_patches_the_server_snapshot() {
        let mut s = server(200, 0.05, 82);
        assert!(!s.detect().unwrap().is_empty());
        let repair = s.repair().unwrap();
        let encodes = s.snapshot_encodes();
        {
            let mut review = s.review(&repair.changes).unwrap();
            review.override_with(0, Value::str("Nowhere")).unwrap();
        }
        let report = s.detect().unwrap().normalized();
        assert_eq!(
            s.snapshot_encodes(),
            encodes,
            "an override patches the cache, the next detect encodes nothing"
        );
        let oracle = detect_native(s.table().unwrap(), s.engine.cfds()).unwrap();
        assert_eq!(report, oracle.normalized());
        assert!(!report.is_empty(), "the junk override is detected");
    }

    #[test]
    fn columnar_pipeline_detect_audit_repair() {
        let mut s = server(150, 0.05, 76).with_config(ServerConfig {
            detector: DetectorKind::Columnar,
            ..ServerConfig::default()
        });
        assert!(!s.detect().unwrap().is_empty());
        let repair = s.repair().unwrap();
        assert!(repair.residual.is_empty());
        assert!(s.detect().unwrap().is_empty());
    }

    #[test]
    fn first_class_mutations_patch_the_snapshot() {
        // Default config is Columnar now: mutations through the server's
        // own surface must keep the cached snapshot in lock-step.
        let mut s = server(200, 0.0, 80);
        assert!(s.detect().unwrap().is_empty());
        assert_eq!(s.snapshot_encodes(), 1);
        let donor: Vec<Value> = s.table().unwrap().iter().next().unwrap().1.to_vec();
        let mut bad = donor.clone();
        bad[2] = Value::str("WRONGCITY");
        let id = s.insert(bad).unwrap();
        assert!(!s.detect().unwrap().is_empty(), "insert surfaced");
        let old = s.update_cell(id, 2, donor[2].clone()).unwrap();
        assert_eq!(old, Value::str("WRONGCITY"));
        assert!(s.detect().unwrap().is_empty(), "update surfaced");
        s.delete(id).unwrap();
        assert!(s.detect().unwrap().is_empty());
        assert_eq!(
            s.snapshot_encodes(),
            1,
            "server mutations patch the snapshot, never re-encode"
        );
    }

    #[test]
    fn batched_and_per_row_mutations_agree() {
        let mut batched = server(150, 0.05, 81);
        let mut stepped = server(150, 0.05, 81);
        let donor: Vec<Value> = batched.table().unwrap().iter().next().unwrap().1.to_vec();
        let ids = batched.table().unwrap().row_ids();
        let muts = vec![
            Mutation::Insert(donor.clone()),
            Mutation::SetCell {
                row: ids[3],
                col: 2,
                value: Value::str("ELSEWHERE"),
            },
            Mutation::Delete(ids[7]),
        ];
        for m in muts.clone() {
            api::apply_mutation(&mut stepped, m).unwrap();
        }
        let out = batched.apply_batch(muts.into()).unwrap();
        assert_eq!(out.applied, 3);
        assert_eq!(
            batched.detect().unwrap().normalized(),
            stepped.detect().unwrap().normalized()
        );
    }

    #[test]
    fn store_tableaux_without_engine_clone() {
        let mut s = server(50, 0.0, 77);
        let names = s.store_tableaux().unwrap();
        assert!(!names.is_empty());
        for n in &names {
            assert!(s.database().table(n).is_ok(), "tableau table {n} exists");
        }
    }

    #[test]
    fn discovery_from_clean_reference_data() {
        let d = dirty_customers(400, 0.0, 73);
        let mut s = QualityServer::new(d.db, "customer").unwrap();
        let n = s
            .discover_constraints(
                &MinerConfig {
                    min_support: 30,
                    max_lhs: 1,
                    relation: "customer".into(),
                },
                &CtaneConfig {
                    max_lhs: 1,
                    max_constants: 0,
                    min_support: 50,
                    relation: "customer".into(),
                },
            )
            .unwrap();
        assert!(n > 0);
        assert!(!s.engine().is_empty());
        // Clean reference data satisfies its own discovered rules.
        let r = s.detect().unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn inspect_explains_a_dirty_tuple() {
        let mut s = server(150, 0.08, 74);
        let report = s.detect().unwrap();
        let dirty_row = report.vio.rows().next().expect("some dirty tuple");
        let rel = s.inspect(dirty_row).unwrap();
        assert!(rel.iter().any(|r| r.violated));
    }
}
