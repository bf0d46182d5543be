//! The cleansing review of Fig. 5: compare a candidate repair with the
//! original data, list ranked alternatives for each modified value, accept
//! or override changes, and re-detect after an override to surface the
//! tuples a manual edit newly conflicts with.
//!
//! The session borrows the caller's [`SnapshotCache`]: an override patches
//! it one cell, and the re-detect ([`detect_cached`]) revisits only the
//! CFDs over the edited column — re-materializing the groups the edit
//! touched once their group state is seeded.

use cfd::{Cfd, CfdResult};
use colstore::{detect_cached, SnapshotCache};
use detect::ViolationReport;
use minidb::{Database, DbError, RowId, Table, Value};
use repair::{alternatives_for, Alternative, CellChange, WeightModel};

use crate::render::render_table;

fn db_err(e: DbError) -> cfd::CfdError {
    cfd::CfdError::Malformed(format!("review failed: {e}"))
}

/// One reviewed modification.
#[derive(Debug, Clone, PartialEq)]
pub struct ReviewEntry {
    /// Cell row.
    pub row: RowId,
    /// Cell column.
    pub col: usize,
    /// Attribute name.
    pub attribute: String,
    /// Original (pre-repair) value.
    pub original: Value,
    /// Value the repair proposed.
    pub proposed: Value,
    /// Review state.
    pub state: ReviewState,
}

/// State of one reviewed change.
#[derive(Debug, Clone, PartialEq)]
pub enum ReviewState {
    /// Untouched: the repair's proposal stands.
    Proposed,
    /// Explicitly accepted by the reviewer.
    Accepted,
    /// Overridden with a user-chosen value.
    Overridden(Value),
}

/// Interactive review session over a repaired database.
pub struct ReviewSession<'a> {
    db: &'a mut Database,
    snapshots: &'a mut SnapshotCache,
    relation: String,
    cfds: Vec<Cfd>,
    entries: Vec<ReviewEntry>,
    /// Detection over the data as currently reviewed.
    report: ViolationReport,
    weights: WeightModel,
}

impl<'a> ReviewSession<'a> {
    /// Open a review over `db.relation` given the repair's change list.
    /// `db` must already contain the repaired data; `snapshots` caches
    /// that relation's snapshot and is kept current by every override.
    pub fn new(
        db: &'a mut Database,
        snapshots: &'a mut SnapshotCache,
        relation: &str,
        cfds: &[Cfd],
        changes: &[CellChange],
    ) -> CfdResult<ReviewSession<'a>> {
        let table = db.table(relation).map_err(db_err)?;
        let schema = table.schema().clone();
        // Collapse multiple changes per cell: first old value, last new.
        let mut entries: Vec<ReviewEntry> = Vec::new();
        for c in changes {
            match entries
                .iter_mut()
                .find(|e| e.row == c.row && e.col == c.col)
            {
                Some(e) => e.proposed = c.new.clone(),
                None => entries.push(ReviewEntry {
                    row: c.row,
                    col: c.col,
                    attribute: schema.column(c.col).name.clone(),
                    original: c.old.clone(),
                    proposed: c.new.clone(),
                    state: ReviewState::Proposed,
                }),
            }
        }
        let report = detect_cached(snapshots, table, cfds)?;
        Ok(ReviewSession {
            db,
            snapshots,
            relation: relation.to_string(),
            cfds: cfds.to_vec(),
            entries,
            report,
            weights: WeightModel::uniform(),
        })
    }

    /// The reviewed modifications.
    pub fn entries(&self) -> &[ReviewEntry] {
        &self.entries
    }

    /// Current total violations (re-detected after every override).
    pub fn current_violations(&self) -> u64 {
        self.report.len() as u64
    }

    /// Ranked alternatives for entry `i` (Fig. 5's pop-up).
    pub fn alternatives(&self, i: usize, k: usize) -> CfdResult<Vec<Alternative>> {
        let e = self
            .entries
            .get(i)
            .ok_or_else(|| cfd::CfdError::Malformed(format!("no review entry {i}")))?;
        alternatives_for(
            self.db,
            &self.relation,
            &self.cfds,
            e.row,
            e.col,
            &e.original,
            &self.weights,
            k,
        )
    }

    /// Accept the proposed value of entry `i` (bookkeeping only — the value
    /// is already in place).
    pub fn accept(&mut self, i: usize) -> CfdResult<()> {
        let e = self
            .entries
            .get_mut(i)
            .ok_or_else(|| cfd::CfdError::Malformed(format!("no review entry {i}")))?;
        e.state = ReviewState::Accepted;
        Ok(())
    }

    /// Override entry `i` with `value`; applies the edit, patches the
    /// snapshot cache, re-detects, and returns the rows that now conflict
    /// with the edited tuple (the background re-detection of Fig. 5).
    pub fn override_with(&mut self, i: usize, value: Value) -> CfdResult<Vec<RowId>> {
        let (row, col) = {
            let e = self
                .entries
                .get(i)
                .ok_or_else(|| cfd::CfdError::Malformed(format!("no review entry {i}")))?;
            (e.row, e.col)
        };
        self.db
            .update_cell(&self.relation, row, col, value.clone())
            .map_err(db_err)?;
        let table = self.db.table(&self.relation).map_err(db_err)?;
        self.snapshots.note_set_cell(table, row, col);
        self.report = detect_cached(self.snapshots, table, &self.cfds)?;
        self.entries[i].state = ReviewState::Overridden(value);

        // Conflicting tuples with the edited row, from the fresh report.
        let mut conflicts: Vec<RowId> = self
            .report
            .violations
            .iter()
            .filter(|v| v.rows().contains(&row))
            .flat_map(|v| v.rows())
            .filter(|r| *r != row)
            .collect();
        conflicts.sort();
        conflicts.dedup();
        Ok(conflicts)
    }

    /// Render the review as a diff table: original vs proposed values with
    /// review state (the textual Fig. 5).
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .entries
            .iter()
            .map(|e| {
                let state = match &e.state {
                    ReviewState::Proposed => "proposed".to_string(),
                    ReviewState::Accepted => "accepted".to_string(),
                    ReviewState::Overridden(v) => format!("overridden -> {}", v.render()),
                };
                vec![
                    e.row.0.to_string(),
                    e.attribute.clone(),
                    e.original.render(),
                    format!("*{}*", e.proposed.render()),
                    state,
                ]
            })
            .collect();
        render_table(
            &[
                "row".into(),
                "attr".into(),
                "original".into(),
                "repaired".into(),
                "state".into(),
            ],
            &rows,
        )
    }
}

/// Produce a side-by-side diff of two table versions (original vs
/// repaired), restricted to rows that differ; changed cells are marked
/// `old => new`.
pub fn diff_tables(original: &Table, repaired: &Table) -> String {
    let schema = original.schema();
    let mut headers: Vec<String> = vec!["row".into()];
    headers.extend(schema.names().iter().map(|s| s.to_string()));
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (id, orig_row) in original.iter() {
        let Ok(rep_row) = repaired.get(id) else {
            let mut r = vec![id.0.to_string()];
            r.extend(
                orig_row
                    .iter()
                    .map(|v| format!("{} => (deleted)", v.render())),
            );
            rows.push(r);
            continue;
        };
        if orig_row == rep_row {
            continue;
        }
        let mut r = vec![id.0.to_string()];
        for (a, b) in orig_row.iter().zip(rep_row) {
            if a.strong_eq(b) {
                r.push(a.render());
            } else {
                r.push(format!("{} => {}", a.render(), b.render()));
            }
        }
        rows.push(r);
    }
    render_table(&headers, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::dirty_customers;
    use repair::{batch_repair, RepairConfig};

    #[test]
    fn review_lists_changes_and_alternatives() {
        let mut d = dirty_customers(150, 0.05, 61);
        let result =
            batch_repair(&mut d.db, "customer", &d.cfds, &RepairConfig::default()).unwrap();
        assert!(result.residual.is_empty());
        let n_changes = result.changes.len();
        let mut cache = SnapshotCache::new();
        let mut session =
            ReviewSession::new(&mut d.db, &mut cache, "customer", &d.cfds, &result.changes)
                .unwrap();
        assert!(!session.entries().is_empty());
        assert!(session.entries().len() <= n_changes);
        assert_eq!(session.current_violations(), 0);
        let alts = session.alternatives(0, 3).unwrap();
        assert!(alts.len() <= 3);
        session.accept(0).unwrap();
        assert_eq!(session.entries()[0].state, ReviewState::Accepted);
    }

    #[test]
    fn override_triggers_incremental_redetection() {
        let mut d = dirty_customers(150, 0.05, 62);
        let result =
            batch_repair(&mut d.db, "customer", &d.cfds, &RepairConfig::default()).unwrap();
        let mut cache = SnapshotCache::new();
        let mut session =
            ReviewSession::new(&mut d.db, &mut cache, "customer", &d.cfds, &result.changes)
                .unwrap();
        // Override the first change with an obviously wrong value: a bogus
        // country that breaks the CC → CNT rule or its group.
        let before = session.current_violations();
        let entry = session.entries()[0].clone();
        // Overriding CNT with junk re-violates [CC='44'] -> [CNT='UK'] etc.
        let conflicts = session.override_with(0, Value::str("Nowhere")).unwrap();
        let after = session.current_violations();
        assert!(
            after > before || !conflicts.is_empty() || entry.col == 0,
            "bad override must surface new conflicts (before={before}, after={after})"
        );
        assert!(matches!(
            session.entries()[0].state,
            ReviewState::Overridden(_)
        ));
    }

    #[test]
    fn diff_marks_changed_cells_only() {
        let d = dirty_customers(60, 0.05, 63);
        let original = d.db.table("customer").unwrap().clone();
        let mut db = d.db.clone();
        let result = batch_repair(&mut db, "customer", &d.cfds, &RepairConfig::default()).unwrap();
        let repaired = db.table("customer").unwrap();
        let s = diff_tables(&original, repaired);
        assert!(s.contains("=>"), "diff must mark changes:\n{s}");
        // Rows without changes are suppressed: row count in the diff is at
        // most the number of changed rows.
        let changed_rows: std::collections::HashSet<_> =
            result.changes.iter().map(|c| c.row).collect();
        let diff_rows = s.lines().filter(|l| l.starts_with("| ")).count() - 1; // minus header
        assert!(diff_rows <= changed_rows.len());
    }
}
