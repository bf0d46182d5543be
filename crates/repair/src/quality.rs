//! Repair-quality scoring against ground truth (\[8\]'s evaluation
//! methodology; experiment E5): given the dirty, repaired, and clean
//! versions of a table, compute precision/recall at cell level — both
//! location-only (did we touch a truly dirty cell?) and value-exact (did we
//! restore the true value?).

use minidb::Table;

/// Precision/recall of a repair run.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairQuality {
    /// Cells that were truly dirty (dirty ≠ clean).
    pub error_cells: usize,
    /// Cells the repair changed (repaired ≠ dirty).
    pub changed_cells: usize,
    /// Changed cells that were truly dirty.
    pub located: usize,
    /// Changed cells restored to the exact clean value.
    pub exact: usize,
    /// `exact / changed` (1.0 when nothing changed).
    pub precision: f64,
    /// `exact / error_cells` (1.0 when nothing was dirty).
    pub recall: f64,
    /// Location-only precision: `located / changed`.
    pub precision_loc: f64,
    /// Location-only recall: `located_errors_fixed / error_cells` where a
    /// dirty cell counts as located when the repair changed it at all.
    pub recall_loc: f64,
}

impl RepairQuality {
    /// Harmonic mean of value-exact precision and recall.
    pub fn f1(&self) -> f64 {
        if self.precision + self.recall == 0.0 {
            0.0
        } else {
            2.0 * self.precision * self.recall / (self.precision + self.recall)
        }
    }
}

/// Score a repair. The three tables must share row ids (same generation
/// lineage); rows deleted during repair count their cells as changed but
/// never exact.
pub fn score_repair(dirty: &Table, repaired: &Table, clean: &Table) -> RepairQuality {
    let arity = clean.schema().arity();
    let mut error_cells = 0usize;
    let mut changed = 0usize;
    let mut located = 0usize;
    let mut exact = 0usize;
    for (id, dirty_row) in dirty.iter() {
        let clean_row = clean.get(id).ok();
        let rep_row = repaired.get(id).ok();
        for c in 0..arity {
            let d = &dirty_row[c];
            let cl = clean_row.map(|r| &r[c]);
            let rp = rep_row.map(|r| &r[c]);
            let is_error = cl.is_some_and(|v| !v.strong_eq(d));
            if is_error {
                error_cells += 1;
            }
            let is_changed = match rp {
                Some(v) => !v.strong_eq(d),
                None => true, // row deleted by repair
            };
            if is_changed {
                changed += 1;
                if is_error {
                    located += 1;
                }
                if let (Some(v), Some(cv)) = (rp, cl) {
                    if v.strong_eq(cv) && is_error {
                        exact += 1;
                    }
                }
            }
        }
    }
    let ratio = |num: usize, den: usize| {
        if den == 0 {
            1.0
        } else {
            num as f64 / den as f64
        }
    };
    RepairQuality {
        error_cells,
        changed_cells: changed,
        located,
        exact,
        precision: ratio(exact, changed),
        recall: ratio(exact, error_cells),
        precision_loc: ratio(located, changed),
        recall_loc: ratio(located, error_cells),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::{Schema, Value};

    fn t(rows: &[[&str; 2]]) -> Table {
        let mut t = Table::new("t", Schema::of_strings(&["a", "b"]));
        for r in rows {
            t.insert(r.iter().map(|v| Value::str(*v)).collect())
                .unwrap();
        }
        t
    }

    #[test]
    fn perfect_repair_scores_one() {
        let clean = t(&[["x", "y"], ["p", "q"]]);
        let dirty = t(&[["x", "BAD"], ["p", "q"]]);
        let repaired = clean.clone();
        let q = score_repair(&dirty, &repaired, &clean);
        assert_eq!(q.error_cells, 1);
        assert_eq!(q.changed_cells, 1);
        assert_eq!(q.exact, 1);
        assert_eq!(q.precision, 1.0);
        assert_eq!(q.recall, 1.0);
        assert_eq!(q.f1(), 1.0);
    }

    #[test]
    fn wrong_value_right_location() {
        let clean = t(&[["x", "y"]]);
        let dirty = t(&[["x", "BAD"]]);
        let repaired = t(&[["x", "ALSO_BAD"]]);
        let q = score_repair(&dirty, &repaired, &clean);
        assert_eq!(q.precision, 0.0);
        assert_eq!(q.precision_loc, 1.0);
        assert_eq!(q.recall, 0.0);
        assert_eq!(q.recall_loc, 1.0);
    }

    #[test]
    fn overzealous_repair_hurts_precision() {
        let clean = t(&[["x", "y"]]);
        let dirty = t(&[["x", "BAD"]]);
        // fixed the error and gratuitously changed the clean cell
        let repaired = t(&[["CHANGED", "y"]]);
        let q = score_repair(&dirty, &repaired, &clean);
        assert_eq!(q.changed_cells, 2);
        assert_eq!(q.exact, 1);
        assert_eq!(q.precision, 0.5);
        assert_eq!(q.recall, 1.0);
    }

    #[test]
    fn untouched_dirty_data_scores_zero_recall() {
        let clean = t(&[["x", "y"]]);
        let dirty = t(&[["x", "BAD"]]);
        let repaired = dirty.clone();
        let q = score_repair(&dirty, &repaired, &clean);
        assert_eq!(q.changed_cells, 0);
        assert_eq!(q.recall, 0.0);
        assert_eq!(q.precision, 1.0, "vacuous precision");
    }
}
