//! Tuple- and cell-level cleanliness classification (paper §3, "Data
//! quality report"):
//!
//! * **verified clean** — no violation, and at least one constant-RHS CFD
//!   *applies* to the tuple (its pattern matched and the value checked out);
//! * **probably clean** — no violation (but nothing positively vouched);
//! * **arguably clean** — involved only in multi-tuple violations where the
//!   bulk of the joint violators agrees with the tuple;
//! * **dirty** — everything else.

use std::collections::HashMap;

use cfd::{BoundCfd, Cfd, CfdResult};
use detect::violation::{ViolationKind, ViolationReport};
use minidb::{RowId, Table};

/// Cleanliness classes, strongest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CleanClass {
    /// Positively verified by a constant CFD and violation-free.
    VerifiedClean,
    /// Violation-free.
    ProbablyClean,
    /// In multi-tuple violations only, always on the majority side.
    ArguablyClean,
    /// Involved in a violation with no benefit of the doubt.
    Dirty,
}

impl CleanClass {
    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            CleanClass::VerifiedClean => "verified",
            CleanClass::ProbablyClean => "probably",
            CleanClass::ArguablyClean => "arguably",
            CleanClass::Dirty => "dirty",
        }
    }
}

/// Classification output: tuple classes and per-cell classes.
#[derive(Debug, Clone)]
pub struct Classification {
    /// Class per live tuple.
    pub tuples: HashMap<RowId, CleanClass>,
    /// Class per (tuple, column) for columns mentioned by any CFD; cells of
    /// unmentioned columns default to probably-clean.
    pub cells: HashMap<(RowId, usize), CleanClass>,
    /// Columns mentioned by at least one CFD.
    pub constrained_columns: Vec<usize>,
}

/// Classify all tuples and cells of `table` given a detection `report`.
pub fn classify(
    table: &Table,
    cfds: &[Cfd],
    report: &ViolationReport,
) -> CfdResult<Classification> {
    let bound: Vec<BoundCfd> = cfds
        .iter()
        .map(|c| c.bind(table.schema()))
        .collect::<CfdResult<_>>()?;

    let constrained = constrained_columns(&bound);

    // Pass 1: which rows/cells are implicated, and on which side of the
    // majority they sit.
    #[derive(Default, Clone, Copy)]
    struct Involvement {
        in_single: bool,
        in_multi_minority: bool,
        in_multi_majority: bool,
    }
    let mut row_inv: HashMap<RowId, Involvement> = HashMap::new();
    let mut cell_inv: HashMap<(RowId, usize), Involvement> = HashMap::new();

    for v in &report.violations {
        let b = &bound[v.cfd_idx];
        match &v.kind {
            ViolationKind::SingleTuple { row } => {
                row_inv.entry(*row).or_default().in_single = true;
                for &c in b.lhs_cols.iter().chain(std::iter::once(&b.rhs_col)) {
                    cell_inv.entry((*row, c)).or_default().in_single = true;
                }
            }
            ViolationKind::MultiTuple { rows, .. } => {
                let total = rows.len();
                let mut counts: HashMap<&minidb::Value, usize> = HashMap::new();
                for (_, val) in rows.iter() {
                    *counts.entry(val).or_default() += 1;
                }
                for (row, val) in rows.iter() {
                    let majority = counts[val] * 2 > total;
                    let inv = row_inv.entry(*row).or_default();
                    if majority {
                        inv.in_multi_majority = true;
                    } else {
                        inv.in_multi_minority = true;
                    }
                    for &c in b.lhs_cols.iter().chain(std::iter::once(&b.rhs_col)) {
                        let ci = cell_inv.entry((*row, c)).or_default();
                        if majority {
                            ci.in_multi_majority = true;
                        } else {
                            ci.in_multi_minority = true;
                        }
                    }
                }
            }
        }
    }

    // Pass 2: positive verification — a constant-RHS CFD applies cleanly.
    let mut tuples = HashMap::with_capacity(table.len());
    let mut cells = HashMap::new();
    for (id, row) in table.iter() {
        let mut verified_row = false;
        let mut verified_cells: Vec<usize> = Vec::new();
        for b in &bound {
            if b.cfd.rhs_pat.constant().is_some() && b.lhs_matches(row) && b.rhs_matches(row) {
                verified_row = true;
                verified_cells.push(b.rhs_col);
                verified_cells.extend(b.lhs_cols.iter().copied());
            }
        }
        let inv = row_inv.get(&id).copied().unwrap_or_default();
        let class = grade(
            (inv.in_single, inv.in_multi_minority, inv.in_multi_majority),
            verified_row,
        );
        tuples.insert(id, class);

        for &c in &constrained {
            let ci = cell_inv.get(&(id, c)).copied().unwrap_or_default();
            let cell_class = grade(
                (ci.in_single, ci.in_multi_minority, ci.in_multi_majority),
                verified_cells.contains(&c),
            );
            cells.insert((id, c), cell_class);
        }
    }

    Ok(Classification {
        tuples,
        cells,
        constrained_columns: constrained,
    })
}

/// Columns mentioned by at least one CFD, ascending.
pub(crate) fn constrained_columns(bound: &[BoundCfd]) -> Vec<usize> {
    let mut constrained: Vec<usize> = bound
        .iter()
        .flat_map(|b| b.lhs_cols.iter().copied().chain(std::iter::once(b.rhs_col)))
        .collect();
    constrained.sort_unstable();
    constrained.dedup();
    constrained
}

pub(crate) fn grade(
    (in_single, in_multi_minority, in_multi_majority): (bool, bool, bool),
    verified: bool,
) -> CleanClass {
    if in_single || in_multi_minority {
        CleanClass::Dirty
    } else if in_multi_majority {
        CleanClass::ArguablyClean
    } else if verified {
        CleanClass::VerifiedClean
    } else {
        CleanClass::ProbablyClean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd::parse::parse_cfds;
    use detect::detect_native;
    use minidb::{Schema, Table, Value};

    fn customer_table(rows: &[[&str; 7]]) -> Table {
        let schema = Schema::of_strings(&["NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"]);
        let mut t = Table::new("customer", schema);
        for r in rows {
            t.insert(r.iter().map(|v| Value::str(*v)).collect())
                .unwrap();
        }
        t
    }

    fn cfds() -> Vec<Cfd> {
        parse_cfds(
            "customer: [CNT, ZIP] -> [CITY]\n\
             customer: [CC='44'] -> [CNT='UK']",
        )
        .unwrap()
    }

    fn classify_table(t: &Table, cfds: &[Cfd]) -> Classification {
        let report = detect_native(t, cfds).unwrap();
        classify(t, cfds, &report).unwrap()
    }

    #[test]
    fn verified_vs_probably_clean() {
        let t = customer_table(&[
            // Matches [CC='44'] -> [CNT='UK'] and satisfies it: verified.
            ["a", "UK", "EDI", "EH4", "s", "44", "131"],
            // CC='01': the constant rule does not apply; merely probable.
            ["b", "US", "NYC", "012", "s", "01", "212"],
        ]);
        let c = classify_table(&t, &cfds());
        assert_eq!(c.tuples[&RowId(0)], CleanClass::VerifiedClean);
        assert_eq!(c.tuples[&RowId(1)], CleanClass::ProbablyClean);
    }

    #[test]
    fn majority_members_are_arguably_clean() {
        let t = customer_table(&[
            ["a", "UK", "EDI", "EH4", "s", "44", "131"],
            ["b", "UK", "EDI", "EH4", "s", "44", "131"],
            ["c", "UK", "LDN", "EH4", "s", "44", "131"],
        ]);
        let c = classify_table(&t, &cfds());
        assert_eq!(c.tuples[&RowId(0)], CleanClass::ArguablyClean);
        assert_eq!(c.tuples[&RowId(1)], CleanClass::ArguablyClean);
        assert_eq!(c.tuples[&RowId(2)], CleanClass::Dirty);
    }

    #[test]
    fn even_split_has_no_majority() {
        let t = customer_table(&[
            ["a", "UK", "EDI", "EH4", "s", "44", "131"],
            ["b", "UK", "LDN", "EH4", "s", "44", "131"],
        ]);
        let c = classify_table(&t, &cfds());
        assert_eq!(c.tuples[&RowId(0)], CleanClass::Dirty);
        assert_eq!(c.tuples[&RowId(1)], CleanClass::Dirty);
    }

    #[test]
    fn single_violation_is_dirty_and_marks_cells() {
        let t = customer_table(&[["a", "US", "NYC", "012", "s", "44", "212"]]);
        let c = classify_table(&t, &cfds());
        assert_eq!(c.tuples[&RowId(0)], CleanClass::Dirty);
        // Implicated cells: CC (5) and CNT (1).
        assert_eq!(c.cells[&(RowId(0), 5)], CleanClass::Dirty);
        assert_eq!(c.cells[&(RowId(0), 1)], CleanClass::Dirty);
        // CITY (2) is constrained by φ1 but not implicated here.
        assert_ne!(c.cells[&(RowId(0), 2)], CleanClass::Dirty);
    }

    #[test]
    fn constrained_columns_cover_all_cfd_attrs() {
        let t = customer_table(&[["a", "UK", "EDI", "EH4", "s", "44", "131"]]);
        let c = classify_table(&t, &cfds());
        // CNT(1), CITY(2), ZIP(3), CC(5)
        assert_eq!(c.constrained_columns, vec![1, 2, 3, 5]);
    }
}
