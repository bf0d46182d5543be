//! Native (hash-based) violation detection.
//!
//! This is the reference implementation of CFD semantics: a direct scan
//! that mirrors exactly what the generated SQL computes. It serves three
//! purposes: (1) cross-validation of the SQL path (they must agree on every
//! instance — see the property tests), (2) the oracle every other detection
//! path — columnar, cached, sharded, the data monitor — is tested against,
//! and (3) the baseline in the E1 benchmarks.

use std::collections::HashMap;

use cfd::{BoundCfd, Cfd, CfdResult};
use minidb::{RowId, Table, Value};

use crate::violation::ViolationReport;

/// Detect all violations of `cfds` in `table` with one scan per CFD.
pub fn detect_native(table: &Table, cfds: &[Cfd]) -> CfdResult<ViolationReport> {
    let bound: Vec<BoundCfd> = cfds
        .iter()
        .map(|c| c.bind(table.schema()))
        .collect::<CfdResult<_>>()?;
    let mut report = ViolationReport::default();
    for (idx, b) in bound.iter().enumerate() {
        detect_one(table, idx, b, &mut report);
    }
    Ok(report)
}

/// Detect violations of a single bound CFD, appending to `report`.
pub fn detect_one(table: &Table, cfd_idx: usize, b: &BoundCfd, report: &mut ViolationReport) {
    if b.cfd.rhs_pat.constant().is_some() {
        for (id, row) in table.iter() {
            if b.single_tuple_violation(row) {
                report.push_single(cfd_idx, id);
            }
        }
    } else {
        for (key, rows) in variable_groups(table, b) {
            if group_violates(&rows) {
                report.push_multi(cfd_idx, key, rows);
            }
        }
    }
}

/// Group the LHS-matching tuples of a variable CFD by their LHS key,
/// keeping only members with a non-NULL RHS value.
pub fn variable_groups(table: &Table, b: &BoundCfd) -> HashMap<Vec<Value>, Vec<(RowId, Value)>> {
    let mut groups: HashMap<Vec<Value>, Vec<(RowId, Value)>> = HashMap::new();
    for (id, row) in table.iter() {
        if !b.lhs_matches(row) {
            continue;
        }
        let rhs = row[b.rhs_col].clone();
        if rhs.is_null() {
            continue; // SQL COUNT(DISTINCT) ignores NULLs
        }
        groups.entry(b.lhs_key(row)).or_default().push((id, rhs));
    }
    groups
}

/// Does a group (non-NULL RHS members) constitute a violation?
pub fn group_violates(rows: &[(RowId, Value)]) -> bool {
    if rows.len() < 2 {
        return false;
    }
    let first = &rows[0].1;
    rows[1..].iter().any(|(_, v)| !v.strong_eq(first))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd::parse::parse_cfds;
    use minidb::Schema;

    fn customer_table(rows: &[[&str; 7]]) -> Table {
        let schema = Schema::of_strings(&["NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"]);
        let mut t = Table::new("customer", schema);
        for r in rows {
            t.insert(r.iter().map(|v| Value::str(*v)).collect())
                .unwrap();
        }
        t
    }

    fn paper_cfds() -> Vec<Cfd> {
        parse_cfds(
            "customer: [CNT, ZIP] -> [CITY]\n\
             customer: [CNT='UK', ZIP=_] -> [STR=_]\n\
             customer: [CC] -> [CNT]\n\
             customer: [CC='44'] -> [CNT='UK']",
        )
        .unwrap()
    }

    #[test]
    fn clean_table_has_no_violations() {
        let t = customer_table(&[
            ["mike", "UK", "EDI", "EH4", "High St", "44", "131"],
            ["rick", "US", "NYC", "012", "Oak Ave", "01", "212"],
        ]);
        let r = detect_native(&t, &paper_cfds()).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn detects_single_tuple_violation_of_phi4() {
        let t = customer_table(&[["joe", "US", "NYC", "012", "Oak", "44", "212"]]);
        let r = detect_native(&t, &paper_cfds()).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.per_cfd.get(&3), Some(&1));
        assert_eq!(r.vio_of(RowId(0)), 1);
    }

    #[test]
    fn detects_multi_tuple_fd_violation() {
        // Same (CNT, ZIP), different CITY: violates φ1.
        let t = customer_table(&[
            ["a", "UK", "EDI", "EH4", "High St", "44", "131"],
            ["b", "UK", "LDN", "EH4", "High St", "44", "131"],
        ]);
        let r = detect_native(&t, &paper_cfds()).unwrap();
        assert_eq!(r.per_cfd.get(&0), Some(&1));
        assert_eq!(r.vio_of(RowId(0)), 1);
        assert_eq!(r.vio_of(RowId(1)), 1);
    }

    #[test]
    fn conditional_scope_limits_variable_cfd() {
        // Same ZIP, different STR — only a violation for UK (φ2).
        let uk = customer_table(&[
            ["a", "UK", "EDI", "EH4", "High St", "44", "131"],
            ["b", "UK", "EDI", "EH4", "Main St", "44", "131"],
        ]);
        let us = customer_table(&[
            ["a", "US", "NYC", "012", "High St", "01", "212"],
            ["b", "US", "NYC", "012", "Main St", "01", "212"],
        ]);
        let cfds = paper_cfds();
        assert_eq!(detect_native(&uk, &cfds).unwrap().per_cfd.get(&1), Some(&1));
        assert_eq!(detect_native(&us, &cfds).unwrap().per_cfd.get(&1), None);
    }

    #[test]
    fn null_rhs_members_are_ignored() {
        let schema = Schema::of_strings(&["A", "B"]);
        let mut t = Table::new("r", schema);
        t.insert(vec![Value::str("k"), Value::str("x")]).unwrap();
        t.insert(vec![Value::str("k"), Value::Null]).unwrap();
        let cfds = parse_cfds("r: [A] -> [B]").unwrap();
        let r = detect_native(&t, &cfds).unwrap();
        assert!(r.is_empty(), "NULL must not conflict with 'x'");
        // But two distinct non-null values do violate.
        t.insert(vec![Value::str("k"), Value::str("y")]).unwrap();
        let r = detect_native(&t, &cfds).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn vio_counts_partner_cardinality() {
        // Group of 4 on φ1: cities {EDI×3, LDN×1}.
        let t = customer_table(&[
            ["a", "UK", "EDI", "EH4", "s", "44", "131"],
            ["b", "UK", "EDI", "EH4", "s", "44", "131"],
            ["c", "UK", "EDI", "EH4", "s", "44", "131"],
            ["d", "UK", "LDN", "EH4", "s", "44", "131"],
        ]);
        let cfds = parse_cfds("customer: [CNT, ZIP] -> [CITY]").unwrap();
        let r = detect_native(&t, &cfds).unwrap();
        assert_eq!(r.vio_of(RowId(0)), 1);
        assert_eq!(r.vio_of(RowId(3)), 3);
    }

    #[test]
    fn multiple_cfds_accumulate_vio() {
        // Row violates φ4 (CC=44 but CNT=US) and joins a φ1 violation.
        let t = customer_table(&[
            ["a", "US", "NYC", "Z1", "s", "44", "131"],
            ["b", "US", "CHI", "Z1", "s", "01", "131"],
        ]);
        let r = detect_native(&t, &paper_cfds()).unwrap();
        // Row 0: single (φ4) + multi partner (φ1) + multi partner (φ3 group
        // CC=44? no: different CC) …
        assert_eq!(r.vio_of(RowId(0)), 2);
        assert_eq!(r.vio_of(RowId(1)), 1);
    }
}
