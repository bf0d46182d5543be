//! Property: the detection engines (generated SQL on the embedded engine,
//! merged or per pattern; native hash-based; columnar) compute identical
//! violation sets on arbitrary instances — every code path is exactly the
//! CFD semantics.

mod common;

use common::{arb_cfds, arb_table, db_with};
use proptest::prelude::*;
use semandaq::colstore::detect_columnar;
use semandaq::detect::{detect_native, detect_sql, detect_sql_per_pattern};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sql_equals_native_on_random_instances(
        table in arb_table(40),
        cfds in arb_cfds(),
    ) {
        let native = detect_native(&table, &cfds).unwrap().normalized();
        let mut db = db_with(table);
        let sql = detect_sql(&mut db, "r", &cfds).unwrap().normalized();
        prop_assert_eq!(native, sql);
    }

    #[test]
    fn columnar_equals_native_on_random_instances(
        table in arb_table(40),
        cfds in arb_cfds(),
    ) {
        let native = detect_native(&table, &cfds).unwrap().normalized();
        let col = detect_columnar(&table, &cfds).unwrap().normalized();
        prop_assert_eq!(native, col);
    }

    #[test]
    fn all_four_engines_agree(
        table in arb_table(30),
        cfds in arb_cfds(),
    ) {
        let native = detect_native(&table, &cfds).unwrap().normalized();
        let col = detect_columnar(&table, &cfds).unwrap().normalized();
        let mut db = db_with(table);
        let sql = detect_sql(&mut db, "r", &cfds).unwrap().normalized();
        let per_pat = detect_sql_per_pattern(&mut db, "r", &cfds)
            .unwrap()
            .normalized();
        prop_assert_eq!(&native, &sql);
        prop_assert_eq!(&native, &per_pat);
        prop_assert_eq!(&native, &col);
    }

    #[test]
    fn per_pattern_sql_equals_merged_sql(
        table in arb_table(30),
        cfds in arb_cfds(),
    ) {
        let mut db = db_with(table);
        let merged = detect_sql(&mut db, "r", &cfds).unwrap().normalized();
        let per_pat = detect_sql_per_pattern(&mut db, "r", &cfds)
            .unwrap()
            .normalized();
        prop_assert_eq!(merged, per_pat);
    }

    #[test]
    fn vio_tallies_are_consistent_with_violations(
        table in arb_table(40),
        cfds in arb_cfds(),
    ) {
        let report = detect_native(&table, &cfds).unwrap();
        // vio(t) > 0 iff t appears in some violation.
        let mut involved: std::collections::HashSet<_> = Default::default();
        for v in &report.violations {
            for r in v.rows() {
                involved.insert(r);
            }
        }
        for (row, vio) in report.vio.iter() {
            prop_assert_eq!(vio > 0, involved.contains(&row));
        }
        for r in &involved {
            prop_assert!(report.vio_of(*r) > 0);
        }
    }

    #[test]
    fn detection_is_monotone_under_tuple_removal(
        table in arb_table(25),
        cfds in arb_cfds(),
    ) {
        // Removing a tuple never *creates* violations for the remaining
        // tuples: the remaining violation set is a subset w.r.t. rows.
        let before = detect_native(&table, &cfds).unwrap();
        let mut smaller = table.clone();
        let Some(victim) = smaller.row_ids().into_iter().next() else {
            return Ok(());
        };
        smaller.delete(victim).unwrap();
        let after = detect_native(&smaller, &cfds).unwrap();
        // Every violation in `after` must correspond to a violation in
        // `before` once the victim is ignored (groups can only shrink).
        for v in &after.violations {
            let rows_after = v.rows();
            let matched = before.violations.iter().any(|w| {
                w.cfd_idx == v.cfd_idx
                    && rows_after.iter().all(|r| w.rows().contains(r))
            });
            prop_assert!(matched, "violation appeared out of nowhere: {v:?}");
        }
    }
}

#[test]
fn customers_equivalence_at_scale() {
    let d = semandaq::datagen::dirty_customers(2_000, 0.05, 11);
    let t = d.db.table("customer").unwrap();
    let native = detect_native(t, &d.cfds).unwrap().normalized();
    let col = detect_columnar(t, &d.cfds).unwrap().normalized();
    assert_eq!(native, col);
    let mut db = d.db.clone();
    let sql = detect_sql(&mut db, "customer", &d.cfds)
        .unwrap()
        .normalized();
    assert_eq!(native, sql);
}

/// Edge case: every cell NULL. Constants never match NULL, wildcards do;
/// NULL RHS members are invisible to COUNT(DISTINCT) — so nothing violates,
/// on every engine.
#[test]
fn all_null_instance_is_clean_on_every_engine() {
    use semandaq::minidb::{Schema, Table, Value};
    let mut t = Table::new("r", Schema::of_strings(&common::COLS));
    for _ in 0..8 {
        t.insert(vec![Value::Null, Value::Null, Value::Null, Value::Null])
            .unwrap();
    }
    let cfds = common::cfd_pool();
    let native = detect_native(&t, &cfds).unwrap();
    assert!(
        native.is_empty(),
        "all-NULL data cannot violate: {native:?}"
    );
    let col = detect_columnar(&t, &cfds).unwrap().normalized();
    let mut db = db_with(t);
    let sql = detect_sql(&mut db, "r", &cfds).unwrap().normalized();
    let native = native.normalized();
    assert_eq!(native, col);
    assert_eq!(native, sql);
}

/// Edge case: the whole table is one LHS group (single-valued LHS columns),
/// first agreeing and then with one dissenting RHS.
#[test]
fn single_row_group_edge_case_on_every_engine() {
    use semandaq::minidb::{Schema, Table, Value};
    let cfds = semandaq::cfd::parse::parse_cfds("r: [A] -> [B]").unwrap();
    let mut t = Table::new("r", Schema::of_strings(&["A", "B"]));
    // One row: a group of one can never violate a variable CFD.
    t.insert(vec![Value::str("k"), Value::str("v")]).unwrap();
    for engine_report in [
        detect_native(&t, &cfds).unwrap(),
        detect_columnar(&t, &cfds).unwrap(),
    ] {
        assert!(engine_report.is_empty(), "singleton group must be clean");
    }
    // Grow the single group until it disagrees: all engines see one
    // violation covering exactly the non-NULL members.
    t.insert(vec![Value::str("k"), Value::str("v")]).unwrap();
    t.insert(vec![Value::str("k"), Value::Null]).unwrap();
    t.insert(vec![Value::str("k"), Value::str("w")]).unwrap();
    let native = detect_native(&t, &cfds).unwrap().normalized();
    assert_eq!(native.len(), 1);
    let col = detect_columnar(&t, &cfds).unwrap().normalized();
    let mut db = db_with(t);
    let sql = detect_sql(&mut db, "r", &cfds).unwrap().normalized();
    assert_eq!(native, col);
    assert_eq!(native, sql);
}
