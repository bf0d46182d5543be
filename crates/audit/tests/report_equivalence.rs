//! Property: `quality_report` (dense flag arrays, one pass over the
//! violations and one over the live rows) equals a report assembled from
//! `classify`'s per-tuple and per-cell maps, field for field.

use audit::{classify, quality_report, AttributeBreakdown, CleanClass, QualityReport};
use cfd::{parse::parse_cfds, Cfd};
use detect::{detect_native, ViolationReport};
use minidb::{Schema, Table, Value};
use proptest::prelude::*;

const COLS: [&str; 4] = ["A", "B", "C", "D"];
/// Per-column domain sizes: `A` is tiny and `B` wide, so `[A] -> [B]`
/// groups carry many distinct RHS values.
const DOMAIN: [u8; 4] = [2, 8, 3, 4];

/// The CFD pool: variable and constant rules, NULL-prone LHS and RHS
/// columns, and constant patterns no generated row can match.
fn pool() -> Vec<Cfd> {
    parse_cfds(
        "r: [A] -> [B]\n\
         r: [A, C] -> [D]\n\
         r: [B] -> [C]\n\
         r: [A='a0'] -> [C='c0']\n\
         r: [B='b1'] -> [D='d1']\n\
         r: [C='c1', D=_] -> [A='a1']\n\
         r: [A='zz'] -> [B='b0']\n\
         r: [C='c9'] -> [D=_]\n\
         r: [D='d0'] -> [B=_]",
    )
    .expect("pool parses")
}

/// `classify`'s maps counted into a report — the reference shape.
fn from_classification(t: &Table, cfds: &[Cfd], report: &ViolationReport) -> QualityReport {
    fn slot(c: CleanClass) -> usize {
        match c {
            CleanClass::VerifiedClean => 0,
            CleanClass::ProbablyClean => 1,
            CleanClass::ArguablyClean => 2,
            CleanClass::Dirty => 3,
        }
    }
    let c = classify(t, cfds, report).unwrap();
    let mut tuple_classes = [0usize; 4];
    for class in c.tuples.values() {
        tuple_classes[slot(*class)] += 1;
    }
    let n = t.len().max(1) as f64;
    let attributes = c
        .constrained_columns
        .iter()
        .map(|&col| {
            let mut counts = [0usize; 4];
            for (id, _) in t.iter() {
                counts[slot(c.cells[&(id, col)])] += 1;
            }
            AttributeBreakdown {
                col,
                name: t.schema().column(col).name.clone(),
                fractions: counts.map(|k| k as f64 / n),
            }
        })
        .collect();
    QualityReport {
        tuples: t.len(),
        tuple_classes,
        attributes,
        per_cfd: cfds
            .iter()
            .enumerate()
            .map(|(i, c)| (c.to_string(), report.per_cfd.get(&i).copied().unwrap_or(0)))
            .collect(),
        stats: audit::violation_stats(report),
    }
}

fn assert_equivalent(t: &Table, cfds: &[Cfd], report: &ViolationReport) {
    let fast = quality_report(t, cfds, report).unwrap();
    let reference = from_classification(t, cfds, report);
    assert_eq!(fast.tuples, reference.tuples);
    assert_eq!(fast.tuple_classes, reference.tuple_classes);
    assert_eq!(fast.attributes, reference.attributes);
    assert_eq!(fast.per_cfd, reference.per_cfd);
    assert_eq!(fast.stats, reference.stats);
    assert_eq!(fast, reference);
}

/// A cell: 0 is NULL, anything else a column-specific value.
fn cell(col: usize, raw: u8) -> Value {
    if raw == 0 {
        Value::Null
    } else {
        let letter = ["a", "b", "c", "d"][col];
        Value::str(format!("{letter}{}", (raw - 1) % DOMAIN[col]))
    }
}

/// Row cells plus a fate: 0 live, 1 deleted before detection (an arena
/// gap), 2 deleted after it (the report names a row that is gone).
type RowSpec = (Vec<u8>, u8);

fn arb_rows() -> impl Strategy<Value = Vec<RowSpec>> {
    let fate = prop_oneof![6 => Just(0u8), 1 => Just(1u8), 1 => Just(2u8)];
    proptest::collection::vec((proptest::collection::vec(0u8..10, 4), fate), 0..60)
}

fn arb_cfd_subset() -> impl Strategy<Value = Vec<Cfd>> {
    let pool = pool();
    let n = pool.len();
    proptest::collection::vec(0usize..n, 1..=n).prop_map(move |idxs| {
        let mut out: Vec<Cfd> = Vec::new();
        for i in idxs {
            if !out.contains(&pool[i]) {
                out.push(pool[i].clone());
            }
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dense_report_equals_classification_maps(
        rows in arb_rows(),
        cfds in arb_cfd_subset(),
    ) {
        let mut t = Table::new("r", Schema::of_strings(&COLS));
        let mut ids = Vec::new();
        for (cells, _) in &rows {
            let row = cells.iter().enumerate().map(|(c, &raw)| cell(c, raw)).collect();
            ids.push(t.insert(row).unwrap());
        }
        for (id, (_, fate)) in ids.iter().zip(&rows) {
            if *fate == 1 {
                t.delete(*id).unwrap();
            }
        }
        let report = detect_native(&t, &cfds).unwrap();
        assert_equivalent(&t, &cfds, &report);

        for (id, (_, fate)) in ids.iter().zip(&rows) {
            if *fate == 2 {
                t.delete(*id).unwrap();
            }
        }
        assert_equivalent(&t, &cfds, &report);
    }
}

#[test]
fn empty_relation_reports_zero_fractions() {
    let cfds = pool();
    let mut t = Table::new("r", Schema::of_strings(&COLS));
    let report = detect_native(&t, &cfds).unwrap();
    assert_equivalent(&t, &cfds, &report);

    // Empty again after every row is deleted: the arena is not.
    let id = t.insert(vec![cell(0, 1), cell(1, 1), cell(2, 1), cell(3, 1)]);
    t.delete(id.unwrap()).unwrap();
    let report = detect_native(&t, &cfds).unwrap();
    assert_equivalent(&t, &cfds, &report);
    let r = quality_report(&t, &cfds, &report).unwrap();
    assert_eq!(r.tuples, 0);
    assert!(r.attributes.iter().all(|a| a.fractions == [0.0; 4]));
}

#[test]
fn wide_group_has_no_majority_until_one_value_dominates() {
    let cfds = parse_cfds("r: [A] -> [B]").unwrap();
    let mut t = Table::new("r", Schema::of_strings(&COLS));
    for b in 1..=8 {
        t.insert(vec![cell(0, 1), cell(1, b), cell(2, 1), cell(3, 1)])
            .unwrap();
    }
    let report = detect_native(&t, &cfds).unwrap();
    assert_equivalent(&t, &cfds, &report);
    assert_eq!(
        quality_report(&t, &cfds, &report).unwrap().tuple_classes[3],
        8
    );

    for _ in 0..9 {
        t.insert(vec![cell(0, 1), cell(1, 1), cell(2, 1), cell(3, 1)])
            .unwrap();
    }
    let report = detect_native(&t, &cfds).unwrap();
    assert_equivalent(&t, &cfds, &report);
    let r = quality_report(&t, &cfds, &report).unwrap();
    assert_eq!(r.tuple_classes, [0, 0, 10, 7]);
}
