//! One Damerau–Levenshtein run per distinct (old, new) pair. Repair prices
//! every class member against every candidate value and then each applied
//! change again; the run's distance memo must collapse those to one
//! distance computation per distinct pair. This binary holds one test, so
//! the process-global `repair_distance_evals_total` delta is this repair's
//! alone.

use cfd::parse::parse_cfds;
use minidb::{Database, RowId, Schema, Value};
use repair::{batch_repair, CellChange, ChangeReason, RepairConfig};

#[test]
fn a_group_repair_runs_one_distance_per_distinct_pair() {
    let mut db = Database::new();
    db.create_table("r", Schema::of_strings(&["K", "V"]))
        .unwrap();
    let vals = [
        "Main St", "Mian St", "Main St", "Oak Ave", "Mian St", "Main St",
    ];
    for v in vals {
        db.insert_row("r", vec![Value::str("k"), Value::str(v)])
            .unwrap();
    }
    let cfds = parse_cfds("r: [K] -> [V]").unwrap();

    let evals = obs::counter("repair_distance_evals_total");
    let before = evals.get();
    let result = batch_repair(&mut db, "r", &cfds, &RepairConfig::default()).unwrap();
    let ran = evals.get() - before;

    assert!(result.residual.is_empty());
    // Majority value wins: "Mian St" is one transposition from "Main St"
    // (1/7), "Oak Ave" six edits (6/7).
    let merge = |row: u64, old: &str, cost: f64| CellChange {
        row: RowId(row),
        col: 1,
        old: Value::str(old),
        new: Value::str("Main St"),
        cost,
        reason: ChangeReason::VariableMerge { cfd_idx: 0 },
        iteration: 0,
    };
    assert_eq!(
        result.changes,
        vec![
            merge(1, "Mian St", 1.0 / 7.0),
            merge(3, "Oak Ave", 6.0 / 7.0),
            merge(4, "Mian St", 1.0 / 7.0),
        ]
    );
    // 3 distinct values × 3 candidates; the three applied changes hit the
    // memo. Pricing every member separately would run 6 × 3 + 3 = 21.
    assert!(ran <= 9, "{ran} distance runs for 9 distinct pairs");
}
