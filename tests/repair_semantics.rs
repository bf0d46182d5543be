//! Properties of the repair engine: repaired instances satisfy Σ, repair
//! is deterministic, incremental repair agrees with the clean-data
//! consensus, and the cost model behaves as [8] describes.

mod common;

use common::{arb_cfds, arb_table, db_with};
use proptest::prelude::*;
use semandaq::cfd::{satisfiability::check_consistency, DomainSpec};
use semandaq::datagen::dirty_customers;
use semandaq::detect::detect_native;
use semandaq::minidb::Value;
use semandaq::repair::{batch_repair, incremental_repair, score_repair, RepairConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn repair_yields_sigma_satisfying_instance(
        table in arb_table(30),
        cfds in arb_cfds(),
    ) {
        // Only consistent constraint sets are repairable in principle.
        let verdict = check_consistency(&cfds, &DomainSpec::all_infinite()).unwrap();
        prop_assume!(verdict.is_consistent());
        let mut db = db_with(table);
        let result = batch_repair(&mut db, "r", &cfds, &RepairConfig::default()).unwrap();
        prop_assert!(
            result.residual.is_empty(),
            "residual violations: {:?}",
            result.residual.violations
        );
        let after = detect_native(db.table("r").unwrap(), &cfds).unwrap();
        prop_assert!(after.is_empty());
    }

    #[test]
    fn repair_cost_is_nonnegative_and_bounded_by_changes(
        table in arb_table(25),
        cfds in arb_cfds(),
    ) {
        let verdict = check_consistency(&cfds, &DomainSpec::all_infinite()).unwrap();
        prop_assume!(verdict.is_consistent());
        let mut db = db_with(table);
        let result = batch_repair(&mut db, "r", &cfds, &RepairConfig::default()).unwrap();
        prop_assert!(result.total_cost >= 0.0);
        // Normalized distances are ≤ 1 and weights are 1, so the cost of a
        // run never exceeds its change count.
        prop_assert!(result.total_cost <= result.changes.len() as f64 + 1e-9);
    }
}

#[test]
fn repair_never_touches_unconstrained_columns() {
    let w = dirty_customers(300, 0.08, 21);
    let mut db = w.db;
    let result = batch_repair(&mut db, "customer", &w.cfds, &RepairConfig::default()).unwrap();
    assert!(result.residual.is_empty());
    // NAME (col 0) and AC (col 6) are not mentioned by the canonical CFDs.
    for c in &result.changes {
        assert!(
            c.col != 0 && c.col != 6,
            "unconstrained column changed: {c:?}"
        );
    }
}

#[test]
fn repair_quality_reasonable_at_moderate_noise() {
    let w = dirty_customers(1_000, 0.05, 22);
    let dirty = w.db.table("customer").unwrap().clone();
    let mut db = w.db;
    let result = batch_repair(&mut db, "customer", &w.cfds, &RepairConfig::default()).unwrap();
    assert!(result.residual.is_empty());
    let q = score_repair(&dirty, db.table("customer").unwrap(), &w.clean);
    // Calibrated bands, not paper numbers. Two structural ceilings apply:
    // ZIP errors (~1/5 of the noise) move rows into singleton groups no
    // CFD can see, and swapped-in CC/CNT values create genuinely ambiguous
    // violations where the cost model legitimately fixes the other cell.
    // `experiments -- e5` prints these numbers across noise rates.
    assert!(
        q.precision_loc > 0.5,
        "location precision {}",
        q.precision_loc
    );
    assert!(q.recall_loc > 0.35, "location recall {}", q.recall_loc);
    assert!(q.recall > 0.2, "value recall {}", q.recall);
}

#[test]
fn weights_steer_resolution_choices() {
    // Two tuples disagree on CITY for the same (CNT, ZIP). With uniform
    // weights the majority/cheapest wins; pinning one side with a high
    // weight forces the other to change.
    let build = || {
        let mut db = semandaq::minidb::Database::new();
        db.execute("CREATE TABLE customer (NAME TEXT, CNT TEXT, CITY TEXT, ZIP TEXT, STR TEXT, CC TEXT, AC TEXT)").unwrap();
        db.execute(
            "INSERT INTO customer VALUES \
             ('a','UK','EDI','EH4','s','44','131'), \
             ('b','UK','LDN','EH4','s','44','131')",
        )
        .unwrap();
        db
    };
    let cfds = semandaq::cfd::parse::parse_cfds("customer: [CNT, ZIP] -> [CITY]").unwrap();

    let mut weights = semandaq::repair::WeightModel::uniform();
    weights.set_cell(semandaq::minidb::RowId(1), 2, 100.0); // trust row 1's CITY
    let cfg = RepairConfig {
        weights,
        ..RepairConfig::default()
    };
    let mut db = build();
    let r = batch_repair(&mut db, "customer", &cfds, &cfg).unwrap();
    assert!(r.residual.is_empty());
    // Row 0 must have been changed to LDN (the trusted value).
    let t = db.table("customer").unwrap();
    assert_eq!(
        t.get(semandaq::minidb::RowId(0)).unwrap()[2],
        Value::str("LDN")
    );
    assert_eq!(
        t.get(semandaq::minidb::RowId(1)).unwrap()[2],
        Value::str("LDN")
    );
}

#[test]
fn incremental_repair_matches_clean_consensus() {
    use semandaq::datagen::{generate_customers, CustomerConfig};
    let clean = generate_customers(&CustomerConfig {
        rows: 500,
        ..CustomerConfig::default()
    });
    let mut db = semandaq::minidb::Database::new();
    db.register_table(clean.clone());
    let cfds = semandaq::datagen::canonical_cfds();

    // Insert 10 dirty copies; incremental repair must restore each to the
    // donor's values on the corrupted attribute.
    let donors: Vec<_> = clean
        .iter()
        .take(10)
        .map(|(id, r)| (id, r.to_vec()))
        .collect();
    let mut delta = Vec::new();
    for (k, (_, row)) in donors.iter().enumerate() {
        let mut dirty_row = row.clone();
        dirty_row[2] = Value::str(format!("BAD{k}"));
        delta.push(db.insert_row("customer", dirty_row).unwrap());
    }
    let result =
        incremental_repair(&mut db, "customer", &cfds, &delta, &RepairConfig::default()).unwrap();
    assert!(result.residual.is_empty());
    for (id, (_, donor_row)) in delta.iter().zip(&donors) {
        let fixed = db.table("customer").unwrap().get(*id).unwrap();
        assert_eq!(fixed[2], donor_row[2], "city restored from consensus");
    }
}

#[test]
fn batch_and_incremental_agree_on_delta_scenarios() {
    use semandaq::datagen::{generate_customers, CustomerConfig};
    let clean = generate_customers(&CustomerConfig {
        rows: 300,
        ..CustomerConfig::default()
    });
    let cfds = semandaq::datagen::canonical_cfds();
    let mk_dirty = |db: &mut semandaq::minidb::Database| {
        let donor_row: Vec<Value> = db
            .table("customer")
            .unwrap()
            .iter()
            .next()
            .unwrap()
            .1
            .to_vec();
        let mut row = donor_row;
        row[1] = Value::str("XX"); // break CC → CNT
        db.insert_row("customer", row).unwrap()
    };
    // Incremental path.
    let mut db1 = semandaq::minidb::Database::new();
    db1.register_table(clean.clone());
    let id1 = mk_dirty(&mut db1);
    incremental_repair(
        &mut db1,
        "customer",
        &cfds,
        &[id1],
        &RepairConfig::default(),
    )
    .unwrap();
    // Batch path.
    let mut db2 = semandaq::minidb::Database::new();
    db2.register_table(clean);
    let id2 = mk_dirty(&mut db2);
    batch_repair(&mut db2, "customer", &cfds, &RepairConfig::default()).unwrap();
    // Both end Σ-clean and agree on the repaired tuple.
    assert!(detect_native(db1.table("customer").unwrap(), &cfds)
        .unwrap()
        .is_empty());
    assert!(detect_native(db2.table("customer").unwrap(), &cfds)
        .unwrap()
        .is_empty());
    assert_eq!(
        db1.table("customer").unwrap().get(id1).unwrap(),
        db2.table("customer").unwrap().get(id2).unwrap()
    );
}

/// FNV-1a over bytes: a digest that, unlike `DefaultHasher`, is the same
/// on every toolchain.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Repair's change list is pinned byte for byte. The engine's internals
/// (class bookkeeping, candidate costing, the per-run distance memo) may
/// change only if the list of changes, the rounds and the cost stay
/// exactly these, on any number of cores.
#[test]
fn batch_repair_change_list_is_golden() {
    // (rows, noise, seed) → (changes, iterations, total_cost, digest).
    let cases = [
        (
            (2_000, 0.05, 7),
            (365, 4, 235.852_344_877_344_88, 0x12bb_4183_4afd_f9c9),
        ),
        (
            (5_000, 0.05, 3),
            (914, 4, 588.670_562_770_562_9, 0x2490_7592_8d91_4575),
        ),
    ];
    for ((rows, noise, seed), (n, iterations, cost, digest)) in cases {
        let w = dirty_customers(rows, noise, seed);
        let mut db = w.db;
        let result = batch_repair(&mut db, "customer", &w.cfds, &RepairConfig::default()).unwrap();
        assert!(result.residual.is_empty());
        assert_eq!(result.changes.len(), n, "rows {rows}: change count");
        assert_eq!(result.iterations, iterations, "rows {rows}: iterations");
        assert_eq!(
            result.total_cost.to_bits(),
            f64::to_bits(cost),
            "rows {rows}: total cost {}",
            result.total_cost
        );
        let got = fnv1a(format!("{:?}", result.changes).as_bytes());
        assert_eq!(got, digest, "rows {rows}: change-list digest {got:#x}");
    }
}
