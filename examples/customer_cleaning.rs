//! The full demo-paper walkthrough on the customer relation: reproduces
//! the *content* of Figures 2–5 as text.
//!
//! ```sh
//! cargo run --example customer_cleaning
//! ```

use semandaq::audit::{quality_map, quality_report};
use semandaq::colstore::SnapshotCache;
use semandaq::datagen::dirty_customers;
use semandaq::detect::detect_sql;
use semandaq::explore::{
    diff_tables, inspect_tuple, render_inspection, NavigationSession, ReviewSession,
};
use semandaq::minidb::Value;
use semandaq::repair::{batch_repair, RepairConfig};

fn main() {
    let mut w = dirty_customers(400, 0.05, 7);
    let original = w.db.table("customer").unwrap().clone();

    // ---- Error detection (the engine behind every figure) --------------
    let report = detect_sql(&mut w.db, "customer", &w.cfds).unwrap();
    println!("== detection: {} violations ==\n", report.len());

    // ---- Figure 2: data exploration using CFDs --------------------------
    let table = w.db.table("customer").unwrap();
    let nav = NavigationSession::new(table, &w.cfds, &report).unwrap();
    println!("-- Fig 2 / table 1: embedded FDs --");
    print!("{}", nav.render_fds());
    let fds = nav.fds();
    let busiest = fds.iter().max_by_key(|e| e.violations).unwrap();
    println!("-- Fig 2 / table 2: pattern tuples of {} --", busiest.fd);
    print!("{}", nav.render_patterns(busiest.idx));
    let pattern = nav
        .patterns(busiest.idx)
        .into_iter()
        .max_by_key(|p| p.violations)
        .unwrap();
    println!("-- Fig 2 / table 3: LHS matches of {} --", pattern.pattern);
    print!("{}", nav.render_lhs(pattern.cfd_idx, 6));
    let lhs = nav.lhs_matches(pattern.cfd_idx);
    if let Some(worst) = lhs.iter().find(|e| e.violating > 0) {
        println!(
            "-- Fig 2 / table 4: RHS values under {:?} --",
            worst.key.iter().map(Value::render).collect::<Vec<_>>()
        );
        print!("{}", nav.render_rhs(pattern.cfd_idx, &worst.key));
    }

    // Reverse exploration: why is this tuple dirty?
    if let Some(row) = report.vio.rows().next() {
        println!("\n-- reverse exploration of row {} --", row.0);
        let rel = inspect_tuple(table, &w.cfds, &report, row).unwrap();
        print!("{}", render_inspection(&rel));
    }

    // ---- Figure 3: the data quality map ---------------------------------
    let map = quality_map(table, &report);
    println!("\n-- Fig 3: data quality map (first 10 lines) --");
    for line in map.render(80).lines().take(12) {
        println!("{line}");
    }

    // ---- Figure 4: the data quality report -------------------------------
    let audit = quality_report(table, &w.cfds, &report).unwrap();
    println!("\n-- Fig 4: data quality report --");
    print!("{}", audit.render());

    // ---- Figure 5: data cleansing review ---------------------------------
    let result = batch_repair(&mut w.db, "customer", &w.cfds, &RepairConfig::default()).unwrap();
    println!(
        "\n-- Fig 5: cleansing review ({} changes, cost {:.2}) --",
        result.changes.len(),
        result.total_cost
    );
    let diff = diff_tables(&original, w.db.table("customer").unwrap());
    for line in diff.lines().take(14) {
        println!("{line}");
    }
    let mut cache = SnapshotCache::new();
    let mut session =
        ReviewSession::new(&mut w.db, &mut cache, "customer", &w.cfds, &result.changes).unwrap();
    println!("\nalternatives for the first modification:");
    for alt in session.alternatives(0, 3).unwrap() {
        println!(
            "  {} (cost {:.2}, consistent: {})",
            alt.value.render(),
            alt.cost,
            alt.consistent
        );
    }
    // Override one change with a bad value and watch re-detection react.
    let before = session.current_violations();
    let conflicts = session.override_with(0, Value::str("Atlantis")).unwrap();
    println!(
        "override with 'Atlantis': violations {} -> {}, {} conflicting tuples",
        before,
        session.current_violations(),
        conflicts.len()
    );
}
