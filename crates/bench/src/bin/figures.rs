//! Regenerate the content of the demo paper's Figures 2–5 as text.
//!
//! ```sh
//! cargo run --bin figures            # all figures
//! cargo run --bin figures -- fig2    # one figure
//! ```
//!
//! Workload: the paper's customer relation, 10 000 tuples, 5% cell noise
//! (seeded — output is fully deterministic).

use audit::{quality_map, quality_report};
use colstore::SnapshotCache;
use detect::detect_sql;
use explore::{diff_tables, NavigationSession, ReviewSession};
use minidb::Value;
use repair::{batch_repair, RepairConfig};
use sdq_bench::workload;

const ROWS: usize = 10_000;
const NOISE: f64 = 0.05;
const SEED: u64 = 2008;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    let mut w = workload(ROWS, NOISE, SEED);
    let original = w.db.table("customer").unwrap().clone();
    let report = detect_sql(&mut w.db, "customer", &w.cfds).unwrap();
    println!(
        "workload: {ROWS} tuples, {:.0}% noise, {} injected errors, {} violations detected\n",
        NOISE * 100.0,
        w.mask.len(),
        report.len()
    );

    if wanted("fig2") {
        println!("=== Figure 2: data exploration using CFDs ===");
        let table = w.db.table("customer").unwrap();
        let nav = NavigationSession::new(table, &w.cfds, &report).unwrap();
        println!("-- table 1: embedded FDs --");
        print!("{}", nav.render_fds());
        let fds = nav.fds();
        let busiest = fds.iter().max_by_key(|e| e.violations).unwrap();
        println!("-- table 2: pattern tuples of {} --", busiest.fd);
        print!("{}", nav.render_patterns(busiest.idx));
        let pattern = nav
            .patterns(busiest.idx)
            .into_iter()
            .max_by_key(|p| p.violations)
            .unwrap();
        println!("-- table 3: LHS matches of {} (top 5) --", pattern.pattern);
        print!("{}", nav.render_lhs(pattern.cfd_idx, 5));
        if let Some(worst) = nav
            .lhs_matches(pattern.cfd_idx)
            .into_iter()
            .find(|e| e.violating > 0)
        {
            println!(
                "-- table 4: RHS values under {:?} --",
                worst.key.iter().map(Value::render).collect::<Vec<_>>()
            );
            print!("{}", nav.render_rhs(pattern.cfd_idx, &worst.key));
        }
        println!();
    }

    if wanted("fig3") {
        println!("=== Figure 3: data quality map (first 20 lines) ===");
        let table = w.db.table("customer").unwrap();
        let map = quality_map(table, &report);
        for line in map.render(100).lines().take(22) {
            println!("{line}");
        }
        println!("worst offenders:");
        for r in map.worst(5) {
            println!("  row {:<6} vio(t) = {}", r.row.0, r.vio);
        }
        println!();
    }

    if wanted("fig4") {
        println!("=== Figure 4: data quality report ===");
        let table = w.db.table("customer").unwrap();
        let audit = quality_report(table, &w.cfds, &report).unwrap();
        print!("{}", audit.render());
        println!();
    }

    if wanted("fig5") {
        println!("=== Figure 5: data cleansing review ===");
        let result =
            batch_repair(&mut w.db, "customer", &w.cfds, &RepairConfig::default()).unwrap();
        println!(
            "candidate repair: {} changes, cost {:.2}, {} residual violations",
            result.changes.len(),
            result.total_cost,
            result.residual.len()
        );
        println!("-- modified values (first 10 rows of the diff) --");
        let diff = diff_tables(&original, w.db.table("customer").unwrap());
        for line in diff.lines().take(14) {
            println!("{line}");
        }
        let mut cache = SnapshotCache::new();
        let mut session =
            ReviewSession::new(&mut w.db, &mut cache, "customer", &w.cfds, &result.changes)
                .unwrap();
        println!("-- ranked alternatives for the first three modifications --");
        for i in 0..3.min(session.entries().len()) {
            let e = session.entries()[i].clone();
            println!(
                "  row {} {}: '{}' -> '{}'",
                e.row.0,
                e.attribute,
                e.original.render(),
                e.proposed.render()
            );
            for alt in session.alternatives(i, 3).unwrap() {
                println!(
                    "      alt: {:<16} cost {:.2} consistent {}",
                    alt.value.render(),
                    alt.cost,
                    alt.consistent
                );
            }
        }
        let before = session.current_violations();
        let conflicts = session.override_with(0, Value::str("Atlantis")).unwrap();
        println!(
            "-- override entry 0 with 'Atlantis': violations {} -> {}, {} conflicting tuples --",
            before,
            session.current_violations(),
            conflicts.len()
        );
    }
}
