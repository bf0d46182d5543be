//! The Data Monitor in action: a cleansed database under a live update
//! stream, first in detect-only mode, then with repair-on-arrival. It ends
//! by checking the monitor's code-space audit against the value-space
//! `audit::quality_report` over the final table, that the whole stream
//! patched the snapshot encoded at construction instead of re-encoding,
//! and that once the first update had seeded every rule's group state, no
//! update rescanned a rule: each patched the groups it touched.
//!
//! ```sh
//! cargo run --example incremental_monitor
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semandaq::api::QualityBackend;
use semandaq::audit::quality_report;
use semandaq::datagen::{canonical_cfds, generate_customers, CustomerConfig};
use semandaq::minidb::{Database, Value};
use semandaq::system::{DataMonitor, MonitorMode, Update};

fn main() {
    let table = generate_customers(&CustomerConfig {
        rows: 1_000,
        ..CustomerConfig::default()
    });
    let mut db = Database::new();
    db.register_table(table);

    // Phase 1: detect-only monitoring of a mixed update stream.
    let mut monitor =
        DataMonitor::new(db, "customer", canonical_cfds(), MonitorMode::DetectOnly).unwrap();
    println!("initial violations: {}", monitor.violations());

    // Full per-rule rescans, counted process-wide (this example runs one
    // monitor). The first update seeds every rule's group state.
    let rescans = semandaq::obs::counter("colstore_detect_fragments_computed_total");
    let mut seeded = None;

    let mut rng = StdRng::seed_from_u64(2024);
    let mut inserted = Vec::new();
    for step in 0..20 {
        let ids = monitor.database().table("customer").unwrap().row_ids();
        let outcome = match step % 3 {
            0 => {
                // dirty insert: copy a row, corrupt its CITY
                let donor = ids[rng.gen_range(0..ids.len())];
                let mut row: Vec<Value> = monitor
                    .database()
                    .table("customer")
                    .unwrap()
                    .get(donor)
                    .unwrap()
                    .to_vec();
                row[2] = Value::str(format!("BAD{step}"));
                let out = monitor.apply(Update::Insert(row)).unwrap();
                inserted.push(out.row.unwrap());
                out
            }
            1 => {
                // clean delete
                let victim = ids[rng.gen_range(0..ids.len())];
                monitor.apply(Update::Delete(victim)).unwrap()
            }
            _ => {
                // corrupt a cell in place
                let row = ids[rng.gen_range(0..ids.len())];
                monitor
                    .apply(Update::SetCell {
                        row,
                        col: 1,
                        value: Value::str("XX"),
                    })
                    .unwrap()
            }
        };
        println!(
            "step {step:>2}: violations = {} (repairs applied: {})",
            outcome.violations, outcome.repairs
        );
        seeded.get_or_insert(rescans.get());
    }

    // Phase 2: flip to repair-on-arrival; new dirty tuples are fixed as
    // they land.
    monitor.set_mode(MonitorMode::RepairOnArrival);
    println!("\nswitching to repair-on-arrival");
    let baseline = monitor.violations();
    for k in 0..5 {
        let ids = monitor.database().table("customer").unwrap().row_ids();
        let donor = ids[k * 7 % ids.len()];
        let mut row: Vec<Value> = monitor
            .database()
            .table("customer")
            .unwrap()
            .get(donor)
            .unwrap()
            .to_vec();
        row[2] = Value::str(format!("WRONG{k}"));
        let out = monitor.apply(Update::Insert(row)).unwrap();
        println!(
            "dirty arrival {k}: repaired with {} changes, violations = {}",
            out.repairs, out.violations
        );
        assert!(
            out.violations <= baseline,
            "arrivals must not add violations"
        );
    }

    let audit = monitor.audit().unwrap();
    let table = monitor.database().table("customer").unwrap();
    let want = quality_report(table, monitor.cfds(), &monitor.report()).unwrap();
    assert_eq!(audit, want, "monitor audit == value-space audit");
    println!(
        "\nfinal audit: {:.1}% dirty; monitor audit == value-space audit ✓",
        audit.dirty_fraction() * 100.0
    );

    // The whole stream, repairs included, patched the one snapshot the
    // monitor encoded at construction.
    assert_eq!(monitor.snapshot_encodes(), 1, "the stream never re-encoded");
    println!("monitor snapshot encodes: {}", monitor.snapshot_encodes());
    // Every later update, repairs included, patched group state.
    let after_seeding = rescans.get() - seeded.expect("the stream ran");
    assert_eq!(after_seeding, 0, "no rule was rescanned after seeding");
    println!("monitor full rescans after seeding: {after_seeding}");
}
