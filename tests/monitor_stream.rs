//! Long randomized Data-Monitor sessions: the monitor's incremental view
//! of data quality must track batch detection through mode switches,
//! repairs-on-arrival, and mixed update streams.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semandaq::datagen::{canonical_cfds, generate_customers, CustomerConfig};
use semandaq::detect::detect_native;
use semandaq::minidb::{Database, Value};
use semandaq::system::{DataMonitor, MonitorMode, Update};

fn monitor(rows: usize, mode: MonitorMode) -> DataMonitor {
    let t = generate_customers(&CustomerConfig {
        rows,
        ..CustomerConfig::default()
    });
    let mut db = Database::new();
    db.register_table(t);
    DataMonitor::new(db, "customer", canonical_cfds(), mode).unwrap()
}

fn random_update(m: &DataMonitor, rng: &mut StdRng, step: usize) -> Option<Update> {
    let ids = m.database().table("customer").unwrap().row_ids();
    if ids.is_empty() {
        return None;
    }
    Some(match step % 4 {
        0 => {
            // dirty insert (copy + corrupt CITY)
            let donor = ids[rng.gen_range(0..ids.len())];
            let mut row: Vec<Value> = m
                .database()
                .table("customer")
                .unwrap()
                .get(donor)
                .unwrap()
                .to_vec();
            row[2] = Value::str(format!("X{step}"));
            Update::Insert(row)
        }
        1 => Update::Delete(ids[rng.gen_range(0..ids.len())]),
        2 => {
            // clean insert (exact copy)
            let donor = ids[rng.gen_range(0..ids.len())];
            let row: Vec<Value> = m
                .database()
                .table("customer")
                .unwrap()
                .get(donor)
                .unwrap()
                .to_vec();
            Update::Insert(row)
        }
        _ => Update::SetCell {
            row: ids[rng.gen_range(0..ids.len())],
            col: rng.gen_range(1..6),
            value: Value::str(format!("Y{step}")),
        },
    })
}

#[test]
fn detect_only_stream_tracks_batch_detection() {
    let mut m = monitor(200, MonitorMode::DetectOnly);
    let mut rng = StdRng::seed_from_u64(71);
    for step in 0..120 {
        if let Some(u) = random_update(&m, &mut rng, step) {
            m.apply(u).unwrap();
        }
        if step % 30 == 29 {
            let batch = detect_native(m.database().table("customer").unwrap(), &canonical_cfds())
                .unwrap()
                .normalized();
            assert_eq!(batch, m.report().normalized(), "drift at step {step}");
            assert_eq!(batch.len() as u64, m.violations());
        }
    }
}

#[test]
fn repair_on_arrival_keeps_inserts_clean() {
    let mut m = monitor(300, MonitorMode::RepairOnArrival);
    let mut rng = StdRng::seed_from_u64(73);
    // Only inserts (dirty and clean): the monitor must keep violations at 0.
    for step in 0..40 {
        let ids = m.database().table("customer").unwrap().row_ids();
        let donor = ids[rng.gen_range(0..ids.len())];
        let mut row: Vec<Value> = m
            .database()
            .table("customer")
            .unwrap()
            .get(donor)
            .unwrap()
            .to_vec();
        if step % 2 == 0 {
            row[1] = Value::str("ZZ"); // break the CC → CNT binding
        }
        let out = m.apply(Update::Insert(row)).unwrap();
        assert_eq!(out.violations, 0, "arrival {step} left violations");
        let batch =
            detect_native(m.database().table("customer").unwrap(), &canonical_cfds()).unwrap();
        assert_eq!(
            m.report().normalized(),
            batch.normalized(),
            "arrival {step}: the monitor's report equals a batch detect"
        );
    }
    let batch = detect_native(m.database().table("customer").unwrap(), &canonical_cfds()).unwrap();
    assert!(batch.is_empty());
}

#[test]
fn mode_switch_midstream_is_safe() {
    let mut m = monitor(150, MonitorMode::DetectOnly);
    let mut rng = StdRng::seed_from_u64(79);
    for step in 0..30 {
        if let Some(u) = random_update(&m, &mut rng, step) {
            m.apply(u).unwrap();
        }
    }
    let dirty_before = m.violations();
    assert!(dirty_before > 0, "stream must have dirtied something");
    // Switch to repair mode: *new* dirty arrivals get fixed; the backlog
    // stays (the paper repairs the delta, not the base).
    m.set_mode(MonitorMode::RepairOnArrival);
    let ids = m.database().table("customer").unwrap().row_ids();
    let donor_row: Vec<Value> = m
        .database()
        .table("customer")
        .unwrap()
        .get(ids[0])
        .unwrap()
        .to_vec();
    let mut dirty_row = donor_row;
    dirty_row[2] = Value::str("FRESHDIRT");
    let out = m.apply(Update::Insert(dirty_row)).unwrap();
    assert!(
        out.violations <= dirty_before,
        "repaired arrival must not grow the backlog"
    );
    // Consistency with batch after everything.
    let batch = detect_native(m.database().table("customer").unwrap(), &canonical_cfds())
        .unwrap()
        .normalized();
    assert_eq!(batch, m.report().normalized());
}

#[test]
fn reregistering_rules_reseeds_from_the_patched_snapshot() {
    use semandaq::api::QualityBackend;
    use semandaq::cfd::parse::parse_cfds;

    let mut m = monitor(200, MonitorMode::DetectOnly);
    let mut rng = StdRng::seed_from_u64(83);
    for step in 0..80 {
        if let Some(u) = random_update(&m, &mut rng, step) {
            m.apply(u).unwrap();
        }
    }
    // A different rule set: new variable and constant rules over other
    // columns, re-seeded from the snapshot the stream kept patched.
    let text = "customer: [ZIP] -> [CITY]\n\
                customer: [CC, AC] -> [CNT]\n\
                customer: [CNT='UK'] -> [CC='44']";
    assert_eq!(QualityBackend::register_cfds(&mut m, text).unwrap(), 3);
    let cfds = parse_cfds(text).unwrap();
    let want = detect_native(m.database().table("customer").unwrap(), &cfds)
        .unwrap()
        .normalized();
    assert!(!want.is_empty(), "stream must violate the new rules");
    assert_eq!(m.report().normalized(), want, "re-seeded incremental state");
    assert_eq!(want.len() as u64, m.violations());
    assert_eq!(QualityBackend::detect(&mut m).unwrap().normalized(), want);
    assert_eq!(
        m.snapshot_encodes(),
        1,
        "re-seeding rode the patched snapshot"
    );
}
