//! End-to-end pipeline tests: generate → dirty → detect → audit → repair →
//! verify, across scales and noise rates — the full Semandaq loop.

use semandaq::audit::CleanClass;
use semandaq::datagen::dirty_customers;
use semandaq::repair::score_repair;
use semandaq::system::{DetectorKind, QualityServer, ServerConfig};

fn pipeline(rows: usize, noise: f64, seed: u64, detector: DetectorKind) {
    let w = dirty_customers(rows, noise, seed);
    let dirty_table = w.db.table("customer").unwrap().clone();
    let mut server = QualityServer::new(w.db, "customer")
        .unwrap()
        .with_config(ServerConfig {
            detector,
            ..ServerConfig::default()
        });
    server
        .register_cfds(semandaq::datagen::customer::CANONICAL_CFDS)
        .unwrap();

    // Detection finds something iff noise was injected.
    let report = server.detect().unwrap();
    if noise > 0.0 {
        assert!(!report.is_empty(), "noise must produce violations");
    } else {
        assert!(report.is_empty());
    }

    // Audit is internally consistent.
    let audit = server.audit().unwrap();
    assert_eq!(audit.tuples, rows);
    assert_eq!(audit.tuple_classes.iter().sum::<usize>(), rows);

    // Repair drives violations to zero.
    let result = server.repair().unwrap();
    assert!(
        result.residual.is_empty(),
        "repair must converge: {} residuals",
        result.residual.len()
    );
    assert!(server.detect().unwrap().is_empty());

    // Quality against ground truth. Recall over *all* injected errors is
    // bounded by detectability: an error landing in a singleton LHS-group
    // violates nothing and no CFD-based system can see it. Small tables
    // (rows ≪ #zip-groups) therefore cap out low; the dedicated 1000-row
    // quality test asserts the paper-shape numbers.
    if noise > 0.0 {
        let repaired = server.table().unwrap().clone();
        let q = score_repair(&dirty_table, &repaired, &w.clean);
        assert!(q.error_cells > 0);
        let floor = if rows >= 1_000 { 0.4 } else { 0.2 };
        assert!(
            q.recall_loc >= floor,
            "located fraction {} below {floor} at rows={rows}",
            q.recall_loc
        );
    }
}

#[test]
fn small_sql_pipeline() {
    pipeline(100, 0.05, 1, DetectorKind::Sql);
}

#[test]
fn medium_native_pipeline() {
    pipeline(1_000, 0.05, 2, DetectorKind::Native);
}

#[test]
fn columnar_pipeline() {
    pipeline(500, 0.08, 3, DetectorKind::Columnar);
}

#[test]
fn clean_data_pipeline() {
    pipeline(300, 0.0, 4, DetectorKind::Sql);
}

#[test]
fn high_noise_pipeline_still_converges() {
    pipeline(400, 0.15, 5, DetectorKind::Native);
}

#[test]
fn audit_classes_shift_after_repair() {
    let w = dirty_customers(300, 0.06, 6);
    let mut server = QualityServer::new(w.db, "customer").unwrap();
    server
        .register_cfds(semandaq::datagen::customer::CANONICAL_CFDS)
        .unwrap();
    let before = server.audit().unwrap();
    assert!(before.tuple_classes[3] > 0, "dirty tuples before repair");
    server.repair().unwrap();
    let after = server.audit().unwrap();
    assert_eq!(after.tuple_classes[3], 0, "no dirty tuples after repair");
    // Everyone is at least probably clean; most are verified (CC rules
    // apply to every tuple).
    assert!(after.tuple_classes[0] > before.tuple_classes[0]);
}

#[test]
fn quality_map_reflects_repair() {
    let w = dirty_customers(200, 0.08, 7);
    let mut server = QualityServer::new(w.db, "customer").unwrap();
    server
        .register_cfds(semandaq::datagen::customer::CANONICAL_CFDS)
        .unwrap();
    let before = server.map().unwrap();
    assert!(before.max_vio > 0);
    server.repair().unwrap();
    let after = server.map().unwrap();
    assert_eq!(after.max_vio, 0);
    assert!(after.rows.iter().all(|r| r.vio == 0));
}

#[test]
fn tuple_classification_tracks_membership() {
    let w = dirty_customers(250, 0.05, 8);
    let mut server = QualityServer::new(w.db, "customer").unwrap();
    server
        .register_cfds(semandaq::datagen::customer::CANONICAL_CFDS)
        .unwrap();
    let report = server.detect().unwrap();
    let audit = server.audit().unwrap();
    let _ = audit;
    let classification =
        semandaq::audit::classify(server.table().unwrap(), server.engine().cfds(), &report)
            .unwrap();
    // Every tuple with vio > 0 is not verified/probably clean.
    for (row, class) in &classification.tuples {
        let vio = report.vio_of(*row);
        if vio > 0 {
            assert!(
                matches!(class, CleanClass::ArguablyClean | CleanClass::Dirty),
                "row {row:?} with vio={vio} classed {class:?}"
            );
        } else {
            assert!(
                matches!(class, CleanClass::VerifiedClean | CleanClass::ProbablyClean),
                "clean row {row:?} classed {class:?}"
            );
        }
    }
}
