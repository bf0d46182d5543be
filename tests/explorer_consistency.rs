//! The explorer's numbers must agree with the detector's: drill-down
//! violation counts, inspection verdicts and review bookkeeping are views
//! over the same report.

use semandaq::colstore::SnapshotCache;
use semandaq::datagen::dirty_customers;
use semandaq::detect::detect_native;
use semandaq::explore::{inspect_tuple, NavigationSession, ReviewSession, ReviewState};
use semandaq::repair::{batch_repair, RepairConfig};

#[test]
fn navigation_counts_match_report() {
    let w = dirty_customers(400, 0.06, 91);
    let t = w.db.table("customer").unwrap();
    let report = detect_native(t, &w.cfds).unwrap();
    let nav = NavigationSession::new(t, &w.cfds, &report).unwrap();

    // Level 1 totals == sum of per-CFD counts.
    let fd_total: usize = nav.fds().iter().map(|e| e.violations).sum();
    let report_total: usize = report.per_cfd.values().sum();
    assert_eq!(fd_total, report_total);

    // Level 2 per-pattern counts equal the report's per-CFD counts.
    for fd in nav.fds() {
        for p in nav.patterns(fd.idx) {
            assert_eq!(
                p.violations,
                report.per_cfd.get(&p.cfd_idx).copied().unwrap_or(0)
            );
        }
    }
}

#[test]
fn drilldown_level_invariants() {
    let w = dirty_customers(300, 0.08, 92);
    let t = w.db.table("customer").unwrap();
    let report = detect_native(t, &w.cfds).unwrap();
    let nav = NavigationSession::new(t, &w.cfds, &report).unwrap();

    for fd in nav.fds() {
        for p in nav.patterns(fd.idx) {
            let lhs = nav.lhs_matches(p.cfd_idx);
            for e in lhs.iter().take(5) {
                // Tuples in a key group ≥ tuples flagged as violating.
                assert!(e.violating <= e.tuples);
                let rhs = nav.rhs_values(p.cfd_idx, &e.key);
                // RHS tuple counts sum to the group size.
                let total: usize = rhs.iter().map(|r| r.tuples).sum();
                assert_eq!(total, e.tuples, "RHS partition must cover the group");
                // Level-5 tuples per RHS value match the advertised counts.
                for r in &rhs {
                    let tuples = nav.tuples(p.cfd_idx, &e.key, &r.value);
                    assert_eq!(tuples.len(), r.tuples);
                }
            }
        }
    }
}

#[test]
fn inspection_agrees_with_vio() {
    let w = dirty_customers(250, 0.06, 93);
    let t = w.db.table("customer").unwrap();
    let report = detect_native(t, &w.cfds).unwrap();
    for (id, _) in t.iter().take(100) {
        let rel = inspect_tuple(t, &w.cfds, &report, id).unwrap();
        let inspected_dirty = rel.iter().any(|r| r.violated);
        assert_eq!(
            inspected_dirty,
            report.vio_of(id) > 0,
            "inspection and vio(t) disagree on {id:?}"
        );
    }
}

#[test]
fn review_accept_all_keeps_database_clean() {
    let mut w = dirty_customers(200, 0.05, 94);
    let result = batch_repair(&mut w.db, "customer", &w.cfds, &RepairConfig::default()).unwrap();
    assert!(result.residual.is_empty());
    let n = {
        let mut cache = SnapshotCache::new();
        let mut session =
            ReviewSession::new(&mut w.db, &mut cache, "customer", &w.cfds, &result.changes)
                .unwrap();
        let n = session.entries().len();
        for i in 0..n {
            session.accept(i).unwrap();
        }
        assert!(session
            .entries()
            .iter()
            .all(|e| e.state == ReviewState::Accepted));
        assert_eq!(session.current_violations(), 0);
        n
    };
    assert!(n > 0);
    assert!(detect_native(w.db.table("customer").unwrap(), &w.cfds)
        .unwrap()
        .is_empty());
}

#[test]
fn review_override_then_correct_value_restores_cleanliness() {
    let mut w = dirty_customers(200, 0.05, 95);
    let result = batch_repair(&mut w.db, "customer", &w.cfds, &RepairConfig::default()).unwrap();
    let mut cache = SnapshotCache::new();
    let mut session =
        ReviewSession::new(&mut w.db, &mut cache, "customer", &w.cfds, &result.changes).unwrap();
    let proposed = session.entries()[0].proposed.clone();
    // Override with junk, then override back with the proposal.
    session
        .override_with(0, semandaq::minidb::Value::str("JUNKVALUE"))
        .unwrap();
    let dirty_now = session.current_violations();
    session.override_with(0, proposed).unwrap();
    assert_eq!(session.current_violations(), 0);
    assert!(dirty_now >= session.current_violations());
}
