//! Telemetry invariants: the obs registry's counters must reconcile with
//! the engine's own ground truth. The registry is process-global, so every
//! test here serializes on one mutex and asserts *deltas* across its own
//! workload — concurrent bumps from sibling tests are excluded by the
//! lock, earlier history by the subtraction.

use std::sync::{Mutex, MutexGuard, OnceLock};

use semandaq::api::{dispatch, QualityBackend, Request, Response};
use semandaq::cfd::parse::parse_cfds;
use semandaq::cluster::{HashRouter, RoundRobinRouter, ShardedQualityServer};
use semandaq::colstore::{detect_cached, detect_columnar, SnapshotCache};
use semandaq::datagen::{customer::CANONICAL_CFDS, dirty_customers};
use semandaq::durable::Durable;
use semandaq::minidb::{RowId, Value};
use semandaq::net::{ConcurrentEngine, EngineConfig};
use semandaq::repair::{batch_repair, RepairConfig};
use semandaq::system::{DataMonitor, MonitorMode, QualityServer, Update};

fn lock() -> MutexGuard<'static, ()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    M.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn cache_hits_plus_misses_equal_detect_calls() {
    let _g = lock();
    let hits = semandaq::obs::counter("colstore_snapshot_cache_hits_total");
    let misses = semandaq::obs::counter("colstore_snapshot_cache_misses_total");
    let (h0, m0) = (hits.get(), misses.get());

    let d = dirty_customers(300, 0.05, 311);
    let t = d.db.table("customer").unwrap();
    let mut cache = SnapshotCache::new();
    const DETECTS: u64 = 5;
    for _ in 0..DETECTS {
        detect_cached(&mut cache, t, &d.cfds).unwrap();
    }

    // Every detect_cached asks the cache for a snapshot exactly once, and
    // every ask is scored as exactly one hit or one miss.
    assert_eq!(
        (hits.get() - h0) + (misses.get() - m0),
        DETECTS,
        "hits + misses == detect calls"
    );
    assert_eq!(misses.get() - m0, 1, "only the cold detect misses");
    assert_eq!(hits.get() - h0, DETECTS - 1);
}

#[test]
fn encode_funnel_counts_cacheless_and_shard_seeding_encodes() {
    let _g = lock();
    let encodes = semandaq::obs::counter("colstore_snapshot_encodes_total");

    // A one-shot detect bypasses every SnapshotCache — no per-instance
    // counter sees it — yet the global funnel still counts its encode.
    let d = dirty_customers(200, 0.05, 312);
    let t = d.db.table("customer").unwrap();
    let e0 = encodes.get();
    detect_columnar(t, &d.cfds).unwrap();
    assert_eq!(encodes.get() - e0, 1, "cacheless detect is one full encode");

    // Cluster shard seeding: the cold scatter encodes each shard once, and
    // the registry's delta agrees with the per-shard cache sum.
    let e1 = encodes.get();
    let mut cluster =
        ShardedQualityServer::partition(t, 3, Box::new(RoundRobinRouter::default())).unwrap();
    cluster.register_cfds(d.cfds.clone()).unwrap();
    cluster.detect().unwrap();
    assert_eq!(encodes.get() - e1, 3, "one seeding encode per shard");
    assert_eq!(cluster.snapshot_encodes(), 3);
    // Steady state: a repeat detect adds no encode anywhere.
    cluster.detect().unwrap();
    assert_eq!(encodes.get() - e1, 3);
}

#[test]
fn cluster_exports_equal_merges_consumed() {
    let _g = lock();
    let exported = semandaq::obs::counter("cluster_partials_exported_total");
    let merged = semandaq::obs::counter("cluster_partials_merged_total");
    let (x0, g0) = (exported.get(), merged.get());

    let d = dirty_customers(250, 0.05, 313);
    let t = d.db.table("customer").unwrap();
    let mut cluster =
        ShardedQualityServer::partition(t, 4, Box::new(RoundRobinRouter::default())).unwrap();
    cluster.register_cfds(d.cfds.clone()).unwrap();
    cluster.detect().unwrap();
    // Mutate one cell so the next detect re-exports a subset, then detect
    // twice more (the second rides the memo entirely).
    let id = t.row_ids()[0];
    let v = t.get(id).unwrap()[2].clone();
    cluster.update_cell(id, 2, v).unwrap();
    cluster.detect().unwrap();
    cluster.detect().unwrap();

    let shipped = exported.get() - x0;
    assert_eq!(
        shipped,
        merged.get() - g0,
        "every exported partial is consumed by exactly one merge"
    );
    // 3 detects × 4 shards × n_cfds partials each (memoized or not, the
    // partial is still shipped and merged).
    assert_eq!(shipped, 3 * 4 * d.cfds.len() as u64);
}

/// The coordinator keeps each CFD's merge between detects: a repeat
/// detect with no mutation re-merges nothing, and a partial skipped as
/// unchanged still counts as consumed.
#[test]
fn repeat_cluster_detect_remerges_no_group() {
    let _g = lock();
    let remerged = semandaq::obs::counter("cluster_groups_remerged_total");
    let exported = semandaq::obs::counter("cluster_partials_exported_total");
    let merged = semandaq::obs::counter("cluster_partials_merged_total");
    let d = dirty_customers(300, 0.05, 319);
    let t = d.db.table("customer").unwrap();
    let mut cluster =
        ShardedQualityServer::partition(t, 3, Box::new(HashRouter::new(vec![1]))).unwrap();
    cluster.register_cfds(d.cfds.clone()).unwrap();
    let m0 = remerged.get();
    cluster.detect().unwrap();
    let cold = remerged.get() - m0;
    assert!(cold > 0, "a cold detect merges every key");
    assert_eq!(cold, cluster.last_detect_stats().groups_remerged);
    let (m1, x1, g1) = (remerged.get(), exported.get(), merged.get());
    cluster.detect().unwrap();
    cluster.detect().unwrap();
    assert_eq!(remerged.get() - m1, 0, "nothing changed, nothing re-merged");
    assert_eq!(cluster.last_detect_stats().groups_remerged, 0);
    assert_eq!(
        exported.get() - x1,
        merged.get() - g1,
        "skipped partials are consumed too"
    );
    assert_eq!(exported.get() - x1, 2 * 3 * d.cfds.len() as u64);
}

/// A one-cell update moves one row out of one group and into another, so
/// it re-merges at most two groups per CFD that mentions the column, and
/// none for a column no CFD mentions.
#[test]
fn one_cell_update_remerges_at_most_two_groups_per_cfd() {
    let _g = lock();
    let remerged = semandaq::obs::counter("cluster_groups_remerged_total");
    let d = dirty_customers(400, 0.05, 320);
    let t = d.db.table("customer").unwrap();
    let mut cluster =
        ShardedQualityServer::partition(t, 3, Box::new(HashRouter::new(vec![1]))).unwrap();
    cluster.register_cfds(d.cfds.clone()).unwrap();
    cluster.detect().unwrap();
    let bound: Vec<_> = d.cfds.iter().map(|c| c.bind(t.schema()).unwrap()).collect();
    let ids = t.row_ids();
    for col in 0..t.schema().arity() {
        let mentioning = bound
            .iter()
            .filter(|b| b.rhs_col == col || b.lhs_cols.contains(&col))
            .count() as u64;
        for (i, &row) in ids.iter().take(6).enumerate() {
            // Take another row's value, so the row joins an existing group.
            let donor = ids[ids.len() - 1 - i * 17];
            let v = t.get(donor).unwrap()[col].clone();
            cluster.update_cell(row, col, v).unwrap();
            let m0 = remerged.get();
            cluster.detect().unwrap();
            let n = remerged.get() - m0;
            assert_eq!(n, cluster.last_detect_stats().groups_remerged);
            assert!(
                n <= 2 * mentioning,
                "column {col}: {n} groups re-merged, {mentioning} CFDs mention it"
            );
        }
    }
}

/// The cluster scatter exports every shard exactly once per detect, so
/// the per-shard export histogram gains one sample per shard per detect,
/// whichever worker ran which shard.
#[test]
fn cluster_shard_export_samples_equal_shards() {
    let _g = lock();
    let export_ns = semandaq::obs::histogram("cluster_shard_export_ns");

    let d = dirty_customers(300, 0.06, 315);
    let t = d.db.table("customer").unwrap();
    const DETECTS: u64 = 3;
    for shards in [3usize, 6] {
        let mut cluster =
            ShardedQualityServer::partition(t, shards, Box::new(RoundRobinRouter::default()))
                .unwrap();
        cluster.register_cfds(d.cfds.clone()).unwrap();
        let e0 = export_ns.count();
        for _ in 0..DETECTS {
            cluster.detect().unwrap();
        }
        assert_eq!(
            export_ns.count() - e0,
            DETECTS * shards as u64,
            "one export sample per shard per detect ({shards} shards)"
        );
    }
    // Single-node detection and repair never scatter, even over a table
    // of several chunks at the default chunk size.
    let big = dirty_customers(10_000, 0.06, 315);
    let mut server = QualityServer::new(big.db.clone(), "customer").unwrap();
    server.register_cfds(CANONICAL_CFDS).unwrap();
    let e0 = export_ns.count();
    server.detect().unwrap();
    server.repair().unwrap();
    assert_eq!(
        export_ns.count(),
        e0,
        "single-node detect and repair export no shards"
    );
}

/// Pins the `obs::reset()` contract the module-local handle caches rely
/// on: reset zeroes every metric **in place** and never removes or
/// replaces registry entries, so an `Arc` handle cached before the reset
/// (every engine module caches its handles in a `OnceLock` on first use)
/// still feeds the same metric the registry snapshots afterwards. If
/// reset ever swapped entries out, cached handles would keep bumping
/// orphaned atomics and the registry would silently report zeros.
#[test]
fn reset_keeps_cached_module_handles_live() {
    let _g = lock();
    // Cache handles first — stand-ins for the engine's OnceLock caches.
    let counter = semandaq::obs::counter("reset_liveness_probe_total");
    let gauge = semandaq::obs::gauge("reset_liveness_probe");
    counter.add(7);
    gauge.set(7);

    semandaq::obs::reset();
    assert_eq!(counter.get(), 0, "reset zeroes through the cached handle");

    // Bumps through the pre-reset handles must be visible to a fresh
    // registry lookup *and* to the snapshot — same atomics, not orphans.
    counter.inc();
    gauge.set(3);
    assert_eq!(
        semandaq::obs::counter("reset_liveness_probe_total").get(),
        1,
        "re-looked-up handle sees bumps made through the cached one"
    );
    let snap = semandaq::obs::snapshot();
    let c = snap
        .counters
        .iter()
        .find(|(n, _)| n == "reset_liveness_probe_total")
        .expect("reset must not remove registry entries");
    assert_eq!(c.1, 1);
    let g = snap
        .gauges
        .iter()
        .find(|(n, _)| n == "reset_liveness_probe")
        .expect("reset must not remove registry entries");
    assert_eq!(g.1, 3);
}

#[test]
fn repair_round_and_change_counters_match_the_result() {
    let _g = lock();
    let runs = semandaq::obs::counter("repair_runs_total");
    let rounds = semandaq::obs::counter("repair_rounds_total");
    let changes = semandaq::obs::counter("repair_changes_total");
    let (u0, r0, c0) = (runs.get(), rounds.get(), changes.get());

    let d = dirty_customers(200, 0.05, 314);
    let mut db = d.db.clone();
    let result = batch_repair(&mut db, "customer", &d.cfds, &RepairConfig::default()).unwrap();
    assert!(result.residual.is_empty());

    assert_eq!(runs.get() - u0, 1);
    assert_eq!(
        rounds.get() - r0,
        result.iterations as u64,
        "rounds metric == RepairResult iterations"
    );
    assert_eq!(
        changes.get() - c0,
        result.changes.len() as u64,
        "changes metric == change-list length"
    );
}

#[test]
fn repair_distance_evals_are_served_by_metrics() {
    let _g = lock();
    let evals = semandaq::obs::counter("repair_distance_evals_total");

    let d = dirty_customers(200, 0.05, 318);
    let mut server = QualityServer::new(d.db.clone(), "customer").unwrap();
    let register = Request::RegisterCfds {
        text: CANONICAL_CFDS.to_string(),
    };
    assert!(!matches!(
        dispatch(&mut server, register),
        Response::Error { .. }
    ));
    let e0 = evals.get();
    let r = dispatch(&mut server, Request::Repair);
    assert!(matches!(r, Response::Repaired(_)), "{r:?}");
    let Response::Metrics(m) = dispatch(&mut server, Request::Metrics) else {
        panic!("metrics request failed");
    };
    let served = m
        .counter("repair_distance_evals_total")
        .expect("Request::Metrics serves repair_distance_evals_total");
    assert!(
        served > e0,
        "repairing a dirty relation prices string changes"
    );
    assert_eq!(served, evals.get());
}

#[test]
fn one_audit_report_sample_per_audit_dispatch() {
    let _g = lock();
    let report_ns = semandaq::obs::histogram("audit_report_ns");

    let d = dirty_customers(200, 0.05, 316);
    let t = d.db.table("customer").unwrap();
    let server = QualityServer::new(d.db.clone(), "customer").unwrap();
    let monitor =
        DataMonitor::new(d.db.clone(), "customer", vec![], MonitorMode::DetectOnly).unwrap();
    let cluster =
        ShardedQualityServer::partition(t, 3, Box::new(RoundRobinRouter::default())).unwrap();
    let dir = std::env::temp_dir().join(format!("sdq_metrics_audit_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable =
        Durable::open(&dir, QualityServer::new(d.db.clone(), "customer").unwrap()).unwrap();
    let backends: Vec<(&str, Box<dyn QualityBackend>)> = vec![
        ("server", Box::new(server)),
        ("monitor", Box::new(monitor)),
        ("cluster", Box::new(cluster)),
        ("durable", Box::new(durable)),
    ];
    for (name, mut backend) in backends {
        let register = Request::RegisterCfds {
            text: CANONICAL_CFDS.to_string(),
        };
        assert!(!matches!(
            dispatch(backend.as_mut(), register),
            Response::Error { .. }
        ));
        const AUDITS: u64 = 3;
        let before = report_ns.count();
        for _ in 0..AUDITS {
            let r = dispatch(backend.as_mut(), Request::Audit);
            assert!(matches!(r, Response::Audited(_)), "{name}: {r:?}");
        }
        assert_eq!(
            report_ns.count() - before,
            AUDITS,
            "{name}: one audit_report_ns sample per Audit dispatch"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The columnar audit reads the report the last detect left, not the
/// detect memo: after a detect at an unchanged epoch it neither computes
/// nor counts a reuse of a single fragment — those counters describe
/// detection.
#[test]
fn audit_after_detect_touches_no_fragment_counter() {
    let _g = lock();
    let computed = semandaq::obs::counter("colstore_detect_fragments_computed_total");
    let reused = semandaq::obs::counter("colstore_detect_fragments_reused_total");
    let d = dirty_customers(300, 0.05, 317);
    let mut s = QualityServer::new(d.db, "customer").unwrap();
    s.register_cfds(CANONICAL_CFDS).unwrap();
    s.detect().unwrap();
    s.detect().unwrap();
    let (c0, r0) = (computed.get(), reused.get());
    s.audit().unwrap();
    s.audit().unwrap();
    assert_eq!(computed.get() - c0, 0, "audit computes no fragment");
    assert_eq!(reused.get() - r0, 0, "audit counts no fragment reuse");
}

/// The cluster audit grades from the merged report's value counts and
/// the shards' cached snapshots: after a detect at an unchanged epoch it
/// computes and reuses no partial, encodes nothing, and records one
/// `audit_report_ns` sample per call.
#[test]
fn cluster_audit_after_detect_exports_and_encodes_nothing() {
    let _g = lock();
    let computed = semandaq::obs::counter("cluster_partials_computed_total");
    let reused = semandaq::obs::counter("cluster_partials_reused_total");
    let report_ns = semandaq::obs::histogram("audit_report_ns");
    let d = dirty_customers(300, 0.05, 318);
    let t = d.db.table("customer").unwrap();
    let mut cluster =
        ShardedQualityServer::partition(t, 3, Box::new(RoundRobinRouter::default())).unwrap();
    cluster.register_cfds(d.cfds.clone()).unwrap();
    cluster.detect().unwrap();
    cluster.detect().unwrap();
    let (c0, r0, e0, n0) = (
        computed.get(),
        reused.get(),
        cluster.snapshot_encodes(),
        report_ns.count(),
    );
    cluster.audit().unwrap();
    cluster.audit().unwrap();
    assert_eq!(computed.get() - c0, 0, "audit computes no partial");
    assert_eq!(reused.get() - r0, 0, "audit replays no partial");
    assert_eq!(cluster.snapshot_encodes() - e0, 0, "audit encodes nothing");
    assert_eq!(report_ns.count() - n0, 2, "one sample per audit");
}

#[test]
fn one_capture_sample_per_published_epoch() {
    let _g = lock();
    let capture_ns = semandaq::obs::histogram("net_capture_ns");
    let published = semandaq::obs::counter("net_epochs_published_total");

    let d = dirty_customers(200, 0.05, 317);
    let donor =
        d.db.table("customer")
            .unwrap()
            .get(RowId(0))
            .unwrap()
            .to_vec();
    let server = QualityServer::new(d.db.clone(), "customer").unwrap();
    let engine = ConcurrentEngine::new(server, EngineConfig::default());
    let (c0, p0) = (capture_ns.count(), published.get());
    let handle = engine.handle();
    let register = Request::RegisterCfds {
        text: CANONICAL_CFDS.to_string(),
    };
    assert!(!matches!(handle.request(register), Response::Error { .. }));
    for i in 0..5 {
        let mut row = donor.clone();
        row[2] = Value::str(format!("City{i}"));
        let r = handle.request(Request::Insert { row });
        assert!(!matches!(r, Response::Error { .. }), "{r:?}");
    }
    drop(handle);
    engine.shutdown();

    let epochs = published.get() - p0;
    assert!(epochs >= 6, "every acknowledged write was published");
    assert_eq!(
        capture_ns.count() - c0,
        epochs,
        "one net_capture_ns sample per net_epochs_published_total increment"
    );
}

/// The monitor's per-update cost: one cell update re-evaluates exactly
/// the registered rules that mention the updated column, on a snapshot
/// that was patched, not re-encoded. The first such update rescans them,
/// seeding their group state; a second one patches that state, so it
/// scans nothing and re-materializes at most the old and the new group
/// of each rule over the column.
#[test]
fn one_monitor_cell_update_recomputes_only_the_rules_over_its_column() {
    let _g = lock();
    let computed = semandaq::obs::counter("colstore_detect_fragments_computed_total");
    let rematerialized = semandaq::obs::counter("colstore_groups_rematerialized_total");
    let d = dirty_customers(300, 0.05, 319);
    let row = d.db.table("customer").unwrap().row_ids()[5];
    let mut m = DataMonitor::new(d.db, "customer", d.cfds, MonitorMode::DetectOnly).unwrap();
    let city = "CITY";
    let over_city = m
        .cfds()
        .iter()
        .filter(|c| c.rhs == city || c.lhs.iter().any(|a| a == city))
        .count() as u64;
    assert!(over_city > 0);
    let c0 = computed.get();
    m.apply(Update::SetCell {
        row,
        col: 2,
        value: Value::str("Elsewhere"),
    })
    .unwrap();
    assert_eq!(
        computed.get() - c0,
        over_city,
        "one fragment per rule over CITY"
    );
    assert_eq!(m.snapshot_encodes(), 1, "the update patched the snapshot");

    let (c1, g1) = (computed.get(), rematerialized.get());
    let other = m.database().table("customer").unwrap().row_ids()[9];
    m.apply(Update::SetCell {
        row: other,
        col: 2,
        value: Value::str("Elsewhere"),
    })
    .unwrap();
    assert_eq!(computed.get() - c1, 0, "the second update scans nothing");
    let groups = rematerialized.get() - g1;
    assert!(
        (1..=2 * over_city).contains(&groups),
        "{groups} groups re-materialized for {over_city} rules over CITY"
    );
    assert_eq!(m.snapshot_encodes(), 1);
    assert_eq!(
        m.report().normalized(),
        semandaq::detect::detect_native(m.database().table("customer").unwrap(), m.cfds())
            .unwrap()
            .normalized()
    );
}

/// A rule over a column the relation lacks is rejected before anything is
/// replaced: the monitor keeps its rules and its report.
#[test]
fn monitor_rejects_a_rule_over_an_unknown_column_and_keeps_its_state() {
    let _g = lock();
    let d = dirty_customers(200, 0.05, 320);
    let mut m = DataMonitor::new(d.db, "customer", d.cfds, MonitorMode::DetectOnly).unwrap();
    let (cfds, report) = (m.cfds().to_vec(), m.report());
    assert!(!report.is_empty());
    let bad = parse_cfds("customer: [NOPE] -> [CITY]").unwrap();
    assert!(m.set_cfds(bad).is_err());
    assert_eq!(m.cfds(), cfds.as_slice());
    assert_eq!(m.report(), report);
    assert_eq!(m.violations(), report.len() as u64);
}
