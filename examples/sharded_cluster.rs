//! Sharded quality cluster demo: a HOSP-style relation partitioned four
//! ways, a dirty update stream routed through the cluster, scatter/gather
//! detection whose merged report equals single-node detection exactly, a
//! code-space audit equal to the single-node audit — and a repair epilogue where the cluster fixes a conflict that *no*
//! shard can even see locally.
//!
//! ```sh
//! cargo run --example sharded_cluster
//! ```

use semandaq::cluster::{HashRouter, ShardedQualityServer};
use semandaq::colstore::detect_columnar;
use semandaq::datagen::{generate_hosp, hosp_cfds, HospConfig};
use semandaq::minidb::Value;

fn main() {
    // A clean HOSP table: provider/measure observations with the usual
    // geography and dictionary dependencies.
    let table = generate_hosp(&HospConfig {
        rows: 4_000,
        providers: 300,
        seed: 7,
    });
    let cfds = hosp_cfds();

    // Partition four ways, hashing on ZIP (column 4): the geography rules
    // [ZIP] -> [CITY, STATE] stay shard-local, the provider key rules and
    // the measure dictionary split across shards.
    let mut cluster =
        ShardedQualityServer::partition(&table, 4, Box::new(HashRouter::new(vec![4])))
            .expect("partition");
    cluster.register_cfds(cfds.clone()).expect("CFDs bind");
    println!(
        "hosp: {} rows over {} shards",
        cluster.len(),
        cluster.n_shards()
    );
    println!("placement: {:?} rows per shard", cluster.shard_sizes());

    let report = cluster.detect().expect("detect");
    println!("\nclean data: {} violations\n", report.len());

    // Stream dirty updates through the router: a wrong city for one ZIP
    // (a conflict the owning shard sees by itself), then a *cross-shard*
    // conflict — two rows on different shards are re-coded to the same
    // novel MEASURE while keeping different CONDITIONs. Each shard holds a
    // singleton 'XR-9' group (locally clean); only the merged group
    // violates [MEASURE] -> [CONDITION].
    let mut reference = table.clone();
    let ids = reference.row_ids();
    println!("-- streaming dirty updates through the cluster --");
    let apply = |cluster: &mut ShardedQualityServer,
                 reference: &mut semandaq::minidb::Table,
                 id,
                 col: usize,
                 v: &str| {
        let v = Value::str(v);
        reference
            .update_cell(id, col, v.clone())
            .expect("row is live");
        cluster.update_cell(id, col, v).expect("routed update");
        println!(
            "  row {:>5} col {col} <- {:<12} (shard {})",
            id.0,
            format!("'{}'", reference.get(id).unwrap()[col].render()),
            cluster.shard_of(id).expect("row is placed")
        );
    };
    apply(&mut cluster, &mut reference, ids[0], 2, "WRONG CITY");
    // Two rows on different shards, different conditions, same new measure.
    let s0 = cluster.shard_of(ids[0]).unwrap();
    let other = ids
        .iter()
        .copied()
        .find(|&id| {
            cluster.shard_of(id) != Some(s0)
                && reference.get(id).unwrap()[7] != reference.get(ids[0]).unwrap()[7]
        })
        .expect("some row on another shard with another condition");
    apply(&mut cluster, &mut reference, ids[0], 6, "XR-9");
    apply(&mut cluster, &mut reference, other, 6, "XR-9");

    // Per-shard local counts vs the merged report: local detection misses
    // every conflict whose group is split across shards.
    let merged = cluster.detect().expect("detect");
    let stats = cluster.last_detect_stats();
    println!("\n-- shard-local vs merged --");
    let mut local_total = 0;
    for s in 0..cluster.n_shards() {
        let local = detect_columnar(cluster.shard_table(s), &cfds).expect("local detect");
        println!(
            "  shard {s}: {:>5} rows, {:>2} local violations",
            cluster.shard_table(s).len(),
            local.len()
        );
        local_total += local.len();
    }
    println!("  sum of shard-local violations: {local_total}");
    println!("  merged cluster violations:     {}", merged.len());

    // The merged report is exactly single-node detection.
    let single = detect_columnar(&reference, &cfds).expect("single-node detect");
    assert_eq!(merged.clone().normalized(), single.clone().normalized());
    println!("\nmerged == single-node columnar detection  ✓");
    // The cluster grades its audit in code space (majorities from the
    // merged value counts, verified cells from the shard snapshots); the
    // value-space report over the single-node table is the oracle.
    let audit = cluster.audit().expect("audit");
    assert_eq!(
        audit,
        semandaq::audit::quality_report(&reference, &cfds, &single).expect("oracle audit")
    );
    println!(
        "merged audit == single-node audit ✓ ({} tuples, {} dirty)",
        audit.tuples, audit.tuple_classes[3]
    );
    println!(
        "exchange: {} groups / {} members shipped; {} partials reused, {} recomputed",
        stats.exported_groups,
        stats.exported_members,
        stats.partials_reused,
        stats.partials_computed
    );
    println!(
        "snapshot encodes across shards: {} (updates were patched, not re-encoded)",
        cluster.snapshot_encodes()
    );

    // -- repair: the cross-shard conflict actually gets fixed --
    //
    // Shard-local repair could never resolve the XR-9 conflict (each shard
    // holds a clean singleton group); the cluster repairs at the
    // coordinator over the merged equivalence classes and routes the cell
    // changes back to their owning shards.
    println!("\n-- sharded repair --");
    let encodes_before = cluster.snapshot_encodes();
    let repair = cluster.repair().expect("repair");
    println!(
        "repaired in {} rounds: {} cell changes (cost {:.2}), {} residual",
        repair.iterations,
        repair.changes.len(),
        repair.total_cost,
        repair.residual.len()
    );
    for c in &repair.changes {
        println!(
            "  row {:>5} col {} : {:<14} -> {:<14} (shard {})",
            c.row.0,
            c.col,
            format!("'{}'", c.old.render()),
            format!("'{}'", c.new.render()),
            cluster.shard_of(c.row).expect("row is placed")
        );
    }
    assert!(repair.residual.is_empty());
    assert!(cluster.detect().expect("detect").is_empty());
    println!("post-repair detection: 0 violations  ✓");
    // The XR-9 rows — on different shards — now agree on CONDITION.
    let merged_table = cluster.merged_table().expect("merge");
    let conditions: Vec<String> = merged_table
        .iter()
        .filter(|(_, row)| row[6] == Value::str("XR-9"))
        .map(|(id, row)| format!("row {} -> '{}'", id.0, row[7].render()))
        .collect();
    println!("XR-9 group after repair: {}", conditions.join(", "));
    // ...and the repaired cluster equals a single-node batch repair of the
    // same (pre-repair) relation, cell for cell.
    let mut ref_db = semandaq::minidb::Database::new();
    ref_db.register_table(reference);
    semandaq::repair::batch_repair(
        &mut ref_db,
        "hosp",
        &cfds,
        &semandaq::repair::RepairConfig::default(),
    )
    .expect("single-node repair");
    let single_repaired = ref_db.table("hosp").expect("hosp table");
    assert_eq!(merged_table.len(), single_repaired.len());
    for (id, row) in merged_table.iter() {
        assert_eq!(
            row,
            single_repaired.get(id).expect("same live rows"),
            "row {id:?}"
        );
    }
    println!(
        "repaired cluster == single-node batch repair  ✓  \
         (snapshot encodes unchanged: {} -> {})",
        encodes_before,
        cluster.snapshot_encodes()
    );

    // -- exchange/merge telemetry: what the obs registry accumulated over
    //    every detect this process ran (including each repair round) --
    let m = semandaq::obs::snapshot();
    println!("\n-- exchange telemetry (obs registry) --");
    for name in [
        "cluster_detects_total",
        "cluster_partials_exported_total",
        "cluster_partials_merged_total",
        "cluster_partials_computed_total",
        "cluster_partials_reused_total",
        "cluster_exported_groups_total",
        "cluster_exported_members_total",
    ] {
        println!("  {name:<33} {}", m.counter(name).unwrap_or(0));
    }
    if let Some(h) = m.histogram("cluster_shard_export_ns") {
        println!(
            "  per-shard export: {} exports, p50 {}ns / p95 {}ns / max {}ns",
            h.count, h.p50, h.p95, h.max
        );
    }
    if let Some(h) = m.histogram("cluster_merge_ns") {
        println!(
            "  coordinator merge: {} gathers, p50 {}ns / max {}ns",
            h.count, h.p50, h.max
        );
    }
    assert_eq!(
        m.counter("cluster_partials_exported_total"),
        m.counter("cluster_partials_merged_total"),
        "every exported partial is consumed by exactly one merge"
    );
}
