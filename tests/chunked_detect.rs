//! Property: chunked columnar detection ≡ the reference detector.
//!
//! The chunk layout (sealed code chunks + mutable tail) is a pure
//! execution knob — no combination of chunk size × mutation history may
//! change a `normalized()` report. The sweeps here run chunk sizes
//! {1, 7, 64, 4096} (1 maximizes chunk boundaries, 4096 is the default
//! single-chunk layout for small tables) over random instances, random
//! update streams, and the structural edges: a group split across chunks,
//! an all-NULL chunk, and an exactly-full tail. Sharded repair under a
//! threaded scatter closes the loop: the cluster's pooled scatter and the
//! single-node repair must drive byte-identical change lists.

mod common;

use common::{arb_cfds, arb_table, db_with};
use proptest::prelude::*;
use semandaq::cfd::Cfd;
use semandaq::cluster::{RoundRobinRouter, ShardedQualityServer};
use semandaq::colstore::{detect_cached, detect_on_snapshot, Snapshot, SnapshotCache};
use semandaq::detect::detect_native;
use semandaq::minidb::{RowId, Schema, Table, Value};
use semandaq::repair::{batch_repair, RepairConfig};

const CHUNK_SIZES: [usize; 4] = [1, 7, 64, 4096];

/// Every chunk size yields the reference report.
fn assert_all_layouts_match(table: &Table, cfds: &[Cfd]) {
    let reference = detect_native(table, cfds).unwrap().normalized();
    let cols: Vec<usize> = (0..table.schema().arity()).collect();
    for chunk in CHUNK_SIZES {
        let snap = Snapshot::projected_with_chunk(table, &cols, chunk);
        let got = detect_on_snapshot(&snap, cfds).unwrap().normalized();
        assert_eq!(
            got, reference,
            "chunk_rows={chunk} diverged from the reference"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chunked_detection_equals_reference(
        table in arb_table(48),
        cfds in arb_cfds(),
    ) {
        assert_all_layouts_match(&table, &cfds);
    }

    /// A random update stream against a chunk-pinned [`SnapshotCache`]:
    /// after every mutation the patched snapshot's detect must
    /// equal the reference over the table's current rows — inserts that
    /// grow the tail, deletes that swap-remove across chunk boundaries,
    /// and cell writes that re-encode inside sealed chunks.
    #[test]
    fn cached_chunked_detect_tracks_random_update_streams(
        table in arb_table(32),
        cfds in arb_cfds(),
        ops in proptest::collection::vec((0usize..3, 0usize..64, 0usize..4, 0usize..4), 1..24),
        chunk_idx in 0usize..CHUNK_SIZES.len(),
    ) {
        let chunk = CHUNK_SIZES[chunk_idx];
        let mut table = table;
        let mut cache = SnapshotCache::new().with_chunk_rows(chunk);
        // Warm the cache so the stream exercises the patch paths.
        detect_cached(&mut cache, &table, &cfds).unwrap();
        for (kind, row_sel, col, val) in ops {
            let ids = table.row_ids();
            match kind {
                0 => {
                    let row: Vec<Value> = (0..4)
                        .map(|c| Value::str(format!("{}{}", ["a", "b", "c", "d"][c], (val + c) % 4)))
                        .collect();
                    let id = table.insert(row).unwrap();
                    cache.note_insert(&table, id);
                }
                1 if !ids.is_empty() => {
                    let id = ids[row_sel % ids.len()];
                    table.delete(id).unwrap();
                    cache.note_delete(&table, id);
                }
                _ if !ids.is_empty() => {
                    let id = ids[row_sel % ids.len()];
                    let v = Value::str(format!("{}{}", ["a", "b", "c", "d"][col], val));
                    table.update_cell(id, col, v).unwrap();
                    cache.note_set_cell(&table, id, col);
                }
                _ => {}
            }
            let got = detect_cached(&mut cache, &table, &cfds).unwrap().normalized();
            let reference = detect_native(&table, &cfds).unwrap().normalized();
            prop_assert_eq!(got, reference, "chunk_rows={}", chunk);
        }
    }
}

/// One violating group whose members land in distinct chunks
/// (`chunk_rows = 1`): each chunk holds a single member, so only grouping
/// across chunks can assemble the conflict.
#[test]
fn group_split_across_chunks_is_still_one_violation() {
    let cfds = semandaq::cfd::parse::parse_cfds("r: [A] -> [B]").unwrap();
    let mut t = Table::new("r", Schema::of_strings(&["A", "B"]));
    for v in ["x", "x", "y", "x"] {
        t.insert(vec![Value::str("k"), Value::str(v)]).unwrap();
    }
    let snap = Snapshot::projected_with_chunk(&t, &[0, 1], 1);
    assert_eq!(snap.n_chunks(), 4, "one row per chunk");
    let report = detect_on_snapshot(&snap, &cfds).unwrap();
    assert_eq!(report.len(), 1);
    assert_all_layouts_match(&t, &cfds);
}

/// A sealed chunk consisting entirely of NULL rows: NULL never violates,
/// never groups, and must not confuse the per-chunk grouping sentinels.
#[test]
fn all_null_chunk_contributes_nothing() {
    let cfds = common::cfd_pool();
    let mut t = Table::new("r", Schema::of_strings(&common::COLS));
    for i in 0..4 {
        t.insert(vec![
            Value::str("a0"),
            Value::str(format!("b{i}")),
            Value::str("c0"),
            Value::str("d0"),
        ])
        .unwrap();
    }
    for _ in 0..8 {
        t.insert(vec![Value::Null, Value::Null, Value::Null, Value::Null])
            .unwrap();
    }
    for i in 0..4 {
        t.insert(vec![
            Value::str("a1"),
            Value::str("b0"),
            Value::str("c1"),
            Value::str(format!("d{i}")),
        ])
        .unwrap();
    }
    // chunk_rows = 4 seals the middle 8 NULL rows into two all-NULL chunks.
    let snap = Snapshot::projected_with_chunk(&t, &[0, 1, 2, 3], 4);
    assert_eq!(snap.n_chunks(), 4);
    assert_all_layouts_match(&t, &cfds);
}

/// Row count an exact multiple of the chunk size: every chunk is sealed
/// and the tail is empty — the `n_chunks` arithmetic and the chunk scan
/// must not invent a phantom tail chunk.
#[test]
fn exactly_full_chunks_leave_an_empty_tail() {
    let cfds = semandaq::cfd::parse::parse_cfds("r: [A] -> [B]").unwrap();
    let mut t = Table::new("r", Schema::of_strings(&["A", "B"]));
    for i in 0..21 {
        t.insert(vec![
            Value::str(format!("k{}", i % 3)),
            Value::str(format!("v{}", i % 2)),
        ])
        .unwrap();
    }
    let snap = Snapshot::projected_with_chunk(&t, &[0, 1], 7);
    assert_eq!(snap.n_chunks(), 3, "21 rows at 7/chunk: sealed, no tail");
    assert_all_layouts_match(&t, &cfds);
}

/// Sharded repair under threading: the cluster's threaded scatter and the
/// serial single-node repair must drive byte-identical repairs — change
/// lists, costs, iteration counts.
#[test]
fn sharded_repair_equals_single_node_under_threading() {
    let d = semandaq::datagen::dirty_customers(400, 0.06, 77);
    let table = d.db.table("customer").unwrap();
    let cfg = RepairConfig::default();
    let mut db = db_with(table.clone());
    let single = batch_repair(&mut db, "customer", &d.cfds, &cfg).unwrap();
    assert!(single.residual.is_empty());

    let mut cluster =
        ShardedQualityServer::partition(table, 4, Box::new(RoundRobinRouter::default())).unwrap();
    cluster.register_cfds(d.cfds.clone()).unwrap();
    let sharded = cluster.repair_with_config(&cfg).unwrap();
    assert!(sharded.residual.is_empty());
    assert_eq!(sharded.changes, single.changes, "identical change lists");
    assert_eq!(sharded.iterations, single.iterations);

    let merged = cluster.merged_table().unwrap();
    let mut merged_rows: Vec<(RowId, Vec<Value>)> =
        merged.iter().map(|(id, r)| (id, r.to_vec())).collect();
    merged_rows.sort_by_key(|(id, _)| *id);
    let mut single_rows: Vec<(RowId, Vec<Value>)> = db
        .table("customer")
        .unwrap()
        .iter()
        .map(|(id, r)| (id, r.to_vec()))
        .collect();
    single_rows.sort_by_key(|(id, _)| *id);
    assert_eq!(merged_rows, single_rows, "repaired relations equal");
}
