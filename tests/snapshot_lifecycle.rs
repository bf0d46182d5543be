//! Property: an incrementally-patched columnar snapshot is indistinguishable
//! from a fresh encode. For random update streams (inserts with novel
//! values and all-NULL rows, deletes, cell overwrites incl. NULLing), the
//! patched snapshot's `detect_on_snapshot` report equals a fresh
//! `detect_native` after *every* step — and a zero-threshold cache, which
//! re-encodes on every mutation (the delta-threshold fallback path),
//! produces the identical report at every step too. The audit built from
//! the same cache (`audit_cached`, the columnar server's `audit()`)
//! equals the value-space `quality_report` oracle after every step of
//! random mutation, batch, rule-registration and repair streams, spilled
//! snapshots included.

mod common;

use common::{arb_cfds, arb_table, db_with, COLS};
use proptest::prelude::*;
use semandaq::api::{apply_mutation, Mutation, MutationBatch};
use semandaq::audit::{quality_report, QualityReport};
use semandaq::cfd::parse::parse_cfds;
use semandaq::colstore::{
    audit_cached, detect_cached, detect_on_snapshot, MemChunkStore, SnapshotCache, TableDelta,
};
use semandaq::datagen::{customer::CANONICAL_CFDS, dirty_customers};
use semandaq::detect::detect_native;
use semandaq::minidb::{RowId, Schema, Table, Value};
use semandaq::system::{QualityServer, ServerConfig};

/// One step of a random update stream. Row/column choices are indexes
/// reduced modulo the live population at apply time, so every generated
/// stream is applicable to every generated table.
#[derive(Debug, Clone)]
enum Op {
    /// Insert a row of domain values, NULLs, or novel (never-seen) values.
    Insert(Vec<Cell>),
    /// Insert an all-NULL row.
    InsertAllNull,
    /// Delete a live row.
    Delete(usize),
    /// Overwrite one cell.
    SetCell { row: usize, col: usize, val: Cell },
}

#[derive(Debug, Clone)]
enum Cell {
    /// A value from the small shared domain (collides with existing rows).
    Domain(usize),
    /// A fresh value absent from every dictionary (forces interning).
    Novel,
    Null,
}

impl Cell {
    fn value(&self, col: usize, fresh: &mut u32) -> Value {
        match self {
            Cell::Domain(i) => Value::str(format!("{}{}", ["a", "b", "c", "d"][col], i % 3)),
            Cell::Novel => {
                *fresh += 1;
                Value::str(format!("novel{fresh}"))
            }
            Cell::Null => Value::Null,
        }
    }
}

fn arb_cell() -> impl Strategy<Value = Cell> {
    prop_oneof![
        5 => (0usize..3).prop_map(Cell::Domain),
        2 => Just(Cell::Novel),
        1 => Just(Cell::Null),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => proptest::collection::vec(arb_cell(), 4).prop_map(Op::Insert),
        1 => Just(Op::InsertAllNull),
        2 => (0usize..64).prop_map(Op::Delete),
        4 => ((0usize..64), (0usize..4), arb_cell())
            .prop_map(|(row, col, val)| Op::SetCell { row, col, val }),
    ]
}

fn arb_ops(max_ops: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(arb_op(), 1..max_ops)
}

/// Apply `op` to `table` and return the mutation it made, or `None` when
/// the op was inapplicable (e.g. delete on an empty table) and was skipped.
fn mutate(table: &mut Table, op: &Op, fresh: &mut u32) -> Option<TableDelta> {
    match op {
        Op::Insert(cells) => {
            let row: Vec<Value> = cells
                .iter()
                .enumerate()
                .map(|(c, cell)| cell.value(c, fresh))
                .collect();
            Some(TableDelta::Inserted(table.insert(row).unwrap()))
        }
        Op::InsertAllNull => Some(TableDelta::Inserted(
            table.insert(vec![Value::Null; 4]).unwrap(),
        )),
        Op::Delete(i) => {
            let id = pick(table, *i)?;
            table.delete(id).unwrap();
            Some(TableDelta::Deleted(id))
        }
        Op::SetCell { row, col, val } => {
            let id = pick(table, *row)?;
            table.update_cell(id, *col, val.value(*col, fresh)).unwrap();
            Some(TableDelta::CellSet(id, *col))
        }
    }
}

/// The live row an op's row index selects (modulo the live population).
fn pick(table: &Table, i: usize) -> Option<RowId> {
    let ids = table.row_ids();
    (!ids.is_empty()).then(|| ids[i % ids.len()])
}

/// Apply `op` to `table`, reporting the mutation to every cache in
/// `caches` one at a time. Returns `false` when the op was inapplicable
/// and was skipped.
fn apply(table: &mut Table, caches: &mut [&mut SnapshotCache], op: &Op, fresh: &mut u32) -> bool {
    let Some(delta) = mutate(table, op, fresh) else {
        return false;
    };
    for cache in caches {
        match delta {
            TableDelta::Inserted(id) => cache.note_insert(table, id),
            TableDelta::Deleted(id) => cache.note_delete(table, id),
            TableDelta::CellSet(id, col) => cache.note_set_cell(table, id, col),
        }
    }
    true
}

/// Every `(row id, values)` pair of a snapshot, sorted by row id.
fn snapshot_rows(snap: &semandaq::colstore::Snapshot) -> Vec<(RowId, Vec<Value>)> {
    let mut rows: Vec<(RowId, Vec<Value>)> = (0..snap.n_rows())
        .map(|p| {
            (
                snap.row_id(p),
                (0..4).map(|c| snap.column(c).value_at(p)).collect(),
            )
        })
        .collect();
    rows.sort_by_key(|(id, _)| *id);
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every step of a random update stream, the patched snapshot
    /// detects exactly what a fresh native scan detects — and so does the
    /// zero-threshold cache that rides the full-rebuild fallback.
    #[test]
    fn patched_snapshot_equals_fresh_detect_after_every_step(
        table in arb_table(24),
        cfds in arb_cfds(),
        ops in arb_ops(24),
    ) {
        let mut table = table;
        let mut patched = SnapshotCache::new();
        let mut rebuilt = SnapshotCache::new().with_delta_threshold(0.0);
        let mut memoed = SnapshotCache::new();
        patched.snapshot(&table);
        rebuilt.snapshot(&table);
        memoed.snapshot(&table);
        let mut fresh = 0u32;
        for op in &ops {
            if !apply(
                &mut table,
                &mut [&mut patched, &mut rebuilt, &mut memoed],
                op,
                &mut fresh,
            ) {
                continue;
            }
            let want = detect_native(&table, &cfds).unwrap().normalized();
            let got = detect_on_snapshot(&patched.snapshot(&table), &cfds)
                .unwrap()
                .normalized();
            prop_assert_eq!(&got, &want, "patched snapshot diverged after {:?}", op);
            let fallback = detect_on_snapshot(&rebuilt.snapshot(&table), &cfds)
                .unwrap()
                .normalized();
            prop_assert_eq!(&fallback, &want, "threshold fallback diverged after {:?}", op);
            // The memoized path (per-CFD fragments replayed while their
            // columns are untouched) must agree at every step too.
            let memo = detect_cached(&mut memoed, &table, &cfds).unwrap().normalized();
            prop_assert_eq!(&memo, &want, "memoized detect diverged after {:?}", op);
        }
        // The caches took genuinely different paths to the same answers.
        prop_assert_eq!(patched.encodes(), 1, "stream must ride the patch path");
        prop_assert_eq!(rebuilt.patches(), 0, "zero threshold must never patch");
    }

    /// Snapshot row order is an implementation detail: a patched snapshot
    /// (swap-removed, append-ordered) and a fresh arena-ordered encode
    /// carry the same rows and values — whether the stream was reported
    /// one mutation at a time or replayed through `note_batch` in
    /// random-length chunks from right after the encode, before any
    /// position index exists. Both detect like a fresh scan.
    #[test]
    fn patched_snapshot_content_matches_fresh_encode(
        table in arb_table(16),
        cfds in arb_cfds(),
        ops in arb_ops(16),
        chunks in proptest::collection::vec(1usize..6, 1..8),
    ) {
        use semandaq::colstore::Snapshot;
        let mut table = table;
        let mut batch_table = table.clone();
        let mut cache = SnapshotCache::new();
        cache.snapshot(&table);
        let mut fresh = 0u32;
        for op in &ops {
            apply(&mut table, &mut [&mut cache], op, &mut fresh);
        }

        // The batch arm: the same stream over a twin table, replayed in
        // chunks. A replay reads the table's current values, so a chunk
        // never carries a row it then deletes (that shape falls back to a
        // re-encode by contract); such a delete starts the next chunk.
        let mut batched = SnapshotCache::new();
        batched.snapshot(&batch_table);
        let mut fresh = 0u32;
        let mut lens = chunks.iter().cycle();
        let mut room = *lens.next().unwrap();
        let mut pending: Vec<TableDelta> = Vec::new();
        for op in &ops {
            let target = match op {
                Op::Delete(i) => pick(&batch_table, *i),
                _ => None,
            };
            let touches = |d: &TableDelta| match *d {
                TableDelta::Inserted(id) | TableDelta::CellSet(id, _) => Some(id) == target,
                TableDelta::Deleted(_) => false,
            };
            if pending.len() == room || pending.iter().any(touches) {
                batched.note_batch(&batch_table, &pending);
                pending.clear();
                room = *lens.next().unwrap();
            }
            pending.extend(mutate(&mut batch_table, op, &mut fresh));
        }
        batched.note_batch(&batch_table, &pending);

        let patched = cache.snapshot(&table);
        let batch_snap = batched.snapshot(&batch_table);
        prop_assert_eq!(batched.encodes(), 1, "every chunk was patched, not re-encoded");
        let reference = Snapshot::of(&table);
        prop_assert_eq!(patched.n_rows(), reference.n_rows());
        prop_assert_eq!(snapshot_rows(&patched), snapshot_rows(&reference));
        prop_assert_eq!(snapshot_rows(&batch_snap), snapshot_rows(&reference));
        let want = detect_native(&table, &cfds).unwrap().normalized();
        let per_row = detect_on_snapshot(&patched, &cfds).unwrap().normalized();
        let batch = detect_on_snapshot(&batch_snap, &cfds).unwrap().normalized();
        prop_assert_eq!(&per_row, &want);
        prop_assert_eq!(&batch, &want);
    }
}

/// Long-stream determinism: past the delta threshold the cache rebuilds
/// (full re-encode) and keeps answering correctly — the crossover is
/// invisible to the consumer.
#[test]
fn threshold_crossing_rebuilds_and_stays_correct() {
    let mut table = Table::new("r", Schema::of_strings(&COLS));
    for i in 0..40 {
        table
            .insert(vec![
                Value::str(format!("a{}", i % 3)),
                Value::str(format!("b{}", i % 4)),
                Value::str(format!("c{}", i % 2)),
                Value::str(format!("d{}", i % 5)),
            ])
            .unwrap();
    }
    let cfds = parse_cfds("r: [A] -> [B]\nr: [A='a0'] -> [C='c0']\nr: [B, C] -> [D]").unwrap();
    let mut cache = SnapshotCache::new();
    cache.snapshot(&table);
    // 600 single-cell mutations: far beyond the 256-patch floor, so the
    // cache must cross the threshold and rebuild at least once.
    for step in 0..600usize {
        let ids = table.row_ids();
        let id = ids[step % ids.len()];
        let col = step % 4;
        let val = Value::str(format!("{}{}", ["a", "b", "c", "d"][col], step % 6));
        table.update_cell(id, col, val).unwrap();
        cache.note_set_cell(&table, id, col);
        if step % 97 == 0 {
            let got = detect_on_snapshot(&cache.snapshot(&table), &cfds)
                .unwrap()
                .normalized();
            let want = detect_native(&table, &cfds).unwrap().normalized();
            assert_eq!(got, want, "diverged at step {step}");
        }
    }
    let got = detect_on_snapshot(&cache.snapshot(&table), &cfds)
        .unwrap()
        .normalized();
    let want = detect_native(&table, &cfds).unwrap().normalized();
    assert_eq!(got, want);
    assert!(
        cache.encodes() >= 2,
        "600 patches must cross the delta threshold at least once"
    );
    assert!(cache.patches() > 0, "and still patch between rebuilds");
}

// ------------------------------------------------------------------ audit
//
// The columnar server audits from its report's value counts and snapshot
// codes (`colstore::audit_cached`). After every step of a random stream its
// report must equal the value-space oracle's, field for field.

/// The audit's CFD pool, one rule per line: variable rules with
/// NULL-prone LHS and RHS columns, constant rules, a constant absent from
/// every dictionary (`'zz'`), a multi-filter constant LHS, and
/// filter-only variable rules. Small domains make tied groups (no strict
/// majority) common.
const AUDIT_POOL: [&str; 10] = [
    "r: [A] -> [B]",
    "r: [A, C] -> [D]",
    "r: [B] -> [C]",
    "r: [A='a0'] -> [C='c0']",
    "r: [B='b1'] -> [D='d1']",
    "r: [C='c1', D='d2'] -> [A='a1']",
    "r: [A='zz'] -> [B='b0']",
    "r: [B='b2'] -> [A='zz']",
    "r: [C='c0'] -> [D=_]",
    "r: [D='d0'] -> [B=_]",
];

/// Field-for-field equality with the oracle: `quality_report` over a
/// fresh native detect of the same table and rules.
fn assert_audit_matches_oracle(got: &QualityReport, table: &Table, cfds_text: &str, when: &str) {
    let cfds = parse_cfds(cfds_text).unwrap();
    let want = quality_report(table, &cfds, &detect_native(table, &cfds).unwrap()).unwrap();
    assert_eq!(got.tuples, want.tuples, "tuples {when}");
    assert_eq!(
        got.tuple_classes, want.tuple_classes,
        "tuple_classes {when}"
    );
    assert_eq!(got.attributes, want.attributes, "attributes {when}");
    assert_eq!(got.per_cfd, want.per_cfd, "per_cfd {when}");
    assert_eq!(got.stats, want.stats, "stats {when}");
}

/// The server's registered rules as parseable text.
fn rules_text(s: &QualityServer) -> String {
    s.engine()
        .cfds()
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// One step of a server-level stream.
#[derive(Debug, Clone)]
enum ServerOp {
    Row(Op),
    /// A mutation batch: inserts, deletes and cell sets in one apply.
    Batch(Vec<Op>),
    /// Register one more rule from [`AUDIT_POOL`].
    Register(usize),
    Repair,
}

fn arb_server_ops(max_ops: usize) -> impl Strategy<Value = Vec<ServerOp>> {
    let op = prop_oneof![
        6 => arb_op().prop_map(ServerOp::Row),
        2 => arb_ops(6).prop_map(ServerOp::Batch),
        1 => (0usize..AUDIT_POOL.len()).prop_map(ServerOp::Register),
        1 => Just(ServerOp::Repair),
    ];
    proptest::collection::vec(op, 1..max_ops)
}

/// Turn generated row ops into server mutations, resolving row picks
/// against the live ids as the batch will see them (a delete retires its
/// id, so no later op of the batch targets it).
fn to_mutations(table: &Table, ops: &[Op], fresh: &mut u32) -> Vec<Mutation> {
    let mut ids = table.row_ids();
    let mut out = Vec::new();
    for op in ops {
        match op {
            Op::Insert(cells) => out.push(Mutation::Insert(
                cells
                    .iter()
                    .enumerate()
                    .map(|(c, cell)| cell.value(c, fresh))
                    .collect(),
            )),
            Op::InsertAllNull => out.push(Mutation::Insert(vec![Value::Null; 4])),
            Op::Delete(i) if !ids.is_empty() => {
                let id = ids.swap_remove(i % ids.len());
                out.push(Mutation::Delete(id));
            }
            Op::SetCell { row, col, val } if !ids.is_empty() => out.push(Mutation::SetCell {
                row: ids[row % ids.len()],
                col: *col,
                value: val.value(*col, fresh),
            }),
            _ => {}
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The server's code-space audit equals the oracle after every step
    /// of a random stream of single mutations, batches, rule
    /// registrations and repairs.
    #[test]
    fn cached_audit_equals_oracle_after_every_step(
        table in arb_table(24),
        first in proptest::collection::vec(0usize..AUDIT_POOL.len(), 1..5),
        ops in arb_server_ops(16),
    ) {
        let mut server = QualityServer::new(db_with(table), "r").unwrap();
        for &i in &first {
            server.register_cfds(AUDIT_POOL[i]).unwrap();
        }
        let mut fresh = 0u32;
        for op in &ops {
            match op {
                ServerOp::Row(op) => {
                    let muts = to_mutations(server.table().unwrap(), std::slice::from_ref(op), &mut fresh);
                    for m in muts {
                        apply_mutation(&mut server, m).unwrap();
                    }
                }
                ServerOp::Batch(ops) => {
                    let mutations = to_mutations(server.table().unwrap(), ops, &mut fresh);
                    server.apply_batch(MutationBatch { mutations }).unwrap();
                }
                ServerOp::Register(i) => {
                    let already = rules_text(&server).lines().any(|l| l == AUDIT_POOL[*i]);
                    if !already {
                        server.register_cfds(AUDIT_POOL[*i]).unwrap();
                    }
                }
                ServerOp::Repair => {
                    server.repair().unwrap();
                }
            }
            let got = server.audit().unwrap();
            assert_audit_matches_oracle(&got, server.table().unwrap(), &rules_text(&server), &format!("after {op:?}"));
        }
    }

    /// `audit_cached` over a cache that spills every sealed chunk
    /// (two-row chunks, zero resident budget) and over a cache whose
    /// every mutation forces a rebuild still equals the oracle.
    #[test]
    fn spilled_and_rebuilt_audits_equal_oracle(
        table in arb_table(24),
        picks in proptest::collection::vec(0usize..AUDIT_POOL.len(), 1..=AUDIT_POOL.len()),
        ops in arb_ops(16),
    ) {
        let mut picked: Vec<&str> = Vec::new();
        for i in picks {
            if !picked.contains(&AUDIT_POOL[i]) {
                picked.push(AUDIT_POOL[i]);
            }
        }
        let text = picked.join("\n");
        let cfds = parse_cfds(&text).unwrap();
        let mut table = table;
        let mut spilled = SnapshotCache::new()
            .with_chunk_rows(2)
            .with_spill(MemChunkStore::shared(), 0);
        let mut rebuilt = SnapshotCache::new().with_delta_threshold(0.0);
        let mut fresh = 0u32;
        let step = |table: &Table, caches: [&mut SnapshotCache; 2], when: &str| {
            for cache in caches {
                let report = detect_cached(cache, table, &cfds).unwrap();
                let got = audit_cached(cache, table, &cfds, &report).unwrap();
                assert_audit_matches_oracle(&got, table, &text, when);
            }
        };
        step(&table, [&mut spilled, &mut rebuilt], "initially");
        for op in &ops {
            if apply(&mut table, &mut [&mut spilled, &mut rebuilt], op, &mut fresh) {
                step(&table, [&mut spilled, &mut rebuilt], &format!("after {op:?}"));
            }
        }
        if table.len() >= 4 {
            prop_assert!(spilled.spilled_chunks() > 0, "sealed chunks were spilled");
        }
    }
}

/// The pool is consistent as a whole, so no registration in the streams
/// above is refused.
#[test]
fn audit_pool_is_consistent() {
    let mut server =
        QualityServer::new(db_with(Table::new("r", Schema::of_strings(&COLS))), "r").unwrap();
    let verdict = server.register_cfds(&AUDIT_POOL.join("\n")).unwrap();
    assert!(verdict.is_consistent());
}

/// A group split evenly between two RHS values has no strict majority:
/// every member is dirty on both paths. One more vote flips the majority
/// side to arguably clean.
#[test]
fn tied_group_has_no_majority_on_the_cached_path() {
    let mut t = Table::new("r", Schema::of_strings(&COLS));
    for b in ["b0", "b1", "b0", "b1"] {
        t.insert(vec![
            Value::str("a0"),
            Value::str(b),
            Value::str("c0"),
            Value::str("d0"),
        ])
        .unwrap();
    }
    let mut server = QualityServer::new(db_with(t), "r").unwrap();
    server.register_cfds("r: [A] -> [B]").unwrap();
    let tied = server.audit().unwrap();
    assert_eq!(tied.tuple_classes, [0, 0, 0, 4]);
    assert_audit_matches_oracle(&tied, server.table().unwrap(), "r: [A] -> [B]", "tied");
    let donor = server.table().unwrap().get(RowId(0)).unwrap().to_vec();
    server.insert(donor).unwrap();
    let flipped = server.audit().unwrap();
    assert_eq!(flipped.tuple_classes, [0, 0, 3, 2]);
    assert_audit_matches_oracle(
        &flipped,
        server.table().unwrap(),
        "r: [A] -> [B]",
        "flipped",
    );
}

/// The server path over a snapshot whose sealed chunks live in the spill
/// store (a memory budget far below the data): the audit faults them in
/// and still equals the oracle, before and after mutations and a repair.
#[test]
fn server_audit_over_a_spilled_snapshot_equals_oracle() {
    let d = dirty_customers(9_000, 0.05, 23);
    let mut server = QualityServer::new(d.db, "customer")
        .unwrap()
        .with_config(ServerConfig {
            mem_budget: Some(1),
            ..ServerConfig::default()
        });
    server.register_cfds(CANONICAL_CFDS).unwrap();
    let check = |s: &mut QualityServer, when: &str| {
        let got = s.audit().unwrap();
        assert_audit_matches_oracle(&got, s.table().unwrap(), &rules_text(s), when);
    };
    check(&mut server, "cold");
    assert!(server.spilled_chunks() > 0, "the budget forces a spill");
    let ids = server.table().unwrap().row_ids();
    server
        .update_cell(ids[17], 2, Value::str("NOWHERE"))
        .unwrap();
    server.delete(ids[4_500]).unwrap();
    check(&mut server, "after mutations");
    server.repair().unwrap();
    check(&mut server, "after repair");
}
