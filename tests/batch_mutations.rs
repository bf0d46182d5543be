//! Property: a random [`MutationBatch`] applied through `apply_batch`
//! yields exactly the state the same mutations applied one-by-one yield —
//! identical tables, identical detection reports, and snapshot contents
//! that detect identically to a fresh columnar encode — on both the
//! single-node server and the sharded cluster.
//!
//! A batch with one failing mutation (a dead row id, a wrong-arity row or
//! an out-of-range column) at a random position is an error on the
//! single-node server, the monitor and the cluster alike, and each of
//! them ends where a one-by-one application that stops at the failure
//! ends: the same live rows, the same report and the same next row id.

mod common;

use common::{arb_cfds, arb_table, COLS};
use proptest::prelude::*;
use semandaq::api::{apply_mutation, Mutation, MutationBatch, QualityBackend};
use semandaq::cluster::{HashRouter, RoundRobinRouter, ShardRouter, ShardedQualityServer};
use semandaq::colstore::detect_columnar;
use semandaq::minidb::{Database, RowId, Table, Value};
use semandaq::system::{DataMonitor, DetectorKind, MonitorMode, QualityServer, ServerConfig};

fn router(kind: usize) -> Box<dyn ShardRouter> {
    match kind % 3 {
        0 => Box::new(RoundRobinRouter::default()),
        1 => Box::new(HashRouter::default()),
        _ => Box::new(HashRouter::new(vec![0])),
    }
}

/// Raw generated op: row/col picks are indices, resolved against the
/// evolving live-id simulation when the concrete batch is built.
#[derive(Clone, Debug)]
enum RawOp {
    Insert(Vec<u8>),
    Delete(usize),
    Set { row: usize, col: usize, digit: u8 },
}

fn cell(col: usize, digit: u8) -> Value {
    if digit == 3 {
        Value::Null
    } else {
        Value::str(format!("{}{digit}", ["a", "b", "c", "d"][col]))
    }
}

fn arb_raw_ops(max: usize) -> impl Strategy<Value = Vec<RawOp>> {
    let op = prop_oneof![
        3 => proptest::collection::vec(0u8..4, 4).prop_map(RawOp::Insert),
        1 => (0usize..1024).prop_map(RawOp::Delete),
        3 => ((0usize..1024), 0usize..4, 0u8..4)
            .prop_map(|(row, col, digit)| RawOp::Set { row, col, digit }),
    ];
    proptest::collection::vec(op, 1..max)
}

/// Resolve raw ops into a concrete, valid mutation sequence against the
/// initial table: a simulated live-id list tracks inserts (which are
/// assigned the next arena id) and deletes, so deletes and cell-sets can
/// target rows created earlier in the same batch — including the
/// insert-then-delete shape the snapshot cache must survive.
fn resolve(table: &Table, raw: &[RawOp]) -> Vec<Mutation> {
    let mut live: Vec<RowId> = table.row_ids();
    let mut next = table.arena_size() as u64;
    let mut out = Vec::with_capacity(raw.len());
    for op in raw {
        match op {
            RawOp::Insert(digits) => {
                let row: Vec<Value> = digits
                    .iter()
                    .enumerate()
                    .map(|(c, &d)| cell(c, d))
                    .collect();
                live.push(RowId(next));
                next += 1;
                out.push(Mutation::Insert(row));
            }
            RawOp::Delete(k) => {
                if live.is_empty() {
                    continue;
                }
                let id = live.swap_remove(k % live.len());
                out.push(Mutation::Delete(id));
            }
            RawOp::Set { row, col, digit } => {
                if live.is_empty() {
                    continue;
                }
                let id = live[row % live.len()];
                out.push(Mutation::SetCell {
                    row: id,
                    col: col % 4,
                    value: cell(col % 4, *digit),
                });
            }
        }
    }
    out
}

/// The per-mutation reference arm, written once over the unified API —
/// the same calls work on the server and the cluster.
fn apply_one_by_one(b: &mut dyn QualityBackend, muts: &[Mutation]) {
    for m in muts {
        apply_mutation(b, m.clone()).expect("mutation applies");
    }
}

fn rows_of(t: &Table) -> Vec<(RowId, Vec<Value>)> {
    t.iter().map(|(id, r)| (id, r.to_vec())).collect()
}

/// A mutation that fails after `prefix` has been applied to `table`:
/// `kind` picks a dead row id (deleted earlier, or past the allocator), a
/// row of the wrong arity, or a column past the schema on a live row.
fn failing_mutation(table: &Table, prefix: &[Mutation], kind: usize, pick: usize) -> Mutation {
    let mut live = table.row_ids();
    let mut dead: Vec<RowId> = Vec::new();
    let mut next = table.arena_size() as u64;
    for m in prefix {
        match m {
            Mutation::Insert(_) => {
                live.push(RowId(next));
                next += 1;
            }
            Mutation::Delete(id) => {
                live.retain(|l| l != id);
                dead.push(*id);
            }
            Mutation::SetCell { .. } => {}
        }
    }
    match kind % 3 {
        0 => {
            let id = dead.get(pick % (dead.len() + 1)).copied();
            let id = id.unwrap_or(RowId(next + pick as u64));
            if pick.is_multiple_of(2) {
                Mutation::Delete(id)
            } else {
                Mutation::SetCell {
                    row: id,
                    col: pick % COLS.len(),
                    value: cell(0, 0),
                }
            }
        }
        1 => {
            let arity = [0, 1, 3, 5][pick % 4];
            Mutation::Insert((0..arity).map(|c| cell(c % COLS.len(), 0)).collect())
        }
        _ => Mutation::SetCell {
            row: live.get(pick % live.len().max(1)).copied().unwrap_or(RowId(0)),
            col: COLS.len() + pick % 3,
            value: cell(0, 1),
        },
    }
}

/// A backend under the failed-batch property, kept concrete so its live
/// rows can be read back.
enum Subject {
    Server(QualityServer),
    Monitor(DataMonitor),
    Cluster(ShardedQualityServer),
}

impl Subject {
    fn backend(&mut self) -> &mut dyn QualityBackend {
        match self {
            Subject::Server(s) => s,
            Subject::Monitor(m) => m,
            Subject::Cluster(c) => c,
        }
    }

    fn rows(&self) -> Vec<(RowId, Vec<Value>)> {
        match self {
            Subject::Server(s) => rows_of(s.table().unwrap()),
            Subject::Monitor(m) => rows_of(m.database().table("r").unwrap()),
            Subject::Cluster(c) => rows_of(&c.merged_table().unwrap()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn batched_equals_one_by_one_on_the_single_node_server(
        table in arb_table(40),
        cfds in arb_cfds(),
        raw in arb_raw_ops(30),
    ) {
        let muts = resolve(&table, &raw);
        let mut db = Database::new();
        db.register_table(table.clone());
        let make = || {
            QualityServer::new(db.clone(), "r").unwrap().with_config(ServerConfig {
                detector: DetectorKind::Columnar,
                ..ServerConfig::default()
            })
        };
        let mut batched = make();
        let mut stepped = make();
        for s in [&mut batched, &mut stepped] {
            s.engine_mut().register(cfds.clone()).unwrap();
            s.detect().unwrap(); // warm the snapshot caches
        }
        let out = batched.apply_batch(MutationBatch { mutations: muts.clone() }).unwrap();
        prop_assert_eq!(out.applied, muts.len());
        apply_one_by_one(&mut stepped, &muts);
        // Identical tables...
        prop_assert_eq!(rows_of(batched.table().unwrap()), rows_of(stepped.table().unwrap()));
        // ...identical reports, and both equal a fresh columnar encode of
        // the mutated table — which pins the *patched snapshot contents*,
        // since the cached detect rides them.
        let fresh = detect_columnar(batched.table().unwrap(), &cfds).unwrap().normalized();
        let b = batched.detect().unwrap().normalized();
        let s = stepped.detect().unwrap().normalized();
        prop_assert_eq!(&b, &s);
        prop_assert_eq!(&b, &fresh);
    }

    #[test]
    fn batched_equals_one_by_one_on_the_sharded_cluster(
        table in arb_table(40),
        cfds in arb_cfds(),
        shards in 1usize..=5,
        router_kind in 0usize..3,
        raw in arb_raw_ops(30),
    ) {
        let muts = resolve(&table, &raw);
        let mut batched =
            ShardedQualityServer::partition(&table, shards, router(router_kind)).unwrap();
        let mut stepped =
            ShardedQualityServer::partition(&table, shards, router(router_kind)).unwrap();
        for c in [&mut batched, &mut stepped] {
            c.register_cfds(cfds.clone()).unwrap();
            c.detect().unwrap(); // warm every shard snapshot
        }
        let out = batched.apply_batch(MutationBatch { mutations: muts.clone() }).unwrap();
        prop_assert_eq!(out.applied, muts.len());
        apply_one_by_one(&mut stepped, &muts);
        prop_assert_eq!(
            rows_of(&batched.merged_table().unwrap()),
            rows_of(&stepped.merged_table().unwrap())
        );
        let fresh = detect_columnar(&batched.merged_table().unwrap(), &cfds)
            .unwrap()
            .normalized();
        let b = batched.detect().unwrap().normalized();
        let s = stepped.detect().unwrap().normalized();
        prop_assert_eq!(&b, &s);
        prop_assert_eq!(&b, &fresh);
    }

    #[test]
    fn failed_batch_leaves_the_one_by_one_prefix_on_every_backend(
        table in arb_table(30),
        cfds in arb_cfds(),
        shards in 1usize..=5,
        router_kind in 0usize..3,
        raw in arb_raw_ops(20),
        at in 0usize..1024,
        kind in 0usize..3,
        pick in 0usize..64,
    ) {
        let muts = resolve(&table, &raw);
        let at = at % (muts.len() + 1);
        let bad = failing_mutation(&table, &muts[..at], kind, pick);
        let mut batch = muts[..at].to_vec();
        batch.push(bad.clone());
        batch.extend_from_slice(&muts[at..]);

        let db = common::db_with(table.clone());
        let server = || {
            let mut s = QualityServer::new(db.clone(), "r").unwrap();
            s.engine_mut().register(cfds.clone()).unwrap();
            s
        };
        // The reference: one by one, stopping at the failure.
        let mut stepped = server();
        stepped.detect().unwrap();
        apply_one_by_one(&mut stepped, &muts[..at]);
        prop_assert!(apply_mutation(&mut stepped, bad).is_err());
        let want_rows = rows_of(stepped.table().unwrap());
        let want_report = stepped.detect().unwrap().normalized();
        let want_next = stepped.next_row_id().unwrap();

        let mut cluster =
            ShardedQualityServer::partition(&table, shards, router(router_kind)).unwrap();
        cluster.register_cfds(cfds.clone()).unwrap();
        let subjects = vec![
            ("server", Subject::Server(server())),
            (
                "monitor",
                Subject::Monitor(
                    DataMonitor::new(db.clone(), "r", cfds.clone(), MonitorMode::DetectOnly)
                        .unwrap(),
                ),
            ),
            ("cluster", Subject::Cluster(cluster)),
        ];
        for (label, mut subject) in subjects {
            let b = subject.backend();
            b.detect().unwrap(); // warm the snapshot caches
            prop_assert!(
                b.apply_batch(MutationBatch { mutations: batch.clone() }).is_err(),
                "{}: the batch holds a failing mutation", label
            );
            prop_assert_eq!(b.detect().unwrap().normalized(), want_report.clone(), "{}", label);
            if let Ok(next) = b.next_row_id() {
                prop_assert_eq!(next, want_next, "{}", label);
            }
            prop_assert_eq!(subject.rows(), want_rows.clone(), "{}", label);
            // The id allocator stands where the reference's does, also on a
            // backend that does not answer `next_row_id`.
            let probe = subject.backend().insert((0..COLS.len()).map(|c| cell(c, 0)).collect());
            prop_assert_eq!(probe.unwrap(), RowId(want_next), "{}", label);
        }
    }
}

#[test]
fn insert_then_delete_in_one_batch_is_survivable() {
    // The snapshot cache cannot replay values of a row that was inserted
    // and deleted within the same batch: it must fall back to a rebuild,
    // never serve a wrong snapshot.
    let mut t = Table::new("r", semandaq::minidb::Schema::of_strings(&COLS));
    for d in 0..3u8 {
        t.insert((0..4).map(|c| cell(c, d)).collect()).unwrap();
    }
    let cfds = common::cfd_pool();
    let mut db = Database::new();
    db.register_table(t.clone());
    let mut s = QualityServer::new(db, "r")
        .unwrap()
        .with_config(ServerConfig {
            detector: DetectorKind::Columnar,
            ..ServerConfig::default()
        });
    s.engine_mut().register(cfds.clone()).unwrap();
    s.detect().unwrap();
    let ghost = RowId(t.arena_size() as u64);
    s.apply_batch(MutationBatch {
        mutations: vec![
            Mutation::Insert((0..4).map(|c| cell(c, 1)).collect()),
            Mutation::Delete(ghost),
            Mutation::SetCell {
                row: RowId(0),
                col: 1,
                value: cell(1, 2),
            },
        ],
    })
    .unwrap();
    let fresh = detect_columnar(s.table().unwrap(), &cfds)
        .unwrap()
        .normalized();
    assert_eq!(s.detect().unwrap().normalized(), fresh);
}
