//! Property: the sharded quality cluster computes exactly single-node
//! columnar detection — for every table, CFD set (constant + variable,
//! all-NULL and single-group edges included), router, shard count 1–8,
//! and any routed update stream applied after partitioning. Its audit,
//! graded in code space, equals the value-space oracle and the single-node
//! server's audit, field for field. Both hold after every step of a stream
//! of single mutations, batches and repairs, which is what the
//! coordinator's kept merges must survive.

mod common;

use common::{arb_cfds, arb_table, cfd_pool, COLS};
use proptest::prelude::*;
use semandaq::api::{Mutation, MutationBatch, QualityBackend};
use semandaq::audit::{quality_report, QualityReport};
use semandaq::cfd::parse::parse_cfds;
use semandaq::cfd::Cfd;
use semandaq::cluster::{HashRouter, RoundRobinRouter, ShardRouter, ShardedQualityServer};
use semandaq::colstore::{detect_columnar, MemChunkStore};
use semandaq::datagen::customer::CANONICAL_CFDS;
use semandaq::detect::detect_native;
use semandaq::minidb::{RowId, Schema, Table, Value};
use semandaq::system::QualityServer;

fn router(kind: usize) -> Box<dyn ShardRouter> {
    match kind % 3 {
        0 => Box::new(RoundRobinRouter::default()),
        1 => Box::new(HashRouter::default()), // whole-row hash
        _ => Box::new(HashRouter::new(vec![0])), // keyed on column A
    }
}

/// One update against both the reference table and the cluster. Row and
/// column picks are indices into the *current* live-row list, so a
/// generated stream stays applicable whatever the interleaving did to the
/// table; `digit == 3` writes NULL.
#[derive(Clone, Debug)]
enum Op {
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

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => proptest::collection::vec(0u8..4, 4).prop_map(Op::Insert),
        1 => (0usize..1024).prop_map(Op::Delete),
        4 => ((0usize..1024), 0usize..4, 0u8..4)
            .prop_map(|(row, col, digit)| Op::Set { row, col, digit }),
    ]
}

fn arb_ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(arb_op(), 0..max)
}

/// One step of a stream: a routed mutation, a batch, or a repair.
#[derive(Clone, Debug)]
enum Step {
    One(Op),
    Batch(Vec<Op>),
    Repair,
}

fn arb_steps(max: usize) -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        6 => arb_op().prop_map(Step::One),
        2 => proptest::collection::vec(arb_op(), 1..6).prop_map(Step::Batch),
        1 => Just(Step::Repair),
    ];
    proptest::collection::vec(step, 0..max)
}

/// Apply `op` identically to the single-node table and the cluster; the
/// global row ids the two sides assign must stay in lock-step.
fn apply(single: &mut Table, cluster: &mut ShardedQualityServer, op: &Op) {
    let ids = single.row_ids();
    match op {
        Op::Insert(digits) => {
            let row: Vec<Value> = digits
                .iter()
                .enumerate()
                .map(|(c, &d)| cell(c, d))
                .collect();
            let a = single.insert(row.clone()).expect("row fits schema");
            let b = cluster.insert(row).expect("cluster insert");
            assert_eq!(a, b, "global id allocation must mirror single-node");
        }
        Op::Delete(k) => {
            if let Some(&id) = ids.get(k % ids.len().max(1)) {
                single.delete(id).expect("live row");
                cluster.delete(id).expect("cluster delete");
            }
        }
        Op::Set { row, col, digit } => {
            if let Some(&id) = ids.get(row % ids.len().max(1)) {
                let v = cell(*col, *digit);
                single.update_cell(id, *col, v.clone()).expect("live row");
                cluster.update_cell(id, *col, v).expect("cluster update");
            }
        }
    }
}

/// Apply `op` to the single-node table alone and return it as the
/// mutation a batch carries (`None` when the table has no live row to
/// pick).
fn plan(single: &mut Table, op: &Op) -> Option<Mutation> {
    let ids = single.row_ids();
    match op {
        Op::Insert(digits) => {
            let row: Vec<Value> = digits
                .iter()
                .enumerate()
                .map(|(c, &d)| cell(c, d))
                .collect();
            single.insert(row.clone()).expect("row fits schema");
            Some(Mutation::Insert(row))
        }
        Op::Delete(k) => {
            let &id = ids.get(k % ids.len().max(1))?;
            single.delete(id).expect("live row");
            Some(Mutation::Delete(id))
        }
        Op::Set { row, col, digit } => {
            let &id = ids.get(row % ids.len().max(1))?;
            let value = cell(*col, *digit);
            single
                .update_cell(id, *col, value.clone())
                .expect("live row");
            Some(Mutation::SetCell {
                row: id,
                col: *col,
                value,
            })
        }
    }
}

/// Apply `step` to both sides. A batch goes to the cluster in one
/// `apply_batch`; a repair runs on the cluster, and its changes are
/// replayed onto the single-node table.
fn apply_step(single: &mut Table, cluster: &mut ShardedQualityServer, step: &Step) {
    match step {
        Step::One(op) => apply(single, cluster, op),
        Step::Batch(ops) => {
            let next = single.arena_size() as u64;
            let mutations: Vec<Mutation> = ops.iter().filter_map(|op| plan(single, op)).collect();
            let inserts = mutations
                .iter()
                .filter(|m| matches!(m, Mutation::Insert(_)))
                .count() as u64;
            let out = cluster
                .apply_batch(MutationBatch { mutations })
                .expect("every planned mutation applies");
            let ids: Vec<RowId> = (next..next + inserts).map(RowId).collect();
            assert_eq!(out.inserted, ids, "batch ids mirror single-node");
        }
        Step::Repair => {
            for change in cluster.repair().expect("cluster repair").changes {
                single
                    .update_cell(change.row, change.col, change.new)
                    .expect("repaired rows are live");
            }
        }
    }
}

/// The value-space audit of a single-node table: the oracle the cluster's
/// code-space audit must equal.
fn oracle(table: &Table, cfds: &[Cfd]) -> QualityReport {
    quality_report(table, cfds, &detect_native(table, cfds).unwrap()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharded_equals_single_node_under_update_streams(
        table in arb_table(40),
        cfds in arb_cfds(),
        shards in 1usize..=8,
        router_kind in 0usize..3,
        ops in arb_ops(30),
    ) {
        let mut single = table.clone();
        let mut cluster =
            ShardedQualityServer::partition(&table, shards, router(router_kind)).unwrap();
        cluster.register_cfds(cfds.clone()).unwrap();
        prop_assert_eq!(cluster.len(), single.len());

        // Fresh partition detects like single-node, and audits like the
        // value-space oracle.
        let sharded = cluster.detect().unwrap().normalized();
        let reference = detect_columnar(&single, &cfds).unwrap().normalized();
        prop_assert_eq!(sharded, reference);
        prop_assert_eq!(cluster.audit().unwrap(), oracle(&single, &cfds));

        // ... and stays exact under a routed post-partition update stream.
        for op in &ops {
            apply(&mut single, &mut cluster, op);
        }
        let sharded = cluster.detect().unwrap().normalized();
        let reference = detect_columnar(&single, &cfds).unwrap().normalized();
        prop_assert_eq!(sharded, reference);
        prop_assert_eq!(cluster.audit().unwrap(), oracle(&single, &cfds));

        // Steady state: a repeat detect with no interleaved mutation does
        // zero encode work and replays every shard's partials.
        let encodes = cluster.snapshot_encodes();
        let again = cluster.detect().unwrap().normalized();
        let reference = detect_columnar(&single, &cfds).unwrap().normalized();
        prop_assert_eq!(again, reference);
        prop_assert_eq!(cluster.snapshot_encodes(), encodes);
        prop_assert_eq!(cluster.last_detect_stats().partials_computed, 0);
    }

    #[test]
    fn sharded_equals_single_node_after_every_step(
        table in arb_table(40),
        cfds in arb_cfds(),
        shards in 1usize..=8,
        steps in arb_steps(16),
    ) {
        for router_kind in 0..3 {
            let mut single = table.clone();
            let mut cluster =
                ShardedQualityServer::partition(&table, shards, router(router_kind)).unwrap();
            cluster.register_cfds(cfds.clone()).unwrap();
            for (i, step) in std::iter::once(None).chain(steps.iter().map(Some)).enumerate() {
                if let Some(step) = step {
                    apply_step(&mut single, &mut cluster, step);
                }
                let label = format!("router {router_kind}, step {i}: {step:?}");
                let sharded = cluster.detect().unwrap().normalized();
                let reference = detect_columnar(&single, &cfds).unwrap().normalized();
                prop_assert_eq!(sharded, reference, "{}", label);
                prop_assert_eq!(cluster.audit().unwrap(), oracle(&single, &cfds), "{}", label);
            }
        }
    }
}

#[test]
fn all_null_instance_is_clean_on_every_shard_count() {
    let mut t = Table::new("r", Schema::of_strings(&COLS));
    for _ in 0..12 {
        t.insert(vec![Value::Null, Value::Null, Value::Null, Value::Null])
            .unwrap();
    }
    let cfds = cfd_pool();
    for shards in [1usize, 3, 8] {
        let mut c =
            ShardedQualityServer::partition(&t, shards, Box::new(RoundRobinRouter::default()))
                .unwrap();
        c.register_cfds(cfds.clone()).unwrap();
        let r = c.detect().unwrap();
        assert!(
            r.is_empty(),
            "all-NULL data cannot violate ({shards} shards)"
        );
    }
}

#[test]
fn single_group_split_across_every_shard() {
    // The whole table is one LHS group; round-robin over 4 shards splits
    // it maximally — every conflict is cross-shard, none local.
    let cfds = parse_cfds("r: [A] -> [B]").unwrap();
    let mut t = Table::new("r", Schema::of_strings(&["A", "B"]));
    for v in ["v", "v", "v", "w"] {
        t.insert(vec![Value::str("k"), Value::str(v)]).unwrap();
    }
    let mut c =
        ShardedQualityServer::partition(&t, 4, Box::new(RoundRobinRouter::default())).unwrap();
    c.register_cfds(cfds.clone()).unwrap();
    let sharded = c.detect().unwrap().normalized();
    let single = detect_columnar(&t, &cfds).unwrap().normalized();
    assert_eq!(sharded.len(), 1, "one merged group violation");
    assert_eq!(sharded, single);
    // Each shard was locally clean: the violation only exists merged.
    for s in 0..4 {
        let local = detect_columnar(c.shard_table(s), &cfds).unwrap();
        assert!(local.is_empty(), "shard {s} is clean in isolation");
    }
}

#[test]
fn more_shards_than_rows() {
    let cfds = parse_cfds("r: [A] -> [B]").unwrap();
    let mut t = Table::new("r", Schema::of_strings(&["A", "B"]));
    t.insert(vec![Value::str("k"), Value::str("x")]).unwrap();
    t.insert(vec![Value::str("k"), Value::str("y")]).unwrap();
    let mut c =
        ShardedQualityServer::partition(&t, 8, Box::new(RoundRobinRouter::default())).unwrap();
    c.register_cfds(cfds.clone()).unwrap();
    assert_eq!(
        c.detect().unwrap().normalized(),
        detect_columnar(&t, &cfds).unwrap().normalized()
    );
}

#[test]
fn customers_equivalence_at_scale() {
    let d = semandaq::datagen::dirty_customers(2_000, 0.05, 47);
    let t = d.db.table("customer").unwrap();
    let reference = detect_columnar(t, &d.cfds).unwrap().normalized();
    assert!(!reference.is_empty());
    for (shards, key_cols) in [(2usize, vec![]), (5, vec![1]), (8, vec![1, 3])] {
        let mut c = ShardedQualityServer::partition(t, shards, Box::new(HashRouter::new(key_cols)))
            .unwrap();
        c.register_cfds(d.cfds.clone()).unwrap();
        assert_eq!(
            c.detect().unwrap().normalized(),
            reference,
            "{shards} shards"
        );
    }
}

/// Apply the same small mutation script through the unified trait: a
/// delete, an insert, and cell updates that add and remove conflicts.
fn mutate(backend: &mut dyn QualityBackend, donor: &[Value]) {
    backend.delete(RowId(3)).unwrap();
    backend.delete(RowId(10)).unwrap();
    let mut row = donor.to_vec();
    row[2] = Value::str("Nowhere");
    backend.insert(row).unwrap();
    backend.update_cell(RowId(0), 1, Value::str("NL")).unwrap();
    backend.update_cell(RowId(5), 2, Value::Null).unwrap();
    backend.update_cell(RowId(7), 5, Value::str("99")).unwrap();
}

fn assert_same_audit(cluster: &QualityReport, single: &QualityReport, label: &str) {
    assert_eq!(cluster.tuples, single.tuples, "{label}: tuples");
    assert_eq!(
        cluster.tuple_classes, single.tuple_classes,
        "{label}: tuple_classes"
    );
    assert_eq!(cluster.attributes, single.attributes, "{label}: attributes");
    assert_eq!(cluster.per_cfd, single.per_cfd, "{label}: per_cfd");
    assert_eq!(cluster.stats, single.stats, "{label}: stats");
    assert_eq!(cluster, single, "{label}");
}

#[test]
fn sharded_audit_equals_single_node_server_audit() {
    let d = semandaq::datagen::dirty_customers(300, 0.06, 48);
    let t = d.db.table("customer").unwrap();
    let donor = t.get(RowId(1)).unwrap().to_vec();
    let mut server = QualityServer::new(d.db.clone(), "customer").unwrap();
    server.register_cfds(CANONICAL_CFDS).unwrap();
    let fresh = server.audit().unwrap();
    mutate(&mut server, &donor);
    let mutated = server.audit().unwrap();
    assert!(mutated.tuple_classes[3] > 0, "the workload must be dirty");

    let mut saw_empty_shard = false;
    for shards in 1usize..=8 {
        // Hashing on CC (a handful of values) leaves shards empty.
        let routers: Vec<(&str, Box<dyn ShardRouter>)> = vec![
            ("rr", Box::new(RoundRobinRouter::default())),
            ("hash", Box::new(HashRouter::new(vec![5]))),
        ];
        for (name, router) in routers {
            let label = format!("{name}/s{shards}");
            let mut c = ShardedQualityServer::partition(t, shards, router).unwrap();
            c.register_cfds(parse_cfds(CANONICAL_CFDS).unwrap())
                .unwrap();
            assert_same_audit(&c.audit().unwrap(), &fresh, &label);
            mutate(&mut c, &donor);
            assert_same_audit(&c.audit().unwrap(), &mutated, &label);
            saw_empty_shard |= (0..shards).any(|s| c.shard_table(s).is_empty());
        }
    }
    assert!(
        saw_empty_shard,
        "some configuration must hold an empty shard"
    );
}

#[test]
fn sharded_audit_of_an_empty_relation() {
    let d = semandaq::datagen::dirty_customers(4, 0.0, 49);
    let mut db = d.db.clone();
    let t = db.table_mut("customer").unwrap();
    for id in t.row_ids() {
        t.delete(id).unwrap();
    }
    let t = db.table("customer").unwrap().clone();
    let mut server = QualityServer::new(db, "customer").unwrap();
    server.register_cfds(CANONICAL_CFDS).unwrap();
    let single = server.audit().unwrap();
    assert_eq!(single.tuples, 0);
    for shards in [1usize, 3, 8] {
        let mut c =
            ShardedQualityServer::partition(&t, shards, Box::new(RoundRobinRouter::default()))
                .unwrap();
        c.register_cfds(parse_cfds(CANONICAL_CFDS).unwrap())
            .unwrap();
        assert_same_audit(&c.audit().unwrap(), &single, &format!("s{shards}"));
    }
}

/// Two shards of one `[A] -> [B]` group, round-robin placed, so row `i`
/// lands on shard `i % 2`.
fn two_shard_group(values: &[&str]) -> (Table, Vec<Cfd>, ShardedQualityServer) {
    let cfds = parse_cfds("r: [A] -> [B]").unwrap();
    let mut t = Table::new("r", Schema::of_strings(&["A", "B"]));
    for v in values {
        t.insert(vec![Value::str("k"), Value::str(*v)]).unwrap();
    }
    let mut c =
        ShardedQualityServer::partition(&t, 2, Box::new(RoundRobinRouter::default())).unwrap();
    c.register_cfds(cfds.clone()).unwrap();
    (t, cfds, c)
}

#[test]
fn cross_shard_tie_has_no_majority() {
    // {a} on shard 0, {b} on shard 1: neither value holds a strict
    // majority, so both members are minority, hence dirty.
    let (t, cfds, mut c) = two_shard_group(&["a", "b"]);
    let audit = c.audit().unwrap();
    assert_eq!(audit.tuple_classes, [0, 0, 0, 2]);
    assert_eq!(audit, oracle(&t, &cfds));
}

#[test]
fn majority_that_exists_only_after_the_merge() {
    // {a, a} on shard 0, {b} on shard 1: each shard is clean alone; the
    // merged group's majority is `a`, so the `a` rows are arguably clean
    // and the `b` row is dirty.
    let (t, cfds, mut c) = two_shard_group(&["a", "b", "a"]);
    assert_eq!(c.shard_table(0).len(), 2);
    let audit = c.audit().unwrap();
    assert_eq!(audit.tuple_classes, [0, 0, 2, 1]);
    assert_eq!(audit, oracle(&t, &cfds));
}

#[test]
fn spilled_cluster_audits_like_the_oracle() {
    // Two shards of ~4.5k rows each seal a full default-size chunk per
    // column, and a one-byte budget spills every sealed chunk, so pass 2
    // reads its codes back through the store.
    let d = semandaq::datagen::dirty_customers(9_000, 0.05, 50);
    let t = d.db.table("customer").unwrap();
    let donor = t.get(RowId(1)).unwrap().to_vec();
    let mut c = ShardedQualityServer::partition(t, 2, Box::new(RoundRobinRouter::default()))
        .unwrap()
        .with_spill(MemChunkStore::shared(), 1);
    c.register_cfds(d.cfds.clone()).unwrap();
    assert_eq!(c.audit().unwrap(), oracle(t, &d.cfds));
    assert!(c.spilled_chunks() > 0, "the budget must force evictions");
    mutate(&mut c, &donor);
    assert_eq!(
        c.audit().unwrap(),
        oracle(&c.merged_table().unwrap(), &d.cfds)
    );
    c.repair().unwrap();
    let repaired = c.audit().unwrap();
    assert_eq!(repaired, oracle(&c.merged_table().unwrap(), &d.cfds));
    assert_eq!(repaired.tuple_classes[3], 0, "repair leaves nothing dirty");
}
