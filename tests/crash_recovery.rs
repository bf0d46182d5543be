//! Crash-recovery properties of the durability tier (`crates/durable`).
//!
//! The central claim: **a crash is a truncation, and every truncation
//! recovers to a serial prefix.** For a WAL produced by a known mutation
//! script, cutting the file at *every byte boundary* and recovering must
//! yield exactly the state the same backend reaches by applying the
//! longest record prefix that survived the cut — byte-identical rows and
//! detect reports, for the single-node server and the 3-shard cluster
//! alike. No cut may panic, resync past damage, or replay a partial
//! record.
//!
//! Alongside it, the memory-budget acceptance check: detection over a
//! spill-backed snapshot cache with a budget of ~10% of the encoded
//! table must complete and agree byte-for-byte with the unbudgeted run.

use std::path::PathBuf;
use std::sync::Once;

use semandaq::api::{dispatch, dispatch_line, Mutation, QualityBackend, Request, Response};
use semandaq::cluster::{HashRouter, ShardedQualityServer};
use semandaq::datagen::{customer::CANONICAL_CFDS, dirty_customers};
use semandaq::durable::{Durable, PagedStore, WAL_FILE};
use semandaq::minidb::{RowId, Value};
use semandaq::system::{QualityServer, ServerConfig};

const ROWS: usize = 48;
const SEED: u64 = 777;

/// Small chunks so the spill machinery actually engages at test scale.
/// Every test sets this before its first colstore call; the process-wide
/// default is read once, so the value must be the same everywhere.
fn small_chunks() {
    static INIT: Once = Once::new();
    INIT.call_once(|| std::env::set_var("SDQ_CHUNK_ROWS", "16"));
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdq_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn single() -> Box<dyn QualityBackend + Send> {
    let w = dirty_customers(ROWS, 0.05, SEED);
    Box::new(QualityServer::new(w.db, "customer").unwrap())
}

fn cluster() -> Box<dyn QualityBackend + Send> {
    let w = dirty_customers(ROWS, 0.05, SEED);
    Box::new(
        ShardedQualityServer::partition(
            w.db.table("customer").unwrap(),
            3,
            Box::new(HashRouter::new(vec![1])),
        )
        .unwrap(),
    )
}

/// A schema-valid row with one column overridden — mutation fodder.
fn donor_row(col: usize, v: &str) -> Vec<Value> {
    let w = dirty_customers(ROWS, 0.05, SEED);
    let mut row: Vec<Value> =
        w.db.table("customer")
            .unwrap()
            .iter()
            .next()
            .unwrap()
            .1
            .to_vec();
    row[col] = Value::str(v);
    row
}

/// The mutation script: every kind of logged record, all successful (so
/// `records_replayed` maps 1:1 onto script prefixes), including a
/// WAL-hostile embedded newline.
fn script() -> Vec<Request> {
    vec![
        Request::RegisterCfds {
            text: CANONICAL_CFDS.to_string(),
        },
        Request::Insert {
            row: donor_row(2, "FIRST"),
        },
        Request::Insert {
            row: donor_row(2, "TWO\nLINES"),
        },
        Request::UpdateCell {
            row: RowId(0),
            col: 2,
            value: Value::str("ELSEWHERE"),
        },
        Request::ApplyBatch {
            batch: vec![
                Mutation::Insert(donor_row(3, "00000")),
                Mutation::SetCell {
                    row: RowId(1),
                    col: 1,
                    value: Value::str("01"),
                },
                Mutation::Delete(RowId(2)),
            ]
            .into(),
        },
        // Drop the first scripted insert (RowId continues past the seed).
        Request::Delete {
            row: RowId(ROWS as u64),
        },
        Request::Insert {
            row: donor_row(2, "LAST"),
        },
    ]
}

/// Exported rows + encoded detect report: total observable state.
type Fingerprint = (Vec<(RowId, Vec<Value>)>, String);

fn fingerprint(b: &mut dyn QualityBackend) -> Fingerprint {
    let rows = b.export_rows().expect("backend exports");
    let detect = dispatch(b, Request::Detect).encode();
    (rows, detect)
}

/// The property itself, generic over the backend under recovery.
fn every_cut_recovers_a_serial_prefix(mk: fn() -> Box<dyn QualityBackend + Send>, tag: &str) {
    small_chunks();
    let reqs = script();

    // Full run through the log.
    let full_dir = tmp(&format!("{tag}_full"));
    let mut d = Durable::open(&full_dir, mk()).unwrap();
    for r in &reqs {
        let resp = dispatch(&mut d, r.clone());
        assert!(
            !matches!(resp, Response::Error { .. }),
            "script must apply cleanly: {r:?} -> {resp:?}"
        );
    }
    let wal = std::fs::read(full_dir.join(WAL_FILE)).unwrap();
    drop(d);

    // Serial reference state after each script prefix.
    let refs: Vec<Fingerprint> = (0..=reqs.len())
        .map(|k| {
            let mut b = mk();
            for r in &reqs[..k] {
                dispatch(b.as_mut(), r.clone());
            }
            fingerprint(b.as_mut())
        })
        .collect();

    let cut_dir = tmp(&format!("{tag}_cut"));
    let mut last_k = 0usize;
    for cut in 0..=wal.len() {
        std::fs::write(cut_dir.join(WAL_FILE), &wal[..cut]).unwrap();
        let mut d = Durable::open(&cut_dir, mk())
            .unwrap_or_else(|e| panic!("cut at {cut}/{} must recover: {e}", wal.len()));
        let k = d.recovery().records_replayed;
        assert!(
            k == last_k || k == last_k + 1,
            "cut={cut}: replayed {k} after {last_k} — a cut can only complete one record"
        );
        assert_eq!(
            d.inner().export_rows().unwrap(),
            refs[k].0,
            "cut={cut}: recovered rows must match the {k}-record serial prefix"
        );
        // Detect reports are compared once per distinct prefix (the rows
        // above are compared at every single cut).
        if k != last_k || cut == wal.len() {
            let got = dispatch(&mut d, Request::Detect).encode();
            assert_eq!(got, refs[k].1, "cut={cut}: detect after {k} records");
        }
        last_k = k;
    }
    assert_eq!(last_k, reqs.len(), "the uncut log replays every record");

    // Post-recovery id allocation matches the never-crashed run: the next
    // insert gets the same id both ways (tombstones included).
    let mut recovered = Durable::open(&cut_dir, mk()).unwrap();
    let mut serial = mk();
    for r in &reqs {
        dispatch(serial.as_mut(), r.clone());
    }
    let probe = donor_row(2, "PROBE");
    assert_eq!(
        recovered.insert(probe.clone()).unwrap(),
        serial.insert(probe).unwrap(),
        "id allocation diverged after recovery"
    );

    let _ = std::fs::remove_dir_all(&full_dir);
    let _ = std::fs::remove_dir_all(&cut_dir);
}

#[test]
fn single_node_recovers_every_byte_truncation() {
    every_cut_recovers_a_serial_prefix(single, "single");
}

#[test]
fn three_shard_cluster_recovers_every_byte_truncation() {
    every_cut_recovers_a_serial_prefix(cluster, "cluster");
}

/// A frame the backend rejects is logged before it is applied, so a
/// reopen replays it: it must re-fail, not panic, and leave the relation
/// as the live run left it.
fn rejected_frames_refail_on_replay(mk: fn() -> Box<dyn QualityBackend + Send>, tag: &str) {
    small_chunks();
    let frames = [
        r#"{"op":"update_cell","row":0,"col":9,"value":"z"}"#,
        r#"{"op":"insert","row":["only"]}"#,
    ];
    let dir = tmp(tag);
    let mut d = Durable::open(&dir, mk()).unwrap();
    for frame in frames {
        let resp = Response::decode(&dispatch_line(&mut d, frame)).unwrap();
        assert!(matches!(resp, Response::Error { .. }), "{frame}: {resp:?}");
    }
    let want = fingerprint(&mut d);
    drop(d);

    let mut d = Durable::open(&dir, mk()).expect("a log of rejected frames reopens");
    assert_eq!(d.recovery().records_replayed, frames.len());
    assert_eq!(d.recovery().records_refailed, frames.len());
    assert_eq!(fingerprint(&mut d), want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_node_refails_rejected_frames_on_replay() {
    rejected_frames_refail_on_replay(single, "single_rejected");
}

#[test]
fn three_shard_cluster_refails_rejected_frames_on_replay() {
    rejected_frames_refail_on_replay(cluster, "cluster_rejected");
}

/// Acceptance: detection completes — and agrees byte-for-byte — with a
/// spill budget of ~10% of the encoded table, on both backends.
#[test]
fn detect_under_ten_percent_memory_budget_matches_unbudgeted() {
    small_chunks();
    const BIG: usize = 400;
    let w = || dirty_customers(BIG, 0.05, SEED);
    // ~4 bytes per encoded cell; 10% of that is the budget.
    let cols = w().db.table("customer").unwrap().schema().arity();
    let budget = (BIG * cols * 4) / 10;

    let reference = |mut b: Box<dyn QualityBackend + Send>| -> String {
        b.register_cfds(CANONICAL_CFDS).unwrap();
        dispatch(b.as_mut(), Request::Detect).encode()
    };
    let want = reference(Box::new(QualityServer::new(w().db, "customer").unwrap()));

    // Single node, spilling to a real paged file.
    let dir = tmp("budget");
    let store = PagedStore::create(&dir.join("spill.pages"), 16, 2).unwrap();
    let config = ServerConfig {
        mem_budget: Some(budget),
        spill_store: Some(store as _),
        ..Default::default()
    };
    let mut qs = QualityServer::new(w().db, "customer")
        .unwrap()
        .with_config(config);
    QualityBackend::register_cfds(&mut qs, CANONICAL_CFDS).unwrap();
    assert_eq!(dispatch(&mut qs, Request::Detect).encode(), want);
    assert!(
        qs.spilled_chunks() > 0,
        "the budget must actually force evictions"
    );

    // 3-shard cluster sharing one store.
    let store = PagedStore::create(&dir.join("spill_cluster.pages"), 16, 2).unwrap();
    let mut cl = ShardedQualityServer::partition(
        w().db.table("customer").unwrap(),
        3,
        Box::new(HashRouter::new(vec![1])),
    )
    .unwrap()
    .with_spill(store, budget);
    QualityBackend::register_cfds(&mut cl, CANONICAL_CFDS).unwrap();
    assert_eq!(dispatch(&mut cl, Request::Detect).encode(), want);
    assert!(cl.spilled_chunks() > 0, "cluster shards spill too");
    let _ = std::fs::remove_dir_all(&dir);
}
