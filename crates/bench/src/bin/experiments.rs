//! Regenerate the measured experiment tables (wall-clock timings plus
//! quality metrics, printed to stdout; nothing is written to disk).
//!
//! ```sh
//! cargo run --release -p sdq-bench --bin experiments           # all experiments
//! cargo run --release -p sdq-bench --bin experiments -- e1 e5  # a subset
//! ```
//!
//! An argument that names no experiment is an error: the binary prints
//! the valid names and exits with status 2 without running anything.
//!
//! Two kinds of experiment live here:
//!
//! * the paper's axes: detection time vs |D| (E1) and tableau size (E2),
//!   repair time (E4) and accuracy (E5), consistency analysis vs |Σ|
//!   (E6), discovery (E7), the merged-tableau query (A1) and the
//!   similarity cost model (A2);
//! * design sweeps with no harness probe yet: shard counts and routers
//!   for detect (E9) and repair (E11), and the chunked column layout
//!   (E13).
//!
//! Service-tier and per-layer performance (engines, ingest, tracing
//! overhead, TCP throughput, WAL replay, spill) is measured by
//! `sdqbench`, whose ledger is the one performance record of the repo.

use std::time::Instant;

use cfd::satisfiability::check_consistency;
use cfd::DomainSpec;
use cluster::{HashRouter, RoundRobinRouter, ShardRouter, ShardedQualityServer};
use colstore::{detect_columnar, detect_on_snapshot, Snapshot, SnapshotCache};
use detect::{detect_native, detect_sql, detect_sql_per_pattern};
use discovery::{
    discover_fds, mine_constant_cfds, mine_variable_cfds, CtaneConfig, MinerConfig, TaneConfig,
};
use minidb::Value;
use repair::{batch_repair, score_repair, RepairConfig};
use sdq_bench::{contradictory_chain, rule_chain, scaled_pattern_cfds, workload};

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Mean ns/op of `f` over `iters` runs (one untimed warm-up).
fn time_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Every experiment name `main` answers to, in run order.
const EXPERIMENTS: [&str; 11] = [
    "e1", "e2", "e4", "e5", "e6", "e7", "e9", "e11", "e13", "a1", "a2",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = args.iter().find(|a| !EXPERIMENTS.contains(&a.as_str())) {
        eprintln!(
            "unknown experiment `{bad}`; valid names: {}",
            EXPERIMENTS.join(" ")
        );
        std::process::exit(2);
    }
    let wanted = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    if wanted("e1") {
        println!("== E1: detection time vs relation size (5% noise) ==");
        println!(
            "{:>8} {:>12} {:>12} {:>10}",
            "rows", "sql (ms)", "native (ms)", "violations"
        );
        for rows in [1_000usize, 5_000, 20_000, 50_000] {
            let w = workload(rows, 0.05, 11);
            let mut db = w.db.clone();
            let t0 = Instant::now();
            let sql = detect_sql(&mut db, "customer", &w.cfds).unwrap();
            let t_sql = ms(t0);
            let t0 = Instant::now();
            let native = detect_native(w.db.table("customer").unwrap(), &w.cfds).unwrap();
            let t_native = ms(t0);
            assert_eq!(sql.len(), native.len());
            println!("{rows:>8} {t_sql:>12.1} {t_native:>12.1} {:>10}", sql.len());
        }
        println!();
    }

    if wanted("e2") {
        println!("== E2: detection time vs pattern-tableau size (10k rows) ==");
        println!(
            "{:>10} {:>14} {:>14}",
            "patterns", "sql (ms)", "native (ms)"
        );
        let w = workload(10_000, 0.05, 13);
        for k in [1usize, 4, 16, 64] {
            let cfds = scaled_pattern_cfds(k);
            let mut db = w.db.clone();
            let t0 = Instant::now();
            detect_sql(&mut db, "customer", &cfds).unwrap();
            let t_sql = ms(t0);
            let t0 = Instant::now();
            detect_native(w.db.table("customer").unwrap(), &cfds).unwrap();
            let t_native = ms(t0);
            println!("{k:>10} {t_sql:>14.1} {t_native:>14.1}");
        }
        println!();
    }

    if wanted("e4") {
        println!("== E4: repair time vs relation size (5% noise) ==");
        println!(
            "{:>8} {:>12} {:>10} {:>10}",
            "rows", "repair (ms)", "changes", "residual"
        );
        for rows in [1_000usize, 5_000, 20_000] {
            let w = workload(rows, 0.05, 23);
            let mut db = w.db.clone();
            let t0 = Instant::now();
            let r = batch_repair(&mut db, "customer", &w.cfds, &RepairConfig::default()).unwrap();
            let t = ms(t0);
            println!(
                "{rows:>8} {t:>12.1} {:>10} {:>10}",
                r.changes.len(),
                r.residual.len()
            );
        }
        println!();
    }

    if wanted("e5") {
        println!("== E5: repair quality vs noise rate (10k rows) ==");
        println!(
            "{:>7} {:>8} {:>9} {:>8} {:>8} {:>8} {:>8}",
            "noise", "errors", "changed", "P_loc", "R_loc", "P", "R"
        );
        for pct in [1u32, 2, 5, 10] {
            let w = workload(10_000, pct as f64 / 100.0, 29);
            let dirty = w.db.table("customer").unwrap().clone();
            let mut db = w.db.clone();
            let r = batch_repair(&mut db, "customer", &w.cfds, &RepairConfig::default()).unwrap();
            assert!(r.residual.is_empty(), "E5 requires convergence");
            let q = score_repair(&dirty, db.table("customer").unwrap(), &w.clean);
            println!(
                "{pct:>6}% {:>8} {:>9} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
                q.error_cells,
                q.changed_cells,
                q.precision_loc,
                q.recall_loc,
                q.precision,
                q.recall
            );
        }
        println!();
    }

    if wanted("e6") {
        println!("== E6: consistency analysis time vs |Σ| ==");
        println!(
            "{:>8} {:>18} {:>20}",
            "rules", "consistent (µs)", "contradictory (µs)"
        );
        let dom = DomainSpec::all_infinite();
        for n in [8usize, 32, 128, 256] {
            let cons = rule_chain(n);
            let t0 = Instant::now();
            for _ in 0..10 {
                check_consistency(&cons, &dom).unwrap();
            }
            let t_c = ms(t0) * 100.0; // 10 iters → µs
            let contra = contradictory_chain(n);
            let t0 = Instant::now();
            for _ in 0..10 {
                check_consistency(&contra, &dom).unwrap();
            }
            let t_i = ms(t0) * 100.0;
            println!("{n:>8} {t_c:>18.1} {t_i:>20.1}");
        }
        println!();
    }

    if wanted("e7") {
        println!("== E7: discovery time vs relation size ==");
        println!(
            "{:>8} {:>11} {:>8} {:>13} {:>8} {:>13} {:>8}",
            "rows", "tane (ms)", "#fds", "miner (ms)", "#const", "ctane (ms)", "#var"
        );
        for rows in [1_000usize, 5_000, 20_000] {
            let t = datagen::generate_customers(&datagen::CustomerConfig {
                rows,
                ..datagen::CustomerConfig::default()
            });
            let t0 = Instant::now();
            let fds = discover_fds(&t, &TaneConfig::default());
            let t_tane = ms(t0);
            let t0 = Instant::now();
            let consts = mine_constant_cfds(
                &t,
                &MinerConfig {
                    min_support: rows / 20,
                    max_lhs: 1,
                    relation: "customer".into(),
                },
            );
            let t_miner = ms(t0);
            let t0 = Instant::now();
            let vars = mine_variable_cfds(
                &t,
                &CtaneConfig {
                    max_lhs: 1,
                    max_constants: 1,
                    min_support: rows / 10,
                    relation: "customer".into(),
                },
            );
            let t_ctane = ms(t0);
            println!(
                "{rows:>8} {t_tane:>11.1} {:>8} {t_miner:>13.1} {:>8} {t_ctane:>13.1} {:>8}",
                fds.len(),
                consts.len(),
                vars.len()
            );
        }
        println!();
    }

    if wanted("e9") {
        println!("== E9: sharded scatter/gather detection (100k rows, 5% noise) ==");
        let rows = 100_000usize;
        let w = workload(rows, 0.05, 11);
        let t = w.db.table("customer").unwrap();
        let iters = 5u32;
        // Single-node columnar full detect is the speedup reference.
        let n_single = time_ns(iters, || {
            detect_columnar(t, &w.cfds).unwrap();
        });
        let reference = detect_columnar(t, &w.cfds).unwrap().normalized();
        println!("single-node columnar: {:>8.1} ms", n_single / 1e6);
        println!(
            "{:>7} {:>12} {:>10} {:>10} {:>12} {:>11} {:>9} {:>8}",
            "shards",
            "router",
            "cold (ms)",
            "warm (ms)",
            "touched (ms)",
            "merge (ms)",
            "members",
            "speedup"
        );
        // Round-robin is the worst case for exchange volume (every group
        // splits); the hash run keyed on CNT keeps [CNT, ZIP] groups
        // shard-local for contrast.
        let configs: Vec<(usize, Box<dyn ShardRouter>, &str)> = vec![
            (1, Box::new(RoundRobinRouter::default()), "rr"),
            (2, Box::new(RoundRobinRouter::default()), "rr"),
            (4, Box::new(RoundRobinRouter::default()), "rr"),
            (8, Box::new(RoundRobinRouter::default()), "rr"),
            (4, Box::new(HashRouter::new(vec![1])), "hash"),
        ];
        for (n, router, rname) in configs {
            let mut c = ShardedQualityServer::partition(t, n, router).unwrap();
            c.register_cfds(w.cfds.clone()).unwrap();
            // Cold: first detect pays every shard's snapshot encode.
            let t0 = Instant::now();
            let first = c.detect().unwrap();
            let cold_ns = t0.elapsed().as_nanos() as f64;
            assert_eq!(first.normalized(), reference.clone(), "sharded == single");
            // Warm: unchanged shards replay their memoized partials.
            let warm_ns = time_ns(iters, || {
                c.detect().unwrap();
            });
            // Touched: one routed cell update per shard between detects —
            // the steady monitoring load with every shard's memo dirtied.
            let picks: Vec<minidb::RowId> = (0..n)
                .filter_map(|s| c.shard_table(s).iter().next().map(|(id, _)| id))
                .collect();
            let cities: Vec<Value> = vec![Value::str("EDI"), Value::str("NYC")];
            let rounds = 5;
            let mut touched_ns = 0f64;
            for round in 0..rounds {
                let t0 = Instant::now();
                for &id in &picks {
                    c.update_cell(id, 2, cities[round % 2].clone()).unwrap();
                }
                c.detect().unwrap();
                touched_ns += t0.elapsed().as_nanos() as f64;
            }
            touched_ns /= rounds as f64;
            let stats = c.last_detect_stats();
            println!(
                "{n:>7} {rname:>12} {:>10.1} {:>10.1} {:>12.1} {:>11.1} {:>9} {:>7.1}x",
                cold_ns / 1e6,
                warm_ns / 1e6,
                touched_ns / 1e6,
                stats.merge_ns as f64 / 1e6,
                stats.exported_members,
                n_single / touched_ns
            );
        }
        println!();
    }

    if wanted("e11") {
        println!("== E11: sharded repair (5% noise, cold clusters) ==");
        for rows in [20_000usize, 100_000] {
            let w = workload(rows, 0.05, 23);
            let t = w.db.table("customer").unwrap();
            // Single-node batch repair is the reference (and the
            // correctness oracle: the cluster must apply the identical
            // change list).
            let mut db = w.db.clone();
            let t0 = Instant::now();
            let single =
                batch_repair(&mut db, "customer", &w.cfds, &RepairConfig::default()).unwrap();
            let single_ns = t0.elapsed().as_nanos() as f64;
            assert!(single.residual.is_empty(), "E11 requires convergence");
            println!(
                "single-node @ {rows} rows: {:>8.1} ms, {} rounds ({:.1} ms/round), {} changes",
                single_ns / 1e6,
                single.iterations,
                single_ns / 1e6 / single.iterations as f64,
                single.changes.len()
            );
            println!(
                "{:>7} {:>7} {:>12} {:>8} {:>12} {:>9} {:>10}",
                "shards", "router", "repair (ms)", "rounds", "ms/round", "changes", "vs single"
            );
            type RouterFactory = fn() -> Box<dyn ShardRouter>;
            let rr: RouterFactory = || Box::new(RoundRobinRouter::default());
            let hash: RouterFactory = || Box::new(HashRouter::new(vec![1]));
            let configs: Vec<(usize, RouterFactory, &str)> = vec![
                (1, rr, "rr"),
                (2, rr, "rr"),
                (4, rr, "rr"),
                (8, rr, "rr"),
                (2, hash, "hash"),
                (4, hash, "hash"),
                (8, hash, "hash"),
            ];
            for (n, router, rname) in configs {
                let mut c = ShardedQualityServer::partition(t, n, router()).unwrap();
                c.register_cfds(w.cfds.clone()).unwrap();
                let t0 = Instant::now();
                let r = c.repair().unwrap();
                let total_ns = t0.elapsed().as_nanos() as f64;
                assert!(r.residual.is_empty(), "sharded E11 requires convergence");
                assert_eq!(
                    r.changes.len(),
                    single.changes.len(),
                    "sharded repair must equal single-node"
                );
                let per_round = total_ns / r.iterations as f64;
                println!(
                    "{n:>7} {rname:>7} {:>12.1} {:>8} {:>12.1} {:>9} {:>9.2}x",
                    total_ns / 1e6,
                    r.iterations,
                    per_round / 1e6,
                    r.changes.len(),
                    single_ns / total_ns
                );
            }
        }
        println!();
    }

    if wanted("e13") {
        println!("== E13: chunked columns ==");
        // E13a: append ingest under live reader snapshots. A stream of
        // single-row inserts patches the cached snapshot while a reader
        // grabs (and holds) a snapshot Arc every 512 rows — the monitoring
        // pattern that makes copy-on-write visible. Chunked columns
        // unshare only the tail chunk per grab; the contiguous layout
        // (one giant chunk) re-copies every code on each post-grab patch.
        let base_rows = 4_096usize;
        let append_rows = 50_000usize;
        let base = datagen::generate_customers(&datagen::CustomerConfig {
            rows: base_rows,
            ..datagen::CustomerConfig::default()
        });
        let donors: Vec<Vec<Value>> = base.iter().take(64).map(|(_, r)| r.to_vec()).collect();
        let run_append = |cache: SnapshotCache| -> f64 {
            let mut table = base.clone();
            // An unbounded patch budget keeps both arms on the incremental
            // path for the whole stream — re-encodes would cost O(n) in
            // both layouts and drown the layout difference being measured.
            let mut cache = cache.with_delta_threshold(f64::INFINITY);
            cache.snapshot(&table); // warm encode, untimed
            let mut readers: Vec<std::sync::Arc<Snapshot>> = Vec::new();
            let t0 = Instant::now();
            for i in 0..append_rows {
                let id = table.insert(donors[i % donors.len()].clone()).unwrap();
                cache.note_insert(&table, id);
                if i % 512 == 0 {
                    readers.push(cache.snapshot(&table));
                }
            }
            t0.elapsed().as_nanos() as f64 / append_rows as f64
        };
        let chunked = run_append(SnapshotCache::new());
        let cow = run_append(SnapshotCache::new().with_chunk_rows(1 << 22));
        println!(
            "append ingest ({append_rows} rows, reader snapshot every 512): \
             chunked {:>8.0} ns/row, contiguous CoW {:>8.0} ns/row, {:.1}x",
            chunked,
            cow,
            cow / chunked
        );

        // E13b: warm detection over one reused snapshot — chunk-size sweep.
        let rows = 100_000usize;
        let w = workload(rows, 0.05, 11);
        let t = w.db.table("customer").unwrap();
        let cols: Vec<usize> = (0..t.schema().arity()).collect();
        let iters = 5u32;
        println!("{:>12} {:>14}", "chunk_rows", "detect (ms)");
        for chunk in [1_024usize, 4_096, 16_384] {
            let snap = Snapshot::projected_with_chunk(t, &cols, chunk);
            let n = time_ns(iters, || {
                detect_on_snapshot(&snap, &w.cfds).unwrap();
            });
            println!("{chunk:>12} {:>14.1}", n / 1e6);
        }
        println!();
    }

    if wanted("a1") {
        println!("== A1: merged tableau query vs per-pattern queries (5k rows) ==");
        println!(
            "{:>10} {:>13} {:>17}",
            "patterns", "merged (ms)", "per-pattern (ms)"
        );
        let w = workload(5_000, 0.05, 17);
        for k in [4usize, 16, 64] {
            let cfds = scaled_pattern_cfds(k);
            let mut db = w.db.clone();
            let t0 = Instant::now();
            detect_sql(&mut db, "customer", &cfds).unwrap();
            let t_m = ms(t0);
            let mut db = w.db.clone();
            let t0 = Instant::now();
            detect_sql_per_pattern(&mut db, "customer", &cfds).unwrap();
            let t_p = ms(t0);
            println!("{k:>10} {t_m:>13.1} {t_p:>17.1}");
        }
        println!();
    }

    if wanted("a2") {
        println!("== A2: repair cost model with vs without similarity (5k rows) ==");
        println!(
            "{:>12} {:>18} {:>10} {:>10} {:>8} {:>8}",
            "noise kind", "cost model", "changes", "cost", "P", "R"
        );
        for (kind, typo_fraction) in [
            ("typos only", 1.0),
            ("mixed 25/75", 0.25),
            ("swaps only", 0.0),
        ] {
            let w = datagen::dirty_customers_typed(5_000, 0.05, 31, typo_fraction);
            for (label, sim) in [("similarity (DL)", true), ("uniform 0/1", false)] {
                let dirty = w.db.table("customer").unwrap().clone();
                let mut db = w.db.clone();
                let cfg = RepairConfig {
                    use_similarity: sim,
                    ..RepairConfig::default()
                };
                let r = batch_repair(&mut db, "customer", &w.cfds, &cfg).unwrap();
                let q = score_repair(&dirty, db.table("customer").unwrap(), &w.clean);
                println!(
                    "{kind:>12} {label:>18} {:>10} {:>10.1} {:>8.3} {:>8.3}",
                    r.changes.len(),
                    r.total_cost,
                    q.precision,
                    q.recall
                );
            }
        }
        println!();
    }
}
