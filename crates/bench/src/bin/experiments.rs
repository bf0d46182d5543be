//! Regenerate the measured experiment tables E1–E16 / A1–A2 (wall-clock
//! timings plus quality metrics, printed to stdout).
//!
//! ```sh
//! cargo run --release --bin experiments           # all experiments
//! cargo run --release --bin experiments -- e1 e5  # a subset
//! ```
//!
//! An argument that names no experiment is an error: the binary prints
//! the valid names and exits with status 2 without running anything.
//!
//! E8 (detection engines), E9 (sharded cluster), E10 (batched vs per-row
//! ingest), E11 (sharded repair), E13 (chunked columns),
//! E14 (tracing overhead), E15 (TCP service throughput vs client
//! count) and E16 (WAL replay time, spill-budget detect) record a
//! machine-readable baseline (`rows`,
//! `engine`, `ns_per_op`) into `BENCH_detection.json` for regression
//! tracking. The file is merged, not overwritten: re-running one
//! experiment updates its own entries and leaves the others' in place.

use std::time::Instant;

use api::{dispatch, Mutation, MutationBatch, QualityBackend, Request};
use cfd::satisfiability::check_consistency;
use cfd::DomainSpec;
use cluster::{HashRouter, RoundRobinRouter, ShardRouter, ShardedQualityServer};
use colstore::{detect_cached, detect_columnar, detect_on_snapshot, Snapshot, SnapshotCache};
use detect::{detect_native, detect_sql, detect_sql_per_pattern, IncrementalDetector};
use discovery::{
    discover_fds, mine_constant_cfds, mine_variable_cfds, CtaneConfig, MinerConfig, TaneConfig,
};
use minidb::Value;
use repair::{batch_repair, score_repair, RepairConfig};
use sdq_bench::{contradictory_chain, rule_chain, scaled_pattern_cfds, workload};

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Loopback service config for E15: OS-assigned port so concurrent runs
/// never collide, defaults otherwise.
fn e15_config() -> net::NetConfig {
    net::NetConfig {
        addr: "127.0.0.1:0".into(),
        net_threads: 4,
        max_conns: 64,
        queue_depth: 256,
        idle_timeout: std::time::Duration::from_secs(30),
        max_frame: api::MAX_FRAME_BYTES,
    }
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

/// Render the detection baseline as JSON by hand (no serializer in the
/// tree): `[{"rows": n, "engine": "...", "ns_per_op": x}, ...]`.
fn render_baseline_json(entries: &[(usize, String, f64)]) -> String {
    let mut out = String::from("[\n");
    for (i, (rows, engine, ns)) in entries.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"rows\": {rows}, \"engine\": \"{engine}\", \"ns_per_op\": {ns:.0}}}"
        ));
        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// Parse the flat baseline format [`render_baseline_json`] writes (one
/// entry per line) so a partial re-run can merge instead of clobber.
fn parse_baseline_json(text: &str) -> Vec<(usize, String, f64)> {
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(key)? + key.len();
        let rest = &line[at..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().trim_matches('"').to_string())
    };
    text.lines()
        .filter_map(|line| {
            let rows = field(line, "\"rows\":")?.parse().ok()?;
            let engine = field(line, "\"engine\":")?;
            let ns = field(line, "\"ns_per_op\":")?.parse().ok()?;
            Some((rows, engine, ns))
        })
        .collect()
}

/// Merge this run's entries over the existing file (same `(rows, engine)`
/// replaces, new entries append) and write it back.
fn write_baseline(measured: Vec<(usize, String, f64)>) {
    const PATH: &str = "BENCH_detection.json";
    let mut merged = std::fs::read_to_string(PATH)
        .map(|t| parse_baseline_json(&t))
        .unwrap_or_default();
    for (rows, engine, ns) in measured {
        match merged
            .iter_mut()
            .find(|(r, e, _)| *r == rows && *e == engine)
        {
            Some(slot) => slot.2 = ns,
            None => merged.push((rows, engine, ns)),
        }
    }
    let json = render_baseline_json(&merged);
    std::fs::write(PATH, &json).expect("write BENCH_detection.json");
    println!("wrote {PATH} ({} entries)\n", merged.len());
}

/// Every experiment name `main` answers to, in run order.
const EXPERIMENTS: [&str; 18] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "a1", "a2",
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

    if wanted("e3") {
        println!("== E3: incremental vs batch detection (20k rows) ==");
        println!(
            "{:>8} {:>16} {:>16}",
            "delta", "incremental (ms)", "batch (ms)"
        );
        let w = workload(20_000, 0.02, 19);
        let base = IncrementalDetector::build(w.db.table("customer").unwrap(), &w.cfds).unwrap();
        for delta in [1usize, 16, 256, 4_096] {
            let updates: Vec<(minidb::RowId, Vec<Value>, Vec<Value>)> =
                w.db.table("customer")
                    .unwrap()
                    .iter()
                    .take(delta)
                    .enumerate()
                    .map(|(i, (id, row))| {
                        let before = row.to_vec();
                        let mut after = before.clone();
                        after[2] = Value::str(format!("UPD{i}"));
                        (id, before, after)
                    })
                    .collect();
            // incremental
            let mut det = base.clone();
            let t0 = Instant::now();
            for (id, before, after) in &updates {
                det.update(*id, before, after);
            }
            let _ = det.total_violations();
            let t_inc = ms(t0);
            // batch re-run (after applying updates to a copy)
            let mut db = w.db.clone();
            for (id, _, after) in &updates {
                db.update_cell("customer", *id, 2, after[2].clone())
                    .unwrap();
            }
            let t0 = Instant::now();
            detect_native(db.table("customer").unwrap(), &w.cfds).unwrap();
            let t_batch = ms(t0);
            println!("{delta:>8} {t_inc:>16.2} {t_batch:>16.1}");
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

    let mut baseline: Vec<(usize, String, f64)> = Vec::new();

    if wanted("e8") {
        println!("== E8: columnar vs row detection (customer workload, 5% noise) ==");
        println!(
            "{:>8} {:>13} {:>13} {:>13} {:>9}",
            "rows", "native (ms)", "columnar(ms)", "snapshot(ms)", "col/nat"
        );
        for rows in [1_000usize, 10_000, 100_000] {
            let w = workload(rows, 0.05, 11);
            let t = w.db.table("customer").unwrap();
            let iters = if rows >= 100_000 { 5 } else { 20 };
            let n_native = time_ns(iters, || {
                detect_native(t, &w.cfds).unwrap();
            });
            let n_col = time_ns(iters, || {
                detect_columnar(t, &w.cfds).unwrap();
            });
            let snap = Snapshot::of(t);
            let n_reuse = time_ns(iters, || {
                detect_on_snapshot(&snap, &w.cfds).unwrap();
            });
            // Engines must agree before their numbers mean anything.
            assert_eq!(
                detect_native(t, &w.cfds).unwrap().normalized(),
                detect_columnar(t, &w.cfds).unwrap().normalized()
            );
            println!(
                "{rows:>8} {:>13.1} {:>13.1} {:>13.1} {:>8.1}x",
                n_native / 1e6,
                n_col / 1e6,
                n_reuse / 1e6,
                n_native / n_col
            );
            baseline.push((rows, "native".into(), n_native));
            baseline.push((rows, "columnar".into(), n_col));
            baseline.push((rows, "columnar_reuse".into(), n_reuse));
        }
        // E8b: steady-state detection — repeated detects with k row
        // mutations between each (the monitoring scenario: a mostly-clean
        // 1%-noise table under a trickle of updates), full re-encode per
        // round vs the epoch-versioned cached+patched snapshot lifecycle.
        // Timed: the detection work itself (encode/patch + detect); the
        // `db.update_cell` application work is identical in both arms and
        // excluded.
        println!(
            "== E8b: steady-state detection (k mutations between repeat detects, 1% noise) =="
        );
        println!(
            "{:>8} {:>8} {:>16} {:>16} {:>9}",
            "rows", "k", "full (ms/det)", "cached (ms/det)", "speedup"
        );
        for (rows, frac, rounds) in [(100_000usize, 0.01, 20), (100_000, 0.001, 20)] {
            let w = workload(rows, 0.01, 11);
            let table = w.db.table("customer").unwrap();
            let ids: Vec<minidb::RowId> = table.row_ids();
            // Donor pool of existing CITY values: the stream rewrites a
            // fixed set of k rows with rotating in-domain values, so the
            // dirty fraction stays bounded at ~k rows instead of
            // accumulating round over round.
            let cities: Vec<Value> = {
                let mut seen = std::collections::HashSet::new();
                table
                    .iter()
                    .map(|(_, row)| row[2].clone())
                    .filter(|v| seen.insert(v.render()))
                    .take(64)
                    .collect()
            };
            let k = ((rows as f64) * frac) as usize;
            // One shared mutation script so both arms see identical data.
            let mutation = |round: usize, i: usize| {
                let id = ids[(i * 7) % ids.len()];
                let v = cities[(round + i) % cities.len()].clone();
                (id, 2usize, v)
            };
            // Arm 1: full re-encode per round.
            let mut db = w.db.clone();
            let mut full_ns = 0f64;
            for round in 0..rounds {
                for i in 0..k {
                    let (id, col, v) = mutation(round, i);
                    db.update_cell("customer", id, col, v).unwrap();
                }
                let t0 = Instant::now();
                detect_columnar(db.table("customer").unwrap(), &w.cfds).unwrap();
                full_ns += t0.elapsed().as_nanos() as f64;
            }
            full_ns /= rounds as f64;
            // Arm 2: cached + patched snapshot (the note_* lifecycle calls
            // are part of its cost and are timed).
            let mut db = w.db.clone();
            let mut cache = SnapshotCache::new();
            detect_cached(&mut cache, db.table("customer").unwrap(), &w.cfds).unwrap();
            let mut cached_ns = 0f64;
            for round in 0..rounds {
                for i in 0..k {
                    let (id, col, v) = mutation(round, i);
                    db.update_cell("customer", id, col, v).unwrap();
                    let t0 = Instant::now();
                    cache.note_set_cell(db.table("customer").unwrap(), id, col);
                    cached_ns += t0.elapsed().as_nanos() as f64;
                }
                let t0 = Instant::now();
                detect_cached(&mut cache, db.table("customer").unwrap(), &w.cfds).unwrap();
                cached_ns += t0.elapsed().as_nanos() as f64;
            }
            cached_ns /= rounds as f64;
            // rounds * k must stay under the cache's patch budget
            // (threshold * rows) for a pure patched-path measurement; warn
            // instead of aborting so a parameter tweak cannot discard the
            // whole run's results.
            if cache.encodes() != 1 {
                println!(
                    "  note: cached arm re-encoded {} times (patch budget \
                     crossed) — its numbers include rebuilds",
                    cache.encodes()
                );
            }
            println!(
                "{rows:>8} {k:>8} {:>16.1} {:>16.1} {:>8.1}x",
                full_ns / 1e6,
                cached_ns / 1e6,
                full_ns / cached_ns
            );
            let label: &str = if frac >= 0.01 {
                "steady_full_reencode_1pct"
            } else {
                "steady_full_reencode_0p1pct"
            };
            let cached_label: &str = if frac >= 0.01 {
                "steady_cached_patched_1pct"
            } else {
                "steady_cached_patched_0p1pct"
            };
            baseline.push((rows, label.into(), full_ns));
            baseline.push((rows, cached_label.into(), cached_ns));
        }

        // E8c: batch_repair round metrics — the detect half of every round
        // now rides the patched snapshot.
        println!("== E8c: batch_repair rounds (5% noise) ==");
        println!(
            "{:>8} {:>12} {:>8} {:>14} {:>10}",
            "rows", "repair (ms)", "rounds", "ms/round", "changes"
        );
        for rows in [5_000usize, 20_000] {
            let w = workload(rows, 0.05, 23);
            let mut db = w.db.clone();
            let t0 = Instant::now();
            let r = batch_repair(&mut db, "customer", &w.cfds, &RepairConfig::default()).unwrap();
            let total_ns = t0.elapsed().as_nanos() as f64;
            assert!(r.residual.is_empty(), "E8c requires convergence");
            let per_round = total_ns / r.iterations as f64;
            println!(
                "{rows:>8} {:>12.1} {:>8} {:>14.1} {:>10}",
                total_ns / 1e6,
                r.iterations,
                per_round / 1e6,
                r.changes.len()
            );
            baseline.push((rows, "repair_batch_total".into(), total_ns));
            baseline.push((rows, "repair_batch_per_round".into(), per_round));
        }
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
        baseline.push((rows, "sharded_baseline_columnar".into(), n_single));
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
            baseline.push((rows, format!("sharded_cold_s{n}_{rname}"), cold_ns));
            baseline.push((rows, format!("sharded_warm_s{n}_{rname}"), warm_ns));
            baseline.push((rows, format!("sharded_touched_s{n}_{rname}"), touched_ns));
            baseline.push((
                rows,
                format!("sharded_merge_s{n}_{rname}"),
                stats.merge_ns as f64,
            ));
        }
        println!();
    }

    if wanted("e10") {
        println!("== E10: batched vs per-row ingest (100k rows, warm snapshots) ==");
        let rows = 100_000usize;
        let w = workload(rows, 0.05, 11);
        let t = w.db.table("customer").unwrap();
        // One fixed mixed-ingest script: a routed update + delete stream
        // followed by the bulk of the inserts (updates and deletes target
        // disjoint row ranges so the same script is valid in both arms).
        // 10k mutations keeps every shard inside its snapshot patch
        // budget, so both arms stay on the incremental path throughout.
        let ids = t.row_ids();
        let donors: Vec<Vec<minidb::Value>> = t.iter().take(64).map(|(_, r)| r.to_vec()).collect();
        let cities: Vec<Value> = {
            let mut seen = std::collections::HashSet::new();
            t.iter()
                .map(|(_, row)| row[2].clone())
                .filter(|v| seen.insert(v.render()))
                .take(64)
                .collect()
        };
        let mut mutations: Vec<Mutation> = Vec::new();
        for i in 0..1_000 {
            mutations.push(Mutation::SetCell {
                row: ids[i * 7],
                col: 2,
                value: cities[i % cities.len()].clone(),
            });
        }
        for i in 0..1_000 {
            mutations.push(Mutation::Delete(ids[50_000 + i * 3]));
        }
        for i in 0..8_000 {
            mutations.push(Mutation::Insert(donors[i % donors.len()].clone()));
        }
        let batch = MutationBatch {
            mutations: mutations.clone(),
        };

        /// Time one arm, min-of-`iters` (the container's scheduler is
        /// noisy; the minimum is the honest cost of the code path): fresh
        /// backend per iteration (built by `make`, CFDs registered,
        /// snapshots warmed by one detect), then the ingest script —
        /// per-row through the unified mutation surface, or as one
        /// `apply_batch`.
        fn time_arm(
            iters: u32,
            mut make: impl FnMut() -> Box<dyn QualityBackend>,
            mutations: &[Mutation],
            batched: Option<&MutationBatch>,
        ) -> f64 {
            let mut best = f64::INFINITY;
            for _ in 0..iters {
                let mut b = make();
                b.detect().expect("warm detect");
                // The script is cloned *outside* the timed region in both
                // arms — what's measured is application, not cloning.
                match batched {
                    Some(batch) => {
                        let batch = batch.clone();
                        let t0 = Instant::now();
                        b.apply_batch(batch).expect("batch applies");
                        best = best.min(t0.elapsed().as_nanos() as f64);
                    }
                    None => {
                        let muts = mutations.to_vec();
                        let t0 = Instant::now();
                        for m in muts {
                            api::apply_mutation(b.as_mut(), m).expect("mutation applies");
                        }
                        best = best.min(t0.elapsed().as_nanos() as f64);
                    }
                }
            }
            best
        }

        println!(
            "{:>10} {:>7} {:>8} {:>14} {:>14} {:>9}  ({} mutations: 1k upd / 1k del / 8k ins)",
            "backend",
            "router",
            "shards",
            "per-row (ms)",
            "batched (ms)",
            "speedup",
            mutations.len()
        );
        let iters = 7u32;
        // Single-node server, columnar cache.
        let make_single = || -> Box<dyn QualityBackend> {
            let mut s = semandaq_core::QualityServer::new(w.db.clone(), "customer").unwrap();
            s.register_cfds(datagen::customer::CANONICAL_CFDS).unwrap();
            Box::new(s)
        };
        let single_perrow = time_arm(iters, make_single, &mutations, None);
        let single_batched = time_arm(iters, make_single, &mutations, Some(&batch));
        println!(
            "{:>10} {:>7} {:>8} {:>14.1} {:>14.1} {:>8.2}x",
            "single",
            "-",
            1,
            single_perrow / 1e6,
            single_batched / 1e6,
            single_perrow / single_batched
        );
        baseline.push((rows, "e10_single_perrow".into(), single_perrow));
        baseline.push((rows, "e10_single_batched".into(), single_batched));
        // Sharded cluster: one routing pass, per-shard application with
        // bulk insert runs, one snapshot patch per touched shard.
        type RouterFactory = fn() -> Box<dyn ShardRouter>;
        let configs: Vec<(usize, RouterFactory, &str)> = vec![
            (4, || Box::new(RoundRobinRouter::default()), "rr"),
            (8, || Box::new(RoundRobinRouter::default()), "rr"),
            (4, || Box::new(HashRouter::new(vec![1])), "hash"),
        ];
        for (n, router, rname) in configs {
            let make_sharded = || -> Box<dyn QualityBackend> {
                let mut c = ShardedQualityServer::partition(t, n, router()).unwrap();
                c.register_cfds(w.cfds.clone()).unwrap();
                Box::new(c)
            };
            let perrow = time_arm(iters, make_sharded, &mutations, None);
            let batched = time_arm(iters, make_sharded, &mutations, Some(&batch));
            println!(
                "{:>10} {:>7} {:>8} {:>14.1} {:>14.1} {:>8.2}x",
                "sharded",
                rname,
                n,
                perrow / 1e6,
                batched / 1e6,
                perrow / batched
            );
            baseline.push((rows, format!("e10_sharded_perrow_s{n}_{rname}"), perrow));
            baseline.push((rows, format!("e10_sharded_batched_s{n}_{rname}"), batched));
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
            baseline.push((rows, "e11_single_repair_total".into(), single_ns));
            baseline.push((
                rows,
                "e11_single_repair_per_round".into(),
                single_ns / single.iterations as f64,
            ));
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
                baseline.push((
                    rows,
                    format!("e11_sharded_repair_total_s{n}_{rname}"),
                    total_ns,
                ));
                baseline.push((
                    rows,
                    format!("e11_sharded_repair_per_round_s{n}_{rname}"),
                    per_round,
                ));
            }
        }
        println!();
    }

    if wanted("e12") {
        println!("== E12: registry-derived detect/repair latency percentiles ==");
        let rows = 20_000usize;
        let w = workload(rows, 0.05, 29);
        let t = w.db.table("customer").unwrap();
        // Fresh registry so the percentiles cover exactly this workload,
        // not whatever earlier experiments accumulated.
        obs::reset();
        let mut c =
            ShardedQualityServer::partition(t, 4, Box::new(RoundRobinRouter::default())).unwrap();
        c.register_cfds(w.cfds.clone()).unwrap();
        // A steady-state monitoring loop through the instrumented dispatch
        // path: one routed cell touch, one detect, repeated — so
        // api_request_ns{kind="detect"} holds real cached-path samples.
        let ids = t.row_ids();
        dispatch(&mut c, Request::Detect); // cold encode, excluded below by the mutate loop's volume
        for i in 0..32u64 {
            let id = ids[i as usize % ids.len()];
            let v = t.get(id).unwrap()[2].clone();
            dispatch(
                &mut c,
                Request::UpdateCell {
                    row: id,
                    col: 2,
                    value: v,
                },
            );
            dispatch(&mut c, Request::Detect);
        }
        dispatch(&mut c, Request::Repair);
        let m = obs::snapshot();
        println!(
            "{:>34} {:>8} {:>12} {:>12} {:>12}",
            "metric", "samples", "p50 (ms)", "p95 (ms)", "max (ms)"
        );
        for (metric, label) in [
            ("api_request_ns{kind=\"detect\"}", "e12_detect_dispatch"),
            ("cluster_shard_export_ns", "e12_shard_export"),
            ("cluster_merge_ns", "e12_cluster_merge"),
            ("repair_resolve_ns", "e12_repair_resolve"),
        ] {
            let h = m.histogram(metric).expect("instrumented path ran");
            println!(
                "{:>34} {:>8} {:>12.3} {:>12.3} {:>12.3}",
                metric,
                h.count,
                h.p50 as f64 / 1e6,
                h.p95 as f64 / 1e6,
                h.max as f64 / 1e6
            );
            baseline.push((rows, format!("{label}_p50"), h.p50 as f64));
            baseline.push((rows, format!("{label}_p95"), h.p95 as f64));
            baseline.push((rows, format!("{label}_p99"), h.p99 as f64));
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
        baseline.push((append_rows, "e13_append_chunked".into(), chunked));
        baseline.push((append_rows, "e13_append_contiguous_cow".into(), cow));

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
            baseline.push((rows, format!("e13_warm_detect_c{chunk}"), n));
        }
        println!();
    }

    if wanted("e14") {
        println!("== E14: request-tracing overhead (warm cached detect) ==");
        // The contract tracing is sold on: a *disabled* span site is one
        // relaxed load, so the instrumented engine at SDQ_TRACE unset must
        // price like the uninstrumented one. Measure the same warm cached
        // detect through the dispatch path (root span site included) with
        // tracing off, then on — both land in the baseline so a regression
        // in either shows up in BENCH_detection.json.
        let rows = 100_000usize;
        let w = workload(rows, 0.05, 17);
        let mut s = semandaq_core::QualityServer::new(w.db.clone(), "customer").unwrap();
        s.register_cfds(datagen::customer::CANONICAL_CFDS).unwrap();
        dispatch(&mut s, Request::Detect); // cold encode, untimed
        let iters = 20u32;
        obs::trace::set_enabled(false);
        let off = time_ns(iters, || {
            dispatch(&mut s, Request::Detect);
        });
        obs::trace::set_enabled(true);
        let on = time_ns(iters, || {
            dispatch(&mut s, Request::Detect);
        });
        obs::trace::set_enabled(false);
        obs::trace::clear();
        println!(
            "warm detect ({rows} rows): tracing off {:>10.1} µs, on {:>10.1} µs \
             ({:+.2}% when enabled)",
            off / 1e3,
            on / 1e3,
            (on / off - 1.0) * 100.0
        );
        baseline.push((rows, "e14_warm_detect_trace_off".into(), off));
        baseline.push((rows, "e14_warm_detect_trace_on".into(), on));
        println!();
    }

    if wanted("e15") {
        println!("== E15: TCP service throughput vs client count (10% mutation mix) ==");
        println!(
            "{:>9} {:>8} {:>12} {:>12}",
            "backend", "clients", "req/s", "ns/req"
        );
        let rows = 10_000usize;
        let w = workload(rows, 0.05, 23);
        let donor: Vec<Value> = {
            let mut r =
                w.db.table("customer")
                    .unwrap()
                    .iter()
                    .next()
                    .unwrap()
                    .1
                    .to_vec();
            r[2] = Value::str("E15CITY");
            r
        };
        for backend_kind in ["single", "cluster"] {
            for clients in [1usize, 4, 16] {
                let server = match backend_kind {
                    "single" => {
                        let mut s =
                            semandaq_core::QualityServer::new(w.db.clone(), "customer").unwrap();
                        s.register_cfds(datagen::customer::CANONICAL_CFDS).unwrap();
                        net::NetServer::serve(
                            Box::new(s) as Box<dyn QualityBackend + Send>,
                            e15_config(),
                        )
                        .unwrap()
                    }
                    _ => {
                        let mut c = ShardedQualityServer::partition(
                            w.db.table("customer").unwrap(),
                            3,
                            Box::new(HashRouter::new(vec![1])),
                        )
                        .unwrap();
                        c.register_cfds(w.cfds.clone()).unwrap();
                        net::NetServer::serve(
                            Box::new(c) as Box<dyn QualityBackend + Send>,
                            e15_config(),
                        )
                        .unwrap()
                    }
                };
                let addr = server.local_addr();
                const REQS: usize = 200;
                let t0 = Instant::now();
                let sessions: Vec<_> = (0..clients)
                    .map(|c| {
                        let donor = donor.clone();
                        std::thread::spawn(move || {
                            let mut client = net::Client::connect(addr).unwrap();
                            for i in 0..REQS {
                                // 1 insert + 1 cell update per 10 detects:
                                // the sustained mutation/read mix.
                                let req = match i % 10 {
                                    0 => Request::Insert { row: donor.clone() },
                                    5 => Request::UpdateCell {
                                        row: minidb::RowId(((c * 37 + i) % rows) as u64),
                                        col: 2,
                                        value: Value::str("E15MOVED"),
                                    },
                                    _ => Request::Detect,
                                };
                                let resp = client.request(&req).unwrap();
                                assert!(
                                    !matches!(resp, api::Response::Error { .. }),
                                    "e15 request refused: {resp:?}"
                                );
                            }
                        })
                    })
                    .collect();
                for s in sessions {
                    s.join().unwrap();
                }
                let elapsed = t0.elapsed();
                server.shutdown();
                let total = (clients * REQS) as f64;
                let reqps = total / elapsed.as_secs_f64();
                let ns = elapsed.as_nanos() as f64 / total;
                println!("{backend_kind:>9} {clients:>8} {reqps:>12.0} {ns:>12.0}");
                baseline.push((rows, format!("e15_net_{backend_kind}_c{clients}"), ns));
            }
        }
        println!();
    }

    if wanted("e16") {
        println!("== E16: durability — recovery time vs WAL length, detect at 10x budget ==");
        let rows = 10_000usize;
        let w = workload(rows, 0.05, 29);
        let donor: Vec<Value> = {
            let mut r =
                w.db.table("customer")
                    .unwrap()
                    .iter()
                    .next()
                    .unwrap()
                    .1
                    .to_vec();
            r[2] = Value::str("E16CITY");
            r
        };
        let dir = std::env::temp_dir().join(format!("sdq_e16_{}", std::process::id()));
        let mk = || {
            Box::new(semandaq_core::QualityServer::new(w.db.clone(), "customer").unwrap())
                as Box<dyn QualityBackend + Send>
        };

        // (a) Recovery time as the log grows: load a mutation mix with
        // fsync off (the replay is what's being measured), reopen, and
        // time `Durable::open` — scan + decode + re-apply.
        println!(
            "{:>12} {:>12} {:>14} {:>12}",
            "wal records", "wal bytes", "recover (ms)", "ns/record"
        );
        for n in [1_000usize, 5_000, 20_000] {
            let _ = std::fs::remove_dir_all(&dir);
            let mut d = durable::Durable::open(&dir, mk()).unwrap();
            d.set_sync(false);
            for i in 0..n {
                if i % 4 == 3 {
                    d.update_cell(minidb::RowId((i % rows) as u64), 2, Value::str("E16MOVED"))
                        .unwrap();
                } else {
                    d.insert(donor.clone()).unwrap();
                }
            }
            let bytes = d.wal_bytes();
            drop(d);
            let fresh = mk();
            let t0 = Instant::now();
            let d = durable::Durable::open(&dir, fresh).unwrap();
            let t = ms(t0);
            assert_eq!(d.recovery().records_replayed, n, "every record replays");
            let ns_per_record = t * 1e6 / n as f64;
            println!("{n:>12} {bytes:>12} {t:>14.1} {ns_per_record:>12.0}");
            baseline.push((n, "e16_wal_replay".into(), ns_per_record));
        }

        // (b) Warm cached detect with the encoded table at 10x the memory
        // budget: sealed chunks live in the paged spill file and fault
        // back chunk by chunk, so the run prices the page churn.
        let cols = w.db.table("customer").unwrap().schema().arity();
        let budget = (rows * cols * 4) / 10;
        let iters = 20u32;
        let mut report = |label: &str, budget: Option<usize>| {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let config = semandaq_core::ServerConfig {
                mem_budget: budget,
                spill_store: budget.map(|_| {
                    durable::PagedStore::create(
                        &dir.join("spill.pages"),
                        colstore::default_chunk_rows(),
                        4,
                    )
                    .unwrap() as std::sync::Arc<dyn colstore::ChunkStore>
                }),
                ..Default::default()
            };
            let mut s = semandaq_core::QualityServer::new(w.db.clone(), "customer")
                .unwrap()
                .with_config(config);
            s.register_cfds(datagen::customer::CANONICAL_CFDS).unwrap();
            dispatch(&mut s, Request::Detect); // cold encode + first spill, untimed
            let ns = time_ns(iters, || {
                dispatch(&mut s, Request::Detect);
            });
            println!(
                "warm detect {label:>14}: {:>10.1} µs ({} chunks spilled)",
                ns / 1e3,
                s.spilled_chunks()
            );
            if budget.is_some() {
                assert!(s.spilled_chunks() > 0, "e16 budget must force spill");
            }
            baseline.push((rows, format!("e16_warm_detect_{label}"), ns));
        };
        report("resident", None);
        report("budget_10pct", Some(budget));
        let _ = std::fs::remove_dir_all(&dir);
        println!();
    }

    if !baseline.is_empty() {
        write_baseline(baseline);
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
