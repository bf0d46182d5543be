//! The benchmark's contract: workloads, metric names, units, directions
//! and bounds. `BENCHMARK.json` at the repository root is this table
//! rendered by `sdqbench spec`; a test holds the two together.

use crate::json::Json;

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 10;

/// One workload and why it is there.
pub struct WorkloadSpec {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// One line: which layers carry it and what it is meant to catch.
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "svc_read_heavy",
        why: "A client reads back-to-back over TCP (cores kept awake) from a durable 50k-row service \
              while a cell update lands twice a second: codec, Published::load, serve_read and \
              the socket do the work.",
    },
    WorkloadSpec {
        name: "svc_ingest_burst",
        why: "One connection pipelines inserts, updates, deletes and 64-row batches, four at a \
              time, into the same service: writer queue, WAL fsync, table apply, snapshot patch, \
              eager capture. Traced: two writers.",
    },
    WorkloadSpec {
        name: "svc_cluster_mixed",
        why: "Same transport over a 3-shard hash-routed cluster with no WAL, 2 writes per 8 \
              reads: shard export, exchange merge and the partial memo carry the write cost, \
              durable does nothing. Traced: two writers.",
    },
    WorkloadSpec {
        name: "batch_clean",
        why: "The paper's session in process through api::dispatch, no net, no durable: cold \
              detect (read_p50_us) and audit at 100k rows, repair (write_p50_ms) and SQL detect \
              at 20k; ops_per_s is requests.",
    },
];

/// One metric of the contract.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only; 0 for layer metrics, which are not gated).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    e2e(name, unit, better, 0.0)
}

/// The gated end-to-end metrics. Every workload reports every one; what
/// each means on each workload is in the README's metric table.
///
/// Every bound is the widest the driver allows. On a quiet host the
/// metrics hold it with room: over the `agree` runs the README records,
/// the widest inter-quartile spread of ten runs was 17% and the widest
/// gap between two sets' medians 13% (the 2-core VM runs the same
/// compute-bound epoch at two speeds some 13% apart, minutes at a time).
/// What breaks it is the host slowing everything memory-bound by 35–40%
/// for a few minutes, seen twice in six hours; that hits every timing
/// alike, `setup_s` included, so there is nothing to demote — `agree`
/// and `check` report such a set as outside or unresolved, and it is run
/// again.
pub const END_TO_END: [MetricSpec; 5] = [
    e2e("read_p50_us", "us", "lower", 0.25),
    e2e("write_p50_ms", "ms", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
];

/// The ungated metrics. First the issue's per-workload end-to-end names:
/// five are the gated metrics above under the name the quantity has on
/// one workload (0 on the others, which is why they cannot be gated
/// themselves), five are detail a 10 s run cannot hold to a bound (tails,
/// single-shot recovery) or that exists on one workload only. Then one
/// group per layer, named after the crate.
pub const PER_LAYER: [MetricSpec; 61] = [
    layer("read_rps", "1/s", "higher"),
    layer("ingest_rows_per_s", "1/s", "higher"),
    layer("mixed_rps", "1/s", "higher"),
    layer("detect_cold_ms", "ms", "lower"),
    layer("repair_ms", "ms", "lower"),
    layer("read_p99_us", "us", "lower"),
    layer("write_p99_ms", "ms", "lower"),
    layer("recover_ms", "ms", "lower"),
    layer("audit_ms", "ms", "lower"),
    layer("sql_detect_ms", "ms", "lower"),
    layer("api.encode_req_us", "us", "lower"),
    layer("api.decode_req_us", "us", "lower"),
    layer("api.encode_resp_us", "us", "lower"),
    layer("api.decode_resp_us", "us", "lower"),
    layer("api.summarize_us", "us", "lower"),
    layer("net.loopback_rtt_us", "us", "lower"),
    layer("net.loopback_rtt_idle_us", "us", "lower"),
    layer("net.read_inproc_us", "us", "lower"),
    layer("net.published_load_ns", "ns", "lower"),
    layer("net.publish_us", "us", "lower"),
    layer("net.epochs_per_write", "ratio", "lower"),
    layer("net.backpressure_total", "count", "lower"),
    layer("net.write_unattributed_us", "us", "lower"),
    layer("net.reconcile_share", "share", "higher"),
    layer("net.two_writer_p50_ms", "ms", "lower"),
    layer("net.two_writer_ops_per_s", "1/s", "higher"),
    layer("net.two_writer_epochs_per_write", "ratio", "lower"),
    layer("durable.wal_append_us", "us", "lower"),
    layer("durable.wal_fsyncs_per_write", "ratio", "lower"),
    layer("durable.wal_bytes_per_row", "B/row", "lower"),
    layer("durable.replay_ns_per_record", "ns", "lower"),
    layer("durable.checkpoint_ms", "ms", "lower"),
    layer("durable.pool_hit_share", "share", "higher"),
    layer("durable.page_faults_per_detect", "count", "lower"),
    layer("core.detect_spilled_us", "us", "lower"),
    layer("core.capture_us", "us", "lower"),
    layer("core.detect_warm_us", "us", "lower"),
    layer("minidb.apply_us", "us", "lower"),
    layer("colstore.patch_us", "us", "lower"),
    layer("colstore.detect_patched_us", "us", "lower"),
    layer("colstore.fragments_reused_share", "share", "higher"),
    layer("colstore.rebuild_fallbacks", "count", "lower"),
    layer("colstore.encode_ms", "ms", "lower"),
    layer("colstore.scan_ms", "ms", "lower"),
    layer("colstore.scan_t1_ms", "ms", "lower"),
    layer("colstore.scan_speedup", "ratio", "higher"),
    layer("colstore.rows_scanned_per_s", "1/s", "higher"),
    layer("colstore.morsel_steals", "count", "lower"),
    layer("audit.report_us", "us", "lower"),
    layer("detect.native_ms", "ms", "lower"),
    layer("detect.merge_partials_us", "us", "lower"),
    layer("cluster.detect_touched_us", "us", "lower"),
    layer("cluster.scatter_us", "us", "lower"),
    layer("cluster.merge_us", "us", "lower"),
    layer("cluster.partials_reused_share", "share", "higher"),
    layer("cluster.exported_members_per_detect", "count", "lower"),
    layer("repair.resolve_ms", "ms", "lower"),
    layer("repair.rounds", "count", "lower"),
    layer("repair.changes", "count", "lower"),
    layer("bench.writer_late_ms", "ms", "lower"),
    layer("bench.trace_overhead_share", "share", "lower"),
];

/// The spec of end-to-end metric `name`.
pub fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(s)).collect());
    let metric = |m: &MetricSpec, bounded: bool| {
        let mut fields = vec![
            ("name".to_string(), Json::str(m.name)),
            ("unit".to_string(), Json::str(m.unit)),
            ("better".to_string(), Json::str(m.better)),
        ];
        if bounded {
            fields.push(("bound".to_string(), Json::Num(m.bound)));
        }
        Json::Obj(fields)
    };
    let doc = Json::Obj(vec![
        (
            "command".to_string(),
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "sdqbench/Cargo.toml",
                "--bin",
                "sdqbench",
                "--",
            ]),
        ),
        ("paths".to_string(), strs(&["sdqbench"])),
        ("run_seconds".to_string(), Json::Num(RUN_SECONDS as f64)),
        (
            "workloads".to_string(),
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::Obj(vec![
                            ("name".to_string(), Json::str(w.name)),
                            ("why".to_string(), Json::str(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".to_string(),
            Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer".to_string(),
            Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ]);
    doc.pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn the_contract_stays_inside_the_drivers_limits() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && names.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
            assert!(matches!(m.better, "lower" | "higher"));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk.trim_end(),
            benchmark_json().trim_end(),
            "regenerate with `sdqbench spec > BENCHMARK.json`"
        );
    }
}
