//! `--smoke` end to end: every workload, untraced and traced, through the
//! real binary — small relations, about a second each, checks only.

use std::process::Command;

use sdqbench::json::Json;
use sdqbench::script::Workload;
use sdqbench::spec::{MetricSpec, END_TO_END, PER_LAYER};

fn smoke(workload: Workload, trace: bool) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_sdqbench"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "5",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run sdqbench");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{} trace={trace}: {}\n{stdout}\n{}",
        workload.name(),
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

fn check_result(result: &Json, specs: &[MetricSpec], who: &str) -> Vec<f64> {
    let keys: Vec<&str> = result.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{who}");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{who}");
    assert_eq!(result.get("failed"), Some(&Json::Num(0.0)), "{who}");
    assert!(
        result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0,
        "{who}"
    );
    let metrics = result.get("metrics").expect("metrics").fields();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = specs.iter().map(|m| m.name).collect();
    assert_eq!(
        names, expected,
        "{who}: every metric of the contract, no other"
    );
    metrics
        .iter()
        .zip(specs)
        .map(|((name, m), spec)| {
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(spec.unit),
                "{who} {name}"
            );
            m.get("value").and_then(Json::as_f64).expect("a number")
        })
        .collect()
}

#[test]
fn every_workload_passes_its_checks_untraced_and_traced() {
    for workload in Workload::ALL {
        let who = workload.name();
        let values = check_result(&smoke(workload, false), &END_TO_END, who);
        assert!(
            values.iter().all(|v| *v > 0.0),
            "{who}: an end-to-end metric is never 0: {values:?}"
        );

        let values = check_result(&smoke(workload, true), &PER_LAYER, who);
        let value = |name: &str| values[PER_LAYER.iter().position(|m| m.name == name).unwrap()];
        assert!(
            value("detect.native_ms") > 0.0 && value("audit.report_us") > 0.0,
            "{who}"
        );
        assert!(
            value("net.reconcile_share") > 0.0,
            "{who}: the replay reconciles something"
        );
        // A layer the workload does not run reads 0; one it runs does not.
        assert_eq!(
            value("durable.wal_append_us") > 0.0,
            workload.is_durable(),
            "{who}"
        );
        assert_eq!(
            value("net.loopback_rtt_us") > 0.0,
            workload.is_service(),
            "{who}"
        );
        assert_eq!(
            value("repair.resolve_ms") > 0.0,
            !workload.is_service(),
            "{who}"
        );
        // The two-writer pass runs where the workload's own connection writes.
        let two_writers = matches!(workload, Workload::IngestBurst | Workload::ClusterMixed);
        for name in [
            "net.two_writer_p50_ms",
            "net.two_writer_ops_per_s",
            "net.two_writer_epochs_per_write",
        ] {
            assert_eq!(value(name) > 0.0, two_writers, "{who} {name}");
        }
        // Each workload reports its gated quantities under their own names too.
        let own: &[&str] = match workload {
            Workload::ReadHeavy => &["read_rps"],
            Workload::IngestBurst => &["ingest_rows_per_s", "recover_ms"],
            Workload::ClusterMixed => &["mixed_rps"],
            Workload::BatchClean => &["detect_cold_ms", "repair_ms", "audit_ms", "sql_detect_ms"],
        };
        for name in [
            "read_rps",
            "ingest_rows_per_s",
            "mixed_rps",
            "detect_cold_ms",
            "repair_ms",
        ] {
            assert_eq!(value(name) > 0.0, own.contains(&name), "{who} {name}");
        }
        assert!(own.iter().all(|name| value(name) > 0.0), "{who}");
    }
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_sdqbench"))
        .args([
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run sdqbench");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
