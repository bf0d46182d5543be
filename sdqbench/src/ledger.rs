//! The append-only ledger (`sdqbench/ledger.jsonl`, one JSON record per
//! `sdqbench run`) and the comparisons made over it: `check` judges one
//! record against another, `agree` holds two fresh sets of runs of the
//! same build against the benchmark's own bounds.

use std::io::Write;
use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::script::Workload;
use crate::spec::{MetricSpec, END_TO_END, RUN_SECONDS};
use crate::stats;

/// The ledger: beside the package's manifest, wherever it was built.
pub const LEDGER: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/ledger.jsonl");

/// Runs of each workload in one set.
pub const REPS: usize = 10;

/// One metric on one workload over the repetitions of a set of runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Repetitions.
    pub n: usize,
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Cell {
    /// Summarize the values of the repetitions.
    pub fn of(values: &[f64]) -> Cell {
        let (q1, median, q3) = stats::quartiles(values);
        Cell {
            n: values.len(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            q1,
            median,
            q3,
        }
    }

    /// Inter-quartile distance as a share of the median — the run-to-run
    /// spread the driver holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("n".into(), Json::Num(self.n as f64)),
            ("min".into(), Json::Num(self.min)),
            ("q1".into(), Json::Num(self.q1)),
            ("median".into(), Json::Num(self.median)),
            ("q3".into(), Json::Num(self.q3)),
        ])
    }

    fn from_json(j: &Json) -> Option<Cell> {
        let num = |k: &str| j.get(k).and_then(Json::as_f64);
        Some(Cell {
            n: num("n")? as usize,
            min: num("min")?,
            q1: num("q1")?,
            median: num("median")?,
            q3: num("q3")?,
        })
    }
}

/// How one side of a comparison stands against the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the runs' own spread.
    Better,
    /// No worse than the bound allows.
    WithinBound,
    /// Worse by more than the bound.
    Worse,
    /// The spread between runs is wider than the bound: no verdict.
    Unresolved,
}

/// Judge `b` against `a` for a metric. Returns the verdict and by what
/// share of `a`'s median `b` is worse (negative: better).
pub fn verdict(spec: &MetricSpec, a: &Cell, b: &Cell) -> (Verdict, f64) {
    let delta = if a.median == 0.0 {
        0.0
    } else {
        (b.median - a.median) / a.median.abs()
    };
    let worse_by = if spec.better == "lower" {
        delta
    } else {
        -delta
    };
    let spread = a.spread().max(b.spread());
    let verdict = if spread > spec.bound {
        Verdict::Unresolved
    } else if worse_by > spec.bound {
        Verdict::Worse
    } else if worse_by < -spread && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (verdict, worse_by)
}

/// The result line of one child run, parsed.
pub struct ChildResult {
    /// Did the correctness gate pass?
    pub correct: bool,
    /// Requests sent.
    pub attempted: f64,
    /// Requests failed.
    pub failed: f64,
    /// Metric values by name.
    pub metrics: Vec<(String, f64)>,
}

/// Length of the measured phase of every run of a set.
pub fn seconds(smoke: bool) -> u64 {
    if smoke {
        1
    } else {
        RUN_SECONDS
    }
}

/// Run this executable on one workload, the way the driver does, and
/// parse its last line.
pub fn run_child(
    workload: Workload,
    seed: u64,
    trace: bool,
    smoke: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds(smoke).to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = Json::parse(last).map_err(|e| {
        format!(
            "{} (seed {seed}) printed no result ({e}); status {}\n{stdout}{}",
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    let metrics = doc
        .get("metrics")
        .map(Json::fields)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: doc.get("correct") == Some(&Json::Bool(true)) && output.status.success(),
        attempted: doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0),
        failed: doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
        metrics,
    })
}

/// One set of runs: every workload [`REPS`] times on one seed (once
/// with `--smoke`), so the spread of a set is the machine's, not the
/// data's.
pub struct RunSet {
    /// `(workload, metric) → cell`, end-to-end metrics.
    pub end_to_end: Vec<(Workload, &'static str, Cell)>,
    /// Requests failed over requests attempted, per workload.
    pub failed_share: Vec<(Workload, f64)>,
    /// Did every run pass its correctness gate?
    pub correct: bool,
}

/// Run one set. Each run is its own child process, so `peak_rss_mb` is
/// per run. Progress goes to stderr.
pub fn run_set(seed: u64, smoke: bool) -> Result<RunSet, String> {
    let mut set = RunSet {
        end_to_end: Vec::new(),
        failed_share: Vec::new(),
        correct: true,
    };
    for workload in Workload::ALL {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let (mut attempted, mut failed) = (0.0, 0.0);
        for rep in 0..if smoke { 1 } else { REPS } {
            let child = run_child(workload, seed, false, smoke)?;
            let shown: Vec<String> = child
                .metrics
                .iter()
                .map(|(_, v)| format!("{v:.4}"))
                .collect();
            eprintln!(
                "  {} run {rep}: {} [{}]",
                workload.name(),
                if child.correct { "ok" } else { "WRONG" },
                shown.join(" ")
            );
            set.correct &= child.correct;
            attempted += child.attempted;
            failed += child.failed;
            for (slot, spec) in values.iter_mut().zip(&END_TO_END) {
                let value = child.metrics.iter().find(|(n, _)| n == spec.name);
                slot.push(value.map_or(0.0, |(_, v)| *v));
            }
        }
        for (slot, spec) in values.iter().zip(&END_TO_END) {
            set.end_to_end.push((workload, spec.name, Cell::of(slot)));
        }
        set.failed_share
            .push((workload, failed / f64::max(attempted, 1.0)));
    }
    Ok(set)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// A ledger record for `set`, with one traced run per workload for the
/// layer table.
pub fn record(
    set: &RunSet,
    layers: &[(Workload, Vec<(String, f64)>)],
    seed: u64,
    seconds: u64,
) -> Json {
    let by_workload = |cell_of: &dyn Fn(Workload) -> Vec<(String, Json)>| {
        Json::Obj(
            Workload::ALL
                .iter()
                .map(|&w| (w.name().to_string(), Json::Obj(cell_of(w))))
                .collect(),
        )
    };
    Json::Obj(vec![
        (
            "commit".into(),
            Json::Str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        (
            "date".into(),
            Json::Str(command_line("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"])),
        ),
        (
            "nproc".into(),
            Json::Num(std::thread::available_parallelism().map_or(1, |p| p.get()) as f64),
        ),
        (
            "rustc".into(),
            Json::Str(command_line("rustc", &["--version"])),
        ),
        ("seed".into(), Json::Num(seed as f64)),
        ("seconds".into(), Json::Num(seconds as f64)),
        (
            "end_to_end".into(),
            by_workload(&|w| {
                set.end_to_end
                    .iter()
                    .filter(|(cw, _, _)| *cw == w)
                    .map(|(_, name, cell)| (name.to_string(), cell.to_json()))
                    .chain(
                        set.failed_share
                            .iter()
                            .filter(|(cw, _)| *cw == w)
                            .map(|(_, share)| ("failed_share".to_string(), Json::Num(*share))),
                    )
                    .collect()
            }),
        ),
        (
            "per_layer".into(),
            by_workload(&|w| {
                layers
                    .iter()
                    .filter(|(lw, _)| *lw == w)
                    .flat_map(|(_, values)| values.iter())
                    .map(|(name, value)| (name.clone(), Json::Num(*value)))
                    .collect()
            }),
        ),
    ])
}

/// Append one record to the ledger.
pub fn append(path: &Path, record: &Json) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{}", record.render())
}

/// Load the record a selector names: `path` (the last record) or
/// `path#N` (the N-th, from 0).
pub fn load(selector: &str) -> Result<Json, String> {
    let (path, index) = match selector.rsplit_once('#') {
        Some((path, n)) => (path, Some(n.parse::<usize>().map_err(|e| e.to_string())?)),
        None => (selector, None),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let line = match index {
        Some(i) => lines.get(i),
        None => lines.last(),
    }
    .ok_or_else(|| format!("{selector}: no such record"))?;
    Json::parse(line)
}

fn cell_in(record: &Json, workload: Workload, metric: &str) -> Option<Cell> {
    Cell::from_json(
        record
            .get("end_to_end")?
            .get(workload.name())?
            .get(metric)?,
    )
}

/// `sdqbench check <a> <b>`: the verdict on every end-to-end metric of
/// every workload, `b` against `a`. Returns the table and whether any
/// metric is worse. Records made with another run length, seed or core
/// count measured something else and are refused.
pub fn check(a: &Json, b: &Json) -> Result<(String, bool), String> {
    for key in ["seconds", "seed", "nproc"] {
        let (va, vb) = (a.get(key), b.get(key));
        if va.is_none() || va != vb {
            return Err(format!(
                "the records differ in {key} ({va:?} against {vb:?}): not comparable"
            ));
        }
    }
    let mut lines = vec![format!(
        "{:<18} {:<13} {:>12} {:>12} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "a median", "b median", "worse", "spread", "bound"
    )];
    let mut any_worse = false;
    for workload in Workload::ALL {
        for spec in &END_TO_END {
            let (Some(ca), Some(cb)) = (
                cell_in(a, workload, spec.name),
                cell_in(b, workload, spec.name),
            ) else {
                lines.push(format!("{:<18} {:<13} missing", workload.name(), spec.name));
                continue;
            };
            let (v, worse_by) = verdict(spec, &ca, &cb);
            any_worse |= v == Verdict::Worse;
            lines.push(format!(
                "{:<18} {:<13} {:>12.4} {:>12.4} {:>+7.1}% {:>6.1}% {:>5.0}%  {}",
                workload.name(),
                spec.name,
                ca.median,
                cb.median,
                worse_by * 100.0,
                ca.spread().max(cb.spread()) * 100.0,
                spec.bound * 100.0,
                match v {
                    Verdict::Better => "better",
                    Verdict::WithinBound => "within bound",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved (spread > bound)",
                }
            ));
        }
    }
    Ok((lines.join("\n"), any_worse))
}

/// `sdqbench agree`: two sets of runs of this build, held against the
/// bounds. Every spread must stay within the metric's bound, and the two
/// medians must lie within the bound of each other whichever is ahead:
/// the same code ran twice, so a second set that is much *better* is as
/// much a disagreement as one that is worse. (The driver is laxer on both
/// counts: it exempts `setup_s` from the spread rule and only minds a
/// worse second median.) Returns the table and whether all of it holds.
pub fn agree(first: &RunSet, second: &RunSet) -> (String, bool) {
    let mut lines = vec![format!(
        "{:<18} {:<13} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median 1", "median 2", "gap", "spread 1", "spread 2", "bound"
    )];
    let mut holds = first.correct && second.correct;
    for ((workload, name, a), (_, _, b)) in first.end_to_end.iter().zip(&second.end_to_end) {
        let spec = crate::spec::end_to_end(name).expect("a set holds end-to-end metrics only");
        let (_, worse_by) = verdict(spec, a, b);
        let ok = a.spread().max(b.spread()) <= spec.bound && worse_by.abs() <= spec.bound;
        holds &= ok;
        lines.push(format!(
            "{:<18} {:<13} {:>12.4} {:>12.4} {:>+7.1}% {:>7.1}% {:>7.1}% {:>5.0}%{}",
            workload.name(),
            name,
            a.median,
            b.median,
            worse_by * 100.0,
            a.spread() * 100.0,
            b.spread() * 100.0,
            spec.bound * 100.0,
            if ok { "" } else { "  OUTSIDE" }
        ));
    }
    for (workload, share) in first.failed_share.iter().chain(&second.failed_share) {
        if *share > 0.0 {
            holds = false;
            lines.push(format!("{:<18} failed_share {share}", workload.name()));
        }
    }
    (lines.join("\n"), holds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::end_to_end;

    fn runs(center: f64) -> Cell {
        // Ten runs within ±1% of `center`.
        let values: Vec<f64> = (0..10)
            .map(|i| center * (0.99 + 0.002 * f64::from(i)))
            .collect();
        Cell::of(&values)
    }

    #[test]
    fn check_flags_a_planted_regression_and_passes_noise() {
        // Lower is better, and a 10% bound whatever the contract's is today.
        let latency = MetricSpec {
            bound: 0.10,
            ..*end_to_end("read_p50_us").unwrap()
        };
        let base = runs(100.0);
        assert_eq!(verdict(&latency, &base, &runs(120.0)).0, Verdict::Worse);
        assert_eq!(
            verdict(&latency, &base, &runs(105.0)).0,
            Verdict::WithinBound
        );
        assert_eq!(verdict(&latency, &base, &runs(80.0)).0, Verdict::Better);
        // Higher is better.
        let rate = MetricSpec {
            bound: 0.10,
            ..*end_to_end("ops_per_s").unwrap()
        };
        assert_eq!(verdict(&rate, &base, &runs(80.0)).0, Verdict::Worse);
        assert_eq!(verdict(&rate, &base, &runs(120.0)).0, Verdict::Better);
        assert_eq!(verdict(&rate, &base, &runs(95.0)).0, Verdict::WithinBound);
        // Runs that scatter by more than the bound resolve nothing.
        let noisy = Cell::of(&[70.0, 85.0, 100.0, 115.0, 130.0]);
        assert_eq!(
            verdict(&latency, &noisy, &runs(150.0)).0,
            Verdict::Unresolved
        );
        let (_, worse_by) = verdict(&latency, &base, &runs(120.0));
        assert!((worse_by - 0.20).abs() < 1e-9);
        // Spread is the inter-quartile distance over the median.
        let one_to_ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((Cell::of(&one_to_ten).spread() - 1.0).abs() < 1e-12);
    }

    /// A set in which `cell_of` gives every metric's runs.
    fn set_of(cell_of: impl Fn(&str) -> Cell) -> RunSet {
        RunSet {
            end_to_end: Workload::ALL
                .iter()
                .flat_map(|&w| END_TO_END.iter().map(move |m| (w, m.name)))
                .map(|(w, name)| (w, name, cell_of(name)))
                .collect(),
            failed_share: Workload::ALL.iter().map(|&w| (w, 0.0)).collect(),
            correct: true,
        }
    }

    #[test]
    fn agree_minds_a_gap_either_way_and_the_spread_of_every_metric() {
        let steady = set_of(|_| runs(50.0));
        assert!(agree(&steady, &set_of(|_| runs(55.0))).1);
        // Much better the second time is no agreement either.
        let faster = set_of(|name| runs(if name == "write_p50_ms" { 30.0 } else { 50.0 }));
        let (table, holds) = agree(&steady, &faster);
        assert!(!holds && table.matches("OUTSIDE").count() == 4, "{table}");
        // Set-up is held to its spread like the rest.
        let scattered = set_of(|name| match name {
            "setup_s" => Cell::of(&[30.0, 40.0, 50.0, 60.0, 70.0]),
            _ => runs(50.0),
        });
        let (table, holds) = agree(&steady, &scattered);
        assert!(!holds && table.matches("OUTSIDE").count() == 4, "{table}");
    }

    #[test]
    fn records_round_trip_through_the_ledger_format() {
        let set = set_of(|_| runs(50.0));
        let layers = vec![(
            Workload::BatchClean,
            vec![("audit.report_us".to_string(), 12.5)],
        )];
        let rec = record(&set, &layers, 11, 10);
        let back = Json::parse(&rec.render()).unwrap();
        assert_eq!(back, rec);
        assert_eq!(
            cell_in(&back, Workload::IngestBurst, "write_p50_ms"),
            Some(runs(50.0))
        );
        let (table, any_worse) = check(&back, &back).unwrap();
        assert!(!any_worse && table.contains("within bound"), "{table}");
        // Another seed or run length is another benchmark.
        for other in [record(&set, &layers, 12, 10), record(&set, &layers, 11, 20)] {
            assert!(check(&back, &other).is_err());
        }
    }
}
