//! Turning a run's measurements into the metric values of the contract,
//! the human-readable table, and the one-line JSON result.

use crate::json::Json;
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use crate::stats::{self, Summary};
use crate::workloads::Outcome;

/// Metric values by name, in the contract's order.
pub type Values = Vec<(&'static str, f64)>;

/// The value of `name` among `values`; a metric the run has no value for
/// reads 0.
fn value_of(values: &Values, name: &str) -> f64 {
    values
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// The gated end-to-end metrics of one run.
pub fn end_to_end_values(out: &Outcome) -> Values {
    vec![
        ("read_p50_us", stats::median(&out.reads_us)),
        ("write_p50_ms", stats::median(&out.writes_ms)),
        ("ops_per_s", stats::median(&out.rates)),
        ("setup_s", stats::median(&out.setups_s)),
        ("peak_rss_mb", out.peak_rss_mb),
    ]
}

/// The result line the driver reads: `correct`, `attempted`, `failed`
/// and every metric of `specs` with its unit.
pub fn result_line(out: &Outcome, specs: &[MetricSpec], values: &Values) -> String {
    let metrics = specs
        .iter()
        .map(|m| {
            let value = value_of(values, m.name);
            (
                m.name.to_string(),
                Json::Obj(vec![
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(out.failed == 0)),
        (
            "attempted".to_string(),
            Json::Num(out.attempted.max(1) as f64),
        ),
        ("failed".to_string(), Json::Num(out.failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
    .render()
}

fn timing_row(name: &str, unit: &str, s: &Summary) -> String {
    format!(
        "  {name:<14} {unit:<4} n={:<7} median {:>10.3}  q1 {:>10.3}  q3 {:>10.3}  p{} {:>10.3}",
        s.n, s.median, s.q1, s.q3, s.top_pct, s.top
    )
}

/// The table a person reads: every end-to-end metric by name and unit,
/// timings with n / median / quartiles / top percentile.
pub fn end_to_end_table(workload: &str, out: &Outcome, values: &Values) -> String {
    let mut lines = vec![format!(
        "{workload}: {} requests in {:.2} s, {} failed (failed_share {:.4})",
        out.attempted,
        out.elapsed_s,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    )];
    lines.push(timing_row(
        "read latency",
        "us",
        &stats::summarize(&out.reads_us),
    ));
    lines.push(timing_row(
        "write latency",
        "ms",
        &stats::summarize(&out.writes_ms),
    ));
    lines.push(timing_row(
        "segment rate",
        "1/s",
        &stats::summarize(&out.rates),
    ));
    lines.push(timing_row("set-up", "s", &stats::summarize(&out.setups_s)));
    for (spec, (name, value)) in END_TO_END.iter().zip(values) {
        lines.push(format!("  {name:<14} {:<4} {value:.4}", spec.unit));
    }
    for (name, value) in &out.detail {
        lines.push(format!("  ({name} {value:.4})"));
    }
    for wrong in &out.wrong {
        lines.push(format!("  WRONG: {wrong}"));
    }
    lines.join("\n")
}

/// The layer table of the traced run.
pub fn layer_table(workload: &str, values: &Values) -> String {
    let mut lines = vec![format!("{workload}: per-layer metrics (ungated)")];
    for spec in &PER_LAYER {
        let value = value_of(values, spec.name);
        lines.push(format!("  {:<36} {:>14.3} {}", spec.name, value, spec.unit));
    }
    lines.join("\n")
}
