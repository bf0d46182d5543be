//! Statistical summaries of detection results (paper §3: "The auditor
//! computes various statistical measures (max, min, avg, …) and also
//! reports statistics regarding multi-tuple violations").

use detect::violation::{ViolationKind, ViolationReport};

/// Summary statistics over a [`ViolationReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationStats {
    /// Total number of violation records.
    pub total: usize,
    /// Single-tuple violation records.
    pub single: usize,
    /// Multi-tuple violation records (groups).
    pub multi: usize,
    /// Tuples with `vio(t) > 0`.
    pub dirty_tuples: usize,
    /// Maximum `vio(t)` over dirty tuples (0 when clean).
    pub max_vio: u64,
    /// Minimum `vio(t)` over dirty tuples (0 when clean).
    pub min_vio: u64,
    /// Mean `vio(t)` over dirty tuples.
    pub avg_vio: f64,
    /// Histogram of `vio(t)` in buckets 1, 2, 3-4, 5-8, 9+.
    pub vio_histogram: [usize; 5],
    /// Smallest violating group size (multi-tuple).
    pub min_group: usize,
    /// Largest violating group size.
    pub max_group: usize,
    /// Mean violating group size.
    pub avg_group: f64,
}

/// Compute statistics from a report.
pub fn violation_stats(report: &ViolationReport) -> ViolationStats {
    let mut single = 0usize;
    let mut multi = 0usize;
    let mut group_sizes: Vec<usize> = Vec::new();
    for v in &report.violations {
        match &v.kind {
            ViolationKind::SingleTuple { .. } => single += 1,
            ViolationKind::MultiTuple { rows, .. } => {
                multi += 1;
                group_sizes.push(rows.len());
            }
        }
    }
    let vios: Vec<u64> = report.vio.values().collect();
    let dirty_tuples = vios.len();
    let max_vio = vios.iter().copied().max().unwrap_or(0);
    let min_vio = vios.iter().copied().min().unwrap_or(0);
    let avg_vio = if vios.is_empty() {
        0.0
    } else {
        vios.iter().sum::<u64>() as f64 / vios.len() as f64
    };
    let mut vio_histogram = [0usize; 5];
    for v in &vios {
        let bucket = match v {
            1 => 0,
            2 => 1,
            3..=4 => 2,
            5..=8 => 3,
            _ => 4,
        };
        vio_histogram[bucket] += 1;
    }
    let min_group = group_sizes.iter().copied().min().unwrap_or(0);
    let max_group = group_sizes.iter().copied().max().unwrap_or(0);
    let avg_group = if group_sizes.is_empty() {
        0.0
    } else {
        group_sizes.iter().sum::<usize>() as f64 / group_sizes.len() as f64
    };
    ViolationStats {
        total: report.len(),
        single,
        multi,
        dirty_tuples,
        max_vio,
        min_vio,
        avg_vio,
        vio_histogram,
        min_group,
        max_group,
        avg_group,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::{RowId, Value};

    #[test]
    fn stats_over_mixed_report() {
        let mut r = ViolationReport::default();
        r.push_single(0, RowId(1));
        r.push_multi(
            1,
            vec![Value::str("k")],
            vec![
                (RowId(2), Value::str("a")),
                (RowId(3), Value::str("a")),
                (RowId(4), Value::str("b")),
            ],
        );
        let s = violation_stats(&r);
        assert_eq!(s.total, 2);
        assert_eq!(s.single, 1);
        assert_eq!(s.multi, 1);
        assert_eq!(s.dirty_tuples, 4);
        assert_eq!(s.max_vio, 2); // the 'b' member has 2 partners
        assert_eq!(s.min_vio, 1);
        assert_eq!(s.min_group, 3);
        assert_eq!(s.max_group, 3);
        assert!((s.avg_group - 3.0).abs() < 1e-9);
        assert_eq!(s.vio_histogram[0], 3); // three tuples with vio=1
        assert_eq!(s.vio_histogram[1], 1); // one tuple with vio=2
    }

    #[test]
    fn empty_report_is_all_zero() {
        let s = violation_stats(&ViolationReport::default());
        assert_eq!(s.total, 0);
        assert_eq!(s.dirty_tuples, 0);
        assert_eq!(s.max_vio, 0);
        assert_eq!(s.avg_vio, 0.0);
    }
}
