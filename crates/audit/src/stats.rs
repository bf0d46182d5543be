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

/// [`ViolationStats`] folded in one pass, from counts alone: every
/// single-tuple violation, every violating group's size and every dirty
/// tuple's `vio(t)`, fed in any order and any grouping. [`violation_stats`]
/// feeds it a report; a cache that keeps a `vio(t)` histogram and a
/// group-size histogram beside its detection state feeds it those.
#[derive(Debug, Clone, Default)]
pub struct StatsFold {
    single: usize,
    multi: usize,
    group_sum: usize,
    min_group: usize,
    max_group: usize,
    dirty: usize,
    vio_sum: u64,
    min_vio: u64,
    max_vio: u64,
    vio_histogram: [usize; 5],
}

impl StatsFold {
    /// Count `n` single-tuple violations.
    pub fn singles(&mut self, n: usize) {
        self.single += n;
    }

    /// Count `n` violating groups of `size` members each.
    pub fn groups(&mut self, size: usize, n: usize) {
        if n == 0 {
            return;
        }
        self.min_group = if self.multi == 0 {
            size
        } else {
            self.min_group.min(size)
        };
        self.max_group = self.max_group.max(size);
        self.multi += n;
        self.group_sum += size * n;
    }

    /// Count `n` tuples whose `vio(t)` is `vio` (> 0).
    pub fn tuples(&mut self, vio: u64, n: usize) {
        if n == 0 || vio == 0 {
            return;
        }
        self.min_vio = if self.dirty == 0 {
            vio
        } else {
            self.min_vio.min(vio)
        };
        self.max_vio = self.max_vio.max(vio);
        self.dirty += n;
        self.vio_sum += vio * n as u64;
        let bucket = match vio {
            1 => 0,
            2 => 1,
            3..=4 => 2,
            5..=8 => 3,
            _ => 4,
        };
        self.vio_histogram[bucket] += n;
    }

    /// The statistics of everything counted.
    pub fn finish(self) -> ViolationStats {
        let mean = |sum: f64, n: usize| if n == 0 { 0.0 } else { sum / n as f64 };
        ViolationStats {
            total: self.single + self.multi,
            single: self.single,
            multi: self.multi,
            dirty_tuples: self.dirty,
            max_vio: self.max_vio,
            min_vio: self.min_vio,
            avg_vio: mean(self.vio_sum as f64, self.dirty),
            vio_histogram: self.vio_histogram,
            min_group: self.min_group,
            max_group: self.max_group,
            avg_group: mean(self.group_sum as f64, self.multi),
        }
    }
}

/// Compute statistics from a report, in one pass over its violations and
/// one over its `vio(t)` tally.
pub fn violation_stats(report: &ViolationReport) -> ViolationStats {
    let mut fold = StatsFold::default();
    for v in &report.violations {
        match &v.kind {
            ViolationKind::SingleTuple { .. } => fold.singles(1),
            ViolationKind::MultiTuple { rows, .. } => fold.groups(rows.len(), 1),
        }
    }
    for vio in report.vio.values() {
        fold.tuples(vio, 1);
    }
    fold.finish()
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
