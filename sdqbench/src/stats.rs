//! Order statistics for the benchmark's reports: medians, quartiles and
//! the highest percentile a sample is large enough to support.

/// `p`-th percentile (0–100) of an ascending slice by nearest rank.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quartiles `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// which is what the driver's spread check uses. One value is its own
/// three quartiles; no value gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => return (0.0, 0.0, 0.0),
        1 => return (data[0], data[0], data[0]),
        _ => {}
    }
    let ld = data.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The highest percentile of the ladder 50 / 90 / 95 / 99 / 99.9 / 99.99
/// that still leaves at least ten samples beyond it.
pub fn top_percentile(n: usize) -> f64 {
    // (percentile, one sample in how many lies beyond it)
    [
        (99.99, 10_000),
        (99.9, 1_000),
        (99.0, 100),
        (95.0, 20),
        (90.0, 10),
    ]
    .into_iter()
    .find(|(_, one_in)| n >= 10 * one_in)
    .map_or(50.0, |(p, _)| p)
}

/// What one run reports about one timing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Which percentile `top` is (see [`top_percentile`]).
    pub top_pct: f64,
    /// The sample at `top_pct`.
    pub top: f64,
}

/// Summarize a sample.
pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (q1, median, q3) = quartiles(&sorted);
    let top_pct = top_percentile(sorted.len());
    Summary {
        n: sorted.len(),
        min: sorted.first().copied().unwrap_or(0.0),
        q1,
        median,
        q3,
        top_pct,
        top: percentile(&sorted, top_pct),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn top_percentile_keeps_ten_samples_beyond() {
        assert_eq!(top_percentile(99), 50.0);
        assert_eq!(top_percentile(100), 90.0);
        assert_eq!(top_percentile(200), 95.0);
        assert_eq!(top_percentile(1_000), 99.0);
        assert_eq!(top_percentile(10_000), 99.9);
        assert_eq!(top_percentile(99_999), 99.9);
        assert_eq!(top_percentile(100_000), 99.99);
    }

    #[test]
    fn summary_reads_nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.n, s.min, s.median), (1000, 1.0, 500.5));
        assert_eq!((s.top_pct, s.top), (99.0, 990.0));
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
    }
}
