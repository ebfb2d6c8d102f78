//! Order statistics used by the benchmark's reports.
//!
//! Latency percentiles use the nearest-rank definition on raw samples, so a
//! reported p50/p90 is always a latency that some request actually had.
//! Run-to-run spread uses the same quartile rule as Python's
//! `statistics.quantiles(values, n=4)` (the default "exclusive" method),
//! so the spread this crate reports equals the one computed over a set of
//! result files with the standard library.

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of ascending
/// `sorted` samples: the smallest sample with at least `p`% of the samples
/// at or below it. `None` when there are no samples.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The three quartile cut points of `values` by Python's
/// `statistics.quantiles(values, n=4)` ("exclusive" method). `None` for
/// fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// The interquartile range of `values` as a share of their median: the
/// run-to-run spread a metric's bound is compared with.
pub fn iqr_over_median(values: &[f64]) -> Option<f64> {
    let [q1, median, q3] = quartiles(values)?;
    (median != 0.0).then(|| (q3 - q1) / median.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&samples, 50.0), Some(5));
        assert_eq!(percentile(&samples, 90.0), Some(9));
        assert_eq!(percentile(&samples, 91.0), Some(10));
        assert_eq!(percentile(&samples, 100.0), Some(10));
        assert_eq!(percentile(&samples, 1.0), Some(1));
        assert_eq!(percentile(&[7], 50.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&samples, 0.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = iqr_over_median(&values).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert!(iqr_over_median(&steady).unwrap() < 0.02);
        assert_eq!(iqr_over_median(&[0.0, 0.0, 0.0]), None);
    }
}
