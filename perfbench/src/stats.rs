//! The harness's own arithmetic: medians, the percentile rule, and the
//! quartile spread the acceptance check uses.

/// Median of `values` (mean of the middle two for an even count).
/// Returns 0 for an empty slice so an all-failed run still prints a number.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples that must lie beyond a percentile before it is reported.
pub const SAMPLES_BEYOND: usize = 10;

/// The `p`-th percentile (nearest rank), or `None` when fewer than
/// [`SAMPLES_BEYOND`] samples lie beyond it — p90 therefore needs at least
/// 100 samples. A percentile the sample cannot support is absent, never
/// estimated.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < SAMPLES_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Quartile cut points as Python's `statistics.quantiles(values, n=4)`
/// (the default exclusive method) returns them. Needs two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median:
/// the spread the driver compares with a metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&ninety_nine, 0.9), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        // p50 is supported from 20 samples on.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.5), Some(10.0));
        assert_eq!(percentile(&twenty[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.9), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }
}
