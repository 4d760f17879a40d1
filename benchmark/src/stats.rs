//! Order statistics used by every report: nearest-rank percentiles, the
//! percentiles a sample supports, and Python-compatible quartiles.

/// Samples a percentile must leave above it before the benchmark reports it
/// as a supported tail.
const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (in `(0, 100]`) among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    // The slack keeps float error in `p / 100 * n` from rounding up a
    // whole rank (99.9% of 10000 computes as 9990.000000000002).
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of unsorted `values`; `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// The median as a nearest-rank p50.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// `true` when `n` samples leave at least [`MIN_BEYOND`] above the
/// nearest rank of `p`.
pub fn supports(n: usize, p: f64) -> bool {
    n >= nearest_rank(n, p) + MIN_BEYOND
}

/// The highest of p50, p90, p99 and p99.9 that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| supports(n, p))
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` gives them (the default exclusive method). Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The interquartile distance as a share of the median of the same
/// values, the spread measure the benchmark's bounds are checked against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = python_median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// The interpolated median (`statistics.median`), used only beside the
/// quartiles so that both follow Python's conventions.
pub fn python_median(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => data[n / 2],
        _ => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        let unsorted = [3.0, 1.0, 2.0];
        assert_eq!(median(&unsorted), 2.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(!supports(10, 50.0));
        assert!(supports(20, 50.0));
        assert!(!supports(99, 90.0));
        assert!(supports(100, 90.0));
        assert!(!supports(999, 99.0));
        assert!(supports(1000, 99.0));
        assert_eq!(highest_supported(15), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(500), Some(90.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(python_median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        let spread = relative_spread(&v).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }
}
