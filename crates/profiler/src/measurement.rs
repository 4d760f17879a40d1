use serde::{Deserialize, Serialize};

/// The latencies of repeated runs of one configuration plus their median —
/// the paper's reporting unit (§III-D: median of 10 runs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    runs_ms: Vec<f64>,
    median_ms: f64,
}

impl Measurement {
    /// Builds a measurement from individual run latencies.
    ///
    /// # Panics
    ///
    /// Panics if `runs_ms` is empty.
    pub fn from_runs(mut runs_ms: Vec<f64>) -> Self {
        assert!(!runs_ms.is_empty(), "a measurement needs at least one run");
        let mut sorted = runs_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median_ms = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        runs_ms.shrink_to_fit();
        Measurement { runs_ms, median_ms }
    }

    /// The reported (median) latency in milliseconds.
    pub fn median_ms(&self) -> f64 {
        self.median_ms
    }

    /// All run latencies, in execution order.
    pub fn runs_ms(&self) -> &[f64] {
        &self.runs_ms
    }

    /// Fastest run.
    pub fn min_ms(&self) -> f64 {
        self.runs_ms.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Slowest run.
    pub fn max_ms(&self) -> f64 {
        self.runs_ms.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_count_median() {
        let m = Measurement::from_runs(vec![3.0, 1.0, 2.0]);
        assert_eq!(m.median_ms(), 2.0);
    }

    #[test]
    fn even_count_median_averages() {
        let m = Measurement::from_runs(vec![1.0, 2.0, 3.0, 10.0]);
        assert_eq!(m.median_ms(), 2.5);
    }

    #[test]
    fn median_is_outlier_robust() {
        let m = Measurement::from_runs(vec![5.0, 5.1, 4.9, 5.0, 50.0]);
        assert_eq!(m.median_ms(), 5.0);
    }

    #[test]
    fn min_max() {
        let m = Measurement::from_runs(vec![5.0, 4.0, 6.0]);
        assert_eq!(m.min_ms(), 4.0);
        assert_eq!(m.max_ms(), 6.0);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn empty_rejected() {
        let _ = Measurement::from_runs(vec![]);
    }

    #[test]
    fn preserves_run_order() {
        let m = Measurement::from_runs(vec![3.0, 1.0, 2.0]);
        assert_eq!(m.runs_ms(), &[3.0, 1.0, 2.0]);
    }
}
