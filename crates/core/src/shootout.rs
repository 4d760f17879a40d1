//! Cross-library comparison — the §V discussion as an API:
//! “no optimal library exists to outperform across all neural network
//! layers. Neither Arm Compute Library, nor TVM dominates … Future
//! solutions integrating optimizations from across different deep learning
//! libraries could adapt their computation based on network and layer
//! configuration.”

use std::fmt;

use pruneperf_backends::ConvBackend;
use pruneperf_models::Network;
use pruneperf_profiler::LayerProfiler;
use serde::{Deserialize, Serialize};

/// Per-layer outcome of a backend comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShootoutRow {
    /// Layer label.
    pub label: String,
    /// Median latency per backend, ms (indexed like the backend list).
    pub ms: Vec<f64>,
    /// Index of the fastest backend.
    pub winner: usize,
}

/// A backends × layers latency comparison on one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Shootout {
    device: String,
    backend_names: Vec<String>,
    rows: Vec<ShootoutRow>,
}

impl Shootout {
    /// Measures every backend on every layer of `network`.
    ///
    /// # Panics
    ///
    /// Panics if `backends` is empty — a comparison needs contestants.
    pub fn run(
        profiler: &LayerProfiler,
        backends: &[Box<dyn ConvBackend>],
        network: &Network,
    ) -> Self {
        assert!(!backends.is_empty(), "shootout needs at least one backend");
        let rows = network
            .layers()
            .iter()
            .map(|layer| {
                let ms: Vec<f64> = backends
                    .iter()
                    .map(|b| profiler.measure(b.as_ref(), layer).median_ms())
                    .collect();
                #[expect(clippy::expect_used, reason = "`run` asserts backends is non-empty")]
                let winner = ms
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .expect("at least one backend");
                ShootoutRow {
                    label: layer.label().to_string(),
                    ms,
                    winner,
                }
            })
            .collect();
        Shootout {
            device: profiler.device().name().to_string(),
            backend_names: backends.iter().map(|b| b.name().to_string()).collect(),
            rows,
        }
    }

    /// Backend names in column order.
    pub fn backend_names(&self) -> &[String] {
        &self.backend_names
    }

    /// Per-layer rows.
    pub fn rows(&self) -> &[ShootoutRow] {
        &self.rows
    }

    /// Fastest-layer wins per backend.
    pub fn wins(&self) -> Vec<usize> {
        let mut wins = vec![0usize; self.backend_names.len()];
        for r in &self.rows {
            wins[r.winner] += 1;
        }
        wins
    }

    /// `true` when one backend wins *every* layer (§V says this should not
    /// happen on the OpenCL stacks).
    pub fn has_dominant_backend(&self) -> bool {
        self.wins().contains(&self.rows.len())
    }

    /// The oracle latency: per layer, the fastest backend — the §V
    /// “integrating optimizations from across different libraries” bound.
    pub fn oracle_ms(&self) -> f64 {
        self.rows.iter().map(|r| r.ms[r.winner]).sum()
    }

    /// The best single-backend total latency and its index.
    ///
    /// # Panics
    ///
    /// Panics on a shootout with no backends (only constructible by
    /// deserializing a degenerate report; [`Shootout::run`] asserts).
    #[expect(clippy::expect_used, reason = "`run` asserts backends is non-empty")]
    pub fn best_single_backend(&self) -> (usize, f64) {
        (0..self.backend_names.len())
            .map(|i| (i, self.rows.iter().map(|r| r.ms[i]).sum::<f64>()))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one backend")
    }
}

impl fmt::Display for Shootout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "shootout on {}", self.device)?;
        write!(f, "{:<15}", "layer")?;
        for n in &self.backend_names {
            write!(f, "{n:>20}")?;
        }
        writeln!(f)?;
        for r in &self.rows {
            write!(f, "{:<15}", r.label)?;
            for (i, ms) in r.ms.iter().enumerate() {
                let mark = if i == r.winner { "*" } else { " " };
                write!(f, "{:>18.2}{mark} ", ms)?;
            }
            writeln!(f)?;
        }
        let wins = self.wins();
        write!(f, "{:<15}", "wins")?;
        for w in wins {
            write!(f, "{w:>20}")?;
        }
        writeln!(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruneperf_backends::{AclDirect, AclDirectTuned, AclGemm, Tvm};
    use pruneperf_gpusim::Device;
    use pruneperf_models::{resnet50, vgg16};

    fn mali_backends() -> Vec<Box<dyn ConvBackend>> {
        vec![
            Box::new(AclDirect::new()),
            Box::new(AclGemm::new()),
            Box::new(Tvm::new()),
        ]
    }

    fn shootout() -> Shootout {
        let device = Device::mali_g72_hikey970();
        let profiler = LayerProfiler::noiseless(&device);
        Shootout::run(&profiler, &mali_backends(), &resnet50())
    }

    #[test]
    fn wins_sum_to_layer_count() {
        let s = shootout();
        assert_eq!(s.wins().iter().sum::<usize>(), resnet50().len());
        assert_eq!(s.rows().len(), 23);
    }

    /// §V: no single library dominates every ResNet-50 layer on Mali.
    #[test]
    fn no_dominant_backend_on_mali() {
        assert!(!shootout().has_dominant_backend());
    }

    /// The cross-library oracle beats the best single backend — the §V
    /// motivation for integrating optimizations across libraries.
    #[test]
    fn oracle_beats_best_single_backend() {
        let s = shootout();
        let (_, best_single) = s.best_single_backend();
        assert!(s.oracle_ms() < best_single);
        // And never beats it by violating per-row minima.
        for r in s.rows() {
            let min = r.ms.iter().cloned().fold(f64::INFINITY, f64::min);
            assert_eq!(min, r.ms[r.winner]);
        }
    }

    /// With the auto-tuner in the pool, direct conv wins more layers —
    /// “even with their auto-tuning enabled” neither dominates.
    #[test]
    fn autotuned_pool_still_has_no_dominator() {
        let device = Device::mali_g72_hikey970();
        let profiler = LayerProfiler::noiseless(&device);
        let backends: Vec<Box<dyn ConvBackend>> = vec![
            Box::new(AclDirectTuned::new()),
            Box::new(AclGemm::new()),
            Box::new(Tvm::new()),
        ];
        let s = Shootout::run(&profiler, &backends, &vgg16());
        assert!(!s.has_dominant_backend(), "{s}");
    }

    #[test]
    fn display_marks_winners() {
        let text = shootout().to_string();
        assert!(text.contains('*'), "{text}");
        assert!(text.contains("wins"), "{text}");
    }
}
