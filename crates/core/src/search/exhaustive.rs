//! Exhaustive pruning-plan search for small networks.
//!
//! The §V loop uses a greedy trade (latency saved per accuracy lost), which
//! is fast but not provably optimal. For networks with few layers the
//! candidate space — the cross product of each layer's staircase optimal
//! points — is small enough to enumerate, giving (a) ground truth to
//! validate the greedy and beam searches against and (b) an exact solver
//! users can run on sub-networks they care about.

use pruneperf_backends::ConvBackend;
use pruneperf_models::Network;
use pruneperf_profiler::LayerProfiler;

use super::SearchSpace;
use crate::accuracy::AccuracyModel;
use crate::Keeps;

/// An exhaustively-found pruning configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactPlan {
    /// Kept channels per layer, over the space's label table.
    pub kept: Keeps,
    /// Summed per-layer latency, ms.
    pub latency_ms: f64,
    /// Estimated accuracy.
    pub accuracy: f64,
}

/// Exhaustive search over the per-layer staircase candidates.
///
/// Returns the configuration with the **highest accuracy among those whose
/// latency is at most `budget_fraction` of the unpruned latency**, or
/// `None` when no candidate combination meets the budget.
///
/// # Panics
///
/// Panics if the candidate cross product exceeds `max_configs` — this is an
/// exact solver for *small* problems; use [`crate::PerfAwarePruner`] or
/// [`super::search`] otherwise.
pub fn exhaustive_prune_to_latency(
    profiler: &LayerProfiler,
    accuracy: &AccuracyModel,
    backend: &dyn ConvBackend,
    network: &Network,
    budget_fraction: f64,
    max_configs: usize,
) -> Option<ExactPlan> {
    let space = SearchSpace::build_for(profiler, accuracy, backend, network);
    space.configs_within(max_configs, "exhaustive-search");

    let budget = space.score(&space.full_genome()).latency_ms * budget_fraction;

    let mut best: Option<ExactPlan> = None;
    for genome in space.enumerate_within(max_configs) {
        let point = space.score(&genome);
        if point.latency_ms <= budget && best.as_ref().is_none_or(|b| point.accuracy > b.accuracy) {
            best = Some(ExactPlan {
                kept: space.keeps(genome),
                latency_ms: point.latency_ms,
                accuracy: point.accuracy,
            });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use crate::PerfAwarePruner;
    use pruneperf_backends::AclGemm;
    use pruneperf_gpusim::Device;

    #[test]
    fn exact_plan_meets_budget_and_dominates_nothing_better() {
        let d = Device::mali_g72_hikey970();
        let net = testkit::tiny_net();
        let (p, a) = testkit::noiseless_setup(&net, &d);
        let backend = AclGemm::new();
        let exact = exhaustive_prune_to_latency(&p, &a, &backend, &net, 0.8, 10_000).unwrap();
        let unpruned: f64 = net
            .layers()
            .iter()
            .map(|l| p.measure(&backend, l).median_ms())
            .sum();
        assert!(exact.latency_ms <= unpruned * 0.8 * 1.0001);
        assert!(exact.accuracy > 0.5);
    }

    /// The greedy §V loop stays close to the exhaustive optimum on a small
    /// network (the quality argument for using it at ResNet scale).
    #[test]
    fn greedy_is_near_optimal_on_small_networks() {
        let d = Device::mali_g72_hikey970();
        let net = testkit::tiny_net();
        let (p, a) = testkit::noiseless_setup(&net, &d);
        let backend = AclGemm::new();
        for budget in [0.9, 0.8, 0.7, 0.6] {
            let Some(exact) = exhaustive_prune_to_latency(&p, &a, &backend, &net, budget, 10_000)
            else {
                continue;
            };
            let greedy = PerfAwarePruner::new(&p, &a).prune_to_latency(&backend, &net, budget);
            // Greedy may spend slightly more accuracy but never more than
            // 2 absolute points on this scale.
            assert!(
                greedy.accuracy() >= exact.accuracy - 0.02,
                "budget {budget}: greedy {:.4} vs exact {:.4}",
                greedy.accuracy(),
                exact.accuracy
            );
            assert!(
                greedy.latency_ms() <= exact.latency_ms * 1.1 + 1e-9
                    || greedy.accuracy() >= exact.accuracy - 0.02
            );
        }
    }

    #[test]
    fn impossible_budget_returns_none() {
        let d = Device::mali_g72_hikey970();
        let net = testkit::tiny_net();
        let (p, a) = testkit::noiseless_setup(&net, &d);
        let exact = exhaustive_prune_to_latency(&p, &a, &AclGemm::new(), &net, 0.0001, 10_000);
        assert!(exact.is_none());
    }

    #[test]
    #[should_panic(expected = "exceed the exhaustive-search cap")]
    fn config_cap_is_enforced() {
        let d = Device::mali_g72_hikey970();
        let net = testkit::tiny_net();
        let (p, a) = testkit::noiseless_setup(&net, &d);
        let _ = exhaustive_prune_to_latency(&p, &a, &AclGemm::new(), &net, 0.8, 2);
    }

    /// 2^64 configurations wrap to 0 in a `usize` product; the guard
    /// checks the product, so the space is refused instead of walked.
    #[test]
    #[should_panic(expected = "more than 2^64 configurations exceed the exhaustive-search cap")]
    fn config_cap_refuses_a_space_past_u64_max() {
        let d = Device::mali_g72_hikey970();
        let net = testkit::wide_net();
        let (p, a) = testkit::noiseless_setup(&net, &d);
        let _ = exhaustive_prune_to_latency(&p, &a, &AclGemm::new(), &net, 0.8, 1_000_000);
    }
}
