use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Error, Serialize, Value};

use pruneperf_backends::ConvBackend;
use pruneperf_models::Network;
use pruneperf_profiler::LayerProfiler;

use crate::accuracy::AccuracyModel;
use crate::search::{Objective, ParetoPoint, SearchSpace};
use crate::{pareto_front, Staircase};

/// Kept channel counts, one per label of a table that every plan drawn
/// from one network shares (§V picks one staircase point per layer).
/// Plans built in this crate list every layer in network order; a table
/// read from JSON lists its labels in the order the object does, and may
/// name labels the network lacks.
#[derive(Debug, Clone, PartialEq)]
pub struct Keeps {
    labels: Arc<[String]>,
    counts: Vec<usize>,
}

impl Keeps {
    /// Pairs a shared label table with one count per label.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub(crate) fn new(labels: Arc<[String]>, counts: Vec<usize>) -> Self {
        // lint: allow(panic) — documented # Panics contract
        assert_eq!(labels.len(), counts.len(), "one keep count per label");
        Keeps { labels, counts }
    }

    /// The label table of `network`, in network order.
    pub(crate) fn labels_of(network: &Network) -> Arc<[String]> {
        network
            .layers()
            .iter()
            .map(|l| l.label().to_string())
            .collect()
    }

    /// `(label, kept)` pairs in table order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&str, usize)> + '_ {
        self.labels
            .iter()
            .map(String::as_str)
            .zip(self.counts.iter().copied())
    }

    /// The count kept for `label`.
    pub(crate) fn get(&self, label: &str) -> Option<usize> {
        let i = self.labels.iter().position(|l| l == label)?;
        self.counts.get(i).copied()
    }
}

/// A `{"label": kept}` object with its keys sorted, as a map serializes.
impl Serialize for Keeps {
    fn to_value(&self) -> Value {
        let mut pairs: Vec<(&str, usize)> = self.iter().collect();
        pairs.sort_unstable();
        let fields = pairs
            .into_iter()
            .map(|(label, kept)| (label.to_string(), kept.to_value()));
        Value::Object(fields.collect())
    }
}

/// Reads a `{"label": kept}` object in its own order; a repeated label
/// keeps its last count, as a map's would.
impl<'de> Deserialize<'de> for Keeps {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let fields = value
            .as_object()
            .ok_or_else(|| Error::msg("expected object"))?;
        let (mut labels, mut counts): (Vec<String>, Vec<usize>) = (Vec::new(), Vec::new());
        for (label, kept) in fields {
            let kept = usize::from_value(kept)?;
            match labels.iter().position(|l| l == label) {
                Some(i) => counts[i] = kept,
                None => {
                    labels.push(label.clone());
                    counts.push(kept);
                }
            }
        }
        Ok(Keeps::new(labels.into(), counts))
    }
}

/// A concrete pruning decision for a whole network: how many channels each
/// layer keeps, and the resulting (estimated) latency and accuracy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PruningPlan {
    policy: String,
    backend: String,
    device: String,
    network: String,
    kept: Keeps,
    latency_ms: f64,
    energy_mj: f64,
    accuracy: f64,
}

impl PruningPlan {
    /// Assembles a plan from already-measured parts. Crate-internal: only
    /// the pruners and the whole-network search construct plans, and both
    /// are required to have measured the `point` through the same profiler
    /// paths the accessors document.
    pub(crate) fn from_parts(
        policy: &str,
        backend: &str,
        device: &str,
        network: &str,
        kept: Keeps,
        point: ParetoPoint,
    ) -> Self {
        PruningPlan {
            policy: policy.to_string(),
            backend: backend.to_string(),
            device: device.to_string(),
            network: network.to_string(),
            kept,
            latency_ms: point.latency_ms,
            energy_mj: point.energy_mj,
            accuracy: point.accuracy,
        }
    }

    /// Policy that produced the plan: `"performance-aware"`,
    /// `"energy-aware"`, `"uninstructed"`, `"search-beam"` or
    /// `"search-evolve"`.
    pub fn policy(&self) -> &str {
        &self.policy
    }

    /// Backend the plan was profiled with.
    pub fn backend(&self) -> &str {
        &self.backend
    }

    /// Device the plan was profiled on.
    pub fn device(&self) -> &str {
        &self.device
    }

    /// Network the plan applies to.
    pub fn network(&self) -> &str {
        &self.network
    }

    /// `(label, kept)` for every layer, in network order.
    pub fn keeps(&self) -> impl ExactSizeIterator<Item = (&str, usize)> + '_ {
        self.kept.iter()
    }

    /// Kept channel count per layer label, as a map built on each call;
    /// [`PruningPlan::keeps`] reads the same counts without building one.
    pub fn kept_channels(&self) -> HashMap<String, usize> {
        self.keeps().map(|(l, k)| (l.to_string(), k)).collect()
    }

    /// Sum of per-layer median latencies (unique layers, batch 1), ms.
    pub fn latency_ms(&self) -> f64 {
        self.latency_ms
    }

    /// Sum of per-layer modelled energies, mJ.
    pub fn energy_mj(&self) -> f64 {
        self.energy_mj
    }

    /// Estimated accuracy under the surrogate model.
    pub fn accuracy(&self) -> f64 {
        self.accuracy
    }

    /// Kept channels for one layer.
    pub fn kept_for(&self, label: &str) -> Option<usize> {
        self.kept.get(label)
    }
}

impl fmt::Display for PruningPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} plan for {} ({} on {}): {:.2} ms, accuracy {:.4}",
            self.policy, self.network, self.backend, self.device, self.latency_ms, self.accuracy
        )
    }
}

/// Measures the summed latency and energy of per-layer keep counts in
/// network order.
fn plan_cost(
    profiler: &LayerProfiler,
    backend: &dyn ConvBackend,
    network: &Network,
    counts: &[usize],
) -> (f64, f64) {
    network
        .layers()
        .iter()
        .zip(counts)
        .map(|(l, &c)| {
            // lint: allow(unwrap) — kept counts never exceed the catalog c_out
            let layer = l.with_c_out(c).expect("keep count validated");
            (
                profiler.measure(backend, &layer).median_ms(),
                profiler.energy_mj(backend, &layer),
            )
        })
        .fold((0.0, 0.0), |(ms, mj), (m, j)| (ms + m, mj + j))
}

/// The paper's proposal (§V): profile each layer's staircase on the target
/// device, restrict pruning to the **optimal points** (right step edges),
/// and couple the choice with the accuracy model to meet a latency budget
/// at the least accuracy cost.
///
/// ```
/// use pruneperf_backends::Cudnn;
/// use pruneperf_core::{accuracy::AccuracyModel, PerfAwarePruner};
/// use pruneperf_gpusim::Device;
/// use pruneperf_models::alexnet;
/// use pruneperf_profiler::LayerProfiler;
///
/// let device = Device::jetson_tx2();
/// let network = alexnet();
/// let profiler = LayerProfiler::noiseless(&device);
/// let accuracy = AccuracyModel::for_network(&network);
/// let pruner = PerfAwarePruner::new(&profiler, &accuracy);
/// let plan = pruner.prune_to_latency(&Cudnn::new(), &network, 0.9);
/// assert!(plan.latency_ms() > 0.0);
/// assert!(plan.accuracy() <= accuracy.base_accuracy());
/// ```
#[derive(Debug, Clone)]
pub struct PerfAwarePruner<'a> {
    profiler: &'a LayerProfiler,
    accuracy: &'a AccuracyModel,
}

impl<'a> PerfAwarePruner<'a> {
    /// Creates a pruner bound to a profiler (device) and accuracy model.
    pub fn new(profiler: &'a LayerProfiler, accuracy: &'a AccuracyModel) -> Self {
        PerfAwarePruner { profiler, accuracy }
    }

    /// The pruning candidates for one layer: channel counts on the right
    /// edges of the profiled staircase (ascending).
    pub fn candidates_for(
        &self,
        backend: &dyn ConvBackend,
        layer: &pruneperf_models::ConvLayerSpec,
    ) -> Vec<(usize, f64)> {
        let curve = self
            .profiler
            .latency_curve(backend, layer, 1..=layer.c_out());
        Staircase::detect(&curve)
            .optimal_points()
            .iter()
            .map(|p| (p.channels, p.ms))
            .collect()
    }

    /// Prunes `network` until its summed layer latency is at most
    /// `budget_fraction` of the unpruned latency, spending as little
    /// accuracy as possible (greedy best latency-saved-per-accuracy-lost,
    /// [`SearchSpace::greedy`]).
    ///
    /// # Panics
    ///
    /// Panics if `budget_fraction` is not in `(0, 1]`.
    pub fn prune_to_latency(
        &self,
        backend: &dyn ConvBackend,
        network: &Network,
        budget_fraction: f64,
    ) -> PruningPlan {
        let space = SearchSpace::build_for(self.profiler, self.accuracy, backend, network);
        self.plan_on(
            &space,
            backend,
            network,
            Objective::Latency,
            budget_fraction,
        )
    }

    /// Energy-aware variant of [`PerfAwarePruner::prune_to_latency`]: same
    /// staircase-derived candidates, but the greedy trades accuracy for
    /// *energy* until the plan's energy is at most `budget_fraction` of the
    /// unpruned network's. The paper motivates embedded GPUs by “FLOPS per
    /// watt” (§I); this is the natural extension of the §V loop.
    ///
    /// # Panics
    ///
    /// Panics if `budget_fraction` is not in `(0, 1]`.
    pub fn prune_to_energy(
        &self,
        backend: &dyn ConvBackend,
        network: &Network,
        budget_fraction: f64,
    ) -> PruningPlan {
        let space = SearchSpace::build_for(self.profiler, self.accuracy, backend, network);
        self.plan_on(&space, backend, network, Objective::Energy, budget_fraction)
    }

    /// Plans at several latency budgets, reduced to the Pareto front over
    /// (latency, accuracy) — the search-space reduction of §V (“by
    /// profiling, we can reduce the search space to the ones with superior
    /// speedup to test for accuracy”).
    pub fn pareto_plans(
        &self,
        backend: &dyn ConvBackend,
        network: &Network,
        budget_fractions: &[f64],
    ) -> Vec<PruningPlan> {
        let space = SearchSpace::build_for(self.profiler, self.accuracy, backend, network);
        let plans: Vec<PruningPlan> = budget_fractions
            .iter()
            .map(|&f| self.plan_on(&space, backend, network, Objective::Latency, f))
            .collect();
        let metric: Vec<(f64, f64)> = plans
            .iter()
            .map(|p| (p.latency_ms(), p.accuracy()))
            .collect();
        pareto_front(&metric)
            .into_iter()
            .map(|i| plans[i].clone())
            .collect()
    }

    /// The greedy's plan on `network`'s space.
    fn plan_on(
        &self,
        space: &SearchSpace,
        backend: &dyn ConvBackend,
        network: &Network,
        objective: Objective,
        budget_fraction: f64,
    ) -> PruningPlan {
        let (genome, point) = space.greedy(objective, budget_fraction);
        let policy = match objective {
            Objective::Latency => "performance-aware",
            Objective::Energy => "energy-aware",
        };
        PruningPlan::from_parts(
            policy,
            backend.name(),
            self.profiler.device().name(),
            network.name(),
            space.keeps(genome),
            point,
        )
    }
}

/// The status-quo baseline (§I): pick a pruning distance from accuracy
/// considerations alone, “agnostic to target devices, expecting that having
/// a smaller number of network parameters will lead to faster inference”.
#[derive(Debug, Clone)]
pub struct UninstructedPruner<'a> {
    profiler: &'a LayerProfiler,
    accuracy: &'a AccuracyModel,
}

impl<'a> UninstructedPruner<'a> {
    /// Creates the baseline pruner.
    pub fn new(profiler: &'a LayerProfiler, accuracy: &'a AccuracyModel) -> Self {
        UninstructedPruner { profiler, accuracy }
    }

    /// Prunes every layer by the same channel distance (layers narrower
    /// than the distance are left unpruned), ignoring the device entirely.
    pub fn prune_by_distance(
        &self,
        backend: &dyn ConvBackend,
        network: &Network,
        distance: usize,
    ) -> PruningPlan {
        let counts = network
            .layers()
            .iter()
            .map(|l| {
                if l.c_out() > distance {
                    l.c_out() - distance
                } else {
                    l.c_out()
                }
            })
            .collect();
        self.measured_plan(backend, network, counts)
    }

    /// Prunes every layer to the same *fraction* of its channels.
    ///
    /// # Panics
    ///
    /// Panics if `keep_fraction` is not in `(0, 1]`.
    pub fn prune_to_fraction(
        &self,
        backend: &dyn ConvBackend,
        network: &Network,
        keep_fraction: f64,
    ) -> PruningPlan {
        assert!(
            keep_fraction > 0.0 && keep_fraction <= 1.0,
            "keep fraction must be in (0, 1]"
        );
        let counts = network
            .layers()
            .iter()
            .map(|l| ((l.c_out() as f64 * keep_fraction).round() as usize).max(1))
            .collect();
        self.measured_plan(backend, network, counts)
    }

    /// The measured plan keeping `counts` of `network`'s layers.
    fn measured_plan(
        &self,
        backend: &dyn ConvBackend,
        network: &Network,
        counts: Vec<usize>,
    ) -> PruningPlan {
        let (latency_ms, energy_mj) = plan_cost(self.profiler, backend, network, &counts);
        let kept = Keeps::new(Keeps::labels_of(network), counts);
        let point = ParetoPoint {
            latency_ms,
            energy_mj,
            accuracy: self.accuracy.accuracy_of(kept.iter()),
        };
        let (device, name) = (self.profiler.device().name(), network.name());
        PruningPlan::from_parts("uninstructed", backend.name(), device, name, kept, point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{self, tiny_net};
    use pruneperf_backends::{AclAuto, AclDirect, AclDirectTuned, AclGemm, Cudnn, Tvm};
    use pruneperf_gpusim::Device;
    use pruneperf_profiler::LatencyCache;
    use std::sync::Arc;

    fn setup(device: &Device) -> (LayerProfiler, AccuracyModel) {
        crate::testkit::noiseless_setup(&tiny_net(), device)
    }

    /// The §V loops as they ran before the slot-table greedy, on keep maps
    /// and cache reads: the oracle for [`SearchSpace::greedy`].
    impl PerfAwarePruner<'_> {
        fn prune_to_latency_by_map(
            &self,
            backend: &dyn ConvBackend,
            network: &Network,
            budget_fraction: f64,
        ) -> PruningPlan {
            assert!(
                budget_fraction > 0.0 && budget_fraction <= 1.0,
                "budget fraction must be in (0, 1]"
            );
            // Per-layer candidate ladders (ascending channel counts).
            let ladders: HashMap<String, Vec<(usize, f64)>> = network
                .layers()
                .iter()
                .map(|l| (l.label().to_string(), self.candidates_for(backend, l)))
                .collect();

            let mut kept: HashMap<String, usize> = network
                .layers()
                .iter()
                .map(|l| (l.label().to_string(), l.c_out()))
                .collect();
            let mut per_layer_ms: HashMap<String, f64> = network
                .layers()
                .iter()
                .map(|l| {
                    (
                        l.label().to_string(),
                        self.profiler.measure(backend, l).median_ms(),
                    )
                })
                .collect();
            // Sum and search in catalog order, not hash order: float sums are
            // order-sensitive and the greedy's `>` tie-break keeps the first
            // candidate seen, so hash-order iteration would vary across runs.
            let total0: f64 = network
                .layers()
                .iter()
                .map(|l| per_layer_ms[l.label()])
                .sum();
            let budget = total0 * budget_fraction;
            let mut total = total0;
            let mut acc = self.accuracy.accuracy_with(&kept);

            while total > budget {
                // Best next move: largest latency saved per accuracy lost.
                let mut best: Option<(String, usize, f64, f64, f64)> = None; // label, c, ms, d_lat, d_acc
                for layer in network.layers() {
                    let label = layer.label();
                    let ladder = &ladders[label];
                    let cur_c = kept[label];
                    let cur_ms = per_layer_ms[label];
                    // Next candidate strictly below the current count that saves time.
                    let next = ladder
                        .iter()
                        .rev()
                        .find(|&&(c, ms)| c < cur_c && ms < cur_ms);
                    if let Some(&(c, ms)) = next {
                        let mut trial = kept.clone();
                        trial.insert(label.to_string(), c);
                        let new_acc = self.accuracy.accuracy_with(&trial);
                        let d_lat = cur_ms - ms;
                        let d_acc = (acc - new_acc).max(1e-9);
                        let score = d_lat / d_acc;
                        if best.as_ref().is_none_or(|b| score > b.3 / b.4) {
                            best = Some((label.to_string(), c, ms, d_lat, d_acc));
                        }
                    }
                }
                let Some((label, c, ms, _, _)) = best else {
                    break; // no further beneficial moves
                };
                total -= per_layer_ms[&label] - ms;
                per_layer_ms.insert(label.clone(), ms);
                kept.insert(label.clone(), c);
                acc = self.accuracy.accuracy_with(&kept);
            }

            let counts = counts_of(network, &kept);
            let (_, energy_mj) = plan_cost(self.profiler, backend, network, &counts);
            let point = ParetoPoint {
                latency_ms: total,
                energy_mj,
                accuracy: acc,
            };
            map_plan("performance-aware", self, backend, network, counts, point)
        }

        fn prune_to_energy_by_map(
            &self,
            backend: &dyn ConvBackend,
            network: &Network,
            budget_fraction: f64,
        ) -> PruningPlan {
            assert!(
                budget_fraction > 0.0 && budget_fraction <= 1.0,
                "budget fraction must be in (0, 1]"
            );
            let ladders: HashMap<String, Vec<(usize, f64)>> = network
                .layers()
                .iter()
                .map(|l| (l.label().to_string(), self.candidates_for(backend, l)))
                .collect();
            let mut kept: HashMap<String, usize> = network
                .layers()
                .iter()
                .map(|l| (l.label().to_string(), l.c_out()))
                .collect();
            let mut per_layer_mj: HashMap<String, f64> = network
                .layers()
                .iter()
                .map(|l| (l.label().to_string(), self.profiler.energy_mj(backend, l)))
                .collect();
            // Catalog-order sum and search, as in `prune_to_latency`: hash-order
            // iteration would make the float total and greedy tie-breaks vary
            // across runs.
            let total0: f64 = network
                .layers()
                .iter()
                .map(|l| per_layer_mj[l.label()])
                .sum();
            let budget = total0 * budget_fraction;
            let mut total = total0;
            let mut acc = self.accuracy.accuracy_with(&kept);

            while total > budget {
                let mut best: Option<(String, usize, f64, f64, f64)> = None;
                for layer in network.layers() {
                    let label = layer.label();
                    let ladder = &ladders[label];
                    let cur_c = kept[label];
                    let cur_mj = per_layer_mj[label];
                    let next = ladder.iter().rev().find_map(|&(c, _)| {
                        if c >= cur_c {
                            return None;
                        }
                        // lint: allow(unwrap) — ladder counts come from 1..=c_out
                        let pruned = layer.with_c_out(c).expect("ladder in range");
                        let mj = self.profiler.energy_mj(backend, &pruned);
                        (mj < cur_mj).then_some((c, mj))
                    });
                    if let Some((c, mj)) = next {
                        let mut trial = kept.clone();
                        trial.insert(label.to_string(), c);
                        let new_acc = self.accuracy.accuracy_with(&trial);
                        let d_energy = cur_mj - mj;
                        let d_acc = (acc - new_acc).max(1e-9);
                        if best.as_ref().is_none_or(|b| d_energy / d_acc > b.3 / b.4) {
                            best = Some((label.to_string(), c, mj, d_energy, d_acc));
                        }
                    }
                }
                let Some((label, c, mj, _, _)) = best else {
                    break;
                };
                total -= per_layer_mj[&label] - mj;
                per_layer_mj.insert(label.clone(), mj);
                kept.insert(label.clone(), c);
                acc = self.accuracy.accuracy_with(&kept);
            }

            let counts = counts_of(network, &kept);
            let (latency_ms, energy_mj) = plan_cost(self.profiler, backend, network, &counts);
            let point = ParetoPoint {
                latency_ms,
                energy_mj,
                accuracy: acc,
            };
            map_plan("energy-aware", self, backend, network, counts, point)
        }
    }

    /// A keep map's counts in network order.
    fn counts_of(network: &Network, kept: &HashMap<String, usize>) -> Vec<usize> {
        network.layers().iter().map(|l| kept[l.label()]).collect()
    }

    /// The oracles' plan of `counts` at `point`.
    fn map_plan(
        policy: &str,
        pruner: &PerfAwarePruner<'_>,
        backend: &dyn ConvBackend,
        network: &Network,
        counts: Vec<usize>,
        point: ParetoPoint,
    ) -> PruningPlan {
        let kept = Keeps::new(Keeps::labels_of(network), counts);
        let device = pruner.profiler.device().name();
        PruningPlan::from_parts(policy, backend.name(), device, network.name(), kept, point)
    }

    /// Both greedies at every budget, compared bit for bit.
    fn assert_greedy_matches_map(
        pruner: &PerfAwarePruner<'_>,
        backend: &dyn ConvBackend,
        network: &Network,
        budgets: &[f64],
    ) {
        let bits =
            |p: &PruningPlan| [p.latency_ms(), p.energy_mj(), p.accuracy()].map(f64::to_bits);
        for &budget in budgets {
            for (got, want) in [
                (
                    pruner.prune_to_latency(backend, network, budget),
                    pruner.prune_to_latency_by_map(backend, network, budget),
                ),
                (
                    pruner.prune_to_energy(backend, network, budget),
                    pruner.prune_to_energy_by_map(backend, network, budget),
                ),
            ] {
                let case = format!(
                    "{} {} on {} ({}) at {budget}",
                    want.policy(),
                    network.name(),
                    want.device(),
                    want.backend()
                );
                assert_eq!(bits(&got), bits(&want), "{case}");
                assert!(got.keeps().eq(want.keeps()), "{case}");
                assert_eq!(got.policy(), want.policy(), "{case}");
            }
        }
    }

    /// Every catalog backend, in `serve`'s catalog order.
    fn all_six_backends() -> [Box<dyn ConvBackend>; 6] {
        [
            Box::new(AclGemm::new()),
            Box::new(AclDirect::new()),
            Box::new(AclDirectTuned::new()),
            Box::new(AclAuto::new()),
            Box::new(Cudnn::new()),
            Box::new(Tvm::new()),
        ]
    }

    /// Both greedies on `net` on every paper board and backend, with both
    /// profilers, five budgets and both objectives.
    fn assert_greedy_matches_map_everywhere(net: &Network) {
        let accuracy = AccuracyModel::for_network(net);
        for device in Device::all_paper_devices() {
            let cache = Arc::new(LatencyCache::new());
            for profiler in [
                LayerProfiler::noiseless(&device),
                LayerProfiler::new(&device),
            ] {
                let profiler = profiler.with_cache(Arc::clone(&cache));
                let pruner = PerfAwarePruner::new(&profiler, &accuracy);
                for backend in all_six_backends() {
                    let budgets = [0.3, 0.5, 0.7, 0.9, 1.0];
                    assert_greedy_matches_map(&pruner, backend.as_ref(), net, &budgets);
                }
            }
        }
    }

    /// The table greedy returns the keep-map loops' plans bit for bit.
    #[test]
    fn the_table_greedy_equals_the_keep_map_greedy() {
        for net in [tiny_net(), testkit::micro_net(), testkit::ragged_net()] {
            assert_greedy_matches_map_everywhere(&net);
        }
        // The wide net's 64 layers sum their loss in label order, which is
        // not network order ("W.L10" < "W.L2"); tuned ACL Direct gives them
        // ladders long enough for that to change a plan. Under a model that
        // charges no accuracy, every move costs the 1e-9 floor and the
        // identical layers tie exactly, so the first in network order must
        // win. The keep-map loop costs O(layers³) per plan, so here one
        // board and two backends stand in for the ignored test below.
        let wide = testkit::wide_net();
        let profiler = LayerProfiler::noiseless(&Device::mali_g72_hikey970())
            .with_cache(Arc::new(LatencyCache::new()));
        for accuracy in [
            AccuracyModel::for_network(&wide),
            AccuracyModel::new(&wide, 0.76, 0.0),
        ] {
            let pruner = PerfAwarePruner::new(&profiler, &accuracy);
            let backends = all_six_backends();
            for backend in [&backends[0], &backends[2]] {
                assert_greedy_matches_map(&pruner, backend.as_ref(), &wide, &[0.5, 0.9]);
            }
        }
    }

    /// The wide net on every board, backend, profiler, budget and
    /// objective: ~100 s in a debug build, ~16 s in release.
    #[test]
    #[ignore = "the keep-map oracle is slow on 64 layers; run in release with --include-ignored"]
    fn the_table_greedy_equals_the_keep_map_greedy_on_the_wide_net() {
        assert_greedy_matches_map_everywhere(&testkit::wide_net());
    }

    /// Keeps serialize as a label-sorted object, as the map they replace
    /// did, and read back in the object's order, a repeated label keeping
    /// its last count.
    #[test]
    fn keeps_keep_their_json_shape() {
        let labels: Arc<[String]> = vec!["T.L1".to_string(), "T.L0".to_string()].into();
        let keeps = Keeps::new(labels, vec![4, 8]);
        let object = |pairs: &[(&str, u64)]| {
            let fields = pairs.iter().map(|&(l, k)| (l.to_string(), Value::UInt(k)));
            Value::Object(fields.collect())
        };
        assert_eq!(keeps.to_value(), object(&[("T.L0", 8), ("T.L1", 4)]));
        let read = Keeps::from_value(&object(&[("T.L1", 4), ("T.L0", 2), ("T.L1", 6)])).unwrap();
        assert_eq!(read.iter().collect::<Vec<_>>(), [("T.L1", 6), ("T.L0", 2)]);
        assert_eq!(read.get("T.L0"), Some(2));
        assert!(Keeps::from_value(&Value::UInt(3)).is_err());
    }

    #[test]
    fn candidates_avoid_split_sizes() {
        let d = Device::mali_g72_hikey970();
        let (p, a) = setup(&d);
        let pruner = PerfAwarePruner::new(&p, &a);
        let layer = tiny_net().layer("T.L1").unwrap().clone();
        let cands = pruner.candidates_for(&AclGemm::new(), &layer);
        assert!(!cands.is_empty());
        for (c, _) in &cands {
            let c4 = c.div_ceil(4) * 4;
            assert_eq!(c4 % 8, 0, "candidate {c} lies on the slow staircase");
        }
    }

    #[test]
    fn budget_is_met_and_accuracy_traded() {
        let d = Device::mali_g72_hikey970();
        let (p, a) = setup(&d);
        let pruner = PerfAwarePruner::new(&p, &a);
        let net = tiny_net();
        let plan = pruner.prune_to_latency(&AclGemm::new(), &net, 0.7);
        let full = UninstructedPruner::new(&p, &a).prune_by_distance(&AclGemm::new(), &net, 0);
        assert!(
            plan.latency_ms() <= full.latency_ms() * 0.7 * 1.001,
            "budget missed: {} vs {}",
            plan.latency_ms(),
            full.latency_ms() * 0.7
        );
        assert!(plan.accuracy() < a.base_accuracy());
        assert!(
            plan.accuracy() > 0.5,
            "accuracy collapsed: {}",
            plan.accuracy()
        );
        assert_eq!(plan.policy(), "performance-aware");
    }

    #[test]
    fn trivial_budget_means_no_pruning() {
        let d = Device::mali_g72_hikey970();
        let (p, a) = setup(&d);
        let pruner = PerfAwarePruner::new(&p, &a);
        let plan = pruner.prune_to_latency(&AclGemm::new(), &tiny_net(), 1.0);
        for l in tiny_net().layers() {
            assert_eq!(plan.kept_for(l.label()), Some(l.c_out()));
        }
        assert!((plan.accuracy() - a.base_accuracy()).abs() < 1e-12);
    }

    /// The paper's core claim: uninstructed pruning can be *slower* than
    /// the unpruned network, while the performance-aware plan at equal or
    /// better accuracy is faster.
    #[test]
    fn uninstructed_can_backfire_perf_aware_does_not() {
        let d = Device::mali_g72_hikey970();
        let (p, a) = setup(&d);
        let backend = AclDirect::new();
        let net = tiny_net();
        let uninstructed = UninstructedPruner::new(&p, &a);
        let t_full = uninstructed
            .prune_by_distance(&backend, &net, 0)
            .latency_ms();
        // Pruning one channel everywhere: odd counts, slow level.
        let bad = uninstructed.prune_by_distance(&backend, &net, 1);
        assert!(
            bad.latency_ms() > t_full,
            "uninstructed prune-by-1 should backfire: {} vs {}",
            bad.latency_ms(),
            t_full
        );
        // The perf-aware pruner never selects a plan slower than unpruned.
        let pruner = PerfAwarePruner::new(&p, &a);
        let good = pruner.prune_to_latency(&backend, &net, 0.9);
        assert!(good.latency_ms() <= t_full);
    }

    #[test]
    fn pareto_plans_are_a_front() {
        let d = Device::mali_g72_hikey970();
        let (p, a) = setup(&d);
        let pruner = PerfAwarePruner::new(&p, &a);
        let plans = pruner.pareto_plans(&AclGemm::new(), &tiny_net(), &[1.0, 0.8, 0.6, 0.4]);
        assert!(!plans.is_empty());
        // Front sorted by latency, accuracy increasing with latency.
        for w in plans.windows(2) {
            assert!(w[0].latency_ms() <= w[1].latency_ms());
            assert!(w[0].accuracy() <= w[1].accuracy() + 1e-12);
        }
    }

    #[test]
    fn uninstructed_fraction_keeps_at_least_one_channel() {
        let d = Device::mali_g72_hikey970();
        let (p, a) = setup(&d);
        let u = UninstructedPruner::new(&p, &a);
        let plan = u.prune_to_fraction(&AclGemm::new(), &tiny_net(), 0.01);
        for (_, c) in plan.keeps() {
            assert!(c >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "budget fraction")]
    fn zero_budget_rejected() {
        let d = Device::mali_g72_hikey970();
        let (p, a) = setup(&d);
        let _ = PerfAwarePruner::new(&p, &a).prune_to_latency(&AclGemm::new(), &tiny_net(), 0.0);
    }

    #[test]
    fn plans_carry_energy() {
        let d = Device::mali_g72_hikey970();
        let (p, a) = setup(&d);
        let full =
            UninstructedPruner::new(&p, &a).prune_by_distance(&AclGemm::new(), &tiny_net(), 0);
        assert!(full.energy_mj() > 0.0);
        let pruned =
            PerfAwarePruner::new(&p, &a).prune_to_latency(&AclGemm::new(), &tiny_net(), 0.7);
        assert!(
            pruned.energy_mj() < full.energy_mj(),
            "pruning should save energy: {} vs {}",
            pruned.energy_mj(),
            full.energy_mj()
        );
    }

    #[test]
    fn energy_budget_is_met() {
        let d = Device::mali_g72_hikey970();
        let (p, a) = setup(&d);
        let pruner = PerfAwarePruner::new(&p, &a);
        let backend = AclGemm::new();
        let full = UninstructedPruner::new(&p, &a).prune_by_distance(&backend, &tiny_net(), 0);
        let plan = pruner.prune_to_energy(&backend, &tiny_net(), 0.7);
        assert_eq!(plan.policy(), "energy-aware");
        assert!(
            plan.energy_mj() <= full.energy_mj() * 0.7 * 1.001,
            "energy budget missed: {} vs {}",
            plan.energy_mj(),
            full.energy_mj() * 0.7
        );
        assert!(plan.accuracy() > 0.5);
    }

    #[test]
    fn energy_and_latency_objectives_agree_directionally() {
        // Both objectives should prune *something* under a 0.8 budget, and
        // both plans should be cheaper than unpruned on both axes.
        let d = Device::mali_g72_hikey970();
        let (p, a) = setup(&d);
        let pruner = PerfAwarePruner::new(&p, &a);
        let backend = AclGemm::new();
        let full = UninstructedPruner::new(&p, &a).prune_by_distance(&backend, &tiny_net(), 0);
        for plan in [
            pruner.prune_to_latency(&backend, &tiny_net(), 0.8),
            pruner.prune_to_energy(&backend, &tiny_net(), 0.8),
        ] {
            assert!(plan.latency_ms() < full.latency_ms(), "{}", plan.policy());
            assert!(plan.energy_mj() < full.energy_mj(), "{}", plan.policy());
        }
    }

    #[test]
    fn display_mentions_policy() {
        let d = Device::mali_g72_hikey970();
        let (p, a) = setup(&d);
        let plan =
            UninstructedPruner::new(&p, &a).prune_by_distance(&AclGemm::new(), &tiny_net(), 0);
        assert!(plan.to_string().contains("uninstructed"));
    }
}
