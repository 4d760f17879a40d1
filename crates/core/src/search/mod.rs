//! Whole-network pruning-plan search.
//!
//! The §V loop ([`crate::PerfAwarePruner`]) trades one layer at a time
//! against a single budget. This module searches the *joint* space of
//! per-layer kept-channel configurations instead, with three solvers that
//! share one candidate space and one scorer:
//!
//! - [`exhaustive_prune_to_latency`] — exact enumeration for small
//!   networks (ground truth for the others);
//! - [`search`] with [`SearchAlgo::Beam`] — seeded beam search expanding
//!   one ladder step per round;
//! - [`search`] with [`SearchAlgo::Evolve`] — seeded (μ+λ) evolutionary
//!   search with pure-hash mutation.
//!
//! All of them walk [`SearchSpace`] ladders (each layer's staircase
//! optimal points plus the unpruned count). Building the space measures
//! every ladder slot once through the shared [`LayerProfiler`] cache and
//! tabulates its latency, energy and accuracy-loss term, so scoring a
//! genome ([`SearchSpace::score`]) is three table sums: no cache reads,
//! no engine runs and no fan-out. The §V greedy
//! ([`SearchSpace::greedy`], which [`PerfAwarePruner`] runs) walks the
//! same table. Every random-looking choice —
//! tie-breaking, parent selection, mutation — is a splitmix64 hash of
//! `(seed, position)` with no RNG state and no clocks, so results are a
//! pure function of `(inputs, seed)` at any `--jobs` count.

mod archive;
mod engine;
mod exhaustive;

pub use archive::{ParetoArchive, ParetoPoint};
pub use engine::{search, SearchAlgo, SearchConfig, SearchOutcome};
pub use exhaustive::{exhaustive_prune_to_latency, ExactPlan};

use std::sync::Arc;

use pruneperf_backends::ConvBackend;
use pruneperf_models::{ConvLayerSpec, Network};
use pruneperf_profiler::LayerProfiler;

use crate::accuracy::AccuracyModel;
use crate::{Keeps, PerfAwarePruner};

/// What the §V greedy ([`SearchSpace::greedy`]) trades accuracy for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// The summed per-layer median latency.
    Latency,
    /// The summed per-layer modelled energy.
    Energy,
}

impl Objective {
    /// The wire and CLI name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Objective::Latency => "latency",
            Objective::Energy => "energy",
        }
    }
}

/// One ladder slot's share of each objective.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SlotScore {
    latency_ms: f64,
    energy_mj: f64,
    loss: f64,
}

/// The joint candidate space: one ladder of `(kept_channels, latency_ms)`
/// pairs per layer, in catalog (network) order.
///
/// Each ladder is the layer's staircase optimal points (ascending kept
/// count) with the unpruned channel count appended when the staircase did
/// not already surface it. A *genome* is one ladder index per layer; the
/// unpruned network is [`SearchSpace::full_genome`].
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    /// Layer labels in network order, shared by every plan of the space.
    labels: Arc<[String]>,
    ladders: Vec<Vec<(usize, f64)>>,
    /// Per layer and ladder slot: the measured median, the energy and
    /// the accuracy-loss term.
    scores: Vec<Vec<SlotScore>>,
    /// Layer indices in label order, the order
    /// [`AccuracyModel::accuracy_with`] sums the loss in.
    label_order: Vec<usize>,
    base_accuracy: f64,
}

impl SearchSpace {
    /// Builds the ladders for `network` under `backend`, and the table
    /// [`SearchSpace::score`] reads.
    ///
    /// # Panics
    ///
    /// Panics if `accuracy` does not cover every layer of `network`.
    pub fn build_for(
        profiler: &LayerProfiler,
        accuracy: &AccuracyModel,
        backend: &dyn ConvBackend,
        network: &Network,
    ) -> SearchSpace {
        let pruner = PerfAwarePruner::new(profiler, accuracy);
        let mut ladders: Vec<Vec<(usize, f64)>> = Vec::new();
        let mut scores: Vec<Vec<SlotScore>> = Vec::new();
        for layer in network.layers() {
            let mut cands = pruner.candidates_for(backend, layer);
            let full_ms = profiler.measure(backend, layer).median_ms();
            if !cands.iter().any(|&(c, _)| c == layer.c_out()) {
                cands.push((layer.c_out(), full_ms));
            }
            // Every key below was measured by the staircase sweep above,
            // so the table costs cache hits only.
            let specs: Vec<ConvLayerSpec> = cands
                .iter()
                // lint: allow(unwrap) — ladder entries come from the layer's own staircase
                .map(|&(kept, _)| layer.with_c_out(kept).expect("ladder count validated"))
                .collect();
            let slots = profiler
                .measure_batch(backend, &specs)
                .iter()
                .zip(&specs)
                .map(|(m, spec)| SlotScore {
                    latency_ms: m.median_ms(),
                    energy_mj: profiler.energy_mj(backend, spec),
                    loss: accuracy
                        .loss_term(layer.label(), spec.c_out())
                        // lint: allow(unwrap) — documented # Panics contract
                        .expect("accuracy model covers the network"),
                })
                .collect();
            ladders.push(cands);
            scores.push(slots);
        }
        let labels = Keeps::labels_of(network);
        let mut label_order: Vec<usize> = (0..labels.len()).collect();
        label_order.sort_by(|&a, &b| labels[a].cmp(&labels[b]));
        SearchSpace {
            labels,
            ladders,
            scores,
            label_order,
            base_accuracy: accuracy.base_accuracy(),
        }
    }

    /// Number of layers (genome length).
    pub fn num_layers(&self) -> usize {
        self.ladders.len()
    }

    /// The candidate ladder for layer `i`, ascending in kept channels.
    pub fn ladder(&self, i: usize) -> &[(usize, f64)] {
        &self.ladders[i]
    }

    /// The label of layer `i`.
    pub fn label_of(&self, i: usize) -> &str {
        &self.labels[i]
    }

    /// Size of the full cross product, modulo 2^64. ResNet-50's ladders
    /// multiply past `u64::MAX`, and the search report pins the wrapped
    /// value; the enumeration caps check the exact product instead.
    pub fn total_configs(&self) -> usize {
        self.ladders
            .iter()
            .fold(1, |total: usize, c| total.wrapping_mul(c.len()))
    }

    /// The exact size of the cross product, refusing it unless it is at
    /// most `cap`. The product is checked, so a space past `usize::MAX`
    /// is refused rather than wrapped under the cap.
    ///
    /// # Panics
    ///
    /// Panics if the space exceeds `cap`; `what` names the cap.
    fn configs_within(&self, cap: usize, what: &str) -> usize {
        let total = self
            .ladders
            .iter()
            .try_fold(1, |total: usize, c| total.checked_mul(c.len()));
        match total {
            Some(total) if total <= cap => total,
            // lint: allow(panic) — documented # Panics contract
            Some(total) => panic!("{total} configurations exceed the {what} cap {cap}"),
            // lint: allow(panic) — documented # Panics contract
            None => panic!("more than 2^64 configurations exceed the {what} cap {cap}"),
        }
    }

    /// The genome selecting every layer's unpruned point.
    pub fn full_genome(&self) -> Vec<usize> {
        self.ladders.iter().map(|c| c.len() - 1).collect()
    }

    /// The kept-channel counts a genome selects, in network order, written
    /// over the genome's own storage.
    ///
    /// # Panics
    ///
    /// Panics if the genome length or any index is out of range.
    pub fn kept_counts(&self, mut genome: Vec<usize>) -> Vec<usize> {
        assert_eq!(genome.len(), self.ladders.len(), "genome length mismatch");
        for (slot, ladder) in genome.iter_mut().zip(&self.ladders) {
            *slot = ladder[*slot].0;
        }
        genome
    }

    /// A genome's counts over the space's shared label table.
    pub(crate) fn keeps(&self, genome: Vec<usize>) -> Keeps {
        Keeps::new(Arc::clone(&self.labels), self.kept_counts(genome))
    }

    /// Scores a genome from the slot table. Latency and energy are summed
    /// in network order, as `measure_batch` over the plan's layers would
    /// be, and the accuracy loss in label order, as
    /// [`AccuracyModel::accuracy_with`] sums it, so every objective is
    /// bitwise equal to re-measuring the plan (DESIGN §15.6).
    ///
    /// # Panics
    ///
    /// Panics if the genome length or any index is out of range.
    pub fn score(&self, genome: &[usize]) -> ParetoPoint {
        assert_eq!(genome.len(), self.scores.len(), "genome length mismatch");
        let slot = |i: usize| &self.scores[i][genome[i]];
        let latency_ms: f64 = (0..genome.len()).map(|i| slot(i).latency_ms).sum();
        let energy_mj: f64 = (0..genome.len()).map(|i| slot(i).energy_mj).sum();
        ParetoPoint {
            latency_ms,
            energy_mj,
            accuracy: self.accuracy(genome),
        }
    }

    /// A genome's accuracy: the loss summed in label order, as
    /// [`AccuracyModel::accuracy_with`] sums it.
    fn accuracy(&self, genome: &[usize]) -> f64 {
        let loss = self
            .label_order
            .iter()
            .fold(0.0, |loss, &i| loss + self.scores[i][genome[i]].loss);
        (self.base_accuracy - loss).max(0.0)
    }

    /// The paper's §V greedy on the slot table. From the unpruned
    /// genome, it moves one layer per step to the highest lower slot that
    /// is strictly cheaper in `objective`, choosing the move that saves
    /// the most per unit of accuracy lost, until the running total is at
    /// most `budget_fraction` of the unpruned one or no layer can move.
    ///
    /// Returns the genome and its point. A latency plan reports the
    /// running total as its latency; everything else is summed as
    /// [`SearchSpace::score`] sums it. Layers are scanned in network
    /// order and a later one wins only with a strictly better ratio.
    /// Served and recorded plans depend on these float and tie rules
    /// bit for bit (DESIGN §15.4).
    ///
    /// # Panics
    ///
    /// Panics if `budget_fraction` is not in `(0, 1]`.
    pub fn greedy(&self, objective: Objective, budget_fraction: f64) -> (Vec<usize>, ParetoPoint) {
        assert!(
            budget_fraction > 0.0 && budget_fraction <= 1.0,
            "budget fraction must be in (0, 1]"
        );
        let cost = |layer: usize, slot: usize| {
            let score = &self.scores[layer][slot];
            match objective {
                Objective::Latency => score.latency_ms,
                Objective::Energy => score.energy_mj,
            }
        };
        let mut genome = self.full_genome();
        let mut total: f64 = genome.iter().enumerate().map(|(l, &s)| cost(l, s)).sum();
        let budget = total * budget_fraction;
        let mut accuracy = self.accuracy(&genome);
        while total > budget {
            // (layer, slot, saved, accuracy lost) of the best move so far.
            let mut best: Option<(usize, usize, f64, f64)> = None;
            for layer in 0..genome.len() {
                let current = genome[layer];
                let from = cost(layer, current);
                let Some(to) = (0..current).rev().find(|&s| cost(layer, s) < from) else {
                    continue;
                };
                genome[layer] = to;
                let lost = (accuracy - self.accuracy(&genome)).max(1e-9);
                genome[layer] = current;
                let saved = from - cost(layer, to);
                if best.is_none_or(|(_, _, s, l)| saved / lost > s / l) {
                    best = Some((layer, to, saved, lost));
                }
            }
            let Some((layer, to, saved, _)) = best else {
                break; // no layer can get cheaper
            };
            genome[layer] = to;
            total -= saved;
            accuracy = self.accuracy(&genome);
        }
        let mut point = self.score(&genome);
        if objective == Objective::Latency {
            point.latency_ms = total;
        }
        (genome, point)
    }

    /// Every genome in the cross product, odometer order.
    ///
    /// # Panics
    ///
    /// Panics if the space exceeds `max_configs` — enumeration is for
    /// small differential-test fixtures only.
    pub fn enumerate_within(&self, max_configs: usize) -> Vec<Vec<usize>> {
        let total = self.configs_within(max_configs, "enumeration");
        // Configuration n's slots are its mixed-radix digits, layer 0 the
        // least significant.
        (0..total)
            .map(|mut n| {
                let slots = self.ladders.iter().map(|ladder| {
                    let slot = n % ladder.len();
                    n /= ladder.len();
                    slot
                });
                slots.collect()
            })
            .collect()
    }
}

/// The splitmix64 finalizer: a bijective avalanche mix. All search
/// tie-breaking and mutation decisions hash `(seed, position)` through
/// this, so there is no RNG state to share and no iteration-order
/// dependence.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Folds a sequence of words into one hash via repeated splitmix rounds.
pub(crate) fn mix(parts: &[u64]) -> u64 {
    parts
        .iter()
        .fold(0x9e37_79b9_7f4a_7c15u64, |h, &p| splitmix64(h ^ p))
}

/// Hash of a genome for tie-breaking, keyed by the search seed.
pub(crate) fn genome_hash(seed: u64, genome: &[usize]) -> u64 {
    genome
        .iter()
        .fold(splitmix64(seed), |h, &g| splitmix64(h ^ g as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use pruneperf_backends::AclGemm;
    use pruneperf_gpusim::Device;

    #[test]
    fn space_matches_network_shape_and_enumerates_fully() {
        let net = testkit::tiny_net();
        let d = Device::mali_g72_hikey970();
        let (p, a) = testkit::noiseless_setup(&net, &d);
        let space = SearchSpace::build_for(&p, &a, &AclGemm::new(), &net);
        assert_eq!(space.num_layers(), net.len());
        let all = space.enumerate_within(100_000);
        assert_eq!(all.len(), space.total_configs());
        assert_eq!(all.last().unwrap(), &space.full_genome());
    }

    /// `score` reads tables; re-measuring every layer of the plan through
    /// the profiler and re-deriving the accuracy from its kept map must
    /// give the same bits, noisy medians included. Summing the ladders'
    /// staircase latencies must give the same bits too.
    #[test]
    fn score_matches_a_remeasurement_bitwise() {
        let backend = AclGemm::new();
        let nets = [
            testkit::tiny_net(),
            testkit::micro_net(),
            testkit::ragged_net(),
        ];
        for (d, net) in Device::all_paper_devices()
            .iter()
            .flat_map(|d| nets.iter().map(move |n| (d, n)))
        {
            let a = AccuracyModel::for_network(net);
            for p in [LayerProfiler::noiseless(d), LayerProfiler::new(d)] {
                let space = SearchSpace::build_for(&p, &a, &backend, net);
                for genome in space.enumerate_within(100_000) {
                    let kept = space.keeps(genome.clone());
                    let specs: Vec<ConvLayerSpec> = net
                        .layers()
                        .iter()
                        .zip(kept.iter())
                        .map(|(l, (_, c))| l.with_c_out(c).unwrap())
                        .collect();
                    let latency_ms: f64 = p
                        .measure_batch(&backend, &specs)
                        .iter()
                        .map(|m| m.median_ms())
                        .sum();
                    let energy_mj: f64 = specs.iter().map(|s| p.energy_mj(&backend, s)).sum();
                    let ladder_ms: f64 = (0..genome.len())
                        .map(|i| space.ladder(i)[genome[i]].1)
                        .sum();
                    let got = space.score(&genome);
                    assert_eq!(got.latency_ms.to_bits(), latency_ms.to_bits());
                    assert_eq!(got.latency_ms.to_bits(), ladder_ms.to_bits());
                    assert_eq!(got.energy_mj.to_bits(), energy_mj.to_bits());
                    assert_eq!(got.accuracy.to_bits(), a.accuracy_of(kept.iter()).to_bits());
                }
            }
        }
    }

    /// 64 two-slot ladders make 2^64 configurations, which a wrapping
    /// product reports as 0: the cap guard must see the overflow.
    #[test]
    #[should_panic(expected = "more than 2^64 configurations exceed the enumeration cap")]
    fn enumeration_refuses_a_space_past_u64_max() {
        let net = testkit::wide_net();
        let (p, a) = testkit::noiseless_setup(&net, &Device::mali_g72_hikey970());
        let space = SearchSpace::build_for(&p, &a, &AclGemm::new(), &net);
        assert!((0..space.num_layers()).all(|i| space.ladder(i).len() == 2));
        assert_eq!(space.total_configs(), 0, "2^64 modulo 2^64");
        let _ = space.enumerate_within(1_000_000);
    }

    /// ResNet-50's product passes `u64::MAX`; the reported count is the
    /// wrapped value the search report pins, in debug builds too.
    #[test]
    fn resnet50_total_configs_wraps_without_panicking() {
        let net = pruneperf_models::resnet50();
        let (p, a) = testkit::noiseless_setup(&net, &Device::mali_g72_hikey970());
        let space = SearchSpace::build_for(&p, &a, &AclGemm::new(), &net);
        assert_eq!(space.total_configs(), 9_767_793_913_678_004_224);
    }

    #[test]
    fn splitmix_is_stable() {
        // Pin a few values so the tie-break function can never drift
        // silently (goldens depend on it transitively).
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
        assert_ne!(mix(&[1, 2]), mix(&[2, 1]));
    }
}
