//! A deterministic accuracy surrogate for the pruning loop.
//!
//! The paper prunes *without* retraining and notes that the latency effect
//! is identical either way (§II-B); accuracy enters only in the proposed
//! selection loop (§V), where profiled latency is coupled “with
//! convolutional inference accuracy of pruned layers to instruct the best
//! pruning level”. Reproducing an ImageNet training loop is out of scope
//! (see `DESIGN.md` §2), so this module supplies the accuracy *shape* that
//! loop needs: monotone in retained channels, saturating (late channels
//! matter less), heterogeneous across layers, and deterministic.
//!
//! The model: each layer's channels carry importances sampled from a seeded
//! lognormal-like distribution (derived from the synthetic weights' L1
//! norms, mirroring magnitude-based pruning criteria; the norms are
//! streamed from the weight generator, so no weight tensor is ever
//! built here). Pruning removes the
//! *least* important channels first — the §II-B observation that latency
//! does not care which channel is removed means the latency side stays
//! sequential while accuracy assumes an ideal selection. Network accuracy
//! drops from its base by a weighted sum of the pruned importance mass.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use pruneperf_models::{weights, Network};

/// Accuracy surrogate for one network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracyModel {
    base_accuracy: f64,
    /// Per-layer, per-channel importance fractions, sorted ascending;
    /// prefix sums for O(1) pruned-mass queries.
    layer_prefix_mass: HashMap<String, Vec<f64>>,
    /// Per-layer weight of its importance mass in the network accuracy.
    layer_weight: HashMap<String, f64>,
    /// Accuracy lost if an entire *average* layer were removed.
    sensitivity: f64,
}

impl AccuracyModel {
    /// Builds the surrogate for a network.
    ///
    /// `base_accuracy` is the unpruned top-1 accuracy (e.g. 0.76 for
    /// ResNet-50); `sensitivity` scales how much accuracy a fully pruned
    /// layer would cost (default via [`AccuracyModel::for_network`]: 0.30).
    pub fn new(network: &Network, base_accuracy: f64, sensitivity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&base_accuracy),
            "base accuracy must be a fraction"
        );
        let mut layer_prefix_mass = HashMap::with_capacity(network.len());
        let mut layer_weight = HashMap::with_capacity(network.len());
        let total_macs = network.total_macs() as f64;
        for layer in network.layers() {
            let mut norms: Vec<f64> = weights::channel_l1_norms(layer)
                .into_iter()
                .map(f64::from)
                .collect();
            norms.sort_by(f64::total_cmp);
            let total: f64 = norms.iter().sum();
            let mut acc = 0.0;
            let prefix: Vec<f64> = norms
                .iter()
                .map(|n| {
                    acc += n / total;
                    acc
                })
                .collect();
            layer_prefix_mass.insert(layer.label().to_string(), prefix);
            // Layers doing more work carry more representational weight.
            layer_weight.insert(layer.label().to_string(), layer.macs() as f64 / total_macs);
        }
        AccuracyModel {
            base_accuracy,
            layer_prefix_mass,
            layer_weight,
            sensitivity,
        }
    }

    /// Defaults mirroring an ImageNet-class model: base 0.76, a fully
    /// pruned average layer costs ~0.30 of absolute accuracy.
    pub fn for_network(network: &Network) -> Self {
        Self::new(network, 0.76, 0.30)
    }

    /// Unpruned accuracy.
    pub fn base_accuracy(&self) -> f64 {
        self.base_accuracy
    }

    /// Importance mass lost when `layer` keeps only `kept` of its original
    /// channels (least-important-first removal). Returns `None` for unknown
    /// layers or invalid counts.
    pub fn pruned_mass(&self, label: &str, kept: usize) -> Option<f64> {
        let prefix = self.layer_prefix_mass.get(label)?;
        let original = prefix.len();
        if kept == 0 || kept > original {
            return None;
        }
        let removed = original - kept;
        Some(if removed == 0 {
            0.0
        } else {
            prefix[removed - 1]
        })
    }

    /// Accuracy lost when `layer` keeps `kept` of its original channels:
    /// the per-layer term [`AccuracyModel::accuracy_with`] sums. Returns
    /// `None` for unknown layers or invalid counts.
    pub fn loss_term(&self, label: &str, kept: usize) -> Option<f64> {
        let mass = self.pruned_mass(label, kept)?;
        let weight = self.layer_weight.get(label)?;
        // Convex loss: the least-important channels cost little, the
        // last ones a lot (mass is the fraction of importance removed).
        Some(self.sensitivity * weight * mass.powf(1.6))
    }

    /// Estimated accuracy when each layer keeps the given channel count.
    ///
    /// Layers absent from the map are treated as unpruned.
    ///
    /// # Panics
    ///
    /// Panics if a label is unknown or a count is invalid — the pruner
    /// constructs these maps from the same catalog, so mismatches are bugs.
    #[expect(
        clippy::disallowed_methods,
        reason = "accuracy_of sorts the pairs by label before summing"
    )]
    pub fn accuracy_with(&self, kept_channels: &HashMap<String, usize>) -> f64 {
        self.accuracy_of(kept_channels.iter().map(|(l, &k)| (l.as_str(), k)))
    }

    /// [`AccuracyModel::accuracy_with`] over `(label, kept)` pairs given
    /// in any order.
    ///
    /// # Panics
    ///
    /// As [`AccuracyModel::accuracy_with`].
    pub fn accuracy_of<'a>(&self, kept: impl IntoIterator<Item = (&'a str, usize)>) -> f64 {
        // Accumulate in label order: float sums are order-sensitive, and
        // hash-order iteration would vary the result across processes.
        let mut entries: Vec<(&str, usize)> = kept.into_iter().collect();
        entries.sort();
        let mut loss = 0.0;
        #[expect(
            clippy::panic,
            reason = "documented # Panics contract: the pruner builds these maps from the same catalog"
        )]
        for (label, kept) in entries {
            loss += self
                .loss_term(label, kept)
                .unwrap_or_else(|| panic!("invalid pruning config for {label}: keep {kept}"));
        }
        (self.base_accuracy - loss).max(0.0)
    }

    /// Convenience for a single-layer what-if.
    pub fn accuracy_with_layer(&self, label: &str, kept: usize) -> f64 {
        let mut m = HashMap::new();
        m.insert(label.to_string(), kept);
        self.accuracy_with(&m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruneperf_models::resnet50;

    fn model() -> AccuracyModel {
        AccuracyModel::for_network(&resnet50())
    }

    #[test]
    fn unpruned_network_keeps_base_accuracy() {
        let m = model();
        let full: HashMap<String, usize> = resnet50()
            .layers()
            .iter()
            .map(|l| (l.label().to_string(), l.c_out()))
            .collect();
        assert!((m.accuracy_with(&full) - 0.76).abs() < 1e-12);
    }

    #[test]
    fn accuracy_is_monotone_in_kept_channels() {
        let m = model();
        let mut prev = -1.0;
        for kept in (16..=128).step_by(16) {
            let acc = m.accuracy_with_layer("ResNet.L16", kept);
            assert!(acc >= prev, "kept {kept}: {acc} < {prev}");
            prev = acc;
        }
    }

    #[test]
    fn pruning_is_saturating() {
        // Removing the first 32 channels costs less than the next 32.
        let m = model();
        let a_full = m.accuracy_with_layer("ResNet.L16", 128);
        let a_96 = m.accuracy_with_layer("ResNet.L16", 96);
        let a_64 = m.accuracy_with_layer("ResNet.L16", 64);
        let first = a_full - a_96;
        let second = a_96 - a_64;
        assert!(second > first, "first {first}, second {second}");
    }

    #[test]
    fn heavier_layers_cost_more() {
        let m = model();
        // Prune both layers to half; the heavier (more MACs) one hurts more.
        let net = resnet50();
        let l2 = net.layer("ResNet.L2").unwrap(); // 3x3 @56: heavy
        let l47 = net.layer("ResNet.L47").unwrap(); // 1x1 @7: light
        let d2 = 0.76 - m.accuracy_with_layer(l2.label(), l2.c_out() / 2);
        let d47 = 0.76 - m.accuracy_with_layer(l47.label(), l47.c_out() / 2);
        assert!(d2 > d47, "L2 loss {d2} vs L47 loss {d47}");
    }

    #[test]
    fn pruned_mass_bounds() {
        let m = model();
        assert_eq!(m.pruned_mass("ResNet.L16", 128), Some(0.0));
        let all_but_one = m.pruned_mass("ResNet.L16", 1).unwrap();
        assert!(all_but_one > 0.9 && all_but_one <= 1.0);
        assert_eq!(m.pruned_mass("ResNet.L16", 0), None);
        assert_eq!(m.pruned_mass("ResNet.L16", 129), None);
        assert_eq!(m.pruned_mass("Nope", 1), None);
    }

    #[test]
    fn deterministic() {
        let a = model();
        let b = model();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "invalid pruning config")]
    fn invalid_map_panics() {
        let m = model();
        let mut bad = HashMap::new();
        bad.insert("ResNet.L16".to_string(), 0usize);
        let _ = m.accuracy_with(&bad);
    }
}
