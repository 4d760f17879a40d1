use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ConvLayerSpec;

/// A named collection of *unique* convolutional layer shapes.
///
/// Matches the paper's methodology: repeated shapes are profiled once, and
/// layers keep their original indices (hence the gaps in the label
/// sequence).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Network {
    name: String,
    layers: Vec<ConvLayerSpec>,
}

impl Network {
    /// Creates a network from its unique conv layers.
    ///
    /// # Panics
    ///
    /// Panics if two layers share a label — catalogs are static data and a
    /// duplicate label is a programming error.
    pub fn new(name: impl Into<String>, layers: Vec<ConvLayerSpec>) -> Self {
        let name = name.into();
        for (i, a) in layers.iter().enumerate() {
            // lint: allow(index) — i + 1 <= len because i comes from enumerate()
            for b in &layers[i + 1..] {
                // lint: allow(panic) — documented # Panics contract: catalogs are static data
                assert_ne!(a.label(), b.label(), "duplicate layer label in {name}");
            }
        }
        Network { name, layers }
    }

    /// Network name (`"ResNet-50"`, `"VGG-16"`, `"AlexNet"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The unique conv layers in network order.
    pub fn layers(&self) -> &[ConvLayerSpec] {
        &self.layers
    }

    /// Looks up a layer by its paper label.
    pub fn layer(&self, label: &str) -> Option<&ConvLayerSpec> {
        self.layers.iter().find(|l| l.label() == label)
    }

    /// Number of unique conv layers.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Total multiply–accumulates across the unique layers.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(ConvLayerSpec::macs).sum()
    }

    /// The coupling rule of a *sequential* network (VGG, AlexNet,
    /// MobileNetV1 — every layer feeds the next) deployed with per-layer
    /// kept channel counts in network order: each layer's `(c_in, c_out)`.
    /// Layer *i*'s output count becomes layer *i+1*'s input count, and a
    /// depthwise layer follows its input whatever its own count says.
    ///
    /// This models what deploying a pruned network actually does — the
    /// paper profiles layers in isolation (output channels only), which
    /// understates whole-network gains because shrinking one layer also
    /// shrinks its successor's `K` dimension.
    ///
    /// # Panics
    ///
    /// Panics unless `counts` has one entry per layer.
    pub fn coupled_channels<'a>(
        &'a self,
        counts: &'a [usize],
    ) -> impl Iterator<Item = (usize, usize)> + 'a {
        // lint: allow(panic) — documented # Panics contract
        assert_eq!(counts.len(), self.layers.len(), "one keep count per layer");
        self.layers
            .iter()
            .zip(counts)
            .scan(None, |prev_out: &mut Option<usize>, (layer, &kept)| {
                let c_in = prev_out.unwrap_or_else(|| layer.c_in());
                let c_out = if layer.is_depthwise() { c_in } else { kept };
                *prev_out = Some(c_out);
                Some((c_in, c_out))
            })
    }

    /// Rebuilds the network as deployed with per-layer kept channel counts
    /// in network order, coupled by [`Network::coupled_channels`].
    ///
    /// # Panics
    ///
    /// Panics unless `counts` has one entry per layer, or if a dense
    /// layer keeps 0 channels.
    pub fn sequential_with_counts(&self, counts: &[usize]) -> Network {
        let layers = self
            .layers
            .iter()
            .zip(self.coupled_channels(counts))
            .map(|(layer, (c_in, c_out))| {
                let groups = if layer.is_depthwise() {
                    c_in
                } else {
                    layer.groups()
                };
                ConvLayerSpec::new_grouped(
                    layer.label(),
                    layer.kernel(),
                    layer.stride(),
                    layer.pad(),
                    c_in,
                    c_out,
                    layer.h_in(),
                    layer.w_in(),
                    groups,
                )
            })
            .collect();
        Network {
            name: format!("{} (coupled prune)", self.name),
            layers,
        }
    }

    /// [`Network::sequential_with_counts`] with the counts given per
    /// label; layers absent from the map keep their original count.
    pub fn sequential_with_kept(&self, kept: impl Borrow<HashMap<String, usize>>) -> Network {
        let kept = kept.borrow();
        let counts: Vec<usize> = self
            .layers
            .iter()
            .map(|l| kept.get(l.label()).copied().unwrap_or_else(|| l.c_out()))
            .collect();
        self.sequential_with_counts(&counts)
    }

    /// A copy of the network with every layer pruned by `distance` channels
    /// (layers with fewer channels than the distance are left unpruned, as
    /// in the paper's heatmaps where such cells are absent).
    pub fn pruned_by(&self, distance: usize) -> Network {
        let layers = self
            .layers
            .iter()
            .map(|l| l.pruned_by(distance).unwrap_or_else(|_| l.clone()))
            .collect();
        Network {
            name: format!("{} (prune={distance})", self.name),
            layers,
        }
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} unique conv layers)",
            self.name,
            self.layers.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Network {
        Network::new(
            "Tiny",
            vec![
                ConvLayerSpec::new("T.L0", 3, 1, 1, 3, 8, 8, 8),
                ConvLayerSpec::new("T.L1", 1, 1, 0, 8, 16, 8, 8),
            ],
        )
    }

    #[test]
    fn lookup_by_label() {
        let n = tiny();
        assert_eq!(n.layer("T.L1").unwrap().c_out(), 16);
        assert!(n.layer("T.L9").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate layer label")]
    fn duplicate_labels_rejected() {
        let l = ConvLayerSpec::new("X", 1, 1, 0, 1, 1, 1, 1);
        let _ = Network::new("bad", vec![l.clone(), l]);
    }

    #[test]
    fn total_macs_is_sum() {
        let n = tiny();
        assert_eq!(n.total_macs(), n.layers()[0].macs() + n.layers()[1].macs());
    }

    #[test]
    fn pruned_by_keeps_small_layers() {
        let n = tiny().pruned_by(10);
        // T.L0 has 8 channels: distance 10 would empty it, left unpruned.
        assert_eq!(n.layer("T.L0").unwrap().c_out(), 8);
        assert_eq!(n.layer("T.L1").unwrap().c_out(), 6);
    }

    #[test]
    fn display_mentions_layer_count() {
        assert_eq!(tiny().to_string(), "Tiny (2 unique conv layers)");
    }

    #[test]
    fn sequential_propagation_updates_inputs() {
        let net = tiny();
        let mut kept = HashMap::new();
        kept.insert("T.L0".to_string(), 4usize);
        let coupled = net.sequential_with_kept(&kept);
        assert_eq!(coupled.layer("T.L0").unwrap().c_out(), 4);
        // T.L1's input follows T.L0's output.
        assert_eq!(coupled.layer("T.L1").unwrap().c_in(), 4);
        assert_eq!(coupled.layer("T.L1").unwrap().c_out(), 16);
    }

    #[test]
    fn sequential_propagation_compounds_macs() {
        let net = tiny();
        let mut kept = HashMap::new();
        kept.insert("T.L0".to_string(), 4usize);
        kept.insert("T.L1".to_string(), 8usize);
        let coupled = net.sequential_with_kept(&kept);
        // Halving both dimensions of T.L1 quarters its MACs.
        let original = net.layer("T.L1").unwrap().macs();
        let pruned = coupled.layer("T.L1").unwrap().macs();
        assert_eq!(pruned * 4, original);
    }

    /// The map form resolves to counts: an absent layer keeps its width.
    #[test]
    fn the_map_and_count_forms_deploy_alike() {
        let net = crate::mobilenet_v1();
        let mut kept = HashMap::new();
        kept.insert("MobileNet.L2".to_string(), 48usize);
        kept.insert("MobileNet.L3".to_string(), 5usize); // depthwise: ignored
        let counts: Vec<usize> = net
            .layers()
            .iter()
            .map(|l| kept.get(l.label()).copied().unwrap_or(l.c_out()))
            .collect();
        assert_eq!(
            net.sequential_with_kept(&kept),
            net.sequential_with_counts(&counts)
        );
        let walked: Vec<(usize, usize)> = net.coupled_channels(&counts).collect();
        let built = net.sequential_with_counts(&counts);
        assert!(walked
            .iter()
            .zip(built.layers())
            .all(|(&(c_in, c_out), l)| (c_in, c_out) == (l.c_in(), l.c_out())));
        assert_eq!(walked[2], (32, 48));
        assert_eq!(walked[3], (48, 48), "the depthwise layer follows its input");
    }

    #[test]
    #[should_panic(expected = "one keep count per layer")]
    fn the_walk_wants_one_count_per_layer() {
        let _ = tiny().coupled_channels(&[4]).count();
    }

    #[test]
    fn depthwise_layers_follow_their_input() {
        use crate::mobilenet_v1;
        let net = mobilenet_v1();
        let mut kept = HashMap::new();
        kept.insert("MobileNet.L2".to_string(), 48usize); // pw 32->64 shrunk
        let coupled = net.sequential_with_kept(&kept);
        let dw = coupled.layer("MobileNet.L3").unwrap();
        assert!(dw.is_depthwise());
        assert_eq!(dw.c_in(), 48);
        assert_eq!(dw.c_out(), 48);
    }
}
