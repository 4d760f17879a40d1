//! Deterministic synthetic weights and activations for catalog layers.
//!
//! The paper prunes without retraining (§II-B), so weight *values* never
//! influence latency — but the integration tests still exercise real
//! arithmetic end-to-end, and the accuracy surrogate in `pruneperf-core`
//! derives per-channel importances from these weights' L1 norms. A
//! splitmix64 stream keyed by the layer label keeps everything
//! reproducible without carrying an RNG dependency, and lets
//! [`channel_l1_norms`] stream the norms from it with no tensor.

use pruneperf_tensor::Tensor;

use crate::ConvLayerSpec;

/// splitmix64 step — tiny, seedable, good enough for synthetic data.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a label, used to seed the per-layer stream.
fn label_seed(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Uniform value in `[-scale, scale)` from the stream.
fn uniform(state: &mut u64, scale: f32) -> f32 {
    let bits = splitmix64(state) >> 40; // 24 random bits
    ((bits as f32 / (1u32 << 24) as f32) * 2.0 - 1.0) * scale
}

/// Deterministic OHWI weight tensor for a layer.
///
/// Values follow a He-style scale (`sqrt(2 / fan_in)`) so multi-layer
/// compositions stay numerically tame in tests.
pub fn synthetic_weights(layer: &ConvLayerSpec) -> Tensor {
    let c_in_per_group = layer.c_in() / layer.groups();
    let fan_in = (layer.kernel() * layer.kernel() * c_in_per_group) as f32;
    let scale = (2.0 / fan_in).sqrt();
    let mut state = label_seed(layer.label());
    Tensor::from_fn(
        [
            layer.c_out(),
            layer.kernel(),
            layer.kernel(),
            c_in_per_group,
        ],
        |_| uniform(&mut state, scale),
    )
}

/// Deterministic NHWC input tensor (batch 1) for a layer.
pub fn synthetic_input(layer: &ConvLayerSpec) -> Tensor {
    let mut state = label_seed(layer.label()) ^ 0xDEAD_BEEF_CAFE_F00D;
    Tensor::from_fn([1, layer.h_in(), layer.w_in(), layer.c_in()], |_| {
        uniform(&mut state, 1.0)
    })
}

/// Per-output-channel L1 norms of a layer's synthetic weights — the
/// magnitude signal channel-pruning criteria rank filters by.
///
/// Streamed: draws the same splitmix stream as [`synthetic_weights`] and
/// sums each channel's `|w|` in element order with no tensor behind it,
/// so every norm is bit-identical to summing that tensor's filter rows.
pub fn channel_l1_norms(layer: &ConvLayerSpec) -> Vec<f32> {
    let c_in_per_group = layer.c_in() / layer.groups();
    let filter_len = layer.kernel() * layer.kernel() * c_in_per_group;
    let scale = (2.0 / filter_len as f32).sqrt();
    let mut state = label_seed(layer.label());
    (0..layer.c_out())
        .map(|_| {
            (0..filter_len)
                .map(|_| uniform(&mut state, scale).abs())
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{alexnet, mobilenet_v1, resnet50, vgg16};
    use pruneperf_tensor::conv::{direct, im2col_gemm};
    use pruneperf_tensor::prune;

    fn small_layer() -> ConvLayerSpec {
        ConvLayerSpec::new("Test.L0", 3, 1, 1, 4, 6, 8, 8)
    }

    #[test]
    fn weights_are_deterministic_per_label() {
        let a = synthetic_weights(&small_layer());
        let b = synthetic_weights(&small_layer());
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_differ() {
        let a = synthetic_weights(&small_layer());
        let other = ConvLayerSpec::new("Test.L1", 3, 1, 1, 4, 6, 8, 8);
        let b = synthetic_weights(&other);
        assert_ne!(a, b);
    }

    #[test]
    fn weight_scale_tracks_fan_in() {
        let w = synthetic_weights(&small_layer());
        let bound = (2.0f32 / (3.0 * 3.0 * 4.0)).sqrt();
        assert!(w.as_slice().iter().all(|v| v.abs() <= bound));
        assert!(w.as_slice().iter().any(|v| v.abs() > bound * 0.5));
    }

    #[test]
    fn synthetic_pair_convolves_on_both_algorithms() {
        let layer = small_layer();
        let x = synthetic_input(&layer);
        let w = synthetic_weights(&layer);
        let a = direct::conv2d(&x, &w, layer.params()).unwrap();
        let b = im2col_gemm::conv2d(&x, &w, layer.params()).unwrap();
        assert!(a.all_close(&b, 1e-4));
        let (oh, ow) = layer.out_hw();
        assert_eq!(a.shape().dims(), [1, oh, ow, layer.c_out()]);
    }

    #[test]
    fn l1_norms_have_one_entry_per_filter() {
        let layer = small_layer();
        let norms = channel_l1_norms(&layer);
        assert_eq!(norms.len(), layer.c_out());
        assert!(norms.iter().all(|n| *n > 0.0));
    }

    /// The streamed norms equal, bit for bit, each filter row's `|w|` sum
    /// over the materialized tensor, on every layer of the four catalog
    /// networks (dense, and depthwise with grouped filters).
    #[test]
    fn streamed_norms_equal_the_tensor_norms() {
        for network in [alexnet(), mobilenet_v1(), resnet50(), vgg16()] {
            for layer in network.layers() {
                let w = synthetic_weights(layer);
                let filter_len = w.as_slice().len() / layer.c_out();
                let expected: Vec<u32> = w
                    .as_slice()
                    .chunks(filter_len)
                    .map(|row| row.iter().map(|v| v.abs()).sum::<f32>().to_bits())
                    .collect();
                let streamed: Vec<u32> = channel_l1_norms(layer)
                    .into_iter()
                    .map(f32::to_bits)
                    .collect();
                assert_eq!(streamed, expected, "{}", layer.label());
            }
        }
    }

    #[test]
    fn pruned_weights_match_pruned_spec_shape() {
        let layer = resnet50().layer("ResNet.L16").unwrap().clone();
        let w = synthetic_weights(&layer);
        let pruned_spec = layer.with_c_out(96).unwrap();
        let pruned_w = prune::prune_output_channels_to(&w, 96).unwrap();
        assert_eq!(pruned_w.shape().dims()[0], pruned_spec.c_out(),);
    }
}
