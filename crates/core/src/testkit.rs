//! Shared test fixtures: the small networks and profiler setups that the
//! unit, property, differential and validation suites all build on.
//!
//! Before this module each test file grew its own copy of these builders
//! (`crates/core/src/pruner.rs`, `crates/core/src/analysis.rs`,
//! `tests/model_validation.rs`, the chaos drills all had near-identical
//! `tiny_net`/`setup` helpers). Centralizing them keeps the *shapes* —
//! which the assertions are numerically tuned to — in one place.
//!
//! This module is compiled into the library so integration tests and other
//! crates (bench, CLI tests) can use it, but it is **not** part of the
//! stable API: fixtures may change shape whenever the suites need them to.

use std::collections::HashMap;

use pruneperf_gpusim::Device;
use pruneperf_models::{ConvLayerSpec, Network};
use pruneperf_profiler::LayerProfiler;

use crate::accuracy::AccuracyModel;

/// Two mid-size layers (128→128 3×3 and 128→256 1×1 at 28×28) so GPU work
/// dominates fixed dispatch overhead and aggressive latency budgets are
/// actually reachable. The pruner/search quality tests are tuned to this
/// shape.
pub fn tiny_net() -> Network {
    Network::new(
        "Tiny",
        vec![
            ConvLayerSpec::new("T.L0", 3, 1, 1, 128, 128, 28, 28),
            ConvLayerSpec::new("T.L1", 1, 1, 0, 128, 256, 28, 28),
        ],
    )
}

/// The analysis-table twin of [`tiny_net`]: smaller channel counts
/// (16→64, 64→96 at 14×14) whose staircase split sizes the heatmap
/// regression tests are tuned to.
pub fn analysis_net() -> Network {
    Network::new(
        "Tiny",
        vec![
            ConvLayerSpec::new("T.L0", 3, 1, 1, 16, 64, 14, 14),
            ConvLayerSpec::new("T.L1", 1, 1, 0, 64, 96, 14, 14),
        ],
    )
}

/// Three layers small enough that the joint staircase cross product is
/// exhaustively enumerable (between ~10² and ~4×10³ configurations on the
/// paper devices) yet rich enough that every device has several optimal
/// points per layer — the fixture for the search differential harness and
/// the `search_beam_small` benchmark.
pub fn micro_net() -> Network {
    Network::new(
        "Micro",
        vec![
            ConvLayerSpec::new("M.L0", 3, 1, 1, 48, 96, 14, 14),
            ConvLayerSpec::new("M.L1", 3, 1, 1, 96, 128, 14, 14),
            ConvLayerSpec::new("M.L2", 1, 1, 0, 128, 192, 14, 14),
        ],
    )
}

/// Three layers whose staircase ladders deliberately trip one-layer-at-a-
/// time trading: the coarse Mali workgroup quanta make the greedy §V loop
/// overshoot its last trade, so the joint optimum keeps a *different*
/// per-layer split with strictly lower latency, lower energy and higher
/// accuracy. On the CUDA devices the ladders are smooth enough that
/// greedy stays optimal — exactly the contrast the beats-greedy
/// differential test and `ext8` pin. Budgets are part of the fixture:
/// 0.8 on HiKey 970, 0.6 on Odroid XU4.
pub fn ragged_net() -> Network {
    Network::new(
        "Ragged",
        vec![
            ConvLayerSpec::new("R.L0", 5, 1, 2, 24, 88, 28, 28),
            ConvLayerSpec::new("R.L1", 3, 1, 1, 88, 136, 14, 14),
            ConvLayerSpec::new("R.L2", 1, 1, 0, 136, 160, 14, 14),
        ],
    )
}

/// Sixty-four 1×1 64→8 layers at 56×56. On the HiKey 970 under ACL GEMM
/// each ladder is `[4, 8]`, so the joint space has 2^64 configurations:
/// the fixture for the overflow-checked enumeration caps.
pub fn wide_net() -> Network {
    Network::new(
        "Wide",
        (0..64)
            .map(|i| ConvLayerSpec::new(format!("W.L{i}"), 1, 1, 0, 64, 8, 56, 56))
            .collect(),
    )
}

/// A 3×3, stride-1, 8→12 layer at 14×14 — the shape the cross-stack
/// validation suite checks instruction/MAC ratios on. `pad` is 1 for the
/// "same" variant and 0 for the "valid" variant.
pub fn val_layer(label: &str, pad: usize) -> ConvLayerSpec {
    ConvLayerSpec::new(label, 3, 1, pad, 8, 12, 14, 14)
}

/// A property-test layer: stride 1, padding 1 iff `kernel == 3`, labelled
/// `P.L{index}`. Mirrors the shapes `network_strategy` generates.
pub fn prop_layer(
    index: usize,
    kernel: usize,
    spatial: usize,
    c_in: usize,
    c_out: usize,
) -> ConvLayerSpec {
    let pad = if kernel == 3 { 1 } else { 0 };
    ConvLayerSpec::new(
        format!("P.L{index}"),
        kernel,
        1,
        pad,
        c_in,
        c_out,
        spatial,
        spatial,
    )
}

/// Builds the property-test network `"Prop"` from `(kernel, spatial,
/// c_in, c_out)` shape tuples via [`prop_layer`].
pub fn prop_network(shapes: &[(usize, usize, usize, usize)]) -> Network {
    let specs = shapes
        .iter()
        .enumerate()
        .map(|(i, &(k, hw, ci, co))| prop_layer(i, k, hw, ci, co))
        .collect();
    Network::new("Prop", specs)
}

/// The standard deterministic harness: a noiseless profiler on `device`
/// (single exact run per measurement) plus the surrogate accuracy model
/// fitted to `network`.
pub fn noiseless_setup(network: &Network, device: &Device) -> (LayerProfiler, AccuracyModel) {
    (
        LayerProfiler::noiseless(device),
        AccuracyModel::for_network(network),
    )
}

/// A keep-everything map for `network` — the identity pruning decision,
/// useful as a baseline in plan-level tests.
pub fn full_keep(network: &Network) -> HashMap<String, usize> {
    network
        .layers()
        .iter()
        .map(|l| (l.label().to_string(), l.c_out()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_have_the_documented_shapes() {
        assert_eq!(tiny_net().len(), 2);
        assert_eq!(analysis_net().len(), 2);
        assert_eq!(micro_net().len(), 3);
        assert_eq!(ragged_net().len(), 3);
        assert_eq!(wide_net().len(), 64);
        assert_eq!(val_layer("Val.L0", 1).pad(), 1);
        assert_eq!(prop_layer(0, 3, 14, 8, 16).pad(), 1);
        assert_eq!(prop_layer(1, 1, 14, 8, 16).pad(), 0);
        let net = prop_network(&[(3, 14, 8, 16), (1, 14, 16, 32)]);
        assert_eq!(net.len(), 2);
        assert_eq!(net.layers()[1].label(), "P.L1");
        assert_eq!(full_keep(&net)["P.L0"], 16);
    }
}
