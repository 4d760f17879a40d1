//! Complete sequential networks: convolutions plus the “other layer types”
//! of §II-A (pooling, ReLU, fully-connected), with per-op FLOP accounting
//! and an executable forward pass over the tensor substrate.
//!
//! The paper justifies profiling only convolutions because “these affine
//! transformations account for very little in the total inference time”
//! (SENet's convs are 99.991% of its FLOPs). [`FullNetwork::conv_flops_share`]
//! verifies that claim for the catalogs we ship.

use pruneperf_tensor::conv::{grouped, im2col_gemm};
use pruneperf_tensor::{ops, Tensor, TensorError};
use serde::{Deserialize, Serialize};

use crate::{weights, ConvLayerSpec};

/// One operation of a sequential network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LayerOp {
    /// Convolution (dense or grouped).
    Conv(ConvLayerSpec),
    /// ReLU over the previous output.
    Relu,
    /// Square max pooling.
    MaxPool {
        /// Window extent.
        window: usize,
        /// Stride.
        stride: usize,
    },
    /// Global average pooling to `1×1` spatial.
    GlobalAvgPool,
    /// Fully-connected layer.
    FullyConnected {
        /// Label used to seed the synthetic weights.
        label: String,
        /// Input features (flattened).
        in_features: usize,
        /// Output features.
        out_features: usize,
    },
    /// Residual block: `output = body(input) + shortcut(input)`, where the
    /// shortcut is identity or a projection convolution (ResNet's
    /// bottleneck structure).
    Residual {
        /// Operations on the main path.
        body: Vec<LayerOp>,
        /// Optional projection conv for the shortcut (stage transitions).
        projection: Option<ConvLayerSpec>,
    },
}

/// A sequential network of [`LayerOp`]s with FLOP accounting and a real
/// (CPU) forward pass using deterministic synthetic weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FullNetwork {
    name: String,
    input_hw: usize,
    input_c: usize,
    ops: Vec<LayerOp>,
}

impl FullNetwork {
    /// Creates a network from its operations.
    pub fn new(
        name: impl Into<String>,
        input_hw: usize,
        input_c: usize,
        ops: Vec<LayerOp>,
    ) -> Self {
        FullNetwork {
            name: name.into(),
            input_hw,
            input_c,
            ops,
        }
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input spatial extent (square).
    pub fn input_hw(&self) -> usize {
        self.input_hw
    }

    /// Input channel count.
    pub fn input_c(&self) -> usize {
        self.input_c
    }

    /// The operations in execution order.
    pub fn ops(&self) -> &[LayerOp] {
        &self.ops
    }

    /// Labels of every convolution in execution order (descending into
    /// residual bodies and projections).
    pub fn conv_labels(&self) -> Vec<String> {
        fn collect_convs(ops: &[LayerOp], out: &mut Vec<String>) {
            for op in ops {
                match op {
                    LayerOp::Conv(spec) => out.push(spec.label().to_string()),
                    LayerOp::Residual { body, projection } => {
                        // lint: allow(recursion-bound) — residual bodies nest one level by construction (NV003)
                        collect_convs(body, out);
                        if let Some(p) = projection {
                            out.push(p.label().to_string());
                        }
                    }
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        collect_convs(&self.ops, &mut out);
        out
    }

    /// Applies a channel-pruning keep map with **paired input-side pruning
    /// propagated downstream** (§II-B): every convolution's output channels
    /// shrink to its `kept` entry, the next layer's input channels follow,
    /// fully-connected inputs rescale with their feeding channel count, and
    /// residual shortcuts stay shape-consistent (projections follow the
    /// body; identity-shortcut bodies keep the block width).
    ///
    /// Kept counts are clamped to `1..=c_out`; labels absent from the map
    /// keep their original width. Grouped (non-depthwise) convolutions are
    /// left unpruned — arbitrary keeps would break group divisibility.
    pub fn pruned_with_kept(&self, kept: &std::collections::HashMap<String, usize>) -> FullNetwork {
        // Walks ops tracking (original, pruned) channel counts. `force_out`
        // pins the final conv's output (identity-shortcut residual bodies).
        fn prune_ops(
            ops: &[LayerOp],
            orig_c: &mut usize,
            new_c: &mut usize,
            force_out: Option<usize>,
            kept: &std::collections::HashMap<String, usize>,
        ) -> Vec<LayerOp> {
            let last_conv = ops
                .iter()
                .rposition(|op| matches!(op, LayerOp::Conv(_) | LayerOp::Residual { .. }));
            ops.iter()
                .enumerate()
                .map(|(i, op)| match op {
                    LayerOp::Conv(spec) => {
                        let pinned = (Some(i) == last_conv).then_some(force_out).flatten();
                        let (c_out, groups) = if spec.is_depthwise() {
                            (*new_c, *new_c)
                        } else if spec.groups() > 1 {
                            (spec.c_out(), spec.groups())
                        } else if let Some(pin) = pinned {
                            (pin, 1)
                        } else {
                            let k = kept.get(spec.label()).copied().unwrap_or(spec.c_out());
                            (k.clamp(1, spec.c_out()), 1)
                        };
                        let new = ConvLayerSpec::new_grouped(
                            spec.label(),
                            spec.kernel(),
                            spec.stride(),
                            spec.pad(),
                            *new_c,
                            c_out,
                            spec.h_in(),
                            spec.w_in(),
                            groups,
                        );
                        *orig_c = spec.c_out();
                        *new_c = c_out;
                        LayerOp::Conv(new)
                    }
                    LayerOp::FullyConnected {
                        label,
                        in_features,
                        out_features,
                    } => {
                        // The flattened input shrinks with its feeding
                        // channels; catalog in_features are exact multiples.
                        let scaled = if *orig_c > 0 && in_features.is_multiple_of(*orig_c) {
                            in_features / *orig_c * *new_c
                        } else {
                            *in_features
                        };
                        *orig_c = *out_features;
                        *new_c = *out_features;
                        LayerOp::FullyConnected {
                            label: label.clone(),
                            in_features: scaled,
                            out_features: *out_features,
                        }
                    }
                    LayerOp::Residual { body, projection } => {
                        let (mut b_orig, mut b_new) = (*orig_c, *new_c);
                        let force = projection.is_none().then_some(*new_c);
                        let new_body = prune_ops(body, &mut b_orig, &mut b_new, force, kept);
                        let new_proj = projection.as_ref().map(|p| {
                            ConvLayerSpec::new(
                                p.label(),
                                p.kernel(),
                                p.stride(),
                                p.pad(),
                                *new_c,
                                b_new,
                                p.h_in(),
                                p.w_in(),
                            )
                        });
                        *orig_c = b_orig;
                        *new_c = b_new;
                        LayerOp::Residual {
                            body: new_body,
                            projection: new_proj,
                        }
                    }
                    other => other.clone(),
                })
                .collect()
        }
        let mut orig_c = self.input_c;
        let mut new_c = self.input_c;
        let ops = prune_ops(&self.ops, &mut orig_c, &mut new_c, None, kept);
        FullNetwork {
            name: format!("{} (pruned)", self.name),
            input_hw: self.input_hw,
            input_c: self.input_c,
            ops,
        }
    }

    /// FLOPs per op, paired with whether the op is a convolution.
    pub fn flops_breakdown(&self) -> Vec<(String, u64, bool)> {
        let mut hw = self.input_hw;
        let mut c = self.input_c;
        let mut out = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            match op {
                LayerOp::Conv(spec) => {
                    #[expect(
                        clippy::expect_used,
                        reason = "specs were validated by ConvLayerSpec::new"
                    )]
                    let flops = spec.dims().flops().expect("catalog geometry valid");
                    out.push((spec.label().to_string(), flops, true));
                    hw = spec.out_hw().0;
                    c = spec.c_out();
                }
                LayerOp::Relu => {
                    out.push(("relu".into(), (hw * hw * c) as u64, false));
                }
                LayerOp::MaxPool { window, stride } => {
                    let out_hw = (hw - window) / stride + 1;
                    out.push((
                        format!("maxpool{window}"),
                        (out_hw * out_hw * c * window * window) as u64,
                        false,
                    ));
                    hw = out_hw;
                }
                LayerOp::GlobalAvgPool => {
                    out.push(("gap".into(), (hw * hw * c) as u64, false));
                    hw = 1;
                }
                LayerOp::FullyConnected {
                    label,
                    in_features,
                    out_features,
                } => {
                    out.push((
                        label.clone(),
                        2 * (in_features * out_features) as u64,
                        false,
                    ));
                    hw = 1;
                    c = *out_features;
                }
                LayerOp::Residual { body, projection } => {
                    let inner = FullNetwork::new("block", hw, c, body.clone());
                    let mut body_hw = hw;
                    let mut body_c = c;
                    for (name, flops, is_conv) in inner.flops_breakdown() {
                        out.push((name, flops, is_conv));
                    }
                    // Track the body's output geometry.
                    for op in body {
                        if let LayerOp::Conv(spec) = op {
                            body_hw = spec.out_hw().0;
                            body_c = spec.c_out();
                        }
                    }
                    #[expect(
                        clippy::expect_used,
                        reason = "specs were validated by ConvLayerSpec::new"
                    )]
                    if let Some(proj) = projection {
                        out.push((
                            proj.label().to_string(),
                            proj.dims().flops().expect("catalog geometry valid"),
                            true,
                        ));
                    }
                    // Elementwise add.
                    out.push((
                        "residual_add".into(),
                        (body_hw * body_hw * body_c) as u64,
                        false,
                    ));
                    hw = body_hw;
                    c = body_c;
                }
            }
        }
        out
    }

    /// Total FLOPs of one forward pass.
    pub fn total_flops(&self) -> u64 {
        self.flops_breakdown().iter().map(|(_, f, _)| f).sum()
    }

    /// Fraction of FLOPs spent in convolutions (§II-A: ≈ 0.999 for large
    /// CNNs).
    pub fn conv_flops_share(&self) -> f64 {
        let breakdown = self.flops_breakdown();
        let conv: u64 = breakdown
            .iter()
            .filter(|(_, _, c)| *c)
            .map(|(_, f, _)| f)
            .sum();
        conv as f64 / self.total_flops().max(1) as f64
    }

    /// Runs the network on an input tensor with deterministic synthetic
    /// weights.
    ///
    /// # Errors
    ///
    /// Propagates shape errors if `input` does not match the declared input
    /// geometry or an op chain is inconsistent.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, TensorError> {
        let mut x = input.clone();
        for op in &self.ops {
            x = match op {
                LayerOp::Conv(spec) => {
                    // Respect the *actual* activation geometry (callers may
                    // run spatially scaled-down inputs for testing).
                    let [_, h, w, c_in] = x.shape().dims();
                    let runtime_spec = ConvLayerSpec::new_grouped(
                        spec.label(),
                        spec.kernel(),
                        spec.stride(),
                        spec.pad(),
                        c_in,
                        spec.c_out(),
                        h,
                        w,
                        spec.groups().min(c_in),
                    );
                    let wts = weights::synthetic_weights(&runtime_spec);
                    if runtime_spec.groups() > 1 {
                        grouped::conv2d_grouped(
                            &x,
                            &wts,
                            runtime_spec.params(),
                            runtime_spec.groups(),
                        )?
                    } else {
                        im2col_gemm::conv2d(&x, &wts, runtime_spec.params())?
                    }
                }
                LayerOp::Relu => ops::relu(&x),
                LayerOp::MaxPool { window, stride } => ops::max_pool2d(&x, *window, *stride)?,
                LayerOp::GlobalAvgPool => ops::global_avg_pool(&x),
                LayerOp::FullyConnected {
                    label,
                    out_features,
                    ..
                } => {
                    let [_, h, w, c] = x.shape().dims();
                    let fc_spec =
                        ConvLayerSpec::new(label.clone(), 1, 1, 0, h * w * c, *out_features, 1, 1);
                    let wts = weights::synthetic_weights(&fc_spec);
                    ops::fully_connected(&x, &wts)?
                }
                LayerOp::Residual { body, projection } => {
                    let [_, h, w, c_in] = x.shape().dims();
                    let inner = FullNetwork::new("block", h, c_in, body.clone());
                    let main = inner.forward(&x)?;
                    let shortcut = match projection {
                        Some(proj) => {
                            let [_, hh, ww, cc] = x.shape().dims();
                            let rp = ConvLayerSpec::new(
                                proj.label(),
                                proj.kernel(),
                                proj.stride(),
                                proj.pad(),
                                cc,
                                proj.c_out(),
                                hh,
                                ww,
                            );
                            let wts = weights::synthetic_weights(&rp);
                            im2col_gemm::conv2d(&x, &wts, rp.params())?
                        }
                        None => x.clone(),
                    };
                    let _ = w;
                    add_tensors(&main, &shortcut)?
                }
            };
        }
        Ok(x)
    }
}

/// Element-wise tensor addition (shapes must match).
fn add_tensors(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    if a.shape() != b.shape() {
        return Err(TensorError::DataLengthMismatch {
            shape: a.shape(),
            len: b.as_slice().len(),
        });
    }
    Tensor::from_vec(
        a.shape(),
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| x + y)
            .collect(),
    )
}

/// One ResNet bottleneck block (reduce 1x1 → 3x3 → expand 1x1, optional
/// projection shortcut).
#[allow(clippy::too_many_arguments)]
fn bottleneck(
    prefix: &str,
    c_in: usize,
    c_mid: usize,
    c_out: usize,
    hw_in: usize,
    stride: usize,
    project: bool,
) -> LayerOp {
    let hw_out = hw_in / stride;
    let body = vec![
        LayerOp::Conv(ConvLayerSpec::new(
            format!("{prefix}.reduce"),
            1,
            1,
            0,
            c_in,
            c_mid,
            hw_in,
            hw_in,
        )),
        LayerOp::Relu,
        LayerOp::Conv(ConvLayerSpec::new(
            format!("{prefix}.conv3"),
            3,
            stride,
            1,
            c_mid,
            c_mid,
            hw_in,
            hw_in,
        )),
        LayerOp::Relu,
        LayerOp::Conv(ConvLayerSpec::new(
            format!("{prefix}.expand"),
            1,
            1,
            0,
            c_mid,
            c_out,
            hw_out,
            hw_out,
        )),
    ];
    let projection = project.then(|| {
        ConvLayerSpec::new(
            format!("{prefix}.proj"),
            1,
            stride,
            0,
            c_in,
            c_out,
            hw_in,
            hw_in,
        )
    });
    LayerOp::Residual { body, projection }
}

/// ResNet-50 as a complete network with residual blocks (v1.5 style,
/// matching the `resnet50()` catalog's unique shapes).
pub fn resnet50_full() -> FullNetwork {
    let mut ops = vec![
        LayerOp::Conv(ConvLayerSpec::new("RNFull.stem", 7, 2, 3, 3, 64, 224, 224)),
        LayerOp::Relu,
        LayerOp::MaxPool {
            window: 2,
            stride: 2,
        },
    ];
    let stages: [(usize, usize, usize, usize, usize); 4] = [
        // (blocks, c_in, c_mid, c_out, hw at stage input)
        (3, 64, 64, 256, 56),
        (4, 256, 128, 512, 56),
        (6, 512, 256, 1024, 28),
        (3, 1024, 512, 2048, 14),
    ];
    for (stage_idx, (blocks, c_in, c_mid, c_out, hw)) in stages.into_iter().enumerate() {
        for b in 0..blocks {
            let first = b == 0;
            // v1.5: the stage's first block downsamples (stages 1..3).
            let stride = if first && stage_idx > 0 { 2 } else { 1 };
            let block_in = if first { c_in } else { c_out };
            let hw_here = if first || stage_idx == 0 { hw } else { hw / 2 };
            ops.push(bottleneck(
                &format!("RNFull.s{stage_idx}b{b}"),
                block_in,
                c_mid,
                c_out,
                hw_here,
                stride,
                first,
            ));
            ops.push(LayerOp::Relu);
        }
    }
    ops.push(LayerOp::GlobalAvgPool);
    ops.push(LayerOp::FullyConnected {
        label: "RNFull.FC".into(),
        in_features: 2048,
        out_features: 1000,
    });
    FullNetwork::new("ResNet-50 (full)", 224, 3, ops)
}

/// VGG-16 as a complete sequential network (13 convs, 5 max-pools, 3 FCs).
pub fn vgg16_full() -> FullNetwork {
    let mut ops = Vec::new();
    let blocks: [(usize, usize, usize, usize); 5] = [
        // (convs in block, c_in, c_out, input hw)
        (2, 3, 64, 224),
        (2, 64, 128, 112),
        (3, 128, 256, 56),
        (3, 256, 512, 28),
        (3, 512, 512, 14),
    ];
    let mut idx = 0;
    for (convs, c_in, c_out, hw) in blocks {
        for k in 0..convs {
            let ci = if k == 0 { c_in } else { c_out };
            ops.push(LayerOp::Conv(ConvLayerSpec::new(
                format!("VGGFull.C{idx}"),
                3,
                1,
                1,
                ci,
                c_out,
                hw,
                hw,
            )));
            ops.push(LayerOp::Relu);
            idx += 1;
        }
        ops.push(LayerOp::MaxPool {
            window: 2,
            stride: 2,
        });
    }
    ops.push(LayerOp::FullyConnected {
        label: "VGGFull.FC0".into(),
        in_features: 7 * 7 * 512,
        out_features: 4096,
    });
    ops.push(LayerOp::Relu);
    ops.push(LayerOp::FullyConnected {
        label: "VGGFull.FC1".into(),
        in_features: 4096,
        out_features: 4096,
    });
    ops.push(LayerOp::Relu);
    ops.push(LayerOp::FullyConnected {
        label: "VGGFull.FC2".into(),
        in_features: 4096,
        out_features: 1000,
    });
    FullNetwork::new("VGG-16 (full)", 224, 3, ops)
}

/// AlexNet as a complete sequential network.
pub fn alexnet_full() -> FullNetwork {
    let conv = |label: &str, k: usize, s: usize, p: usize, ci: usize, co: usize, hw: usize| {
        LayerOp::Conv(ConvLayerSpec::new(label, k, s, p, ci, co, hw, hw))
    };
    FullNetwork::new(
        "AlexNet (full)",
        224,
        3,
        vec![
            conv("AlexFull.C0", 11, 4, 2, 3, 64, 224),
            LayerOp::Relu,
            LayerOp::MaxPool {
                window: 3,
                stride: 2,
            },
            conv("AlexFull.C1", 5, 1, 2, 64, 192, 27),
            LayerOp::Relu,
            LayerOp::MaxPool {
                window: 3,
                stride: 2,
            },
            conv("AlexFull.C2", 3, 1, 1, 192, 384, 13),
            LayerOp::Relu,
            conv("AlexFull.C3", 3, 1, 1, 384, 256, 13),
            LayerOp::Relu,
            conv("AlexFull.C4", 3, 1, 1, 256, 256, 13),
            LayerOp::Relu,
            LayerOp::MaxPool {
                window: 3,
                stride: 2,
            },
            LayerOp::FullyConnected {
                label: "AlexFull.FC0".into(),
                in_features: 6 * 6 * 256,
                out_features: 4096,
            },
            LayerOp::Relu,
            LayerOp::FullyConnected {
                label: "AlexFull.FC1".into(),
                in_features: 4096,
                out_features: 4096,
            },
            LayerOp::Relu,
            LayerOp::FullyConnected {
                label: "AlexFull.FC2".into(),
                in_features: 4096,
                out_features: 1000,
            },
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §II-A: convolutions dominate total FLOPs in classic CNNs.
    #[test]
    fn conv_flops_dominate_vgg() {
        let share = vgg16_full().conv_flops_share();
        assert!(share > 0.98, "VGG conv share {share}");
    }

    #[test]
    fn alexnet_fc_layers_take_a_visible_share() {
        // AlexNet famously has heavy FC layers; conv share is lower than
        // VGG's but convs still dominate.
        let share = alexnet_full().conv_flops_share();
        assert!((0.80..0.99).contains(&share), "AlexNet conv share {share}");
    }

    #[test]
    fn vgg_total_flops_in_known_range() {
        // VGG-16 forward ≈ 15.5 GFLOPs for 224x224 (convs) + ~0.25 for FCs.
        let total = vgg16_full().total_flops() as f64;
        assert!((29.0e9..32.5e9).contains(&total), "{total}");
    }

    /// A scaled-down forward pass runs end to end and produces logits.
    #[test]
    fn alexnet_forward_runs_scaled() {
        // Feed the real 224 geometry but it is too slow for a unit test;
        // use a custom tiny net exercising every op kind instead.
        let net = FullNetwork::new(
            "Tiny (full)",
            16,
            3,
            vec![
                LayerOp::Conv(ConvLayerSpec::new("TinyFull.C0", 3, 1, 1, 3, 8, 16, 16)),
                LayerOp::Relu,
                LayerOp::MaxPool {
                    window: 2,
                    stride: 2,
                },
                LayerOp::Conv(ConvLayerSpec::new_grouped(
                    "TinyFull.DW",
                    3,
                    1,
                    1,
                    8,
                    8,
                    8,
                    8,
                    8,
                )),
                LayerOp::Relu,
                LayerOp::GlobalAvgPool,
                LayerOp::FullyConnected {
                    label: "TinyFull.FC".into(),
                    in_features: 8,
                    out_features: 10,
                },
            ],
        );
        let input = Tensor::from_fn([1, 16, 16, 3], |i| (i % 17) as f32 * 0.05 - 0.4);
        let logits = net.forward(&input).unwrap();
        assert_eq!(logits.shape().dims(), [1, 1, 1, 10]);
        assert!(logits.as_slice().iter().any(|v| *v != 0.0));
        // ReLU + GAP guarantee finite values.
        assert!(logits.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn flops_breakdown_covers_every_op() {
        let net = alexnet_full();
        assert_eq!(net.flops_breakdown().len(), net.ops().len());
        assert!(net.total_flops() > 0);
    }

    #[test]
    fn serde_round_trip() {
        let net = alexnet_full();
        let json = serde_json::to_string(&net).unwrap();
        let back: FullNetwork = serde_json::from_str(&json).unwrap();
        assert_eq!(net, back);
    }

    #[test]
    fn resnet50_full_flops_in_known_range() {
        // ResNet-50 forward ≈ 4.1 GMACs ≈ 8.2 GFLOPs.
        let total = resnet50_full().total_flops() as f64;
        assert!((7.0e9..9.5e9).contains(&total), "{total}");
        // Convolutions dominate despite 16 residual adds.
        assert!(resnet50_full().conv_flops_share() > 0.98);
    }

    #[test]
    fn resnet50_full_contains_all_catalog_shapes() {
        use crate::resnet50;
        // Every unique conv shape of the profiling catalog appears in the
        // full network (ignoring labels).
        let full = resnet50_full();
        let mut full_shapes = std::collections::HashSet::new();
        fn collect(
            ops: &[LayerOp],
            out: &mut std::collections::HashSet<(usize, usize, usize, usize, usize)>,
        ) {
            for op in ops {
                match op {
                    LayerOp::Conv(s) => {
                        out.insert((s.kernel(), s.stride(), s.c_in(), s.c_out(), s.h_in()));
                    }
                    LayerOp::Residual { body, projection } => {
                        collect(body, out);
                        if let Some(p) = projection {
                            out.insert((p.kernel(), p.stride(), p.c_in(), p.c_out(), p.h_in()));
                        }
                    }
                    _ => {}
                }
            }
        }
        collect(full.ops(), &mut full_shapes);
        for layer in resnet50().layers() {
            let key = (
                layer.kernel(),
                layer.stride(),
                layer.c_in(),
                layer.c_out(),
                layer.h_in(),
            );
            assert!(
                full_shapes.contains(&key),
                "catalog shape missing from full net: {layer}"
            );
        }
    }

    #[test]
    fn residual_block_forward_adds_shortcut() {
        // A residual block whose body is an identity-ish conv: output must
        // differ from a plain sequential run by the shortcut addition.
        let body = vec![LayerOp::Conv(ConvLayerSpec::new(
            "ResT.C0", 3, 1, 1, 4, 4, 8, 8,
        ))];
        let with_skip = FullNetwork::new(
            "res",
            8,
            4,
            vec![LayerOp::Residual {
                body: body.clone(),
                projection: None,
            }],
        );
        let without_skip = FullNetwork::new("seq", 8, 4, body);
        let input = Tensor::from_fn([1, 8, 8, 4], |i| ((i % 11) as f32) * 0.1 - 0.5);
        let a = with_skip.forward(&input).unwrap();
        let b = without_skip.forward(&input).unwrap();
        // with_skip == without_skip + input (elementwise).
        for (i, (ya, yb)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            let expect = yb + input.as_slice()[i];
            assert!((ya - expect).abs() < 1e-5, "at {i}: {ya} vs {expect}");
        }
    }

    #[test]
    fn residual_projection_changes_channels() {
        let block = LayerOp::Residual {
            body: vec![LayerOp::Conv(ConvLayerSpec::new(
                "ResT.C1", 1, 1, 0, 4, 8, 6, 6,
            ))],
            projection: Some(ConvLayerSpec::new("ResT.P", 1, 1, 0, 4, 8, 6, 6)),
        };
        let net = FullNetwork::new("res", 6, 4, vec![block]);
        let input = Tensor::from_fn([1, 6, 6, 4], |i| (i % 5) as f32 * 0.2);
        let y = net.forward(&input).unwrap();
        assert_eq!(y.shape().dims(), [1, 6, 6, 8]);
    }
}
