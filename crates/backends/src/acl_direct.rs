//! Arm Compute Library — Direct convolution method (§IV-A2, §IV-B2).
//!
//! One `direct_convolution{k}x{k}_nhwc` kernel computes each output element
//! in a deep nested loop — no im2col blow-up, which is why it is the only
//! option on tightly memory-limited devices, and also why it has no data
//! reuse and is generally the slowest method.
//!
//! # Workgroup-size heuristic (Table V)
//!
//! ACL selects the OpenCL workgroup shape from output-channel divisibility,
//! invisibly to the user:
//!
//! | condition        | workgroup  | observed behaviour                |
//! |------------------|------------|-----------------------------------|
//! | `c_out % 4 == 0` | `(4,1,1)`  | fast (Table V: 92 ch, 168.8)      |
//! | `c_out % 2 == 0` | `(2,1,8)`  | fast-ish (Table V: 90 ch, 167.9)  |
//! | odd              | `(1,1,8)`  | slow (Table V: 91/93 ch, ~200)    |
//!
//! The three shapes coalesce memory differently, and direct convolution is
//! memory-bound, so the curve shows **three alternating execution levels**
//! (Fig 12, up to 1.9× apart for 1×1 layers). Since every stock network
//! ships with channel counts divisible by 4, pruning a single channel drops
//! the layer onto the slow level — the up-to-5× prune-by-one slowdowns of
//! Fig 10 (“optimization heuristics in the ACL are tuned for the standard
//! shape of most popular neural networks”).

use pruneperf_gpusim::{Device, JobChain, KernelDesc};
use pruneperf_models::ConvLayerSpec;

use crate::{ConvBackend, DispatchPlan};

/// Scalar-equivalent instructions per multiply–accumulate in the nested
/// loop (loads are counted separately). Direct convolution carries far more
/// loop/addressing overhead per MAC than the blocked GEMM (§IV-A2:
/// “Direct Convolution is generally slower than all the other methods”).
const DIRECT_INSTR_PER_MAC: u64 = 20;

/// The ACL Direct convolution backend model.
#[derive(Debug, Clone, Default)]
pub struct AclDirect {
    _private: (),
}

impl AclDirect {
    /// Creates the backend model.
    pub fn new() -> Self {
        AclDirect::default()
    }

    /// The Table V workgroup-size heuristic.
    pub fn workgroup_for(c_out: usize) -> [usize; 3] {
        if c_out.is_multiple_of(4) {
            [4, 1, 1]
        } else if c_out.is_multiple_of(2) {
            [2, 1, 8]
        } else {
            [1, 1, 8]
        }
    }

    /// Memory-coalescing efficiency of a workgroup shape for a layer.
    ///
    /// Below ~32 output channels the channel loop cannot be vectorized and
    /// the strided NHWC input gathers stop coalescing, which is what caps
    /// the speedup from extreme pruning around 15–17× in Figs 10/11 (work
    /// drops linearly with channels, memory time does not).
    pub(crate) fn coalescing_for(layer: &ConvLayerSpec, wg: [usize; 3]) -> f64 {
        let narrow_gather = 0.35 + 0.65 * (layer.c_out() as f64 / 32.0).min(1.0);
        let one_by_one = layer.kernel() == 1;
        narrow_gather
            * match wg[0] {
                x if x >= 4 => 0.95,
                2 => {
                    if one_by_one {
                        0.70
                    } else {
                        0.90
                    }
                }
                _ => {
                    if one_by_one {
                        0.50
                    } else {
                        0.75
                    }
                }
            }
    }

    /// Issue efficiency of a workgroup shape for a layer.
    ///
    /// 3×3+ kernels lose little to the shape choice (the ~1.2× of Table V);
    /// 1×1 kernels rely on vec4 channel loads that the `(2,1,8)`/`(1,1,8)`
    /// fallbacks cannot issue, producing the up-to-1.9× levels of Fig 12.
    /// Narrow layers degrade further on the scalar path: with few input
    /// channels the inner loop is too short to amortize per-iteration
    /// overhead (Fig 10's 0.2–0.3× prune-by-one cells are all early 1×1
    /// layers).
    pub(crate) fn exec_efficiency_for(layer: &ConvLayerSpec, wg: [usize; 3]) -> f64 {
        let one_by_one = layer.kernel() == 1;
        let base = match wg[0] {
            x if x >= 4 => 1.0,
            2 => {
                if one_by_one {
                    0.72
                } else {
                    0.95
                }
            }
            _ => {
                if one_by_one {
                    0.52
                } else {
                    0.83
                }
            }
        };
        if wg[0] == 1 && one_by_one {
            let narrowness = (layer.c_in() as f64 / 256.0).min(1.0);
            base * (0.45 + 0.55 * narrowness)
        } else {
            base
        }
    }

    /// Cache behaviour of the nested loop: weights are reused across output
    /// pixels (high hit rate), and input patches are re-read once per
    /// output channel, so the more channels survive, the more of those
    /// reads hit in L2. This is what saturates the achievable speedup —
    /// pruning removes arithmetic linearly but barely reduces DRAM traffic
    /// (Figs 10/11 top out around 15×, not at the channel ratio).
    fn cache_hit_for(layer: &ConvLayerSpec) -> f64 {
        let weight_hit = if layer.kernel() > 1 { 0.90 } else { 0.85 };
        let input_hit = 1.0 - 1.0 / (layer.c_out().min(64) as f64);
        (weight_hit + input_hit) / 2.0
    }
}

impl AclDirect {
    /// Builds the direct-convolution kernel for an explicit workgroup shape
    /// (used both by the heuristic plan and by [`crate::AclDirectTuned`]'s
    /// exhaustive search).
    pub(crate) fn kernel_with_workgroup(layer: &ConvLayerSpec, wg: [usize; 3]) -> KernelDesc {
        let (out_h, out_w) = layer.out_hw();
        let taps = layer.taps();
        let coalescing = Self::coalescing_for(layer, wg);
        KernelDesc::builder(format!(
            "direct_convolution{k}x{k}_nhwc",
            k = layer.kernel()
        ))
        .global([out_w, out_h, layer.c_out()])
        .local(wg)
        // Every output element runs the full nested loop.
        .arith_per_item(taps as u64 * DIRECT_INSTR_PER_MAC)
        // One input read and one weight read per tap.
        .mem_per_item(2 * taps as u64)
        .cache_hit(Self::cache_hit_for(layer))
        .coalescing(coalescing)
        .exec_efficiency(Self::exec_efficiency_for(layer, wg))
        // Edge lanes are predicated off: instruction counts track the
        // active NDRange (Table V: ~1% growth per added channel).
        .padded_accounting(false)
        .footprint_bytes(
            ((layer.h_in() * layer.w_in() * layer.c_in()
                + taps * layer.c_out()
                + out_h * out_w * layer.c_out())
                * 4) as u64,
        )
        .build()
    }
}

impl ConvBackend for AclDirect {
    fn name(&self) -> &str {
        "ACL Direct"
    }

    fn plan(&self, layer: &ConvLayerSpec, _device: &Device) -> DispatchPlan {
        let wg = Self::workgroup_for(layer.c_out());
        let kernel = Self::kernel_with_workgroup(layer, wg);
        let mut plan =
            DispatchPlan::new(self.name(), "direct", JobChain::from_kernels(vec![kernel]));
        plan.add_note(format!(
            "workgroup {wg:?} selected for c_out={} (divisibility heuristic)",
            layer.c_out()
        ));
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruneperf_models::resnet50;

    fn device() -> Device {
        Device::mali_g72_hikey970()
    }

    #[test]
    fn table5_workgroup_selection() {
        // Table V: 90 -> 2x1x8, 91 -> 1x1x8, 92 -> 4x1x1, 93 -> 1x1x8.
        assert_eq!(AclDirect::workgroup_for(90), [2, 1, 8]);
        assert_eq!(AclDirect::workgroup_for(91), [1, 1, 8]);
        assert_eq!(AclDirect::workgroup_for(92), [4, 1, 1]);
        assert_eq!(AclDirect::workgroup_for(93), [1, 1, 8]);
    }

    #[test]
    fn single_kernel_single_job() {
        let layer = resnet50().layer("ResNet.L16").unwrap().clone();
        let plan = AclDirect::new().plan(&layer, &device());
        assert_eq!(plan.chain().len(), 1);
        assert_eq!(
            plan.chain().jobs()[0].kernel().name(),
            "direct_convolution3x3_nhwc"
        );
    }

    /// Table V's runtime ordering for a 3×3 layer: even channel counts are
    /// close (≤ ~5% apart), odd ones ~1.1–1.4× slower.
    #[test]
    fn table5_three_levels_for_3x3() {
        let d = device();
        let b = AclDirect::new();
        let l16 = resnet50().layer("ResNet.L16").unwrap().clone();
        let t90 = b.latency_ms(&l16.with_c_out(90).unwrap(), &d);
        let t91 = b.latency_ms(&l16.with_c_out(91).unwrap(), &d);
        let t92 = b.latency_ms(&l16.with_c_out(92).unwrap(), &d);
        let t93 = b.latency_ms(&l16.with_c_out(93).unwrap(), &d);
        assert!((t90 / t92 - 1.0).abs() < 0.12, "t90 {t90:.3} t92 {t92:.3}");
        for (odd, even) in [(t91, t90), (t93, t92)] {
            let ratio = odd / even;
            assert!(
                (1.05..1.6).contains(&ratio),
                "odd/even ratio {ratio:.2} out of Table V band"
            );
        }
    }

    /// Fig 12: 1×1 layers show three levels spread up to ~1.9×.
    #[test]
    fn fig12_levels_for_1x1() {
        let d = device();
        let b = AclDirect::new();
        let l14 = resnet50().layer("ResNet.L14").unwrap().clone();
        let t_mult4 = b.latency_ms(&l14.with_c_out(400).unwrap(), &d);
        let t_mult2 = b.latency_ms(&l14.with_c_out(402).unwrap(), &d);
        let t_odd = b.latency_ms(&l14.with_c_out(401).unwrap(), &d);
        assert!(t_mult4 < t_mult2 && t_mult2 < t_odd);
        let spread = t_odd / t_mult4;
        assert!(
            (1.5..2.4).contains(&spread),
            "level spread {spread:.2} (paper: up to 1.9x)"
        );
    }

    /// Fig 10: pruning one channel from a stock (multiple-of-4) size drops
    /// onto the slow level — a slowdown, not a speedup.
    #[test]
    fn prune_by_one_hurts() {
        let d = device();
        let b = AclDirect::new();
        for label in ["ResNet.L1", "ResNet.L3", "ResNet.L16"] {
            let layer = resnet50().layer(label).unwrap().clone();
            let t0 = b.latency_ms(&layer, &d);
            let t1 = b.latency_ms(&layer.pruned_by(1).unwrap(), &d);
            assert!(
                t1 > t0,
                "{label}: prune-by-1 should slow down ({t1:.3} vs {t0:.3})"
            );
        }
    }

    /// Narrow early 1×1 layers suffer the worst prune-by-one penalty
    /// (Fig 10 shows 0.2–0.3x for L1/L3/L5 vs ~0.5x for later layers).
    #[test]
    fn narrow_layers_suffer_more() {
        let d = device();
        let b = AclDirect::new();
        let l1 = resnet50().layer("ResNet.L1").unwrap().clone(); // c_in 64
        let l47 = resnet50().layer("ResNet.L47").unwrap().clone(); // c_in 2048
        let slow1 = b.latency_ms(&l1.pruned_by(1).unwrap(), &d) / b.latency_ms(&l1, &d);
        let slow47 = b.latency_ms(&l47.pruned_by(1).unwrap(), &d) / b.latency_ms(&l47, &d);
        assert!(
            slow1 > slow47,
            "narrow L1 penalty {slow1:.2} should exceed wide L47 penalty {slow47:.2}"
        );
        assert!(
            slow1 > 2.0,
            "L1 penalty {slow1:.2} (paper: ~0.2x speedup = 5x)"
        );
    }

    /// Direct convolution is slower than the same layer via ACL GEMM
    /// (§IV-A2: “Direct Convolution is generally slower than all the other
    /// methods”).
    #[test]
    fn direct_is_slower_than_gemm() {
        use crate::AclGemm;
        let d = device();
        let l16 = resnet50().layer("ResNet.L16").unwrap().clone();
        let t_direct = AclDirect::new().latency_ms(&l16, &d);
        let t_gemm = AclGemm::new().latency_ms(&l16, &d);
        assert!(
            t_direct > t_gemm * 1.5,
            "direct {t_direct:.2} vs gemm {t_gemm:.2}"
        );
    }
}
