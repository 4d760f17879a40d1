//! cuDNN (v7) forward-convolution model for the Jetson devices (§IV-A1).
//!
//! cuDNN tiles the implicit GEMM over 32×32 output tiles (32 spatial rows ×
//! 32 output channels) and schedules whole *waves* of thread blocks onto
//! the device's SMs — 2 on the TX2, 1 on the Nano. Inference time therefore
//! moves in flat steps of 32 channels with wave-quantized heights: exactly
//! the monotone staircases of Figs 2, 4, 5 and 7, including the 1.3× jump
//! between 96 and 97 channels of ResNet-50 layer 16 (25 M-tiles × 3 vs 4
//! N-tiles over 2 SMs ⇒ 38 vs 50 waves).
//!
//! Like `cudnnFindConvolutionForwardAlgorithm`, the planner *measures* its
//! candidate algorithms on the device model and picks the fastest:
//!
//! * `IMPLICIT_GEMM` — always available;
//! * `IMPLICIT_PRECOMP_GEMM` — precomputes gather indices in a small setup
//!   kernel; clearly better for 1×1 layers (no on-the-fly unrolling);
//! * `WINOGRAD` — considered for 3×3 stride-1 layers with ≥ 256 input
//!   channels (the regime where cuDNN v7's Winograd kernels apply).

use pruneperf_gpusim::{Device, Engine, Job, JobChain, KernelDesc};
use pruneperf_models::ConvLayerSpec;

use crate::{ConvBackend, DispatchPlan};

/// Output-channel tile width — the source of the 32-channel staircase.
const N_TILE: usize = 32;
/// Spatial tile height (rows of the im2col matrix per thread block).
const M_TILE: usize = 32;
/// Scalar-equivalent instructions per MAC in the GEMM inner loop.
const INSTR_PER_MAC: u64 = 10;

/// Forward algorithms the selector considers (cuDNN v7 naming).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CudnnAlgorithm {
    /// `CUDNN_CONVOLUTION_FWD_ALGO_IMPLICIT_GEMM`.
    ImplicitGemm,
    /// `CUDNN_CONVOLUTION_FWD_ALGO_IMPLICIT_PRECOMP_GEMM`.
    ImplicitPrecompGemm,
    /// `CUDNN_CONVOLUTION_FWD_ALGO_WINOGRAD`.
    Winograd,
}

impl CudnnAlgorithm {
    fn name(self) -> &'static str {
        match self {
            CudnnAlgorithm::ImplicitGemm => "implicit_gemm",
            CudnnAlgorithm::ImplicitPrecompGemm => "implicit_precomp_gemm",
            CudnnAlgorithm::Winograd => "winograd",
        }
    }
}

/// The cuDNN backend model.
///
/// ```
/// use pruneperf_backends::{ConvBackend, Cudnn};
/// use pruneperf_gpusim::Device;
/// use pruneperf_models::resnet50;
///
/// let layer = resnet50().layer("ResNet.L16").unwrap().clone();
/// let tx2 = Device::jetson_tx2();
/// let b = Cudnn::new();
/// // Flat 32-channel steps: 97..128 all cost the same.
/// let t128 = b.latency_ms(&layer, &tx2);
/// let t97 = b.latency_ms(&layer.with_c_out(97).unwrap(), &tx2);
/// assert!((t128 / t97 - 1.0).abs() < 0.02);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Cudnn {
    _private: (),
}

impl Cudnn {
    /// Creates the backend model.
    pub fn new() -> Self {
        Cudnn::default()
    }

    /// Candidate algorithms for a layer (availability rules).
    pub fn candidates(layer: &ConvLayerSpec) -> Vec<CudnnAlgorithm> {
        let mut c = vec![
            CudnnAlgorithm::ImplicitGemm,
            CudnnAlgorithm::ImplicitPrecompGemm,
        ];
        if layer.kernel() == 3 && layer.stride() == 1 && layer.c_in() >= 256 {
            c.push(CudnnAlgorithm::Winograd);
        }
        c
    }

    fn gemm_chain(layer: &ConvLayerSpec, algo: CudnnAlgorithm) -> JobChain {
        let (out_h, out_w) = layer.out_hw();
        let m = out_h * out_w;
        let k_dim = layer.taps();
        let m_tiles = m.div_ceil(M_TILE);
        let n_tiles = layer.c_out().div_ceil(N_TILE);
        let (eff, kernel_name) = match (algo, layer.kernel()) {
            (CudnnAlgorithm::ImplicitGemm, _) => (0.35, "implicit_gemm_conv"),
            (CudnnAlgorithm::ImplicitPrecompGemm, 1) => (0.70, "implicit_precomp_gemm_conv"),
            (CudnnAlgorithm::ImplicitPrecompGemm, _) => (0.38, "implicit_precomp_gemm_conv"),
            #[expect(
                clippy::unreachable,
                reason = "winograd is routed to its own chain before this match"
            )]
            (CudnnAlgorithm::Winograd, _) => unreachable!("winograd uses its own chain"),
        };
        let mut chain = JobChain::new();
        if algo == CudnnAlgorithm::ImplicitPrecompGemm {
            chain.push(Job::new(
                KernelDesc::builder("precomp_indices")
                    .global([m_tiles, 1, 1])
                    .local([32, 1, 1])
                    .arith_per_item(64)
                    .mem_per_item(16)
                    // The precomputed gather-index table: one offset per
                    // im2col row strip.
                    .footprint_bytes((m_tiles * M_TILE * 4) as u64)
                    .build(),
            ));
        }
        // One thread computes a 32-row strip of one output-channel column;
        // a block covers a 32x32 tile.
        chain.push(Job::new(
            KernelDesc::builder(kernel_name)
                .global([32, m_tiles, n_tiles])
                .local([32, 1, 1])
                .arith_per_item(M_TILE as u64 * k_dim as u64 * INSTR_PER_MAC)
                .mem_per_item(2 * k_dim as u64)
                .cache_hit(0.8)
                .coalescing(0.95)
                .exec_efficiency(eff)
                .footprint_bytes(
                    ((layer.h_in() * layer.w_in() * layer.c_in()
                        + k_dim * layer.c_out()
                        + m * layer.c_out())
                        * 4) as u64,
                )
                .build(),
        ));
        chain
    }

    fn winograd_chain(layer: &ConvLayerSpec) -> JobChain {
        let (out_h, out_w) = layer.out_hw();
        let tiles = out_h.div_ceil(2) * out_w.div_ceil(2);
        let c_in = layer.c_in();
        let c_out = layer.c_out();
        // F(2x2, 3x3): each tile transforms to a 4x4 patch, so the
        // transformed domain holds 16 floats per (tile, channel) pair.
        let input_bytes = (layer.h_in() * layer.w_in() * c_in * 4) as u64;
        let domain_in_bytes = (16 * tiles * c_in * 4) as u64;
        let domain_out_bytes = (16 * tiles * c_out * 4) as u64;
        let weights_bytes = (16 * c_in * c_out * 4) as u64;
        let transform_in = KernelDesc::builder("winograd_transform_input")
            .global([tiles, c_in.div_ceil(4), 1])
            .local([32, 1, 1])
            .arith_per_item(4 * 64)
            .mem_per_item(4 * 32)
            .cache_hit(0.5)
            .footprint_bytes(input_bytes + domain_in_bytes)
            .build();
        // 16 independent batched GEMMs over the transformed domain; channel
        // tiling stays at 32 so the staircase step width is unchanged.
        let gemm = KernelDesc::builder("winograd_batched_gemm")
            .global([tiles.div_ceil(4), c_out.div_ceil(N_TILE) * (N_TILE / 4), 16])
            .local([32, 1, 1])
            .arith_per_item(16 * c_in as u64 * 12)
            .mem_per_item(2 * c_in as u64)
            .cache_hit(0.75)
            .exec_efficiency(0.30)
            .footprint_bytes(domain_in_bytes + weights_bytes + domain_out_bytes)
            .build();
        let transform_out = KernelDesc::builder("winograd_transform_output")
            .global([tiles, c_out.div_ceil(4), 1])
            .local([32, 1, 1])
            .arith_per_item(4 * 48)
            .mem_per_item(4 * 20)
            .cache_hit(0.5)
            .footprint_bytes(domain_out_bytes + (out_h * out_w * c_out * 4) as u64)
            .build();
        JobChain::from_kernels(vec![transform_in, gemm, transform_out])
    }

    fn chain_for(layer: &ConvLayerSpec, algo: CudnnAlgorithm) -> JobChain {
        match algo {
            CudnnAlgorithm::Winograd => Self::winograd_chain(layer),
            _ => Self::gemm_chain(layer, algo),
        }
    }

    /// The algorithm `cudnnFind` would return: fastest measured candidate.
    pub fn select_algorithm(layer: &ConvLayerSpec, device: &Device) -> CudnnAlgorithm {
        let engine = Engine::new(device);
        let time = |a| engine.run_chain(&Self::chain_for(layer, a)).total_time_us();
        // The candidate list always opens with ImplicitGemm (availability
        // rules), so the search folds from a seeded best infallibly; `<=`
        // keeps min_by's later-candidate-wins tie behavior.
        let mut best = (
            CudnnAlgorithm::ImplicitGemm,
            time(CudnnAlgorithm::ImplicitGemm),
        );
        for a in Self::candidates(layer).into_iter().skip(1) {
            let t = time(a);
            if t <= best.1 {
                best = (a, t);
            }
        }
        best.0
    }
}

impl ConvBackend for Cudnn {
    fn name(&self) -> &str {
        "cuDNN"
    }

    fn plan(&self, layer: &ConvLayerSpec, device: &Device) -> DispatchPlan {
        let algo = Self::select_algorithm(layer, device);
        let chain = Self::chain_for(layer, algo);
        let mut plan = DispatchPlan::new(self.name(), algo.name(), chain);
        plan.add_note(format!(
            "selected {} for {} via measured candidates",
            algo.name(),
            layer.label()
        ));
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruneperf_models::resnet50;

    fn l16(c: usize) -> ConvLayerSpec {
        resnet50()
            .layer("ResNet.L16")
            .unwrap()
            .with_c_out(c)
            .unwrap()
    }

    #[test]
    fn winograd_gated_to_wide_3x3_stride1() {
        let net = resnet50();
        // L16: 3x3 but only 128 input channels -> no winograd candidate.
        assert!(!Cudnn::candidates(net.layer("ResNet.L16").unwrap())
            .contains(&CudnnAlgorithm::Winograd));
        // L29: 3x3 s1 cin=256 -> winograd considered.
        assert!(
            Cudnn::candidates(net.layer("ResNet.L29").unwrap()).contains(&CudnnAlgorithm::Winograd)
        );
        // L44: 3x3 but stride 2 -> no winograd.
        assert!(!Cudnn::candidates(net.layer("ResNet.L44").unwrap())
            .contains(&CudnnAlgorithm::Winograd));
    }

    /// Fig 4: flat steps of 32 channels on the TX2 — 97..128 equal, 96 is
    /// ~1.3x faster than 97, 64 steps down again.
    #[test]
    fn fig4_staircase_l16_tx2() {
        let d = Device::jetson_tx2();
        let b = Cudnn::new();
        let t128 = b.latency_ms(&l16(128), &d);
        let t97 = b.latency_ms(&l16(97), &d);
        let t96 = b.latency_ms(&l16(96), &d);
        let t65 = b.latency_ms(&l16(65), &d);
        let t64 = b.latency_ms(&l16(64), &d);
        assert!(
            (t128 / t97 - 1.0).abs() < 0.02,
            "flat within step: {t128} vs {t97}"
        );
        assert!(
            (t96 / t65 - 1.0).abs() < 0.02,
            "flat within step: {t96} vs {t65}"
        );
        let step = t97 / t96;
        assert!(
            (1.15..1.5).contains(&step),
            "96->97 step {step:.2} (paper: 1.3x)"
        );
        assert!(t96 > t64, "staircase is monotone");
    }

    /// Fig 4 absolute range: L16 lands in single-digit-to-low-teens ms.
    #[test]
    fn fig4_absolute_range() {
        let d = Device::jetson_tx2();
        let t = Cudnn::new().latency_ms(&l16(128), &d);
        assert!(
            (6.0..16.0).contains(&t),
            "L16@128 on TX2: {t:.2} ms (paper ~10.5)"
        );
    }

    /// Fig 5 vs Fig 7: the Nano shows the same staircase shape as the TX2,
    /// scaled by the device gap (~2.8x: half the SMs at a lower clock).
    #[test]
    fn fig7_nano_same_shape_scaled() {
        let l14 = resnet50().layer("ResNet.L14").unwrap().clone();
        let b = Cudnn::new();
        let tx2 = Device::jetson_tx2();
        let nano = Device::jetson_nano();
        let t_tx2 = b.latency_ms(&l14, &tx2);
        let t_nano = b.latency_ms(&l14, &nano);
        let ratio = t_nano / t_tx2;
        assert!(
            (2.0..4.5).contains(&ratio),
            "nano/tx2 ratio {ratio:.2} (paper ~3.5x)"
        );
        // Step positions coincide: both step down crossing a 32-boundary.
        let t480_tx2 = b.latency_ms(&l14.with_c_out(480).unwrap(), &tx2);
        let t481_tx2 = b.latency_ms(&l14.with_c_out(481).unwrap(), &tx2);
        let t480_nano = b.latency_ms(&l14.with_c_out(480).unwrap(), &nano);
        let t481_nano = b.latency_ms(&l14.with_c_out(481).unwrap(), &nano);
        assert!(t481_tx2 > t480_tx2 * 1.01);
        assert!(t481_nano > t480_nano * 1.01);
    }

    /// Within a 32-channel step the time is exactly flat (no vec4
    /// sub-structure like ACL): pruning < 32 channels from a stock size
    /// gives 1.0x, matching Fig 6's all-1.0 rows for Prune <= 31.
    #[test]
    fn fig6_no_speedup_below_step_width() {
        let d = Device::jetson_tx2();
        let b = Cudnn::new();
        let t0 = b.latency_ms(&l16(128), &d);
        for prune in [1usize, 3, 7, 15, 31] {
            let t = b.latency_ms(&l16(128 - prune), &d);
            assert!(
                ((t0 / t) - 1.0).abs() < 1e-9,
                "prune {prune}: expected flat, got {:.3}",
                t0 / t
            );
        }
        let t32 = b.latency_ms(&l16(128 - 32), &d);
        assert!(t0 / t32 > 1.1, "prune 32 crosses the step");
    }

    #[test]
    fn precomp_wins_for_1x1() {
        let d = Device::jetson_tx2();
        let l45 = resnet50().layer("ResNet.L45").unwrap().clone();
        assert_eq!(
            Cudnn::select_algorithm(&l45, &d),
            CudnnAlgorithm::ImplicitPrecompGemm
        );
    }

    #[test]
    fn plan_is_deterministic() {
        let d = Device::jetson_nano();
        let b = Cudnn::new();
        let l = l16(77);
        assert_eq!(b.plan(&l, &d), b.plan(&l, &d));
    }
}
