//! `pruneperf` — performance-aware CNN channel pruning for embedded GPUs.
//!
//! A Rust reproduction of Radu et al., *“Performance Aware Convolutional
//! Neural Network Channel Pruning for Embedded GPUs”* (IEEE IISWC 2019).
//!
//! This facade crate re-exports the workspace members so applications can
//! depend on a single crate:
//!
//! * [`tensor`] — NHWC tensors and reference convolution algorithms.
//! * [`models`] — ResNet-50 / VGG-16 / AlexNet layer catalogs with the
//!   paper's layer labels and channel-pruning transforms.
//! * [`gpusim`] — deterministic cycle-approximate embedded-GPU simulator
//!   (Mali G72/T628-like and Jetson TX2/Nano-like devices).
//! * [`backends`] — behavioural models of the ACL Direct, ACL GEMM, cuDNN
//!   and TVM convolution planners.
//! * [`profiler`] — OpenCL/CUDA-style kernel interception and median-of-N
//!   measurement.
//! * [`core`] — the paper's contribution: staircase analysis,
//!   speedup/slowdown heatmaps and the performance-aware pruning loop.
//!
//! # Quickstart
//!
//! ```
//! use pruneperf::prelude::*;
//!
//! // Profile ResNet-50 layer 16 with ACL GEMM on the HiKey 970 and pick
//! // channel counts on the right edge of each staircase step.
//! let device = Device::mali_g72_hikey970();
//! let layer = resnet50().layer("ResNet.L16").expect("catalog has L16").clone();
//! let backend = AclGemm::new();
//! let profiler = LayerProfiler::new(&device);
//! let curve = profiler.latency_curve(&backend, &layer, 1..=layer.c_out());
//! let staircase = Staircase::detect(&curve);
//! assert!(!staircase.optimal_points().is_empty());
//! ```

pub mod chaos;
pub mod cli;

pub use pruneperf_backends as backends;
pub use pruneperf_bench as bench;
pub use pruneperf_core as core;
pub use pruneperf_gpusim as gpusim;
pub use pruneperf_models as models;
pub use pruneperf_profiler as profiler;
pub use pruneperf_serve as serve;
pub use pruneperf_tensor as tensor;

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use pruneperf_backends::{AclDirect, AclDirectTuned, AclGemm, ConvBackend, Cudnn, Tvm};
    pub use pruneperf_core::{
        accuracy::AccuracyModel, analysis, LatencyCurve, PerfAwarePruner, Staircase,
        UninstructedPruner,
    };
    pub use pruneperf_gpusim::Device;
    pub use pruneperf_models::{alexnet, mobilenet_v1, resnet50, vgg16, ConvLayerSpec, Network};
    pub use pruneperf_profiler::LayerProfiler;
    pub use pruneperf_tensor::{Tensor, TensorError};
}
