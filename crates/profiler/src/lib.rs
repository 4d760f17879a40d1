//! Kernel-level profiling over the simulated devices (§III-C).
//!
//! The paper measures with two custom profilers:
//!
//! * an **OpenCL interceptor** that hooks every OpenCL call to observe when
//!   each kernel starts and finishes on the GPU, its name and its memory
//!   footprint (§III-C1) — modelled by [`Timeline`];
//! * **CUDA event timers** for cuDNN tasks, cross-checked against `nvprof`
//!   (§III-C2) — same [`Timeline`] interface on the Jetson devices.
//!
//! Methodology follows §III-D: “the median time of 10 runs is reported for
//! each configuration”. Run-to-run jitter is modelled with a deterministic,
//! seeded noise process layered *on top of* the deterministic simulator, so
//! measurements look like board measurements but experiments reproduce
//! bit-exactly. Use [`LayerProfiler::noiseless`] to strip the noise.
//!
//! # Example
//!
//! ```
//! use pruneperf_backends::AclGemm;
//! use pruneperf_gpusim::Device;
//! use pruneperf_models::resnet50;
//! use pruneperf_profiler::LayerProfiler;
//!
//! let device = Device::mali_g72_hikey970();
//! let layer = resnet50().layer("ResNet.L16").unwrap().clone();
//! let profiler = LayerProfiler::new(&device);
//! let curve = profiler.latency_curve(&AclGemm::new(), &layer, 60..=128);
//! assert_eq!(curve.points().len(), 69);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod curve;
pub mod faults;
mod incremental;
mod measurement;
mod profiler;
mod runner;
pub mod stats;
pub mod sweep;
mod table;
mod timeline;

pub use cache::{CacheReloadError, CacheShardStats, CacheStats, LatencyCache};
pub use curve::{CurveError, CurveGap, CurvePoint, LatencyCurve, PartialCurve};
pub use faults::{FaultKind, FaultPlan, FaultyBackend, RetryOutcome, RetryPolicy};
pub use incremental::EngineStats;
pub use measurement::Measurement;
pub use profiler::{LayerProfiler, MeasureError};
pub use runner::{
    FailedLayer, LayerCost, LayerTrace, NetworkReport, NetworkRunner, PartialNetworkReport,
    RunTrace, ThermalGovernor,
};
pub use stats::{SiteCounters, Stats, StatsSnapshot};
pub use timeline::Timeline;
