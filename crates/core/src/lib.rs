//! Performance-aware channel pruning — the contribution of Radu et al.
//! (IISWC 2019), built on the simulated devices, library planner models and
//! profilers of the sibling crates.
//!
//! The paper's proposal (§II-B, §V): channel pruning should not only ask
//! *how many channels can accuracy spare* but also *which channel counts
//! the library/hardware stack executes efficiently*. Inference time vs.
//! channel count is a staircase; “ideally, one should aim to choose the
//! number of channels of a convolutional layer such that it falls to the
//! right side of a performance step (more channels for the same execution
//! time budget)”, and some counts must be avoided outright because they
//! trigger pathological library decisions (up to 2× slower than the
//! *unpruned* layer).
//!
//! What lives here:
//!
//! * [`Staircase`] — step detection and optimal-point extraction from a
//!   profiled [`LatencyCurve`];
//! * [`analysis`] — the speedup/slowdown heatmaps of Figs 1, 6, 8–11, 13,
//!   16, 17, 19;
//! * [`accuracy`] — a deterministic accuracy surrogate standing in for the
//!   retraining loop (see `DESIGN.md` §2 for the substitution argument);
//! * [`PerfAwarePruner`] — the profiling-in-the-loop pruning algorithm,
//!   with [`UninstructedPruner`] as the accuracy-only baseline it beats;
//! * [`search`] — whole-network multi-objective search (exhaustive, beam,
//!   evolutionary) over the joint per-layer staircase candidates, with a
//!   [`search::ParetoArchive`] maintaining the 3-D non-dominated front.
//!
//! # Example
//!
//! ```
//! use pruneperf_backends::AclGemm;
//! use pruneperf_core::Staircase;
//! use pruneperf_gpusim::Device;
//! use pruneperf_models::resnet50;
//! use pruneperf_profiler::LayerProfiler;
//!
//! let device = Device::mali_g72_hikey970();
//! let layer = resnet50().layer("ResNet.L16").unwrap().clone();
//! let curve = LayerProfiler::new(&device).latency_curve(&AclGemm::new(), &layer, 1..=128);
//! let staircase = Staircase::detect(&curve);
//! // Pruning candidates sit on the right edges of the steps.
//! assert!(staircase.optimal_points().iter().any(|p| p.channels == 96));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod analysis;
mod pareto;
mod pruner;
pub mod report;
pub mod search;
pub mod sensitivity;
pub mod shootout;
mod staircase;
pub mod testkit;

pub use pareto::pareto_front;
pub use pruner::{Keeps, PerfAwarePruner, PruningPlan, UninstructedPruner};
pub use staircase::{OptimalPoint, Staircase, Step};

// Re-export the profiling vocabulary so `pruneperf-core` is usable alone.
pub use pruneperf_profiler::{LatencyCurve, LayerProfiler, Measurement};
