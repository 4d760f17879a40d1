//! A deterministic, event-driven, cycle-approximate embedded-GPU simulator.
//!
//! This crate stands in for the hardware of Radu et al. (IISWC 2019) — the
//! HiKey 970 (Mali G72), Odroid XU4 (Mali T628), Jetson TX2 and Jetson Nano
//! — and for the full-system Mali GPU simulator the paper uses for its
//! in-depth analysis (§IV-B, their reference \[22\]).
//!
//! The paper's anomalies are *dispatch-level* phenomena, so the simulator
//! models exactly the mechanisms the paper holds responsible:
//!
//! * **warp quantization** — work-items execute in fixed-width warps
//!   (quads of 4 on Mali, 32 on the Jetson GPUs);
//! * **wave quantization** — workgroups are scheduled onto a small number
//!   of cores, so kernel time moves in steps of whole waves;
//! * **occupancy-dependent latency hiding** — small dispatches leave memory
//!   latency exposed;
//! * **coalescing / issue efficiency** — workgroup shape changes memory and
//!   issue behaviour (ACL Direct's three execution levels, Table V);
//! * **job management overhead** — every job costs CPU→GPU communication,
//!   control-register traffic and an interrupt (Fig 18), and a job that
//!   needs its own submission pays a synchronization penalty — the cause of
//!   the ACL GEMM “two parallel staircases” (Figs 3, 14, 15).
//!
//! Execution is workgroup-granular: an event-driven scheduler assigns
//! workgroups to the earliest-available core and the kernel's makespan is
//! the last core's finish time. Everything is deterministic — run-to-run
//! jitter is layered on by `pruneperf-profiler`, never here.
//!
//! # Example
//!
//! ```
//! use pruneperf_gpusim::{Device, Engine, JobChain, KernelDesc};
//!
//! let device = Device::jetson_tx2();
//! let kernel = KernelDesc::builder("gemm_tile")
//!     .global([784, 4, 1])
//!     .local([32, 1, 1])
//!     .arith_per_item(1000)
//!     .mem_per_item(50)
//!     .build();
//! let report = Engine::new(&device).run_chain(&JobChain::from_kernels(vec![kernel]));
//! assert!(report.total_time_us() > 0.0);
//! assert_eq!(report.counters().jobs, 1);
//! ```

/// Chrome Trace Event Format export of simulator timelines.
pub mod chrome;
mod device;
mod engine;
mod job;
mod kernel;
mod metrics;
mod trace;

pub use chrome::{json_string, render_trace, ChromeEvent};
pub use device::{Device, DeviceBuilder};
pub use engine::{ChainCost, ChainScratch, Engine, KernelCost};
pub use job::{Job, JobChain};
pub use kernel::{KernelBuilder, KernelDesc};
pub use metrics::{ChainReport, KernelReport, SystemCounters};
pub use trace::{ChainTrace, TraceSpan};
