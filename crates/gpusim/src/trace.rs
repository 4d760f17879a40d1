//! Event-level execution traces: which core ran which workgroups when.
//!
//! The paper's full-system simulator (§IV-B, their \[22\]) exposes exactly
//! this level of observability — job dispatch, per-core activity,
//! utilization — which aggregate timing hides. [`Engine::trace_chain`]
//! replays a job chain through the list scheduler and records one event per
//! (core, workgroup-batch) assignment, enabling utilization analysis and
//! the ASCII Gantt rendering used by the `simulator_deep_dive` example.
//!
//! Tracing batches contiguous same-cost workgroups per core (there can be
//! hundreds of thousands), so traces stay small while preserving the
//! schedule structure.

use serde::{Deserialize, Serialize};

use crate::{Device, Engine, JobChain};

/// One contiguous span of work executed by a core.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// Kernel the span belongs to.
    pub kernel: String,
    /// Core index.
    pub core: usize,
    /// Span start, µs from chain start.
    pub start_us: f64,
    /// Span end, µs.
    pub end_us: f64,
    /// Workgroups executed in the span.
    pub workgroups: usize,
}

/// A full chain execution trace.
///
/// ```
/// use pruneperf_gpusim::{Device, Engine, JobChain, KernelDesc};
///
/// let device = Device::jetson_tx2();
/// let kernel = KernelDesc::builder("k")
///     .global([640, 1, 1])
///     .local([32, 1, 1])
///     .arith_per_item(1000)
///     .build();
/// let trace = Engine::new(&device).trace_chain(&JobChain::from_kernels(vec![kernel]));
/// assert!(trace.utilization() > 0.0);
/// assert!(trace.gantt(40).contains("core  0"));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainTrace {
    device: String,
    cores: usize,
    spans: Vec<TraceSpan>,
    total_us: f64,
}

impl ChainTrace {
    /// Builds a trace from raw parts.
    ///
    /// Intended for tooling that needs to construct (possibly deliberately
    /// inconsistent) traces — e.g. the `pruneperf-analysis` schedule
    /// auditor's seeded-violation tests. [`Engine::trace_chain`] is the
    /// only producer of real traces.
    pub fn from_parts(device: &str, cores: usize, spans: Vec<TraceSpan>, total_us: f64) -> Self {
        ChainTrace {
            device: device.to_string(),
            cores,
            spans,
            total_us,
        }
    }

    /// Device the trace was recorded on.
    pub fn device(&self) -> &str {
        &self.device
    }

    /// Core count of the traced device.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Spans in dispatch order.
    pub fn spans(&self) -> &[TraceSpan] {
        &self.spans
    }

    /// Total traced duration, µs (including dispatch gaps).
    pub fn total_us(&self) -> f64 {
        self.total_us
    }

    /// Busy time of one core, µs.
    pub fn core_busy_us(&self, core: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.core == core)
            .map(|s| s.end_us - s.start_us)
            .sum()
    }

    /// Device-wide utilization in `[0, 1]`: busy core-time over
    /// `cores × total`.
    pub fn utilization(&self) -> f64 {
        if self.total_us <= 0.0 {
            return 0.0;
        }
        let busy: f64 = (0..self.cores).map(|c| self.core_busy_us(c)).sum();
        busy / (self.cores as f64 * self.total_us)
    }

    /// Renders an ASCII Gantt chart, `width` characters wide.
    ///
    /// Each row is a core; letters identify kernels in dispatch order
    /// (`a` = first kernel, `b` = second, …), `.` is idle time.
    pub fn gantt(&self, width: usize) -> String {
        let width = width.max(10);
        let mut kernel_order: Vec<&str> = Vec::new();
        for s in &self.spans {
            if !kernel_order.contains(&s.kernel.as_str()) {
                kernel_order.push(&s.kernel);
            }
        }
        let mut out = String::new();
        for core in 0..self.cores {
            let mut row = vec!['.'; width];
            for s in self.spans.iter().filter(|s| s.core == core) {
                let from = ((s.start_us / self.total_us) * width as f64) as usize;
                let to = (((s.end_us / self.total_us) * width as f64).ceil() as usize).min(width);
                #[expect(clippy::expect_used, reason = "kernel_order is built from these spans")]
                let idx = kernel_order
                    .iter()
                    .position(|k| *k == s.kernel)
                    .expect("kernel registered above");
                let glyph = (b'a' + (idx % 26) as u8) as char;
                for slot in row.iter_mut().take(to).skip(from) {
                    *slot = glyph;
                }
            }
            out.push_str(&format!("core {core:>2} |"));
            out.extend(row);
            out.push('\n');
        }
        out.push_str("legend: ");
        for (i, k) in kernel_order.iter().enumerate() {
            out.push_str(&format!("{}={k} ", (b'a' + (i % 26) as u8) as char));
        }
        out.push('\n');
        out
    }
}

impl Engine<'_> {
    /// Executes a chain and records the per-core schedule.
    ///
    /// The trace is consistent with [`Engine::run_chain`]: kernels start
    /// after their dispatch overhead and occupy `ceil(wgs / cores)` waves.
    pub fn trace_chain(&self, chain: &JobChain) -> ChainTrace {
        let d: &Device = self.device();
        let mut now_us = 0.0f64;
        let mut spans = Vec::new();
        for job in chain.jobs() {
            let kernel = job.kernel();
            let mut overhead = d.job_dispatch_us();
            if job.needs_own_submission() {
                overhead += d.job_sync_us();
            }
            now_us += overhead;
            let gpu_us = self.kernel_cost(kernel).gpu_us;
            let wgs = kernel.workgroup_count();
            let cores = d.cores();
            let waves = wgs.div_ceil(cores);
            let per_wave_us = gpu_us / waves as f64;
            for core in 0..cores.min(wgs) {
                let core_waves = if waves == 0 {
                    0
                } else if wgs % cores == 0 || core < wgs % cores {
                    waves
                } else {
                    waves - 1
                };
                if core_waves == 0 {
                    continue;
                }
                spans.push(TraceSpan {
                    kernel: kernel.name().to_string(),
                    core,
                    start_us: now_us,
                    end_us: now_us + per_wave_us * core_waves as f64,
                    workgroups: core_waves,
                });
            }
            now_us += gpu_us;
        }
        ChainTrace {
            device: d.name().to_string(),
            cores: d.cores(),
            spans,
            total_us: now_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelDesc;

    fn kernel(name: &str, items: usize) -> KernelDesc {
        KernelDesc::builder(name)
            .global([items, 1, 1])
            .local([4, 1, 1])
            .arith_per_item(10_000)
            .build()
    }

    #[test]
    fn trace_matches_run_chain_total() {
        let d = Device::mali_g72_hikey970();
        let e = Engine::new(&d);
        let chain = JobChain::from_kernels(vec![kernel("a", 4096), kernel("b", 512)]);
        let trace = e.trace_chain(&chain);
        let report = e.run_chain(&chain);
        assert!((trace.total_us() - report.total_time_us()).abs() < 1e-6);
    }

    #[test]
    fn spans_cover_all_cores_for_large_dispatches() {
        let d = Device::mali_g72_hikey970();
        let e = Engine::new(&d);
        let trace = e.trace_chain(&JobChain::from_kernels(vec![kernel("a", 4096)]));
        let cores_used: std::collections::HashSet<usize> =
            trace.spans().iter().map(|s| s.core).collect();
        assert_eq!(cores_used.len(), d.cores());
    }

    #[test]
    fn small_dispatches_leave_cores_idle() {
        let d = Device::mali_g72_hikey970(); // 12 cores
        let e = Engine::new(&d);
        // 3 workgroups -> only 3 cores busy.
        let trace = e.trace_chain(&JobChain::from_kernels(vec![kernel("a", 12)]));
        let cores_used: std::collections::HashSet<usize> =
            trace.spans().iter().map(|s| s.core).collect();
        assert_eq!(cores_used.len(), 3);
        assert!(trace.utilization() < 0.5);
    }

    #[test]
    fn utilization_reflects_dispatch_overhead() {
        let d = Device::mali_g72_hikey970();
        let e = Engine::new(&d);
        let busy = e.trace_chain(&JobChain::from_kernels(vec![kernel("a", 48_000)]));
        let tiny = e.trace_chain(&JobChain::from_kernels(vec![kernel("a", 12)]));
        assert!(busy.utilization() > 0.8, "{}", busy.utilization());
        assert!(tiny.utilization() < busy.utilization());
    }

    #[test]
    fn gantt_renders_rows_and_legend() {
        let d = Device::jetson_tx2();
        let e = Engine::new(&d);
        let chain = JobChain::from_kernels(vec![kernel("alpha", 640), kernel("beta", 64)]);
        let g = e.trace_chain(&chain).gantt(60);
        assert!(g.contains("core  0 |"), "{g}");
        assert!(g.contains("core  1 |"), "{g}");
        assert!(g.contains("a=alpha"), "{g}");
        assert!(g.contains("b=beta"), "{g}");
        // Idle dispatch gaps show as dots.
        assert!(g.contains('.'), "{g}");
    }

    #[test]
    fn single_core_device_traces_consistently() {
        let d = Device::jetson_nano(); // 1 core
        let e = Engine::new(&d);
        let chain = JobChain::from_kernels(vec![kernel("a", 640), kernel("b", 64)]);
        let trace = e.trace_chain(&chain);
        assert_eq!(trace.cores(), 1);
        assert!(trace.spans().iter().all(|s| s.core == 0));
        let u = trace.utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
        let report = e.run_chain(&chain);
        assert!((trace.total_us() - report.total_time_us()).abs() < 1e-6);
    }

    #[test]
    fn zero_arith_kernel_still_costs_launch_time() {
        let d = Device::mali_g72_hikey970();
        let e = Engine::new(&d);
        // No arithmetic and no memory traffic: workgroup launch cycles
        // alone must keep every span non-empty and utilization positive.
        let k = KernelDesc::builder("empty")
            .global([64, 1, 1])
            .local([4, 1, 1])
            .build();
        let trace = e.trace_chain(&JobChain::from_kernels(vec![k]));
        assert!(!trace.spans().is_empty());
        assert!(trace.spans().iter().all(|s| s.end_us > s.start_us));
        let u = trace.utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn gantt_width_one_clamps_and_renders() {
        let d = Device::jetson_tx2();
        let e = Engine::new(&d);
        let trace = e.trace_chain(&JobChain::from_kernels(vec![kernel("a", 640)]));
        // Degenerate width is clamped to a usable minimum, never panics.
        let g = trace.gantt(1);
        assert!(g.contains("core  0 |"), "{g}");
        assert!(g.contains("a=a"), "{g}");
        let u = trace.utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn empty_trace_from_parts_reports_zero_utilization() {
        let t = ChainTrace::from_parts("synthetic", 2, Vec::new(), 0.0);
        assert_eq!(t.utilization(), 0.0);
        assert_eq!(t.cores(), 2);
        assert_eq!(t.device(), "synthetic");
    }

    #[test]
    fn uneven_last_wave_is_shorter_on_some_cores() {
        let d = Device::jetson_tx2(); // 2 cores
        let e = Engine::new(&d);
        // 3 workgroups on 2 cores: core 0 gets 2 waves, core 1 gets 1.
        let trace = e.trace_chain(&JobChain::from_kernels(vec![kernel("a", 12)]));
        let c0 = trace.core_busy_us(0);
        let c1 = trace.core_busy_us(1);
        assert!(c0 > c1, "c0 {c0} c1 {c1}");
        assert!((c0 / c1 - 2.0).abs() < 0.01);
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;
    use crate::KernelDesc;

    #[test]
    fn trace_serializes() {
        let d = Device::jetson_tx2();
        let k = KernelDesc::builder("k")
            .global([64, 1, 1])
            .local([32, 1, 1])
            .arith_per_item(10)
            .build();
        let trace = Engine::new(&d).trace_chain(&JobChain::from_kernels(vec![k]));
        let json = serde_json::to_string(&trace).expect("serializes");
        let back: ChainTrace = serde_json::from_str(&json).expect("parses");
        assert_eq!(trace.spans().len(), back.spans().len());
        assert_eq!(json, serde_json::to_string(&back).expect("stable"));
    }
}
