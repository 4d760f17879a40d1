use crate::{ChainReport, Device, JobChain, KernelDesc, KernelReport, SystemCounters};

/// Executes job chains on a [`Device`] and produces timing plus counters.
///
/// # Timing model
///
/// Execution is workgroup-granular. For each kernel the engine derives a
/// per-workgroup cycle cost from the kernel's instruction mix, then an
/// event-driven scheduler assigns workgroups to the earliest-available core;
/// the kernel's GPU time is the makespan. The per-workgroup cost combines:
///
/// * **compute**: `warps × arith_per_item / pipes / exec_efficiency`, where
///   `pipes = lanes_per_core / warp_width` — warp-quantized SIMT issue;
/// * **memory bandwidth**: DRAM traffic after cache filtering, divided by
///   the core's fair bandwidth share and the coalescing efficiency;
/// * **exposed latency**: each memory instruction pays
///   `latency × (1 − hiding)` with hiding proportional to resident warps —
///   small dispatches cannot hide latency, which is what makes the split
///   remainder GEMM of §IV-B1 so much slower than its size suggests;
/// * a fixed per-workgroup launch overhead.
///
/// Job overheads (dispatch, separate submission) are CPU-side and serialize
/// with GPU execution, matching the paper's observation that “additional job
/// creation and dispatch … adds to the initialization cost on the GPU”.
///
/// # Cost vs. report paths
///
/// [`Engine::run_chain`] produces a full [`ChainReport`] (per-kernel
/// timeline entries with owned name strings). Callers that only need the
/// chain totals — the profiler's sweep loops issue tens of thousands of
/// such queries per `repro all` — should use [`Engine::chain_cost`] /
/// [`Engine::chain_cost_by`], which accumulate the same numbers in the
/// same order without allocating, so the results are bitwise identical to
/// the corresponding report totals.
#[derive(Debug, Clone)]
pub struct Engine<'d> {
    device: &'d Device,
}

/// Cost of one kernel on one device: the three scalars `run_chain` derives
/// per kernel beyond the kernel's own static instruction counts.
///
/// This is the unit the profiler memoizes for incremental sweeps: two
/// kernels that agree on every cost-relevant descriptor field
/// ([`KernelDesc::cost_equivalent`]) have bitwise-equal `KernelCost`s on
/// the same device, so a memoized cost can stand in for a recomputed one
/// without perturbing any downstream float.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// GPU execution time in µs (`gpu_cycles / clock_mhz`).
    pub gpu_us: f64,
    /// Exact (unrounded) GPU cycle count: `wg_cycles × waves`.
    pub gpu_cycles: f64,
    /// Kernel energy in µJ: arithmetic ops plus post-cache DRAM traffic.
    pub energy_uj: f64,
}

/// Aggregate cost of a job chain: the allocation-free counterpart of
/// [`ChainReport`] for callers that only need totals.
///
/// Produced by [`Engine::chain_cost`] / [`Engine::chain_cost_by`]. Fields
/// accumulate in the same order as `run_chain`, so [`Self::total_time_ms`]
/// and [`Self::total_energy_mj`] are bitwise identical to the
/// corresponding [`ChainReport`] accessors.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChainCost {
    /// End-to-end chain latency in µs, including dispatch overheads.
    pub total_time_us: f64,
    /// Sum of per-kernel energies in µJ, accumulated in chain order.
    pub kernel_energy_uj: f64,
    /// CPU/driver energy spent dispatching the chain, µJ.
    pub dispatch_energy_uj: f64,
}

impl ChainCost {
    /// End-to-end chain latency in milliseconds (the figures' unit).
    pub fn total_time_ms(&self) -> f64 {
        self.total_time_us / 1000.0
    }

    /// Total energy of the chain (GPU kernels + dispatch), millijoules.
    pub fn total_energy_mj(&self) -> f64 {
        (self.kernel_energy_uj + self.dispatch_energy_uj) / 1000.0
    }
}

/// Reusable struct-of-arrays scratch for chain simulation.
///
/// Per-kernel costs are stored as parallel columns indexed by job
/// position, and the list scheduler's core-load array lives here too.
/// Capacity is retained across calls, so a caller that threads one
/// scratch through a sweep loop ([`Engine::run_chain_with`],
/// [`Engine::makespan_cycles_with`]) does no per-run allocation in the
/// simulation hot loop.
#[derive(Debug, Clone, Default)]
pub struct ChainScratch {
    gpu_us: Vec<f64>,
    gpu_cycles: Vec<f64>,
    energy_uj: Vec<f64>,
    core_loads: Vec<f64>,
}

impl ChainScratch {
    /// An empty scratch; columns grow on first use and are then reused.
    pub fn new() -> Self {
        ChainScratch::default()
    }

    fn reset(&mut self, len: usize) {
        self.gpu_us.clear();
        self.gpu_cycles.clear();
        self.energy_uj.clear();
        self.gpu_us.reserve(len);
        self.gpu_cycles.reserve(len);
        self.energy_uj.reserve(len);
    }
}

impl<'d> Engine<'d> {
    /// Creates an engine bound to a device.
    pub fn new(device: &'d Device) -> Self {
        Engine { device }
    }

    /// The device this engine simulates.
    pub fn device(&self) -> &Device {
        self.device
    }

    /// Cycles one workgroup of `kernel` takes on this device.
    ///
    /// # Partial dispatches (`workgroup_count < cores`)
    ///
    /// The two occupancy-dependent terms intentionally use different
    /// denominators, and the asymmetry is the model, not an accident:
    ///
    /// * **bandwidth share** divides DRAM bandwidth over the *occupied*
    ///   cores (`cores.min(workgroup_count)`): idle cores issue no
    ///   traffic, so a 6-workgroup dispatch on a 12-core device gives
    ///   each occupied core a 2× share and the dispatch as a whole still
    ///   sees full aggregate bandwidth;
    /// * **latency hiding** uses the per-core residency of the *busiest*
    ///   core (`workgroup_count.div_ceil(cores)`, capped by the
    ///   resident-thread budget). The busiest core is the one that
    ///   determines the makespan, and in the uneven regime
    ///   (`cores < workgroup_count < 2·cores`) it really does hold two
    ///   workgroups whose warps hide each other's latency — costing every
    ///   workgroup at the busiest core's residency is a deliberate,
    ///   slightly optimistic-on-stall / exact-on-critical-path choice.
    ///
    /// `partial_dispatch_tests` pins both behaviours.
    fn workgroup_cycles(&self, kernel: &KernelDesc) -> f64 {
        let d = self.device;
        let wg_size = kernel.workgroup_size();
        let warps = wg_size.div_ceil(d.warp_width());
        let pipes = (d.lanes_per_core() / d.warp_width()).max(1);

        // SIMT compute issue.
        let compute =
            warps as f64 * kernel.arith_per_item() as f64 / pipes as f64 / kernel.exec_efficiency();

        // DRAM bandwidth demand after cache filtering.
        let bytes = wg_size as f64
            * kernel.mem_per_item() as f64
            * kernel.bytes_per_mem() as f64
            * (1.0 - kernel.cache_hit());
        let active_cores = d.cores().min(kernel.workgroup_count().max(1));
        let share = d.dram_bytes_per_cycle() / active_cores as f64;
        let mem = bytes / share / kernel.coalescing();

        // Exposed memory latency under partial occupancy: a core can hold
        // workgroups up to its resident-thread budget, but never more than
        // its share of the dispatch.
        let occupancy_cap = (d.max_resident_threads() / wg_size).max(1);
        let resident_wgs = occupancy_cap.min(kernel.workgroup_count().div_ceil(d.cores()).max(1));
        let resident_warps = (warps * resident_wgs).max(1);
        let hiding = (resident_warps as f64 / d.latency_hiding_warps() as f64).min(1.0);
        let mem_warp_instrs = warps as f64 * kernel.mem_per_item() as f64;
        let stall = mem_warp_instrs * d.mem_latency_cycles() as f64 * (1.0 - hiding)
            / resident_warps as f64;

        compute.max(mem) + stall + d.wg_launch_cycles() as f64
    }

    /// GPU cycles for a whole kernel: greedy assignment of workgroups to
    /// the earliest-available core (list scheduling). All workgroups of one
    /// kernel cost the same, so the earliest-available-core schedule has a
    /// closed-form makespan: `ceil(workgroups / cores)` waves — exactly the
    /// wave quantization behind the cuDNN staircase steps.
    fn kernel_cycles(&self, kernel: &KernelDesc) -> f64 {
        let wg_cycles = self.workgroup_cycles(kernel);
        let waves = kernel.workgroup_count().div_ceil(self.device.cores());
        wg_cycles * waves as f64
    }

    /// Event-driven list scheduling for *heterogeneous* workgroup costs:
    /// assigns each cost to the earliest-available core and returns the
    /// makespan in cycles. Exposed for extensions (asymmetric core
    /// clusters, fused multi-kernel dispatches).
    ///
    /// Core loads accumulate exactly in `f64` — no quantization, no
    /// integer saturation. (An earlier implementation rounded each cost to
    /// integer milli-cycles, which truncated sub-milli-cycle costs to zero
    /// and silently saturated `u64` for huge ones.) Bitwise-uniform cost
    /// lists take a closed-form path, so the result is *exactly*
    /// `cost × ceil(len / cores)` — the wave formula behind
    /// [`Engine::kernel_time_us`].
    pub fn makespan_cycles(&self, wg_costs: &[f64]) -> f64 {
        self.makespan_cycles_with(wg_costs, &mut ChainScratch::new())
    }

    /// [`Engine::makespan_cycles`] with caller-owned scratch, so repeated
    /// scheduling (sweep loops, benches) reuses the core-load array.
    pub fn makespan_cycles_with(&self, wg_costs: &[f64], scratch: &mut ChainScratch) -> f64 {
        let Some((&first, rest)) = wg_costs.split_first() else {
            return 0.0;
        };
        let cores = self.device.cores();
        if rest.iter().all(|c| c.to_bits() == first.to_bits()) {
            // Uniform costs: closed-form wave makespan, exact by
            // construction rather than by accumulation.
            let waves = wg_costs.len().div_ceil(cores);
            return first * waves as f64;
        }
        let loads = &mut scratch.core_loads;
        loads.clear();
        loads.resize(cores, 0.0);
        for &cost in wg_costs {
            // Earliest-available core. Among tied minima any choice yields
            // the same load multiset (hence the same makespan); taking the
            // lowest index keeps the schedule deterministic.
            let mut min_core = 0;
            let mut min_load = loads[0];
            for (i, &load) in loads.iter().enumerate().skip(1) {
                if load < min_load {
                    min_core = i;
                    min_load = load;
                }
            }
            loads[min_core] += cost;
        }
        loads.iter().fold(0.0f64, |acc, &l| acc.max(l))
    }

    /// Runs one kernel in isolation and reports its GPU time in µs
    /// (no job-dispatch overhead).
    pub fn kernel_time_us(&self, kernel: &KernelDesc) -> f64 {
        self.kernel_cycles(kernel) / self.device.clock_mhz() as f64
    }

    /// Full per-kernel cost: time, exact cycles and energy in one pass.
    ///
    /// `gpu_cycles` is the exact `wg_cycles × waves` product — reports
    /// carry it through directly instead of re-deriving it from µs, which
    /// was a lossy round-trip that could drift by ±1 cycle.
    pub fn kernel_cost(&self, kernel: &KernelDesc) -> KernelCost {
        let d = self.device;
        let gpu_cycles = self.kernel_cycles(kernel);
        let gpu_us = gpu_cycles / d.clock_mhz() as f64;
        // Energy: ops + DRAM traffic. (pJ * count / 1e6 -> µJ.)
        let dram_bytes =
            kernel.total_mem() as f64 * kernel.bytes_per_mem() as f64 * (1.0 - kernel.cache_hit());
        let energy_uj =
            (kernel.total_arith() as f64 * d.pj_per_op() + dram_bytes * d.pj_per_dram_byte()) / 1e6;
        KernelCost {
            gpu_us,
            gpu_cycles,
            energy_uj,
        }
    }

    /// Chain totals with per-kernel costs supplied by `cost_of` — the
    /// incremental-profiling entry point: a memo can answer for kernels it
    /// has already costed and fall back to [`Engine::kernel_cost`] for the
    /// rest. Accumulation order matches [`Engine::run_chain`] exactly, so
    /// feeding back memoized [`KernelCost`]s reproduces the cold totals
    /// bit for bit.
    pub fn chain_cost_by<F>(&self, chain: &JobChain, mut cost_of: F) -> ChainCost
    where
        F: FnMut(&KernelDesc) -> KernelCost,
    {
        let d = self.device;
        let mut total = ChainCost::default();
        for (kernel, own_submission) in chain.iter() {
            let mut overhead = d.job_dispatch_us();
            if own_submission {
                overhead += d.job_sync_us();
            }
            let cost = cost_of(kernel);
            total.total_time_us += overhead + cost.gpu_us;
            // mW * µs = nJ; / 1000 -> µJ.
            total.dispatch_energy_uj += d.dispatch_mw() * overhead / 1e6;
            total.kernel_energy_uj += cost.energy_uj;
        }
        total
    }

    /// Chain totals without building a report: no strings, no vectors.
    /// Bitwise identical to the totals of [`Engine::run_chain`].
    pub fn chain_cost(&self, chain: &JobChain) -> ChainCost {
        self.chain_cost_by(chain, |k| self.kernel_cost(k))
    }

    /// Executes a chain of dependent jobs and reports the full timeline,
    /// instruction counts and system-level counters.
    pub fn run_chain(&self, chain: &JobChain) -> ChainReport {
        self.run_chain_with(chain, &mut ChainScratch::new())
    }

    /// [`Engine::run_chain`] with caller-owned scratch: per-kernel costs
    /// are computed into the scratch's struct-of-arrays columns first and
    /// the report is assembled from them, so loops that trace many chains
    /// (timelines, sweep events) reuse the cost buffers across calls.
    pub fn run_chain_with(&self, chain: &JobChain, scratch: &mut ChainScratch) -> ChainReport {
        let d = self.device;
        scratch.reset(chain.len());
        for (kernel, _) in chain.iter() {
            let cost = self.kernel_cost(kernel);
            scratch.gpu_us.push(cost.gpu_us);
            scratch.gpu_cycles.push(cost.gpu_cycles);
            scratch.energy_uj.push(cost.energy_uj);
        }
        let mut now_us = 0.0f64;
        let mut kernels = Vec::with_capacity(chain.len());
        let mut counters = SystemCounters::default();
        let mut dispatch_energy_uj = 0.0f64;
        if !chain.is_empty() {
            counters.submissions = 1;
        }
        for (i, job) in chain.jobs().iter().enumerate() {
            let kernel = job.kernel();
            let mut overhead = d.job_dispatch_us();
            if job.needs_own_submission() {
                overhead += d.job_sync_us();
                counters.submissions += 1;
            }
            let start = now_us;
            now_us += overhead + scratch.gpu_us[i];
            // CPU time spent dispatching. (mW * µs = nJ; / 1000 -> µJ.)
            dispatch_energy_uj += d.dispatch_mw() * overhead / 1e6;
            counters.jobs += 1;
            counters.interrupts += 1;
            counters.ctrl_reg_writes += d.ctrl_writes_per_job();
            counters.ctrl_reg_reads += d.ctrl_reads_per_job();
            kernels.push(KernelReport {
                name: kernel.name().to_string(),
                start_us: start,
                end_us: now_us,
                gpu_cycles: scratch.gpu_cycles[i].round() as u64,
                arith_instructions: kernel.total_arith(),
                mem_instructions: kernel.total_mem(),
                workgroups: kernel.workgroup_count(),
                footprint_bytes: kernel.footprint_bytes(),
                energy_uj: scratch.energy_uj[i],
            });
        }
        ChainReport::new(kernels, counters, now_us, dispatch_energy_uj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Job;

    fn device() -> Device {
        Device::mali_g72_hikey970()
    }

    fn compute_kernel(items: usize, arith: u64) -> KernelDesc {
        KernelDesc::builder("compute")
            .global([items, 1, 1])
            .local([4, 1, 1])
            .arith_per_item(arith)
            .build()
    }

    #[test]
    fn more_work_takes_longer() {
        let d = device();
        let e = Engine::new(&d);
        let small = e.kernel_time_us(&compute_kernel(4096, 50_000));
        let large = e.kernel_time_us(&compute_kernel(4096, 100_000));
        assert!(large > small * 1.8, "large {large} small {small}");
    }

    #[test]
    fn wave_quantization_steps() {
        // 12-core device: 12 workgroups and 13 workgroups differ by a full
        // wave; 13..24 workgroups all cost the same.
        let d = device();
        let e = Engine::new(&d);
        let k12 = KernelDesc::builder("k")
            .global([48, 1, 1])
            .local([4, 1, 1])
            .arith_per_item(10_000)
            .build();
        let k13 = KernelDesc::builder("k")
            .global([52, 1, 1])
            .local([4, 1, 1])
            .arith_per_item(10_000)
            .build();
        let k24 = KernelDesc::builder("k")
            .global([96, 1, 1])
            .local([4, 1, 1])
            .arith_per_item(10_000)
            .build();
        let t12 = e.kernel_time_us(&k12);
        let t13 = e.kernel_time_us(&k13);
        let t24 = e.kernel_time_us(&k24);
        assert!(t13 > t12 * 1.5, "t13 {t13} vs t12 {t12}");
        assert!((t24 - t13).abs() < t13 * 0.01, "t24 {t24} vs t13 {t13}");
    }

    #[test]
    fn poor_exec_efficiency_slows_compute_kernels() {
        let d = device();
        let e = Engine::new(&d);
        let fast = KernelDesc::builder("k")
            .global([4096, 1, 1])
            .local([4, 1, 1])
            .arith_per_item(100_000)
            .exec_efficiency(1.0)
            .build();
        let slow = KernelDesc::builder("k")
            .global([4096, 1, 1])
            .local([4, 1, 1])
            .arith_per_item(100_000)
            .exec_efficiency(0.5)
            .build();
        let tf = e.kernel_time_us(&fast);
        let ts = e.kernel_time_us(&slow);
        assert!((ts / tf - 2.0).abs() < 0.2, "ratio {}", ts / tf);
    }

    #[test]
    fn small_dispatches_expose_memory_latency() {
        // Same total work split into many small vs few large workgroups:
        // identical instruction counts, but the tiny dispatch hides less
        // latency per resident warp.
        let d = device();
        let e = Engine::new(&d);
        let tiny = KernelDesc::builder("k")
            .global([48, 1, 1])
            .local([4, 1, 1])
            .arith_per_item(100)
            .mem_per_item(50)
            .build();
        let cozy = KernelDesc::builder("k")
            .global([48, 1, 1])
            .local([16, 1, 1])
            .arith_per_item(100)
            .mem_per_item(50)
            .build();
        // Per-item cost identical; tiny has 12 wgs of 1 warp, cozy 3 wgs of
        // 4 warps. Residency: tiny 1 wg/core resident => 1 warp; cozy 1 wg
        // of 4 warps => more hiding.
        let t_tiny = e.kernel_time_us(&tiny) * tiny.workgroup_count() as f64;
        let t_cozy = e.kernel_time_us(&cozy) * cozy.workgroup_count() as f64;
        // Compare per-workgroup stall contribution indirectly.
        assert!(t_tiny > t_cozy, "tiny {t_tiny} cozy {t_cozy}");
    }

    #[test]
    fn memory_bound_kernels_track_bandwidth() {
        let d = device();
        let e = Engine::new(&d);
        let k = KernelDesc::builder("memcpyish")
            .global([1 << 16, 1, 1])
            .local([64, 1, 1])
            .mem_per_item(64)
            .bytes_per_mem(4)
            .build();
        let t_us = e.kernel_time_us(&k);
        let bytes = (1u64 << 16) * 64 * 4;
        let ideal_us = bytes as f64 / (d.dram_gbs() * 1e3); // GB/s -> bytes/µs
        assert!(t_us >= ideal_us, "t {t_us} ideal {ideal_us}");
        assert!(t_us < ideal_us * 4.0, "t {t_us} ideal {ideal_us}");
    }

    #[test]
    fn chain_accumulates_counters_and_time() {
        let d = device();
        let e = Engine::new(&d);
        let mut chain =
            JobChain::from_kernels(vec![compute_kernel(1024, 100), compute_kernel(1024, 100)]);
        chain.push(Job::with_own_submission(compute_kernel(64, 10)));
        let r = e.run_chain(&chain);
        assert_eq!(r.counters().jobs, 3);
        assert_eq!(r.counters().interrupts, 3);
        assert_eq!(r.counters().submissions, 2);
        assert_eq!(r.counters().ctrl_reg_writes, 3 * d.ctrl_writes_per_job());
        // Separate submission adds the sync penalty.
        assert!(r.total_time_us() > d.job_sync_us());
        // Timeline is contiguous and ordered.
        let ks = r.kernels();
        assert_eq!(ks.len(), 3);
        assert!(ks.windows(2).all(|w| w[0].end_us <= w[1].start_us + 1e-9));
    }

    #[test]
    fn instruction_counts_flow_through_reports() {
        let d = device();
        let e = Engine::new(&d);
        let k = compute_kernel(1024, 7);
        let r = e.run_chain(&JobChain::from_kernels(vec![k.clone()]));
        assert_eq!(r.kernels()[0].arith_instructions, k.total_arith());
        assert_eq!(r.total_arith(), 1024 * 7);
    }

    #[test]
    fn determinism() {
        let d = device();
        let e = Engine::new(&d);
        let chain = JobChain::from_kernels(vec![compute_kernel(4096, 123)]);
        let a = e.run_chain(&chain);
        let b = e.run_chain(&chain);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_chain_is_free() {
        let d = device();
        let r = Engine::new(&d).run_chain(&JobChain::new());
        assert_eq!(r.total_time_us(), 0.0);
        assert_eq!(r.counters().jobs, 0);
        assert_eq!(r.counters().submissions, 0);
    }

    #[test]
    fn faster_device_is_faster() {
        let tx2 = Device::jetson_tx2();
        let nano = Device::jetson_nano();
        let k = KernelDesc::builder("k")
            .global([1 << 14, 1, 1])
            .local([32, 1, 1])
            .arith_per_item(500)
            .build();
        let t_tx2 = Engine::new(&tx2).kernel_time_us(&k);
        let t_nano = Engine::new(&nano).kernel_time_us(&k);
        assert!(t_nano > t_tx2 * 1.5, "nano {t_nano} tx2 {t_tx2}");
    }

    #[test]
    fn gpu_cycles_are_carried_not_rederived() {
        // Reports must round the exact cycle product, not a µs round-trip.
        let d = device();
        let e = Engine::new(&d);
        let k = compute_kernel(4096, 12_345);
        let r = e.run_chain(&JobChain::from_kernels(vec![k.clone()]));
        let cost = e.kernel_cost(&k);
        assert_eq!(r.kernels()[0].gpu_cycles, cost.gpu_cycles.round() as u64);
        let waves = k.workgroup_count().div_ceil(d.cores());
        let exact = e.workgroup_cycles(&k) * waves as f64;
        assert_eq!(cost.gpu_cycles.to_bits(), exact.to_bits());
    }

    #[test]
    fn chain_cost_is_bitwise_identical_to_run_chain() {
        let d = device();
        let e = Engine::new(&d);
        let mut chain = JobChain::from_kernels(vec![
            compute_kernel(1024, 100),
            compute_kernel(4096, 777),
            KernelDesc::builder("mem")
                .global([2048, 1, 1])
                .local([32, 1, 1])
                .mem_per_item(64)
                .cache_hit(0.5)
                .build(),
        ]);
        chain.push(Job::with_own_submission(compute_kernel(64, 10)));
        let report = e.run_chain(&chain);
        let cost = e.chain_cost(&chain);
        assert_eq!(
            cost.total_time_ms().to_bits(),
            report.total_time_ms().to_bits()
        );
        assert_eq!(
            cost.total_energy_mj().to_bits(),
            report.total_energy_mj().to_bits()
        );
        assert_eq!(
            cost.dispatch_energy_uj.to_bits(),
            report.dispatch_energy_uj().to_bits()
        );
    }

    #[test]
    fn chain_cost_by_with_memoized_costs_matches_cold() {
        // Feeding back kernel costs captured on a first pass reproduces
        // the cold totals bit for bit — the incremental-sweep contract.
        let d = device();
        let e = Engine::new(&d);
        let chain = JobChain::from_kernels(vec![
            compute_kernel(1024, 100),
            compute_kernel(1024, 100),
            compute_kernel(512, 999),
        ]);
        let mut captured = Vec::new();
        let cold = e.chain_cost_by(&chain, |k| {
            let c = e.kernel_cost(k);
            captured.push(c);
            c
        });
        let mut replay = captured.into_iter();
        let warm = e.chain_cost_by(&chain, |_| replay.next().expect("captured cost"));
        assert_eq!(warm, cold);
    }

    #[test]
    fn run_chain_with_reused_scratch_matches_fresh() {
        let d = device();
        let e = Engine::new(&d);
        let big = JobChain::from_kernels(vec![compute_kernel(4096, 123); 8]);
        let small = JobChain::from_kernels(vec![compute_kernel(64, 5)]);
        let mut scratch = ChainScratch::new();
        // Reuse across chains of shrinking length: stale columns must not
        // leak into later, shorter runs.
        let a1 = e.run_chain_with(&big, &mut scratch);
        let a2 = e.run_chain_with(&small, &mut scratch);
        assert_eq!(a1, e.run_chain(&big));
        assert_eq!(a2, e.run_chain(&small));
    }
}

#[cfg(test)]
mod makespan_tests {
    use super::*;

    #[test]
    fn list_scheduler_matches_wave_formula_for_uniform_costs() {
        let d = Device::mali_g72_hikey970();
        let e = Engine::new(&d);
        let costs = vec![100.0; 25]; // 25 workgroups on 12 cores -> 3 waves
        let makespan = e.makespan_cycles(&costs);
        assert!((makespan - 300.0).abs() < 0.01, "{makespan}");
    }

    #[test]
    fn list_scheduler_balances_heterogeneous_costs() {
        let d = Device::jetson_tx2(); // 2 cores
        let e = Engine::new(&d);
        // One big workgroup and three small: optimal split 100 | 30+30+30.
        let makespan = e.makespan_cycles(&[100.0, 30.0, 30.0, 30.0]);
        assert!((makespan - 100.0).abs() < 0.01, "{makespan}");
        // Greedy earliest-available: big lands on core 0, smalls fill core 1.
        let makespan2 = e.makespan_cycles(&[30.0, 30.0, 100.0, 30.0]);
        assert!(makespan2 <= 130.0 + 0.01, "{makespan2}");
    }

    #[test]
    fn empty_cost_list_is_zero() {
        let d = Device::jetson_nano();
        assert_eq!(Engine::new(&d).makespan_cycles(&[]), 0.0);
    }

    #[test]
    fn uniform_fractional_costs_match_wave_formula_exactly() {
        // Regression: milli-cycle quantization truncated these to zero.
        let d = Device::mali_g72_hikey970(); // 12 cores
        let e = Engine::new(&d);
        let m = e.makespan_cycles(&[0.0001; 25]); // 3 waves
        assert_eq!(m.to_bits(), (0.0001f64 * 3.0).to_bits());
    }

    #[test]
    fn uniform_costs_match_kernel_time_wave_formula_bitwise() {
        // The doc contract: uniform-cost makespans equal wg_cycles × waves
        // exactly, so makespan-based timing agrees with kernel_time_us.
        let d = Device::mali_g72_hikey970();
        let e = Engine::new(&d);
        let k = KernelDesc::builder("k")
            .global([100, 1, 1])
            .local([4, 1, 1])
            .arith_per_item(3_333)
            .mem_per_item(17)
            .build();
        let wg = e.workgroup_cycles(&k);
        let costs = vec![wg; k.workgroup_count()];
        let makespan = e.makespan_cycles(&costs);
        assert_eq!(makespan.to_bits(), e.kernel_cycles(&k).to_bits());
        assert_eq!(
            (makespan / d.clock_mhz() as f64).to_bits(),
            e.kernel_time_us(&k).to_bits()
        );
    }

    #[test]
    fn huge_costs_do_not_saturate() {
        // Regression: 1e18 × 1024 overflowed the old integer accumulator.
        let d = Device::jetson_tx2(); // 2 cores
        let e = Engine::new(&d);
        let m = e.makespan_cycles(&[1.0e18, 2.0e18, 3.0e18]);
        assert_eq!(m, 4.0e18);
    }

    #[test]
    fn scratch_reuse_is_value_neutral() {
        let d = Device::mali_g72_hikey970();
        let e = Engine::new(&d);
        let mut scratch = ChainScratch::new();
        let costs = [3.5, 1.25, 9.0, 2.0, 2.0, 7.75];
        let a = e.makespan_cycles_with(&costs, &mut scratch);
        let b = e.makespan_cycles_with(&costs, &mut scratch);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(a.to_bits(), e.makespan_cycles(&costs).to_bits());
    }
}

#[cfg(test)]
mod makespan_proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Uniform-cost makespans equal the closed-form wave formula
        /// bit-for-bit for arbitrary core counts and cost magnitudes.
        #[test]
        fn uniform_makespan_equals_wave_formula(
            cores in 1usize..48,
            wgs in 1usize..300,
            mantissa in 1u64..(1u64 << 52),
            exp in 0u32..40,
        ) {
            // Spread magnitudes from sub-milli-cycle to ~1e12 cycles.
            let cost = mantissa as f64 * (2.0f64).powi(exp as i32 - 20);
            let d = Device::builder("prop").cores(cores).build();
            let e = Engine::new(&d);
            let costs = vec![cost; wgs];
            let expected = cost * wgs.div_ceil(cores) as f64;
            prop_assert_eq!(e.makespan_cycles(&costs).to_bits(), expected.to_bits());
        }

        /// Heterogeneous greedy schedules stay within the trivial
        /// envelopes: at least the max cost and the perfect split, at
        /// most the serial sum.
        #[test]
        fn heterogeneous_makespan_within_envelopes(
            cores in 1usize..16,
            costs in prop::collection::vec(0.01f64..1.0e6, 1..64),
        ) {
            let d = Device::builder("prop").cores(cores).build();
            let e = Engine::new(&d);
            let m = e.makespan_cycles(&costs);
            let total: f64 = costs.iter().sum();
            let max = costs.iter().cloned().fold(0.0f64, f64::max);
            prop_assert!(m >= max - 1e-9, "m {} max {}", m, max);
            prop_assert!(m >= total / cores as f64 - 1e-9, "m {} lb {}", m, total / cores as f64);
            prop_assert!(m <= total + 1e-9, "m {} total {}", m, total);
        }
    }
}

#[cfg(test)]
mod partial_dispatch_tests {
    use super::*;

    fn mem_kernel(items: usize) -> KernelDesc {
        KernelDesc::builder("mem")
            .global([items, 1, 1])
            .local([4, 1, 1])
            .mem_per_item(256)
            .bytes_per_mem(4)
            .build()
    }

    #[test]
    fn bandwidth_share_uses_occupied_cores_only() {
        // wgs < cores: idle cores issue no DRAM traffic, so shrinking the
        // dispatch grows each occupied core's bandwidth share and the
        // per-workgroup memory time falls monotonically.
        let d = Device::mali_g72_hikey970(); // 12 cores
        let e = Engine::new(&d);
        let wg3 = e.workgroup_cycles(&mem_kernel(3 * 4));
        let wg6 = e.workgroup_cycles(&mem_kernel(6 * 4));
        let wg12 = e.workgroup_cycles(&mem_kernel(12 * 4));
        assert!(wg3 < wg6, "wg3 {wg3} wg6 {wg6}");
        assert!(wg6 < wg12, "wg6 {wg6} wg12 {wg12}");
    }

    #[test]
    fn latency_hiding_tracks_the_busiest_core() {
        // cores < wgs < 2·cores: the busiest core holds two resident
        // workgroups whose warps hide each other's latency, so per-
        // workgroup cost *drops* across the 12 -> 13 boundary even though
        // bandwidth share is unchanged (active cores saturated at 12).
        let d = Device::mali_g72_hikey970(); // 12 cores
        let e = Engine::new(&d);
        let wg12 = e.workgroup_cycles(&mem_kernel(12 * 4));
        let wg13 = e.workgroup_cycles(&mem_kernel(13 * 4));
        assert!(wg13 < wg12, "wg13 {wg13} wg12 {wg12}");
        // The kernel as a whole still pays for the extra wave.
        let t12 = e.kernel_time_us(&mem_kernel(12 * 4));
        let t13 = e.kernel_time_us(&mem_kernel(13 * 4));
        assert!(t13 > t12, "t13 {t13} t12 {t12}");
    }
}

#[cfg(test)]
mod energy_tests {
    use super::*;
    use crate::Job;

    fn kernel(arith: u64, mem: u64) -> KernelDesc {
        KernelDesc::builder("k")
            .global([1024, 1, 1])
            .local([4, 1, 1])
            .arith_per_item(arith)
            .mem_per_item(mem)
            .build()
    }

    #[test]
    fn energy_scales_with_arithmetic() {
        let d = Device::mali_g72_hikey970();
        let e = Engine::new(&d);
        let small = e.run_chain(&JobChain::from_kernels(vec![kernel(100, 0)]));
        let large = e.run_chain(&JobChain::from_kernels(vec![kernel(200, 0)]));
        let small_kernel_uj = small.kernels()[0].energy_uj;
        let large_kernel_uj = large.kernels()[0].energy_uj;
        assert!((large_kernel_uj / small_kernel_uj - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cache_hits_save_dram_energy() {
        let d = Device::jetson_tx2();
        let e = Engine::new(&d);
        let cold = KernelDesc::builder("k")
            .global([1024, 1, 1])
            .local([32, 1, 1])
            .mem_per_item(100)
            .cache_hit(0.0)
            .build();
        let warm = KernelDesc::builder("k")
            .global([1024, 1, 1])
            .local([32, 1, 1])
            .mem_per_item(100)
            .cache_hit(0.9)
            .build();
        let cold_uj = e.run_chain(&JobChain::from_kernels(vec![cold])).kernels()[0].energy_uj;
        let warm_uj = e.run_chain(&JobChain::from_kernels(vec![warm])).kernels()[0].energy_uj;
        assert!(cold_uj > warm_uj * 5.0, "cold {cold_uj} warm {warm_uj}");
    }

    #[test]
    fn separate_submissions_cost_dispatch_energy() {
        let d = Device::mali_g72_hikey970();
        let e = Engine::new(&d);
        let plain = e.run_chain(&JobChain::from_kernels(vec![kernel(10, 0)]));
        let mut chain = JobChain::new();
        chain.push(Job::with_own_submission(kernel(10, 0)));
        let synced = e.run_chain(&chain);
        assert!(synced.dispatch_energy_uj() > plain.dispatch_energy_uj() * 2.0);
        assert!(synced.total_energy_mj() > plain.total_energy_mj());
    }

    #[test]
    fn energy_is_deterministic_and_positive() {
        let d = Device::jetson_nano();
        let e = Engine::new(&d);
        let chain = JobChain::from_kernels(vec![kernel(50, 5)]);
        let a = e.run_chain(&chain).total_energy_mj();
        let b = e.run_chain(&chain).total_energy_mj();
        assert_eq!(a, b);
        assert!(a > 0.0);
    }
}
