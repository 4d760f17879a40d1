use std::fmt;

use serde::{Deserialize, Serialize};

/// Static description of one embedded GPU plus the driver costs around it.
///
/// The four shipping descriptors correspond to the paper's §III-D devices.
/// Microarchitectural constants are approximations calibrated so that the
/// *reproduced* latencies land in the ranges of the paper's figures (see
/// `EXPERIMENTS.md`); they are not vendor-published numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Device {
    name: String,
    /// Shader cores (Mali) or streaming multiprocessors (Jetson).
    cores: usize,
    /// SIMT execution width: quads of 4 on Mali, warps of 32 on Jetson.
    warp_width: usize,
    /// Scalar f32 operations retired per cycle per core at full issue.
    lanes_per_core: usize,
    /// Shader clock in MHz.
    clock_mhz: u32,
    /// Work-items resident per core (occupancy ceiling).
    max_resident_threads: usize,
    /// Resident warps per core needed to fully hide memory latency.
    latency_hiding_warps: usize,
    /// Average DRAM access latency in core cycles.
    mem_latency_cycles: u32,
    /// Sustained DRAM bandwidth in GB/s.
    dram_gbs: f64,
    /// Last-level cache size in KiB (used by backends to pick hit rates).
    l2_kib: u32,
    /// CPU→GPU cost of creating and dispatching one job, in µs.
    job_dispatch_us: f64,
    /// Extra cost of a job that needs its own submission/flush, in µs.
    /// This is the penalty behind the ACL GEMM split staircase (Fig 18:
    /// “additional job creation and dispatch requires further communication
    /// between the CPU and GPU”).
    job_sync_us: f64,
    /// Control register writes the driver performs per job (Fig 18 counters).
    ctrl_writes_per_job: u64,
    /// Control register reads the driver performs per job.
    ctrl_reads_per_job: u64,
    /// Fixed workgroup launch overhead in cycles.
    wg_launch_cycles: u64,
    /// GPU-visible heap available to one inference, MiB (shared-memory SoCs
    /// reserve most DRAM for the OS; this is the practical buffer budget).
    gpu_heap_mib: u32,
    /// Energy per retired scalar operation, picojoules.
    pj_per_op: f64,
    /// Energy per DRAM byte transferred, picojoules.
    pj_per_dram_byte: f64,
    /// CPU+driver power while dispatching/synchronizing jobs, milliwatts.
    dispatch_mw: f64,
}

impl Device {
    /// Starts building a custom device from the HiKey 970 baseline —
    /// simulate *your* GPU by overriding the fields you know.
    ///
    /// ```
    /// use pruneperf_gpusim::Device;
    /// let custom = Device::builder("MyBoard (Mali G52 MP2)")
    ///     .cores(2)
    ///     .clock_mhz(850)
    ///     .dram_gbs(6.4)
    ///     .build();
    /// assert_eq!(custom.cores(), 2);
    /// ```
    pub fn builder(name: impl Into<String>) -> DeviceBuilder {
        DeviceBuilder {
            device: Device {
                name: name.into(),
                ..Device::mali_g72_hikey970()
            },
        }
    }

    /// HiKey 970 — Arm Mali G72 MP12 (the paper's primary OpenCL board).
    pub fn mali_g72_hikey970() -> Self {
        Device {
            name: "HiKey 970 (Mali G72 MP12)".into(),
            cores: 12,
            warp_width: 4,
            lanes_per_core: 12,
            clock_mhz: 767,
            max_resident_threads: 384,
            latency_hiding_warps: 16,
            mem_latency_cycles: 220,
            dram_gbs: 11.0,
            l2_kib: 1024,
            job_dispatch_us: 140.0,
            job_sync_us: 950.0,
            ctrl_writes_per_job: 58,
            ctrl_reads_per_job: 31,
            wg_launch_cycles: 280,
            gpu_heap_mib: 1024,
            pj_per_op: 12.0,
            pj_per_dram_byte: 40.0,
            dispatch_mw: 1800.0,
        }
    }

    /// Odroid XU4 — Arm Mali T628 MP6 (ACL uses the 4-core cluster).
    pub fn mali_t628_odroidxu4() -> Self {
        Device {
            name: "Odroid XU4 (Mali T628 MP6)".into(),
            cores: 4,
            warp_width: 4,
            lanes_per_core: 4,
            clock_mhz: 600,
            max_resident_threads: 256,
            latency_hiding_warps: 8,
            mem_latency_cycles: 280,
            dram_gbs: 5.5,
            l2_kib: 256,
            job_dispatch_us: 260.0,
            job_sync_us: 1600.0,
            ctrl_writes_per_job: 58,
            ctrl_reads_per_job: 31,
            wg_launch_cycles: 340,
            gpu_heap_mib: 256,
            pj_per_op: 26.0,
            pj_per_dram_byte: 55.0,
            dispatch_mw: 1500.0,
        }
    }

    /// Nvidia Jetson TX2 — 2-SM Pascal embedded GPU.
    pub fn jetson_tx2() -> Self {
        Device {
            name: "Jetson TX2 (Pascal, 2 SM)".into(),
            cores: 2,
            warp_width: 32,
            lanes_per_core: 128,
            clock_mhz: 1300,
            max_resident_threads: 2048,
            latency_hiding_warps: 24,
            mem_latency_cycles: 380,
            dram_gbs: 30.0,
            l2_kib: 512,
            job_dispatch_us: 35.0,
            job_sync_us: 320.0,
            ctrl_writes_per_job: 24,
            ctrl_reads_per_job: 12,
            wg_launch_cycles: 600,
            gpu_heap_mib: 4096,
            pj_per_op: 9.0,
            pj_per_dram_byte: 32.0,
            dispatch_mw: 2500.0,
        }
    }

    /// Nvidia Jetson Nano — 1-SM Maxwell embedded GPU.
    pub fn jetson_nano() -> Self {
        Device {
            name: "Jetson Nano (Maxwell, 1 SM)".into(),
            cores: 1,
            warp_width: 32,
            lanes_per_core: 128,
            clock_mhz: 921,
            max_resident_threads: 2048,
            latency_hiding_warps: 24,
            mem_latency_cycles: 420,
            dram_gbs: 14.0,
            l2_kib: 256,
            job_dispatch_us: 45.0,
            job_sync_us: 380.0,
            ctrl_writes_per_job: 24,
            ctrl_reads_per_job: 12,
            wg_launch_cycles: 600,
            gpu_heap_mib: 2048,
            pj_per_op: 10.0,
            pj_per_dram_byte: 34.0,
            dispatch_mw: 2200.0,
        }
    }

    /// All four paper devices, in the order they appear in §III-D.
    pub fn all_paper_devices() -> Vec<Device> {
        vec![
            Device::mali_g72_hikey970(),
            Device::mali_t628_odroidxu4(),
            Device::jetson_tx2(),
            Device::jetson_nano(),
        ]
    }

    /// Device name, e.g. `"HiKey 970 (Mali G72 MP12)"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Shader cores / SMs.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// SIMT width.
    pub fn warp_width(&self) -> usize {
        self.warp_width
    }

    /// Scalar ops per cycle per core.
    pub fn lanes_per_core(&self) -> usize {
        self.lanes_per_core
    }

    /// Shader clock in MHz.
    pub fn clock_mhz(&self) -> u32 {
        self.clock_mhz
    }

    /// Occupancy ceiling in work-items per core.
    pub fn max_resident_threads(&self) -> usize {
        self.max_resident_threads
    }

    /// Warps per core required to hide memory latency.
    pub fn latency_hiding_warps(&self) -> usize {
        self.latency_hiding_warps
    }

    /// DRAM latency in cycles.
    pub fn mem_latency_cycles(&self) -> u32 {
        self.mem_latency_cycles
    }

    /// Sustained DRAM bandwidth in GB/s.
    pub fn dram_gbs(&self) -> f64 {
        self.dram_gbs
    }

    /// Last-level cache size in KiB.
    pub fn l2_kib(&self) -> u32 {
        self.l2_kib
    }

    /// Per-job dispatch cost in µs.
    pub fn job_dispatch_us(&self) -> f64 {
        self.job_dispatch_us
    }

    /// Extra cost of a separately-submitted job in µs.
    pub fn job_sync_us(&self) -> f64 {
        self.job_sync_us
    }

    /// Driver control-register writes per job.
    pub fn ctrl_writes_per_job(&self) -> u64 {
        self.ctrl_writes_per_job
    }

    /// Driver control-register reads per job.
    pub fn ctrl_reads_per_job(&self) -> u64 {
        self.ctrl_reads_per_job
    }

    /// Fixed workgroup launch overhead in cycles.
    pub fn wg_launch_cycles(&self) -> u64 {
        self.wg_launch_cycles
    }

    /// GPU-visible heap budget, MiB.
    pub fn gpu_heap_mib(&self) -> u32 {
        self.gpu_heap_mib
    }

    /// GPU-visible heap budget, bytes.
    pub fn gpu_heap_bytes(&self) -> u64 {
        self.gpu_heap_mib as u64 * 1024 * 1024
    }

    /// Energy per retired scalar operation, picojoules.
    pub fn pj_per_op(&self) -> f64 {
        self.pj_per_op
    }

    /// Energy per DRAM byte transferred, picojoules.
    pub fn pj_per_dram_byte(&self) -> f64 {
        self.pj_per_dram_byte
    }

    /// CPU + driver power while dispatching jobs, milliwatts.
    pub fn dispatch_mw(&self) -> f64 {
        self.dispatch_mw
    }

    /// Peak scalar throughput in operations per µs.
    pub fn peak_ops_per_us(&self) -> f64 {
        self.cores as f64 * self.lanes_per_core as f64 * self.clock_mhz as f64
    }

    /// DRAM bytes transferred per core cycle, device-wide.
    pub fn dram_bytes_per_cycle(&self) -> f64 {
        self.dram_gbs * 1e9 / (self.clock_mhz as f64 * 1e6)
    }

    /// `true` for the CUDA-programmed Jetson devices.
    pub fn is_cuda(&self) -> bool {
        self.warp_width == 32
    }

    /// Ablation helper: a copy of the device with job dispatch and sync
    /// overheads removed (the job-overhead test in the bench crate's
    /// `tests/ablations.rs` uses it to size the extra job's share of the
    /// ACL GEMM split penalty, §IV-B1).
    pub fn without_job_overhead(&self) -> Device {
        let mut d = self.clone();
        d.job_dispatch_us = 0.0;
        d.job_sync_us = 0.0;
        d
    }

    /// Ablation helper: a copy with effectively unlimited resident warps so
    /// memory latency is always hidden (collapses occupancy effects).
    pub fn with_perfect_latency_hiding(&self) -> Device {
        let mut d = self.clone();
        d.latency_hiding_warps = 1;
        d
    }
}

/// Builder for custom [`Device`]s (defaults from the HiKey 970 profile).
#[derive(Debug, Clone)]
pub struct DeviceBuilder {
    device: Device,
}

impl DeviceBuilder {
    /// Shader cores / SMs.
    pub fn cores(mut self, v: usize) -> Self {
        self.device.cores = v;
        self
    }

    /// SIMT width (4 for Mali-style quads, 32 for CUDA warps).
    pub fn warp_width(mut self, v: usize) -> Self {
        self.device.warp_width = v;
        self
    }

    /// Scalar ops per cycle per core.
    pub fn lanes_per_core(mut self, v: usize) -> Self {
        self.device.lanes_per_core = v;
        self
    }

    /// Shader clock, MHz.
    pub fn clock_mhz(mut self, v: u32) -> Self {
        self.device.clock_mhz = v;
        self
    }

    /// Resident work-items per core.
    pub fn max_resident_threads(mut self, v: usize) -> Self {
        self.device.max_resident_threads = v;
        self
    }

    /// Warps needed to hide memory latency.
    pub fn latency_hiding_warps(mut self, v: usize) -> Self {
        self.device.latency_hiding_warps = v;
        self
    }

    /// DRAM latency, cycles.
    pub fn mem_latency_cycles(mut self, v: u32) -> Self {
        self.device.mem_latency_cycles = v;
        self
    }

    /// Sustained DRAM bandwidth, GB/s.
    pub fn dram_gbs(mut self, v: f64) -> Self {
        self.device.dram_gbs = v;
        self
    }

    /// Last-level cache, KiB.
    pub fn l2_kib(mut self, v: u32) -> Self {
        self.device.l2_kib = v;
        self
    }

    /// Per-job dispatch cost, µs.
    pub fn job_dispatch_us(mut self, v: f64) -> Self {
        self.device.job_dispatch_us = v;
        self
    }

    /// Separate-submission penalty, µs.
    pub fn job_sync_us(mut self, v: f64) -> Self {
        self.device.job_sync_us = v;
        self
    }

    /// Energy per scalar op, pJ.
    pub fn pj_per_op(mut self, v: f64) -> Self {
        self.device.pj_per_op = v;
        self
    }

    /// Energy per DRAM byte, pJ.
    pub fn pj_per_dram_byte(mut self, v: f64) -> Self {
        self.device.pj_per_dram_byte = v;
        self
    }

    /// GPU-visible heap budget, MiB.
    pub fn gpu_heap_mib(mut self, v: u32) -> Self {
        self.device.gpu_heap_mib = v;
        self
    }

    /// Finishes the device.
    ///
    /// # Panics
    ///
    /// Panics if any structural parameter is zero or non-positive.
    pub fn build(self) -> Device {
        let d = self.device;
        assert!(
            d.cores > 0
                && d.warp_width > 0
                && d.lanes_per_core > 0
                && d.clock_mhz > 0
                && d.max_resident_threads > 0
                && d.latency_hiding_warps > 0
                && d.dram_gbs > 0.0,
            "device parameters must be positive"
        );
        d
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} cores x {} lanes @ {} MHz)",
            self.name, self.cores, self.lanes_per_core, self.clock_mhz
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_paper_devices_exist() {
        let devices = Device::all_paper_devices();
        assert_eq!(devices.len(), 4);
        let names: Vec<&str> = devices.iter().map(|d| d.name()).collect();
        assert!(names.iter().any(|n| n.contains("G72")));
        assert!(names.iter().any(|n| n.contains("T628")));
        assert!(names.iter().any(|n| n.contains("TX2")));
        assert!(names.iter().any(|n| n.contains("Nano")));
    }

    #[test]
    fn mali_uses_quads_jetson_uses_warps() {
        assert_eq!(Device::mali_g72_hikey970().warp_width(), 4);
        assert_eq!(Device::mali_t628_odroidxu4().warp_width(), 4);
        assert_eq!(Device::jetson_tx2().warp_width(), 32);
        assert_eq!(Device::jetson_nano().warp_width(), 32);
        assert!(!Device::mali_g72_hikey970().is_cuda());
        assert!(Device::jetson_tx2().is_cuda());
    }

    #[test]
    fn tx2_outpaces_nano_and_g72_outpaces_t628() {
        // Matches the paper's device tiers (Fig 5 vs Fig 7, §IV-A2).
        assert!(Device::jetson_tx2().peak_ops_per_us() > Device::jetson_nano().peak_ops_per_us());
        assert!(
            Device::mali_g72_hikey970().peak_ops_per_us()
                > Device::mali_t628_odroidxu4().peak_ops_per_us()
        );
    }

    #[test]
    fn dram_bytes_per_cycle_is_consistent() {
        let d = Device::jetson_tx2();
        let expect = 30.0 * 1e9 / (1300.0 * 1e6);
        assert!((d.dram_bytes_per_cycle() - expect).abs() < 1e-9);
    }

    #[test]
    fn ablation_copies_strip_only_their_knob() {
        let base = Device::mali_g72_hikey970();
        let no_jobs = base.without_job_overhead();
        assert_eq!(no_jobs.job_dispatch_us(), 0.0);
        assert_eq!(no_jobs.job_sync_us(), 0.0);
        assert_eq!(no_jobs.cores(), base.cores());
        let hidden = base.with_perfect_latency_hiding();
        assert_eq!(hidden.latency_hiding_warps(), 1);
        assert_eq!(hidden.job_sync_us(), base.job_sync_us());
    }

    #[test]
    fn builder_overrides_selected_fields_only() {
        let custom = Device::builder("Custom")
            .cores(3)
            .clock_mhz(500)
            .dram_gbs(4.0)
            .build();
        assert_eq!(custom.name(), "Custom");
        assert_eq!(custom.cores(), 3);
        assert_eq!(custom.clock_mhz(), 500);
        // Untouched fields come from the G72 baseline.
        assert_eq!(
            custom.warp_width(),
            Device::mali_g72_hikey970().warp_width()
        );
        assert_eq!(
            custom.job_sync_us(),
            Device::mali_g72_hikey970().job_sync_us()
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn builder_rejects_zero_cores() {
        let _ = Device::builder("bad").cores(0).build();
    }

    #[test]
    fn device_serde_round_trip() {
        for d in Device::all_paper_devices() {
            let json = serde_json::to_string(&d).expect("serializes");
            let back: Device = serde_json::from_str(&json).expect("parses");
            assert_eq!(d, back);
        }
    }

    #[test]
    fn display_shows_core_configuration() {
        let s = Device::jetson_nano().to_string();
        assert!(s.contains("1 cores x 128 lanes"), "{s}");
    }
}
