use std::fmt;

use serde::{Deserialize, Serialize};

/// An abstract GPU kernel dispatch: NDRange geometry plus a per-work-item
/// instruction mix and execution-quality hints.
///
/// Backends (the ACL / cuDNN / TVM planner models) lower a convolution into
/// one or more `KernelDesc`s; the [`crate::Engine`] turns them into cycles
/// and counters. The instruction mix is *scalar-equivalent*: `arith_per_item`
/// counts retired scalar float/integer operations per work-item, so total
/// executed instructions are directly comparable to the paper's Tables I–IV.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelDesc {
    name: String,
    global: [usize; 3],
    local: [usize; 3],
    arith_per_item: u64,
    mem_per_item: u64,
    bytes_per_mem: u32,
    coalescing: f64,
    cache_hit: f64,
    exec_efficiency: f64,
    footprint_bytes: u64,
    padded_accounting: bool,
}

impl KernelDesc {
    /// Starts building a kernel with the given name.
    pub fn builder(name: impl Into<String>) -> KernelBuilder {
        KernelBuilder::new(name)
    }

    /// Kernel name as a profiler would report it (e.g. `"gemm_mm"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Global NDRange extents.
    pub fn global(&self) -> [usize; 3] {
        self.global
    }

    /// Workgroup (local) extents.
    pub fn local(&self) -> [usize; 3] {
        self.local
    }

    /// Scalar arithmetic instructions per work-item.
    pub fn arith_per_item(&self) -> u64 {
        self.arith_per_item
    }

    /// Memory instructions per work-item.
    pub fn mem_per_item(&self) -> u64 {
        self.mem_per_item
    }

    /// Bytes touched per memory instruction.
    pub fn bytes_per_mem(&self) -> u32 {
        self.bytes_per_mem
    }

    /// Memory coalescing efficiency in `(0, 1]`.
    pub fn coalescing(&self) -> f64 {
        self.coalescing
    }

    /// Fraction of memory traffic served by cache in `[0, 1)`.
    pub fn cache_hit(&self) -> f64 {
        self.cache_hit
    }

    /// Issue efficiency in `(0, 1]` (workgroup-shape and schedule quality).
    pub fn exec_efficiency(&self) -> f64 {
        self.exec_efficiency
    }

    /// Device-memory footprint of the dispatch in bytes (buffers bound).
    pub fn footprint_bytes(&self) -> u64 {
        self.footprint_bytes
    }

    /// Whether padded edge lanes count toward the instruction totals (see
    /// [`KernelBuilder::padded_accounting`]).
    pub fn padded_accounting(&self) -> bool {
        self.padded_accounting
    }

    /// Workgroups per NDRange dimension (`ceil(global / local)`).
    pub fn workgroup_dims(&self) -> [usize; 3] {
        [
            self.global[0].div_ceil(self.local[0]),
            self.global[1].div_ceil(self.local[1]),
            self.global[2].div_ceil(self.local[2]),
        ]
    }

    /// Total workgroups in the dispatch.
    pub fn workgroup_count(&self) -> usize {
        self.workgroup_dims().iter().product()
    }

    /// Work-items per workgroup.
    pub fn workgroup_size(&self) -> usize {
        self.local.iter().product()
    }

    /// Total work-items occupying lanes (edge workgroups run padded — real
    /// GPUs issue inactive lanes too, so *timing* always uses this).
    pub fn executed_items(&self) -> u64 {
        self.workgroup_count() as u64 * self.workgroup_size() as u64
    }

    /// Work-items in the global NDRange (without workgroup padding).
    pub fn active_items(&self) -> u64 {
        self.global.iter().map(|&g| g as u64).product()
    }

    /// Items charged to the instruction counters: padded items when the
    /// padding performs real work (GEMM's padded matrix columns — this is
    /// how Tables II/III count 96 columns for 93 channels), active items
    /// when edge lanes are predicated off (direct convolution — Table V's
    /// ~1%-per-channel instruction growth).
    fn accounted_items(&self) -> u64 {
        if self.padded_accounting {
            self.executed_items()
        } else {
            self.active_items()
        }
    }

    /// Total scalar arithmetic instructions retired by the dispatch.
    pub fn total_arith(&self) -> u64 {
        self.accounted_items() * self.arith_per_item
    }

    /// Total memory instructions retired by the dispatch.
    pub fn total_mem(&self) -> u64 {
        self.accounted_items() * self.mem_per_item
    }

    /// `true` if `other` is indistinguishable from `self` to the engine's
    /// cost model: every field that feeds timing or energy agrees. The
    /// kernel `name` and `footprint_bytes` are deliberately excluded —
    /// they label and size the dispatch but never change its cost, which
    /// is what lets a sweep share one memo entry across identically-shaped
    /// kernels from different layers.
    pub fn cost_equivalent(&self, other: &KernelDesc) -> bool {
        self.global == other.global
            && self.local == other.local
            && self.arith_per_item == other.arith_per_item
            && self.mem_per_item == other.mem_per_item
            && self.bytes_per_mem == other.bytes_per_mem
            && self.coalescing.to_bits() == other.coalescing.to_bits()
            && self.cache_hit.to_bits() == other.cache_hit.to_bits()
            && self.exec_efficiency.to_bits() == other.exec_efficiency.to_bits()
            && self.padded_accounting == other.padded_accounting
    }

    /// 64-bit digest over exactly the fields [`Self::cost_equivalent`]
    /// compares (splitmix64 fold, float fields by raw bits). Equal digests
    /// are a fast necessary condition for cost equivalence; memo tables
    /// key on the digest and confirm with `cost_equivalent`.
    pub fn cost_digest(&self) -> u64 {
        fn splitmix64(mut z: u64) -> u64 {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let mut h = 0u64;
        for v in self.global {
            h = splitmix64(h ^ v as u64);
        }
        for v in self.local {
            h = splitmix64(h ^ v as u64);
        }
        h = splitmix64(h ^ self.arith_per_item);
        h = splitmix64(h ^ self.mem_per_item);
        h = splitmix64(h ^ u64::from(self.bytes_per_mem));
        h = splitmix64(h ^ self.coalescing.to_bits());
        h = splitmix64(h ^ self.cache_hit.to_bits());
        h = splitmix64(h ^ self.exec_efficiency.to_bits());
        h = splitmix64(h ^ u64::from(self.padded_accounting));
        h
    }
}

impl fmt::Display for KernelDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} global {:?} local {:?}",
            self.name, self.global, self.local
        )
    }
}

/// Builder for [`KernelDesc`] (many optional knobs, validated at `build`).
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    name: String,
    global: [usize; 3],
    local: [usize; 3],
    arith_per_item: u64,
    mem_per_item: u64,
    bytes_per_mem: u32,
    coalescing: f64,
    cache_hit: f64,
    exec_efficiency: f64,
    footprint_bytes: u64,
    padded_accounting: bool,
}

impl KernelBuilder {
    fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            name: name.into(),
            global: [1, 1, 1],
            local: [1, 1, 1],
            arith_per_item: 0,
            mem_per_item: 0,
            bytes_per_mem: 4,
            coalescing: 1.0,
            cache_hit: 0.0,
            exec_efficiency: 1.0,
            footprint_bytes: 0,
            padded_accounting: true,
        }
    }

    /// Sets the global NDRange.
    pub fn global(mut self, global: [usize; 3]) -> Self {
        self.global = global;
        self
    }

    /// Sets the workgroup size.
    pub fn local(mut self, local: [usize; 3]) -> Self {
        self.local = local;
        self
    }

    /// Scalar arithmetic instructions per work-item.
    pub fn arith_per_item(mut self, n: u64) -> Self {
        self.arith_per_item = n;
        self
    }

    /// Memory instructions per work-item.
    pub fn mem_per_item(mut self, n: u64) -> Self {
        self.mem_per_item = n;
        self
    }

    /// Bytes per memory instruction (default 4).
    pub fn bytes_per_mem(mut self, n: u32) -> Self {
        self.bytes_per_mem = n;
        self
    }

    /// Coalescing efficiency (default 1.0).
    pub fn coalescing(mut self, c: f64) -> Self {
        self.coalescing = c;
        self
    }

    /// Cache hit fraction (default 0.0).
    pub fn cache_hit(mut self, h: f64) -> Self {
        self.cache_hit = h;
        self
    }

    /// Issue efficiency (default 1.0).
    pub fn exec_efficiency(mut self, e: f64) -> Self {
        self.exec_efficiency = e;
        self
    }

    /// Device-memory footprint in bytes.
    pub fn footprint_bytes(mut self, b: u64) -> Self {
        self.footprint_bytes = b;
        self
    }

    /// Whether padded edge lanes count toward instruction totals
    /// (default `true`; set `false` for kernels that predicate them off).
    pub fn padded_accounting(mut self, padded: bool) -> Self {
        self.padded_accounting = padded;
        self
    }

    /// Finishes the kernel description.
    ///
    /// # Panics
    ///
    /// Panics if any NDRange/local extent is zero, or an efficiency knob is
    /// outside its documented range — kernels are produced by backend code,
    /// so a bad value is a programming error, not user input.
    pub fn build(self) -> KernelDesc {
        assert!(
            self.global.iter().all(|&g| g > 0) && self.local.iter().all(|&l| l > 0),
            "kernel {} has a zero NDRange extent",
            self.name
        );
        assert!(
            self.coalescing > 0.0 && self.coalescing <= 1.0,
            "kernel {}: coalescing must be in (0, 1]",
            self.name
        );
        assert!(
            (0.0..1.0).contains(&self.cache_hit),
            "kernel {}: cache_hit must be in [0, 1)",
            self.name
        );
        assert!(
            self.exec_efficiency > 0.0 && self.exec_efficiency <= 1.0,
            "kernel {}: exec_efficiency must be in (0, 1]",
            self.name
        );
        KernelDesc {
            name: self.name,
            global: self.global,
            local: self.local,
            arith_per_item: self.arith_per_item,
            mem_per_item: self.mem_per_item,
            bytes_per_mem: self.bytes_per_mem,
            coalescing: self.coalescing,
            cache_hit: self.cache_hit,
            exec_efficiency: self.exec_efficiency,
            footprint_bytes: self.footprint_bytes,
            padded_accounting: self.padded_accounting,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k() -> KernelDesc {
        KernelDesc::builder("gemm_mm")
            .global([784, 24, 1])
            .local([4, 4, 1])
            .arith_per_item(100)
            .mem_per_item(10)
            .build()
    }

    #[test]
    fn workgroup_geometry() {
        let k = k();
        assert_eq!(k.workgroup_dims(), [196, 6, 1]);
        assert_eq!(k.workgroup_count(), 1176);
        assert_eq!(k.workgroup_size(), 16);
        assert_eq!(k.executed_items(), 1176 * 16);
    }

    #[test]
    fn partial_workgroups_round_up() {
        let k = KernelDesc::builder("edge")
            .global([10, 1, 1])
            .local([4, 1, 1])
            .arith_per_item(1)
            .build();
        // 10 items in workgroups of 4 -> 3 workgroups, 12 executed items.
        assert_eq!(k.workgroup_count(), 3);
        assert_eq!(k.executed_items(), 12);
        assert_eq!(k.total_arith(), 12);
    }

    #[test]
    fn instruction_totals_scale_with_items() {
        let k = k();
        assert_eq!(k.total_arith(), k.executed_items() * 100);
        assert_eq!(k.total_mem(), k.executed_items() * 10);
    }

    #[test]
    #[should_panic(expected = "zero NDRange extent")]
    fn zero_extent_rejected() {
        let _ = KernelDesc::builder("bad").global([0, 1, 1]).build();
    }

    #[test]
    #[should_panic(expected = "coalescing")]
    fn coalescing_range_enforced() {
        let _ = KernelDesc::builder("bad").coalescing(1.5).build();
    }

    #[test]
    #[should_panic(expected = "exec_efficiency")]
    fn efficiency_range_enforced() {
        let _ = KernelDesc::builder("bad").exec_efficiency(0.0).build();
    }

    #[test]
    fn display_names_the_kernel() {
        assert!(k().to_string().starts_with("gemm_mm"));
    }

    #[test]
    fn cost_equivalence_ignores_name_and_footprint() {
        let a = KernelDesc::builder("gemm_mm")
            .global([784, 24, 1])
            .local([4, 4, 1])
            .arith_per_item(100)
            .mem_per_item(10)
            .footprint_bytes(1 << 20)
            .build();
        let b = KernelDesc::builder("gemm_mm_interleaved")
            .global([784, 24, 1])
            .local([4, 4, 1])
            .arith_per_item(100)
            .mem_per_item(10)
            .footprint_bytes(1 << 24)
            .build();
        assert!(a.cost_equivalent(&b));
        assert_eq!(a.cost_digest(), b.cost_digest());
    }

    #[test]
    fn cost_digest_separates_cost_relevant_fields() {
        let base = k();
        let variants = [
            KernelDesc::builder("gemm_mm")
                .global([784, 25, 1])
                .local([4, 4, 1])
                .arith_per_item(100)
                .mem_per_item(10)
                .build(),
            KernelDesc::builder("gemm_mm")
                .global([784, 24, 1])
                .local([8, 4, 1])
                .arith_per_item(100)
                .mem_per_item(10)
                .build(),
            KernelDesc::builder("gemm_mm")
                .global([784, 24, 1])
                .local([4, 4, 1])
                .arith_per_item(101)
                .mem_per_item(10)
                .build(),
            KernelDesc::builder("gemm_mm")
                .global([784, 24, 1])
                .local([4, 4, 1])
                .arith_per_item(100)
                .mem_per_item(10)
                .cache_hit(0.5)
                .build(),
            KernelDesc::builder("gemm_mm")
                .global([784, 24, 1])
                .local([4, 4, 1])
                .arith_per_item(100)
                .mem_per_item(10)
                .padded_accounting(false)
                .build(),
        ];
        for v in &variants {
            assert!(!base.cost_equivalent(v), "{v}");
            assert_ne!(base.cost_digest(), v.cost_digest(), "{v}");
        }
    }

    #[test]
    fn defaults_are_neutral() {
        let k = KernelDesc::builder("n").build();
        assert_eq!(k.coalescing(), 1.0);
        assert_eq!(k.cache_hit(), 0.0);
        assert_eq!(k.exec_efficiency(), 1.0);
        assert_eq!(k.bytes_per_mem(), 4);
        assert_eq!(k.executed_items(), 1);
    }
}
