//! Behavioural models of the deep-learning library planners the paper
//! characterizes: **Arm Compute Library** (Direct convolution and GEMM
//! methods), **cuDNN**, and **TVM**'s OpenCL code generator.
//!
//! A backend is a *planner*: it lowers a [`ConvLayerSpec`] into the list of
//! GPU kernels the library would dispatch on a given [`Device`] — NDRanges,
//! workgroup sizes, instruction mixes, split decisions. Executing that plan
//! on `pruneperf-gpusim` reproduces the paper's findings, because the
//! anomalies the paper reports *are* planner decisions:
//!
//! * [`AclGemm`] splits its `gemm_mm` into two jobs for “odd” channel
//!   groups (reverse-engineered from Tables I–IV: 92 → 80+12, 97 → 96+4),
//!   producing the two parallel staircases of Figs 3, 14 and 15;
//! * [`AclDirect`] picks workgroup shapes `(4,1,1)` / `(2,1,8)` / `(1,1,8)`
//!   from channel divisibility (Table V), producing three alternating
//!   execution levels (Fig 12) and prune-by-1 slowdowns (Fig 10);
//! * [`Cudnn`] tiles output channels by 32 and schedules whole waves onto
//!   2 (TX2) or 1 (Nano) SMs, producing the flat monotone staircases of
//!   Figs 2, 4, 5 and 7;
//! * [`Tvm`] consults a tuning log and falls back to a slow default
//!   schedule for sizes it has no entry for (Figs 19, 20).
//!
//! # Example
//!
//! ```
//! use pruneperf_backends::{AclGemm, ConvBackend};
//! use pruneperf_gpusim::Device;
//! use pruneperf_models::resnet50;
//!
//! let device = Device::mali_g72_hikey970();
//! let layer = resnet50().layer("ResNet.L16").unwrap().clone();
//! let backend = AclGemm::new();
//! // 92 output channels: the ACL heuristic splits the GEMM into two jobs.
//! let plan = backend.plan(&layer.with_c_out(92).unwrap(), &device);
//! let gemms = plan.kernels_named("gemm_mm").count();
//! assert_eq!(gemms, 2);
//! ```

mod acl_auto;
mod acl_direct;
mod acl_gemm;
mod autotuned;
mod cudnn;
mod plan;
/// Persistent auto-tuning logs (workload keys, schedules, JSON round-trip).
pub mod tuning;
mod tvm;

/// Small deterministic hashing utilities (FNV-1a) shared across crates.
pub mod hash;

pub use acl_auto::{AclAuto, AclMethod};
pub use acl_direct::AclDirect;
pub use acl_gemm::AclGemm;
pub use autotuned::AclDirectTuned;
pub use cudnn::{Cudnn, CudnnAlgorithm};
pub use plan::DispatchPlan;
pub use tvm::Tvm;

use std::fmt;

use pruneperf_gpusim::{Device, Engine};
use pruneperf_models::ConvLayerSpec;

/// Why a fallible cost evaluation failed.
///
/// Produced by [`ConvBackend::try_cost`] implementations — today the
/// profiler's fault-injection wrappers, eventually backends that talk to
/// real hardware, where a query genuinely can fail mid-sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostError {
    /// `true` when retrying the same query may succeed (a transient
    /// failure); `false` when every retry will fail the same way.
    pub transient: bool,
    /// Human-readable description of the failure.
    pub message: String,
}

impl CostError {
    /// A retryable failure.
    pub fn transient(message: impl Into<String>) -> Self {
        CostError {
            transient: true,
            message: message.into(),
        }
    }

    /// A failure that will not go away on retry.
    pub fn permanent(message: impl Into<String>) -> Self {
        CostError {
            transient: false,
            message: message.into(),
        }
    }
}

impl fmt::Display for CostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.transient {
            "transient"
        } else {
            "permanent"
        };
        write!(f, "{kind} cost failure: {}", self.message)
    }
}

impl std::error::Error for CostError {}

/// A deep-learning library's convolution planner.
///
/// Implementations are deterministic: the same layer and device always
/// produce the same plan. This trait is object-safe so heterogeneous
/// backend collections can be iterated (e.g. the library-shootout example),
/// and `Send + Sync` so backends can be shared across sweep worker threads.
pub trait ConvBackend: Send + Sync {
    /// Library name as the paper uses it (e.g. `"ACL GEMM"`).
    fn name(&self) -> &str;

    /// A stable identity for memoization: two backends with the same
    /// fingerprint must plan identically for every (layer, device) pair.
    ///
    /// The default hashes the library name, which is correct for stateless
    /// planners. Backends with configuration that changes their plans
    /// (e.g. [`Tvm`] with an explicit tuning log) must mix it in.
    fn fingerprint(&self) -> u64 {
        hash::fnv1a(self.name().as_bytes())
    }

    /// Lowers a layer into the kernels the library would dispatch.
    fn plan(&self, layer: &ConvLayerSpec, device: &Device) -> DispatchPlan;

    /// Plans and executes the layer once, returning `(latency ms, energy mJ)`
    /// from the same simulated run — the unit of work a latency cache stores.
    ///
    /// The contract every implementation (and override) must keep:
    /// `cost` equals planning the layer and simulating the resulting chain.
    /// The profiler's latency cache relies on this to reconstruct costs
    /// incrementally from [`ConvBackend::plan`] plus memoized per-kernel
    /// engine costs; a backend whose `cost` diverged from its own plan
    /// would silently disagree with that path. The default uses the
    /// engine's allocation-free [`Engine::chain_cost`], which is bitwise
    /// identical to the `run_chain` report totals.
    fn cost(&self, layer: &ConvLayerSpec, device: &Device) -> (f64, f64) {
        let plan = self.plan(layer, device);
        let cost = Engine::new(device).chain_cost(plan.chain());
        (cost.total_time_ms(), cost.total_energy_mj())
    }

    /// Fallible twin of [`ConvBackend::cost`].
    ///
    /// The simulator backends never fail, so the default wraps [`cost`] in
    /// `Ok`. Decorators that inject faults (and future backends that query
    /// real hardware) override this; every recovery-aware path — the
    /// latency cache's [`try_cost`], the profiler's retrying measurement,
    /// partial network runs — calls it instead of `cost`.
    ///
    /// [`cost`]: ConvBackend::cost
    /// [`try_cost`]: ConvBackend::try_cost
    ///
    /// # Errors
    ///
    /// Returns a [`CostError`] when the evaluation fails; `transient`
    /// distinguishes retryable failures from permanent ones.
    fn try_cost(&self, layer: &ConvLayerSpec, device: &Device) -> Result<(f64, f64), CostError> {
        Ok(self.cost(layer, device))
    }

    /// Convenience: plans and executes the layer, returning latency in ms.
    fn latency_ms(&self, layer: &ConvLayerSpec, device: &Device) -> f64 {
        self.cost(layer, device).0
    }

    /// Convenience: plans and executes the layer, returning energy in mJ.
    fn energy_mj(&self, layer: &ConvLayerSpec, device: &Device) -> f64 {
        self.cost(layer, device).1
    }
}

/// Boxed backends are backends. Every method delegates — including the
/// ones with trait defaults — so a decorator's overridden `fingerprint`
/// or `try_cost` survives boxing instead of silently reverting to the
/// default. This is what lets fault decorators and the serving daemon
/// wrap a runtime-chosen `Box<dyn ConvBackend>`.
impl<B: ConvBackend + ?Sized> ConvBackend for Box<B> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn fingerprint(&self) -> u64 {
        (**self).fingerprint()
    }

    fn plan(&self, layer: &ConvLayerSpec, device: &Device) -> DispatchPlan {
        (**self).plan(layer, device)
    }

    fn cost(&self, layer: &ConvLayerSpec, device: &Device) -> (f64, f64) {
        (**self).cost(layer, device)
    }

    fn try_cost(&self, layer: &ConvLayerSpec, device: &Device) -> Result<(f64, f64), CostError> {
        (**self).try_cost(layer, device)
    }

    fn latency_ms(&self, layer: &ConvLayerSpec, device: &Device) -> f64 {
        (**self).latency_ms(layer, device)
    }

    fn energy_mj(&self, layer: &ConvLayerSpec, device: &Device) -> f64 {
        (**self).energy_mj(layer, device)
    }
}

/// All four backend models, boxed, in the order the paper presents them.
pub fn all_backends() -> Vec<Box<dyn ConvBackend>> {
    vec![
        Box::new(AclDirect::new()),
        Box::new(AclGemm::new()),
        Box::new(Cudnn::new()),
        Box::new(Tvm::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruneperf_models::resnet50;

    #[test]
    fn all_backends_are_plannable() {
        let layer = resnet50().layer("ResNet.L16").unwrap().clone();
        for backend in all_backends() {
            let device = if backend.name().contains("cuDNN") {
                Device::jetson_tx2()
            } else {
                Device::mali_g72_hikey970()
            };
            let plan = backend.plan(&layer, &device);
            assert!(
                !plan.chain().is_empty(),
                "{} produced no jobs",
                backend.name()
            );
            let ms = backend.latency_ms(&layer, &device);
            assert!(ms > 0.0 && ms < 1000.0, "{}: {ms} ms", backend.name());
        }
    }

    #[test]
    fn fingerprints_distinguish_backends() {
        let backends = all_backends();
        for (i, a) in backends.iter().enumerate() {
            for b in backends.iter().skip(i + 1) {
                assert_ne!(
                    a.fingerprint(),
                    b.fingerprint(),
                    "{} vs {}",
                    a.name(),
                    b.name()
                );
            }
            assert_eq!(a.fingerprint(), a.fingerprint());
        }
    }

    #[test]
    fn cost_matches_latency_and_energy() {
        let layer = resnet50().layer("ResNet.L16").unwrap().clone();
        let device = Device::mali_g72_hikey970();
        let backend = AclGemm::new();
        let (ms, mj) = backend.cost(&layer, &device);
        assert_eq!(ms, backend.latency_ms(&layer, &device));
        assert_eq!(mj, backend.energy_mj(&layer, &device));
    }

    #[test]
    fn default_try_cost_is_infallible_and_matches_cost() {
        let layer = resnet50().layer("ResNet.L16").unwrap().clone();
        let device = Device::mali_g72_hikey970();
        for backend in all_backends() {
            let device = if backend.name().contains("cuDNN") {
                Device::jetson_tx2()
            } else {
                device.clone()
            };
            assert_eq!(
                backend.try_cost(&layer, &device),
                Ok(backend.cost(&layer, &device)),
                "{}",
                backend.name()
            );
        }
    }

    #[test]
    fn cost_is_bitwise_identical_to_full_simulation() {
        // The trait contract: cost == plan + simulate, bit for bit, for
        // every backend — the cache's incremental path depends on it.
        let layer = resnet50().layer("ResNet.L16").unwrap().clone();
        for backend in all_backends() {
            let device = if backend.name().contains("cuDNN") {
                Device::jetson_tx2()
            } else {
                Device::mali_g72_hikey970()
            };
            let (ms, mj) = backend.cost(&layer, &device);
            let plan = backend.plan(&layer, &device);
            let report = Engine::new(&device).run_chain(plan.chain());
            assert_eq!(
                ms.to_bits(),
                report.total_time_ms().to_bits(),
                "{}",
                backend.name()
            );
            assert_eq!(
                mj.to_bits(),
                report.total_energy_mj().to_bits(),
                "{}",
                backend.name()
            );
        }
    }

    #[test]
    fn cost_error_constructors_and_display() {
        let t = CostError::transient("link dropped");
        let p = CostError::permanent("no such kernel");
        assert!(t.transient && !p.transient);
        assert!(t.to_string().contains("transient"), "{t}");
        assert!(p.to_string().contains("permanent"), "{p}");
    }

    #[test]
    fn trait_is_object_safe_and_deterministic() {
        let layer = resnet50().layer("ResNet.L5").unwrap().clone();
        let device = Device::mali_g72_hikey970();
        let b: Box<dyn ConvBackend> = Box::new(AclGemm::new());
        assert_eq!(b.latency_ms(&layer, &device), b.latency_ms(&layer, &device));
    }
}
