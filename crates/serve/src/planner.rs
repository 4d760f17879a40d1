//! The shared planning service behind every serving mode.
//!
//! One [`PlanService`] lives for the whole daemon (or replay run): it
//! owns the shared [`LatencyCache`] — **bounded**, because a
//! long-running process must not grow its memo tables without limit —
//! the [`Stats`] registry the `--stats` side channel snapshots, and one
//! prepared network and [`AccuracyModel`] per catalog network, built on
//! the first request for it and read by every later one.
//! Request handling is pure with respect to that shared state's
//! *responses*: the cache only short-circuits bit-identical
//! recomputations, a prepared model equals a fresh build, and the
//! response body carries no cache counters, so the bytes a request
//! produces do not depend on which requests ran before it. That is the
//! property replay mode's `--jobs` invariance rests on.

use std::sync::{Arc, OnceLock};

use pruneperf_core::accuracy::AccuracyModel;
use pruneperf_core::PerfAwarePruner;
use pruneperf_models::Network;
use pruneperf_profiler::{
    FaultPlan, FaultyBackend, LatencyCache, LayerProfiler, NetworkRunner, Stats,
};

use crate::catalog;
use crate::protocol::{FailedLayerInfo, PlanBody, PlanRequest, PlanResponse, RequestObjective};

/// The planning core shared by the live server, replay mode and loadgen.
pub struct PlanService {
    cache: Arc<LatencyCache>,
    stats: Arc<Stats>,
    /// One slot per entry of [`catalog::NETWORKS`], filled on first use.
    prepared: [OnceLock<(Network, AccuracyModel)>; catalog::NETWORKS.len()],
}

impl PlanService {
    /// Creates a service over a fresh cache and stats registry.
    ///
    /// `cache_cap_per_shard` bounds every cache shard (and the kernel
    /// memo underneath) via
    /// [`LatencyCache::set_max_entries_per_shard`]; `0` leaves the
    /// cache unbounded, which is only appropriate for short
    /// replay/loadgen runs.
    pub fn new(cache_cap_per_shard: usize) -> Self {
        let cache = Arc::new(LatencyCache::new());
        if cache_cap_per_shard > 0 {
            cache.set_max_entries_per_shard(cache_cap_per_shard);
        }
        PlanService {
            cache,
            stats: Arc::new(Stats::new()),
            prepared: Default::default(),
        }
    }

    /// The shared latency cache (bounded iff constructed with a cap).
    pub fn cache(&self) -> &Arc<LatencyCache> {
        &self.cache
    }

    /// The shared stats registry for the `--stats` side channel.
    pub fn stats(&self) -> &Arc<Stats> {
        &self.stats
    }

    /// Renders the current stats snapshot (cache gauges included) as the
    /// `--stats` side-channel document.
    pub fn stats_json(&self) -> String {
        self.stats.snapshot_with_cache(&self.cache).render_json()
    }

    /// The named catalog network and its accuracy model, built on the
    /// first call for that network and shared by every later one.
    /// Concurrent first calls build it once; the others wait for it.
    ///
    /// # Errors
    ///
    /// Returns [`catalog::network_by_name`]'s message for an unknown name.
    pub(crate) fn prepared(&self, network: &str) -> Result<&(Network, AccuracyModel), String> {
        let ix = catalog::network_index(network)?;
        Ok(self.prepared[ix].get_or_init(|| {
            let (_, build) = catalog::NETWORKS[ix];
            let network = build();
            let accuracy = AccuracyModel::for_network(&network);
            (network, accuracy)
        }))
    }

    /// Computes the response for one admitted request.
    ///
    /// Unknown names and out-of-range budgets become
    /// [`PlanResponse::Error`]; a faulty verification run that loses
    /// layers to permanent faults becomes a *degraded* Ok response (the
    /// PR-4 fallible path), never a dropped request.
    pub fn handle(&self, req: &PlanRequest) -> PlanResponse {
        let device = match catalog::device_by_name(&req.device) {
            Ok(d) => d,
            Err(e) => return PlanResponse::Error(e),
        };
        let backend = match catalog::backend_by_name(&req.backend) {
            Ok(b) => b,
            Err(e) => return PlanResponse::Error(e),
        };
        let (network, accuracy) = match self.prepared(&req.network) {
            Ok(prepared) => prepared,
            Err(e) => return PlanResponse::Error(e),
        };
        // The pruner asserts on the budget; turn that into a 400 here.
        if !(req.budget > 0.0 && req.budget <= 1.0) {
            return PlanResponse::Error(format!("budget must be in (0, 1], got {}", req.budget));
        }

        let profiler = LayerProfiler::noiseless(&device)
            .with_cache(Arc::clone(&self.cache))
            .with_stats(Arc::clone(&self.stats));
        let pruner = PerfAwarePruner::new(&profiler, accuracy);
        let plan = match req.objective {
            RequestObjective::Latency => pruner.prune_to_latency(&backend, network, req.budget),
            RequestObjective::Energy => pruner.prune_to_energy(&backend, network, req.budget),
        };

        // Verification pass: run the pruned network end to end through
        // the fallible path. With a fault seed the backend injects
        // permanent faults whose schedule is a pure function of
        // (seed, layer key) — deterministic across runs and schedules.
        let pruned = network.sequential_with_kept(plan.kept_channels());
        let runner = NetworkRunner::new(&device)
            .with_cache(Arc::clone(&self.cache))
            .with_stats(Arc::clone(&self.stats));
        let partial = match req.fault_seed {
            Some(seed) => {
                let fault = FaultPlan::new(seed).with_permanent_rate(req.fault_rate);
                let faulty = FaultyBackend::new(backend, fault);
                runner.try_run(&faulty, &pruned)
            }
            None => runner.try_run(&backend, &pruned),
        };

        let kept = network
            .layers()
            .iter()
            .map(|l| {
                let channels = plan.kept_for(l.label()).unwrap_or(l.c_out());
                (l.label().to_string(), channels)
            })
            .collect();
        let failed = partial
            .failed()
            .iter()
            .map(|f| FailedLayerInfo {
                layer: f.label.clone(),
                attempts: f.attempts,
                error: f.error.clone(),
            })
            .collect();
        PlanResponse::Ok(PlanBody {
            network: req.network.clone(),
            device: req.device.clone(),
            backend: req.backend.clone(),
            objective: req.objective,
            budget: req.budget,
            latency_ms: plan.latency_ms(),
            energy_mj: plan.energy_mj(),
            accuracy: plan.accuracy(),
            kept,
            degraded: !partial.is_complete(),
            verified_ms: partial.report().total_ms(),
            failed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(line: &str) -> PlanRequest {
        PlanRequest::parse(line).unwrap()
    }

    #[test]
    fn a_clean_request_yields_a_complete_plan() {
        let service = PlanService::new(0);
        let r = req(r#"{"network":"alexnet","device":"tx2","budget":0.8}"#);
        match service.handle(&r) {
            PlanResponse::Ok(body) => {
                assert!(!body.degraded);
                assert!(body.failed.is_empty());
                assert!(body.latency_ms > 0.0);
                assert!(body.verified_ms > 0.0);
                assert_eq!(body.kept.len(), 5, "alexnet has five conv layers");
            }
            other => panic!("expected ok, got {other:?}"),
        }
    }

    #[test]
    fn unknown_names_and_bad_budgets_are_refusals() {
        let service = PlanService::new(0);
        for (line, needle) in [
            (
                r#"{"network":"lenet","device":"tx2","budget":0.8}"#,
                "unknown network",
            ),
            (
                r#"{"network":"alexnet","device":"rtx","budget":0.8}"#,
                "unknown device",
            ),
            (
                r#"{"network":"alexnet","device":"tx2","backend":"mkl","budget":0.8}"#,
                "unknown backend",
            ),
            (
                r#"{"network":"alexnet","device":"tx2","budget":0.0}"#,
                "budget",
            ),
            (
                r#"{"network":"alexnet","device":"tx2","budget":1.5}"#,
                "budget",
            ),
        ] {
            match service.handle(&req(line)) {
                PlanResponse::Error(e) => assert!(e.contains(needle), "{line}: {e}"),
                other => panic!("{line}: expected error, got {other:?}"),
            }
        }
    }

    #[test]
    fn heavy_faults_degrade_instead_of_failing() {
        let service = PlanService::new(0);
        let r = req(r#"{"network":"alexnet","device":"tx2","budget":0.8,
                "fault_seed":4,"fault_rate":1.0}"#);
        match service.handle(&r) {
            PlanResponse::Ok(body) => {
                assert!(body.degraded, "every layer faults permanently at rate 1.0");
                assert!(!body.failed.is_empty());
            }
            other => panic!("expected degraded ok, got {other:?}"),
        }
    }

    #[test]
    fn each_prepared_slot_equals_a_fresh_build() {
        let service = PlanService::new(0);
        for (name, _) in catalog::NETWORKS {
            let fresh = catalog::network_by_name(name).unwrap();
            let prepared = service.prepared(name).unwrap();
            assert_eq!(prepared.0, fresh, "{name}");
            assert_eq!(prepared.1, AccuracyModel::for_network(&fresh), "{name}");
            assert!(
                std::ptr::eq(prepared, service.prepared(name).unwrap()),
                "{name}: later calls read the same slot"
            );
        }
        assert_eq!(
            service.prepared("lenet").unwrap_err(),
            catalog::network_by_name("lenet").unwrap_err()
        );
    }

    #[test]
    fn responses_are_independent_of_request_history() {
        let warmed = PlanService::new(0);
        for (network, _) in catalog::NETWORKS {
            warmed.handle(&req(&format!(
                r#"{{"network":"{network}","device":"nano","budget":0.6}}"#
            )));
        }
        for (network, _) in catalog::NETWORKS {
            let r = req(&format!(
                r#"{{"network":"{network}","device":"tx2","budget":0.8}}"#
            ));
            assert_eq!(
                PlanService::new(0).handle(&r).render(0, false),
                warmed.handle(&r).render(0, false),
                "{network}: cache warmth and prepared state must not change response bytes"
            );
        }
    }

    #[test]
    fn the_bounded_cache_still_answers_identically() {
        let unbounded = PlanService::new(0);
        let tiny = PlanService::new(2);
        let r = req(r#"{"network":"alexnet","device":"tx2","budget":0.8}"#);
        assert_eq!(
            unbounded.handle(&r).render(0, false),
            tiny.handle(&r).render(0, false),
            "the cache bound changes retention, never values"
        );
    }
}
