//! The shared planning service behind every serving mode.
//!
//! One [`PlanService`] lives for the whole daemon (or replay run): it
//! owns the shared [`LatencyCache`] — **bounded**, because a
//! long-running process must not grow its memo tables without limit —
//! the [`Stats`] registry the `--stats` side channel snapshots, one
//! prepared network and [`AccuracyModel`] per catalog network, and one
//! prepared [`SearchSpace`] per catalog (network, device, backend)
//! triple. Each is built on the first request that needs it and read by
//! every later one, so a warm request runs only the §V greedy over its
//! space's slot table and the verification run.
//! Request handling is pure with respect to that shared state's
//! *responses*: the cache only short-circuits bit-identical
//! recomputations, a prepared model or space equals a fresh build, and
//! the response body carries no cache counters, so the bytes a request
//! produces do not depend on which requests ran before it. That is the
//! property replay mode's `--jobs` invariance rests on.

use std::sync::{Arc, OnceLock};

use pruneperf_core::accuracy::AccuracyModel;
use pruneperf_core::search::SearchSpace;
use pruneperf_models::Network;
use pruneperf_profiler::{
    FaultPlan, FaultyBackend, LatencyCache, LayerProfiler, NetworkRunner, Stats,
};

use crate::catalog::{self, BACKENDS, DEVICES, NETWORKS};
use crate::protocol::{FailedLayerInfo, PlanBody, PlanRequest, PlanResponse};

/// One prepared space per catalog (network, device, backend) triple.
const SPACES: usize = NETWORKS.len() * DEVICES.len() * BACKENDS.len();

/// The planning core shared by the live server, replay mode and loadgen.
pub struct PlanService {
    cache: Arc<LatencyCache>,
    stats: Arc<Stats>,
    /// One slot per entry of [`catalog::NETWORKS`], filled on first use.
    prepared: [OnceLock<(Network, AccuracyModel)>; NETWORKS.len()],
    /// One slot per catalog triple, filled on first use.
    spaces: [OnceLock<SearchSpace>; SPACES],
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
            spaces: std::array::from_fn(|_| OnceLock::new()),
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

    /// The catalog network at `network` and its accuracy model, built on
    /// the first call for that network and shared by every later one.
    /// Concurrent first calls build it once; the others wait for it.
    pub(crate) fn prepared(&self, network: usize) -> &(Network, AccuracyModel) {
        self.prepared[network].get_or_init(|| {
            let (_, build) = NETWORKS[network];
            let network = build();
            let accuracy = AccuracyModel::for_network(&network);
            (network, accuracy)
        })
    }

    /// The candidate space of the catalog triple at these table
    /// positions, built on the first call through the service's noiseless
    /// profiler and bounded cache, and shared by every later one.
    /// Concurrent first calls build it once; the others wait for it.
    pub(crate) fn space(&self, network: usize, device: usize, backend: usize) -> &SearchSpace {
        let slot = (network * DEVICES.len() + device) * BACKENDS.len() + backend;
        self.spaces[slot].get_or_init(|| {
            let (network, accuracy) = self.prepared(network);
            let profiler = LayerProfiler::noiseless(&(DEVICES[device].1)())
                .with_cache(Arc::clone(&self.cache))
                .with_stats(Arc::clone(&self.stats));
            let backend = (BACKENDS[backend].1)();
            SearchSpace::build_for(&profiler, accuracy, backend.as_ref(), network)
        })
    }

    /// Computes the response for one admitted request.
    ///
    /// Unknown names and out-of-range budgets become
    /// [`PlanResponse::Error`]; a faulty verification run that loses
    /// layers to permanent faults becomes a *degraded* Ok response (the
    /// PR-4 fallible path), never a dropped request.
    pub fn handle(&self, req: &PlanRequest) -> PlanResponse {
        match self.plan_body(req) {
            Ok(body) => PlanResponse::Ok(body),
            Err(e) => PlanResponse::Error(e),
        }
    }

    /// [`PlanService::handle`]'s plan, or the refusal message.
    fn plan_body(&self, req: &PlanRequest) -> Result<PlanBody, String> {
        let d = catalog::device_index(&req.device)?;
        let b = catalog::backend_index(&req.backend)?;
        let n = catalog::network_index(&req.network)?;
        // The greedy asserts on the budget; refuse it here, before any
        // prepared state is built.
        if !(req.budget > 0.0 && req.budget <= 1.0) {
            return Err(format!("budget must be in (0, 1], got {}", req.budget));
        }
        let space = self.space(n, d, b);
        let (genome, point) = space.greedy(req.objective, req.budget);
        let counts = space.kept_counts(genome);

        // Verification pass: run the pruned network end to end through
        // the fallible path. With a fault seed the backend injects
        // permanent faults whose schedule is a pure function of
        // (seed, layer key) — deterministic across runs and schedules.
        // The plan above used the clean backend, so one space serves
        // every fault seed.
        let (network, _) = self.prepared(n);
        let pruned = network.sequential_with_counts(&counts);
        let runner = NetworkRunner::new(&(DEVICES[d].1)())
            .with_cache(Arc::clone(&self.cache))
            .with_stats(Arc::clone(&self.stats));
        let backend = (BACKENDS[b].1)();
        let partial = match req.fault_seed {
            Some(seed) => {
                let fault = FaultPlan::new(seed).with_permanent_rate(req.fault_rate);
                let faulty = FaultyBackend::new(backend, fault);
                runner.try_run(&faulty, &pruned)
            }
            None => runner.try_run(&backend, &pruned),
        };

        let failed = partial
            .failed()
            .iter()
            .map(|f| FailedLayerInfo {
                layer: f.label.clone(),
                attempts: f.attempts,
                error: f.error.clone(),
            })
            .collect();
        Ok(PlanBody {
            network: req.network.clone(),
            device: req.device.clone(),
            backend: req.backend.clone(),
            objective: req.objective,
            budget: req.budget,
            latency_ms: point.latency_ms,
            energy_mj: point.energy_mj,
            accuracy: point.accuracy,
            kept: counts
                .iter()
                .enumerate()
                .map(|(i, &c)| (space.label_of(i).to_string(), c))
                .collect(),
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
        for (ix, (name, _)) in NETWORKS.iter().enumerate() {
            let fresh = catalog::network_by_name(name).unwrap();
            let prepared = service.prepared(ix);
            assert_eq!(prepared.0, fresh, "{name}");
            assert_eq!(prepared.1, AccuracyModel::for_network(&fresh), "{name}");
            assert!(
                std::ptr::eq(prepared, service.prepared(ix)),
                "{name}: later calls read the same slot"
            );
        }
    }

    /// Every catalog triple's prepared space equals a fresh build, and
    /// later calls read the same slot. The fresh build reads the service's
    /// cache (which only short-circuits bit-identical simulations), so
    /// the 96 cold builds are paid once.
    #[test]
    fn each_prepared_space_equals_a_fresh_build() {
        let service = PlanService::new(0);
        for (n, (network, build)) in NETWORKS.iter().enumerate() {
            let net = build();
            let accuracy = AccuracyModel::for_network(&net);
            for (d, (device, board)) in DEVICES.iter().enumerate() {
                let profiler =
                    LayerProfiler::noiseless(&board()).with_cache(Arc::clone(service.cache()));
                for (b, (backend, library)) in BACKENDS.iter().enumerate() {
                    let prepared = service.space(n, d, b);
                    let fresh =
                        SearchSpace::build_for(&profiler, &accuracy, library().as_ref(), &net);
                    let triple = format!("{network} / {device} / {backend}");
                    assert!(prepared == &fresh, "{triple}");
                    assert!(
                        std::ptr::eq(prepared, service.space(n, d, b)),
                        "{triple}: later calls read the same slot"
                    );
                }
            }
        }
    }

    /// A refusal for a budget out of range builds no prepared state, even
    /// for a known network.
    #[test]
    fn a_refused_budget_builds_nothing() {
        let service = PlanService::new(0);
        let refusal = service.handle(&req(r#"{"network":"resnet50","device":"tx2","budget":0}"#));
        assert!(
            matches!(&refusal, PlanResponse::Error(e) if e.contains("budget")),
            "{refusal:?}"
        );
        assert!(service.prepared.iter().all(|slot| slot.get().is_none()));
        assert!(service.spaces.iter().all(|slot| slot.get().is_none()));
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
