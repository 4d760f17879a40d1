//! Property tests for counter conservation in the observability layer
//! (PR 5 satellite).
//!
//! For any random sweep — arbitrary channel window, fault rates and fault
//! seed — the registry must satisfy exact conservation laws, and its
//! snapshot must render byte-identically at `jobs = 1` and `jobs = 8`.
//! These properties are what flushed out (and now pin) the cache's racy
//! miss accounting: before PR 5, two workers racing on the same fresh key
//! both counted a miss, so the hit/miss split depended on the schedule.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test fails fast; its helpers unwrap like its test bodies"
)]

use std::sync::Arc;

use proptest::prelude::*;

use pruneperf_backends::AclGemm;
use pruneperf_gpusim::Device;
use pruneperf_models::{resnet50, ConvLayerSpec};
use pruneperf_profiler::faults::{FaultPlan, FaultyBackend};
use pruneperf_profiler::sweep::{contained_parallel_map_with_stats, set_sweep_jobs};
use pruneperf_profiler::{LatencyCache, LayerProfiler, PartialCurve, Stats};

fn l16() -> ConvLayerSpec {
    resnet50()
        .layer("ResNet.L16")
        .expect("ResNet.L16 exists")
        .clone()
}

/// One isolated faulted sweep; returns everything a property might assert
/// on: the partial curve, the cache counters, and the rendered snapshot.
struct SweepOutcome {
    partial: PartialCurve,
    cache_lookups: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_failures: u64,
    cache_entries: usize,
    sweep_items: u64,
    sweep_panics: u64,
    site_ops: u64,
    site_successes: u64,
    site_failures: u64,
    snapshot_json: String,
}

fn faulted_sweep(
    jobs: usize,
    seed: u64,
    transient: f64,
    permanent: f64,
    lo: usize,
    hi: usize,
) -> SweepOutcome {
    set_sweep_jobs(jobs);
    let cache = Arc::new(LatencyCache::new());
    let stats = Arc::new(Stats::new());
    let profiler = LayerProfiler::new(&Device::mali_g72_hikey970())
        .with_cache(cache.clone())
        .with_stats(stats.clone());
    let backend = FaultyBackend::new(
        AclGemm::new(),
        FaultPlan::new(seed)
            .with_transient_rate(transient)
            .with_permanent_rate(permanent),
    );
    let partial = profiler.latency_curve_partial(&backend, &l16(), lo..=hi);
    set_sweep_jobs(1);
    let cs = cache.stats();
    let sites = stats.sites();
    let (mut ops, mut ok, mut failed) = (0, 0, 0);
    for (_, c) in &sites {
        ops += c.operations;
        ok += c.successes;
        failed += c.failures;
    }
    SweepOutcome {
        partial,
        cache_lookups: cs.lookups,
        cache_hits: cs.hits,
        cache_misses: cs.misses,
        cache_failures: cs.failures,
        cache_entries: cs.entries,
        sweep_items: stats.sweep_items(),
        sweep_panics: stats.sweep_panics(),
        site_ops: ops,
        site_successes: ok,
        site_failures: failed,
        snapshot_json: stats.snapshot_with_cache(&cache).render_json(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `lookups == hits + misses + failures` and `entries == misses` for
    /// any sweep on a fresh cache, at sequential and parallel jobs alike.
    #[test]
    fn cache_counters_conserve(
        seed in 0u64..1_000,
        transient in 0.0f64..0.5,
        permanent in 0.0f64..0.25,
        lo in 40usize..110,
        width in 0usize..18,
    ) {
        for jobs in [1usize, 8] {
            let out = faulted_sweep(jobs, seed, transient, permanent, lo, lo + width);
            prop_assert_eq!(
                out.cache_lookups,
                out.cache_hits + out.cache_misses + out.cache_failures,
                "jobs={}", jobs
            );
            // Fresh cache: each miss inserted exactly one unique entry.
            prop_assert_eq!(out.cache_misses as usize, out.cache_entries, "jobs={}", jobs);
        }
    }

    /// The sweep registry sees every config exactly once, and the retry
    /// site's operations partition into successes (curve points) and
    /// failures (gaps).
    #[test]
    fn sweep_and_site_counters_conserve(
        seed in 0u64..1_000,
        transient in 0.0f64..0.5,
        permanent in 0.0f64..0.25,
        lo in 40usize..110,
        width in 0usize..18,
    ) {
        for jobs in [1usize, 8] {
            let out = faulted_sweep(jobs, seed, transient, permanent, lo, lo + width);
            let configs = (width + 1) as u64;
            prop_assert_eq!(out.sweep_items, configs, "jobs={}", jobs);
            prop_assert_eq!(out.sweep_panics, 0u64, "jobs={}", jobs);
            prop_assert_eq!(out.site_ops, configs, "jobs={}", jobs);
            prop_assert_eq!(out.site_successes + out.site_failures, out.site_ops, "jobs={}", jobs);
            let measured = out.partial.measured() as u64;
            let gaps = out.partial.gaps().len() as u64;
            prop_assert_eq!(out.site_successes, measured, "jobs={}", jobs);
            prop_assert_eq!(out.site_failures, gaps, "jobs={}", jobs);
            prop_assert_eq!(measured + gaps, configs, "jobs={}", jobs);
        }
    }

    /// The rendered snapshot — cache shards, sweep totals, retry sites —
    /// is byte-identical at jobs=1 and jobs=8.
    #[test]
    fn snapshots_are_byte_identical_across_jobs(
        seed in 0u64..1_000,
        transient in 0.0f64..0.5,
        permanent in 0.0f64..0.25,
        lo in 40usize..110,
        width in 0usize..18,
    ) {
        let sequential = faulted_sweep(1, seed, transient, permanent, lo, lo + width);
        let parallel = faulted_sweep(8, seed, transient, permanent, lo, lo + width);
        prop_assert_eq!(&sequential.snapshot_json, &parallel.snapshot_json);
        prop_assert_eq!(sequential.partial, parallel.partial);
    }

    /// `items == successes + panics` for a sweep where a random subset of
    /// items panic, at any worker count.
    #[test]
    fn sweep_items_partition_into_successes_and_panics(
        n in 0usize..120,
        panic_salt in any::<u64>(),
        panic_mod in 2u64..7,
    ) {
        for jobs in [1usize, 8] {
            let stats = Stats::new();
            let items: Vec<u64> = (0..n as u64).collect();
            let (slots, panics) = contained_parallel_map_with_stats(
                &items,
                jobs,
                &stats,
                |&x| {
                    // A pure pseudo-random predicate: deterministic per item.
                    assert!(
                        x.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(panic_salt) % panic_mod != 0,
                        "injected panic on {x}"
                    );
                    x
                },
            );
            let successes = slots.iter().filter(|s| s.is_some()).count() as u64;
            prop_assert_eq!(stats.sweep_items(), n as u64, "jobs={}", jobs);
            prop_assert_eq!(stats.sweep_panics(), panics.len() as u64, "jobs={}", jobs);
            prop_assert_eq!(
                stats.sweep_items(),
                successes + stats.sweep_panics(),
                "jobs={}", jobs
            );
            let worker_sum: u64 = stats.worker_items().iter().map(|&(_, c)| c).sum();
            prop_assert_eq!(worker_sum, stats.sweep_items(), "jobs={}", jobs);
        }
    }
}
