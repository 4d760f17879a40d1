use std::fmt;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pruneperf_backends::ConvBackend;
use pruneperf_gpusim::{ChainScratch, Device, Engine};
use pruneperf_models::ConvLayerSpec;

use crate::faults::{with_retry, RetryPolicy};
use crate::stats::Stats;
use crate::{
    sweep, CurveGap, CurvePoint, LatencyCache, LatencyCurve, Measurement, PartialCurve, Timeline,
};
use pruneperf_gpusim::ChromeEvent;

/// Stats site label for [`LayerProfiler::try_measure`] retries.
const SITE_TRY_MEASURE: &str = "profiler.try_measure";

/// Default number of runs per configuration (§III-D).
const DEFAULT_RUNS: usize = 10;
/// Relative half-width of the uniform run-to-run jitter.
const JITTER_FRAC: f64 = 0.018;
/// Probability of a slow outlier run (scheduler preemption, DVFS, …).
const OUTLIER_PROB: f64 = 0.08;
/// Relative magnitude range of outlier slowdowns.
const OUTLIER_RANGE: (f64, f64) = (0.05, 0.18);

/// Profiles convolutional layers on one simulated device.
///
/// Reproduces the paper's measurement loop: run each configuration several
/// times, report the median. The jitter process is seeded from the
/// (device, backend, layer, channels, run) tuple, so every experiment is
/// reproducible while still exercising median-of-N statistics.
#[derive(Debug, Clone)]
pub struct LayerProfiler {
    device: Device,
    runs: usize,
    noise: bool,
    cache: Option<Arc<LatencyCache>>,
    retry: RetryPolicy,
    stats: Option<Arc<Stats>>,
}

impl LayerProfiler {
    /// A profiler with the paper's methodology (median of 10 noisy runs).
    pub fn new(device: &Device) -> Self {
        LayerProfiler {
            device: device.clone(),
            runs: DEFAULT_RUNS,
            noise: true,
            cache: None,
            retry: RetryPolicy::bounded(),
            stats: None,
        }
    }

    /// A profiler that reports the simulator's deterministic time directly
    /// (one run, no jitter) — for analyses that need exact model output.
    pub fn noiseless(device: &Device) -> Self {
        LayerProfiler {
            device: device.clone(),
            runs: 1,
            noise: false,
            cache: None,
            retry: RetryPolicy::bounded(),
            stats: None,
        }
    }

    /// Memoizes through `cache` instead of the process-wide
    /// [`LatencyCache::global`].
    ///
    /// Fault-injection runs need this: injected-fault counts are only
    /// reproducible when every run starts from an equally cold cache, and
    /// a faulty backend's entries should not outlive the experiment.
    pub fn with_cache(mut self, cache: Arc<LatencyCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Overrides the retry policy used by the fallible measurement paths
    /// ([`LayerProfiler::try_measure`],
    /// [`LayerProfiler::latency_curve_partial`]).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Records observability counters into `stats` instead of the
    /// process-wide [`Stats::global`] registry — the isolation twin of
    /// [`LayerProfiler::with_cache`], used by tests that assert exact
    /// counter values.
    pub fn with_stats(mut self, stats: Arc<Stats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// The cache this profiler memoizes through.
    fn cache(&self) -> &LatencyCache {
        match &self.cache {
            Some(c) => c,
            None => LatencyCache::global(),
        }
    }

    /// The stats registry this profiler records into.
    fn stats(&self) -> &Stats {
        match &self.stats {
            Some(s) => s,
            None => Stats::global(),
        }
    }

    /// Overrides the number of runs per configuration.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is zero.
    pub fn with_runs(mut self, runs: usize) -> Self {
        assert!(runs > 0, "at least one run is required");
        self.runs = runs;
        self
    }

    /// The device being profiled.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Deterministic per-run jitter factor (≥ 1.0 − JITTER_FRAC).
    fn jitter(&self, seed: u64, run: usize) -> f64 {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(run as u64));
        let base = 1.0 + rng.gen_range(-JITTER_FRAC..JITTER_FRAC);
        if rng.gen_bool(OUTLIER_PROB) {
            base * (1.0 + rng.gen_range(OUTLIER_RANGE.0..OUTLIER_RANGE.1))
        } else {
            base
        }
    }

    fn seed_for(&self, backend: &dyn ConvBackend, layer: &ConvLayerSpec) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self
            .device
            .name()
            .bytes()
            .chain(backend.name().bytes())
            .chain(layer.label().bytes())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h ^= (layer.c_out() as u64) << 32;
        h
    }

    /// Measures one layer configuration (median of the configured runs).
    ///
    /// The deterministic base latency comes from the process-wide
    /// [`LatencyCache`], so repeated sweeps over the same configurations
    /// simulate each one only once; the seeded jitter is layered on top of
    /// the cached value, which is bitwise-identical to an uncached run.
    pub fn measure(&self, backend: &dyn ConvBackend, layer: &ConvLayerSpec) -> Measurement {
        let base_ms = self.cache().latency_ms(backend, layer, &self.device);
        self.noisy_measurement(backend, layer, base_ms)
    }

    /// Batched twin of [`LayerProfiler::measure`]: measures every
    /// configuration in order through the cache's batched costing path,
    /// which hoists the backend fingerprint and engine out of the
    /// per-layer loop. Results are bitwise-identical to calling
    /// [`LayerProfiler::measure`] once per configuration.
    pub fn measure_batch(
        &self,
        backend: &dyn ConvBackend,
        configs: &[ConvLayerSpec],
    ) -> Vec<Measurement> {
        let costs = self.cache().cost_batch(backend, configs, &self.device);
        configs
            .iter()
            .zip(costs)
            .map(|(layer, (base_ms, _mj))| self.noisy_measurement(backend, layer, base_ms))
            .collect()
    }

    /// Layers the seeded jitter runs on top of a deterministic base time.
    fn noisy_measurement(
        &self,
        backend: &dyn ConvBackend,
        layer: &ConvLayerSpec,
        base_ms: f64,
    ) -> Measurement {
        if !self.noise {
            return Measurement::from_runs(vec![base_ms]);
        }
        let seed = self.seed_for(backend, layer);
        let runs = (0..self.runs)
            .map(|r| base_ms * self.jitter(seed, r))
            .collect();
        Measurement::from_runs(runs)
    }

    /// Fallible twin of [`LayerProfiler::measure`]: queries through the
    /// fallible cost path, retrying transient failures under the
    /// profiler's [`RetryPolicy`] before giving up.
    ///
    /// # Errors
    ///
    /// Returns a [`MeasureError`] carrying the channel count, the number
    /// of attempts spent and the final backend error when the
    /// configuration could not be measured (a permanent fault, or
    /// transient faults outlasting the retry budget).
    pub fn try_measure(
        &self,
        backend: &dyn ConvBackend,
        layer: &ConvLayerSpec,
    ) -> Result<Measurement, MeasureError> {
        let (result, outcome) = with_retry(&self.retry, || {
            self.cache().try_cost(backend, layer, &self.device)
        });
        self.stats().record_site(
            SITE_TRY_MEASURE,
            outcome.attempts as u64,
            outcome.backoff_ms,
            result.is_ok(),
        );
        match result {
            Ok((base_ms, _mj)) => Ok(self.noisy_measurement(backend, layer, base_ms)),
            Err(e) => Err(MeasureError {
                channels: layer.c_out(),
                attempts: outcome.attempts,
                backoff_ms: outcome.backoff_ms,
                message: e.to_string(),
            }),
        }
    }

    /// Modelled energy of one execution in millijoules (energy is a model
    /// output, not a measured quantity, so it carries no jitter). Served
    /// from the same cache entry as the latency.
    pub fn energy_mj(&self, backend: &dyn ConvBackend, layer: &ConvLayerSpec) -> f64 {
        self.cache().energy_mj(backend, layer, &self.device)
    }

    /// Intercepts a single execution: kernel timeline plus system counters
    /// (noise-free — interception observes the dispatch structure).
    pub fn timeline(&self, backend: &dyn ConvBackend, layer: &ConvLayerSpec) -> Timeline {
        let plan = backend.plan(layer, &self.device);
        let report = Engine::new(&self.device).run_chain(plan.chain());
        Timeline::new(
            plan.backend().to_string(),
            plan.algorithm().to_string(),
            report,
        )
    }

    /// Sweeps the layer's channel count over `channels` and measures each
    /// configuration — one figure-style staircase curve.
    ///
    /// Channel counts outside the layer's valid range are skipped. The
    /// per-configuration measurements fan out across
    /// [`sweep::sweep_jobs`] worker threads; every measurement is
    /// deterministic and collected in channel order, so the curve is
    /// identical at any worker count.
    pub fn latency_curve(
        &self,
        backend: &dyn ConvBackend,
        layer: &ConvLayerSpec,
        channels: std::ops::RangeInclusive<usize>,
    ) -> LatencyCurve {
        let configs: Vec<ConvLayerSpec> =
            channels.filter_map(|c| layer.with_c_out(c).ok()).collect();
        let points: Vec<CurvePoint> = sweep::ordered_parallel_map_with_stats(
            &configs,
            sweep::sweep_jobs(),
            self.stats(),
            |pruned| CurvePoint {
                channels: pruned.c_out(),
                measurement: self.measure(backend, pruned),
            },
        );
        LatencyCurve::new(
            layer.label().to_string(),
            backend.name().to_string(),
            self.device.name().to_string(),
            points,
        )
    }

    /// Fault-tolerant twin of [`LayerProfiler::latency_curve`]: sweeps
    /// the same configurations through [`LayerProfiler::try_measure`] and
    /// degrades gracefully instead of panicking.
    ///
    /// Configurations that fail after retries become explicit
    /// [`CurveGap`]s; every survivor lands at its channel count exactly
    /// as in the infallible sweep, so with no faults the result is the
    /// complete curve, bitwise-identical at any worker count.
    pub fn latency_curve_partial(
        &self,
        backend: &dyn ConvBackend,
        layer: &ConvLayerSpec,
        channels: std::ops::RangeInclusive<usize>,
    ) -> PartialCurve {
        let configs: Vec<ConvLayerSpec> =
            channels.filter_map(|c| layer.with_c_out(c).ok()).collect();
        let outcomes: Vec<Result<CurvePoint, CurveGap>> = sweep::ordered_parallel_map_with_stats(
            &configs,
            sweep::sweep_jobs(),
            self.stats(),
            |pruned| match self.try_measure(backend, pruned) {
                Ok(measurement) => Ok(CurvePoint {
                    channels: pruned.c_out(),
                    measurement,
                }),
                Err(e) => Err(CurveGap {
                    channels: e.channels,
                    attempts: e.attempts,
                    error: e.message,
                }),
            },
        );
        let mut points = Vec::new();
        let mut gaps = Vec::new();
        for outcome in outcomes {
            match outcome {
                Ok(p) => points.push(p),
                Err(g) => gaps.push(g),
            }
        }
        let curve = LatencyCurve::try_new(
            layer.label().to_string(),
            backend.name().to_string(),
            self.device.name().to_string(),
            points,
        )
        .ok();
        PartialCurve::new(curve, gaps)
    }

    /// Span-level Chrome trace events for a channel sweep.
    ///
    /// Each valid configuration is intercepted like
    /// [`LayerProfiler::timeline`] and laid on a virtual timeline:
    /// lane 0 carries one enclosing event per configuration (duration =
    /// the chain's total simulated time), lane 1 carries the individual
    /// kernel dispatches from the [`pruneperf_gpusim::ChainReport`].
    /// Everything is virtual simulator time, so the event list is a pure
    /// function of (backend, layer, channels) — byte-identical at any
    /// worker count when rendered with
    /// [`pruneperf_gpusim::render_trace`].
    pub fn sweep_events(
        &self,
        backend: &dyn ConvBackend,
        layer: &ConvLayerSpec,
        channels: std::ops::RangeInclusive<usize>,
    ) -> Vec<ChromeEvent> {
        const PID: u64 = 0;
        const LANE_CONFIGS: u64 = 0;
        const LANE_KERNELS: u64 = 1;
        let mut events = vec![
            ChromeEvent::process_name(
                PID,
                &format!(
                    "pruneperf profile {} on {} [{}]",
                    layer.label(),
                    self.device.name(),
                    backend.name()
                ),
            ),
            ChromeEvent::thread_name(PID, LANE_CONFIGS, "configurations"),
            ChromeEvent::thread_name(PID, LANE_KERNELS, "kernels"),
        ];
        let mut offset_us = 0.0f64;
        // One engine and one scratch arena for the whole sweep: the SoA
        // columns are reused across configurations instead of reallocated
        // per chain (the report itself still owns its kernel rows).
        let engine = Engine::new(&self.device);
        let mut scratch = ChainScratch::new();
        for config in channels.filter_map(|c| layer.with_c_out(c).ok()) {
            let plan = backend.plan(&config, &self.device);
            let report = engine.run_chain_with(plan.chain(), &mut scratch);
            events.push(
                ChromeEvent::complete(
                    &format!("{} ch", config.c_out()),
                    "config",
                    offset_us,
                    report.total_time_us(),
                    PID,
                    LANE_CONFIGS,
                )
                .arg_num("jobs", report.counters().jobs)
                .arg_num("kernels", report.kernels().len()),
            );
            events.extend(report.chrome_events(PID, LANE_KERNELS, offset_us));
            offset_us += report.total_time_us();
        }
        events
    }
}

/// Why one layer configuration could not be measured.
///
/// Produced by [`LayerProfiler::try_measure`] after the retry policy is
/// exhausted (or aborts on a permanent fault).
#[derive(Debug, Clone, PartialEq)]
pub struct MeasureError {
    /// The configuration's output channel count.
    pub channels: usize,
    /// Attempts made before giving up.
    pub attempts: u32,
    /// Total virtual backoff accounted across the retries, ms.
    pub backoff_ms: f64,
    /// The final backend error, rendered to text.
    pub message: String,
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} channels unmeasurable after {} attempt(s): {}",
            self.channels, self.attempts, self.message
        )
    }
}

impl std::error::Error for MeasureError {}

#[cfg(test)]
mod tests {
    use super::*;
    use pruneperf_backends::{AclGemm, Cudnn};
    use pruneperf_models::resnet50;

    fn l16() -> ConvLayerSpec {
        resnet50().layer("ResNet.L16").unwrap().clone()
    }

    #[test]
    fn median_of_ten_by_default() {
        let p = LayerProfiler::new(&Device::mali_g72_hikey970());
        let m = p.measure(&AclGemm::new(), &l16());
        assert_eq!(m.runs_ms().len(), 10);
        assert!(m.median_ms() > 0.0);
    }

    #[test]
    fn measurements_are_reproducible() {
        let d = Device::mali_g72_hikey970();
        let p = LayerProfiler::new(&d);
        let a = p.measure(&AclGemm::new(), &l16());
        let b = p.measure(&AclGemm::new(), &l16());
        assert_eq!(a, b);
    }

    #[test]
    fn measure_batch_matches_individual_measures() {
        let d = Device::mali_g72_hikey970();
        let p = LayerProfiler::new(&d).with_cache(Arc::new(LatencyCache::new()));
        let b = AclGemm::new();
        let configs: Vec<ConvLayerSpec> =
            (100..=128).map(|c| l16().with_c_out(c).unwrap()).collect();
        let batch = p.measure_batch(&b, &configs);
        assert_eq!(batch.len(), configs.len());
        for (cfg, m) in configs.iter().zip(&batch) {
            assert_eq!(m, &p.measure(&b, cfg), "c_out={}", cfg.c_out());
        }
    }

    #[test]
    fn jitter_is_small_relative_to_signal() {
        let d = Device::mali_g72_hikey970();
        let noisy = LayerProfiler::new(&d);
        let clean = LayerProfiler::noiseless(&d);
        let m_noisy = noisy.measure(&AclGemm::new(), &l16()).median_ms();
        let m_clean = clean.measure(&AclGemm::new(), &l16()).median_ms();
        assert!((m_noisy / m_clean - 1.0).abs() < 0.05);
    }

    #[test]
    fn noiseless_is_single_exact_run() {
        let d = Device::jetson_tx2();
        let p = LayerProfiler::noiseless(&d);
        let m = p.measure(&Cudnn::new(), &l16());
        assert_eq!(m.runs_ms().len(), 1);
        assert_eq!(m.median_ms(), Cudnn::new().latency_ms(&l16(), &d));
    }

    #[test]
    fn curve_sweeps_and_skips_invalid_counts() {
        let d = Device::mali_g72_hikey970();
        let p = LayerProfiler::noiseless(&d);
        // 120..=140 but the layer only has 128 channels -> 9 valid points.
        let curve = p.latency_curve(&AclGemm::new(), &l16(), 120..=140);
        assert_eq!(curve.points().len(), 9);
        assert_eq!(curve.channel_range(), (120, 128));
    }

    #[test]
    fn curve_is_identical_at_any_worker_count() {
        let d = Device::mali_g72_hikey970();
        let p = LayerProfiler::new(&d);
        sweep::set_sweep_jobs(1);
        let sequential = p.latency_curve(&AclGemm::new(), &l16(), 60..=128);
        sweep::set_sweep_jobs(8);
        let parallel = p.latency_curve(&AclGemm::new(), &l16(), 60..=128);
        sweep::set_sweep_jobs(1);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn timeline_exposes_interceptor_view() {
        let d = Device::mali_g72_hikey970();
        let p = LayerProfiler::new(&d);
        let layer = l16().with_c_out(92).unwrap();
        let t = p.timeline(&AclGemm::new(), &layer);
        assert_eq!(
            t.kernel_names(),
            ["im2col3x3_nhwc", "reshape_to_columns", "gemm_mm", "gemm_mm"]
        );
        assert_eq!(t.counters().jobs, 4);
        assert_eq!(t.counters().submissions, 2);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_rejected() {
        let _ = LayerProfiler::new(&Device::jetson_nano()).with_runs(0);
    }

    mod fault_paths {
        use super::*;
        use crate::faults::{FaultPlan, FaultyBackend};
        use std::sync::Arc;

        fn faulted_profiler(plan: FaultPlan) -> (LayerProfiler, FaultyBackend<AclGemm>) {
            let p = LayerProfiler::new(&Device::mali_g72_hikey970())
                .with_cache(Arc::new(LatencyCache::new()));
            (p, FaultyBackend::new(AclGemm::new(), plan))
        }

        #[test]
        fn try_measure_matches_measure_when_nothing_faults() {
            let (p, b) = faulted_profiler(FaultPlan::new(1));
            let layer = l16();
            assert_eq!(p.try_measure(&b, &layer).unwrap(), p.measure(&b, &layer));
        }

        #[test]
        fn try_measure_retries_transients_and_reports_permanents() {
            let (p, b) = faulted_profiler(FaultPlan::new(2).with_transient_rate(0.5));
            // Rate 0.5 per attempt against a 4-attempt budget: most
            // configurations recover via retry, a few (~6%) exhaust the
            // budget — and those must surface as *transient* errors with
            // the full budget spent, not hang or panic.
            let layer = l16();
            let mut ok = 0usize;
            for c in 60..=96 {
                let pruned = layer.with_c_out(c).unwrap();
                match p.try_measure(&b, &pruned) {
                    Ok(_) => ok += 1,
                    Err(e) => {
                        assert_eq!(e.attempts, 4, "budget must be spent: {e}");
                        assert!(e.message.contains("transient"), "{e}");
                        assert!(e.backoff_ms > 0.0);
                    }
                }
            }
            assert!(ok >= 30, "retry should recover most configs, got {ok}/37");
            assert!(b.stats().transients > 0, "the plan never fired");

            let (p, b) = faulted_profiler(FaultPlan::new(2).with_permanent_rate(1.0));
            let err = p.try_measure(&b, &layer).unwrap_err();
            assert_eq!(err.attempts, 1, "permanent faults must not retry");
            assert_eq!(err.channels, layer.c_out());
            assert!(err.message.contains("permanent"), "{err}");
            assert!(err.to_string().contains("unmeasurable"));
        }

        #[test]
        fn partial_curve_marks_gaps_and_keeps_survivors() {
            let plan = FaultPlan::new(9).with_permanent_rate(0.2);
            let (p, b) = faulted_profiler(plan);
            let partial = p.latency_curve_partial(&b, &l16(), 60..=128);
            assert!(!partial.is_complete(), "seed 9 @ 0.2 must lose points");
            assert!(partial.curve().is_some());
            assert_eq!(partial.measured() + partial.gaps().len(), 69);
            for gap in partial.gaps() {
                assert!(gap.error.contains("permanent"), "{gap:?}");
                assert!(partial.curve().unwrap().ms_at(gap.channels).is_none());
            }
            // Survivors are bitwise-identical to a fault-free sweep.
            let clean = LayerProfiler::new(&Device::mali_g72_hikey970()).latency_curve(
                &AclGemm::new(),
                &l16(),
                60..=128,
            );
            for point in partial.curve().unwrap().points() {
                assert_eq!(
                    Some(point.measurement.median_ms()),
                    clean.ms_at(point.channels)
                );
            }
        }

        #[test]
        fn partial_curve_is_identical_at_any_worker_count() {
            let run = |jobs: usize| {
                sweep::set_sweep_jobs(jobs);
                let plan = FaultPlan::new(13)
                    .with_permanent_rate(0.15)
                    .with_transient_rate(0.3);
                let (p, b) = faulted_profiler(plan);
                let out = p.latency_curve_partial(&b, &l16(), 60..=128);
                sweep::set_sweep_jobs(1);
                (out, b.stats())
            };
            let (seq, seq_stats) = run(1);
            let (par, par_stats) = run(8);
            assert_eq!(seq, par);
            assert_eq!(seq_stats, par_stats, "injection counts must match too");
        }

        #[test]
        fn fully_faulted_sweep_yields_no_curve_but_no_panic() {
            let (p, b) = faulted_profiler(FaultPlan::new(4).with_permanent_rate(1.0));
            let partial = p.latency_curve_partial(&b, &l16(), 60..=70);
            assert!(partial.curve().is_none());
            assert_eq!(partial.gaps().len(), 11);
            assert_eq!(partial.measured(), 0);
            assert_eq!(partial.coverage(), 0.0);
        }

        #[test]
        fn local_cache_keeps_global_state_clean() {
            // A label no other test measures: sibling tests fill the global
            // cache in parallel, so only this layer's absence is stable.
            let layer = ConvLayerSpec::new("LocalCacheOnly.L0", 3, 1, 1, 16, 24, 14, 14);
            let cache = Arc::new(LatencyCache::new());
            let p = LayerProfiler::new(&Device::mali_g72_hikey970()).with_cache(cache.clone());
            let _ = p.measure(&AclGemm::new(), &layer);
            assert!(!LatencyCache::global()
                .persist()
                .contains("LocalCacheOnly.L0"));
            assert_eq!(cache.len(), 1);
        }
    }
}
