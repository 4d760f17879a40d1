//! The `pruneperf chaos` drill: runs the deterministic fault-injection
//! harness end-to-end and proves the engine's recovery behaviour.
//!
//! Four scenarios, all driven by one seed through
//! [`pruneperf_profiler::faults::FaultPlan`]:
//!
//! 1. **transient-retry** — flaky cost queries recovered by bounded
//!    retry with accounted (virtual, never slept) backoff;
//! 2. **permanent-degrade** — unmeasurable configurations become
//!    explicit gaps in a partial curve that staircase analysis still
//!    digests;
//! 3. **worker-panic** — sweep workers panic at scheduled items and are
//!    contained with their item index while every survivor completes;
//! 4. **poison-recovery** — every latency-cache shard lock is poisoned
//!    and subsequent queries recover bitwise-identical values.
//!
//! The harness then re-runs every scenario at a different worker count
//! and asserts the rendered output is **byte-identical** — the
//! fault schedule keys on work identity, not call order, so parallelism
//! must be unobservable. `scripts/ci.sh` repeats that check across
//! processes.

use std::sync::Arc;

use pruneperf_backends::{AclGemm, ConvBackend};
use pruneperf_core::Staircase;
use pruneperf_gpusim::{json_string, Device};
use pruneperf_models::{resnet50, ConvLayerSpec};
use pruneperf_profiler::faults::{FaultPlan, FaultyBackend, RetryPolicy};
use pruneperf_profiler::{sweep, LatencyCache, LayerProfiler};

/// Channel range the sweep scenarios profile (ResNet-50 L16).
const SWEEP_CHANNELS: std::ops::RangeInclusive<usize> = 60..=128;
/// Item count for the worker-panic scenario.
const PANIC_ITEMS: usize = 48;

/// Tuning knobs for one chaos run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosOptions {
    /// Seed driving every fault schedule.
    pub seed: u64,
    /// Base fault rate in `[0, 1]`, applied per fault family.
    pub fault_rate: f64,
    /// Worker count for the primary run (the cross-check always runs
    /// the other of {1, 8} and compares).
    pub jobs: usize,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seed: 1,
            fault_rate: 0.2,
            jobs: 1,
        }
    }
}

/// One scenario's rendered outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosScenario {
    /// Scenario name (stable identifier).
    pub name: &'static str,
    /// Human-readable result lines, deterministic for a given seed.
    pub lines: Vec<String>,
}

/// Everything one `pruneperf chaos` invocation observed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    seed: u64,
    fault_rate: f64,
    scenarios: Vec<ChaosScenario>,
    deterministic: bool,
}

impl ChaosReport {
    /// The scenarios in execution order.
    pub fn scenarios(&self) -> &[ChaosScenario] {
        &self.scenarios
    }

    /// `true` when the run at the other worker count rendered
    /// byte-identical output.
    pub fn deterministic(&self) -> bool {
        self.deterministic
    }

    /// Human-readable report. Deliberately never mentions the worker
    /// count: the output of `--jobs 1` and `--jobs 8` must compare
    /// byte-equal from the outside.
    pub fn render_human(&self) -> String {
        let mut out = format!(
            "chaos drill: seed {}, fault rate {}\n",
            self.seed, self.fault_rate
        );
        for s in &self.scenarios {
            out.push_str(&format!("\n[{}]\n", s.name));
            for line in &s.lines {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
        out.push_str(&format!(
            "\nworker-count determinism: {}\n",
            if self.deterministic {
                "PASS (byte-identical across worker counts)"
            } else {
                "FAIL (output depends on the worker count)"
            }
        ));
        out
    }

    /// Stable-field-order JSON rendering (same idiom as the analysis
    /// reports — no serializer dependency in the binary).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"fault_rate\": {},\n", self.fault_rate));
        out.push_str(&format!("  \"deterministic\": {},\n", self.deterministic));
        out.push_str("  \"scenarios\": [\n");
        for (i, s) in self.scenarios.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": {}, \"lines\": [",
                json_string(s.name)
            ));
            for (j, line) in s.lines.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_string(line));
            }
            out.push_str("]}");
            if i + 1 < self.scenarios.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Silences the process panic hook for the guard's lifetime; the
/// contained-panic and lock-poisoning scenarios unwind on purpose, and
/// the default hook would spray backtraces over the report.
type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send + 'static>;

struct HookGuard {
    prev: Option<PanicHook>,
}

impl HookGuard {
    fn install() -> Self {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        HookGuard { prev: Some(prev) }
    }
}

impl Drop for HookGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            std::panic::set_hook(prev);
        }
    }
}

#[expect(clippy::expect_used, reason = "the static catalog always carries L16")]
fn layer() -> ConvLayerSpec {
    resnet50()
        .layer("ResNet.L16")
        .expect("catalog has L16")
        .clone()
}

/// Scenario 1: transient faults recovered by bounded retry.
fn transient_retry(seed: u64, rate: f64) -> ChaosScenario {
    let device = Device::mali_g72_hikey970();
    let plan = FaultPlan::new(seed).with_transient_rate(rate);
    let backend = FaultyBackend::new(AclGemm::new(), plan);
    let profiler = LayerProfiler::noiseless(&device)
        .with_cache(Arc::new(LatencyCache::new()))
        .with_retry_policy(RetryPolicy::bounded());
    let partial = profiler.latency_curve_partial(&backend, &layer(), SWEEP_CHANNELS);
    let total = partial.measured() + partial.gaps().len();
    let mut lines = vec![
        format!(
            "measured {}/{} configurations after transient-fault retries",
            partial.measured(),
            total
        ),
        format!("injected: {}", backend.stats()),
    ];
    for gap in partial.gaps() {
        lines.push(format!(
            "gave up at {} channels after {} attempt(s)",
            gap.channels, gap.attempts
        ));
    }
    ChaosScenario {
        name: "transient-retry",
        lines,
    }
}

/// Scenario 2: permanent faults degrade to a gap-marked partial curve
/// that staircase analysis still accepts.
fn permanent_degrade(seed: u64, rate: f64) -> ChaosScenario {
    let device = Device::mali_g72_hikey970();
    let plan = FaultPlan::new(seed).with_permanent_rate(rate);
    let backend = FaultyBackend::new(AclGemm::new(), plan);
    let profiler = LayerProfiler::noiseless(&device).with_cache(Arc::new(LatencyCache::new()));
    let partial = profiler.latency_curve_partial(&backend, &layer(), SWEEP_CHANNELS);
    let mut lines = vec![format!(
        "{} gap(s), {:.1}% coverage",
        partial.gaps().len(),
        partial.coverage() * 100.0
    )];
    match partial.curve() {
        Some(curve) => {
            let staircase = Staircase::detect(curve);
            lines.push(format!(
                "staircase over survivors: {} step(s), {} optimal point(s)",
                staircase.steps().len(),
                staircase.optimal_points().len()
            ));
        }
        None => lines.push("no surviving points — staircase skipped".to_string()),
    }
    let gapped: Vec<String> = partial
        .gaps()
        .iter()
        .map(|g| g.channels.to_string())
        .collect();
    if !gapped.is_empty() {
        lines.push(format!("unmeasurable channels: {}", gapped.join(", ")));
    }
    ChaosScenario {
        name: "permanent-degrade",
        lines,
    }
}

/// Scenario 3: scheduled worker panics are contained with their item
/// index while every other item completes.
fn worker_panic(seed: u64, rate: f64) -> ChaosScenario {
    let device = Device::mali_g72_hikey970();
    let plan = FaultPlan::new(seed).with_panic_rate(rate);
    let base = layer();
    let clean = AclGemm::new();
    let items: Vec<usize> = (0..PANIC_ITEMS).collect();
    let (slots, panics) = sweep::contained_parallel_map(&items, sweep::sweep_jobs(), |&i| {
        assert!(!plan.panics_at(i), "injected worker panic at item {i}");
        #[expect(clippy::expect_used, reason = "60..108 is within L16's 1..=128 range")]
        let pruned = base
            .with_c_out(60 + i)
            .expect("60..108 is within the layer's range");
        clean.latency_ms(&pruned, &device)
    });
    let survivors = slots.iter().filter(|s| s.is_some()).count();
    let mut lines = vec![format!(
        "{} of {} items panicked; {} survivor(s) completed in order",
        panics.len(),
        PANIC_ITEMS,
        survivors
    )];
    for p in &panics {
        lines.push(format!("contained: {p}"));
    }
    let ordered = slots
        .iter()
        .enumerate()
        .all(|(i, s)| s.is_some() != panics.iter().any(|p| p.index == i));
    lines.push(format!(
        "slot/panic bookkeeping consistent: {}",
        if ordered { "yes" } else { "NO" }
    ));
    ChaosScenario {
        name: "worker-panic",
        lines,
    }
}

/// Scenario 4: poisoned cache shards recover with bitwise-identical
/// values.
fn poison_recovery(seed: u64) -> ChaosScenario {
    let device = Device::mali_g72_hikey970();
    let cache = LatencyCache::new();
    let backend = AclGemm::new();
    let base = layer();
    // Seed shifts which configurations are warmed, so different chaos
    // seeds exercise different shards.
    let start = 60 + (seed % 8) as usize;
    #[expect(clippy::expect_used, reason = "60..84 is within L16's 1..=128 range")]
    let configs: Vec<ConvLayerSpec> = (start..start + 16)
        .map(|c| base.with_c_out(c).expect("within range"))
        .collect();
    let before: Vec<(f64, f64)> = configs
        .iter()
        .map(|l| cache.cost(&backend, l, &device))
        .collect();
    cache.poison_all_shards();
    let after: Vec<(f64, f64)> = configs
        .iter()
        .map(|l| cache.cost(&backend, l, &device))
        .collect();
    let identical = before
        .iter()
        .zip(&after)
        .all(|(a, b)| a.0.to_bits() == b.0.to_bits() && a.1.to_bits() == b.1.to_bits());
    #[expect(clippy::expect_used, reason = "40 is within L16's 1..=128 range")]
    let fresh = cache.cost(
        &backend,
        &base.with_c_out(40).expect("within range"),
        &device,
    );
    ChaosScenario {
        name: "poison-recovery",
        lines: vec![
            format!(
                "poisoned every shard after warming {} entries",
                before.len()
            ),
            format!(
                "re-read {} entries bitwise-identical: {}",
                after.len(),
                if identical { "yes" } else { "NO" }
            ),
            format!(
                "fresh insert after poisoning: {}",
                if fresh.0 > 0.0 { "ok" } else { "FAILED" }
            ),
        ],
    }
}

/// Chrome-trace JSON of the drill's sweep workload in virtual time: the
/// per-configuration and per-kernel spans of the ResNet-50 L16 channel
/// sweep every fault scenario drives (`pruneperf chaos --trace-out`).
///
/// Built from the deterministic simulator timelines, so the rendering is
/// byte-identical at any seed, fault rate or worker count — CI compares
/// it across `--jobs 1` and `--jobs 8` with `cmp`.
pub fn trace_json() -> String {
    let device = Device::mali_g72_hikey970();
    let profiler = LayerProfiler::noiseless(&device);
    pruneperf_gpusim::render_trace(&profiler.sweep_events(
        &AclGemm::new(),
        &layer(),
        SWEEP_CHANNELS,
    ))
}

fn run_scenarios(opts: &ChaosOptions) -> Vec<ChaosScenario> {
    vec![
        transient_retry(opts.seed, opts.fault_rate),
        permanent_degrade(opts.seed, opts.fault_rate),
        worker_panic(opts.seed, opts.fault_rate),
        poison_recovery(opts.seed),
    ]
}

/// Runs the chaos drill.
///
/// Scenarios execute at `opts.jobs` sweep workers, then again at the
/// other of {1, 8}; the report's `deterministic` flag records whether
/// both renderings were byte-identical. The process-wide sweep worker
/// count is restored afterwards.
pub fn run_chaos(opts: &ChaosOptions) -> ChaosReport {
    let _hook = HookGuard::install();
    let restore = sweep::sweep_jobs();
    let primary_jobs = opts.jobs.max(1);
    let cross_jobs = if primary_jobs == 1 { 8 } else { 1 };

    sweep::set_sweep_jobs(primary_jobs);
    let primary = run_scenarios(opts);
    sweep::set_sweep_jobs(cross_jobs);
    let cross = run_scenarios(opts);
    sweep::set_sweep_jobs(restore);

    ChaosReport {
        seed: opts.seed,
        fault_rate: opts.fault_rate,
        deterministic: primary == cross,
        scenarios: primary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_run_is_deterministic_and_reports_all_scenarios() {
        let opts = ChaosOptions {
            seed: 3,
            fault_rate: 0.25,
            jobs: 1,
        };
        let report = run_chaos(&opts);
        assert!(report.deterministic(), "{}", report.render_human());
        let names: Vec<&str> = report.scenarios().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "transient-retry",
                "permanent-degrade",
                "worker-panic",
                "poison-recovery"
            ]
        );
    }

    #[test]
    fn jobs_one_and_eight_render_identically() {
        let mk = |jobs| ChaosOptions {
            seed: 5,
            fault_rate: 0.3,
            jobs,
        };
        let one = run_chaos(&mk(1));
        let eight = run_chaos(&mk(8));
        assert_eq!(one.render_human(), eight.render_human());
        assert_eq!(one.render_json(), eight.render_json());
        assert!(one.deterministic() && eight.deterministic());
    }

    #[test]
    fn fault_free_run_is_fully_green() {
        let report = run_chaos(&ChaosOptions {
            seed: 1,
            fault_rate: 0.0,
            jobs: 1,
        });
        let text = report.render_human();
        assert!(report.deterministic());
        assert!(text.contains("measured 69/69"), "{text}");
        assert!(text.contains("0 gap(s), 100.0% coverage"), "{text}");
        assert!(text.contains("0 of 48 items panicked"), "{text}");
        assert!(text.contains("bitwise-identical: yes"), "{text}");
    }

    #[test]
    fn faults_actually_fire_at_moderate_rates() {
        let report = run_chaos(&ChaosOptions {
            seed: 2,
            fault_rate: 0.3,
            jobs: 1,
        });
        let text = report.render_human();
        assert!(!text.contains("injected: 0 transient"), "{text}");
        assert!(!text.contains("\n  0 gap(s)"), "{text}");
        assert!(!text.contains("0 of 48 items panicked"), "{text}");
    }

    #[test]
    fn trace_json_is_stable_and_covers_the_sweep() {
        let trace = trace_json();
        assert_eq!(trace, trace_json());
        assert!(trace.contains("\"traceEvents\""), "{trace}");
        assert!(trace.contains("\"60 ch\""), "{trace}");
        assert!(trace.contains("\"128 ch\""), "{trace}");
    }

    #[test]
    fn json_is_escaped_and_stable() {
        let report = run_chaos(&ChaosOptions {
            seed: 4,
            fault_rate: 0.2,
            jobs: 1,
        });
        let json = report.render_json();
        assert!(
            json.starts_with("{\n  \"version\": 1,\n  \"seed\": 4,"),
            "{json}"
        );
        assert!(json.contains("\"deterministic\": true"));
        let parsed: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        assert!(parsed.get("scenarios").is_some());
    }
}
