//! The `pruneperf bench` micro-benchmark suite (PR 5).
//!
//! Six fixed benchmarks exercise the hot paths of the simulation stack:
//!
//! 1. **cache_hit** — repeated lookups against a warmed latency cache;
//! 2. **cold_sweep** — a full channel sweep of ResNet-50 L16 with an
//!    empty cache (the profiler's worst case);
//! 3. **staircase_detect** — staircase analysis over a full-range curve;
//! 4. **gemm_split_plan** — ACL GEMM dispatch planning across every
//!    channel count, including the split-kernel tail shapes;
//! 5. **resnet50_full** — one whole-network run through
//!    [`NetworkRunner`];
//! 6. **search_beam_small** (PR 10) — the whole-network beam search on
//!    the micro network, cold then warm against one cache; the warm-pass
//!    engine deltas gate at zero.
//!
//! Each benchmark reports **deterministic metrics** only: counts and
//! *virtual*-time quantities from the simulator, plus the latency cache's
//! engine-activity counters, which prove the incremental simulation path
//! is doing its job: `engine_runs` counts full cold simulations,
//! `chains_assembled` counts layer costs rebuilt from memoized kernel
//! costs, and `kernel_memo_hits` counts per-kernel queries answered without
//! the engine. These are byte-identical on every machine and at every
//! `--jobs` count, so CI diffs them against a checked-in baseline
//! (`BENCH_PR10.json`) and fails on any drift. Wall time is the
//! `benchmark/` crate's job, not this suite's.
//!
//! Floats render through Rust's shortest-roundtrip `Display`, so string
//! equality of a rendered metric is bit equality of the underlying `f64`.

use std::sync::Arc;

use pruneperf_backends::{AclGemm, ConvBackend};
use pruneperf_core::accuracy::AccuracyModel;
use pruneperf_core::search::{search, SearchAlgo, SearchConfig};
use pruneperf_core::Staircase;
use pruneperf_gpusim::Device;
use pruneperf_models::{resnet50, ConvLayerSpec};
use pruneperf_profiler::{EngineStats, LatencyCache, LayerProfiler, NetworkRunner, Stats};

/// Schema version of the rendered JSON.
pub const BENCH_SCHEMA_VERSION: u64 = 2;

/// One deterministic metric value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Metric {
    /// An exact count.
    Count(u64),
    /// A virtual-time / virtual-energy quantity. Rendered via `Display`
    /// (shortest roundtrip), compared bit-exactly.
    Float(f64),
}

impl Metric {
    /// Renders the value as a JSON number token.
    pub fn render(&self) -> String {
        match self {
            Metric::Count(v) => v.to_string(),
            Metric::Float(v) => format!("{v}"),
        }
    }

    /// Bit-exact equality against a parsed baseline number.
    fn matches(&self, baseline: &serde::Value) -> bool {
        match self {
            Metric::Count(v) => baseline.as_u64() == Some(*v),
            Metric::Float(v) => baseline
                .as_f64()
                .is_some_and(|b| b.to_bits() == v.to_bits()),
        }
    }
}

/// One benchmark's outcome: its deterministic metrics in a stable order.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Stable benchmark identifier.
    pub name: &'static str,
    /// `(metric name, value)` in render order.
    pub metrics: Vec<(&'static str, Metric)>,
}

/// The whole suite's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSuite {
    results: Vec<BenchResult>,
}

fn hikey() -> Device {
    Device::mali_g72_hikey970()
}

#[expect(clippy::expect_used, reason = "the static catalog always carries L16")]
fn l16() -> ConvLayerSpec {
    resnet50()
        .layer("ResNet.L16")
        .expect("catalog has L16")
        .clone()
}

/// Every valid pruning of `layer` down to 1 kept channel.
fn all_prunings(layer: &ConvLayerSpec) -> Vec<ConvLayerSpec> {
    (1..=layer.c_out())
        .filter_map(|c| layer.with_c_out(c).ok())
        .collect()
}

/// Benchmark 1: repeated queries against a warmed latency cache.
fn bench_cache_hit() -> BenchResult {
    const PASSES: usize = 8;
    let device = hikey();
    let backend = AclGemm::new();
    let configs = all_prunings(&l16());
    let cache = LatencyCache::new();
    let mut virtual_ms = 0.0f64;
    for _ in 0..=PASSES {
        for config in &configs {
            virtual_ms += cache.cost(&backend, config, &device).0;
        }
    }
    let stats = cache.stats();
    BenchResult {
        name: "cache_hit",
        metrics: vec![
            ("lookups", Metric::Count(stats.lookups)),
            ("hits", Metric::Count(stats.hits)),
            ("misses", Metric::Count(stats.misses)),
            ("entries", Metric::Count(stats.entries as u64)),
            ("virtual_ms", Metric::Float(virtual_ms)),
        ],
    }
}

/// Appends the cache's engine-activity counters to a metric list. The
/// `engine_runs`/`chains_assembled` split is the regression gate for the
/// incremental path: a change that silently falls back to cold simulation
/// moves `engine_runs` off its baseline and fails `--check`.
fn push_engine_metrics(metrics: &mut Vec<(&'static str, Metric)>, engine: EngineStats) {
    metrics.push(("chains_assembled", Metric::Count(engine.chains_assembled)));
    metrics.push(("engine_runs", Metric::Count(engine.engine_runs)));
    metrics.push(("kernel_lookups", Metric::Count(engine.kernel_lookups)));
    metrics.push(("kernel_memo_hits", Metric::Count(engine.kernel_memo_hits())));
    metrics.push(("kernel_evals", Metric::Count(engine.kernel_evals)));
}

/// Benchmark 2: a full channel sweep against an empty cache.
fn bench_cold_sweep() -> BenchResult {
    let device = hikey();
    let backend = AclGemm::new();
    let layer = l16();
    let cache = Arc::new(LatencyCache::new());
    let curve = LayerProfiler::noiseless(&device)
        .with_cache(Arc::clone(&cache))
        .with_stats(Arc::new(Stats::new()))
        .latency_curve(&backend, &layer, 60..=128);
    let total_ms: f64 = curve.series().iter().map(|&(_, ms)| ms).sum();
    let mut metrics = vec![
        ("points", Metric::Count(curve.points().len() as u64)),
        ("total_virtual_ms", Metric::Float(total_ms)),
    ];
    push_engine_metrics(&mut metrics, cache.engine_stats());
    BenchResult {
        name: "cold_sweep",
        metrics,
    }
}

/// Benchmark 3: staircase detection over a full-range curve.
fn bench_staircase_detect() -> BenchResult {
    let device = hikey();
    let backend = AclGemm::new();
    let layer = l16();
    let curve = LayerProfiler::noiseless(&device)
        .with_cache(Arc::new(LatencyCache::new()))
        .with_stats(Arc::new(Stats::new()))
        .latency_curve(&backend, &layer, 1..=layer.c_out());
    let staircase = Staircase::detect(&curve);
    let best_ms = staircase
        .optimal_points()
        .iter()
        .map(|p| p.ms)
        .fold(f64::INFINITY, f64::min);
    BenchResult {
        name: "staircase_detect",
        metrics: vec![
            ("curve_points", Metric::Count(curve.points().len() as u64)),
            ("steps", Metric::Count(staircase.steps().len() as u64)),
            (
                "optimal_points",
                Metric::Count(staircase.optimal_points().len() as u64),
            ),
            ("best_ms", Metric::Float(best_ms)),
        ],
    }
}

/// Benchmark 4: ACL GEMM dispatch planning across every channel count.
fn bench_gemm_split_plan() -> BenchResult {
    let device = hikey();
    let backend = AclGemm::new();
    let configs = all_prunings(&l16());
    let mut jobs = 0u64;
    let mut split_plans = 0u64;
    let mut arith = 0u64;
    for config in &configs {
        let plan = backend.plan(config, &device);
        jobs += plan.chain().len() as u64;
        arith += plan.chain().total_arith();
        if plan.kernels_named("gemm_mm").count() > 1 {
            split_plans += 1;
        }
    }
    BenchResult {
        name: "gemm_split_plan",
        metrics: vec![
            ("plans", Metric::Count(configs.len() as u64)),
            ("jobs", Metric::Count(jobs)),
            ("split_plans", Metric::Count(split_plans)),
            ("arith_instructions", Metric::Count(arith)),
        ],
    }
}

/// Benchmark 5: one whole-network ResNet-50 run.
///
/// Runs against a fresh local cache (not the process-wide one) so the
/// engine counters are a pure function of this benchmark's work; the
/// virtual metrics are bitwise-unaffected by where the cache lives.
fn bench_resnet50_full() -> BenchResult {
    let device = hikey();
    let backend = AclGemm::new();
    let network = resnet50();
    let cache = Arc::new(LatencyCache::new());
    let report = NetworkRunner::new(&device)
        .with_cache(Arc::clone(&cache))
        .run(&backend, &network);
    let mut metrics = vec![
        ("layers", Metric::Count(report.layers().len() as u64)),
        ("total_virtual_ms", Metric::Float(report.total_ms())),
        ("total_virtual_mj", Metric::Float(report.total_mj())),
    ];
    push_engine_metrics(&mut metrics, cache.engine_stats());
    BenchResult {
        name: "resnet50_full",
        metrics,
    }
}

/// Benchmark 6 (PR 10): the whole-network beam search on the three-layer
/// micro network, run twice against the same cache.
///
/// The cold pass exercises the search engine plus the batched evaluation
/// path; the warm pass must answer *every* measurement from the latency
/// cache — `warm_engine_runs` and `warm_chains_assembled` are the deltas
/// across the second pass and gate at exactly zero. The search counters
/// themselves (candidates evaluated, front size, dominated) are
/// schedule-free and identical across passes.
fn bench_search_beam_small() -> BenchResult {
    let device = hikey();
    let backend = AclGemm::new();
    let network = pruneperf_core::testkit::micro_net();
    let config = SearchConfig {
        algo: SearchAlgo::Beam,
        seed: 1,
        beam_width: 16,
        generations: 12,
    };
    let cache = Arc::new(LatencyCache::new());
    let profiler = LayerProfiler::noiseless(&device).with_cache(Arc::clone(&cache));
    let accuracy = AccuracyModel::for_network(&network);
    let cold = search(&profiler, &accuracy, &backend, &network, &config);
    let cold_engine = cache.engine_stats();
    let warm = search(&profiler, &accuracy, &backend, &network, &config);
    let warm_engine = cache.engine_stats();
    debug_assert_eq!(cold.evaluated, warm.evaluated);
    let metrics = vec![
        ("candidates", Metric::Count(cold.evaluated)),
        ("front", Metric::Count(cold.archived as u64)),
        ("dominated", Metric::Count(cold.dominated)),
        ("rounds", Metric::Count(cold.rounds)),
        ("best_ms", Metric::Float(cold.plans[0].latency_ms())),
        ("cold_engine_runs", Metric::Count(cold_engine.engine_runs)),
        (
            "cold_chains_assembled",
            Metric::Count(cold_engine.chains_assembled),
        ),
        (
            "warm_engine_runs",
            Metric::Count(warm_engine.engine_runs - cold_engine.engine_runs),
        ),
        (
            "warm_chains_assembled",
            Metric::Count(warm_engine.chains_assembled - cold_engine.chains_assembled),
        ),
    ];
    BenchResult {
        name: "search_beam_small",
        metrics,
    }
}

/// Runs the whole suite. Every metric is deterministic, so two
/// renderings compare byte-for-byte.
pub fn run_suite() -> BenchSuite {
    BenchSuite {
        results: vec![
            bench_cache_hit(),
            bench_cold_sweep(),
            bench_staircase_detect(),
            bench_gemm_split_plan(),
            bench_resnet50_full(),
            bench_search_beam_small(),
        ],
    }
}

impl BenchSuite {
    /// The benchmark results in execution order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Stable-field-order JSON rendering (same hand-rendered idiom as the
    /// analysis and chaos reports — no serializer in the render path).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"version\": {BENCH_SCHEMA_VERSION},\n"));
        out.push_str("  \"suite\": \"pruneperf bench\",\n");
        out.push_str("  \"benchmarks\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": \"{}\",\n", r.name));
            out.push_str("      \"metrics\": {");
            for (j, (key, value)) in r.metrics.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{key}\": {}", value.render()));
            }
            out.push_str("}\n    }");
            if i + 1 < self.results.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Human-readable table.
    pub fn render_human(&self) -> String {
        let mut out = String::from("pruneperf micro-benchmark suite\n");
        for r in &self.results {
            out.push_str(&format!("\n[{}]\n", r.name));
            for (key, value) in &r.metrics {
                out.push_str(&format!("  {key:<20} {}\n", value.render()));
            }
        }
        out
    }

    /// Compares this run's deterministic metrics against a baseline
    /// rendered by [`BenchSuite::render_json`]; keys other than each
    /// benchmark's `name` and `metrics` are ignored.
    ///
    /// Returns a summary line on success.
    ///
    /// # Errors
    ///
    /// One message per mismatch: unparseable baseline, missing or extra
    /// benchmark, missing or extra metric, or a value that drifted.
    pub fn check_against(&self, baseline_json: &str) -> Result<String, Vec<String>> {
        let baseline: serde::Value = match serde_json::from_str(baseline_json) {
            Ok(v) => v,
            Err(e) => return Err(vec![format!("baseline is not valid JSON: {e}")]),
        };
        let Some(benchmarks) = baseline.get("benchmarks").and_then(|b| b.as_array()) else {
            return Err(vec!["baseline has no \"benchmarks\" array".to_string()]);
        };
        let mut problems = Vec::new();
        let mut compared = 0usize;
        for r in &self.results {
            let Some(base) = benchmarks
                .iter()
                .find(|b| b.get("name").and_then(|n| n.as_str()) == Some(r.name))
            else {
                problems.push(format!("benchmark '{}' missing from baseline", r.name));
                continue;
            };
            let Some(metrics) = base.get("metrics").and_then(|m| m.as_object()) else {
                problems.push(format!("baseline '{}' has no \"metrics\" object", r.name));
                continue;
            };
            for (key, value) in &r.metrics {
                match metrics.iter().find(|(k, _)| k == key) {
                    None => problems.push(format!("{}.{key}: missing from baseline", r.name)),
                    Some((_, base_value)) if !value.matches(base_value) => {
                        problems.push(format!(
                            "{}.{key}: regression — baseline {}, measured {}",
                            r.name,
                            render_baseline(base_value),
                            value.render()
                        ));
                    }
                    Some(_) => compared += 1,
                }
            }
            for (key, _) in metrics {
                if !r.metrics.iter().any(|(k, _)| k == key) {
                    problems.push(format!("{}.{key}: in baseline but not measured", r.name));
                }
            }
        }
        for b in benchmarks {
            if let Some(name) = b.get("name").and_then(|n| n.as_str()) {
                if !self.results.iter().any(|r| r.name == name) {
                    problems.push(format!("baseline benchmark '{name}' was not run"));
                }
            }
        }
        if problems.is_empty() {
            Ok(format!(
                "bench check: {} benchmarks, {compared} deterministic metrics match the baseline",
                self.results.len()
            ))
        } else {
            Err(problems)
        }
    }
}

/// Renders a parsed baseline number back to a display token.
fn render_baseline(value: &serde::Value) -> String {
    if let Some(u) = value.as_u64() {
        u.to_string()
    } else if let Some(f) = value.as_f64() {
        format!("{f}")
    } else {
        format!("{value:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(suite: &BenchSuite, bench: &str, key: &str) -> Metric {
        suite
            .results()
            .iter()
            .find(|r| r.name == bench)
            .and_then(|r| r.metrics.iter().find(|(k, _)| *k == key))
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("{bench}.{key} missing"))
    }

    #[test]
    fn suite_covers_all_six_benchmarks_in_order() {
        let suite = run_suite();
        let names: Vec<&str> = suite.results().iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            [
                "cache_hit",
                "cold_sweep",
                "staircase_detect",
                "gemm_split_plan",
                "resnet50_full",
                "search_beam_small"
            ]
        );
    }

    #[test]
    fn warm_search_pass_never_touches_the_engine() {
        let suite = run_suite();
        let (Metric::Count(warm_runs), Metric::Count(warm_chains), Metric::Count(cold_runs)) = (
            metric(&suite, "search_beam_small", "warm_engine_runs"),
            metric(&suite, "search_beam_small", "warm_chains_assembled"),
            metric(&suite, "search_beam_small", "cold_engine_runs"),
        ) else {
            panic!("search_beam_small engine metrics must be counts");
        };
        let Metric::Count(cold_chains) =
            metric(&suite, "search_beam_small", "cold_chains_assembled")
        else {
            panic!("cold_chains_assembled must be a count");
        };
        assert_eq!(warm_runs, 0, "warm search must be fully cached");
        assert_eq!(warm_chains, 0, "warm search must not re-assemble chains");
        // The incremental path may satisfy the cold pass without a single
        // full engine run; either way the cold pass built real costs.
        assert!(cold_runs + cold_chains > 0, "cold search did no work");
        let Metric::Count(candidates) = metric(&suite, "search_beam_small", "candidates") else {
            panic!("candidates must be a count");
        };
        assert!(candidates > 0);
    }

    #[test]
    fn deterministic_metrics_are_identical_across_runs() {
        let a = run_suite();
        let b = run_suite();
        assert_eq!(a, b);
        assert_eq!(a.render_json(), b.render_json());
    }

    #[test]
    fn cache_hit_conserves_lookups() {
        let suite = run_suite();
        let (Metric::Count(lookups), Metric::Count(hits), Metric::Count(misses)) = (
            metric(&suite, "cache_hit", "lookups"),
            metric(&suite, "cache_hit", "hits"),
            metric(&suite, "cache_hit", "misses"),
        ) else {
            panic!("cache_hit metrics must be counts");
        };
        assert_eq!(lookups, hits + misses);
        assert!(hits >= 8 * misses, "warmed cache must be hit-dominated");
    }

    #[test]
    fn json_parses_and_lists_all_six_benchmarks() {
        let json = run_suite().render_json();
        let parsed: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let benchmarks = parsed
            .get("benchmarks")
            .and_then(|b| b.as_array())
            .expect("benchmarks array");
        assert_eq!(benchmarks.len(), 6);
    }

    #[test]
    fn check_against_accepts_own_rendering_and_flags_drift() {
        let suite = run_suite();
        let baseline = suite.render_json();
        let summary = suite.check_against(&baseline).expect("self-check passes");
        assert!(summary.contains("match the baseline"), "{summary}");

        // A drifted count is reported as a regression.
        let drifted = baseline.replace("\"plans\": 128", "\"plans\": 127");
        assert_ne!(drifted, baseline, "fixture must actually change");
        let problems = suite.check_against(&drifted).expect_err("must flag drift");
        assert!(
            problems.iter().any(|p| p.contains("gemm_split_plan.plans")),
            "{problems:?}"
        );

        // A missing benchmark is reported.
        let gutted = baseline.replace("\"name\": \"cold_sweep\"", "\"name\": \"warm_sweep\"");
        let problems = suite.check_against(&gutted).expect_err("must flag rename");
        assert!(
            problems.iter().any(|p| p.contains("'cold_sweep' missing")),
            "{problems:?}"
        );
        assert!(
            problems
                .iter()
                .any(|p| p.contains("'warm_sweep' was not run")),
            "{problems:?}"
        );

        assert!(suite.check_against("not json").is_err());
        assert!(suite.check_against("{}").is_err());
    }

    #[test]
    fn incremental_path_eliminates_full_engine_runs() {
        // The PR 6 acceptance gate: the cold path used to run one full
        // engine chain per point/layer; the incremental path must cut
        // that by at least 5× (here: to zero — every cost is assembled
        // from memoized kernel costs).
        let suite = run_suite();
        for bench in ["cold_sweep", "resnet50_full"] {
            let (Metric::Count(assembled), Metric::Count(runs)) = (
                metric(&suite, bench, "chains_assembled"),
                metric(&suite, bench, "engine_runs"),
            ) else {
                panic!("{bench} engine counters must be counts");
            };
            assert!(assembled > 0, "{bench}: nothing was assembled");
            assert!(
                5 * runs <= assembled,
                "{bench}: engine runs not reduced >=5x ({runs} runs vs {assembled} cold-path chains)"
            );
            assert_eq!(runs, 0, "{bench}: the infallible path never runs cold");
            let (Metric::Count(lookups), Metric::Count(evals), Metric::Count(hits)) = (
                metric(&suite, bench, "kernel_lookups"),
                metric(&suite, bench, "kernel_evals"),
                metric(&suite, bench, "kernel_memo_hits"),
            ) else {
                panic!("{bench} kernel counters must be counts");
            };
            assert_eq!(lookups, evals + hits);
            assert!(hits > 0, "{bench}: the kernel memo was never reused");
        }
    }
}
