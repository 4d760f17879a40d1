//! The traced run: the workload's inputs replayed in-process with a span
//! around every call the benchmark makes into a layer's public functions,
//! plus fixed probes of single layers. Per-layer metrics come only from
//! here; they attribute the end-to-end numbers, never replace them.
//!
//! Every traced run reports every layer metric. The workload's own path
//! is replayed at full size and supplies the counters and the tracing
//! overhead; the other paths are replayed small so their layer metrics are
//! still present.

use std::io::BufReader;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pruneperf_analysis::network_verify::audit_pruning_plan;
use pruneperf_backends::{AclGemm, ConvBackend, Cudnn};
use pruneperf_core::accuracy::AccuracyModel;
use pruneperf_core::search::{search, SearchAlgo, SearchConfig, SearchSpace};
use pruneperf_core::PerfAwarePruner;
use pruneperf_models::{resnet50, ConvLayerSpec};
use pruneperf_profiler::{
    sweep, FaultPlan, FaultyBackend, LatencyCache, LayerProfiler, NetworkRunner,
};
use pruneperf_serve::admission::worker_for_device;
use pruneperf_serve::catalog::{backend_by_name, device_by_name, network_by_name};
use pruneperf_serve::protocol::{FailedLayerInfo, PlanBody};
use pruneperf_serve::{http, PlanRequest, PlanResponse, PlanService, RequestObjective};

use crate::counters::Counters;
use crate::inputs::{self, PlanKey, HOT_RATE_PER_S, JOBS};
use crate::load;
use crate::report::{Metric, Outcome};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::{serve_setup, Ctx};

/// The cache bound the daemon runs with, per shard.
const SERVE_CACHE_CAP: usize = 4096;

/// What one replayed path contributes.
#[derive(Default)]
struct Section {
    metrics: Vec<Metric>,
    counters: Counters,
    /// Traced op time over untraced op time for the same work.
    overhead: f64,
    attempted: u64,
    failed: u64,
    wrong: u64,
    notes: Vec<String>,
}

/// Runs the traced replay of `workload`; returns the per-layer metrics and
/// the spans.
pub fn trace(workload: &str, ctx: &Ctx) -> Result<(Outcome, Tracer), String> {
    sweep::set_sweep_jobs(JOBS);
    let mut tr = Tracer::default();
    let hot_live = ((HOT_RATE_PER_S * ctx.seconds as f64) as usize).clamp(1, 300);
    let serve = match workload {
        "serve_hot" => serve_section(ctx, &mut tr, inputs::hot_requests(ctx.seed, hot_live), true)?,
        "serve_churn" => {
            serve_section(ctx, &mut tr, inputs::churn_requests(ctx.seed, 4096), false)?
        }
        "search_resnet50" | "repro_all" => {
            serve_section(ctx, &mut tr, inputs::hot_requests(ctx.seed, 100), true)?
        }
        other => return Err(format!("unknown workload '{other}'")),
    };
    let own_search = workload == "search_resnet50";
    let search = search_section(ctx, &mut tr, if own_search { 3 } else { 1 })?;
    let repro = repro_section(ctx, &mut tr, if workload == "repro_all" { 10 } else { 2 })?;
    let probes = probe_section(&mut tr);

    let own = match workload {
        "search_resnet50" => &search,
        "repro_all" => &repro,
        _ => &serve,
    };
    let sections = [&serve, &search, &repro, &probes];
    let mut metrics: Vec<Metric> = sections.iter().flat_map(|s| s.metrics.clone()).collect();
    metrics.extend(own.counters.metrics());
    metrics.push(Metric::new("trace.overhead_ratio", own.overhead, "ratio"));
    let outcome = Outcome {
        correct: sections.iter().all(|s| s.wrong == 0),
        attempted: sections.iter().map(|s| s.attempted).sum(),
        failed: sections.iter().map(|s| s.failed).sum(),
        metrics,
        notes: sections.iter().flat_map(|s| s.notes.clone()).collect(),
    };
    Ok((outcome, tr))
}

/// Resolves the request's names through the daemon's catalog.
fn resolve(
    req: &PlanRequest,
) -> Result<
    (
        pruneperf_gpusim::Device,
        Box<dyn ConvBackend>,
        pruneperf_models::Network,
    ),
    String,
> {
    Ok((
        device_by_name(&req.device)?,
        backend_by_name(&req.backend)?,
        network_by_name(&req.network)?,
    ))
}

/// `PlanService::handle`, step by step in its order and on its cache, with
/// a span around each step.
///
/// This is a copy of `handle` in `crates/serve/src/planner.rs`, and must be
/// changed with every change there. The recorded digests catch a copy whose
/// answers drift, but not one whose steps do: if `handle` stops rebuilding
/// the accuracy model per request, this copy goes on rebuilding it, and
/// `core.accuracy.build_ms` and the attribution describe the old code.
/// Delete it once the program can time its own steps.
fn traced_handle(tr: &mut Tracer, service: &PlanService, req: &PlanRequest) -> PlanResponse {
    let (device, backend, network) = match tr.span("models.catalog.resolve", |_| resolve(req)) {
        Ok(resolved) => resolved,
        Err(e) => return PlanResponse::Error(e),
    };
    if !(req.budget > 0.0 && req.budget <= 1.0) {
        return PlanResponse::Error(format!("budget must be in (0, 1], got {}", req.budget));
    }
    let profiler = LayerProfiler::noiseless(&device)
        .with_cache(Arc::clone(service.cache()))
        .with_stats(Arc::clone(service.stats()));
    let accuracy = tr.span("core.accuracy.build", |_| {
        AccuracyModel::for_network(&network)
    });
    let plan = tr.span("core.pruner.prune", |_| {
        let pruner = PerfAwarePruner::new(&profiler, &accuracy);
        match req.objective {
            RequestObjective::Latency => pruner.prune_to_latency(&backend, &network, req.budget),
            RequestObjective::Energy => pruner.prune_to_energy(&backend, &network, req.budget),
        }
    });
    let partial = tr.span("profiler.runner.verify", |_| {
        let pruned = network.sequential_with_kept(plan.kept_channels());
        let runner = NetworkRunner::new(&device)
            .with_cache(Arc::clone(service.cache()))
            .with_stats(Arc::clone(service.stats()));
        match req.fault_seed {
            Some(seed) => {
                let fault = FaultPlan::new(seed).with_permanent_rate(req.fault_rate);
                runner.try_run(&FaultyBackend::new(backend, fault), &pruned)
            }
            None => runner.try_run(&backend, &pruned),
        }
    });
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

/// A planning service in the state the daemon's timed phase starts from:
/// the hot keys served once, with `cap` entries per cache shard (0: no
/// bound).
fn warm_service(cap: usize) -> Result<PlanService, String> {
    let service = PlanService::new(cap);
    for key in inputs::hot_keys() {
        service.handle(&PlanRequest::parse(&key.body())?);
    }
    Ok(service)
}

/// The serving path: the requests against the live daemon (for end-to-end
/// latency, sheds, lag and the daemon's counters), then the same requests
/// replayed through the planner's steps in-process.
fn serve_section(
    ctx: &Ctx,
    tr: &mut Tracer,
    requests: Vec<PlanKey>,
    open_loop: bool,
) -> Result<Section, String> {
    let setup = serve_setup(ctx, 1)?;
    let (rate, deadline) = if open_loop {
        (Some(HOT_RATE_PER_S), None)
    } else {
        (
            None,
            Some(Instant::now() + Duration::from_secs(ctx.seconds)),
        )
    };
    let (samples, _) = load::drive(setup.server.addr, &requests, rate, deadline, &ctx.expected);
    let lags: Vec<f64> = samples.iter().map(|s| s.lag_ms).collect();
    let counters = Counters::from_stats_json(&setup.server.stats()?)?;
    let warm_wrong = setup.wrong;
    drop(setup);
    let replayed: Vec<PlanKey> = samples.iter().map(|s| requests[s.index].clone()).collect();

    let service = warm_service(SERVE_CACHE_CAP)?;
    let mark = tr.mark();
    let mut wrong =
        warm_wrong as u64 + samples.iter().filter(|s| s.status == 200 && !s.ok).count() as u64;
    for key in &replayed {
        tr.next_op();
        let raw = key.http_request();
        let request = tr.span("serve.http.read_request", |_| {
            http::read_request(&mut BufReader::new(raw.as_bytes()))
        })?;
        let req = tr.span("serve.protocol.parse", |_| {
            PlanRequest::parse(request.body.trim())
        })?;
        let response = tr.span("serve.planner.handle", |tr| {
            traced_handle(tr, &service, &req)
        });
        let body = tr.span("serve.protocol.render", |_| response.render(0, false));
        wrong += u64::from(!ctx.expected.serve_ok(key, &body));
    }
    let handle_ms = tr.durations_ms("serve.planner.handle", mark);

    // The same requests through `PlanService::handle` itself, untraced.
    let untraced_ms = replay_ms(&warm_service(SERVE_CACHE_CAP)?, &replayed)?;

    let waits: Vec<f64> = samples
        .iter()
        .zip(&handle_ms)
        .map(|(s, h)| s.latency_ms - h)
        .collect();
    let mut per_worker = [0usize; 2];
    for key in &replayed {
        per_worker[worker_for_device(key.device, 2)] += 1;
    }
    let busiest = *per_worker.iter().max().unwrap_or(&0) as f64 / replayed.len().max(1) as f64;
    let shed = samples.iter().filter(|s| s.status == 429).count();
    let p50 = |name: &str| median(&tr.durations_ms(name, mark));
    let metrics = vec![
        Metric::new("serve.planner.handle_p50_ms", median(&handle_ms), "ms"),
        Metric::new(
            "serve.planner.handle_p99_ms",
            percentile(&handle_ms, 99.0),
            "ms",
        ),
        Metric::new("serve.wait_p50_ms", median(&waits), "ms"),
        Metric::new("serve.busiest_worker_share", busiest, "ratio"),
        Metric::new(
            "serve.shed_ratio",
            shed as f64 / samples.len().max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "serve.http.read_request_us",
            p50("serve.http.read_request") * 1e3,
            "us",
        ),
        Metric::new(
            "serve.protocol.parse_us",
            p50("serve.protocol.parse") * 1e3,
            "us",
        ),
        Metric::new(
            "serve.protocol.render_us",
            p50("serve.protocol.render") * 1e3,
            "us",
        ),
        Metric::new(
            "models.catalog.resolve_us",
            p50("models.catalog.resolve") * 1e3,
            "us",
        ),
        Metric::new("core.accuracy.build_ms", p50("core.accuracy.build"), "ms"),
        Metric::new("core.pruner.prune_ms", p50("core.pruner.prune"), "ms"),
        Metric::new(
            "profiler.runner.verify_ms",
            p50("profiler.runner.verify"),
            "ms",
        ),
        Metric::new(
            "serve.planner.unattributed_ms",
            median(&tr.self_times_ms("serve.planner.handle", mark)),
            "ms",
        ),
        Metric::new("loadgen.lag_p99_ms", percentile(&lags, 99.0), "ms"),
    ];
    let mut notes = vec![
        format!(
            "note serve replay: {} requests, p99 over {} handle spans",
            replayed.len(),
            handle_ms.len()
        ),
        format!(
            "finding accuracy build is {:.0}% and verification {:.0}% of a warm-cache plan",
            100.0 * p50("core.accuracy.build") / median(&handle_ms),
            100.0 * p50("profiler.runner.verify") / median(&handle_ms),
        ),
        format!(
            "finding at --workers 2 the four devices go to workers {:?}",
            inputs::PAPER_PAIRS.map(|(d, _)| worker_for_device(d, 2))
        ),
    ];
    if !open_loop {
        let unbounded_ms = replay_ms(&warm_service(0)?, &replayed)?;
        notes.push(format!(
            "finding {} churn plans take {:.2} s with the {SERVE_CACHE_CAP}-entry shard bound and {:.2} s unbounded",
            replayed.len(),
            untraced_ms / 1e3,
            unbounded_ms / 1e3
        ));
    }
    Ok(Section {
        metrics,
        counters,
        overhead: handle_ms.iter().sum::<f64>() / untraced_ms,
        attempted: samples.len() as u64,
        failed: samples.iter().filter(|s| !s.ok).count() as u64,
        wrong,
        notes,
    })
}

/// Milliseconds `service` takes to answer `keys` one after another.
fn replay_ms(service: &PlanService, keys: &[PlanKey]) -> Result<f64, String> {
    let started = Instant::now();
    for key in keys {
        service.handle(&PlanRequest::parse(&key.body())?);
    }
    Ok(started.elapsed().as_secs_f64() * 1e3)
}

/// `search --network resnet50 --device hikey970 --backend acl-gemm --algo
/// beam`, in-process: space build, search and the NV audit of the front.
fn search_section(ctx: &Ctx, tr: &mut Tracer, seeds: usize) -> Result<Section, String> {
    let device = device_by_name("hikey970")?;
    let backend = AclGemm::new();
    let network = resnet50();
    let mark = tr.mark();
    let mut section = Section::default();
    let mut evaluated = Vec::new();
    let mut untraced_ms = 0.0;
    for seed in (0..seeds).map(|i| inputs::search_seed(ctx.seed, i)) {
        let config = SearchConfig {
            algo: SearchAlgo::Beam,
            seed,
            ..SearchConfig::default()
        };
        tr.next_op();
        tr.span("core.search.space_build", |_| {
            let profiler =
                LayerProfiler::noiseless(&device).with_cache(Arc::new(LatencyCache::new()));
            let accuracy = AccuracyModel::for_network(&network);
            SearchSpace::build_for(&profiler, &accuracy, &backend, &network)
        });
        let cache = Arc::new(LatencyCache::new());
        let profiler = LayerProfiler::noiseless(&device).with_cache(Arc::clone(&cache));
        let accuracy = AccuracyModel::for_network(&network);
        let outcome = tr.span("core.search.run", |_| {
            search(&profiler, &accuracy, &backend, &network, &config)
        });
        let findings = tr.span("analysis.verify.audit", |_| {
            outcome
                .plans
                .iter()
                .map(|p| audit_pruning_plan(p, &network).len())
                .sum::<usize>()
        });
        section.counters.add(&Counters::from_cache(&cache, None));
        evaluated.push(outcome.evaluated as f64);
        let expect = ctx.expected.search(seed);
        let ok = findings == 0
            && expect.is_some_and(|e| {
                e.evaluated == outcome.evaluated && e.archived == outcome.archived as u64
            });
        section.attempted += 1;
        section.wrong += u64::from(!ok);

        let started = Instant::now();
        let profiler = LayerProfiler::noiseless(&device).with_cache(Arc::new(LatencyCache::new()));
        let outcome = search(&profiler, &accuracy, &backend, &network, &config);
        for plan in &outcome.plans {
            audit_pruning_plan(plan, &network);
        }
        untraced_ms += started.elapsed().as_secs_f64() * 1e3;
    }
    section.failed = section.wrong;
    let traced_ms: f64 = ["core.search.run", "analysis.verify.audit"]
        .iter()
        .map(|n| tr.durations_ms(n, mark).iter().sum::<f64>())
        .sum();
    section.overhead = traced_ms / untraced_ms;
    section.metrics = vec![
        Metric::new(
            "core.search.space_build_ms",
            median(&tr.durations_ms("core.search.space_build", mark)),
            "ms",
        ),
        Metric::new(
            "core.search.run_ms",
            median(&tr.durations_ms("core.search.run", mark)),
            "ms",
        ),
        Metric::new("core.search.evaluated", median(&evaluated), "count"),
        Metric::new(
            "analysis.verify.audit_ms",
            median(&tr.durations_ms("analysis.verify.audit", mark)),
            "ms",
        ),
    ];
    Ok(section)
}

/// The experiment group an id belongs to.
fn group_of(id: &str) -> &'static str {
    if id.starts_with("fig") {
        "figures"
    } else if id.starts_with("table") {
        "tables"
    } else {
        "extensions"
    }
}

/// `repro all`, in-process: every experiment through
/// `pruneperf_bench::run`, with stdout rebuilt as `repro` prints it. The
/// caller empties the process-wide cache first.
fn repro_pass(mut tr: Option<&mut Tracer>) -> Result<String, String> {
    let mut stdout = String::new();
    let (mut experiments, mut findings, mut ok_findings) = (0, 0, 0);
    let mut all_ok = 0;
    let run = |id: &str| pruneperf_bench::run(id).ok_or(format!("unknown experiment {id}"));
    for id in pruneperf_bench::all_ids() {
        let result = match tr.as_deref_mut() {
            Some(t) => t.span(&format!("bench.experiments.{}", group_of(id)), |_| run(id))?,
            None => run(id)?,
        };
        stdout.push_str(&format!("{result}\n"));
        experiments += 1;
        findings += result.findings.len();
        ok_findings += result.findings.iter().filter(|f| f.ok).count();
        all_ok += usize::from(result.all_ok());
    }
    stdout.push_str(&format!(
        "summary: {all_ok}/{experiments} experiments fully in band, {ok_findings}/{findings} findings ok\n"
    ));
    Ok(stdout)
}

fn repro_section(ctx: &Ctx, tr: &mut Tracer, passes: usize) -> Result<Section, String> {
    let mut section = Section::default();
    let mut groups: [Vec<f64>; 3] = Default::default();
    let cache = LatencyCache::global();
    let mark = tr.mark();
    let mut untraced_ms = 0.0;
    for _ in 0..passes {
        tr.next_op();
        cache.clear();
        let evicted_before = cache.stats().evictions;
        let pass = tr.mark();
        let stdout = tr.span("bench.repro.pass", |tr| repro_pass(Some(tr)))?;
        let mut counters = Counters::from_cache(cache, None);
        counters.evictions -= evicted_before;
        section.counters = counters;
        for (sums, name) in groups.iter_mut().zip(["figures", "tables", "extensions"]) {
            sums.push(
                tr.durations_ms(&format!("bench.experiments.{name}"), pass)
                    .iter()
                    .sum(),
            );
        }
        section.attempted += 1;
        section.wrong += u64::from(!ctx.expected.repro_ok(stdout.as_bytes()));

        cache.clear();
        let started = Instant::now();
        repro_pass(None)?;
        untraced_ms += started.elapsed().as_secs_f64() * 1e3;
    }
    let traced_ms: f64 = tr.durations_ms("bench.repro.pass", mark).iter().sum();
    section.overhead = traced_ms / untraced_ms;
    section.failed = section.wrong;
    section.metrics = vec![
        Metric::new("bench.experiments.figures_ms", median(&groups[0]), "ms"),
        Metric::new("bench.experiments.tables_ms", median(&groups[1]), "ms"),
        Metric::new("bench.experiments.extensions_ms", median(&groups[2]), "ms"),
    ];
    Ok(section)
}

/// Every pruning of every ResNet-50 layer.
fn resnet50_prunings() -> Vec<ConvLayerSpec> {
    resnet50()
        .layers()
        .iter()
        .flat_map(|l| (1..=l.c_out()).filter_map(move |c| l.with_c_out(c).ok()))
        .collect()
}

/// Per-call medians of a few layer entry points on fixed inputs.
fn probe_section(tr: &mut Tracer) -> Section {
    let prunings = resnet50_prunings();
    let devices: Vec<_> = ["hikey970", "odroidxu4", "tx2", "nano"]
        .iter()
        .filter_map(|d| device_by_name(d).ok())
        .collect();
    let gemm = AclGemm::new();
    let cudnn = Cudnn::new();
    let time_us = |f: &mut dyn FnMut()| {
        let started = Instant::now();
        f();
        started.elapsed().as_secs_f64() * 1e6
    };
    tr.next_op();

    let hit_ns = tr.span("profiler.cache.hit_probe", |_| {
        let cache = LatencyCache::new();
        let layer = &prunings[prunings.len() / 2];
        cache.cost(&gemm, layer, &devices[0]);
        let batches: Vec<f64> = (0..20)
            .map(|_| {
                time_us(&mut || {
                    for _ in 0..5_000 {
                        std::hint::black_box(cache.cost(
                            &gemm,
                            std::hint::black_box(layer),
                            &devices[0],
                        ));
                    }
                }) * 1e3
                    / 5_000.0
            })
            .collect();
        median(&batches)
    });

    let miss_us = tr.span("profiler.cache.miss_probe", |_| {
        let cache = LatencyCache::new();
        let misses: Vec<f64> = prunings
            .iter()
            .step_by(8)
            .map(|layer| {
                time_us(&mut || {
                    std::hint::black_box(cache.cost(&gemm, layer, &devices[0]));
                })
            })
            .collect();
        median(&misses)
    });

    let bounded_miss_us = tr.span("profiler.cache.bounded_miss_probe", |_| {
        let cache = LatencyCache::new();
        cache.set_max_entries_per_shard(SERVE_CACHE_CAP);
        let full = SERVE_CACHE_CAP * 16;
        let mut keys = Vec::new();
        for backend in [&gemm as &dyn ConvBackend, &cudnn] {
            for device in &devices {
                keys.extend(prunings.iter().map(|layer| (backend, device, layer)));
            }
        }
        // Fill every shard to the bound; `len` walks the table, so check it
        // only once per thousand inserts.
        let mut chunks = keys.chunks(1_000);
        while cache.len() < full {
            let Some(chunk) = chunks.next() else { break };
            for &(backend, device, layer) in chunk {
                cache.cost(backend, layer, device);
            }
        }
        let misses: Vec<f64> = chunks
            .flatten()
            .take(2_000)
            .map(|&(backend, device, layer)| {
                time_us(&mut || {
                    std::hint::black_box(cache.cost(backend, layer, device));
                })
            })
            .collect();
        median(&misses)
    });

    let plan_us = tr.span("backends.plan_probe", |_| {
        let mut plans: Vec<f64> = Vec::with_capacity(prunings.len() * 2);
        for (backend, device) in [
            (&gemm as &dyn ConvBackend, &devices[0]),
            (&cudnn, &devices[2]),
        ] {
            for layer in &prunings {
                plans.push(time_us(&mut || {
                    std::hint::black_box(backend.plan(layer, device));
                }));
            }
        }
        median(&plans)
    });

    Section {
        metrics: vec![
            Metric::new("profiler.cache.hit_ns", hit_ns, "ns"),
            Metric::new("profiler.cache.miss_us", miss_us, "us"),
            Metric::new("profiler.cache.bounded_miss_us", bounded_miss_us, "us"),
            Metric::new("backends.plan_us", plan_us, "us"),
        ],
        notes: vec![format!(
            "note probes over {} ResNet-50 prunings",
            prunings.len()
        )],
        ..Section::default()
    }
}
