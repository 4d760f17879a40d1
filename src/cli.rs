//! Implementation of the `pruneperf` command-line tool.
//!
//! Kept in the library so argument resolution and command execution are
//! unit-testable; `src/bin/pruneperf.rs` is a thin wrapper.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use pruneperf_backends::ConvBackend;
use pruneperf_core::accuracy::AccuracyModel;
use pruneperf_core::{report, sensitivity, PerfAwarePruner, Staircase};
use pruneperf_gpusim::{render_trace, ChromeEvent, Device, Engine};
use pruneperf_models::{alexnet, mobilenet_v1, resnet50, vgg16, Network};
use pruneperf_profiler::{
    sweep, LatencyCache, LayerProfiler, NetworkRunner, Stats, ThermalGovernor,
};
use pruneperf_serve::replay::{replay_trace_with, ReplayOptions};
use pruneperf_serve::{run_loadgen, LoadgenOptions, PlanService, Server, ServerOptions};

/// A CLI failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Resolves a device short name. Delegates to the serving catalog so
/// the daemon and the one-shot commands agree on names and messages.
pub fn device_by_name(name: &str) -> Result<Device, CliError> {
    pruneperf_serve::catalog::device_by_name(name).map_err(err)
}

/// Resolves a backend short name.
pub fn backend_by_name(name: &str) -> Result<Box<dyn ConvBackend>, CliError> {
    pruneperf_serve::catalog::backend_by_name(name).map_err(err)
}

/// Resolves a network short name.
pub fn network_by_name(name: &str) -> Result<Network, CliError> {
    pruneperf_serve::catalog::network_by_name(name).map_err(err)
}

/// Parses `--key value` pairs after the subcommand.
///
/// Duplicate flags are an error, not a silent last-wins: `profile
/// --device tx2 --device nano` used to quietly profile nano.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, CliError> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(err(format!(
                "unexpected argument '{a}' (flags are --key value)"
            )));
        };
        let Some(value) = it.next() else {
            return Err(err(format!("flag --{key} needs a value")));
        };
        if flags.insert(key.to_string(), value.clone()).is_some() {
            return Err(duplicate_flag(a));
        }
    }
    Ok(flags)
}

/// The error for a flag given twice: every parser refuses the repeat
/// rather than letting the last value silently win.
fn duplicate_flag(flag: &str) -> CliError {
    err(format!(
        "duplicate flag {flag} (each flag may be given once)"
    ))
}

fn flag<'a>(flags: &'a HashMap<String, String>, key: &str, default: &'a str) -> &'a str {
    flags.get(key).map(String::as_str).unwrap_or(default)
}

/// Writes a side-channel artifact (trace, stats snapshot, bench report).
///
/// Part of the fallible API surface (a `PN` reachability root): a full
/// disk or bad path must surface as a [`CliError`], never a panic, since
/// long-running `serve` processes hit these writes repeatedly.
fn try_write_file(path: &str, contents: &str, what: &str) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(|e| err(format!("cannot write {what} to '{path}': {e}")))
}

/// The usage text.
pub const USAGE: &str = "\
usage: pruneperf <command> [--key value ...]

commands:
  devices                                 list the simulated devices
  networks                                list the layer catalogs
  profile   --network N --layer L [--backend B] [--device D] [--format text|csv]
            [--trace-out PATH] [--stats PATH]
            sweep a layer's channel count and print the staircase;
            --trace-out writes a Chrome-trace JSON of the sweep in virtual
            time, --stats a counter-registry snapshot
  prune     --network N [--backend B] [--device D] [--budget F] [--objective latency|energy]
            run the performance-aware pruning loop
  run       --network N [--backend B] [--device D] [--trace-out PATH] [--stats PATH]
            execute every layer once; per-layer latency/energy + thermal steady state
  gantt     --network N --layer L [--backend B] [--device D] [--channels C]
            per-core schedule of one layer's dispatch plan
  sensitivity --network N [--backend B] [--device D]
            per-layer latency/accuracy response at 75/50/25% kept channels
  report    --network N [--backend B] [--device D] [--budget F]
            markdown pruning-campaign report (staircases, plans, verdict)
  lint      [--json] [--deny-warnings] [--root PATH]
            static analysis: audit every backend's dispatch plans against
            the paper invariants and lint the sources for determinism
  audit     [--json] [--deny-warnings]
            verify whole-network dataflow (stock + pruned assemblies,
            greedy pruning plans) and audit simulator schedule traces
  check     [--json] [--deny-warnings] [--root PATH]
            concurrency, panic-path, hot-path & resource analysis:
            lock-order cycles, guards held across fan-out, panic sources
            on the fallible API, per-iteration allocation/locking on the
            serving/search hot paths, and unbounded growth (CC/PN/PF/RB)
  chaos     [--seed S] [--faults RATE] [--jobs N] [--json] [--trace-out PATH]
            deterministic fault-injection drill: transient-fault retries,
            permanent-fault curve gaps, contained worker panics, poisoned
            cache recovery — and a byte-identity check across worker counts
  search    --network N [--backend B] [--device D] [--algo beam|evolve]
            [--beam-width N] [--generations N] [--seed S] [--json]
            [--out PATH] [--cache-cap N] [--persist PATH]
            whole-network multi-objective pruning search: a deterministic
            beam or (μ+λ) evolutionary pass over joint per-layer channel
            vectors, reporting the (latency, energy, accuracy) Pareto
            front. Every plan is verified (NV001–NV008) before it is
            reported. --persist reloads/saves the latency cache so a
            resumed search answers from the table; output is byte-stable
            across --jobs and resume
  bench     [--json] [--no-wall] [--out PATH] [--check BASELINE]
            fixed micro-benchmark suite; deterministic virtual metrics are
            regression-diffed against a checked-in baseline (BENCH_PR10.json)
            with --check, wall-clock medians ride along unless --no-wall
  serve     [--addr A] [--workers N] [--queue N] [--cache-cap N]
            [--max-requests N] [--replay PATH] [--service-ms F]
            [--stats PATH] [--trace-out PATH]
            pruning-plan daemon: POST /plan takes one JSON request line,
            GET /stats the counter registry; bounded per-worker queues
            shed excess load with 429, the latency cache is bounded per
            --cache-cap (0 = unbounded), and faulty verification runs
            degrade responses instead of dropping them. --replay answers
            a request trace deterministically on stdout (no sockets);
            --trace-out writes the virtual-time admission timeline
  loadgen   [--seed S] [--requests N] [--workers N] [--queue N]
            [--service-ms F] [--cache-cap N]
            seeded synthetic request mix through the replay pipeline;
            reports shed/dedup/degraded tallies and virtual latency
            percentiles, byte-identical at any --jobs

every command also accepts --jobs N: worker threads for channel sweeps
(default: all cores; the PRUNEPERF_JOBS environment variable overrides)

defaults: --backend acl-gemm, --device hikey970, --budget 0.8";

/// Executes a command line (without the program name); returns the output
/// to print.
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message for unknown commands,
/// flags, or names.
pub fn run_cli(args: &[String]) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return Err(err(USAGE));
    };
    if command == "lint" {
        // `lint` takes boolean flags, which `parse_flags` (strict
        // `--key value` pairs) cannot express.
        return cmd_lint(&args[1..]);
    }
    if command == "audit" {
        // Boolean flags, like `lint`.
        return cmd_audit(&args[1..]);
    }
    if command == "check" {
        // Boolean flags, like `lint`.
        return cmd_check(&args[1..]);
    }
    if command == "chaos" {
        // Boolean flags, like `lint`; also manages the worker count
        // itself (it runs at two counts and compares).
        return cmd_chaos(&args[1..]);
    }
    if command == "bench" {
        // Boolean flags, like `lint`.
        return cmd_bench(&args[1..]);
    }
    if command == "search" {
        // Boolean flags, like `bench`.
        return cmd_search(&args[1..]);
    }
    let mut flags = parse_flags(&args[1..])?;
    let jobs = match flags.remove("jobs") {
        Some(v) => Some(
            v.parse::<usize>()
                .map_err(|_| err("--jobs must be a non-negative integer"))?,
        ),
        None => None,
    };
    sweep::set_sweep_jobs(sweep::resolve_jobs(jobs));
    match command.as_str() {
        "devices" => Ok(cmd_devices()),
        "networks" => Ok(cmd_networks()),
        "profile" => cmd_profile(&flags),
        "prune" => cmd_prune(&flags),
        "run" => cmd_run(&flags),
        "gantt" => cmd_gantt(&flags),
        "sensitivity" => cmd_sensitivity(&flags),
        "report" => cmd_report(&flags),
        "serve" => cmd_serve(&flags),
        "loadgen" => cmd_loadgen(&flags),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(err(format!("unknown command '{other}'\n{USAGE}"))),
    }
}

/// The CLI short names, paired with their devices.
fn named_devices() -> [(&'static str, Device); 4] {
    pruneperf_serve::catalog::named_devices()
}

fn cmd_devices() -> String {
    let mut out = String::new();
    for (short, d) in named_devices() {
        out.push_str(&format!(
            "{short:<12} {} — {} GB/s DRAM, {} KiB L2, {} MiB GPU heap\n",
            d,
            d.dram_gbs(),
            d.l2_kib(),
            d.gpu_heap_mib()
        ));
    }
    out
}

fn cmd_networks() -> String {
    let mut out = String::new();
    for net in [resnet50(), vgg16(), alexnet(), mobilenet_v1()] {
        out.push_str(&format!(
            "{:<38} {:>6.2} GMACs\n",
            net.to_string(),
            net.total_macs() as f64 / 1e9
        ));
        for layer in net.layers() {
            out.push_str(&format!("  {layer}\n"));
        }
    }
    out
}

fn layer_from_flags(
    flags: &HashMap<String, String>,
) -> Result<pruneperf_models::ConvLayerSpec, CliError> {
    let network = network_by_name(flag(flags, "network", ""))?;
    let label = flags
        .get("layer")
        .ok_or_else(|| err("--layer is required"))?;
    network
        .layer(label)
        .cloned()
        .ok_or_else(|| err(format!("network has no layer '{label}'")))
}

fn cmd_profile(flags: &HashMap<String, String>) -> Result<String, CliError> {
    let device = device_by_name(flag(flags, "device", "hikey970"))?;
    let backend = backend_by_name(flag(flags, "backend", "acl-gemm"))?;
    let layer = layer_from_flags(flags)?;
    let cache = Arc::new(LatencyCache::new());
    let stats = Arc::new(Stats::new());
    let mut profiler = LayerProfiler::new(&device);
    if flags.contains_key("stats") {
        // An isolated registry, so the snapshot covers exactly this sweep.
        profiler = profiler.with_cache(cache.clone()).with_stats(stats.clone());
    }
    let curve = profiler.latency_curve(backend.as_ref(), &layer, 1..=layer.c_out());
    if let Some(path) = flags.get("trace-out") {
        let events = profiler.sweep_events(backend.as_ref(), &layer, 1..=layer.c_out());
        try_write_file(path, &render_trace(&events), "Chrome trace")?;
    }
    if let Some(path) = flags.get("stats") {
        try_write_file(
            path,
            &stats.snapshot_with_cache(&cache).render_json(),
            "stats snapshot",
        )?;
    }
    match flag(flags, "format", "text") {
        "csv" => Ok(curve.to_csv()),
        "text" => {
            let staircase = Staircase::detect(&curve);
            let mut out = format!("{curve}\n");
            out.push_str(&curve.ascii_plot(84, 14));
            out.push_str(&staircase.to_string());
            out.push_str("optimal pruning candidates:\n");
            for p in staircase.optimal_points() {
                out.push_str(&format!(
                    "  keep {:>5} channels -> {:>9.3} ms\n",
                    p.channels, p.ms
                ));
            }
            Ok(out)
        }
        other => Err(err(format!("unknown format '{other}' (text | csv)"))),
    }
}

fn cmd_prune(flags: &HashMap<String, String>) -> Result<String, CliError> {
    let device = device_by_name(flag(flags, "device", "hikey970"))?;
    let backend = backend_by_name(flag(flags, "backend", "acl-gemm"))?;
    let network = network_by_name(flag(flags, "network", ""))?;
    let budget: f64 = flag(flags, "budget", "0.8")
        .parse()
        .map_err(|_| err("--budget must be a number in (0, 1]"))?;
    if !(budget > 0.0 && budget <= 1.0) {
        return Err(err("--budget must be a number in (0, 1]"));
    }
    let profiler = LayerProfiler::noiseless(&device);
    let accuracy = AccuracyModel::for_network(&network);
    let pruner = PerfAwarePruner::new(&profiler, &accuracy);
    let plan = match flag(flags, "objective", "latency") {
        "latency" => pruner.prune_to_latency(backend.as_ref(), &network, budget),
        "energy" => pruner.prune_to_energy(backend.as_ref(), &network, budget),
        other => {
            return Err(err(format!(
                "unknown objective '{other}' (latency | energy)"
            )))
        }
    };
    let mut out = format!(
        "{plan}\nenergy: {:.2} mJ\nper-layer keeps:\n",
        plan.energy_mj()
    );
    for layer in network.layers() {
        let kept = plan.kept_for(layer.label()).unwrap_or(layer.c_out());
        if kept != layer.c_out() {
            out.push_str(&format!(
                "  {:<15} {:>5} -> {:>5}\n",
                layer.label(),
                layer.c_out(),
                kept
            ));
        }
    }
    Ok(out)
}

fn cmd_run(flags: &HashMap<String, String>) -> Result<String, CliError> {
    let device = device_by_name(flag(flags, "device", "hikey970"))?;
    let backend = backend_by_name(flag(flags, "backend", "acl-gemm"))?;
    let network = network_by_name(flag(flags, "network", ""))?;
    let cache = Arc::new(LatencyCache::new());
    let stats = Arc::new(Stats::new());
    let mut runner = NetworkRunner::new(&device);
    if flags.contains_key("stats") {
        // An isolated registry, so the snapshot covers exactly this run.
        runner = runner.with_cache(cache.clone()).with_stats(stats.clone());
    }
    let report = runner.run(backend.as_ref(), &network);
    if let Some(path) = flags.get("trace-out") {
        let trace = runner.trace_run(backend.as_ref(), &network);
        try_write_file(path, &trace.to_chrome_json(), "Chrome trace")?;
    }
    if let Some(path) = flags.get("stats") {
        try_write_file(
            path,
            &stats.snapshot_with_cache(&cache).render_json(),
            "stats snapshot",
        )?;
    }
    let governor = ThermalGovernor::passive_soc();
    let mut out = format!("{:<15} {:>10} {:>10}\n", "layer", "ms", "mJ");
    for l in report.layers() {
        out.push_str(&format!("{:<15} {:>10.3} {:>10.3}\n", l.label, l.ms, l.mj));
    }
    out.push_str(&format!(
        "total: {:.2} ms, {:.2} mJ, {:.0} mW average\n",
        report.total_ms(),
        report.total_mj(),
        report.average_power_mw()
    ));
    out.push_str(&format!(
        "sustained (thermal steady state): {:.2} ms\n",
        governor.steady_state_ms(&report)
    ));
    Ok(out)
}

fn cmd_gantt(flags: &HashMap<String, String>) -> Result<String, CliError> {
    let device = device_by_name(flag(flags, "device", "hikey970"))?;
    let backend = backend_by_name(flag(flags, "backend", "acl-gemm"))?;
    let mut layer = layer_from_flags(flags)?;
    if let Some(c) = flags.get("channels") {
        let c: usize = c
            .parse()
            .map_err(|_| err("--channels must be a positive integer"))?;
        layer = layer
            .with_c_out(c)
            .map_err(|e| err(format!("invalid channel count: {e}")))?;
    }
    let plan = backend.plan(&layer, &device);
    let trace = Engine::new(&device).trace_chain(plan.chain());
    Ok(format!(
        "{plan}\nutilization: {:.1}%\n{}",
        trace.utilization() * 100.0,
        trace.gantt(100)
    ))
}

fn cmd_sensitivity(flags: &HashMap<String, String>) -> Result<String, CliError> {
    let device = device_by_name(flag(flags, "device", "hikey970"))?;
    let backend = backend_by_name(flag(flags, "backend", "acl-gemm"))?;
    let network = network_by_name(flag(flags, "network", ""))?;
    let profiler = LayerProfiler::noiseless(&device);
    let accuracy = AccuracyModel::for_network(&network);
    let analysis = sensitivity::sensitivity_analysis(
        &profiler,
        &accuracy,
        backend.as_ref(),
        &network,
        &[0.75, 0.5, 0.25],
    );
    let mut out = String::new();
    for layer in &analysis {
        out.push_str(&layer.to_string());
        out.push_str(&format!(
            "  best speedup within 1% accuracy loss: {:.2}x
",
            layer.best_speedup_within_loss(0.01)
        ));
    }
    Ok(out)
}

fn cmd_lint(args: &[String]) -> Result<String, CliError> {
    let mut json = false;
    let mut deny_warnings = false;
    let mut root: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut seen = HashSet::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !seen.insert(a) {
            return Err(duplicate_flag(a));
        }
        match a.as_str() {
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--root" => {
                let v = it.next().ok_or_else(|| err("flag --root needs a value"))?;
                root = Some(v.clone());
            }
            "--jobs" => {
                let v = it.next().ok_or_else(|| err("flag --jobs needs a value"))?;
                jobs = Some(
                    v.parse::<usize>()
                        .map_err(|_| err("--jobs must be a non-negative integer"))?,
                );
            }
            other => {
                return Err(err(format!(
                    "unexpected argument '{other}' (lint takes --json, --deny-warnings, --root PATH, --jobs N)"
                )))
            }
        }
    }
    sweep::set_sweep_jobs(sweep::resolve_jobs(jobs));
    let root = root.unwrap_or_else(|| env!("CARGO_MANIFEST_DIR").to_string());
    let report = pruneperf_analysis::run_full(std::path::Path::new(&root), sweep::sweep_jobs())
        .map_err(|e| err(format!("lint: cannot read sources under '{root}': {e}")))?;
    let rendered = if json {
        report.render_json()
    } else {
        report.render_human()
    };
    if report.errors() > 0 || (deny_warnings && report.warnings() > 0) {
        Err(CliError(rendered))
    } else {
        Ok(rendered)
    }
}

fn cmd_check(args: &[String]) -> Result<String, CliError> {
    let mut json = false;
    let mut deny_warnings = false;
    let mut root: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut seen = HashSet::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !seen.insert(a) {
            return Err(duplicate_flag(a));
        }
        match a.as_str() {
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--root" => {
                let v = it.next().ok_or_else(|| err("flag --root needs a value"))?;
                root = Some(v.clone());
            }
            "--jobs" => {
                let v = it.next().ok_or_else(|| err("flag --jobs needs a value"))?;
                jobs = Some(
                    v.parse::<usize>()
                        .map_err(|_| err("--jobs must be a non-negative integer"))?,
                );
            }
            other => {
                return Err(err(format!(
                    "unexpected argument '{other}' (check takes --json, --deny-warnings, --root PATH, --jobs N)"
                )))
            }
        }
    }
    sweep::set_sweep_jobs(sweep::resolve_jobs(jobs));
    let root = root.unwrap_or_else(|| env!("CARGO_MANIFEST_DIR").to_string());
    let report = pruneperf_analysis::run_check(std::path::Path::new(&root), sweep::sweep_jobs())
        .map_err(|e| err(format!("check: cannot read sources under '{root}': {e}")))?;
    let rendered = if json {
        report.render_json()
    } else {
        report.render_human()
    };
    if report.errors() > 0 || (deny_warnings && report.warnings() > 0) {
        Err(CliError(rendered))
    } else {
        Ok(rendered)
    }
}

fn cmd_audit(args: &[String]) -> Result<String, CliError> {
    let mut json = false;
    let mut deny_warnings = false;
    let mut jobs: Option<usize> = None;
    let mut seen = HashSet::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !seen.insert(a) {
            return Err(duplicate_flag(a));
        }
        match a.as_str() {
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--jobs" => {
                let v = it.next().ok_or_else(|| err("flag --jobs needs a value"))?;
                jobs = Some(
                    v.parse::<usize>()
                        .map_err(|_| err("--jobs must be a non-negative integer"))?,
                );
            }
            other => {
                return Err(err(format!(
                    "unexpected argument '{other}' (audit takes --json, --deny-warnings, --jobs N)"
                )))
            }
        }
    }
    sweep::set_sweep_jobs(sweep::resolve_jobs(jobs));
    let report = pruneperf_analysis::run_audit(sweep::sweep_jobs());
    let rendered = if json {
        report.render_json()
    } else {
        report.render_human()
    };
    if report.errors() > 0 || (deny_warnings && report.warnings() > 0) {
        Err(CliError(rendered))
    } else {
        Ok(rendered)
    }
}

fn cmd_chaos(args: &[String]) -> Result<String, CliError> {
    let mut json = false;
    let mut trace_out: Option<String> = None;
    let mut opts = crate::chaos::ChaosOptions::default();
    let mut seen = HashSet::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !seen.insert(a) {
            return Err(duplicate_flag(a));
        }
        match a.as_str() {
            "--json" => json = true,
            "--trace-out" => {
                let v = it
                    .next()
                    .ok_or_else(|| err("flag --trace-out needs a value"))?;
                trace_out = Some(v.clone());
            }
            "--seed" => {
                let v = it.next().ok_or_else(|| err("flag --seed needs a value"))?;
                opts.seed = v
                    .parse::<u64>()
                    .map_err(|_| err("--seed must be a non-negative integer"))?;
            }
            "--faults" => {
                let v = it.next().ok_or_else(|| err("flag --faults needs a value"))?;
                let rate = v
                    .parse::<f64>()
                    .map_err(|_| err("--faults must be a rate in [0, 1]"))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(err("--faults must be a rate in [0, 1]"));
                }
                opts.fault_rate = rate;
            }
            "--jobs" => {
                let v = it.next().ok_or_else(|| err("flag --jobs needs a value"))?;
                opts.jobs = v
                    .parse::<usize>()
                    .map_err(|_| err("--jobs must be a non-negative integer"))?
                    .max(1);
            }
            other => {
                return Err(err(format!(
                    "unexpected argument '{other}' (chaos takes --seed S, --faults RATE, --jobs N, --json, --trace-out PATH)"
                )))
            }
        }
    }
    let report = crate::chaos::run_chaos(&opts);
    if let Some(path) = &trace_out {
        try_write_file(path, &crate::chaos::trace_json(), "Chrome trace")?;
    }
    let rendered = if json {
        report.render_json()
    } else {
        report.render_human()
    };
    if report.deterministic() {
        Ok(rendered)
    } else {
        Err(CliError(rendered))
    }
}

fn cmd_bench(args: &[String]) -> Result<String, CliError> {
    let mut json = false;
    let mut no_wall = false;
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut seen = HashSet::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !seen.insert(a) {
            return Err(duplicate_flag(a));
        }
        match a.as_str() {
            "--json" => json = true,
            "--no-wall" => no_wall = true,
            "--out" => {
                let v = it.next().ok_or_else(|| err("flag --out needs a value"))?;
                out = Some(v.clone());
            }
            "--check" => {
                let v = it.next().ok_or_else(|| err("flag --check needs a value"))?;
                check = Some(v.clone());
            }
            "--jobs" => {
                let v = it.next().ok_or_else(|| err("flag --jobs needs a value"))?;
                jobs = Some(
                    v.parse::<usize>()
                        .map_err(|_| err("--jobs must be a non-negative integer"))?,
                );
            }
            other => {
                return Err(err(format!(
                    "unexpected argument '{other}' (bench takes --json, --no-wall, --out PATH, --check BASELINE, --jobs N)"
                )))
            }
        }
    }
    sweep::set_sweep_jobs(sweep::resolve_jobs(jobs));
    let suite = pruneperf_bench::run_suite(!no_wall);
    if let Some(path) = &out {
        try_write_file(path, &suite.render_json(), "benchmark report")?;
    }
    let mut rendered = if json {
        suite.render_json()
    } else {
        suite.render_human()
    };
    if let Some(path) = &check {
        let baseline = std::fs::read_to_string(path)
            .map_err(|e| err(format!("cannot read baseline '{path}': {e}")))?;
        match suite.check_against(&baseline) {
            Ok(summary) => {
                if !json {
                    rendered.push_str(&format!("\n{summary}\n"));
                    // Wall-clock drift is worth a glance but never gates:
                    // it only renders when both sides carry wall stats.
                    if let Some(delta) = suite.wall_delta_against(&baseline) {
                        rendered.push_str(&format!("{delta}\n"));
                    }
                }
            }
            Err(problems) => {
                return Err(CliError(format!(
                    "bench check against '{path}' FAILED:\n  {}",
                    problems.join("\n  ")
                )));
            }
        }
    }
    Ok(rendered)
}

/// `pruneperf search`: the whole-network multi-objective pruning search.
///
/// The JSON rendering deliberately contains only schedule-free,
/// resume-invariant data (the front, the counters, the configuration) so
/// CI can compare runs byte-for-byte across `--jobs` counts and across a
/// persist/reload resume. Cache effectiveness (which *does* differ between
/// a cold and a resumed run) renders in the human output only.
fn cmd_search(args: &[String]) -> Result<String, CliError> {
    let mut json = false;
    let mut out: Option<String> = None;
    let mut persist: Option<String> = None;
    let mut cache_cap: usize = 0;
    let mut jobs: Option<usize> = None;
    let mut network_name = String::new();
    let mut device_name = "hikey970".to_string();
    let mut backend_name = "acl-gemm".to_string();
    let mut config = pruneperf_core::search::SearchConfig::default();
    let mut seen = HashSet::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !seen.insert(a) {
            return Err(duplicate_flag(a));
        }
        let mut value = |key: &str| -> Result<String, CliError> {
            it.next()
                .cloned()
                .ok_or_else(|| err(format!("flag --{key} needs a value")))
        };
        match a.as_str() {
            "--json" => json = true,
            "--out" => out = Some(value("out")?),
            "--persist" => persist = Some(value("persist")?),
            "--network" => network_name = value("network")?,
            "--device" => device_name = value("device")?,
            "--backend" => backend_name = value("backend")?,
            "--algo" => {
                config.algo = match value("algo")?.as_str() {
                    "beam" => pruneperf_core::search::SearchAlgo::Beam,
                    "evolve" => pruneperf_core::search::SearchAlgo::Evolve,
                    other => return Err(err(format!("unknown algo '{other}' (beam | evolve)"))),
                };
            }
            "--beam-width" => {
                config.beam_width = value("beam-width")?
                    .parse()
                    .map_err(|_| err("--beam-width must be a positive integer"))?;
            }
            "--generations" => {
                config.generations = value("generations")?
                    .parse()
                    .map_err(|_| err("--generations must be a positive integer"))?;
            }
            "--seed" => {
                config.seed = value("seed")?
                    .parse()
                    .map_err(|_| err("--seed must be a non-negative integer"))?;
            }
            "--cache-cap" => {
                cache_cap = value("cache-cap")?
                    .parse()
                    .map_err(|_| err("--cache-cap must be a non-negative integer"))?;
            }
            "--jobs" => {
                jobs = Some(
                    value("jobs")?
                        .parse()
                        .map_err(|_| err("--jobs must be a non-negative integer"))?,
                );
            }
            other => {
                return Err(err(format!(
                    "unexpected argument '{other}' (search takes --network N, --backend B, \
                     --device D, --algo beam|evolve, --beam-width N, --generations N, --seed S, \
                     --json, --out PATH, --cache-cap N, --persist PATH, --jobs N)"
                )))
            }
        }
    }
    sweep::set_sweep_jobs(sweep::resolve_jobs(jobs));
    let device = device_by_name(&device_name)?;
    let backend = backend_by_name(&backend_name)?;
    let network = network_by_name(&network_name)?;

    // A local cache (never the process-wide one): its stats and persisted
    // bytes are then a pure function of this search.
    let cache = Arc::new(LatencyCache::new());
    if cache_cap > 0 {
        cache.set_max_entries_per_shard(cache_cap);
    }
    let mut restored = 0usize;
    if let Some(path) = &persist {
        match std::fs::read_to_string(path) {
            Ok(snapshot) => {
                restored = cache
                    .reload(&snapshot)
                    .map_err(|e| err(format!("cannot reload cache from '{path}': {e}")))?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(err(format!("cannot read cache file '{path}': {e}"))),
        }
    }

    let profiler = LayerProfiler::noiseless(&device).with_cache(Arc::clone(&cache));
    let accuracy = AccuracyModel::for_network(&network);
    let outcome =
        pruneperf_core::search::search(&profiler, &accuracy, backend.as_ref(), &network, &config);

    // Every plan on the front passes the whole-network verifier before it
    // reaches the user; a finding here is a search bug, not a warning.
    for plan in &outcome.plans {
        let diags = pruneperf_analysis::network_verify::audit_pruning_plan(plan, &network);
        if !diags.is_empty() {
            let rendered: Vec<String> = diags
                .iter()
                .map(|d| format!("{} {} {}", d.rule, d.location, d.message))
                .collect();
            return Err(err(format!(
                "search produced a plan that fails network verification:\n  {}",
                rendered.join("\n  ")
            )));
        }
    }

    if let Some(path) = &persist {
        try_write_file(path, &cache.persist(), "latency-cache snapshot")?;
    }

    let rendered_json = render_search_json(
        &network_name,
        &device_name,
        &backend_name,
        &config,
        &network,
        &outcome,
    );
    if let Some(path) = &out {
        try_write_file(path, &rendered_json, "search report")?;
    }
    if json {
        return Ok(rendered_json);
    }

    let mut out = format!(
        "search ({}) over {}: {} of {} joint configurations evaluated in {} rounds\n\
         front: {} plans ({} dominated, {} duplicates)\n",
        config.algo.name(),
        network,
        outcome.evaluated,
        outcome.total_configs,
        outcome.rounds,
        outcome.archived,
        outcome.dominated,
        outcome.duplicates,
    );
    out.push_str(&format!(
        "{:<10} {:>10} {:>10} {:>9}  kept\n",
        "plan", "ms", "mJ", "acc"
    ));
    for (i, plan) in outcome.plans.iter().enumerate() {
        let kept: Vec<String> = network
            .layers()
            .iter()
            .map(|l| {
                let k = plan.kept_for(l.label()).unwrap_or(l.c_out());
                format!("{k}/{}", l.c_out())
            })
            .collect();
        out.push_str(&format!(
            "{:<10} {:>10.3} {:>10.3} {:>8.2}%  {}\n",
            format!("#{i}"),
            plan.latency_ms(),
            plan.energy_mj(),
            plan.accuracy() * 100.0,
            kept.join(" ")
        ));
    }
    let stats = cache.stats();
    out.push_str(&format!("{stats}\n"));
    if let Some(path) = &persist {
        out.push_str(&format!(
            "cache: {restored} entries reloaded from '{path}', {} persisted back\n",
            stats.entries
        ));
    }
    Ok(out)
}

/// Renders the schedule-free search report (stable field order, floats via
/// shortest-roundtrip `Display` so string equality is bit equality).
fn render_search_json(
    network_name: &str,
    device_name: &str,
    backend_name: &str,
    config: &pruneperf_core::search::SearchConfig,
    network: &Network,
    outcome: &pruneperf_core::search::SearchOutcome,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"version\": 1,\n");
    out.push_str("  \"command\": \"search\",\n");
    out.push_str(&format!("  \"network\": \"{network_name}\",\n"));
    out.push_str(&format!("  \"device\": \"{device_name}\",\n"));
    out.push_str(&format!("  \"backend\": \"{backend_name}\",\n"));
    out.push_str(&format!("  \"algo\": \"{}\",\n", config.algo.name()));
    out.push_str(&format!("  \"seed\": {},\n", config.seed));
    out.push_str(&format!("  \"beam_width\": {},\n", config.beam_width));
    out.push_str(&format!("  \"generations\": {},\n", config.generations));
    out.push_str(&format!(
        "  \"total_configs\": {},\n",
        outcome.total_configs
    ));
    out.push_str(&format!("  \"evaluated\": {},\n", outcome.evaluated));
    out.push_str(&format!("  \"archived\": {},\n", outcome.archived));
    out.push_str(&format!("  \"dominated\": {},\n", outcome.dominated));
    out.push_str(&format!("  \"duplicates\": {},\n", outcome.duplicates));
    out.push_str(&format!("  \"rounds\": {},\n", outcome.rounds));
    out.push_str("  \"front\": [\n");
    for (i, plan) in outcome.plans.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!(
            "\"latency_ms\": {}, \"energy_mj\": {}, \"accuracy\": {}, \"kept\": {{",
            plan.latency_ms(),
            plan.energy_mj(),
            plan.accuracy()
        ));
        for (j, layer) in network.layers().iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let k = plan.kept_for(layer.label()).unwrap_or(layer.c_out());
            out.push_str(&format!("\"{}\": {k}", layer.label()));
        }
        out.push_str("}}");
        if i + 1 < outcome.plans.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

fn cmd_report(flags: &HashMap<String, String>) -> Result<String, CliError> {
    let device = device_by_name(flag(flags, "device", "hikey970"))?;
    let backend = backend_by_name(flag(flags, "backend", "acl-gemm"))?;
    let network = network_by_name(flag(flags, "network", ""))?;
    let budget: f64 = flag(flags, "budget", "0.8")
        .parse()
        .map_err(|_| err("--budget must be a number in (0, 1]"))?;
    let profiler = LayerProfiler::noiseless(&device);
    let accuracy = AccuracyModel::for_network(&network);
    Ok(report::campaign_report(
        &profiler,
        &accuracy,
        backend.as_ref(),
        &network,
        report::ReportOptions {
            budget_fraction: budget,
            baseline_distance: 7,
        },
    ))
}

/// Parses an optional numeric flag, defaulting when absent.
fn numeric_flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
    expected: &str,
) -> Result<T, CliError> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| err(format!("--{key} must be {expected}"))),
    }
}

/// Renders the replay admission timeline as a Chrome trace: one lane
/// per simulated worker, complete events spanning virtual
/// service, zero-length events marking sheds at their arrival time.
fn serve_timeline_trace(report: &pruneperf_serve::replay::ReplayReport, workers: usize) -> String {
    let mut events = vec![ChromeEvent::process_name(
        0,
        "pruneperf serve (virtual time)",
    )];
    for w in 0..workers.max(1) as u64 {
        events.push(ChromeEvent::thread_name(0, w, &format!("worker {w}")));
    }
    for &(id, arrival_ms, outcome) in &report.timeline {
        let event = if outcome.admitted {
            ChromeEvent::complete(
                &format!("req {id}"),
                "serve",
                outcome.start_ms * 1000.0,
                (outcome.finish_ms - outcome.start_ms) * 1000.0,
                0,
                outcome.worker as u64,
            )
            .arg_num("queue_depth", outcome.depth)
            .arg_num("latency_ms", outcome.latency_ms(arrival_ms))
        } else {
            ChromeEvent::complete(
                &format!("shed {id}"),
                "serve",
                arrival_ms * 1000.0,
                0.0,
                0,
                outcome.worker as u64,
            )
            .arg_num("queue_depth", outcome.depth)
            .arg_str("outcome", "shed")
        };
        events.push(event);
    }
    render_trace(&events)
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<String, CliError> {
    let workers = numeric_flag(flags, "workers", 4usize, "a positive integer")?;
    let queue = numeric_flag(flags, "queue", 4usize, "a positive integer")?;
    let service_ms = numeric_flag(flags, "service-ms", 5.0f64, "a number of milliseconds")?;
    let cache_cap = numeric_flag(flags, "cache-cap", 4096usize, "a non-negative integer")?;
    if !(service_ms.is_finite() && service_ms > 0.0) {
        return Err(err("--service-ms must be a positive number"));
    }

    if let Some(path) = flags.get("replay") {
        let trace = std::fs::read_to_string(path)
            .map_err(|e| err(format!("cannot read trace '{path}': {e}")))?;
        let service = PlanService::new(cache_cap);
        let opts = ReplayOptions {
            workers,
            queue_capacity: queue,
            service_ms,
            cache_cap,
        };
        let report = replay_trace_with(&trace, &opts, &service);
        if let Some(p) = flags.get("stats") {
            try_write_file(p, &service.stats_json(), "stats snapshot")?;
        }
        if let Some(p) = flags.get("trace-out") {
            try_write_file(p, &serve_timeline_trace(&report, workers), "Chrome trace")?;
        }
        return Ok(report.output);
    }

    let addr = flag(flags, "addr", "127.0.0.1:7878");
    let max_requests = match flags.get("max-requests") {
        None => None,
        Some(v) => Some(
            v.parse::<usize>()
                .map_err(|_| err("--max-requests must be a non-negative integer"))?,
        ),
    };
    let server = Server::bind(ServerOptions {
        addr: addr.to_string(),
        workers,
        queue_capacity: queue,
        cache_cap,
        max_requests,
    })
    .map_err(|e| err(format!("cannot bind '{addr}': {e}")))?;
    let bound = server
        .local_addr()
        .map_err(|e| err(format!("cannot query bound address: {e}")))?;
    let summary = server
        .run()
        .map_err(|e| err(format!("serve failed: {e}")))?;
    if let Some(p) = flags.get("stats") {
        try_write_file(p, &server.service().stats_json(), "stats snapshot")?;
    }
    Ok(format!(
        "served {} connection(s) on {bound}: shed={} refused={}\n",
        summary.accepted, summary.shed, summary.refused
    ))
}

fn cmd_loadgen(flags: &HashMap<String, String>) -> Result<String, CliError> {
    let defaults = LoadgenOptions::default();
    let opts = LoadgenOptions {
        seed: numeric_flag(flags, "seed", defaults.seed, "a non-negative integer")?,
        requests: numeric_flag(
            flags,
            "requests",
            defaults.requests,
            "a non-negative integer",
        )?,
        workers: numeric_flag(flags, "workers", defaults.workers, "a positive integer")?,
        queue_capacity: numeric_flag(
            flags,
            "queue",
            defaults.queue_capacity,
            "a positive integer",
        )?,
        service_ms: numeric_flag(
            flags,
            "service-ms",
            defaults.service_ms,
            "a number of milliseconds",
        )?,
        cache_cap: numeric_flag(
            flags,
            "cache-cap",
            defaults.cache_cap,
            "a non-negative integer",
        )?,
    };
    if !(opts.service_ms.is_finite() && opts.service_ms > 0.0) {
        return Err(err("--service-ms must be a positive number"));
    }
    Ok(run_loadgen(&opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run_cli(&v)
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run(&["help"]).unwrap().contains("usage:"));
        assert!(run(&["bogus"]).unwrap_err().0.contains("unknown command"));
        assert!(run(&[]).unwrap_err().0.contains("usage:"));
    }

    #[test]
    fn devices_lists_all_four() {
        let out = run(&["devices"]).unwrap();
        for name in ["hikey970", "odroidxu4", "tx2", "nano"] {
            assert!(out.contains(name), "{out}");
        }
    }

    #[test]
    fn networks_lists_catalogs() {
        let out = run(&["networks"]).unwrap();
        assert!(out.contains("ResNet-50"));
        assert!(out.contains("MobileNetV1"));
        assert!(out.contains("ResNet.L16"));
    }

    #[test]
    fn profile_text_and_csv() {
        let out = run(&["profile", "--network", "alexnet", "--layer", "AlexNet.L6"]).unwrap();
        assert!(out.contains("optimal pruning candidates"), "{out}");
        let csv = run(&[
            "profile",
            "--network",
            "alexnet",
            "--layer",
            "AlexNet.L6",
            "--format",
            "csv",
        ])
        .unwrap();
        assert!(csv.starts_with("channels,median_ms"), "{csv}");
    }

    #[test]
    fn prune_reports_a_plan() {
        let out = run(&[
            "prune",
            "--network",
            "alexnet",
            "--budget",
            "0.8",
            "--device",
            "tx2",
            "--backend",
            "cudnn",
        ])
        .unwrap();
        assert!(out.contains("performance-aware plan"), "{out}");
        assert!(out.contains("energy:"), "{out}");
    }

    #[test]
    fn run_reports_totals_and_thermal() {
        let out = run(&["run", "--network", "alexnet"]).unwrap();
        assert!(out.contains("total:"), "{out}");
        assert!(out.contains("sustained"), "{out}");
    }

    #[test]
    fn gantt_renders() {
        let out = run(&[
            "gantt",
            "--network",
            "resnet50",
            "--layer",
            "ResNet.L16",
            "--channels",
            "92",
        ])
        .unwrap();
        assert!(out.contains("utilization"), "{out}");
        assert!(out.contains("gemm_mm"), "{out}");
    }

    #[test]
    fn sensitivity_reports_all_layers() {
        let out = run(&[
            "sensitivity",
            "--network",
            "alexnet",
            "--device",
            "tx2",
            "--backend",
            "cudnn",
        ])
        .unwrap();
        for label in ["AlexNet.L0", "AlexNet.L10"] {
            assert!(out.contains(label), "{out}");
        }
        assert!(
            out.contains("best speedup within 1% accuracy loss"),
            "{out}"
        );
    }

    #[test]
    fn report_renders_markdown() {
        let out = run(&[
            "report",
            "--network",
            "alexnet",
            "--device",
            "tx2",
            "--backend",
            "cudnn",
        ])
        .unwrap();
        assert!(out.contains("# Pruning campaign"), "{out}");
        assert!(out.contains("## Verdict"), "{out}");
    }

    #[test]
    fn jobs_flag_does_not_change_output() {
        let base = ["profile", "--network", "alexnet", "--layer", "AlexNet.L6"];
        let sequential = run(&{
            let mut a = base.to_vec();
            a.extend(["--jobs", "1"]);
            a
        })
        .unwrap();
        let parallel = run(&{
            let mut a = base.to_vec();
            a.extend(["--jobs", "4"]);
            a
        })
        .unwrap();
        assert_eq!(sequential, parallel);
        assert!(run(&["profile", "--jobs", "many"])
            .unwrap_err()
            .0
            .contains("--jobs"));
    }

    #[test]
    fn audit_flag_errors_are_user_facing() {
        assert!(run(&["audit", "--root", "."])
            .unwrap_err()
            .0
            .contains("unexpected argument"));
        assert!(run(&["audit", "--jobs", "many"])
            .unwrap_err()
            .0
            .contains("--jobs"));
        assert!(run(&["audit", "--jobs"]).unwrap_err().0.contains("--jobs"));
    }

    #[test]
    fn chaos_drill_runs_and_passes() {
        let out = run(&["chaos", "--seed", "2", "--faults", "0.25"]).unwrap();
        assert!(out.contains("chaos drill: seed 2"), "{out}");
        assert!(out.contains("worker-count determinism: PASS"), "{out}");
        for name in [
            "transient-retry",
            "permanent-degrade",
            "worker-panic",
            "poison-recovery",
        ] {
            assert!(out.contains(name), "{out}");
        }
    }

    #[test]
    fn chaos_output_is_byte_identical_across_jobs() {
        let one = run(&["chaos", "--seed", "7", "--jobs", "1"]).unwrap();
        let eight = run(&["chaos", "--seed", "7", "--jobs", "8"]).unwrap();
        assert_eq!(one, eight);
    }

    #[test]
    fn chaos_json_mode_and_flag_errors() {
        let json = run(&["chaos", "--seed", "1", "--json"]).unwrap();
        assert!(json.contains("\"deterministic\": true"), "{json}");
        assert!(json.contains("\"scenarios\": ["), "{json}");
        assert!(run(&["chaos", "--faults", "1.5"])
            .unwrap_err()
            .0
            .contains("--faults"));
        assert!(run(&["chaos", "--seed"]).unwrap_err().0.contains("--seed"));
        assert!(run(&["chaos", "--network", "alexnet"])
            .unwrap_err()
            .0
            .contains("unexpected argument"));
    }

    /// A collision-free scratch path under the system temp directory.
    fn scratch(name: &str) -> String {
        let path = std::env::temp_dir().join(format!("pruneperf-cli-test-{name}"));
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn bench_json_is_deterministic_across_jobs_without_wall() {
        let one = run(&["bench", "--json", "--no-wall", "--jobs", "1"]).unwrap();
        let eight = run(&["bench", "--json", "--no-wall", "--jobs", "8"]).unwrap();
        assert_eq!(one, eight);
        assert!(one.contains("\"suite\": \"pruneperf bench\""), "{one}");
        for name in [
            "cache_hit",
            "cold_sweep",
            "staircase_detect",
            "gemm_split_plan",
            "resnet50_full",
        ] {
            assert!(one.contains(name), "{one}");
        }
        assert!(!one.contains("median_ns"), "{one}");
    }

    #[test]
    fn bench_out_and_check_round_trip() {
        let path = scratch("bench-baseline.json");
        let out = run(&["bench", "--no-wall", "--out", &path]).unwrap();
        assert!(out.contains("[cache_hit]"), "{out}");
        let checked = run(&["bench", "--no-wall", "--check", &path]).unwrap();
        assert!(checked.contains("match the baseline"), "{checked}");

        let baseline = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, baseline.replace("\"plans\": ", "\"plans\": 9")).unwrap();
        let failure = run(&["bench", "--no-wall", "--check", &path]).unwrap_err();
        assert!(failure.0.contains("FAILED"), "{failure}");
        assert!(failure.0.contains("gemm_split_plan.plans"), "{failure}");
        std::fs::remove_file(&path).ok();

        assert!(run(&["bench", "--check", "/nonexistent/baseline.json"])
            .unwrap_err()
            .0
            .contains("cannot read baseline"));
        assert!(run(&["bench", "--network", "alexnet"])
            .unwrap_err()
            .0
            .contains("unexpected argument"));
        assert!(run(&["bench", "--out"]).unwrap_err().0.contains("--out"));
    }

    #[test]
    fn run_trace_out_and_stats_write_artifacts() {
        let trace = scratch("run-trace.json");
        let stats = scratch("run-stats.json");
        let out = run(&[
            "run",
            "--network",
            "alexnet",
            "--trace-out",
            &trace,
            "--stats",
            &stats,
        ])
        .unwrap();
        // Side-channel files never change the primary report.
        assert_eq!(out, run(&["run", "--network", "alexnet"]).unwrap());
        let trace_json = std::fs::read_to_string(&trace).unwrap();
        assert!(trace_json.contains("\"traceEvents\""), "{trace_json}");
        assert!(trace_json.contains("AlexNet.L0"), "{trace_json}");
        let stats_json = std::fs::read_to_string(&stats).unwrap();
        assert!(stats_json.contains("\"cache\""), "{stats_json}");
        assert!(stats_json.contains("\"shards\""), "{stats_json}");
        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&stats).ok();
    }

    #[test]
    fn profile_trace_out_and_stats_write_artifacts() {
        let trace = scratch("profile-trace.json");
        let stats = scratch("profile-stats.json");
        run(&[
            "profile",
            "--network",
            "alexnet",
            "--layer",
            "AlexNet.L6",
            "--trace-out",
            &trace,
            "--stats",
            &stats,
        ])
        .unwrap();
        let trace_json = std::fs::read_to_string(&trace).unwrap();
        assert!(trace_json.contains("\"traceEvents\""), "{trace_json}");
        assert!(trace_json.contains("configurations"), "{trace_json}");
        let stats_json = std::fs::read_to_string(&stats).unwrap();
        assert!(stats_json.contains("\"sweep\""), "{stats_json}");
        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&stats).ok();
        assert!(run(&[
            "profile",
            "--network",
            "alexnet",
            "--layer",
            "AlexNet.L6",
            "--trace-out",
            "/nonexistent/dir/trace.json",
        ])
        .unwrap_err()
        .0
        .contains("cannot write Chrome trace"));
    }

    #[test]
    fn chaos_trace_out_is_byte_identical_across_jobs() {
        let a = scratch("chaos-trace-1.json");
        let b = scratch("chaos-trace-8.json");
        run(&["chaos", "--seed", "3", "--jobs", "1", "--trace-out", &a]).unwrap();
        run(&["chaos", "--seed", "3", "--jobs", "8", "--trace-out", &b]).unwrap();
        let one = std::fs::read_to_string(&a).unwrap();
        let eight = std::fs::read_to_string(&b).unwrap();
        assert_eq!(one, eight);
        assert!(one.contains("\"traceEvents\""), "{one}");
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
        assert!(run(&["chaos", "--trace-out"])
            .unwrap_err()
            .0
            .contains("--trace-out"));
    }

    #[test]
    fn flag_errors_are_user_facing() {
        assert!(run(&["profile", "--network", "resnet50"])
            .unwrap_err()
            .0
            .contains("--layer is required"));
        assert!(run(&["prune", "--network", "nope"])
            .unwrap_err()
            .0
            .contains("unknown network"));
        assert!(run(&["profile", "positional"])
            .unwrap_err()
            .0
            .contains("unexpected argument"));
        assert!(run(&["profile", "--layer"])
            .unwrap_err()
            .0
            .contains("needs a value"));
        assert!(run(&["prune", "--network", "alexnet", "--budget", "2.0"])
            .unwrap_err()
            .0
            .contains("--budget"));
    }

    #[test]
    fn duplicate_flags_are_rejected_not_last_wins() {
        // Every parser, the shared `parse_flags` and the six hand-rolled
        // ones, refuses a repeat before doing any work.
        for (args, flag) in [
            (
                &[
                    "profile",
                    "--device",
                    "tx2",
                    "--device",
                    "nano",
                    "--network",
                    "alexnet",
                ][..],
                "--device",
            ),
            (
                &[
                    "prune",
                    "--network",
                    "alexnet",
                    "--budget",
                    "0.8",
                    "--budget",
                    "0.5",
                ],
                "--budget",
            ),
            (&["lint", "--json", "--json"], "--json"),
            (
                &["check", "--deny-warnings", "--root", ".", "--deny-warnings"],
                "--deny-warnings",
            ),
            (&["audit", "--jobs", "1", "--jobs", "2"], "--jobs"),
            (&["chaos", "--seed", "1", "--seed", "2"], "--seed"),
            (&["bench", "--no-wall", "--out", "a", "--out", "b"], "--out"),
            (
                &[
                    "search",
                    "--network",
                    "alexnet",
                    "--cache-cap",
                    "8",
                    "--cache-cap",
                    "0",
                ],
                "--cache-cap",
            ),
        ] {
            let e = run(args).unwrap_err();
            assert_eq!(
                e.0,
                format!("duplicate flag {flag} (each flag may be given once)"),
                "{args:?}"
            );
        }
    }

    #[test]
    fn serve_replay_answers_a_trace_on_stdout() {
        let trace_path = scratch("serve-replay.jsonl");
        std::fs::write(
            &trace_path,
            "{\"arrival_ms\":0,\"network\":\"alexnet\",\"device\":\"tx2\",\"budget\":0.8}\n\
             {\"arrival_ms\":1,\"network\":\"alexnet\",\"device\":\"tx2\",\"budget\":0.8}\n",
        )
        .unwrap();
        let stats_path = scratch("serve-replay-stats.json");
        let trace_out = scratch("serve-replay-trace.json");
        let out = run(&[
            "serve",
            "--replay",
            &trace_path,
            "--workers",
            "2",
            "--queue",
            "4",
            "--stats",
            &stats_path,
            "--trace-out",
            &trace_out,
        ])
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"status\":\"ok\""), "{out}");
        assert!(lines[1].contains("\"deduped\":true"), "{out}");
        let stats = std::fs::read_to_string(&stats_path).unwrap();
        assert!(stats.contains("\"cache\""), "{stats}");
        let timeline = std::fs::read_to_string(&trace_out).unwrap();
        assert!(timeline.contains("worker 0"), "{timeline}");
        assert!(run(&["serve", "--replay", "/nonexistent/trace.jsonl"])
            .unwrap_err()
            .0
            .contains("cannot read trace"));
    }

    #[test]
    fn serve_replay_is_jobs_invariant_from_the_cli() {
        let trace_path = scratch("serve-replay-jobs.jsonl");
        std::fs::write(
            &trace_path,
            "{\"arrival_ms\":0,\"network\":\"alexnet\",\"device\":\"tx2\",\"budget\":0.8}\n\
             {\"arrival_ms\":0,\"network\":\"mobilenetv1\",\"device\":\"nano\",\"budget\":0.6}\n\
             {\"arrival_ms\":0,\"network\":\"alexnet\",\"device\":\"tx2\",\"budget\":0.7,\
              \"fault_seed\":4,\"fault_rate\":1.0}\n",
        )
        .unwrap();
        let one = run(&["serve", "--replay", &trace_path, "--jobs", "1"]).unwrap();
        let eight = run(&["serve", "--replay", &trace_path, "--jobs", "8"]).unwrap();
        assert_eq!(one, eight);
        assert!(one.contains("\"degraded\":true"), "{one}");
    }

    #[test]
    fn loadgen_reports_the_drill() {
        let out = run(&["loadgen", "--requests", "16", "--seed", "7"]).unwrap();
        assert!(out.starts_with("loadgen seed=7 requests=16"), "{out}");
        assert!(out.contains("virtual latency ms:"), "{out}");
        assert!(out.contains("cache entries:"), "{out}");
        assert!(run(&["loadgen", "--requests", "x"])
            .unwrap_err()
            .0
            .contains("--requests"));
    }
}
