//! Implementation of the `pruneperf` command-line tool.
//!
//! Kept in the library so argument resolution and command execution are
//! unit-testable; `src/bin/pruneperf.rs` is a thin wrapper.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::num::NonZeroUsize;
use std::path::Path;
use std::str::FromStr;
use std::sync::Arc;

use pruneperf_core::accuracy::AccuracyModel;
use pruneperf_core::search::{SearchAlgo, SearchConfig, SearchOutcome};
use pruneperf_core::{report, sensitivity, PerfAwarePruner, Staircase};
use pruneperf_gpusim::{render_trace, ChromeEvent, Engine};
use pruneperf_models::ConvLayerSpec;
use pruneperf_profiler::{
    sweep, LatencyCache, LayerProfiler, NetworkRunner, Stats, ThermalGovernor,
};
use pruneperf_serve::catalog::{
    backend_by_name, device_by_name, named_devices, network_by_name, NETWORKS,
};
use pruneperf_serve::{
    replay_trace, run_loadgen, AdmissionConfig, LoadgenOptions, PlanService, Server, ServerOptions,
};

/// A CLI failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// Lets `?` pass on the serving catalog's name-resolution messages.
impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError(msg)
    }
}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// A command's body: runs on its parsed flags, returns the text to print.
type Handler = fn(&Flags) -> Result<String, CliError>;

/// Every command: its name, the flags it takes and its body.
///
/// The flags are space-separated names; a trailing `=` marks one that
/// takes a value, the rest are switches. Every command also takes
/// `--jobs N`, so no row lists it. USAGE documents the same flags by
/// hand, and a test holds the two together.
#[rustfmt::skip]
const COMMANDS: &[(&str, &str, Handler)] = &[
    ("devices", "", cmd_devices),
    ("networks", "", cmd_networks),
    ("profile", "network= layer= backend= device= format= trace-out= stats=", cmd_profile),
    ("prune", "network= backend= device= budget= objective=", cmd_prune),
    ("run", "network= backend= device= trace-out= stats=", cmd_run),
    ("gantt", "network= layer= backend= device= channels=", cmd_gantt),
    ("sensitivity", "network= backend= device=", cmd_sensitivity),
    ("report", "network= backend= device= budget=", cmd_report),
    ("lint", "json deny-warnings", cmd_lint),
    ("audit", "json deny-warnings", cmd_audit),
    ("check", "json deny-warnings root=", cmd_check),
    ("chaos", "seed= faults= json trace-out=", cmd_chaos),
    ("search", "network= backend= device= algo= beam-width= generations= seed= json out= \
                cache-cap= persist=", cmd_search),
    ("bench", "json out= check=", cmd_bench),
    ("serve", "addr= workers= queue= cache-cap= max-requests= replay= service-ms= stats= \
               trace-out=", cmd_serve),
    ("loadgen", "seed= requests= workers= queue= service-ms= cache-cap=", cmd_loadgen),
];

/// The flags one command line gave, each at most once; a switch maps to
/// an empty value.
struct Flags(HashMap<&'static str, String>);

impl Flags {
    /// Parses `args` against a command's flag list (a [`COMMANDS`] row),
    /// refusing an unknown flag, a value flag without its value and a
    /// flag given twice: a repeat never silently wins.
    fn parse(command: &str, takes: &'static str, args: &[String]) -> Result<Flags, CliError> {
        let specs = || takes.split_whitespace().chain(["jobs="]);
        let mut flags = Flags(HashMap::new());
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let spec = arg
                .strip_prefix("--")
                .and_then(|key| specs().find(|spec| spec.trim_end_matches('=') == key));
            let Some(spec) = spec else {
                let accepted: Vec<String> = specs()
                    .map(|spec| match spec.strip_suffix('=') {
                        Some(key) => format!("--{key} <{}>", key.to_uppercase()),
                        None => format!("--{spec}"),
                    })
                    .collect();
                return Err(err(format!(
                    "unexpected argument '{arg}' ({command} takes {})",
                    accepted.join(", ")
                )));
            };
            let key = spec.trim_end_matches('=');
            if flags.has(key) {
                return Err(err(format!(
                    "duplicate flag {arg} (each flag may be given once)"
                )));
            }
            let value = if spec.ends_with('=') {
                it.next()
                    .ok_or_else(|| err(format!("flag {arg} needs a value")))?
                    .clone()
            } else {
                String::new()
            };
            flags.0.insert(key, value);
        }
        Ok(flags)
    }

    /// Whether the flag was given.
    fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    /// The flag's value, if it was given.
    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    /// The flag's value, or `default` when it was not given.
    fn str<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// The flag's value parsed as a `T`, if it was given; a value that
    /// does not parse is the error "--key must be `expected`".
    fn opt_num<T: FromStr>(&self, key: &str, expected: &str) -> Result<Option<T>, CliError> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| err(format!("--{key} must be {expected}")))
            })
            .transpose()
    }

    /// [`Flags::opt_num`], or `default` when the flag was not given.
    fn num<T: FromStr>(&self, key: &str, default: T, expected: &str) -> Result<T, CliError> {
        Ok(self.opt_num(key, expected)?.unwrap_or(default))
    }
}

/// Writes a side-channel artifact (trace, stats snapshot, bench report).
///
/// Part of the fallible API surface (an `RB004` root): a full disk or bad
/// path must surface as a [`CliError`], never a panic, since long-running
/// `serve` processes hit these writes repeatedly.
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
  lint      [--json] [--deny-warnings]
            static analysis: audit every backend's dispatch plans against
            the paper invariants (PA); the source rules run under
            `cargo clippy`
  audit     [--json] [--deny-warnings]
            verify whole-network dataflow (stock + pruned assemblies,
            greedy pruning plans) and audit simulator schedule traces
  check     [--json] [--deny-warnings] [--root PATH]
            concurrency & resource analysis of the sources under --root
            (default: this checkout): lock-order cycles, guards held
            across fan-out, and unbounded growth or recursion (CC/RB);
            a root with no .rs file under it is an error
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
  bench     [--json] [--out PATH] [--check BASELINE]
            fixed micro-benchmark suite of deterministic virtual metrics,
            byte-identical at any --jobs; --check diffs them against a
            checked-in baseline (BENCH_PR10.json), --out writes the JSON
            report once any check has passed
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
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        return Ok(USAGE.to_string());
    }
    let Some(&(name, takes, handler)) = COMMANDS.iter().find(|row| row.0 == command) else {
        return Err(err(format!("unknown command '{command}'\n{USAGE}")));
    };
    let flags = Flags::parse(name, takes, &args[1..])?;
    let jobs = flags.opt_num("jobs", "a non-negative integer")?;
    // `chaos` runs at its own `--jobs` and then at a second count to
    // compare, so it leaves the process-wide sweep count alone.
    if name != "chaos" {
        sweep::set_sweep_jobs(sweep::resolve_jobs(jobs));
    }
    handler(&flags)
}

fn cmd_devices(_: &Flags) -> Result<String, CliError> {
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
    Ok(out)
}

fn cmd_networks(_: &Flags) -> Result<String, CliError> {
    let mut out = String::new();
    for (_, build) in NETWORKS {
        let net = build();
        out.push_str(&format!(
            "{:<38} {:>6.2} GMACs\n",
            net.to_string(),
            net.total_macs() as f64 / 1e9
        ));
        for layer in net.layers() {
            out.push_str(&format!("  {layer}\n"));
        }
    }
    Ok(out)
}

fn layer_from_flags(f: &Flags) -> Result<ConvLayerSpec, CliError> {
    let network = network_by_name(f.str("network", ""))?;
    let label = f.get("layer").ok_or_else(|| err("--layer is required"))?;
    network
        .layer(label)
        .cloned()
        .ok_or_else(|| err(format!("network has no layer '{label}'")))
}

fn cmd_profile(f: &Flags) -> Result<String, CliError> {
    let device = device_by_name(f.str("device", "hikey970"))?;
    let backend = backend_by_name(f.str("backend", "acl-gemm"))?;
    let layer = layer_from_flags(f)?;
    let cache = Arc::new(LatencyCache::new());
    let stats = Arc::new(Stats::new());
    let mut profiler = LayerProfiler::new(&device);
    if f.has("stats") {
        // An isolated registry, so the snapshot covers exactly this sweep.
        profiler = profiler.with_cache(cache.clone()).with_stats(stats.clone());
    }
    let curve = profiler.latency_curve(backend.as_ref(), &layer, 1..=layer.c_out());
    if let Some(path) = f.get("trace-out") {
        let events = profiler.sweep_events(backend.as_ref(), &layer, 1..=layer.c_out());
        try_write_file(path, &render_trace(&events), "Chrome trace")?;
    }
    if let Some(path) = f.get("stats") {
        try_write_file(
            path,
            &stats.snapshot_with_cache(&cache).render_json(),
            "stats snapshot",
        )?;
    }
    match f.str("format", "text") {
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

/// The `--budget` latency fraction (default 0.8), refused outside (0, 1]
/// — the greedy's precondition — so `nan` and `2` fail here, not in it.
fn budget_fraction(f: &Flags) -> Result<f64, CliError> {
    let budget: f64 = f.num("budget", 0.8, "a number in (0, 1]")?;
    if budget > 0.0 && budget <= 1.0 {
        Ok(budget)
    } else {
        Err(err("--budget must be a number in (0, 1]"))
    }
}

fn cmd_prune(f: &Flags) -> Result<String, CliError> {
    let device = device_by_name(f.str("device", "hikey970"))?;
    let backend = backend_by_name(f.str("backend", "acl-gemm"))?;
    let network = network_by_name(f.str("network", ""))?;
    let budget = budget_fraction(f)?;
    let profiler = LayerProfiler::noiseless(&device);
    let accuracy = AccuracyModel::for_network(&network);
    let pruner = PerfAwarePruner::new(&profiler, &accuracy);
    let plan = match f.str("objective", "latency") {
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
    for ((label, kept), layer) in plan.keeps().zip(network.layers()) {
        if kept != layer.c_out() {
            out.push_str(&format!(
                "  {:<15} {:>5} -> {:>5}\n",
                label,
                layer.c_out(),
                kept
            ));
        }
    }
    Ok(out)
}

fn cmd_run(f: &Flags) -> Result<String, CliError> {
    let device = device_by_name(f.str("device", "hikey970"))?;
    let backend = backend_by_name(f.str("backend", "acl-gemm"))?;
    let network = network_by_name(f.str("network", ""))?;
    let cache = Arc::new(LatencyCache::new());
    let stats = Arc::new(Stats::new());
    let mut runner = NetworkRunner::new(&device);
    if f.has("stats") {
        // An isolated registry, so the snapshot covers exactly this run.
        runner = runner.with_cache(cache.clone()).with_stats(stats.clone());
    }
    let report = runner.run(backend.as_ref(), &network);
    if let Some(path) = f.get("trace-out") {
        let trace = runner.trace_run(backend.as_ref(), &network);
        try_write_file(path, &trace.to_chrome_json(), "Chrome trace")?;
    }
    if let Some(path) = f.get("stats") {
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

fn cmd_gantt(f: &Flags) -> Result<String, CliError> {
    let device = device_by_name(f.str("device", "hikey970"))?;
    let backend = backend_by_name(f.str("backend", "acl-gemm"))?;
    let mut layer = layer_from_flags(f)?;
    if let Some(c) = f.opt_num("channels", "a positive integer")? {
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

fn cmd_sensitivity(f: &Flags) -> Result<String, CliError> {
    let device = device_by_name(f.str("device", "hikey970"))?;
    let backend = backend_by_name(f.str("backend", "acl-gemm"))?;
    let network = network_by_name(f.str("network", ""))?;
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

/// Renders an analyzer report per `--json`. Any error, or any warning
/// under `--deny-warnings`, turns the rendering into the failure.
fn analyzer_verdict(f: &Flags, report: &pruneperf_analysis::Report) -> Result<String, CliError> {
    let rendered = if f.has("json") {
        report.render_json()
    } else {
        report.render_human()
    };
    if report.errors() > 0 || (f.has("deny-warnings") && report.warnings() > 0) {
        Err(CliError(rendered))
    } else {
        Ok(rendered)
    }
}

fn cmd_lint(f: &Flags) -> Result<String, CliError> {
    analyzer_verdict(
        f,
        &pruneperf_analysis::audit_paper_grid(sweep::sweep_jobs()),
    )
}

fn cmd_check(f: &Flags) -> Result<String, CliError> {
    let root = f.str("root", env!("CARGO_MANIFEST_DIR"));
    let report = pruneperf_analysis::run_check(Path::new(root), sweep::sweep_jobs())
        .map_err(|e| err(format!("check: cannot read sources under '{root}': {e}")))?;
    analyzer_verdict(f, &report)
}

fn cmd_audit(f: &Flags) -> Result<String, CliError> {
    analyzer_verdict(f, &pruneperf_analysis::run_audit(sweep::sweep_jobs()))
}

fn cmd_chaos(f: &Flags) -> Result<String, CliError> {
    let defaults = crate::chaos::ChaosOptions::default();
    let opts = crate::chaos::ChaosOptions {
        seed: f.num("seed", defaults.seed, "a non-negative integer")?,
        fault_rate: f.num("faults", defaults.fault_rate, "a rate in [0, 1]")?,
        jobs: f
            .num("jobs", defaults.jobs, "a non-negative integer")?
            .max(1),
    };
    if !(0.0..=1.0).contains(&opts.fault_rate) {
        return Err(err("--faults must be a rate in [0, 1]"));
    }
    let report = crate::chaos::run_chaos(&opts);
    if let Some(path) = f.get("trace-out") {
        try_write_file(path, &crate::chaos::trace_json(), "Chrome trace")?;
    }
    let rendered = if f.has("json") {
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

/// `pruneperf bench`. The baseline is checked before `--out` writes
/// anything, so `--out F --check F` gates on F's old contents and a failed
/// check leaves F as it was.
fn cmd_bench(f: &Flags) -> Result<String, CliError> {
    let baseline = f
        .get("check")
        .map(|path| {
            std::fs::read_to_string(path)
                .map(|text| (path, text))
                .map_err(|e| err(format!("cannot read baseline '{path}': {e}")))
        })
        .transpose()?;
    let suite = pruneperf_bench::run_suite();
    let summary = baseline
        .map(|(path, text)| {
            suite.check_against(&text).map_err(|problems| {
                err(format!(
                    "bench check against '{path}' FAILED:\n  {}",
                    problems.join("\n  ")
                ))
            })
        })
        .transpose()?;
    let json = suite.render_json();
    if let Some(path) = f.get("out") {
        try_write_file(path, &json, "benchmark report")?;
    }
    if f.has("json") {
        return Ok(json);
    }
    let mut rendered = suite.render_human();
    if let Some(summary) = summary {
        rendered.push_str(&format!("\n{summary}\n"));
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
fn cmd_search(f: &Flags) -> Result<String, CliError> {
    let mut config = SearchConfig::default();
    if let Some(algo) = f.get("algo") {
        config.algo = match algo {
            "beam" => SearchAlgo::Beam,
            "evolve" => SearchAlgo::Evolve,
            other => return Err(err(format!("unknown algo '{other}' (beam | evolve)"))),
        };
    }
    config.beam_width = f
        .opt_num("beam-width", "a positive integer")?
        .map_or(config.beam_width, NonZeroUsize::get);
    config.generations = f
        .opt_num("generations", "a positive integer")?
        .map_or(config.generations, NonZeroUsize::get);
    config.seed = f.num("seed", config.seed, "a non-negative integer")?;
    let cache_cap = f.num("cache-cap", 0usize, "a non-negative integer")?;
    let (network_name, device_name, backend_name) = (
        f.str("network", ""),
        f.str("device", "hikey970"),
        f.str("backend", "acl-gemm"),
    );
    let device = device_by_name(device_name)?;
    let backend = backend_by_name(backend_name)?;
    let network = network_by_name(network_name)?;

    // A local cache (never the process-wide one): its stats and persisted
    // bytes are then a pure function of this search.
    let cache = Arc::new(LatencyCache::new());
    if cache_cap > 0 {
        cache.set_max_entries_per_shard(cache_cap);
    }
    let persist = f.get("persist");
    let mut restored = 0usize;
    if let Some(path) = persist {
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

    if let Some(path) = persist {
        try_write_file(path, &cache.persist(), "latency-cache snapshot")?;
    }

    let rendered_json =
        render_search_json(network_name, device_name, backend_name, &config, &outcome);
    if let Some(path) = f.get("out") {
        try_write_file(path, &rendered_json, "search report")?;
    }
    if f.has("json") {
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
        let _ = write!(
            out,
            "{:<10} {:>10.3} {:>10.3} {:>8.2}% ",
            format!("#{i}"),
            plan.latency_ms(),
            plan.energy_mj(),
            plan.accuracy() * 100.0,
        );
        for ((_, k), layer) in plan.keeps().zip(network.layers()) {
            let _ = write!(out, " {k}/{}", layer.c_out());
        }
        out.push('\n');
    }
    let stats = cache.stats();
    out.push_str(&format!("{stats}\n"));
    if let Some(path) = persist {
        out.push_str(&format!(
            "cache: {restored} entries reloaded from '{path}', {} persisted back\n",
            stats.entries
        ));
    }
    Ok(out)
}

/// Renders the schedule-free search report (stable field order, floats via
/// shortest-roundtrip `Display` so string equality is bit equality),
/// writing every field straight into the one output buffer.
fn render_search_json(
    network_name: &str,
    device_name: &str,
    backend_name: &str,
    config: &SearchConfig,
    outcome: &SearchOutcome,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"version\": 1,\n");
    out.push_str("  \"command\": \"search\",\n");
    let _ = writeln!(out, "  \"network\": \"{network_name}\",");
    let _ = writeln!(out, "  \"device\": \"{device_name}\",");
    let _ = writeln!(out, "  \"backend\": \"{backend_name}\",");
    let _ = writeln!(out, "  \"algo\": \"{}\",", config.algo.name());
    let _ = writeln!(out, "  \"seed\": {},", config.seed);
    let _ = writeln!(out, "  \"beam_width\": {},", config.beam_width);
    let _ = writeln!(out, "  \"generations\": {},", config.generations);
    let _ = writeln!(out, "  \"total_configs\": {},", outcome.total_configs);
    let _ = writeln!(out, "  \"evaluated\": {},", outcome.evaluated);
    let _ = writeln!(out, "  \"archived\": {},", outcome.archived);
    let _ = writeln!(out, "  \"dominated\": {},", outcome.dominated);
    let _ = writeln!(out, "  \"duplicates\": {},", outcome.duplicates);
    let _ = writeln!(out, "  \"rounds\": {},", outcome.rounds);
    out.push_str("  \"front\": [\n");
    for (i, plan) in outcome.plans.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"latency_ms\": {}, \"energy_mj\": {}, \"accuracy\": {}, \"kept\": {{",
            plan.latency_ms(),
            plan.energy_mj(),
            plan.accuracy()
        );
        for (j, (label, k)) in plan.keeps().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push('"');
            out.push_str(label);
            out.push_str("\": ");
            let _ = write!(out, "{k}");
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

fn cmd_report(f: &Flags) -> Result<String, CliError> {
    let device = device_by_name(f.str("device", "hikey970"))?;
    let backend = backend_by_name(f.str("backend", "acl-gemm"))?;
    let network = network_by_name(f.str("network", ""))?;
    let budget = budget_fraction(f)?;
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

fn cmd_serve(f: &Flags) -> Result<String, CliError> {
    let workers = f
        .opt_num("workers", "a positive integer")?
        .map_or(4, NonZeroUsize::get);
    let queue = f
        .opt_num("queue", "a positive integer")?
        .map_or(4, NonZeroUsize::get);
    let service_ms: f64 = f.num("service-ms", 5.0, "a number of milliseconds")?;
    let cache_cap = f.num("cache-cap", 4096, "a non-negative integer")?;
    if !(service_ms.is_finite() && service_ms > 0.0) {
        return Err(err("--service-ms must be a positive number"));
    }

    if let Some(path) = f.get("replay") {
        let trace = std::fs::read_to_string(path)
            .map_err(|e| err(format!("cannot read trace '{path}': {e}")))?;
        let service = PlanService::new(cache_cap);
        let config = AdmissionConfig {
            workers,
            queue_capacity: queue,
            service_ms,
        };
        let report = replay_trace(&trace, &config, &service);
        if let Some(p) = f.get("stats") {
            try_write_file(p, &service.stats_json(), "stats snapshot")?;
        }
        if let Some(p) = f.get("trace-out") {
            try_write_file(p, &serve_timeline_trace(&report, workers), "Chrome trace")?;
        }
        return Ok(report.output);
    }

    let addr = f.str("addr", "127.0.0.1:7878");
    let server = Server::bind(ServerOptions {
        addr: addr.to_string(),
        workers,
        queue_capacity: queue,
        cache_cap,
        max_requests: f.opt_num("max-requests", "a non-negative integer")?,
    })
    .map_err(|e| err(format!("cannot bind '{addr}': {e}")))?;
    let bound = server
        .local_addr()
        .map_err(|e| err(format!("cannot query bound address: {e}")))?;
    let summary = server
        .run()
        .map_err(|e| err(format!("serve failed: {e}")))?;
    if let Some(p) = f.get("stats") {
        try_write_file(p, &server.service().stats_json(), "stats snapshot")?;
    }
    Ok(format!(
        "served {} connection(s) on {bound}: shed={} refused={}\n",
        summary.accepted, summary.shed, summary.refused
    ))
}

fn cmd_loadgen(f: &Flags) -> Result<String, CliError> {
    let defaults = LoadgenOptions::default();
    let opts = LoadgenOptions {
        seed: f.num("seed", defaults.seed, "a non-negative integer")?,
        requests: f.num("requests", defaults.requests, "a non-negative integer")?,
        workers: f
            .opt_num("workers", "a positive integer")?
            .map_or(defaults.workers, NonZeroUsize::get),
        queue_capacity: f
            .opt_num("queue", "a positive integer")?
            .map_or(defaults.queue_capacity, NonZeroUsize::get),
        service_ms: f.num(
            "service-ms",
            defaults.service_ms,
            "a number of milliseconds",
        )?,
        cache_cap: f.num("cache-cap", defaults.cache_cap, "a non-negative integer")?,
    };
    if !(opts.service_ms.is_finite() && opts.service_ms > 0.0) {
        return Err(err("--service-ms must be a positive number"));
    }
    Ok(run_loadgen(&opts))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

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
        let one = run(&["bench", "--json", "--jobs", "1"]).unwrap();
        let eight = run(&["bench", "--json", "--jobs", "8"]).unwrap();
        assert_eq!(one, eight);
        assert_eq!(one, include_str!("../BENCH_PR10.json"));
    }

    #[test]
    fn bench_out_and_check_round_trip() {
        let path = scratch("bench-baseline.json");
        let out = run(&["bench", "--out", &path]).unwrap();
        assert!(out.contains("[cache_hit]"), "{out}");
        let checked = run(&["bench", "--check", &path]).unwrap();
        assert!(checked.contains("match the baseline"), "{checked}");

        let baseline = std::fs::read_to_string(&path).unwrap();
        let drifted = baseline.replace("\"plans\": 128", "\"plans\": 127");
        assert_ne!(drifted, baseline, "fixture must actually change");
        std::fs::write(&path, &drifted).unwrap();
        let failure = run(&["bench", "--check", &path]).unwrap_err();
        assert!(failure.0.contains("FAILED"), "{failure}");
        assert!(failure.0.contains("gemm_split_plan.plans"), "{failure}");

        // The same path as --out and --check: the check reads the old
        // baseline, not this run's report, and a failure leaves it alone.
        let failure = run(&["bench", "--out", &path, "--check", &path]).unwrap_err();
        assert!(failure.0.contains("gemm_split_plan.plans"), "{failure}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), drifted);
        std::fs::write(&path, &baseline).unwrap();
        run(&["bench", "--out", &path, "--check", &path]).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), baseline);
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
        let missing = "/nonexistent/trace.jsonl";
        for (args, needle) in [
            (
                &["profile", "--network", "resnet50"][..],
                "--layer is required",
            ),
            (&["prune", "--network", "nope"], "unknown network"),
            (&["profile", "positional"], "unexpected argument"),
            (&["profile", "--layer"], "needs a value"),
            (
                &["prune", "--network", "alexnet", "--budget", "2.0"],
                "--budget",
            ),
            // `report` refuses the budgets `prune` does, before planning.
            (
                &["report", "--network", "alexnet", "--budget", "2.0"],
                "--budget must be a number in (0, 1]",
            ),
            (
                &["report", "--network", "alexnet", "--budget", "nan"],
                "--budget must be a number in (0, 1]",
            ),
            // Unknown flags are refused, not ignored, by every command.
            (
                &["run", "--network", "alexnet", "--bogus", "1"],
                "unexpected argument '--bogus' (run takes --network <NETWORK>,",
            ),
            (
                &["loadgen", "--worker", "8"],
                "unexpected argument '--worker'",
            ),
            // A count that must be positive refuses 0 instead of flooring it.
            (
                &["serve", "--replay", missing, "--workers", "0"],
                "--workers must be a positive integer",
            ),
            (
                &["serve", "--replay", missing, "--queue", "0"],
                "--queue must be a positive integer",
            ),
            (
                &["loadgen", "--workers", "0"],
                "--workers must be a positive integer",
            ),
            (
                &["loadgen", "--queue", "0"],
                "--queue must be a positive integer",
            ),
            (
                &["search", "--network", "alexnet", "--beam-width", "0"],
                "--beam-width must be a positive integer",
            ),
            (
                &["search", "--network", "alexnet", "--generations", "0"],
                "--generations must be a positive integer",
            ),
        ] {
            let e = run(args).unwrap_err();
            assert!(e.0.contains(needle), "{args:?}: {e}");
        }
    }

    #[test]
    fn every_command_refuses_unknown_repeated_and_valueless_flags() {
        // The parser refuses each of these before the command does any work.
        for &(name, takes, _) in COMMANDS {
            let unknown = run(&[name, "--no-such-flag"]).unwrap_err().0;
            let prefix = format!("unexpected argument '--no-such-flag' ({name} takes ");
            assert!(unknown.starts_with(&prefix), "{unknown}");
            for spec in takes.split_whitespace().chain(["jobs="]) {
                let flag = format!("--{}", spec.trim_end_matches('='));
                assert!(unknown.contains(&flag), "{unknown} omits {flag}");
                let once = if spec.ends_with('=') {
                    vec![flag.as_str(), "1"]
                } else {
                    vec![flag.as_str()]
                };
                let twice = [&[name][..], &once, &once].concat();
                assert_eq!(
                    run(&twice).unwrap_err().0,
                    format!("duplicate flag {flag} (each flag may be given once)"),
                    "{twice:?}"
                );
                if spec.ends_with('=') {
                    assert_eq!(
                        run(&[name, &flag]).unwrap_err().0,
                        format!("flag {flag} needs a value")
                    );
                }
            }
        }
    }

    #[test]
    fn usage_lists_exactly_each_commands_flags() {
        let listing = USAGE
            .split_once("commands:\n")
            .and_then(|(_, rest)| rest.split_once("\n\n"))
            .map(|(listing, _)| listing)
            .unwrap();
        // An entry starts with its command name at column 2; its further
        // lines are indented deeper.
        let mut entries: Vec<(&str, BTreeSet<&str>)> = Vec::new();
        for line in listing.lines() {
            if let Some(rest) = line.strip_prefix("  ").filter(|r| !r.starts_with(' ')) {
                entries.push((rest.split_whitespace().next().unwrap(), BTreeSet::new()));
            }
            let (_, flags) = entries.last_mut().unwrap();
            for word in line.split("--").skip(1) {
                let end = word
                    .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                    .unwrap_or(word.len());
                if &word[..end] != "jobs" {
                    flags.insert(&word[..end]);
                }
            }
        }
        let rows: Vec<(&str, BTreeSet<&str>)> = COMMANDS
            .iter()
            .map(|&(name, takes, _)| {
                let flags = takes.split_whitespace().map(|f| f.trim_end_matches('='));
                (name, flags.collect())
            })
            .collect();
        assert_eq!(entries, rows);
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
