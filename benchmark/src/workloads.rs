//! The untraced runs: each workload against the shipped binaries as child
//! processes, timed from outside. End-to-end metrics come only from here.

use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

use crate::counters::Counters;
use crate::expected::Expected;
use crate::inputs::{self, PlanKey, HOT_RATE_PER_S};
use crate::load::{self, Sample};
use crate::pace::{Pace, Scale};
use crate::proc::{run_child, Binaries, ChildRun, Server};
use crate::report::{Metric, Outcome};
use crate::stats::{highest_supported, median, percentile};

/// The daemon is set up this many times per run and `setup_s` is the
/// median; the last instance runs the timed phase.
const SERVE_SETUP_REPEATS: usize = 5;

/// A batch workload's set-up command runs this many times per run and
/// `setup_s` is the median. One takes a few milliseconds, so the runs are
/// spaced out to span more than one of the host's short slow spells.
const BATCH_SETUP_REPEATS: usize = 25;
const BATCH_SETUP_GAP: Duration = Duration::from_millis(20);

/// The open-loop generator may run this late at p99 before a run is void.
/// On a busy two-core host a sender thread can wait a few milliseconds for
/// a core: at 1 ms about one run in fifteen was void, and p99 lags of up to
/// 4.8 ms were seen in runs that were otherwise sound. 10 ms is a quarter of
/// the 40 ms between requests.
const MAX_LAG_P99_MS: f64 = 10.0;

/// `serve_hot` answers within this long of the due time meet its target.
const SLO_MS: f64 = 100.0;

/// What every run needs.
pub struct Ctx {
    pub bins: Binaries,
    pub expected: Expected,
    pub seed: u64,
    pub seconds: u64,
}

/// Runs one workload untraced. `Err` means the run is void (a guard
/// tripped or a process failed to start) and prints no numbers.
pub fn run(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let pace = Pace::start();
    let (timed, mut notes) = match workload {
        "serve_hot" => serve_hot(ctx)?,
        "serve_churn" => serve_churn(ctx)?,
        "search_resnet50" => batch(
            ctx,
            &ctx.bins.pruneperf,
            &inputs::search_setup_args(),
            |i| {
                let seed = inputs::search_seed(ctx.seed, i);
                let run = run_child(&ctx.bins.pruneperf, &inputs::search_args(seed))?;
                let ok = ctx
                    .expected
                    .search(seed)
                    .is_some_and(|e| pruneperf_backends::hash::fnv1a(&run.stdout) == e.digest);
                Ok((run, ok))
            },
        )?,
        "repro_all" => batch(ctx, &ctx.bins.repro, &inputs::repro_setup_args(), |_| {
            let run = run_child(&ctx.bins.repro, &inputs::repro_args())?;
            let ok = ctx.expected.repro_ok(&run.stdout);
            Ok((run, ok))
        })?,
        other => return Err(format!("unknown workload '{other}'")),
    };
    let probes = pace.finish()?;
    let scales = Scales {
        setup: probes.scale(timed.setup_span.0, timed.setup_span.1),
        run: probes.scale(timed.run_span.0, timed.run_span.1),
    };
    notes.extend(timed.notes(&scales));
    Ok(Outcome {
        correct: timed.wrong == 0,
        attempted: timed.attempted as u64,
        failed: (timed.attempted - timed.correct()) as u64,
        metrics: timed.metrics(&scales),
        notes,
    })
}

/// How set-up and the timed phase of one run map onto the reference host.
struct Scales {
    setup: Scale,
    run: Scale,
}

/// What a run measured, before host-speed scaling.
struct Timed {
    /// Latency of each successful operation, ms. Sheds, errors and
    /// timeouts are fast, so counting them would flatter a failing head.
    latencies_ms: Vec<f64>,
    attempted: usize,
    /// Outputs that came back but did not match their recorded digest,
    /// in set-up or in the timed phase.
    wrong: usize,
    /// When set-up began and ended.
    setup_span: (Instant, Instant),
    /// From the start of the timed phase to the last answer.
    run_span: (Instant, Instant),
    setup_s: f64,
    rss_mb: f64,
    /// The schedule, not the program, sets the rate, so `ops_per_s` is
    /// reported as measured.
    open_loop: bool,
}

impl Timed {
    fn correct(&self) -> usize {
        self.latencies_ms.len()
    }

    fn ops_per_s(&self) -> f64 {
        let (start, end) = self.run_span;
        self.correct() as f64 / end.duration_since(start).as_secs_f64()
    }

    /// The end-to-end metrics, with times scaled to the reference host.
    fn metrics(&self, scales: &Scales) -> Vec<Metric> {
        let ops_per_s = if self.open_loop {
            self.ops_per_s()
        } else {
            self.ops_per_s() / scales.run.factor
        };
        vec![
            Metric::new("setup_s", self.setup_s * scales.setup.factor, "s"),
            Metric::new("ops_per_s", ops_per_s, "ops/s"),
            Metric::new(
                "latency_p50_ms",
                percentile(&self.latencies_ms, 50.0) * scales.run.factor,
                "ms",
            ),
            Metric::new("peak_rss_mb", self.rss_mb, "MB"),
        ]
    }

    /// Sample count, the highest tail percentile the sample supports, the
    /// failure share, and the unscaled times.
    fn notes(&self, scales: &Scales) -> Vec<String> {
        let n = self.correct();
        let mut notes = vec![format!("latency_samples {n} count")];
        notes.push(match highest_supported(n) {
            Some(p) if p > 50.0 => format!(
                "latency_p{p}_ms {} ms",
                percentile(&self.latencies_ms, p) * scales.run.factor
            ),
            _ => format!("note no tail percentile is supported at n={n}"),
        });
        notes.extend([
            format!(
                "failed_ratio {} ratio",
                (self.attempted - n) as f64 / self.attempted.max(1) as f64
            ),
            format!("host.setup_probe_ms {} ms", scales.setup.probe_ms),
            format!("host.setup_probes {} count", scales.setup.probes),
            format!("host.run_probe_ms {} ms", scales.run.probe_ms),
            format!("host.run_probes {} count", scales.run.probes),
            format!("measured.setup_s {} s", self.setup_s),
            format!("measured.ops_per_s {} ops/s", self.ops_per_s()),
            format!(
                "measured.latency_p50_ms {} ms",
                percentile(&self.latencies_ms, 50.0)
            ),
        ]);
        notes
    }
}

/// The daemon's set-up: the instance that runs the timed phase and what
/// setting it up measured.
pub struct Setup {
    pub server: Server,
    /// Median seconds from spawn to the end of the warm pass.
    pub seconds: f64,
    /// Warm answers that were wrong.
    pub wrong: usize,
    /// When the first spawn began and the last warm pass ended.
    pub span: (Instant, Instant),
}

/// Spawns the daemon `repeats` times, each time until `/stats` answers and
/// the 120 hot keys have been served once, and keeps the last instance.
pub fn serve_setup(ctx: &Ctx, repeats: usize) -> Result<Setup, String> {
    let warm = inputs::hot_keys();
    let mut times = Vec::new();
    let mut wrong = 0;
    let mut server = None;
    let begin = Instant::now();
    for _ in 0..repeats {
        drop(server.take());
        let start = Instant::now();
        let spawned = Server::spawn(&ctx.bins.pruneperf)?;
        let (samples, _) = load::drive(spawned.addr, &warm, None, None, &ctx.expected);
        times.push(start.elapsed().as_secs_f64());
        wrong += warm.len() - samples.iter().filter(|s| s.ok).count();
        server = Some(spawned);
    }
    Ok(Setup {
        server: server.ok_or("no server instance")?,
        seconds: median(&times),
        wrong,
        span: (begin, Instant::now()),
    })
}

/// The timed phase of a serve workload, and the notes both share.
fn serve_timed(
    samples: &[Sample],
    start: Instant,
    setup: &Setup,
    rss_mb: f64,
) -> (Timed, Vec<String>) {
    let timed = Timed {
        latencies_ms: samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.latency_ms)
            .collect(),
        attempted: samples.len(),
        // A wrong body (as opposed to a shed or a lost connection) fails
        // the run.
        wrong: setup.wrong + samples.iter().filter(|s| s.status == 200 && !s.ok).count(),
        setup_span: setup.span,
        run_span: (start, load::last_answer(samples).unwrap_or(start)),
        setup_s: setup.seconds,
        rss_mb,
        open_loop: false,
    };
    let shed = samples.iter().filter(|s| s.status == 429).count();
    let notes = vec![format!(
        "serve.shed_ratio {} ratio",
        shed as f64 / samples.len().max(1) as f64
    )];
    (timed, notes)
}

fn serve_hot(ctx: &Ctx) -> Result<(Timed, Vec<String>), String> {
    let setup = serve_setup(ctx, SERVE_SETUP_REPEATS)?;
    let n = (HOT_RATE_PER_S * ctx.seconds as f64).round().max(1.0) as usize;
    let requests = inputs::hot_requests(ctx.seed, n);
    let rate = Some(HOT_RATE_PER_S);
    let (samples, start) = load::drive(setup.server.addr, &requests, rate, None, &ctx.expected);
    let counters = Counters::from_stats_json(&setup.server.stats()?)?;
    let rss_mb = setup.server.peak_rss_mb()?;

    let lags: Vec<f64> = samples.iter().map(|s| s.lag_ms).collect();
    let lag_p99 = percentile(&lags, 99.0);
    if lag_p99 > MAX_LAG_P99_MS {
        return Err(format!(
            "void run: the load generator ran {lag_p99} ms late at p99 (limit {MAX_LAG_P99_MS} ms)"
        ));
    }
    if counters.evictions > 0 {
        return Err(format!(
            "void run: serve_hot evicted {} cache entries, so the hot set no longer fits",
            counters.evictions
        ));
    }
    let (mut timed, mut notes) = serve_timed(&samples, start, &setup, rss_mb);
    timed.open_loop = true;
    let slo_miss = samples
        .iter()
        .filter(|s| !s.ok || s.latency_ms > SLO_MS)
        .count();
    let share = |count: usize| count as f64 / samples.len() as f64;
    notes.extend([
        format!("slo_miss_ratio {} ratio", share(slo_miss)),
        format!("loadgen.lag_p99_ms {lag_p99} ms"),
        format!(
            "loadgen.backlogged_ratio {} ratio",
            share(samples.iter().filter(|s| s.backlogged).count())
        ),
        format!("profiler.cache.evictions {} count", counters.evictions),
    ]);
    Ok((timed, notes))
}

fn serve_churn(ctx: &Ctx) -> Result<(Timed, Vec<String>), String> {
    let setup = serve_setup(ctx, SERVE_SETUP_REPEATS)?;
    // Far more requests than a time box can serve; the deadline ends the loop.
    let requests: Vec<PlanKey> = inputs::churn_requests(ctx.seed, 4096);
    let deadline = Some(Instant::now() + Duration::from_secs(ctx.seconds));
    let (samples, start) = load::drive(setup.server.addr, &requests, None, deadline, &ctx.expected);
    let counters = Counters::from_stats_json(&setup.server.stats()?)?;
    let rss_mb = setup.server.peak_rss_mb()?;

    if counters.evictions == 0 {
        return Err("void run: serve_churn evicted nothing, so it no longer churns".to_string());
    }
    let (timed, mut notes) = serve_timed(&samples, start, &setup, rss_mb);
    notes.push(format!(
        "profiler.cache.evictions {} count",
        counters.evictions
    ));
    Ok((timed, notes))
}

/// A batch workload. Set-up is `setup_args` of the same binary, a command
/// that only starts the program, run [`BATCH_SETUP_REPEATS`] times
/// [`BATCH_SETUP_GAP`] apart; it also brings the binary into the page
/// cache. Then operations run one after another until the time box ends.
fn batch(
    ctx: &Ctx,
    bin: &Path,
    setup_args: &[String],
    op: impl Fn(usize) -> Result<(ChildRun, bool), String>,
) -> Result<(Timed, Vec<String>), String> {
    let mut setup_times = Vec::with_capacity(BATCH_SETUP_REPEATS);
    let setup_begin = Instant::now();
    for _ in 0..BATCH_SETUP_REPEATS {
        let run = run_child(bin, setup_args)?;
        if !run.ok {
            return Err(format!("set-up command {} failed", bin.display()));
        }
        setup_times.push(run.latency_ms / 1e3);
        thread::sleep(BATCH_SETUP_GAP);
    }
    let start = Instant::now();
    let deadline = start + Duration::from_secs(ctx.seconds);
    let mut runs = Vec::new();
    while Instant::now() < deadline {
        runs.push(op(runs.len())?);
    }
    let rss: Vec<f64> = runs.iter().map(|(r, _)| r.peak_rss_mb).collect();
    let timed = Timed {
        latencies_ms: runs
            .iter()
            .filter(|(r, ok)| r.ok && *ok)
            .map(|(r, _)| r.latency_ms)
            .collect(),
        attempted: runs.len(),
        wrong: runs.iter().filter(|(r, ok)| r.ok && !*ok).count(),
        setup_span: (setup_begin, start),
        run_span: (start, Instant::now()),
        setup_s: median(&setup_times),
        rss_mb: median(&rss),
        open_loop: false,
    };
    Ok((timed, Vec::new()))
}
