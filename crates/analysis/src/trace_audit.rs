//! Layer 4 — the schedule-trace auditor (rules `TA001`–`TA006`).
//!
//! A checker over [`ChainTrace`]s from the simulator's list scheduler. The
//! paper's dispatch-level findings (the two parallel staircases of Figs 3,
//! 14, 15; the job-overhead gaps of Fig 18) are only as trustworthy as the
//! schedules the tracer records, so every structural property a valid
//! schedule must have is re-checked here from the raw spans — disjointness,
//! workgroup conservation, totals, utilization and agreement with the
//! dispatch plan — independently of the engine that produced them.
//!
//! Spans of one dispatch all share the same start time (the scheduler
//! releases a kernel's workgroups together after its dispatch overhead),
//! and consecutive dispatches are separated by strictly positive overhead,
//! so dispatch groups are recovered by grouping consecutive spans with
//! bit-identical start times — no float equality involved.

use pruneperf_gpusim::{ChainTrace, Device, Engine, JobChain, TraceSpan};
use pruneperf_profiler::sweep;

use crate::diag::{Diagnostic, Report, Severity};
use crate::plan_audit::{audited_backends, grid_layers, GRID_CHANNELS};
use crate::rules;

fn err(rule: &'static str, loc: &str, message: String) -> Diagnostic {
    Diagnostic::new(rule, Severity::Error, loc, message)
}

/// Comparison slack for accumulated span arithmetic: scale-relative with an
/// absolute floor for near-zero totals.
fn eps_for(total_us: f64) -> f64 {
    total_us.abs() * 1e-9 + 1e-12
}

/// One recovered dispatch: the consecutive spans sharing a start time.
struct DispatchGroup<'a> {
    kernel: &'a str,
    start_us: f64,
    spans: &'a [TraceSpan],
}

/// Recovers dispatch groups from the span stream (see the module docs for
/// why bit-identical start times delimit dispatches).
fn dispatch_groups(spans: &[TraceSpan]) -> Vec<DispatchGroup<'_>> {
    let mut groups: Vec<DispatchGroup<'_>> = Vec::new();
    let mut begin = 0;
    for i in 1..=spans.len() {
        let boundary =
            i == spans.len() || spans[i].start_us.to_bits() != spans[begin].start_us.to_bits();
        if boundary {
            groups.push(DispatchGroup {
                kernel: &spans[begin].kernel,
                start_us: spans[begin].start_us,
                spans: &spans[begin..i],
            });
            begin = i;
        }
    }
    groups
}

/// TA006: every span is well-formed on its own — positive duration,
/// non-negative start, in-range core index, at least one workgroup.
fn check_spans(trace: &ChainTrace, loc: &str, out: &mut Vec<Diagnostic>) {
    for (i, s) in trace.spans().iter().enumerate() {
        let at = format!("{loc} :: span #{i} ({})", s.kernel);
        // Positive-duration check phrased so NaN endpoints also fail it.
        let well_formed = s.end_us > s.start_us && s.start_us >= 0.0;
        if !well_formed {
            out.push(
                err(
                    rules::TA006,
                    &at,
                    format!("degenerate span [{}, {}] µs", s.start_us, s.end_us),
                )
                .with_hint("even a zero-arith kernel pays workgroup launch cycles"),
            );
        }
        if s.workgroups == 0 {
            out.push(err(
                rules::TA006,
                &at,
                "span executes zero workgroups".to_string(),
            ));
        }
        if s.core >= trace.cores() {
            out.push(err(
                rules::TA006,
                &at,
                format!(
                    "span runs on core {} of a {}-core device",
                    s.core,
                    trace.cores()
                ),
            ));
        }
    }
}

/// TA001: per-core spans are disjoint with non-decreasing start times.
fn check_core_schedules(trace: &ChainTrace, loc: &str, out: &mut Vec<Diagnostic>) {
    let eps = eps_for(trace.total_us());
    for core in 0..trace.cores() {
        let mut prev: Option<&TraceSpan> = None;
        for s in trace.spans().iter().filter(|s| s.core == core) {
            if let Some(p) = prev {
                if s.start_us < p.start_us {
                    out.push(err(
                        rules::TA001,
                        &format!("{loc} :: core {core}"),
                        format!(
                            "span '{}' starts at {} µs before predecessor '{}' at {} µs",
                            s.kernel, s.start_us, p.kernel, p.start_us
                        ),
                    ));
                }
                if s.start_us < p.end_us - eps {
                    out.push(
                        err(
                            rules::TA001,
                            &format!("{loc} :: core {core}"),
                            format!(
                                "span '{}' [{}, {}] overlaps predecessor '{}' ending at {} µs",
                                s.kernel, s.start_us, s.end_us, p.kernel, p.end_us
                            ),
                        )
                        .with_hint("a core executes one workgroup batch at a time"),
                    );
                }
            }
            prev = Some(s);
        }
    }
}

/// TA002: within each dispatch, span workgroups sum to the kernel's
/// NDRange workgroup count (requires the chain to know the NDRange).
fn check_conservation(
    groups: &[DispatchGroup<'_>],
    chain: &JobChain,
    loc: &str,
    out: &mut Vec<Diagnostic>,
) {
    for (group, job) in groups.iter().zip(chain.jobs()) {
        let traced: usize = group.spans.iter().map(|s| s.workgroups).sum();
        let expected = job.kernel().workgroup_count();
        if traced != expected {
            out.push(
                err(
                    rules::TA002,
                    &format!("{loc} :: {}", group.kernel),
                    format!(
                        "trace executes {traced} workgroups but the kernel dispatches {expected}"
                    ),
                )
                .with_hint("the scheduler must place every NDRange workgroup exactly once"),
            );
        }
        let mut seen = std::collections::HashSet::new();
        for s in group.spans {
            if !seen.insert(s.core) {
                out.push(err(
                    rules::TA002,
                    &format!("{loc} :: {}", group.kernel),
                    format!("core {} appears twice in one dispatch", s.core),
                ));
            }
        }
    }
}

/// TA003: `total_us` equals the last span's finish time (and the aggregate
/// `run_chain` total when the caller provides it).
fn check_total(
    trace: &ChainTrace,
    report_total_us: Option<f64>,
    loc: &str,
    out: &mut Vec<Diagnostic>,
) {
    let eps = eps_for(trace.total_us());
    let max_end = trace
        .spans()
        .iter()
        .map(|s| s.end_us)
        .fold(0.0f64, f64::max);
    if (trace.total_us() - max_end).abs() > eps {
        out.push(
            err(
                rules::TA003,
                loc,
                format!(
                    "total_us is {} but the last span finishes at {} µs",
                    trace.total_us(),
                    max_end
                ),
            )
            .with_hint("the chain ends when its last core drains"),
        );
    }
    if let Some(report) = report_total_us {
        if (trace.total_us() - report).abs() > eps.max(eps_for(report)) {
            out.push(err(
                rules::TA003,
                loc,
                format!(
                    "trace total {} µs disagrees with the run_chain report {} µs",
                    trace.total_us(),
                    report
                ),
            ));
        }
    }
}

/// TA004: utilization lies in (0, 1] and matches busy/(cores × total).
fn check_utilization(trace: &ChainTrace, loc: &str, out: &mut Vec<Diagnostic>) {
    let u = trace.utilization();
    let in_range = u > 0.0 && u <= 1.0;
    if !in_range {
        out.push(
            err(rules::TA004, loc, format!("utilization {u} outside (0, 1]"))
                .with_hint("busy core-time can never exceed cores x makespan"),
        );
    }
    let busy: f64 = trace
        .spans()
        .iter()
        .map(|s| (s.end_us - s.start_us).max(0.0))
        .sum();
    let denom = trace.cores() as f64 * trace.total_us();
    if denom > 0.0 {
        let expected = busy / denom;
        if (u - expected).abs() > 1e-9 {
            out.push(err(
                rules::TA004,
                loc,
                format!("utilization reports {u} but the spans integrate to {expected}"),
            ));
        }
    }
}

/// TA005: the trace shows one dispatch per chain job, with matching kernel
/// names in order — a split ACL GEMM must show exactly its two kernels.
fn check_dispatch_count(
    groups: &[DispatchGroup<'_>],
    chain: &JobChain,
    loc: &str,
    out: &mut Vec<Diagnostic>,
) {
    if groups.len() != chain.len() {
        out.push(
            err(
                rules::TA005,
                loc,
                format!(
                    "trace shows {} dispatch(es) but the plan chains {} job(s)",
                    groups.len(),
                    chain.len()
                ),
            )
            .with_hint(
                "every job dispatches exactly once (Figs 3, 14, 15: the GEMM split is two kernels)",
            ),
        );
        return;
    }
    for (group, job) in groups.iter().zip(chain.jobs()) {
        if group.kernel != job.kernel().name() {
            out.push(err(
                rules::TA005,
                &format!("{loc} :: {}", group.kernel),
                format!(
                    "dispatch at {} µs traces kernel '{}' but the plan schedules '{}'",
                    group.start_us,
                    group.kernel,
                    job.kernel().name()
                ),
            ));
        }
    }
}

/// Audits one trace. `chain` enables the plan-agreement checks (TA002,
/// TA005); `report_total_us` enables the report-total cross-check in
/// TA003. Seeded-violation tests pass `None` and raw
/// [`ChainTrace::from_parts`] traces.
pub fn audit_trace(
    producer: &str,
    trace: &ChainTrace,
    chain: Option<&JobChain>,
    report_total_us: Option<f64>,
) -> Vec<Diagnostic> {
    let loc = format!("{producer} @ {}", trace.device());
    let mut out = Vec::new();
    if trace.spans().is_empty() {
        if let Some(chain) = chain {
            if !chain.is_empty() {
                out.push(err(
                    rules::TA005,
                    &loc,
                    format!("trace is empty but the plan chains {} job(s)", chain.len()),
                ));
            }
        }
        return out;
    }
    check_spans(trace, &loc, &mut out);
    check_core_schedules(trace, &loc, &mut out);
    check_total(trace, report_total_us, &loc, &mut out);
    check_utilization(trace, &loc, &mut out);
    let groups = dispatch_groups(trace.spans());
    if let Some(chain) = chain {
        check_dispatch_count(&groups, chain, &loc, &mut out);
        if groups.len() == chain.len() {
            check_conservation(&groups, chain, &loc, &mut out);
        }
    }
    out
}

/// Audits one (backend, device) cell: every layer of the grid across the
/// channel sweep, tracing each plan's chain and cross-checking against the
/// aggregate report. Returns `(diagnostics, traces audited)`.
fn audit_cell(backend_idx: usize, device: &Device) -> (Vec<Diagnostic>, usize) {
    let backend = &audited_backends()[backend_idx];
    let engine = Engine::new(device);
    let mut out = Vec::new();
    let mut audited = 0;
    for base in grid_layers() {
        for &c in GRID_CHANNELS {
            let layer = pruneperf_models::ConvLayerSpec::new(
                base.label(),
                base.kernel(),
                base.stride(),
                base.pad(),
                base.c_in(),
                c,
                base.h_in(),
                base.w_in(),
            );
            let plan = backend.plan(&layer, device);
            let trace = engine.trace_chain(plan.chain());
            let report = engine.run_chain(plan.chain());
            let producer = format!("{} / {} c_out={c}", backend.name(), layer.label());
            out.extend(audit_trace(
                &producer,
                &trace,
                Some(plan.chain()),
                Some(report.total_time_us()),
            ));
            audited += 1;
        }
    }
    (out, audited)
}

/// Runs the full trace audit: all five backends × the four paper devices ×
/// the layer grid and channel sweep, fanned out over `jobs` workers with a
/// deterministic, input-ordered reduction.
pub fn audit_trace_grid(jobs: usize) -> Report {
    let devices = Device::all_paper_devices();
    let backends = audited_backends().len();
    let cells: Vec<(usize, usize)> = (0..devices.len())
        .flat_map(|d| (0..backends).map(move |b| (d, b)))
        .collect();
    let results = sweep::ordered_parallel_map(&cells, jobs, |&(d, b)| audit_cell(b, &devices[d]));
    let mut diags = Vec::new();
    let mut audited = 0;
    for (cell_diags, cell_count) in results {
        diags.extend(cell_diags);
        audited += cell_count;
    }
    let mut report = Report::new(diags);
    report.traces_audited = audited;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruneperf_backends::{AclGemm, ConvBackend};
    use pruneperf_models::ConvLayerSpec;

    fn span(kernel: &str, core: usize, start: f64, end: f64, wgs: usize) -> TraceSpan {
        TraceSpan {
            kernel: kernel.to_string(),
            core,
            start_us: start,
            end_us: end,
            workgroups: wgs,
        }
    }

    fn real_trace() -> (ChainTrace, JobChain, f64) {
        let device = Device::mali_g72_hikey970();
        let layer = ConvLayerSpec::new("grid.k3s1", 3, 1, 1, 128, 92, 28, 28);
        let plan = AclGemm::new().plan(&layer, &device);
        let engine = Engine::new(&device);
        let trace = engine.trace_chain(plan.chain());
        let total = engine.run_chain(plan.chain()).total_time_us();
        (trace, plan.chain().clone(), total)
    }

    #[test]
    fn real_traces_are_clean() {
        let (trace, chain, total) = real_trace();
        let diags = audit_trace("test", &trace, Some(&chain), Some(total));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn split_gemm_traces_exactly_two_dispatches() {
        // c_out = 92 sits in ACL GEMM's split regime: the plan carries two
        // gemm_mm kernels (the "two parallel staircases" of Figs 3, 14, 15)
        // and the trace must show exactly those two dispatches.
        let (trace, chain, _) = real_trace();
        assert_eq!(
            chain
                .jobs()
                .iter()
                .filter(|j| j.kernel().name() == "gemm_mm")
                .count(),
            2,
            "expected the split-GEMM regime"
        );
        let groups = dispatch_groups(trace.spans());
        assert_eq!(groups.len(), chain.len());
        assert_eq!(groups.iter().filter(|g| g.kernel == "gemm_mm").count(), 2);
    }

    /// ACL GEMM's remainder-kernel math, audited end-to-end: every
    /// `c_out % 8` residue class is planned, scheduled and re-checked
    /// against the full rule set — TA002 in particular proves the split's
    /// two dispatches conserve workgroups even when the padded column
    /// count is not a multiple of the macro-tile. (c_out = 101 used to
    /// ship a workgroup shape that did not tile its NDRange.)
    #[test]
    fn acl_gemm_residue_classes_audit_clean() {
        let device = Device::mali_g72_hikey970();
        let engine = Engine::new(&device);
        let backend = AclGemm::new();
        for c_out in 89..=104usize {
            let layer = ConvLayerSpec::new("grid.k3s1", 3, 1, 1, 128, c_out, 28, 28);
            let plan = backend.plan(&layer, &device);
            let trace = engine.trace_chain(plan.chain());
            let total = engine.run_chain(plan.chain()).total_time_us();
            let producer = format!("residue c_out={c_out}");
            let diags = audit_trace(&producer, &trace, Some(plan.chain()), Some(total));
            assert!(diags.is_empty(), "c_out={c_out}: {diags:?}");
            // The split regime shows exactly two gemm_mm dispatches, the
            // single regime exactly one — visible in the trace itself.
            let expected = plan.kernels_named("gemm_mm").count();
            let groups = dispatch_groups(trace.spans());
            assert_eq!(
                groups.iter().filter(|g| g.kernel == "gemm_mm").count(),
                expected,
                "c_out={c_out}"
            );
        }
    }

    #[test]
    fn ta001_overlapping_spans_are_caught() {
        let trace = ChainTrace::from_parts(
            "synthetic",
            1,
            vec![
                span("a", 0, 0.0, 10.0, 4),
                span("b", 0, 5.0, 15.0, 4), // starts before 'a' drains
            ],
            15.0,
        );
        let diags = audit_trace("test", &trace, None, None);
        assert!(diags.iter().any(|d| d.rule == rules::TA001), "{diags:?}");

        // Out-of-order start times on one core.
        let trace = ChainTrace::from_parts(
            "synthetic",
            1,
            vec![span("a", 0, 10.0, 12.0, 1), span("b", 0, 0.0, 8.0, 1)],
            12.0,
        );
        let diags = audit_trace("test", &trace, None, None);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == rules::TA001 && d.message.contains("before predecessor")),
            "{diags:?}"
        );
    }

    #[test]
    fn ta002_lost_workgroups_are_caught() {
        let (trace, chain, total) = real_trace();
        // Drop one workgroup from the first span.
        let mut spans = trace.spans().to_vec();
        spans[0].workgroups -= 1;
        let broken = ChainTrace::from_parts(trace.device(), trace.cores(), spans, trace.total_us());
        let diags = audit_trace("test", &broken, Some(&chain), Some(total));
        assert!(diags.iter().any(|d| d.rule == rules::TA002), "{diags:?}");
    }

    #[test]
    fn ta002_duplicate_core_in_dispatch_is_caught() {
        let chain = JobChain::from_kernels(vec![pruneperf_gpusim::KernelDesc::builder("k")
            .global([8, 1, 1])
            .local([4, 1, 1])
            .arith_per_item(10)
            .build()]);
        // Two spans for the same dispatch on the same core; workgroup sum
        // still matches, so only the duplicate-core check fires.
        let trace = ChainTrace::from_parts(
            "synthetic",
            2,
            vec![span("k", 0, 1.0, 2.0, 1), span("k", 0, 1.0, 2.0, 1)],
            2.0,
        );
        let diags = audit_trace("test", &trace, Some(&chain), None);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == rules::TA002 && d.message.contains("twice")),
            "{diags:?}"
        );
    }

    #[test]
    fn ta003_wrong_total_is_caught() {
        let (trace, chain, total) = real_trace();
        let padded = ChainTrace::from_parts(
            trace.device(),
            trace.cores(),
            trace.spans().to_vec(),
            trace.total_us() * 1.5,
        );
        let diags = audit_trace("test", &padded, Some(&chain), Some(total));
        assert!(diags.iter().any(|d| d.rule == rules::TA003), "{diags:?}");
    }

    #[test]
    fn ta003_report_disagreement_is_caught() {
        let (trace, chain, total) = real_trace();
        let diags = audit_trace("test", &trace, Some(&chain), Some(total * 2.0));
        assert!(
            diags
                .iter()
                .any(|d| d.rule == rules::TA003 && d.message.contains("run_chain")),
            "{diags:?}"
        );
    }

    #[test]
    fn ta004_inflated_utilization_is_caught() {
        // Busy time exceeding cores x total drives utilization above 1.
        let trace = ChainTrace::from_parts(
            "synthetic",
            1,
            vec![span("a", 0, 0.0, 10.0, 4)],
            5.0, // total shorter than the span
        );
        let diags = audit_trace("test", &trace, None, None);
        assert!(diags.iter().any(|d| d.rule == rules::TA004), "{diags:?}");
    }

    #[test]
    fn ta005_missing_dispatch_is_caught() {
        let (trace, chain, total) = real_trace();
        // Drop the final dispatch's spans.
        let groups = dispatch_groups(trace.spans());
        let kept = trace.spans().len() - groups.last().map_or(0, |g| g.spans.len());
        let truncated = ChainTrace::from_parts(
            trace.device(),
            trace.cores(),
            trace.spans()[..kept].to_vec(),
            trace.total_us(),
        );
        let diags = audit_trace("test", &truncated, Some(&chain), Some(total));
        assert!(diags.iter().any(|d| d.rule == rules::TA005), "{diags:?}");
    }

    #[test]
    fn ta005_renamed_kernel_is_caught() {
        let (trace, chain, total) = real_trace();
        let mut spans = trace.spans().to_vec();
        let first_start = spans[0].start_us.to_bits();
        for s in &mut spans {
            if s.start_us.to_bits() == first_start {
                s.kernel = "impostor".to_string();
            }
        }
        let renamed =
            ChainTrace::from_parts(trace.device(), trace.cores(), spans, trace.total_us());
        let diags = audit_trace("test", &renamed, Some(&chain), Some(total));
        assert!(
            diags
                .iter()
                .any(|d| d.rule == rules::TA005 && d.message.contains("impostor")),
            "{diags:?}"
        );
    }

    #[test]
    fn ta005_empty_trace_with_jobs_is_caught() {
        let (_, chain, _) = real_trace();
        let empty = ChainTrace::from_parts("synthetic", 2, Vec::new(), 0.0);
        let diags = audit_trace("test", &empty, Some(&chain), None);
        assert!(diags.iter().any(|d| d.rule == rules::TA005), "{diags:?}");
    }

    #[test]
    fn ta006_degenerate_spans_are_caught() {
        let trace = ChainTrace::from_parts(
            "synthetic",
            2,
            vec![
                span("a", 0, 5.0, 5.0, 1), // zero duration
                span("a", 1, 0.0, 4.0, 0), // zero workgroups
                span("a", 7, 0.0, 4.0, 1), // core out of range
            ],
            5.0,
        );
        let diags = audit_trace("test", &trace, None, None);
        let ta006: Vec<_> = diags.iter().filter(|d| d.rule == rules::TA006).collect();
        assert!(ta006.iter().any(|d| d.message.contains("degenerate")));
        assert!(ta006.iter().any(|d| d.message.contains("zero workgroups")));
        assert!(ta006.iter().any(|d| d.message.contains("core 7")));
    }

    #[test]
    fn empty_trace_with_empty_chain_is_clean() {
        let empty = ChainTrace::from_parts("synthetic", 2, Vec::new(), 0.0);
        assert!(audit_trace("test", &empty, Some(&JobChain::new()), None).is_empty());
        assert!(audit_trace("test", &empty, None, None).is_empty());
    }

    #[test]
    fn single_core_device_traces_pass() {
        let device = Device::jetson_nano();
        let layer = ConvLayerSpec::new("grid.k3s1", 3, 1, 1, 128, 64, 28, 28);
        let plan = AclGemm::new().plan(&layer, &device);
        let engine = Engine::new(&device);
        let trace = engine.trace_chain(plan.chain());
        let total = engine.run_chain(plan.chain()).total_time_us();
        let diags = audit_trace("test", &trace, Some(plan.chain()), Some(total));
        assert!(diags.is_empty(), "{diags:?}");
    }
}
