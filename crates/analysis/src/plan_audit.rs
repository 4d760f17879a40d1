//! Layer 1 — the static plan auditor.
//!
//! Enumerates [`DispatchPlan`]s from the five backend models across the
//! paper's four devices and a representative layer grid, and checks the
//! paper-derived structural invariants (rules `PA001`–`PA010`, see
//! [`crate::rules`]) *without running the simulation engine*: every rule is
//! re-derived here from the paper's tables and figures, independently of
//! the backend code that emitted the plan, so a regression in a planner
//! cannot silently re-derive itself into passing.

use pruneperf_backends::{AclAuto, AclDirect, AclGemm, ConvBackend, Cudnn, DispatchPlan, Tvm};
use pruneperf_gpusim::{Device, KernelDesc};
use pruneperf_models::ConvLayerSpec;
use pruneperf_profiler::sweep;

use crate::diag::{Diagnostic, Report, Severity};
use crate::rules;

/// Channel counts swept per base layer: the paper's interesting points
/// (Tables I–IV: 92/93/96/97; Figs 14/15: 76/78; cuDNN 32-steps; TVM
/// tuned/untuned boundaries) plus parity probes and power-of-two anchors.
pub const GRID_CHANNELS: &[usize] = &[
    1, 2, 3, 4, 5, 7, 8, 12, 13, 16, 24, 31, 32, 48, 64, 76, 78, 92, 93, 96, 97, 128, 160, 255,
    256, 384, 511, 512,
];

/// The representative layer shapes of the grid (channel count is swept).
///
/// One family per convolution regime the paper profiles: the ResNet-50 L16
/// 3×3 workhorse, the L45-style 1×1, the L14-style strided 1×1 projection,
/// and an AlexNet-style 5×5.
pub fn grid_layers() -> Vec<ConvLayerSpec> {
    vec![
        ConvLayerSpec::new("grid.k3s1", 3, 1, 1, 128, 128, 28, 28),
        ConvLayerSpec::new("grid.k1s1", 1, 1, 0, 512, 512, 7, 7),
        ConvLayerSpec::new("grid.k1s2", 1, 2, 0, 256, 256, 28, 28),
        ConvLayerSpec::new("grid.k5s1", 5, 1, 2, 64, 64, 13, 13),
        // Deep 3×3 stride-1 with c_in >= 256: inside cuDNN's Winograd gate.
        ConvLayerSpec::new("grid.k3s1deep", 3, 1, 1, 256, 256, 14, 14),
    ]
}

/// The five backend models the auditor covers, freshly constructed.
pub fn audited_backends() -> Vec<Box<dyn ConvBackend>> {
    vec![
        Box::new(AclGemm::new()),
        Box::new(AclDirect::new()),
        Box::new(AclAuto::new()),
        Box::new(Cudnn::new()),
        Box::new(Tvm::new()),
    ]
}

/// Audit location string: `producer @ device / layer c_out=N`.
fn loc(producer: &str, device: &Device, layer: &ConvLayerSpec) -> String {
    format!(
        "{} @ {} / {} c_out={}",
        producer,
        device.name(),
        layer.label(),
        layer.c_out()
    )
}

fn err(rule: &'static str, loc: &str, message: String) -> Diagnostic {
    Diagnostic::new(rule, Severity::Error, loc, message)
}

/// Audits one plan against every applicable invariant.
///
/// `producer` is the name of the backend that emitted the plan — for
/// [`AclAuto`] this differs from `plan.backend()`, which records the
/// delegated method.
pub fn audit_plan(
    producer: &str,
    plan: &DispatchPlan,
    layer: &ConvLayerSpec,
    device: &Device,
) -> Vec<Diagnostic> {
    let loc = loc(producer, device, layer);
    let mut out = Vec::new();

    // PA005: a plan must dispatch something.
    if plan.chain().is_empty() {
        out.push(
            err(rules::PA005, &loc, "empty job chain".to_string())
                .with_hint("every convolution lowers to at least one kernel"),
        );
        return out;
    }

    let split_gemm = plan.kernels_named("gemm_mm").count() > 1;
    for job in plan.chain().jobs() {
        audit_kernel_geometry(job.kernel(), split_gemm, device, &loc, &mut out);
    }

    match producer {
        "ACL GEMM" => check_acl_gemm(plan, layer, &loc, &mut out),
        "ACL Direct" => check_acl_direct(plan, layer, &loc, &mut out),
        "ACL (auto method)" => {
            check_acl_auto(plan, layer, device, &loc, &mut out);
            if plan.kernels_named("gemm_mm").next().is_some() {
                check_acl_gemm(plan, layer, &loc, &mut out);
            } else {
                check_acl_direct(plan, layer, &loc, &mut out);
            }
        }
        "cuDNN" => check_cudnn(plan, layer, &loc, &mut out),
        "TVM" => check_tvm(plan, layer, &loc, &mut out),
        _ => {}
    }
    out
}

/// PA003/PA004/PA005/PA009: per-kernel geometry, accounting, footprint and
/// device-capacity checks common to every backend.
fn audit_kernel_geometry(
    k: &KernelDesc,
    split_gemm: bool,
    device: &Device,
    loc: &str,
    out: &mut Vec<Diagnostic>,
) {
    let g = k.global();
    let l = k.local();
    // PA003 (a): positive extents. Zero dims can only arrive through
    // deserialized plans — the builder rejects them — but the geometry
    // methods divide by local dims, so bail before touching them.
    if g.contains(&0) || l.contains(&0) {
        out.push(
            err(
                rules::PA003,
                loc,
                format!(
                    "kernel {}: zero NDRange extent (global {g:?} local {l:?})",
                    k.name()
                ),
            )
            .with_hint("NDRange and workgroup extents must be >= 1"),
        );
        return;
    }
    // PA003 (b): local divides the ceil-padded global in every dim.
    for i in 0..3 {
        let padded = g[i].div_ceil(l[i]) * l[i];
        if !padded.is_multiple_of(l[i]) {
            out.push(err(
                rules::PA003,
                loc,
                format!(
                    "kernel {}: local dim {i} ({}) does not divide padded global ({padded})",
                    k.name(),
                    l[i]
                ),
            ));
        }
    }
    // PA003 (c): exact-tiling kernels cover their tiled dim with no ragged
    // edge — the split heuristic (Tables I–IV) exists precisely so gemm_mm
    // never dispatches a partial column tile, and cuDNN's thread blocks
    // are exactly one 32-thread column strip.
    let exact_dim = match k.name() {
        "gemm_mm" if split_gemm => Some(1),
        "implicit_gemm_conv" | "implicit_precomp_gemm_conv" => Some(0),
        _ => None,
    };
    if let Some(i) = exact_dim {
        if !g[i].is_multiple_of(l[i]) {
            out.push(
                err(
                    rules::PA003,
                    loc,
                    format!(
                        "kernel {}: local dim {i} ({}) does not divide global ({}) exactly",
                        k.name(),
                        l[i],
                        g[i]
                    ),
                )
                .with_hint("split gemm_mm and cuDNN tiles must cover whole tiles"),
            );
        }
    }
    // PA004: padding accounting. executed >= active by construction for
    // positive dims; re-checked as a data invariant, then the per-name
    // accounting mode (padded GEMM columns do real work — Tables II/III —
    // while direct-style kernels predicate edge lanes off, Table V).
    if k.executed_items() < k.active_items() {
        out.push(err(
            rules::PA004,
            loc,
            format!(
                "kernel {}: executed items {} < active items {}",
                k.name(),
                k.executed_items(),
                k.active_items()
            ),
        ));
    }
    let expected_padded =
        if k.name().starts_with("direct_convolution") || k.name() == "fused_conv2d_fallback" {
            Some(false)
        } else if matches!(
            k.name(),
            "gemm_mm" | "implicit_gemm_conv" | "implicit_precomp_gemm_conv" | "fused_conv2d_gemm"
        ) {
            Some(true)
        } else {
            None
        };
    if let Some(expected) = expected_padded {
        if k.padded_accounting() != expected {
            out.push(
                err(
                    rules::PA004,
                    loc,
                    format!(
                        "kernel {}: padded_accounting is {} but the paper's instruction \
                         accounting requires {}",
                        k.name(),
                        k.padded_accounting(),
                        expected
                    ),
                )
                .with_hint(
                    "padded GEMM columns retire instructions; predicated direct lanes do not",
                ),
            );
        }
    }
    // PA005: the §III-C1 interceptor observes a memory footprint for every
    // kernel it hooks; a zero footprint means the model forgot its buffers.
    if k.footprint_bytes() == 0 {
        out.push(
            err(
                rules::PA005,
                loc,
                format!("kernel {}: zero memory footprint", k.name()),
            )
            .with_hint("set footprint_bytes to the buffers the dispatch binds"),
        );
    }
    // PA009: a workgroup larger than the device's resident-thread capacity
    // cannot be scheduled at all.
    if k.workgroup_size() > device.max_resident_threads() {
        out.push(err(
            rules::PA009,
            loc,
            format!(
                "kernel {}: workgroup of {} threads exceeds device capacity {}",
                k.name(),
                k.workgroup_size(),
                device.max_resident_threads()
            ),
        ));
    }
}

/// PA001: the ACL GEMM split parity rule, re-derived from Tables I–IV.
fn check_acl_gemm(
    plan: &DispatchPlan,
    layer: &ConvLayerSpec,
    loc: &str,
    out: &mut Vec<Diagnostic>,
) {
    let c_out = layer.c_out();
    let c4 = c_out.div_ceil(4) * 4;
    let main = (c_out / 16) * 16;
    let expect_split = !c4.is_multiple_of(8) && main > 0;

    // Chain shape: im2col (unless 1×1 stride-1) then reshape, then gemm(s).
    let needs_im2col = layer.kernel() > 1 || layer.stride() > 1;
    let has_im2col = plan
        .chain()
        .jobs()
        .iter()
        .any(|j| j.kernel().name().starts_with("im2col"));
    if needs_im2col != has_im2col {
        out.push(err(
            rules::PA001,
            loc,
            format!(
                "im2col stage {} but layer geometry (k={} s={}) says it {}",
                if has_im2col { "present" } else { "missing" },
                layer.kernel(),
                layer.stride(),
                if needs_im2col {
                    "is required"
                } else {
                    "must be skipped"
                }
            ),
        ));
    }
    if plan.kernels_named("reshape_to_columns").count() != 1 {
        out.push(err(
            rules::PA001,
            loc,
            "GEMM chain must contain exactly one reshape_to_columns".into(),
        ));
    }

    let gemms: Vec<_> = plan
        .chain()
        .jobs()
        .iter()
        .filter(|j| j.kernel().name() == "gemm_mm")
        .collect();
    let hint = "c4 = round_up(c_out, 4): split iff c4 % 8 != 0 and c_out >= 16 (Tables I-IV)";
    if expect_split {
        if gemms.len() != 2 {
            out.push(
                err(
                    rules::PA001,
                    loc,
                    format!(
                        "parity rule demands a main+remainder split but plan has {} gemm_mm kernel(s)",
                        gemms.len()
                    ),
                )
                .with_hint(hint),
            );
            return;
        }
        let main_cols = gemms[0].kernel().global()[1] * 4;
        let rem_cols = gemms[1].kernel().global()[1] * 4;
        if main_cols != main || !main_cols.is_multiple_of(16) {
            out.push(
                err(
                    rules::PA001,
                    loc,
                    format!("main gemm_mm covers {main_cols} columns, expected {main}"),
                )
                .with_hint(hint),
            );
        }
        if rem_cols + main_cols != c4 || ![4, 8, 12].contains(&rem_cols) {
            out.push(
                err(
                    rules::PA001,
                    loc,
                    format!(
                        "remainder gemm_mm covers {rem_cols} columns, expected {} in {{4, 8, 12}}",
                        c4 - main
                    ),
                )
                .with_hint(hint),
            );
        }
        if !gemms[1].needs_own_submission() {
            out.push(
                err(
                    rules::PA001,
                    loc,
                    "remainder gemm_mm must be separately submitted (the Fig 18 job cost)".into(),
                )
                .with_hint("the slow staircase exists because the remainder pays its own job"),
            );
        }
        if gemms[0].needs_own_submission() {
            out.push(err(
                rules::PA001,
                loc,
                "main gemm_mm must ride the shared submission".into(),
            ));
        }
    } else {
        if gemms.len() != 1 {
            out.push(
                err(
                    rules::PA001,
                    loc,
                    format!(
                        "parity rule demands a single gemm_mm but plan has {}",
                        gemms.len()
                    ),
                )
                .with_hint(hint),
            );
            return;
        }
        let cols = gemms[0].kernel().global()[1] * 4;
        if cols != c4 {
            out.push(err(
                rules::PA001,
                loc,
                format!("single gemm_mm covers {cols} columns, expected padded {c4}"),
            ));
        }
        if plan.chain().jobs().iter().any(|j| j.needs_own_submission()) {
            out.push(err(
                rules::PA001,
                loc,
                "non-split plan must not contain separately submitted jobs".into(),
            ));
        }
    }
}

/// The Table V workgroup heuristic, re-derived.
fn table5_workgroup(c_out: usize) -> [usize; 3] {
    if c_out.is_multiple_of(4) {
        [4, 1, 1]
    } else if c_out.is_multiple_of(2) {
        [2, 1, 8]
    } else {
        [1, 1, 8]
    }
}

/// PA002: ACL Direct plans are a single kernel shaped by Table V.
fn check_acl_direct(
    plan: &DispatchPlan,
    layer: &ConvLayerSpec,
    loc: &str,
    out: &mut Vec<Diagnostic>,
) {
    let direct: Vec<_> = plan
        .chain()
        .jobs()
        .iter()
        .filter(|j| j.kernel().name().starts_with("direct_convolution"))
        .collect();
    if direct.len() != 1 || plan.chain().len() != 1 {
        out.push(err(
            rules::PA002,
            loc,
            format!(
                "direct convolution must be a single kernel; chain has {} job(s)",
                plan.chain().len()
            ),
        ));
        return;
    }
    let k = direct[0].kernel();
    let expected = table5_workgroup(layer.c_out());
    if k.local() != expected {
        out.push(
            err(
                rules::PA002,
                loc,
                format!(
                    "workgroup {:?} differs from the Table V heuristic {:?}",
                    k.local(),
                    expected
                ),
            )
            .with_hint("c_out % 4 == 0 -> [4,1,1]; % 2 == 0 -> [2,1,8]; odd -> [1,1,8]"),
        );
    }
    let (out_h, out_w) = layer.out_hw();
    if k.global() != [out_w, out_h, layer.c_out()] {
        out.push(err(
            rules::PA002,
            loc,
            format!(
                "global {:?} is not one work-item per output element {:?}",
                k.global(),
                [out_w, out_h, layer.c_out()]
            ),
        ));
    }
}

/// PA008: ACL auto's method choice follows the §IV-A2 memory rule,
/// re-derived from the layer geometry.
fn check_acl_auto(
    plan: &DispatchPlan,
    layer: &ConvLayerSpec,
    device: &Device,
    loc: &str,
    out: &mut Vec<Diagnostic>,
) {
    let (out_h, out_w) = layer.out_hw();
    let m = (out_h * out_w) as u64;
    let k = layer.taps() as u64;
    let c4 = (layer.c_out().div_ceil(4) * 4) as u64;
    let input = (layer.h_in() * layer.w_in() * layer.c_in()) as u64;
    let gemm_bytes = (input + m * k + k * c4 + m * c4) * 4;
    let fits = gemm_bytes <= device.gpu_heap_bytes();
    let chose_gemm = plan.kernels_named("gemm_mm").next().is_some();
    if fits != chose_gemm {
        out.push(
            err(
                rules::PA008,
                loc,
                format!(
                    "GEMM working set {gemm_bytes} B vs heap {} B demands {}, plan chose {}",
                    device.gpu_heap_bytes(),
                    if fits { "GEMM" } else { "direct" },
                    if chose_gemm { "GEMM" } else { "direct" }
                ),
            )
            .with_hint("§IV-A2: GEMM only when input+patches+weights+output fit the heap"),
        );
    }
}

/// PA007: cuDNN's 32-wide N-tiling and Winograd gating.
fn check_cudnn(plan: &DispatchPlan, layer: &ConvLayerSpec, loc: &str, out: &mut Vec<Diagnostic>) {
    let (out_h, out_w) = layer.out_hw();
    match plan.algorithm() {
        "winograd" => {
            if !(layer.kernel() == 3 && layer.stride() == 1 && layer.c_in() >= 256) {
                out.push(
                    err(
                        rules::PA007,
                        loc,
                        format!(
                            "winograd selected for k={} s={} c_in={} outside its v7 gate",
                            layer.kernel(),
                            layer.stride(),
                            layer.c_in()
                        ),
                    )
                    .with_hint("winograd applies to 3x3 stride-1 layers with >= 256 inputs"),
                );
            }
            if plan.kernels_named("winograd_batched_gemm").count() != 1 {
                out.push(err(
                    rules::PA007,
                    loc,
                    "winograd chain must contain one batched GEMM".into(),
                ));
            } else if let Some(k) = plan.kernels_named("winograd_batched_gemm").next() {
                let expected = layer.c_out().div_ceil(32) * 8;
                if k.global()[1] != expected {
                    out.push(err(
                        rules::PA007,
                        loc,
                        format!(
                            "winograd GEMM tiles {} column quads, expected {expected} \
                             (32-channel N-tiles)",
                            k.global()[1]
                        ),
                    ));
                }
            }
        }
        "implicit_gemm" | "implicit_precomp_gemm" => {
            let conv: Vec<_> = plan
                .chain()
                .jobs()
                .iter()
                .filter(|j| j.kernel().name().ends_with("_gemm_conv"))
                .collect();
            if conv.len() != 1 {
                out.push(err(
                    rules::PA007,
                    loc,
                    format!(
                        "expected one implicit-GEMM conv kernel, found {}",
                        conv.len()
                    ),
                ));
                return;
            }
            let k = conv[0].kernel();
            let m_tiles = (out_h * out_w).div_ceil(32);
            let n_tiles = layer.c_out().div_ceil(32);
            if k.global() != [32, m_tiles, n_tiles] || k.local() != [32, 1, 1] {
                out.push(
                    err(
                        rules::PA007,
                        loc,
                        format!(
                            "tiling global {:?} local {:?} differs from 32x32 tiles \
                             [32, {m_tiles}, {n_tiles}] / [32, 1, 1]",
                            k.global(),
                            k.local()
                        ),
                    )
                    .with_hint("the 32-channel staircase comes from this exact tiling"),
                );
            }
            let has_precomp = plan.kernels_named("precomp_indices").next().is_some();
            if has_precomp != (plan.algorithm() == "implicit_precomp_gemm") {
                out.push(err(
                    rules::PA007,
                    loc,
                    "precomp_indices stage must be present iff the precomp algorithm is chosen"
                        .into(),
                ));
            }
        }
        other => {
            out.push(err(
                rules::PA007,
                loc,
                format!("unknown cuDNN algorithm '{other}'"),
            ));
        }
    }
}

/// PA010: TVM's single fused kernel matches its schedule kind.
fn check_tvm(plan: &DispatchPlan, layer: &ConvLayerSpec, loc: &str, out: &mut Vec<Diagnostic>) {
    if plan.chain().len() != 1 {
        out.push(err(
            rules::PA010,
            loc,
            format!(
                "TVM compiles one fused kernel; chain has {} job(s)",
                plan.chain().len()
            ),
        ));
        return;
    }
    let job = &plan.chain().jobs()[0];
    let k = job.kernel();
    if job.needs_own_submission() {
        out.push(err(
            rules::PA010,
            loc,
            "the fused kernel must not demand its own submission".into(),
        ));
    }
    let (out_h, out_w) = layer.out_hw();
    let c4 = layer.c_out().div_ceil(4) * 4;
    match plan.algorithm() {
        "tuned_gemm" | "partially_tuned_gemm" => {
            if k.name() != "fused_conv2d_gemm" || k.local() != [4, 4, 1] || k.global()[1] != c4 / 4
            {
                out.push(
                    err(
                        rules::PA010,
                        loc,
                        format!(
                            "tuned schedule must tile 4x4 over {} column quads; got {} {:?}/{:?}",
                            c4 / 4,
                            k.name(),
                            k.global(),
                            k.local()
                        ),
                    )
                    .with_hint("logged sizes use the GEMM-style schedule"),
                );
            }
        }
        "fallback_direct" => {
            if k.name() != "fused_conv2d_fallback"
                || k.local() != [1, 1, 8]
                || k.global() != [out_w, out_h, layer.c_out()]
            {
                out.push(
                    err(
                        rules::PA010,
                        loc,
                        format!(
                            "fallback schedule must be direct-style one-item-per-output; got {} \
                             {:?}/{:?}",
                            k.name(),
                            k.global(),
                            k.local()
                        ),
                    )
                    .with_hint("unlogged sizes fall back to the default schedule (Fig 20)"),
                );
            }
        }
        other => {
            out.push(err(
                rules::PA010,
                loc,
                format!("unknown TVM schedule kind '{other}'"),
            ));
        }
    }
}

/// Output channels a plan's compute kernels cover after padding, for the
/// PA006 monotonicity check. `None` when the plan has no recognizable
/// compute kernel.
pub fn covered_channels(plan: &DispatchPlan) -> Option<u64> {
    let mut covered = 0u64;
    let mut found = false;
    for job in plan.chain().jobs() {
        let k = job.kernel();
        let c = match k.name() {
            "gemm_mm" | "fused_conv2d_gemm" | "winograd_batched_gemm" => (k.global()[1] * 4) as u64,
            "implicit_gemm_conv" | "implicit_precomp_gemm_conv" => (k.global()[2] * 32) as u64,
            name if name.starts_with("direct_convolution") => k.global()[2] as u64,
            "fused_conv2d_fallback" => k.global()[2] as u64,
            _ => continue,
        };
        covered += c;
        found = true;
    }
    found.then_some(covered)
}

/// One point of a channel staircase for [`audit_staircase`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaircasePoint {
    /// Output channel count of the planned layer.
    pub c_out: usize,
    /// `plan.algorithm()` at this count.
    pub algorithm: String,
    /// [`covered_channels`] of the plan, when recognizable.
    pub covered: Option<u64>,
}

/// PA006: along an ascending channel sweep, the padded output-channel
/// coverage never decreases within one algorithm choice, and always covers
/// the real channels — step edges only ever move up.
pub fn audit_staircase(
    producer: &str,
    device: &Device,
    layer_label: &str,
    points: &[StaircasePoint],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for p in points {
        let loc = format!(
            "{} @ {} / {} c_out={}",
            producer,
            device.name(),
            layer_label,
            p.c_out
        );
        if let Some(covered) = p.covered {
            if covered < p.c_out as u64 {
                out.push(err(
                    rules::PA006,
                    &loc,
                    format!(
                        "plan covers {covered} output channels, fewer than the layer's {}",
                        p.c_out
                    ),
                ));
            }
        }
    }
    for w in points.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        if a.algorithm != b.algorithm {
            continue; // algorithm switches may legitimately re-tile
        }
        if let (Some(ca), Some(cb)) = (a.covered, b.covered) {
            if cb < ca {
                let loc = format!(
                    "{} @ {} / {} c_out={}",
                    producer,
                    device.name(),
                    layer_label,
                    b.c_out
                );
                out.push(
                    err(
                        rules::PA006,
                        &loc,
                        format!(
                            "coverage steps down from {ca} ({} ch) to {cb} ({} ch)",
                            a.c_out, b.c_out
                        ),
                    )
                    .with_hint("staircase step edges must be monotone in the channel count"),
                );
            }
        }
    }
    out
}

/// Audits one (backend, device, base layer) cell of the grid across the
/// channel sweep, including the staircase rule.
fn audit_cell(
    backend: &dyn ConvBackend,
    device: &Device,
    base: &ConvLayerSpec,
) -> (Vec<Diagnostic>, usize) {
    let mut diags = Vec::new();
    let mut points = Vec::new();
    let mut audited = 0;
    for &c in GRID_CHANNELS {
        let layer = ConvLayerSpec::new(
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
        diags.extend(audit_plan(backend.name(), &plan, &layer, device));
        points.push(StaircasePoint {
            c_out: c,
            algorithm: plan.algorithm().to_string(),
            covered: covered_channels(&plan),
        });
        audited += 1;
    }
    diags.extend(audit_staircase(
        backend.name(),
        device,
        base.label(),
        &points,
    ));
    (diags, audited)
}

/// Runs the full audit: all five backends × the four paper devices × the
/// layer grid, fanned out over `jobs` workers with deterministic,
/// input-ordered reduction.
pub fn audit_paper_grid(jobs: usize) -> Report {
    let devices = Device::all_paper_devices();
    let layers = grid_layers();
    let backends = audited_backends().len();
    // Plain-index work items so the closure can rebuild its own (non-Sync)
    // backend value per call.
    let n_layers = layers.len();
    let cells: Vec<(usize, usize, usize)> = (0..devices.len())
        .flat_map(|d| (0..backends).flat_map(move |b| (0..n_layers).map(move |l| (d, b, l))))
        .collect();
    let results = sweep::ordered_parallel_map(&cells, jobs, |&(d, b, l)| {
        let backend = &audited_backends()[b];
        audit_cell(backend.as_ref(), &devices[d], &layers[l])
    });
    let mut diags = Vec::new();
    let mut audited = 0;
    for (cell_diags, cell_count) in results {
        diags.extend(cell_diags);
        audited += cell_count;
    }
    let mut report = Report::new(diags);
    report.plans_audited = audited;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hikey() -> Device {
        Device::mali_g72_hikey970()
    }

    fn l16(c: usize) -> ConvLayerSpec {
        ConvLayerSpec::new("grid.k3s1", 3, 1, 1, 128, c, 28, 28)
    }

    #[test]
    fn clean_backends_pass_every_rule() {
        let report = audit_paper_grid(2);
        assert!(
            report.is_clean(),
            "expected a clean audit:\n{}",
            report.render_human()
        );
        // 5 backends x 4 devices x 5 layers x the channel sweep.
        assert_eq!(report.plans_audited, 5 * 4 * 5 * GRID_CHANNELS.len());
    }

    #[test]
    fn pa001_split_parity_violations_are_caught() {
        let d = hikey();
        // A 92-channel plan (split regime) stripped of its remainder.
        let layer = l16(92);
        let real = AclGemm::new().plan(&layer, &d);
        let mut jobs: Vec<_> = real.chain().jobs().to_vec();
        jobs.pop();
        let mut chain = pruneperf_gpusim::JobChain::new();
        for j in jobs {
            chain.push(j);
        }
        let corrupt = DispatchPlan::new("ACL GEMM", "gemm", chain);
        let diags = audit_plan("ACL GEMM", &corrupt, &layer, &d);
        assert!(diags.iter().any(|x| x.rule == rules::PA001), "{diags:?}");

        // A 96-channel plan (single regime) with a bolted-on split.
        let layer96 = l16(96);
        let single = AclGemm::new().plan(&layer96, &d);
        let mut chain = pruneperf_gpusim::JobChain::new();
        for j in single.chain().jobs() {
            chain.push(j.clone());
        }
        chain.push(pruneperf_gpusim::Job::with_own_submission(
            KernelDesc::builder("gemm_mm")
                .global([196, 1, 1])
                .local([4, 1, 1])
                .arith_per_item(1)
                .footprint_bytes(64)
                .build(),
        ));
        let corrupt = DispatchPlan::new("ACL GEMM", "gemm", chain);
        let diags = audit_plan("ACL GEMM", &corrupt, &layer96, &d);
        assert!(diags.iter().any(|x| x.rule == rules::PA001), "{diags:?}");
    }

    #[test]
    fn pa002_wrong_workgroup_is_caught() {
        let d = hikey();
        let layer = l16(91); // odd -> Table V says [1,1,8]
        let (out_h, out_w) = layer.out_hw();
        let k = KernelDesc::builder("direct_convolution3x3_nhwc")
            .global([out_w, out_h, layer.c_out()])
            .local([4, 1, 1]) // contradicts Table V for an odd channel count
            .arith_per_item(1)
            .footprint_bytes(64)
            .padded_accounting(false)
            .build();
        let plan = DispatchPlan::new(
            "ACL Direct",
            "direct",
            pruneperf_gpusim::JobChain::from_kernels(vec![k]),
        );
        let diags = audit_plan("ACL Direct", &plan, &layer, &d);
        assert!(diags.iter().any(|x| x.rule == rules::PA002), "{diags:?}");
    }

    #[test]
    fn pa003_ragged_split_tile_is_caught() {
        let d = hikey();
        let layer = l16(92);
        // Two gemm_mm kernels (split regime) whose main kernel has a local
        // y-extent that does not divide its global y-extent.
        let bad_main = KernelDesc::builder("gemm_mm")
            .global([196, 5, 1])
            .local([4, 4, 1])
            .arith_per_item(1)
            .footprint_bytes(64)
            .build();
        let rem = KernelDesc::builder("gemm_mm")
            .global([196, 3, 1])
            .local([4, 3, 1])
            .arith_per_item(1)
            .footprint_bytes(64)
            .build();
        let mut chain = pruneperf_gpusim::JobChain::new();
        chain.push(pruneperf_gpusim::Job::new(bad_main));
        chain.push(pruneperf_gpusim::Job::with_own_submission(rem));
        let plan = DispatchPlan::new("ACL GEMM", "gemm", chain);
        let diags = audit_plan("ACL GEMM", &plan, &layer, &d);
        assert!(
            diags
                .iter()
                .any(|x| x.rule == rules::PA003 && x.message.contains("exactly")),
            "{diags:?}"
        );
    }

    #[test]
    fn pa004_wrong_accounting_is_caught() {
        let d = hikey();
        let layer = l16(64);
        // A direct kernel charging padded lanes contradicts Table V.
        let k = KernelDesc::builder("direct_convolution3x3_nhwc")
            .global([28, 28, 64])
            .local([4, 1, 1])
            .arith_per_item(1)
            .footprint_bytes(64)
            .padded_accounting(true)
            .build();
        let plan = DispatchPlan::new(
            "ACL Direct",
            "direct",
            pruneperf_gpusim::JobChain::from_kernels(vec![k]),
        );
        let diags = audit_plan("ACL Direct", &plan, &layer, &d);
        assert!(diags.iter().any(|x| x.rule == rules::PA004), "{diags:?}");
    }

    #[test]
    fn pa005_zero_footprint_and_empty_chain_are_caught() {
        let d = hikey();
        let layer = l16(64);
        let empty = DispatchPlan::new("ACL GEMM", "gemm", pruneperf_gpusim::JobChain::new());
        let diags = audit_plan("ACL GEMM", &empty, &layer, &d);
        assert!(diags.iter().any(|x| x.rule == rules::PA005), "{diags:?}");

        let k = KernelDesc::builder("direct_convolution3x3_nhwc")
            .global([28, 28, 64])
            .local([4, 1, 1])
            .arith_per_item(1)
            .padded_accounting(false)
            .build(); // footprint defaults to zero
        let plan = DispatchPlan::new(
            "ACL Direct",
            "direct",
            pruneperf_gpusim::JobChain::from_kernels(vec![k]),
        );
        let diags = audit_plan("ACL Direct", &plan, &layer, &d);
        assert!(
            diags
                .iter()
                .any(|x| x.rule == rules::PA005 && x.message.contains("footprint")),
            "{diags:?}"
        );
    }

    #[test]
    fn pa006_coverage_step_down_is_caught() {
        let d = hikey();
        let points = vec![
            StaircasePoint {
                c_out: 92,
                algorithm: "gemm".into(),
                covered: Some(96),
            },
            StaircasePoint {
                c_out: 93,
                algorithm: "gemm".into(),
                covered: Some(92), // steps DOWN while channels grew
            },
        ];
        let diags = audit_staircase("ACL GEMM", &d, "grid.k3s1", &points);
        assert!(diags.iter().any(|x| x.rule == rules::PA006), "{diags:?}");
        // And under-coverage of the real channels is its own violation.
        assert!(
            diags
                .iter()
                .any(|x| x.rule == rules::PA006 && x.message.contains("fewer")),
            "{diags:?}"
        );
    }

    #[test]
    fn pa007_cudnn_tile_violations_are_caught() {
        let d = Device::jetson_tx2();
        let layer = l16(128);
        // n_tiles should be ceil(128/32) = 4; claim 3.
        let k = KernelDesc::builder("implicit_gemm_conv")
            .global([32, 25, 3])
            .local([32, 1, 1])
            .arith_per_item(1)
            .footprint_bytes(64)
            .build();
        let plan = DispatchPlan::new(
            "cuDNN",
            "implicit_gemm",
            pruneperf_gpusim::JobChain::from_kernels(vec![k]),
        );
        let diags = audit_plan("cuDNN", &plan, &layer, &d);
        assert!(diags.iter().any(|x| x.rule == rules::PA007), "{diags:?}");

        // Winograd outside its gate (1x1 layer).
        let l1x1 = ConvLayerSpec::new("grid.k1s1", 1, 1, 0, 512, 64, 7, 7);
        let wrong_gate = DispatchPlan::new(
            "cuDNN",
            "winograd",
            pruneperf_gpusim::JobChain::from_kernels(vec![KernelDesc::builder(
                "winograd_batched_gemm",
            )
            .global([4, 16, 16])
            .local([32, 1, 1])
            .arith_per_item(1)
            .footprint_bytes(64)
            .build()]),
        );
        let diags = audit_plan("cuDNN", &wrong_gate, &l1x1, &d);
        assert!(
            diags
                .iter()
                .any(|x| x.rule == rules::PA007 && x.message.contains("gate")),
            "{diags:?}"
        );
    }

    #[test]
    fn pa008_memory_rule_violations_are_caught() {
        // A tiny heap forces direct; a plan that still chose GEMM violates
        // the §IV-A2 rule.
        let tiny = Device::builder("Tiny IoT board").gpu_heap_mib(1).build();
        let layer = ConvLayerSpec::new("grid.k3s1", 3, 1, 1, 128, 128, 56, 56);
        let gemm_plan = AclGemm::new().plan(&layer, &tiny);
        let diags = audit_plan("ACL (auto method)", &gemm_plan, &layer, &tiny);
        assert!(diags.iter().any(|x| x.rule == rules::PA008), "{diags:?}");
        // The genuine auto plan on the same device passes the memory rule.
        let auto_plan = AclAuto::new().plan(&layer, &tiny);
        let diags = audit_plan("ACL (auto method)", &auto_plan, &layer, &tiny);
        assert!(diags.iter().all(|x| x.rule != rules::PA008), "{diags:?}");
    }

    #[test]
    fn pa009_oversized_workgroup_is_caught() {
        let d = Device::mali_t628_odroidxu4(); // 256 resident threads
        let layer = l16(64);
        let k = KernelDesc::builder("direct_convolution3x3_nhwc")
            .global([512, 28, 64])
            .local([512, 1, 1])
            .arith_per_item(1)
            .footprint_bytes(64)
            .padded_accounting(false)
            .build();
        let plan = DispatchPlan::new(
            "ACL Direct",
            "direct",
            pruneperf_gpusim::JobChain::from_kernels(vec![k]),
        );
        let diags = audit_plan("ACL Direct", &plan, &layer, &d);
        assert!(diags.iter().any(|x| x.rule == rules::PA009), "{diags:?}");
    }

    #[test]
    fn pa010_tvm_shape_violations_are_caught() {
        let d = hikey();
        let layer = ConvLayerSpec::new("grid.k1s1", 1, 1, 0, 512, 512, 7, 7);
        let real = Tvm::new().plan(&layer, &d);
        // Duplicate the fused kernel: no longer a single-kernel plan.
        let k = real.chain().jobs()[0].kernel().clone();
        let plan = DispatchPlan::new(
            "TVM",
            real.algorithm(),
            pruneperf_gpusim::JobChain::from_kernels(vec![k.clone(), k]),
        );
        let diags = audit_plan("TVM", &plan, &layer, &d);
        assert!(diags.iter().any(|x| x.rule == rules::PA010), "{diags:?}");
    }

    #[test]
    fn covered_channels_tracks_the_padding() {
        let d = hikey();
        let plan92 = AclGemm::new().plan(&l16(92), &d);
        assert_eq!(covered_channels(&plan92), Some(92)); // 80 + 12
        let plan93 = AclGemm::new().plan(&l16(93), &d);
        assert_eq!(covered_channels(&plan93), Some(96)); // single padded
        let cudnn = Cudnn::new().plan(&l16(97), &Device::jetson_tx2());
        assert_eq!(covered_channels(&cudnn), Some(128)); // 4 N-tiles
    }
}
