//! Layer 3 — the whole-network dataflow verifier (rules `NV001`–`NV008`).
//!
//! A static pass over [`FullNetwork`] assemblies and pruning plans: no
//! `forward()` execution, only arithmetic over the declared geometry. The
//! paper's central hazard is that pruning a layer silently changes every
//! downstream layer's input channels (§II-B's paired input-side pruning);
//! this pass re-derives the propagated shape at every op independently of
//! the code that built the assembly, so a broken pruning transform cannot
//! re-derive itself into passing.
//!
//! Checks:
//! - `NV001` channel propagation (conv inputs, flattened FC inputs),
//! - `NV002` spatial propagation (declared extents, pool-window fit),
//! - `NV003` residual body/shortcut agreement,
//! - `NV004` prune-plan keep validity (`1..=C`, known labels),
//! - `NV005` paired input-side pruning applied to every consumer,
//! - `NV006` FLOPs re-accounting (breakdown and total re-derived),
//! - `NV007` classifier-head geometry vs. the label count,
//! - `NV008` peak per-op working set vs. the device GPU heap.

use std::collections::HashMap;

use pruneperf_backends::AclGemm;
use pruneperf_core::accuracy::AccuracyModel;
use pruneperf_core::{PerfAwarePruner, PruningPlan, UninstructedPruner};
use pruneperf_gpusim::Device;
use pruneperf_models::assembly::{alexnet_full, resnet50_full, vgg16_full, FullNetwork, LayerOp};
use pruneperf_models::{alexnet, mobilenet_v1, resnet50, vgg16, ConvLayerSpec, Network};
use pruneperf_profiler::{sweep, LayerProfiler};

use crate::diag::{Diagnostic, Report, Severity};
use crate::rules;

/// ImageNet label count — every stock classifier head emits this many
/// logits.
pub const LABEL_COUNT: usize = 1000;

/// Keep fractions for the pruned-variant grid the verifier sweeps.
pub const PRUNE_FRACTIONS: &[f64] = &[0.75, 0.5, 0.25];

fn err(rule: &'static str, loc: &str, message: String) -> Diagnostic {
    Diagnostic::new(rule, Severity::Error, loc, message)
}

/// The propagated activation shape between ops (square spatial extent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShapeState {
    hw: usize,
    c: usize,
}

/// Output extent of a conv from its declared fields (the spec constructor
/// guarantees `hw + 2*pad >= kernel`, so this cannot underflow).
fn conv_out_hw(spec: &ConvLayerSpec) -> usize {
    (spec.h_in() + 2 * spec.pad() - spec.kernel()) / spec.stride() + 1
}

/// FLOPs of a conv re-derived from raw fields — deliberately *not* via
/// `spec.dims().flops()`, which is the code under audit.
fn conv_flops(spec: &ConvLayerSpec) -> u64 {
    let o = conv_out_hw(spec) as u64;
    2 * o
        * o
        * (spec.c_out() as u64)
        * (spec.kernel() as u64).pow(2)
        * (spec.c_in() / spec.groups()) as u64
}

/// Walks `ops` checking NV001/NV002/NV003, returning the propagated output
/// shape. `path` scopes locations (`""` at top level, `"#3.body."`-style
/// inside residual bodies).
fn walk_ops(
    net: &str,
    path: &str,
    ops: &[LayerOp],
    mut state: ShapeState,
    out: &mut Vec<Diagnostic>,
) -> ShapeState {
    for (i, op) in ops.iter().enumerate() {
        let loc = |desc: &str| format!("{net} / {path}#{i} {desc}");
        match op {
            LayerOp::Conv(spec) => {
                if spec.c_in() != state.c {
                    out.push(
                        err(
                            rules::NV001,
                            &loc(spec.label()),
                            format!(
                                "conv declares {} input channels but the producer emits {}",
                                spec.c_in(),
                                state.c
                            ),
                        )
                        .with_hint("paired input-side pruning must shrink every consumer (§II-B)"),
                    );
                }
                if spec.h_in() != state.hw || spec.w_in() != state.hw {
                    out.push(err(
                        rules::NV002,
                        &loc(spec.label()),
                        format!(
                            "conv declares {}x{} input but the propagated extent is {}",
                            spec.h_in(),
                            spec.w_in(),
                            state.hw
                        ),
                    ));
                }
                // Resync to the declared geometry so one mismatch does not
                // cascade into every downstream op.
                state = ShapeState {
                    hw: conv_out_hw(spec),
                    c: spec.c_out(),
                };
            }
            LayerOp::Relu => {}
            LayerOp::MaxPool { window, stride } => {
                if *stride == 0 || *window == 0 {
                    out.push(err(
                        rules::NV002,
                        &loc("maxpool"),
                        format!(
                            "maxpool has degenerate geometry (window {window}, stride {stride})"
                        ),
                    ));
                } else if *window > state.hw {
                    out.push(
                        err(
                            rules::NV002,
                            &loc("maxpool"),
                            format!(
                                "pool window {window} does not fit the {hw}x{hw} input",
                                hw = state.hw
                            ),
                        )
                        .with_hint("unpadded pooling requires window <= input extent"),
                    );
                } else {
                    state.hw = (state.hw - window) / stride + 1;
                }
            }
            LayerOp::GlobalAvgPool => state.hw = 1,
            LayerOp::FullyConnected {
                label,
                in_features,
                out_features,
            } => {
                let flat = state.hw * state.hw * state.c;
                if *in_features != flat {
                    out.push(
                        err(
                            rules::NV001,
                            &loc(label),
                            format!(
                                "FC declares {in_features} input features but the flattened \
                                 producer emits {flat} ({hw}x{hw}x{c})",
                                hw = state.hw,
                                c = state.c
                            ),
                        )
                        .with_hint("rescale in_features when the feeding channels are pruned"),
                    );
                }
                state = ShapeState {
                    hw: 1,
                    c: *out_features,
                };
            }
            LayerOp::Residual { body, projection } => {
                let body_out = walk_ops(net, &format!("{path}#{i}.body."), body, state, out);
                let shortcut_out = match projection {
                    Some(p) => {
                        if p.c_in() != state.c {
                            out.push(err(
                                rules::NV003,
                                &loc(p.label()),
                                format!(
                                    "projection declares {} input channels but the block \
                                     input has {}",
                                    p.c_in(),
                                    state.c
                                ),
                            ));
                        }
                        if p.h_in() != state.hw {
                            out.push(err(
                                rules::NV003,
                                &loc(p.label()),
                                format!(
                                    "projection declares {}x{} input but the block input \
                                     extent is {}",
                                    p.h_in(),
                                    p.w_in(),
                                    state.hw
                                ),
                            ));
                        }
                        ShapeState {
                            hw: conv_out_hw(p),
                            c: p.c_out(),
                        }
                    }
                    None => state,
                };
                if body_out != shortcut_out {
                    out.push(
                        err(
                            rules::NV003,
                            &loc("residual_add"),
                            format!(
                                "body emits {}x{}x{} but the shortcut emits {}x{}x{}",
                                body_out.hw,
                                body_out.hw,
                                body_out.c,
                                shortcut_out.hw,
                                shortcut_out.hw,
                                shortcut_out.c
                            ),
                        )
                        .with_hint(
                            "identity shortcuts pin the body output width; projections must \
                             follow the body",
                        ),
                    );
                }
                state = body_out;
            }
        }
    }
    state
}

/// Re-derives the FLOP breakdown of an assembly with independent formulas,
/// mirroring the documented accounting of `FullNetwork::flops_breakdown`.
fn recompute_breakdown(
    input_hw: usize,
    input_c: usize,
    ops: &[LayerOp],
) -> Vec<(String, u64, bool)> {
    let mut hw = input_hw;
    let mut c = input_c;
    let mut out = Vec::new();
    for op in ops {
        match op {
            LayerOp::Conv(spec) => {
                out.push((spec.label().to_string(), conv_flops(spec), true));
                hw = conv_out_hw(spec);
                c = spec.c_out();
            }
            LayerOp::Relu => out.push(("relu".into(), (hw * hw * c) as u64, false)),
            LayerOp::MaxPool { window, stride } => {
                // Degenerate geometry is NV002's finding; keep this total
                // function so it never underflows.
                let o = if *window <= hw && *stride > 0 {
                    (hw - window) / stride + 1
                } else {
                    hw
                };
                out.push((
                    format!("maxpool{window}"),
                    (o * o * c * window * window) as u64,
                    false,
                ));
                hw = o;
            }
            LayerOp::GlobalAvgPool => {
                out.push(("gap".into(), (hw * hw * c) as u64, false));
                hw = 1;
            }
            LayerOp::FullyConnected {
                label,
                in_features,
                out_features,
            } => {
                out.push((
                    label.clone(),
                    2 * (in_features * out_features) as u64,
                    false,
                ));
                hw = 1;
                c = *out_features;
            }
            LayerOp::Residual { body, projection } => {
                out.extend(recompute_breakdown(hw, c, body));
                let (mut bhw, mut bc) = (hw, c);
                for b in body {
                    if let LayerOp::Conv(s) = b {
                        bhw = conv_out_hw(s);
                        bc = s.c_out();
                    }
                }
                if let Some(p) = projection {
                    out.push((p.label().to_string(), conv_flops(p), true));
                }
                out.push(("residual_add".into(), (bhw * bhw * bc) as u64, false));
                hw = bhw;
                c = bc;
            }
        }
    }
    out
}

/// NV006: a reported FLOP accounting (breakdown rows and total) must equal
/// the one re-derived here with independent formulas. Taking the reported
/// side as an argument keeps the check falsifiable — seeded-violation
/// tests hand it a corrupted accounting.
pub fn audit_flops_accounting(
    net: &FullNetwork,
    reported: &[(String, u64, bool)],
    reported_total: u64,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let expected = recompute_breakdown(net.input_hw(), net.input_c(), net.ops());
    let loc = format!("{} / flops", net.name());
    if reported.len() != expected.len() {
        out.push(err(
            rules::NV006,
            &loc,
            format!(
                "flops_breakdown has {} rows but the re-derived accounting has {}",
                reported.len(),
                expected.len()
            ),
        ));
        return out;
    }
    for ((rn, rf, rc), (en, ef, ec)) in reported.iter().zip(&expected) {
        if rn != en || rf != ef || rc != ec {
            out.push(
                err(
                    rules::NV006,
                    &format!("{} / flops :: {en}", net.name()),
                    format!(
                        "reported ({rn}, {rf} FLOPs, conv={rc}) differs from re-derived \
                         ({en}, {ef} FLOPs, conv={ec})"
                    ),
                )
                .with_hint("re-account FLOPs after pruning; stale totals hide pruned work"),
            );
        }
    }
    let total: u64 = expected.iter().map(|(_, f, _)| f).sum();
    if reported_total != total {
        out.push(err(
            rules::NV006,
            &loc,
            format!("total_flops reports {reported_total} but the breakdown sums to {total}"),
        ));
    }
    out
}

/// NV007: the network ends in a fully-connected head of `labels` outputs.
fn check_head(net: &FullNetwork, labels: usize, out: &mut Vec<Diagnostic>) {
    let loc = format!("{} / head", net.name());
    match net.ops().last() {
        Some(LayerOp::FullyConnected { out_features, .. }) => {
            if *out_features != labels {
                out.push(
                    err(
                        rules::NV007,
                        &loc,
                        format!("classifier emits {out_features} logits, expected {labels}"),
                    )
                    .with_hint("channel pruning must never touch the label dimension"),
                );
            }
        }
        other => out.push(err(
            rules::NV007,
            &loc,
            format!("network does not end in a fully-connected head (last op: {other:?})"),
        )),
    }
}

/// Verifies one assembly: shape propagation (NV001–NV003), FLOPs
/// re-accounting (NV006) and head geometry (NV007). The FLOPs check only
/// runs when the shape walk is clean — `flops_breakdown` is undefined over
/// geometrically unsound networks (an oversized pool window would
/// underflow its extent arithmetic).
pub fn verify_network(net: &FullNetwork, labels: usize) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let state = ShapeState {
        hw: net.input_hw(),
        c: net.input_c(),
    };
    walk_ops(net.name(), "", net.ops(), state, &mut out);
    if out.is_empty() {
        out.extend(audit_flops_accounting(
            net,
            &net.flops_breakdown(),
            net.total_flops(),
        ));
    }
    check_head(net, labels, &mut out);
    out
}

/// Peak per-op working set of the assembly in bytes, with the op that
/// peaks: input + output activations, plus conv weights, plus any live
/// residual-shortcut buffer. FC weights are excluded — they stream through
/// the cache row by row and are never resident as a whole (this keeps
/// VGG-16's 100M-parameter head from dwarfing every activation budget).
pub fn peak_working_set(net: &FullNetwork) -> (u64, String) {
    fn bump(peak: &mut (u64, String), bytes: u64, label: &str) {
        if bytes > peak.0 {
            *peak = (bytes, label.to_string());
        }
    }
    fn walk(
        ops: &[LayerOp],
        mut hw: usize,
        mut c: usize,
        held: u64,
        peak: &mut (u64, String),
    ) -> (usize, usize) {
        let f32s = 4u64;
        for op in ops {
            match op {
                LayerOp::Conv(spec) => {
                    let o = conv_out_hw(spec);
                    let input = (spec.h_in() * spec.w_in() * spec.c_in()) as u64;
                    let output = (o * o * spec.c_out()) as u64;
                    let weights = (spec.kernel()
                        * spec.kernel()
                        * (spec.c_in() / spec.groups())
                        * spec.c_out()) as u64;
                    bump(peak, held + (input + output + weights) * f32s, spec.label());
                    hw = o;
                    c = spec.c_out();
                }
                LayerOp::Relu => bump(peak, held + 2 * (hw * hw * c) as u64 * f32s, "relu"),
                LayerOp::MaxPool { window, stride } => {
                    let o = if *window <= hw && *stride > 0 {
                        (hw - window) / stride + 1
                    } else {
                        hw
                    };
                    bump(
                        peak,
                        held + ((hw * hw + o * o) * c) as u64 * f32s,
                        "maxpool",
                    );
                    hw = o;
                }
                LayerOp::GlobalAvgPool => {
                    bump(peak, held + ((hw * hw + 1) * c) as u64 * f32s, "gap");
                    hw = 1;
                }
                LayerOp::FullyConnected {
                    label,
                    in_features,
                    out_features,
                } => {
                    bump(
                        peak,
                        held + (in_features + out_features) as u64 * f32s,
                        label,
                    );
                    hw = 1;
                    c = *out_features;
                }
                LayerOp::Residual { body, projection } => {
                    // The shortcut keeps the block input alive for the add.
                    let skip = (hw * hw * c) as u64 * f32s;
                    let (bhw, bc) = walk(body, hw, c, held + skip, peak);
                    if let Some(p) = projection {
                        let o = conv_out_hw(p);
                        let input = (p.h_in() * p.w_in() * p.c_in()) as u64;
                        let output = (o * o * p.c_out()) as u64;
                        let weights = (p.kernel() * p.kernel() * p.c_in() * p.c_out()) as u64;
                        bump(peak, held + (input + output + weights) * f32s, p.label());
                    }
                    // The add holds both summands and the result.
                    bump(
                        peak,
                        held + 3 * (bhw * bhw * bc) as u64 * f32s,
                        "residual_add",
                    );
                    hw = bhw;
                    c = bc;
                }
            }
        }
        (hw, c)
    }
    let mut peak = (0u64, String::from("(empty)"));
    walk(net.ops(), net.input_hw(), net.input_c(), 0, &mut peak);
    peak
}

/// NV008: the peak working set must fit the device's GPU heap.
pub fn verify_footprint(net: &FullNetwork, device: &Device) -> Vec<Diagnostic> {
    let (bytes, at) = peak_working_set(net);
    if bytes > device.gpu_heap_bytes() {
        vec![err(
            rules::NV008,
            &format!("{} @ {} / {at}", net.name(), device.name()),
            format!(
                "peak working set {bytes} B exceeds the {} B GPU heap",
                device.gpu_heap_bytes()
            ),
        )
        .with_hint("prune harder or split the op; §IV-A2 bounds resident buffers by the heap")]
    } else {
        Vec::new()
    }
}

/// Audits one [`PruningPlan`] end to end: keep validity (`NV004`) and the
/// coupled deployment it implies (`NV005`). A location is formatted only
/// for a finding.
///
/// `NV004`: every keep targets a layer of `network` and lies within
/// `1..=C`. The plan's `(label, kept)` pairs are walked in order: pair *i*
/// naming the network's layer *i*, as in every plan the pruners and the
/// search build, is matched in O(1), and any other label is looked up.
/// Findings come out in label order, whatever order the plan lists.
///
/// `NV005`: [`Network::coupled_channels`] over the plan's counts in
/// network order (a layer the plan does not name keeps its width) applies
/// paired input-side pruning. [`Network::sequential_with_kept`] deploys
/// through that same walk, so `NV005` checks the deploying code without
/// building a network per plan.
pub fn audit_pruning_plan(plan: &PruningPlan, network: &Network) -> Vec<Diagnostic> {
    let loc = |label: &str| {
        let (policy, device) = (plan.policy(), plan.device());
        format!("{policy} @ {device} / {} :: {label}", network.name())
    };
    let layers = network.layers();
    let mut counts: Vec<usize> = layers.iter().map(ConvLayerSpec::c_out).collect();
    let mut found: Vec<(&str, Diagnostic)> = Vec::new();
    for (i, (label, keep)) in plan.keeps().enumerate() {
        let matched = match layers.get(i) {
            Some(layer) if layer.label() == label => Some((i, layer)),
            _ => layers.iter().enumerate().find(|(_, l)| l.label() == label),
        };
        let Some((at, layer)) = matched else {
            let diag = err(
                rules::NV004,
                &loc(label),
                format!("plan prunes unknown layer '{label}'"),
            );
            found.push((
                label,
                diag.with_hint("keeps must target catalog layer labels"),
            ));
            continue;
        };
        counts[at] = keep;
        if keep == 0 || keep > layer.c_out() {
            let diag = err(
                rules::NV004,
                &loc(label),
                format!(
                    "keep {keep} outside 1..={} for layer '{label}'",
                    layer.c_out()
                ),
            );
            let hint = "prune_output_channels_to targets must stay within 1..=C";
            found.push((label, diag.with_hint(hint)));
        }
    }
    found.sort_by(|a, b| a.0.cmp(b.0));
    let mut out: Vec<Diagnostic> = found.into_iter().map(|(_, diag)| diag).collect();
    let coupled = network.coupled_channels(&counts);
    out.extend(audit_coupling(loc, network, &counts, coupled));
    out
}

/// `NV005`: a deployment, given as each layer's `(c_in, c_out)` in network
/// order, applies paired input-side pruning to the per-layer keep
/// `counts`: every consumer's input channels equal its producer's output
/// channels, depthwise layers follow their input, and every other layer
/// emits its keep. A layer the deployment lacks counts as 0 channels.
fn audit_coupling(
    loc: impl Fn(&str) -> String,
    network: &Network,
    counts: &[usize],
    deployed: impl IntoIterator<Item = (usize, usize)>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut deployed = deployed.into_iter();
    let mut prev_out: Option<usize> = None;
    for (orig, &kept) in network.layers().iter().zip(counts) {
        let (c_in, c_out) = deployed.next().unwrap_or_default();
        let expect_in = prev_out.unwrap_or_else(|| orig.c_in());
        if c_in != expect_in {
            out.push(
                err(
                    rules::NV005,
                    &loc(orig.label()),
                    format!(
                        "consumer keeps {c_in} input channels but its producer was pruned to \
                         {expect_in}"
                    ),
                )
                .with_hint("apply the paired input-side prune downstream (§II-B)"),
            );
        }
        let expect_out = if orig.is_depthwise() { expect_in } else { kept };
        if c_out != expect_out {
            out.push(err(
                rules::NV005,
                &loc(orig.label()),
                format!("layer emits {c_out} channels but the plan keeps {expect_out}"),
            ));
        }
        prev_out = Some(c_out);
    }
    out
}

/// `(label, c_out)` for every conv in the assembly, in execution order.
fn conv_channels(net: &FullNetwork) -> Vec<(String, usize)> {
    fn collect_channels(ops: &[LayerOp], out: &mut Vec<(String, usize)>) {
        for op in ops {
            match op {
                LayerOp::Conv(s) => out.push((s.label().to_string(), s.c_out())),
                LayerOp::Residual { body, projection } => {
                    // lint: allow(recursion-bound) — residual bodies nest one level by construction (NV003)
                    collect_channels(body, out);
                    if let Some(p) = projection {
                        out.push((p.label().to_string(), p.c_out()));
                    }
                }
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    collect_channels(net.ops(), &mut out);
    out
}

/// A uniform keep map over the assembly's convolutions.
fn fraction_keeps(net: &FullNetwork, fraction: f64) -> HashMap<String, usize> {
    conv_channels(net)
        .into_iter()
        .map(|(label, c)| (label, ((c as f64 * fraction).round() as usize).max(1)))
        .collect()
}

/// The stock full assemblies under audit.
pub fn stock_networks() -> Vec<FullNetwork> {
    vec![resnet50_full(), vgg16_full(), alexnet_full()]
}

/// The catalog networks whose pruning greedies are audited.
fn catalog_networks() -> Vec<Network> {
    vec![alexnet(), mobilenet_v1(), resnet50(), vgg16()]
}

/// Audits every plan the pruning greedies emit for one (device, network)
/// cell: both perf-aware objectives, the Pareto sweep and both
/// uninstructed baselines. Returns `(diagnostics, plans audited)`.
fn audit_pruner_cell(device: &Device, network: &Network) -> (Vec<Diagnostic>, usize) {
    let backend = AclGemm::new();
    let profiler = LayerProfiler::noiseless(device);
    let accuracy = AccuracyModel::for_network(network);
    let pruner = PerfAwarePruner::new(&profiler, &accuracy);
    let uninstructed = UninstructedPruner::new(&profiler, &accuracy);
    let mut plans = vec![
        pruner.prune_to_latency(&backend, network, 0.8),
        pruner.prune_to_energy(&backend, network, 0.85),
        uninstructed.prune_by_distance(&backend, network, 7),
        uninstructed.prune_to_fraction(&backend, network, 0.5),
    ];
    plans.extend(pruner.pareto_plans(&backend, network, &[1.0, 0.8]));
    let mut out = Vec::new();
    let audited = plans.len();
    for plan in &plans {
        out.extend(audit_pruning_plan(plan, network));
    }
    (out, audited)
}

/// Runs the full network-verification grid: the stock assemblies, their
/// footprints on all four paper devices, a pruned-variant sweep, and every
/// plan the pruning greedies emit — fanned out over `jobs` workers with a
/// deterministic, input-ordered reduction.
pub fn audit_network_grid(jobs: usize) -> Report {
    let devices = Device::all_paper_devices();
    // Cell kinds: 0 = stock network + pruned variants, 1 = footprint,
    // 2 = pruner plans. Encoded as plain indices so the closure rebuilds
    // its own (non-Sync) values per call.
    let stock = stock_networks().len();
    let catalogs = catalog_networks().len();
    let mut cells: Vec<(u8, usize, usize)> = Vec::new();
    for n in 0..stock {
        cells.push((0, n, 0));
    }
    for n in 0..stock {
        for d in 0..devices.len() {
            cells.push((1, n, d));
        }
    }
    for n in 0..catalogs {
        for d in 0..devices.len() {
            cells.push((2, n, d));
        }
    }
    let results = sweep::ordered_parallel_map(&cells, jobs, |&(kind, n, d)| match kind {
        0 => {
            let net = &stock_networks()[n];
            let mut diags = verify_network(net, LABEL_COUNT);
            let mut count = 1;
            for &f in PRUNE_FRACTIONS {
                let pruned = net.pruned_with_kept(&fraction_keeps(net, f));
                diags.extend(verify_network(&pruned, LABEL_COUNT));
                count += 1;
            }
            (diags, count)
        }
        1 => {
            let net = &stock_networks()[n];
            (verify_footprint(net, &devices[d]), 1)
        }
        _ => audit_pruner_cell(&devices[d], &catalog_networks()[n]),
    });
    let mut diags = Vec::new();
    let mut verified = 0;
    for (cell_diags, cell_count) in results {
        diags.extend(cell_diags);
        verified += cell_count;
    }
    let mut report = Report::new(diags);
    report.networks_verified = verified;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruneperf_core::search::{search, SearchAlgo, SearchConfig};

    #[test]
    fn stock_networks_are_clean() {
        for net in stock_networks() {
            let diags = verify_network(&net, LABEL_COUNT);
            assert!(diags.is_empty(), "{}: {diags:?}", net.name());
            for d in Device::all_paper_devices() {
                assert!(verify_footprint(&net, &d).is_empty());
            }
        }
    }

    #[test]
    fn pruned_variants_are_clean() {
        for net in stock_networks() {
            for &f in PRUNE_FRACTIONS {
                let pruned = net.pruned_with_kept(&fraction_keeps(&net, f));
                let diags = verify_network(&pruned, LABEL_COUNT);
                assert!(diags.is_empty(), "{} @ {f}: {diags:?}", net.name());
            }
        }
    }

    #[test]
    fn pruning_reduces_reported_flops_consistently() {
        let net = vgg16_full();
        let pruned = net.pruned_with_kept(&fraction_keeps(&net, 0.5));
        assert!(pruned.total_flops() < net.total_flops() / 3);
        assert!(verify_network(&pruned, LABEL_COUNT).is_empty());
    }

    #[test]
    fn nv001_broken_channel_propagation_is_caught() {
        // A naive prune: shrink C0's outputs without touching C1's inputs.
        let net = FullNetwork::new(
            "NaivePrune",
            16,
            3,
            vec![
                LayerOp::Conv(ConvLayerSpec::new("NP.C0", 3, 1, 1, 3, 4, 16, 16)),
                LayerOp::Conv(ConvLayerSpec::new("NP.C1", 3, 1, 1, 8, 8, 16, 16)),
                LayerOp::GlobalAvgPool,
                LayerOp::FullyConnected {
                    label: "NP.FC".into(),
                    in_features: 8,
                    out_features: LABEL_COUNT,
                },
            ],
        );
        let diags = verify_network(&net, LABEL_COUNT);
        assert!(diags.iter().any(|d| d.rule == rules::NV001), "{diags:?}");
    }

    #[test]
    fn nv001_stale_fc_inputs_are_caught() {
        let net = FullNetwork::new(
            "StaleFC",
            8,
            3,
            vec![
                LayerOp::Conv(ConvLayerSpec::new("SF.C0", 3, 1, 1, 3, 4, 8, 8)),
                LayerOp::GlobalAvgPool,
                LayerOp::FullyConnected {
                    label: "SF.FC".into(),
                    in_features: 8, // producer emits 4
                    out_features: LABEL_COUNT,
                },
            ],
        );
        let diags = verify_network(&net, LABEL_COUNT);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == rules::NV001 && d.message.contains("flattened")),
            "{diags:?}"
        );
    }

    #[test]
    fn nv002_spatial_mismatch_and_oversized_pool_are_caught() {
        let net = FullNetwork::new(
            "BadGeom",
            16,
            3,
            vec![
                // Declares a 32x32 input on a 16x16 activation.
                LayerOp::Conv(ConvLayerSpec::new("BG.C0", 3, 1, 1, 3, 4, 32, 32)),
            ],
        );
        let diags = verify_network(&net, LABEL_COUNT);
        assert!(diags.iter().any(|d| d.rule == rules::NV002), "{diags:?}");

        let pool = FullNetwork::new(
            "BadPool",
            4,
            3,
            vec![LayerOp::MaxPool {
                window: 9,
                stride: 2,
            }],
        );
        let diags = verify_network(&pool, LABEL_COUNT);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == rules::NV002 && d.message.contains("window")),
            "{diags:?}"
        );
    }

    #[test]
    fn nv003_unbalanced_residual_is_caught() {
        // Identity shortcut but the body changes the channel count.
        let net = FullNetwork::new(
            "BadRes",
            8,
            4,
            vec![LayerOp::Residual {
                body: vec![LayerOp::Conv(ConvLayerSpec::new(
                    "BR.C0", 3, 1, 1, 4, 8, 8, 8,
                ))],
                projection: None,
            }],
        );
        let diags = verify_network(&net, LABEL_COUNT);
        assert!(diags.iter().any(|d| d.rule == rules::NV003), "{diags:?}");

        // Projection consuming the wrong input width.
        let net = FullNetwork::new(
            "BadProj",
            8,
            4,
            vec![LayerOp::Residual {
                body: vec![LayerOp::Conv(ConvLayerSpec::new(
                    "BP.C0", 3, 1, 1, 4, 8, 8, 8,
                ))],
                projection: Some(ConvLayerSpec::new("BP.P", 1, 1, 0, 6, 8, 8, 8)),
            }],
        );
        let diags = verify_network(&net, LABEL_COUNT);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == rules::NV003 && d.message.contains("projection")),
            "{diags:?}"
        );
    }

    /// A plan read from JSON, with its keeps in the order given.
    fn plan_from_json(
        (policy, device, network): (&str, &str, &str),
        keeps: &[(&str, usize)],
    ) -> PruningPlan {
        let kept: Vec<String> = keeps.iter().map(|(l, k)| format!("\"{l}\": {k}")).collect();
        let json = format!(
            r#"{{"policy": "{policy}", "backend": "acl-gemm", "device": "{device}",
                "network": "{network}", "latency_ms": 1.5, "energy_mj": 2.5, "accuracy": 0.5,
                "kept": {{{}}}}}"#,
            kept.join(", ")
        );
        serde_json::from_str(&json).expect("plan parses")
    }

    #[test]
    fn nv004_invalid_keeps_are_caught() {
        let network = alexnet();
        let first = network.layers()[0].label();
        // Below 1, and an unknown layer.
        let plan = plan_from_json(
            ("test", "HiKey 970", "AlexNet"),
            &[(first, 0), ("AlexNet.L99", 4)],
        );
        let diags = audit_pruning_plan(&plan, &network);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == rules::NV004 && d.message.contains("outside")),
            "{diags:?}"
        );
        assert!(
            diags
                .iter()
                .any(|d| d.rule == rules::NV004 && d.message.contains("unknown")),
            "{diags:?}"
        );
        // Over-C keeps are rejected too.
        let c = network.layers()[0].c_out();
        let plan = plan_from_json(("test", "HiKey 970", "AlexNet"), &[(first, c + 1)]);
        let diags = audit_pruning_plan(&plan, &network);
        assert!(diags.iter().any(|d| d.rule == rules::NV004), "{diags:?}");
    }

    /// A location under the `test` producer.
    fn test_loc(network: &Network) -> impl Fn(&str) -> String + '_ {
        move |label| format!("test / {} :: {label}", network.name())
    }

    #[test]
    fn nv005_unpaired_prune_is_caught() {
        let network = Network::new(
            "Tiny",
            vec![
                ConvLayerSpec::new("T.L0", 3, 1, 1, 3, 8, 8, 8),
                ConvLayerSpec::new("T.L1", 1, 1, 0, 8, 16, 8, 8),
            ],
        );
        let counts = [4, 16];
        // A naive deployment that shrinks T.L0 but leaves T.L1's inputs.
        let naive = [(3, 4), (8, 16)];
        let diags = audit_coupling(test_loc(&network), &network, &counts, naive);
        assert!(diags.iter().any(|d| d.rule == rules::NV005), "{diags:?}");
        // The real coupled deployment is clean.
        let coupled = network.coupled_channels(&counts);
        assert!(audit_coupling(test_loc(&network), &network, &counts, coupled).is_empty());
    }

    /// A MobileNetV1 plan with two unknown labels, two keeps of 0 (on
    /// depthwise layers, which the coupled assembly ignores) and a keep
    /// above C, so every finding is NV004's.
    fn mobilenet_bad_plan() -> PruningPlan {
        serde_json::from_str(
            r#"{"policy": "search-beam", "backend": "acl-gemm", "device": "HiKey 970",
                "network": "MobileNetV1", "latency_ms": 1.5, "energy_mj": 2.5, "accuracy": 0.5,
                "kept": {"MobileNet.L9": 0, "MobileNet.L3": 0, "MobileNet.L12": 600,
                         "MobileNet.L2": 48, "MobileNet.L99": 8, "MobileNet.Head": 10}}"#,
        )
        .expect("plan parses")
    }

    /// Every field of a diagnostic, in emission order.
    type Row = (&'static str, Severity, String, String, Option<String>);

    fn rows(diags: &[Diagnostic]) -> Vec<Row> {
        diags
            .iter()
            .map(|d| {
                let (loc, msg, hint) = (d.location.clone(), d.message.clone(), d.hint.clone());
                (d.rule, d.severity, loc, msg, hint)
            })
            .collect()
    }

    fn row(rule: &'static str, loc: &str, msg: &str, hint: Option<&str>) -> Row {
        let hint = hint.map(str::to_string);
        (
            rule,
            Severity::Error,
            loc.to_string(),
            msg.to_string(),
            hint,
        )
    }

    /// The NV004 findings for [`mobilenet_bad_plan`] under `producer`, in
    /// label order.
    fn bad_plan_rows(producer: &str) -> Vec<Row> {
        let unknown = Some("keeps must target catalog layer labels");
        let range = Some("prune_output_channels_to targets must stay within 1..=C");
        [
            (
                "MobileNet.Head",
                "plan prunes unknown layer 'MobileNet.Head'",
                unknown,
            ),
            (
                "MobileNet.L12",
                "keep 600 outside 1..=512 for layer 'MobileNet.L12'",
                range,
            ),
            (
                "MobileNet.L3",
                "keep 0 outside 1..=64 for layer 'MobileNet.L3'",
                range,
            ),
            (
                "MobileNet.L9",
                "keep 0 outside 1..=256 for layer 'MobileNet.L9'",
                range,
            ),
            (
                "MobileNet.L99",
                "plan prunes unknown layer 'MobileNet.L99'",
                unknown,
            ),
        ]
        .into_iter()
        .map(|(label, msg, hint)| {
            let loc = format!("{producer} / MobileNetV1 :: {label}");
            row(rules::NV004, &loc, msg, hint)
        })
        .collect()
    }

    #[test]
    fn nv004_diagnostics_are_pinned_byte_for_byte() {
        let network = mobilenet_v1();
        // No NV005 finding: the coupled walk ignores keeps on depthwise
        // layers and grows L12 consistently.
        let diags = audit_pruning_plan(&mobilenet_bad_plan(), &network);
        assert_eq!(rows(&diags), bad_plan_rows("search-beam @ HiKey 970"));
    }

    /// A keep of 0 on a dense layer is an NV004 finding, not a panic in
    /// the coupled build (which cannot give a layer 0 channels).
    #[test]
    fn nv004_dense_keep_of_zero_is_reported_not_panicked() {
        let network = mobilenet_v1();
        let plan: PruningPlan = serde_json::from_str(
            r#"{"policy": "search-beam", "backend": "acl-gemm", "device": "HiKey 970",
                "network": "MobileNetV1", "latency_ms": 1.5, "energy_mj": 2.5, "accuracy": 0.5,
                "kept": {"MobileNet.L2": 0, "MobileNet.L4": 96}}"#,
        )
        .expect("plan parses");
        let expected = vec![row(
            rules::NV004,
            "search-beam @ HiKey 970 / MobileNetV1 :: MobileNet.L2",
            "keep 0 outside 1..=64 for layer 'MobileNet.L2'",
            Some("prune_output_channels_to targets must stay within 1..=C"),
        )];
        assert_eq!(rows(&audit_pruning_plan(&plan, &network)), expected);
    }

    #[test]
    fn nv005_diagnostics_are_pinned_byte_for_byte() {
        let network = mobilenet_v1();
        let counts: Vec<usize> = network
            .layers()
            .iter()
            .map(|l| match l.label() {
                "MobileNet.L2" => 48,
                "MobileNet.L10" => 200,
                _ => l.c_out(),
            })
            .collect();
        // The naive deployment shrinks each pruned layer's outputs and
        // leaves the depthwise consumer after it at catalog width.
        let naive = network
            .layers()
            .iter()
            .zip(&counts)
            .map(|(l, &k)| (l.c_in(), k));
        let paired = Some("apply the paired input-side prune downstream (§II-B)");
        let (l3, l11) = (
            "test / MobileNetV1 :: MobileNet.L3",
            "test / MobileNetV1 :: MobileNet.L11",
        );
        let expected = vec![
            row(
                rules::NV005,
                l3,
                "consumer keeps 64 input channels but its producer was pruned to 48",
                paired,
            ),
            row(
                rules::NV005,
                l3,
                "layer emits 64 channels but the plan keeps 48",
                None,
            ),
            row(
                rules::NV005,
                l11,
                "consumer keeps 256 input channels but its producer was pruned to 200",
                paired,
            ),
            row(
                rules::NV005,
                l11,
                "layer emits 256 channels but the plan keeps 200",
                None,
            ),
        ];
        let diags = audit_coupling(test_loc(&network), &network, &counts, naive);
        assert_eq!(rows(&diags), expected);
    }

    /// The plan audit as it ran on keep maps, kept as the oracle for
    /// [`audit_pruning_plan`]: NV004 over the map, a coupled network built
    /// by its own copy of the map-based coupling, and NV005 comparing that
    /// network layer by layer. Because the copy does not share
    /// [`Network::coupled_channels`], a fault in the walk shows up as a
    /// difference rather than in both.
    mod map_oracle {
        use super::*;

        pub fn audit_pruning_plan(plan: &PruningPlan, network: &Network) -> Vec<Diagnostic> {
            let producer = format!("{} @ {}", plan.policy(), plan.device());
            let kept = plan.kept_channels();
            let mut out = audit_plan_keeps(&producer, network, &kept);
            let undeployable = !out.is_empty()
                && network
                    .layers()
                    .iter()
                    .any(|l| !l.is_depthwise() && kept.get(l.label()) == Some(&0));
            if !undeployable {
                let coupled = sequential_with_kept(network, &kept);
                out.extend(audit_coupled_network(&producer, network, &kept, &coupled));
            }
            out
        }

        fn audit_plan_keeps(
            producer: &str,
            network: &Network,
            kept: &HashMap<String, usize>,
        ) -> Vec<Diagnostic> {
            let loc = |label: &str| format!("{producer} / {} :: {label}", network.name());
            let mut found: Vec<(&str, Diagnostic)> = Vec::new();
            let mut matched = 0;
            for layer in network.layers() {
                if let Some(&keep) = kept.get(layer.label()) {
                    matched += 1;
                    if keep == 0 || keep > layer.c_out() {
                        let label = layer.label();
                        let msg = format!(
                            "keep {keep} outside 1..={} for layer '{label}'",
                            layer.c_out()
                        );
                        let hint = "prune_output_channels_to targets must stay within 1..=C";
                        found.push((label, err(rules::NV004, &loc(label), msg).with_hint(hint)));
                    }
                }
            }
            if matched < kept.len() {
                let unknown = kept.keys().filter(|label| network.layer(label).is_none());
                found.extend(unknown.map(|label| {
                    let msg = format!("plan prunes unknown layer '{label}'");
                    let diag = err(rules::NV004, &loc(label), msg);
                    (
                        label.as_str(),
                        diag.with_hint("keeps must target catalog layer labels"),
                    )
                }));
            }
            found.sort_by(|a, b| a.0.cmp(b.0));
            found.into_iter().map(|(_, diag)| diag).collect()
        }

        fn sequential_with_kept(network: &Network, kept: &HashMap<String, usize>) -> Network {
            let mut layers = Vec::with_capacity(network.len());
            let mut prev_out: Option<usize> = None;
            for layer in network.layers() {
                let c_in = prev_out.unwrap_or_else(|| layer.c_in());
                let (c_out, groups) = if layer.is_depthwise() {
                    (c_in, c_in)
                } else {
                    let c_out = kept.get(layer.label()).copied();
                    (c_out.unwrap_or_else(|| layer.c_out()), layer.groups())
                };
                layers.push(ConvLayerSpec::new_grouped(
                    layer.label(),
                    layer.kernel(),
                    layer.stride(),
                    layer.pad(),
                    c_in,
                    c_out,
                    layer.h_in(),
                    layer.w_in(),
                    groups,
                ));
                prev_out = Some(c_out);
            }
            Network::new(format!("{} (coupled prune)", network.name()), layers)
        }

        fn audit_coupled_network(
            producer: &str,
            network: &Network,
            kept: &HashMap<String, usize>,
            coupled: &Network,
        ) -> Vec<Diagnostic> {
            let mut out = Vec::new();
            if coupled.len() != network.len() {
                let msg = format!(
                    "coupled network has {} layers, catalog has {}",
                    coupled.len(),
                    network.len()
                );
                out.push(err(
                    rules::NV005,
                    &format!("{producer} / {}", network.name()),
                    msg,
                ));
                return out;
            }
            let mut prev_out: Option<usize> = None;
            for (orig, layer) in network.layers().iter().zip(coupled.layers()) {
                let loc = || format!("{producer} / {} :: {}", network.name(), orig.label());
                let expect_in = prev_out.unwrap_or_else(|| orig.c_in());
                if layer.c_in() != expect_in {
                    let msg = format!(
                        "consumer keeps {} input channels but its producer was pruned to {}",
                        layer.c_in(),
                        expect_in
                    );
                    let hint = "apply the paired input-side prune downstream (§II-B)";
                    out.push(err(rules::NV005, &loc(), msg).with_hint(hint));
                }
                let expect_out = if orig.is_depthwise() {
                    expect_in
                } else {
                    let kept = kept.get(orig.label()).copied();
                    kept.unwrap_or_else(|| orig.c_out())
                };
                if layer.c_out() != expect_out {
                    let msg = format!(
                        "layer emits {} channels but the plan keeps {expect_out}",
                        layer.c_out()
                    );
                    out.push(err(rules::NV005, &loc(), msg));
                }
                prev_out = Some(layer.c_out());
            }
            out
        }
    }

    /// The seeded corruptions of a front plan: a keep of 0 on a dense
    /// layer and on a depthwise one, a keep above C on one layer and on
    /// every layer, the keeps out of network order, and an unknown label.
    fn corruptions(plan: &PruningPlan, network: &Network, seed: usize) -> Vec<PruningPlan> {
        let keeps: Vec<(&str, usize)> = plan.keeps().collect();
        let layers = network.layers();
        let pick = |salt: usize, of: &[usize]| of[(seed * 31 + salt * 17) % of.len()];
        let dense: Vec<usize> = (0..layers.len())
            .filter(|&i| !layers[i].is_depthwise())
            .collect();
        let depthwise: Vec<usize> = (0..layers.len())
            .filter(|&i| layers[i].is_depthwise())
            .collect();
        let set = |at: usize, keep: usize| {
            let mut keeps = keeps.clone();
            keeps[at].1 = keep;
            keeps
        };
        let mut variants = vec![set(pick(1, &dense), 0)];
        if !depthwise.is_empty() {
            variants.push(set(pick(2, &depthwise), 0));
        }
        let at = pick(3, &dense);
        variants.push(set(at, layers[at].c_out() + 1));
        let over: Vec<(&str, usize)> = keeps
            .iter()
            .zip(layers)
            .map(|(&(label, _), l)| (label, l.c_out() + 1))
            .collect();
        variants.push(over);
        variants.push(keeps.iter().rev().copied().collect());
        let mut unknown = keeps.clone();
        unknown.insert(pick(4, &dense), ("Unknown.L999", 8));
        variants.push(unknown);
        variants
            .iter()
            .map(|keeps| plan_from_json((plan.policy(), plan.device(), plan.network()), keeps))
            .collect()
    }

    /// Every front plan of one seeded search, and the seeded corruptions
    /// of every `stride`-th, audit exactly as the map oracle does.
    fn assert_audit_matches_the_map_oracle(
        network: &Network,
        device: &Device,
        backend: &dyn pruneperf_backends::ConvBackend,
        config: &SearchConfig,
        stride: usize,
    ) {
        let profiler = LayerProfiler::noiseless(device)
            .with_cache(std::sync::Arc::new(pruneperf_profiler::LatencyCache::new()));
        let accuracy = AccuracyModel::for_network(network);
        let outcome = search(&profiler, &accuracy, backend, network, config);
        assert!(!outcome.plans.is_empty());
        for (i, plan) in outcome.plans.iter().enumerate() {
            let mut cases = vec![plan.clone()];
            if i % stride == 0 {
                cases.extend(corruptions(plan, network, config.seed as usize + i));
            }
            for case in &cases {
                assert_eq!(
                    rows(&audit_pruning_plan(case, network)),
                    rows(&map_oracle::audit_pruning_plan(case, network)),
                    "{} {} seed {} plan {i}: {:?}",
                    network.name(),
                    config.algo.name(),
                    config.seed,
                    case.keeps().collect::<Vec<_>>()
                );
            }
        }
    }

    /// The pair audit equals the map audit on seeded beam and evolve
    /// fronts of AlexNet, MobileNetV1 and VGG-16 on two boards, and on
    /// seeded corruptions of those plans.
    #[test]
    fn the_pair_audit_equals_the_map_audit() {
        let boards: [(Device, Box<dyn pruneperf_backends::ConvBackend>); 2] = [
            (Device::mali_g72_hikey970(), Box::new(AclGemm::new())),
            (
                Device::jetson_tx2(),
                Box::new(pruneperf_backends::Cudnn::new()),
            ),
        ];
        for network in [alexnet(), mobilenet_v1(), vgg16()] {
            for (device, backend) in &boards {
                for algo in [SearchAlgo::Beam, SearchAlgo::Evolve] {
                    let config = SearchConfig {
                        algo,
                        seed: 7,
                        ..SearchConfig::default()
                    };
                    let backend = backend.as_ref();
                    assert_audit_matches_the_map_oracle(&network, device, backend, &config, 29);
                }
            }
        }
    }

    /// The recorded ResNet-50 beam fronts: the seeds of
    /// `benchmark/expected/search.tsv` (the file is only read).
    /// cargo test -q --release -p pruneperf-analysis --lib network_verify -- --include-ignored
    #[test]
    #[ignore = "32 ResNet-50 searches; run with --include-ignored in release"]
    fn the_pair_audit_equals_the_map_audit_on_every_recorded_front() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../benchmark/expected/search.tsv"
        );
        let recorded = std::fs::read_to_string(path).expect("recorded search fronts");
        let network = resnet50();
        for row in recorded.lines() {
            let seed = row.split('\t').next().expect("seed column");
            let config = SearchConfig {
                seed: seed.parse().expect("numeric seed"),
                ..SearchConfig::default()
            };
            let device = Device::mali_g72_hikey970();
            assert_audit_matches_the_map_oracle(&network, &device, &AclGemm::new(), &config, 61);
        }
    }

    #[test]
    fn nv006_corrupted_flops_accounting_is_caught() {
        let net = alexnet_full();
        // The real accounting is clean.
        assert!(audit_flops_accounting(&net, &net.flops_breakdown(), net.total_flops()).is_empty());
        // A stale breakdown row (as left behind by a prune that forgot to
        // re-account) is caught.
        let mut stale = net.flops_breakdown();
        stale[0].1 *= 2;
        let diags = audit_flops_accounting(&net, &stale, net.total_flops());
        assert!(diags.iter().any(|d| d.rule == rules::NV006), "{diags:?}");
        // A stale total is caught even when the rows agree.
        let diags = audit_flops_accounting(&net, &net.flops_breakdown(), net.total_flops() - 1);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == rules::NV006 && d.message.contains("total_flops")),
            "{diags:?}"
        );
        // A missing row is caught.
        let mut short = net.flops_breakdown();
        short.pop();
        let diags = audit_flops_accounting(&net, &short, net.total_flops());
        assert!(
            diags
                .iter()
                .any(|d| d.rule == rules::NV006 && d.message.contains("rows")),
            "{diags:?}"
        );
    }

    #[test]
    fn nv007_wrong_head_is_caught() {
        let net = FullNetwork::new(
            "BadHead",
            8,
            3,
            vec![
                LayerOp::Conv(ConvLayerSpec::new("BH.C0", 3, 1, 1, 3, 4, 8, 8)),
                LayerOp::GlobalAvgPool,
                LayerOp::FullyConnected {
                    label: "BH.FC".into(),
                    in_features: 4,
                    out_features: 10, // not the label count
                },
            ],
        );
        let diags = verify_network(&net, LABEL_COUNT);
        assert!(diags.iter().any(|d| d.rule == rules::NV007), "{diags:?}");

        // A network with no head at all.
        let headless = FullNetwork::new(
            "Headless",
            8,
            3,
            vec![LayerOp::Conv(ConvLayerSpec::new(
                "HL.C0", 3, 1, 1, 3, 4, 8, 8,
            ))],
        );
        let diags = verify_network(&headless, LABEL_COUNT);
        assert!(diags.iter().any(|d| d.rule == rules::NV007), "{diags:?}");
    }

    #[test]
    fn nv008_oversized_working_set_is_caught() {
        let tiny = Device::builder("Tiny IoT board").gpu_heap_mib(1).build();
        let net = vgg16_full(); // ~26 MB peak working set
        let diags = verify_footprint(&net, &tiny);
        assert!(diags.iter().any(|d| d.rule == rules::NV008), "{diags:?}");
        // The same network fits every paper device.
        for d in Device::all_paper_devices() {
            assert!(verify_footprint(&net, &d).is_empty(), "{}", d.name());
        }
    }

    #[test]
    fn greedy_plans_pass_the_plan_rules() {
        // One cheap cell exercising the real pruners end to end.
        let device = Device::mali_g72_hikey970();
        let network = alexnet();
        let (diags, audited) = audit_pruner_cell(&device, &network);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(audited >= 5, "expected all greedy producers, got {audited}");
    }

    #[test]
    fn peak_working_set_names_a_real_op() {
        let (bytes, at) = peak_working_set(&vgg16_full());
        assert!(bytes > 20 * 1024 * 1024, "{bytes} at {at}");
        assert!(at.contains("VGGFull"), "{at}");
    }
}
