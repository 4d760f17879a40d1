//! Markdown reports for a pruning campaign — the artifact a practitioner
//! would attach to a deployment decision: device, per-layer staircase
//! summaries, the selected plan, and the uninstructed-baseline comparison.

use std::fmt::Write as _;

use pruneperf_backends::ConvBackend;
use pruneperf_models::Network;
use pruneperf_profiler::LayerProfiler;

use crate::accuracy::AccuracyModel;
use crate::{PerfAwarePruner, Staircase, UninstructedPruner};

/// Options for [`campaign_report`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportOptions {
    /// Latency budget as a fraction of the unpruned latency.
    pub budget_fraction: f64,
    /// Uninstructed-baseline pruning distance to compare against.
    pub baseline_distance: usize,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            budget_fraction: 0.8,
            baseline_distance: 7,
        }
    }
}

/// Runs a full performance-aware pruning campaign and renders a markdown
/// report: staircase summary per layer, the chosen plan, and the
/// uninstructed baseline it beats.
pub fn campaign_report(
    profiler: &LayerProfiler,
    accuracy: &AccuracyModel,
    backend: &dyn ConvBackend,
    network: &Network,
    options: ReportOptions,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Pruning campaign: {} with {} on {}\n",
        network.name(),
        backend.name(),
        profiler.device().name()
    );

    // Per-layer staircase summary.
    let _ = writeln!(out, "## Layer staircases\n");
    let _ = writeln!(
        out,
        "| layer | channels | steps | optimal points | worst adjacent jump |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|");
    for layer in network.layers() {
        let curve = profiler.latency_curve(backend, layer, 1..=layer.c_out());
        let staircase = Staircase::detect(&curve);
        let jump = curve
            .max_adjacent_ratio()
            .map(|(a, b, r)| format!("{r:.2}x at {a}->{b}"))
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} |",
            layer.label(),
            layer.c_out(),
            staircase.steps().len(),
            staircase.optimal_points().len(),
            jump
        );
    }

    // Plans.
    let pruner = PerfAwarePruner::new(profiler, accuracy);
    let plan = pruner.prune_to_latency(backend, network, options.budget_fraction);
    let baseline = UninstructedPruner::new(profiler, accuracy);
    let full = baseline.prune_by_distance(backend, network, 0);
    let naive = baseline.prune_by_distance(backend, network, options.baseline_distance);

    let _ = writeln!(out, "\n## Plans\n");
    let _ = writeln!(out, "| policy | latency (ms) | energy (mJ) | accuracy |");
    let _ = writeln!(out, "|---|---|---|---|");
    for (name, p) in [
        ("unpruned", &full),
        ("uninstructed (distance {d})", &naive),
        ("performance-aware", &plan),
    ] {
        let name = name.replace("{d}", &options.baseline_distance.to_string());
        let _ = writeln!(
            out,
            "| {name} | {:.2} | {:.2} | {:.4} |",
            p.latency_ms(),
            p.energy_mj(),
            p.accuracy()
        );
    }

    // Per-layer decisions of the chosen plan.
    let _ = writeln!(out, "\n## Selected channel counts\n");
    let _ = writeln!(out, "| layer | original | kept |");
    let _ = writeln!(out, "|---|---|---|");
    for ((label, kept), layer) in plan.keeps().zip(network.layers()) {
        if kept != layer.c_out() {
            let _ = writeln!(out, "| {label} | {} | {kept} |", layer.c_out());
        }
    }

    // Verdict.
    let _ = writeln!(out, "\n## Verdict\n");
    if naive.latency_ms() > full.latency_ms() {
        let _ = writeln!(
            out,
            "Uninstructed pruning at distance {} is **{:.2}x slower than not pruning at all** — \
             the paper's central warning. The performance-aware plan reaches {:.2}x of the \
             unpruned latency at accuracy {:.4}.",
            options.baseline_distance,
            naive.latency_ms() / full.latency_ms(),
            plan.latency_ms() / full.latency_ms(),
            plan.accuracy()
        );
    } else {
        let _ = writeln!(
            out,
            "The performance-aware plan reaches {:.2}x of the unpruned latency at accuracy {:.4} \
             (uninstructed distance-{} lands at {:.2}x, accuracy {:.4}).",
            plan.latency_ms() / full.latency_ms(),
            plan.accuracy(),
            options.baseline_distance,
            naive.latency_ms() / full.latency_ms(),
            naive.accuracy()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruneperf_backends::Cudnn;
    use pruneperf_gpusim::Device;
    use pruneperf_models::alexnet;

    #[test]
    fn report_contains_all_sections() {
        let device = Device::jetson_tx2();
        let profiler = LayerProfiler::noiseless(&device);
        let net = alexnet();
        let acc = AccuracyModel::for_network(&net);
        let report = campaign_report(
            &profiler,
            &acc,
            &Cudnn::new(),
            &net,
            ReportOptions::default(),
        );
        for heading in [
            "# Pruning campaign",
            "## Layer staircases",
            "## Plans",
            "## Selected channel counts",
            "## Verdict",
        ] {
            assert!(report.contains(heading), "missing {heading}\n{report}");
        }
        // One staircase row per layer.
        for layer in net.layers() {
            assert!(report.contains(layer.label()), "{}", layer.label());
        }
        assert!(report.contains("performance-aware"));
    }

    #[test]
    fn default_options_are_papers_scenario() {
        let o = ReportOptions::default();
        assert_eq!(o.baseline_distance, 7); // ~12% of a 64-channel layer
        assert!((o.budget_fraction - 0.8).abs() < 1e-12);
    }
}
