//! End-to-end performance-aware pruning of ResNet-50 (§V of the paper):
//! profile every layer on the target device, restrict candidates to the
//! staircase's optimal points, and trade accuracy for latency along a
//! Pareto front — then compare against the uninstructed baseline.
//!
//! ```text
//! cargo run --release --example prune_resnet50
//! ```

use pruneperf::prelude::*;

fn main() {
    let device = Device::mali_g72_hikey970();
    let network = resnet50();
    let backend = AclGemm::new();
    let profiler = LayerProfiler::noiseless(&device);
    let accuracy = AccuracyModel::for_network(&network);

    println!("pruning {network} for {device} with ACL GEMM");

    // Baseline: the unpruned network.
    let uninstructed = UninstructedPruner::new(&profiler, &accuracy);
    let full = uninstructed.prune_by_distance(&backend, &network, 0);
    println!(
        "\nunpruned: {:.1} ms, accuracy {:.4}",
        full.latency_ms(),
        full.accuracy()
    );

    // The status-quo approach: prune a fixed distance everywhere, ignoring
    // the device. Distances that land on split/odd sizes backfire.
    println!("\nuninstructed pruning (fixed distance per layer):");
    for distance in [1usize, 7, 36, 64] {
        let plan = uninstructed.prune_by_distance(&backend, &network, distance);
        let delta = plan.latency_ms() / full.latency_ms();
        println!(
            "  distance {distance:>3}: {:>7.1} ms ({:.2}x of unpruned), accuracy {:.4}{}",
            plan.latency_ms(),
            delta,
            plan.accuracy(),
            if delta > 1.0 {
                "   <-- SLOWER than unpruned!"
            } else {
                ""
            }
        );
    }

    // The paper's proposal: per-layer candidates from profiled staircases,
    // greedy latency/accuracy trade, several budgets -> Pareto front.
    println!("\nperformance-aware pruning (Pareto front over latency budgets):");
    let aware = PerfAwarePruner::new(&profiler, &accuracy);
    let plans = aware.pareto_plans(&backend, &network, &[1.0, 0.9, 0.8, 0.7, 0.6, 0.5]);
    for plan in &plans {
        println!(
            "  {:>7.1} ms ({:.2}x of unpruned), accuracy {:.4}",
            plan.latency_ms(),
            plan.latency_ms() / full.latency_ms(),
            plan.accuracy()
        );
    }

    // Show one plan's per-layer decisions.
    if let Some(plan) = plans.first() {
        println!("\nfastest plan keeps, per layer:");
        for ((label, kept), layer) in plan.keeps().zip(network.layers()) {
            if kept != layer.c_out() {
                println!("  {label:<13} {:>4} -> {kept:>4} channels", layer.c_out());
            }
        }
    }
}
