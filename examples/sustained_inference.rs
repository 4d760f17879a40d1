//! Sustained inference under a thermal governor: pruning as a cooling
//! strategy.
//!
//! The paper's boards (§III-D) are passively cooled and run "default OS"
//! governors; under continuous inference they heat up and throttle the GPU
//! clock. A performance-aware pruned network does less work per frame, so
//! it not only starts faster — it *stays* faster, because it may never
//! cross the thermal budget at all.
//!
//! ```text
//! cargo run --release --example sustained_inference
//! ```

use pruneperf::prelude::*;
use pruneperf::profiler::{NetworkRunner, ThermalGovernor};

fn main() {
    let device = Device::mali_g72_hikey970();
    let backend = AclGemm::new();
    let runner = NetworkRunner::new(&device);
    let network = resnet50();

    // Build a performance-aware pruned variant (latency budget 0.7).
    let profiler = LayerProfiler::noiseless(&device);
    let accuracy = AccuracyModel::for_network(&network);
    let plan = PerfAwarePruner::new(&profiler, &accuracy).prune_to_latency(&backend, &network, 0.7);
    let pruned_layers: Vec<ConvLayerSpec> = network
        .layers()
        .iter()
        .zip(plan.keeps())
        .map(|(l, (_, kept))| l.with_c_out(kept).expect("plan is valid"))
        .collect();
    let pruned = Network::new("ResNet-50 (perf-aware 0.7)", pruned_layers);

    let full_report = runner.run(&backend, &network);
    let pruned_report = runner.run(&backend, &pruned);
    println!(
        "single inference:  full {:.1} ms / {:.1} mJ   |   pruned {:.1} ms / {:.1} mJ",
        full_report.total_ms(),
        full_report.total_mj(),
        pruned_report.total_ms(),
        pruned_report.total_mj()
    );

    // A heat budget between the two networks' steady-state heats: the full
    // network will throttle under sustained load, the pruned one will not.
    let retention = 0.85;
    let governor = ThermalGovernor {
        heat_budget_mj: (full_report.total_mj() + pruned_report.total_mj())
            / 2.0
            / (1.0 - retention),
        retention,
        throttle_factor: 1.45,
        hysteresis: 0.9,
    };

    println!("\nback-to-back inference latency (ms):");
    println!("{:>6} {:>12} {:>12}", "iter", "full", "pruned");
    let full_lat = governor.sustained_latencies(&full_report, 30);
    let pruned_lat = governor.sustained_latencies(&pruned_report, 30);
    for i in [0usize, 4, 9, 14, 19, 29] {
        println!("{:>6} {:>12.1} {:>12.1}", i + 1, full_lat[i], pruned_lat[i]);
    }
    let full_steady = governor.steady_state_ms(&full_report);
    let pruned_steady = governor.steady_state_ms(&pruned_report);
    println!(
        "\nsteady state: full {:.1} ms (throttled {}) | pruned {:.1} ms (throttled {})",
        full_steady,
        if full_steady > full_report.total_ms() * 1.01 {
            "YES"
        } else {
            "no"
        },
        pruned_steady,
        if pruned_steady > pruned_report.total_ms() * 1.01 {
            "YES"
        } else {
            "no"
        },
    );
    println!(
        "sustained speedup from pruning: {:.2}x (vs {:.2}x cold)",
        full_steady / pruned_steady,
        full_report.total_ms() / pruned_report.total_ms()
    );
}
