//! Designing a network *for* a device (§I: “designing new neural network
//! architectures for specific devices should consider the best sizes of
//! convolutional layers for each library and hardware”).
//!
//! Three extensions of the paper come together here:
//!
//! 1. a MobileNetV1 catalog (depthwise-separable layers show the same
//!    staircases on their pointwise convolutions);
//! 2. coupled pruning — kept counts propagate into successors' inputs,
//!    compounding the savings the paper measures per layer;
//! 3. the auto-tuned direct-convolution backend (the paper's deferred
//!    future work, ref [23]) and energy-aware budgets.
//!
//! ```text
//! cargo run --release --example design_for_device
//! ```

use pruneperf::backends::AclDirectTuned;
use pruneperf::models::mobilenet_v1;
use pruneperf::prelude::*;

fn main() {
    let device = Device::mali_g72_hikey970();
    let network = mobilenet_v1();
    let backend = AclGemm::new();
    let profiler = LayerProfiler::noiseless(&device);
    let accuracy = AccuracyModel::for_network(&network);

    println!("designing {network} for {device}\n");

    // 1. Performance-aware channel selection on the pointwise layers.
    let pruner = PerfAwarePruner::new(&profiler, &accuracy);
    let plan = pruner.prune_to_latency(&backend, &network, 0.75);
    println!(
        "latency plan: {:.2} ms, {:.2} mJ, accuracy {:.4}",
        plan.latency_ms(),
        plan.energy_mj(),
        plan.accuracy()
    );
    let energy_plan = pruner.prune_to_energy(&backend, &network, 0.75);
    println!(
        "energy plan:  {:.2} ms, {:.2} mJ, accuracy {:.4}\n",
        energy_plan.latency_ms(),
        energy_plan.energy_mj(),
        energy_plan.accuracy()
    );

    // 2. Coupled deployment: kept counts propagate into successor inputs.
    let counts: Vec<usize> = plan.keeps().map(|(_, kept)| kept).collect();
    let coupled = network.sequential_with_counts(&counts);
    let t_isolated: f64 = network
        .layers()
        .iter()
        .zip(&counts)
        .map(|(l, &c)| backend.latency_ms(&l.with_c_out(c).expect("valid"), &device))
        .sum();
    let t_coupled: f64 = coupled
        .layers()
        .iter()
        .map(|l| backend.latency_ms(l, &device))
        .sum();
    println!(
        "per-layer view (paper's methodology): {t_isolated:.2} ms\n\
         coupled deployment (inputs shrink too): {t_coupled:.2} ms \
         ({:.2}x further gain)\n",
        t_isolated / t_coupled
    );

    // 3. Auto-tuned workgroups rescue uninstructed channel counts on the
    //    direct-convolution path.
    let heuristic = AclDirect::new();
    let tuned = AclDirectTuned::new();
    let odd = network
        .layer("MobileNet.L12")
        .expect("catalog has L12")
        .with_c_out(509)
        .expect("valid count");
    let t_h = heuristic.latency_ms(&odd, &device);
    let t_t = tuned.latency_ms(&odd, &device);
    println!(
        "direct conv at an uninstructed 509 channels: heuristic {t_h:.2} ms, \
         auto-tuned {t_t:.2} ms ({:.2}x — the paper's [23] reports up to ~3.8x)",
        t_h / t_t
    );
}
