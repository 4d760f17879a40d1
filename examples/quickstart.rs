//! Quickstart: profile one convolutional layer, find the staircase, and
//! pick performance-aware pruning targets.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "an example fails fast on a catalog or plan error"
)]

use pruneperf::prelude::*;

fn main() {
    // 1. Pick a device and a layer. ResNet-50 layer 16 is the paper's
    //    running example: 3x3, 128 -> 128 channels over a 28x28 map.
    let device = Device::mali_g72_hikey970();
    let layer = resnet50()
        .layer("ResNet.L16")
        .expect("catalog has L16")
        .clone();
    println!("device: {device}");
    println!("layer:  {layer}\n");

    // 2. Sweep the channel count with the library we intend to deploy on
    //    (median of 10 runs per configuration, like the paper).
    let profiler = LayerProfiler::new(&device);
    let backend = AclGemm::new();
    let curve = profiler.latency_curve(&backend, &layer, 1..=layer.c_out());

    // 3. Detect the staircase. Note the *two parallel staircases*: channel
    //    counts whose vec4 groups tile badly run up to ~1.8x slower.
    let staircase = Staircase::detect(&curve);
    println!("{staircase}");

    // 4. The pruning candidates are the right edges of the fast staircase:
    //    the most channels for each latency level.
    println!("performance-aware pruning candidates:");
    for p in staircase.optimal_points() {
        println!("  keep {:>4} channels -> {:>7.3} ms", p.channels, p.ms);
    }

    // 5. Pick the best configuration inside a latency budget.
    let unpruned_ms = curve.ms_at(layer.c_out()).expect("profiled");
    let budget = unpruned_ms * 0.75;
    match staircase.best_within_budget(budget) {
        Some(p) => println!(
            "\nwithin a {budget:.2} ms budget (75% of unpruned): keep {} channels ({:.3} ms)",
            p.channels, p.ms
        ),
        None => println!("\nno configuration meets a {budget:.2} ms budget"),
    }

    // 6. Contrast with uninstructed pruning: removing 36 channels (to 92)
    //    lands on the slow staircase and is *slower* than removing 32.
    let t92 = curve.ms_at(92).expect("profiled");
    let t96 = curve.ms_at(96).expect("profiled");
    println!(
        "\nuninstructed trap: 92 channels run at {t92:.2} ms but 96 channels at {t96:.2} ms \
         ({:.2}x more channels per millisecond at 96)",
        (96.0 / t96) / (92.0 / t92)
    );
}
