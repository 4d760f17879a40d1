//! Library shootout across the paper's four devices (§V discussion):
//! “no optimal library exists to outperform across all neural network
//! layers. Neither Arm Compute Library, nor TVM dominates.”
//!
//! ```text
//! cargo run --release --example library_shootout
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "an example fails fast on a catalog or plan error"
)]

use pruneperf::backends::all_backends;
use pruneperf::prelude::*;

fn main() {
    let networks = [resnet50(), vgg16(), alexnet()];
    let devices = Device::all_paper_devices();

    for device in &devices {
        println!("== {device}");
        // cuDNN only runs on the CUDA boards; the OpenCL backends only on
        // Mali — mirroring the paper's experimental setup.
        let backends: Vec<_> = all_backends()
            .into_iter()
            .filter(|b| (b.name() == "cuDNN") == device.is_cuda())
            .collect();
        let names: Vec<&str> = backends.iter().map(|b| b.name()).collect();
        println!("{:<14} {}", "layer", names.join("  |  "));

        let mut wins = vec![0usize; backends.len()];
        for network in &networks {
            for layer in network.layers() {
                let times: Vec<f64> = backends
                    .iter()
                    .map(|b| b.latency_ms(layer, device))
                    .collect();
                let best = times
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .expect("at least one backend");
                wins[best] += 1;
                if layer.label().ends_with("L16") || layer.label().ends_with("L14") {
                    let row: Vec<String> = times.iter().map(|t| format!("{t:>8.2} ms")).collect();
                    println!("{:<14} {}", layer.label(), row.join("  |  "));
                }
            }
        }
        println!("fastest-layer wins across all 37 unique layers:");
        for (name, w) in names.iter().zip(&wins) {
            println!("  {name:<12} {w}");
        }
        // The §V observation: on OpenCL devices, no library wins everywhere.
        if !device.is_cuda() {
            let dominated = wins.iter().filter(|&&w| w == 0).count();
            println!(
                "  -> {}",
                if dominated == wins.len() - 1 {
                    "one library dominates (unexpected)"
                } else {
                    "no single library dominates every layer"
                }
            );
        }
        println!();
    }
}
