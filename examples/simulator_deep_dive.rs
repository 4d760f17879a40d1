//! The §IV-B deep dive: what the GPU simulator sees when ACL's GEMM split
//! heuristic goes wrong — kernel timelines, executed instructions
//! (Tables I–IV) and system-level counters (Fig 18) for 92 vs 93 channels.
//!
//! ```text
//! cargo run --release --example simulator_deep_dive
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "an example fails fast on a catalog or plan error"
)]

use pruneperf::prelude::*;

fn main() {
    let device = Device::mali_g72_hikey970();
    let profiler = LayerProfiler::new(&device);
    let backend = AclGemm::new();
    let layer = resnet50()
        .layer("ResNet.L16")
        .expect("catalog has L16")
        .clone();

    println!("== Kernel timelines (the paper's OpenCL interceptor view)\n");
    for channels in [92usize, 93, 96, 97] {
        let pruned = layer.with_c_out(channels).expect("valid count");
        let timeline = profiler.timeline(&backend, &pruned);
        println!("--- {channels} output channels");
        print!("{timeline}");
        println!(
            "executed instructions: {} arithmetic, {} memory\n",
            timeline.report().total_arith(),
            timeline.report().total_mem()
        );
    }

    println!("== System-level counters relative to the 93-channel run (Fig 18)\n");
    let base = *profiler
        .timeline(&backend, &layer.with_c_out(93).unwrap())
        .counters();
    println!("channels   jobs  ctrl_wr  ctrl_rd  interrupts");
    for channels in [92usize, 93, 96, 97] {
        let counters = *profiler
            .timeline(&backend, &layer.with_c_out(channels).unwrap())
            .counters();
        let rel = counters.relative_to(&base);
        println!(
            "{channels:>8}  {:>5.2}  {:>7.2}  {:>7.2}  {:>10.2}",
            rel.jobs.unwrap_or(f64::NAN),
            rel.ctrl_reg_writes.unwrap_or(f64::NAN),
            rel.ctrl_reg_reads.unwrap_or(f64::NAN),
            rel.interrupts.unwrap_or(f64::NAN),
        );
    }

    println!("\n== Why it matters\n");
    let t92 = profiler
        .measure(&backend, &layer.with_c_out(92).unwrap())
        .median_ms();
    let t93 = profiler
        .measure(&backend, &layer.with_c_out(93).unwrap())
        .median_ms();
    println!(
        "92 channels: {t92:.2} ms — 93 channels: {t93:.2} ms. Adding a channel makes the \
         layer {:.2}x FASTER, because 92 splits the GEMM into two jobs (80 + 12 columns) \
         while 93 pads to a single 96-column kernel.",
        t92 / t93
    );
}
