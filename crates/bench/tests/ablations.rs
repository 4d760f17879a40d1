//! The five model ablations of DESIGN.md §6, asserted as tests.
//!
//! Each test runs one workload under two configurations of the simulator
//! stack and holds the ratio between them inside a band around the result
//! EXPERIMENTS.md reports. Every band excludes "no effect", so an ablation
//! knob that silently stops doing anything fails here. The paper's
//! grounding: Fig 18 (the split GEMM's extra job), Table V (workgroup
//! shapes), Figs 19–20 (TVM tuning) and §V (performance-aware pruning).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test fails fast; its helpers unwrap like its test bodies"
)]

use pruneperf_backends::{tuning::TuningLog, AclDirect, AclGemm, ConvBackend, Tvm};
use pruneperf_core::{accuracy::AccuracyModel, PerfAwarePruner, UninstructedPruner};
use pruneperf_gpusim::Device;
use pruneperf_models::{resnet50, ConvLayerSpec};
use pruneperf_profiler::LayerProfiler;

/// ResNet-50 layer `label` pruned to `c_out` output channels.
fn layer(label: &str, c_out: usize) -> ConvLayerSpec {
    resnet50()
        .layer(label)
        .expect("catalog layer")
        .with_c_out(c_out)
        .expect("valid pruning")
}

/// L16 at 92 channels: ACL GEMM splits it into a main and a remainder
/// kernel (Fig 14's slow staircase).
fn split_layer() -> ConvLayerSpec {
    layer("ResNet.L16", 92)
}

/// Job dispatch and sync cost about a tenth of the split layer's time:
/// real, but only part of the split penalty (Fig 18).
#[test]
fn job_overhead_costs_the_split_layer_about_ten_percent() {
    let device = Device::mali_g72_hikey970();
    let backend = AclGemm::new();
    let with = backend.latency_ms(&split_layer(), &device);
    let without = backend.latency_ms(&split_layer(), &device.without_job_overhead());
    let ratio = with / without;
    assert!(
        (1.05..=1.15).contains(&ratio),
        "{with:.2} ms with job overhead vs {without:.2} ms without: {ratio:.3}x, expected ~1.10x"
    );
}

/// The ACL workgroup heuristic's `(1,1,8)` shape for an odd channel count
/// against the `(4,1,1)` shape an auto-tuner would grant (Table V).
#[test]
fn workgroup_heuristic_costs_an_odd_layer_about_1_7x() {
    let device = Device::mali_g72_hikey970();
    let backend = AclDirect::new();
    let (odd, tuned) = (layer("ResNet.L14", 401), layer("ResNet.L14", 404));
    assert_eq!(AclDirect::workgroup_for(odd.c_out()), [1, 1, 8]);
    let heuristic = backend.latency_ms(&odd, &device);
    let autotuned = backend.latency_ms(&tuned, &device);
    let ratio = heuristic / autotuned;
    assert!(
        (1.6..=1.9).contains(&ratio),
        "heuristic {heuristic:.2} ms vs auto-tuned {autotuned:.2} ms with 3 more channels: \
         {ratio:.3}x, expected ~1.73x"
    );
}

/// Perfect latency hiding speeds the split layer up by at most 2%, and the
/// split penalty survives it: the penalty is schedule and dispatch, not
/// memory stalls.
#[test]
fn perfect_latency_hiding_barely_moves_the_split_layer() {
    let device = Device::mali_g72_hikey970();
    let perfect = device.with_perfect_latency_hiding();
    let backend = AclGemm::new();
    let normal = backend.latency_ms(&split_layer(), &device);
    let hidden = backend.latency_ms(&split_layer(), &perfect);
    let gain = 1.0 - hidden / normal;
    assert!(
        gain > 0.0 && gain <= 0.02,
        "{normal:.2} ms normal vs {hidden:.2} ms with perfect hiding: {:.2}% faster, expected \
         (0, 2]%",
        gain * 100.0
    );
    let aligned = backend.latency_ms(&layer("ResNet.L16", 96), &perfect);
    assert!(
        hidden > 1.5 * aligned,
        "with perfect hiding, 92 ch takes {hidden:.2} ms and 96 ch {aligned:.2} ms"
    );
}

/// On ResNet-50 under ACL GEMM, pruning every layer by 10% without looking
/// at latency ends up 1.3–1.4x *slower* than not pruning at all, while the
/// performance-aware plan meets its 0.8 latency budget.
#[test]
fn uninstructed_pruning_is_slower_than_none_while_perf_aware_meets_its_budget() {
    let device = Device::mali_g72_hikey970();
    let profiler = LayerProfiler::noiseless(&device);
    let net = resnet50();
    let acc = AccuracyModel::for_network(&net);
    let backend = AclGemm::new();
    let naive = UninstructedPruner::new(&profiler, &acc);
    let unpruned = naive.prune_to_fraction(&backend, &net, 1.0).latency_ms();
    let uninstructed = naive.prune_to_fraction(&backend, &net, 0.9);
    let aware = PerfAwarePruner::new(&profiler, &acc).prune_to_latency(&backend, &net, 0.8);

    assert!(
        (unpruned - 216.55).abs() < 0.01,
        "unpruned ResNet-50 takes {unpruned:.2} ms, expected 216.55 ms"
    );
    let slowdown = uninstructed.latency_ms() / unpruned;
    assert!(
        (1.3..=1.4).contains(&slowdown),
        "uninstructed {:.1} ms vs unpruned {unpruned:.1} ms: {slowdown:.3}x, expected 1.3-1.4x",
        uninstructed.latency_ms()
    );
    assert!(
        aware.latency_ms() <= 0.8 * unpruned,
        "perf-aware {:.1} ms misses the 0.8 budget of {unpruned:.1} ms",
        aware.latency_ms()
    );
}

/// An `autotvm`-style tuning session collapses a Fig 20 spike: ResNet-50
/// L14 at 451 channels runs at least 10x faster with a tuned log.
#[test]
fn tvm_autotune_collapses_the_l14_spike_tenfold() {
    let device = Device::mali_g72_hikey970();
    let spike = layer("ResNet.L14", 451);
    let stock = Tvm::new().latency_ms(&spike, &device);
    let mut log = TuningLog::tophub(device.name());
    log.autotune(&spike, 300);
    let tuned = Tvm::with_log(log).latency_ms(&spike, &device);
    assert!(
        stock >= 10.0 * tuned,
        "L14@451: stock {stock:.1} ms vs autotuned {tuned:.1} ms, expected >= 10x"
    );
}
