//! Cross-crate integration: real tensors → catalogs → planners → simulator
//! → profiler → pruner, exercised together.

use pruneperf::models::weights;
use pruneperf::prelude::*;
use pruneperf::tensor::conv::{direct, im2col_gemm};
use pruneperf::tensor::prune;

/// Weight-level pruning, descriptor-level pruning and the latency model all
/// agree on what “92 channels” means.
#[test]
fn weight_descriptor_and_latency_views_are_consistent() {
    let layer = resnet50().layer("ResNet.L16").unwrap().clone();
    let pruned_spec = layer.with_c_out(92).unwrap();

    // Weight tensor side.
    let w = weights::synthetic_weights(&layer);
    let w_pruned = prune::prune_output_channels_to(&w, 92).unwrap();
    assert_eq!(w_pruned.shape().dims()[0], pruned_spec.c_out());

    // The pruned weights convolve to the pruned spec's output shape.
    let x = weights::synthetic_input(&layer);
    let y = direct::conv2d(&x, &w_pruned, layer.params()).unwrap();
    let (oh, ow) = pruned_spec.out_hw();
    assert_eq!(y.shape().dims(), [1, oh, ow, 92]);

    // The planner plans for exactly that channel count (split at 92).
    let device = Device::mali_g72_hikey970();
    let plan = AclGemm::new().plan(&pruned_spec, &device);
    assert_eq!(plan.kernels_named("gemm_mm").count(), 2);
}

/// The two convolution algorithms agree on a real catalog layer (scaled
/// down spatially to keep the test fast), so the FLOP accounting the
/// simulator consumes matches executable arithmetic.
#[test]
fn catalog_layer_convolves_identically_on_both_algorithms() {
    let layer = ConvLayerSpec::new("IT.L16", 3, 1, 1, 32, 24, 14, 14);
    let x = weights::synthetic_input(&layer);
    let w = weights::synthetic_weights(&layer);
    let a = direct::conv2d(&x, &w, layer.params()).unwrap();
    let b = im2col_gemm::conv2d(&x, &w, layer.params()).unwrap();
    assert!(a.all_close(&b, 1e-3));
    // MAC accounting matches the tensor dimensions end to end.
    assert_eq!(layer.macs(), 14 * 14 * 24 * 3 * 3 * 32,);
}

/// Full pipeline: profile → staircase → pruning plan, on every device.
#[test]
fn pruning_pipeline_runs_on_all_devices() {
    let network = vgg16();
    let accuracy = AccuracyModel::for_network(&network);
    for device in Device::all_paper_devices() {
        let profiler = LayerProfiler::noiseless(&device);
        let backend: Box<dyn pruneperf::backends::ConvBackend> = if device.is_cuda() {
            Box::new(Cudnn::new())
        } else {
            Box::new(AclGemm::new())
        };
        let pruner = PerfAwarePruner::new(&profiler, &accuracy);
        let plan = pruner.prune_to_latency(backend.as_ref(), &network, 0.9);
        assert!(plan.latency_ms() > 0.0, "{}", device.name());
        assert!(plan.accuracy() > 0.5, "{}", device.name());
        assert_eq!(plan.keeps().len(), network.len(), "every layer planned");
        for ((label, kept), layer) in plan.keeps().zip(network.layers()) {
            assert_eq!(label, layer.label());
            assert!(kept >= 1 && kept <= layer.c_out());
        }
    }
}

/// Profiler timelines expose exactly the kernels the plans contain, with a
/// contiguous, ordered timeline.
#[test]
fn timelines_match_plans() {
    let device = Device::jetson_tx2();
    let profiler = LayerProfiler::new(&device);
    let backend = Cudnn::new();
    for layer in alexnet().layers() {
        let plan = backend.plan(layer, &device);
        let timeline = profiler.timeline(&backend, layer);
        assert_eq!(
            plan.chain().len(),
            timeline.kernels().len(),
            "{}",
            layer.label()
        );
        let mut prev_end = 0.0;
        for k in timeline.kernels() {
            assert!(k.start_us >= prev_end - 1e-9);
            assert!(k.end_us > k.start_us);
            prev_end = k.end_us;
        }
    }
}

/// Everything downstream of the simulator is deterministic run to run.
#[test]
fn full_stack_determinism() {
    let device = Device::mali_g72_hikey970();
    let layer = resnet50().layer("ResNet.L16").unwrap().clone();
    let run = || {
        let profiler = LayerProfiler::new(&device);
        let curve = profiler.latency_curve(&AclGemm::new(), &layer, 60..=128);
        let staircase = Staircase::detect(&curve);
        (
            curve.series(),
            staircase
                .optimal_points()
                .iter()
                .map(|p| p.channels)
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

/// Serde round trips for the analysis artifacts users would persist.
#[test]
fn analysis_artifacts_serialize() {
    let device = Device::jetson_nano();
    let profiler = LayerProfiler::new(&device);
    let layer = alexnet().layer("AlexNet.L6").unwrap().clone();
    let curve = profiler.latency_curve(&Cudnn::new(), &layer, 300..=384);
    // JSON float printing can lose the last ULP, so require a *stable fixed
    // point*: re-serializing the parsed value reproduces the same document.
    let json = serde_json::to_string(&curve).unwrap();
    let back: LatencyCurve = serde_json::from_str(&json).unwrap();
    assert_eq!(json, serde_json::to_string(&back).unwrap());
    assert_eq!(curve.points().len(), back.points().len());

    let staircase = Staircase::detect(&curve);
    let json = serde_json::to_string(&staircase).unwrap();
    let back: Staircase = serde_json::from_str(&json).unwrap();
    assert_eq!(json, serde_json::to_string(&back).unwrap());
    assert_eq!(staircase.steps().len(), back.steps().len());
}
