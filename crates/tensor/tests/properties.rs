//! Property-based cross-validation of the convolution algorithms and the
//! channel-pruning transforms.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test fails fast; its helpers unwrap like its test bodies"
)]

use proptest::prelude::*;
use pruneperf_tensor::conv::{direct, im2col_gemm, winograd, Conv2dParams};
use pruneperf_tensor::prune;
use pruneperf_tensor::Tensor;

/// Deterministic tensor with values in [-1, 1).
fn tensor_strategy(shape: [usize; 4]) -> impl Strategy<Value = Tensor> {
    let len = shape.iter().product::<usize>();
    proptest::collection::vec(-1.0f32..1.0f32, len)
        .prop_map(move |v| Tensor::from_vec(shape, v).expect("length matches"))
}

/// A small convolution problem: shapes kept tiny so direct conv stays fast.
#[derive(Debug, Clone)]
struct Problem {
    input: Tensor,
    weights: Tensor,
    params: Conv2dParams,
}

fn problem_strategy() -> impl Strategy<Value = Problem> {
    (
        1usize..=2,                              // batch
        3usize..=9,                              // h
        3usize..=9,                              // w
        1usize..=4,                              // c_in
        1usize..=6,                              // c_out
        prop_oneof![Just(1usize), Just(3usize)], // square kernel
        1usize..=2,                              // stride
        0usize..=1,                              // pad
    )
        .prop_filter(
            "kernel must fit padded input",
            |(_, h, w, _, _, k, _, pad)| *k <= h + 2 * pad && *k <= w + 2 * pad,
        )
        .prop_flat_map(|(n, h, w, ci, co, k, stride, pad)| {
            (
                tensor_strategy([n, h, w, ci]),
                tensor_strategy([co, k, k, ci]),
                Just(Conv2dParams::new(stride, pad)),
            )
                .prop_map(|(input, weights, params)| Problem {
                    input,
                    weights,
                    params,
                })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// im2col+GEMM computes exactly the same convolution as the direct loop.
    #[test]
    fn im2col_gemm_matches_direct(p in problem_strategy()) {
        let a = direct::conv2d(&p.input, &p.weights, p.params).unwrap();
        let b = im2col_gemm::conv2d(&p.input, &p.weights, p.params).unwrap();
        prop_assert!(a.all_close(&b, 1e-4), "max diff {:?}", a.max_abs_diff(&b));
    }

    /// Winograd F(2x2,3x3) matches direct for every supported configuration.
    #[test]
    fn winograd_matches_direct(p in problem_strategy()) {
        let [_, kh, _, _] = p.weights.shape().dims();
        prop_assume!(kh == 3 && p.params.stride() == 1);
        let a = direct::conv2d(&p.input, &p.weights, p.params).unwrap();
        let b = winograd::conv2d(&p.input, &p.weights, p.params).unwrap();
        prop_assert!(a.all_close(&b, 1e-3), "max diff {:?}", a.max_abs_diff(&b));
    }

    /// §II-B: pruning filter p of the weights == dropping channel p of the
    /// full convolution's output — for every victim channel.
    #[test]
    fn pruning_commutes_with_convolution(p in problem_strategy()) {
        let [c_out, ..] = p.weights.shape().dims();
        prop_assume!(c_out >= 2);
        let full = direct::conv2d(&p.input, &p.weights, p.params).unwrap();
        for victim in 0..c_out {
            let pruned_w = prune::prune_output_channel(&p.weights, victim).unwrap();
            let got = direct::conv2d(&p.input, &pruned_w, p.params).unwrap();
            let expect = prune::drop_activation_channel(&full, victim).unwrap();
            prop_assert!(got.all_close(&expect, 0.0), "victim {victim}");
        }
    }

    /// Sequential pruning to a target count equals repeated last-channel removal.
    #[test]
    fn prune_to_count_is_repeated_removal(p in problem_strategy(), keep_frac in 0.2f64..1.0) {
        let [c_out, ..] = p.weights.shape().dims();
        prop_assume!(c_out >= 2);
        let keep = ((c_out as f64 * keep_frac).ceil() as usize).clamp(1, c_out);
        let direct_prune = prune::prune_output_channels_to(&p.weights, keep).unwrap();
        let mut iterative = p.weights.clone();
        while iterative.shape().dims()[0] > keep {
            let last = iterative.shape().dims()[0] - 1;
            iterative = prune::prune_output_channel(&iterative, last).unwrap();
        }
        prop_assert_eq!(direct_prune, iterative);
    }

    /// Output linearity: conv(a*x) == a*conv(x) for scalar a (exercises all
    /// index arithmetic without a second algorithm).
    #[test]
    fn convolution_is_homogeneous(p in problem_strategy(), scale in -2.0f32..2.0) {
        let base = direct::conv2d(&p.input, &p.weights, p.params).unwrap();
        let scaled_in = Tensor::from_vec(
            p.input.shape(),
            p.input.as_slice().iter().map(|v| v * scale).collect(),
        ).unwrap();
        let scaled_out = direct::conv2d(&scaled_in, &p.weights, p.params).unwrap();
        let expect = Tensor::from_vec(
            base.shape(),
            base.as_slice().iter().map(|v| v * scale).collect(),
        ).unwrap();
        prop_assert!(scaled_out.all_close(&expect, 1e-3));
    }
}
