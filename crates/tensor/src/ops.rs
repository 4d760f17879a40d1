//! Non-convolutional layers: pooling, ReLU and fully-connected.
//!
//! §II-A of the paper: “Although important, these affine transformations
//! account for very little in the total inference time of modern neural
//! networks, with most of the computational load being executed in the
//! convolutional layer.” These reference implementations let the models
//! crate assemble *complete* networks and verify that claim numerically.

use crate::{Tensor, TensorError};

/// Element-wise rectified linear unit.
#[expect(clippy::expect_used, reason = "maps an existing tensor element-wise")]
pub fn relu(t: &Tensor) -> Tensor {
    Tensor::from_vec(t.shape(), t.as_slice().iter().map(|v| v.max(0.0)).collect())
        .expect("same shape, same length")
}

/// 2-D max pooling with a square window and stride (no padding).
///
/// # Errors
///
/// Returns [`TensorError::WindowTooLarge`] if the window does not fit, and
/// [`TensorError::ZeroStride`] for a zero stride.
pub fn max_pool2d(t: &Tensor, window: usize, stride: usize) -> Result<Tensor, TensorError> {
    pool2d(
        t,
        window,
        stride,
        f32::NEG_INFINITY,
        |acc, v| acc.max(v),
        |acc, _| acc,
    )
}

/// 2-D average pooling with a square window and stride (no padding).
///
/// # Errors
///
/// Returns [`TensorError::WindowTooLarge`] if the window does not fit, and
/// [`TensorError::ZeroStride`] for a zero stride.
pub fn avg_pool2d(t: &Tensor, window: usize, stride: usize) -> Result<Tensor, TensorError> {
    pool2d(
        t,
        window,
        stride,
        0.0,
        |acc, v| acc + v,
        |acc, n| acc / n as f32,
    )
}

fn pool2d(
    t: &Tensor,
    window: usize,
    stride: usize,
    init: f32,
    fold: impl Fn(f32, f32) -> f32,
    finish: impl Fn(f32, usize) -> f32,
) -> Result<Tensor, TensorError> {
    if stride == 0 {
        return Err(TensorError::ZeroStride);
    }
    let [n, h, w, c] = t.shape().dims();
    if window == 0 || window > h || window > w {
        return Err(TensorError::WindowTooLarge {
            padded: h.min(w),
            kernel: window,
        });
    }
    let out_h = (h - window) / stride + 1;
    let out_w = (w - window) / stride + 1;
    let mut out = Tensor::zeros([n, out_h, out_w, c]);
    for b in 0..n {
        for oy in 0..out_h {
            for ox in 0..out_w {
                for ch in 0..c {
                    let mut acc = init;
                    for ky in 0..window {
                        for kx in 0..window {
                            acc = fold(acc, t.at(b, oy * stride + ky, ox * stride + kx, ch));
                        }
                    }
                    out.set(b, oy, ox, ch, finish(acc, window * window));
                }
            }
        }
    }
    Ok(out)
}

/// Global average pooling: NHWC → `[n, 1, 1, c]`.
pub fn global_avg_pool(t: &Tensor) -> Tensor {
    let [n, h, w, c] = t.shape().dims();
    let mut out = Tensor::zeros([n, 1, 1, c]);
    let denom = (h * w) as f32;
    for b in 0..n {
        for ch in 0..c {
            let mut acc = 0.0;
            for y in 0..h {
                for x in 0..w {
                    acc += t.at(b, y, x, ch);
                }
            }
            out.set(b, 0, 0, ch, acc / denom);
        }
    }
    out
}

/// Fully-connected layer: flattens each batch entry and multiplies by a
/// `[out_features, in_features]`-shaped weight tensor (stored as OHWI with
/// `kh = kw = 1`).
///
/// # Errors
///
/// Returns [`TensorError::ChannelMismatch`] if the flattened input length
/// differs from the weights' input features.
pub fn fully_connected(t: &Tensor, weights: &Tensor) -> Result<Tensor, TensorError> {
    let [n, h, w, c] = t.shape().dims();
    let [out_f, kh, kw, in_f] = weights.shape().dims();
    let flat = h * w * c;
    if kh != 1 || kw != 1 {
        return Err(TensorError::UnsupportedKernel {
            reason: "fully-connected weights must be stored as [out, 1, 1, in]",
        });
    }
    if in_f != flat {
        return Err(TensorError::ChannelMismatch {
            input: flat,
            weights: in_f,
        });
    }
    let mut out = Tensor::zeros([n, 1, 1, out_f]);
    let x = t.as_slice();
    let wts = weights.as_slice();
    for b in 0..n {
        for o in 0..out_f {
            let mut acc = 0.0;
            for i in 0..flat {
                acc += x[b * flat + i] * wts[o * flat + i];
            }
            out.set(b, 0, 0, o, acc);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let t = Tensor::from_vec([1, 1, 2, 2], vec![-1.0, 2.0, -0.5, 0.0]).unwrap();
        assert_eq!(relu(&t).as_slice(), &[0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn max_pool_picks_window_maximum() {
        // [1 2; 3 4] -> 2x2 window -> 4
        let t = Tensor::from_fn([1, 2, 2, 1], |i| i as f32 + 1.0);
        let p = max_pool2d(&t, 2, 2).unwrap();
        assert_eq!(p.shape().dims(), [1, 1, 1, 1]);
        assert_eq!(p.as_slice(), &[4.0]);
    }

    #[test]
    fn max_pool_stride_and_channels() {
        let t = Tensor::from_fn([1, 4, 4, 2], |i| i as f32);
        let p = max_pool2d(&t, 2, 2).unwrap();
        assert_eq!(p.shape().dims(), [1, 2, 2, 2]);
        // Top-left window covers pixels (0,0),(0,1),(1,0),(1,1); channel 0
        // values 0,2,8,10 -> 10.
        assert_eq!(p.at(0, 0, 0, 0), 10.0);
        assert_eq!(p.at(0, 0, 0, 1), 11.0);
    }

    #[test]
    fn avg_pool_averages() {
        let t = Tensor::from_fn([1, 2, 2, 1], |i| i as f32 + 1.0);
        let p = avg_pool2d(&t, 2, 2).unwrap();
        assert_eq!(p.as_slice(), &[2.5]);
    }

    #[test]
    fn pooling_validates_window_and_stride() {
        let t = Tensor::zeros([1, 2, 2, 1]);
        assert!(matches!(
            max_pool2d(&t, 3, 1),
            Err(TensorError::WindowTooLarge { .. })
        ));
        assert!(matches!(max_pool2d(&t, 2, 0), Err(TensorError::ZeroStride)));
        assert!(matches!(
            max_pool2d(&t, 0, 1),
            Err(TensorError::WindowTooLarge { .. })
        ));
    }

    #[test]
    fn global_avg_pool_reduces_spatial() {
        let t = Tensor::from_fn([1, 2, 2, 2], |i| i as f32);
        let g = global_avg_pool(&t);
        assert_eq!(g.shape().dims(), [1, 1, 1, 2]);
        // channel 0: values 0,2,4,6 -> 3; channel 1: 1,3,5,7 -> 4.
        assert_eq!(g.as_slice(), &[3.0, 4.0]);
    }

    #[test]
    fn fully_connected_computes_dot_products() {
        let x = Tensor::from_vec([1, 1, 1, 3], vec![1.0, 2.0, 3.0]).unwrap();
        let w = Tensor::from_vec([2, 1, 1, 3], vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]).unwrap();
        let y = fully_connected(&x, &w).unwrap();
        assert_eq!(y.as_slice(), &[1.0, 6.0]);
    }

    #[test]
    fn fully_connected_validates_shapes() {
        let x = Tensor::zeros([1, 2, 2, 3]); // flat = 12
        let w = Tensor::zeros([2, 1, 1, 10]);
        assert!(matches!(
            fully_connected(&x, &w),
            Err(TensorError::ChannelMismatch {
                input: 12,
                weights: 10
            })
        ));
        let w = Tensor::zeros([2, 3, 3, 12]);
        assert!(matches!(
            fully_connected(&x, &w),
            Err(TensorError::UnsupportedKernel { .. })
        ));
    }

    #[test]
    fn fully_connected_batches_independently() {
        let x = Tensor::from_vec([2, 1, 1, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let w = Tensor::from_vec([1, 1, 1, 2], vec![1.0, 1.0]).unwrap();
        let y = fully_connected(&x, &w).unwrap();
        assert_eq!(y.as_slice(), &[3.0, 7.0]);
    }
}
