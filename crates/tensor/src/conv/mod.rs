//! Convolution algorithms.
//!
//! Three interchangeable implementations of 2-D convolution over NHWC
//! activations and OHWI weights:
//!
//! * [`direct`] — the deep-nested-loop formulation (§II-A of the paper):
//!   minimal extra memory, slow in practice, sometimes the only option on
//!   memory-constrained devices.
//! * [`im2col_gemm`] — unroll input patches into a matrix and multiply
//!   (`image2col`, §II-A): the dominant approach because it leans on
//!   optimized GEMM routines.
//! * [`winograd`] — `F(2×2, 3×3)` Winograd for stride-1 3×3 kernels, the
//!   third algorithm cuDNN's selector chooses between,
//! * [`grouped`] — grouped/depthwise convolution for MobileNet-style
//!   architectures (an extension beyond the paper's three networks).
//!
//! All three produce bit-comparable results within floating-point tolerance
//! and are cross-validated by unit and property tests.

pub mod direct;
pub mod gemm;
pub mod grouped;
pub mod im2col_gemm;
pub mod winograd;

use crate::{Shape4, Tensor, TensorError};

/// Stride and (symmetric zero-)padding of a 2-D convolution.
///
/// Kernel extent is carried by the weight tensor (OHWI), so parameters are
/// just the two scalars that the paper's layer catalogs vary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dParams {
    stride: usize,
    pad: usize,
}

impl Conv2dParams {
    /// Creates parameters with the given stride and padding.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero; use [`Conv2dParams::try_new`] to handle
    /// that case gracefully.
    #[expect(
        clippy::expect_used,
        reason = "the zero-stride panic is documented above"
    )]
    pub fn new(stride: usize, pad: usize) -> Self {
        Self::try_new(stride, pad).expect("stride must be at least 1")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ZeroStride`] if `stride == 0`.
    pub fn try_new(stride: usize, pad: usize) -> Result<Self, TensorError> {
        if stride == 0 {
            return Err(TensorError::ZeroStride);
        }
        Ok(Conv2dParams { stride, pad })
    }

    /// Convolution stride (same in both spatial dimensions).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding added on every spatial border.
    pub fn pad(&self) -> usize {
        self.pad
    }

    /// Output extent along one spatial axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::WindowTooLarge`] if the kernel does not fit
    /// the padded input even once.
    pub fn out_extent(&self, input: usize, kernel: usize) -> Result<usize, TensorError> {
        let padded = input + 2 * self.pad;
        if kernel > padded {
            return Err(TensorError::WindowTooLarge { padded, kernel });
        }
        Ok((padded - kernel) / self.stride + 1)
    }
}

impl Default for Conv2dParams {
    /// Stride 1, no padding.
    fn default() -> Self {
        Conv2dParams { stride: 1, pad: 0 }
    }
}

/// Validates an (input, weights) pair and computes the output shape.
///
/// Shared by every convolution algorithm so they agree on error behaviour.
///
/// # Errors
///
/// * [`TensorError::ChannelMismatch`] — input `C` differs from weights `I`.
/// * [`TensorError::WindowTooLarge`] — kernel exceeds the padded input.
pub fn output_shape(
    input: &Tensor,
    weights: &Tensor,
    params: Conv2dParams,
) -> Result<Shape4, TensorError> {
    let [n, h, w, c_in] = input.shape().dims();
    let [c_out, kh, kw, c_in_w] = weights.shape().dims();
    if c_in != c_in_w {
        return Err(TensorError::ChannelMismatch {
            input: c_in,
            weights: c_in_w,
        });
    }
    let out_h = params.out_extent(h, kh)?;
    let out_w = params.out_extent(w, kw)?;
    Ok(Shape4::new(n, out_h, out_w, c_out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_extent_matches_formula() {
        let p = Conv2dParams::new(1, 1);
        assert_eq!(p.out_extent(28, 3).unwrap(), 28);
        let p = Conv2dParams::new(2, 3);
        assert_eq!(p.out_extent(224, 7).unwrap(), 112);
        let p = Conv2dParams::new(4, 2);
        assert_eq!(p.out_extent(224, 11).unwrap(), 55);
    }

    #[test]
    fn out_extent_rejects_oversized_kernel() {
        let p = Conv2dParams::default();
        assert!(matches!(
            p.out_extent(2, 3),
            Err(TensorError::WindowTooLarge {
                padded: 2,
                kernel: 3
            })
        ));
        // Padding can make it fit.
        assert_eq!(Conv2dParams::new(1, 1).out_extent(2, 3).unwrap(), 2);
    }

    #[test]
    fn zero_stride_is_rejected() {
        assert!(matches!(
            Conv2dParams::try_new(0, 0),
            Err(TensorError::ZeroStride)
        ));
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn new_panics_on_zero_stride() {
        let _ = Conv2dParams::new(0, 0);
    }

    #[test]
    fn output_shape_checks_channels() {
        let input = Tensor::zeros([1, 8, 8, 3]);
        let weights = Tensor::zeros([4, 3, 3, 5]);
        assert!(matches!(
            output_shape(&input, &weights, Conv2dParams::new(1, 1)),
            Err(TensorError::ChannelMismatch {
                input: 3,
                weights: 5
            })
        ));
    }

    #[test]
    fn output_shape_happy_path() {
        let input = Tensor::zeros([2, 28, 28, 128]);
        let weights = Tensor::zeros([96, 3, 3, 128]);
        let s = output_shape(&input, &weights, Conv2dParams::new(1, 1)).unwrap();
        assert_eq!(s.dims(), [2, 28, 28, 96]);
    }
}
