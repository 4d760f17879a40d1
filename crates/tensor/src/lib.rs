//! Reference tensor and convolution kernels for `pruneperf`.
//!
//! This crate is the *numerical ground truth* of the reproduction of
//! Radu et al., “Performance Aware Convolutional Neural Network Channel
//! Pruning for Embedded GPUs” (IISWC 2019). It provides:
//!
//! * a minimal NHWC [`Tensor`] type with shape-checked construction,
//! * the two dominant convolution routines the paper discusses in §II-A —
//!   **direct convolution** ([`conv::direct`]) and **im2col + GEMM**
//!   ([`conv::im2col_gemm`]) — plus a Winograd `F(2×2, 3×3)` variant
//!   ([`conv::winograd`]) used by the cuDNN backend model,
//! * exact floating-point-operation accounting ([`flops`]) that the GPU
//!   simulator's instruction-mix models are validated against,
//! * weight-level channel pruning ([`prune`]) implementing the §II-B
//!   sequential-removal/re-indexing semantics on real tensors.
//!
//! All algorithms are deliberately straightforward, exhaustively tested
//! against each other, and deterministic.
//!
//! # Example
//!
//! ```
//! use pruneperf_tensor::{Tensor, conv::{Conv2dParams, direct, im2col_gemm}};
//!
//! # fn main() -> Result<(), pruneperf_tensor::TensorError> {
//! let input = Tensor::from_fn([1, 8, 8, 3], |i| i as f32 * 0.01);
//! let weights = Tensor::from_fn([4, 3, 3, 3], |i| (i % 7) as f32 * 0.1);
//! let params = Conv2dParams::new(1, 1); // stride 1, pad 1
//! let a = direct::conv2d(&input, &weights, params)?;
//! let b = im2col_gemm::conv2d(&input, &weights, params)?;
//! assert_eq!(a.shape(), b.shape());
//! # Ok(())
//! # }
//! ```

mod error;
mod shape;
mod tensor;

pub mod conv;
pub mod flops;
pub mod layout;
pub mod ops;
pub mod prune;

pub use error::TensorError;
pub use shape::Shape4;
pub use tensor::Tensor;
