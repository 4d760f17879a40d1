//! Convolutional layer catalogs for the three networks the paper profiles.
//!
//! §III-B of Radu et al. (IISWC 2019) characterizes channel pruning on
//! **ResNet-50**, **VGG-16** and **AlexNet**. Only the *unique* convolutional
//! layer shapes are profiled (“where the convolutional layer shape is
//! repeated in the network, it is considered only once”), and layers are
//! referred to by index labels such as `ResNet.L16` that skip non-conv
//! layers (batch norm, pooling, …).
//!
//! The paper never tabulates the label→shape mapping, so this crate
//! reconstructs it from the figure and table evidence (see `DESIGN.md` §2):
//!
//! * `ResNet.L16` is a 3×3 convolution with 128 input channels over a 28×28
//!   feature map producing up to 128 channels — Tables I–IV report its
//!   im2col GEMM as `M = 784`, `K = 1152`.
//! * `ResNet.L14` has 512 filters (Figs 5, 7, 12, 20), `ResNet.L45` has
//!   2048 filters (Fig 15), and `ResNet.L0` is the 7×7 stem.
//! * 23 unique ResNet-50 shapes = stem + 4 (conv2 stage) + 6 × 3 (conv3–5
//!   stages, counting reduce / strided 3×3 / expand / projection /
//!   second-block reduce / second-block 3×3).
//!
//! # Example
//!
//! ```
//! use pruneperf_models::resnet50;
//!
//! let net = resnet50();
//! let l16 = net.layer("ResNet.L16").expect("catalog has L16");
//! assert_eq!((l16.kernel(), l16.c_in(), l16.c_out()), (3, 128, 128));
//! let (m, k, n) = l16.dims().gemm_mkn().expect("valid shape");
//! assert_eq!((m, k, n), (784, 1152, 128)); // exactly Tables I–IV
//! ```

pub mod assembly;
mod catalog;
mod layer;
mod network;
pub mod weights;

pub use catalog::{alexnet, mobilenet_v1, resnet50, vgg16};
pub use layer::ConvLayerSpec;
pub use network::Network;
