use std::fmt;

use pruneperf_tensor::conv::Conv2dParams;
use pruneperf_tensor::flops::ConvDims;
use pruneperf_tensor::TensorError;
use serde::{Deserialize, Serialize};

/// One convolutional layer of a profiled network.
///
/// Carries everything the backends and the pruner need: the paper label
/// (`"ResNet.L16"`), geometry, and the *current* channel count, which
/// channel pruning shrinks. Batch size is fixed at 1 — the paper measures
/// single-image inference latency.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvLayerSpec {
    label: String,
    kernel: usize,
    stride: usize,
    pad: usize,
    c_in: usize,
    c_out: usize,
    h_in: usize,
    w_in: usize,
    #[serde(default = "default_groups")]
    groups: usize,
}

fn default_groups() -> usize {
    1
}

impl ConvLayerSpec {
    /// Creates a layer spec.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero — catalog entries are static data and a
    /// malformed one is a programming error.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        label: impl Into<String>,
        kernel: usize,
        stride: usize,
        pad: usize,
        c_in: usize,
        c_out: usize,
        h_in: usize,
        w_in: usize,
    ) -> Self {
        assert!(
            kernel > 0 && stride > 0 && c_in > 0 && c_out > 0 && h_in > 0 && w_in > 0,
            "layer extents must be non-zero"
        );
        assert!(
            h_in + 2 * pad >= kernel && w_in + 2 * pad >= kernel,
            "kernel must fit the padded input"
        );
        ConvLayerSpec {
            label: label.into(),
            kernel,
            stride,
            pad,
            c_in,
            c_out,
            h_in,
            w_in,
            groups: 1,
        }
    }

    /// Creates a grouped convolution layer; `groups == c_in == c_out` is
    /// the depthwise case used by MobileNet-style networks.
    ///
    /// # Panics
    ///
    /// Panics if `groups` does not divide both channel counts.
    #[allow(clippy::too_many_arguments)]
    pub fn new_grouped(
        label: impl Into<String>,
        kernel: usize,
        stride: usize,
        pad: usize,
        c_in: usize,
        c_out: usize,
        h_in: usize,
        w_in: usize,
        groups: usize,
    ) -> Self {
        assert!(
            groups > 0 && c_in.is_multiple_of(groups) && c_out.is_multiple_of(groups),
            "groups must divide both channel counts"
        );
        let mut s = Self::new(label, kernel, stride, pad, c_in, c_out, h_in, w_in);
        s.groups = groups;
        s
    }

    /// Convolution groups (1 = dense; `c_in` = depthwise).
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// `true` when every output channel reads exactly one input channel.
    pub fn is_depthwise(&self) -> bool {
        self.groups > 1 && self.groups == self.c_in && self.c_in == self.c_out
    }

    /// Kernel taps each output element reads (`k² · c_in / groups`).
    pub fn taps(&self) -> usize {
        self.kernel * self.kernel * self.c_in / self.groups
    }

    /// Paper label, e.g. `"ResNet.L16"`.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Square kernel extent (1, 3, 5, 7 or 11 in the catalogs).
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Convolution stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Symmetric zero padding.
    pub fn pad(&self) -> usize {
        self.pad
    }

    /// Input channel count.
    pub fn c_in(&self) -> usize {
        self.c_in
    }

    /// Output channel count (the quantity channel pruning reduces).
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// Input feature-map height.
    pub fn h_in(&self) -> usize {
        self.h_in
    }

    /// Input feature-map width.
    pub fn w_in(&self) -> usize {
        self.w_in
    }

    /// Stride/pad as convolution parameters.
    pub fn params(&self) -> Conv2dParams {
        Conv2dParams::new(self.stride, self.pad)
    }

    /// Output spatial extents.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the padded input; catalog entries
    /// are validated at construction so this cannot happen for shipped data.
    #[expect(
        clippy::expect_used,
        reason = "`new` asserts the kernel fits the padded input"
    )]
    pub fn out_hw(&self) -> (usize, usize) {
        self.dims()
            .out_hw()
            .expect("catalog layer geometry is valid")
    }

    /// Work-accounting dimensions (batch 1).
    pub fn dims(&self) -> ConvDims {
        ConvDims {
            batch: 1,
            h_in: self.h_in,
            w_in: self.w_in,
            c_in: self.c_in,
            c_out: self.c_out,
            kh: self.kernel,
            kw: self.kernel,
            groups: self.groups,
            params: self.params(),
        }
    }

    /// Multiply–accumulate count of the layer.
    #[expect(
        clippy::expect_used,
        reason = "`new` asserts the kernel fits the padded input"
    )]
    pub fn macs(&self) -> u64 {
        self.dims().macs().expect("catalog layer geometry is valid")
    }

    /// The same layer with a different output channel count — the §II-B
    /// pruning transform at the descriptor level.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ChannelOutOfRange`] when `c_out` is zero or
    /// exceeds the unpruned channel count (pruning never grows a layer).
    pub fn with_c_out(&self, c_out: usize) -> Result<Self, TensorError> {
        if c_out == 0 || c_out > self.c_out {
            return Err(TensorError::ChannelOutOfRange {
                index: c_out,
                channels: self.c_out,
            });
        }
        let mut s = self.clone();
        if self.is_depthwise() {
            // Depthwise channels are 1:1 with input channels: pruning the
            // layer means its input (the preceding pointwise layer) shrank.
            s.c_in = c_out;
            s.groups = c_out;
        } else if self.groups > 1 && !c_out.is_multiple_of(self.groups) {
            return Err(TensorError::ChannelOutOfRange {
                index: c_out,
                channels: self.c_out,
            });
        }
        s.c_out = c_out;
        Ok(s)
    }

    /// The layer after pruning `distance` channels (the paper's `Prune=p`
    /// columns in Figs 1, 6, 8–11, 13, 16, 17, 19).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ChannelOutOfRange`] when the distance would
    /// remove every channel.
    pub fn pruned_by(&self, distance: usize) -> Result<Self, TensorError> {
        if distance >= self.c_out {
            return Err(TensorError::ChannelOutOfRange {
                index: distance,
                channels: self.c_out,
            });
        }
        self.with_c_out(self.c_out - distance)
    }
}

impl fmt::Display for ConvLayerSpec {
    /// Renders e.g. `ResNet.L16: 3x3 s1 p1 128->128 @28x28`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}x{} s{} p{} {}->{} @{}x{}",
            self.label,
            self.kernel,
            self.kernel,
            self.stride,
            self.pad,
            self.c_in,
            self.c_out,
            self.h_in,
            self.w_in
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l16() -> ConvLayerSpec {
        ConvLayerSpec::new("ResNet.L16", 3, 1, 1, 128, 128, 28, 28)
    }

    #[test]
    fn accessors_round_trip() {
        let l = l16();
        assert_eq!(l.label(), "ResNet.L16");
        assert_eq!(l.kernel(), 3);
        assert_eq!(l.stride(), 1);
        assert_eq!(l.pad(), 1);
        assert_eq!((l.c_in(), l.c_out()), (128, 128));
        assert_eq!((l.h_in(), l.w_in()), (28, 28));
        assert_eq!(l.out_hw(), (28, 28));
    }

    #[test]
    fn with_c_out_prunes_only() {
        let l = l16();
        assert_eq!(l.with_c_out(96).unwrap().c_out(), 96);
        assert!(l.with_c_out(0).is_err());
        assert!(l.with_c_out(129).is_err());
        assert_eq!(l.with_c_out(128).unwrap(), l);
    }

    #[test]
    fn pruned_by_distance() {
        let l = l16();
        assert_eq!(l.pruned_by(31).unwrap().c_out(), 97);
        assert!(l.pruned_by(128).is_err());
        assert_eq!(l.pruned_by(0).unwrap(), l);
    }

    #[test]
    fn macs_match_flop_accounting() {
        // 28*28*128*3*3*128
        assert_eq!(l16().macs(), 28 * 28 * 128 * 9 * 128);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(l16().to_string(), "ResNet.L16: 3x3 s1 p1 128->128 @28x28");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_extent_panics() {
        let _ = ConvLayerSpec::new("bad", 3, 1, 1, 0, 4, 8, 8);
    }

    #[test]
    fn serde_round_trip() {
        let l = l16();
        let json = serde_json::to_string(&l).unwrap();
        let back: ConvLayerSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(l, back);
    }
}
