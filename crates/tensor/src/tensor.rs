use crate::{Shape4, TensorError};

/// A dense, row-major, four-dimensional `f32` tensor.
///
/// Activations use NHWC layout, weights use OHWI; see [`Shape4`] for the
/// axis conventions. The type is intentionally small: it is the substrate
/// that the convolution algorithms and the channel-pruning transforms are
/// verified against, not a general-purpose array library.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape4,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLengthMismatch`] if `data.len()` differs
    /// from the shape's element count, and [`TensorError::EmptyDimension`]
    /// if any axis is zero.
    pub fn from_vec(shape: impl Into<Shape4>, data: Vec<f32>) -> Result<Self, TensorError> {
        let shape = shape.into();
        if shape.has_zero_dim() {
            return Err(TensorError::EmptyDimension { shape });
        }
        if data.len() != shape.len() {
            return Err(TensorError::DataLengthMismatch {
                shape,
                len: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a zero-filled tensor.
    ///
    /// # Panics
    ///
    /// Panics if any axis extent is zero.
    pub fn zeros(shape: impl Into<Shape4>) -> Self {
        let shape = shape.into();
        assert!(
            !shape.has_zero_dim(),
            "Tensor::zeros requires non-empty shape, got {shape}"
        );
        Tensor {
            shape,
            data: vec![0.0; shape.len()],
        }
    }

    /// Creates a tensor whose element at linear index `i` is `f(i)`.
    ///
    /// Handy for deterministic test fixtures:
    ///
    /// ```
    /// use pruneperf_tensor::Tensor;
    /// let t = Tensor::from_fn([1, 2, 2, 1], |i| i as f32);
    /// assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if any axis extent is zero.
    pub fn from_fn(shape: impl Into<Shape4>, f: impl FnMut(usize) -> f32) -> Self {
        let shape = shape.into();
        assert!(
            !shape.has_zero_dim(),
            "Tensor::from_fn requires non-empty shape, got {shape}"
        );
        let data = (0..shape.len()).map(f).collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    /// Borrow the backing storage as a flat slice (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the backing storage as a flat slice (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its backing storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at `(i0, i1, i2, i3)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if an index is out of bounds.
    #[inline]
    pub fn at(&self, i0: usize, i1: usize, i2: usize, i3: usize) -> f32 {
        self.data[self.shape.offset(i0, i1, i2, i3)]
    }

    /// Sets the element at `(i0, i1, i2, i3)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if an index is out of bounds.
    #[inline]
    pub fn set(&mut self, i0: usize, i1: usize, i2: usize, i3: usize, value: f32) {
        let off = self.shape.offset(i0, i1, i2, i3);
        self.data[off] = value;
    }

    /// Maximum absolute element-wise difference to another tensor.
    ///
    /// Returns `None` when the shapes differ (the comparison is undefined).
    pub fn max_abs_diff(&self, other: &Tensor) -> Option<f32> {
        if self.shape != other.shape {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max),
        )
    }

    /// `true` when every element differs from `other` by at most `tol`.
    ///
    /// Shapes must match for the tensors to be considered close.
    pub fn all_close(&self, other: &Tensor, tol: f32) -> bool {
        self.max_abs_diff(other).is_some_and(|d| d <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        let err = Tensor::from_vec([1, 2, 2, 1], vec![1.0; 3]).unwrap_err();
        assert!(matches!(
            err,
            TensorError::DataLengthMismatch { len: 3, .. }
        ));
        assert!(Tensor::from_vec([1, 2, 2, 1], vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_vec_rejects_empty_dims() {
        let err = Tensor::from_vec([1, 0, 2, 1], vec![]).unwrap_err();
        assert!(matches!(err, TensorError::EmptyDimension { .. }));
    }

    #[test]
    #[should_panic(expected = "non-empty shape")]
    fn zeros_panics_on_zero_dim() {
        let _ = Tensor::zeros([1, 0, 1, 1]);
    }

    #[test]
    fn indexing_round_trips() {
        let mut t = Tensor::zeros([2, 3, 4, 5]);
        t.set(1, 2, 3, 4, 42.0);
        assert_eq!(t.at(1, 2, 3, 4), 42.0);
        assert_eq!(t.at(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn max_abs_diff_detects_divergence() {
        let a = Tensor::from_fn([1, 2, 2, 1], |i| i as f32);
        let mut b = a.clone();
        assert_eq!(a.max_abs_diff(&b), Some(0.0));
        b.set(0, 1, 1, 0, 10.0);
        assert_eq!(a.max_abs_diff(&b), Some(7.0));
    }

    #[test]
    fn max_abs_diff_none_on_shape_mismatch() {
        let a = Tensor::zeros([1, 2, 2, 1]);
        let b = Tensor::zeros([1, 2, 2, 2]);
        assert_eq!(a.max_abs_diff(&b), None);
        assert!(!a.all_close(&b, 1.0));
    }

    #[test]
    fn all_close_respects_tolerance() {
        let a = Tensor::from_fn([1, 1, 1, 2], |_| 1.0);
        let b = Tensor::from_fn([1, 1, 1, 2], |_| 1.0005);
        assert!(a.all_close(&b, 1e-3));
        assert!(!a.all_close(&b, 1e-4));
    }

    #[test]
    fn into_vec_returns_storage() {
        let t = Tensor::from_fn([1, 1, 2, 2], |i| i as f32);
        assert_eq!(t.into_vec(), vec![0.0, 1.0, 2.0, 3.0]);
    }
}
