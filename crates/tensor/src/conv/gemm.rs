//! Blocked single-precision general matrix multiplication.
//!
//! The GEMM underlying [`super::im2col_gemm`]. Row-major, cache-blocked,
//! no unsafe; small enough to audit, fast enough for the test workloads.

/// A row-major matrix view used by [`gemm`].
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} != {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row-major backing storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Consumes the matrix and returns its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }
}

/// Cache-block edge used by [`gemm`]; 64×64 f32 tiles fit comfortably in L1.
const BLOCK: usize = 64;

/// Computes `C = A × B` with simple cache blocking.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn gemm(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "inner dimensions differ: {}x{} * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    for i0 in (0..m).step_by(BLOCK) {
        let i_end = (i0 + BLOCK).min(m);
        for k0 in (0..k).step_by(BLOCK) {
            let k_end = (k0 + BLOCK).min(k);
            for j0 in (0..n).step_by(BLOCK) {
                let j_end = (j0 + BLOCK).min(n);
                for i in i0..i_end {
                    for kk in k0..k_end {
                        let aik = a.at(i, kk);
                        if aik == 0.0 {
                            continue;
                        }
                        for j in j0..j_end {
                            let v = c.at(i, j) + aik * b.at(kk, j);
                            c.set(i, j, v);
                        }
                    }
                }
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(gemm(&a, &i), a);
        assert_eq!(gemm(&i, &a), a);
    }

    #[test]
    fn known_product() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        assert_eq!(gemm(&a, &b).as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn rectangular_shapes() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(3, 2, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        let c = gemm(&a, &b);
        assert_eq!(c.rows(), 1);
        assert_eq!(c.cols(), 2);
        assert_eq!(c.as_slice(), &[14.0, 32.0]);
    }

    /// Blocking must not change results: compare a size crossing BLOCK
    /// boundaries against a naive triple loop.
    #[test]
    fn blocked_matches_naive_across_block_edge() {
        let m = BLOCK + 7;
        let k = BLOCK + 3;
        let n = BLOCK + 5;
        let a = Matrix::from_vec(m, k, (0..m * k).map(|i| ((i % 13) as f32) - 6.0).collect());
        let b = Matrix::from_vec(k, n, (0..k * n).map(|i| ((i % 11) as f32) - 5.0).collect());
        let c = gemm(&a, &b);
        // Naive reference.
        for i in (0..m).step_by(17) {
            for j in (0..n).step_by(19) {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.at(i, kk) * b.at(kk, j);
                }
                assert_eq!(c.at(i, j), acc, "mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = gemm(&a, &b);
    }

    #[test]
    #[should_panic(expected = "matrix data length")]
    fn from_vec_validates_length() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }
}
