#![allow(clippy::needless_range_loop)] // index loops mirror the math notation
//! Minimal dense linear algebra on `Vec<f64>`.

use maxson_testkit::rng::Rng;

/// A row-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Row-major data, `rows * cols` long.
    pub data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Xavier-style uniform initialization in `[-s, s]` with
    /// `s = sqrt(6 / (rows + cols))`.
    pub fn xavier(rows: usize, cols: usize, rng: &mut Rng) -> Self {
        let s = (6.0 / (rows + cols) as f64).sqrt();
        Matrix {
            rows,
            cols,
            data: (0..rows * cols).map(|_| rng.gen_range(-s..s)).collect(),
        }
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The transpose, `cols x rows`.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        t
    }

    /// `y = W x` (matrix-vector product).
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        debug_assert_eq!(x.len(), self.cols);
        let mut y = vec![0.0; self.rows];
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            y[r] = dot(row, x);
        }
        y
    }

    /// Accumulate the outer product `self += scale * a b^T`.
    pub fn add_outer(&mut self, a: &[f64], b: &[f64], scale: f64) {
        debug_assert_eq!(a.len(), self.rows);
        debug_assert_eq!(b.len(), self.cols);
        for r in 0..self.rows {
            let base = r * self.cols;
            let ar = a[r] * scale;
            for c in 0..self.cols {
                self.data[base + c] += ar * b[c];
            }
        }
    }

    /// `y = W^T x` (transposed matrix-vector product).
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        debug_assert_eq!(x.len(), self.rows);
        let mut y = vec![0.0; self.cols];
        for r in 0..self.rows {
            let base = r * self.cols;
            let xr = x[r];
            for c in 0..self.cols {
                y[c] += self.data[base + c] * xr;
            }
        }
        y
    }

    /// In-place SGD step: `self -= lr * grad`, with gradient clipping at
    /// `clip` per element.
    pub fn sgd_step(&mut self, grad: &Matrix, lr: f64, clip: f64) {
        for (w, g) in self.data.iter_mut().zip(&grad.data) {
            *w -= lr * g.clamp(-clip, clip);
        }
    }
}

/// Dot product.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Numerically-stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Hyperbolic tangent (re-exported for symmetry with [`sigmoid`]).
#[inline]
pub fn tanh(x: f64) -> f64 {
    x.tanh()
}

/// In-place vector SGD step with clipping.
pub fn sgd_step_vec(w: &mut [f64], grad: &[f64], lr: f64, clip: f64) {
    for (wi, gi) in w.iter_mut().zip(grad) {
        *wi -= lr * gi.clamp(-clip, clip);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_and_transpose() {
        let mut w = Matrix::zeros(2, 3);
        // [[1,2,3],[4,5,6]]
        for (i, v) in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0].iter().enumerate() {
            w.data[i] = *v;
        }
        assert_eq!(w.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        assert_eq!(w.matvec_t(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
        assert_eq!(w.get(1, 2), 6.0);
    }

    #[test]
    fn outer_product_accumulates() {
        let mut w = Matrix::zeros(2, 2);
        w.add_outer(&[1.0, 2.0], &[3.0, 4.0], 0.5);
        assert_eq!(w.data, vec![1.5, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn sigmoid_stability() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!(sigmoid(-1000.0) < 1e-10);
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = Rng::seed_from_u64(0);
        let w = Matrix::xavier(10, 10, &mut rng);
        let s = (6.0 / 20.0f64).sqrt();
        assert!(w.data.iter().all(|v| v.abs() <= s));
        assert!(w.data.iter().any(|v| *v != 0.0));
    }

    #[test]
    fn sgd_clips() {
        let mut w = Matrix::zeros(1, 1);
        let mut g = Matrix::zeros(1, 1);
        g.data[0] = 100.0;
        w.sgd_step(&g, 0.1, 1.0);
        assert!((w.data[0] + 0.1).abs() < 1e-12);
    }
}
