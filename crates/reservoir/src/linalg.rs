//! Minimal dense f64 linear algebra: just enough for echo-state networks —
//! matrix/vector products, power iteration for spectral radius, Cholesky
//! factorization, and ridge regression. No external dependency, per the
//! reproduction brief.

use std::fmt;

/// A dense row-major f64 matrix.
#[derive(Clone, PartialEq)]
pub struct MatF64 {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl MatF64 {
    /// A matrix of zeros.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// By evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    pub(crate) fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    pub(crate) fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Raw row-major data.
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// `self · x`.
    pub(crate) fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        (0..self.rows)
            .map(|r| self.row(r).iter().zip(x).map(|(&a, &b)| a * b).sum())
            .collect()
    }

    /// `self · other`.
    pub(crate) fn matmul(&self, other: &MatF64) -> MatF64 {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = MatF64::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == 0.0 {
                    continue;
                }
                for c in 0..other.cols {
                    out.data[r * other.cols + c] += a * other.get(k, c);
                }
            }
        }
        out
    }

    /// The transpose.
    pub(crate) fn transpose(&self) -> MatF64 {
        MatF64::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Gram matrix `selfᵀ · self` (symmetric, size `cols × cols`).
    #[allow(clippy::needless_range_loop)] // triangular index arithmetic
    pub(crate) fn gram(&self) -> MatF64 {
        let mut g = MatF64::zeros(self.cols, self.cols);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..self.cols {
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                for j in i..self.cols {
                    g.data[i * self.cols + j] += ri * row[j];
                }
            }
        }
        // Mirror the upper triangle.
        for i in 0..self.cols {
            for j in 0..i {
                g.data[i * self.cols + j] = g.data[j * self.cols + i];
            }
        }
        g
    }

    /// Estimates the spectral radius (largest eigenvalue magnitude) by
    /// power iteration on a square matrix.
    pub(crate) fn spectral_radius(&self, iterations: usize, seed: u64) -> f64 {
        assert_eq!(self.rows, self.cols, "spectral radius needs square");
        // Deterministic pseudo-random start vector to avoid orthogonal
        // degeneracy; xorshift is plenty here.
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        let mut x: Vec<f64> = (0..self.rows)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s as f64 / u64::MAX as f64) - 0.5
            })
            .collect();
        // Random non-symmetric matrices often have a *complex* dominant
        // eigenpair, so the per-step norm ratio oscillates; the geometric
        // mean of the growth over the later iterations converges to |λ₁|.
        let mut log_growth = 0.0;
        let mut samples = 0usize;
        let burn_in = iterations / 2;
        for it in 0..iterations {
            let y = self.matvec(&x);
            let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm < 1e-300 {
                return 0.0;
            }
            if it >= burn_in {
                log_growth += norm.ln();
                samples += 1;
            }
            x = y.iter().map(|v| v / norm).collect();
        }
        if samples == 0 {
            return 0.0;
        }
        (log_growth / samples as f64).exp()
    }
}

impl fmt::Debug for MatF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MatF64 {}x{}", self.rows, self.cols)
    }
}

/// Cholesky factorization of a symmetric positive-definite matrix:
/// returns lower-triangular `L` with `L·Lᵀ = A`, or `None` if `A` is not
/// positive definite.
pub(crate) fn cholesky(a: &MatF64) -> Option<MatF64> {
    assert_eq!(a.rows(), a.cols(), "cholesky needs square");
    let n = a.rows();
    let mut l = MatF64::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a.get(i, j);
            for k in 0..j {
                sum -= l.get(i, k) * l.get(j, k);
            }
            if i == j {
                if sum <= 0.0 {
                    return None;
                }
                l.set(i, j, sum.sqrt());
            } else {
                l.set(i, j, sum / l.get(j, j));
            }
        }
    }
    Some(l)
}

/// Solves `A·x = b` given the Cholesky factor `L` of `A` (forward then
/// backward substitution).
#[allow(clippy::needless_range_loop)] // triangular index arithmetic
pub(crate) fn cholesky_solve(l: &MatF64, b: &[f64]) -> Vec<f64> {
    let n = l.rows();
    assert_eq!(b.len(), n, "rhs length mismatch");
    // Forward: L·y = b.
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l.get(i, k) * y[k];
        }
        y[i] = sum / l.get(i, i);
    }
    // Backward: Lᵀ·x = y.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in i + 1..n {
            sum -= l.get(k, i) * x[k];
        }
        x[i] = sum / l.get(i, i);
    }
    x
}

/// Ridge regression: finds `W` (features × targets) minimizing
/// `‖X·W − Y‖² + λ‖W‖²`, via the normal equations and Cholesky.
///
/// `x` is samples × features, `y` is samples × targets.
pub(crate) fn ridge_regression(x: &MatF64, y: &MatF64, lambda: f64) -> MatF64 {
    assert_eq!(x.rows(), y.rows(), "sample count mismatch");
    assert!(lambda >= 0.0, "lambda must be non-negative");
    let mut gram = x.gram();
    let n = gram.rows();
    for i in 0..n {
        let v = gram.get(i, i) + lambda;
        gram.set(i, i, v);
    }
    // With λ > 0 the system is PD; with λ = 0 fall back to a tiny jitter.
    let l = cholesky(&gram).unwrap_or_else(|| {
        let mut g = gram.clone();
        for i in 0..n {
            g.set(i, i, g.get(i, i) + 1e-8);
        }
        cholesky(&g).expect("jittered gram must be positive definite")
    });
    let xty = x.transpose().matmul(y); // features × targets
    let mut w = MatF64::zeros(x.cols(), y.cols());
    for t in 0..y.cols() {
        let col: Vec<f64> = (0..x.cols()).map(|f| xty.get(f, t)).collect();
        let sol = cholesky_solve(&l, &col);
        for (f, &v) in sol.iter().enumerate() {
            w.set(f, t, v);
        }
    }
    w
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A matrix from row-major data.
    pub(crate) fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> MatF64 {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        MatF64 { rows, cols, data }
    }

    #[test]
    fn matvec_and_transpose() {
        let m = from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        let t = m.transpose();
        assert_eq!(t.matvec(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
        assert_eq!(t.get(2, 1), 6.0);
    }

    #[test]
    fn matmul_identity() {
        let m = from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let id = MatF64::from_fn(2, 2, |r, c| f64::from(u8::from(r == c)));
        assert_eq!(m.matmul(&id), m);
    }

    #[test]
    fn gram_is_xtx() {
        let x = from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = x.gram();
        let g2 = x.transpose().matmul(&x);
        for i in 0..2 {
            for j in 0..2 {
                assert!((g.get(i, j) - g2.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cholesky_round_trip() {
        // A = LLᵀ for a known SPD matrix.
        let a = from_vec(3, 3, vec![4.0, 2.0, 2.0, 2.0, 5.0, 1.0, 2.0, 1.0, 6.0]);
        let l = cholesky(&a).unwrap();
        let rec = l.matmul(&l.transpose());
        for i in 0..3 {
            for j in 0..3 {
                assert!((rec.get(i, j) - a.get(i, j)).abs() < 1e-12);
            }
        }
        // Solve A x = b and verify.
        let b = [1.0, 2.0, 3.0];
        let x = cholesky_solve(&l, &b);
        let back = a.matvec(&x);
        for (got, want) in back.iter().zip(&b) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        assert!(cholesky(&a).is_none());
    }

    #[test]
    fn ridge_recovers_exact_linear_map() {
        // y = X w with more samples than features: λ→0 recovers w.
        let x = MatF64::from_fn(20, 3, |r, c| ((r * 7 + c * 13) % 11) as f64 - 5.0);
        let w_true = from_vec(3, 1, vec![2.0, -1.0, 0.5]);
        let y = x.matmul(&w_true);
        let w = ridge_regression(&x, &y, 1e-10);
        for i in 0..3 {
            assert!((w.get(i, 0) - w_true.get(i, 0)).abs() < 1e-6, "{i}");
        }
    }

    #[test]
    fn ridge_shrinks_with_lambda() {
        let x = MatF64::from_fn(30, 2, |r, c| ((r * 3 + c) % 7) as f64 - 3.0);
        let w_true = from_vec(2, 1, vec![1.0, 1.0]);
        let y = x.matmul(&w_true);
        let w_small = ridge_regression(&x, &y, 1e-8);
        let w_big = ridge_regression(&x, &y, 1e4);
        let norm = |w: &MatF64| w.as_slice().iter().map(|v| v * v).sum::<f64>();
        assert!(norm(&w_big) < norm(&w_small));
    }

    #[test]
    fn spectral_radius_of_diagonal() {
        let m = MatF64::from_fn(4, 4, |r, c| if r == c { (r as f64) - 2.5 } else { 0.0 });
        // Eigenvalues -2.5, -1.5, -0.5, 0.5: radius 2.5.
        let sr = m.spectral_radius(200, 3);
        assert!((sr - 2.5).abs() < 1e-6, "sr {sr}");
    }

    #[test]
    fn spectral_radius_of_zero_matrix() {
        let m = MatF64::zeros(3, 3);
        assert_eq!(m.spectral_radius(10, 1), 0.0);
    }
}
