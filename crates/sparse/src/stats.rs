//! Sparse-structure statistics consumed by the baseline performance models.

use crate::csr::Csr;
use smm_core::matrix::IntMatrix;

/// Shape/statistics summary of a sparse matrix, the inputs to the GPU and
/// SIGMA latency models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparsityProfile {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Stored non-zeros.
    pub nnz: usize,
    /// Fraction of zero elements.
    pub element_sparsity: f64,
    /// Mean non-zeros per row.
    pub mean_row_len: f64,
    /// Longest row (load-imbalance driver).
    pub max_row_len: usize,
    /// Coefficient of variation of row lengths (0 = perfectly balanced).
    pub row_len_cv: f64,
}

impl SparsityProfile {
    /// Profiles a CSR matrix.
    pub fn of(csr: &Csr) -> Self {
        let lens = csr.row_ptr().windows(2).map(|span| span[1] - span[0]);
        Self::from_row_lens(csr.cols(), lens.collect())
    }

    /// Profiles a dense matrix: the profile [`SparsityProfile::of`] gives
    /// its CSR, from one counting pass and without building the CSR.
    pub fn of_dense(dense: &IntMatrix) -> Self {
        let lens = dense
            .as_slice()
            .chunks_exact(dense.cols())
            .map(|row| row.iter().filter(|&&v| v != 0).count());
        Self::from_row_lens(dense.cols(), lens.collect())
    }

    fn from_row_lens(cols: usize, lens: Vec<usize>) -> Self {
        let rows = lens.len();
        let nnz: usize = lens.iter().sum();
        let mean = nnz as f64 / rows as f64;
        let var = lens
            .iter()
            .map(|&l| {
                let d = l as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / rows as f64;
        let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
        Self {
            rows,
            cols,
            nnz,
            element_sparsity: 1.0 - nnz as f64 / (rows * cols) as f64,
            mean_row_len: mean,
            max_row_len: lens.into_iter().max().unwrap_or(0),
            row_len_cv: cv,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smm_core::generate::element_sparse_matrix;
    use smm_core::rng::seeded;

    #[test]
    fn profile_small() {
        let d = IntMatrix::from_vec(2, 4, vec![1, 2, 3, 4, 0, 0, 0, 5]).unwrap();
        let p = SparsityProfile::of(&Csr::from_dense(&d));
        assert_eq!(p.nnz, 5);
        assert_eq!(p.max_row_len, 4);
        assert!((p.element_sparsity - 3.0 / 8.0).abs() < 1e-12);
        assert!((p.mean_row_len - 2.5).abs() < 1e-12);
        assert!(p.row_len_cv > 0.0);
    }

    #[test]
    fn uniform_rows_have_low_cv() {
        let mut rng = seeded(51);
        let d = element_sparse_matrix(64, 64, 8, 0.9, true, &mut rng).unwrap();
        let p = SparsityProfile::of(&Csr::from_dense(&d));
        assert_eq!(p.nnz, d.nnz());
        assert!(p.row_len_cv < 1.5);
    }

    #[test]
    fn empty_matrix_profile() {
        let d = IntMatrix::zeros(4, 4).unwrap();
        let p = SparsityProfile::of(&Csr::from_dense(&d));
        assert_eq!(p.nnz, 0);
        assert_eq!(p.element_sparsity, 1.0);
        assert_eq!(p.row_len_cv, 0.0);
        assert_eq!(SparsityProfile::of_dense(&d), p);
    }

    proptest! {
        /// The dense profile is the CSR profile, field for field, from
        /// the all-zero matrix (and so empty rows) to the full one.
        #[test]
        fn dense_profile_is_the_csr_profile(
            seed in any::<u64>(),
            rows in 1usize..24,
            cols in 1usize..24,
            sparsity in 0.0f64..=1.0,
        ) {
            let mut rng = seeded(seed);
            let d = element_sparse_matrix(rows, cols, 8, sparsity, true, &mut rng).unwrap();
            prop_assert_eq!(SparsityProfile::of_dense(&d), SparsityProfile::of(&Csr::from_dense(&d)));
        }
    }
}
