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
    pub(crate) cols: usize,
    /// Stored non-zeros.
    pub nnz: usize,
    /// Fraction of zero elements.
    pub element_sparsity: f64,
}

impl SparsityProfile {
    /// Profiles a CSR matrix.
    pub fn of(csr: &Csr) -> Self {
        Self::from_row_lens(csr.cols(), csr.body().row_counts().collect())
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
        Self {
            rows,
            cols,
            nnz,
            element_sparsity: 1.0 - nnz as f64 / (rows * cols) as f64,
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
        assert!((p.element_sparsity - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_profile() {
        let d = IntMatrix::zeros(4, 4).unwrap();
        let p = SparsityProfile::of(&Csr::from_dense(&d));
        assert_eq!(p.nnz, 0);
        assert_eq!(p.element_sparsity, 1.0);
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
