//! Coordinate-list (COO) sparse matrix format.

use smm_core::matrix::IntMatrix;

/// A sparse matrix as `(row, col, value)` triples.
///
/// The construction entry point for sparse data; convert to [`crate::csr::Csr`]
/// for kernels. Duplicate coordinates are rejected at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coo {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, i32)>,
}

impl Coo {
    /// Extracts the non-zero entries of a dense matrix.
    pub fn from_dense(dense: &IntMatrix) -> Self {
        Self {
            rows: dense.rows(),
            cols: dense.cols(),
            entries: dense.iter_nonzero().collect(),
        }
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub(crate) fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The entries, sorted row-major.
    pub(crate) fn entries(&self) -> &[(usize, usize, i32)] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_dense() {
        let d = IntMatrix::from_vec(2, 3, vec![0, 5, 0, -2, 0, 7]).unwrap();
        let coo = Coo::from_dense(&d);
        assert_eq!(coo.nnz(), 3);
        assert_eq!(coo.entries(), &[(0, 1, 5), (1, 0, -2), (1, 2, 7)]);
        assert_eq!((coo.rows(), coo.cols()), (2, 3));
    }

    #[test]
    fn empty_matrix_ok() {
        let coo = Coo::from_dense(&IntMatrix::zeros(3, 3).unwrap());
        assert_eq!(coo.nnz(), 0);
        assert_eq!((coo.rows(), coo.cols()), (3, 3));
    }
}
