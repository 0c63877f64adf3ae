//! Sparsity accounting: set-bit counts, element sparsity, bit sparsity.
//!
//! The paper distinguishes two notions (Section IV):
//!
//! * **element sparsity** — fraction of matrix *elements* equal to zero;
//! * **bit sparsity** — fraction of *bits* equal to zero out of
//!   `rows * cols * bit_width` total bits.
//!
//! The hardware cost of the spatial multiplier is governed by the number of
//! *set bits* ("ones"), making bit sparsity the fundamental quantity; element
//! sparsity is the conventional metric the baselines (cuSPARSE, SIGMA)
//! respond to. Figure 6 of the paper converts one to the other to show the
//! architecture is indifferent to how set bits cluster into elements.

use crate::error::{Error, Result};
use crate::matrix::IntMatrix;

/// Number of set bits in `value` when encoded as a `bits`-wide unsigned
/// integer. Returns an error if `value` is negative or does not fit.
pub(crate) fn ones_in_value(value: i32, bits: u32) -> Result<u32> {
    if bits == 0 || bits > 31 {
        return Err(Error::InvalidBitWidth { bits });
    }
    if value < 0 || (bits < 31 && value > ((1i32 << bits) - 1)) {
        return Err(Error::ValueOutOfRange {
            value,
            bits,
            signed: false,
        });
    }
    Ok(value.count_ones())
}

/// Total set bits across an unsigned matrix at the given bit width.
///
/// This is the paper's "number of ones" — the quantity FPGA LUT cost tracks
/// linearly (Figures 5 and 10).
pub(crate) fn ones_in_matrix(matrix: &IntMatrix, bits: u32) -> Result<u64> {
    let mut total = 0u64;
    for (_, _, v) in matrix.iter() {
        total += u64::from(ones_in_value(v, bits)?);
    }
    Ok(total)
}

/// Total set bits of a *signed* matrix counted through its magnitude
/// (the bits that survive a positive/negative split).
pub fn ones_in_signed_matrix(matrix: &IntMatrix) -> u64 {
    matrix
        .iter()
        .map(|(_, _, v)| u64::from((i64::from(v)).unsigned_abs().count_ones()))
        .sum()
}

/// Element sparsity: fraction of elements equal to zero.
pub fn element_sparsity_of(matrix: &IntMatrix) -> f64 {
    let zeros = matrix.len() - matrix.nnz();
    zeros as f64 / matrix.len() as f64
}

/// Bit sparsity: fraction of zero bits out of `len * bits` total bits.
pub fn bit_sparsity_of(matrix: &IntMatrix, bits: u32) -> Result<f64> {
    let ones = ones_in_matrix(matrix, bits)?;
    let total = (matrix.len() as u64) * u64::from(bits);
    Ok(1.0 - ones as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ones_in_value_counts() {
        assert_eq!(ones_in_value(0b1011, 4).unwrap(), 3);
        assert_eq!(ones_in_value(0, 8).unwrap(), 0);
        assert_eq!(ones_in_value(255, 8).unwrap(), 8);
        assert!(ones_in_value(-1, 8).is_err());
        assert!(ones_in_value(256, 8).is_err());
        assert!(ones_in_value(1, 0).is_err());
    }

    #[test]
    fn matrix_ones_and_sparsities() {
        // 2x2 at 4 bits: values 0, 1, 3, 15 -> ones = 0+1+2+4 = 7.
        let m = IntMatrix::from_vec(2, 2, vec![0, 1, 3, 15]).unwrap();
        assert_eq!(ones_in_matrix(&m, 4).unwrap(), 7);
        assert_eq!(element_sparsity_of(&m), 0.25);
        let bs = bit_sparsity_of(&m, 4).unwrap();
        assert!((bs - (1.0 - 7.0 / 16.0)).abs() < 1e-12);
    }

    #[test]
    fn signed_ones_counts_magnitude() {
        let m = IntMatrix::from_vec(1, 3, vec![-3, 3, 0]).unwrap();
        // |−3| and |3| each have 2 set bits.
        assert_eq!(ones_in_signed_matrix(&m), 4);
    }
}
