//! Random weight-matrix generators matching the paper's experiments.
//!
//! Section IV uses two schemes:
//!
//! * **bit-sparse** — every bit of every element is an independent
//!   Bernoulli draw with `P(1) = 1 - bit_sparsity` ("encourages bits to be
//!   spread out");
//! * **element-sparse** — element values are uniform over the representable
//!   range, then a random subset of positions is forced to zero to hit a
//!   target element sparsity ("encourages bits to gather in individual
//!   elements").
//!
//! Section VI's large-scale experiments use the element-sparse scheme with
//! signed 8-bit weights.

use crate::error::{Error, Result};
use crate::matrix::{signed_range, IntMatrix};
use rand::seq::SliceRandom;
use rand::Rng;

fn check_prob(value: f64) -> Result<f64> {
    if (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(Error::InvalidProbability { value })
    }
}

/// Generates an unsigned matrix whose individual *bits* are i.i.d.
/// Bernoulli with `P(bit = 1) = 1 - bit_sparsity` (the Figure 5 workload).
pub fn bit_sparse_matrix(
    rows: usize,
    cols: usize,
    bits: u32,
    bit_sparsity: f64,
    rng: &mut impl Rng,
) -> Result<IntMatrix> {
    if bits == 0 || bits > 31 {
        return Err(Error::InvalidBitWidth { bits });
    }
    let p_one = 1.0 - check_prob(bit_sparsity)?;
    let mut m = IntMatrix::zeros(rows, cols)?;
    for v in m.as_mut_slice() {
        let mut value = 0i32;
        for b in 0..bits {
            if rng.gen_bool(p_one) {
                value |= 1 << b;
            }
        }
        *v = value;
    }
    Ok(m)
}

/// Generates an element-sparse matrix with a target fraction of zero
/// elements and the non-zero values uniform over the `bits`-wide range.
///
/// `signed` selects the signed two's-complement range (Section VI) versus
/// the unsigned range (Section IV). Exactly
/// `round(element_sparsity * rows * cols)` positions are zero; non-zero
/// values are drawn uniformly from the range *excluding zero* so the target
/// sparsity is exact. (The paper samples including zero and then zeroes
/// positions, so its realized sparsity is only approximately the target;
/// excluding zero changes each element's bit distribution negligibly at the
/// widths used — see DESIGN.md.)
pub fn element_sparse_matrix(
    rows: usize,
    cols: usize,
    bits: u32,
    element_sparsity: f64,
    signed: bool,
    rng: &mut impl Rng,
) -> Result<IntMatrix> {
    check_prob(element_sparsity)?;
    let (lo, hi) = if signed {
        signed_range(bits)?
    } else {
        crate::matrix::unsigned_range(bits)?
    };
    let mut m = IntMatrix::zeros(rows, cols)?;
    let n = m.len();
    let zeros = (element_sparsity * n as f64).round() as usize;
    let nonzeros = n - zeros;

    // Choose which positions stay non-zero via a partial shuffle.
    let mut positions: Vec<usize> = (0..n).collect();
    positions.shuffle(rng);
    let data = m.as_mut_slice();
    for &pos in positions.iter().take(nonzeros) {
        let mut v = 0;
        while v == 0 {
            v = rng.gen_range(lo..=hi);
        }
        data[pos] = v;
    }
    Ok(m)
}

/// Generates a dense uniform matrix over the full `bits`-wide range
/// (zero included) — the Figure 7/8 "random integers" workload.
pub fn uniform_matrix(
    rows: usize,
    cols: usize,
    bits: u32,
    signed: bool,
    rng: &mut impl Rng,
) -> Result<IntMatrix> {
    let (lo, hi) = if signed {
        signed_range(bits)?
    } else {
        crate::matrix::unsigned_range(bits)?
    };
    let mut m = IntMatrix::zeros(rows, cols)?;
    for v in m.as_mut_slice() {
        *v = rng.gen_range(lo..=hi);
    }
    Ok(m)
}

/// Generates a random dense input vector in the `bits`-wide range.
pub fn random_vector(len: usize, bits: u32, signed: bool, rng: &mut impl Rng) -> Result<Vec<i32>> {
    let (lo, hi) = if signed {
        signed_range(bits)?
    } else {
        crate::matrix::unsigned_range(bits)?
    };
    Ok((0..len).map(|_| rng.gen_range(lo..=hi)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use crate::sparsity::{bit_sparsity_of, element_sparsity_of};

    #[test]
    fn bit_sparse_hits_target_statistically() {
        let mut rng = seeded(1);
        let m = bit_sparse_matrix(64, 64, 8, 0.8, &mut rng).unwrap();
        let bs = bit_sparsity_of(&m, 8).unwrap();
        assert!((bs - 0.8).abs() < 0.02, "measured {bs}");
        assert!(m.as_slice().iter().all(|&v| (0..1 << 8).contains(&v)));
    }

    #[test]
    fn bit_sparse_extremes() {
        let mut rng = seeded(2);
        let all_ones = bit_sparse_matrix(8, 8, 4, 0.0, &mut rng).unwrap();
        assert!(all_ones.as_slice().iter().all(|&v| v == 15));
        let all_zero = bit_sparse_matrix(8, 8, 4, 1.0, &mut rng).unwrap();
        assert_eq!(all_zero.nnz(), 0);
    }

    #[test]
    fn element_sparse_exact_sparsity() {
        let mut rng = seeded(3);
        let m = element_sparse_matrix(50, 40, 8, 0.75, true, &mut rng).unwrap();
        assert_eq!(element_sparsity_of(&m), 0.75);
        assert!(m.fits_signed(8).unwrap());
        // Non-zero entries really are non-zero.
        assert_eq!(m.nnz(), 500);
    }

    #[test]
    fn element_sparse_unsigned_range() {
        let mut rng = seeded(4);
        let m = element_sparse_matrix(16, 16, 4, 0.5, false, &mut rng).unwrap();
        assert!(m.as_slice().iter().all(|&v| (0..1 << 4).contains(&v)));
        assert!(m.as_slice().iter().all(|&v| v >= 0));
    }

    #[test]
    fn element_sparse_dense_is_half_bit_sparse() {
        // Dense uniform values are ~50% bit sparse (paper, Section IV).
        let mut rng = seeded(5);
        let m = element_sparse_matrix(64, 64, 8, 0.0, false, &mut rng).unwrap();
        let bs = bit_sparsity_of(&m, 8).unwrap();
        assert!((bs - 0.5).abs() < 0.02, "measured {bs}");
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut rng = seeded(6);
        assert!(bit_sparse_matrix(4, 4, 0, 0.5, &mut rng).is_err());
        assert!(bit_sparse_matrix(4, 4, 8, 1.5, &mut rng).is_err());
        assert!(element_sparse_matrix(4, 4, 8, -0.1, true, &mut rng).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = element_sparse_matrix(32, 32, 8, 0.9, true, &mut seeded(7)).unwrap();
        let b = element_sparse_matrix(32, 32, 8, 0.9, true, &mut seeded(7)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn uniform_matrix_in_range() {
        let mut rng = seeded(8);
        let m = uniform_matrix(32, 32, 3, true, &mut rng).unwrap();
        assert!(m.fits_signed(3).unwrap());
        let u = uniform_matrix(32, 32, 3, false, &mut rng).unwrap();
        assert!(u.as_slice().iter().all(|&v| (0..1 << 3).contains(&v)));
    }

    #[test]
    fn random_vector_in_range() {
        let mut rng = seeded(9);
        let v = random_vector(100, 8, true, &mut rng).unwrap();
        assert_eq!(v.len(), 100);
        assert!(v.iter().all(|&x| (-128..=127).contains(&x)));
    }
}
