//! Property tests for the sparse formats and kernels.

use proptest::prelude::*;
use smm_core::generate::{element_sparse_matrix, random_vector};
use smm_core::gemv::vecmat;
use smm_core::matrix::IntMatrix;
use smm_core::rng::seeded;
use smm_core::wire::{Cursor, MatrixBody};
use smm_sparse::{Coo, Csr, SparsityProfile};

/// Values planted by [`body_pins`]: `i32`'s ends and both sides of every
/// width boundary of a matrix body (0 plants nothing).
const EDGES: [i32; 11] = [0, i32::MIN, i32::MAX, 127, -128, 128, -129, 32767, -32768, 32768, -32769];

/// What the fleet computes from a matrix's body, held to what the dense
/// matrix gives: the digest of the body as written and as read off the
/// wire (or the disk) equals [`IntMatrix::digest`], and the CSR built
/// from the body equals [`Csr::from_dense`], derived fields included.
fn body_pins(m: &IntMatrix) {
    let written = MatrixBody::of(m);
    let mut c = Cursor::new(written.as_bytes());
    let read = c.take_matrix_body().unwrap();
    c.expect_end("matrix body").unwrap();
    assert_eq!(written.digest(), m.digest());
    assert_eq!(read.digest(), m.digest());
    assert_eq!(Csr::from_body(&read), Csr::from_dense(m));
    assert_eq!(read.to_matrix().unwrap(), m.clone());
}

proptest! {
    /// Dense -> COO -> CSR -> dense round-trips exactly.
    #[test]
    fn format_round_trip(seed in any::<u64>(), sparsity in 0.0f64..1.0,
                         rows in 1usize..24, cols in 1usize..24) {
        let mut rng = seeded(seed);
        let m = element_sparse_matrix(rows, cols, 8, sparsity, true, &mut rng).unwrap();
        let csr = Csr::from_coo(&Coo::from_dense(&m));
        prop_assert_eq!(csr.to_dense().unwrap(), m.clone());
    }

    /// CSR kernels match the dense reference on both orientations.
    #[test]
    fn kernels_match_reference(seed in any::<u64>(), sparsity in 0.0f64..1.0) {
        let mut rng = seeded(seed);
        let m = element_sparse_matrix(17, 23, 8, sparsity, true, &mut rng).unwrap();
        let csr = Csr::from_dense(&m);
        let a = random_vector(17, 8, true, &mut rng).unwrap();
        prop_assert_eq!(csr.vecmat(&a).unwrap(), vecmat(&a, &m).unwrap());
    }

    /// The profile's invariants: nnz consistent, sparsity in [0,1].
    #[test]
    fn profile_invariants(seed in any::<u64>(), sparsity in 0.0f64..1.0) {
        let mut rng = seeded(seed);
        let m = element_sparse_matrix(20, 20, 8, sparsity, true, &mut rng).unwrap();
        let p = SparsityProfile::of(&Csr::from_dense(&m));
        prop_assert_eq!(p.nnz, m.nnz());
        prop_assert!((0.0..=1.0).contains(&p.element_sparsity));
    }

    /// [`body_pins`] over every shape from 1×1 to 40×40, every sparsity
    /// and every signed width from 2 to 31 bits, with a width-edge value
    /// planted at a seeded spot and, by `rows_filled`, no non-zero at
    /// all, one full row, or every element non-zero.
    #[test]
    fn body_derived_digest_and_csr_equal_the_dense_ones(
        seed in any::<u64>(),
        rows in 1usize..=40,
        cols in 1usize..=40,
        bits in 2u32..=31,
        sparsity in 0.0f64..=1.0,
        edge in 0usize..11,
        rows_filled in 0u8..4,
    ) {
        let mut rng = seeded(seed);
        let mut m = element_sparse_matrix(rows, cols, bits, sparsity, true, &mut rng).unwrap();
        let at = (seed as usize % rows, (seed >> 32) as usize % cols);
        match rows_filled {
            1 => m = IntMatrix::zeros(rows, cols).unwrap(),
            2 => (0..cols).for_each(|c| m.set(at.0, c, (c as i32 - 3) | 1)),
            3 => m = IntMatrix::from_fn(rows, cols, |r, c| ((r * cols + c) as i32 % 9 - 4) | 1).unwrap(),
            _ => {}
        }
        if EDGES[edge] != 0 {
            m.set(at.0, at.1, EDGES[edge]);
        }
        body_pins(&m);
    }
}

/// The edges [`body_pins`]' draw may miss, each alone and side by side.
#[test]
fn body_derived_values_hold_at_the_edges() {
    let all_zero = IntMatrix::zeros(5, 7).unwrap();
    let full_row = IntMatrix::from_fn(4, 6, |r, c| if r == 2 { 2 * c as i32 - 7 } else { 0 }).unwrap();
    let full = IntMatrix::from_fn(3, 33, |r, c| ((r * 33 + c) as i32 - 50) | 1).unwrap();
    let long_zero_run = IntMatrix::from_fn(2, 150, |r, c| i32::from(r == 1 && c == 149) * -7).unwrap();
    for m in [all_zero, full_row, full, long_zero_run, IntMatrix::identity(1).unwrap()] {
        body_pins(&m);
    }
    for &edge in &EDGES[1..] {
        let mut m = IntMatrix::zeros(3, 4).unwrap();
        m.set(1, 2, edge);
        m.set(2, 3, 1);
        body_pins(&m);
    }
    let mut mixed = IntMatrix::zeros(2, EDGES.len()).unwrap();
    for (c, &edge) in EDGES.iter().enumerate() {
        mixed.set(0, c, edge);
        mixed.set(1, c, -(edge / 2));
    }
    body_pins(&mixed);
}
