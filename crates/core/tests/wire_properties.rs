//! Property tests for the binary matrix body (`smm_core::wire::put_matrix`
//! / `Cursor::take_matrix`), the layout a `LoadMatrix` request carries:
//! the round trip is the identity, so the content digest (the serving
//! key) is the same on both ends of the wire, and the body costs only the
//! non-zeros at the width they need.

use proptest::prelude::*;
use smm_core::generate::element_sparse_matrix;
use smm_core::matrix::IntMatrix;
use smm_core::rng::seeded;
use smm_core::wire::{put_matrix, Cursor};

/// Encodes `m`, decodes it back, and checks the body's size against its
/// non-zero count and the width byte the encoder chose.
fn round_trip(m: &IntMatrix) -> IntMatrix {
    let mut body = Vec::new();
    put_matrix(&mut body, m);
    let width = usize::from(body[24]);
    assert!(matches!(width, 1 | 2 | 4), "width byte {width}");
    assert_eq!(body.len(), 25 + m.rows() * 4 + m.nnz() * (4 + width));
    let mut c = Cursor::new(&body);
    let back = c.take_matrix().unwrap();
    c.expect_end("matrix body").unwrap();
    back
}

proptest! {
    /// Every shape from 1×1 to 40×40, every sparsity and every signed
    /// width from 2 to 31 bits comes back unchanged, digest included.
    #[test]
    fn matrix_body_round_trip_preserves_digest(
        seed in any::<u64>(),
        rows in 1usize..=40,
        cols in 1usize..=40,
        bits in 2u32..=31,
        sparsity in 0.0f64..=1.0,
    ) {
        let mut rng = seeded(seed);
        let m = element_sparse_matrix(rows, cols, bits, sparsity, true, &mut rng).unwrap();
        let back = round_trip(&m);
        prop_assert_eq!(back.digest(), m.digest());
        prop_assert_eq!(back, m);
    }
}

/// The edges a random draw may miss: no non-zeros at all, a row with no
/// zeros, and the one `i32` with no negation.
#[test]
fn edge_matrices_round_trip() {
    let all_zero = IntMatrix::zeros(5, 7).unwrap();
    let full_row = IntMatrix::from_fn(4, 6, |r, c| if r == 2 { 2 * c as i32 - 7 } else { 0 }).unwrap();
    let mut min = IntMatrix::zeros(3, 3).unwrap();
    min.set(1, 2, i32::MIN);
    min.set(2, 0, i32::MAX);
    for m in [all_zero, full_row, min, IntMatrix::identity(1).unwrap()] {
        assert_eq!(round_trip(&m), m);
    }
}
