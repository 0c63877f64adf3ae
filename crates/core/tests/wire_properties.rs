//! Property tests for the binary matrix body (`smm_core::wire::put_matrix`
//! / `Cursor::take_matrix`), the layout a `LoadMatrix` request carries:
//! the round trip is the identity, so the content digest (the serving
//! key) is the same on both ends of the wire, and the body costs only the
//! non-zeros at the width they need — and only that width: a body stored
//! wider is refused, so each matrix has exactly one body.

use proptest::prelude::*;
use smm_core::generate::element_sparse_matrix;
use smm_core::matrix::IntMatrix;
use smm_core::rng::seeded;
use smm_core::wire::{put_matrix, put_u32, put_u64, put_u8, Cursor, MatrixBody};

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

/// `m`'s body written by hand with every value at `width` bytes, whether
/// or not that is the width `put_matrix` would choose.
fn body_at_width(m: &IntMatrix, width: usize) -> Vec<u8> {
    let nonzeros: Vec<(usize, i32)> = (0..m.rows())
        .flat_map(|r| m.row(r).iter().copied().enumerate().filter(|&(_, v)| v != 0))
        .collect();
    let mut body = Vec::new();
    put_u64(&mut body, m.rows() as u64);
    put_u64(&mut body, m.cols() as u64);
    put_u64(&mut body, nonzeros.len() as u64);
    put_u8(&mut body, width as u8);
    for r in 0..m.rows() {
        put_u32(&mut body, m.row(r).iter().filter(|&&v| v != 0).count() as u32);
    }
    for &(c, _) in &nonzeros {
        put_u32(&mut body, c as u32);
    }
    for &(_, v) in &nonzeros {
        body.extend_from_slice(&v.to_le_bytes()[..width]);
    }
    body
}

/// On both sides of each width boundary the encoder picks the narrowest
/// width that holds the values, and the same matrix written at any wider
/// width is refused by both readers: one matrix, one body.
#[test]
fn width_boundaries_pick_one_body_and_refuse_every_wider_one() {
    for (value, width) in [
        (127, 1usize),
        (-128, 1),
        (128, 2),
        (-129, 2),
        (32767, 2),
        (-32768, 2),
        (32768, 4),
        (-32769, 4),
        (i32::MIN, 4),
        (i32::MAX, 4),
    ] {
        // With a small non-zero beside it, which alone would take 1 byte.
        let m = IntMatrix::from_vec(2, 2, vec![0, value, -1, 0]).unwrap();
        let mut body = Vec::new();
        put_matrix(&mut body, &m);
        assert_eq!(usize::from(body[24]), width, "{value}");
        assert_eq!(body, body_at_width(&m, width), "{value}");
        let read = Cursor::new(&body).take_matrix_body().unwrap();
        assert_eq!((read.width(), read.as_bytes()), (width, body.as_slice()), "{value}");
        for wider in [2, 4].into_iter().filter(|&w| w > width) {
            let bytes = body_at_width(&m, wider);
            let dense = Cursor::new(&bytes).take_matrix().unwrap_err().to_string();
            assert!(dense.contains("wider than its values need"), "{value} at {wider}: {dense}");
            let kept = Cursor::new(&bytes).take_matrix_body().unwrap_err().to_string();
            assert!(kept.contains("wider than its values need"), "{value} at {wider}: {kept}");
        }
    }
    // A matrix with no non-zeros has one body too: width 1.
    let zeros = IntMatrix::zeros(3, 2).unwrap();
    assert!(Cursor::new(&body_at_width(&zeros, 1)).take_matrix_body().is_ok());
    for wider in [2, 4] {
        assert!(Cursor::new(&body_at_width(&zeros, wider)).take_matrix().is_err());
    }
}

proptest! {
    /// A body read off the wire is byte for byte the body the encoder
    /// writes for the matrix it decodes to, and knows that matrix's digest.
    #[test]
    fn a_read_body_is_the_written_body(
        seed in any::<u64>(),
        rows in 1usize..=40,
        cols in 1usize..=40,
        bits in 2u32..=31,
        sparsity in 0.0f64..=1.0,
    ) {
        let mut rng = seeded(seed);
        let m = element_sparse_matrix(rows, cols, bits, sparsity, true, &mut rng).unwrap();
        let written = MatrixBody::of(&m);
        let mut c = Cursor::new(written.as_bytes());
        let read = c.take_matrix_body().unwrap();
        c.expect_end("matrix body").unwrap();
        prop_assert_eq!(read.digest(), m.digest());
        prop_assert_eq!(read.to_matrix().unwrap(), m);
        prop_assert_eq!(read, written);
    }
}
