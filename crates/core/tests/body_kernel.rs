//! The product straight off a matrix body, `MatrixBody::vecmat_into` —
//! the `csr` engine's row-major scatter, the oracle its gathers are held
//! to — held to the dense reference (`gemv::vecmat`) bit for bit:
//! at each value width a body can take, on zero inputs, empty rows and
//! all-zero matrices, on 1-row and 1-column shapes, and on `±i32::MAX`
//! weights against inputs up to the full `i32` range. A shape with no rows or no columns
//! has no body at all: the layout refuses it before any product can be
//! asked of it. A mis-sized vector or output is a typed error.

use proptest::prelude::*;
use smm_core::error::Error;
use smm_core::gemv::vecmat;
use smm_core::matrix::IntMatrix;
use smm_core::rng::seeded;
use smm_core::wire::{put_u32, put_u64, put_u8, Cursor, MatrixBody};

/// `body`'s product on `a`, into an output first filled with garbage so
/// that stale contents would show.
fn body_product(body: &MatrixBody, a: &[i32]) -> Vec<i64> {
    let mut out = vec![i64::MIN; body.cols()];
    body.vecmat_into(a, &mut out).unwrap();
    out
}

/// Asserts the body's product equals the dense reference and returns it.
fn assert_agrees(m: &IntMatrix, a: &[i32]) -> Vec<i64> {
    let body = MatrixBody::of(m);
    let got = body_product(&body, a);
    assert_eq!(got, vecmat(a, m).unwrap(), "dense reference, {}x{}", m.rows(), m.cols());
    got
}

/// The largest magnitude a body of each width holds: 1, 2 and 4 bytes.
const WIDTH_BOUNDS: [i32; 3] = [i8::MAX as i32, i16::MAX as i32, i32::MAX];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random shapes from 1×1 up, every density from all-zero to full,
    /// values reaching each width's bound (so the body takes that width),
    /// and inputs with runs of zeros (rows the scatter skips).
    #[test]
    fn the_body_product_is_the_reference_at_every_width(
        seed in any::<u64>(),
        rows in 1usize..=24,
        cols in 1usize..=24,
        width in 0usize..3,
        density in 0.0f64..=1.0,
        zero_every in 1usize..5,
    ) {
        use rand::Rng;
        let mut rng = seeded(seed);
        let bound = WIDTH_BOUNDS[width];
        let m = IntMatrix::from_fn(rows, cols, |_, _| {
            if rng.gen_bool(density) { rng.gen_range(-bound..=bound) } else { 0 }
        })
        .unwrap();
        let a: Vec<i32> = (0..rows)
            .map(|i| if i % zero_every == 0 { 0 } else { rng.gen_range(-128..=127) })
            .collect();
        assert_agrees(&m, &a);
    }

    /// `±i32::MAX` weights against wide inputs: a product is up to 2^62
    /// in magnitude, so any narrowing would show. Inputs span all of
    /// `i32` over two rows at most, and `±2^28` over more, so that no
    /// column's sum leaves `i64`.
    #[test]
    fn full_range_weights_agree(
        seed in any::<u64>(),
        rows in 1usize..=8,
        cols in 1usize..=6,
    ) {
        use rand::Rng;
        let mut rng = seeded(seed);
        let m = IntMatrix::from_fn(rows, cols, |_, _| {
            [i32::MAX, -i32::MAX, 0, 1, -1][rng.gen_range(0..5)]
        })
        .unwrap();
        let (lo, hi) = if rows <= 2 { (i32::MIN, i32::MAX) } else { (-(1 << 28), 1 << 28) };
        let a: Vec<i32> = (0..rows).map(|_| rng.gen_range(lo..=hi)).collect();
        assert_agrees(&m, &a);
    }
}

#[test]
fn zero_inputs_empty_rows_and_degenerate_shapes() {
    // A zero input gives zeros, however full the matrix.
    let full = IntMatrix::from_fn(3, 4, |r, c| (r * 4 + c) as i32 - 5).unwrap();
    assert_eq!(assert_agrees(&full, &[0, 0, 0]), vec![0; 4]);
    // Empty rows between full ones, and an all-zero matrix (no
    // non-zeros at all, one row count per row).
    let gappy = IntMatrix::from_vec(4, 3, vec![0, 0, 0, 1, -2, 3, 0, 0, 0, 0, 7, 0]).unwrap();
    assert_eq!(assert_agrees(&gappy, &[9, 2, 9, -1]), vec![2, -11, 6]);
    assert_eq!(assert_agrees(&IntMatrix::zeros(5, 2).unwrap(), &[1, 2, 3, 4, 5]), vec![0, 0]);
    // One row; one column.
    assert_eq!(assert_agrees(&IntMatrix::from_vec(1, 3, vec![4, 0, -4]).unwrap(), &[3]), vec![12, 0, -12]);
    assert_eq!(assert_agrees(&IntMatrix::from_vec(3, 1, vec![1, 0, 2]).unwrap(), &[5, 6, 7]), vec![19]);
    // `±i32::MAX` at the extremes of the input.
    let extremes = IntMatrix::from_vec(2, 2, vec![i32::MAX, -i32::MAX, -i32::MAX, i32::MAX]).unwrap();
    assert_agrees(&extremes, &[i32::MIN, i32::MAX]);
}

/// No rows or no columns: there is no such matrix, and no such body — the
/// layout refuses the shape before it reads a row count.
#[test]
fn a_shape_with_no_rows_or_no_columns_has_no_body() {
    for (rows, cols) in [(0u64, 3u64), (3, 0), (0, 0)] {
        assert!(matches!(IntMatrix::zeros(rows as usize, cols as usize), Err(Error::EmptyDimension)));
        let mut bytes = Vec::new();
        put_u64(&mut bytes, rows);
        put_u64(&mut bytes, cols);
        put_u64(&mut bytes, 0);
        put_u8(&mut bytes, 1);
        (0..rows).for_each(|_| put_u32(&mut bytes, 0));
        let refused = Cursor::new(&bytes).take_matrix_body().unwrap_err();
        assert!(matches!(refused, Error::Wire { .. }), "{rows}x{cols}: {refused:?}");
    }
}

#[test]
fn mis_sized_vectors_and_outputs_are_dimension_mismatches() {
    let body = MatrixBody::of(&IntMatrix::from_vec(2, 3, vec![1, 0, 2, 0, 3, 0]).unwrap());
    for (a, cols) in [(vec![1], 3), (vec![1, 2, 3], 3), (vec![1, 2], 2), (vec![1, 2], 4), (vec![], 0)] {
        let mut out = vec![7i64; cols];
        let refused = body.vecmat_into(&a, &mut out).unwrap_err();
        assert!(matches!(refused, Error::DimensionMismatch { .. }), "{a:?}, {cols}: {refused:?}");
        assert_eq!(out, vec![7; cols], "a refused product leaves the output as it was");
    }
    assert_eq!(body_product(&body, &[1, 2]), vec![1, 6, 2]);
}
