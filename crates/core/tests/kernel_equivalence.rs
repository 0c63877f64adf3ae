//! Differential suite for the `gemv` kernels: the blocked production
//! kernel must produce the scalar reference's exact bits on every shape
//! — including dimensions that are not multiples of the unroll width,
//! 1-row and 1-col degenerates, widths straddling the column-tile
//! boundary — and on extreme `i32` values where any widening or
//! accumulation-order slip would show.

use proptest::prelude::*;
use smm_core::gemv::{vecmat, vecmat_into, vecmat_into_scalar};
use smm_core::matrix::IntMatrix;

/// A deterministic pseudo-random value in `lo..=hi` mixed from `seed`.
fn mix(seed: u64, i: usize, lo: i64, hi: i64) -> i32 {
    let mixed = seed
        .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let span = (hi - lo + 1) as u64;
    (lo + (mixed % span) as i64) as i32
}

/// Runs the production kernel through both front doors and asserts each
/// equals the scalar reference bit for bit. Returns the reference.
fn assert_all_variants_match(a: &[i32], v: &IntMatrix) -> Vec<i64> {
    let cols = v.cols();
    let mut reference = vec![0i64; cols];
    vecmat_into_scalar(a, v, &mut reference).unwrap();
    let mut got = vec![i64::MIN; cols];
    vecmat_into(a, v, &mut got).unwrap();
    assert_eq!(got, reference, "blocked kernel");
    assert_eq!(vecmat(a, v).unwrap(), reference, "allocating front door");
    reference
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random shapes across the unroll and tile boundaries, random
    /// 8-bit-ish values, random zero runs in the input vector.
    #[test]
    fn all_variants_match_scalar_reference(
        rows in 1usize..40,
        cols in 1usize..48,
        seed in any::<u64>(),
        zero_every in 1usize..6,
    ) {
        let v = IntMatrix::from_fn(rows, cols, |r, c| {
            mix(seed, r * cols + c, -128, 127)
        }).unwrap();
        let a: Vec<i32> = (0..rows)
            .map(|i| {
                if i % zero_every == 0 { 0 } else { mix(seed ^ 1, i, -128, 127) }
            })
            .collect();
        assert_all_variants_match(&a, &v);
    }

    /// Full-range `i32` elements in a single row: each product is up to
    /// 2^62 in magnitude, so one term exercises the widening while
    /// staying inside `i64`.
    #[test]
    fn extreme_single_row_values(
        cols in 1usize..10,
        seed in any::<u64>(),
    ) {
        let v = IntMatrix::from_fn(1, cols, |_, c| {
            [i32::MIN, i32::MAX, -1, 1, 0][(seed as usize + c) % 5]
        }).unwrap();
        for a0 in [i32::MIN, i32::MAX, -1, 1, 0] {
            assert_all_variants_match(&[a0], &v);
        }
    }
}

#[test]
fn extreme_accumulation_does_not_overflow() {
    // Every partial product sits at the `i64` magnitude ceiling
    // (`i32::MIN * i32::MIN = 2^62`), with row-alternating signs so
    // each consecutive pair nearly cancels and the running sum stays in
    // range in every kernel's accumulation order. All kernels must
    // agree exactly, and none may trip debug overflow checks.
    let rows = 64;
    let v = IntMatrix::from_fn(rows, 3, |r, c| match (c, r % 2) {
        (0, 0) => i32::MIN,
        (0, _) => i32::MAX,
        (1, 0) => i32::MAX,
        (1, _) => i32::MIN,
        (_, 0) => 1,
        (_, _) => -1,
    })
    .unwrap();
    let a: Vec<i32> = (0..rows)
        .map(|r| if r % 2 == 0 { i32::MIN } else { -i32::MAX })
        .collect();
    let reference = assert_all_variants_match(&a, &v);
    let max = i64::from(i32::MAX);
    // Column 0 pairs (+2^62) with (-MAX^2): 32 residues of 2^32 - 1.
    assert_eq!(reference[0], 32 * ((1i64 << 62) - max * max));
    // Column 1 pairs cancel exactly.
    assert_eq!(reference[1], 0);
}

#[test]
fn shapes_straddling_the_column_tile() {
    // One under, exactly one, and one over the blocked kernel's tile
    // width (`gemv`'s 1024-column tile) — the tile seam must be invisible.
    const COL_BLOCK: usize = 1024;
    for cols in [COL_BLOCK - 1, COL_BLOCK, COL_BLOCK + 5] {
        let v = IntMatrix::from_fn(3, cols, |r, c| mix(7, r * cols + c, -100, 100)).unwrap();
        let a = [3, -5, 9];
        assert_all_variants_match(&a, &v);
    }
}

#[test]
fn one_by_one_and_single_column() {
    let v = IntMatrix::from_vec(1, 1, vec![-77]).unwrap();
    assert_eq!(assert_all_variants_match(&[13], &v), vec![-1001]);
    let tall = IntMatrix::from_fn(9, 1, |r, _| r as i32 - 4).unwrap();
    let a: Vec<i32> = (0..9).map(|i| i - 2).collect();
    assert_all_variants_match(&a, &tall);
}
