//! Property-based tests for the smm-core invariants.

use proptest::prelude::*;
use rand::Rng;
use smm_core::csd::{csd_split, ChainPolicy};
use smm_core::generate::{bit_sparse_matrix, element_sparse_matrix};
use smm_core::gemv::{matvec, vecmat};
use smm_core::matrix::IntMatrix;
use smm_core::rng::seeded;
use smm_core::signsplit::split_pn;
use smm_core::sparsity::{bit_sparsity_of, element_sparsity_of, ones_in_signed_matrix};
use smm_core::wire::{Cursor, MatrixBody};

proptest! {
    /// CSD preserves the value and never increases the digit count, for any
    /// value/policy: one element through `csd_split`.
    #[test]
    fn csd_value_preserved(value in 0i32..(1 << 16), seed in any::<u64>()) {
        let mut rng = seeded(seed);
        let m = IntMatrix::from_vec(1, 1, vec![value]).unwrap();
        for policy in [ChainPolicy::CoinFlip, ChainPolicy::Always, ChainPolicy::Never] {
            let s = csd_split(&m, policy, &mut rng).unwrap();
            prop_assert_eq!(s.reconstruct().unwrap(), m.clone());
            prop_assert!(s.ones() <= u64::from(value.count_ones().max(1)));
            prop_assert_eq!(s.pos[(0, 0)] & s.neg[(0, 0)], 0);
        }
    }

    /// PN split reconstructs the original matrix and conserves set bits.
    #[test]
    fn pn_split_roundtrip(seed in any::<u64>(), sparsity in 0.0f64..1.0) {
        let mut rng = seeded(seed);
        let m = element_sparse_matrix(12, 9, 8, sparsity, true, &mut rng).unwrap();
        let s = split_pn(&m);
        prop_assert_eq!(s.reconstruct().unwrap(), m.clone());
        prop_assert_eq!(s.ones(), ones_in_signed_matrix(&m));
    }

    /// CSD split reconstructs the original matrix and never costs more ones.
    #[test]
    fn csd_split_roundtrip(seed in any::<u64>(), sparsity in 0.0f64..1.0) {
        let mut rng = seeded(seed);
        let m = element_sparse_matrix(10, 10, 8, sparsity, true, &mut rng).unwrap();
        let before = ones_in_signed_matrix(&m);
        let s = csd_split(&m, ChainPolicy::CoinFlip, &mut rng).unwrap();
        prop_assert_eq!(s.reconstruct().unwrap(), m);
        prop_assert!(s.ones() <= before);
    }

    /// vecmat is linear: (a + b)ᵀV == aᵀV + bᵀV.
    #[test]
    fn vecmat_linearity(seed in any::<u64>()) {
        let mut rng = seeded(seed);
        let v = element_sparse_matrix(8, 11, 8, 0.5, true, &mut rng).unwrap();
        let a = smm_core::generate::random_vector(8, 7, true, &mut rng).unwrap();
        let b = smm_core::generate::random_vector(8, 7, true, &mut rng).unwrap();
        let sum: Vec<i32> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let oa = vecmat(&a, &v).unwrap();
        let ob = vecmat(&b, &v).unwrap();
        let os = vecmat(&sum, &v).unwrap();
        for j in 0..v.cols() {
            prop_assert_eq!(os[j], oa[j] + ob[j]);
        }
    }

    /// vecmat against identity is the vector itself (widened).
    #[test]
    fn vecmat_identity(a in prop::collection::vec(-1000i32..1000, 1..20)) {
        let n = a.len();
        let id = IntMatrix::identity(n).unwrap();
        let o = vecmat(&a, &id).unwrap();
        for (x, y) in a.iter().zip(&o) {
            prop_assert_eq!(i64::from(*x), *y);
        }
        // And matvec agrees on the identity too.
        let o2 = matvec(&id, &a).unwrap();
        prop_assert_eq!(o, o2);
    }

    /// Generated element sparsity is exactly the rounded target.
    #[test]
    fn element_sparsity_exact(seed in any::<u64>(), sparsity in 0.0f64..1.0) {
        let mut rng = seeded(seed);
        let m = element_sparse_matrix(16, 16, 8, sparsity, true, &mut rng).unwrap();
        let target = (sparsity * 256.0).round() / 256.0;
        prop_assert!((element_sparsity_of(&m) - target).abs() < 1e-12);
    }

    /// Bit-sparse generation tracks its target within statistical noise.
    #[test]
    fn bit_sparse_tracks_target(seed in any::<u64>(), sparsity in 0.0f64..=1.0) {
        let mut rng = seeded(seed);
        let m = bit_sparse_matrix(32, 32, 8, sparsity, &mut rng).unwrap();
        let measured = bit_sparsity_of(&m, 8).unwrap();
        // 8192 Bernoulli draws: 5 sigma is ~0.028 at p=0.5.
        prop_assert!((measured - sparsity).abs() < 0.05, "target {sparsity} measured {measured}");
    }

    /// Transpose is an involution and preserves nnz.
    #[test]
    fn transpose_involution(seed in any::<u64>()) {
        let mut rng = seeded(seed);
        let m = element_sparse_matrix(7, 13, 8, 0.7, true, &mut rng).unwrap();
        prop_assert_eq!(m.transpose().transpose(), m.clone());
        prop_assert_eq!(m.transpose().nnz(), m.nnz());
    }

    /// One matrix, one digest: [`IntMatrix::digest`], the digest of the
    /// body written for the matrix and the digest of that body read back
    /// are one value, for every shape up to 40×40, from no zeros to all
    /// zeros, with values 1, 2 and 4 bytes wide (each width's own ends
    /// included).
    #[test]
    fn every_route_to_a_digest_agrees(
        seed in any::<u64>(),
        rows in 1usize..=40,
        cols in 1usize..=40,
        sparsity in 0.0f64..=1.0,
        width in 0usize..3,
    ) {
        let mut rng = seeded(seed);
        let (lo, hi) = [
            (i32::from(i8::MIN), i32::from(i8::MAX)),
            (i32::from(i16::MIN), i32::from(i16::MAX)),
            (i32::MIN, i32::MAX),
        ][width];
        let m = IntMatrix::from_fn(rows, cols, |_, _| {
            if rng.gen_bool(sparsity) {
                return 0;
            }
            match rng.gen_range(0..4) {
                0 => lo,
                1 => hi,
                _ => rng.gen_range(lo..=hi),
            }
        })
        .unwrap();
        agree(&m);
    }
}

/// Holds [`IntMatrix::digest`] to the digest of the matrix's body, as
/// written and as read back.
fn agree(m: &IntMatrix) {
    let written = MatrixBody::of(m);
    let mut c = Cursor::new(written.as_bytes());
    let read = c.take_matrix_body().unwrap();
    c.expect_end("matrix body").unwrap();
    assert_eq!(m.digest(), written.digest(), "{m:?}");
    assert_eq!(m.digest(), read.digest(), "{m:?}");
}

#[test]
fn every_route_to_a_digest_agrees_at_the_edges() {
    // All zeros: a body of row counts alone.
    agree(&IntMatrix::zeros(40, 40).unwrap());
    agree(&IntMatrix::zeros(1, 100_000).unwrap());
    // A zero only at the very start, only at the very end, and the
    // other way round.
    let n = 37;
    for zero_at in [0, n - 1] {
        agree(&IntMatrix::from_fn(1, n, |_, c| if c == zero_at { 0 } else { -1 }).unwrap());
        agree(&IntMatrix::from_fn(n, 1, |r, _| if r == zero_at { i32::MIN } else { 0 }).unwrap());
    }
    // Zero *bytes* that are not zero elements are stored, not skipped.
    agree(&IntMatrix::from_vec(2, 2, vec![0x0100_0000, 0x0000_0100, 0x00FF_0000, 1]).unwrap());
    // `put_matrix` finds the non-zeros through 16-element masks: zero
    // runs on either side of a mask boundary, starting at every offset
    // inside a mask, between non-zeros whose bytes look like zeros or
    // like all-ones; the bodies' lengths cross the hash's 32-byte
    // stripes at every tail length.
    let neighbours = [-1, 255, 256, i32::MIN];
    for run in [15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129] {
        for offset in 0..16 {
            let before = neighbours[offset % 4];
            let after = neighbours[(offset + run) % 4];
            let mut data = vec![before; offset];
            data.resize(offset + run, 0);
            data.push(after);
            data.extend([3, 0, after]);
            agree(&IntMatrix::from_vec(1, data.len(), data.clone()).unwrap());
            // The same run ending at the last element.
            data.truncate(offset + run);
            agree(&IntMatrix::from_vec(1, data.len(), data).unwrap());
        }
    }
    // Dense and half-zero matrices at lengths around the mask size,
    // so every tail length is covered with and without a zero in it.
    for len in (1..=50).chain([255, 257]) {
        agree(&IntMatrix::from_fn(1, len, |_, c| neighbours[c % 4]).unwrap());
        agree(&IntMatrix::from_fn(len, 1, |r, _| if r % 2 == 0 { 0 } else { neighbours[r % 4] }).unwrap());
    }
}
