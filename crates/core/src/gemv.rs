//! Reference integer vector–matrix products.
//!
//! The paper accelerates `o = aᵀV` (Equation 3): the input vector `a` has
//! one entry per matrix *row*, and the output has one entry per *column* —
//! each output element is the dot product of `a` with a column of `V`.
//! These routines, accumulating in `i64`, are the functional ground truth
//! that every circuit simulation and baseline kernel is checked against.
//!
//! # Kernel variants
//!
//! Two implementations of the same accumulation are exposed, bit-identical
//! (integer math — no rounding, no reassociation hazard):
//!
//! * [`vecmat_into_scalar`] — the plain nested loop. Ground truth for the
//!   differential tests and the baseline the `kernels` bench measures
//!   against.
//! * [`vecmat_into`] — the production kernel: rows processed four at a
//!   time with four independent product terms per output lane and a
//!   4-wide unrolled column loop (the shape of the CLIF matmul exemplar:
//!   independent accumulators so the compiler can keep them in SIMD
//!   registers), applied per cache-blocked column tile (`COL_BLOCK`
//!   wide) so the output tile and the four active row segments stay
//!   L1-resident no matter how wide the matrix is. It runs branch-free
//!   over every row: a zero input contributes exact zeros.
//!
//! There is no batch kernel here. A batch is a
//! [`Block`](crate::block::Block) of frames, and the dense engine serves
//! it one [`vecmat_into`] per frame, straight into its output rows; the
//! tests of every batch path use per-row [`vecmat`] as the reference.

use crate::error::{Error, Result};
use crate::matrix::IntMatrix;

/// Column-tile width of the blocked kernel. An `i64` output tile
/// (8 KiB) plus four `i32` row segments (16 KiB) stay L1-resident while
/// every matrix element streams through exactly once.
pub(crate) const COL_BLOCK: usize = 1024;

/// Computes `o = aᵀV`: `o[j] = Σ_i a[i] · V[i][j]`.
pub fn vecmat(a: &[i32], v: &IntMatrix) -> Result<Vec<i64>> {
    check_vecmat_dims(a, v)?;
    let mut out = vec![0i64; v.cols()];
    accumulate_blocked(a, v.as_slice(), v.cols(), &mut out);
    Ok(out)
}

/// [`vecmat`] into a caller-owned output slice of exactly `v.cols()`
/// elements — the allocation-free kernel the dense engine runs per frame.
/// The slice is zeroed first, so stale contents are overwritten.
///
/// This is the production kernel: cache-blocked column tiles with the
/// 4x-unrolled, four-independent-accumulator inner loop.
pub fn vecmat_into(a: &[i32], v: &IntMatrix, out: &mut [i64]) -> Result<()> {
    check_vecmat_into_dims(a, v, out.len())?;
    out.fill(0);
    accumulate_blocked(a, v.as_slice(), v.cols(), out);
    Ok(())
}

/// The scalar reference kernel: one plain nested loop, no unrolling, no
/// blocking, no zero skipping. Ground truth for the differential suite
/// and the baseline of the `kernels` bench.
pub fn vecmat_into_scalar(a: &[i32], v: &IntMatrix, out: &mut [i64]) -> Result<()> {
    check_vecmat_into_dims(a, v, out.len())?;
    out.fill(0);
    for (i, &ai) in a.iter().enumerate() {
        let ai = i64::from(ai);
        for (o, &w) in out.iter_mut().zip(v.row(i)) {
            *o += ai * i64::from(w);
        }
    }
    Ok(())
}

fn check_vecmat_dims(a: &[i32], v: &IntMatrix) -> Result<()> {
    if a.len() != v.rows() {
        return Err(Error::DimensionMismatch {
            context: format!("vector length {} vs matrix rows {}", a.len(), v.rows()),
        });
    }
    Ok(())
}

fn check_vecmat_into_dims(a: &[i32], v: &IntMatrix, out_len: usize) -> Result<()> {
    check_vecmat_dims(a, v)?;
    if out_len != v.cols() {
        return Err(Error::DimensionMismatch {
            context: format!("output length {out_len} vs matrix cols {}", v.cols()),
        });
    }
    Ok(())
}

/// The production accumulation: [`accumulate_col_range`] per
/// [`COL_BLOCK`]-wide column tile of row-major `data` (`a.len()` rows ×
/// `cols`), added into an already-zeroed `out` of `cols` elements.
fn accumulate_blocked(a: &[i32], data: &[i32], cols: usize, out: &mut [i64]) {
    let mut c0 = 0;
    while c0 < cols {
        let c1 = (c0 + COL_BLOCK).min(cols);
        accumulate_col_range(a, data, cols, c0, c1, &mut out[c0..c1]);
        c0 = c1;
    }
}

/// Accumulates columns `c0..c1` of `aᵀV` into `out` (`c1 - c0`
/// elements): rows four at a time through [`accumulate_quad`], with a
/// per-row [`accumulate_axpy`] tail for the last `a.len() % 4` rows.
fn accumulate_col_range(
    a: &[i32],
    data: &[i32],
    cols: usize,
    c0: usize,
    c1: usize,
    out: &mut [i64],
) {
    debug_assert_eq!(out.len(), c1 - c0);
    let rows = a.len();
    let mut i = 0;
    while i + 4 <= rows {
        let base = i * cols;
        accumulate_quad(
            [
                i64::from(a[i]),
                i64::from(a[i + 1]),
                i64::from(a[i + 2]),
                i64::from(a[i + 3]),
            ],
            [
                &data[base + c0..base + c1],
                &data[base + cols + c0..base + cols + c1],
                &data[base + 2 * cols + c0..base + 2 * cols + c1],
                &data[base + 3 * cols + c0..base + 3 * cols + c1],
            ],
            out,
        );
        i += 4;
    }
    while i < rows {
        accumulate_axpy(i64::from(a[i]), &data[i * cols + c0..i * cols + c1], out);
        i += 1;
    }
}

/// The unrolled heart: four rows' segments accumulate into `out` in one
/// pass, four output lanes per step, each lane a sum of four
/// independent products — no lane or product depends on another, so the
/// compiler is free to keep the whole step in vector registers (the
/// CLIF exemplar's shape). Scalar tail for `out.len() % 4` columns.
#[inline]
fn accumulate_quad(a: [i64; 4], rows: [&[i32]; 4], out: &mut [i64]) {
    let n = out.len();
    let [r0, r1, r2, r3] = rows;
    assert!(r0.len() == n && r1.len() == n && r2.len() == n && r3.len() == n);
    let n4 = n - n % 4;
    let mut j = 0;
    while j < n4 {
        out[j] += a[0] * i64::from(r0[j])
            + a[1] * i64::from(r1[j])
            + a[2] * i64::from(r2[j])
            + a[3] * i64::from(r3[j]);
        out[j + 1] += a[0] * i64::from(r0[j + 1])
            + a[1] * i64::from(r1[j + 1])
            + a[2] * i64::from(r2[j + 1])
            + a[3] * i64::from(r3[j + 1]);
        out[j + 2] += a[0] * i64::from(r0[j + 2])
            + a[1] * i64::from(r1[j + 2])
            + a[2] * i64::from(r2[j + 2])
            + a[3] * i64::from(r3[j + 2]);
        out[j + 3] += a[0] * i64::from(r0[j + 3])
            + a[1] * i64::from(r1[j + 3])
            + a[2] * i64::from(r2[j + 3])
            + a[3] * i64::from(r3[j + 3]);
        j += 4;
    }
    while j < n {
        out[j] += a[0] * i64::from(r0[j])
            + a[1] * i64::from(r1[j])
            + a[2] * i64::from(r2[j])
            + a[3] * i64::from(r3[j]);
        j += 1;
    }
}

/// One row's contribution, 4-wide unrolled: `out[j] += ai * row[j]`.
#[inline]
fn accumulate_axpy(ai: i64, row: &[i32], out: &mut [i64]) {
    debug_assert_eq!(row.len(), out.len());
    let mut o = out.chunks_exact_mut(4);
    let mut w = row.chunks_exact(4);
    for (o, w) in o.by_ref().zip(w.by_ref()) {
        o[0] += ai * i64::from(w[0]);
        o[1] += ai * i64::from(w[1]);
        o[2] += ai * i64::from(w[2]);
        o[3] += ai * i64::from(w[3]);
    }
    for (o, &w) in o.into_remainder().iter_mut().zip(w.remainder()) {
        *o += ai * i64::from(w);
    }
}

/// Computes the conventional `o = V·x`: `o[i] = Σ_j V[i][j] · x[j]`.
pub fn matvec(v: &IntMatrix, x: &[i32]) -> Result<Vec<i64>> {
    if x.len() != v.cols() {
        return Err(Error::DimensionMismatch {
            context: format!("matrix cols {} vs vector length {}", v.cols(), x.len()),
        });
    }
    let out = (0..v.rows())
        .map(|i| {
            v.row(i)
                .iter()
                .zip(x)
                .map(|(&w, &xj)| i64::from(w) * i64::from(xj))
                .sum()
        })
        .collect();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{element_sparse_matrix, random_vector};
    use crate::rng::seeded;

    #[test]
    fn vecmat_small_known() {
        // V = [[1, 2], [3, 4]], a = [5, 6]: aᵀV = [5+18, 10+24] = [23, 34].
        let v = IntMatrix::from_vec(2, 2, vec![1, 2, 3, 4]).unwrap();
        assert_eq!(vecmat(&[5, 6], &v).unwrap(), vec![23, 34]);
    }

    #[test]
    fn matvec_small_known() {
        let v = IntMatrix::from_vec(2, 2, vec![1, 2, 3, 4]).unwrap();
        // V·x with x=[5,6]: [5+12, 15+24] = [17, 39].
        assert_eq!(matvec(&v, &[5, 6]).unwrap(), vec![17, 39]);
    }

    #[test]
    fn vecmat_is_matvec_of_transpose() {
        let mut rng = seeded(31);
        let v = element_sparse_matrix(20, 30, 8, 0.5, true, &mut rng).unwrap();
        let a = random_vector(20, 8, true, &mut rng).unwrap();
        assert_eq!(vecmat(&a, &v).unwrap(), matvec(&v.transpose(), &a).unwrap());
    }

    #[test]
    fn dimension_errors() {
        let v = IntMatrix::zeros(3, 4).unwrap();
        assert!(vecmat(&[1, 2], &v).is_err());
        assert!(matvec(&v, &[1, 2, 3]).is_err());
        assert!(vecmat_into(&[1, 2, 3], &v, &mut [0; 3]).is_err());
    }

    #[test]
    fn vecmat_into_overwrites_stale_output() {
        let v = IntMatrix::from_vec(2, 2, vec![1, 2, 3, 4]).unwrap();
        let mut out = vec![-99i64; 2];
        vecmat_into(&[5, 6], &v, &mut out).unwrap();
        assert_eq!(out, vec![23, 34]);
    }

    #[test]
    fn kernel_variants_are_bit_identical() {
        let mut rng = seeded(33);
        // Dims straddle the unroll width (4), the tile width, and 1-row /
        // 1-col degenerate shapes.
        for (rows, cols) in [(1usize, 1usize), (1, 7), (5, 1), (7, 9), (33, 130), (4, 4)] {
            let v = element_sparse_matrix(rows, cols, 8, 0.5, true, &mut rng).unwrap();
            let a = random_vector(rows, 8, true, &mut rng).unwrap();
            let mut reference = vec![0i64; cols];
            vecmat_into_scalar(&a, &v, &mut reference).unwrap();
            let mut got = vec![-1i64; cols];
            vecmat_into(&a, &v, &mut got).unwrap();
            assert_eq!(got, reference, "blocked {rows}x{cols}");
        }
    }

    #[test]
    fn zero_vector_gives_zero() {
        let v = IntMatrix::from_vec(2, 2, vec![9, 9, 9, 9]).unwrap();
        assert_eq!(vecmat(&[0, 0], &v).unwrap(), vec![0, 0]);
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        // 8-bit extremes over a long vector stay well within i64.
        let n = 4096;
        let v = IntMatrix::from_fn(n, 1, |_, _| -128).unwrap();
        let a = vec![-128i32; n];
        let o = vecmat(&a, &v).unwrap();
        assert_eq!(o[0], 128 * 128 * n as i64);
    }
}
