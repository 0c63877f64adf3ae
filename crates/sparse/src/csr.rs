//! Compressed sparse row (CSR) format — the layout cuSPARSE-style SpMV
//! kernels operate on, and the source of the indexing overhead the paper's
//! spatial approach eliminates.

use crate::coo::Coo;
use smm_core::error::{Error, Result};
use smm_core::matrix::IntMatrix;
use std::ops::{AddAssign, Mul};

/// Frames per weight-stationary group in [`Csr::vecmat_block_into`]:
/// one cache line of `i32` lanes per matrix row and per output column.
const G: usize = 16;

/// A CSR sparse matrix: `row_ptr` (length `rows + 1`), column indices and
/// values sorted within each row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<i32>,
    /// `max_c Σ_r |w_rc|`, derived from the arrays above at construction
    /// and never serialised: the bound [`Csr::vecmat_block_into`] sizes
    /// its accumulators from.
    max_col_abs_sum: u64,
}

/// The largest column absolute sum of a validated CSR (every column
/// index `< cols`); saturates instead of wrapping, which only ever
/// selects the wide accumulator.
fn max_col_abs_sum(cols: usize, col_idx: &[usize], values: &[i32]) -> u64 {
    let mut sums = vec![0u64; cols];
    for (&c, &v) in col_idx.iter().zip(values) {
        if let Some(s) = sums.get_mut(c) {
            *s = s.saturating_add(u64::from(v.unsigned_abs()));
        }
    }
    sums.into_iter().max().unwrap_or(0)
}

/// Transposes `G` row-major frames of `rows` elements into frame-minor
/// `xt[row * G + frame]`, returning `max|x|` over the group.
fn transpose_in(x: &[i32], rows: usize, xt: &mut Vec<i32>) -> u32 {
    xt.resize(rows * G, 0);
    let mut max_x = 0u32;
    for f in 0..G {
        let frame = &x[f * rows..(f + 1) * rows];
        for (&v, lanes) in frame.iter().zip(xt.chunks_exact_mut(G)) {
            lanes[f] = v;
            max_x = max_x.max(v.unsigned_abs());
        }
    }
    max_x
}

/// What one [`Csr::vecmat_block_into`] call ran: full groups by
/// accumulator width, and the frames past the last full group that went
/// through [`Csr::vecmat_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockWidths {
    /// Groups accumulated in `i32` lanes.
    pub narrow_groups: usize,
    /// Groups accumulated in `i64` lanes.
    pub wide_groups: usize,
    /// Frames run one at a time.
    pub leftover_frames: usize,
}

/// An accumulator lane of the blocked kernel: `i32` or `i64`.
trait Lane: Copy + Default + AddAssign + Mul<Output = Self> {
    fn from_i32(v: i32) -> Self;
    fn widen(self) -> i64;
}

impl Lane for i32 {
    fn from_i32(v: i32) -> Self {
        v
    }
    fn widen(self) -> i64 {
        i64::from(self)
    }
}

impl Lane for i64 {
    fn from_i32(v: i32) -> Self {
        i64::from(v)
    }
    fn widen(self) -> i64 {
        self
    }
}

impl Csr {
    /// Converts from COO (already sorted and deduplicated).
    pub fn from_coo(coo: &Coo) -> Self {
        let mut row_ptr = vec![0usize; coo.rows() + 1];
        let mut col_idx = Vec::with_capacity(coo.nnz());
        let mut values = Vec::with_capacity(coo.nnz());
        for &(r, c, v) in coo.entries() {
            row_ptr[r + 1] += 1;
            col_idx.push(c);
            values.push(v);
        }
        for i in 0..coo.rows() {
            row_ptr[i + 1] += row_ptr[i];
        }
        Self {
            rows: coo.rows(),
            cols: coo.cols(),
            max_col_abs_sum: max_col_abs_sum(coo.cols(), &col_idx, &values),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Converts the non-zeros of a dense matrix: the three arrays are
    /// written directly, at their exact size, in one row-major pass —
    /// the arrays [`Csr::from_coo`] builds from [`Coo::from_dense`],
    /// without the triples in between.
    pub fn from_dense(dense: &IntMatrix) -> Self {
        let (rows, cols) = (dense.rows(), dense.cols());
        let nnz = dense.nnz();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        // Every element is written at the cursor and only a non-zero
        // advances it (a zero is overwritten by whatever comes next), so
        // the loop has no data-dependent branch; the one slot of slack
        // takes the zeros after the last non-zero.
        let mut col_idx = vec![0usize; nnz + 1];
        let mut values = vec![0i32; nnz + 1];
        let mut at = 0;
        for row in dense.as_slice().chunks_exact(cols) {
            for (c, &v) in row.iter().enumerate() {
                col_idx[at] = c;
                values[at] = v;
                at += usize::from(v != 0);
            }
            row_ptr.push(at);
        }
        col_idx.truncate(nnz);
        values.truncate(nnz);
        Self {
            rows,
            cols,
            max_col_abs_sum: max_col_abs_sum(cols, &col_idx, &values),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Reassembles a CSR from its raw arrays, validating every
    /// structural invariant — the deserialization entry point, so the
    /// arrays are treated as untrusted: `row_ptr` must be a monotone
    /// `rows + 1`-length prefix sum ending at `values.len()`, column
    /// indices must be in bounds and strictly increasing within each
    /// row, and stored values must be non-zero.
    pub fn from_raw_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<i32>,
    ) -> Result<Self> {
        let invalid = |context: String| Error::DimensionMismatch { context };
        if row_ptr.len() != rows + 1 {
            return Err(invalid(format!(
                "row_ptr length {} vs rows + 1 = {}",
                row_ptr.len(),
                rows + 1
            )));
        }
        if col_idx.len() != values.len() {
            return Err(invalid(format!(
                "col_idx length {} vs values length {}",
                col_idx.len(),
                values.len()
            )));
        }
        if row_ptr[0] != 0 || row_ptr[rows] != values.len() {
            return Err(invalid(format!(
                "row_ptr must run 0..={} (got {}..={})",
                values.len(),
                row_ptr[0],
                row_ptr[rows]
            )));
        }
        for r in 0..rows {
            if row_ptr[r] > row_ptr[r + 1] {
                return Err(invalid(format!("row_ptr not monotone at row {r}")));
            }
            let mut prev: Option<usize> = None;
            for &c in &col_idx[row_ptr[r]..row_ptr[r + 1]] {
                if c >= cols {
                    return Err(invalid(format!("column index {c} vs cols {cols} in row {r}")));
                }
                if prev.is_some_and(|p| p >= c) {
                    return Err(invalid(format!(
                        "column indices not strictly increasing in row {r}"
                    )));
                }
                prev = Some(c);
            }
        }
        if values.contains(&0) {
            return Err(invalid("explicit zero stored in CSR values".into()));
        }
        Ok(Self {
            rows,
            cols,
            max_col_abs_sum: max_col_abs_sum(cols, &col_idx, &values),
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The row-pointer array (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index and value pairs of one row.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, i32)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Converts back to dense.
    pub fn to_dense(&self) -> Result<IntMatrix> {
        let mut m = IntMatrix::zeros(self.rows, self.cols)?;
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                m.set(r, c, v);
            }
        }
        Ok(m)
    }

    /// Length of the longest row (drives load balance in row-parallel
    /// GPU kernels).
    pub fn max_row_len(&self) -> usize {
        (0..self.rows)
            .map(|r| self.row_ptr[r + 1] - self.row_ptr[r])
            .max()
            .unwrap_or(0)
    }

    /// `o = aᵀV` through the CSR structure (row-major traversal scales each
    /// row by `a[r]` — the natural access pattern for CSR with a transposed
    /// product).
    pub fn vecmat(&self, a: &[i32]) -> Result<Vec<i64>> {
        self.check_vecmat_len(a)?;
        let mut out = vec![0i64; self.cols];
        self.accumulate_vecmat(a, &mut out);
        Ok(out)
    }

    /// [`Csr::vecmat`] into a caller-owned output slice of exactly
    /// [`Csr::cols`] elements — the allocation-free kernel behind the
    /// flat batch path. The slice is zeroed first, so stale contents
    /// are overwritten.
    pub fn vecmat_into(&self, a: &[i32], out: &mut [i64]) -> Result<()> {
        self.check_vecmat_len(a)?;
        if out.len() != self.cols {
            return Err(Error::DimensionMismatch {
                context: format!("output length {} vs cols {}", out.len(), self.cols),
            });
        }
        out.fill(0);
        self.accumulate_vecmat(a, out);
        Ok(())
    }

    fn check_vecmat_len(&self, a: &[i32]) -> Result<()> {
        if a.len() != self.rows {
            return Err(Error::DimensionMismatch {
                context: format!("vector length {} vs rows {}", a.len(), self.rows),
            });
        }
        Ok(())
    }

    /// Accumulates `aᵀV` into an already-zeroed `out` of `cols` elements.
    ///
    /// The hot loop iterates `(col, val)` pairs straight off the CSR
    /// arrays against a pre-checked `out` length: every constructor
    /// (`from_coo` over bounds-validated COO triples, `from_raw_parts`
    /// with its explicit column check) guarantees `col < self.cols`, so
    /// with `out.len() == self.cols` asserted once up front the
    /// per-element access is checked via `get_mut` with no panic path
    /// inside the loop — the branch the optimizer can hoist, unlike the
    /// old `out[c]` indexing whose unwind edge blocked vectorization.
    fn accumulate_vecmat(&self, a: &[i32], out: &mut [i64]) {
        assert_eq!(out.len(), self.cols, "output length vs cols");
        for (r, &ar) in a.iter().enumerate() {
            if ar == 0 {
                continue;
            }
            let ar = i64::from(ar);
            let lo = self.row_ptr[r];
            let hi = self.row_ptr[r + 1];
            for (&c, &v) in self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]) {
                debug_assert!(c < out.len(), "CSR column invariant violated");
                if let Some(o) = out.get_mut(c) {
                    *o += ar * i64::from(v);
                }
            }
        }
    }

    /// `n` products at once: `frames` is `n` row-major input vectors of
    /// [`Csr::rows`] elements, `out` receives `n` row-major rows of
    /// [`Csr::cols`] elements (stale contents are overwritten), each
    /// bit-identical to [`Csr::vecmat_into`] on that frame.
    ///
    /// Frames run in groups of 16 with the matrix stationary: a group is
    /// transposed to frame-minor order, the non-zeros are walked **once**
    /// doing `acc[col][0..16] += v · x[row][0..16]`, and the accumulators
    /// are transposed back into the caller's rows. The `n mod 16` frames
    /// past the last full group go through [`Csr::vecmat_into`].
    ///
    /// *Addition order.* Rows are walked in ascending order, so each
    /// output element receives its terms in the order
    /// [`Csr::vecmat_into`] adds them; the only difference is that a zero
    /// input contributes an explicit `+ 0` instead of being skipped.
    ///
    /// *Accumulator width.* Every partial sum of output column `c` over
    /// any prefix of the rows satisfies
    /// `|Σ w_rc · x_r| ≤ Σ_r |w_rc| · max|x| ≤ max_c Σ_r |w_rc| · max|x|`.
    /// The first factor is a constant of the fixed matrix, computed once
    /// at construction; the second is read off the group while it is
    /// transposed. When the product is at most `i32::MAX`, no product and
    /// no partial sum can leave `i32`, so the group accumulates in `i32`
    /// lanes and widens on the way out — the same bits as the `i64` sum.
    /// Any other group accumulates in `i64`, exactly as
    /// [`Csr::vecmat_into`] does.
    ///
    /// Mis-sized `frames` or `out` return [`Error::DimensionMismatch`].
    pub fn vecmat_block_into(
        &self,
        frames: &[i32],
        n: usize,
        out: &mut [i64],
    ) -> Result<BlockWidths> {
        let (rows, cols) = (self.rows, self.cols);
        if n.checked_mul(rows) != Some(frames.len()) {
            return Err(Error::DimensionMismatch {
                context: format!("{} input elements vs {n} frames of {rows}", frames.len()),
            });
        }
        if n.checked_mul(cols) != Some(out.len()) {
            return Err(Error::DimensionMismatch {
                context: format!("{} output elements vs {n} rows of {cols}", out.len()),
            });
        }
        let full = n - n % G;
        let mut widths = BlockWidths {
            leftover_frames: n - full,
            ..BlockWidths::default()
        };
        // Scratch for the whole call, sized by the first group that uses it.
        let (mut xt, mut narrow, mut wide) = (Vec::new(), Vec::<i32>::new(), Vec::<i64>::new());
        for g in (0..full).step_by(G) {
            let x = &frames[g * rows..(g + G) * rows];
            let o = &mut out[g * cols..(g + G) * cols];
            let max_x = transpose_in(x, rows, &mut xt);
            let bound = u128::from(self.max_col_abs_sum) * u128::from(max_x);
            if bound <= i32::MAX as u128 {
                self.run_group(&xt, &mut narrow, o);
                widths.narrow_groups += 1;
            } else {
                self.run_group(&xt, &mut wide, o);
                widths.wide_groups += 1;
            }
        }
        for f in full..n {
            self.vecmat_into(
                &frames[f * rows..(f + 1) * rows],
                &mut out[f * cols..(f + 1) * cols],
            )?;
        }
        Ok(widths)
    }

    /// One group through the blocked kernel in lane type `A`: zeroes
    /// `acc` (`cols × G`, frame-minor), walks the non-zeros once against
    /// the transposed inputs `xt` (`rows × G`), and writes the `G` output
    /// rows.
    fn run_group<A: Lane>(&self, xt: &[i32], acc: &mut Vec<A>, out: &mut [i64]) {
        acc.clear();
        acc.resize(self.cols * G, A::default());
        for (r, x) in xt.chunks_exact(G).enumerate() {
            let x: [A; G] = std::array::from_fn(|f| A::from_i32(x[f]));
            let lo = self.row_ptr[r];
            let hi = self.row_ptr[r + 1];
            for (&c, &v) in self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]) {
                debug_assert!(c < self.cols, "CSR column invariant violated");
                let v = A::from_i32(v);
                if let Some(o) = acc.get_mut(c * G..(c + 1) * G) {
                    for (o, &x) in o.iter_mut().zip(&x) {
                        *o += v * x;
                    }
                }
            }
        }
        for (f, row) in out.chunks_exact_mut(self.cols.max(1)).enumerate() {
            for (o, lanes) in row.iter_mut().zip(acc.chunks_exact(G)) {
                *o = lanes[f].widen();
            }
        }
    }

    /// Conventional `o = V·x` SpMV.
    pub fn matvec(&self, x: &[i32]) -> Result<Vec<i64>> {
        if x.len() != self.cols {
            return Err(Error::DimensionMismatch {
                context: format!("cols {} vs vector length {}", self.cols, x.len()),
            });
        }
        Ok((0..self.rows)
            .map(|r| {
                self.row(r)
                    .map(|(c, v)| i64::from(v) * i64::from(x[c]))
                    .sum()
            })
            .collect())
    }

    /// Batched `O = A·V` where each row of `A` is an input vector
    /// (SpMM with the sparse operand stationary) — the nested-`Vec`
    /// bridge over [`Csr::vecmat_block_into`].
    pub fn spmm(&self, a: &IntMatrix) -> Result<Vec<Vec<i64>>> {
        if a.cols() != self.rows {
            return Err(Error::DimensionMismatch {
                context: format!("A cols {} vs V rows {}", a.cols(), self.rows),
            });
        }
        let mut flat = vec![0i64; a.rows() * self.cols];
        self.vecmat_block_into(a.as_slice(), a.rows(), &mut flat)?;
        Ok((0..a.rows())
            .map(|b| flat[b * self.cols..(b + 1) * self.cols].to_vec())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smm_core::gemv::{matvec, vecmat};
    use smm_core::generate::{element_sparse_matrix, random_vector};
    use smm_core::rng::seeded;

    #[test]
    fn csr_structure_small() {
        let d = IntMatrix::from_vec(3, 3, vec![1, 0, 2, 0, 0, 0, 3, 4, 0]).unwrap();
        let csr = Csr::from_dense(&d);
        assert_eq!(csr.row_ptr(), &[0, 2, 2, 4]);
        assert_eq!(csr.nnz(), 4);
        assert_eq!(csr.max_row_len(), 2);
        assert_eq!(csr.to_dense().unwrap(), d);
    }

    /// The direct build against the route it replaced: same three
    /// arrays, same derived bound.
    fn assert_direct_build_matches_coo_route(d: &IntMatrix) {
        let direct = Csr::from_dense(d);
        let via_coo = Csr::from_coo(&Coo::from_dense(d));
        assert_eq!(direct.max_col_abs_sum, via_coo.max_col_abs_sum, "{d:?}");
        assert_eq!(direct, via_coo, "{d:?}");
    }

    #[test]
    fn from_dense_matches_the_coo_route_on_edge_shapes() {
        let cases = [
            // Empty rows at the top, in the middle and at the bottom.
            IntMatrix::from_vec(5, 3, vec![0, 0, 0, 1, 0, -2, 0, 0, 0, 0, 3, 0, 0, 0, 0]).unwrap(),
            IntMatrix::zeros(4, 7).unwrap(),
            IntMatrix::from_fn(6, 5, |r, c| (r * 5 + c) as i32 - 40).unwrap(),
            // 1×n and n×1, with the zeros first and last.
            IntMatrix::from_vec(1, 6, vec![0, 4, 0, 0, i32::MIN, 0]).unwrap(),
            IntMatrix::from_vec(6, 1, vec![7, 0, 0, -7, 0, i32::MAX]).unwrap(),
            IntMatrix::from_vec(1, 1, vec![0]).unwrap(),
            IntMatrix::from_vec(1, 1, vec![9]).unwrap(),
        ];
        for d in &cases {
            assert_direct_build_matches_coo_route(d);
        }
    }

    proptest! {
        #[test]
        fn from_dense_matches_the_coo_route(
            seed in any::<u64>(),
            rows in 1usize..24,
            cols in 1usize..24,
            sparsity in 0.0f64..=1.0,
            weight_bits in 2u32..=31,
        ) {
            let mut rng = seeded(seed);
            let d = element_sparse_matrix(rows, cols, weight_bits, sparsity, true, &mut rng).unwrap();
            assert_direct_build_matches_coo_route(&d);
        }
    }

    #[test]
    fn from_raw_parts_round_trips_and_validates() {
        let d = IntMatrix::from_vec(3, 3, vec![1, 0, 2, 0, 0, 0, 3, 4, 0]).unwrap();
        let csr = Csr::from_dense(&d);
        let rebuilt = Csr::from_raw_parts(
            3,
            3,
            csr.row_ptr().to_vec(),
            (0..3).flat_map(|r| csr.row(r).map(|(c, _)| c)).collect(),
            (0..3).flat_map(|r| csr.row(r).map(|(_, v)| v)).collect(),
        )
        .unwrap();
        assert_eq!(rebuilt, csr);
        // Every structural lie is rejected.
        let ok_ptr = vec![0usize, 2, 2, 4];
        assert!(Csr::from_raw_parts(3, 3, vec![0, 2, 4], vec![0, 2, 0, 1], vec![1, 2, 3, 4]).is_err(), "short row_ptr");
        assert!(Csr::from_raw_parts(3, 3, vec![0, 3, 2, 4], vec![0, 2, 0, 1], vec![1, 2, 3, 4]).is_err(), "non-monotone");
        assert!(Csr::from_raw_parts(3, 3, vec![0, 2, 2, 3], vec![0, 2, 0, 1], vec![1, 2, 3, 4]).is_err(), "bad total");
        assert!(Csr::from_raw_parts(3, 3, ok_ptr.clone(), vec![0, 2, 0], vec![1, 2, 3, 4]).is_err(), "length mismatch");
        assert!(Csr::from_raw_parts(3, 3, ok_ptr.clone(), vec![0, 3, 0, 1], vec![1, 2, 3, 4]).is_err(), "col out of bounds");
        assert!(Csr::from_raw_parts(3, 3, ok_ptr.clone(), vec![2, 0, 0, 1], vec![1, 2, 3, 4]).is_err(), "unsorted row");
        assert!(Csr::from_raw_parts(3, 3, ok_ptr, vec![0, 2, 0, 1], vec![1, 0, 3, 4]).is_err(), "explicit zero");
    }

    #[test]
    fn kernels_match_reference() {
        let mut rng = seeded(41);
        let d = element_sparse_matrix(30, 25, 8, 0.8, true, &mut rng).unwrap();
        let csr = Csr::from_dense(&d);
        let a = random_vector(30, 8, true, &mut rng).unwrap();
        let x = random_vector(25, 8, true, &mut rng).unwrap();
        assert_eq!(csr.vecmat(&a).unwrap(), vecmat(&a, &d).unwrap());
        assert_eq!(csr.matvec(&x).unwrap(), matvec(&d, &x).unwrap());
    }

    #[test]
    fn vecmat_into_overwrites_stale_output() {
        let mut rng = seeded(43);
        let d = element_sparse_matrix(12, 9, 8, 0.5, true, &mut rng).unwrap();
        let csr = Csr::from_dense(&d);
        let a = random_vector(12, 8, true, &mut rng).unwrap();
        let mut out = vec![-77i64; 9];
        csr.vecmat_into(&a, &mut out).unwrap();
        assert_eq!(out, vecmat(&a, &d).unwrap());
        assert!(csr.vecmat_into(&a, &mut [0; 3]).is_err());
        assert!(csr.vecmat_into(&[1, 2], &mut out).is_err());
    }

    #[test]
    fn spmm_matches_reference() {
        let mut rng = seeded(42);
        let d = element_sparse_matrix(16, 12, 8, 0.7, true, &mut rng).unwrap();
        let a = element_sparse_matrix(5, 16, 8, 0.0, true, &mut rng).unwrap();
        let csr = Csr::from_dense(&d);
        assert_eq!(csr.spmm(&a).unwrap(), smm_core::gemv::matmat(&a, &d).unwrap());
    }

    #[test]
    fn dimension_errors() {
        let d = IntMatrix::zeros(3, 4).unwrap();
        let csr = Csr::from_dense(&d);
        assert!(csr.vecmat(&[1, 2]).is_err());
        assert!(csr.matvec(&[1, 2, 3]).is_err());
    }

    #[test]
    fn empty_rows_handled() {
        let d = IntMatrix::zeros(4, 4).unwrap();
        let csr = Csr::from_dense(&d);
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.max_row_len(), 0);
        assert_eq!(csr.vecmat(&[1, 1, 1, 1]).unwrap(), vec![0; 4]);
    }

    /// Runs `n` frames through the blocked kernel into a stale buffer and
    /// holds every row to `vecmat_into` on that frame; returns what ran.
    fn assert_block_matches(csr: &Csr, frames: &[i32], n: usize) -> BlockWidths {
        let (rows, cols) = (csr.rows(), csr.cols());
        let mut expect = vec![0i64; n * cols];
        for f in 0..n {
            let o = &mut expect[f * cols..(f + 1) * cols];
            csr.vecmat_into(&frames[f * rows..(f + 1) * rows], o)
                .unwrap();
        }
        let mut got = vec![-77i64; n * cols];
        let ran = csr.vecmat_block_into(frames, n, &mut got).unwrap();
        assert_eq!(got, expect);
        assert_eq!(ran.narrow_groups + ran.wide_groups, n / G);
        assert_eq!(ran.leftover_frames, n % G);
        ran
    }

    /// The widths the rule in the rustdoc prescribes, worked out from the
    /// dense matrix rather than from the kernel's own field.
    fn expected_widths(d: &IntMatrix, frames: &[i32], n: usize) -> BlockWidths {
        let col_sum =
            |c: usize| -> u128 { d.col(c).iter().map(|w| u128::from(w.unsigned_abs())).sum() };
        let bound = (0..d.cols()).map(col_sum).max().unwrap_or(0);
        let mut expect = BlockWidths {
            leftover_frames: n % G,
            ..BlockWidths::default()
        };
        for group in frames[..(n - n % G) * d.rows()].chunks(G * d.rows()) {
            let max_x = group.iter().map(|x| x.unsigned_abs()).max().unwrap_or(0);
            if bound * u128::from(max_x) <= i32::MAX as u128 {
                expect.narrow_groups += 1;
            } else {
                expect.wide_groups += 1;
            }
        }
        expect
    }

    const BLOCK_SIZES: [usize; 6] = [0, 1, G - 1, G, G + 1, 2 * G + 3];

    proptest! {
        /// The blocked kernel is the per-frame kernel, bit for bit, at
        /// every group boundary, over shapes from 1×1 up, densities from
        /// empty to full (so empty rows and columns occur), operand widths
        /// on both sides of the `i32` rule, and with an all-zero frame in
        /// the block; the width each group ran at is the rule's.
        #[test]
        fn block_kernel_matches_per_frame_kernel(
            seed in any::<u64>(),
            rows in 1usize..24,
            cols in 1usize..24,
            sparsity in 0.0f64..=1.0,
            weight_bits in 2u32..=24,
            input_bits in 2u32..=24,
            size in 0usize..BLOCK_SIZES.len(),
        ) {
            let n = BLOCK_SIZES[size];
            let mut rng = seeded(seed);
            let d = element_sparse_matrix(rows, cols, weight_bits, sparsity, true, &mut rng).unwrap();
            let csr = Csr::from_dense(&d);
            let mut frames = random_vector(n * rows, input_bits, true, &mut rng).unwrap();
            if n > 0 {
                let zeroed = seed as usize % n;
                frames[zeroed * rows..(zeroed + 1) * rows].fill(0);
            }
            let ran = assert_block_matches(&csr, &frames, n);
            prop_assert_eq!(ran, expected_widths(&d, &frames, n));
        }
    }

    #[test]
    fn block_kernel_degenerate_shapes() {
        let n = 2 * G + 3;
        let one = Csr::from_dense(&IntMatrix::from_vec(1, 1, vec![-3]).unwrap());
        let frames: Vec<i32> = (0..n as i32).map(|i| i - 7).collect();
        assert_block_matches(&one, &frames, n);
        // No non-zeros at all, and no non-zero inputs at all.
        let empty = Csr::from_dense(&IntMatrix::zeros(5, 3).unwrap());
        assert_block_matches(&empty, &vec![9; n * 5], n);
        let d = IntMatrix::from_vec(2, 3, vec![1, 0, -2, 0, 0, 4]).unwrap();
        let ran = assert_block_matches(&Csr::from_dense(&d), &vec![0; n * 2], n);
        assert_eq!(ran.narrow_groups, 2, "a zero group is bounded by zero");
    }

    #[test]
    fn block_width_boundary_is_exact() {
        // One column summing to exactly i32::MAX in absolute value, and one
        // summing to one more; with every input 1 those are the true sums.
        let at = IntMatrix::from_vec(2, 1, vec![i32::MAX - 5, 5]).unwrap();
        let over = IntMatrix::from_vec(2, 1, vec![i32::MAX - 5, 6]).unwrap();
        let ones = vec![1i32; G * 2];
        let ran = assert_block_matches(&Csr::from_dense(&at), &ones, G);
        assert_eq!((ran.narrow_groups, ran.wide_groups), (1, 0));
        let ran = assert_block_matches(&Csr::from_dense(&over), &ones, G);
        assert_eq!((ran.narrow_groups, ran.wide_groups), (0, 1));
        // The same boundary from the input side: |x| = i32::MAX against a
        // unit column is in, i32::MIN (|x| = 2^31, no `abs()` overflow) is out.
        let unit = Csr::from_dense(&IntMatrix::from_vec(1, 1, vec![1]).unwrap());
        let mut x = vec![3i32; G];
        x[G - 1] = i32::MAX;
        assert_eq!(assert_block_matches(&unit, &x, G).narrow_groups, 1);
        x[0] = i32::MIN;
        assert_eq!(assert_block_matches(&unit, &x, G).wide_groups, 1);
        // i32::MIN as a weight: wide for any non-zero input.
        let min = Csr::from_dense(&IntMatrix::from_vec(2, 2, vec![i32::MIN, 1, 1, 0]).unwrap());
        let x: Vec<i32> = (0..2 * G as i32).map(|i| i % 3 - 1).collect();
        assert_eq!(assert_block_matches(&min, &x, G).wide_groups, 1);
    }

    #[test]
    fn block_groups_pick_their_own_width() {
        let mut rng = seeded(44);
        let d = element_sparse_matrix(20, 14, 8, 0.5, true, &mut rng).unwrap();
        let csr = Csr::from_dense(&d);
        let n = 2 * G + 3;
        let mut frames = random_vector(n * 20, 8, true, &mut rng).unwrap();
        // One 31-bit input in the second group only.
        frames[(G + 2) * 20 + 7] = i32::MIN;
        let ran = assert_block_matches(&csr, &frames, n);
        let mixed = BlockWidths {
            narrow_groups: 1,
            wide_groups: 1,
            leftover_frames: 3,
        };
        assert_eq!(ran, mixed);
    }

    #[test]
    fn block_kernel_rejects_mis_sized_buffers() {
        let d = IntMatrix::from_vec(2, 3, vec![1, 0, -2, 0, 0, 4]).unwrap();
        let csr = Csr::from_dense(&d);
        let frames = vec![1i32; 2 * G];
        let mut out = vec![0i64; 3 * G];
        let mismatch = |r: Result<BlockWidths>| matches!(r, Err(Error::DimensionMismatch { .. }));
        assert!(mismatch(csr.vecmat_block_into(&frames[1..], G, &mut out)));
        assert!(mismatch(csr.vecmat_block_into(&frames, G - 1, &mut out)));
        assert!(mismatch(csr.vecmat_block_into(&frames, G, &mut out[1..])));
        assert!(mismatch(csr.vecmat_block_into(&frames, G, &mut [])));
        let huge = usize::MAX;
        assert!(mismatch(csr.vecmat_block_into(&frames, huge, &mut out)));
        assert!(mismatch(csr.vecmat_block_into(&[], 1, &mut [])));
        csr.vecmat_block_into(&frames, G, &mut out).unwrap();
    }
}
