//! Compressed sparse row (CSR) format — the layout cuSPARSE-style SpMV
//! kernels operate on, and the source of the indexing overhead the paper's
//! spatial approach eliminates.
//!
//! A [`Csr`] holds its non-zeros twice, both layouts derived from the
//! fixed matrix at construction: **rows for blocks, column slices for
//! single frames.** The row-major arrays are the format itself; the
//! 16-frame group kernel of [`Csr::vecmat_block_into`] walks them once per
//! group with the weights stationary, and [`Csr::vecmat_scatter_into`],
//! the oracle every other kernel is held to, walks only the rows of a
//! frame's non-zero inputs. The column slices (`slices.rs`) are the same
//! non-zeros cut into four-column slices for the output-stationary gather
//! that serves every single frame through [`Csr::vecmat_into`]; only a
//! matrix too large for the slices scatters its frames instead.
//!
//! Each kernel has two rungs, decided per group or per frame from two
//! numbers, `max_col_abs_sum` of the matrix and `max|x|` of the operands:
//! a narrow rung that the serving traffic takes, and `i64` lanes, which
//! are exact for everything else.
//!
//! **Multiply width.** A 16-frame group whose inputs are `|x| < 2^14`,
//! against a matrix whose weights are all `|w| ≤ i16::MAX`, and whose
//! sums cannot leave `i32`, multiplies 16 × 16 → 32 bits (four products
//! per SSE2 `pmaddwd` instead of an emulated 32-bit multiply per lane)
//! into `i32` lanes; any other group runs in `i64` lanes. The bits are
//! equal because the 16-bit form is exact: its inputs are offset into
//! non-negative `i16`s, the offset is cancelled by where each column's
//! lanes start, and wrapping `i32` addition is exact for sums that fit
//! `i32` (the rule and the argument are in [`Csr::vecmat_block_into`]).
//! Which instruction the compiler picks is codegen, seen in the `kernels`
//! bench; the contract is the oracle tests, which hold every kernel to
//! the scatter on both sides of every rule.
//!
//! **Lane width.** The gather of one frame accumulates in `f32` lanes
//! when the frame's bound `max_col_abs_sum × max|a|` is at most `2^24`
//! (every integer that large is exactly an `f32`, and four lanes convert,
//! multiply and add as one SSE vector each, where integer lanes take four
//! scalar multiplies), else in `i64` lanes. The bits are equal because
//! every value an `f32` lane holds is an integer it represents exactly;
//! the argument is in [`Csr::vecmat_into`].

use crate::coo::Coo;
use crate::slices::ColumnSlices;
use smm_core::error::{Error, Result};
use smm_core::matrix::IntMatrix;
use smm_core::wire::MatrixBody;
use std::ops::{AddAssign, Mul};

/// Frames per weight-stationary group in [`Csr::vecmat_block_into`]:
/// one cache line of `i32` lanes per matrix row and per output column.
const G: usize = 16;

/// The 16-bit multiply's input offset: an input `|x| < BIAS` becomes
/// `x + BIAS` in `1..2^15`, a non-negative `i16`.
const BIAS: i32 = 1 << 14;

/// Every integer of magnitude at most `2^24` is exactly an `f32`.
const F32_EXACT: u128 = 1 << 24;

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
    /// and never serialised: the bound both kernels size their
    /// accumulators from.
    max_col_abs_sum: u64,
    /// Where the 16-bit multiply of [`Csr::vecmat_block_into`] starts the
    /// lanes of each column, `−BIAS · Σ_r w_rc` (wrapping), derived with
    /// the bound and never serialised; `None` unless every weight fits
    /// `|w| ≤ i16::MAX`.
    i16_start: Option<Vec<i32>>,
    /// The same non-zeros as column slices, derived with the bound; `None`
    /// when the matrix is too large for the slices' `u32` indices, and
    /// every frame then takes the scatter.
    slices: Option<ColumnSlices>,
}

/// Transposes `G` row-major frames of `rows` elements into frame-minor
/// `xt[row * G + frame]`, returning `max|x|` over the group. `max|x|` is
/// one contiguous pass over the group; the transpose then goes one
/// `G × G` tile at a time (the last one `rows mod G` rows short), so each
/// frame's run of `G` inputs lands in a 1 KiB tile that stays in L1,
/// where a full-length pass per frame would stride through the whole
/// `rows × G` buffer `G` times.
fn transpose_in(x: &[i32], rows: usize, xt: &mut Vec<i32>) -> u32 {
    let max_x = x.iter().fold(0, |max, &v| max.max(v.unsigned_abs()));
    xt.resize(rows * G, 0);
    for (r0, tile) in (0..).step_by(G).zip(xt.chunks_mut(G * G)) {
        let tile_rows = tile.len() / G;
        for f in 0..G {
            let run = &x[f * rows + r0..f * rows + r0 + tile_rows];
            for (&v, lanes) in run.iter().zip(tile.chunks_exact_mut(G)) {
                lanes[f] = v;
            }
        }
    }
    max_x
}

/// Writes the `G` output rows of `cols` elements each from frame-minor
/// accumulators `acc[col * G + frame]`, one `G × G` tile of columns at a
/// time, as [`transpose_in`] reads.
fn transpose_out<A: Copy + Into<i64>>(acc: &[A], cols: usize, out: &mut [i64]) {
    for (c0, tile) in (0..).step_by(G).zip(acc.chunks(G * G)) {
        for (f, row) in out.chunks_exact_mut(cols).enumerate() {
            for (o, lanes) in row[c0..].iter_mut().zip(tile.chunks_exact(G)) {
                *o = lanes[f].into();
            }
        }
    }
}

/// What one [`Csr::vecmat_block_into`] call ran: full groups by
/// accumulator width. The frames past the last full group go through
/// [`Csr::vecmat_into`] and are not counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockWidths {
    /// Groups multiplied in 16 bits into `i32` lanes.
    pub narrow_groups: usize,
    /// Groups accumulated in `i64` lanes.
    pub wide_groups: usize,
}

/// The layout, and for a gather the lane type, that served one frame of
/// [`Csr::vecmat_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Single {
    GatheredF32,
    GatheredI64,
    Scattered,
}

/// An accumulator lane of the gather: `f32` or `i64`.
pub(crate) trait Lane: Copy + Default + AddAssign + Mul<Output = Self> {
    fn from_i32(v: i32) -> Self;
    fn widen(self) -> i64;
}

impl Lane for i64 {
    fn from_i32(v: i32) -> Self {
        i64::from(v)
    }
    fn widen(self) -> i64 {
        self
    }
}

/// Exact only where the *Lane width* rule of [`Csr::vecmat_into`] puts
/// it: there every value it holds is an integer of magnitude at most
/// [`F32_EXACT`], so both conversions are exact.
impl Lane for f32 {
    fn from_i32(v: i32) -> Self {
        v as f32
    }
    fn widen(self) -> i64 {
        self as i64
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
        Self::finish(coo.rows(), coo.cols(), row_ptr, col_idx, values)
    }

    /// The one exit of every constructor: derives the accumulator bound,
    /// the 16-bit multiply's starting lanes and the column slices from
    /// validated arrays (every column index `< cols`, rows ascending), in
    /// work proportional to the non-zeros.
    fn finish(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<i32>,
    ) -> Self {
        let mut col_len = vec![0usize; cols];
        // Saturating instead of wrapping, which only ever selects the
        // wide accumulator.
        let mut col_abs_sum = vec![0u64; cols];
        let mut start = vec![0i32; cols];
        let mut weights_fit_i16 = true;
        for (&c, &v) in col_idx.iter().zip(&values) {
            col_len[c] += 1;
            col_abs_sum[c] = col_abs_sum[c].saturating_add(u64::from(v.unsigned_abs()));
            start[c] = start[c].wrapping_sub(BIAS.wrapping_mul(v));
            weights_fit_i16 &= v.unsigned_abs() <= i16::MAX as u32;
        }
        Self {
            rows,
            cols,
            max_col_abs_sum: col_abs_sum.into_iter().max().unwrap_or(0),
            i16_start: weights_fit_i16.then_some(start),
            slices: ColumnSlices::build(&col_len, &row_ptr, &col_idx, &values),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Converts the non-zeros of a dense matrix: the three arrays are
    /// written directly, at their exact size — the arrays
    /// [`Csr::from_coo`] builds from [`Coo::from_dense`], without the
    /// triples in between.
    pub fn from_dense(dense: &IntMatrix) -> Self {
        /// Elements per group; an all-zero group costs one OR-reduction.
        const GROUP: usize = 8;
        let (rows, cols) = (dense.rows(), dense.cols());
        let nnz = dense.nnz();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        // Both loops write at a cursor that only a hit advances (a miss
        // is overwritten by whatever comes next), so neither has a
        // data-dependent branch; the one slot of slack takes the misses
        // after the last hit.
        let mut col_idx = vec![0usize; nnz + 1];
        let mut values = vec![0i32; nnz + 1];
        let mut at = 0;
        let mut live = vec![0usize; cols / GROUP + 1];
        for row in dense.as_slice().chunks_exact(cols) {
            let (groups, tail) = row.as_chunks::<GROUP>();
            let mut n_live = 0;
            for (g, group) in groups.iter().enumerate() {
                live[n_live] = g * GROUP;
                n_live += usize::from(group.iter().fold(0, |any, &v| any | v) != 0);
            }
            let mut keep = |c: usize, v: i32| {
                col_idx[at] = c;
                values[at] = v;
                at += usize::from(v != 0);
            };
            for &c0 in &live[..n_live] {
                for (c, &v) in (c0..).zip(&row[c0..c0 + GROUP]) {
                    keep(c, v);
                }
            }
            for (c, &v) in (cols - tail.len()..).zip(tail) {
                keep(c, v);
            }
            row_ptr.push(at);
        }
        col_idx.truncate(nnz);
        values.truncate(nnz);
        Self::finish(rows, cols, row_ptr, col_idx, values)
    }

    /// Converts a matrix body's non-zeros: the row counts become the
    /// row pointers and the columns and values are copied out as they
    /// are — the arrays [`Csr::from_dense`] builds for the body's matrix,
    /// with no dense pass. A [`MatrixBody`] is validated when it is made,
    /// so the arrays need no check here.
    pub fn from_body(body: &MatrixBody) -> Self {
        let mut row_ptr = Vec::with_capacity(body.rows() + 1);
        row_ptr.push(0);
        row_ptr.extend(body.row_counts().scan(0, |at, count| {
            *at += count;
            Some(*at)
        }));
        Self::finish(body.rows(), body.cols(), row_ptr, body.columns().collect(), body.values())
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
        Ok(Self::finish(rows, cols, row_ptr, col_idx, values))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
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

    /// `o = aᵀV`, allocating the output: [`Csr::vecmat_into`] into a
    /// fresh vector.
    pub fn vecmat(&self, a: &[i32]) -> Result<Vec<i64>> {
        let mut out = vec![0i64; self.cols];
        self.vecmat_into(a, &mut out)?;
        Ok(out)
    }

    /// `o = aᵀV` into a caller-owned output slice of exactly
    /// [`Csr::cols`] elements — the single-vector kernel behind every
    /// engine call that is not a full group of
    /// [`Csr::vecmat_block_into`]. Stale contents of `out` are
    /// overwritten.
    ///
    /// *One layout.* The frame is **gathered** through the column slices:
    /// four output columns at a time, one register accumulator each,
    /// `acc[l] += w · a[row]` down the slice and one store per column at
    /// the end. A gather walks every non-zero whatever the frame holds, so
    /// a one-hot frame costs what a full one does. Only a matrix too large
    /// for the slices' `u32` indices has none, and its frames are
    /// **scattered** by [`Csr::vecmat_scatter_into`].
    ///
    /// *Addition order.* A lane of the gather is one output column with
    /// its terms added in ascending row order, so each output receives
    /// exactly the additions the scatter gives it, plus an explicit `+ 0`
    /// for every zero input and every padding entry — the same bits,
    /// including wherever an `i64` sum would wrap.
    ///
    /// *Lane width.* By the bound of [`Csr::vecmat_block_into`], applied
    /// to this one frame, every partial sum of every output is at most
    /// `B = max_col_abs_sum × max|a|` in magnitude. A gather runs in `f32`
    /// lanes when `B ≤ 2^24`, else in `i64` lanes, which are the scatter's
    /// arithmetic. The `f32` lanes give the same bits as the `i64`
    /// scatter:
    /// - with `max|a| ≥ 1`, every stored weight is at most
    ///   `max_col_abs_sum ≤ B`, every input is at most `max|a| ≤ B` unless
    ///   the matrix stores no non-zero (and then nothing is multiplied),
    ///   and every product and partial sum is an integer of magnitude at
    ///   most `B ≤ 2^24`;
    /// - an all-zero frame makes every product 0, whatever the weights
    ///   round to;
    /// - so each conversion, multiply and add is exact in `f32` (Rust
    ///   never contracts a multiply and an add into an FMA), and each
    ///   output converts back to the integer the `i64` sum reaches;
    /// - padding and zero inputs add `±0`, which changes no sum.
    pub fn vecmat_into(&self, a: &[i32], out: &mut [i64]) -> Result<()> {
        self.single_into(a, out).map(drop)
    }

    /// [`Csr::vecmat_into`] by the row-major scatter alone,
    /// `out[col] += v · a[row]` over the rows of the non-zero inputs:
    /// the reference every other kernel is held to, and the kernel of a
    /// matrix without column slices.
    pub fn vecmat_scatter_into(&self, a: &[i32], out: &mut [i64]) -> Result<()> {
        self.check_single(a, out)?;
        self.scatter(a, out);
        Ok(())
    }

    fn check_single(&self, a: &[i32], out: &[i64]) -> Result<()> {
        if a.len() != self.rows {
            return Err(Error::DimensionMismatch {
                context: format!("vector length {} vs rows {}", a.len(), self.rows),
            });
        }
        if out.len() != self.cols {
            return Err(Error::DimensionMismatch {
                context: format!("output length {} vs cols {}", out.len(), self.cols),
            });
        }
        Ok(())
    }

    /// One frame through the column slices, in the lanes its bound picks,
    /// or through the scatter when the matrix has no slices.
    fn single_into(&self, a: &[i32], out: &mut [i64]) -> Result<Single> {
        self.check_single(a, out)?;
        let Some(slices) = &self.slices else {
            self.scatter(a, out);
            return Ok(Single::Scattered);
        };
        let max_a = a.iter().fold(0, |max, v| v.unsigned_abs().max(max));
        Ok(if self.bound(max_a) <= F32_EXACT {
            slices.gather::<f32>(a, out);
            Single::GatheredF32
        } else {
            slices.gather::<i64>(a, out);
            Single::GatheredI64
        })
    }

    /// The most any partial sum of any output can reach in magnitude when
    /// every input is at most `max_x` in absolute value.
    fn bound(&self, max_x: u32) -> u128 {
        u128::from(self.max_col_abs_sum) * u128::from(max_x)
    }

    /// Whether no partial sum of any output can leave `i32` when every
    /// input is at most `max_x` in absolute value.
    fn fits_i32(&self, max_x: u32) -> bool {
        self.bound(max_x) <= i32::MAX as u128
    }

    /// Zeroes `out` (`cols` elements) and accumulates `aᵀV` into it row
    /// by row, skipping zero inputs.
    ///
    /// Every constructor guarantees `col < self.cols`, so with
    /// `out.len() == self.cols` asserted once up front the per-element
    /// `get_mut` never misses; it is there so the loop has no panic path.
    fn scatter(&self, a: &[i32], out: &mut [i64]) {
        assert_eq!(out.len(), self.cols, "output length vs cols");
        out.fill(0);
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
    /// [`Csr::vecmat_scatter_into`] adds them; the only difference is that
    /// a zero input contributes an explicit `+ 0` instead of being
    /// skipped.
    ///
    /// *Width.* Every partial sum of output column `c` over any prefix of
    /// the rows satisfies
    /// `|Σ w_rc · x_r| ≤ Σ_r |w_rc| · max|x| ≤ max_c Σ_r |w_rc| · max|x|`.
    /// The first factor is a constant of the fixed matrix, computed once
    /// at construction; the second is read off the group while it is
    /// transposed. A group multiplies in 16 bits into `i32` lanes when
    /// three rules hold: the product is at most `i32::MAX`; every weight
    /// of the matrix fits `|w| ≤ i16::MAX` (checked once, at
    /// construction); and every input of the group fits `|x| < 2^14` (read
    /// off the same `max|x|`; the rule is on `|x|`, so `−2^14` is out).
    /// Any other group accumulates in `i64` lanes, exactly as
    /// [`Csr::vecmat_scatter_into`] does.
    ///
    /// *The 16-bit multiply.* Each input is offset to `x + 2^14`, a
    /// non-negative `i16`, so each product is a 16 × 16 → 32-bit multiply,
    /// and the lanes of column `c` start at `−2^14 · Σ_r w_rc` instead of
    /// 0. The offset terms cancel that start exactly: the lanes add in
    /// wrapping `i32`, which is exact modulo 2^32, and the true sum of
    /// every output fits `i32` by the first rule, so each lane widens to
    /// the `i64` sum. That the compiler turns the 16-bit form into
    /// `pmaddwd` (four products and their widening per instruction, on
    /// baseline SSE2) is codegen, not contract; the contract is the oracle
    /// tests.
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
        let mut widths = BlockWidths::default();
        // Scratch for the whole call, sized by the first group that uses it.
        let (mut xt, mut narrow, mut wide) = (Vec::new(), Vec::new(), Vec::new());
        for g in (0..full).step_by(G) {
            let x = &frames[g * rows..(g + G) * rows];
            let o = &mut out[g * cols..(g + G) * cols];
            let max_x = transpose_in(x, rows, &mut xt);
            if let Some(start) = self.i16_start(max_x) {
                self.run_group_i16(&xt, start, &mut narrow, o);
                widths.narrow_groups += 1;
            } else {
                self.run_group(&xt, &mut wide, o);
                widths.wide_groups += 1;
            }
        }
        for f in full..n {
            let a = &frames[f * rows..(f + 1) * rows];
            let o = &mut out[f * cols..(f + 1) * cols];
            self.single_into(a, o)?;
        }
        Ok(widths)
    }

    /// One group through the blocked kernel in `i64` lanes: zeroes `acc`
    /// (`cols × G`, frame-minor), walks the non-zeros once against the
    /// transposed inputs `xt` (`rows × G`), and writes the `G` output
    /// rows.
    fn run_group(&self, xt: &[i32], acc: &mut Vec<i64>, out: &mut [i64]) {
        acc.clear();
        acc.resize(self.cols * G, 0);
        for (r, x) in xt.chunks_exact(G).enumerate() {
            let x: [i64; G] = std::array::from_fn(|f| i64::from(x[f]));
            let lo = self.row_ptr[r];
            let hi = self.row_ptr[r + 1];
            for (&c, &v) in self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]) {
                debug_assert!(c < self.cols, "CSR column invariant violated");
                let v = i64::from(v);
                if let Some(o) = acc.get_mut(c * G..(c + 1) * G) {
                    for (o, &x) in o.iter_mut().zip(&x) {
                        *o += v * x;
                    }
                }
            }
        }
        transpose_out(acc, self.cols, out);
    }

    /// The starting lanes of the 16-bit multiply, if a group whose inputs
    /// are at most `max_x` in absolute value may take it (the *Width*
    /// rules of [`Csr::vecmat_block_into`]).
    fn i16_start(&self, max_x: u32) -> Option<&[i32]> {
        self.i16_start
            .as_deref()
            .filter(|_| max_x < BIAS as u32 && self.fits_i32(max_x))
    }

    /// [`Csr::run_group`] in `i32` lanes with the 16-bit multiply: lanes
    /// start at `start` (one value per column) and every input is offset
    /// by `BIAS`; the walk, the order and the output are the same.
    fn run_group_i16(&self, xt: &[i32], start: &[i32], acc: &mut Vec<i32>, out: &mut [i64]) {
        acc.clear();
        acc.extend(start.iter().flat_map(|&s| [s; G]));
        for (r, x) in xt.chunks_exact(G).enumerate() {
            // The mask changes no bit of an offset input; it shows the
            // compiler a non-negative `i16`, which is what lets it use
            // `pmaddwd`.
            let x: [i32; G] = std::array::from_fn(|f| (x[f] + BIAS) & 0x7FFF);
            let lo = self.row_ptr[r];
            let hi = self.row_ptr[r + 1];
            for (&c, &v) in self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]) {
                debug_assert!(c < self.cols, "CSR column invariant violated");
                let v = i32::from(v as i16);
                if let Some(o) = acc.get_mut(c * G..(c + 1) * G) {
                    for (o, &x) in o.iter_mut().zip(&x) {
                        *o = o.wrapping_add(v * x);
                    }
                }
            }
        }
        transpose_out(acc, self.cols, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smm_core::gemv::vecmat;
    use smm_core::generate::{element_sparse_matrix, random_vector};
    use smm_core::rng::{seeded, Rng};

    #[test]
    fn csr_structure_small() {
        let d = IntMatrix::from_vec(3, 3, vec![1, 0, 2, 0, 0, 0, 3, 4, 0]).unwrap();
        let csr = Csr::from_dense(&d);
        assert_eq!(csr.row_ptr(), &[0, 2, 2, 4]);
        assert_eq!(csr.values.len(), 4);
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
        assert_eq!(csr.vecmat(&a).unwrap(), vecmat(&a, &d).unwrap());
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
        let mut flat = vec![0i64; 5 * 12];
        csr.vecmat_block_into(a.as_slice(), 5, &mut flat).unwrap();
        for (b, row) in flat.chunks(12).enumerate() {
            assert_eq!(row, vecmat(a.row(b), &d).unwrap().as_slice());
        }
    }

    #[test]
    fn dimension_errors() {
        let d = IntMatrix::zeros(3, 4).unwrap();
        let csr = Csr::from_dense(&d);
        assert!(csr.vecmat(&[1, 2]).is_err());
    }

    #[test]
    fn empty_rows_handled() {
        let d = IntMatrix::zeros(4, 4).unwrap();
        let csr = Csr::from_dense(&d);
        assert!(csr.values.is_empty());
        assert_eq!(csr.vecmat(&[1, 1, 1, 1]).unwrap(), vec![0; 4]);
    }

    /// One frame through both single-vector kernels, each into a stale
    /// buffer, and as a one-frame block: the outputs must be the same
    /// bits. Returns the layout and lane that ran.
    fn assert_gather_matches_scatter(csr: &Csr, a: &[i32]) -> Single {
        let mut oracle = vec![-77i64; csr.cols()];
        csr.vecmat_scatter_into(a, &mut oracle).unwrap();
        let mut got = vec![77i64; csr.cols()];
        let single = csr.single_into(a, &mut got).unwrap();
        assert_eq!(got, oracle, "{csr:?} × {a:?} in {single:?}");
        got.fill(-1);
        let ran = csr.vecmat_block_into(a, 1, &mut got).unwrap();
        assert_eq!(got, oracle);
        assert_eq!(ran, BlockWidths::default(), "{a:?}");
        single
    }

    /// `max_c Σ_r |w_rc|`, worked out from the dense matrix.
    fn max_col_abs_sum(d: &IntMatrix) -> u128 {
        let col_sum =
            |c: usize| -> u128 { d.col(c).iter().map(|w| u128::from(w.unsigned_abs())).sum() };
        (0..d.cols()).map(col_sum).max().unwrap_or(0)
    }

    /// The lane the rustdoc's rule prescribes for one gathered frame,
    /// worked out from the dense matrix and the frame.
    fn expected_single(d: &IntMatrix, a: &[i32]) -> Single {
        let max_a = a.iter().map(|x| u128::from(x.unsigned_abs())).max().unwrap_or(0);
        if max_col_abs_sum(d) * max_a <= 1 << 24 {
            Single::GatheredF32
        } else {
            Single::GatheredI64
        }
    }

    /// A frame of `len` inputs with exactly `nonzero` of them non-zero,
    /// in one run (cyclically) from index `first`.
    fn frame_with_nonzeros(
        len: usize,
        nonzero: usize,
        first: usize,
        bits: u32,
        rng: &mut Rng,
    ) -> Vec<i32> {
        let mut a = random_vector(len, bits, true, rng).unwrap();
        for (i, x) in a.iter_mut().enumerate() {
            if (i + len - first) % len >= nonzero {
                *x = 0;
            } else if *x == 0 {
                *x = -1;
            }
        }
        a
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The gather is the scatter, bit for bit: every `cols mod 4`,
        /// fewer than four columns, a single row, matrices from empty to
        /// full, frames from all-zero through one-hot, one short of half,
        /// exactly half (rounded up) and all but one to full, and operands
        /// on both sides of the `f32` rule: drawn widths, or the frame's
        /// largest input set to the most the `f32` lane admits for this
        /// matrix, or one more. The lane that ran is the rule's.
        #[test]
        fn gather_matches_scatter(
            seed in any::<u64>(),
            rows in 1usize..=40,
            cols in 1usize..=40,
            sparsity in 0.0f64..=1.0,
            weight_bits in 2u32..=31,
            input_bits in 2u32..=31,
            density in 0usize..6,
            edge in 0usize..3,
        ) {
            // 40 products of a `w`-bit weight and an `x`-bit input stay
            // inside `i64` (no overflow panic in a debug build) while
            // `w + x ≤ 59`.
            let input_bits = input_bits.min(59 - weight_bits);
            let mut rng = seeded(seed);
            let d = element_sparse_matrix(rows, cols, weight_bits, sparsity, true, &mut rng).unwrap();
            let csr = Csr::from_dense(&d);
            let nonzero = [0, 1, (rows - 1) / 2, rows.div_ceil(2), rows - 1, rows][density];
            let first = seed as usize % rows;
            let mut a = frame_with_nonzeros(rows, nonzero, first, input_bits, &mut rng);
            // Edges 1 and 2 put `max|a|` at the most the `f32` lane admits
            // for this matrix and at one more.
            if edge > 0 && csr.max_col_abs_sum > 0 && nonzero > 0 {
                let over = u128::from(edge == 2);
                let m = (F32_EXACT / u128::from(csr.max_col_abs_sum) + over).min(1 << 31);
                for x in &mut a {
                    if u128::from(x.unsigned_abs()) > m {
                        *x = x.signum() * m as i32;
                    }
                }
                a[first] = if m == 1 << 31 { i32::MIN } else { m as i32 * a[first].signum() };
            }
            let ran = assert_gather_matches_scatter(&csr, &a);
            prop_assert_eq!(ran, expected_single(&d, &a), "{:?} × {:?}", d, a);
            prop_assert_eq!(csr.vecmat(&a).unwrap(), vecmat(&a, &d).unwrap());
        }
    }

    #[test]
    fn single_width_boundary_is_exact() {
        // The extremes of `i32` one frame at a time, all past the `f32`
        // rule and so in `i64` lanes: a column summing to exactly
        // `i32::MAX` and one to one more, `±i32::MAX` and `i32::MIN` as
        // inputs, and `i32::MIN` as a weight against `i32::MIN`.
        let at = Csr::from_dense(&IntMatrix::from_vec(2, 1, vec![i32::MAX - 5, 5]).unwrap());
        let over = Csr::from_dense(&IntMatrix::from_vec(2, 1, vec![i32::MAX - 5, 6]).unwrap());
        for csr in [&at, &over] {
            assert_eq!(assert_gather_matches_scatter(csr, &[1, 1]), Single::GatheredI64);
            assert_eq!(assert_gather_matches_scatter(csr, &[-1, -1]), Single::GatheredI64);
        }
        assert_eq!(over.vecmat(&[1, 1]).unwrap(), vec![i64::from(i32::MAX) + 1]);
        let unit = Csr::from_dense(&IntMatrix::from_vec(1, 1, vec![1]).unwrap());
        assert_gather_matches_scatter(&unit, &[i32::MAX]);
        assert_gather_matches_scatter(&unit, &[i32::MIN]);
        let min = Csr::from_dense(&IntMatrix::from_vec(2, 2, vec![i32::MIN, 1, 1, 0]).unwrap());
        for a in [[i32::MIN, 1], [1, -1], [0, i32::MIN], [0, 0]] {
            assert_gather_matches_scatter(&min, &a);
        }
    }

    #[test]
    fn single_f32_boundary_is_exact() {
        // A column of 257 ones against inputs of 65,281: the bound is
        // 257 × 65,281 = 2^24 + 1, and so is the true sum, which is odd
        // and not an `f32` (an `f32` lane would round it to 2^24). It must
        // take the `i64` lane.
        let over = Csr::from_dense(&IntMatrix::from_vec(257, 1, vec![1; 257]).unwrap());
        assert_eq!(over.bound(65_281), F32_EXACT + 1);
        let a = vec![65_281; 257];
        assert_eq!(assert_gather_matches_scatter(&over, &a), Single::GatheredI64);
        assert_eq!(over.vecmat(&a).unwrap(), vec![16_777_217]);
        // 256 ones against 65,536: a bound of exactly 2^24 takes `f32`,
        // and every partial sum, 2^24 included, is exact.
        let at = Csr::from_dense(&IntMatrix::from_vec(256, 1, vec![1; 256]).unwrap());
        for x in [65_536, -65_536] {
            let a = vec![x; 256];
            assert_eq!(assert_gather_matches_scatter(&at, &a), Single::GatheredF32);
            assert_eq!(at.vecmat(&a).unwrap(), vec![256 * i64::from(x)]);
        }
        // An empty matrix bounds any frame by 0, so inputs past 2^24 take
        // `f32` too: the slices store no entry, nothing multiplies them,
        // and every output is still written.
        let empty = Csr::from_dense(&IntMatrix::zeros(3, 2).unwrap());
        let a = [i32::MAX, i32::MIN, (1 << 24) + 1];
        assert_eq!(assert_gather_matches_scatter(&empty, &a), Single::GatheredF32);
        assert_eq!(empty.vecmat(&a).unwrap(), vec![0, 0]);
    }

    /// Entries the column slices store beyond the non-zeros.
    fn padding(csr: &Csr) -> usize {
        csr.slices.as_ref().unwrap().padded_len() - csr.values.len()
    }

    #[test]
    fn slice_padding_is_bounded_by_the_longest_column() {
        // One full column of 80 beside eight columns of two: the full
        // sort puts the long column with the three next longest, so the
        // padding is three columns' worth of one slice and no more.
        let lopsided = IntMatrix::from_fn(80, 9, |r, c| {
            i32::from(c == 0 || r / 2 == c) * (1 + (r % 5) as i32)
        })
        .unwrap();
        let csr = Csr::from_dense(&lopsided);
        assert_eq!(csr.values.len(), 80 + 8 * 2);
        assert!(padding(&csr) <= 3 * 80, "{}", padding(&csr));
        // 4 lanes × 80 steps, then 4 × 2, then one column of 2 alone.
        assert_eq!(padding(&csr) + csr.values.len(), 4 * 80 + 4 * 2 + 4 * 2);
        let a: Vec<i32> = (0..80).map(|r| r % 7 - 3).collect();
        assert_gather_matches_scatter(&csr, &a);

        // Every column the same length, a multiple of four of them: no
        // padding at all.
        let banded = IntMatrix::from_fn(12, 8, |r, c| i32::from((r + c) % 4 == 0) * 3).unwrap();
        let csr = Csr::from_dense(&banded);
        assert_eq!(csr.values.len(), 8 * 3);
        assert_eq!(padding(&csr), 0);
        assert_gather_matches_scatter(&csr, &[5; 12]);

        // No non-zeros: nothing stored, every output still written.
        let empty = Csr::from_dense(&IntMatrix::zeros(5, 6).unwrap());
        assert_eq!(empty.slices.as_ref().unwrap().padded_len(), 0);
        assert_gather_matches_scatter(&empty, &[9; 5]);
    }

    #[test]
    fn every_constructor_derives_the_same_slices() {
        let mut rng = seeded(45);
        let d = element_sparse_matrix(30, 25, 8, 0.8, true, &mut rng).unwrap();
        let csr = Csr::from_dense(&d);
        assert!(csr.slices.is_some());
        // The artifact decode path.
        let decoded = Csr::from_raw_parts(
            30,
            25,
            csr.row_ptr().to_vec(),
            (0..30).flat_map(|r| csr.row(r).map(|(c, _)| c)).collect(),
            (0..30).flat_map(|r| csr.row(r).map(|(_, v)| v)).collect(),
        )
        .unwrap();
        assert_eq!(decoded.slices, csr.slices);
        assert_eq!(Csr::from_coo(&Coo::from_dense(&d)).slices, csr.slices);
        assert_eq!(Csr::from_body(&MatrixBody::of(&d)), csr);
    }

    #[test]
    fn a_csr_without_slices_serves_through_the_scatter() {
        let mut rng = seeded(46);
        let d = element_sparse_matrix(12, 9, 8, 0.5, true, &mut rng).unwrap();
        let mut csr = Csr::from_dense(&d);
        csr.slices = None;
        let a = frame_with_nonzeros(12, 12, 0, 8, &mut rng);
        assert_eq!(assert_gather_matches_scatter(&csr, &a), Single::Scattered);
        assert_eq!(csr.vecmat(&a).unwrap(), vecmat(&a, &d).unwrap());
    }

    /// Runs `n` frames through the blocked kernel into a stale buffer and
    /// holds every row to `vecmat_into` and to `vecmat_scatter_into` on
    /// that frame; returns what ran.
    fn assert_block_matches(csr: &Csr, frames: &[i32], n: usize) -> BlockWidths {
        let (rows, cols) = (csr.rows(), csr.cols());
        let (mut expect, mut scattered) = (vec![0i64; n * cols], vec![0i64; n * cols]);
        for f in 0..n {
            let a = &frames[f * rows..(f + 1) * rows];
            csr.vecmat_into(a, &mut expect[f * cols..(f + 1) * cols])
                .unwrap();
            csr.vecmat_scatter_into(a, &mut scattered[f * cols..(f + 1) * cols])
                .unwrap();
        }
        assert_eq!(expect, scattered);
        let mut got = vec![-77i64; n * cols];
        let ran = csr.vecmat_block_into(frames, n, &mut got).unwrap();
        assert_eq!(got, expect);
        assert_eq!(ran.narrow_groups + ran.wide_groups, n / G);
        ran
    }

    /// The width the rules in the rustdoc prescribe for each group, worked
    /// out from the dense matrix and the frames rather than from the
    /// kernel's own fields.
    fn expected_widths(d: &IntMatrix, frames: &[i32], n: usize) -> BlockWidths {
        let bound = max_col_abs_sum(d);
        let weights_fit_i16 = d.as_slice().iter().all(|w| w.unsigned_abs() <= i16::MAX as u32);
        let mut expect = BlockWidths::default();
        for group in frames[..(n - n % G) * d.rows()].chunks(G * d.rows()) {
            let max_x = group.iter().map(|x| x.unsigned_abs()).max().unwrap_or(0);
            if weights_fit_i16 && max_x < 1 << 14 && bound * u128::from(max_x) <= i32::MAX as u128 {
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
        /// empty to full (so empty rows and columns occur), 2- to 24-bit
        /// operands on both sides of each rule of the 16-bit multiply (the
        /// `i32` bound, weights at 16 bits, inputs at 15), and with an
        /// all-zero frame in the block; the width each group ran at is the
        /// rules'.
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

    /// The tiled transposes at every tile tail: rows and columns short
    /// of, at and past one and two tiles, and at the serving shape, in
    /// blocks of one to three groups with and without frames left over,
    /// through the 16-bit multiply and `i64` lanes. Every row is the
    /// per-frame kernel's, bit for bit.
    #[test]
    fn block_kernel_matches_per_frame_kernel_at_tile_tails() {
        let dims = [1, G - 1, G, G + 1, 2 * G + 1, 1024];
        let mut rng = seeded(4300);
        // Groups run by the 16-bit multiply, and in `i64` lanes.
        let mut ran = [0usize; 2];
        for rows in dims {
            for cols in dims {
                let d = element_sparse_matrix(rows, cols, 8, 0.9, true, &mut rng).unwrap();
                let csr = Csr::from_dense(&d);
                for n in [G, G + 1, 2 * G, 3 * G] {
                    // 8-bit inputs take the 16-bit multiply; 17-bit ones
                    // are past it, in `i64` lanes.
                    for input_bits in [8, 17] {
                        let frames = random_vector(n * rows, input_bits, true, &mut rng).unwrap();
                        let widths = assert_block_matches(&csr, &frames, n);
                        assert_eq!(widths, expected_widths(&d, &frames, n), "{rows}x{cols}, {n}");
                        ran[0] += widths.narrow_groups;
                        ran[1] += widths.wide_groups;
                    }
                }
            }
        }
        assert!(ran.iter().all(|&groups| groups > 0), "{ran:?}");
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
        // The `i32` rule, with weights and inputs inside the 16-bit ones:
        // one column of 65,538 weights of i16::MAX and a last one of 1
        // sums to exactly i32::MAX, and with a last one of 2 to one more;
        // with every input ±1 those are the true sums. One past i32::MAX
        // would wrap to i32::MIN in `i32` lanes.
        let max = i32::from(i16::MAX);
        let column = |last: i32| {
            let mut weights = vec![max; 65_539];
            weights[65_538] = last;
            Csr::from_dense(&IntMatrix::from_vec(65_539, 1, weights).unwrap())
        };
        let (at, over) = (column(1), column(2));
        assert!(at.fits_i32(1) && !over.fits_i32(1));
        for (csr, widths, sum) in [(&at, (1, 0), i64::from(i32::MAX)), (&over, (0, 1), 1 << 31)] {
            for x in [1, -1] {
                let frames = vec![x; G * 65_539];
                let ran = assert_block_matches(csr, &frames, G);
                assert_eq!((ran.narrow_groups, ran.wide_groups), widths);
                let mut out = vec![0i64; G];
                csr.vecmat_block_into(&frames, G, &mut out).unwrap();
                assert_eq!(out, vec![sum * i64::from(x); G]);
            }
        }
        // The extremes of `i32`, all in `i64` lanes: |x| = i32::MAX and
        // i32::MIN (|x| = 2^31, no `abs()` overflow) against a unit column,
        // and i32::MIN as a weight.
        let unit = Csr::from_dense(&IntMatrix::from_vec(1, 1, vec![1]).unwrap());
        let mut x = vec![3i32; G];
        x[G - 1] = i32::MAX;
        assert_eq!(assert_block_matches(&unit, &x, G).wide_groups, 1);
        x[0] = i32::MIN;
        assert_eq!(assert_block_matches(&unit, &x, G).wide_groups, 1);
        let min = Csr::from_dense(&IntMatrix::from_vec(2, 2, vec![i32::MIN, 1, 1, 0]).unwrap());
        let x: Vec<i32> = (0..2 * G as i32).map(|i| i % 3 - 1).collect();
        assert_eq!(assert_block_matches(&min, &x, G).wide_groups, 1);
    }

    #[test]
    fn block_multiply_width_boundary_is_exact() {
        // Weights: ±i16::MAX are in; i16::MIN is out too, because the rule
        // is on |w|, and so are 32768 and −32769.
        let x: Vec<i32> = (0..2 * G as i32).map(|i| i % 7 - 3).collect();
        let max = i32::from(i16::MAX);
        let weights = [
            (max, true),
            (-max, true),
            (-max - 1, false),
            (max + 1, false),
            (-max - 2, false),
        ];
        for (w, in_i16) in weights {
            let csr = Csr::from_dense(&IntMatrix::from_vec(2, 2, vec![w, 1, -1, w]).unwrap());
            assert_eq!(csr.i16_start(3).is_some(), in_i16, "weight {w}");
            let ran = assert_block_matches(&csr, &x, G);
            assert_eq!(ran.narrow_groups, usize::from(in_i16), "weight {w}");
        }
        // Inputs: |x| ≤ 2^14 − 1 are in; −2^14 is out too, and so are 2^14
        // and −2^14 − 1. An input of 2^14 would offset to 2^15, which is
        // not an `i16`.
        let d = IntMatrix::from_vec(2, 3, vec![max, -5, 0, -max, 0, 7]).unwrap();
        let csr = Csr::from_dense(&d);
        let inputs = [
            (BIAS - 1, true),
            (1 - BIAS, true),
            (-BIAS, false),
            (BIAS, false),
            (-BIAS - 1, false),
        ];
        for (edge, in_i16) in inputs {
            let mut x = x.clone();
            x[G + 3] = edge;
            let took_i16 = csr.i16_start(edge.unsigned_abs()).is_some();
            assert_eq!(took_i16, in_i16, "input {edge}");
            let ran = assert_block_matches(&csr, &x, G);
            assert_eq!(ran, expected_widths(&d, &x, G), "input {edge}");
            assert_eq!(ran.narrow_groups, usize::from(in_i16), "input {edge}");
        }
        // Where the lanes wrap: 64 weights of i16::MAX in one column under
        // inputs of ±1024, the largest the `i32` rule admits here. The true
        // sums, ±2,147,418,112, are inside `i32`; the start,
        // −2^14 · 64 · 32767 ≈ −3.4 · 10^10, wraps eight times, and the
        // outputs are still exact.
        let tall = Csr::from_dense(&IntMatrix::from_vec(64, 1, vec![max; 64]).unwrap());
        assert!(tall.i16_start(1024).is_some() && tall.i16_start(1025).is_none());
        for edge in [1024, -1024] {
            let x = vec![edge; 64 * G];
            assert_eq!(assert_block_matches(&tall, &x, G).narrow_groups, 1);
            let mut out = vec![0i64; G];
            tall.vecmat_block_into(&x, G, &mut out).unwrap();
            assert_eq!(out, vec![64 * i64::from(max) * i64::from(edge); G]);
        }
        // One block, the first group inside the 16-bit rule and the second
        // (one input of 2^14) outside it: each at its own width, both exact.
        let mut frames: Vec<i32> = (0..2 * G as i32 * 2).map(|i| i % 5 - 2).collect();
        frames[(G + 1) * 2] = BIAS;
        let ran = assert_block_matches(&csr, &frames, 2 * G);
        assert_eq!((ran.narrow_groups, ran.wide_groups), (1, 1));
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
