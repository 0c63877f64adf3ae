//! Compressed sparse row (CSR) format — the layout cuSPARSE-style SpMV
//! kernels operate on, and the source of the indexing overhead the paper's
//! spatial approach eliminates.
//!
//! A [`Csr`] is the fixed matrix's body plus its column slices. The body
//! ([`MatrixBody`], shared with whoever else holds the matrix) is the
//! row-major format itself, at four bytes of column and one to four of
//! value per non-zero: its scatter, [`Csr::vecmat_scatter_into`], the
//! oracle every other kernel is held to, walks only the rows of a frame's
//! non-zero inputs. The column slices (`slices.rs`) are the same non-zeros
//! cut into four-column slices, derived at construction, each walked
//! output-stationary: a single frame is gathered through them by
//! [`Csr::vecmat_into`], and a 16-frame group by
//! [`Csr::vecmat_block_into`], each column's sums kept in registers until
//! its slice is done, as the paper's spatial multiplier keeps each
//! output's adder tree to its own column.
//!
//! **Lane width.** Both kernels size their sums by one rule, read off two
//! numbers: `max_col_abs_sum` of the matrix, settled at construction, and
//! `max|x|` of the operands. When their product, the bound, is at most
//! `2^24` and the matrix has column slices, every value a sum can hold is
//! an integer an `f32` represents exactly, so a single frame and a
//! 16-frame group are gathered through the slices in `f32` lanes, which
//! convert, multiply and add four to a vector on baseline SSE2, where
//! integer lanes take a scalar multiply each. Otherwise a frame is
//! scattered, and a group is cut into **digit planes** narrow enough for
//! the rule, as the paper's multiplier takes its input one bit-plane at a
//! time, and each plane is gathered in `f32` lanes; a group no digit
//! split fits runs frame by frame. The bits are equal on every path: the
//! argument is in [`Csr::vecmat_into`], and [`Csr::vecmat_block_into`]
//! adds what differs for a group and its digits. The column slices are
//! built only for a matrix whose `max_col_abs_sum` is at most `2^24` (the
//! only kind a non-zero frame can be gathered against) and whose rows fit
//! the slices' `u16` row indices: at most `2^16` of them.
//! Which instructions the compiler picks is codegen, seen in the
//! `kernels` bench; the contract is the oracle tests, which hold every
//! kernel to the scatter on both sides of the rule.

use crate::slices::{ColumnSlices, Group, GROUP, MAX_ROWS};
use smm_core::error::{Error, Result};
use smm_core::matrix::IntMatrix;
use smm_core::wire::{put_body, Cursor, MatrixBody};
use std::ops::Range;
use std::sync::Arc;

/// Frames per group in [`Csr::vecmat_block_into`]:
/// one cache line of 4-byte lanes per matrix row and per output column.
pub(crate) const G: usize = 16;

/// Every integer of magnitude at most `2^24` is exactly an `f32`.
const F32_EXACT: u128 = 1 << 24;

/// A CSR sparse matrix: the matrix's body, whose row counts, column
/// indices (sorted within each row) and values are the format, and what
/// the kernels derive from it.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    /// The non-zeros, row-major. Shared rather than copied: a serving
    /// fleet's engine holds the same allocation as the fleet's tier.
    body: Arc<MatrixBody>,
    /// `max_c Σ_r |w_rc|`, derived from the body at construction and
    /// never serialised: the bound both kernels size their accumulators
    /// from.
    max_col_abs_sum: u64,
    /// The same non-zeros as column slices, derived with the bound; `None`
    /// unless the matrix has at most `2^16` rows (the slices' `u16` row
    /// indices) and a `max_col_abs_sum` of at most `2^24` (the *Lane
    /// width* rule), and every frame then takes the scatter and every
    /// group runs frame by frame.
    slices: Option<ColumnSlices>,
}

/// `==` is an equivalence: the body and the bound are integers, and the
/// column slices are `Eq` (every weight an integer-valued `f32`).
impl Eq for Csr {}

/// Transposes digit `(x >> shift) & mask` of `G` row-major frames of
/// `rows` elements into the first `rows` frame-minor `f32` rows of
/// `plane`, `plane[row][frame]`; the rows past them keep what they held.
/// It goes one `G × G` tile at a time (the last one `rows mod G` rows
/// short), so each frame's run of `G` inputs lands in a tile that stays
/// in L1 (1 KiB of `f32`s), where a full-length pass per frame would
/// stride through the whole `rows × G` plane `G` times.
fn transpose_in(x: &[i32], rows: usize, plane: &mut [[f32; G]; MAX_ROWS], shift: u32, mask: i32) {
    for (r0, tile) in (0..).step_by(G).zip(plane[..rows].chunks_mut(G)) {
        for f in 0..G {
            let run = &x[f * rows + r0..f * rows + r0 + tile.len()];
            for (&v, lanes) in run.iter().zip(tile.iter_mut()) {
                lanes[f] = ((v >> shift) & mask) as f32;
            }
        }
    }
}

/// Combines a digit plane's frame-minor sums `acc[col][frame]` into the
/// `G` output rows of `cols` elements each, one `G × G` tile of columns
/// at a time, as [`transpose_in`] reads: the plane at shift 0, the first,
/// stores `exact_i64(sum)`, and every later one adds `exact_i64(sum) <<
/// shift`. [`exact_i64`] is there because the obvious conversions are
/// slow: Rust's float-to-integer casts saturate, and the clamps of `as
/// i64` (or of `as i32 as i64`) cost a group ~34 µs per 64 frames on a
/// 1024² matrix, while [`exact_i64`] vectorises.
fn transpose_out(acc: &[[f32; G]], cols: usize, out: &mut [i64], shift: u32) {
    for (c0, tile) in (0..).step_by(G).zip(acc.chunks(G)) {
        for (f, row) in out.chunks_exact_mut(cols).enumerate() {
            for (o, lanes) in row[c0..].iter_mut().zip(tile) {
                let plane = exact_i64(lanes[f]) << shift;
                *o = if shift == 0 { plane } else { *o + plane };
            }
        }
    }
}

/// An integer-valued `f32` of magnitude below `2^51` as an `i64`, with no
/// clamp: added to `1.5 · 2^52` in `f64`, where the spacing is exactly 1,
/// the integer lands in the low mantissa bits, and subtracting the bits
/// of `1.5 · 2^52` leaves it. `−0.0` becomes 0.
fn exact_i64(v: f32) -> i64 {
    const MAGIC: f64 = (3u64 << 51) as f64;
    (f64::from(v) + MAGIC).to_bits() as i64 - MAGIC.to_bits() as i64
}

/// What one [`Csr::vecmat_block_into`] call ran: full groups on each side
/// of the *Lane width* rule. The frames past the last full group go
/// through [`Csr::vecmat_into`] and are not counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockWidths {
    /// Groups inside the rule, gathered through the column slices in one
    /// pass.
    pub narrow_groups: usize,
    /// Groups past the rule, or on a matrix without column slices: cut
    /// into digit planes, each gathered in its own pass, or, where no
    /// digit split exists, run frame by frame.
    pub wide_groups: usize,
}

/// The layout that served one frame of [`Csr::vecmat_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Single {
    Gathered,
    Scattered,
}

impl Csr {
    /// Converts the non-zeros of a dense matrix: the matrix's body
    /// ([`MatrixBody::of`], one scan of the dense elements), then
    /// [`Csr::from_body`].
    pub fn from_dense(dense: &IntMatrix) -> Self {
        Self::from_body(Arc::new(MatrixBody::of(dense)))
    }

    /// The CSR over a matrix body, which it keeps, shared: the one exit
    /// of every constructor. The accumulator bound and the column slices
    /// are derived from the body's non-zeros, in work proportional to
    /// them. A [`MatrixBody`] is validated when it is made, so nothing
    /// is checked here.
    pub fn from_body(body: Arc<MatrixBody>) -> Self {
        let values = body.values();
        let mut col_len = vec![0usize; body.cols()];
        // Saturating instead of wrapping, which only ever selects the
        // wide accumulator.
        let mut col_abs_sum = vec![0u64; body.cols()];
        for (c, &v) in body.columns().zip(&values) {
            col_len[c] += 1;
            col_abs_sum[c] = col_abs_sum[c].saturating_add(u64::from(v.unsigned_abs()));
        }
        let max_col_abs_sum = col_abs_sum.into_iter().max().unwrap_or(0);
        let slices = (u128::from(max_col_abs_sum) <= F32_EXACT)
            .then(|| ColumnSlices::build(&body, &col_len, &values))
            .flatten();
        Self {
            body,
            max_col_abs_sum,
            slices,
        }
    }

    /// Reassembles a CSR from raw row-major arrays — the deserialization
    /// entry point, so the arrays are treated as untrusted. Both
    /// dimensions must be non-zero, `row_ptr` must be a monotone
    /// `rows + 1`-length prefix sum ending at `values.len()`, and every
    /// column index must fit the body's `u32`; then the arrays are
    /// written as a body and read back through the body's own check
    /// ([`Cursor::take_matrix_body`]), which refuses a column out of
    /// bounds or not strictly increasing within its row, and a stored
    /// zero.
    pub fn from_raw_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<i32>,
    ) -> Result<Self> {
        let invalid = |context: String| Error::DimensionMismatch { context };
        if rows == 0 || cols == 0 {
            return Err(Error::EmptyDimension);
        }
        if rows.checked_add(1) != Some(row_ptr.len()) {
            return Err(invalid(format!("row_ptr length {} vs rows {rows} + 1", row_ptr.len())));
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
        if let Some(r) = row_ptr.windows(2).position(|span| span[0] > span[1]) {
            return Err(invalid(format!("row_ptr not monotone at row {r}")));
        }
        let column = |c: usize| {
            u32::try_from(c).map_err(|_| invalid(format!("column index {c} past u32")))
        };
        let columns = col_idx.into_iter().map(column).collect::<Result<Vec<u32>>>()?;
        // A row count past `u32` needs more non-zeros than the body's
        // check admits, which it refuses from the header.
        let counts: Vec<u32> = row_ptr.windows(2).map(|span| (span[1] - span[0]) as u32).collect();
        let mut bytes = Vec::new();
        put_body(&mut bytes, rows, cols, &counts, &columns, &values);
        let body = Cursor::new(&bytes).take_matrix_body()?;
        Ok(Self::from_body(Arc::new(body)))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.body.rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.body.cols()
    }

    /// The matrix's body: its shape and its non-zeros, row-major
    /// ([`MatrixBody::row_counts`], [`MatrixBody::columns`],
    /// [`MatrixBody::values`]), and the dense matrix
    /// ([`MatrixBody::to_matrix`]).
    pub fn body(&self) -> &MatrixBody {
        &self.body
    }

    /// `o = aᵀV`, allocating the output: [`Csr::vecmat_into`] into a
    /// fresh vector.
    pub fn vecmat(&self, a: &[i32]) -> Result<Vec<i64>> {
        let mut out = vec![0i64; self.cols()];
        self.vecmat_into(a, &mut out)?;
        Ok(out)
    }

    /// `o = aᵀV` into a caller-owned output slice of exactly
    /// [`Csr::cols`] elements — the single-vector kernel behind every
    /// engine call that is not a full group of
    /// [`Csr::vecmat_block_into`]. Stale contents of `out` are
    /// overwritten.
    ///
    /// *Two layouts.* A frame is **gathered** through the column slices:
    /// four output columns at a time, two register accumulators each (one
    /// for the slice's even steps, one for its odd), `acc[l] += w · a[row]`
    /// down the slice, and one add and one store per column at the end. A
    /// gather walks every non-zero whatever the frame holds, so a one-hot
    /// frame costs what a full one does. A frame the *Lane width* rule
    /// keeps out of `f32`, and every frame of a matrix without slices, is
    /// **scattered** by [`Csr::vecmat_scatter_into`].
    ///
    /// *Lane width.* The sum of any subset of an output's terms satisfies
    /// `|Σ w_rc · a_r| ≤ Σ_r |w_rc| · max|a| ≤ B = max_col_abs_sum × max|a|`:
    /// the first factor is a constant of the fixed matrix, computed once at
    /// construction, the second is read off the frame. A frame is
    /// gathered, in `f32` lanes, when the matrix has slices and
    /// `B ≤ 2^24`; slices exist only where `max_col_abs_sum ≤ 2^24`. The
    /// gather gives the same bits as the `i64` scatter:
    /// - every stored weight is at most `max_col_abs_sum ≤ 2^24`; with
    ///   `max|a| ≥ 1`, every input is at most `max|a| ≤ B` unless the
    ///   matrix stores no non-zero (and then nothing is multiplied);
    /// - an all-zero frame makes every product 0;
    /// - *addition order*: each accumulator set holds the sum of a subset
    ///   of each output's terms (its even or its odd steps, rows ascending
    ///   within each), and the final add is the sum of all of them, so
    ///   every product, partial sum and total is an integer of magnitude
    ///   at most `B ≤ 2^24`, whatever the order;
    /// - so each conversion, multiply and add is exact in `f32` (Rust
    ///   never contracts a multiply and an add into an FMA), and each
    ///   output converts back to the integer the scatter's `i64` sum
    ///   reaches, which for `|sum| ≤ 2^24` does not wrap;
    /// - padding and zero inputs add `±0`, which changes no sum.
    pub fn vecmat_into(&self, a: &[i32], out: &mut [i64]) -> Result<()> {
        self.single_into(a, out).map(drop)
    }

    /// [`Csr::vecmat_into`] by the row-major scatter alone,
    /// `out[col] += v · a[row]` over the rows of the non-zero inputs
    /// ([`MatrixBody::vecmat_into`]): the reference every other kernel is
    /// held to, and the kernel of a matrix without column slices.
    pub fn vecmat_scatter_into(&self, a: &[i32], out: &mut [i64]) -> Result<()> {
        self.check_single(a, out)?;
        self.body.vecmat_into(a, out)
    }

    fn check_single(&self, a: &[i32], out: &[i64]) -> Result<()> {
        if a.len() != self.rows() {
            return Err(Error::DimensionMismatch {
                context: format!("vector length {} vs rows {}", a.len(), self.rows()),
            });
        }
        if out.len() != self.cols() {
            return Err(Error::DimensionMismatch {
                context: format!("output length {} vs cols {}", out.len(), self.cols()),
            });
        }
        Ok(())
    }

    /// One frame through the column slices when its bound is inside the
    /// `f32` rule, else through the scatter.
    fn single_into(&self, a: &[i32], out: &mut [i64]) -> Result<Single> {
        self.check_single(a, out)?;
        let max_a = a.iter().fold(0, |max, v| v.unsigned_abs().max(max));
        Ok(match &self.slices {
            Some(slices) if self.in_f32(max_a) => {
                slices.gather(a, out);
                Single::Gathered
            }
            _ => {
                self.body.vecmat_into(a, out)?;
                Single::Scattered
            }
        })
    }

    /// The most any partial sum of any output can reach in magnitude when
    /// every input is at most `max_x` in absolute value.
    fn bound(&self, max_x: u32) -> u128 {
        u128::from(self.max_col_abs_sum) * u128::from(max_x)
    }

    /// The *Lane width* rule of both kernels: whether operands at most
    /// `max_x` in absolute value may run in `f32` lanes.
    fn in_f32(&self, max_x: u32) -> bool {
        self.bound(max_x) <= F32_EXACT
    }

    /// `n` products at once: `frames` is `n` row-major input vectors of
    /// [`Csr::rows`] elements, `out` receives `n` row-major rows of
    /// [`Csr::cols`] elements (stale contents are overwritten), each
    /// bit-identical to [`Csr::vecmat_into`] on that frame.
    ///
    /// Frames run in groups of 16. A group's `max|x|` is read first, and
    /// the *Lane width* rule, the one [`Csr::vecmat_into`] applies to a
    /// frame, picks how the group runs. On a matrix with column slices it
    /// is cut into digit planes, `x = Σ_j d_j · 2^(b·j)`, and each plane is
    /// transposed to frame-minor `f32` rows and **gathered**: each slice
    /// runs two lane-pair passes, `acc[col][0..16] += w · d[row][0..16]`
    /// down its entries, and each column's sums are stored once, then
    /// combined into the caller's rows. A group inside the rule is one
    /// plane, the inputs themselves. The `n mod 16` frames past the last
    /// full group, and every frame of a group that no digit split fits,
    /// go through [`Csr::vecmat_into`]. A plane and its sums live in a
    /// buffer per thread, kept from call to call, so a call allocates
    /// nothing once its thread has run a group as wide.
    ///
    /// *Digits.* Past the rule, `b = 24 − ⌈log2 max_col_abs_sum⌉` and `k`
    /// is the fewest digits with `max|x| < 2^(b·k)`:
    /// - each low digit `j < k − 1` is `(x >> b·j) & (2^b − 1)`, in
    ///   `[0, 2^b)`;
    /// - the top digit is `x >> b·(k − 1)`, signed: `|x| < 2^(b·k)` puts
    ///   it in `[−2^b, 2^b)`, so `x = −2^(b·k) + 1` has a top digit of
    ///   `−2^b`;
    /// - so every plane's bound is at most `max_col_abs_sum · 2^b ≤
    ///   2^⌈log2 max_col_abs_sum⌉ · 2^b = 2^24`, inside the rule;
    /// - the first plane's sums are stored and each later plane's are added
    ///   shifted left by `b·j`, in `i64`. Each is exact. After plane `j < k
    ///   − 1` the combine holds the products of the inputs' low `b·(j + 1)`
    ///   bits, below `2^(b·(k − 1)) ≤ max|x| ≤ 2^31`, and after the top
    ///   plane the output, so every value it holds is at most `2^23 · 2^31
    ///   = 2^54` in magnitude, and no build profile can overflow it.
    ///
    /// A matrix with `max_col_abs_sum > 2^23` has no `b` of one bit or
    /// more: a top digit of `−2` would take a plane past `2^24`. Its groups
    /// past the rule run frame by frame, and so does every group of a
    /// matrix without slices (more than `2^16` rows, or a column summing
    /// past `2^24`), as it scatters every frame.
    ///
    /// *Width.* Each gathered plane gives the `i64` scatter's bits for its
    /// digits. The argument of [`Csr::vecmat_into`] holds for every frame
    /// of the group, whose digits are within the plane's bound. What
    /// differs is the accumulators:
    /// - *the lane-pair pass*: a slice's lanes 0–1 run first, then lanes
    ///   2–3 (a last slice of one or two columns runs one pass). A pass
    ///   holds `2 × 16` `f32` sums, one per column and frame, in eight SSE
    ///   registers, and nothing is stored per non-zero. A step is only its
    ///   multiply-adds: the weight is stored as the `f32` it is (exactly,
    ///   as slices exist only where every weight is at most `2^24`), and
    ///   its `u16` row indexes the thread's plane of `2^16` rows with no
    ///   check, reading one of the `rows` the transpose wrote;
    /// - each sum receives its column's terms in ascending row order, one
    ///   at a time, so every value it holds is a sum of a subset of its
    ///   output's terms, an integer of magnitude at most `B ≤ 2^24`;
    /// - a lane padded past its column's length adds `0 · d[0] = ±0`,
    ///   which changes no sum;
    /// - each column's sums are written out once per plane, by an exact
    ///   conversion (`−0.0` becomes 0).
    ///
    /// Mis-sized `frames` or `out` return [`Error::DimensionMismatch`].
    pub fn vecmat_block_into(
        &self,
        frames: &[i32],
        n: usize,
        out: &mut [i64],
    ) -> Result<BlockWidths> {
        let (rows, cols) = (self.rows(), self.cols());
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
        for g in (0..full).step_by(G) {
            let x = &frames[g * rows..(g + G) * rows];
            let max_x = x.iter().fold(0, |max, &v| max.max(v.unsigned_abs()));
            let Some((slices, (b, k))) = self.slices.as_ref().zip(self.digits(max_x)) else {
                self.frames_into(frames, g..g + G, out)?;
                widths.wide_groups += 1;
                continue;
            };
            let o = &mut out[g * cols..(g + G) * cols];
            GROUP.with_borrow_mut(|Group { plane, acc }| {
                for j in 0..k {
                    let mask = if j + 1 < k { (1 << b) - 1 } else { -1 };
                    transpose_in(x, rows, plane, b * j, mask);
                    slices.gather_group(plane, rows, acc);
                    transpose_out(acc, cols, o, b * j);
                }
            });
            if k == 1 {
                widths.narrow_groups += 1;
            } else {
                widths.wide_groups += 1;
            }
        }
        self.frames_into(frames, full..n, out)?;
        Ok(widths)
    }

    /// Frames `range` of a block, one at a time through
    /// [`Csr::vecmat_into`].
    fn frames_into(&self, frames: &[i32], range: Range<usize>, out: &mut [i64]) -> Result<()> {
        let (rows, cols) = (self.rows(), self.cols());
        for f in range {
            let a = &frames[f * rows..(f + 1) * rows];
            self.single_into(a, &mut out[f * cols..(f + 1) * cols])?;
        }
        Ok(())
    }

    /// The digit split of a group whose inputs are at most `max_x` in
    /// absolute value, as `(b, k)`: one digit, the input itself, inside
    /// the *Lane width* rule, else `k` digits of `b` bits as
    /// [`Csr::vecmat_block_into`] sets out. `None` past the rule when
    /// `max_col_abs_sum > 2^23`, where `b` would be under one bit.
    fn digits(&self, max_x: u32) -> Option<(u32, u32)> {
        if self.in_f32(max_x) {
            return Some((0, 1));
        }
        // Past the rule, `max_col_abs_sum ≥ 1`.
        let log2 = u64::BITS - (self.max_col_abs_sum - 1).leading_zeros();
        let b = 24u32.checked_sub(log2).filter(|&b| b > 0)?;
        Some((b, (u32::BITS - max_x.leading_zeros()).div_ceil(b)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slices::MAX_ROWS;
    use proptest::prelude::*;
    use smm_core::gemv::vecmat;
    use smm_core::generate::{element_sparse_matrix, random_vector};
    use smm_core::rng::{seeded, Rng};

    #[test]
    fn csr_structure_small() {
        let d = IntMatrix::from_vec(3, 3, vec![1, 0, 2, 0, 0, 0, 3, 4, 0]).unwrap();
        let csr = Csr::from_dense(&d);
        assert_eq!(csr.body.row_counts().collect::<Vec<_>>(), [2, 0, 2]);
        assert_eq!(csr.body.nnz(), 4);
        assert_eq!(csr.body.to_matrix().unwrap(), d);
    }

    /// The direct build against its body read back through the body's
    /// own check: the same body and derived fields, a bound that is the
    /// dense matrix's, and the dense matrix back.
    fn assert_direct_build_matches_body_route(d: &IntMatrix) {
        let direct = Csr::from_dense(d);
        let read = Cursor::new(MatrixBody::of(d).as_bytes()).take_matrix_body().unwrap();
        let via_body = Csr::from_body(Arc::new(read));
        assert_eq!(u128::from(direct.max_col_abs_sum), max_col_abs_sum(d), "{d:?}");
        assert_eq!(direct, via_body, "{d:?}");
        assert_eq!(direct.body.to_matrix().unwrap(), *d);
    }

    #[test]
    fn from_dense_matches_the_body_route_on_edge_shapes() {
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
            assert_direct_build_matches_body_route(d);
        }
    }

    proptest! {
        #[test]
        fn from_dense_matches_the_body_route(
            seed in any::<u64>(),
            rows in 1usize..24,
            cols in 1usize..24,
            sparsity in 0.0f64..=1.0,
            weight_bits in 2u32..=31,
        ) {
            let mut rng = seeded(seed);
            let d = element_sparse_matrix(rows, cols, weight_bits, sparsity, true, &mut rng).unwrap();
            assert_direct_build_matches_body_route(&d);
        }
    }

    #[test]
    fn from_raw_parts_round_trips_and_validates() {
        let d = IntMatrix::from_vec(3, 3, vec![1, 0, 2, 0, 0, 0, 3, 4, 0]).unwrap();
        let csr = Csr::from_dense(&d);
        let (row_ptr, col_idx, values) = raw_parts(&csr);
        let rebuilt = Csr::from_raw_parts(3, 3, row_ptr, col_idx, values).unwrap();
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
        assert!(Csr::from_raw_parts(2, 3, vec![0, 100, 5], vec![0, 1, 2, 0, 1], vec![1; 5]).is_err(), "pointer past the end");
        // A column past `u32` is refused, not truncated: 2^32 + 1 would
        // alias column 1 and pass as the row `[0, 1]`.
        let wide = Csr::from_raw_parts(3, 3, vec![0, 2, 2, 4], vec![0, (1 << 32) + 1, 0, 1], vec![1, 2, 3, 4]);
        assert!(matches!(wide, Err(Error::DimensionMismatch { .. })), "column past u32: {wide:?}");
        // No rows, or no columns: no body holds either.
        let no_rows = Csr::from_raw_parts(0, 3, vec![0], vec![], vec![]);
        assert!(matches!(no_rows, Err(Error::EmptyDimension)), "no rows: {no_rows:?}");
        let no_cols = Csr::from_raw_parts(3, 0, vec![0; 4], vec![], vec![]);
        assert!(matches!(no_cols, Err(Error::EmptyDimension)), "no columns: {no_cols:?}");
        // A row count with no `rows + 1` is refused, not overflowed.
        assert!(Csr::from_raw_parts(usize::MAX, 3, vec![0], vec![], vec![]).is_err(), "rows + 1 past usize");
    }

    /// `csr`'s non-zeros as the raw arrays [`Csr::from_raw_parts`] takes.
    fn raw_parts(csr: &Csr) -> (Vec<usize>, Vec<usize>, Vec<i32>) {
        let ends = csr.body.row_counts().scan(0, |at, count| {
            *at += count;
            Some(*at)
        });
        let row_ptr = std::iter::once(0).chain(ends).collect();
        (row_ptr, csr.body.columns().collect(), csr.body.values())
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
        assert_eq!(csr.body.nnz(), 0);
        assert_eq!(csr.vecmat(&[1, 1, 1, 1]).unwrap(), vec![0; 4]);
    }

    /// One frame through both single-vector kernels, each into a stale
    /// buffer, and as a one-frame block: the outputs must be the same
    /// bits. Returns the layout that ran.
    fn assert_gather_matches_scatter(csr: &Csr, a: &[i32]) -> Single {
        let mut oracle = vec![-77i64; csr.cols()];
        csr.vecmat_scatter_into(a, &mut oracle).unwrap();
        let mut got = vec![77i64; csr.cols()];
        let single = csr.single_into(a, &mut got).unwrap();
        assert_same_columns(csr, a, &got, &oracle, &format!("{single:?}"));
        got.fill(-1);
        let ran = csr.vecmat_block_into(a, 1, &mut got).unwrap();
        assert_same_columns(csr, a, &got, &oracle, "as a one-frame block");
        assert_eq!(ran, BlockWidths::default());
        single
    }

    /// Fails at the first column where `got` is not `oracle`, naming the
    /// shape, the non-zeros and `max|a|` rather than printing the matrix
    /// and the frame, which for a 65,537-row matrix run to megabytes.
    fn assert_same_columns(csr: &Csr, a: &[i32], got: &[i64], oracle: &[i64], path: &str) {
        if let Some(c) = (0..oracle.len()).find(|&c| got[c] != oracle[c]) {
            let max_a = a.iter().map(|x| x.unsigned_abs()).max().unwrap_or(0);
            panic!(
                "{}x{} with {} non-zeros, max|a| {max_a}, {path}: column {c} is {}, not {}",
                csr.rows(),
                csr.cols(),
                csr.body.nnz(),
                got[c],
                oracle[c]
            );
        }
    }

    /// `max_c Σ_r |w_rc|`, worked out from the dense matrix.
    fn max_col_abs_sum(d: &IntMatrix) -> u128 {
        let col_sum =
            |c: usize| -> u128 { d.col(c).iter().map(|w| u128::from(w.unsigned_abs())).sum() };
        (0..d.cols()).map(col_sum).max().unwrap_or(0)
    }

    /// The layout the rustdoc's rule prescribes for one frame, worked out
    /// from the dense matrix and the frame.
    fn expected_single(d: &IntMatrix, a: &[i32]) -> Single {
        let max_a = a.iter().map(|x| u128::from(x.unsigned_abs())).max().unwrap_or(0);
        let sum = max_col_abs_sum(d);
        if d.rows() <= 1 << 16 && sum <= 1 << 24 && sum * max_a <= 1 << 24 {
            Single::Gathered
        } else {
            Single::Scattered
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
        /// matrix, or one more, which is scattered. The layout that ran is
        /// the rule's.
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
        // rule and so scattered: a column summing to exactly `i32::MAX`
        // and one to one more (neither has slices), `±i32::MAX` and
        // `i32::MIN` as inputs, and `i32::MIN` as a weight against
        // `i32::MIN`.
        let at = Csr::from_dense(&IntMatrix::from_vec(2, 1, vec![i32::MAX - 5, 5]).unwrap());
        let over = Csr::from_dense(&IntMatrix::from_vec(2, 1, vec![i32::MAX - 5, 6]).unwrap());
        for csr in [&at, &over] {
            assert_eq!(assert_gather_matches_scatter(csr, &[1, 1]), Single::Scattered);
            assert_eq!(assert_gather_matches_scatter(csr, &[-1, -1]), Single::Scattered);
        }
        assert_eq!(over.vecmat(&[1, 1]).unwrap(), vec![i64::from(i32::MAX) + 1]);
        let unit = Csr::from_dense(&IntMatrix::from_vec(1, 1, vec![1]).unwrap());
        assert_eq!(assert_gather_matches_scatter(&unit, &[i32::MAX]), Single::Scattered);
        assert_eq!(assert_gather_matches_scatter(&unit, &[i32::MIN]), Single::Scattered);
        let min = Csr::from_dense(&IntMatrix::from_vec(2, 2, vec![i32::MIN, 1, 1, 0]).unwrap());
        for a in [[i32::MIN, 1], [1, -1], [0, i32::MIN], [0, 0]] {
            assert_eq!(assert_gather_matches_scatter(&min, &a), Single::Scattered);
        }
    }

    #[test]
    fn single_f32_boundary_is_exact() {
        // A column of 257 ones against inputs of 65,281: the bound is
        // 257 × 65,281 = 2^24 + 1, and so is the true sum, which is odd
        // and not an `f32` (an `f32` lane would round it to 2^24). It must
        // be scattered.
        let over = Csr::from_dense(&IntMatrix::from_vec(257, 1, vec![1; 257]).unwrap());
        assert_eq!(over.bound(65_281), F32_EXACT + 1);
        let a = vec![65_281; 257];
        assert_eq!(assert_gather_matches_scatter(&over, &a), Single::Scattered);
        assert_eq!(over.vecmat(&a).unwrap(), vec![16_777_217]);
        // 256 ones against 65,536: a bound of exactly 2^24 takes `f32`,
        // and every partial sum, 2^24 included, is exact.
        let at = Csr::from_dense(&IntMatrix::from_vec(256, 1, vec![1; 256]).unwrap());
        for x in [65_536, -65_536] {
            let a = vec![x; 256];
            assert_eq!(assert_gather_matches_scatter(&at, &a), Single::Gathered);
            assert_eq!(at.vecmat(&a).unwrap(), vec![256 * i64::from(x)]);
        }
        // An empty matrix bounds any frame by 0, so inputs past 2^24 take
        // `f32` too: the slices store no entry, nothing multiplies them,
        // and every output is still written.
        let empty = Csr::from_dense(&IntMatrix::zeros(3, 2).unwrap());
        let a = [i32::MAX, i32::MIN, (1 << 24) + 1];
        assert_eq!(assert_gather_matches_scatter(&empty, &a), Single::Gathered);
        assert_eq!(empty.vecmat(&a).unwrap(), vec![0, 0]);
    }

    /// A `rows × 2` matrix with a few small weights, one in the last row,
    /// and an 8-bit frame whose first and last inputs differ.
    fn tall(rows: usize, rng: &mut Rng) -> (Csr, Vec<i32>) {
        let d = IntMatrix::from_fn(rows, 2, |r, c| {
            let hit = r % 509 == c || r == rows - 1;
            i32::from(hit) * (1 + (r % 5) as i32) * if c == 0 { 1 } else { -1 }
        })
        .unwrap();
        let mut a = random_vector(rows, 8, true, rng).unwrap();
        (a[0], a[rows - 1]) = (3, -100);
        (Csr::from_dense(&d), a)
    }

    #[test]
    fn slices_hold_exactly_u16_rows() {
        let mut rng = seeded(4600);
        // The most rows a `u16` names is gathered, and a group of them runs
        // through the slices in `f32`; one more row is scattered, and a
        // group frame by frame, its last row not truncated onto row 0.
        for (rows, single, widths) in [
            (MAX_ROWS, Single::Gathered, (1, 0)),
            (MAX_ROWS + 1, Single::Scattered, (0, 1)),
        ] {
            let (csr, a) = tall(rows, &mut rng);
            assert_eq!(csr.slices.is_some(), rows == MAX_ROWS);
            assert_eq!(assert_gather_matches_scatter(&csr, &a), single);
            // The frame `G` times, the last copy's last input changed.
            let mut frames = a.repeat(G);
            frames[G * rows - 1] = 77;
            let ran = assert_block_matches(&csr, &frames, G);
            assert_eq!((ran.narrow_groups, ran.wide_groups), widths, "{rows} rows");
        }
    }

    #[test]
    fn slices_need_a_column_sum_inside_f32() {
        // A column summing to exactly 2^24 has slices; one more has none,
        // so even an all-zero frame, bounded by 0, is scattered.
        let top = 1 << 24;
        let at = Csr::from_dense(&IntMatrix::from_vec(2, 2, vec![top - 7, 3, 7, -4]).unwrap());
        assert!(at.slices.is_some());
        let over = Csr::from_dense(&IntMatrix::from_vec(2, 2, vec![top - 7, 3, 8, -4]).unwrap());
        assert!(over.slices.is_none());
        assert_eq!(assert_gather_matches_scatter(&at, &[1, -1]), Single::Gathered);
        assert_eq!(assert_gather_matches_scatter(&at, &[0, 0]), Single::Gathered);
        assert_eq!(assert_gather_matches_scatter(&over, &[0, 0]), Single::Scattered);
        assert_eq!(assert_gather_matches_scatter(&over, &[1, -1]), Single::Scattered);
        assert_eq!(over.vecmat(&[1, 1]).unwrap(), vec![i64::from(top) + 1, -1]);
        // The weights the slices store as `f32`s at their edge: a lone
        // ±(2^24 − 1) or ±2^24 is stored exactly, and a frame and a
        // 16-frame group of ±1 inputs through it give the scatter's bits;
        // ±(2^24 + 1) leaves the matrix without slices.
        let lone = |w| Csr::from_dense(&IntMatrix::from_vec(3, 2, vec![0, 0, 0, w, 0, 0]).unwrap());
        let frames: Vec<i32> = (0..3 * G as i32).map(|i| i % 3 - 1).collect();
        for w in [top - 1, top, 1 - top, -top] {
            let csr = lone(w);
            assert!(csr.slices.is_some(), "weight {w}");
            for a in [[1, 1, -1], [0, -1, 0], [-1, 0, 1]] {
                assert_eq!(assert_gather_matches_scatter(&csr, &a), Single::Gathered, "weight {w}");
            }
            assert_eq!(csr.vecmat(&[0, -1, 0]).unwrap(), vec![0, -i64::from(w)]);
            let ran = assert_block_matches(&csr, &frames, G);
            assert_eq!((ran.narrow_groups, ran.wide_groups), (1, 0), "weight {w}");
        }
        for w in [top + 1, -top - 1] {
            let csr = lone(w);
            assert!(csr.slices.is_none(), "weight {w}");
            assert_eq!(assert_gather_matches_scatter(&csr, &[0, -1, 0]), Single::Scattered);
            let ran = assert_block_matches(&csr, &frames, G);
            assert_eq!((ran.narrow_groups, ran.wide_groups), (0, 1), "weight {w}");
        }
    }

    #[test]
    fn a_stale_frame_changes_no_bit() {
        // One thread's frame first holds 1024 inputs of up to 21 bits,
        // then a 3-row frame on top of them, then the first again.
        let mut rng = seeded(4601);
        let d = element_sparse_matrix(1024, 4, 2, 0.995, true, &mut rng).unwrap();
        let big = Csr::from_dense(&d);
        let large = random_vector(1024, 21, true, &mut rng).unwrap();
        assert!(big.bound(1 << 20) <= F32_EXACT, "{}", big.max_col_abs_sum);
        let small = Csr::from_dense(&IntMatrix::from_vec(3, 2, vec![5, -1, 0, 2, -3, 4]).unwrap());
        for _ in 0..2 {
            assert_eq!(assert_gather_matches_scatter(&big, &large), Single::Gathered);
            for a in [[1, 2, 3], [-7, 0, 9], [0, 0, 0]] {
                assert_eq!(assert_gather_matches_scatter(&small, &a), Single::Gathered);
            }
        }
    }

    #[test]
    fn threads_gather_through_their_own_frames() {
        let mut rng = seeded(4602);
        let d = element_sparse_matrix(256, 64, 8, 0.9, true, &mut rng).unwrap();
        let csr = Csr::from_dense(&d);
        let frames: Vec<Vec<Vec<i32>>> = (0..2)
            .map(|_| (0..3).map(|_| random_vector(256, 8, true, &mut rng).unwrap()).collect())
            .collect();
        // Each pass starts on both threads at once.
        let barrier = std::sync::Barrier::new(frames.len());
        std::thread::scope(|scope| {
            for own in &frames {
                let (csr, barrier) = (&csr, &barrier);
                scope.spawn(move || {
                    let expect: Vec<Vec<i64>> = own
                        .iter()
                        .map(|a| {
                            let mut o = vec![0i64; 64];
                            csr.vecmat_scatter_into(a, &mut o).unwrap();
                            o
                        })
                        .collect();
                    let mut out = vec![0i64; 64];
                    for i in 0..300 {
                        let k = i % own.len();
                        barrier.wait();
                        assert_eq!(csr.single_into(&own[k], &mut out).unwrap(), Single::Gathered);
                        assert_eq!(out, expect[k], "frame {k}, pass {i}");
                    }
                });
            }
        });
    }

    #[test]
    fn a_stale_plane_changes_no_bit() {
        // One thread's plane first holds a 1024-row group, then 3-row
        // groups on top of it, then the first matrix's rows again, now
        // two or more digit planes of them.
        let mut rng = seeded(4603);
        let d = element_sparse_matrix(1024, 8, 8, 0.99, true, &mut rng).unwrap();
        let big = Csr::from_dense(&d);
        let narrow = random_vector(G * 1024, 8, true, &mut rng).unwrap();
        let wide = random_vector(G * 1024, 20, true, &mut rng).unwrap();
        let max_wide = wide.iter().map(|x| x.unsigned_abs()).max().unwrap();
        let digits = big.digits(max_wide);
        assert!(digits.is_some_and(|(_, k)| k >= 2), "{digits:?}");
        let s = IntMatrix::from_vec(3, 2, vec![5, -1, 0, 2, -3, 4]).unwrap();
        let small = Csr::from_dense(&s);
        let smalls: Vec<Vec<i32>> = [2, 8, 24]
            .iter()
            .map(|&bits| random_vector(G * 3, bits, true, &mut rng).unwrap())
            .collect();
        for _ in 0..2 {
            let ran = assert_block_matches(&big, &narrow, G);
            assert_eq!((ran.narrow_groups, ran.wide_groups), (1, 0));
            for frames in &smalls {
                let ran = assert_block_matches(&small, frames, G);
                assert_eq!(ran, expected_widths(&s, frames, G));
            }
            let ran = assert_block_matches(&big, &wide, G);
            assert_eq!((ran.narrow_groups, ran.wide_groups), (0, 1));
        }
    }

    #[test]
    fn threads_gather_groups_through_their_own_planes() {
        let mut rng = seeded(4604);
        let d = element_sparse_matrix(256, 64, 8, 0.9, true, &mut rng).unwrap();
        let csr = Csr::from_dense(&d);
        // Each thread's own blocks: one group inside the rule, one in
        // digit planes.
        let blocks: Vec<Vec<Vec<i32>>> = (0..2)
            .map(|_| {
                [8, 20]
                    .iter()
                    .map(|&bits| random_vector(G * 256, bits, true, &mut rng).unwrap())
                    .collect()
            })
            .collect();
        // Each pass starts on both threads at once.
        let barrier = std::sync::Barrier::new(blocks.len());
        std::thread::scope(|scope| {
            for own in &blocks {
                let (csr, barrier) = (&csr, &barrier);
                scope.spawn(move || {
                    let expect: Vec<Vec<i64>> = own
                        .iter()
                        .map(|frames| {
                            let mut o = vec![0i64; G * 64];
                            for (a, o) in frames.chunks(256).zip(o.chunks_mut(64)) {
                                csr.vecmat_scatter_into(a, o).unwrap();
                            }
                            o
                        })
                        .collect();
                    let mut out = vec![0i64; G * 64];
                    for i in 0..300 {
                        let k = i % own.len();
                        barrier.wait();
                        let ran = csr.vecmat_block_into(&own[k], G, &mut out).unwrap();
                        assert_eq!(ran.narrow_groups, usize::from(k == 0), "pass {i}");
                        assert_eq!(out, expect[k], "block {k}, pass {i}");
                    }
                });
            }
        });
    }

    /// Entries the column slices store beyond the non-zeros.
    fn padding(csr: &Csr) -> usize {
        csr.slices.as_ref().unwrap().padded_len() - csr.body.nnz()
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
        assert_eq!(csr.body.nnz(), 80 + 8 * 2);
        assert!(padding(&csr) <= 3 * 80, "{}", padding(&csr));
        // 4 lanes × 80 steps, then 4 × 2, then one column of 2 alone.
        assert_eq!(padding(&csr) + csr.body.nnz(), 4 * 80 + 4 * 2 + 4 * 2);
        let a: Vec<i32> = (0..80).map(|r| r % 7 - 3).collect();
        assert_gather_matches_scatter(&csr, &a);

        // Every column the same length, a multiple of four of them: no
        // padding at all.
        let banded = IntMatrix::from_fn(12, 8, |r, c| i32::from((r + c) % 4 == 0) * 3).unwrap();
        let csr = Csr::from_dense(&banded);
        assert_eq!(csr.body.nnz(), 8 * 3);
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
        let (row_ptr, col_idx, values) = raw_parts(&csr);
        let decoded = Csr::from_raw_parts(30, 25, row_ptr, col_idx, values).unwrap();
        assert_eq!(decoded.slices, csr.slices);
        assert_eq!(Csr::from_body(Arc::new(MatrixBody::of(&d))), csr);
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

    /// The width the rule in the rustdoc prescribes for each group, worked
    /// out from the dense matrix and the frames rather than from the
    /// kernel's own fields: `f32` lanes where the matrix has slices and the
    /// group's bound is inside the rule.
    fn expected_widths(d: &IntMatrix, frames: &[i32], n: usize) -> BlockWidths {
        let sum = max_col_abs_sum(d);
        let has_slices = d.rows() <= 1 << 16 && sum <= 1 << 24;
        let mut expect = BlockWidths::default();
        for group in frames[..(n - n % G) * d.rows()].chunks(G * d.rows()) {
            let max_x = group.iter().map(|x| x.unsigned_abs()).max().unwrap_or(0);
            if has_slices && sum * u128::from(max_x) <= 1 << 24 {
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
        /// weights and 2- to 31-bit inputs on both sides of the `f32` rule
        /// (so groups of one to many digit planes, and groups run frame by
        /// frame on columns summing past `2^23`), and with an all-zero
        /// frame in the block; the width each group ran at is the rule's.
        #[test]
        fn block_kernel_matches_per_frame_kernel(
            seed in any::<u64>(),
            rows in 1usize..24,
            cols in 1usize..24,
            sparsity in 0.0f64..=1.0,
            weight_bits in 2u32..=24,
            input_bits in 2u32..=31,
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
    /// in one digit plane and in several. Columns also come two past a
    /// multiple of four, so the last column slice holds 1 (1, `G + 1`,
    /// `2G + 1` columns), 2 (2, `G + 2`), 3 (`G − 1`) and 4 (`G`, 1024)
    /// columns, and its second lane pair runs with none, one and two of
    /// them. Every row is the per-frame kernel's, bit for bit.
    #[test]
    fn block_kernel_matches_per_frame_kernel_at_tile_tails() {
        let dims = [1, G - 1, G, G + 1, 2 * G + 1, 1024];
        let col_dims = [1, 2, G - 1, G, G + 1, G + 2, 2 * G + 1, 1024];
        let mut rng = seeded(4300);
        // Groups run in one digit plane, and in several.
        let mut ran = [0usize; 2];
        for rows in dims {
            for cols in col_dims {
                let d = element_sparse_matrix(rows, cols, 8, 0.9, true, &mut rng).unwrap();
                let csr = Csr::from_dense(&d);
                for n in [G, G + 1, 2 * G, 3 * G] {
                    // 8-bit inputs are inside the rule, one plane; 17-bit
                    // ones are past it, in digit planes, but for the
                    // smallest matrices.
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
    fn lane_pairs_walk_every_slice_padding() {
        // Columns of 0 to 5 non-zeros and one more of 1. The first slice
        // (columns 5, 4, 3, 2) pads its lanes by 0, 1, 2 and 3 entries; the
        // last (6, 1, 0) holds three columns, so its second pair runs the
        // empty column beside a missing lane. Column 5's weights sum to
        // 2^12 in magnitude, the matrix's `max_col_abs_sum`.
        let cols: [&[(usize, i32)]; 7] = [
            &[],
            &[(5, 2048)],
            &[(0, -2048), (4, 3)],
            &[(1, 2048), (3, -1), (5, -1024)],
            &[(0, 7), (2, -2048), (3, 2038), (5, 2)],
            &[(0, 1), (1, -2048), (2, 1024), (3, -1000), (4, 23)],
            &[(3, 1019)],
        ];
        let mut d = IntMatrix::zeros(6, cols.len()).unwrap();
        for (c, col) in cols.iter().enumerate() {
            for &(r, w) in *col {
                d.set(r, c, w);
            }
        }
        let csr = Csr::from_dense(&d);
        assert_eq!((csr.body.nnz(), csr.max_col_abs_sum), (16, 1 << 12));
        // Five steps of four lanes, then one.
        assert_eq!(padding(&csr), 4 * 5 + 4 - 16);
        // A group of 8-bit inputs, then one of 13-bit inputs whose first
        // frame is ±2^12 with column 5's signs, so the group's bound and
        // that frame's column-5 output are both exactly 2^24, then three
        // frames past the last group.
        let mut rng = seeded(4800);
        let n = 2 * G + 3;
        let mut frames = random_vector(n * 6, 8, true, &mut rng).unwrap();
        let wide = random_vector(G * 6, 13, true, &mut rng).unwrap();
        frames[G * 6..2 * G * 6].copy_from_slice(&wide);
        for (x, w) in frames[G * 6..G * 6 + 6].iter_mut().zip(d.col(5)) {
            *x = w.signum() << 12;
        }
        let ran = assert_block_matches(&csr, &frames, n);
        assert_eq!((ran.narrow_groups, ran.wide_groups), (2, 0));
        let mut out = vec![0i64; n * 7];
        csr.vecmat_block_into(&frames, n, &mut out).unwrap();
        assert_eq!(out[G * 7 + 5], 1 << 24);
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
        // The `f32` rule's edge, as for a single frame. 256 ones under
        // inputs of ±65,536 bound every sum by exactly 2^24 and take `f32`;
        // 257 ones under 65,281 bound it by 2^24 + 1, which is also the
        // true sum, odd and not an `f32`, and take digit planes. So do
        // weights of 2^24 and 1 under ±1, where `f32` lanes would round the
        // second term away (no slices, so frame by frame); 2^24 − 1 and 1
        // sum to 2^24 and take `f32`. All the
        // weights are positive, so each output is `max_col_abs_sum × x`.
        let column = |w: Vec<i32>| Csr::from_dense(&IntMatrix::from_vec(w.len(), 1, w).unwrap());
        let top = 1 << 24;
        let cases = [
            (column(vec![1; 256]), 65_536, (1, 0)),
            (column(vec![1; 257]), 65_281, (0, 1)),
            (column(vec![top - 1, 1]), 1, (1, 0)),
            (column(vec![top, 1]), 1, (0, 1)),
        ];
        for (csr, x, widths) in &cases {
            for x in [*x, -x] {
                let frames = vec![x; G * csr.rows()];
                let ran = assert_block_matches(csr, &frames, G);
                let name = format!("{} rows, x = {x}", csr.rows());
                assert_eq!((ran.narrow_groups, ran.wide_groups), *widths, "{name}");
                let mut out = vec![0i64; G];
                csr.vecmat_block_into(&frames, G, &mut out).unwrap();
                assert_eq!(out, vec![csr.max_col_abs_sum as i64 * i64::from(x); G], "{name}");
            }
        }
        // The extremes of `i32`, all past the rule: |x| = i32::MAX and
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
        // A zero bound takes `f32` whatever the operands on a matrix with
        // slices: an empty matrix against i32::MIN inputs. The i32::MIN
        // weight leaves its matrix without slices, so an all-zero group
        // against it runs frame by frame. Every output is 0.
        let zeros = assert_block_matches(&min, &[0; 2 * G], G);
        let empty = Csr::from_dense(&IntMatrix::zeros(3, 2).unwrap());
        let nothing = assert_block_matches(&empty, &[i32::MIN; 3 * G], G);
        assert!(min.slices.is_none());
        assert_eq!((zeros.narrow_groups, zeros.wide_groups), (0, 1));
        assert_eq!((nothing.narrow_groups, nothing.wide_groups), (1, 0));
        for (csr, frames) in [(&min, vec![0; 2 * G]), (&empty, vec![i32::MIN; 3 * G])] {
            let mut out = vec![-1i64; G * csr.cols()];
            csr.vecmat_block_into(&frames, G, &mut out).unwrap();
            assert!(out.iter().all(|&o| o == 0), "{out:?}");
        }
        for v in [0.0, -0.0, 1.0, -1.0, 16_777_216.0, -16_777_216.0] {
            assert_eq!(exact_i64(v), v as i64, "{v}");
        }
    }

    #[test]
    fn block_digit_split_is_exact() {
        // Two columns of the same `max_col_abs_sum`, the second the first
        // reversed with alternate signs, against one group whose frame `f`
        // holds `xs` rotated by `f`: every row is the scatter's, and the
        // split is `b = 24 − ⌈log2 max_col_abs_sum⌉` bits by the fewest
        // digits `k` with `max|x| < 2^(b·k)`.
        let run = |weights: &[i32], xs: &[i32], digits: Option<(u32, u32)>| {
            let rows = weights.len();
            let sign = |r: usize| if r.is_multiple_of(2) { 1 } else { -1 };
            let d = IntMatrix::from_fn(rows, 2, |r, c| match c {
                0 => weights[r],
                _ => weights[rows - 1 - r] * sign(r),
            })
            .unwrap();
            let csr = Csr::from_dense(&d);
            let frames: Vec<i32> =
                (0..G).flat_map(|f| (0..rows).map(move |r| xs[(f + r) % xs.len()])).collect();
            let max_x = xs.iter().map(|x| x.unsigned_abs()).max().unwrap();
            let name = format!("max_col_abs_sum {}, max|x| {max_x}", csr.max_col_abs_sum);
            assert!(csr.slices.is_some(), "{name}");
            assert_eq!(csr.digits(max_x), digits, "{name}");
            let ran = assert_block_matches(&csr, &frames, G);
            assert_eq!((ran.narrow_groups, ran.wide_groups), (0, 1), "{name}");
        };
        let top = 1 << 24;
        // `max_col_abs_sum` 2^12, so 12-bit digits: `max|x|` at
        // 2^24 − 1 takes two, at 2^24 three. −2^24 + 1 has a top digit of
        // −2^12, whose plane is bounded by exactly 2^24.
        let pow = [2047, -1365, 683, 1];
        run(&pow, &[top - 1, 1 - top, 12_345, -1, 0, (top >> 1) + 7], Some((12, 2)));
        run(&pow, &[1 - top, 4095, -4096, 1], Some((12, 2)));
        run(&pow, &[top, 1 - top, -77, 3], Some((12, 3)));
        run(&pow, &[-top, top - 1, 5], Some((12, 3)));
        // `i32::MIN` and `i32::MAX`: three digits, the top one 7 bits.
        run(&pow, &[i32::MIN, i32::MAX, -1, 1], Some((12, 3)));
        run(&pow, &[i32::MAX, -3, 0], Some((12, 3)));
        // One more: `⌈log2⌉` is 13, so 11-bit digits.
        let over = [2047, -1365, 683, 2];
        run(&over, &[(1 << 22) - 1, 1 - (1 << 22), 99], Some((11, 2)));
        run(&over, &[1 << 22, -5], Some((11, 3)));
        run(&over, &[i32::MIN, 1 << 30], Some((11, 3)));
        // `max_col_abs_sum` 2^23: one-bit digits, a top digit of −2
        // bounded by exactly 2^24, and up to 32 planes.
        let bits = [(1 << 23) - 1, 1];
        run(&bits, &[-3, -1], Some((1, 2)));
        run(&bits, &[3, -4, 2], Some((1, 3)));
        run(&bits, &[i32::MIN, i32::MAX], Some((1, 32)));
        run(&bits, &[i32::MAX, -1], Some((1, 31)));
        // 2^23 + 1: no digit of one bit or more fits, so the group runs
        // frame by frame. One-bit digits would put −2^24 − 1, odd and not
        // an `f32`, in the top plane of `[−3, −1]`.
        let none = [1 << 23, 1];
        run(&none, &[-3, -1], None);
        run(&none, &[i32::MIN, i32::MAX], None);
    }

    #[test]
    fn block_multiply_width_boundary_is_exact() {
        // The operands at the edges of 16-bit multiplies now meet only the
        // `f32` rule, on `max_col_abs_sum × max|x|`. Weights: ±i16::MAX,
        // i16::MIN, 32768 and −32769 under inputs of at most 3 all bound
        // the group well inside 2^24.
        let x: Vec<i32> = (0..2 * G as i32).map(|i| i % 7 - 3).collect();
        let max = i32::from(i16::MAX);
        for w in [max, -max, -max - 1, max + 1, -max - 2] {
            let csr = Csr::from_dense(&IntMatrix::from_vec(2, 2, vec![w, 1, -1, w]).unwrap());
            assert!(csr.in_f32(3), "weight {w}");
            let ran = assert_block_matches(&csr, &x, G);
            assert_eq!((ran.narrow_groups, ran.wide_groups), (1, 0), "weight {w}");
        }
        // Inputs: with `max_col_abs_sum` = 65,534, |x| ≤ 256 is in and 257
        // is out, and so are ±2^14 − 1, −2^14, 2^14 and −2^14 − 1.
        let d = IntMatrix::from_vec(2, 3, vec![max, -5, 0, -max, 0, 7]).unwrap();
        let csr = Csr::from_dense(&d);
        let inputs = [
            (256, true),
            (-256, true),
            (257, false),
            (-257, false),
            (16_383, false),
            (-16_383, false),
            (-16_384, false),
            (16_384, false),
            (-16_385, false),
        ];
        for (edge, in_f32) in inputs {
            let mut x = x.clone();
            x[G + 3] = edge;
            assert_eq!(csr.in_f32(edge.unsigned_abs()), in_f32, "input {edge}");
            let ran = assert_block_matches(&csr, &x, G);
            assert_eq!(ran, expected_widths(&d, &x, G), "input {edge}");
            assert_eq!(ran.narrow_groups, usize::from(in_f32), "input {edge}");
        }
        // 64 weights of i16::MAX in one column: inputs of ±8 bound the sums
        // by 16,776,704 and take `f32`, ±9 and ±1024 do not. The true sums
        // under ±1024, ±2,147,418,112, are not all `f32`s, and the outputs
        // are still exact.
        let tall = Csr::from_dense(&IntMatrix::from_vec(64, 1, vec![max; 64]).unwrap());
        assert!(tall.in_f32(8) && !tall.in_f32(9));
        for (edge, narrow) in [(8, 1), (-8, 1), (9, 0), (-9, 0), (1024, 0), (-1024, 0)] {
            let x = vec![edge; 64 * G];
            let ran = assert_block_matches(&tall, &x, G);
            assert_eq!(ran.narrow_groups, narrow, "input {edge}");
            let mut out = vec![0i64; G];
            tall.vecmat_block_into(&x, G, &mut out).unwrap();
            assert_eq!(out, vec![64 * i64::from(max) * i64::from(edge); G]);
        }
        // One block, the first group inside the `f32` rule and the second
        // (one input of 2^14) outside it: each at its own width, both exact.
        let mut frames: Vec<i32> = (0..2 * G as i32 * 2).map(|i| i % 5 - 2).collect();
        frames[(G + 1) * 2] = 1 << 14;
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
