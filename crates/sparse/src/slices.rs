//! Column slices: the output-stationary layout behind every `f32` kernel
//! of [`Csr`](crate::csr::Csr). A single frame is gathered through them
//! by [`Csr::vecmat_into`](crate::csr::Csr::vecmat_into), and a 16-frame
//! group, one digit plane at a time, by
//! [`Csr::vecmat_block_into`](crate::csr::Csr::vecmat_block_into).
//!
//! The matrix's columns are ordered by descending non-zero count (ties by
//! ascending column) and cut into slices of [`LANES`]. A slice stores its
//! columns interleaved — entry `j` of lane `l` at `j · LANES + l`, rows
//! ascending within a column — and padded to its longest column with
//! `(row 0, weight 0)`, so both kernels keep register accumulators per
//! column and store nothing until the slice is done: a frame's four
//! columns in one pass, a group's in two passes of two columns × 16
//! frames. This is sliced ELLPACK with a full length sort (SELL-C-σ,
//! Kreutzer et al., SIAM J. Sci. Comput. 2014) at `C = 4`: what scalar
//! x86-64 has registers for.
//! Because the order is a full sort, a slice's longest column is no
//! longer than the shortest of the slice before it, and the padding sums
//! to at most `(LANES − 1) ×` the longest column of the matrix.
//!
//! The entries are two parallel arrays, `rows` (`u16`) and `weights`
//! (`i32`), 6 bytes per entry: one step's four weights are one 16-byte
//! load, which a frame's `f32` lanes convert and multiply as one vector;
//! a group broadcasts each weight over its 16 frames. A `u16` row is why
//! only a matrix of at most [`MAX_ROWS`] rows has slices: it indexes a
//! frame of exactly that many `f32`s with no mask and no bounds check. A
//! group's transposed rows are only as many as the matrix's, so there
//! each row is checked against them, a compare the loop predicts.
//!
//! The single frame is first converted into a frame that is per thread,
//! allocated on the thread's first gather and kept until the thread
//! exits: 256 KiB of address space, of which a gather touches the pages
//! under its matrix's rows (4 KiB at 1024 rows), though a heap block the
//! allocator reuses is zero-filled in full. Each gather overwrites the
//! first `rows` elements; the rest hold an earlier frame's values, finite
//! and never read, since every stored row, the padding's row 0 included,
//! is below the matrix's row count.

use crate::csr::G;
use smm_core::wire::MatrixBody;
use std::cell::RefCell;

/// Columns per slice; each has two accumulators in a single frame's
/// gather.
pub(crate) const LANES: usize = 4;

/// The most rows a matrix with slices may have: every `u16` is a row.
pub(crate) const MAX_ROWS: usize = 1 << 16;

thread_local! {
    /// This thread's frame, converted to `f32` and indexed by a `u16` row.
    static FRAME: RefCell<Box<[f32; MAX_ROWS]>> = RefCell::new(
        vec![0.0; MAX_ROWS].into_boxed_slice().try_into().expect("MAX_ROWS elements"),
    );
}

/// The sliced copy of one CSR's non-zeros. Built once from the matrix
/// body, never serialised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ColumnSlices {
    /// `perm[s · LANES + l]` is the output column lane `l` of slice `s`
    /// computes; a permutation of `0..cols`, so the last slice may hold
    /// fewer than `LANES` columns.
    perm: Vec<u32>,
    /// Slice `s` owns entries `slice_ptr[s]..slice_ptr[s + 1]` of `rows`
    /// and `weights` (both multiples of `LANES`).
    slice_ptr: Vec<u32>,
    /// Each entry's input row; `0` for padding.
    rows: Vec<u16>,
    /// Each entry's weight; `0` for padding.
    weights: Vec<i32>,
}

impl ColumnSlices {
    /// Slices a matrix body whose per-column non-zero counts are
    /// `col_len` and whose values, widened, are `values`, in work
    /// proportional to the non-zeros. `None` when it has more than
    /// [`MAX_ROWS`] rows, or when the column count or the padded entry
    /// count does not fit `u32`.
    pub(crate) fn build(body: &MatrixBody, col_len: &[usize], values: &[i32]) -> Option<Self> {
        let cols = u32::try_from(col_len.len()).ok()?;
        if body.rows() > MAX_ROWS {
            return None;
        }
        // Longest first, ties by ascending column: one integer key per
        // column, the length complemented in the high half.
        let mut keys: Vec<u64> = (0..cols)
            .zip(col_len)
            .map(|(c, &len)| (!(len as u64) << 32) | u64::from(c))
            .collect();
        keys.sort_unstable();
        let perm: Vec<u32> = keys.into_iter().map(|key| key as u32).collect();

        let mut slice_ptr = Vec::with_capacity(perm.len().div_ceil(LANES) + 1);
        let mut end = 0u32;
        slice_ptr.push(end);
        // Where each column's next entry goes: its lane of its slice's
        // first step, then `LANES` further on per entry.
        let mut cursor = vec![0u32; perm.len()];
        for slice in perm.chunks(LANES) {
            for (lane, &c) in (0..).zip(slice) {
                cursor[c as usize] = end + lane;
            }
            let longest = col_len[slice[0] as usize] as u32;
            end = longest
                .checked_mul(LANES as u32)
                .and_then(|padded| end.checked_add(padded))?;
            slice_ptr.push(end);
        }

        let mut rows = vec![0u16; end as usize];
        let mut weights = vec![0i32; end as usize];
        let mut nonzeros = body.columns().zip(values);
        for (r, count) in (0..=u16::MAX).zip(body.row_counts()) {
            for (c, &v) in nonzeros.by_ref().take(count) {
                let at = &mut cursor[c];
                rows[*at as usize] = r;
                weights[*at as usize] = v;
                *at += LANES as u32;
            }
        }
        Some(Self {
            perm,
            slice_ptr,
            rows,
            weights,
        })
    }

    /// Entries stored, padding included.
    #[cfg(test)]
    pub(crate) fn padded_len(&self) -> usize {
        self.rows.len()
    }

    /// `out[c] = Σ_r w_rc · a[r]` for every column, in `f32` lanes: exact
    /// only where the *Lane width* rule of
    /// [`Csr::vecmat_into`](crate::csr::Csr::vecmat_into) puts it.
    ///
    /// `a` (the matrix's rows long) is converted into this thread's
    /// frame, which a `u16` row indexes directly. Each slice runs two
    /// accumulator sets, one for its even steps and one for its odd, and
    /// adds them when the slice is done. Every element of `out` (`cols`
    /// long) is written exactly once.
    pub(crate) fn gather(&self, a: &[i32], out: &mut [i64]) {
        FRAME.with_borrow_mut(|frame| self.gather_through(frame, a, out));
    }

    /// [`ColumnSlices::gather`] through `frame`. A function of its own,
    /// never inlined, so that its code does not depend on where the
    /// compiler places the closure that calls it: inside that closure,
    /// its loop was compiled differently whenever other code in this
    /// crate changed.
    #[inline(never)]
    fn gather_through(&self, frame: &mut [f32; MAX_ROWS], a: &[i32], out: &mut [i64]) {
        for (x, &v) in frame.iter_mut().zip(a) {
            *x = v as f32;
        }
        for (perm, span) in self.perm.chunks(LANES).zip(self.slice_ptr.windows(2)) {
            let span = span[0] as usize..span[1] as usize;
            let (rows, _) = self.rows[span.clone()].as_chunks::<LANES>();
            let (weights, _) = self.weights[span].as_chunks::<LANES>();
            let (row_pairs, last_rows) = rows.as_chunks::<2>();
            let (weight_pairs, last_weights) = weights.as_chunks::<2>();
            let (mut even, mut odd) = ([0f32; LANES], [0f32; LANES]);
            for ([r0, r1], [w0, w1]) in row_pairs.iter().zip(weight_pairs) {
                step(&mut even, r0, w0, frame);
                step(&mut odd, r1, w1, frame);
            }
            for (rows, weights) in last_rows.iter().zip(last_weights) {
                step(&mut even, rows, weights, frame);
            }
            for ((&c, even), odd) in perm.iter().zip(even).zip(odd) {
                if let Some(o) = out.get_mut(c as usize) {
                    *o = (even + odd) as i64;
                }
            }
        }
    }

    /// `acc[c][f] = Σ_r w_rc · xt[r][f]` for every column `c` and each of
    /// a group's `G` frames `f`, in `f32` lanes: exact only where the
    /// *Lane width* rule of
    /// [`Csr::vecmat_block_into`](crate::csr::Csr::vecmat_block_into)
    /// puts it. A group past the rule calls it once per digit plane, and
    /// each plane's digits are narrow enough to be inside it.
    ///
    /// `xt` is one digit plane of the group (the inputs themselves inside
    /// the rule), transposed to frame-minor rows, one per matrix row. Each
    /// slice runs in two passes, lanes 0–1 and then 2–3 (none
    /// for a last slice of at most two columns), and a pass keeps its two
    /// columns' `2 × G` sums in registers down the slice's entries. Each
    /// column's sum is written to `acc` once; `acc` ends up `cols` long,
    /// every element overwritten. Never inlined, like
    /// [`ColumnSlices::gather_through`], so that the passes compile the
    /// same whatever surrounds the call.
    #[inline(never)]
    pub(crate) fn gather_group(&self, xt: &[[f32; G]], acc: &mut Vec<[f32; G]>) {
        acc.resize(self.perm.len(), [0.0; G]);
        for (perm, span) in self.perm.chunks(LANES).zip(self.slice_ptr.windows(2)) {
            let span = span[0] as usize..span[1] as usize;
            let (rows, _) = self.rows[span.clone()].as_chunks::<LANES>();
            let (weights, _) = self.weights[span].as_chunks::<LANES>();
            for (pass, cols) in perm.chunks(2).enumerate() {
                let sums = match pass {
                    0 => lane_pair::<0>(rows, weights, xt),
                    _ => lane_pair::<2>(rows, weights, xt),
                };
                for (&c, sum) in cols.iter().zip(sums) {
                    if let Some(lanes) = acc.get_mut(c as usize) {
                        *lanes = sum;
                    }
                }
            }
        }
    }
}

/// Lanes `L` and `L + 1` of one slice over a group: for each, the sum of
/// `w · xt[row]` down its entries, rows ascending, in `G` lanes.
#[inline(always)]
fn lane_pair<const L: usize>(
    rows: &[[u16; LANES]],
    weights: &[[i32; LANES]],
    xt: &[[f32; G]],
) -> [[f32; G]; 2] {
    let mut sums = [[0f32; G]; 2];
    for (rows, weights) in rows.iter().zip(weights) {
        add(&mut sums[0], rows[L], weights[L], xt);
        add(&mut sums[1], rows[L + 1], weights[L + 1], xt);
    }
    sums
}

/// `acc[f] += w · xt[row][f]` for each of a group's frames.
#[inline(always)]
fn add(acc: &mut [f32; G], row: u16, w: i32, xt: &[[f32; G]]) {
    debug_assert!(usize::from(row) < xt.len(), "slice row past the group");
    if let Some(x) = xt.get(usize::from(row)) {
        let w = w as f32;
        for (acc, &x) in acc.iter_mut().zip(x) {
            *acc += w * x;
        }
    }
}

/// One step of a slice: `acc[l] += w[l] · frame[row[l]]` for each lane.
#[inline(always)]
fn step(
    acc: &mut [f32; LANES],
    rows: &[u16; LANES],
    weights: &[i32; LANES],
    frame: &[f32; MAX_ROWS],
) {
    for ((acc, &row), &w) in acc.iter_mut().zip(rows).zip(weights) {
        *acc += w as f32 * frame[usize::from(row)];
    }
}
