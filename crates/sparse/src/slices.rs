//! Column slices: the output-stationary layout behind
//! [`Csr::vecmat_into`](crate::csr::Csr::vecmat_into) on dense frames.
//!
//! The matrix's columns are ordered by descending non-zero count (ties by
//! ascending column) and cut into slices of [`LANES`]. A slice stores its
//! columns interleaved — entry `j` of lane `l` at `j · LANES + l`, rows
//! ascending within a column — and padded to its longest column with
//! `(row 0, weight 0)`, so the kernel keeps one register accumulator per
//! column and stores nothing until the slice is done. This is sliced
//! ELLPACK with a full length sort (SELL-C-σ, Kreutzer et al., SIAM J.
//! Sci. Comput. 2014) at `C = 4`: what scalar x86-64 has registers for.
//! Because the order is a full sort, a slice's longest column is no
//! longer than the shortest of the slice before it, and the padding sums
//! to at most `(LANES − 1) ×` the longest column of the matrix.
//!
//! The entries are two parallel arrays, `rows` (`u32`) and `weights`
//! (`i32`), 8 bytes per entry: one step's four weights are one 16-byte
//! load, which the `f32` lane converts and multiplies as one vector.

use crate::csr::Lane;

/// Columns per slice, one accumulator each.
pub(crate) const LANES: usize = 4;

/// The sliced copy of one CSR's non-zeros. Built once from the CSR
/// arrays, never serialised.
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
    rows: Vec<u32>,
    /// Each entry's weight; `0` for padding.
    weights: Vec<i32>,
}

impl ColumnSlices {
    /// Slices a validated CSR (`col_idx[k] < col_len.len()`, rows
    /// ascending) whose per-column non-zero counts are `col_len`, in work
    /// proportional to the non-zeros. `None` when the row count, the
    /// column count or the padded entry count does not fit `u32`.
    pub(crate) fn build(
        col_len: &[usize],
        row_ptr: &[usize],
        col_idx: &[usize],
        values: &[i32],
    ) -> Option<Self> {
        let cols = u32::try_from(col_len.len()).ok()?;
        // No column is longer than the row count, so lengths fit too.
        u32::try_from(row_ptr.len()).ok()?;
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

        let mut rows = vec![0u32; end as usize];
        let mut weights = vec![0i32; end as usize];
        for (r, span) in (0..).zip(row_ptr.windows(2)) {
            let (lo, hi) = (span[0], span[1]);
            for (&c, &v) in col_idx[lo..hi].iter().zip(&values[lo..hi]) {
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

    /// `out[c] = Σ_r w_rc · a[r]` for every column, in lane type `A`.
    ///
    /// The frame is converted to `A` in the one pass that pads it with
    /// zeros to a power-of-two length, so a row index masked by
    /// `len − 1` is provably in bounds and — every stored row being below
    /// the frame length — unchanged. Every element of `out` (`cols`
    /// long) is written exactly once.
    pub(crate) fn gather<A: Lane>(&self, a: &[i32], out: &mut [i64]) {
        let len = a.len().next_power_of_two();
        let mut padded = Vec::with_capacity(len);
        padded.extend(a.iter().map(|&v| A::from_i32(v)));
        padded.resize(len, A::default());
        let mask = u32::try_from(len - 1).expect("stored rows fit u32");
        // The whole slice again, with its length restated in terms of
        // `mask`: what lets the compiler drop the check on `x & mask`.
        let padded = &padded[..=mask as usize];
        for (perm, span) in self.perm.chunks(LANES).zip(self.slice_ptr.windows(2)) {
            let span = span[0] as usize..span[1] as usize;
            let (rows, _) = self.rows[span.clone()].as_chunks::<LANES>();
            let (weights, _) = self.weights[span].as_chunks::<LANES>();
            let mut acc = [A::default(); LANES];
            for (rows, weights) in rows.iter().zip(weights) {
                for ((acc, &row), &w) in acc.iter_mut().zip(rows).zip(weights) {
                    *acc += A::from_i32(w) * padded[(row & mask) as usize];
                }
            }
            for (&c, acc) in perm.iter().zip(acc) {
                if let Some(o) = out.get_mut(c as usize) {
                    *o = acc.widen();
                }
            }
        }
    }
}
