//! Dense row-major integer matrices.
//!
//! The paper's weight matrices are small integers (1–32 bits); we store them
//! as `i32` with explicit bit-width bookkeeping handled by the callers that
//! need it (bit-plane extraction, range checks, quantization).

use crate::error::{Error, Result};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Inclusive value range of a `bits`-wide signed two's-complement integer.
///
/// Returns an error outside the supported `1..=31` range.
pub fn signed_range(bits: u32) -> Result<(i32, i32)> {
    if bits == 0 || bits > 31 {
        return Err(Error::InvalidBitWidth { bits });
    }
    let max = (1i32 << (bits - 1)) - 1;
    Ok((-max - 1, max))
}

/// Inclusive value range of a `bits`-wide unsigned integer.
pub(crate) fn unsigned_range(bits: u32) -> Result<(i32, i32)> {
    if bits == 0 || bits > 31 {
        return Err(Error::InvalidBitWidth { bits });
    }
    Ok((0, ((1u32 << bits) - 1) as i32))
}

/// Minimum number of bits needed to represent `value` as unsigned.
///
/// Zero needs one bit by convention (a single always-zero plane).
pub(crate) fn unsigned_bits_for(value: u32) -> u32 {
    (32 - value.leading_zeros()).max(1)
}

/// `rows * cols` for a matrix shape: a typed error, never a panic or a
/// wrapped product, when a dimension is zero or the count overflows.
fn element_count(rows: usize, cols: usize) -> Result<usize> {
    if rows == 0 || cols == 0 {
        return Err(Error::EmptyDimension);
    }
    rows.checked_mul(cols)
        .ok_or(Error::DimensionOverflow { rows, cols })
}

/// A dense row-major matrix of `i32` elements.
///
/// Invariant: `data.len() == rows * cols`, both dimensions non-zero.
///
/// This is the single dense container used throughout the workspace: the raw
/// signed weight matrix `V`, the unsigned positive/negative halves of a sign
/// split, bit-sparse synthesis inputs, and quantized reservoir weights.
#[derive(Clone, PartialEq, Eq)]
pub struct IntMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i32>,
}

impl IntMatrix {
    /// Creates a matrix from row-major `data`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<i32>) -> Result<Self> {
        let expected = element_count(rows, cols)?;
        if data.len() != expected {
            return Err(Error::DataLength {
                expected,
                actual: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Result<Self> {
        let len = element_count(rows, cols)?;
        Self::from_vec(rows, cols, vec![0; len])
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> i32) -> Result<Self> {
        let mut data = Vec::with_capacity(element_count(rows, cols)?);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self::from_vec(rows, cols, data)
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Result<Self> {
        Self::from_fn(n, n, |r, c| i32::from(r == c))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Sets the element at `(row, col)`. Panics out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: i32) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Total number of elements (`rows * cols`).
    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    /// A row as a slice.
    pub fn row(&self, row: usize) -> &[i32] {
        assert!(row < self.rows, "row index out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// The elements of column `col`, gathered into a new vector.
    pub fn col(&self, col: usize) -> Vec<i32> {
        assert!(col < self.cols, "column index out of bounds");
        (0..self.rows).map(|r| self[(r, col)]).collect()
    }

    /// Row-major view of all elements.
    pub fn as_slice(&self) -> &[i32] {
        &self.data
    }

    /// Mutable row-major view of all elements.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [i32] {
        &mut self.data
    }

    /// Iterator over `(row, col, value)` triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, i32)> + '_ {
        let cols = self.cols;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, &v)| (i / cols, i % cols, v))
    }

    /// Iterator over the non-zero `(row, col, value)` triples.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, usize, i32)> + '_ {
        self.iter().filter(|&(_, _, v)| v != 0)
    }

    /// Applies `f` to every element, producing a new matrix of the same shape.
    pub(crate) fn map(&self, mut f: impl FnMut(i32) -> i32) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// The transpose.
    pub fn transpose(&self) -> Self {
        let mut data = vec![0; self.data.len()];
        for r in 0..self.rows {
            for c in 0..self.cols {
                data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        Self {
            rows: self.cols,
            cols: self.rows,
            data,
        }
    }

    /// Number of non-zero elements.
    pub fn nnz(&self) -> usize {
        // Counted a block at a time in `u32`, which vectorises to twice
        // the lanes a `usize` count gets; a block cannot overflow it.
        self.data
            .chunks(1 << 16)
            .map(|block| block.iter().map(|&v| u32::from(v != 0)).sum::<u32>() as usize)
            .sum()
    }

    /// Maximum absolute value over all elements (0 for the zero matrix).
    ///
    /// `i32::MIN` is handled by widening; the result saturates at
    /// `u32::MAX`-representable magnitudes, which covers every supported
    /// bit width.
    pub(crate) fn max_abs(&self) -> u32 {
        self.data
            .iter()
            .map(|&v| (i64::from(v)).unsigned_abs().min(u64::from(u32::MAX)) as u32)
            .max()
            .unwrap_or(0)
    }

    /// `true` iff every element is within the `bits`-wide signed range.
    pub fn fits_signed(&self, bits: u32) -> Result<bool> {
        let (lo, hi) = signed_range(bits)?;
        Ok(self.data.iter().all(|&v| (lo..=hi).contains(&v)))
    }

    /// A stable 64-bit content digest of the matrix (shape and elements).
    ///
    /// XXH64 with seed 0 ([`crate::wire::xxh64`]) over the matrix's body,
    /// the bytes [`crate::wire::put_matrix`] writes for it: the shape, the
    /// count of non-zeros, the value width, and each non-zero's column and
    /// value. A matrix has exactly one body, so the digest depends only on
    /// the content, never on pointer identity, and a receiver of a body
    /// takes the same value over the bytes it received
    /// ([`crate::wire::MatrixBody::digest`]). The digest is part of the
    /// on-disk / cross-process contract: it names store files and keys
    /// compiled-multiplier caches, and it will not change between runs or
    /// releases without a store revision and a wire version.
    pub fn digest(&self) -> u64 {
        crate::wire::MatrixBody::of(self).digest()
    }

    /// Element-wise difference `self - other`.
    pub(crate) fn sub(&self, other: &Self) -> Result<Self> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(Error::DimensionMismatch {
                context: format!(
                    "{}x{} - {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        Ok(Self {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| a - b)
                .collect(),
        })
    }
}

impl Index<(usize, usize)> for IntMatrix {
    type Output = i32;

    fn index(&self, (row, col): (usize, usize)) -> &i32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        &self.data[row * self.cols + col]
    }
}

impl IndexMut<(usize, usize)> for IntMatrix {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut i32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        &mut self.data[row * self.cols + col]
    }
}

impl fmt::Debug for IntMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "IntMatrix {}x{} [", self.rows, self.cols)?;
        const MAX_SHOWN: usize = 8;
        for r in 0..self.rows.min(MAX_SHOWN) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(MAX_SHOWN) {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self[(r, c)])?;
            }
            if self.cols > MAX_SHOWN {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > MAX_SHOWN {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = IntMatrix::from_vec(2, 3, vec![1, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(0, 0)], 1);
        assert_eq!(m[(1, 2)], 6);
        assert_eq!(m.row(1), &[4, 5, 6]);
        assert_eq!(m.col(1), vec![2, 5]);
    }

    #[test]
    fn bad_construction() {
        assert!(matches!(
            IntMatrix::from_vec(2, 2, vec![1, 2, 3]),
            Err(Error::DataLength {
                expected: 4,
                actual: 3
            })
        ));
        assert!(matches!(
            IntMatrix::from_vec(0, 2, vec![]),
            Err(Error::EmptyDimension)
        ));
        assert!(matches!(
            IntMatrix::zeros(3, 0),
            Err(Error::EmptyDimension)
        ));
        // A product that wraps `usize` is an error from every
        // constructor, before anything is allocated.
        let huge = usize::MAX / 2 + 1;
        let overflow = Err(Error::DimensionOverflow { rows: huge, cols: 2 });
        assert_eq!(IntMatrix::from_vec(huge, 2, vec![]), overflow);
        assert_eq!(IntMatrix::zeros(huge, 2), overflow);
        assert_eq!(IntMatrix::from_fn(huge, 2, |_, _| 0), overflow);
    }

    #[test]
    fn transpose_round_trip() {
        let m = IntMatrix::from_fn(3, 5, |r, c| (r * 10 + c) as i32).unwrap();
        let t = m.transpose();
        assert_eq!(t.rows(), 5);
        assert_eq!(t.cols(), 3);
        assert_eq!(t[(4, 2)], m[(2, 4)]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn nnz_and_max_abs() {
        let m = IntMatrix::from_vec(2, 2, vec![0, -7, 3, 0]).unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.max_abs(), 7);
        let z = IntMatrix::zeros(4, 4).unwrap();
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.max_abs(), 0);
    }

    #[test]
    fn max_abs_handles_i32_min() {
        let m = IntMatrix::from_vec(1, 1, vec![i32::MIN]).unwrap();
        assert_eq!(m.max_abs(), 1u32 << 31);
    }

    #[test]
    fn ranges() {
        assert_eq!(signed_range(8).unwrap(), (-128, 127));
        assert_eq!(unsigned_range(8).unwrap(), (0, 255));
        assert_eq!(signed_range(1).unwrap(), (-1, 0));
        assert!(signed_range(0).is_err());
        assert!(signed_range(32).is_err());
        assert!(unsigned_range(40).is_err());
    }

    #[test]
    fn fits_checks() {
        let m = IntMatrix::from_vec(1, 3, vec![-128, 0, 127]).unwrap();
        assert!(m.fits_signed(8).unwrap());
        assert!(!m.fits_signed(7).unwrap());
    }

    #[test]
    fn unsigned_bits_for_values() {
        assert_eq!(unsigned_bits_for(0), 1);
        assert_eq!(unsigned_bits_for(1), 1);
        assert_eq!(unsigned_bits_for(2), 2);
        assert_eq!(unsigned_bits_for(255), 8);
        assert_eq!(unsigned_bits_for(256), 9);
    }

    #[test]
    fn digest_depends_on_content_only() {
        let a = IntMatrix::from_vec(2, 3, vec![1, 2, 3, 4, 5, 6]).unwrap();
        let b = IntMatrix::from_vec(2, 3, vec![1, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(a.digest(), b.digest());
        // Any single-element change perturbs it.
        let mut c = a.clone();
        c.set(1, 2, 7);
        assert_ne!(a.digest(), c.digest());
        // Shape participates: a 3x2 with the same data differs.
        let d = IntMatrix::from_vec(3, 2, vec![1, 2, 3, 4, 5, 6]).unwrap();
        assert_ne!(a.digest(), d.digest());
        // Sign participates (two's-complement bytes differ).
        let e = a.map(|v| -v);
        assert_ne!(a.digest(), e.digest());
    }

    #[test]
    fn digest_is_stable_across_releases() {
        // Golden value: the digest is a persistent cache key, so its exact
        // value is part of the contract. It is XXH64 (seed 0) over
        // `put_matrix`'s bytes; recompute with any XXH64 over those bytes
        // if this ever needs to change, and bump the store revision and
        // the wire version.
        let m = IntMatrix::from_vec(2, 2, vec![1, -2, 3, 4]).unwrap();
        assert_eq!(m.digest(), 0x6c16_740a_5a80_63ab);
    }

    #[test]
    fn digest_is_stable_across_a_long_zero_run() {
        // Golden value as above, for a body longer than one 32-byte
        // stripe: 200 zeros between columns 50 and 251, 48 after the last
        // non-zero, values two bytes wide.
        let m = IntMatrix::from_fn(1, 300, |_, c| match c {
            0 => 7,
            50 => -1,
            251 => 256,
            _ => 0,
        })
        .unwrap();
        assert_eq!(m.digest(), 0x2918_abbc_e854_7a89);
    }

    #[test]
    fn sub_and_shape_errors() {
        let a = IntMatrix::from_vec(2, 2, vec![5, 6, 7, 8]).unwrap();
        let b = IntMatrix::identity(2).unwrap();
        let d = a.sub(&b).unwrap();
        assert_eq!(d.as_slice(), &[4, 6, 7, 7]);
        let c = IntMatrix::zeros(2, 3).unwrap();
        assert!(a.sub(&c).is_err());
    }

    #[test]
    fn iter_nonzero_order() {
        let m = IntMatrix::from_vec(2, 2, vec![0, 1, 2, 0]).unwrap();
        let nz: Vec<_> = m.iter_nonzero().collect();
        assert_eq!(nz, vec![(0, 1, 1), (1, 0, 2)]);
    }
}
