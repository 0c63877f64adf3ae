//! Flat, contiguous batch containers for the serving hot path.
//!
//! The serving stack moves request batches as [`FrameBlock`]s (row-major
//! `i32` input frames, one allocation for the whole batch) and produces
//! [`RowBlock`]s (row-major `i64` output rows) instead of `Vec<Vec<_>>`:
//! a thousand-frame batch is one contiguous buffer with cheap per-row
//! slice views, not a thousand heap allocations scattered across the
//! allocator. `From`/`TryFrom` bridges to and from `Vec<Vec<_>>` keep the
//! nested representation available at the edges.
//!
//! Both types are plain owned buffers with the invariant
//! `data.len() == count * width`; zero frames and zero-width frames are
//! both representable (an empty batch round-trips).

use crate::error::{Error, Result};

fn block_len(count: usize, width: usize, what: &str) -> Result<usize> {
    count.checked_mul(width).ok_or_else(|| Error::DimensionMismatch {
        context: format!("{what} {count} x {width} overflows"),
    })
}

/// A batch of equal-length input frames in one row-major `i32` buffer.
///
/// Frame `i` occupies `data[i*width .. (i+1)*width]`; [`FrameBlock::frame`]
/// hands out the slice view. Build one with [`FrameBlock::from_rows`] /
/// `TryFrom<Vec<Vec<i32>>>` (rejecting ragged batches), or incrementally
/// with [`FrameBlock::with_capacity`] + [`FrameBlock::push_frame`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FrameBlock {
    frames: usize,
    width: usize,
    data: Vec<i32>,
}

impl FrameBlock {
    /// An empty block whose future frames must all have length `width`,
    /// with capacity reserved for `frames` frames.
    pub fn with_capacity(width: usize, frames: usize) -> Self {
        Self {
            frames: 0,
            width,
            data: Vec::with_capacity(frames.saturating_mul(width)),
        }
    }

    /// Wraps a row-major buffer of `frames` frames of `width` elements.
    pub fn from_vec(frames: usize, width: usize, data: Vec<i32>) -> Result<Self> {
        let expected = block_len(frames, width, "frame block")?;
        if data.len() != expected {
            return Err(Error::DataLength {
                expected,
                actual: data.len(),
            });
        }
        Ok(Self {
            frames,
            width,
            data,
        })
    }

    /// Copies a nested batch into one flat block. Fails on ragged input
    /// (every row must have the first row's length); an empty batch
    /// yields an empty zero-width block.
    pub fn from_rows(rows: &[Vec<i32>]) -> Result<Self> {
        let width = rows.first().map_or(0, Vec::len);
        let mut block = Self::with_capacity(width, rows.len());
        for row in rows {
            block.push_frame(row)?;
        }
        Ok(block)
    }

    /// Appends one frame. Fails unless `frame.len()` matches the block's
    /// width.
    pub fn push_frame(&mut self, frame: &[i32]) -> Result<()> {
        if frame.len() != self.width {
            return Err(Error::DimensionMismatch {
                context: format!(
                    "frame length {} vs block width {}",
                    frame.len(),
                    self.width
                ),
            });
        }
        self.data.extend_from_slice(frame);
        self.frames += 1;
        Ok(())
    }

    /// Removes every frame, keeping the width and the allocation.
    pub fn clear(&mut self) {
        self.frames = 0;
        self.data.clear();
    }

    /// Frames in the block.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Elements per frame.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame `i` as a slice view.
    ///
    /// # Panics
    /// If `i >= self.frames()`.
    pub fn frame(&self, i: usize) -> &[i32] {
        assert!(i < self.frames, "frame {i} of {}", self.frames);
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// Iterates the frames as slice views, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[i32]> {
        (0..self.frames).map(move |i| self.frame(i))
    }

    /// The whole row-major buffer.
    pub fn as_slice(&self) -> &[i32] {
        &self.data
    }
}

impl TryFrom<&[Vec<i32>]> for FrameBlock {
    type Error = Error;

    fn try_from(rows: &[Vec<i32>]) -> Result<Self> {
        Self::from_rows(rows)
    }
}

impl TryFrom<Vec<Vec<i32>>> for FrameBlock {
    type Error = Error;

    fn try_from(rows: Vec<Vec<i32>>) -> Result<Self> {
        Self::from_rows(&rows)
    }
}

impl From<&FrameBlock> for Vec<Vec<i32>> {
    fn from(block: &FrameBlock) -> Self {
        block.iter().map(<[i32]>::to_vec).collect()
    }
}

impl From<FrameBlock> for Vec<Vec<i32>> {
    fn from(block: FrameBlock) -> Self {
        Vec::from(&block)
    }
}

/// A batch of equal-length output rows in one row-major `i64` buffer.
///
/// The serving counterpart of [`FrameBlock`]: engines and the dispatcher
/// write product rows in place through [`RowBlock::rows_mut`], and a caller that keeps the block alive across
/// batches reaches a steady state with no per-row allocation —
/// [`RowBlock::reset`] reshapes the buffer while reusing its capacity.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RowBlock {
    rows: usize,
    width: usize,
    data: Vec<i64>,
}

impl RowBlock {
    /// An empty block; [`RowBlock::reset`] gives it a shape.
    pub fn new() -> Self {
        Self::default()
    }

    /// A zero-filled block of `rows` rows of `width` elements.
    pub fn zeros(rows: usize, width: usize) -> Result<Self> {
        let len = block_len(rows, width, "row block")?;
        Ok(Self {
            rows,
            width,
            data: vec![0; len],
        })
    }

    /// Wraps a row-major buffer of `rows` rows of `width` elements.
    pub fn from_vec(rows: usize, width: usize, data: Vec<i64>) -> Result<Self> {
        let expected = block_len(rows, width, "row block")?;
        if data.len() != expected {
            return Err(Error::DataLength {
                expected,
                actual: data.len(),
            });
        }
        Ok(Self { rows, width, data })
    }

    /// Reshapes to `rows x width`, zero-filled, reusing the existing
    /// allocation when it is large enough.
    pub fn reset(&mut self, rows: usize, width: usize) -> Result<()> {
        let len = block_len(rows, width, "row block")?;
        self.rows = rows;
        self.width = width;
        self.data.clear();
        self.data.resize(len, 0);
        Ok(())
    }

    /// Rows in the block.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Elements per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// `true` iff the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row `i` as a slice view.
    ///
    /// # Panics
    /// If `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[i64] {
        assert!(i < self.rows, "row {i} of {}", self.rows);
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// Rows `start..end` as one contiguous mutable slice — the shard
    /// write window the dispatcher reassembles into.
    ///
    /// # Panics
    /// If `start > end` or `end > self.rows()`.
    pub fn rows_mut(&mut self, start: usize, end: usize) -> &mut [i64] {
        assert!(start <= end && end <= self.rows, "rows {start}..{end} of {}", self.rows);
        &mut self.data[start * self.width..end * self.width]
    }

    /// Iterates the rows as slice views, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[i64]> {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// The whole row-major buffer.
    pub fn as_slice(&self) -> &[i64] {
        &self.data
    }

    /// The whole row-major buffer, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [i64] {
        &mut self.data
    }
}

impl TryFrom<&[Vec<i64>]> for RowBlock {
    type Error = Error;

    fn try_from(rows: &[Vec<i64>]) -> Result<Self> {
        let width = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(rows.len().saturating_mul(width));
        for row in rows {
            if row.len() != width {
                return Err(Error::DimensionMismatch {
                    context: format!("row length {} vs block width {width}", row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Self::from_vec(rows.len(), width, data)
    }
}

impl TryFrom<Vec<Vec<i64>>> for RowBlock {
    type Error = Error;

    fn try_from(rows: Vec<Vec<i64>>) -> Result<Self> {
        Self::try_from(rows.as_slice())
    }
}

impl From<&RowBlock> for Vec<Vec<i64>> {
    fn from(block: &RowBlock) -> Self {
        block.iter().map(<[i64]>::to_vec).collect()
    }
}

impl From<RowBlock> for Vec<Vec<i64>> {
    fn from(block: RowBlock) -> Self {
        Vec::from(&block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_block_round_trips_nested_batches() {
        let rows = vec![vec![1, -2, 3], vec![4, 5, 6]];
        let block = FrameBlock::try_from(rows.clone()).unwrap();
        assert_eq!((block.frames(), block.width()), (2, 3));
        assert_eq!(block.frame(0), &[1, -2, 3]);
        assert_eq!(block.frame(1), &[4, 5, 6]);
        assert_eq!(block.as_slice(), &[1, -2, 3, 4, 5, 6]);
        assert_eq!(Vec::<Vec<i32>>::from(block), rows);
    }

    #[test]
    fn ragged_batches_are_rejected() {
        let ragged = vec![vec![1, 2], vec![3]];
        assert!(FrameBlock::try_from(ragged).is_err());
        let mut block = FrameBlock::with_capacity(2, 0);
        assert!(block.push_frame(&[1, 2, 3]).is_err());
        assert_eq!(block.frames(), 0);
        block.push_frame(&[1, 2]).unwrap();
        assert_eq!(block.frames(), 1);
    }

    #[test]
    fn empty_and_zero_width_blocks_are_representable() {
        let empty = FrameBlock::from_rows(&[]).unwrap();
        assert_eq!((empty.frames(), empty.width()), (0, 0));
        assert_eq!(empty.iter().count(), 0);
        // Three zero-length frames: count is preserved, data is empty.
        let thin = FrameBlock::from_rows(&[vec![], vec![], vec![]]).unwrap();
        assert_eq!((thin.frames(), thin.width()), (3, 0));
        assert_eq!(thin.frame(1), &[] as &[i32]);
        assert_eq!(Vec::<Vec<i32>>::from(thin), vec![vec![]; 3]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(FrameBlock::from_vec(2, 3, vec![0; 6]).is_ok());
        assert!(FrameBlock::from_vec(2, 3, vec![0; 5]).is_err());
        assert!(RowBlock::from_vec(2, 2, vec![0; 3]).is_err());
        assert!(FrameBlock::from_vec(usize::MAX, 2, Vec::new()).is_err());
    }

    #[test]
    fn clear_keeps_width_and_capacity() {
        let mut block = FrameBlock::with_capacity(4, 8);
        block.push_frame(&[1; 4]).unwrap();
        let capacity = block.data.capacity();
        block.clear();
        assert_eq!((block.frames(), block.width()), (0, 4));
        assert_eq!(block.data.capacity(), capacity);
    }

    #[test]
    fn row_block_views_and_reset_reuse() {
        let mut out = RowBlock::zeros(2, 3).unwrap();
        out.rows_mut(1, 2).copy_from_slice(&[7, 8, 9]);
        assert_eq!(out.row(0), &[0, 0, 0]);
        assert_eq!(out.row(1), &[7, 8, 9]);
        assert_eq!(out.rows_mut(0, 2).len(), 6);
        let capacity = out.data.capacity();
        out.reset(3, 2).unwrap();
        assert_eq!((out.rows(), out.width()), (3, 2));
        assert_eq!(out.as_slice(), &[0; 6], "reset zero-fills");
        assert_eq!(out.data.capacity(), capacity, "allocation reused");
        assert_eq!(Vec::<Vec<i64>>::from(&out), vec![vec![0, 0]; 3]);
    }

    #[test]
    fn row_block_round_trips_nested_rows() {
        let rows = vec![vec![i64::MIN, 0], vec![1, i64::MAX]];
        let block = RowBlock::try_from(rows.clone()).unwrap();
        assert_eq!(Vec::<Vec<i64>>::from(&block), rows);
        assert!(RowBlock::try_from(vec![vec![1i64], vec![]]).is_err());
    }

    #[test]
    #[should_panic(expected = "frame 2 of 2")]
    fn out_of_bounds_frame_panics() {
        let block = FrameBlock::from_rows(&[vec![1], vec![2]]).unwrap();
        let _ = block.frame(2);
    }
}
