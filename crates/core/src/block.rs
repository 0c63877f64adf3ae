//! The one batch container of the serving path.
//!
//! A batch is a [`Block`]: `frames` equal-length frames in one row-major
//! buffer, so a thousand-frame batch is one allocation with cheap
//! per-frame slice views, not a thousand `Vec`s scattered across the
//! allocator. Requests travel as [`FrameBlock`]s (`i32` input frames) and
//! answers as [`RowBlock`]s (`i64` output rows); both are this one type,
//! and the wire carries a block the same way — its frame count, then its
//! elements as one vector. `From`/`TryFrom` bridges to and from
//! `Vec<Vec<_>>` keep the nested form available at the edges.
//!
//! The invariant is `data.len() == frames * width`; zero frames and
//! zero-width frames are both representable (an empty batch
//! round-trips).

use crate::error::{Error, Result};

/// A batch of input frames: row-major `i32` elements.
pub type FrameBlock = Block<i32>;
/// A batch of output rows: row-major `i64` elements.
pub type RowBlock = Block<i64>;

/// A batch of equal-length frames in one row-major buffer.
///
/// Frame `i` occupies `data[i*width .. (i+1)*width]`; [`Block::frame`]
/// hands out the slice view. Build one with [`Block::from_vec`],
/// [`Block::from_rows`] / `TryFrom<Vec<Vec<T>>>` (rejecting ragged
/// batches), or incrementally with [`Block::with_capacity`] +
/// [`Block::push_frame`]. An output block kept alive across batches
/// reaches a steady state with no per-row allocation: [`Block::reset`]
/// reshapes it while reusing its capacity, and [`Block::frames_mut`] is
/// the window a shard writes into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block<T> {
    frames: usize,
    width: usize,
    data: Vec<T>,
}

impl<T> Default for Block<T> {
    fn default() -> Self {
        Self {
            frames: 0,
            width: 0,
            data: Vec::new(),
        }
    }
}

/// `frames * width`, or a typed error where it overflows.
fn block_len(frames: usize, width: usize) -> Result<usize> {
    frames
        .checked_mul(width)
        .ok_or_else(|| Error::DimensionMismatch {
            context: format!("block {frames} x {width} overflows"),
        })
}

impl<T> Block<T> {
    /// An empty block; [`Block::reset`] or [`Block::push_frame`] fills it.
    pub fn new() -> Self {
        Self::default()
    }

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
    pub fn from_vec(frames: usize, width: usize, data: Vec<T>) -> Result<Self> {
        let expected = block_len(frames, width)?;
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
    pub fn frame(&self, i: usize) -> &[T] {
        assert!(i < self.frames, "frame {i} of {}", self.frames);
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// Frames `start..end` as one contiguous mutable slice — the shard
    /// write window the dispatcher reassembles into.
    ///
    /// # Panics
    /// If `start > end` or `end > self.frames()`.
    pub fn frames_mut(&mut self, start: usize, end: usize) -> &mut [T] {
        assert!(
            start <= end && end <= self.frames,
            "frames {start}..{end} of {}",
            self.frames
        );
        &mut self.data[start * self.width..end * self.width]
    }

    /// Iterates the frames as slice views, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[T]> {
        (0..self.frames).map(move |i| self.frame(i))
    }

    /// The whole row-major buffer.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The whole row-major buffer, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T: Copy + Default> Block<T> {
    /// Reshapes to `frames x width`, filled with `T::default()` (zero),
    /// reusing the existing allocation when it is large enough. On error
    /// the block is left as it was.
    pub fn reset(&mut self, frames: usize, width: usize) -> Result<()> {
        let len = block_len(frames, width)?;
        self.frames = frames;
        self.width = width;
        self.data.clear();
        self.data.resize(len, T::default());
        Ok(())
    }
}

impl<T: Copy> Block<T> {
    /// Copies a nested batch into one flat block. Fails on ragged input
    /// (every row must have the first row's length); an empty batch
    /// yields an empty zero-width block.
    pub fn from_rows(rows: &[Vec<T>]) -> Result<Self> {
        let width = rows.first().map_or(0, Vec::len);
        let mut block = Self::with_capacity(width, rows.len());
        for row in rows {
            block.push_frame(row)?;
        }
        Ok(block)
    }

    /// Appends one frame. Fails unless `frame.len()` matches the block's
    /// width.
    pub fn push_frame(&mut self, frame: &[T]) -> Result<()> {
        if frame.len() != self.width {
            return Err(Error::DimensionMismatch {
                context: format!("frame length {} vs block width {}", frame.len(), self.width),
            });
        }
        self.data.extend_from_slice(frame);
        self.frames += 1;
        Ok(())
    }
}

impl<T: Copy> TryFrom<&[Vec<T>]> for Block<T> {
    type Error = Error;

    fn try_from(rows: &[Vec<T>]) -> Result<Self> {
        Self::from_rows(rows)
    }
}

impl<T: Copy> TryFrom<Vec<Vec<T>>> for Block<T> {
    type Error = Error;

    fn try_from(rows: Vec<Vec<T>>) -> Result<Self> {
        Self::from_rows(&rows)
    }
}

impl<T: Copy> From<&Block<T>> for Vec<Vec<T>> {
    fn from(block: &Block<T>) -> Self {
        block.iter().map(<[T]>::to_vec).collect()
    }
}

impl<T: Copy> From<Block<T>> for Vec<Vec<T>> {
    fn from(block: Block<T>) -> Self {
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
        let mut out = RowBlock::new();
        out.reset(2, 3).unwrap();
        out.frames_mut(1, 2).copy_from_slice(&[7, 8, 9]);
        assert_eq!(out.frame(0), &[0, 0, 0]);
        assert_eq!(out.frame(1), &[7, 8, 9]);
        assert_eq!(out.frames_mut(0, 2).len(), 6);
        let capacity = out.data.capacity();
        out.reset(3, 2).unwrap();
        assert_eq!((out.frames(), out.width()), (3, 2));
        assert_eq!(out.as_slice(), &[0; 6], "reset zero-fills");
        assert_eq!(out.data.capacity(), capacity, "allocation reused");
        assert_eq!(Vec::<Vec<i64>>::from(&out), vec![vec![0, 0]; 3]);
        // An overflowing shape is refused and leaves the block as it was.
        assert!(out.reset(usize::MAX, 2).is_err());
        assert_eq!((out.frames(), out.width(), out.as_slice().len()), (3, 2, 6));
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
