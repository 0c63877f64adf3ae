//! Property-based tests for `smm_core::block`: the one batch container,
//! at both element types the serving stack uses (`i32` frames, `i64`
//! rows), must round-trip `Vec<Vec<_>>` losslessly (the stack bridges
//! between both representations at its edges), reject ragged input,
//! keep its per-frame slice views consistent with the nested form, and
//! reshape in place.

use proptest::prelude::*;
use smm_core::block::{Block, FrameBlock, RowBlock};
use std::fmt::Debug;

/// A random uniform batch: `frames` rows of `width` small values.
fn batch<T: From<i32>>(frames: usize, width: usize, seed: u64) -> Vec<Vec<T>> {
    (0..frames)
        .map(|i| {
            (0..width)
                .map(|j| {
                    let mixed =
                        seed.wrapping_add(((i * width + j) as u64).wrapping_mul(2_654_435_761));
                    T::from((mixed % 255) as i32 - 127)
                })
                .collect()
        })
        .collect()
}

/// `Vec<Vec<T>>` → `Block<T>` → `Vec<Vec<T>>` is the identity, and the
/// slice views agree with the nested rows.
fn round_trip<T: Copy + PartialEq + Debug + From<i32>>(frames: usize, width: usize, seed: u64) {
    let rows: Vec<Vec<T>> = batch(frames, width, seed);
    let block = Block::try_from(rows.clone()).unwrap();
    assert_eq!(block.frames(), frames);
    assert_eq!(block.width(), if frames == 0 { 0 } else { width });
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(block.frame(i), row.as_slice());
    }
    assert_eq!(Vec::<Vec<T>>::from(&block), rows);
}

proptest! {
    /// The round trip holds for any uniform batch of either element
    /// type, including empty and zero-width ones.
    #[test]
    fn block_round_trip(
        frames in 0usize..24,
        width in 0usize..24,
        seed in any::<u64>(),
    ) {
        round_trip::<i32>(frames, width, seed);
        round_trip::<i64>(frames, width, seed);
    }

    /// Incremental construction (`push_frame`) produces the same block
    /// as the bulk bridge, and `clear` resets the count without touching
    /// the width.
    #[test]
    fn push_frame_matches_bulk_conversion(
        frames in 1usize..16,
        width in 0usize..16,
        seed in any::<u64>(),
    ) {
        let rows: Vec<Vec<i32>> = batch(frames, width, seed);
        let bulk = FrameBlock::try_from(rows.as_slice()).unwrap();
        let mut incremental = FrameBlock::with_capacity(width, frames);
        for row in &rows {
            incremental.push_frame(row).unwrap();
        }
        prop_assert_eq!(&incremental, &bulk);
        incremental.clear();
        prop_assert_eq!(incremental.frames(), 0);
        prop_assert_eq!(incremental.width(), width);
    }

    /// Any genuinely ragged batch is rejected by the bridge.
    #[test]
    fn ragged_batches_rejected(
        frames in 2usize..12,
        width in 1usize..12,
        victim in 0usize..12,
        shrink in 1usize..12,
        seed in any::<u64>(),
    ) {
        let mut rows: Vec<Vec<i32>> = batch(frames, width, seed);
        let victim = victim % frames;
        rows[victim].truncate(width.saturating_sub(shrink.min(width)));
        if rows.iter().any(|r| r.len() != rows[0].len()) {
            prop_assert!(FrameBlock::try_from(rows).is_err());
        }
    }

    /// `reset` reshapes any block to a zero-filled block of the new
    /// shape.
    #[test]
    fn reset_reshapes_to_a_zero_filled_block(
        frames in 0usize..16,
        width in 0usize..16,
        seed in any::<u64>(),
    ) {
        let mut block = RowBlock::try_from(batch::<i64>(frames, width, seed)).unwrap();
        block.reset(width, frames).unwrap();
        prop_assert_eq!((block.frames(), block.width()), (width, frames));
        prop_assert!(block.as_slice().iter().all(|&x| x == 0));
    }
}
