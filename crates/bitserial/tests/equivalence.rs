//! Property tests: the compiled spatial circuit is functionally identical
//! to reference integer arithmetic, and its cost tracks the set-bit count.

use proptest::prelude::*;
use smm_bitserial::multiplier::{FixedMatrixMultiplier, WeightEncoding};
use smm_core::block::FrameBlock;
use smm_core::csd::ChainPolicy;
use smm_core::gemv::vecmat;
use smm_core::generate::{bit_sparse_matrix, element_sparse_matrix, random_vector};
use smm_core::rng::seeded;
use smm_core::signsplit::split_pn;

/// Block sizes on either side of the 64-lane word boundaries.
const FRAME_COUNTS: [usize; 6] = [1, 2, 63, 64, 65, 129];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The simulated circuit equals the reference product for arbitrary
    /// shapes, sparsities, weight widths, input widths and both
    /// encodings, whichever way it runs: one `mul`, a lockstep block
    /// (`run_frames_block`) and the framed back-to-back stream
    /// (`mul_batch_streamed`), across the 64-lane word boundaries.
    #[test]
    fn circuit_equals_reference(
        seed in any::<u64>(),
        rows in 1usize..24,
        cols in 1usize..24,
        weight_bits in 1u32..9,
        input_bits in 2u32..9,
        sparsity in 0.0f64..1.0,
        pick in 0usize..FRAME_COUNTS.len(),
    ) {
        let frames = FRAME_COUNTS[pick];
        let mut rng = seeded(seed);
        let v = element_sparse_matrix(rows, cols, weight_bits, sparsity, true, &mut rng).unwrap();
        let data: Vec<i32> = (0..frames)
            .flat_map(|_| random_vector(rows, input_bits, true, &mut rng).unwrap())
            .collect();
        let block = FrameBlock::from_vec(frames, rows, data).unwrap();
        let expect: Vec<Vec<i64>> = block.iter().map(|a| vecmat(a, &v).unwrap()).collect();
        for encoding in [WeightEncoding::Pn, WeightEncoding::Csd { policy: ChainPolicy::CoinFlip, seed }] {
            let mul = FixedMatrixMultiplier::compile(&v, input_bits, encoding).unwrap();
            prop_assert_eq!(&mul.mul(block.frame(0)).unwrap(), &expect[0], "{:?}", encoding);
            let mut lockstep = vec![-1; frames * cols];
            mul.run_frames_block(&block, 0, frames, &mut lockstep).unwrap();
            let streamed = mul.mul_batch_streamed(&block).unwrap();
            for (f, want) in expect.iter().enumerate() {
                prop_assert_eq!(&lockstep[f * cols..(f + 1) * cols], want.as_slice(),
                    "lockstep frame {} of {}, {:?}", f, frames, encoding);
                prop_assert_eq!(streamed.frame(f), want.as_slice(), "streamed frame {} of {}, {:?}", f, frames, encoding);
            }
        }
    }

    /// Same equivalence for the bit-sparse (unsigned) generator used by the
    /// synthesis experiments.
    #[test]
    fn circuit_equals_reference_bit_sparse(
        seed in any::<u64>(),
        rows in 1usize..20,
        cols in 1usize..20,
        bit_sparsity in 0.0f64..=1.0,
    ) {
        let mut rng = seeded(seed);
        let v = bit_sparse_matrix(rows, cols, 8, bit_sparsity, &mut rng).unwrap();
        let a = random_vector(rows, 8, true, &mut rng).unwrap();
        let mul = FixedMatrixMultiplier::compile(&v, 8, WeightEncoding::Pn).unwrap();
        prop_assert_eq!(mul.mul(&a).unwrap(), vecmat(&a, &v).unwrap());
    }

    /// The paper's fundamental cost claim: logic elements (LUT-mapped
    /// adders/subtractors) equal the number of set weight bits, up to one
    /// element per column half (tree/chain bookkeeping).
    #[test]
    fn logic_cost_tracks_ones(
        seed in any::<u64>(),
        rows in 2usize..32,
        cols in 2usize..32,
        sparsity in 0.0f64..1.0,
    ) {
        let mut rng = seeded(seed);
        let v = element_sparse_matrix(rows, cols, 8, sparsity, true, &mut rng).unwrap();
        let ones = split_pn(&v).ones() as i64;
        let mul = FixedMatrixMultiplier::compile(&v, 8, WeightEncoding::Pn).unwrap();
        let logic = mul.stats().logic_elements() as i64;
        // Exact accounting: per live column half, tree+chain adders total
        // ones − 1; plus ≤1 subtractor per column.
        prop_assert!(logic <= ones, "logic {logic} > ones {ones}");
        prop_assert!(ones - logic <= 2 * cols as i64, "logic {logic} vs ones {ones}");
    }

    /// Output anchor (pipeline fill) never depends on sparsity, only on the
    /// row count — the paper's "latency in cycles does not depend on
    /// sparsity". With one full-magnitude weight pinned in each matrix,
    /// both realize the same weight width, so Equation 5 and the exact
    /// latency agree between them too.
    #[test]
    fn anchor_independent_of_sparsity(seed in any::<u64>(), rows in 2usize..40) {
        let mut rng = seeded(seed);
        let mut dense = element_sparse_matrix(rows, 8, 8, 0.0, true, &mut rng).unwrap();
        let mut sparse = element_sparse_matrix(rows, 8, 8, 0.95, true, &mut rng).unwrap();
        dense.set(0, 0, -128);
        sparse.set(0, 0, -128);
        let md = FixedMatrixMultiplier::compile(&dense, 8, WeightEncoding::Pn).unwrap();
        let ms = FixedMatrixMultiplier::compile(&sparse, 8, WeightEncoding::Pn).unwrap();
        prop_assert_eq!(md.circuit().output_anchor, ms.circuit().output_anchor);
        prop_assert_eq!(md.paper_latency_cycles(), ms.paper_latency_cycles());
        prop_assert_eq!(md.exact_latency_cycles(), ms.exact_latency_cycles());
    }
}

/// The worked latency example from Section III: 8-bit inputs and weights on
/// a 1024×1024 matrix complete in 28 cycles under Equation 5, and a compiled
/// full-width circuit agrees through its realized widths.
#[test]
fn equation_five_worked_example() {
    assert_eq!(smm_bitserial::latency::equation5(8, 8, 1024), 28);
    // A 1024-row column with a full-width weight realizes the same count.
    let mut data = vec![0i32; 1024];
    data[0] = -128; // |−128| needs all 8 unsigned magnitude bits
    let v = smm_core::matrix::IntMatrix::from_vec(1024, 1, data).unwrap();
    let mul = FixedMatrixMultiplier::compile(&v, 8, WeightEncoding::Pn).unwrap();
    assert_eq!(mul.paper_latency_cycles(), 28);
}

/// Full end-to-end check on a mid-size realistic reservoir matrix.
#[test]
fn medium_reservoir_matrix_end_to_end() {
    let mut rng = seeded(77);
    // 128x128 at 90 % element sparsity, 8-bit — a small reservoir.
    let v = element_sparse_matrix(128, 128, 8, 0.9, true, &mut rng).unwrap();
    let a = random_vector(128, 8, true, &mut rng).unwrap();
    for encoding in [
        WeightEncoding::Pn,
        WeightEncoding::Csd {
            policy: ChainPolicy::CoinFlip,
            seed: 3,
        },
    ] {
        let mul = FixedMatrixMultiplier::compile(&v, 8, encoding).unwrap();
        assert_eq!(mul.mul(&a).unwrap(), vecmat(&a, &v).unwrap());
    }
}
