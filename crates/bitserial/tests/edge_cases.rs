//! Edge cases of the spatial compiler and simulator: extreme widths,
//! degenerate shapes, saturating values, and pathological matrices.

use smm_bitserial::multiplier::{FixedMatrixMultiplier, WeightEncoding};
use smm_core::gemv::vecmat;
use smm_core::matrix::IntMatrix;

fn check(matrix: &IntMatrix, input: &[i32], input_bits: u32) {
    let mul = FixedMatrixMultiplier::compile(matrix, input_bits, WeightEncoding::Pn).unwrap();
    assert_eq!(
        mul.mul(input).unwrap(),
        vecmat(input, matrix).unwrap(),
        "matrix {matrix:?}"
    );
}

#[test]
fn one_by_one_extremes() {
    for w in [i32::from(i8::MIN), -1, 0, 1, i32::from(i8::MAX)] {
        let m = IntMatrix::from_vec(1, 1, vec![w]).unwrap();
        for a in [-128, -1, 0, 1, 127] {
            check(&m, &[a], 8);
        }
    }
}

#[test]
fn minimal_input_width() {
    // 1-bit signed inputs take values {-1, 0}.
    let m = IntMatrix::from_vec(3, 2, vec![5, -3, 2, 7, -1, 0]).unwrap();
    for a in [[-1, 0, -1], [0, 0, 0], [-1, -1, -1]] {
        check(&m, &a, 1);
    }
}

#[test]
fn wide_weights_narrow_inputs() {
    // 20-bit weights with 2-bit inputs.
    let m = IntMatrix::from_vec(2, 2, vec![524_287, -524_288, 1, -1]).unwrap();
    check(&m, &[1, -2], 2);
    check(&m, &[-2, -2], 2);
}

#[test]
fn wide_inputs_narrow_weights() {
    // 20-bit inputs with 1-bit weights.
    let m = IntMatrix::from_vec(2, 2, vec![1, 0, 1, 1]).unwrap();
    check(&m, &[524_287, -524_288], 20);
}

#[test]
fn all_negative_matrix() {
    let m = IntMatrix::from_fn(6, 6, |r, c| -(((r * 6 + c) % 7) as i32) - 1).unwrap();
    check(&m, &[3, -7, 11, -13, 127, -128], 8);
}

#[test]
fn single_column_and_single_row() {
    let col = IntMatrix::from_vec(8, 1, vec![1, -2, 3, -4, 5, -6, 7, -8]).unwrap();
    check(&col, &[1, 1, 1, 1, 1, 1, 1, 1], 4);
    let row = IntMatrix::from_vec(1, 8, vec![1, -2, 3, -4, 5, -6, 7, -8]).unwrap();
    check(&row, &[-5], 4);
}

#[test]
fn saturating_accumulation() {
    // Worst-case magnitudes: every term is -128 * -128 over many rows.
    let n = 64;
    let m = IntMatrix::from_fn(n, 1, |_, _| -128).unwrap();
    let a = vec![-128i32; n];
    let mul = FixedMatrixMultiplier::compile(&m, 8, WeightEncoding::Pn).unwrap();
    assert_eq!(mul.mul(&a).unwrap()[0], 128 * 128 * n as i64);
}

#[test]
fn checkerboard_and_diagonal_patterns() {
    let checker = IntMatrix::from_fn(12, 12, |r, c| {
        if (r + c) % 2 == 0 {
            ((r as i32) - 6) * 3
        } else {
            0
        }
    })
    .unwrap();
    let a: Vec<i32> = (0..12).map(|i| i - 6).collect();
    check(&checker, &a, 5);

    let band = IntMatrix::from_fn(10, 10, |r, c| {
        if r.abs_diff(c) <= 1 {
            (r as i32) - (c as i32) * 2 + 1
        } else {
            0
        }
    })
    .unwrap();
    let a: Vec<i32> = (0..10).map(|i| 7 - i).collect();
    check(&band, &a, 5);
}

#[test]
fn alternating_sign_columns() {
    // Columns that are entirely positive / entirely negative exercise both
    // culled-subtractor paths.
    let m = IntMatrix::from_fn(5, 4, |r, c| match c {
        0 => (r as i32) + 1,
        1 => -((r as i32) + 1),
        2 => 0,
        _ => if r % 2 == 0 { 7 } else { -7 },
    })
    .unwrap();
    check(&m, &[9, -9, 3, -3, 1], 5);
}

#[test]
fn zero_matrix_zero_vector() {
    let m = IntMatrix::zeros(7, 5).unwrap();
    check(&m, &[0; 7], 8);
    check(&m, &[127, -128, 5, -5, 1, -1, 0], 8);
}

#[test]
fn paper_running_example_density() {
    // The paper's canonical configuration knobs exercised together:
    // CSD + streamed batch + wide result on one matrix.
    use smm_core::block::FrameBlock;
    use smm_core::csd::ChainPolicy;
    use smm_core::generate::element_sparse_matrix;
    use smm_core::rng::seeded;

    let mut rng = seeded(4141);
    let m = element_sparse_matrix(40, 40, 8, 0.75, true, &mut rng).unwrap();
    let mul = FixedMatrixMultiplier::compile(
        &m,
        8,
        WeightEncoding::Csd {
            policy: ChainPolicy::CoinFlip,
            seed: 2,
        },
    )
    .unwrap();
    let batch = element_sparse_matrix(3, 40, 8, 0.0, true, &mut rng).unwrap();
    let frames = FrameBlock::from_vec(3, 40, batch.as_slice().to_vec()).unwrap();
    let streamed = mul.mul_batch_streamed(&frames).unwrap();
    for (b, row) in streamed.iter().enumerate() {
        assert_eq!(row, vecmat(batch.row(b), &m).unwrap().as_slice());
    }
}
