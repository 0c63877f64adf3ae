//! Property-based tests for `smm_core::io`: format/parse round trips
//! over randomized matrices, plus malformed-input rejection. The matrix
//! file formats are how matrices enter and leave the CLI, so round-trip
//! fidelity is load-bearing, not cosmetic.

use proptest::prelude::*;
use smm_core::generate::element_sparse_matrix;
use smm_core::io::{format_matrix_market, parse_dense, parse_matrix_market};
use smm_core::rng::seeded;

proptest! {
    /// MatrixMarket round trip is the identity for any shape, sparsity,
    /// and signed bit width up to 16.
    #[test]
    fn matrix_market_round_trip(
        seed in any::<u64>(),
        rows in 1usize..24,
        cols in 1usize..24,
        bits in 1u32..=16,
        sparsity in 0.0f64..=1.0,
    ) {
        let mut rng = seeded(seed);
        let m = element_sparse_matrix(rows, cols, bits, sparsity, true, &mut rng).unwrap();
        let back = parse_matrix_market(&format_matrix_market(&m)).unwrap();
        prop_assert_eq!(back, m);
    }

    /// Dense-text round trip is the identity on the same domain.
    #[test]
    fn dense_round_trip(
        seed in any::<u64>(),
        rows in 1usize..24,
        cols in 1usize..24,
        sparsity in 0.0f64..=1.0,
    ) {
        let mut rng = seeded(seed);
        let m = element_sparse_matrix(rows, cols, 8, sparsity, true, &mut rng).unwrap();
        let text: String = (0..m.rows())
            .map(|r| {
                let cells: Vec<String> = m.row(r).iter().map(i32::to_string).collect();
                cells.join(" ") + "\n"
            })
            .collect();
        let back = parse_dense(&text).unwrap();
        prop_assert_eq!(back, m);
    }

    /// Truncating a MatrixMarket file anywhere never panics: it either
    /// still parses to a (smaller) matrix rejected by the nnz check, or
    /// fails with a clean error.
    #[test]
    fn truncated_matrix_market_never_panics(seed in any::<u64>(), cut in 0.0f64..1.0) {
        let mut rng = seeded(seed);
        let m = element_sparse_matrix(6, 6, 8, 0.5, true, &mut rng).unwrap();
        let text = format_matrix_market(&m);
        let cut_at = (text.len() as f64 * cut) as usize;
        // Any prefix is either an error or (exactly at a line boundary
        // with matching nnz) a valid parse — never a crash.
        let _ = parse_matrix_market(&text[..cut_at]);
    }

    /// Flipping one data byte to garbage is rejected, not absorbed.
    #[test]
    fn corrupted_entry_is_rejected(seed in any::<u64>()) {
        let mut rng = seeded(seed);
        let m = element_sparse_matrix(5, 5, 8, 0.3, true, &mut rng).unwrap();
        let text = format_matrix_market(&m).replace(|c: char| c.is_ascii_digit(), "x");
        prop_assert!(parse_matrix_market(&text).is_err());
    }
}

#[test]
fn malformed_headers_are_rejected_with_errors() {
    for bad in [
        "",                                                      // empty
        "%%NotMatrixMarket matrix coordinate integer general\n1 1 0", // wrong magic
        "%%MatrixMarket tensor coordinate integer general\n1 1 0",    // not a matrix
        "%%MatrixMarket matrix array integer general\n1 1\n5",        // array, not coordinate
        "%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1", // unsupported field
        "%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n2 1 5", // unsupported symmetry
        "%%MatrixMarket matrix coordinate integer general",           // no size line
        "%%MatrixMarket matrix coordinate integer general\n2 2\n",    // short size line
        "%%MatrixMarket matrix coordinate integer general\nx 2 1\n1 1 5", // garbage rows
    ] {
        assert!(parse_matrix_market(bad).is_err(), "accepted: {bad:?}");
    }
}

#[test]
fn duplicate_and_out_of_range_entries_are_rejected() {
    let dup = "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 5\n1 1 6";
    assert!(parse_matrix_market(dup).is_err());
    for bad_index in ["0 1 5", "1 0 5", "3 1 5", "1 3 5"] {
        let text =
            format!("%%MatrixMarket matrix coordinate integer general\n2 2 1\n{bad_index}");
        assert!(parse_matrix_market(&text).is_err(), "accepted index {bad_index}");
    }
    // nnz count must match the entries present (both directions).
    let missing = "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 5";
    assert!(parse_matrix_market(missing).is_err());
    let extra = "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 5\n2 2 6";
    assert!(parse_matrix_market(extra).is_err());
}

#[test]
fn dense_text_rejects_ragged_garbage_and_empty() {
    assert!(parse_dense("1 2 3\n4 5").is_err());
    assert!(parse_dense("1 2\n3 nope").is_err());
    assert!(parse_dense("").is_err());
    assert!(parse_dense("# only a comment\n").is_err());
    // Overflowing i32 is rejected, not wrapped.
    assert!(parse_dense("99999999999 1\n2 3").is_err());
}
