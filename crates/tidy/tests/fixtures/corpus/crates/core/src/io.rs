//! Fixture: an `smm-core` module the wire decoder runs through is
//! request-path code by file, not by crate. Line numbers are asserted
//! exactly by `tests/corpus.rs`.

/// The shape that once let a hostile size line kill the server.
pub fn element_count(rows: usize, cols: usize) -> usize {
    rows.checked_mul(cols).expect("dimension overflow") // line 7: fires
}
