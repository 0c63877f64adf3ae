//! Fixture unsafe sites: one justified, one bare, one silenced.
//! Line numbers are asserted exactly by `tests/corpus.rs`.

/// Justified: the SAFETY comment sits within the lookback window.
pub fn good(p: *const u8) -> u8 {
    // SAFETY: fixture pointers are always valid here.
    unsafe { *p }
}

/// Unjustified — fires on the `unsafe` keyword's line.
pub fn bad(p: *const u8) -> u8 {
    unsafe { *p } // line 12: fires
}

/// Silenced through the escape hatch instead of a SAFETY comment.
pub fn silenced(p: *const u8) -> u8 {
    // smm-tidy: allow(safety-comment): fixture demonstrates the silenced form
    unsafe { *p }
}

/// Off the decoder path: the rest of `smm-core` is out of the
/// `hot-path-panic` scope, so this stays quiet.
pub fn first(bytes: &[u8]) -> u8 {
    *bytes.first().unwrap()
}
