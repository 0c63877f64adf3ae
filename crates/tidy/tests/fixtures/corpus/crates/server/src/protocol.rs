//! Fixture wire protocol: some names are pinned by the corpus's
//! `wire_compat.rs` / `wire_fuzz.rs`, some deliberately are not.
//! Line numbers are asserted exactly by `tests/corpus.rs`.

/// The one protocol version (pinned in both test files).
pub const WIRE_VERSION: u8 = 2;
/// OK status (pinned in both).
pub const STATUS_OK: u8 = 0;
/// Ghost status: pinned in neither file — fires twice.
pub const STATUS_GHOST: u8 = 9;

/// Requests a fixture client can send.
pub enum Request {
    /// Pinned everywhere.
    Ping,
    /// Pinned in compat but missing from fuzz — fires once.
    Load(Vec<u8>),
}

/// Replies the fixture server sends.
pub enum Reply {
    /// Pinned everywhere.
    Pong,
    /// Pinned in neither file — fires twice.
    Unpinned(u64),
}
