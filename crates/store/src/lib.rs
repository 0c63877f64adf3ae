//! # smm-store
//!
//! The tiered, persistent, digest-addressed artifact store behind the
//! serving stack's matrix fleet.
//!
//! The serving runtime compiles each loaded matrix into an engine (a
//! spatial bit-serial circuit, a sigma tile map, a CSR kernel) keyed by
//! the matrix's stable content digest (XXH64 over its wire body). This
//! crate makes that fleet survive process restarts and grow past memory,
//! with three residency tiers (see [`Tier`]):
//!
//! ```text
//!        hot   compiled engine, in memory
//!         ↑↓   promote on request / demote on pressure
//!        warm  the matrix's non-zeros, in memory, compile on demand
//!         ↑↓   promote on request / demote on pressure
//!        cold  the same non-zeros on disk, versioned, digest-verified
//! ```
//!
//! * [`artifact`] — the std-only binary file format (magic + format
//!   rev 3 + content digest + payload) with serializers for matrices —
//!   the one artifact a load persists, stored as its wire body: the
//!   non-zeros at the narrowest width that holds them — and for CSR
//!   structures and compiled-circuit metadata, which older store
//!   directories hold and no load writes any more. A matrix is verified
//!   once, by the content digest it is filed under, taken over the
//!   body's bytes with no dense pass; the CRC-32 (table-driven,
//!   slice-by-8) is written and verified only for the kinds no digest
//!   covers.
//! * `store` — the [`Store`] directory API: `put` / `get` /
//!   `contains` / `evict` / `scan` / `gc`, with atomic writes and
//!   hostile-input decoding.
//! * `tier` — the [`Tier`] enum and per-tier occupancy counts.
//!
//! The in-memory side of the fleet — sessions, promotion, demotion, and
//! the use count and recency stamp each entry carries to pick demotion
//! victims (least used, then least recent) — lives in `smm-runtime`'s
//! `TieredRegistry`, which drives this crate.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// The request path's lint levels (README "Static analysis"): outside
// `#[cfg(test)]` nothing panics by shortcut or prints past its caller.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::print_stderr,
        clippy::print_stdout,
        clippy::allow_attributes_without_reason
    )
)]

pub mod artifact;
mod store;
mod tier;

pub use artifact::{Artifact, ArtifactKind, CircuitMeta};
pub use store::Store;
pub use tier::{Tier, TierCounts};
