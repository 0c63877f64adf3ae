//! # smm-store
//!
//! The tiered, persistent, digest-addressed artifact store behind the
//! serving stack's matrix fleet.
//!
//! The serving runtime compiles each loaded matrix into an engine (a
//! spatial bit-serial circuit, a sigma tile map, a CSR kernel) keyed by
//! the matrix's stable FNV content digest. This crate makes that fleet
//! survive process restarts and grow past memory, with three residency
//! tiers (see [`Tier`]):
//!
//! ```text
//!        hot   compiled engine, in memory
//!         ↑↓   promote on request / demote on pressure
//!        warm  raw matrix, in memory, compile on demand
//!         ↑↓   promote on request / demote on pressure
//!        cold  versioned, digest-verified artifact bytes on disk
//! ```
//!
//! * [`artifact`] — the std-only binary file format (magic + format
//!   rev + FNV digest + payload CRC-32) with serializers for dense
//!   matrices — the one artifact a load persists — and for CSR
//!   structures and compiled-circuit metadata, which older store
//!   directories hold and no load writes any more. A matrix is verified once, by
//!   the content digest it is filed under (one multiply per zero run, so the pass
//!   costs about what reading the file does); the CRC (table-driven,
//!   slice-by-8) is still written for every kind and verified for the
//!   kinds no digest covers.
//! * [`store`] — the [`Store`] directory API: `put` / `get` /
//!   `contains` / `evict` / `scan` / `gc`, with atomic writes and
//!   hostile-input decoding.
//! * [`tier`] — the [`Tier`] enum and per-tier occupancy counts.
//!
//! The in-memory side of the fleet — sessions, promotion, demotion, and
//! the LRU stamp each entry carries to pick demotion victims — lives in
//! `smm-runtime`'s `TieredRegistry`, which drives this crate.

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
pub mod store;
pub mod tier;

pub use artifact::{Artifact, ArtifactKind, CircuitMeta};
pub use store::{GcReport, Store, StoreEntry};
pub use tier::{Tier, TierCounts};
