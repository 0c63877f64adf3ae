//! # smm-runtime
//!
//! The batched, multi-threaded **GEMV serving runtime**: the layer that
//! turns the repo's single-shot `o = aᵀV` kernels into a traffic-serving
//! system.
//!
//! The paper's economics rest on compiling a *fixed* sparse matrix into a
//! spatial circuit once and amortizing that cost over every product that
//! follows. This crate makes the amortization explicit end to end, and
//! [`Session`] is the front door every consumer serves through:
//!
//! * [`EngineSpec`] / `spec::build` — engine descriptions (a kind of
//!   [`BUILTIN_KINDS`], or `auto`) and the one `match` over
//!   [`BUILTIN_KINDS`] that builds them (`spec`);
//! * `plan::plan` / [`EnginePlan`] — an `auto` spec resolved to the
//!   engine its matrix's own counts price cheapest (`plan`);
//! * [`Session`] — the plan + a handle to the built engine behind one
//!   submission surface, batches sharded in submission order across the
//!   one worker pool of the process (`session`; the pool itself is
//!   private);
//! * [`GemvBackend`] — the engine trait (one compute method,
//!   `run_rows`) with the four built-ins: [`DenseRef`], [`SparseCsr`],
//!   [`BitSerial`], and [`SigmaEngine`] (`backend`);
//! * [`TieredRegistry`] — the hot / warm / cold matrix fleet
//!   (`tiered`): a lock, a store and three counters around the pure
//!   tier table of the private `tiers` module, which decides every
//!   promotion, demotion, admission and refusal — the one residency
//!   policy: what stays built is what its hot tier holds, and a single
//!   on a matrix the tier does not admit is served from its body;
//! * [`MultiplierCache`] — content-digest-keyed compile memoization,
//!   off the serving path: only the serving benchmark reaches it,
//!   through [`SessionBuilder::cache`] (`cache`).
//!
//! Sessions optionally carry a [`SpanRecorder`] (from
//! `smm-telemetry`, re-exported here) so every served batch stamps its
//! per-shard, reassembly, and whole-compute stage latencies —
//! [`SessionBuilder::recorder`] attaches one.
//!
//! A batch is one `smm_core::block::Block`: [`FrameBlock`] (row-major
//! input frames, one allocation per batch) in, [`RowBlock`] (row-major
//! output rows, caller-owned and reused) out — [`Session::run_block`] is
//! the one batch path, [`Session::run`] the one single-vector path.
//!
//! ## Serving in a few lines
//!
//! ```
//! use smm_core::matrix::IntMatrix;
//! use smm_runtime::{FrameBlock, RowBlock, Session};
//!
//! let v = IntMatrix::from_vec(2, 2, vec![1, -2, 3, 4]).unwrap();
//! let session = Session::builder(v).build().unwrap();
//! assert_eq!(session.run(&[5, 6]).unwrap(), vec![23, 14]);
//! let frames = FrameBlock::try_from(vec![vec![5, 6], vec![1, 0]]).unwrap();
//! let mut out = RowBlock::new();
//! session.run_block(frames, &mut out).unwrap();
//! assert_eq!(out.frame(0), &[23, 14]);
//! assert_eq!(out.frame(1), &[1, -2]);
//! ```
//!
//! The session auto-planned an engine from the matrix (the cheapest
//! kernel per frame on its rows, columns and non-zeros — see
//! [`Session::plan`] for the rationale); pass an [`EngineSpec`] naming a
//! kind via [`SessionBuilder::spec`] to overrule it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
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

mod backend;
mod cache;
mod plan;
mod pool;
mod session;
mod spec;
mod tiered;
mod tiers;

pub use backend::{BitSerial, DenseRef, GemvBackend, SigmaEngine, SparseCsr};
pub use cache::MultiplierCache;
pub use smm_core::block::{FrameBlock, RowBlock};
pub use plan::{AutoOptions, EnginePlan, PlanPolicy};
pub use session::{Session, SessionBuilder};
pub use tiered::{InsertOutcome, Resident, TieredConfig, TieredRegistry};
pub use smm_telemetry::SpanRecorder;
pub use spec::{EngineSpec, BUILTIN_KINDS, INPUT_BITS};
