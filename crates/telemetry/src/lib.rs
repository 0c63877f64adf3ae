//! Unified observability spine for the spatial sparse-matrix
//! multiplier workspace.
//!
//! Every latency number the workspace reports flows through this crate:
//!
//! - `hist` — the lock-free log-bucket [`LatencyHistogram`], so the
//!   server, the runtime sessions and the load generator share one
//!   quantile implementation and one set of regression tests.
//! - `span` — per-request trace [`Span`]s over the fixed pipeline
//!   [`Stage`]s (decode → queue → plan → shard → reassemble → compute →
//!   encode), recorded through a cloneable [`SpanRecorder`] at one
//!   `Instant::now()` per stage boundary; a stage table zips
//!   [`Stage::ALL`] with [`SpanRecorder::stage_stats`].
//! - `sync` — the poison-recovering [`lock_or_recover`] helper every
//!   crate takes its shared-state guards through, so one panicking
//!   worker cannot cascade into every thread that shares a mutex.
//!
//! There is no metric directory and no exposition here: a server's
//! counters and its Prometheus text live with the state they describe
//! (`smm-server`'s `metrics` module renders them from one snapshot).
//!
//! The crate is std-only with zero dependencies, `forbid(unsafe_code)`,
//! and every hot-path operation is a relaxed atomic.

#![deny(missing_docs)]
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

mod hist;
mod span;
mod sync;

pub use hist::LatencyHistogram;
pub use sync::lock_or_recover;
pub use span::{Span, SpanRecorder, Stage, StageStats, STAGES};
