//! # smm-server
//!
//! The **networked GEMV serving frontend**: the layer that puts the
//! in-process serving runtime ([`smm_runtime`]) behind a TCP boundary so
//! one compiled fixed-matrix multiplier can be amortized across many
//! remote callers — the paper's economics, scaled past a single process.
//!
//! * [`protocol`] — a versioned, length-prefixed binary wire protocol
//!   (magic `SMM1`, opcodes `Ping`/`LoadMatrix`/`Gemv`/`GemvBatch`/
//!   `Stats`), built on [`smm_core::wire`], with a matrix travelling as
//!   its non-zeros at their own width ([`smm_core::wire::put_matrix`])
//!   and a batch as its [`smm_core::block::Block`]: a frame count and
//!   one element vector, every element vector at the width its values
//!   need ([`smm_core::wire::put_i32_narrow`]);
//! * `server` — a std-only threaded TCP server: per-connection
//!   sessions resolving matrices by [`smm_core::matrix::IntMatrix::digest`]
//!   through a tiered [`smm_runtime::TieredRegistry`] (hot sessions,
//!   warm non-zeros, cold artifact bytes in an optional
//!   [`ServerConfig::store_dir`] store — a restarted server reloads its
//!   fleet without recompiling), a bounded `server::AdmissionQueue` that
//!   answers `Busy` instead of buffering under overload, per-matrix
//!   sessions over the process's one worker pool (the fleet's hot tier
//!   is the only thing that keeps an engine built), and graceful
//!   shutdown with connection drain;
//! * `metrics` — the seven counters the hot path writes, the per-stage
//!   request spans (decode → queue → plan → compute → encode), and the
//!   Prometheus text served on [`ServerConfig::metrics_addr`], rendered
//!   by one function from the same [`StatsSnapshot`] the `Stats` opcode
//!   returns;
//! * `client` — the blocking [`Client`] used by tests, examples, and
//!   the load generator;
//! * [`loadgen`] — a multi-client load generator that verifies every
//!   reply against the dense reference while measuring client-side
//!   throughput and latency (the server's own view is `Stats`).
//!
//! ## A round trip
//!
//! ```
//! use smm_core::matrix::IntMatrix;
//! use smm_server::{Client, ServerConfig};
//!
//! let server = smm_server::start(ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let v = IntMatrix::from_vec(2, 2, vec![1, -2, 3, 4]).unwrap();
//! let digest = client.load_matrix(&v).unwrap();
//! assert_eq!(client.gemv(digest, &[5, 6]).unwrap(), vec![23, 14]);
//! server.shutdown();
//! ```

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

mod client;
pub mod loadgen;
mod metrics;
pub mod protocol;
mod server;

pub use client::{Client, ServeError};
pub use loadgen::LoadgenConfig;
pub use protocol::{BackendKind, LoadedInfo, StatsSnapshot};
pub use server::{start, ServerConfig, ServerHandle};
