//! # spatial-smm
//!
//! Umbrella crate for the reproduction of *Direct Spatial Implementation of
//! Sparse Matrix Multipliers for Reservoir Computing* (Denton & Schmit,
//! HPCA 2022): re-exports the workspace crates so examples and downstream
//! users need a single dependency.
//!
//! * [`core`] — integer matrices, sparsity generators, CSD, reference gemv
//! * [`sparse`] — the CSR format over the matrix body and executed SpMV kernels
//! * [`bitserial`] — the spatial bit-serial multiplier (netlist + simulator)
//! * the evaluation models, one module each of `smm-models`:
//!   * [`fpga`] — area/frequency/power models and the synthesis flow
//!   * [`gpu`] — calibrated V100 sparse-library latency models
//!   * [`sigma`] — the SIGMA accelerator timing model (the tile walk it
//!     prices is the live [`runtime::SigmaEngine`])
//!   * [`cgra`] — Section VIII's proposed custom device, modelled
//! * [`reservoir`] — echo state networks (float and integer)
//! * [`telemetry`] — log-bucket latency histograms, per-stage request
//!   spans and the poison-recovering lock helpers
//! * [`runtime`] — the batched, multi-threaded GEMV serving runtime
//! * [`store`] — the persistent, digest-addressed matrix artifact store
//!   behind the server's tiered (hot/warm/cold) fleet registry
//! * [`server`] — the networked serving frontend (wire protocol, TCP
//!   server, `/metrics` exposition, client, load generator)
//!
//! ## Serving: start with [`Session`]
//!
//! The serving API's front door is [`Session`], re-exported here: give
//! it a matrix and it plans an engine (the cheapest kernel per frame on
//! the matrix's rows, columns and non-zeros — the rationale carries the
//! numbers), builds it (the runtime's `spec::build`, one `match` over the
//! built-in kinds), and serves through a sharding worker pool:
//!
//! ```
//! use spatial_smm::{core::matrix::IntMatrix, Session};
//!
//! let v = IntMatrix::from_vec(2, 2, vec![1, -2, 3, 4]).unwrap();
//! let session = Session::builder(v).build().unwrap();
//! assert_eq!(session.run(&[5, 6]).unwrap(), vec![23, 14]);
//! println!("{}", session.plan().rationale);
//! ```
//!
//! Serving is layered core → runtime → server:
//!
//! 1. [`core`] provides the product itself ([`core::gemv::vecmat`]), the
//!    matrix container with its stable content digest
//!    ([`core::matrix::IntMatrix::digest`]), the flat batch containers
//!    the hot path moves requests in ([`core::block::FrameBlock`] /
//!    [`core::block::RowBlock`]), the file formats ([`core::io`]), and
//!    the binary wire primitives ([`core::wire`]).
//! 2. [`runtime`] is the in-process serving layer: [`Session`] over a
//!    [`runtime::GemvBackend`] trait with dense-reference, CSR,
//!    compiled bit-serial, and SIGMA tile-mapped engines built by
//!    the runtime's `spec::build` from an [`EngineSpec`] (a new engine
//!    family is one more arm there); the runtime's `plan::plan`, which
//!    resolves an `auto` spec ([`EngineSpec::auto`]) by pricing the
//!    dense and CSR kernels per matrix, in nanoseconds per frame at
//!    their measured rates (the `sigma` engine is chosen only by name;
//!    the gpu, cgra and sigma timing models are evaluation models, not
//!    planner inputs);
//!    and one process-wide worker pool, shared
//!    by every session, across which [`Session::run_block`] shards flat
//!    batch blocks by row range into one preallocated output block, in
//!    submission order, each shard's completion stamped by its worker —
//!    while single vectors ride a direct fast path past it.
//! 3. [`server`] puts a `Session` per loaded matrix behind a TCP
//!    boundary: a length-prefixed binary protocol
//!    (`Ping`/`LoadMatrix`/`Gemv`/`GemvBatch`/`Stats`, one layout per
//!    message, a per-load backend choice; peers of another protocol
//!    revision are refused), per-connection sessions resolving matrices
//!    by digest, a bounded admission queue that answers `Busy` instead
//!    of buffering under overload, graceful shutdown with connection
//!    drain, and a self-checking load generator. One compiled circuit is
//!    thereby amortized across many remote callers — the paper's
//!    fixed-matrix economics at serving scale. The loaded fleet lives in
//!    a [`runtime::TieredRegistry`] — hot compiled sessions, warm
//!    non-zeros, cold digest-verified [`store`] artifacts on disk — so
//!    capacity pressure demotes instead of refusing (when a
//!    `store_dir` is configured) and a restarted server re-serves
//!    yesterday's fleet without recompiling anything.
//!
//! See `examples/throughput_serving.rs` (in-process),
//! `examples/remote_serving.rs` (over TCP),
//! `examples/fleet_persistence.rs` (restart without recompiling), and
//! the CLI's `serve`, `loadgen`, `stats`, and `store` subcommands
//! for end-to-end uses; the integer
//! reservoir ([`reservoir::int_esn::IntEsn`]) can route its recurrent
//! product through any [`Session::engine`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use smm_bitserial as bitserial;
pub use smm_core as core;
pub use smm_models::{cgra, fpga, gpu, sigma};
pub use smm_reservoir as reservoir;
pub use smm_runtime as runtime;
pub use smm_server as server;
pub use smm_sparse as sparse;
pub use smm_store as store;
pub use smm_telemetry as telemetry;

// The serving API, re-exported at the crate root as the documented
// entry point.
pub use smm_runtime::{EnginePlan, EngineSpec, Session, SessionBuilder};
