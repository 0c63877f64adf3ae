//! # smm-models
//!
//! The paper's evaluation side: the models that *price* a fixed sparse
//! matrix multiplier rather than run one, one module per model.
//!
//! * [`fpga`] — the Vivado-flow substitute: resources, frequency, power
//!   and the synthesis flow (Sections IV and VI);
//! * [`gpu`] — the V100 cuSPARSE and optimized-kernel latency models
//!   (Section VII);
//! * [`sigma`] — the SIGMA accelerator timing model (Section VII.B);
//! * [`cgra`] — Section VIII's proposed custom CGRA and its pipeline
//!   reconfiguration.
//!
//! `reproduce`, the `smm` CLI and the examples read these; the serving
//! runtime and server link none of them.

// Public evaluation models (`reproduce`'s figures and the CLI's `synth`,
// `compare` and `cgra` read them), so the API surface must stay fully
// documented.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cgra;
pub mod fpga;
pub mod gpu;
pub mod sigma;

// Each model's parts are declared here, at the root (no two models share
// a part name), and re-exported by their model: `fpga::flow` *is* `flow`.
// So every part keeps its `crate::…` paths and its tests' names from when
// each model was a crate of its own; the documented way in is the model
// modules above.
mod config;
mod cost;
#[doc(hidden)]
pub mod device;
mod engine;
mod estimate;
#[doc(hidden)]
pub mod flow;
mod model;
#[doc(hidden)]
pub mod power;
mod reconfig;
#[doc(hidden)]
pub mod resources;
#[doc(hidden)]
pub mod timing;
