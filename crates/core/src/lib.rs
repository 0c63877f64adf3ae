//! # smm-core
//!
//! Shared substrate for the *Direct Spatial Implementation of Sparse Matrix
//! Multipliers for Reservoir Computing* (HPCA 2022) reproduction: integer
//! matrices, the paper's random-sparsity generators, positive/negative sign
//! splitting, the canonical-signed-digit (CSD) transform of Listing 1,
//! and reference `aᵀV` products.
//!
//! Everything downstream — the bit-serial netlist builder, the FPGA cost
//! models, the GPU/SIGMA baselines, and the echo-state-network application —
//! consumes these types.
//!
//! ## Quick example
//!
//! ```
//! use smm_core::generate::element_sparse_matrix;
//! use smm_core::gemv::vecmat;
//! use smm_core::rng::seeded;
//! use smm_core::signsplit::split_pn;
//!
//! let mut rng = seeded(7);
//! // A 64x64, 90 % element-sparse, signed 8-bit weight matrix.
//! let v = element_sparse_matrix(64, 64, 8, 0.9, true, &mut rng).unwrap();
//! let split = split_pn(&v);
//! assert_eq!(split.reconstruct().unwrap(), v);
//!
//! let a = vec![1i32; 64];
//! let o = vecmat(&a, &v).unwrap();
//! assert_eq!(o.len(), 64);
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

pub mod block;
pub mod csd;
pub mod error;
pub mod generate;
pub mod gemv;
pub mod io;
pub mod matrix;
pub mod rng;
pub mod signsplit;
pub mod sparsity;
pub mod wire;

pub use matrix::IntMatrix;
pub use signsplit::SignSplit;
