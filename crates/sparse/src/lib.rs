//! # smm-sparse
//!
//! Sparse matrix formats (COO, CSR) with executed SpMV/SpMM kernels.
//!
//! This is the *functional* content of the GPU sparse libraries the paper
//! benchmarks against (cuSPARSE and the optimized Sputnik-style kernel):
//! the same indexing structures and traversal order, minus the GPU. The
//! performance side of those baselines is modelled in `smm-models`'
//! `gpu`; this crate provides the math and the structural statistics that
//! model consumes.
//!
//! [`Csr`] is also the serving stack's sparse engine, and keeps two
//! layouts of the fixed matrix for it: column slices for single frames
//! and 16-frame groups in `f32` lanes (a wide group one digit plane at a
//! time), rows for the `i64` scatter (see `csr`).
//!
//! ```
//! use smm_core::matrix::IntMatrix;
//! use smm_sparse::Csr;
//!
//! let dense = IntMatrix::from_vec(2, 2, vec![0, 3, -1, 0]).unwrap();
//! let csr = Csr::from_dense(&dense);
//! assert_eq!(csr.row_ptr(), &[0, 1, 2]);
//! assert_eq!(csr.vecmat(&[10, 100]).unwrap(), vec![-100, 30]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod coo;
mod csr;
mod slices;
mod stats;

pub use coo::Coo;
pub use csr::Csr;
pub use stats::SparsityProfile;
