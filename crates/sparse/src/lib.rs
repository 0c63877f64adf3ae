//! # smm-sparse
//!
//! The CSR sparse matrix format with executed SpMV/SpMM kernels.
//!
//! This is the *functional* content of the GPU sparse libraries the paper
//! benchmarks against (cuSPARSE and the optimized Sputnik-style kernel):
//! the same indexing structures and traversal order, minus the GPU. The
//! performance side of those baselines is modelled in `smm-models`'
//! `gpu`; this crate provides the math and the structural statistics that
//! model consumes.
//!
//! [`Csr`] is also the serving stack's sparse engine. It is the fixed
//! matrix's body (`smm_core::wire::MatrixBody`, the rows, which the `i64`
//! scatter walks) plus one layout derived from it: column slices for
//! single frames and 16-frame groups in `f32` lanes, a wide group one
//! digit plane at a time (see `csr`).
//!
//! ```
//! use smm_core::matrix::IntMatrix;
//! use smm_sparse::Csr;
//!
//! let dense = IntMatrix::from_vec(2, 2, vec![0, 3, -1, 0]).unwrap();
//! let csr = Csr::from_dense(&dense);
//! assert_eq!(csr.body().row_counts().collect::<Vec<_>>(), [1, 1]);
//! assert_eq!(csr.vecmat(&[10, 100]).unwrap(), vec![-100, 30]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod csr;
mod slices;
mod stats;

pub use csr::Csr;
pub use stats::SparsityProfile;
