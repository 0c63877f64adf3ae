//! Cycle-level model of the SIGMA sparse DNN accelerator (Qin et al.,
//! HPCA 2020), the paper's accelerator baseline: a 128×128 PE grid with a
//! flexible Benes distribution network and forwarding reduction tree, run
//! weight-stationary with streamed inputs, assumed scaled to 1 GHz for the
//! int8/process-node comparison (paper Section VII.B).
//!
//! The governing mechanism is whether the non-zeros fit the PE grid: one
//! tile is nanoseconds; tiling is SRAM-bandwidth-bound microseconds.
//!
//! ```
//! use smm_models::sigma::Sigma;
//! use smm_sparse::{Csr, SparsityProfile};
//! use smm_core::generate::element_sparse_matrix;
//! use smm_core::rng::seeded;
//!
//! let mut rng = seeded(2);
//! let v = element_sparse_matrix(256, 256, 8, 0.98, true, &mut rng).unwrap();
//! let profile = SparsityProfile::of(&Csr::from_dense(&v));
//! let sigma = Sigma::default();
//! assert_eq!(sigma.run_gemv(&profile).tiles, 1);
//! assert!(sigma.gemv_latency_ns(&profile) < 200.0);
//! ```

pub use crate::config::SigmaConfig;
pub use crate::engine::Sigma;
