//! The V100 baseline substitute: calibrated analytic latency models of the
//! two sparse GPU libraries the paper benchmarks (cuSPARSE and the
//! "optimized kernel" of Gale et al.), over the structural profiles of
//! `smm-sparse` matrices. The executable math of those kernels lives in
//! `smm-sparse`; this module supplies their *time*.
//!
//! ```
//! use smm_models::gpu::GpuKernelModel;
//! use smm_sparse::{Csr, SparsityProfile};
//! use smm_core::generate::element_sparse_matrix;
//! use smm_core::rng::seeded;
//!
//! let mut rng = seeded(1);
//! let v = element_sparse_matrix(1024, 1024, 8, 0.98, true, &mut rng).unwrap();
//! let profile = SparsityProfile::of(&Csr::from_dense(&v));
//! let ns = GpuKernelModel::cusparse().spmv_latency_ns(&profile);
//! assert!(ns > 1000.0); // the GPU cannot break the microsecond barrier
//! ```

pub use crate::model::GpuKernelModel;
