//! Section VIII of the paper, made concrete: the proposed custom CGRA —
//! a grid of full adders and flip-flops with a pipelined broadcast and a
//! tree interconnect — modelled at the transistor level, plus the
//! PipeRench-style **pipeline reconfiguration** timeline that would let
//! the spatial approach handle *dynamic* sparse matrices.
//!
//! Two questions this module answers quantitatively:
//!
//! 1. how much denser a full-adder fabric is than 6-LUT fabric for this
//!    workload (the paper's raw 32× claim, discounted by flip-flops,
//!    configuration SRAM and interconnect);
//! 2. how matrix-swap dead time compares: a configuration wave of
//!    `max(depth, config_bits/bandwidth)` cycles versus the FPGA's
//!    ~200 ms full reconfiguration — the gap that makes dynamic sparse
//!    matrices feasible.
//!
//! ```
//! use smm_bitserial::multiplier::{FixedMatrixMultiplier, WeightEncoding};
//! use smm_models::cgra::{estimate_compiled, CgraOptions};
//! use smm_core::generate::element_sparse_matrix;
//! use smm_core::rng::seeded;
//!
//! let mut rng = seeded(5);
//! let v = element_sparse_matrix(64, 64, 8, 0.9, true, &mut rng).unwrap();
//! let mul = FixedMatrixMultiplier::compile(&v, 8, WeightEncoding::Pn).unwrap();
//! let report = estimate_compiled(&mul, &CgraOptions::default());
//! assert!(report.fabric.density_gain() > 2.0);
//! assert!(report.swap.fpga_ns / report.swap.cgra_ns > 10_000.0);
//! ```

pub use crate::estimate::{estimate_compiled, CgraOptions};
pub use crate::reconfig::{run_dynamic, DynamicJob, ReconfigModel};
