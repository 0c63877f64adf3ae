//! The Vivado-flow substitute: maps compiled bit-serial netlists onto FPGA
//! resources (LUT/FF/LUTRAM), estimates achievable frequency from SLR
//! occupancy and broadcast fanout, estimates power, and checks device fit —
//! all calibrated to the paper's published XCVU13P measurements
//! (Sections IV and VI, Figures 5–12).
//!
//! ```
//! use smm_models::fpga::flow::{synthesize, FlowOptions};
//! use smm_core::generate::element_sparse_matrix;
//! use smm_core::rng::seeded;
//!
//! let mut rng = seeded(1);
//! let v = element_sparse_matrix(64, 64, 8, 0.9, true, &mut rng).unwrap();
//! let (mul, report) = synthesize(&v, &FlowOptions::default()).unwrap();
//! assert!(report.fits);
//! assert!(report.latency_ns < 120.0); // the paper's headline regime
//! assert_eq!(mul.mul(&vec![1; 64]).unwrap().len(), 64);
//! ```

#[doc(inline)]
pub use crate::{device, flow, power, resources, timing};

pub use resources::ResourceReport;
