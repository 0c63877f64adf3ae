//! # smm-reservoir
//!
//! The motivating application of the paper: echo state networks with large,
//! sparse, *fixed* random reservoirs — float and integer-quantized — with
//! ridge-regression readouts and the classic reservoir benchmark tasks
//! (NARMA-10, channel equalization).
//!
//! The integer reservoir can execute its recurrent `W·x` on any engine
//! `smm-runtime` serves ([`int_esn::IntEsn::attach_backend`]) — the compiled
//! bit-serial spatial circuit included, closing the loop from the
//! paper's motivation to its hardware.
//!
//! ```
//! use smm_reservoir::esn::{Esn, EsnConfig};
//!
//! let mut esn = Esn::new(EsnConfig {
//!     reservoir_size: 64,
//!     seed: 3,
//!     ..EsnConfig::default()
//! })
//! .unwrap();
//! let states = esn.harvest_states(&[vec![0.5]], 0).unwrap();
//! assert_eq!(states.rows(), 1);
//! assert!(states.get(0, 63).abs() <= 1.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod capacity;
pub mod classify;
pub mod esn;
pub mod int_esn;
pub mod linalg;
pub mod metrics;
pub mod readout;
pub mod tasks;
