//! # smm-bitserial
//!
//! The paper's primary contribution as an executable model: a **direct
//! spatial implementation** of a fixed sparse integer matrix as a bit-serial
//! circuit, plus a cycle-accurate simulator for it.
//!
//! A fixed weight matrix compiles — through constant propagation, AND-gate
//! culling, and adder-to-flip-flop collapse — into a netlist whose logic
//! cost is proportional to the number of *set bits* in the matrix. The
//! compiled circuit computes `o = aᵀV` in `BWi + BWw + ceil(log2 R) + 2`
//! cycles (Equation 5 of the paper).
//!
//! One simulator runs it: [`sim::Simulator`] holds every register as a
//! `u64` word of 64 independent lanes. Every product — a single `mul`, a
//! batch, a served block, the SRAM wrapper's run, a VCD trace — goes
//! through its lockstep driver, one frame per lane; the framed
//! back-to-back stream ([`sim::run_stream_into_flat`]) is the
//! hardware-faithful reference it is checked against.
//!
//! ```
//! use smm_bitserial::multiplier::{FixedMatrixMultiplier, WeightEncoding};
//! use smm_core::matrix::IntMatrix;
//!
//! // o = aᵀV for a fixed 2x2 matrix.
//! let v = IntMatrix::from_vec(2, 2, vec![1, -2, 3, 4]).unwrap();
//! let mul = FixedMatrixMultiplier::compile(&v, 8, WeightEncoding::Pn).unwrap();
//! assert_eq!(mul.mul(&[5, 6]).unwrap(), vec![5 + 18, -10 + 24]);
//!
//! // Hardware cost is the number of set weight bits, give or take tree
//! // flip-flops — inspect it:
//! let stats = mul.stats();
//! assert!(stats.logic_elements() > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bits;
pub mod builder;
pub mod dot;
pub mod latency;
pub mod multiplier;
pub mod netlist;
pub mod primitive;
pub mod sim;
pub mod system;
pub mod trace;
#[cfg(test)]
mod verify;
pub mod verilog;

pub use netlist::Netlist;
