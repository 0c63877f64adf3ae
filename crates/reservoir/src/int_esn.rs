//! Integer echo state networks (after Kleyko et al., the paper's
//! reference \[16\]): reservoir weights and states quantized to small
//! integers, with a clipping activation — exactly the arithmetic the
//! spatial bit-serial multiplier accelerates.
//!
//! The recurrent product `W·x` is the reference integer `matvec` until
//! [`IntEsn::attach_backend`] routes it through a
//! [`smm_runtime::GemvBackend`] built over
//! [`IntEsn::recurrence_matrix`] — the compiled bit-serial circuit
//! ([`smm_runtime::BitSerial`], simulated cycle-accurately), a CSR
//! kernel, whatever the runtime serves. Every backend is **bit-exact**
//! with reference arithmetic, so the state trajectory is unchanged: an
//! integration test drives whole tasks through reference and circuit
//! and compares every state.

use crate::esn::{Esn, EsnConfig};
use crate::linalg::MatF64;
use rand::Rng;
use smm_core::error::{Error, Result};
use smm_core::matrix::IntMatrix;
use smm_runtime::GemvBackend;
use std::fmt;
use std::sync::Arc;

/// Hyperparameters of an integer ESN.
#[derive(Debug, Clone, PartialEq)]
pub struct IntEsnConfig {
    /// The underlying float reservoir configuration.
    pub esn: EsnConfig,
    /// Signed bit width of the quantized weights (3–4 suffice per \[16\]).
    pub weight_bits: u32,
    /// Signed bit width of the state/activation fixed point.
    pub state_bits: u32,
}

impl Default for IntEsnConfig {
    fn default() -> Self {
        Self {
            esn: EsnConfig::default(),
            weight_bits: 4,
            state_bits: 8,
        }
    }
}

/// An integer echo state network.
#[derive(Clone)]
pub struct IntEsn {
    config: IntEsnConfig,
    /// Quantized reservoir, `N × N`, on the `2^−shift` grid.
    w_q: IntMatrix,
    /// Quantized input matrix, `N × K`, same grid.
    w_in_q: IntMatrix,
    /// Weight scale exponent: `w_float ≈ w_int · 2^−shift`.
    shift: u32,
    state: Vec<i32>,
    /// When set, computes the recurrent product in place of `matvec`.
    backend: Option<Arc<dyn GemvBackend>>,
}

impl fmt::Debug for IntEsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IntEsn")
            .field("config", &self.config)
            .field("shift", &self.shift)
            .field("backend", &self.backend.as_ref().map(|b| b.name()))
            .finish_non_exhaustive()
    }
}

impl IntEsn {
    /// Builds a fresh integer ESN from hyperparameters (generates the float
    /// reservoir, then quantizes it).
    pub fn new(config: IntEsnConfig) -> Result<Self> {
        let float = Esn::new(config.esn.clone())?;
        Self::from_float(&float, config.weight_bits, config.state_bits)
    }

    /// Quantizes an existing float ESN.
    ///
    /// The weight scale is forced to a power of two so the activation
    /// renormalization is an exact arithmetic shift — no gain drift between
    /// the float and integer reservoirs beyond rounding.
    pub fn from_float(float: &Esn, weight_bits: u32, state_bits: u32) -> Result<Self> {
        if !(2..=8).contains(&weight_bits) {
            return Err(Error::InvalidBitWidth { bits: weight_bits });
        }
        if !(2..=15).contains(&state_bits) {
            return Err(Error::InvalidBitWidth { bits: state_bits });
        }
        let w = float.reservoir_matrix();
        let w_in = float.input_matrix();
        let qmax_w = f64::from((1i32 << (weight_bits - 1)) - 1);
        let max_abs = w
            .as_slice()
            .iter()
            .chain(w_in.as_slice())
            .fold(0.0f64, |m, &v| m.max(v.abs()));
        if max_abs == 0.0 {
            return Err(Error::EmptyDimension);
        }
        // Largest power-of-two gain that keeps every weight within range.
        let shift = (qmax_w / max_abs).log2().floor().max(0.0) as u32;
        let gain = f64::from(1u32 << shift);
        let n = float.config().reservoir_size;
        let k = float.config().input_dim;
        let quantize = |m: &MatF64, rows: usize, cols: usize| -> Result<IntMatrix> {
            IntMatrix::from_fn(rows, cols, |r, c| (m.get(r, c) * gain).round() as i32)
        };
        let w_q = quantize(w, n, n)?;
        let w_in_q = quantize(w_in, n, k)?;
        Ok(Self {
            config: IntEsnConfig {
                esn: float.config().clone(),
                weight_bits,
                state_bits,
            },
            w_q,
            w_in_q,
            shift,
            state: vec![0; n],
            backend: None,
        })
    }

    /// Routes the recurrent product through a serving-runtime backend
    /// in place of the reference `matvec`.
    ///
    /// A [`GemvBackend`] computes `o = aᵀV`, so the backend must be built
    /// over the **transposed** reservoir — exactly what
    /// [`IntEsn::recurrence_matrix`] returns — such that
    /// `backend.gemv(x) = W_q·x`. Shape is validated, and one probe
    /// vector is pushed through the backend and compared against
    /// reference arithmetic — the reservoir is square, so an
    /// untransposed backend passes any shape check and would otherwise
    /// produce silently wrong trajectories. Operand-range limits remain
    /// engine-specific (a bit-serial circuit compiled for fewer than
    /// `state_bits` input bits will reject out-of-range states at
    /// [`IntEsn::update`] time), so compile bit-serial backends with
    /// `input_bits >= state_bits`.
    pub fn attach_backend(&mut self, backend: Arc<dyn GemvBackend>) -> Result<()> {
        let n = self.state.len();
        if backend.rows() != n || backend.cols() != n {
            return Err(Error::DimensionMismatch {
                context: format!(
                    "backend {}x{} vs reservoir {n}x{n} (build it over recurrence_matrix())",
                    backend.rows(),
                    backend.cols()
                ),
            });
        }
        // Three seeded random ±1 probes (±1 fits every signed operand
        // width ≥ 2, and state_bits is validated to be ≥ 2). A single
        // fixed probe could land in the null space of the skew part
        // `W_q − W_qᵀ` and miss a wrongly-oriented backend; three
        // independent sign patterns make that astronomically unlikely.
        let mut rng = smm_core::rng::seeded(self.w_q.digest());
        for _ in 0..3 {
            let probe: Vec<i32> =
                (0..n).map(|_| if rng.gen_bool(0.5) { 1 } else { -1 }).collect();
            if backend.gemv(&probe)? != smm_core::gemv::matvec(&self.w_q, &probe)? {
                return Err(Error::Runtime {
                    context: "backend disagrees with W_q·x on a probe vector — it must be \
                              built over recurrence_matrix() (the transposed reservoir)"
                        .into(),
                });
            }
        }
        self.backend = Some(backend);
        Ok(())
    }

    /// The matrix a [`GemvBackend`] for this reservoir must be built
    /// over: `W_qᵀ`, so that the backend's `aᵀV` convention realizes the
    /// recurrence `W_q·x`.
    pub fn recurrence_matrix(&self) -> IntMatrix {
        self.w_q.transpose()
    }

    /// The quantized reservoir matrix (e.g. for FPGA synthesis reports).
    pub fn reservoir_matrix(&self) -> &IntMatrix {
        &self.w_q
    }

    /// Fixed-point saturation bound of the state.
    fn qmax_state(&self) -> i32 {
        (1i32 << (self.config.state_bits - 1)) - 1
    }

    /// One recurrent update with a float input vector (quantized onto the
    /// state grid internally). Returns the new integer state.
    ///
    /// `x' = clip(round((W_q·x + W_in_q·u_q) · 2^−shift))` — the clipping
    /// activation of integer reservoirs.
    pub fn update(&mut self, input: &[f64]) -> Result<&[i32]> {
        if input.len() != self.config.esn.input_dim {
            return Err(Error::DimensionMismatch {
                context: format!(
                    "input length {} vs input_dim {}",
                    input.len(),
                    self.config.esn.input_dim
                ),
            });
        }
        let qmax = self.qmax_state();
        let u_q: Vec<i32> = input
            .iter()
            .map(|&u| ((u * f64::from(qmax)).round() as i64).clamp(-(qmax as i64) - 1, qmax as i64) as i32)
            .collect();
        let recur: Vec<i64> = match &self.backend {
            Some(backend) => backend.gemv(&self.state)?,
            None => smm_core::gemv::matvec(&self.w_q, &self.state)?,
        };
        let drive = smm_core::gemv::matvec(&self.w_in_q, &u_q)?;
        let half = 1i64 << (self.shift.max(1) - 1);
        for (i, x) in self.state.iter_mut().enumerate() {
            let acc = recur[i] + drive[i];
            // Rounding arithmetic shift, then the clip activation.
            let scaled = if self.shift == 0 { acc } else { (acc + half) >> self.shift };
            *x = scaled.clamp(i64::from(-qmax), i64::from(qmax)) as i32;
        }
        Ok(&self.state)
    }

    /// Runs a sequence and collects post-washout dequantized states
    /// (`T−washout × N`), ready for readout training.
    pub fn harvest_states(&mut self, inputs: &[Vec<f64>], washout: usize) -> Result<MatF64> {
        if inputs.len() <= washout {
            return Err(Error::DimensionMismatch {
                context: format!(
                    "sequence length {} must exceed washout {washout}",
                    inputs.len()
                ),
            });
        }
        let n = self.state.len();
        let mut states = MatF64::zeros(inputs.len() - washout, n);
        for (t, u) in inputs.iter().enumerate() {
            self.update(u)?;
            if t >= washout {
                let q = f64::from(self.qmax_state());
                for (c, &v) in self.state.iter().enumerate() {
                    states.set(t - washout, c, f64::from(v) / q);
                }
            }
        }
        Ok(states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_bitserial::multiplier::{FixedMatrixMultiplier, WeightEncoding};

    fn small() -> IntEsnConfig {
        IntEsnConfig {
            esn: EsnConfig {
                reservoir_size: 40,
                element_sparsity: 0.85,
                seed: 11,
                ..EsnConfig::default()
            },
            weight_bits: 4,
            state_bits: 8,
        }
    }

    #[test]
    fn weights_fit_declared_bits() {
        let esn = IntEsn::new(small()).unwrap();
        assert!(esn.reservoir_matrix().fits_signed(4).unwrap());
    }

    #[test]
    fn quantization_preserves_sparsity_pattern_zeroes() {
        let float = Esn::new(small().esn).unwrap();
        let int = IntEsn::from_float(&float, 4, 8).unwrap();
        // Every zero float weight stays exactly zero.
        for (r, c, v) in int.reservoir_matrix().iter() {
            if float.reservoir_matrix().get(r, c) == 0.0 {
                assert_eq!(v, 0, "({r},{c})");
            }
        }
    }

    #[test]
    fn state_saturates_not_overflows() {
        let mut esn = IntEsn::new(small()).unwrap();
        for _ in 0..100 {
            esn.update(&[1.0]).unwrap();
        }
        let qmax = 127;
        assert!(esn.state.iter().all(|&v| v.abs() <= qmax));
        assert!(esn.state.iter().any(|&v| v != 0));
    }

    #[test]
    fn circuit_and_reference_are_bit_exact() {
        let cfg = IntEsnConfig {
            esn: EsnConfig {
                reservoir_size: 24,
                element_sparsity: 0.8,
                seed: 12,
                ..EsnConfig::default()
            },
            weight_bits: 3,
            state_bits: 6,
        };
        let mut reference = IntEsn::new(cfg.clone()).unwrap();
        let mut circuit = IntEsn::new(cfg.clone()).unwrap();
        let compiled =
            FixedMatrixMultiplier::compile(&circuit.recurrence_matrix(), cfg.state_bits, WeightEncoding::Pn)
                .unwrap();
        circuit.attach_backend(Arc::new(smm_runtime::BitSerial::new(Arc::new(compiled)))).unwrap();
        let name = circuit.backend.as_ref().map(|b| b.name());
        assert_eq!(name, Some("bitserial"));
        for t in 0..25 {
            let u = vec![(t as f64 * 0.37).sin() * 0.4];
            let a = reference.update(&u).unwrap().to_vec();
            let b = circuit.update(&u).unwrap().to_vec();
            assert_eq!(a, b, "step {t}");
        }
    }

    #[test]
    fn runtime_backends_are_bit_exact_with_reference() {
        use smm_runtime::{BitSerial, DenseRef, SparseCsr};

        let cfg = IntEsnConfig {
            esn: EsnConfig {
                reservoir_size: 20,
                element_sparsity: 0.8,
                seed: 13,
                ..EsnConfig::default()
            },
            weight_bits: 3,
            state_bits: 6,
        };
        let mut reference = IntEsn::new(cfg.clone()).unwrap();
        let wt = reference.recurrence_matrix();
        let circuit = FixedMatrixMultiplier::compile(&wt, cfg.state_bits, WeightEncoding::Pn).unwrap();
        let backends: Vec<Arc<dyn GemvBackend>> = vec![
            Arc::new(DenseRef::new(wt.clone())),
            Arc::new(SparseCsr::new(&wt)),
            Arc::new(BitSerial::new(Arc::new(circuit))),
        ];
        for backend in backends {
            let name = backend.name();
            let mut routed = IntEsn::new(cfg.clone()).unwrap();
            routed.attach_backend(backend).unwrap();
            assert_eq!(routed.backend.as_ref().map(|b| b.name()), Some(name));
            reference.state.fill(0);
            for t in 0..20 {
                let u = vec![(t as f64 * 0.29).sin() * 0.4];
                assert_eq!(
                    reference.update(&u).unwrap(),
                    routed.update(&u).unwrap(),
                    "{name} step {t}"
                );
            }
        }
    }

    #[test]
    fn attach_backend_validates_shape() {
        use smm_runtime::DenseRef;

        let mut esn = IntEsn::new(small()).unwrap();
        let wrong = IntMatrix::identity(7).unwrap();
        assert!(esn
            .attach_backend(Arc::new(DenseRef::new(wrong)))
            .is_err());
    }

    #[test]
    fn attach_backend_rejects_untransposed_matrix() {
        use smm_runtime::DenseRef;

        let mut esn = IntEsn::new(small()).unwrap();
        // Same (square) shape, but built over W_q instead of W_qᵀ: the
        // probe check must catch what the shape check cannot.
        let untransposed = esn.reservoir_matrix().clone();
        assert!(esn
            .attach_backend(Arc::new(DenseRef::new(untransposed)))
            .is_err());
        // The correct orientation attaches fine.
        let correct = esn.recurrence_matrix();
        assert!(esn.attach_backend(Arc::new(DenseRef::new(correct))).is_ok());
    }

    #[test]
    fn dequantized_state_in_unit_range() {
        let mut esn = IntEsn::new(small()).unwrap();
        let inputs: Vec<Vec<f64>> = (0..50)
            .map(|t| vec![(t as f64 * 0.2).cos() * 0.5])
            .collect();
        let states = esn.harvest_states(&inputs, 0).unwrap();
        assert!((0..states.rows()).all(|r| states.row(r).iter().all(|v| v.abs() <= 1.0)));
    }

    #[test]
    fn harvest_shapes() {
        let mut esn = IntEsn::new(small()).unwrap();
        let inputs: Vec<Vec<f64>> = (0..30).map(|t| vec![f64::from(t % 4) * 0.1]).collect();
        let states = esn.harvest_states(&inputs, 5).unwrap();
        assert_eq!(states.rows(), 25);
        assert_eq!(states.cols(), 40);
    }

    #[test]
    fn rejects_bad_widths() {
        let float = Esn::new(small().esn).unwrap();
        assert!(IntEsn::from_float(&float, 1, 8).is_err());
        assert!(IntEsn::from_float(&float, 4, 16).is_err());
    }

    #[test]
    fn integer_tracks_float_dynamics() {
        // The integer reservoir's state trajectory correlates with the
        // float one (quantization is lossy but not destructive).
        let float_cfg = small().esn;
        let mut float = Esn::new(float_cfg.clone()).unwrap();
        let mut int = IntEsn::new(small()).unwrap();
        let mut dots = 0.0;
        let mut nf = 0.0;
        let mut ni = 0.0;
        for t in 0..200 {
            let u = vec![(t as f64 * 0.17).sin() * 0.3];
            let fs = float.update(&u).unwrap().to_vec();
            int.update(&u).unwrap();
            if t >= 50 {
                let q = f64::from(int.qmax_state());
                let fi: Vec<f64> = int.state.iter().map(|&v| f64::from(v) / q).collect();
                for (a, b) in fs.iter().zip(&fi) {
                    dots += a * b;
                    nf += a * a;
                    ni += b * b;
                }
            }
        }
        let cosine = dots / (nf.sqrt() * ni.sqrt());
        assert!(cosine > 0.7, "cosine similarity {cosine}");
    }
}
