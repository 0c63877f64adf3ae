//! Floating-point echo state networks (Equations 1–2 of the paper).
//!
//! `x(n) = (1−α)·x(n−1) + α·f(W_in·u(n) + W·x(n−1))`, `y(n) = W_out·x(n)`:
//! a large, sparse, *fixed* random recurrent matrix `W` scaled to a target
//! spectral radius, a fixed random input matrix, and a readout trained by
//! ridge regression (no backpropagation anywhere).

use crate::linalg::MatF64;
use rand::Rng;
use smm_core::error::{Error, Result};
use smm_core::rng;

/// Echo-state-network hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct EsnConfig {
    /// Reservoir dimension (the paper's motivating sizes run 300–4096).
    pub reservoir_size: usize,
    /// Input dimensionality.
    pub input_dim: usize,
    /// Fraction of zero elements in `W` (reservoir literature: ≥ 75–80 %).
    pub element_sparsity: f64,
    /// Target spectral radius of `W` (echo-state property wants < 1).
    pub spectral_radius: f64,
    /// Scale of the dense random input matrix `W_in`.
    pub input_scaling: f64,
    /// Leak rate α ∈ (0, 1]; 1 disables leaky integration.
    pub leak_rate: f64,
    /// Seed for all the fixed random structure.
    pub seed: u64,
}

impl Default for EsnConfig {
    fn default() -> Self {
        Self {
            reservoir_size: 300,
            input_dim: 1,
            element_sparsity: 0.9,
            spectral_radius: 0.9,
            input_scaling: 0.5,
            leak_rate: 1.0,
            seed: 0,
        }
    }
}

impl EsnConfig {
    fn validate(&self) -> Result<()> {
        if self.reservoir_size == 0 || self.input_dim == 0 {
            return Err(Error::EmptyDimension);
        }
        if !(0.0..=1.0).contains(&self.element_sparsity) {
            return Err(Error::InvalidProbability {
                value: self.element_sparsity,
            });
        }
        if !(self.leak_rate > 0.0 && self.leak_rate <= 1.0) {
            return Err(Error::InvalidProbability {
                value: self.leak_rate,
            });
        }
        Ok(())
    }
}

/// A float echo state network with tanh activation.
#[derive(Debug, Clone)]
pub struct Esn {
    config: EsnConfig,
    /// Reservoir matrix, `N × N`, sparse, fixed.
    w: MatF64,
    /// Input matrix, `N × K`, dense, fixed.
    w_in: MatF64,
    state: Vec<f64>,
}

impl Esn {
    /// Builds the fixed random reservoir: `W` sparse uniform scaled to the
    /// target spectral radius, `W_in` dense uniform in
    /// `[−input_scaling, input_scaling]`.
    pub fn new(config: EsnConfig) -> Result<Self> {
        config.validate()?;
        let n = config.reservoir_size;
        let mut rng_w = rng::derived(config.seed, 0);
        let mut w = MatF64::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                if rng_w.gen::<f64>() >= config.element_sparsity {
                    w.set(r, c, rng_w.gen_range(-1.0..=1.0));
                }
            }
        }
        let sr = w.spectral_radius(100, config.seed ^ 0xABCD);
        if sr > 1e-12 {
            let scale = config.spectral_radius / sr;
            w = MatF64::from_fn(n, n, |r, c| w.get(r, c) * scale);
        }
        let mut rng_in = rng::derived(config.seed, 1);
        let w_in = MatF64::from_fn(n, config.input_dim, |_, _| {
            rng_in.gen_range(-config.input_scaling..=config.input_scaling)
        });
        Ok(Self {
            config,
            w,
            w_in,
            state: vec![0.0; n],
        })
    }

    /// The configuration.
    pub(crate) fn config(&self) -> &EsnConfig {
        &self.config
    }

    /// The fixed reservoir matrix (for quantization / circuit compilation).
    pub(crate) fn reservoir_matrix(&self) -> &MatF64 {
        &self.w
    }

    /// The fixed input matrix.
    pub(crate) fn input_matrix(&self) -> &MatF64 {
        &self.w_in
    }

    /// Zeroes the state.
    pub fn reset(&mut self) {
        self.state.iter_mut().for_each(|v| *v = 0.0);
    }

    /// One recurrent update; returns the new state.
    pub(crate) fn update(&mut self, input: &[f64]) -> Result<&[f64]> {
        if input.len() != self.config.input_dim {
            return Err(Error::DimensionMismatch {
                context: format!(
                    "input length {} vs input_dim {}",
                    input.len(),
                    self.config.input_dim
                ),
            });
        }
        let drive = self.w_in.matvec(input);
        let recur = self.w.matvec(&self.state);
        let alpha = self.config.leak_rate;
        for (i, x) in self.state.iter_mut().enumerate() {
            let pre = drive[i] + recur[i];
            *x = (1.0 - alpha) * *x + alpha * pre.tanh();
        }
        Ok(&self.state)
    }

    /// Runs a whole input sequence (rows of `inputs` are time steps),
    /// discarding the first `washout` states and collecting the rest into
    /// a `T−washout × N` state matrix.
    pub fn harvest_states(&mut self, inputs: &[Vec<f64>], washout: usize) -> Result<MatF64> {
        if inputs.len() <= washout {
            return Err(Error::DimensionMismatch {
                context: format!(
                    "sequence length {} must exceed washout {washout}",
                    inputs.len()
                ),
            });
        }
        let n = self.config.reservoir_size;
        let mut states = MatF64::zeros(inputs.len() - washout, n);
        for (t, u) in inputs.iter().enumerate() {
            self.update(u)?;
            if t >= washout {
                for (c, &v) in self.state.iter().enumerate() {
                    states.set(t - washout, c, v);
                }
            }
        }
        Ok(states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> EsnConfig {
        EsnConfig {
            reservoir_size: 50,
            seed: 7,
            ..EsnConfig::default()
        }
    }

    #[test]
    fn reservoir_hits_spectral_radius() {
        let esn = Esn::new(small_config()).unwrap();
        let sr = esn.reservoir_matrix().spectral_radius(200, 9);
        assert!((sr - 0.9).abs() < 0.02, "sr {sr}");
    }

    #[test]
    fn reservoir_sparsity_near_target() {
        let esn = Esn::new(EsnConfig {
            reservoir_size: 100,
            element_sparsity: 0.9,
            seed: 8,
            ..EsnConfig::default()
        })
        .unwrap();
        let nnz = esn
            .reservoir_matrix()
            .as_slice()
            .iter()
            .filter(|&&v| v != 0.0)
            .count();
        let density = nnz as f64 / 10_000.0;
        assert!((density - 0.1).abs() < 0.03, "density {density}");
    }

    #[test]
    fn state_stays_bounded() {
        let mut esn = Esn::new(small_config()).unwrap();
        for t in 0..200 {
            let u = vec![(t as f64 * 0.1).sin()];
            esn.update(&u).unwrap();
        }
        assert!(esn.state.iter().all(|v| v.abs() <= 1.0));
        assert!(esn.state.iter().any(|v| v.abs() > 1e-6));
    }

    #[test]
    fn echo_state_property_forgets_initial_conditions() {
        // Two copies driven by the same input from different states converge.
        let mut a = Esn::new(small_config()).unwrap();
        let mut b = Esn::new(small_config()).unwrap();
        // Perturb b's state.
        for u in [vec![0.3], vec![-0.7], vec![0.1]] {
            b.update(&u).unwrap();
        }
        for t in 0..300 {
            let u = vec![(t as f64 * 0.3).sin() * 0.5];
            a.update(&u).unwrap();
            b.update(&u).unwrap();
        }
        let dist: f64 = a
            .state
            .iter()
            .zip(&b.state)
            .map(|(x, y)| (x - y).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(dist < 1e-6, "states did not converge: {dist}");
    }

    #[test]
    fn harvest_shape_and_washout() {
        let mut esn = Esn::new(small_config()).unwrap();
        let inputs: Vec<Vec<f64>> = (0..30).map(|t| vec![f64::from(t % 3) * 0.1]).collect();
        let states = esn.harvest_states(&inputs, 10).unwrap();
        assert_eq!(states.rows(), 20);
        assert_eq!(states.cols(), 50);
        assert!(esn.harvest_states(&inputs[..5], 10).is_err());
    }

    #[test]
    fn config_validation() {
        assert!(Esn::new(EsnConfig {
            reservoir_size: 0,
            ..EsnConfig::default()
        })
        .is_err());
        assert!(Esn::new(EsnConfig {
            element_sparsity: 1.5,
            ..EsnConfig::default()
        })
        .is_err());
        assert!(Esn::new(EsnConfig {
            leak_rate: 0.0,
            ..EsnConfig::default()
        })
        .is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Esn::new(small_config()).unwrap();
        let b = Esn::new(small_config()).unwrap();
        assert_eq!(a.reservoir_matrix().as_slice(), b.reservoir_matrix().as_slice());
        assert_eq!(a.input_matrix().as_slice(), b.input_matrix().as_slice());
    }
}
