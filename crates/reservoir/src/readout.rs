//! The trained part of a reservoir system: a linear readout fitted with
//! ridge regression — "only a linear regressor needs to be trained, which
//! completely eliminates error backpropagation" (paper Section II).

use crate::linalg::{ridge_regression, MatF64};
use smm_core::error::{Error, Result};

/// A linear readout `y = W_outᵀ·x` (optionally with a bias feature).
#[derive(Debug, Clone)]
pub struct Readout {
    /// `features × targets` weights.
    weights: MatF64,
    bias: bool,
}

impl Readout {
    /// Fits a readout on harvested states.
    ///
    /// `states` is `samples × N`, `targets` is `samples × T`. With
    /// `bias = true` a constant-1 feature is appended. `lambda` is the
    /// ridge regularizer.
    pub fn train(states: &MatF64, targets: &MatF64, lambda: f64, bias: bool) -> Result<Self> {
        if states.rows() != targets.rows() {
            return Err(Error::DimensionMismatch {
                context: format!(
                    "{} state rows vs {} target rows",
                    states.rows(),
                    targets.rows()
                ),
            });
        }
        let x = if bias { with_bias(states) } else { states.clone() };
        Ok(Self {
            weights: ridge_regression(&x, targets, lambda),
            bias,
        })
    }

    /// Predicts targets for one state vector.
    pub(crate) fn predict(&self, state: &[f64]) -> Vec<f64> {
        let expect = self.weights.rows() - usize::from(self.bias);
        assert_eq!(state.len(), expect, "state length mismatch");
        let t = self.weights.cols();
        let mut out = vec![0.0; t];
        for (f, &s) in state.iter().enumerate() {
            for (j, o) in out.iter_mut().enumerate() {
                *o += s * self.weights.get(f, j);
            }
        }
        if self.bias {
            let last = self.weights.rows() - 1;
            for (j, o) in out.iter_mut().enumerate() {
                *o += self.weights.get(last, j);
            }
        }
        out
    }

    /// Predicts for every row of a state matrix, returning `samples × T`.
    pub fn predict_batch(&self, states: &MatF64) -> MatF64 {
        let mut out = MatF64::zeros(states.rows(), self.weights.cols());
        for r in 0..states.rows() {
            let y = self.predict(states.row(r));
            for (c, &v) in y.iter().enumerate() {
                out.set(r, c, v);
            }
        }
        out
    }
}

fn with_bias(states: &MatF64) -> MatF64 {
    MatF64::from_fn(states.rows(), states.cols() + 1, |r, c| {
        if c < states.cols() {
            states.get(r, c)
        } else {
            1.0
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_exact_linear_map() {
        let states = MatF64::from_fn(40, 4, |r, c| ((r * 5 + c * 3) % 13) as f64 - 6.0);
        let w =
            crate::linalg::tests::from_vec(4, 2, vec![1.0, -2.0, 0.5, 0.0, -1.0, 3.0, 2.0, 1.0]);
        let targets = states.matmul(&w);
        let readout = Readout::train(&states, &targets, 1e-9, false).unwrap();
        let pred = readout.predict_batch(&states);
        for r in 0..40 {
            for c in 0..2 {
                assert!((pred.get(r, c) - targets.get(r, c)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn bias_learns_offsets() {
        let states = MatF64::from_fn(30, 2, |r, c| ((r + c) % 5) as f64);
        // y = x0 - x1 + 7.
        let targets = MatF64::from_fn(30, 1, |r, _| {
            states.get(r, 0) - states.get(r, 1) + 7.0
        });
        let readout = Readout::train(&states, &targets, 1e-9, true).unwrap();
        let y = readout.predict(states.row(3));
        assert!((y[0] - targets.get(3, 0)).abs() < 1e-6);
    }

    #[test]
    fn mismatched_rows_rejected() {
        let states = MatF64::zeros(10, 3);
        let targets = MatF64::zeros(9, 1);
        assert!(Readout::train(&states, &targets, 0.1, false).is_err());
    }

    #[test]
    #[should_panic(expected = "state length")]
    fn wrong_state_length_panics() {
        let states = MatF64::from_fn(10, 3, |r, c| (r + c) as f64);
        let targets = MatF64::zeros(10, 1);
        let readout = Readout::train(&states, &targets, 0.1, false).unwrap();
        readout.predict(&[1.0, 2.0]);
    }
}
