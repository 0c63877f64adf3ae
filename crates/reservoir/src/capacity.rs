//! Memory capacity (Jaeger): how many steps of its input history a
//! reservoir can linearly reconstruct — `MC = Σ_k r²(k)` over delays `k`.
//!
//! This quantifies why reservoir sparsity matters (the paper's reference
//! \[10\]: sparsity above ~80 % enables "rich interaction among neurons")
//! and backs the extension experiment `ext2`.

use crate::esn::Esn;
use crate::linalg::MatF64;
use crate::metrics::squared_correlation;
use crate::readout::Readout;
use rand::Rng;
use smm_core::error::Result;
use smm_core::rng;

/// Result of a memory-capacity measurement.
#[derive(Debug, Clone)]
pub struct MemoryCapacity {
    /// `r²(k)` for each delay `k = 1..=max_delay`.
    pub(crate) per_delay: Vec<f64>,
}

impl MemoryCapacity {
    /// The total capacity `Σ_k r²(k)` (bounded above by the reservoir
    /// dimension).
    pub fn total(&self) -> f64 {
        self.per_delay.iter().sum()
    }

    /// The largest delay still reconstructed with `r² ≥ 0.5`.
    pub fn half_horizon(&self) -> usize {
        self.per_delay
            .iter()
            .rposition(|&r| r >= 0.5)
            .map_or(0, |i| i + 1)
    }
}

/// Measures memory capacity: drives the reservoir with white noise, trains
/// one linear readout per delay on the first half, and scores `r²` on the
/// second half.
pub fn memory_capacity(
    esn: &mut Esn,
    max_delay: usize,
    length: usize,
    seed: u64,
) -> Result<MemoryCapacity> {
    assert!(max_delay > 0, "need at least one delay");
    assert!(
        length > 4 * max_delay + 200,
        "sequence too short for the requested delay range"
    );
    let mut r = rng::derived(seed, 20);
    let u: Vec<f64> = (0..length).map(|_| r.gen_range(-0.8..=0.8)).collect();
    let inputs: Vec<Vec<f64>> = u.iter().map(|&v| vec![v]).collect();

    let washout = 100.max(2 * max_delay);
    esn.reset();
    let states = esn.harvest_states(&inputs, washout)?;
    let samples = states.rows();
    let train_len = samples / 2;

    // Target matrix: column k-1 is u delayed by k (aligned to the
    // harvested window).
    let targets = MatF64::from_fn(samples, max_delay, |t, k| u[t + washout - (k + 1)]);
    let train_states = MatF64::from_fn(train_len, states.cols(), |r_, c| states.get(r_, c));
    let train_targets = MatF64::from_fn(train_len, max_delay, |r_, c| targets.get(r_, c));
    let readout = Readout::train(&train_states, &train_targets, 1e-7, true)?;

    let mut per_delay = Vec::with_capacity(max_delay);
    let test: Vec<usize> = (train_len..samples).collect();
    let predictions: Vec<Vec<f64>> = test
        .iter()
        .map(|&t| readout.predict(states.row(t)))
        .collect();
    for k in 0..max_delay {
        let predicted: Vec<f64> = predictions.iter().map(|p| p[k]).collect();
        let actual: Vec<f64> = test.iter().map(|&t| targets.get(t, k)).collect();
        per_delay.push(squared_correlation(&predicted, &actual));
    }
    Ok(MemoryCapacity { per_delay })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::esn::EsnConfig;

    fn measure(reservoir_size: usize, sparsity: f64) -> MemoryCapacity {
        let mut esn = Esn::new(EsnConfig {
            reservoir_size,
            element_sparsity: sparsity,
            spectral_radius: 0.95,
            input_scaling: 0.3,
            seed: 77,
            ..EsnConfig::default()
        })
        .unwrap();
        memory_capacity(&mut esn, 20, 1500, 5).unwrap()
    }

    #[test]
    fn recent_inputs_are_remembered_well() {
        let mc = measure(80, 0.9);
        assert!(mc.per_delay[0] > 0.9, "delay-1 r² {}", mc.per_delay[0]);
        assert!(mc.per_delay[1] > 0.8, "delay-2 r² {}", mc.per_delay[1]);
        // Memory fades with delay.
        assert!(mc.per_delay[15] < mc.per_delay[0]);
        assert!(mc.half_horizon() >= 2);
    }

    #[test]
    fn capacity_grows_with_reservoir_size() {
        let small = measure(30, 0.9).total();
        let large = measure(120, 0.9).total();
        assert!(large > small, "small {small} large {large}");
    }

    #[test]
    fn total_bounded_by_dimension() {
        let mc = measure(40, 0.9);
        assert!(mc.total() <= 40.0);
        assert!(mc.total() > 1.0);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn rejects_short_sequences() {
        let mut esn = Esn::new(EsnConfig {
            reservoir_size: 20,
            seed: 1,
            ..EsnConfig::default()
        })
        .unwrap();
        let _ = memory_capacity(&mut esn, 50, 300, 1);
    }
}
