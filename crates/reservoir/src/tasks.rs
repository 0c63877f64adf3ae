//! Benchmark tasks from the reservoir-computing literature the paper builds
//! on: NARMA-10 and nonlinear channel equalization (the task of the
//! paper's reference \[3\]).

use rand::Rng;
use smm_core::rng;

/// A supervised sequence task: per-step inputs and targets.
#[derive(Debug, Clone)]
pub struct SequenceTask {
    /// One input vector per time step.
    pub inputs: Vec<Vec<f64>>,
    /// One target vector per time step.
    pub targets: Vec<Vec<f64>>,
    /// Human-readable task name.
    pub(crate) name: &'static str,
}

impl SequenceTask {
    /// Number of time steps.
    pub(crate) fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Splits into (train, test) at `at`.
    pub fn split(&self, at: usize) -> (SequenceTask, SequenceTask) {
        assert!(at < self.len(), "split point beyond task length");
        (
            SequenceTask {
                inputs: self.inputs[..at].to_vec(),
                targets: self.targets[..at].to_vec(),
                name: self.name,
            },
            SequenceTask {
                inputs: self.inputs[at..].to_vec(),
                targets: self.targets[at..].to_vec(),
                name: self.name,
            },
        )
    }
}

/// NARMA-10: the classic nonlinear autoregressive moving-average benchmark.
///
/// `y(t+1) = 0.3·y(t) + 0.05·y(t)·Σ_{i=0}^{9} y(t−i) + 1.5·u(t−9)·u(t) + 0.1`
/// with `u ~ U[0, 0.5]`. The target at step `t` is `y(t)`.
pub fn narma10(len: usize, seed: u64) -> SequenceTask {
    let mut r = rng::derived(seed, 10);
    let u: Vec<f64> = (0..len).map(|_| r.gen_range(0.0..0.5)).collect();
    let mut y = vec![0.0f64; len];
    for t in 9..len.saturating_sub(1) {
        let window: f64 = y[t - 9..=t].iter().sum();
        y[t + 1] =
            (0.3 * y[t] + 0.05 * y[t] * window + 1.5 * u[t - 9] * u[t] + 0.1).clamp(-10.0, 10.0);
    }
    SequenceTask {
        inputs: u.iter().map(|&v| vec![v]).collect(),
        targets: y.iter().map(|&v| vec![v]).collect(),
        name: "narma10",
    }
}

/// Nonlinear channel equalization (Jaeger; the paper's reference \[3\] runs
/// it on an FPGA reservoir): a 4-ary symbol sequence `d(n) ∈ {−3,−1,1,3}`
/// passes through a linear inter-symbol-interference channel, a memoryless
/// nonlinearity and additive noise; the task is recovering `d(n−2)` from
/// the received signal.
pub fn channel_equalization(len: usize, noise_amplitude: f64, seed: u64) -> SequenceTask {
    let mut r = rng::derived(seed, 12);
    let symbols = [-3.0, -1.0, 1.0, 3.0];
    let pad = 9;
    let d: Vec<f64> = (0..len + pad)
        .map(|_| symbols[r.gen_range(0..4)])
        .collect();
    // Jaeger's channel: q(n) = 0.08 d(n+2) − 0.12 d(n+1) + d(n) + 0.18 d(n−1)
    //                         − 0.1 d(n−2) + 0.09 d(n−3) − 0.05 d(n−4) + 0.04 d(n−5)
    //                         + 0.03 d(n−6) + 0.01 d(n−7)
    // then u(n) = q(n) + 0.036 q(n)² − 0.011 q(n)³ + noise.
    let taps: [(i64, f64); 10] = [
        (2, 0.08),
        (1, -0.12),
        (0, 1.0),
        (-1, 0.18),
        (-2, -0.1),
        (-3, 0.09),
        (-4, -0.05),
        (-5, 0.04),
        (-6, 0.03),
        (-7, 0.01),
    ];
    let mut inputs = Vec::with_capacity(len);
    let mut targets = Vec::with_capacity(len);
    for n in 7..(len + 7) {
        let q: f64 = taps
            .iter()
            .map(|&(off, w)| {
                let idx = n as i64 + off;
                w * d[idx as usize]
            })
            .sum();
        let u = q + 0.036 * q * q - 0.011 * q * q * q + r.gen_range(-noise_amplitude..=noise_amplitude);
        inputs.push(vec![u]);
        targets.push(vec![d[n - 2]]);
    }
    SequenceTask {
        inputs,
        targets,
        name: "channel_equalization",
    }
}

/// Maps equalizer outputs back to the nearest 4-ary symbol.
pub fn nearest_symbol(y: f64) -> f64 {
    [-3.0, -1.0, 1.0, 3.0]
        .into_iter()
        .min_by(|a, b| (a - y).abs().partial_cmp(&(b - y).abs()).unwrap())
        .unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narma_shapes_and_determinism() {
        let a = narma10(500, 1);
        let b = narma10(500, 1);
        assert_eq!(a.len(), 500);
        assert_eq!(a.targets, b.targets);
        // Inputs in [0, 0.5); targets bounded and non-trivial.
        assert!(a.inputs.iter().all(|u| (0.0..0.5).contains(&u[0])));
        assert!(a.targets.iter().any(|y| y[0].abs() > 0.01));
        assert!(a.targets.iter().all(|y| y[0].abs() <= 10.0));
    }

    #[test]
    fn channel_symbols_and_interference() {
        let t = channel_equalization(300, 0.01, 3);
        assert_eq!(t.len(), 300);
        assert!(t
            .targets
            .iter()
            .all(|d| [-3.0, -1.0, 1.0, 3.0].contains(&d[0])));
        // Received signal is distorted: not equal to any clean symbol.
        let distorted = t
            .inputs
            .iter()
            .filter(|u| [-3.0, -1.0, 1.0, 3.0].iter().all(|s| (u[0] - s).abs() > 1e-9))
            .count();
        assert!(distorted > 250);
    }

    #[test]
    fn split_preserves_order() {
        let t = narma10(100, 5);
        let (train, test) = t.split(80);
        assert_eq!(train.len(), 80);
        assert_eq!(test.len(), 20);
        assert_eq!(test.inputs[0], t.inputs[80]);
    }

    #[test]
    fn nearest_symbol_rounds() {
        assert_eq!(nearest_symbol(2.7), 3.0);
        assert_eq!(nearest_symbol(-0.2), -1.0);
        assert_eq!(nearest_symbol(0.2), 1.0);
        assert_eq!(nearest_symbol(-9.0), -3.0);
    }
}
