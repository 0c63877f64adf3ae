//! End-to-end reservoir learning quality: the full pipeline (fixed random
//! reservoir → harvested states → ridge readout) actually solves the
//! benchmark tasks, in float and in integer arithmetic.

use smm_reservoir::capacity::memory_capacity;
use smm_reservoir::esn::{Esn, EsnConfig};
use smm_bitserial::multiplier::{FixedMatrixMultiplier, WeightEncoding};
use smm_reservoir::int_esn::{IntEsn, IntEsnConfig};
use smm_reservoir::linalg::MatF64;
use smm_reservoir::metrics::{nrmse, symbol_error_rate};
use smm_reservoir::readout::Readout;
use smm_reservoir::tasks;

fn targets_matrix(targets: &[Vec<f64>]) -> MatF64 {
    MatF64::from_fn(targets.len(), targets[0].len(), |r, c| targets[r][c])
}

/// Train on the first part of a task, evaluate NRMSE on the rest.
fn run_float(esn: &mut Esn, task: &tasks::SequenceTask, washout: usize, split: usize) -> f64 {
    let (train, test) = task.split(split);
    let train_states = esn.harvest_states(&train.inputs, washout).unwrap();
    let train_targets = targets_matrix(&train.targets[washout..]);
    let readout = Readout::train(&train_states, &train_targets, 1e-6, true).unwrap();
    // Keep the state warm across the split (continuous sequence).
    let test_states = esn.harvest_states(&test.inputs, 0).unwrap();
    let pred = readout.predict_batch(&test_states);
    let predicted: Vec<f64> = (0..pred.rows()).map(|r| pred.get(r, 0)).collect();
    let actual: Vec<f64> = test.targets.iter().map(|t| t[0]).collect();
    nrmse(&predicted, &actual)
}

#[test]
fn float_esn_solves_narma10() {
    let mut esn = Esn::new(EsnConfig {
        reservoir_size: 200,
        element_sparsity: 0.9,
        spectral_radius: 0.9,
        input_scaling: 0.4,
        seed: 42,
        ..EsnConfig::default()
    })
    .unwrap();
    let task = tasks::narma10(1600, 7);
    let score = run_float(&mut esn, &task, 100, 1200);
    // Mean-prediction scores 1.0; a working reservoir is far below.
    assert!(score < 0.55, "NARMA-10 NRMSE {score}");
}

#[test]
fn float_esn_equalizes_channel() {
    let mut esn = Esn::new(EsnConfig {
        reservoir_size: 200,
        element_sparsity: 0.9,
        spectral_radius: 0.8,
        input_scaling: 0.25,
        seed: 44,
        ..EsnConfig::default()
    })
    .unwrap();
    let task = tasks::channel_equalization(2000, 0.02, 9);
    let (train, test) = task.split(1500);
    let washout = 100;
    let train_states = esn.harvest_states(&train.inputs, washout).unwrap();
    let train_targets = targets_matrix(&train.targets[washout..]);
    let readout = Readout::train(&train_states, &train_targets, 1e-4, true).unwrap();
    let test_states = esn.harvest_states(&test.inputs, 0).unwrap();
    let pred = readout.predict_batch(&test_states);
    let decided: Vec<f64> = (0..pred.rows())
        .map(|r| tasks::nearest_symbol(pred.get(r, 0)))
        .collect();
    let actual: Vec<f64> = test.targets.iter().map(|t| t[0]).collect();
    let ser = symbol_error_rate(&decided, &actual);
    // Random guessing is 0.75; the reservoir equalizer should be far below.
    assert!(ser < 0.10, "symbol error rate {ser}");
}

#[test]
fn reservoir_has_memory() {
    // The input ten steps back is still linearly recoverable: every
    // delay up to 10 keeps Jaeger's r² at one half or more.
    let mut esn = Esn::new(EsnConfig {
        reservoir_size: 120,
        element_sparsity: 0.9,
        spectral_radius: 0.95,
        input_scaling: 0.3,
        seed: 45,
        ..EsnConfig::default()
    })
    .unwrap();
    let mc = memory_capacity(&mut esn, 10, 1200, 10).unwrap();
    assert_eq!(mc.half_horizon(), 10, "{mc:?}");
}

#[test]
fn integer_esn_solves_narma10() {
    // The quantized (int8-state, int4-weight) reservoir still learns the
    // task — Kleyko et al.'s claim, and the reason int8 spatial hardware
    // is enough for reservoir computing.
    let mut esn = IntEsn::new(
        IntEsnConfig {
            esn: EsnConfig {
                reservoir_size: 200,
                element_sparsity: 0.9,
                spectral_radius: 0.9,
                input_scaling: 0.4,
                seed: 42,
                ..EsnConfig::default()
            },
            weight_bits: 5,
            state_bits: 10,
        },
    )
    .unwrap();
    let task = tasks::narma10(1600, 7);
    let (train, test) = task.split(1200);
    let washout = 100;
    let train_states = esn.harvest_states(&train.inputs, washout).unwrap();
    let train_targets = targets_matrix(&train.targets[washout..]);
    let readout = Readout::train(&train_states, &train_targets, 1e-5, true).unwrap();
    let test_states = esn.harvest_states(&test.inputs, 0).unwrap();
    let pred = readout.predict_batch(&test_states);
    let predicted: Vec<f64> = (0..pred.rows()).map(|r| pred.get(r, 0)).collect();
    let actual: Vec<f64> = test.targets.iter().map(|t| t[0]).collect();
    let score = nrmse(&predicted, &actual);
    assert!(score < 0.7, "integer NARMA-10 NRMSE {score}");
}

#[test]
fn circuit_engine_runs_a_real_task_bit_exact() {
    // Drive a short NARMA segment through reference and circuit engines;
    // every harvested state must agree exactly.
    let cfg = IntEsnConfig {
        esn: EsnConfig {
            reservoir_size: 32,
            element_sparsity: 0.85,
            seed: 46,
            ..EsnConfig::default()
        },
        weight_bits: 4,
        state_bits: 8,
    };
    let mut reference = IntEsn::new(cfg.clone()).unwrap();
    let mut circuit = IntEsn::new(cfg.clone()).unwrap();
    // The circuit the server serves: compiled over the transposed
    // reservoir, attached in place of the reference `matvec`.
    let compiled =
        FixedMatrixMultiplier::compile(&circuit.recurrence_matrix(), cfg.state_bits, WeightEncoding::Pn)
            .unwrap();
    let backend = smm_runtime::BitSerial::new(std::sync::Arc::new(compiled));
    circuit.attach_backend(std::sync::Arc::new(backend)).unwrap();
    let task = tasks::narma10(40, 11);
    for (t, u) in task.inputs.iter().enumerate() {
        let a = reference.update(u).unwrap().to_vec();
        let b = circuit.update(u).unwrap().to_vec();
        assert_eq!(a, b, "diverged at step {t}");
    }
}
