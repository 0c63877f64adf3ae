//! Reservoir computing end-to-end: an integer echo state network learns
//! NARMA-10, with its fixed recurrent matrix compiled to the spatial
//! bit-serial circuit — the paper's motivating application, closed-loop.
//!
//! Run with: `cargo run --release --example reservoir_narma`

use spatial_smm::bitserial::multiplier::{FixedMatrixMultiplier, WeightEncoding};
use spatial_smm::fpga::flow::{report_for, FlowOptions};
use spatial_smm::reservoir::esn::EsnConfig;
use spatial_smm::reservoir::int_esn::{IntEsn, IntEsnConfig};
use spatial_smm::reservoir::linalg::MatF64;
use spatial_smm::reservoir::metrics::nrmse;
use spatial_smm::reservoir::readout::Readout;
use spatial_smm::reservoir::tasks;
use spatial_smm::runtime::BitSerial;
use std::sync::Arc;

fn main() {
    let config = IntEsnConfig {
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
    };

    // Train on the fast reference arithmetic (bit-exact with the circuit).
    let mut esn = IntEsn::new(config.clone()).unwrap();
    let task = tasks::narma10(1600, 7);
    let (train, test) = task.split(1200);
    let washout = 100;

    let train_states = esn.harvest_states(&train.inputs, washout).unwrap();
    let train_targets = MatF64::from_fn(train.targets.len() - washout, 1, |r, _| {
        train.targets[r + washout][0]
    });
    let readout = Readout::train(&train_states, &train_targets, 1e-5, true).unwrap();

    let test_states = esn.harvest_states(&test.inputs, 0).unwrap();
    let pred = readout.predict_batch(&test_states);
    let predicted: Vec<f64> = (0..pred.rows()).map(|r| pred.get(r, 0)).collect();
    let actual: Vec<f64> = test.targets.iter().map(|t| t[0]).collect();
    println!(
        "NARMA-10, integer ESN (N=200, {}-bit weights, {}-bit state):",
        config.weight_bits, config.state_bits
    );
    println!("  test NRMSE = {:.3}  (predicting the mean scores 1.0)", nrmse(&predicted, &actual));

    // The recurrent matrix is fixed — synthesize it spatially and report
    // the per-step hardware latency the paper targets.
    let circuit = Arc::new(
        FixedMatrixMultiplier::compile(&esn.recurrence_matrix(), config.state_bits, WeightEncoding::Pn)
            .unwrap(),
    );
    let report = report_for(&circuit, &FlowOptions::default());
    println!("\nspatial implementation of the reservoir matrix:");
    println!(
        "  {} ones -> {} LUT @ {:.0} MHz, recurrence latency {:.1} ns/step",
        report.ones, report.resources.lut, report.fmax_mhz, report.latency_ns
    );

    // Prove the hardware would compute the same reservoir: run a short
    // segment on that circuit, simulated cycle-accurately behind the
    // backend the server serves through, and compare states.
    let mut ref_esn = IntEsn::new(config.clone()).unwrap();
    let mut circ_esn = IntEsn::new(config).unwrap();
    circ_esn.attach_backend(Arc::new(BitSerial::new(circuit))).unwrap();
    for u in task.inputs.iter().take(20) {
        let a = ref_esn.update(u).unwrap().to_vec();
        let b = circ_esn.update(u).unwrap().to_vec();
        assert_eq!(a, b);
    }
    println!("  20 recurrent steps on the simulated circuit: bit-exact vs reference ✓");
}
