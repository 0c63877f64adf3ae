//! Quickstart: compile a fixed sparse matrix into a spatial bit-serial
//! circuit, multiply a vector through the cycle-accurate simulator, and
//! read the FPGA synthesis report.
//!
//! Run with: `cargo run --release --example quickstart`

use spatial_smm::core::generate::{element_sparse_matrix, random_vector};
use spatial_smm::core::gemv::vecmat;
use spatial_smm::core::rng::seeded;
use spatial_smm::fpga::flow::{synthesize, FlowOptions};

fn main() {
    // A fixed 256x256 reservoir-style weight matrix: signed 8-bit values,
    // 90 % of the elements zero. In reservoir computing this matrix never
    // changes, which is what makes hardwiring it worthwhile.
    let mut rng = seeded(42);
    let v = element_sparse_matrix(256, 256, 8, 0.90, true, &mut rng).unwrap();

    // One call runs the paper's whole flow: sign split, constant
    // propagation, reduction-tree construction, resource mapping, timing
    // and power estimation.
    let (multiplier, report) = synthesize(&v, &FlowOptions::default()).unwrap();

    println!("compiled a 256x256, 90%-sparse, signed 8-bit matrix:");
    println!("  ones (set weight bits): {}", report.ones);
    println!(
        "  resources: {} LUT, {} FF, {} LUTRAM",
        report.resources.lut, report.resources.ff, report.resources.lutram
    );
    println!(
        "  timing: {:.0} MHz across {} SLR(s)",
        report.fmax_mhz, report.slrs_spanned
    );
    println!(
        "  latency: {} cycles = {:.1} ns  (Equation 5: BWi + BWw + log2 R + 2)",
        report.latency_cycles, report.latency_ns
    );
    println!(
        "  power: {:.1} W  (thermal ok: {})",
        report.power.total_w(),
        report.thermally_feasible
    );

    // Multiply a random signed vector through the simulated circuit and
    // check it against reference integer arithmetic.
    let a = random_vector(256, 8, true, &mut rng).unwrap();
    let circuit_out = multiplier.mul(&a).unwrap();
    let reference = vecmat(&a, &v).unwrap();
    assert_eq!(circuit_out, reference);
    println!(
        "\nsimulated o = aᵀV across {} gate-level nodes: bit-exact vs reference ✓",
        multiplier.circuit().netlist.nodes().len()
    );
    println!("first outputs: {:?}", &circuit_out[..8.min(circuit_out.len())]);
}
