//! Fault injection: deliberately corrupt a circuit and verify the
//! simulator exposes the fault. This guards the guards — if a miswired
//! netlist still matched the reference, the equivalence tests upstream
//! would be vacuous.

use smm_bitserial::netlist::Netlist;
use smm_bitserial::sim::Simulator;

/// Hand-builds the 2-row, weight-[1,1] column circuit: adder(in0, in1)
/// feeding the output through the chain/sub delay stages, with an optional
/// fault swapped in.
#[derive(Clone, Copy, PartialEq)]
enum Fault {
    None,
    /// The tree adder degenerates to a flip-flop (drops operand b).
    AdderBecomesDff,
    /// Operands swapped into a subtractor instead of an adder.
    AdderBecomesSubtractor,
    /// One input is stuck at zero.
    StuckInput,
}

fn build(fault: Fault) -> Netlist {
    let mut net = Netlist::new(2);
    let in0 = net.input(0);
    let in1 = match fault {
        Fault::StuckInput => net.zero(),
        _ => net.input(1),
    };
    let sum = match fault {
        Fault::AdderBecomesDff => net.dff(in0),
        Fault::AdderBecomesSubtractor => net.subtractor(in0, in1),
        _ => net.adder(in0, in1),
    };
    // Chain-top DFF + culled-subtractor DFF, as the real builder emits.
    let chain = net.dff(sum);
    let out = net.dff(chain);
    net.set_outputs(vec![Some(out)]);
    net
}

/// Runs the hand-built circuit on 8-bit inputs (a, b) in lane 0,
/// streamed LSB first and sign-extended, and decodes 12 two's-complement
/// output bits.
fn run(net: &Netlist, a: i64, b: i64) -> i64 {
    let mut sim = Simulator::new(net);
    let anchor = 3; // adder level + chain dff + output dff
    let width = 12u64;
    let mut value = 0i64;
    for t in 0..(anchor + width) {
        let bit = |x: i64| (x >> t.min(7)) as u64 & 1;
        sim.step(&[bit(a), bit(b)]);
        if t + 1 >= anchor && (t + 1) < anchor + width {
            value |= (sim.value(net.outputs()[0].unwrap()) as i64 & 1) << (t + 1 - anchor);
        }
    }
    // Sign-extend from the top output bit.
    (value << (64 - width)) >> (64 - width)
}

#[test]
fn healthy_circuit_adds() {
    let net = build(Fault::None);
    for (a, b) in [(3, 7), (-5, 9), (127, 127), (-128, -128), (0, 0)] {
        assert_eq!(run(&net, a, b), a + b, "{a} + {b}");
    }
}

#[test]
fn dropped_operand_is_detected() {
    let net = build(Fault::AdderBecomesDff);
    // The fault silently forwards only input 0.
    assert_eq!(run(&net, 3, 7), 3);
    assert_ne!(run(&net, 3, 7), 3 + 7);
}

#[test]
fn wrong_operation_is_detected() {
    let net = build(Fault::AdderBecomesSubtractor);
    assert_eq!(run(&net, 3, 7), 3 - 7);
    assert_ne!(run(&net, 3, 7), 3 + 7);
}

#[test]
fn stuck_input_is_detected() {
    let net = build(Fault::StuckInput);
    assert_eq!(run(&net, 3, 7), 3);
    // Every case where b matters diverges from the healthy circuit.
    let healthy = build(Fault::None);
    let mut divergences = 0;
    for (a, b) in [(1, 1), (-2, 5), (100, -100), (0, 64)] {
        if run(&net, a, b) != run(&healthy, a, b) {
            divergences += 1;
        }
    }
    assert_eq!(divergences, 4);
}

#[test]
fn single_bit_weight_error_changes_results() {
    // Two circuits compiled from matrices differing in ONE weight bit must
    // produce different outputs for some input — the compiler does not
    // smear information across weights.
    use smm_bitserial::multiplier::{FixedMatrixMultiplier, WeightEncoding};
    use smm_core::generate::element_sparse_matrix;
    use smm_core::rng::seeded;

    let mut rng = seeded(321);
    let m = element_sparse_matrix(16, 16, 8, 0.5, true, &mut rng).unwrap();
    let mut corrupted = m.clone();
    // Flip the lowest bit of one non-zero weight.
    let (r, c, v) = m.iter_nonzero().next().unwrap();
    corrupted.set(r, c, v ^ 1);

    let good = FixedMatrixMultiplier::compile(&m, 8, WeightEncoding::Pn).unwrap();
    let bad = FixedMatrixMultiplier::compile(&corrupted, 8, WeightEncoding::Pn).unwrap();
    let mut probe = vec![0i32; 16];
    probe[r] = 1; // sensitize exactly the flipped weight's row
    let g = good.mul(&probe).unwrap();
    let b = bad.mul(&probe).unwrap();
    assert_ne!(g, b);
    assert_eq!(g[c] - b[c], i64::from(v) - i64::from(v ^ 1));
}
