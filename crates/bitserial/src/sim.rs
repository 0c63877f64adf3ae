//! Cycle-accurate synchronous simulation of a bit-serial netlist.
//!
//! Every adder, subtractor and flip-flop output is a register; input taps
//! are wires fed by the (sign-extending) input shift registers. One
//! [`Simulator::step`] is one clock edge: all next-register values are
//! computed from the current values, then committed together.

use crate::netlist::{Netlist, NodeId, NodeKind};
use crate::primitive::full_adder;

/// A running simulation of one [`Netlist`].
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    net: &'a Netlist,
    /// Value each node drives during the current cycle.
    val: Vec<bool>,
    /// Scratch buffer for the next register values.
    next: Vec<bool>,
    /// Carry register per node (meaningful for adders/subtractors only).
    carry: Vec<bool>,
    cycle: u64,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with all registers cleared (subtractor carries
    /// preset to 1, per the two's-complement negation trick).
    pub fn new(net: &'a Netlist) -> Self {
        let n = net.len();
        let mut sim = Self {
            net,
            val: vec![false; n],
            next: vec![false; n],
            carry: vec![false; n],
            cycle: 0,
        };
        sim.reset();
        sim
    }

    /// Returns all registers to their power-on state.
    pub fn reset(&mut self) {
        self.val.fill(false);
        self.next.fill(false);
        self.cycle = 0;
        for (i, node) in self.net.nodes().iter().enumerate() {
            self.carry[i] = matches!(node, NodeKind::Subtractor { .. });
        }
    }

    /// Number of clock edges simulated since the last reset.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The value node `id` drives during the current cycle.
    pub fn value(&self, id: NodeId) -> bool {
        self.val[id.index()]
    }

    /// Advances one clock in *framed* (back-to-back streaming) operation:
    /// every `interval` cycles a new vector enters, and each node resets
    /// its carry — and gates its chain operand, where flagged — exactly
    /// when the new frame's bit 0 reaches it (the traveling start token of
    /// the hardware design).
    ///
    /// `anchors`/`mask_at_start` come from the [`crate::builder::BuiltCircuit`].
    pub fn step_framed(
        &mut self,
        input_bits: &[bool],
        anchors: &[u32],
        mask_at_start: &[bool],
        interval: u64,
    ) {
        let rows = self.net.num_rows();
        assert_eq!(input_bits.len(), rows, "one input bit per matrix row");
        assert!(interval > 0, "interval must be non-zero");
        let t = self.cycle;
        self.val[..rows].copy_from_slice(input_bits);
        for (i, node) in self.net.nodes().iter().enumerate().skip(rows) {
            // This node computes a new frame's bit 0 during step anchor−1
            // (mod the streaming interval).
            let start = u64::from(anchors[i].max(1)) - 1;
            let frame_start = t >= start && (t - start).is_multiple_of(interval);
            match *node {
                NodeKind::Input { .. } => unreachable!("inputs precede logic nodes"),
                NodeKind::Zero => self.next[i] = false,
                NodeKind::Adder { a, b } => {
                    let carry_in = if frame_start { false } else { self.carry[i] };
                    let b_val = if frame_start && mask_at_start[i] {
                        false
                    } else {
                        self.val[b.index()]
                    };
                    let (s, c) = full_adder(self.val[a.index()], b_val, carry_in);
                    self.next[i] = s;
                    self.carry[i] = c;
                }
                NodeKind::Subtractor { a, b } => {
                    let carry_in = if frame_start { true } else { self.carry[i] };
                    let (s, c) = full_adder(self.val[a.index()], !self.val[b.index()], carry_in);
                    self.next[i] = s;
                    self.carry[i] = c;
                }
                NodeKind::Dff { d } => {
                    self.next[i] = if frame_start && mask_at_start[i] {
                        false
                    } else {
                        self.val[d.index()]
                    };
                }
            }
        }
        self.val[rows..].copy_from_slice(&self.next[rows..]);
        self.cycle += 1;
    }

    /// Advances one clock. `input_bits[row]` is the bit each input shift
    /// register presents during this cycle.
    ///
    /// Panics if `input_bits` does not cover every input row.
    pub fn step(&mut self, input_bits: &[bool]) {
        let rows = self.net.num_rows();
        assert_eq!(input_bits.len(), rows, "one input bit per matrix row");
        // Input taps are wires: they update immediately.
        self.val[..rows].copy_from_slice(input_bits);
        // Registered nodes read the values driven *during* this cycle:
        // current input bits plus last cycle's register outputs.
        for (i, node) in self.net.nodes().iter().enumerate().skip(rows) {
            match *node {
                NodeKind::Input { .. } => unreachable!("inputs precede logic nodes"),
                NodeKind::Zero => self.next[i] = false,
                NodeKind::Adder { a, b } => {
                    let (s, c) = full_adder(self.val[a.index()], self.val[b.index()], self.carry[i]);
                    self.next[i] = s;
                    self.carry[i] = c;
                }
                NodeKind::Subtractor { a, b } => {
                    let (s, c) =
                        full_adder(self.val[a.index()], !self.val[b.index()], self.carry[i]);
                    self.next[i] = s;
                    self.carry[i] = c;
                }
                NodeKind::Dff { d } => self.next[i] = self.val[d.index()],
            }
        }
        // Commit the clock edge.
        self.val[rows..].copy_from_slice(&self.next[rows..]);
        self.cycle += 1;
    }
}

/// Streams a signed input vector through a built circuit and decodes the
/// output vector.
///
/// `input_bits` is the nominal operand width; inputs sign-extend beyond it.
/// `out_width` two's-complement bits are captured per live output, starting
/// at the circuit's output anchor cycle.
pub fn run_vecmat(
    circuit: &crate::builder::BuiltCircuit,
    input: &[i32],
    input_bits: u32,
    out_width: u32,
) -> Vec<i64> {
    let net = &circuit.netlist;
    let rows = net.num_rows();
    assert_eq!(input.len(), rows, "one input element per matrix row");
    let anchor = u64::from(circuit.output_anchor);
    let total_cycles = anchor + u64::from(out_width);
    let mut sim = Simulator::new(net);
    let mut bits = vec![false; rows];
    let outputs = net.outputs();
    let mut captured: Vec<Vec<bool>> = vec![Vec::with_capacity(out_width as usize); outputs.len()];

    for t in 0..total_cycles {
        for (r, &a) in input.iter().enumerate() {
            bits[r] = crate::bits::stream_bit(i64::from(a), input_bits, t.min(u64::from(u32::MAX)) as u32);
        }
        sim.step(&bits);
        // After the edge, registers hold the values of cycle t+1.
        let now = t + 1;
        if now >= anchor && now < anchor + u64::from(out_width) {
            for (col, out) in outputs.iter().enumerate() {
                if let Some(id) = out {
                    captured[col].push(sim.value(*id));
                }
            }
        }
    }

    captured
        .into_iter()
        .enumerate()
        .map(|(col, bits)| {
            if outputs[col].is_some() {
                crate::bits::from_bits_lsb(&bits)
            } else {
                0
            }
        })
        .collect()
}

/// Streams frames `start..end` of a flat
/// [`FrameBlock`](smm_core::block::FrameBlock) back-to-back through the
/// circuit — one new vector every `interval` cycles, no pipeline drain
/// between them — and decodes every output straight into one row-major
/// slice (`(end - start) * cols` elements). This is the paper's batching
/// mode ("we have to stream the columns of the input matrix in
/// one-by-one"), simulated rather than modelled: the hardware-faithful
/// reference the bit-sliced engine ([`crate::slice`]) is checked against.
///
/// Output words accumulate *in place* as the bits stream past the capture
/// window (two's-complement, LSB first, the final bit weighted
/// negatively); the slice is zeroed first. `interval` must be at least
/// `out_width` so each result finishes streaming before the next frame's
/// bits reach the capture window.
#[allow(clippy::too_many_arguments)]
pub fn run_stream_into_flat(
    circuit: &crate::builder::BuiltCircuit,
    frames: &smm_core::block::FrameBlock,
    start: usize,
    end: usize,
    input_bits: u32,
    out_width: u32,
    interval: u32,
    out: &mut [i64],
) {
    assert!(
        start <= end && end <= frames.frames(),
        "frame range {start}..{end} of {}",
        frames.frames()
    );
    assert!(
        interval >= out_width,
        "interval {interval} shorter than output window {out_width}"
    );
    let n = end - start;
    let net = &circuit.netlist;
    let rows = net.num_rows();
    let outputs = net.outputs();
    let cols = outputs.len();
    assert_eq!(out.len(), n * cols, "one output row per frame");
    out.fill(0);
    if n == 0 {
        return;
    }
    assert_eq!(frames.width(), rows, "one input element per matrix row");
    let anchor = u64::from(circuit.output_anchor);
    let interval = u64::from(interval);
    let batch = n as u64;
    let total_cycles = (batch - 1) * interval + anchor + u64::from(out_width);
    let mut sim = Simulator::new(net);
    let mut bits = vec![false; rows];

    for t in 0..total_cycles {
        // Which vector's bits are entering, and which bit index.
        let frame = (t / interval).min(batch - 1) as usize;
        let j = if t / interval >= batch {
            u32::MAX // exhausted: keep sign-extending the last vector
        } else {
            (t % interval).min(u64::from(u32::MAX)) as u32
        };
        for (r, &a) in frames.frame(start + frame).iter().enumerate() {
            bits[r] = crate::bits::stream_bit(i64::from(a), input_bits, j);
        }
        sim.step_framed(&bits, &circuit.anchors, &circuit.mask_at_start, interval);
        let now = t + 1;
        // A cycle may fall inside the capture window of exactly one frame.
        if now >= anchor {
            let v = (now - anchor) / interval;
            let k = (now - anchor) % interval;
            if v < batch && k < u64::from(out_width) {
                // Bit k of the two's-complement result: the final bit is
                // the sign bit, so it carries weight −2^k (equivalently,
                // sign extension to 64 bits).
                let weight = if k == u64::from(out_width) - 1 {
                    (!0i64) << k
                } else {
                    1i64 << k
                };
                let row = &mut out[v as usize * cols..(v as usize + 1) * cols];
                for (o, slot) in outputs.iter().zip(row) {
                    if o.is_some_and(|id| sim.value(id)) {
                        *slot |= weight;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_circuit;
    use smm_core::matrix::IntMatrix;
    use smm_core::signsplit::split_pn;

    fn run(matrix: IntMatrix, input: &[i32], input_bits: u32) -> Vec<i64> {
        let circuit = build_circuit(&split_pn(&matrix)).unwrap();
        let out_width =
            crate::bits::result_width(input_bits, circuit.weight_bits, matrix.rows());
        run_vecmat(&circuit, input, input_bits, out_width)
    }

    #[test]
    fn identity_passes_values_through() {
        let id = IntMatrix::identity(4).unwrap();
        let out = run(id, &[3, -7, 0, 127], 8);
        assert_eq!(out, vec![3, -7, 0, 127]);
    }

    #[test]
    fn single_cell_products() {
        for w in [-128, -3, -1, 1, 2, 5, 127] {
            for a in [-128, -5, 0, 1, 77, 127] {
                let m = IntMatrix::from_vec(1, 1, vec![w]).unwrap();
                let out = run(m, &[a], 8);
                assert_eq!(out[0], i64::from(w) * i64::from(a), "{a} * {w}");
            }
        }
    }

    #[test]
    fn small_known_vecmat() {
        // V = [[1, 2], [3, 4]], a = [5, 6] -> [23, 34].
        let m = IntMatrix::from_vec(2, 2, vec![1, 2, 3, 4]).unwrap();
        assert_eq!(run(m, &[5, 6], 8), vec![23, 34]);
    }

    #[test]
    fn signed_weights_and_inputs() {
        let m = IntMatrix::from_vec(2, 2, vec![-1, 2, 3, -4]).unwrap();
        // aᵀV with a = [-5, 6]: [5 + 18, -10 - 24] = [23, -34].
        assert_eq!(run(m, &[-5, 6], 8), vec![23, -34]);
    }

    #[test]
    fn zero_column_outputs_zero() {
        let m = IntMatrix::from_vec(2, 2, vec![7, 0, -3, 0]).unwrap();
        let out = run(m, &[9, 11], 8);
        assert_eq!(out[1], 0);
        assert_eq!(out[0], 63 - 33);
    }

    #[test]
    fn simulator_reset_reproduces() {
        let m = IntMatrix::from_vec(2, 1, vec![3, -5]).unwrap();
        let circuit = build_circuit(&split_pn(&m)).unwrap();
        let w = crate::bits::result_width(8, circuit.weight_bits, 2);
        let first = run_vecmat(&circuit, &[10, 20], 8, w);
        let second = run_vecmat(&circuit, &[10, 20], 8, w);
        assert_eq!(first, second);
        assert_eq!(first[0], 30 - 100);
    }

    #[test]
    #[should_panic(expected = "one input bit per matrix row")]
    fn wrong_input_width_panics() {
        let m = IntMatrix::identity(3).unwrap();
        let circuit = build_circuit(&split_pn(&m)).unwrap();
        let mut sim = Simulator::new(&circuit.netlist);
        sim.step(&[true, false]);
    }
}
