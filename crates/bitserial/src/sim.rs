//! Cycle-accurate synchronous simulation of a bit-serial netlist, 64
//! frames at a time.
//!
//! Every adder, subtractor and flip-flop output is a register; input taps
//! are wires fed by the (sign-extending) input shift registers. One clock
//! edge computes every next-register value from the current values, then
//! commits them together.
//!
//! Every gate is a *bitwise* function of its operands, so the
//! [`Simulator`] holds each node as a `u64` lane word: bit `l` belongs to
//! lane `l`, an independent copy of the circuit, and a full adder over
//! words (three XORs, two ANDs, one OR) serves all `LANES` lanes in one
//! evaluation. It has two clock schedules:
//!
//! - [`Simulator::step`], *lockstep*: every lane starts from power-on at
//!   cycle 0 and computes one product. `run_lockstep_into_flat` packs up
//!   to `LANES` frames per pass and finishes a pass in
//!   `output_anchor + out_width` cycles. It is the one way a product runs:
//!   `mul`, `run_frames_block`, the SRAM wrapper and the VCD trace all go
//!   through it.
//! - `Simulator::step_framed`, *framed*: vectors stream back-to-back,
//!   one every `interval` cycles, and each node resets exactly when a new
//!   frame's bit 0 reaches it (the hardware's traveling start token).
//!   [`run_stream_into_flat`] drives it in one lane: the
//!   hardware-faithful reference the lockstep driver is checked against.

use crate::builder::BuiltCircuit;
use crate::netlist::{Netlist, NodeId, NodeKind};

/// Frames simulated per pass (one per bit of a `u64` lane word).
pub(crate) const LANES: usize = u64::BITS as usize;

/// Bitwise full adder over 64 lanes at once: `(sum, carry_out)`.
#[inline]
fn word_full_adder(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let axb = a ^ b;
    (axb ^ carry, (a & b) | (carry & axb))
}

/// A running simulation of one [`Netlist`] in `LANES` independent
/// lanes, one per bit of every register word.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    net: &'a Netlist,
    /// Value each node drives during the current cycle, 64 lanes wide.
    val: Vec<u64>,
    /// Scratch buffer for the next register values.
    next: Vec<u64>,
    /// Carry register per node (meaningful for adders/subtractors only).
    carry: Vec<u64>,
    cycle: u64,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with all registers cleared (subtractor carries
    /// preset to all-ones, per the two's-complement negation trick).
    pub fn new(net: &'a Netlist) -> Self {
        let n = net.len();
        let mut sim = Self {
            net,
            val: vec![0; n],
            next: vec![0; n],
            carry: vec![0; n],
            cycle: 0,
        };
        sim.reset();
        sim
    }

    /// Returns every lane's registers to their power-on state.
    pub(crate) fn reset(&mut self) {
        self.val.fill(0);
        self.next.fill(0);
        self.cycle = 0;
        for (i, node) in self.net.nodes().iter().enumerate() {
            self.carry[i] = if matches!(node, NodeKind::Subtractor { .. }) {
                !0
            } else {
                0
            };
        }
    }

    /// Number of clock edges simulated since the last reset.
    pub(crate) fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The value node `id` drives during the current cycle, in every lane
    /// (bit `l` is lane `l`).
    pub fn value(&self, id: NodeId) -> u64 {
        self.val[id.index()]
    }

    /// Advances one clock in every lane, in lockstep. `input_words[row]`
    /// packs the bit each lane's input shift register presents during
    /// this cycle.
    pub fn step(&mut self, input_words: &[u64]) {
        let rows = self.net.num_rows();
        assert_eq!(input_words.len(), rows, "one input word per matrix row");
        // Input taps are wires: they update immediately.
        self.val[..rows].copy_from_slice(input_words);
        // Registered nodes read the values driven *during* this cycle:
        // current input bits plus last cycle's register outputs.
        for (i, node) in self.net.nodes().iter().enumerate().skip(rows) {
            match *node {
                NodeKind::Input { .. } => unreachable!("inputs precede logic nodes"),
                NodeKind::Zero => self.next[i] = 0,
                NodeKind::Adder { a, b } => {
                    let (s, c) =
                        word_full_adder(self.val[a.index()], self.val[b.index()], self.carry[i]);
                    self.next[i] = s;
                    self.carry[i] = c;
                }
                NodeKind::Subtractor { a, b } => {
                    let (s, c) =
                        word_full_adder(self.val[a.index()], !self.val[b.index()], self.carry[i]);
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

    /// Advances one clock in *framed* (back-to-back streaming) operation:
    /// every `interval` cycles a new vector enters, and each node resets
    /// its carry — and gates its chain operand, where flagged — exactly
    /// when the new frame's bit 0 reaches it (the traveling start token of
    /// the hardware design). The reset is one all-lanes word, so every
    /// lane streams on the same frame boundaries.
    ///
    /// `anchors`/`mask_at_start` come from the [`BuiltCircuit`].
    pub(crate) fn step_framed(
        &mut self,
        input_words: &[u64],
        anchors: &[u32],
        mask_at_start: &[bool],
        interval: u64,
    ) {
        let rows = self.net.num_rows();
        assert_eq!(input_words.len(), rows, "one input word per matrix row");
        assert!(interval > 0, "interval must be non-zero");
        let t = self.cycle;
        self.val[..rows].copy_from_slice(input_words);
        for (i, node) in self.net.nodes().iter().enumerate().skip(rows) {
            // This node computes a new frame's bit 0 during step anchor−1
            // (mod the streaming interval).
            let start = u64::from(anchors[i].max(1)) - 1;
            let reset = if t >= start && (t - start).is_multiple_of(interval) {
                !0
            } else {
                0
            };
            let gate = if mask_at_start[i] { !reset } else { !0 };
            match *node {
                NodeKind::Input { .. } => unreachable!("inputs precede logic nodes"),
                NodeKind::Zero => self.next[i] = 0,
                NodeKind::Adder { a, b } => {
                    let (s, c) = word_full_adder(
                        self.val[a.index()],
                        self.val[b.index()] & gate,
                        self.carry[i] & !reset,
                    );
                    self.next[i] = s;
                    self.carry[i] = c;
                }
                NodeKind::Subtractor { a, b } => {
                    let (s, c) = word_full_adder(
                        self.val[a.index()],
                        !self.val[b.index()],
                        self.carry[i] | reset,
                    );
                    self.next[i] = s;
                    self.carry[i] = c;
                }
                NodeKind::Dff { d } => self.next[i] = self.val[d.index()] & gate,
            }
        }
        self.val[rows..].copy_from_slice(&self.next[rows..]);
        self.cycle += 1;
    }
}

/// Bit `k` of an `out_width`-bit two's-complement result as a value: the
/// final bit is the sign bit, so it carries weight −2^k (equivalently,
/// sign extension to 64 bits).
fn bit_weight(k: u64, out_width: u32) -> i64 {
    if k == u64::from(out_width) - 1 {
        (!0i64) << k
    } else {
        1i64 << k
    }
}

/// Simulates every frame of `inputs` (row-major, one element per matrix
/// row) through the circuit in lockstep, [`LANES`] frames per pass, and
/// decodes each result straight into the row-major `out` (one element
/// per column; zeroed first).
///
/// `input_bits` is the nominal operand width; inputs sign-extend beyond
/// it. `out_width` two's-complement bits are captured per live output,
/// starting at the circuit's output anchor cycle. `observe` sees the
/// simulator after every clock edge: the VCD trace records its waveform
/// there, and every other caller passes a no-op.
pub(crate) fn run_lockstep_into_flat(
    circuit: &BuiltCircuit,
    inputs: &[i32],
    input_bits: u32,
    out_width: u32,
    out: &mut [i64],
    mut observe: impl FnMut(&Simulator<'_>),
) {
    assert!(input_bits > 0, "input width must be non-zero");
    assert!(out_width > 0, "output width must be non-zero");
    let net = &circuit.netlist;
    let rows = net.num_rows();
    let outputs = net.outputs();
    let cols = outputs.len();
    let frames = inputs.len() / rows;
    assert_eq!(
        inputs.len(),
        frames * rows,
        "one input element per matrix row"
    );
    assert_eq!(out.len(), frames * cols, "one output row per frame");
    out.fill(0);
    if frames == 0 {
        return;
    }

    let anchor = u64::from(circuit.output_anchor);
    let total_cycles = anchor + u64::from(out_width);
    let bits = input_bits as usize;
    let mut sim = Simulator::new(net);
    // packed[r * bits + j]: bit j of every lane's input element for row
    // r (the whole transposed input chunk). Cycles beyond the operand
    // width replay the top word — exactly the shift registers'
    // sign extension.
    let mut packed = vec![0u64; rows * bits];
    let mut words = vec![0u64; rows];

    let mut chunk = 0;
    while chunk < frames {
        let lanes = (frames - chunk).min(LANES);
        packed.fill(0);
        for l in 0..lanes {
            for (r, &a) in inputs[(chunk + l) * rows..][..rows].iter().enumerate() {
                for (j, slot) in packed[r * bits..(r + 1) * bits].iter_mut().enumerate() {
                    *slot |=
                        u64::from(crate::bits::stream_bit(i64::from(a), input_bits, j as u32)) << l;
                }
            }
        }
        let lane_mask = if lanes == LANES {
            !0u64
        } else {
            (1u64 << lanes) - 1
        };

        sim.reset();
        for t in 0..total_cycles {
            let j = (t as usize).min(bits - 1);
            for (r, word) in words.iter_mut().enumerate() {
                *word = packed[r * bits + j];
            }
            sim.step(&words);
            observe(&sim);
            // After the edge, registers hold the values of cycle t + 1;
            // bits k = 0..out_width of every live output stream past the
            // capture window starting at the anchor cycle.
            let now = t + 1;
            if now >= anchor {
                let weight = bit_weight(now - anchor, out_width);
                for (col, o) in outputs.iter().enumerate() {
                    if let Some(id) = o {
                        let mut set = sim.val[id.index()] & lane_mask;
                        while set != 0 {
                            let l = set.trailing_zeros() as usize;
                            out[(chunk + l) * cols + col] |= weight;
                            set &= set - 1;
                        }
                    }
                }
            }
        }
        chunk += lanes;
    }
}

/// Streams every frame of `inputs` (row-major, one element per matrix
/// row) back-to-back through the circuit in one lane — one new vector
/// every `interval` cycles, no pipeline drain between them — and decodes
/// every output straight into the row-major `out` (one element per
/// column). This is the paper's batching mode ("we have to stream the
/// columns of the input matrix in one-by-one"), simulated rather than
/// modelled: the hardware-faithful reference
/// `run_lockstep_into_flat` is checked against.
///
/// Output words accumulate *in place* as the bits stream past the capture
/// window (two's-complement, LSB first, the final bit weighted
/// negatively); the slice is zeroed first. `interval` must be at least
/// `out_width` so each result finishes streaming before the next frame's
/// bits reach the capture window.
pub fn run_stream_into_flat(
    circuit: &BuiltCircuit,
    inputs: &[i32],
    input_bits: u32,
    out_width: u32,
    interval: u32,
    out: &mut [i64],
) {
    assert!(
        interval >= out_width,
        "interval {interval} shorter than output window {out_width}"
    );
    let net = &circuit.netlist;
    let rows = net.num_rows();
    let outputs = net.outputs();
    let cols = outputs.len();
    let frames = inputs.len() / rows;
    assert_eq!(
        inputs.len(),
        frames * rows,
        "one input element per matrix row"
    );
    assert_eq!(out.len(), frames * cols, "one output row per frame");
    out.fill(0);
    if frames == 0 {
        return;
    }
    let anchor = u64::from(circuit.output_anchor);
    let interval = u64::from(interval);
    let batch = frames as u64;
    let total_cycles = (batch - 1) * interval + anchor + u64::from(out_width);
    let mut sim = Simulator::new(net);
    let mut words = vec![0u64; rows];

    for t in 0..total_cycles {
        // Which vector's bits are entering, and which bit index.
        let frame = (t / interval).min(batch - 1) as usize;
        let j = if t / interval >= batch {
            u32::MAX // exhausted: keep sign-extending the last vector
        } else {
            (t % interval).min(u64::from(u32::MAX)) as u32
        };
        for (word, &a) in words.iter_mut().zip(&inputs[frame * rows..][..rows]) {
            *word = u64::from(crate::bits::stream_bit(i64::from(a), input_bits, j));
        }
        sim.step_framed(&words, &circuit.anchors, &circuit.mask_at_start, interval);
        let now = t + 1;
        // A cycle may fall inside the capture window of exactly one frame.
        if now >= anchor {
            let v = (now - anchor) / interval;
            let k = (now - anchor) % interval;
            if v < batch && k < u64::from(out_width) {
                let weight = bit_weight(k, out_width);
                let row = &mut out[v as usize * cols..(v as usize + 1) * cols];
                for (o, slot) in outputs.iter().zip(row) {
                    if o.is_some_and(|id| sim.value(id) & 1 == 1) {
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
        let out_width = crate::bits::result_width(input_bits, circuit.weight_bits, matrix.rows());
        let mut out = vec![-1; matrix.cols()];
        run_lockstep_into_flat(&circuit, input, input_bits, out_width, &mut out, |_| {});
        out
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
        let out = circuit.netlist.outputs()[0].unwrap();
        // 16 cycles of scrambled input lanes; the output's waveform.
        fn waveform(sim: &mut Simulator, out: NodeId) -> Vec<u64> {
            (0..16u64)
                .map(|t| {
                    sim.step(&[t.wrapping_mul(0x9e37_79b9_7f4a_7c15), !t]);
                    sim.value(out)
                })
                .collect()
        }
        let mut sim = Simulator::new(&circuit.netlist);
        let first = waveform(&mut sim, out);
        sim.reset();
        assert_eq!(sim.cycle(), 0);
        assert_eq!(waveform(&mut sim, out), first);
        assert_eq!(run(m, &[10, 20], 8), vec![30 - 100]);
    }

    #[test]
    fn empty_block_runs_nothing() {
        let m = IntMatrix::identity(2).unwrap();
        let circuit = build_circuit(&split_pn(&m)).unwrap();
        let mut out: [i64; 0] = [];
        run_lockstep_into_flat(&circuit, &[], 8, 8, &mut out, |_| panic!("no clock edge"));
        run_stream_into_flat(&circuit, &[], 8, 8, 8, &mut out);
    }

    #[test]
    #[should_panic(expected = "one input word per matrix row")]
    fn wrong_input_width_panics() {
        let m = IntMatrix::identity(3).unwrap();
        let circuit = build_circuit(&split_pn(&m)).unwrap();
        let mut sim = Simulator::new(&circuit.netlist);
        sim.step(&[1, 0]);
    }
}
