//! The hardware primitives of Figure 1: the full adder and the bit-serial
//! adder state machine.
//!
//! These standalone models back the Table I reproduction; the netlist
//! simulator in [`crate::sim`] is the one model of whole circuits (and of
//! the subtractor), re-deriving the same next-state functions 64 lanes
//! at a time.

/// Combinational full adder: returns `(sum, carry_out)`.
#[inline]
pub(crate) fn full_adder(a: bool, b: bool, cin: bool) -> (bool, bool) {
    let sum = a ^ b ^ cin;
    let cout = (a & b) | (a & cin) | (b & cin);
    (sum, cout)
}

/// A bit-serial adder: one full adder plus a carry flip-flop.
///
/// Feed operand bits LSB-first, one pair per clock; the stream of returned
/// sum bits is the LSB-first sum. On the FPGA this maps to a single 6-input
/// LUT and two registers (sum capture + carry).
#[derive(Debug, Clone, Default)]
pub(crate) struct BitSerialAdder {
    carry: bool,
}

impl BitSerialAdder {
    /// A fresh adder with cleared carry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Advances one clock: consumes one bit of each operand, returns the sum
    /// bit, and latches the carry for the next cycle.
    pub(crate) fn step(&mut self, a: bool, b: bool) -> bool {
        let (sum, cout) = full_adder(a, b, self.carry);
        self.carry = cout;
        sum
    }

    /// Current carry register value (exposed for trace reproduction).
    pub(crate) fn carry(&self) -> bool {
        self.carry
    }
}

/// One row of the Table I trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdditionTraceRow {
    /// Cycle number, starting at 1 as in the paper.
    pub cycle: u32,
    /// Carry input at the start of the cycle.
    pub cin: bool,
    /// Operand A bit consumed this cycle.
    pub a: bool,
    /// Operand B bit consumed this cycle.
    pub b: bool,
    /// Sum bit produced this cycle.
    pub s: bool,
    /// Carry out latched for the next cycle.
    pub cout: bool,
}

/// Runs a bit-serial addition and records the per-cycle trace — the
/// reproduction of Table I ("bit-serial addition example").
pub fn addition_trace(a: i64, b: i64, cycles: u32) -> Vec<AdditionTraceRow> {
    let mut adder = BitSerialAdder::new();
    (0..cycles)
        .map(|i| {
            let cin = adder.carry();
            let abit = crate::bits::stream_bit(a, cycles, i);
            let bbit = crate::bits::stream_bit(b, cycles, i);
            let s = adder.step(abit, bbit);
            AdditionTraceRow {
                cycle: i + 1,
                cin,
                a: abit,
                b: bbit,
                s,
                cout: adder.carry(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::tests::from_bits_lsb;

    #[test]
    fn full_adder_truth_table() {
        // (a, b, cin) -> (sum, cout), all eight rows.
        let cases = [
            ((false, false, false), (false, false)),
            ((true, false, false), (true, false)),
            ((false, true, false), (true, false)),
            ((true, true, false), (false, true)),
            ((false, false, true), (true, false)),
            ((true, false, true), (false, true)),
            ((false, true, true), (false, true)),
            ((true, true, true), (true, true)),
        ];
        for ((a, b, c), expected) in cases {
            assert_eq!(full_adder(a, b, c), expected, "{a} {b} {c}");
        }
    }

    #[test]
    fn table_one_trace() {
        // The paper's example: 3 + 7 = 10 over 4 cycles.
        let trace = addition_trace(3, 7, 4);
        let expect = [
            // cycle, cin, a, b, s, cout
            (1, false, true, true, false, true),
            (2, true, true, true, true, true),
            (3, true, false, true, false, true),
            (4, true, false, false, true, false),
        ];
        for (row, &(cycle, cin, a, b, s, cout)) in trace.iter().zip(&expect) {
            assert_eq!(
                (row.cycle, row.cin, row.a, row.b, row.s, row.cout),
                (cycle, cin, a, b, s, cout),
                "cycle {cycle}"
            );
        }
        // The result register reads 1010₂ = 10 (unsigned, as in the paper;
        // pad a zero sign bit for the two's-complement decoder).
        let mut sum_bits: Vec<bool> = trace.iter().map(|r| r.s).collect();
        assert_eq!(sum_bits, vec![false, true, false, true]);
        sum_bits.push(false);
        assert_eq!(from_bits_lsb(&sum_bits), 10);
    }

    #[test]
    fn serial_addition_exhaustive_6bit() {
        for a in -32i64..32 {
            for b in -32i64..32 {
                let mut adder = BitSerialAdder::new();
                let bits: Vec<bool> = (0..8)
                    .map(|i| {
                        adder.step(
                            crate::bits::stream_bit(a, 8, i),
                            crate::bits::stream_bit(b, 8, i),
                        )
                    })
                    .collect();
                assert_eq!(from_bits_lsb(&bits), a + b, "{a} + {b}");
            }
        }
    }
}
