//! The SRAM design wrapper (Section VI): "we wrap the matrix multiplier
//! with a small design that feeds inputs from an SRAM, and captures
//! results in that same SRAM" — so latency is measured *memory to memory*,
//! the same way the paper measures the GPU.
//!
//! The wrapper is a four-phase controller:
//!
//! 1. **Load** — input words move from SRAM into the per-row shift
//!    registers, `ports` words per cycle;
//! 2. **Stream** — the circuit runs for `anchor + out_width` cycles while
//!    the shift registers feed bits LSB-first (sign-extending);
//! 3. **Capture** — output bits land in per-column capture registers as
//!    they emerge (overlapped with Stream; no extra cycles);
//! 4. **Store** — result words move back to SRAM, `ports` words per cycle.

use crate::builder::BuiltCircuit;
use crate::sim::run_lockstep_into_flat;
use smm_core::error::{Error, Result};

/// A word-addressable scratchpad SRAM.
#[derive(Debug, Clone)]
pub struct Sram {
    words: Vec<i64>,
}

impl Sram {
    /// A zeroed SRAM of `words` entries.
    pub(crate) fn new(words: usize) -> Self {
        Self {
            words: vec![0; words],
        }
    }

    /// Reads one word.
    pub fn read(&self, address: usize) -> i64 {
        self.words[address]
    }

    /// Writes one word.
    pub(crate) fn write(&mut self, address: usize, value: i64) {
        self.words[address] = value;
    }

    /// Bulk-writes a slice starting at `base`.
    pub fn load(&mut self, base: usize, values: &[i64]) {
        self.words[base..base + values.len()].copy_from_slice(values);
    }
}

/// Wrapper configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WrapperConfig {
    /// SRAM words transferable per cycle in the load/store phases (the
    /// LUTRAM shift registers are distributed, so wide transfer is cheap).
    pub ports: usize,
    /// SRAM address of the first input word.
    pub input_base: usize,
    /// SRAM address of the first output word.
    pub output_base: usize,
}

impl Default for WrapperConfig {
    fn default() -> Self {
        Self {
            ports: 64,
            input_base: 0,
            output_base: 4096,
        }
    }
}

/// Cycle breakdown of one memory-to-memory product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemRun {
    /// Cycles loading inputs from SRAM.
    pub load_cycles: u64,
    /// Cycles streaming through the circuit (anchor + output window).
    pub compute_cycles: u64,
    /// Cycles storing outputs to SRAM.
    pub store_cycles: u64,
}

impl SystemRun {
    /// Total memory-to-memory cycles.
    pub fn total_cycles(&self) -> u64 {
        self.load_cycles + self.compute_cycles + self.store_cycles
    }
}

/// The wrapped system: circuit + SRAM + controller.
#[derive(Debug, Clone)]
pub struct SmmSystem {
    circuit: BuiltCircuit,
    config: WrapperConfig,
    input_bits: u32,
    out_width: u32,
    sram: Sram,
}

impl SmmSystem {
    /// Builds the system around a compiled circuit.
    ///
    /// The SRAM must hold the input vector at `input_base` and the output
    /// vector at `output_base` without overlap.
    pub fn new(
        circuit: BuiltCircuit,
        input_bits: u32,
        out_width: u32,
        config: WrapperConfig,
        sram_words: usize,
    ) -> Result<Self> {
        let rows = circuit.netlist.num_rows();
        let cols = circuit.netlist.num_outputs();
        if config.ports == 0 {
            return Err(Error::EmptyDimension);
        }
        let in_end = config.input_base + rows;
        let out_end = config.output_base + cols;
        if in_end > sram_words || out_end > sram_words {
            return Err(Error::DimensionMismatch {
                context: format!(
                    "SRAM of {sram_words} words cannot hold inputs [{}..{in_end}) and outputs [{}..{out_end})",
                    config.input_base, config.output_base
                ),
            });
        }
        let overlap = config.input_base < out_end && config.output_base < in_end;
        if overlap {
            return Err(Error::DimensionMismatch {
                context: "input and output SRAM regions overlap".into(),
            });
        }
        Ok(Self {
            circuit,
            config,
            input_bits,
            out_width,
            sram: Sram::new(sram_words),
        })
    }

    /// The scratchpad, for staging inputs and inspecting outputs.
    pub fn sram_mut(&mut self) -> &mut Sram {
        &mut self.sram
    }

    /// The scratchpad, read-only.
    pub fn sram(&self) -> &Sram {
        &self.sram
    }

    /// Predicted memory-to-memory cycles for one product.
    pub(crate) fn predicted_cycles(&self) -> SystemRun {
        let rows = self.circuit.netlist.num_rows() as u64;
        let cols = self.circuit.netlist.num_outputs() as u64;
        let ports = self.config.ports as u64;
        SystemRun {
            load_cycles: rows.div_ceil(ports),
            compute_cycles: u64::from(self.circuit.output_anchor) + u64::from(self.out_width),
            store_cycles: cols.div_ceil(ports),
        }
    }

    /// Executes one memory-to-memory product: reads the input vector from
    /// SRAM, streams it through the cycle-accurate circuit (a one-frame
    /// lockstep block), writes the outputs back, and returns the cycle
    /// breakdown.
    ///
    /// Fails if any staged input word exceeds the signed input width.
    pub fn run(&mut self) -> Result<SystemRun> {
        let rows = self.circuit.netlist.num_rows();
        let cols = self.circuit.netlist.num_outputs();
        let (lo, hi) = smm_core::matrix::signed_range(self.input_bits)?;
        let mut input = Vec::with_capacity(rows);
        for r in 0..rows {
            let word = self.sram.read(self.config.input_base + r);
            if word < i64::from(lo) || word > i64::from(hi) {
                return Err(Error::ValueOutOfRange {
                    value: word.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32,
                    bits: self.input_bits,
                    signed: true,
                });
            }
            input.push(word as i32);
        }
        let mut outputs = vec![0; cols];
        run_lockstep_into_flat(
            &self.circuit,
            &input,
            self.input_bits,
            self.out_width,
            &mut outputs,
            |_| {},
        );
        for (c, &o) in outputs.iter().enumerate() {
            self.sram.write(self.config.output_base + c, o);
        }
        Ok(self.predicted_cycles())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::result_width;
    use crate::builder::build_circuit;
    use smm_core::generate::{element_sparse_matrix, random_vector};
    use smm_core::gemv::vecmat;
    use smm_core::rng::seeded;
    use smm_core::signsplit::split_pn;

    fn system_for(dim: usize, seed: u64, ports: usize) -> (smm_core::IntMatrix, SmmSystem) {
        let mut rng = seeded(seed);
        let m = element_sparse_matrix(dim, dim, 8, 0.8, true, &mut rng).unwrap();
        let circuit = build_circuit(&split_pn(&m)).unwrap();
        let width = result_width(8, circuit.weight_bits, dim);
        let system = SmmSystem::new(
            circuit,
            8,
            width,
            WrapperConfig {
                ports,
                input_base: 0,
                output_base: dim,
            },
            2 * dim,
        )
        .unwrap();
        (m, system)
    }

    #[test]
    fn memory_to_memory_product_is_correct() {
        let (m, mut system) = system_for(24, 81, 8);
        let mut rng = seeded(82);
        let a = random_vector(24, 8, true, &mut rng).unwrap();
        let staged: Vec<i64> = a.iter().map(|&v| i64::from(v)).collect();
        system.sram_mut().load(0, &staged);
        let run = system.run().unwrap();
        let expect = vecmat(&a, &m).unwrap();
        for (c, &e) in expect.iter().enumerate() {
            assert_eq!(system.sram().read(24 + c), e, "column {c}");
        }
        // Cycle accounting: 24 words over 8 ports = 3 cycles each way.
        assert_eq!(run.load_cycles, 3);
        assert_eq!(run.store_cycles, 3);
        assert_eq!(
            run.compute_cycles,
            u64::from(system.circuit.output_anchor) + u64::from(system.out_width)
        );
        assert_eq!(run.total_cycles(), run.load_cycles + run.compute_cycles + 3);
    }

    #[test]
    fn wide_ports_shrink_io_phases() {
        let (_, narrow) = system_for(32, 83, 1);
        let (_, wide) = system_for(32, 83, 64);
        assert_eq!(narrow.predicted_cycles().load_cycles, 32);
        assert_eq!(wide.predicted_cycles().load_cycles, 1);
        assert_eq!(
            narrow.predicted_cycles().compute_cycles,
            wide.predicted_cycles().compute_cycles
        );
    }

    #[test]
    fn rejects_bad_configurations() {
        let mut rng = seeded(84);
        let m = element_sparse_matrix(8, 8, 8, 0.5, true, &mut rng).unwrap();
        let circuit = build_circuit(&split_pn(&m)).unwrap();
        // SRAM too small.
        assert!(SmmSystem::new(
            circuit.clone(),
            8,
            20,
            WrapperConfig {
                ports: 4,
                input_base: 0,
                output_base: 8
            },
            10
        )
        .is_err());
        // Overlapping regions.
        assert!(SmmSystem::new(
            circuit.clone(),
            8,
            20,
            WrapperConfig {
                ports: 4,
                input_base: 0,
                output_base: 4
            },
            64
        )
        .is_err());
        // Zero ports.
        assert!(SmmSystem::new(
            circuit,
            8,
            20,
            WrapperConfig {
                ports: 0,
                input_base: 0,
                output_base: 8
            },
            64
        )
        .is_err());
    }

    #[test]
    fn out_of_range_staged_input_is_rejected() {
        let (_, mut system) = system_for(8, 85, 4);
        system.sram_mut().write(0, 1_000); // exceeds 8-bit signed
        assert!(system.run().is_err());
    }

    #[test]
    fn repeated_runs_reuse_the_system() {
        let (m, mut system) = system_for(12, 86, 4);
        let mut rng = seeded(87);
        for _ in 0..3 {
            let a = random_vector(12, 8, true, &mut rng).unwrap();
            let staged: Vec<i64> = a.iter().map(|&v| i64::from(v)).collect();
            system.sram_mut().load(0, &staged);
            system.run().unwrap();
            let expect = vecmat(&a, &m).unwrap();
            for (c, &e) in expect.iter().enumerate() {
                assert_eq!(system.sram().read(12 + c), e);
            }
        }
    }
}
