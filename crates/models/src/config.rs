//! SIGMA accelerator configuration.

/// Hardware parameters of the modelled SIGMA instance.
///
/// The paper's comparison point: the authors' 128×128 grid of fp16
/// processing elements at 500 MHz, assumed scaled to 1 GHz to approximate
/// the process-node and int8-versus-fp16 differences (Section VII.B).
#[derive(Debug, Clone, PartialEq)]
pub struct SigmaConfig {
    /// PE grid rows.
    pub(crate) pe_rows: usize,
    /// PE grid columns.
    pub(crate) pe_cols: usize,
    /// Clock frequency in GHz.
    pub(crate) clock_ghz: f64,
    /// Weight words loaded from SRAM per cycle during tile fills (the
    /// memory-bound bottleneck once tiling starts).
    pub(crate) weight_load_words_per_cycle: usize,
    /// Input words broadcast into the grid per cycle (Benes distribution).
    pub(crate) input_stream_words_per_cycle: usize,
    /// Fixed pipeline overhead per invocation: Benes setup plus the
    /// log-depth reduction drain, in cycles.
    pub(crate) fixed_overhead_cycles: u64,
}

impl Default for SigmaConfig {
    fn default() -> Self {
        Self {
            pe_rows: 128,
            pe_cols: 128,
            clock_ghz: 1.0,
            weight_load_words_per_cycle: 128,
            input_stream_words_per_cycle: 16,
            fixed_overhead_cycles: 30,
        }
    }
}

impl SigmaConfig {
    /// Total processing elements — the non-zero capacity of one tile.
    pub fn pes(&self) -> usize {
        self.pe_rows * self.pe_cols
    }

    /// Converts a cycle count to nanoseconds at the configured clock.
    pub(crate) fn cycles_to_ns(&self, cycles: u64) -> f64 {
        assert!(self.clock_ghz > 0.0, "clock must be positive");
        cycles as f64 / self.clock_ghz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_configuration() {
        let c = SigmaConfig::default();
        assert_eq!(c.pes(), 16384);
        assert_eq!(c.clock_ghz, 1.0);
    }

    #[test]
    fn cycle_conversion() {
        let c = SigmaConfig::default();
        assert_eq!(c.cycles_to_ns(128), 128.0);
        let half = SigmaConfig {
            clock_ghz: 0.5,
            ..SigmaConfig::default()
        };
        assert_eq!(half.cycles_to_ns(128), 256.0);
    }
}
