//! One-call CGRA estimate for a fixed matrix, mirroring the FPGA flow.

use crate::cost::{FabricComparison, TransistorModel};
use crate::reconfig::{ReconfigModel, SwapCost};
use smm_bitserial::builder::ceil_log2;
use smm_bitserial::multiplier::FixedMatrixMultiplier;

/// CGRA configuration: fabric size plus the cost and reconfiguration
/// models.
#[derive(Debug, Clone, Default)]
pub struct CgraOptions {
    /// Transistor cost model.
    pub(crate) transistors: TransistorModel,
    /// Reconfiguration model (also carries the clock).
    pub(crate) reconfig: ReconfigModel,
}

/// The CGRA equivalent of a synthesis report.
#[derive(Debug, Clone)]
pub struct CgraReport {
    /// Occupied full-adder cells (logic elements of the circuit).
    pub cells: u64,
    /// Delay flip-flops outside cells.
    pub dffs: u64,
    /// Transistor footprint on both fabrics.
    pub fabric: FabricComparison,
    /// Latency (Equation 5) in cycles.
    pub latency_cycles: u32,
    /// Latency at the CGRA clock, nanoseconds.
    pub latency_ns: f64,
    /// Cost of swapping this matrix in via pipeline reconfiguration.
    pub swap: SwapCost,
}

/// CGRA estimate for a compiled multiplier.
///
/// Functional behaviour is identical to the FPGA circuit — the netlist is
/// the same; only the physical mapping differs.
pub fn estimate_compiled(mul: &FixedMatrixMultiplier, options: &CgraOptions) -> CgraReport {
    let stats = mul.stats();
    let cells = stats.logic_elements() as u64;
    let depth = ceil_log2(mul.rows()) + mul.weight_bits() + 2;
    let latency_cycles = mul.paper_latency_cycles();
    CgraReport {
        cells,
        dffs: stats.dffs as u64,
        fabric: options.transistors.compare(stats),
        latency_cycles,
        latency_ns: f64::from(latency_cycles) * 1000.0 / options.reconfig.clock_mhz,
        swap: options.reconfig.swap_cost(cells, depth),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_bitserial::multiplier::WeightEncoding;
    use smm_core::generate::element_sparse_matrix;
    use smm_core::matrix::IntMatrix;
    use smm_core::rng::seeded;

    fn estimate(matrix: &IntMatrix, input_bits: u32, options: &CgraOptions) -> CgraReport {
        let mul = FixedMatrixMultiplier::compile(matrix, input_bits, WeightEncoding::Pn).unwrap();
        estimate_compiled(&mul, options)
    }

    #[test]
    fn report_on_a_reservoir_matrix() {
        let mut rng = seeded(1234);
        let m = element_sparse_matrix(128, 128, 8, 0.9, true, &mut rng).unwrap();
        let report = estimate(&m, 8, &CgraOptions::default());
        assert!(report.cells > 0);
        // Density gain over the FPGA fabric (diluted below the pure-logic
        // 3.4x by this sparse circuit's many delay flip-flops).
        assert!(report.fabric.density_gain() > 2.0);
        // At 1 GHz the CGRA is faster per product than any FPGA point.
        assert!(report.latency_ns < 30.0, "{}", report.latency_ns);
        // Swapping the matrix takes microseconds, not the FPGA's 200 ms.
        assert!(report.swap.cgra_ns < 10_000.0);
        assert!(report.swap.fpga_ns > 1e8);
    }

    #[test]
    fn latency_matches_equation_five() {
        let mut rng = seeded(1235);
        let m = element_sparse_matrix(64, 64, 8, 0.5, true, &mut rng).unwrap();
        let report = estimate(&m, 8, &CgraOptions::default());
        assert_eq!(report.latency_cycles, 8 + 8 + 6 + 2);
    }
}
