//! Pipeline reconfiguration (paper Section VIII, after PipeRench):
//! configuring the tree level-by-level *as the pipeline drains*, so a new
//! fixed matrix can be installed with almost no dead time — "waves of
//! configuration travelling down the tree" — versus the FPGA's ~200 ms
//! full-fabric reconfiguration.
//!
//! The model: each tree level can start reconfiguring the cycle after its
//! last partial sum for the old matrix passes; the wave is then limited by
//! either the pipeline depth (one level per cycle) or the configuration
//! bandwidth (bits per cycle from the config store). Compute for the new
//! matrix follows the wave in, so the *dead* time is the wave duration
//! alone.

/// Reconfiguration-time parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigModel {
    /// Clock of the CGRA in MHz (a custom device; the paper argues the
    /// pipelined broadcast removes the FPGA's fanout wall).
    pub(crate) clock_mhz: f64,
    /// Configuration bits per CGRA cell.
    pub(crate) config_bits_per_cell: u64,
    /// Configuration bits deliverable per cycle (on-chip config store).
    pub(crate) config_bits_per_cycle: u64,
    /// FPGA full-fabric reconfiguration time in milliseconds (the paper's
    /// "on the order of 200ms").
    pub(crate) fpga_reconfig_ms: f64,
}

impl Default for ReconfigModel {
    fn default() -> Self {
        Self {
            clock_mhz: 1000.0,
            config_bits_per_cell: 10,
            config_bits_per_cycle: 4096,
            fpga_reconfig_ms: 200.0,
        }
    }
}

/// One matrix-swap cost estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwapCost {
    /// Dead cycles on the CGRA (pipeline-reconfiguration wave).
    pub(crate) cgra_cycles: u64,
    /// Dead time on the CGRA in nanoseconds.
    pub cgra_ns: f64,
    /// Dead time on the FPGA in nanoseconds (full reconfiguration).
    pub fpga_ns: f64,
}

impl ReconfigModel {
    /// Cost of swapping in a new matrix whose circuit has `cells` occupied
    /// CGRA cells and `depth` pipeline levels.
    pub(crate) fn swap_cost(&self, cells: u64, depth: u32) -> SwapCost {
        // The wave must touch every level once, and the config store must
        // push every cell's bits; whichever is slower bounds the dead time.
        let bandwidth_cycles = (cells * self.config_bits_per_cell)
            .div_ceil(self.config_bits_per_cycle.max(1));
        let cgra_cycles = u64::from(depth).max(bandwidth_cycles);
        SwapCost {
            cgra_cycles,
            cgra_ns: cgra_cycles as f64 * 1000.0 / self.clock_mhz,
            fpga_ns: self.fpga_reconfig_ms * 1e6,
        }
    }
}

/// A dynamic-matrix workload: a sequence of jobs, each installing a fresh
/// matrix and running some number of vector products through it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicJob {
    /// Occupied cells (≈ set weight bits) of the job's matrix.
    pub cells: u64,
    /// Pipeline depth of the job's circuit.
    pub depth: u32,
    /// Per-product latency in cycles (Equation 5).
    pub latency_cycles: u32,
    /// Number of vector products before the next matrix arrives.
    pub products: u64,
}

/// Total wall-clock comparison of a dynamic workload on both platforms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicOutcome {
    /// CGRA total time (ns): pipeline-reconfig waves + compute.
    pub cgra_ns: f64,
    /// FPGA total time (ns): full reconfigurations + compute.
    pub fpga_ns: f64,
}

impl DynamicOutcome {
    /// How much faster the CGRA finishes the workload.
    pub fn speedup(&self) -> f64 {
        self.fpga_ns / self.cgra_ns.max(f64::MIN_POSITIVE)
    }
}

/// Runs a dynamic-matrix workload through the model. Compute time is the
/// same expression on both platforms (both stream one product per output
/// window); only the matrix-swap dead time differs.
pub fn run_dynamic(model: &ReconfigModel, jobs: &[DynamicJob], fpga_clock_mhz: f64) -> DynamicOutcome {
    let mut cgra_ns = 0.0;
    let mut fpga_ns = 0.0;
    for job in jobs {
        let swap = model.swap_cost(job.cells, job.depth);
        let cgra_compute =
            job.products as f64 * f64::from(job.latency_cycles) * 1000.0 / model.clock_mhz;
        let fpga_compute =
            job.products as f64 * f64::from(job.latency_cycles) * 1000.0 / fpga_clock_mhz;
        cgra_ns += swap.cgra_ns + cgra_compute;
        fpga_ns += swap.fpga_ns + fpga_compute;
    }
    DynamicOutcome { cgra_ns, fpga_ns }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_is_depth_bound_for_small_matrices() {
        let m = ReconfigModel::default();
        // 1000 cells × 10 bits = 10k bits / 4096 per cycle = 3 cycles;
        // depth 12 dominates.
        let c = m.swap_cost(1000, 12);
        assert_eq!(c.cgra_cycles, 12);
    }

    #[test]
    fn swap_is_bandwidth_bound_for_big_matrices() {
        let m = ReconfigModel::default();
        // 1 M cells × 10 bits / 4096 = 2442 cycles ≫ depth.
        let c = m.swap_cost(1_000_000, 12);
        assert_eq!(c.cgra_cycles, 2_442);
        // Still about five orders of magnitude less dead time than the
        // FPGA's full reconfiguration.
        assert!(c.fpga_ns / c.cgra_ns > 10_000.0);
    }

    #[test]
    fn dynamic_workload_overwhelmingly_favors_cgra_at_low_reuse() {
        let model = ReconfigModel::default();
        // 100 matrices, each used for just 10 products (a truly dynamic
        // sparse workload, e.g. per-sample pruned inference).
        let jobs: Vec<DynamicJob> = (0..100)
            .map(|_| DynamicJob {
                cells: 100_000,
                depth: 12,
                latency_cycles: 28,
                products: 10,
            })
            .collect();
        let outcome = run_dynamic(&model, &jobs, 500.0);
        assert!(outcome.speedup() > 1000.0, "speedup {}", outcome.speedup());
    }

    #[test]
    fn dynamic_advantage_shrinks_with_reuse() {
        let model = ReconfigModel::default();
        let job = |products| DynamicJob {
            cells: 100_000,
            depth: 12,
            latency_cycles: 28,
            products,
        };
        let low = run_dynamic(&model, &[job(10)], 1000.0).speedup();
        let high = run_dynamic(&model, &[job(100_000_000)], 1000.0).speedup();
        assert!(low > high, "low-reuse {low} vs high-reuse {high}");
        // With enormous reuse the swap cost amortizes away entirely.
        assert!(high < 1.5, "{high}");
    }
}
