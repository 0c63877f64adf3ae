//! Cycle-level SIGMA execution model.
//!
//! SIGMA maps only the non-zero weight/activation pairs onto its PE grid
//! through a flexible (Benes) distribution network and reduces partial sums
//! through a forwarding adder tree. The single mechanism that governs the
//! paper's Figures 19–23:
//!
//! * if all non-zeros **fit in the PE grid** (≤ 16 384), the product
//!   completes in nanoseconds — weight fill is short, the input broadcast
//!   and log-depth reduction dominate;
//! * if not, the computation **tiles**: every tile re-fills the grid from
//!   SRAM at the weight-load bandwidth, which puts SIGMA in a memory-bound
//!   linear regime in the microseconds.
//!
//! Batching (weight-stationary SpMM) re-uses each tile's fill across the
//! batch, so the per-tile input streaming becomes the asymptotic cost.
//!
//! This model only prices that dataflow. The one executor of it is the
//! serving runtime's `sigma` engine (`smm_runtime::SigmaEngine`): the
//! non-zeros packed row-major, [`SigmaConfig::pes`] to a tile, tiles
//! outer and frames inner.

use crate::config::SigmaConfig;
use smm_bitserial::builder::ceil_log2;
use smm_sparse::SparsityProfile;

/// Breakdown of one SIGMA invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SigmaRun {
    /// Number of PE-grid tiles the non-zeros required.
    pub tiles: u64,
    /// Cycles spent filling weights from SRAM.
    pub(crate) weight_fill_cycles: u64,
    /// Cycles spent streaming/broadcasting inputs (all batches).
    pub(crate) input_stream_cycles: u64,
    /// Fixed distribution/reduction pipeline cycles.
    pub(crate) overhead_cycles: u64,
}

impl SigmaRun {
    /// Total cycles.
    pub(crate) fn total_cycles(&self) -> u64 {
        self.weight_fill_cycles + self.input_stream_cycles + self.overhead_cycles
    }
}

/// The SIGMA performance model.
#[derive(Debug, Clone, Default)]
pub struct Sigma {
    config: SigmaConfig,
}

impl Sigma {
    /// Simulates one weight-stationary sparse `aᵀV` (gemv).
    pub fn run_gemv(&self, profile: &SparsityProfile) -> SigmaRun {
        self.run_gemm(profile, 1)
    }

    /// Simulates a weight-stationary sparse–dense gemm with `batch` input
    /// vectors.
    pub(crate) fn run_gemm(&self, profile: &SparsityProfile, batch: usize) -> SigmaRun {
        assert!(batch > 0, "batch must be at least 1");
        let pes = self.config.pes();
        let nnz = profile.nnz;
        let tiles = nnz.div_ceil(pes).max(1) as u64;
        // Weight fill: every stored non-zero passes through the SRAM port
        // once (full tiles take pes/bandwidth cycles, the last tile less).
        let weight_fill_cycles =
            (nnz.max(1)).div_ceil(self.config.weight_load_words_per_cycle) as u64;
        // Inputs are broadcast per tile, per batch element.
        let stream_per_input =
            profile.rows.div_ceil(self.config.input_stream_words_per_cycle) as u64;
        let input_stream_cycles = tiles * stream_per_input * batch as u64;
        let overhead_cycles =
            self.config.fixed_overhead_cycles + ceil_log2(profile.rows.max(2)) as u64;
        SigmaRun {
            tiles,
            weight_fill_cycles,
            input_stream_cycles,
            overhead_cycles,
        }
    }

    /// gemv latency in nanoseconds.
    pub fn gemv_latency_ns(&self, profile: &SparsityProfile) -> f64 {
        self.config.cycles_to_ns(self.run_gemv(profile).total_cycles())
    }

    /// gemm latency in nanoseconds for `batch` inputs.
    pub fn gemm_latency_ns(&self, profile: &SparsityProfile, batch: usize) -> f64 {
        self.config
            .cycles_to_ns(self.run_gemm(profile, batch).total_cycles())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_core::generate::element_sparse_matrix;
    use smm_core::rng::seeded;
    use smm_sparse::Csr;

    fn profile(dim: usize, sparsity: f64, seed: u64) -> SparsityProfile {
        let mut rng = seeded(seed);
        let m = element_sparse_matrix(dim, dim, 8, sparsity, true, &mut rng).unwrap();
        SparsityProfile::of(&Csr::from_dense(&m))
    }

    #[test]
    fn small_matrices_are_nanosecond_scale() {
        let sigma = Sigma::default();
        for dim in [64, 128, 256, 512] {
            let p = profile(dim, 0.98, 91);
            assert_eq!(sigma.run_gemv(&p).tiles, 1, "dim {dim}");
            let ns = sigma.gemv_latency_ns(&p);
            assert!(ns < 200.0, "dim {dim}: {ns}");
        }
    }

    #[test]
    fn tiling_cliff_after_1024() {
        let sigma = Sigma::default();
        // 1024² at 98 %: ~21k nnz > 16384 PEs -> first tiled point.
        let p1024 = profile(1024, 0.98, 92);
        assert_eq!(sigma.run_gemv(&p1024).tiles, 2);
        // 4096² at 98 %: deep tiling, microsecond regime, linear scaling.
        let p4096 = profile(4096, 0.98, 92);
        let run = sigma.run_gemv(&p4096);
        assert!(run.tiles >= 20, "tiles {}", run.tiles);
        let ns = sigma.gemv_latency_ns(&p4096);
        assert!(ns > 1000.0, "{ns}");
    }

    #[test]
    fn sparsity_sweep_microsecond_below_90() {
        let sigma = Sigma::default();
        // Paper: "even 90 % sparsity and below is enough to push it back
        // into the microsecond regime" at 1024².
        for sparsity in [0.70, 0.80, 0.90] {
            let p = profile(1024, sparsity, 93);
            let ns = sigma.gemv_latency_ns(&p);
            assert!(ns > 700.0, "sparsity {sparsity}: {ns}");
        }
        // And latency falls monotonically as sparsity rises.
        let l70 = sigma.gemv_latency_ns(&profile(1024, 0.70, 93));
        let l95 = sigma.gemv_latency_ns(&profile(1024, 0.95, 93));
        assert!(l95 < l70 / 3.0, "{l95} vs {l70}");
    }

    #[test]
    fn batching_amortizes_weight_fill() {
        let sigma = Sigma::default();
        let p = profile(1024, 0.95, 94);
        let b1 = sigma.gemm_latency_ns(&p, 1);
        let b2 = sigma.gemm_latency_ns(&p, 2);
        let b64 = sigma.gemm_latency_ns(&p, 64);
        // Weight fill is paid once: doubling batch costs less than double.
        assert!(b2 < 2.0 * b1, "b1 {b1} b2 {b2}");
        // Asymptotically linear in batch (input streaming dominates).
        let slope = (sigma.gemm_latency_ns(&p, 64) - sigma.gemm_latency_ns(&p, 32)) / 32.0;
        assert!(slope > 0.0);
        assert!(b64 > 10.0 * b1 / 2.0);
    }

    #[test]
    fn gemv_equals_gemm_batch_one() {
        let sigma = Sigma::default();
        let p = profile(256, 0.9, 95);
        assert_eq!(
            sigma.run_gemv(&p).total_cycles(),
            sigma.run_gemm(&p, 1).total_cycles()
        );
    }

    #[test]
    #[should_panic(expected = "batch")]
    fn zero_batch_panics() {
        let sigma = Sigma::default();
        let p = profile(64, 0.9, 96);
        sigma.run_gemm(&p, 0);
    }

    #[test]
    fn run_breakdown_is_consistent() {
        let sigma = Sigma::default();
        let p = profile(512, 0.9, 97);
        let run = sigma.run_gemv(&p);
        assert_eq!(
            run.total_cycles(),
            run.weight_fill_cycles + run.input_stream_cycles + run.overhead_cycles
        );
    }
}
