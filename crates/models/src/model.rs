//! Analytic V100 sparse-kernel latency model.
//!
//! The paper's GPU measurements (Figures 13–18) are characterized by two
//! regimes:
//!
//! * **latency-bound** — below a work threshold the kernel time is dominated
//!   by launch, scheduling and indexing overhead; the GPU "cannot break the
//!   1 µs barrier" regardless of how small the matrix is;
//! * **throughput-bound** — past the threshold, time grows linearly with
//!   non-zeros, at an effective rate that improves with available row
//!   parallelism (bigger matrices utilize more of the machine).
//!
//! Batched SpMM amortizes: until the batch saturates the GPU's parallel MAC
//! capacity, extra columns are nearly free; past saturation, time grows
//! linearly in batch.
//!
//! Both libraries compute in FP16 (neither supports integers — the paper
//! uses FP16 as a best-case proxy); the *math* they perform is the executed
//! CSR kernel in `smm-sparse`.

use smm_sparse::SparsityProfile;

/// Calibrated latency model for one GPU sparse library.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuKernelModel {
    /// Library name for reports.
    pub(crate) name: &'static str,
    /// Fixed overhead per kernel invocation (launch + indexing floor), ns.
    pub(crate) launch_overhead_ns: f64,
    /// Effective non-zeros per nanosecond at the 1024-row reference point.
    pub(crate) base_rate_nnz_per_ns: f64,
    /// Utilization exponent: the effective rate scales as
    /// `(rows / 1024)^exponent` (more rows, more parallelism).
    pub(crate) rate_rows_exponent: f64,
    /// Parallel MAC capacity governing batch saturation.
    pub(crate) parallel_mac_slots: f64,
}

impl GpuKernelModel {
    /// cuSPARSE CSR SpMV/SpMM: high indexing overhead, strong response to
    /// reduced non-zero counts.
    pub fn cusparse() -> Self {
        Self {
            name: "cuSPARSE",
            launch_overhead_ns: 3000.0,
            base_rate_nnz_per_ns: 50.0,
            rate_rows_exponent: 0.5,
            parallel_mac_slots: 1.0e6,
        }
    }

    /// The "optimized kernel" of Gale et al. (Sputnik): less indexing
    /// overhead and better throughput at moderate sparsity.
    pub fn optimized_kernel() -> Self {
        Self {
            name: "Optimized Kernel",
            launch_overhead_ns: 2200.0,
            base_rate_nnz_per_ns: 110.0,
            rate_rows_exponent: 0.5,
            parallel_mac_slots: 2.0e6,
        }
    }

    /// Effective non-zero processing rate for a matrix with `rows` rows.
    fn rate(&self, rows: usize) -> f64 {
        self.base_rate_nnz_per_ns * (rows as f64 / 1024.0).powf(self.rate_rows_exponent)
    }

    /// Mean SpMV (vector × sparse matrix) latency in nanoseconds, warm
    /// caches, measured device-memory to device-memory as in the paper.
    pub fn spmv_latency_ns(&self, profile: &SparsityProfile) -> f64 {
        self.launch_overhead_ns + profile.nnz as f64 / self.rate(profile.rows)
    }

    /// Batched SpMM latency: `batch` dense columns against the stationary
    /// sparse matrix.
    ///
    /// Until `batch × nnz` saturates the parallel capacity the extra
    /// columns ride along nearly free; past it, linear scaling.
    pub fn spmm_latency_ns(&self, profile: &SparsityProfile, batch: usize) -> f64 {
        if batch == 0 {
            return 0.0;
        }
        let nnz = profile.nnz.max(1) as f64;
        let batch_saturation = (self.parallel_mac_slots / nnz).max(1.0);
        let effective_parallel = (batch as f64).min(batch_saturation);
        self.launch_overhead_ns
            + nnz * batch as f64 / (self.rate(profile.rows) * effective_parallel)
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
    fn gpu_never_breaks_the_microsecond_barrier() {
        // The paper's headline: across every dimension and sparsity tested,
        // GPU latency stays above 1 µs.
        for model in [GpuKernelModel::cusparse(), GpuKernelModel::optimized_kernel()] {
            for dim in [64, 256, 1024] {
                let p = profile(dim, 0.98, 81);
                assert!(
                    model.spmv_latency_ns(&p) > 1000.0,
                    "{} at {dim}",
                    model.name
                );
            }
        }
    }

    #[test]
    fn latency_bound_regime_is_flat() {
        // Below ~512, latency is nearly constant (underutilized GPU).
        let m = GpuKernelModel::cusparse();
        let l64 = m.spmv_latency_ns(&profile(64, 0.98, 82));
        let l512 = m.spmv_latency_ns(&profile(512, 0.98, 82));
        assert!((l512 - l64) / l64 < 0.2, "{l64} vs {l512}");
    }

    #[test]
    fn throughput_regime_scales_with_nnz() {
        let m = GpuKernelModel::cusparse();
        let sparse = m.spmv_latency_ns(&profile(1024, 0.98, 83));
        let dense = m.spmv_latency_ns(&profile(1024, 0.70, 83));
        // 15x the non-zeros must cost materially more, and the dense case
        // is far off the floor.
        assert!(dense > 2.0 * sparse, "{dense} vs {sparse}");
        assert!(dense > 8000.0);
    }

    #[test]
    fn optimized_kernel_faster_at_low_sparsity() {
        let p = profile(1024, 0.70, 84);
        let cu = GpuKernelModel::cusparse().spmv_latency_ns(&p);
        let opt = GpuKernelModel::optimized_kernel().spmv_latency_ns(&p);
        assert!(opt < cu * 0.7, "opt {opt} vs cusparse {cu}");
    }

    #[test]
    fn batching_amortizes_until_saturation() {
        let m = GpuKernelModel::cusparse();
        let p = profile(1024, 0.95, 85);
        let b1 = m.spmm_latency_ns(&p, 1);
        let b8 = m.spmm_latency_ns(&p, 8);
        let b64 = m.spmm_latency_ns(&p, 64);
        // Sublinear at first (8x work for < 2x time), then closer to
        // linear: 64x batch costs less than 64x but clearly more than 8.
        assert!(b8 < b1 * 2.0, "b1 {b1} b8 {b8}");
        assert!(b64 > b8, "b8 {b8} b64 {b64}");
        assert!(b64 < b1 * 64.0);
        // Consistency: spmm at batch 1 is spmv.
        assert!((b1 - m.spmv_latency_ns(&p)).abs() < 1e-9);
    }

    #[test]
    fn tiny_matrix_batches_ride_free() {
        // 64x64 at 95 %: ~200 nnz never saturates the machine; latency is
        // flat through batch 64 (Figure 18's story).
        let m = GpuKernelModel::cusparse();
        let p = profile(64, 0.95, 86);
        let b1 = m.spmm_latency_ns(&p, 1);
        let b64 = m.spmm_latency_ns(&p, 64);
        assert!((b64 - b1) / b1 < 0.05, "b1 {b1} b64 {b64}");
    }

    #[test]
    fn zero_batch_is_zero() {
        let m = GpuKernelModel::cusparse();
        let p = profile(64, 0.9, 87);
        assert_eq!(m.spmm_latency_ns(&p, 0), 0.0);
    }
}
