//! GPU comparison: Figures 13–18 (Section VII.A) — FPGA spatial multiplier
//! versus cuSPARSE and the optimized (Sputnik) kernel on a V100.

use crate::table::{fmt_f, Figure};
use smm_core::generate::element_sparse_matrix;
use smm_core::matrix::IntMatrix;
use smm_core::rng::derived;
use smm_models::fpga::flow::{synthesize, FlowOptions};
use smm_models::gpu::GpuKernelModel;
use smm_sparse::{Csr, SparsityProfile};

const SEED: u64 = 0x6713;

struct Point {
    fpga_ns: f64,
    cusparse_ns: f64,
    optimized_ns: f64,
}

fn measure(matrix: &IntMatrix) -> Point {
    let profile = SparsityProfile::of(&Csr::from_dense(matrix));
    let (_, report) = synthesize(matrix, &FlowOptions::default()).unwrap();
    Point {
        fpga_ns: report.latency_ns,
        cusparse_ns: GpuKernelModel::cusparse().spmv_latency_ns(&profile),
        optimized_ns: GpuKernelModel::optimized_kernel().spmv_latency_ns(&profile),
    }
}

fn matrix(dim: usize, sparsity_pct: u32, stream: u64) -> IntMatrix {
    let mut rng = derived(SEED, stream);
    element_sparse_matrix(dim, dim, 8, f64::from(sparsity_pct) / 100.0, true, &mut rng).unwrap()
}

/// Figures 13 and 14: latency and speedup sweeping dimension at 98 %
/// element sparsity.
pub fn fig13_14(quick: bool) -> Figure {
    let dims: &[usize] = if quick {
        &[64, 128, 256]
    } else {
        &[64, 128, 256, 512, 1024, 2048, 4096]
    };
    let mut fig = Figure::new(
        "fig13",
        "GPU vs FPGA latency and speedup, sweeping dimension (98% sparse)",
        &[
            "dim",
            "cuSPARSE_ns",
            "OptKernel_ns",
            "FPGA_ns",
            "speedup_cuSPARSE",
            "speedup_OptKernel",
        ],
    );
    for (i, &dim) in dims.iter().enumerate() {
        let p = measure(&matrix(dim, 98, i as u64));
        fig.row(vec![
            dim.to_string(),
            fmt_f(p.cusparse_ns),
            fmt_f(p.optimized_ns),
            fmt_f(p.fpga_ns),
            fmt_f(p.cusparse_ns / p.fpga_ns),
            fmt_f(p.optimized_ns / p.fpga_ns),
        ]);
    }
    fig.note("expected shape: GPU never below 1 µs, FPGA under ~120 ns; speedup 86x→50x (paper)");
    fig
}

/// Figures 15 and 16: latency and speedup sweeping element sparsity at
/// 1024×1024.
pub fn fig15_16(quick: bool) -> Figure {
    let dim = if quick { 256 } else { 1024 };
    let sparsities: &[u32] = if quick {
        &[70, 90, 98]
    } else {
        &[70, 75, 80, 85, 90, 95, 98]
    };
    let mut fig = Figure::new(
        "fig15",
        format!("GPU vs FPGA latency and speedup, sweeping sparsity ({dim}x{dim})"),
        &[
            "sparsity_%",
            "cuSPARSE_ns",
            "OptKernel_ns",
            "FPGA_ns",
            "speedup_cuSPARSE",
            "speedup_OptKernel",
        ],
    );
    for (i, &pct) in sparsities.iter().enumerate() {
        let p = measure(&matrix(dim, pct, 100 + i as u64));
        fig.row(vec![
            pct.to_string(),
            fmt_f(p.cusparse_ns),
            fmt_f(p.optimized_ns),
            fmt_f(p.fpga_ns),
            fmt_f(p.cusparse_ns / p.fpga_ns),
            fmt_f(p.optimized_ns / p.fpga_ns),
        ]);
    }
    fig.note("expected shape: GPU latency falls with sparsity then levels; speedup 77x→60x (paper)");
    fig
}

fn batch_figure(
    id: &'static str,
    dim: usize,
    sparsity_pct: u32,
    stream: u64,
    quick: bool,
) -> Figure {
    let batches: &[usize] = if quick { &[1, 4, 64] } else { &[1, 2, 4, 16, 32, 64] };
    let mut fig = Figure::new(
        id,
        format!("Batched throughput vs V100 ({dim}x{dim}, {sparsity_pct}% sparse)"),
        &[
            "batch",
            "cuSPARSE_ns",
            "OptKernel_ns",
            "FPGA_ns",
            "speedup_cuSPARSE",
            "speedup_OptKernel",
        ],
    );
    let m = matrix(dim, sparsity_pct, stream);
    let profile = SparsityProfile::of(&Csr::from_dense(&m));
    let (mul, report) = synthesize(&m, &FlowOptions::default()).unwrap();
    let cusparse = GpuKernelModel::cusparse();
    let optimized = GpuKernelModel::optimized_kernel();
    for &batch in batches {
        let fpga_ns =
            mul.batch_latency_cycles(batch) as f64 * 1000.0 / report.fmax_mhz;
        let cu = cusparse.spmm_latency_ns(&profile, batch);
        let opt = optimized.spmm_latency_ns(&profile, batch);
        fig.row(vec![
            batch.to_string(),
            fmt_f(cu),
            fmt_f(opt),
            fmt_f(fpga_ns),
            fmt_f(cu / fpga_ns),
            fmt_f(opt / fpga_ns),
        ]);
    }
    fig.note("expected shape: FPGA scales linearly, GPU amortizes; speedup decays toward ~1");
    fig
}

/// Figure 17: batched speedup for a 1024×1024, 95 %-sparse matrix.
pub fn fig17(quick: bool) -> Figure {
    let dim = if quick { 256 } else { 1024 };
    batch_figure("fig17", dim, 95, 200, quick)
}

/// Figure 18: batched speedup for a 64×64, 95 %-sparse matrix.
pub fn fig18(quick: bool) -> Figure {
    batch_figure("fig18", 64, 95, 201, quick)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(fig: &Figure, row: usize, col: usize) -> f64 {
        fig.rows[row][col].parse().unwrap()
    }

    #[test]
    fn dimension_sweep_shape() {
        let fig = fig13_14(true);
        for r in 0..fig.rows.len() {
            // GPU above 1 µs, FPGA under 120 ns, both speedups > 10x.
            assert!(col(&fig, r, 1) > 1000.0, "row {r}");
            assert!(col(&fig, r, 2) > 1000.0, "row {r}");
            assert!(col(&fig, r, 3) < 120.0, "row {r}");
            assert!(col(&fig, r, 4) > 10.0, "row {r}");
        }
    }

    #[test]
    fn sparsity_sweep_shape() {
        let fig = fig15_16(true);
        // GPU latency decreases (or levels) as sparsity increases.
        let first = col(&fig, 0, 1);
        let last = col(&fig, fig.rows.len() - 1, 1);
        assert!(last <= first, "{first} -> {last}");
    }

    #[test]
    fn batching_erodes_the_lead() {
        let fig = fig18(true);
        let first = col(&fig, 0, 4);
        let last = col(&fig, fig.rows.len() - 1, 4);
        assert!(last < first, "speedup should decay: {first} -> {last}");
        assert!(last >= 0.5, "FPGA stays competitive: {last}");
    }
}
