//! SIGMA comparison: Figures 19–23 (Section VII.B) — FPGA spatial
//! multiplier versus the SIGMA sparse DNN accelerator at 1 GHz.

use crate::table::{fmt_f, Figure};
use smm_core::generate::element_sparse_matrix;
use smm_core::matrix::IntMatrix;
use smm_core::rng::derived;
use smm_models::fpga::flow::{synthesize, FlowOptions};
use smm_models::sigma::Sigma;
use smm_sparse::{Csr, SparsityProfile};

const SEED: u64 = 0x5167;

fn matrix(dim: usize, sparsity_pct: u32, stream: u64) -> IntMatrix {
    let mut rng = derived(SEED, stream);
    element_sparse_matrix(dim, dim, 8, f64::from(sparsity_pct) / 100.0, true, &mut rng).unwrap()
}

/// Figures 19 and 20: latency and speedup versus SIGMA, sweeping dimension
/// at 98 % element sparsity.
pub fn fig19_20(quick: bool) -> Figure {
    let dims: &[usize] = if quick {
        &[64, 256, 1024]
    } else {
        &[64, 128, 256, 512, 1024, 2048, 4096]
    };
    let mut fig = Figure::new(
        "fig19",
        "SIGMA vs FPGA latency and speedup, sweeping dimension (98% sparse)",
        &["dim", "SIGMA_tiles", "SIGMA_ns", "FPGA_ns", "speedup"],
    );
    let sigma = Sigma::default();
    for (i, &dim) in dims.iter().enumerate() {
        let m = matrix(dim, 98, i as u64);
        let profile = SparsityProfile::of(&Csr::from_dense(&m));
        let run = sigma.run_gemv(&profile);
        let sigma_ns = sigma.gemv_latency_ns(&profile);
        let (_, report) = synthesize(&m, &FlowOptions::default()).unwrap();
        fig.row(vec![
            dim.to_string(),
            run.tiles.to_string(),
            fmt_f(sigma_ns),
            fmt_f(report.latency_ns),
            fmt_f(sigma_ns / report.latency_ns),
        ]);
    }
    fig.note("expected shape: single tile through 512 (ns-scale), tiling cliff past 1024,");
    fig.note("linear memory-bound growth after; paper: 4.1x worst case, 25x at large dims");
    fig
}

/// Figures 21 and 22: latency and speedup versus SIGMA, sweeping sparsity
/// at 1024×1024.
pub fn fig21_22(quick: bool) -> Figure {
    let dim = if quick { 512 } else { 1024 };
    let sparsities: &[u32] = if quick {
        &[70, 90, 98]
    } else {
        &[70, 80, 90, 95, 98]
    };
    let mut fig = Figure::new(
        "fig21",
        format!("SIGMA vs FPGA latency and speedup, sweeping sparsity ({dim}x{dim})"),
        &["sparsity_%", "SIGMA_tiles", "SIGMA_ns", "FPGA_ns", "speedup"],
    );
    let sigma = Sigma::default();
    for (i, &pct) in sparsities.iter().enumerate() {
        let m = matrix(dim, pct, 300 + i as u64);
        let profile = SparsityProfile::of(&Csr::from_dense(&m));
        let run = sigma.run_gemv(&profile);
        let sigma_ns = sigma.gemv_latency_ns(&profile);
        let (_, report) = synthesize(&m, &FlowOptions::default()).unwrap();
        fig.row(vec![
            pct.to_string(),
            run.tiles.to_string(),
            fmt_f(sigma_ns),
            fmt_f(report.latency_ns),
            fmt_f(sigma_ns / report.latency_ns),
        ]);
    }
    fig.note("expected shape: ≤90 % sparsity pushes SIGMA into microseconds (tiling);");
    fig.note("speedup falls toward high sparsity as SIGMA re-fits its PE grid");
    fig
}

/// Figure 23: batched speedup versus SIGMA (1024×1024, 95 % sparse).
///
/// The dimension stays at 1024 even in quick mode: the figure's whole point
/// is the 4-tile regime, and a smaller matrix fits a single tile and
/// changes the story.
pub fn fig23(quick: bool) -> Figure {
    let dim = 1024;
    let batches: &[usize] = if quick {
        &[1, 4, 64]
    } else {
        &[1, 2, 4, 8, 16, 32, 64]
    };
    let mut fig = Figure::new(
        "fig23",
        format!("Batched speedup vs SIGMA ({dim}x{dim}, 95% sparse)"),
        &["batch", "SIGMA_ns", "FPGA_ns", "speedup"],
    );
    let sigma = Sigma::default();
    let m = matrix(dim, 95, 400);
    let profile = SparsityProfile::of(&Csr::from_dense(&m));
    let (mul, report) = synthesize(&m, &FlowOptions::default()).unwrap();
    for &batch in batches {
        let sigma_ns = sigma.gemm_latency_ns(&profile, batch);
        let fpga_ns = mul.batch_latency_cycles(batch) as f64 * 1000.0 / report.fmax_mhz;
        fig.row(vec![
            batch.to_string(),
            fmt_f(sigma_ns),
            fmt_f(fpga_ns),
            fmt_f(sigma_ns / fpga_ns),
        ]);
    }
    fig.note("expected shape: speedup decays from batch-1 and saturates ~5x (paper: 5.4x)");
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(fig: &Figure, row: usize, c: usize) -> f64 {
        fig.rows[row][c].parse().unwrap()
    }

    #[test]
    fn dimension_sweep_has_tiling_cliff() {
        let fig = fig19_20(true);
        // Small dims: single tile; 1024 at 98 %: tiled.
        assert_eq!(fig.rows[0][1], "1");
        let last = fig.rows.len() - 1;
        assert!(col(&fig, last, 1) >= 2.0);
        // FPGA wins everywhere in the sweep.
        for r in 0..fig.rows.len() {
            assert!(col(&fig, r, 4) >= 0.8, "row {r}");
        }
    }

    #[test]
    fn sparsity_sweep_microseconds_at_low_sparsity() {
        let fig = fig21_22(true);
        assert!(col(&fig, 0, 2) > 600.0, "70% should be near-microsecond");
        // Speedup shrinks as sparsity rises.
        let first = col(&fig, 0, 4);
        let last = col(&fig, fig.rows.len() - 1, 4);
        assert!(last < first, "{first} -> {last}");
    }

    #[test]
    fn batch_speedup_saturates() {
        let fig = fig23(true);
        let first = col(&fig, 0, 3);
        let last = col(&fig, fig.rows.len() - 1, 3);
        assert!(last < first);
        assert!(last > 1.0, "FPGA stays ahead at batch 64: {last}");
    }
}
