//! Large-scale design results: Figures 10–12 (Section VI) — area, achieved
//! frequency, and power across 512/1024 matrices, 40–98 % element sparsity,
//! PN and CSD encodings.

use crate::table::{fmt_f, Figure};
use smm_bitserial::multiplier::WeightEncoding;
use smm_core::csd::ChainPolicy;
use smm_core::generate::element_sparse_matrix;
use smm_core::rng::derived;
use smm_models::fpga::flow::{synthesize, FlowOptions, SynthesisReport};

const SEED: u64 = 0x1A26;

/// One sweep point of the Section VI study.
pub struct LargePoint {
    /// Matrix dimension.
    pub dim: usize,
    /// Element sparsity in percent.
    pub sparsity_pct: u32,
    /// "PN" or "CSD".
    pub encoding: &'static str,
    /// The flow's full report.
    pub report: SynthesisReport,
}

/// Runs the shared Section VI sweep (compile + flow per point).
pub fn sweep(quick: bool) -> Vec<LargePoint> {
    let dims: &[usize] = if quick { &[128, 256] } else { &[512, 1024] };
    let sparsities: &[u32] = if quick {
        &[60, 90, 98]
    } else {
        &[40, 60, 70, 80, 90, 95, 98]
    };
    let mut points = Vec::new();
    for &dim in dims {
        for &pct in sparsities {
            // The paper's capacity bound: 1024² below 60 % sparsity exceeds
            // the device (≥ 1.5 M ones); skip what could never route.
            if dim >= 1024 && pct < 60 {
                continue;
            }
            let mut rng = derived(SEED, (dim as u64) << 8 | u64::from(pct));
            let m =
                element_sparse_matrix(dim, dim, 8, f64::from(pct) / 100.0, true, &mut rng).unwrap();
            for (name, encoding) in [
                ("PN", WeightEncoding::Pn),
                (
                    "CSD",
                    WeightEncoding::Csd {
                        policy: ChainPolicy::CoinFlip,
                        seed: SEED + 7,
                    },
                ),
            ] {
                let options = FlowOptions {
                    encoding,
                    ..FlowOptions::default()
                };
                let (_, report) = synthesize(&m, &options).unwrap();
                points.push(LargePoint {
                    dim,
                    sparsity_pct: pct,
                    encoding: name,
                    report,
                });
            }
        }
    }
    points
}

/// Figure 10: LUTs and registers versus the number of matrix ones.
pub fn fig10(points: &[LargePoint]) -> Figure {
    let mut fig = Figure::new(
        "fig10",
        "Large-scale area: resources vs matrix ones (PN and CSD)",
        &["dim", "sparsity_%", "enc", "ones", "LUT", "FF", "LUT_per_one"],
    );
    for p in points {
        fig.row(vec![
            p.dim.to_string(),
            p.sparsity_pct.to_string(),
            p.encoding.to_string(),
            p.report.ones.to_string(),
            p.report.resources.lut.to_string(),
            p.report.resources.ff.to_string(),
            fmt_f(p.report.resources.lut as f64 / p.report.ones.max(1) as f64),
        ]);
    }
    fig.note("expected shape: LUT ≈ ones, FF ≈ 2×LUT; CSD shifts points down-left");
    fig
}

/// Figure 11: achieved frequency versus design size.
pub fn fig11(points: &[LargePoint]) -> Figure {
    let mut fig = Figure::new(
        "fig11",
        "Large-scale frequency: Fmax vs design size",
        &["dim", "sparsity_%", "enc", "LUT", "SLRs", "Fmax_MHz", "fits"],
    );
    for p in points {
        fig.row(vec![
            p.dim.to_string(),
            p.sparsity_pct.to_string(),
            p.encoding.to_string(),
            p.report.resources.lut.to_string(),
            p.report.slrs_spanned.to_string(),
            fmt_f(p.report.fmax_mhz),
            p.report.fits.to_string(),
        ]);
    }
    fig.note("expected bands: ≤1 SLR 445–597 MHz, 2 SLRs 296–400 MHz, >2 SLRs 225–250 MHz");
    fig
}

/// Figure 12: estimated power at the achieved frequency.
pub fn fig12(points: &[LargePoint]) -> Figure {
    let mut fig = Figure::new(
        "fig12",
        "Large-scale power at maximum achievable frequency",
        &[
            "dim",
            "sparsity_%",
            "enc",
            "Fmax_MHz",
            "static_W",
            "dynamic_W",
            "total_W",
            "thermal_ok",
        ],
    );
    for p in points {
        fig.row(vec![
            p.dim.to_string(),
            p.sparsity_pct.to_string(),
            p.encoding.to_string(),
            fmt_f(p.report.fmax_mhz),
            fmt_f(p.report.power.static_w),
            fmt_f(p.report.power.dynamic_w),
            fmt_f(p.report.power.total_w()),
            p.report.thermally_feasible.to_string(),
        ]);
    }
    fig.note("expected shape: sublinear growth (big designs clock slower); ~150 W ceiling");
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shapes_hold() {
        let points = sweep(true);
        assert!(!points.is_empty());
        for p in &points {
            // Area tracks ones within per-column bookkeeping + wrapper.
            let lut = p.report.resources.lut as f64;
            let ones = p.report.ones as f64;
            assert!(
                (lut / ones - 1.0).abs() < 0.2,
                "{}@{}%/{}: lut {lut} ones {ones}",
                p.dim,
                p.sparsity_pct,
                p.encoding
            );
            assert!(p.report.fmax_mhz > 200.0 && p.report.fmax_mhz < 620.0);
            assert!(p.report.power.total_w() < 160.0);
        }
    }

    #[test]
    fn csd_never_larger_than_pn() {
        let points = sweep(true);
        for pair in points.chunks(2) {
            let (pn, csd) = (&pair[0], &pair[1]);
            assert_eq!(pn.encoding, "PN");
            assert_eq!(csd.encoding, "CSD");
            assert!(
                csd.report.resources.lut <= pn.report.resources.lut,
                "{}@{}%",
                pn.dim,
                pn.sparsity_pct
            );
        }
    }

    #[test]
    fn figures_render() {
        let points = sweep(true);
        for fig in [fig10(&points), fig11(&points), fig12(&points)] {
            assert!(!fig.rows.is_empty());
            assert!(fig.render().contains(fig.id));
        }
    }
}
