//! Small-matrix synthesis studies: Figures 5–9 (Sections IV–V).

use crate::table::{fmt_f, Figure};
use smm_bitserial::multiplier::{FixedMatrixMultiplier, WeightEncoding};
use smm_core::csd::ChainPolicy;
use smm_core::generate::{bit_sparse_matrix, element_sparse_matrix, uniform_matrix};
use smm_core::matrix::IntMatrix;
use smm_core::rng::derived;
use smm_core::signsplit::split_pn;
use smm_core::sparsity::bit_sparsity_of;
use smm_models::fpga::resources::map_netlist;
use smm_models::fpga::ResourceReport;

const SEED: u64 = 0x5151;

fn resources(matrix: &IntMatrix, encoding: WeightEncoding) -> (u64, ResourceReport) {
    let mul = FixedMatrixMultiplier::compile(matrix, 8, encoding).expect("compile");
    let r = map_netlist(
        &mul.circuit().netlist,
        mul.input_bits(),
        mul.output_bits(),
    );
    (mul.ones(), r)
}

/// Figure 5: hardware utilization versus bit-sparsity of a 64×64 matrix.
pub fn fig5(quick: bool) -> Figure {
    let dim = if quick { 32 } else { 64 };
    let mut fig = Figure::new(
        "fig5",
        format!("Hardware utilization vs bit-sparsity ({dim}x{dim}, 8-bit)"),
        &["bit_sparsity_%", "ones", "LUT", "FF", "LUTRAM"],
    );
    let step = if quick { 25 } else { 10 };
    for pct in (0..=100).step_by(step) {
        let mut rng = derived(SEED, pct as u64);
        let m = bit_sparse_matrix(dim, dim, 8, pct as f64 / 100.0, &mut rng).unwrap();
        let (ones, r) = resources(&m, WeightEncoding::Pn);
        fig.row(vec![
            pct.to_string(),
            ones.to_string(),
            r.lut.to_string(),
            r.ff.to_string(),
            r.lutram.to_string(),
        ]);
    }
    fig.note("expected shape: LUT/FF linear in set bits (paper: cost ∝ ones)");
    fig
}

/// Figure 6: element-sparse matrices cost the same as bit-sparse matrices
/// at equal measured bit-sparsity.
pub fn fig6(quick: bool) -> Figure {
    let dim = if quick { 32 } else { 64 };
    let mut fig = Figure::new(
        "fig6",
        format!("Element-sparse vs bit-sparse cost ({dim}x{dim}, 8-bit)"),
        &[
            "elem_sparsity_%",
            "bit_sparsity_%",
            "LUT_es",
            "FF_es",
            "LUT_bs",
            "FF_bs",
        ],
    );
    let points: &[u32] = if quick { &[50, 80, 95] } else { &[0, 25, 50, 60, 70, 80, 90, 95, 98] };
    for &es in points {
        let mut rng = derived(SEED + 1, u64::from(es));
        let m_es = element_sparse_matrix(dim, dim, 8, f64::from(es) / 100.0, false, &mut rng).unwrap();
        let bs = bit_sparsity_of(&m_es, 8).unwrap();
        let m_bs = bit_sparse_matrix(dim, dim, 8, bs, &mut rng).unwrap();
        let (_, r_es) = resources(&m_es, WeightEncoding::Pn);
        let (_, r_bs) = resources(&m_bs, WeightEncoding::Pn);
        fig.row(vec![
            es.to_string(),
            fmt_f(bs * 100.0),
            r_es.lut.to_string(),
            r_es.ff.to_string(),
            r_bs.lut.to_string(),
            r_bs.ff.to_string(),
        ]);
    }
    fig.note("expected shape: the two schemes cost the same at equal bit-sparsity");
    fig
}

/// Figure 7: utilization versus matrix size for dense random 8-bit weights.
pub fn fig7(quick: bool) -> Figure {
    let mut fig = Figure::new(
        "fig7",
        "Hardware utilization vs matrix size (random 8-bit)",
        &["size", "LUT", "FF", "LUT_per_element"],
    );
    let sizes: &[usize] = if quick {
        &[2, 8, 32, 64]
    } else {
        &[2, 4, 8, 16, 32, 64, 128]
    };
    for &dim in sizes {
        let mut rng = derived(SEED + 2, dim as u64);
        let m = uniform_matrix(dim, dim, 8, false, &mut rng).unwrap();
        let (_, r) = resources(&m, WeightEncoding::Pn);
        fig.row(vec![
            format!("{dim}x{dim}"),
            r.lut.to_string(),
            r.ff.to_string(),
            fmt_f(r.lut as f64 / (dim * dim) as f64),
        ]);
    }
    fig.note("expected shape: quadratic in dimension, i.e. linear per element");
    fig
}

/// Figure 8: utilization of a 64×64 random matrix versus weight bit-width.
pub fn fig8(quick: bool) -> Figure {
    let dim = if quick { 32 } else { 64 };
    let mut fig = Figure::new(
        "fig8",
        format!("Hardware utilization vs weight bit-width ({dim}x{dim})"),
        &["bits", "LUT", "FF", "LUT_per_bit"],
    );
    let widths: &[u32] = if quick { &[1, 4, 8] } else { &[1, 2, 4, 8, 16, 31] };
    for &bits in widths {
        let mut rng = derived(SEED + 3, u64::from(bits));
        let m = uniform_matrix(dim, dim, bits, false, &mut rng).unwrap();
        let (_, r) = resources(&m, WeightEncoding::Pn);
        fig.row(vec![
            bits.to_string(),
            r.lut.to_string(),
            r.ff.to_string(),
            fmt_f(r.lut as f64 / f64::from(bits)),
        ]);
    }
    fig.note("expected shape: linear in bit-width (no cross-bit optimization)");
    fig.note("paper sweeps to 32 bits; this port stores weights in i32, so the top point is 31");
    fig
}

/// Figure 9: CSD versus naive (PN) utilization across element sparsity.
pub fn fig9(quick: bool) -> Figure {
    let dim = if quick { 32 } else { 64 };
    let mut fig = Figure::new(
        "fig9",
        format!("CSD resource utilization ({dim}x{dim} element-sparse, signed 8-bit)"),
        &[
            "elem_sparsity_%",
            "ones_V",
            "ones_CSD",
            "LUT_V",
            "FF_V",
            "LUT_CSD",
            "FF_CSD",
            "lut_savings_%",
        ],
    );
    let points: &[u32] = if quick { &[0, 50, 95] } else { &[0, 12, 25, 38, 50, 62, 75, 88, 95, 100] };
    for &es in points {
        let mut rng = derived(SEED + 4, u64::from(es));
        let m = element_sparse_matrix(dim, dim, 8, f64::from(es) / 100.0, true, &mut rng).unwrap();
        let ones_pn = split_pn(&m).ones();
        let (_, r_pn) = resources(&m, WeightEncoding::Pn);
        let (ones_csd, r_csd) = resources(
            &m,
            WeightEncoding::Csd {
                policy: ChainPolicy::CoinFlip,
                seed: SEED + 5,
            },
        );
        let savings = if r_pn.lut > 0 {
            100.0 * (1.0 - r_csd.lut as f64 / r_pn.lut as f64)
        } else {
            0.0
        };
        fig.row(vec![
            es.to_string(),
            ones_pn.to_string(),
            ones_csd.to_string(),
            r_pn.lut.to_string(),
            r_pn.ff.to_string(),
            r_csd.lut.to_string(),
            r_csd.ff.to_string(),
            fmt_f(savings),
        ]);
    }
    fig.note("expected shape: CSD strictly cheaper, ~17 % LUT savings on uniform weights");
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_cost_is_linear_in_ones() {
        let fig = fig5(true);
        // LUT column ~ ones column: check ratio stable across non-zero rows.
        let parse = |r: &Vec<String>, i: usize| r[i].parse::<f64>().unwrap();
        let mut ratios = Vec::new();
        for row in &fig.rows {
            let ones = parse(row, 1);
            if ones > 1000.0 {
                ratios.push(parse(row, 2) / ones);
            }
        }
        assert!(ratios.len() >= 2);
        let spread = ratios.iter().cloned().fold(f64::MIN, f64::max)
            / ratios.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 1.25, "LUT/ones ratio unstable: {ratios:?}");
    }

    #[test]
    fn fig6_schemes_agree() {
        let fig = fig6(true);
        for row in &fig.rows {
            let lut_es: f64 = row[2].parse().unwrap();
            let lut_bs: f64 = row[4].parse().unwrap();
            let rel = (lut_es - lut_bs).abs() / lut_es.max(lut_bs).max(1.0);
            assert!(rel < 0.15, "schemes diverge: {row:?}");
        }
    }

    #[test]
    fn fig7_is_quadratic() {
        let fig = fig7(true);
        // Per-element LUT cost is roughly constant once the fixed wrapper
        // overhead stops dominating (sizes ≥ 32).
        let per_element: Vec<f64> = fig
            .rows
            .iter()
            .filter(|r| {
                let dim: usize = r[0].split('x').next().unwrap().parse().unwrap();
                dim >= 32
            })
            .map(|r| r[3].parse().unwrap())
            .collect();
        assert!(per_element.len() >= 2);
        let max = per_element.iter().cloned().fold(f64::MIN, f64::max);
        let min = per_element.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min < 1.5, "per-element cost unstable: {per_element:?}");
    }

    #[test]
    fn fig9_csd_always_cheaper_or_equal() {
        let fig = fig9(true);
        for row in &fig.rows {
            let lut_v: u64 = row[3].parse().unwrap();
            let lut_csd: u64 = row[5].parse().unwrap();
            assert!(lut_csd <= lut_v, "{row:?}");
        }
    }
}
