//! The end-to-end design flow: weight matrix in, synthesis report out.
//!
//! This is the one-call equivalent of the paper's Vivado flow ("takes the
//! content of the matrices and compiles it to a physical design … produces
//! an achievable frequency, area, and power estimation").

use crate::device::Device;
use crate::power::{PowerBreakdown, PowerModel};
use crate::resources::{map_netlist, ResourceReport};
use crate::timing::TimingModel;
use smm_bitserial::latency::cycles_to_ns;
use smm_bitserial::multiplier::{FixedMatrixMultiplier, WeightEncoding};
use smm_core::error::Result;
use smm_core::matrix::IntMatrix;

/// Flow configuration.
#[derive(Debug, Clone)]
pub struct FlowOptions {
    /// Signed input operand width (the paper uses 8).
    pub input_bits: u32,
    /// PN or CSD weight decomposition.
    pub encoding: WeightEncoding,
    /// Apply the Section VIII fix: register the input broadcast so fanout
    /// no longer limits frequency (costs extra FFs and one latency cycle
    /// per added stage).
    pub fanout_pipelining: bool,
    /// Target device.
    pub device: Device,
    /// Frequency model.
    pub timing: TimingModel,
    /// Power model.
    pub power: PowerModel,
}

impl Default for FlowOptions {
    fn default() -> Self {
        Self {
            input_bits: 8,
            encoding: WeightEncoding::Pn,
            fanout_pipelining: false,
            device: Device::xcvu13p(),
            timing: TimingModel::default(),
            power: PowerModel::default(),
        }
    }
}

/// Everything the flow reports about one compiled matrix.
#[derive(Debug, Clone)]
pub struct SynthesisReport {
    /// FPGA resource footprint.
    pub resources: ResourceReport,
    /// Set bits in the (split) weight matrix — the cost driver.
    pub ones: u64,
    /// Achieved clock after place-and-route (MHz).
    pub fmax_mhz: f64,
    /// Power estimate at `fmax_mhz`.
    pub power: PowerBreakdown,
    /// SLR chiplets the design spans.
    pub slrs_spanned: u32,
    /// Equation 5 latency in cycles at the design's realized widths.
    pub latency_cycles: u32,
    /// Latency in nanoseconds at the achieved clock.
    pub latency_ns: f64,
    /// Whether the design fits the device at all.
    pub fits: bool,
    /// Whether the power estimate respects the thermal limit.
    pub thermally_feasible: bool,
}

/// Runs the whole flow on a signed weight matrix: spatial compilation,
/// resource mapping, timing and power estimation, latency accounting.
///
/// The returned [`FixedMatrixMultiplier`] is the functional circuit — run
/// vectors through it; the [`SynthesisReport`] is the physical estimate.
pub fn synthesize(
    matrix: &IntMatrix,
    options: &FlowOptions,
) -> Result<(FixedMatrixMultiplier, SynthesisReport)> {
    let multiplier =
        FixedMatrixMultiplier::compile(matrix, options.input_bits, options.encoding)?;
    let report = report_for(&multiplier, options);
    Ok((multiplier, report))
}

/// Produces a synthesis report for an already-compiled multiplier.
pub fn report_for(multiplier: &FixedMatrixMultiplier, options: &FlowOptions) -> SynthesisReport {
    let stats = *multiplier.stats();
    let mut resources = map_netlist(
        &multiplier.circuit().netlist,
        multiplier.input_bits(),
        multiplier.output_bits(),
    );
    let mut latency_cycles = multiplier.paper_latency_cycles();
    if options.fanout_pipelining {
        // One registered broadcast stage per 512 loads of the widest net,
        // costing a FF per row per stage and one cycle each.
        let stages = (stats.max_input_fanout as f64 / 512.0).log2().ceil().max(0.0) as u32;
        resources.ff += u64::from(stages) * multiplier.rows() as u64;
        latency_cycles += stages;
    }
    let fmax_mhz = options.timing.fmax_mhz(
        resources.lut,
        stats.max_input_fanout,
        &options.device,
        options.fanout_pipelining,
    );
    let power = options.power.estimate(&resources, fmax_mhz);
    SynthesisReport {
        resources,
        ones: multiplier.ones(),
        fmax_mhz,
        power,
        slrs_spanned: options.device.slrs_spanned(resources.lut),
        latency_cycles,
        latency_ns: cycles_to_ns(latency_cycles, fmax_mhz),
        fits: options
            .device
            .fits(resources.lut, resources.ff, resources.lutram),
        thermally_feasible: power.total_w() <= options.device.thermal_limit_w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_core::generate::element_sparse_matrix;
    use smm_core::rng::seeded;

    fn flow(dim: usize, sparsity: f64, seed: u64) -> SynthesisReport {
        let mut rng = seeded(seed);
        let m = element_sparse_matrix(dim, dim, 8, sparsity, true, &mut rng).unwrap();
        synthesize(&m, &FlowOptions::default()).unwrap().1
    }

    #[test]
    fn small_design_report_sanity() {
        let r = flow(64, 0.9, 71);
        assert!(r.fits);
        assert!(r.thermally_feasible);
        assert_eq!(r.slrs_spanned, 1);
        assert!(r.fmax_mhz > 500.0);
        assert!(r.latency_ns < 120.0, "latency {}", r.latency_ns);
        assert!(r.resources.lut > 0 && r.resources.ff > 0 && r.resources.lutram > 0);
    }

    #[test]
    fn latency_headline_number() {
        // 1024x1024 at 95 % sparsity: the paper's "< 120 ns" regime.
        let r = flow(256, 0.95, 72);
        assert!(r.latency_ns < 120.0, "latency {}", r.latency_ns);
    }

    #[test]
    fn functional_and_physical_agree() {
        let mut rng = seeded(73);
        let m = element_sparse_matrix(32, 32, 8, 0.8, true, &mut rng).unwrap();
        let (mul, report) = synthesize(&m, &FlowOptions::default()).unwrap();
        let a = smm_core::generate::random_vector(32, 8, true, &mut rng).unwrap();
        assert_eq!(
            mul.mul(&a).unwrap(),
            smm_core::gemv::vecmat(&a, &m).unwrap()
        );
        assert!(report.resources.lut > 0);
    }

    #[test]
    fn csd_reduces_area_dense() {
        let mut rng = seeded(74);
        let m = element_sparse_matrix(48, 48, 8, 0.0, true, &mut rng).unwrap();
        let pn = synthesize(&m, &FlowOptions::default()).unwrap().1;
        let csd_opts = FlowOptions {
            encoding: WeightEncoding::Csd {
                policy: smm_core::csd::ChainPolicy::CoinFlip,
                seed: 5,
            },
            ..FlowOptions::default()
        };
        let csd = synthesize(&m, &csd_opts).unwrap().1;
        assert!(csd.resources.lut < pn.resources.lut);
        // Paper: ~17 % LUT reduction on uniform dense weights.
        let reduction = 1.0 - csd.resources.lut as f64 / pn.resources.lut as f64;
        assert!(reduction > 0.08, "reduction {reduction}");
    }

    #[test]
    fn fanout_pipelining_helps_big_fanout() {
        let mut rng = seeded(75);
        let m = element_sparse_matrix(96, 96, 8, 0.1, true, &mut rng).unwrap();
        let base = synthesize(&m, &FlowOptions::default()).unwrap().1;
        let piped = synthesize(
            &m,
            &FlowOptions {
                fanout_pipelining: true,
                ..FlowOptions::default()
            },
        )
        .unwrap()
        .1;
        assert!(piped.fmax_mhz >= base.fmax_mhz);
        assert!(piped.resources.ff >= base.resources.ff);
    }

    #[test]
    fn sparser_is_faster_and_cooler() {
        let dense = flow(96, 0.4, 76);
        let sparse = flow(96, 0.95, 76);
        assert!(sparse.resources.lut < dense.resources.lut);
        assert!(sparse.fmax_mhz >= dense.fmax_mhz);
        assert!(sparse.power.total_w() <= dense.power.total_w());
    }
}
