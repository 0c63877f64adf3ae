//! Property tests for the FPGA cost models: monotonicity and consistency
//! across the whole parameter space, not just the calibrated points.

use proptest::prelude::*;
use smm_core::generate::element_sparse_matrix;
use smm_core::rng::seeded;
use smm_models::fpga::device::Device;
use smm_models::fpga::flow::{synthesize, FlowOptions};
use smm_models::fpga::power::PowerModel;
use smm_models::fpga::resources::ResourceReport;
use smm_models::fpga::timing::TimingModel;

proptest! {
    /// Fmax never increases with design size, for any fanout.
    #[test]
    fn fmax_monotone_in_size(luts in 1_000u64..1_500_000, delta in 1_000u64..200_000,
                             fanout in 1usize..10_000) {
        let m = TimingModel::default();
        let d = Device::xcvu13p();
        let f1 = m.fmax_mhz(luts, fanout, &d, false);
        let f2 = m.fmax_mhz(luts + delta, fanout, &d, false);
        prop_assert!(f2 <= f1 + 1e-9, "{f1} -> {f2}");
        prop_assert!(f1 > 0.0 && f1 < 650.0);
    }

    /// Fanout pipelining never hurts frequency.
    #[test]
    fn pipelining_never_hurts(luts in 1_000u64..1_500_000, fanout in 1usize..100_000) {
        let m = TimingModel::default();
        let d = Device::xcvu13p();
        prop_assert!(
            m.fmax_mhz(luts, fanout, &d, true) >= m.fmax_mhz(luts, fanout, &d, false) - 1e-9
        );
    }

    /// Power grows monotonically in both area and frequency and never goes
    /// below static power.
    #[test]
    fn power_monotone(lut in 1_000u64..2_000_000, f in 100.0f64..600.0) {
        let m = PowerModel::default();
        let r = ResourceReport { lut, ff: 2 * lut, lutram: lut / 50 };
        let p = m.estimate(&r, f);
        prop_assert!(p.total_w() > p.static_w);
        let bigger = ResourceReport { lut: lut + 10_000, ff: 2 * (lut + 10_000), lutram: lut / 50 };
        prop_assert!(m.estimate(&bigger, f).dynamic_w > p.dynamic_w);
        prop_assert!(m.estimate(&r, f + 50.0).dynamic_w > p.dynamic_w);
    }

    /// SLR spanning is monotone and consistent with the fits check.
    #[test]
    fn slr_spanning_consistent(luts in 1u64..3_000_000) {
        let d = Device::xcvu13p();
        let s = d.slrs_spanned(luts);
        prop_assert!(s >= 1);
        prop_assert!(d.slrs_spanned(luts + 100_000) >= s);
        if !d.fits(luts, 0, 0) {
            prop_assert!(luts > d.luts);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-to-end flow invariants over random matrices: denser matrices
    /// never cost less, never clock faster, never use less power.
    #[test]
    fn flow_monotone_in_density(seed in any::<u64>()) {
        let mut rng = seeded(seed);
        let dense = element_sparse_matrix(48, 48, 8, 0.3, true, &mut rng).unwrap();
        let sparse = element_sparse_matrix(48, 48, 8, 0.9, true, &mut rng).unwrap();
        let rd = synthesize(&dense, &FlowOptions::default()).unwrap().1;
        let rs = synthesize(&sparse, &FlowOptions::default()).unwrap().1;
        prop_assert!(rd.resources.lut >= rs.resources.lut);
        prop_assert!(rd.fmax_mhz <= rs.fmax_mhz + 1e-9);
        prop_assert!(rd.power.total_w() >= rs.power.total_w() - 1e-9);
        prop_assert!(rd.latency_ns >= rs.latency_ns - 1e-9);
    }
}
