//! Power model, calibrated to Figure 12.
//!
//! Dynamic power scales with toggling logic times clock frequency; bit-serial
//! data paths toggle at high activity (operand bits are ~50 % ones by
//! design). Calibration anchors: a full-device design (~1.5 M ones) at its
//! achieved ~225 MHz approaches the 150 W medium-cooling thermal limit,
//! while small sparse designs idle near the ~3.5 W static floor.

use crate::resources::ResourceReport;

/// Static + dynamic power split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBreakdown {
    /// Leakage and always-on infrastructure (W).
    pub static_w: f64,
    /// Activity-dependent power at the operating frequency (W).
    pub dynamic_w: f64,
}

impl PowerBreakdown {
    /// Total power.
    pub fn total_w(&self) -> f64 {
        self.static_w + self.dynamic_w
    }
}

/// Power model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    /// Device static power (W).
    pub(crate) static_w: f64,
    /// Dynamic energy coefficient: watts per (LUT·MHz·10⁻⁶) of toggling
    /// logic at the design's switching activity.
    pub(crate) w_per_lut_mhz_e6: f64,
    /// Flip-flop contribution relative to a LUT.
    pub(crate) ff_weight: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        Self {
            static_w: 3.5,
            w_per_lut_mhz_e6: 0.30,
            ff_weight: 0.15,
        }
    }
}

impl PowerModel {
    /// Estimated power at `fmax_mhz` for the given footprint.
    pub fn estimate(&self, resources: &ResourceReport, fmax_mhz: f64) -> PowerBreakdown {
        let toggling = resources.lut as f64
            + self.ff_weight * resources.ff as f64
            + 0.5 * resources.lutram as f64;
        PowerBreakdown {
            static_w: self.static_w,
            dynamic_w: self.w_per_lut_mhz_e6 * toggling * fmax_mhz * 1e-6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_device_approaches_thermal_limit() {
        let m = PowerModel::default();
        // ~1.5 M ones -> 1.5 M LUTs + 3 M FFs at ~227 MHz.
        let r = ResourceReport {
            lut: 1_500_000,
            ff: 3_000_000,
            lutram: 3_000,
        };
        let p = m.estimate(&r, 227.0).total_w();
        assert!((120.0..160.0).contains(&p), "power {p}");
    }

    #[test]
    fn small_design_near_static_floor() {
        let m = PowerModel::default();
        let r = ResourceReport {
            lut: 10_000,
            ff: 20_000,
            lutram: 200,
        };
        let p = m.estimate(&r, 590.0);
        assert!(p.total_w() < 10.0, "power {}", p.total_w());
        assert!(p.dynamic_w > 0.0);
    }

    #[test]
    fn power_scales_with_frequency_and_area() {
        let m = PowerModel::default();
        let r = ResourceReport {
            lut: 100_000,
            ff: 200_000,
            lutram: 1_000,
        };
        let slow = m.estimate(&r, 200.0).dynamic_w;
        let fast = m.estimate(&r, 400.0).dynamic_w;
        assert!((fast / slow - 2.0).abs() < 1e-9);
        let big = ResourceReport {
            lut: 200_000,
            ff: 400_000,
            lutram: 2_000,
        };
        assert!(m.estimate(&big, 200.0).dynamic_w > slow);
    }
}
