//! FPGA device descriptors.

/// Capacity and physical parameters of a target FPGA.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// Marketing name.
    pub name: &'static str,
    /// Total 6-input LUTs.
    pub luts: u64,
    /// Total logic flip-flops.
    pub(crate) ffs: u64,
    /// LUTs that can be repurposed as LUTRAM/SRL (a subset of `luts`).
    pub(crate) lutram_capable: u64,
    /// Number of chiplets (Super Logic Regions).
    pub(crate) slrs: u32,
    /// LUTs per SLR.
    pub(crate) slr_luts: u64,
    /// Fraction of an SLR the place-and-route tools can reliably fill
    /// before timing closure degrades (the paper's 82 % threshold).
    pub(crate) usable_fraction: f64,
    /// Thermal design limit in watts under medium airflow/heatsink.
    pub(crate) thermal_limit_w: f64,
}

impl Device {
    /// The paper's target: Xilinx Virtex UltraScale+ XCVU13P — 16 nm,
    /// four SLR chiplets, 1.7 M LUTs, 3.4 M flip-flops, ~150 W thermal
    /// limit under medium cooling.
    pub fn xcvu13p() -> Self {
        Self {
            name: "XCVU13P",
            luts: 1_728_000,
            ffs: 3_456_000,
            lutram_capable: 788_160,
            slrs: 4,
            slr_luts: 425_000,
            usable_fraction: 0.82,
            thermal_limit_w: 150.0,
        }
    }

    /// Usable LUTs in one SLR before the tools struggle.
    pub(crate) fn usable_slr_luts(&self) -> f64 {
        self.slr_luts as f64 * self.usable_fraction
    }

    /// Number of SLRs a design of `luts` LUTs must span (at the usable
    /// fill fraction), at least 1; may exceed `slrs` for designs that do
    /// not fit.
    pub fn slrs_spanned(&self, luts: u64) -> u32 {
        (luts as f64 / self.usable_slr_luts()).ceil().max(1.0) as u32
    }

    /// Whether a design of the given resource footprint fits the device.
    pub fn fits(&self, luts: u64, ffs: u64, lutram: u64) -> bool {
        luts + lutram <= self.luts && ffs <= self.ffs && lutram <= self.lutram_capable
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vu13p_parameters() {
        let d = Device::xcvu13p();
        assert_eq!(d.slrs, 4);
        assert!(d.luts >= 1_700_000);
        assert_eq!(d.ffs, 2 * d.luts);
        assert!((d.usable_slr_luts() - 348_500.0).abs() < 1.0);
    }

    #[test]
    fn slr_spanning() {
        let d = Device::xcvu13p();
        assert_eq!(d.slrs_spanned(10_000), 1);
        assert_eq!(d.slrs_spanned(348_000), 1);
        assert_eq!(d.slrs_spanned(349_000), 2);
        assert_eq!(d.slrs_spanned(700_000), 3);
        assert_eq!(d.slrs_spanned(1_400_000), 5); // over capacity
    }

    #[test]
    fn fits_checks_all_resources() {
        let d = Device::xcvu13p();
        assert!(d.fits(1_000_000, 2_000_000, 100_000));
        assert!(!d.fits(1_800_000, 0, 0));
        assert!(!d.fits(0, 4_000_000, 0));
        assert!(!d.fits(0, 0, 800_000));
    }
}
