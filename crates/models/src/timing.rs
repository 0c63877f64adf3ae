//! Achieved-frequency (Fmax) model, calibrated to Figure 11.
//!
//! Every timing path in the spatial multiplier is one LUT between
//! flip-flops, so frequency is set by interconnect: the input broadcast
//! fanout and, above all, how many SLR chiplets the placed design spans.
//! The paper's measured bands:
//!
//! * within one SLR: **597 → 445 MHz** as the SLR fills to its 82 % usable
//!   capacity;
//! * two SLRs: **400 → 296 MHz**;
//! * three or four SLRs: a consistent **250 → 225 MHz**.
//!
//! A first-stage fanout in the hundreds adds nanoseconds of net delay; the
//! explicit fanout term below degrades small-but-dense designs and can be
//! disabled by the Section VIII fix (registered fanout pipelining).

use crate::device::Device;

/// Fmax model parameters (defaults reproduce Figure 11's bands).
#[derive(Debug, Clone, PartialEq)]
pub struct TimingModel {
    /// Frequency of a near-empty single-SLR design (MHz).
    pub(crate) slr1_f0: f64,
    /// Frequency drop across one full SLR (MHz).
    pub(crate) slr1_droop: f64,
    /// Frequency of a just-spilled two-SLR design (MHz).
    pub(crate) slr2_f0: f64,
    /// Drop across the second SLR (MHz).
    pub(crate) slr2_droop: f64,
    /// Frequency entering the 3–4 SLR regime (MHz).
    pub(crate) slr34_f0: f64,
    /// Drop across the remaining capacity (MHz).
    pub(crate) slr34_droop: f64,
    /// Fanout above which the broadcast net starts hurting.
    pub(crate) fanout_knee: f64,
    /// Fractional frequency loss per doubling of fanout past the knee.
    pub(crate) fanout_penalty_per_octave: f64,
}

impl Default for TimingModel {
    fn default() -> Self {
        Self {
            slr1_f0: 597.0,
            slr1_droop: 152.0,
            slr2_f0: 400.0,
            slr2_droop: 104.0,
            slr34_f0: 250.0,
            slr34_droop: 25.0,
            fanout_knee: 512.0,
            fanout_penalty_per_octave: 0.04,
        }
    }
}

impl TimingModel {
    /// Achieved frequency for a design of `luts` LUTs whose widest input
    /// broadcast drives `max_fanout` loads. `fanout_pipelined` applies the
    /// Section VIII optimization (registered broadcast stages), removing
    /// the fanout penalty.
    pub fn fmax_mhz(
        &self,
        luts: u64,
        max_fanout: usize,
        device: &Device,
        fanout_pipelined: bool,
    ) -> f64 {
        let cap1 = device.usable_slr_luts();
        let u = luts as f64;
        let base = if u <= cap1 {
            self.slr1_f0 - self.slr1_droop * (u / cap1)
        } else if u <= 2.0 * cap1 {
            self.slr2_f0 - self.slr2_droop * ((u - cap1) / cap1)
        } else {
            let span = (device.slrs as f64 - 2.0) * cap1;
            let frac = ((u - 2.0 * cap1) / span).min(1.0);
            self.slr34_f0 - self.slr34_droop * frac
        };
        if fanout_pipelined {
            return base;
        }
        let fanout = max_fanout as f64;
        if fanout <= self.fanout_knee {
            base
        } else {
            let octaves = (fanout / self.fanout_knee).log2();
            base * (1.0 - self.fanout_penalty_per_octave * octaves).max(0.5)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Device {
        Device::xcvu13p()
    }

    #[test]
    fn single_slr_band() {
        let m = TimingModel::default();
        let lo = m.fmax_mhz(340_000, 100, &dev(), false);
        let hi = m.fmax_mhz(5_000, 100, &dev(), false);
        // Paper: 445–597 MHz within one SLR.
        assert!(hi <= 597.0 && hi > 580.0, "hi {hi}");
        assert!((440.0..460.0).contains(&lo), "lo {lo}");
    }

    #[test]
    fn two_slr_band() {
        let m = TimingModel::default();
        let hi = m.fmax_mhz(360_000, 100, &dev(), false);
        let lo = m.fmax_mhz(690_000, 100, &dev(), false);
        // Paper: 296–400 MHz for two-SLR designs.
        assert!(hi <= 400.0 && hi > 380.0, "hi {hi}");
        assert!((296.0 - 5.0..320.0).contains(&lo), "lo {lo}");
    }

    #[test]
    fn multi_slr_band() {
        let m = TimingModel::default();
        let f = m.fmax_mhz(900_000, 100, &dev(), false);
        assert!((225.0..=250.0).contains(&f), "f {f}");
        let f = m.fmax_mhz(1_390_000, 100, &dev(), false);
        assert!((225.0..=250.0).contains(&f), "f {f}");
    }

    #[test]
    fn frequency_monotonically_decreases_with_size() {
        let m = TimingModel::default();
        let sizes = [10_000u64, 100_000, 300_000, 400_000, 600_000, 800_000, 1_200_000];
        let fs: Vec<f64> = sizes
            .iter()
            .map(|&l| m.fmax_mhz(l, 64, &dev(), false))
            .collect();
        for w in fs.windows(2) {
            assert!(w[1] <= w[0], "{fs:?}");
        }
    }

    #[test]
    fn fanout_penalty_and_pipelining() {
        let m = TimingModel::default();
        let small = m.fmax_mhz(100_000, 100, &dev(), false);
        let fanned = m.fmax_mhz(100_000, 4096, &dev(), false);
        assert!(fanned < small);
        let fixed = m.fmax_mhz(100_000, 4096, &dev(), true);
        assert_eq!(fixed, small);
        // Penalty is bounded: never below half the base frequency.
        let extreme = m.fmax_mhz(100_000, 1 << 30, &dev(), false);
        assert!(extreme >= small * 0.5);
    }
}
