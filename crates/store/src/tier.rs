//! Residency tiers of the matrix fleet.
//!
//! A digest-addressed matrix is always in exactly one tier:
//!
//! * [`Tier::Hot`] — a compiled engine (bit-serial circuit, sigma tile
//!   map, CSR kernel) behind a live session; answers immediately.
//! * [`Tier::Warm`] — the matrix's non-zeros resident in memory, as
//!   its wire body; serving it costs one engine build (for the
//!   bit-serial engine, one circuit compile: no circuit outlives its
//!   hot session).
//! * [`Tier::Cold`] — the same body on disk only; serving it costs one
//!   store read (verified by one walk over the non-zeros, which takes
//!   the content digest) plus the warm cost.

/// Where a digest currently resides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Compiled engine in memory.
    Hot,
    /// The matrix's non-zeros in memory, engine built on demand.
    Warm,
    /// Serialized bytes on disk only.
    Cold,
}

/// Resident-entry counts per tier, as exported by the
/// `smm_store_tier_resident` gauges and the wire `Stats` reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCounts {
    /// Digests in [`Tier::Hot`].
    pub hot: u64,
    /// Digests in [`Tier::Warm`].
    pub warm: u64,
    /// Digests in [`Tier::Cold`].
    pub cold: u64,
}

impl TierCounts {
    /// Digests known across all tiers.
    pub fn total(&self) -> u64 {
        self.hot + self.warm + self.cold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_total() {
        let c = TierCounts {
            hot: 2,
            warm: 3,
            cold: 5,
        };
        assert_eq!(c.total(), 10);
    }
}
