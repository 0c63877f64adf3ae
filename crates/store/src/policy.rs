//! Promotion/demotion policy bookkeeping: per-digest request counters
//! and a logical-clock LRU, mirroring the discipline of the runtime's
//! compiled-multiplier cache.
//!
//! The policy is deliberately separated from the registry that acts on
//! it: this module only answers *which digest is coldest* and *how busy
//! is this digest*; the tiered registry decides what a demotion means
//! (drop the compiled engine, drop the resident matrix, spill to disk).

use std::collections::HashMap;

#[derive(Debug, Clone, Copy, Default)]
struct DigestStats {
    requests: u64,
    last_used: u64,
}

/// Per-digest request counters driving tier transitions.
#[derive(Debug, Default)]
pub struct TierPolicy {
    clock: u64,
    entries: HashMap<u64, DigestStats>,
}

impl TierPolicy {
    /// An empty policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one request against `digest`, returning its cumulative
    /// request count. Advances the logical LRU clock.
    pub fn touch(&mut self, digest: u64) -> u64 {
        self.clock += 1;
        let entry = self.entries.entry(digest).or_default();
        entry.requests += 1;
        entry.last_used = self.clock;
        entry.requests
    }

    /// Cumulative requests recorded against `digest`.
    pub fn requests(&self, digest: u64) -> u64 {
        self.entries.get(&digest).map_or(0, |e| e.requests)
    }

    /// Drops all bookkeeping for `digest` (after an eviction).
    pub fn forget(&mut self, digest: u64) {
        self.entries.remove(&digest);
    }

    /// The least-recently-used digest among `candidates` — the demotion
    /// victim. Digests never touched sort before any touched one.
    pub fn coldest(&self, candidates: impl Iterator<Item = u64>) -> Option<u64> {
        candidates.min_by_key(|d| self.entries.get(d).map_or(0, |e| e.last_used))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_counts_and_advances_clock() {
        let mut p = TierPolicy::new();
        assert_eq!(p.touch(7), 1);
        assert_eq!(p.touch(7), 2);
        assert_eq!(p.touch(9), 1);
        assert_eq!(p.requests(7), 2);
        assert_eq!(p.requests(9), 1);
        assert_eq!(p.requests(11), 0);
    }

    #[test]
    fn coldest_is_lru_not_lfu() {
        let mut p = TierPolicy::new();
        // 7 is touched many times early; 9 once, later. LRU evicts 7.
        for _ in 0..10 {
            p.touch(7);
        }
        p.touch(9);
        assert_eq!(p.coldest([7, 9].into_iter()), Some(7));
        p.touch(7);
        assert_eq!(p.coldest([7, 9].into_iter()), Some(9));
    }

    #[test]
    fn untouched_digests_are_coldest() {
        let mut p = TierPolicy::new();
        p.touch(1);
        assert_eq!(p.coldest([1, 2].into_iter()), Some(2));
        p.forget(1);
        assert_eq!(p.requests(1), 0);
    }
}
