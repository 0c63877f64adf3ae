//! The log-bucketed latency histogram — the one home for every quantile
//! computed in the workspace.
//!
//! The server's request and stage latencies (the sessions' per-shard
//! stamps among them) and the load generator's client-side latencies
//! share this single implementation (and a single set of regression
//! tests — the top-bucket wrap fix in particular).
//!
//! Every hot-path touch is a relaxed atomic increment — recording never
//! contends on a lock. The histogram trades precision for that:
//! latencies land in power-of-two nanosecond buckets, so a reported
//! percentile is exact to within 2x, which is plenty to tell a 10 µs
//! dense product from a 10 ms bit-serial simulation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Power-of-two buckets: index `i` covers `[2^i, 2^(i+1))` nanoseconds,
/// with index 0 also absorbing 0–1 ns and the last bucket absorbing
/// everything beyond (~584 years; safe).
const BUCKETS: usize = 64;

/// A concurrent histogram of latencies in power-of-two nanosecond
/// buckets.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&self, latency: Duration) {
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX).max(1);
        let bucket = (ns.ilog2() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Nearest-rank quantile in nanoseconds (`q` in `(0, 1]`), reported
    /// as the geometric midpoint of the winning bucket. Returns 0 with
    /// no samples.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        // The first bucket at which the running count reaches the target.
        // It reaches `total >= target` by the last bucket at the latest,
        // so the fallback names that bucket and is never taken.
        let mut covered = 0;
        let i = counts
            .iter()
            .position(|&n| {
                covered += n;
                covered >= target
            })
            .unwrap_or(BUCKETS - 1);
        // Midpoint of [2^i, 2^(i+1)): 1.5 * 2^i, written as
        // 2^i + 2^(i-1). The naive `(3 << i) >> 1` wraps for the
        // last bucket (3 << 63 overflows u64) and reported 2^62 —
        // *below* that bucket's own 2^63 lower bound; this form
        // stays exact for every bucket, i = 63 included.
        (1u64 << i) + ((1u64 << i) >> 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_ns(0.5), 0);
        assert_eq!(h.quantile_ns(0.99), 0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(3));
        assert_eq!(h.count(), 1);
        let q01 = h.quantile_ns(0.01);
        let q50 = h.quantile_ns(0.50);
        let q100 = h.quantile_ns(1.0);
        assert_eq!(q01, q50);
        assert_eq!(q50, q100);
        // ~3 µs lands in [2048, 4096): midpoint 3072.
        assert_eq!(q50, 3072);
    }

    #[test]
    fn quantiles_are_bucket_accurate() {
        let h = LatencyHistogram::new();
        // 99 fast samples at ~1 µs, one slow at ~1 ms.
        for _ in 0..99 {
            h.record(Duration::from_micros(1));
        }
        h.record(Duration::from_millis(1));
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_ns(0.50);
        let p99 = h.quantile_ns(0.99);
        let p100 = h.quantile_ns(1.0);
        // p50 and p99 land in the microsecond bucket (within 2x).
        assert!((500..2_000).contains(&p50), "{p50}");
        assert!((500..2_000).contains(&p99), "{p99}");
        // The max lands in the millisecond bucket.
        assert!((500_000..2_000_000).contains(&p100), "{p100}");
        assert!(p50 <= p100);
    }

    #[test]
    fn extreme_samples_do_not_panic() {
        let h = LatencyHistogram::new();
        h.record(Duration::ZERO);
        h.record(Duration::from_secs(u64::MAX / 2));
        assert_eq!(h.count(), 2);
        assert!(h.quantile_ns(1.0) > 0);
    }

    #[test]
    fn last_bucket_quantile_stays_inside_the_bucket() {
        // Regression: a sample in the top bucket [2^63, 2^64) used to
        // report 2^62 because the midpoint computation wrapped.
        let h = LatencyHistogram::new();
        h.record(Duration::from_secs(u64::MAX / 2)); // saturates to u64::MAX ns
        let q = h.quantile_ns(1.0);
        assert!(q >= 1u64 << 63, "{q} below the bucket's lower bound");
        assert_eq!(q, (1u64 << 63) + (1u64 << 62), "geometric midpoint");
    }

    #[test]
    fn saturated_top_bucket_dominates_every_quantile() {
        // Edge case: *all* samples in the top bucket — every quantile,
        // including tiny q, must report the top bucket's midpoint.
        let h = LatencyHistogram::new();
        for _ in 0..10 {
            h.record(Duration::from_secs(u64::MAX / 2));
        }
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_ns(q), (1u64 << 63) + (1u64 << 62), "q={q}");
        }
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(Duration::from_nanos(i + 1));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
    }
}
