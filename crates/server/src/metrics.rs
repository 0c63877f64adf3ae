//! The server's hot-path metrics and its Prometheus exposition.
//!
//! [`ServerMetrics`] holds only what the serving hot path writes: seven
//! relaxed-atomic counters — the served `vectors` and `batches` among
//! them, bumped where a product is answered — and the per-stage
//! [`SpanRecorder`]. Every other exported number — fleet occupancy and
//! the store counters — has its owner in the fleet, and [`StatsSnapshot`]
//! reads them all in one place. [`render`] is a pure function of that
//! snapshot, so the wire `Stats` opcode, `smm stats` and `GET /metrics`
//! cannot disagree: there is no second copy to fall behind.

use smm_telemetry::LatencyHistogram;

use self::Samples::{Counter, Gauge};
use crate::protocol::StatsSnapshot;
use smm_telemetry::{SpanRecorder, Stage};
use std::fmt::Write;
use std::sync::atomic::AtomicU64;

/// What the serving hot path counts, one relaxed atomic per touch.
#[derive(Debug, Default)]
pub(crate) struct ServerMetrics {
    /// Frames decoded into requests.
    pub(crate) requests: AtomicU64,
    /// Compute requests refused with `Busy`.
    pub(crate) rejected: AtomicU64,
    /// Requests answered with an error status.
    pub(crate) errors: AtomicU64,
    /// Bytes read off the wire.
    pub(crate) bytes_in: AtomicU64,
    /// Bytes written to the wire.
    pub(crate) bytes_out: AtomicU64,
    /// Products answered: one per `Gemv`, one per frame of a `GemvBatch`.
    pub(crate) vectors: AtomicU64,
    /// Non-empty `GemvBatch` requests answered.
    pub(crate) batches: AtomicU64,
    /// Per-stage pipeline latencies (decode → … → encode), shared with
    /// every connection's request span and every session.
    pub(crate) stages: SpanRecorder,
}

/// Where one metric family's samples come from.
enum Samples {
    /// One sample read off the snapshot (or the open-connection count).
    Counter(fn(&StatsSnapshot, u64) -> u64),
    /// As `Counter`, typed `gauge` — the monotone ones included, which
    /// were first exported that way; retyping them breaks dashboards.
    Gauge(fn(&StatsSnapshot, u64) -> u64),
    /// One gauge per fleet tier, `tier` labels in sorted order.
    Tiers,
    /// The compute stage's histogram, unlabelled: a request's latency is
    /// the interval its session times as [`Stage::Compute`].
    RequestLatency,
    /// One summary per stage, `stage` labels in sorted order.
    StageLatency,
}

/// Every exported family — name, HELP text, samples — in exposition
/// (byte-sorted) order. Dashboards address these names: none is ever
/// renamed, and a family leaves only with the number it exports.
const FAMILIES: [(&str, &str, Samples); 14] = [
    ("smm_bytes_in_total", "Bytes read off the wire.", Counter(|s, _| s.bytes_in)),
    ("smm_bytes_out_total", "Bytes written to the wire.", Counter(|s, _| s.bytes_out)),
    ("smm_connections", "Open client connections.", Gauge(|_, open| open)),
    ("smm_errors_total", "Requests answered with an error status.", Counter(|s, _| s.errors)),
    ("smm_matrices_loaded", "Matrices resident in the registry.", Gauge(|s, _| s.matrices)),
    ("smm_rejected_total", "Compute requests refused with Busy.", Counter(|s, _| s.rejected)),
    ("smm_request_latency_ns", "End-to-end compute request latency.", Samples::RequestLatency),
    ("smm_requests_total", "Frames decoded into requests.", Counter(|s, _| s.requests)),
    (
        "smm_stage_latency_ns",
        "Per-stage request latency (decode, queue, plan, shard, reassemble, compute, encode).",
        Samples::StageLatency,
    ),
    (
        "smm_store_demotions_total",
        "Fleet entries demoted to a colder tier under pressure.",
        Counter(|s, _| s.store_demotions),
    ),
    (
        "smm_store_hits_total",
        "Requests answered from the on-disk store instead of a fresh compile.",
        Counter(|s, _| s.store_hits),
    ),
    (
        "smm_store_promotions_total",
        "Fleet entries promoted back to a hotter tier.",
        Counter(|s, _| s.store_promotions),
    ),
    ("smm_store_tier_resident", "Matrix digests resident per fleet tier.", Samples::Tiers),
    ("smm_vectors_served", "Vectors served so far.", Gauge(|s, _| s.vectors)),
];

/// Renders the Prometheus text exposition of one [`StatsSnapshot`].
/// Histograms render as constant-size *summaries*; their p90 is not in
/// the snapshot, so quantiles are read straight off the stage histograms.
pub(crate) fn render(
    stats: &StatsSnapshot,
    open_connections: u64,
    metrics: &ServerMetrics,
) -> String {
    let mut out = String::new();
    // Writing into a `String` cannot fail, hence the discarded results.
    for (name, help, samples) in &FAMILIES {
        let kind = match samples {
            Counter(_) => "counter",
            Gauge(_) | Samples::Tiers => "gauge",
            Samples::RequestLatency | Samples::StageLatency => "summary",
        };
        let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
        match samples {
            Counter(read) | Gauge(read) => {
                let _ = writeln!(out, "{name} {}", read(stats, open_connections));
            }
            Samples::Tiers => {
                let resident = [stats.tier_cold, stats.tier_hot, stats.tier_warm];
                for (tier, resident) in ["cold", "hot", "warm"].iter().zip(resident) {
                    let _ = writeln!(out, "{name}{{tier=\"{tier}\"}} {resident}");
                }
            }
            Samples::RequestLatency => {
                summary(&mut out, name, "", metrics.stages.histogram(Stage::Compute));
            }
            Samples::StageLatency => {
                let mut stages = Stage::ALL;
                stages.sort_by_key(|stage| stage.name());
                for stage in stages {
                    let label = format!("stage=\"{}\"", stage.name());
                    summary(&mut out, name, &label, metrics.stages.histogram(stage));
                }
            }
        }
    }
    out
}

/// One summary series: p50/p90/p99 (0 while empty) and `_count`, with
/// `quantile` merged after the series' own `label`, if it has one.
fn summary(out: &mut String, name: &str, label: &str, hist: &LatencyHistogram) {
    let (comma, count_labels) = match label {
        "" => ("", String::new()),
        _ => (",", format!("{{{label}}}")),
    };
    for (q, quantile) in [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99")] {
        let ns = hist.quantile_ns(q);
        let _ = writeln!(out, "{name}{{{label}{comma}quantile=\"{quantile}\"}} {ns}");
    }
    let _ = writeln!(out, "{name}_count{count_labels} {}", hist.count());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    #[test]
    fn family_names_share_the_namespace_and_never_repeat() {
        // The naming rule, checked on the table itself.
        let names: Vec<&str> = FAMILIES.iter().map(|&(name, ..)| name).collect();
        assert!(names.iter().all(|n| n.starts_with("smm_")), "{names:?}");
        assert!(names.windows(2).all(|w| w[0] < w[1]), "sorted, so unique: {names:?}");
    }

    fn assert_has_lines(text: &str, lines: &[&str]) {
        for line in lines {
            assert!(text.lines().any(|l| l == *line), "missing `{line}` in:\n{text}");
        }
    }

    #[test]
    fn snapshot_counters_and_stage_histograms_feed_the_text() {
        let metrics = ServerMetrics::default();
        metrics.rejected.fetch_add(1, Ordering::Relaxed);
        metrics.stages.record(Stage::Decode, Duration::from_micros(1));
        metrics.stages.record(Stage::Compute, Duration::from_micros(3));
        let stats = StatsSnapshot { requests: 3, ..StatsSnapshot::default() };
        let text = render(&stats, 7, &metrics);
        let expected = [
            // The snapshot is the source, not the hot-path atomics.
            "smm_requests_total 3",
            "smm_rejected_total 0",
            "smm_connections 7",
            // 3 µs lands in [2048, 4096): midpoint 3072.
            "smm_request_latency_ns{quantile=\"0.5\"} 3072",
            "smm_request_latency_ns_count 1",
            "smm_stage_latency_ns{stage=\"compute\",quantile=\"0.99\"} 3072",
            "smm_stage_latency_ns_count{stage=\"decode\"} 1",
            "smm_stage_latency_ns{stage=\"encode\",quantile=\"0.9\"} 0",
        ];
        assert_has_lines(&text, &expected);
    }

    #[test]
    fn tier_gauges_and_store_counters_render() {
        let stats = StatsSnapshot {
            tier_hot: 2,
            tier_cold: 9,
            store_promotions: 4,
            store_hits: 1,
            ..StatsSnapshot::default()
        };
        let text = render(&stats, 0, &ServerMetrics::default());
        let expected = [
            "smm_store_tier_resident{tier=\"hot\"} 2",
            "smm_store_tier_resident{tier=\"warm\"} 0",
            "smm_store_tier_resident{tier=\"cold\"} 9",
            "smm_store_promotions_total 4",
            "smm_store_demotions_total 0",
            "smm_store_hits_total 1",
        ];
        assert_has_lines(&text, &expected);
    }

    #[test]
    fn every_stage_is_registered() {
        let text = render(&StatsSnapshot::default(), 0, &ServerMetrics::default());
        for stage in Stage::ALL {
            let count = format!("smm_stage_latency_ns_count{{stage=\"{}\"}} 0", stage.name());
            assert_has_lines(&text, &[&count]);
        }
        // Seven labelled series, one HELP/TYPE header.
        assert_eq!(text.matches("# TYPE smm_stage_latency_ns summary").count(), 1);
    }

    #[test]
    fn reexported_histogram_keeps_the_top_bucket_fix() {
        // The regression test proper lives in smm-telemetry; this pins
        // that the server-facing re-export is the same type.
        let h = LatencyHistogram::new();
        h.record(Duration::from_secs(u64::MAX / 2));
        assert_eq!(h.quantile_ns(1.0), (1u64 << 63) + (1u64 << 62));
    }
}
