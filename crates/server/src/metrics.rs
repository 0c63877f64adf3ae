//! Server metrics, assembled on the shared `smm-telemetry` spine.
//!
//! The log-bucket [`LatencyHistogram`] lives in `smm-telemetry` (one
//! implementation for the server, the runtime sessions and the load
//! generator) and is re-exported for existing callers. What lives here
//! is the server's own metric *wiring*: every counter, gauge, and
//! histogram the server maintains is registered by name in a
//! [`MetricsRegistry`] at construction, so the `--metrics-addr`
//! listener can render the whole set as a Prometheus exposition while
//! the hot path keeps touching nothing but relaxed atomics through the
//! returned handles.

pub use smm_telemetry::LatencyHistogram;

use smm_telemetry::{Counter, Gauge, MetricsRegistry, SpanRecorder, Stage};
use std::sync::Arc;

/// The server's metric set: named handles into one [`MetricsRegistry`].
///
/// Counter/histogram fields are written by the serving hot path; the
/// gauge fields are *scrape-time* values that [`crate::server`] refreshes
/// from its own state (registry size, cache counters) just before
/// rendering an exposition, so the hot path never maintains them.
#[derive(Debug)]
pub struct ServerMetrics {
    /// The registry behind every field, walked by the exposition.
    pub registry: MetricsRegistry,
    /// Frames decoded into requests.
    pub requests: Arc<Counter>,
    /// Compute requests refused with `Busy`.
    pub rejected: Arc<Counter>,
    /// Requests answered with an error status.
    pub errors: Arc<Counter>,
    /// Bytes read off the wire.
    pub bytes_in: Arc<Counter>,
    /// Bytes written to the wire.
    pub bytes_out: Arc<Counter>,
    /// Per-compute-request end-to-end latencies.
    pub latency: Arc<LatencyHistogram>,
    /// Per-stage pipeline latencies (decode → … → encode), shared with
    /// every connection's request span and every session.
    pub stages: SpanRecorder,
    /// Scrape-time gauge: open client connections.
    pub connections: Arc<Gauge>,
    /// Scrape-time gauge: matrices resident in the session registry.
    pub matrices: Arc<Gauge>,
    /// Scrape-time gauge: vectors served (batch + single products).
    pub vectors: Arc<Gauge>,
    /// Scrape-time gauge: compile-cache hits.
    pub cache_hits: Arc<Gauge>,
    /// Scrape-time gauge: compile-cache misses (compiles).
    pub cache_misses: Arc<Gauge>,
    /// Scrape-time gauges: digests resident per tier, in
    /// hot/warm/cold order.
    pub tier_resident: [Arc<Gauge>; 3],
    /// Warm/cold entries promoted back to a hotter tier (scrape-time
    /// catch-up from the registry's own counter).
    pub store_promotions: Arc<Counter>,
    /// Entries demoted to a colder tier under pressure (scrape-time
    /// catch-up from the registry's own counter).
    pub store_demotions: Arc<Counter>,
    /// Requests answered from the on-disk store instead of a fresh
    /// compile (scrape-time catch-up from the registry's own counter).
    pub store_hits: Arc<Counter>,
}

impl ServerMetrics {
    /// Zeroed metrics, fully registered.
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        let requests = registry.counter("smm_requests_total", "Frames decoded into requests.");
        let rejected =
            registry.counter("smm_rejected_total", "Compute requests refused with Busy.");
        let errors =
            registry.counter("smm_errors_total", "Requests answered with an error status.");
        let bytes_in = registry.counter("smm_bytes_in_total", "Bytes read off the wire.");
        let bytes_out = registry.counter("smm_bytes_out_total", "Bytes written to the wire.");
        let latency = registry.histogram(
            "smm_request_latency_ns",
            "End-to-end compute request latency.",
        );
        let stages = SpanRecorder::new();
        for stage in Stage::ALL {
            registry.register_histogram(
                &format!("smm_stage_latency_ns{{stage=\"{}\"}}", stage.name()),
                "Per-stage request latency (decode, queue, plan, shard, reassemble, compute, encode).",
                Arc::clone(stages.histogram(stage)),
            );
        }
        let connections = registry.gauge("smm_connections", "Open client connections.");
        let matrices =
            registry.gauge("smm_matrices_loaded", "Matrices resident in the registry.");
        let vectors = registry.gauge("smm_vectors_served", "Vectors served so far.");
        let cache_hits = registry.gauge("smm_cache_hits", "Compile-cache hits so far.");
        let cache_misses =
            registry.gauge("smm_cache_misses", "Compile-cache misses (compiles) so far.");
        let tier_resident = ["hot", "warm", "cold"].map(|tier| {
            registry.gauge(
                &format!("smm_store_tier_resident{{tier=\"{tier}\"}}"),
                "Matrix digests resident per fleet tier.",
            )
        });
        let store_promotions = registry.counter(
            "smm_store_promotions_total",
            "Fleet entries promoted back to a hotter tier.",
        );
        let store_demotions = registry.counter(
            "smm_store_demotions_total",
            "Fleet entries demoted to a colder tier under pressure.",
        );
        let store_hits = registry.counter(
            "smm_store_hits_total",
            "Requests answered from the on-disk store instead of a fresh compile.",
        );
        Self {
            registry,
            requests,
            rejected,
            errors,
            bytes_in,
            bytes_out,
            latency,
            stages,
            connections,
            matrices,
            vectors,
            cache_hits,
            cache_misses,
            tier_resident,
            store_promotions,
            store_demotions,
            store_hits,
        }
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn hot_path_handles_feed_the_registry() {
        let m = ServerMetrics::new();
        m.requests.add(3);
        m.rejected.inc();
        m.latency.record(Duration::from_micros(3));
        m.stages.record(Stage::Decode, Duration::from_micros(1));
        let text = smm_telemetry::prometheus::render(&m.registry);
        assert!(text.contains("smm_requests_total 3"), "{text}");
        assert!(text.contains("smm_rejected_total 1"), "{text}");
        assert!(
            text.contains("smm_request_latency_ns{quantile=\"0.5\"} 3072"),
            "{text}"
        );
        assert!(
            text.contains("smm_stage_latency_ns_count{stage=\"decode\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn tier_gauges_and_store_counters_render() {
        let m = ServerMetrics::new();
        m.tier_resident[0].set(2);
        m.tier_resident[2].set(9);
        m.store_promotions.add(4);
        m.store_hits.inc();
        let text = smm_telemetry::prometheus::render(&m.registry);
        assert!(
            text.contains("smm_store_tier_resident{tier=\"hot\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("smm_store_tier_resident{tier=\"warm\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("smm_store_tier_resident{tier=\"cold\"} 9"),
            "{text}"
        );
        assert!(text.contains("smm_store_promotions_total 4"), "{text}");
        assert!(text.contains("smm_store_demotions_total 0"), "{text}");
        assert!(text.contains("smm_store_hits_total 1"), "{text}");
    }

    #[test]
    fn every_stage_is_registered() {
        let m = ServerMetrics::new();
        let text = smm_telemetry::prometheus::render(&m.registry);
        for stage in Stage::ALL {
            assert!(
                text.contains(&format!("stage=\"{}\"", stage.name())),
                "missing {}: {text}",
                stage.name()
            );
        }
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
