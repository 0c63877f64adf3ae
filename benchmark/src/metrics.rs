//! The benchmark's vocabulary: workload names with their reasons, the
//! gated end-to-end metrics with their bounds, and the per-layer metric
//! roster. `BENCHMARK.json` at the repository root says the same thing
//! to the driver; a unit test holds the two together.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The four workloads, in the order repetitions rotate through them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReservoirStep,
    WireSingle,
    WireBatch,
    FleetChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReservoirStep,
        Workload::WireSingle,
        Workload::WireBatch,
        Workload::FleetChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReservoirStep => "reservoir-step",
            Workload::WireSingle => "wire-single",
            Workload::WireBatch => "wire-batch",
            Workload::FleetChurn => "fleet-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, as `BENCHMARK.json` states it.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ReservoirStep => "in-process recurrent 1024x1024 95%-sparse steps at batch 1: the kernel is ~all of the time and server, wire, fleet and store are bypassed",
            Workload::WireSingle => "loopback single 256x256 gemv on 1 connection: compute is a quarter of the round trip, so framing, admission, registry and thread hand-off dominate",
            Workload::WireBatch => "loopback 64-frame 1024x1024 blocks, 2 workers held on one CPU: bulk encode/decode, dispatcher sharding cost and engine batch rate dominate; 2-CPU scaling is per-layer only (runtime.dispatch.*)",
            Workload::FleetChurn => "24 matrices over an 8-slot hot tier with a disk store, all four engines: registry hits beside warm rebuilds, cold reads and demotions; set-up is 24 persisted loads",
        }
    }
}

/// One gated end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before `compare` calls it a regression.
    pub bound: f64,
    /// A change smaller than this (in the metric's unit) is never a
    /// regression. Only `compare` knows it; `BENCHMARK.json` has
    /// relative bounds only.
    pub floor: f64,
    /// Whether the metric is in `BENCHMARK.json`. `failed_share` is not:
    /// the driver's contract wants metrics that are never 0 and carries
    /// `attempted` / `failed` / `correct` beside the metrics instead.
    pub contract: bool,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "vectors_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
        floor: 0.0,
        contract: true,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
        floor: 0.0,
        contract: true,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.05,
        contract: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        floor: 0.0,
        contract: true,
    },
    EndToEnd {
        name: "failed_share",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        floor: 0.0,
        contract: false,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The two gated speeds are read from a repetition's undisturbed
/// segments. Beside each, every repetition also reports the same number
/// over its whole timed stretch, every operation counted: `(per-layer
/// name, the end-to-end metric it shadows)`. Their median over the
/// repetitions is a per-layer metric, and `compare` shows how far each
/// trails its gated twin.
pub const WHOLE_RUN: [(&str, &str); 2] = [
    ("client.whole_run_vectors_per_s", "vectors_per_s"),
    ("client.whole_run_p50_us", "latency_p50_us"),
];

/// One ungated per-layer metric: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher as H, Lower as L};

/// Every per-layer metric a traced run prints, on every workload. The
/// ones a workload has no part in (the server's stages on the
/// in-process workload, say) read 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    // smm-sparse
    ("sparse.csr.ns_per_nnz_single", "ns", L),
    ("sparse.csr.ns_per_nnz_batch64", "ns", L),
    ("sparse.csr.build_ms", "ms", L),
    ("sparse.csr.bytes_per_vector", "B", L),
    // smm-core
    ("core.gemv.dense_ns_per_mac.256", "ns", L),
    ("core.gemv.dense_ns_per_mac.1024", "ns", L),
    // smm-bitserial
    ("bitserial.compile_ms.32", "ms", L),
    ("bitserial.compile_ms.256", "ms", L),
    ("bitserial.sliced_frames_per_s_64", "1/s", H),
    ("bitserial.sliced_frames_per_s_8", "1/s", H),
    ("bitserial.lane_occupancy_8", "ratio", H),
    // smm-runtime: backend, session, plan, dispatch, cache, tiered
    ("runtime.backend.run_rows_us.csr", "us", L),
    ("runtime.backend.run_rows_us.dense", "us", L),
    ("runtime.backend.run_rows_us.sigma", "us", L),
    ("runtime.backend.run_rows_us.bitserial", "us", L),
    ("runtime.backend.overhead_share.csr", "ratio", L),
    ("runtime.session.run_p50_us", "us", L),
    ("runtime.session.run_overhead_us", "us", L),
    ("runtime.plan.session_build_ms.csr", "ms", L),
    ("runtime.plan.session_build_ms.dense", "ms", L),
    ("runtime.plan.session_build_ms.sigma", "ms", L),
    ("runtime.plan.session_build_ms.bitserial", "ms", L),
    ("runtime.plan.auto_choice", "code", L),
    ("runtime.dispatch.run_block_us_1t", "us", L),
    ("runtime.dispatch.run_block_us_2t", "us", L),
    ("runtime.dispatch.scaling_2t", "ratio", H),
    ("runtime.dispatch.overhead_us", "us", L),
    ("runtime.cache.hit_us", "us", L),
    ("runtime.tiered.acquire_hot_ns", "ns", L),
    ("runtime.tiered.acquire_warm_us", "us", L),
    ("runtime.tiered.acquire_cold_us", "us", L),
    ("runtime.tiered.promotions_per_request", "ratio", L),
    ("runtime.tiered.store_hits_per_request", "ratio", L),
    ("runtime.tiered.promotion_time_share", "ratio", L),
    // smm-store
    ("store.put_us.matrix", "us", L),
    ("store.put_us.csr", "us", L),
    ("store.put_us.circuit", "us", L),
    ("store.get_us.matrix", "us", L),
    ("store.bytes.matrix", "B", L),
    ("store.boot_scan_ms", "ms", L),
    // smm-server: protocol, transport, stages
    ("server.protocol.encode_req_ns_per_elem", "ns", L),
    ("server.protocol.decode_req_ns_per_elem", "ns", L),
    ("server.protocol.encode_reply_ns_per_elem", "ns", L),
    ("server.protocol.decode_reply_ns_per_elem", "ns", L),
    ("server.protocol.encode_req_single_us", "us", L),
    ("server.protocol.decode_req_single_us", "us", L),
    ("server.protocol.encode_reply_single_us", "us", L),
    ("server.protocol.decode_reply_single_us", "us", L),
    ("server.protocol.bytes_per_vector_in", "B", L),
    ("server.protocol.bytes_per_vector_out", "B", L),
    ("server.protocol.load_decode_ms", "ms", L),
    ("server.ping_p50_us", "us", L),
    ("server.residual_us", "us", L),
    ("server.threads", "count", L),
    ("server.busy_share", "ratio", L),
    ("server.stage_p50_us.decode", "us", L),
    ("server.stage_p50_us.queue", "us", L),
    ("server.stage_p50_us.plan", "us", L),
    ("server.stage_p50_us.shard", "us", L),
    ("server.stage_p50_us.reassemble", "us", L),
    ("server.stage_p50_us.compute", "us", L),
    ("server.stage_p50_us.encode", "us", L),
    ("server.stage_sum_share", "ratio", L),
    // the client's view of the whole run, disturbed stretches and all
    // (reported, deliberately not gated)
    ("client.whole_run_vectors_per_s", "1/s", H),
    ("client.whole_run_p50_us", "us", L),
    ("client.latency_p90_us", "us", L),
    ("client.latency_p99_us", "us", L),
    ("client.latency_p999_us", "us", L),
    ("client.latency_max_us", "us", L),
    // smm-telemetry
    ("telemetry.recorder_overhead_share", "ratio", L),
    ("telemetry.hist_record_ns", "ns", L),
    // the benchmark's own cost and steadiness
    ("trace.overhead_share", "ratio", L),
    ("bench.rep_spread.vectors_per_s", "ratio", L),
    ("bench.rep_spread.latency_p50_us", "ratio", L),
    ("bench.rep_spread.setup_s", "ratio", L),
    ("bench.rep_spread.peak_rss_mb", "ratio", L),
    ("bench.slow_reps", "count", L),
    ("bench.reference_s", "s", L),
];

/// `runtime.plan.auto_choice` as a number: the engine's index here.
pub const ENGINE_CODES: [&str; 4] = ["dense", "csr", "bitserial", "sigma"];

pub fn engine_code(name: &str) -> f64 {
    ENGINE_CODES
        .iter()
        .position(|&e| e == name)
        .map_or(-1.0, |i| i as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
        entry.get(key).and_then(Value::as_str).unwrap_or_default()
    }

    #[test]
    fn benchmark_json_names_the_same_workloads() {
        let doc = benchmark_json();
        let listed: Vec<(&str, &str)> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(&str, &str)> = Workload::ALL.iter().map(|w| (w.name(), w.why())).collect();
        assert_eq!(listed, ours);
        assert!(ours
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    }

    #[test]
    fn benchmark_json_carries_the_same_bounds_and_roster() {
        let doc = benchmark_json();
        let listed: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    field(m, "name").to_string(),
                    field(m, "unit").to_string(),
                    field(m, "better").to_string(),
                    m.get("bound").and_then(Value::as_f64).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .filter(|m| m.contract)
            .map(|m| {
                (
                    m.name.into(),
                    m.unit.into(),
                    m.better.label().into(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<(&str, &str, &str)> = doc
            .get("per_layer")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let ours: Vec<(&str, &str, &str)> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n, u, b.label()))
            .collect();
        assert_eq!(listed, ours);
        assert!(ours.len() <= 128);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_alphabet() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for name in &names {
            assert!(name.len() <= 64 && name.chars().all(ok), "{name}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }
}
