//! The `/metrics` exposition is a contract with dashboards: names, HELP
//! text, TYPE, order and label spelling are pinned byte for byte against
//! what the server rendered before the exposition became a pure function
//! of the `Stats` snapshot (the goldens below were captured from that
//! binary, commit 4c84400). The two `smm_cache_*` families have since
//! left with the server's circuit cache; every other line is as
//! captured.

use smm_core::matrix::IntMatrix;
use smm_server::{Client, ServerConfig};
use std::time::{Duration, Instant};

/// A fresh `ServerConfig::default()` server, whole.
const FRESH: &str = "\
# HELP smm_bytes_in_total Bytes read off the wire.
# TYPE smm_bytes_in_total counter
smm_bytes_in_total 0
# HELP smm_bytes_out_total Bytes written to the wire.
# TYPE smm_bytes_out_total counter
smm_bytes_out_total 0
# HELP smm_connections Open client connections.
# TYPE smm_connections gauge
smm_connections 0
# HELP smm_errors_total Requests answered with an error status.
# TYPE smm_errors_total counter
smm_errors_total 0
# HELP smm_matrices_loaded Matrices resident in the registry.
# TYPE smm_matrices_loaded gauge
smm_matrices_loaded 0
# HELP smm_rejected_total Compute requests refused with Busy.
# TYPE smm_rejected_total counter
smm_rejected_total 0
# HELP smm_request_latency_ns End-to-end compute request latency.
# TYPE smm_request_latency_ns summary
smm_request_latency_ns{quantile=\"0.5\"} 0
smm_request_latency_ns{quantile=\"0.9\"} 0
smm_request_latency_ns{quantile=\"0.99\"} 0
smm_request_latency_ns_count 0
# HELP smm_requests_total Frames decoded into requests.
# TYPE smm_requests_total counter
smm_requests_total 0
# HELP smm_stage_latency_ns Per-stage request latency (decode, queue, plan, shard, reassemble, compute, encode).
# TYPE smm_stage_latency_ns summary
smm_stage_latency_ns{stage=\"compute\",quantile=\"0.5\"} 0
smm_stage_latency_ns{stage=\"compute\",quantile=\"0.9\"} 0
smm_stage_latency_ns{stage=\"compute\",quantile=\"0.99\"} 0
smm_stage_latency_ns_count{stage=\"compute\"} 0
smm_stage_latency_ns{stage=\"decode\",quantile=\"0.5\"} 0
smm_stage_latency_ns{stage=\"decode\",quantile=\"0.9\"} 0
smm_stage_latency_ns{stage=\"decode\",quantile=\"0.99\"} 0
smm_stage_latency_ns_count{stage=\"decode\"} 0
smm_stage_latency_ns{stage=\"encode\",quantile=\"0.5\"} 0
smm_stage_latency_ns{stage=\"encode\",quantile=\"0.9\"} 0
smm_stage_latency_ns{stage=\"encode\",quantile=\"0.99\"} 0
smm_stage_latency_ns_count{stage=\"encode\"} 0
smm_stage_latency_ns{stage=\"plan\",quantile=\"0.5\"} 0
smm_stage_latency_ns{stage=\"plan\",quantile=\"0.9\"} 0
smm_stage_latency_ns{stage=\"plan\",quantile=\"0.99\"} 0
smm_stage_latency_ns_count{stage=\"plan\"} 0
smm_stage_latency_ns{stage=\"queue\",quantile=\"0.5\"} 0
smm_stage_latency_ns{stage=\"queue\",quantile=\"0.9\"} 0
smm_stage_latency_ns{stage=\"queue\",quantile=\"0.99\"} 0
smm_stage_latency_ns_count{stage=\"queue\"} 0
smm_stage_latency_ns{stage=\"reassemble\",quantile=\"0.5\"} 0
smm_stage_latency_ns{stage=\"reassemble\",quantile=\"0.9\"} 0
smm_stage_latency_ns{stage=\"reassemble\",quantile=\"0.99\"} 0
smm_stage_latency_ns_count{stage=\"reassemble\"} 0
smm_stage_latency_ns{stage=\"shard\",quantile=\"0.5\"} 0
smm_stage_latency_ns{stage=\"shard\",quantile=\"0.9\"} 0
smm_stage_latency_ns{stage=\"shard\",quantile=\"0.99\"} 0
smm_stage_latency_ns_count{stage=\"shard\"} 0
# HELP smm_store_demotions_total Fleet entries demoted to a colder tier under pressure.
# TYPE smm_store_demotions_total counter
smm_store_demotions_total 0
# HELP smm_store_hits_total Requests answered from the on-disk store instead of a fresh compile.
# TYPE smm_store_hits_total counter
smm_store_hits_total 0
# HELP smm_store_promotions_total Fleet entries promoted back to a hotter tier.
# TYPE smm_store_promotions_total counter
smm_store_promotions_total 0
# HELP smm_store_tier_resident Matrix digests resident per fleet tier.
# TYPE smm_store_tier_resident gauge
smm_store_tier_resident{tier=\"cold\"} 0
smm_store_tier_resident{tier=\"hot\"} 0
smm_store_tier_resident{tier=\"warm\"} 0
# HELP smm_vectors_served Vectors served so far.
# TYPE smm_vectors_served gauge
smm_vectors_served 0
";

/// The sample lines that differ from [`FRESH`] once the script in
/// `scripted_traffic_moves_exactly_the_lines_it_moved_before` has run
/// and its connection has closed — latency quantiles aside, which are
/// wall-clock readings. `smm_bytes_in_total` follows the wire layout:
/// the script's load is a 68-byte `LoadMatrix` payload.
const AFTER_SCRIPT: [&str; 13] = [
    "smm_bytes_in_total 254",
    "smm_bytes_out_total 286",
    "smm_errors_total 1",
    "smm_matrices_loaded 1",
    "smm_request_latency_ns_count 3",
    "smm_requests_total 5",
    "smm_stage_latency_ns_count{stage=\"compute\"} 3",
    "smm_stage_latency_ns_count{stage=\"decode\"} 5",
    "smm_stage_latency_ns_count{stage=\"encode\"} 5",
    "smm_stage_latency_ns_count{stage=\"plan\"} 4",
    "smm_stage_latency_ns_count{stage=\"queue\"} 4",
    "smm_store_tier_resident{tier=\"hot\"} 1",
    "smm_vectors_served 3",
];

#[test]
fn a_fresh_server_renders_the_golden_exposition() {
    let server = smm_server::start(ServerConfig::default()).unwrap();
    assert_eq!(server.render_metrics(), FRESH);
}

#[test]
fn scripted_traffic_moves_exactly_the_lines_it_moved_before() {
    let server = smm_server::start(ServerConfig::default()).unwrap();
    let matrix = IntMatrix::from_vec(3, 4, vec![1, 0, -2, 0, 0, 3, 0, 4, 5, 0, 0, -6]).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // One load, three products, one request against a digest nobody loaded.
    let digest = client.load_matrix(&matrix).unwrap();
    assert_eq!(client.gemv(digest, &[1, 2, 3]).unwrap(), vec![16, 6, -2, -10]);
    assert_eq!(client.gemv(digest, &[0, 0, 0]).unwrap(), vec![0, 0, 0, 0]);
    assert_eq!(client.gemv(digest, &[-4, 5, -6]).unwrap(), vec![-34, 15, 8, 56]);
    assert!(client.gemv(0xDEAD_BEEF, &[1, 2, 3]).is_err());
    // The session thread counts a reply's bytes and encode stage after
    // the client has read it; once the connection gauge is back to 0
    // the thread has exited and every number is final.
    drop(client);
    let deadline = Instant::now() + Duration::from_secs(10);
    let text = loop {
        let text = server.render_metrics();
        if text.lines().any(|l| l == "smm_connections 0") {
            break text;
        }
        assert!(Instant::now() < deadline, "the session never ended:\n{text}");
        std::thread::sleep(Duration::from_millis(5));
    };
    // Expected: the fresh golden with exactly the moved samples replaced.
    let expected = FRESH.lines().map(|line| {
        let moved = AFTER_SCRIPT.iter().find(|moved| series(moved) == series(line));
        *moved.unwrap_or(&line)
    });
    let stable = |line: &&str| !line.contains("quantile=");
    assert_eq!(
        text.lines().filter(stable).collect::<Vec<_>>(),
        expected.filter(stable).collect::<Vec<_>>(),
    );
    // The quantile lines are all still there, in place.
    assert_eq!(
        text.lines().map(series).collect::<Vec<_>>(),
        FRESH.lines().map(series).collect::<Vec<_>>(),
    );
}

/// A line without its trailing value: the series a sample belongs to.
fn series(line: &str) -> &str {
    line.rsplit_once(' ').map_or(line, |(series, _value)| series)
}
