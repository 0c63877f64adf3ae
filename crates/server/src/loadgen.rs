//! The load generator: concurrent self-checking clients.
//!
//! Every reply is verified bit-for-bit against the dense reference
//! ([`smm_core::gemv::vecmat`]) computed locally, so a loadgen run is
//! simultaneously a stress test and a correctness test — throughput
//! numbers from a server that returns wrong answers are worthless.

use crate::client::{Client, ServeError, ServeResult};
use crate::protocol::BackendKind;
use smm_core::block::FrameBlock;
use smm_core::gemv::vecmat;
use smm_core::matrix::IntMatrix;
use smm_runtime::INPUT_BITS;
use smm_telemetry::LatencyHistogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Concurrent client connections.
    pub clients: usize,
    /// Vectors per `GemvBatch` request.
    pub batch: usize,
    /// How long to keep sending.
    pub duration: Duration,
    /// The matrix to serve against (loaded by the loadgen itself).
    pub matrix: IntMatrix,
    /// Base seed for request generation (each client derives its own
    /// stream).
    pub seed: u64,
    /// Backend requested in the `LoadMatrix` (`None` takes the server
    /// default).
    pub backend: Option<BackendKind>,
}

/// Aggregate result of a loadgen run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenReport {
    /// Client connections that ran.
    pub clients: usize,
    /// Successful batch requests across all clients.
    pub requests: u64,
    /// Vectors served (and verified) across all clients.
    pub vectors: u64,
    /// `Busy` rejections observed (each retried after a short backoff).
    pub busy_rejections: u64,
    /// Replies that differed from the dense reference. Must be zero.
    pub mismatches: u64,
    /// Transport/remote errors that ended a client early.
    pub errors: u64,
    /// Wall-clock time of the whole run.
    pub elapsed_ns: u64,
    /// Median request latency (client-observed, bucketed), nanoseconds.
    pub p50_latency_ns: u64,
    /// 99th-percentile request latency, nanoseconds.
    pub p99_latency_ns: u64,
    /// Name of the engine the server planned for the matrix.
    pub engine: String,
}

impl LoadgenReport {
    /// Verified vectors per wall-clock second.
    pub fn vectors_per_sec(&self) -> f64 {
        let secs = self.elapsed_ns as f64 / 1e9;
        if secs <= 0.0 {
            0.0
        } else {
            self.vectors as f64 / secs
        }
    }
}

#[derive(Default)]
struct Tally {
    requests: AtomicU64,
    vectors: AtomicU64,
    busy: AtomicU64,
    mismatches: AtomicU64,
    errors: AtomicU64,
}

/// Runs the load generator against a live server.
///
/// Loads `config.matrix` first (idempotent server-side), then hammers
/// `GemvBatch` from `config.clients` concurrent connections until the
/// duration elapses. `Busy` replies are counted and retried after a
/// 1 ms backoff — backpressure is expected behavior under overload, not
/// a failure.
pub fn run(config: &LoadgenConfig) -> ServeResult<LoadgenReport> {
    if config.clients == 0 {
        return Err(ServeError::Transport("loadgen needs at least 1 client".into()));
    }
    if config.batch == 0 {
        return Err(ServeError::Transport("loadgen needs --batch >= 1".into()));
    }
    // Load (or find already loaded) the matrix before spawning traffic.
    let loaded =
        Client::connect(config.addr.as_str())?.load_matrix_with(&config.matrix, config.backend)?;
    let digest = loaded.digest;

    let tally = Arc::new(Tally::default());
    let latency = Arc::new(LatencyHistogram::new());
    let start = Instant::now();
    let deadline = start + config.duration;
    let mut workers = Vec::with_capacity(config.clients);
    for i in 0..config.clients {
        let addr = config.addr.clone();
        let matrix = config.matrix.clone();
        let batch = config.batch;
        let seed = config.seed;
        let tally = Arc::clone(&tally);
        let latency = Arc::clone(&latency);
        let handle = std::thread::Builder::new()
            .name(format!("smm-loadgen-{i}"))
            .spawn(move || {
                client_loop(
                    &addr, digest, &matrix, batch, seed, i as u64, deadline, &tally, &latency,
                )
            })
            .map_err(|e| ServeError::Transport(format!("spawning loadgen client {i}: {e}")))?;
        workers.push(handle);
    }
    for w in workers {
        let _ = w.join();
    }
    Ok(LoadgenReport {
        clients: config.clients,
        requests: tally.requests.load(Ordering::Relaxed),
        vectors: tally.vectors.load(Ordering::Relaxed),
        busy_rejections: tally.busy.load(Ordering::Relaxed),
        mismatches: tally.mismatches.load(Ordering::Relaxed),
        errors: tally.errors.load(Ordering::Relaxed),
        elapsed_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        p50_latency_ns: latency.quantile_ns(0.50),
        p99_latency_ns: latency.quantile_ns(0.99),
        engine: loaded.engine,
    })
}

#[allow(
    clippy::too_many_arguments,
    reason = "one client thread's whole state, passed once from the closure that spawns it"
)]
fn client_loop(
    addr: &str,
    digest: u64,
    matrix: &IntMatrix,
    batch: usize,
    seed: u64,
    stream_id: u64,
    deadline: Instant,
    tally: &Tally,
    latency: &LatencyHistogram,
) {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            tally.errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    let mut rng = smm_core::rng::derived(seed, stream_id.wrapping_add(1));
    // One flat request block of frames at the operand width every
    // engine serves, refilled in place every round.
    let mut frames = FrameBlock::with_capacity(matrix.rows(), batch);
    while Instant::now() < deadline {
        frames.clear();
        for _ in 0..batch {
            let filled =
                smm_core::generate::random_vector(matrix.rows(), INPUT_BITS, true, &mut rng)
                    .and_then(|v| frames.push_frame(&v));
            if filled.is_err() {
                tally.errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        let sent = Instant::now();
        match client.gemv_block(digest, &frames) {
            Ok(outputs) => {
                latency.record(sent.elapsed());
                tally.requests.fetch_add(1, Ordering::Relaxed);
                tally.vectors.fetch_add(batch as u64, Ordering::Relaxed);
                for (a, served) in frames.iter().zip(outputs.iter()) {
                    // The generator sizes frames to the matrix, so the
                    // reference can only fail if that wiring breaks —
                    // count it as a mismatch rather than killing the
                    // client thread mid-run.
                    match vecmat(a, matrix) {
                        Ok(reference) if served == reference => {}
                        _ => {
                            tally.mismatches.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            Err(ServeError::Busy) => {
                tally.busy.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => {
                tally.errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_rates() {
        let report = LoadgenReport {
            clients: 2,
            requests: 10,
            vectors: 1000,
            busy_rejections: 3,
            mismatches: 0,
            errors: 0,
            elapsed_ns: 500_000_000, // 0.5 s
            p50_latency_ns: 1000,
            p99_latency_ns: 2000,
            engine: "csr".into(),
        };
        assert!((report.vectors_per_sec() - 2000.0).abs() < 1e-9);
        let zero = LoadgenReport {
            elapsed_ns: 0,
            ..report
        };
        assert_eq!(zero.vectors_per_sec(), 0.0);
    }

    #[test]
    fn zero_clients_or_batch_rejected() {
        let config = LoadgenConfig {
            addr: "127.0.0.1:1".into(),
            clients: 0,
            batch: 4,
            duration: Duration::from_millis(1),
            matrix: IntMatrix::identity(2).unwrap(),
            seed: 1,
            backend: None,
        };
        assert!(run(&config).is_err());
        let config = LoadgenConfig {
            clients: 1,
            batch: 0,
            ..config
        };
        assert!(run(&config).is_err());
    }
}
