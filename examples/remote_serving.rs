//! Remote serving walkthrough: the full core → runtime → server stack
//! over a real (loopback) TCP connection.
//!
//! 1. Start an `smm-server` with `--backend auto` semantics — each
//!    loaded matrix gets its own planned `Session`, whose engine stays
//!    built as long as the fleet keeps it hot.
//! 2. Upload a weight matrix, requesting the bit-serial engine
//!    explicitly in the `LoadMatrix`; the reply names the engine.
//! 3. Serve single products and batches, verifying against the dense
//!    reference locally.
//! 4. Hammer the server with the self-checking load generator.
//! 5. Load a second matrix on the SIGMA-modelled engine via the
//!    backend choice byte and verify it serves bit-identically.
//! 6. Read the server's own metrics over the wire — the `Stats` reply
//!    carries the per-stage latency table — then shut down gracefully.
//!
//! Run with: `cargo run --release --example remote_serving`

use spatial_smm::core::generate::{element_sparse_matrix, random_vector};
use spatial_smm::core::gemv::vecmat;
use spatial_smm::core::rng::seeded;
use spatial_smm::server::{BackendKind, Client, LoadgenConfig, ServerConfig};
use std::time::Duration;

fn main() {
    // -- 1. A server on a kernel-assigned loopback port ------------------
    // The server default is `auto`: each loaded matrix is planned from
    // its own rows, columns and non-zero count.
    let server = spatial_smm::server::start(ServerConfig {
        backend: BackendKind::Auto,
        threads: 2,
        queue_depth: 8,
        ..ServerConfig::default()
    })
    .expect("starting server");
    let addr = server.local_addr();
    println!("serving on {addr} (auto backend, queue depth 8)");

    // -- 2. Upload the paper's fixed matrix V ----------------------------
    // `LoadMatrix` carries a backend choice; ask for the spatial
    // circuit explicitly and the reply names the engine that serves.
    let mut rng = seeded(7);
    let v = element_sparse_matrix(32, 24, 8, 0.85, true, &mut rng).expect("generating V");
    let mut client = Client::connect(addr).expect("connecting");
    let loaded = client
        .load_matrix_with(&v, Some(BackendKind::BitSerial))
        .expect("loading V");
    let digest = loaded.digest;
    println!(
        "loaded {}x{} matrix, digest {digest:#018x}, engine '{}' (compiled server-side)",
        v.rows(),
        v.cols(),
        loaded.engine,
    );

    // -- 3. Products round-trip bit-identically --------------------------
    let a = random_vector(32, 8, true, &mut rng).expect("generating a");
    let served = client.gemv(digest, &a).expect("remote gemv");
    assert_eq!(served, vecmat(&a, &v).expect("reference"));
    println!("single product: {} outputs, matches the dense reference", served.len());

    // Batches travel as flat blocks end to end: a `FrameBlock` of 16
    // frames goes out in one request, a `RowBlock` of 16 rows comes back.
    let batch = {
        let mut frames = spatial_smm::core::block::FrameBlock::with_capacity(32, 16);
        for _ in 0..16 {
            frames
                .push_frame(&random_vector(32, 8, true, &mut rng).expect("generating batch"))
                .expect("uniform batch");
        }
        frames
    };
    let outputs = client.gemv_block(digest, &batch).expect("remote batch");
    for (a, o) in batch.iter().zip(outputs.iter()) {
        assert_eq!(o, vecmat(a, &v).expect("reference").as_slice());
    }
    println!("batch of {}: every row matches", batch.frames());

    // -- 4. Load generation, self-checking -------------------------------
    let report = spatial_smm::server::loadgen::run(&LoadgenConfig {
        addr: addr.to_string(),
        clients: 4,
        batch: 8,
        duration: Duration::from_millis(500),
        matrix: v,
        seed: 11,
        backend: None, // already loaded; the bit-serial session serves
    })
    .expect("load generation");
    assert_eq!(report.mismatches, 0, "served results diverged");
    println!(
        "loadgen: {} clients, {} requests, {} vectors verified on '{}', {:.0} vectors/sec \
         (p50 {:.1} µs, p99 {:.1} µs, {} busy rejections)",
        report.clients,
        report.requests,
        report.vectors,
        report.engine,
        report.vectors_per_sec(),
        report.p50_latency_ns as f64 / 1e3,
        report.p99_latency_ns as f64 / 1e3,
        report.busy_rejections,
    );

    // -- 5. A second matrix on the SIGMA-modelled engine -----------------
    // The choice byte admits `sigma`: the server builds the
    // tile-mapped accelerator engine for this matrix, and the replies
    // are still bit-identical to the dense reference.
    let w = element_sparse_matrix(24, 24, 8, 0.5, true, &mut rng).expect("generating W");
    let loaded_w = client
        .load_matrix_with(&w, Some(BackendKind::Sigma))
        .expect("loading W");
    assert_eq!(loaded_w.engine, "sigma");
    let b = random_vector(24, 8, true, &mut rng).expect("generating b");
    assert_eq!(
        client.gemv(loaded_w.digest, &b).expect("remote sigma gemv"),
        vecmat(&b, &w).expect("reference")
    );
    println!(
        "second matrix ({}x{}) served by '{}': product matches the reference",
        w.rows(),
        w.cols(),
        loaded_w.engine,
    );

    // -- 6. Server-side metrics over the wire, then drain ----------------
    let stats = client.stats().expect("stats");
    println!(
        "server saw {} requests, {} vectors, {} matrices hot, p99 {:.1} µs",
        stats.requests,
        stats.vectors,
        stats.tier_hot,
        stats.p99_latency_ns as f64 / 1e3,
    );
    // The same reply breaks the latency down by pipeline stage (decode
    // through encode) — the request-span telemetry, read remotely.
    println!("per-stage latency (count, p50, p99):");
    for stage in spatial_smm::telemetry::Stage::ALL {
        let s = stats.stage(stage);
        if s.count > 0 {
            println!(
                "  {:<12} {:>6}  {:>8.1} µs  {:>8.1} µs",
                stage.name(),
                s.count,
                s.p50_ns as f64 / 1e3,
                s.p99_ns as f64 / 1e3,
            );
        }
    }
    let final_stats = server.shutdown();
    println!(
        "graceful shutdown: {} total requests, 0 lost",
        final_stats.requests
    );
}
