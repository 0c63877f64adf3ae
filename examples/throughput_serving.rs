//! Throughput serving through the `Session` front door: let the planner
//! pick an engine for a fixed sparse matrix, compare it against every
//! explicit engine spec, and see that the plan is a function of the
//! matrix alone — a compiled circuit in the cache does not change it.
//!
//! This is the serving-side counterpart of `quickstart.rs`: where that
//! example synthesizes one circuit and checks one product, this one runs
//! the production path — [`spatial_smm::runtime::Session`] holding the
//! planned engine and the shared [`spatial_smm::runtime::MultiplierCache`],
//! its batches sharded across the process's one worker pool.
//!
//! Run with: `cargo run --release --example throughput_serving`

use spatial_smm::core::generate::{element_sparse_matrix, random_vector};
use spatial_smm::core::gemv::vecmat;
use spatial_smm::core::rng::seeded;
use spatial_smm::runtime::{EngineSpec, FrameBlock, MultiplierCache, RowBlock, Session};
use std::sync::Arc;

fn main() {
    // The fixed reservoir weight matrix this service exists to multiply by.
    let mut rng = seeded(42);
    let v = element_sparse_matrix(96, 96, 8, 0.9, true, &mut rng).unwrap();

    // A deterministic batch of requests in one flat block, shared (not
    // copied) across every dispatch below.
    let batch: Arc<FrameBlock> = {
        let mut frames = FrameBlock::with_capacity(96, 128);
        for _ in 0..128 {
            frames
                .push_frame(&random_vector(96, 8, true, &mut rng).unwrap())
                .unwrap();
        }
        Arc::new(frames)
    };
    let reference: Vec<Vec<i64>> = batch.iter().map(|a| vecmat(a, &v).unwrap()).collect();

    // One shared compile cache for every session over these weights,
    // and one output block reused by every dispatch: the steady state
    // performs no per-row allocation.
    let cache = Arc::new(MultiplierCache::new());
    let mut outputs = RowBlock::new();

    // Let the planner choose: at 90% sparsity the CSR gather is the
    // cheapest kernel per frame — and the rationale says by how much.
    let auto = Session::builder(v.clone())
        .cache(Arc::clone(&cache))
        .build()
        .unwrap();
    println!("{}", auto.plan().rationale);

    // Serve the same traffic through every explicit engine spec too:
    // all bit-identical, only the vectors/sec differ. (`sigma` executes
    // the SIGMA accelerator's tile-mapped dataflow, weight-stationary
    // across the batch.)
    for spec in [
        EngineSpec::dense(),
        EngineSpec::csr(),
        EngineSpec::bitserial(),
        EngineSpec::sigma(),
    ] {
        let session = Session::builder(v.clone())
            .spec(spec)
            .cache(Arc::clone(&cache))
            .build()
            .unwrap();
        let stats = session.run_block(Arc::clone(&batch), &mut outputs).unwrap();
        assert_eq!(
            Vec::<Vec<i64>>::from(&outputs),
            reference,
            "{} diverged",
            session.engine().name()
        );
        println!(
            "{:<10} {} vectors in {:>8.2} ms in {} shards = {:>9.0} vectors/sec (bit-exact)",
            session.engine().name(),
            stats.batch,
            stats.elapsed.as_secs_f64() * 1e3,
            stats.shards,
            stats.vectors_per_sec()
        );
    }

    // The bit-serial session above compiled through the shared cache.
    // A *replan* does not care: the plan prices the kernels on the
    // matrix's own counts, so it is the plan from before the compile.
    // This session also carries a telemetry recorder — each batch stamps
    // shard/reassemble/compute durations into per-stage histograms.
    let recorder = spatial_smm::runtime::SpanRecorder::new();
    let replanned = Session::builder(v.clone())
        .cache(Arc::clone(&cache))
        .recorder(recorder.clone())
        .build()
        .unwrap();
    println!("{}", replanned.plan().rationale);
    assert_eq!(replanned.plan(), auto.plan());
    let served = replanned.run_block(Arc::clone(&batch), &mut outputs).unwrap();
    assert_eq!(
        Vec::<Vec<i64>>::from(&outputs),
        reference,
        "replanned session diverged"
    );
    let compiles = replanned.cache().stats();
    println!(
        "replanned session served {} vectors; cache: {} compile(s), {} hit(s)",
        served.batch, compiles.misses, compiles.hits
    );
    for s in spatial_smm::telemetry::stage_summaries(&recorder.stage_stats()) {
        println!(
            "  stage {:<12} {:>4} sample(s), p50 {:>8.1} µs, p99 {:>8.1} µs",
            s.stage,
            s.count,
            s.p50_ns as f64 / 1e3,
            s.p99_ns as f64 / 1e3,
        );
    }
}
