//! Benchmarks of the serving runtime: backend × thread-count throughput
//! on one fixed matrix (driven through the flat block path) and the
//! compiled-multiplier cache against cold recompilation (the
//! amortization the runtime exists for — the cached path must be orders
//! of magnitude cheaper than compiling per batch).
//!
//! With `SMM_BENCH_JSON=<path>` set, an explicit measurement pass also
//! runs after the criterion groups and writes the `BENCH_*.json` perf
//! report (vectors/sec and per-stage p50/p99 for every engine kind) —
//! the recorded trajectory the repo commits and CI schema-checks.

use criterion::{criterion_group, BenchmarkId, Criterion};
use smm_bitserial::multiplier::{FixedMatrixMultiplier, WeightEncoding};
use smm_core::generate::{element_sparse_matrix, random_vector};
use smm_core::rng::seeded;
use smm_runtime::{EngineSpec, FrameBlock, MultiplierCache, RowBlock, Session};
use std::hint::black_box;
use std::sync::Arc;

/// A deterministic request batch.
fn request_batch(dim: usize, n: usize, seed: u64) -> Arc<FrameBlock> {
    let mut rng = seeded(seed);
    let data = random_vector(n * dim, 8, true, &mut rng).unwrap();
    Arc::new(FrameBlock::from_vec(n, dim, data).unwrap())
}

fn bench_backend_dispatch(c: &mut Criterion) {
    let mut rng = seeded(6001);
    let dim = 96usize;
    let v = element_sparse_matrix(dim, dim, 8, 0.9, true, &mut rng).unwrap();
    let frames = request_batch(dim, 64, 6003);

    // One shared cache (the bit-serial sessions compile once) and one
    // output block reused by every dispatch.
    let cache = Arc::new(MultiplierCache::new());
    let mut out = RowBlock::new();
    let mut group = c.benchmark_group("runtime_dispatch");
    for kind in ["dense", "csr", "bitserial", "sigma"] {
        for threads in [1usize, 2, 4] {
            let session = Session::builder(v.clone())
                .spec(EngineSpec::new(kind).threads(threads))
                .cache(Arc::clone(&cache))
                .build()
                .unwrap();
            group.bench_with_input(BenchmarkId::new(kind, threads), &threads, |b, _| {
                b.iter(|| {
                    session
                        .run_block(black_box(Arc::clone(&frames)), &mut out)
                        .unwrap()
                })
            });
        }
    }
    group.finish();
}

fn bench_cache_vs_recompile(c: &mut Criterion) {
    let mut rng = seeded(6002);
    let v = element_sparse_matrix(96, 96, 8, 0.9, true, &mut rng).unwrap();
    let cache = MultiplierCache::new();
    cache.get_or_compile(&v, 8, WeightEncoding::Pn).unwrap(); // warm

    let mut group = c.benchmark_group("compile_cache");
    group.bench_function("cold_compile", |b| {
        b.iter(|| FixedMatrixMultiplier::compile(black_box(&v), 8, WeightEncoding::Pn).unwrap())
    });
    group.bench_function("cached_fetch", |b| {
        b.iter(|| cache.get_or_compile(black_box(&v), 8, WeightEncoding::Pn).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_backend_dispatch, bench_cache_vs_recompile
}

/// The recorded-trajectory pass: every engine kind over the same fixed
/// matrix and batch, with a [`SpanRecorder`] attached so the report
/// carries per-stage p50/p99 alongside throughput.
fn emit_bench_report(path: &str) {
    use smm_runtime::SpanRecorder;
    use smm_telemetry::{stage_summaries, BenchReport, EngineRun};
    use std::time::Instant;

    let mut rng = seeded(6001);
    let dim = 96usize;
    let v = element_sparse_matrix(dim, dim, 8, 0.9, true, &mut rng).unwrap();
    let density = v.nnz() as f64 / (dim * dim) as f64;
    let frames = request_batch(dim, 64, 6003);
    let cache = Arc::new(MultiplierCache::new());

    let mut report = BenchReport::new("bench", 6);
    for kind in ["dense", "csr", "bitserial", "sigma"] {
        let recorder = SpanRecorder::new();
        let session = Session::builder(v.clone())
            .spec(EngineSpec::new(kind).threads(4))
            .cache(Arc::clone(&cache))
            .recorder(recorder.clone())
            .build()
            .unwrap();
        let mut out = RowBlock::new();
        session.run_block(Arc::clone(&frames), &mut out).unwrap(); // warm
        let rounds = 20u64;
        let start = Instant::now();
        for _ in 0..rounds {
            session.run_block(Arc::clone(&frames), &mut out).unwrap();
        }
        let elapsed = start.elapsed().as_secs_f64();
        let vectors = rounds * frames.frames() as u64;
        report.push(EngineRun {
            engine: kind.to_string(),
            rows: dim,
            cols: dim,
            density,
            vectors,
            vectors_per_sec: if elapsed > 0.0 {
                vectors as f64 / elapsed
            } else {
                0.0
            },
            stages: stage_summaries(&recorder.stage_stats()),
        });
    }

    let json = report.to_json();
    BenchReport::validate_json(&json).expect("bench report must match its own schema");
    std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote bench report to {path}");
}

fn main() {
    benches();
    if let Ok(path) = std::env::var("SMM_BENCH_JSON") {
        emit_bench_report(&path);
    }
}
