//! Criterion micro-benchmarks of the compute kernels themselves: the
//! scalar-reference vs cache-blocked dense `vecmat_into` at several dims
//! and densities, CSR SpMV, the CSR single-vector kernel (column-slice
//! gather vs the row scatter it is held to), the per-frame vs blocked
//! CSR batch (and the blocked batch's fixed cost, its
//! tiled transposes, on a matrix with no non-zeros), the bit-sliced vs
//! framed-streamed bit-serial batch engines, the loops of a cold promotion (CRC-32,
//! content digest, artifact decode, CSR build), and the planner's regret
//! (the auto-planned engine's one-frame time over the fastest engine's). Each race between
//! a production kernel and its oracle checks the two outputs equal
//! before either side is timed.
//!
//! These time the *simulator and software kernels*, not hardware — the
//! hardware latency numbers come from `reproduce` — but they are the
//! numbers that decide how fast the serving stack runs on real CPUs.
//! The recorded, comparable numbers for the same kernels are the
//! per-layer rungs of `benchmark/run.sh`; this file keeps the races.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smm_bitserial::multiplier::{FixedMatrixMultiplier, WeightEncoding};
use smm_core::block::FrameBlock;
use smm_core::generate::{element_sparse_matrix, random_vector};
use smm_core::gemv::{vecmat, vecmat_into, vecmat_into_scalar};
use smm_core::rng::seeded;
use smm_runtime::{EngineSpec, Session};
use smm_sparse::{Coo, Csr};
use smm_core::matrix::IntMatrix;
use smm_core::wire::{xxh64, Cursor, MatrixBody};
use smm_store::artifact::{self, crc32, crc32_bitwise, Artifact};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The dense race: scalar reference vs blocked (production) at several
/// dims and densities. The two are bit-identical; the spread is pure
/// kernel shape.
fn bench_dense_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("vecmat_kernels");
    for &dim in &[64usize, 256, 512] {
        for &sparsity in &[0.0f64, 0.9] {
            let mut rng = seeded(1000 + dim as u64 + (sparsity * 10.0) as u64);
            let m = element_sparse_matrix(dim, dim, 8, sparsity, true, &mut rng).unwrap();
            let a = random_vector(dim, 8, true, &mut rng).unwrap();
            let mut out = vec![0i64; dim];
            let mut blocked = vec![0i64; dim];
            vecmat_into_scalar(&a, &m, &mut out).unwrap();
            vecmat_into(&a, &m, &mut blocked).unwrap();
            assert_eq!(out, blocked, "dense kernels diverged at {dim}");
            let tag = format!("{dim}@{:.0}%", sparsity * 100.0);
            group.bench_with_input(BenchmarkId::new("scalar", &tag), &dim, |b, _| {
                b.iter(|| vecmat_into_scalar(black_box(&a), black_box(&m), &mut out).unwrap())
            });
            group.bench_with_input(BenchmarkId::new("blocked", &tag), &dim, |b, _| {
                b.iter(|| vecmat_into(black_box(&a), black_box(&m), &mut out).unwrap())
            });
        }
    }
    group.finish();
}

/// CSR SpMV against the dense kernel on the same matrices.
fn bench_csr(c: &mut Criterion) {
    let mut group = c.benchmark_group("csr_spmv");
    for &pct in &[50u32, 90, 98] {
        let mut rng = seeded(2000 + u64::from(pct));
        let m = element_sparse_matrix(256, 256, 8, f64::from(pct) / 100.0, true, &mut rng).unwrap();
        let a = random_vector(256, 8, true, &mut rng).unwrap();
        let csr = Csr::from_dense(&m);
        let mut out = vec![0i64; 256];
        group.bench_with_input(BenchmarkId::new("csr", pct), &pct, |b, _| {
            b.iter(|| csr.vecmat_into(black_box(&a), &mut out).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("dense", pct), &pct, |b, _| {
            b.iter(|| vecmat_into(black_box(&a), &m, &mut out).unwrap())
        });
    }
    group.finish();
}

/// The CSR single-vector kernel against its oracle: `vecmat_into` vs
/// `vecmat_scatter_into` (the row scatter), on `reservoir-step`'s matrix
/// (1024², 95 % sparse, 4-bit) and on `wire-single`'s (256², 90 %,
/// 8-bit). Each gets a dense frame on each path `vecmat_into` takes —
/// 8-bit inputs, inside the `f32` rule and so gathered through the column
/// slices, and 24-bit, past it and so scattered — each checked to fall in
/// its path's band of `max_col_abs_sum × max|a|` and labelled by that
/// path; `reservoir-step`'s also gets a one-hot frame, which the scatter
/// skips through and the gather walks in full. No workload sends the
/// 24-bit or the one-hot frame; they show what such traffic would pay.
/// Outputs are checked equal before either side is timed.
fn bench_csr_single(c: &mut Criterion) {
    let mut rng = seeded(2300);
    let mut group = c.benchmark_group("csr_single");
    let cases: [(usize, f64, u32, &[&str]); 2] = [
        (1024, 0.95, 4, &["dense8", "dense24", "one_hot"]),
        (256, 0.9, 8, &["dense8", "dense24"]),
    ];
    for (dim, sparsity, weight_bits, frames) in cases {
        let m = element_sparse_matrix(dim, dim, weight_bits, sparsity, true, &mut rng).unwrap();
        let csr = Csr::from_dense(&m);
        let max_col_abs_sum = (0..dim)
            .map(|c| m.col(c).iter().map(|w| u64::from(w.unsigned_abs())).sum::<u64>())
            .max()
            .unwrap();
        for &frame in frames {
            let (a, path, band) = match frame {
                "one_hot" => {
                    let mut a = vec![0i32; dim];
                    a[dim / 3] = -77;
                    (a, "gather", 0..=1 << 24)
                }
                "dense8" => (random_vector(dim, 8, true, &mut rng).unwrap(), "gather", 0..=1 << 24),
                _ => {
                    let a = random_vector(dim, 24, true, &mut rng).unwrap();
                    (a, "scatter", (1 << 24) + 1..=u64::MAX)
                }
            };
            let tag = format!("{dim}/{frame}");
            let max_a = a.iter().map(|x| u64::from(x.unsigned_abs())).max().unwrap();
            assert!(band.contains(&(max_col_abs_sum * max_a)), "{tag} is outside its {path} band");
            let (mut out, mut oracle) = (vec![0i64; dim], vec![0i64; dim]);
            csr.vecmat_into(&a, &mut out).unwrap();
            csr.vecmat_scatter_into(&a, &mut oracle).unwrap();
            assert_eq!(out, oracle, "single-vector kernels diverged on {tag}");
            group.bench_with_input(BenchmarkId::new(path, &tag), &dim, |b, _| {
                b.iter(|| csr.vecmat_into(black_box(&a), &mut out).unwrap())
            });
            group.bench_with_input(BenchmarkId::new("scatter_oracle", &tag), &dim, |b, _| {
                b.iter(|| csr.vecmat_scatter_into(black_box(&a), &mut oracle).unwrap())
            });
        }
    }
    group.finish();
}

/// The CSR batch path on the serving benchmark's batch shape (1024²,
/// 90 % sparse, 8-bit weights, 64 frames): one `vecmat_into` per frame
/// vs `vecmat_block_into`, with 8-bit inputs (each 16-frame group is
/// gathered through the column slices in `f32` lanes, two columns × 16
/// frames in registers per pass, as `wire-batch`'s are) and 24-bit
/// inputs (past the `f32` rule, which no workload sends: each group is
/// cut into three digit planes, each gathered the same way, so it costs
/// about three 8-bit groups). `blocked/empty` is the same call with
/// 8-bit inputs on a 1024² matrix with no non-zeros: its slices hold no
/// entries, so what it times is the group's fixed cost, the 16 × 16-tiled
/// transposes in and out and one store per column.
/// Outputs are checked equal to the single-frame kernels before anything
/// is timed.
fn bench_csr_batch64(c: &mut Criterion) {
    let (dim, n) = (1024usize, 64usize);
    let mut rng = seeded(2500);
    let m = element_sparse_matrix(dim, dim, 8, 0.9, true, &mut rng).unwrap();
    let csr = Csr::from_dense(&m);
    let mut group = c.benchmark_group("csr_batch64");
    for &bits in &[8u32, 24] {
        let frames = random_vector(n * dim, bits, true, &mut rng).unwrap();
        let mut per_frame = vec![0i64; n * dim];
        let mut blocked = vec![0i64; n * dim];
        let run_per_frame = |out: &mut [i64]| {
            for (a, o) in frames.chunks_exact(dim).zip(out.chunks_exact_mut(dim)) {
                csr.vecmat_into(black_box(a), o).unwrap();
            }
        };
        let mut scattered = vec![0i64; n * dim];
        for (f, a) in frames.chunks_exact(dim).enumerate() {
            csr.vecmat_scatter_into(a, &mut scattered[f * dim..(f + 1) * dim])
                .unwrap();
        }
        run_per_frame(&mut per_frame);
        let ran = csr.vecmat_block_into(&frames, n, &mut blocked).unwrap();
        assert_eq!(per_frame, blocked, "kernels diverged at {bits}-bit inputs");
        assert_eq!(scattered, blocked, "scatter diverged at {bits}-bit inputs");
        let expect = if bits == 8 { (4, 0) } else { (0, 4) };
        assert_eq!((ran.narrow_groups, ran.wide_groups), expect, "{bits}-bit");
        group.bench_with_input(BenchmarkId::new("per_frame", bits), &bits, |b, _| {
            b.iter(|| run_per_frame(&mut per_frame))
        });
        group.bench_with_input(BenchmarkId::new("blocked", bits), &bits, |b, _| {
            b.iter(|| {
                csr.vecmat_block_into(black_box(&frames), n, &mut blocked)
                    .unwrap()
            })
        });
    }
    let empty = Csr::from_dense(&IntMatrix::zeros(dim, dim).unwrap());
    let frames = random_vector(n * dim, 8, true, &mut rng).unwrap();
    let mut per_frame = vec![0i64; n * dim];
    for (a, o) in frames.chunks_exact(dim).zip(per_frame.chunks_exact_mut(dim)) {
        empty.vecmat_into(a, o).unwrap();
    }
    let mut blocked = vec![0i64; n * dim];
    let ran = empty.vecmat_block_into(&frames, n, &mut blocked).unwrap();
    assert_eq!(per_frame, blocked, "kernels diverged on the empty matrix");
    assert_eq!((ran.narrow_groups, ran.wide_groups), (4, 0), "empty");
    group.bench_function(BenchmarkId::new("blocked", "empty"), |b| {
        b.iter(|| {
            empty
                .vecmat_block_into(black_box(&frames), n, &mut blocked)
                .unwrap()
        })
    });
    group.finish();
}

/// The bit-serial batch schedules of the one simulator: the lockstep
/// driver (64 frames per machine word, the production
/// `run_frames_block` engine) vs the framed back-to-back stream, on the
/// same compiled circuit.
fn bench_bitserial_batch(c: &mut Criterion) {
    let dim = 32usize;
    let mut rng = seeded(4000);
    let m = element_sparse_matrix(dim, dim, 8, 0.9, true, &mut rng).unwrap();
    let mul = FixedMatrixMultiplier::compile(&m, 8, WeightEncoding::Pn).unwrap();
    let inputs: Vec<Vec<i32>> = (0..64)
        .map(|_| random_vector(dim, 8, true, &mut rng).unwrap())
        .collect();
    let frames = FrameBlock::try_from(inputs.as_slice()).unwrap();
    let mut out = vec![0i64; 64 * dim];
    let mut streamed = vec![0i64; 64 * dim];
    let run_streamed = |out: &mut [i64]| {
        smm_bitserial::sim::run_stream_into_flat(
            mul.circuit(),
            black_box(frames.as_slice()),
            mul.input_bits(),
            mul.output_bits(),
            mul.batch_interval_cycles(),
            out,
        )
    };
    mul.run_frames_block(&frames, 0, 64, &mut out).unwrap();
    run_streamed(&mut streamed);
    assert_eq!(out, streamed, "bit-serial engines diverged");
    let mut group = c.benchmark_group("bitserial_batch");
    group.bench_function("bit_sliced", |b| {
        b.iter(|| {
            mul.run_frames_block(black_box(&frames), 0, 64, &mut out)
                .unwrap()
        })
    });
    group.bench_function("framed_stream", |b| {
        b.iter(|| run_streamed(&mut streamed))
    });
    group.finish();
}

/// What a cold promotion runs over a matrix's bytes, each against the
/// body it replaced: the slice-by-8 CRC-32 vs the bit-at-a-time one on
/// a 256² artifact payload (262 KB), the content digest (`wire::xxh64`,
/// four lanes over 32-byte stripes) vs the same algorithm fed one byte
/// at a time over the bodies of 256² matrices with 0, 50, 90, 99 and
/// 100 % zeros — 90 % is the benchmark's cold-read matrix —
/// `artifact::decode_body` of a 256²/90 % matrix artifact — the body
/// checked in one pass and hashed — vs decoding the same bytes to the
/// dense matrix and digesting that, and the CSR build from a body and
/// from the dense matrix vs the route through COO triples at 256² and
/// 1024², 90 % sparse — every side finishes by deriving the accumulator
/// bound and the column slices, so the race includes them.
fn bench_store_checksums(c: &mut Criterion) {
    let mut rng = seeded(5000);
    let mut group = c.benchmark_group("store_checksums");

    let payload: Vec<u8> = random_vector(256 * 256, 31, true, &mut rng)
        .unwrap()
        .into_iter()
        .flat_map(i32::to_le_bytes)
        .collect();
    assert_eq!(crc32(&payload), crc32_bitwise(&payload), "CRCs diverged");
    group.bench_function("crc32/slice_by_8", |b| b.iter(|| crc32(black_box(&payload))));
    group.bench_function("crc32/bitwise", |b| {
        b.iter(|| crc32_bitwise(black_box(&payload)))
    });

    for &pct in &[0u32, 50, 90, 99, 100] {
        let m = element_sparse_matrix(256, 256, 8, f64::from(pct) / 100.0, true, &mut rng).unwrap();
        let body = MatrixBody::of(&m);
        let bytes = body.as_bytes();
        assert_eq!(xxh64(bytes), xxh64_bytewise(bytes), "digests diverged at {pct}% zeros");
        group.bench_with_input(BenchmarkId::new("digest/four_lane", pct), &pct, |b, _| {
            b.iter(|| xxh64(black_box(bytes)))
        });
        group.bench_with_input(BenchmarkId::new("digest/bytewise", pct), &pct, |b, _| {
            b.iter(|| xxh64_bytewise(black_box(bytes)))
        });
    }

    // One matrix, one digest, at each value width a body can take.
    for (bits, width) in [(8, 1), (16, 2), (31, 4)] {
        let m = element_sparse_matrix(64, 64, bits, 0.5, true, &mut rng).unwrap();
        let written = MatrixBody::of(&m);
        assert_eq!(written.width(), width, "{bits}-bit values");
        let read = Cursor::new(written.as_bytes()).take_matrix_body().unwrap();
        assert_eq!([m.digest(), written.digest()], [read.digest(); 2], "digests diverged at {bits} bits");
    }

    let m = element_sparse_matrix(256, 256, 8, 0.9, true, &mut rng).unwrap();
    let file = artifact::encode(m.digest(), &Artifact::Matrix(m.clone()));
    let (digest, body) = artifact::decode_body(&file).unwrap();
    assert_eq!((digest, body.to_matrix().unwrap()), (m.digest(), m.clone()), "decode lost the matrix");
    assert_eq!(decode_dense(&file), (digest, m), "cold decodes diverged");
    group.bench_function("cold_decode/body", |b| {
        b.iter(|| artifact::decode_body(black_box(&file)).unwrap())
    });
    group.bench_function("cold_decode/dense_digest", |b| {
        b.iter(|| decode_dense(black_box(&file)))
    });

    for &dim in &[256usize, 1024] {
        let m = element_sparse_matrix(dim, dim, 8, 0.9, true, &mut rng).unwrap();
        let body = MatrixBody::of(&m);
        let via_coo = |m| Csr::from_coo(&Coo::from_dense(m));
        assert_eq!(Csr::from_dense(&m), via_coo(&m), "CSR builds diverged at {dim}");
        assert_eq!(Csr::from_body(&body), via_coo(&m), "CSR builds diverged at {dim}");
        group.bench_with_input(BenchmarkId::new("csr_build/from_body", dim), &dim, |b, _| {
            b.iter(|| Csr::from_body(black_box(&body)))
        });
        group.bench_with_input(BenchmarkId::new("csr_build/direct", dim), &dim, |b, _| {
            b.iter(|| Csr::from_dense(black_box(&m)))
        });
        group.bench_with_input(BenchmarkId::new("csr_build/via_coo", dim), &dim, |b, _| {
            b.iter(|| via_coo(black_box(&m)))
        });
    }
    group.finish();
}

/// A matrix artifact read to its dense form and digested there, the way
/// cold reads ran before they kept the body: the oracle
/// `artifact::decode_body` is held to (same digest out of the same
/// bytes).
fn decode_dense(file: &[u8]) -> (u64, IntMatrix) {
    // Past magic (4), format rev (4) and kind (1).
    let mut header = Cursor::new(&file[9..]);
    let digest = header.take_u64("digest").unwrap();
    let payload = header.take_bytes("payload").unwrap();
    let m = Cursor::new(payload).take_matrix().unwrap();
    assert_eq!(m.digest(), digest, "content digest");
    (digest, m)
}

/// XXH64 (seed 0) fed one byte at a time, the way a streaming hasher
/// takes its input: each byte goes into a 32-byte stripe buffer, a full
/// stripe is cut into the four lanes' words by shifts, and the tail left
/// in the buffer is folded in 8-, 4- and 1-byte steps. Written from the
/// published algorithm apart from `wire::xxh64`, it is the reference
/// that function is raced against and held to.
fn xxh64_bytewise(bytes: &[u8]) -> u64 {
    const P1: u64 = 11_400_714_785_074_694_791;
    const P2: u64 = 14_029_467_366_897_019_727;
    const P3: u64 = 1_609_587_929_392_839_161;
    const P4: u64 = 9_650_029_242_287_828_579;
    const P5: u64 = 2_870_177_450_012_600_261;
    let round = |acc: u64, word: u64| {
        acc.wrapping_add(word.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
    };
    let word_at = |buf: &[u8], at: usize, len: usize| {
        (0..len).fold(0u64, |word, k| word | u64::from(buf[at + k]) << (8 * k))
    };
    let mut lanes = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
    let mut stripe = [0u8; 32];
    let mut filled = 0;
    for &byte in bytes {
        stripe[filled] = byte;
        filled += 1;
        if filled == 32 {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = round(*lane, word_at(&stripe, 8 * i, 8));
            }
            filled = 0;
        }
    }
    let mut h = if bytes.len() < 32 {
        P5
    } else {
        let mut h = lanes[0].rotate_left(1)
            .wrapping_add(lanes[1].rotate_left(7))
            .wrapping_add(lanes[2].rotate_left(12))
            .wrapping_add(lanes[3].rotate_left(18));
        for lane in lanes {
            h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
        }
        h
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut at = 0;
    while at + 8 <= filled {
        h = (h ^ round(0, word_at(&stripe, at, 8))).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
        at += 8;
    }
    if at + 4 <= filled {
        h = (h ^ word_at(&stripe, at, 4).wrapping_mul(P1)).rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        at += 4;
    }
    while at < filled {
        h = (h ^ u64::from(stripe[at]).wrapping_mul(P5)).rotate_left(11).wrapping_mul(P1);
        at += 1;
    }
    h = (h ^ h >> 33).wrapping_mul(P2);
    h = (h ^ h >> 29).wrapping_mul(P3);
    h ^ h >> 32
}

/// The planner's regret: every engine's one-frame `run_rows` on one
/// matrix, and the auto-planned engine's time over the fastest one's, on
/// a grid that straddles the dense/csr crossover (256² from fully dense
/// to 99 % sparse), the benchmark's own shapes (1024² at 50, 90 and
/// 95 %) and the one size where the bit-serial simulation is cheap
/// enough to compile here (32²; its circuit is resident in the cache the
/// auto session plans over). Every engine's output is checked against
/// the dense reference before anything is timed. An engine's time is its
/// fastest sample, so the ratio compares kernels, not scheduler noise.
fn bench_plan_regret(c: &mut Criterion) {
    let timed = !std::env::args().any(|a| a == "--test");
    let grid: [(usize, &[u32]); 3] = [
        (256, &[0, 25, 50, 75, 90, 99]),
        (1024, &[50, 90, 95]),
        (32, &[50, 90]),
    ];
    let mut group = c.benchmark_group("plan_regret");
    for (dim, sparsities) in grid {
        for &pct in sparsities {
            let mut rng = seeded(6000 + dim as u64 + u64::from(pct));
            let m = element_sparse_matrix(dim, dim, 8, f64::from(pct) / 100.0, true, &mut rng)
                .unwrap();
            let a = random_vector(dim, 8, true, &mut rng).unwrap();
            let expect = vecmat(&a, &m).unwrap();
            let frame = FrameBlock::try_from([a].as_slice()).unwrap();
            let kinds: &[&str] = match dim {
                32 => &["dense", "csr", "sigma", "bitserial"],
                _ => &["dense", "csr", "sigma"],
            };
            let session = |kind: &str| {
                Session::builder(m.clone())
                    .spec(EngineSpec::new(kind))
                    .build()
                    .unwrap()
            };
            let tag = format!("{dim}@{pct}%");
            let mut out = vec![0i64; dim];
            let mut times = Vec::with_capacity(kinds.len());
            for &kind in kinds {
                let engine = Arc::clone(session(kind).engine());
                engine.run_rows(&frame, 0, 1, &mut out).unwrap();
                assert_eq!(out, expect, "{kind} diverged from the dense reference on {tag}");
                let mut best = f64::INFINITY;
                group.bench_function(BenchmarkId::new(kind, &tag), |b| {
                    let mut calls = 0u32;
                    let start = Instant::now();
                    b.iter(|| {
                        calls += 1;
                        engine.run_rows(black_box(&frame), 0, 1, &mut out).unwrap()
                    });
                    best = best.min(start.elapsed().as_secs_f64() / f64::from(calls));
                });
                times.push((kind, best));
            }
            // Planned last: the plan reads the matrix's counts alone.
            let picked = session("auto").engine().name();
            let (_, auto_s) = *times.iter().find(|(kind, _)| *kind == picked).unwrap();
            let (fastest, fastest_s) = *times.iter().min_by(|x, y| x.1.total_cmp(&y.1)).unwrap();
            // A name filter that leaves an engine untimed leaves no regret.
            if timed && times.iter().all(|(_, s)| s.is_finite()) {
                println!(
                    "plan_regret/{tag:<9} auto={picked} {:.2} µs  fastest={fastest} {:.2} µs  \
                     regret {:.2}x",
                    auto_s * 1e6,
                    fastest_s * 1e6,
                    auto_s / fastest_s,
                );
            }
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_dense_variants, bench_csr, bench_csr_single, bench_csr_batch64,
        bench_bitserial_batch, bench_store_checksums, bench_plan_regret
}
criterion_main!(benches);
