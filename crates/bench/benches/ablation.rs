//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! CSD chain-2 policy, weight encoding, and fanout pipelining — timing the
//! end-to-end flow for each variant (area deltas are reported by
//! `reproduce fig9`/`fig10` and the ablation integration tests).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smm_bitserial::multiplier::WeightEncoding;
use smm_core::csd::ChainPolicy;
use smm_core::generate::element_sparse_matrix;
use smm_core::rng::seeded;
use smm_models::fpga::flow::{synthesize, FlowOptions};
use std::hint::black_box;

fn bench_encoding_ablation(c: &mut Criterion) {
    let mut rng = seeded(5001);
    let m = element_sparse_matrix(256, 256, 8, 0.9, true, &mut rng).unwrap();
    let mut group = c.benchmark_group("flow_encoding");
    let variants: &[(&str, WeightEncoding)] = &[
        ("pn", WeightEncoding::Pn),
        (
            "csd_coinflip",
            WeightEncoding::Csd {
                policy: ChainPolicy::CoinFlip,
                seed: 2,
            },
        ),
        (
            "csd_always",
            WeightEncoding::Csd {
                policy: ChainPolicy::Always,
                seed: 2,
            },
        ),
        (
            "csd_never",
            WeightEncoding::Csd {
                policy: ChainPolicy::Never,
                seed: 2,
            },
        ),
    ];
    for (name, encoding) in variants {
        group.bench_with_input(BenchmarkId::from_parameter(name), encoding, |b, enc| {
            let options = FlowOptions {
                encoding: *enc,
                ..FlowOptions::default()
            };
            b.iter(|| synthesize(black_box(&m), &options).unwrap())
        });
    }
    group.finish();
}

fn bench_fanout_pipelining(c: &mut Criterion) {
    let mut rng = seeded(5002);
    let m = element_sparse_matrix(256, 256, 8, 0.5, true, &mut rng).unwrap();
    let mut group = c.benchmark_group("flow_fanout");
    for piped in [false, true] {
        group.bench_with_input(
            BenchmarkId::from_parameter(if piped { "pipelined" } else { "direct" }),
            &piped,
            |b, &piped| {
                let options = FlowOptions {
                    fanout_pipelining: piped,
                    ..FlowOptions::default()
                };
                b.iter(|| synthesize(black_box(&m), &options).unwrap())
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_encoding_ablation, bench_fanout_pipelining
}
criterion_main!(benches);
