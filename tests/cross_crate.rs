//! Workspace-level integration tests: every layer agrees on the same
//! matrices — generators, CSD, the spatial circuit, CSR kernels, the FPGA
//! flow, the baselines, and the reservoir application.

use spatial_smm::bitserial::multiplier::{FixedMatrixMultiplier, WeightEncoding};
use spatial_smm::core::csd::ChainPolicy;
use spatial_smm::core::generate::{element_sparse_matrix, random_vector};
use spatial_smm::core::gemv::vecmat;
use spatial_smm::core::rng::seeded;
use spatial_smm::fpga::flow::{synthesize, FlowOptions};
use spatial_smm::gpu::GpuKernelModel;
use spatial_smm::runtime::{EngineSpec, FrameBlock, MultiplierCache, RowBlock, Session};
use spatial_smm::sigma::Sigma;
use spatial_smm::sparse::{Csr, SparsityProfile};
use std::sync::Arc;

/// Three independent implementations of `o = aᵀV` agree exactly: dense
/// reference, CSR kernel, and the simulated spatial circuit (both weight
/// encodings).
#[test]
fn all_kernels_agree() {
    let mut rng = seeded(900);
    for &(dim, sparsity) in &[(32usize, 0.5), (64, 0.9), (96, 0.98)] {
        let v = element_sparse_matrix(dim, dim, 8, sparsity, true, &mut rng).unwrap();
        let a = random_vector(dim, 8, true, &mut rng).unwrap();
        let reference = vecmat(&a, &v).unwrap();
        let csr = Csr::from_dense(&v).vecmat(&a).unwrap();
        assert_eq!(csr, reference);
        for encoding in [
            WeightEncoding::Pn,
            WeightEncoding::Csd {
                policy: ChainPolicy::CoinFlip,
                seed: 3,
            },
        ] {
            let mul = FixedMatrixMultiplier::compile(&v, 8, encoding).unwrap();
            assert_eq!(mul.mul(&a).unwrap(), reference, "dim {dim} {encoding:?}");
        }
    }
}

/// The serving runtime agrees with the reference kernel for **every**
/// engine spec, thread count and batch size (including the 0 and 1 edge
/// cases), on seeded random sparse matrices — all constructed through
/// the `Session` front door, with one shared multiplier cache handing
/// every bit-serial session the same compiled circuit.
#[test]
fn runtime_backends_agree_for_all_shapes() {
    let cache = Arc::new(MultiplierCache::new());
    for (seed, dim, sparsity) in [(910u64, 1usize, 0.0), (911, 9, 0.5), (912, 26, 0.92)] {
        let mut rng = seeded(seed);
        let v = element_sparse_matrix(dim, dim, 8, sparsity, true, &mut rng).unwrap();
        let sessions: Vec<Session> = ["dense", "csr", "bitserial"]
            .iter()
            .flat_map(|kind| {
                [1usize, 2, 4].map(|threads| {
                    Session::builder(v.clone())
                        .spec(EngineSpec::new(*kind).threads(threads))
                        .cache(Arc::clone(&cache))
                        .build()
                        .unwrap()
                })
            })
            .collect();
        let mut block_out = RowBlock::new();
        for batch_size in [0usize, 1, 5, 17] {
            let batch: Arc<Vec<Vec<i32>>> = Arc::new(
                (0..batch_size)
                    .map(|_| random_vector(dim, 8, true, &mut rng).unwrap())
                    .collect(),
            );
            let frames = Arc::new(FrameBlock::try_from(batch.as_slice()).unwrap());
            let expect: Vec<Vec<i64>> =
                batch.iter().map(|a| vecmat(a, &v).unwrap()).collect();
            for session in &sessions {
                // Every engine and thread count serves the identical
                // bits into a reused output block.
                let stats = session.run_block(Arc::clone(&frames), &mut block_out).unwrap();
                assert_eq!(stats.batch, batch_size);
                assert!(stats.shards <= session.threads().min(batch_size.max(1)));
                assert_eq!(
                    Vec::<Vec<i64>>::from(&block_out),
                    expect,
                    "{} dim {dim} batch {batch_size} threads {}",
                    session.engine().name(),
                    session.threads()
                );
            }
        }
    }
    // One compile per matrix; every later session build was a hit.
    let stats = cache.stats();
    assert_eq!(stats.misses, 3);
    assert_eq!(stats.entries, 3);
    assert_eq!(stats.hits, 6, "two extra bit-serial sessions per matrix");
}

/// The flow's functional circuit and physical report are mutually
/// consistent, and the headline claims hold on a realistic matrix.
#[test]
fn flow_report_headline_claims() {
    let mut rng = seeded(901);
    let v = element_sparse_matrix(128, 128, 8, 0.9, true, &mut rng).unwrap();
    let (mul, report) = synthesize(&v, &FlowOptions::default()).unwrap();
    // Area ≈ ones; FF ≈ 2×LUT for the logic part.
    let lut = report.resources.lut as f64;
    assert!((lut / report.ones as f64 - 1.0).abs() < 0.15);
    // Latency: Equation 5 at the achieved clock, and under the paper's
    // 120 ns headline for this size.
    assert!(report.latency_ns < 120.0);
    // The functional circuit computes the right thing.
    let a = random_vector(128, 8, true, &mut rng).unwrap();
    assert_eq!(mul.mul(&a).unwrap(), vecmat(&a, &v).unwrap());
}

/// The full comparison story of Section VII on one matrix: FPGA beats both
/// baselines at batch 1; batching erodes the GPU gap.
#[test]
fn section_seven_story() {
    let mut rng = seeded(902);
    let v = element_sparse_matrix(512, 512, 8, 0.95, true, &mut rng).unwrap();
    let profile = SparsityProfile::of(&Csr::from_dense(&v));
    let (mul, report) = synthesize(&v, &FlowOptions::default()).unwrap();

    let gpu = GpuKernelModel::cusparse();
    let sigma = Sigma::default();
    let fpga_ns = report.latency_ns;
    assert!(gpu.spmv_latency_ns(&profile) / fpga_ns > 20.0);
    assert!(sigma.gemv_latency_ns(&profile) / fpga_ns > 0.8);

    // Batching: the FPGA advantage at batch 64 is much smaller than at 1.
    let fpga_b64 = mul.batch_latency_cycles(64) as f64 * 1000.0 / report.fmax_mhz;
    let gpu_b64 = gpu.spmm_latency_ns(&profile, 64);
    let ratio_b1 = gpu.spmv_latency_ns(&profile) / fpga_ns;
    let ratio_b64 = gpu_b64 / fpga_b64;
    assert!(ratio_b64 < ratio_b1 / 4.0, "{ratio_b1} -> {ratio_b64}");
}

/// The live `sigma` engine walks the grid the SIGMA timing model prices:
/// one tile is the model's PE count.
#[test]
fn sigma_engine_tiles_the_modelled_grid() {
    use spatial_smm::runtime::SigmaEngine;
    use spatial_smm::sigma::SigmaConfig;
    assert_eq!(SigmaEngine::TILE, SigmaConfig::default().pes());
}

/// CSD reduces hardware but never changes results (Equation 6 end to end).
#[test]
fn csd_is_transparent_to_results() {
    let mut rng = seeded(903);
    let v = element_sparse_matrix(48, 48, 8, 0.3, true, &mut rng).unwrap();
    let pn = FixedMatrixMultiplier::compile(&v, 8, WeightEncoding::Pn).unwrap();
    let csd = FixedMatrixMultiplier::compile(
        &v,
        8,
        WeightEncoding::Csd {
            policy: ChainPolicy::CoinFlip,
            seed: 17,
        },
    )
    .unwrap();
    assert!(csd.ones() < pn.ones());
    for trial in 0..5 {
        let a = random_vector(48, 8, true, &mut rng).unwrap();
        assert_eq!(pn.mul(&a).unwrap(), csd.mul(&a).unwrap(), "trial {trial}");
    }
}

/// An integer reservoir whose recurrence runs on the compiled circuit
/// produces the exact same state trajectory as reference arithmetic while
/// its synthesis report stays in the nanosecond-latency regime.
#[test]
fn reservoir_on_circuit_with_synthesis() {
    use spatial_smm::reservoir::esn::EsnConfig;
    use spatial_smm::reservoir::int_esn::{IntEsn, IntEsnConfig};
    use spatial_smm::runtime::BitSerial;

    let cfg = IntEsnConfig {
        esn: EsnConfig {
            reservoir_size: 48,
            element_sparsity: 0.88,
            seed: 904,
            ..EsnConfig::default()
        },
        weight_bits: 4,
        state_bits: 8,
    };
    let mut reference = IntEsn::new(cfg.clone()).unwrap();
    let mut on_circuit = IntEsn::new(cfg.clone()).unwrap();
    let compiled = Arc::new(
        FixedMatrixMultiplier::compile(&on_circuit.recurrence_matrix(), cfg.state_bits, WeightEncoding::Pn)
            .unwrap(),
    );
    on_circuit.attach_backend(Arc::new(BitSerial::new(Arc::clone(&compiled)))).unwrap();
    for t in 0..30 {
        let u = vec![(t as f64 * 0.21).sin() * 0.5];
        assert_eq!(
            reference.update(&u).unwrap(),
            on_circuit.update(&u).unwrap(),
            "step {t}"
        );
    }
    // Synthesize the very circuit that just ran.
    let report = spatial_smm::fpga::flow::report_for(&compiled, &FlowOptions::default());
    assert!(report.fits);
    assert!(report.latency_ns < 120.0);
}
