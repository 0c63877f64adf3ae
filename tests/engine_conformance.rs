//! The shared engine conformance harness: every built-in engine kind —
//! dense, csr, bitserial, sigma, and whatever joins them later — is
//! held to one contract on proptest-generated matrices
//! across densities and dimensions:
//!
//! ```text
//! run == run_block == engine().run_rows(interior shard)
//!     == Client::gemv == Client::gemv_block == dense reference
//! ```
//!
//! bit for bit: through the `Session` front door every entry point
//! serves through, through the engine's one compute primitive, and over
//! a real loopback server that was asked for that engine by name. The
//! suite is table-driven off [`BUILTIN_KINDS`], so a fifth entry there
//! is automatically pinned here; per-engine identity checks
//! elsewhere can stay focused on engine-specific behavior. One more
//! column, `auto`, holds whatever the planner picks to the same contract
//! and the pick itself to the arg-min of the plan's own cost table.

use proptest::prelude::*;
use spatial_smm::core::block::{FrameBlock, RowBlock};
use spatial_smm::core::generate::{element_sparse_matrix, random_vector};
use spatial_smm::core::gemv::vecmat;
use spatial_smm::core::matrix::IntMatrix;
use spatial_smm::core::rng::seeded;
use spatial_smm::runtime::BUILTIN_KINDS;
use spatial_smm::server::{BackendKind, Client, ServerConfig, ServerHandle};
use spatial_smm::{EnginePlan, EngineSpec, Session};
use std::sync::Arc;

/// The conformance table's `auto` column, beside the built-in kinds:
/// an [`EngineSpec`] kind like them, which the planner resolves.
const AUTO: &str = "auto";

/// The cheapest candidate of an auto plan, ties to the earliest: what
/// the planner must have picked.
fn arg_min(plan: &EnginePlan) -> &str {
    let cheapest = plan.candidates.iter().map(|c| c.cost_ns).fold(f64::INFINITY, f64::min);
    let first = plan.candidates.iter().find(|c| c.cost_ns == cheapest);
    &first.expect("an auto plan prices at least one candidate").kind
}

/// A loopback server asked to load `v` under the backend `column` (an
/// engine kind or `auto`) that answered with exactly `engine` (asserted
/// from the `Loaded` reply), and a client connected to it.
fn serve_over_loopback(
    v: &IntMatrix,
    column: &str,
    engine: &str,
    threads: usize,
) -> (ServerHandle, Client, u64) {
    let server = spatial_smm::server::start(ServerConfig {
        threads,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let backend: BackendKind = column.parse().expect("every column has a wire name");
    let info = client.load_matrix_with(v, Some(backend)).unwrap();
    assert_eq!(info.engine, engine, "the server planned another engine");
    (server, client, info.digest)
}

#[test]
fn all_four_builtin_engines_are_registered() {
    let mut kinds = BUILTIN_KINDS.to_vec();
    kinds.sort_unstable();
    assert_eq!(kinds, ["bitserial", "csr", "dense", "sigma"]);
}

/// The conformance contract for one generated case, per built-in
/// engine kind and for the auto plan: every submission surface produces
/// the dense reference's exact bits, with the output buffers reused
/// across engines so stale rows from one would be caught by the next.
fn assert_conformance(
    seed: u64,
    rows: usize,
    cols: usize,
    sparsity: f64,
    batch_size: usize,
    threads: usize,
) {
    let mut rng = seeded(seed);
    let v = element_sparse_matrix(rows, cols, 8, sparsity, true, &mut rng).unwrap();
    let batch: Vec<Vec<i32>> = (0..batch_size)
        .map(|_| random_vector(rows, 8, true, &mut rng).unwrap())
        .collect();
    let single = random_vector(rows, 8, true, &mut rng).unwrap();
    let expect: Vec<Vec<i64>> = batch.iter().map(|a| vecmat(a, &v).unwrap()).collect();
    let expect_single = vecmat(&single, &v).unwrap();
    let frames = Arc::new(FrameBlock::try_from(batch.as_slice()).unwrap());

    let mut out = RowBlock::new();
    // The interior shard: every frame but the first, so it starts off
    // the block's origin and is one short of the session's shards.
    let (start, end) = (batch_size.min(1), batch_size);
    let mut shard = vec![0i64; (end - start) * cols];
    for kind in BUILTIN_KINDS.into_iter().chain([AUTO]) {
        let session = Session::builder(v.clone())
            .spec(EngineSpec::new(kind).threads(threads))
            .build()
            .unwrap();
        let engine = if kind == AUTO {
            let picked = arg_min(session.plan());
            assert_ne!(picked, "bitserial", "auto never plans the simulation");
            picked
        } else {
            kind
        };
        assert_eq!(session.engine().name(), engine, "{kind}: {}", session.plan().rationale);
        assert_eq!((session.rows(), session.cols()), (rows, cols), "{kind}");

        // run: the single-vector path.
        assert_eq!(session.run(&single).unwrap(), expect_single, "run, {kind}");
        // run_block: the batch path, into a reused block.
        let stats = session.run_block(Arc::clone(&frames), &mut out).unwrap();
        assert_eq!(stats.batch, batch_size, "{kind}");
        assert_eq!(Vec::<Vec<i64>>::from(&out), expect, "run_block, {kind}");
        // run_rows: the engine's one primitive, into a reused slice.
        shard.fill(-1);
        session.engine().run_rows(&frames, start, end, &mut shard).unwrap();
        for (i, frame) in (start..end).enumerate() {
            let row = &shard[i * cols..(i + 1) * cols];
            assert_eq!(row, expect[frame].as_slice(), "run_rows frame {frame}, {kind}");
        }
        // The wire: the same engine behind a real server.
        let (server, mut client, digest) = serve_over_loopback(&v, kind, engine, threads);
        assert_eq!(client.gemv(digest, &single).unwrap(), expect_single, "gemv, {kind}");
        let served = client.gemv_block(digest, &frames).unwrap();
        assert_eq!(Vec::<Vec<i64>>::from(&served), expect, "gemv_block, {kind}");
        server.shutdown();
    }
}

/// The auto column on the planner's own grid: fully dense, the middle
/// band, and the two sparse regimes the benchmark serves.
#[test]
fn the_auto_plan_serves_identical_bits_across_the_density_grid() {
    for (i, sparsity) in [0.0, 0.5, 0.9, 0.99].into_iter().enumerate() {
        assert_conformance(7200 + i as u64, 40, 32, sparsity, 20, 2);
    }
}

/// Engines that batch in fixed groups (csr: 16 frames, bitserial: 64)
/// change path at a group boundary, and a random batch size rarely
/// lands on one: these shards are exactly 15, 16, 17 and 35 frames on
/// one thread, 17 + 16 on two, and 17 + 17 + 16 on three.
#[test]
fn every_registered_engine_serves_identical_bits_at_group_boundaries() {
    let cases = [(1, 15), (1, 16), (1, 17), (1, 35), (2, 33), (3, 50)];
    for (i, (threads, batch_size)) in cases.into_iter().enumerate() {
        assert_conformance(7100 + i as u64, 21, 13, 0.6, batch_size, threads);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The conformance contract on matrices spanning the density range
    /// (empty through full), non-square shapes, and batches from empty
    /// to several groups per shard.
    #[test]
    fn every_registered_engine_serves_identical_bits(
        seed in any::<u64>(),
        rows in 1usize..22,
        cols in 1usize..16,
        sparsity in 0.0f64..=1.0,
        batch_size in 0usize..70,
        threads in 1usize..4,
    ) {
        assert_conformance(seed, rows, cols, sparsity, batch_size, threads);
    }

    /// Dimension errors surface as errors — never panics, never silent
    /// truncation — on every built-in engine and every surface.
    #[test]
    fn every_registered_engine_rejects_bad_widths(
        seed in any::<u64>(),
        rows in 2usize..16,
        cols in 1usize..12,
    ) {
        let mut rng = seeded(seed);
        let v = element_sparse_matrix(rows, cols, 8, 0.5, true, &mut rng).unwrap();
        let short = vec![1i32; rows - 1];
        for kind in BUILTIN_KINDS {
            let session = Session::builder(v.clone())
                .spec(EngineSpec::new(kind))
                .build()
                .unwrap();
            prop_assert!(session.run(&short).is_err(), "run, {}", kind);
            let mut out = RowBlock::new();
            let thin = FrameBlock::from_rows(std::slice::from_ref(&short)).unwrap();
            prop_assert!(
                session.run_block(thin.clone(), &mut out).is_err(),
                "run_block, {}", kind
            );
            prop_assert!(
                session.engine().run_rows(&thin, 0, 1, &mut vec![0; cols]).is_err(),
                "run_rows, {}", kind
            );
            let (server, mut client, digest) = serve_over_loopback(&v, kind, kind, 1);
            prop_assert!(client.gemv(digest, &short).is_err(), "gemv, {}", kind);
            prop_assert!(client.gemv_block(digest, &thin).is_err(), "gemv_block, {}", kind);
            // The session and the connection survive and still serve a
            // valid product.
            let a = random_vector(rows, 8, true, &mut rng).unwrap();
            let expect = vecmat(&a, &v).unwrap();
            prop_assert_eq!(session.run(&a).unwrap(), expect.clone(), "{}", kind);
            prop_assert_eq!(client.gemv(digest, &a).unwrap(), expect, "wire, {}", kind);
            server.shutdown();
        }
    }
}

/// `i32::MIN` is the one `i32` weight with no `i32` magnitude: the
/// sign-split circuit would clamp it and answer off by one where every
/// other engine multiplies it as it is. So no engine is built over a
/// matrix that holds it — every kind and `auto` refuse it with the same
/// typed error, from the dense matrix and from its body, and a loopback
/// `LoadMatrix` answers that error and leaves nothing loaded. Its
/// neighbour `−(2^31 − 1)` is served by every engine alike.
#[test]
fn a_matrix_holding_i32_min_is_refused_by_every_engine() {
    use spatial_smm::core::error::Error;
    use spatial_smm::core::wire::MatrixBody;
    let refused = IntMatrix::from_vec(1, 2, vec![i32::MIN, 3]).unwrap();
    let body = Arc::new(MatrixBody::of(&refused));
    let expect = Error::WeightOutOfDomain { value: i32::MIN };
    for kind in BUILTIN_KINDS.into_iter().chain([AUTO]) {
        let spec = EngineSpec::new(kind);
        let dense = Session::builder(refused.clone()).spec(spec.clone()).build();
        assert_eq!(dense.unwrap_err(), expect, "{kind}, from the matrix");
        let from_body = Session::builder_body(Arc::clone(&body)).spec(spec).build();
        assert_eq!(from_body.unwrap_err(), expect, "{kind}, from the body");
        let server = spatial_smm::server::start(ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let backend: BackendKind = kind.parse().unwrap();
        let answer = client.load_matrix_with(&refused, Some(backend)).unwrap_err().to_string();
        assert!(answer.contains(&expect.to_string()), "{kind}: {answer}");
        assert!(client.gemv(body.digest(), &[1]).is_err(), "{kind}: nothing was loaded");
        assert_eq!(client.stats().unwrap().tier_hot, 0, "{kind}");
        server.shutdown();
    }
    let served = IntMatrix::from_vec(1, 2, vec![-i32::MAX, 3]).unwrap();
    for kind in BUILTIN_KINDS {
        let session = Session::builder(served.clone()).spec(EngineSpec::new(kind)).build().unwrap();
        assert_eq!(session.run(&[1]).unwrap(), vec![-i64::from(i32::MAX), 3], "{kind}");
        assert_eq!(session.run(&[-2]).unwrap(), vec![2 * i64::from(i32::MAX), -6], "{kind}");
    }
}
