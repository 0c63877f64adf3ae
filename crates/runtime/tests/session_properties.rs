//! Property-based tests of the `Session` API: for any matrix shape,
//! sparsity, and batch, every `EngineSpec` — and the auto plan — serves
//! bit-identical results. The session is the one front door every entry
//! point uses, so cross-backend agreement here is the serving stack's
//! correctness contract. Sessions own no threads, so the same holds
//! under concurrent submitters, whether they share a session or not.

use proptest::prelude::*;
use smm_core::generate::{element_sparse_matrix, random_vector};
use smm_core::gemv::vecmat;
use smm_core::matrix::IntMatrix;
use smm_core::rng::seeded;
use smm_runtime::{EngineSpec, FrameBlock, MultiplierCache, PlanPolicy, RowBlock, Session};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `Session::run_block` is bit-identical to the dense reference under
    /// every engine spec, and under the auto plan, for any shape,
    /// sparsity, batch size, and thread count.
    #[test]
    fn run_batch_is_bit_identical_under_every_spec(
        seed in any::<u64>(),
        rows in 1usize..20,
        cols in 1usize..16,
        sparsity in 0.0f64..=1.0,
        batch_size in 0usize..12,
        threads in 1usize..4,
    ) {
        let mut rng = seeded(seed);
        let v = element_sparse_matrix(rows, cols, 8, sparsity, true, &mut rng).unwrap();
        let batch: Vec<Vec<i32>> = (0..batch_size)
            .map(|_| random_vector(rows, 8, true, &mut rng).unwrap())
            .collect();
        let expect: Vec<Vec<i64>> =
            batch.iter().map(|a| vecmat(a, &v).unwrap()).collect();
        let frames = Arc::new(FrameBlock::from_rows(&batch).unwrap());
        let mut out = RowBlock::new();

        let cache = Arc::new(MultiplierCache::new());
        let mut specs = vec![
            EngineSpec::dense().threads(threads),
            EngineSpec::csr().threads(threads),
            EngineSpec::bitserial().threads(threads),
            EngineSpec::sigma().threads(threads),
        ];
        // Exercise the planner too: whatever engine it picks must agree.
        let auto = Session::builder(v.clone())
            .cache(Arc::clone(&cache))
            .build()
            .unwrap();
        specs.push(auto.plan().spec.clone());
        auto.run_block(Arc::clone(&frames), &mut out).unwrap();
        prop_assert_eq!(Vec::<Vec<i64>>::from(&out), expect.clone());

        for spec in specs {
            let session = Session::builder(v.clone())
                .spec(spec.clone())
                .cache(Arc::clone(&cache))
                .build()
                .unwrap();
            let stats = session.run_block(Arc::clone(&frames), &mut out).unwrap();
            prop_assert_eq!(&Vec::<Vec<i64>>::from(&out), &expect, "spec {:?}", spec);
            prop_assert_eq!(stats.batch, batch_size);
        }
        // One matrix, one compile: every bit-serial session shared it.
        prop_assert!(cache.stats().misses <= 1);
    }

    // The run == run_block == run_rows == wire cross-engine identity
    // property lives in the workspace-level conformance harness
    // (`tests/engine_conformance.rs`), which drives every registered
    // engine kind through one table.

    /// Explicit policy always beats the planner's own preference.
    #[test]
    fn explicit_policy_always_wins(seed in any::<u64>(), sparsity in 0.0f64..=1.0) {
        let mut rng = seeded(seed);
        let v = element_sparse_matrix(10, 10, 8, sparsity, true, &mut rng).unwrap();
        for kind in ["dense", "csr", "bitserial"] {
            let session = Session::builder(v.clone())
                .policy(PlanPolicy::Explicit(EngineSpec::new(kind)))
                .build()
                .unwrap();
            prop_assert_eq!(session.engine().name(), kind);
            prop_assert_eq!(session.plan().cost_ns, 0.0);
        }
    }
}

/// One submitter thread per listed session, 10 batches each over an
/// identity matrix (which echoes its input, making a lost or reordered
/// row visible): every batch must come back complete and in order.
fn hammer(sessions: &[Arc<Session>]) {
    std::thread::scope(|submitters| {
        for (t, session) in sessions.iter().enumerate() {
            submitters.spawn(move || {
                let t = t as i32;
                let batch: Vec<Vec<i32>> = (0..25i32)
                    .map(|i| (0..8).map(|j| t * 1000 + i * 8 + j).collect())
                    .collect();
                let expect: Vec<Vec<i64>> = batch
                    .iter()
                    .map(|a| a.iter().map(|&x| i64::from(x)).collect())
                    .collect();
                let frames = Arc::new(FrameBlock::from_rows(&batch).unwrap());
                let mut out = RowBlock::new();
                for _ in 0..10 {
                    session.run_block(Arc::clone(&frames), &mut out).unwrap();
                    assert_eq!(Vec::<Vec<i64>>::from(&out), expect);
                }
            });
        }
    });
}

#[test]
fn concurrent_submitters_lose_and_reorder_nothing() {
    let echo = || {
        let spec = EngineSpec::dense().threads(4);
        Arc::new(
            Session::builder(IntMatrix::identity(8).unwrap())
                .spec(spec)
                .build()
                .unwrap(),
        )
    };
    // Four submitters over one session, then over four: both shapes
    // queue on the same workers.
    hammer(&vec![echo(); 4]);
    let own: Vec<Arc<Session>> = (0..4).map(|_| echo()).collect();
    hammer(&own);
}
