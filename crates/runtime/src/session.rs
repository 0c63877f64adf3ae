//! The serving session: one matrix, one planned engine, one front door.
//!
//! A [`Session`] is the unit every entry point in the repo serves
//! through — the CLI's `throughput`/`serve`/`loadgen`, the TCP server's
//! per-matrix state, the examples, and the tests. It owns the resolved
//! engine (built through an [`EngineRegistry`]), the shared
//! [`MultiplierCache`], and a [`Dispatcher`] worker pool, and exposes one
//! submission surface:
//!
//! * [`Session::run`] — one product `o = aᵀV`, computed directly on the
//!   engine (no dispatcher round trip: a single vector should not pay
//!   batch overhead);
//! * [`Session::run_block`] — a batch: a flat [`FrameBlock`] sharded
//!   across the pool into a caller-owned [`RowBlock`], with per-batch
//!   timing and no per-row allocation;
//! * [`Session::stats`] — cache, dispatcher, and fast-path counters in
//!   one struct.
//!
//! Rule of thumb: `run` for one vector, `run_block` for batches (hold
//! the blocks, reuse them). Both reach the same engine kernel
//! ([`GemvBackend::run_rows`]).
//!
//! Construction is a builder ([`Session::builder`]): pick a
//! [`PlanPolicy`] (default: auto-plan from the matrix itself), optionally
//! share a cache or a custom registry, and `build()`. The plan that chose
//! the engine stays attached ([`Session::plan`]) so operators can always
//! ask *why* this engine is serving.
//!
//! ```
//! use smm_core::matrix::IntMatrix;
//! use smm_runtime::Session;
//!
//! let v = IntMatrix::from_vec(2, 2, vec![1, -2, 3, 4]).unwrap();
//! let session = Session::auto(v).unwrap();
//! assert_eq!(session.run(&[5, 6]).unwrap(), vec![23, 14]);
//! assert_eq!(session.plan().spec.kind(), session.engine().name());
//! ```

use crate::backend::GemvBackend;
use crate::cache::{CacheStats, MultiplierCache};
use crate::dispatch::{BatchStats, Dispatcher, DispatcherConfig, DispatcherStats};
use crate::plan::{EnginePlan, PlanPolicy, Planner};
use crate::spec::{EngineRegistry, EngineSpec};
use smm_core::block::{FrameBlock, RowBlock};
use smm_core::error::Result;
use smm_core::matrix::IntMatrix;
use smm_telemetry::{SpanRecorder, Stage};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Cache + dispatcher + fast-path counters of one session, in one struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Compiled-multiplier cache counters (shared across sessions when
    /// the cache is).
    pub cache: CacheStats,
    /// Served-work counters of this session's worker pool (batches only;
    /// single-vector products never enter the pool).
    pub dispatcher: DispatcherStats,
    /// Single-vector products served on the [`Session::run`] fast path.
    pub singles: u64,
}

/// Configures and builds a [`Session`].
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    matrix: IntMatrix,
    policy: PlanPolicy,
    registry: Arc<EngineRegistry>,
    cache: Option<Arc<MultiplierCache>>,
    recorder: Option<SpanRecorder>,
}

impl SessionBuilder {
    /// How the engine is chosen (default: auto-plan from the matrix).
    pub fn policy(mut self, policy: PlanPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Shorthand for an explicit-spec policy.
    pub fn spec(self, spec: EngineSpec) -> Self {
        self.policy(PlanPolicy::Explicit(spec))
    }

    /// The engine factories to resolve through (default: the built-ins).
    pub fn registry(mut self, registry: Arc<EngineRegistry>) -> Self {
        self.registry = registry;
        self
    }

    /// A shared compiled-multiplier cache. Long-lived callers serving
    /// many matrices (the TCP server) share one cache across every
    /// session; the default is a fresh unbounded cache per session.
    pub fn cache(mut self, cache: Arc<MultiplierCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// A per-stage telemetry sink: batches record shard / reassembly /
    /// compute stage latencies through the dispatcher, and the
    /// single-vector fast path records [`Stage::Compute`] around its
    /// `gemv`. The TCP server hands every session its one shared
    /// recorder; the default is no recording (and no timing overhead on
    /// the fast path).
    pub fn recorder(mut self, recorder: SpanRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Plans, resolves, and spawns the session.
    pub fn build(self) -> Result<Session> {
        let cache = self.cache.unwrap_or_default();
        let plan = Planner::new(&self.registry).plan(&self.matrix, &self.policy, &cache)?;
        let engine = self.registry.build(&self.matrix, &plan.spec, &cache)?;
        let config = DispatcherConfig::new(plan.spec.threads);
        let dispatcher = match self.recorder.clone() {
            Some(rec) => Dispatcher::with_recorder(Arc::clone(&engine), config, rec)?,
            None => Dispatcher::new(Arc::clone(&engine), config)?,
        };
        Ok(Session {
            plan,
            cache,
            dispatcher,
            recorder: self.recorder,
            singles: AtomicU64::new(0),
        })
    }
}

/// One matrix behind one planned engine and worker pool — the unified
/// serving surface. See the [module docs](crate::session).
///
/// The matrix itself is not retained: the engine holds whatever
/// representation it needs (dense copy, CSR, compiled circuit), so a
/// server with many loaded matrices pays for one representation each,
/// not two. Shape is available via [`Session::rows`]/[`Session::cols`].
pub struct Session {
    plan: EnginePlan,
    cache: Arc<MultiplierCache>,
    dispatcher: Dispatcher,
    /// Per-stage telemetry sink shared with the dispatcher, used by the
    /// single-vector fast path to time its compute.
    recorder: Option<SpanRecorder>,
    /// Single-vector products served on the [`Session::run`] fast path.
    singles: AtomicU64,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("matrix", &(self.rows(), self.cols()))
            .field("engine", &self.engine().name())
            .field("threads", &self.threads())
            .finish()
    }
}

impl Session {
    /// Starts configuring a session over `matrix`.
    pub fn builder(matrix: IntMatrix) -> SessionBuilder {
        SessionBuilder {
            matrix,
            policy: PlanPolicy::default(),
            registry: Arc::new(EngineRegistry::builtin()),
            cache: None,
            recorder: None,
        }
    }

    /// An auto-planned session with all defaults.
    pub fn auto(matrix: IntMatrix) -> Result<Session> {
        Self::builder(matrix).build()
    }

    /// A session serving through exactly this engine spec.
    pub fn with_spec(matrix: IntMatrix, spec: EngineSpec) -> Result<Session> {
        Self::builder(matrix).spec(spec).build()
    }

    /// Matrix rows — the required input-vector length.
    pub fn rows(&self) -> usize {
        self.engine().rows()
    }

    /// Matrix columns — the produced output-vector length.
    pub fn cols(&self) -> usize {
        self.engine().cols()
    }

    /// The live engine, shareable with consumers that take an
    /// `Arc<dyn GemvBackend>` (e.g. the integer reservoir's
    /// `attach_backend`).
    pub fn engine(&self) -> &Arc<dyn GemvBackend> {
        self.dispatcher.backend()
    }

    /// The plan that chose the engine, rationale included.
    pub fn plan(&self) -> &EnginePlan {
        &self.plan
    }

    /// The compiled-multiplier cache this session compiles through.
    pub fn cache(&self) -> &Arc<MultiplierCache> {
        &self.cache
    }

    /// Worker threads in the session's pool.
    pub fn threads(&self) -> usize {
        self.dispatcher.threads()
    }

    /// Computes one product `o = aᵀV` directly on the engine — the
    /// single-vector fast path. No `Arc`, no channel hop, no worker
    /// wakeup: a lone vector (the server's single `Gemv` opcode) must
    /// not pay batch-dispatch overhead. Counted in
    /// [`SessionStats::singles`]; the dispatcher counters do not move.
    pub fn run(&self, a: &[i32]) -> Result<Vec<i64>> {
        let out = match &self.recorder {
            // With telemetry attached the single pays one Instant pair
            // around the engine call — its whole compute is one stage.
            Some(rec) => {
                let started = Instant::now();
                let out = self.engine().gemv(a)?;
                rec.record(Stage::Compute, started.elapsed());
                out
            }
            None => self.engine().gemv(a)?,
        };
        self.singles.fetch_add(1, Ordering::Relaxed);
        Ok(out)
    }

    /// Executes one flat batch, sharded by row ranges across the pool,
    /// writing outputs in submission order into the caller-owned `out`
    /// block (reshaped and reused across calls) — the serving hot path,
    /// with no per-row allocation. Accepts a [`FrameBlock`] or an
    /// `Arc<FrameBlock>`; pass `Arc::clone(&frames)` to re-dispatch
    /// without copying request data.
    pub fn run_block(
        &self,
        frames: impl Into<Arc<FrameBlock>>,
        out: &mut RowBlock,
    ) -> Result<BatchStats> {
        self.dispatcher.dispatch_block(frames, out)
    }

    /// Cache, dispatcher, and fast-path counters in one struct.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            cache: self.cache.stats(),
            dispatcher: self.dispatcher_stats(),
            singles: self.singles(),
        }
    }

    /// Single-vector products served on the [`Session::run`] fast path
    /// (these never enter the dispatcher, so they are not in
    /// [`DispatcherStats::vectors`]).
    pub fn singles(&self) -> u64 {
        self.singles.load(Ordering::Relaxed)
    }

    /// Just the served-work counters — no cache lock. Aggregators over
    /// many sessions sharing one cache read the cache once and sum
    /// these.
    pub fn dispatcher_stats(&self) -> DispatcherStats {
        self.dispatcher.snapshot()
    }

    /// Graceful teardown: joins the worker pool. `Drop` does the same;
    /// this makes a drain explicit.
    pub fn shutdown(self) {
        self.dispatcher.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_core::generate::{element_sparse_matrix, random_vector};
    use smm_core::gemv::vecmat;
    use smm_core::rng::seeded;

    /// Nested rows through [`Session::run_block`] and back.
    fn run_rows_of(session: &Session, batch: &[Vec<i32>]) -> Result<Vec<Vec<i64>>> {
        let mut out = RowBlock::new();
        session.run_block(FrameBlock::from_rows(batch)?, &mut out)?;
        Ok(out.into())
    }

    fn sparse(seed: u64, dim: usize, sparsity: f64) -> IntMatrix {
        let mut rng = seeded(seed);
        element_sparse_matrix(dim, dim, 8, sparsity, true, &mut rng).unwrap()
    }

    #[test]
    fn auto_session_serves_bit_identically() {
        let v = sparse(2900, 20, 0.9);
        let session = Session::auto(v.clone()).unwrap();
        assert_eq!(session.engine().name(), "csr");
        let mut rng = seeded(2901);
        let a = random_vector(20, 8, true, &mut rng).unwrap();
        assert_eq!(session.run(&a).unwrap(), vecmat(&a, &v).unwrap());
        let batch: Vec<Vec<i32>> = (0..7)
            .map(|_| random_vector(20, 8, true, &mut rng).unwrap())
            .collect();
        let expect: Vec<Vec<i64>> = batch.iter().map(|a| vecmat(a, &v).unwrap()).collect();
        assert_eq!(run_rows_of(&session, &batch).unwrap(), expect);
        let stats = session.stats();
        // The single went down the fast path; only the batch hit the pool.
        assert_eq!((stats.dispatcher.batches, stats.dispatcher.vectors), (1, 7));
        assert_eq!(stats.singles, 1);
    }

    #[test]
    fn single_vector_fast_path_skips_the_dispatcher() {
        let session = Session::auto(IntMatrix::identity(4).unwrap()).unwrap();
        for round in 1..=3u64 {
            assert_eq!(session.run(&[1, 2, 3, 4]).unwrap(), vec![1, 2, 3, 4]);
            let stats = session.stats();
            assert_eq!(stats.singles, round);
            // Regression: singles must not move the dispatcher counters.
            assert_eq!((stats.dispatcher.batches, stats.dispatcher.vectors), (0, 0));
        }
        // A failed single is not counted as served.
        assert!(session.run(&[1]).is_err());
        assert_eq!(session.stats().singles, 3);
    }

    #[test]
    fn run_block_serves_bit_identically_and_reuses_the_output() {
        let v = sparse(2907, 16, 0.7);
        let mut rng = seeded(2908);
        let batch: Vec<Vec<i32>> = (0..10)
            .map(|_| random_vector(16, 8, true, &mut rng).unwrap())
            .collect();
        let expect: Vec<Vec<i64>> = batch.iter().map(|a| vecmat(a, &v).unwrap()).collect();
        let frames = Arc::new(FrameBlock::try_from(batch.as_slice()).unwrap());
        let mut out = RowBlock::new();
        for spec in [EngineSpec::dense(), EngineSpec::csr(), EngineSpec::bitserial().threads(2)] {
            let session = Session::with_spec(v.clone(), spec.clone()).unwrap();
            // Two rounds into the same block: no stale rows, stats count.
            for _ in 0..2 {
                let stats = session.run_block(Arc::clone(&frames), &mut out).unwrap();
                assert_eq!(stats.batch, 10);
                assert_eq!(Vec::<Vec<i64>>::from(&out), expect, "{spec}");
            }
            assert_eq!(session.stats().dispatcher.vectors, 20, "{spec}");
        }
    }

    #[test]
    fn every_spec_serves_the_same_outputs() {
        let v = sparse(2902, 14, 0.6);
        let mut rng = seeded(2903);
        let batch: Vec<Vec<i32>> = (0..9)
            .map(|_| random_vector(14, 8, true, &mut rng).unwrap())
            .collect();
        let expect: Vec<Vec<i64>> = batch.iter().map(|a| vecmat(a, &v).unwrap()).collect();
        for spec in [
            EngineSpec::dense(),
            EngineSpec::csr(),
            EngineSpec::bitserial().threads(2),
        ] {
            let session = Session::with_spec(v.clone(), spec.clone()).unwrap();
            assert_eq!(session.engine().name(), spec.kind());
            assert_eq!(run_rows_of(&session, &batch).unwrap(), expect, "{spec}");
        }
    }

    #[test]
    fn shared_cache_compiles_once_across_sessions() {
        let v = sparse(2906, 12, 0.8);
        let cache = Arc::new(MultiplierCache::new());
        for _ in 0..3 {
            let session = Session::builder(v.clone())
                .spec(EngineSpec::bitserial())
                .cache(Arc::clone(&cache))
                .build()
                .unwrap();
            assert_eq!(session.engine().name(), "bitserial");
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 2));
        // A *fresh* auto session over the same cache now plans bitserial:
        // the circuit is resident, so the compile is free.
        let session = Session::builder(v)
            .cache(Arc::clone(&cache))
            .build()
            .unwrap();
        assert_eq!(session.engine().name(), "bitserial");
        assert_eq!(session.stats().cache.misses, 1);
    }

    #[test]
    fn recorder_times_singles_and_batches() {
        let rec = SpanRecorder::new();
        let session = Session::builder(IntMatrix::identity(4).unwrap())
            .recorder(rec.clone())
            .build()
            .unwrap();
        session.run(&[1, 2, 3, 4]).unwrap();
        run_rows_of(&session, &vec![vec![1, 2, 3, 4]; 6]).unwrap();
        let stats = rec.stage_stats();
        // One compute from the single's fast path, one from the batch.
        assert_eq!(stats[Stage::Compute.idx()].count, 2);
        assert!(stats[Stage::Shard.idx()].count >= 1);
        // A failed single records nothing.
        assert!(session.run(&[1]).is_err());
        assert_eq!(rec.stage_stats()[Stage::Compute.idx()].count, 2);
    }

    #[test]
    fn build_failures_are_clean_errors() {
        // Unknown explicit kind.
        assert!(Session::with_spec(
            IntMatrix::identity(2).unwrap(),
            EngineSpec::new("tpu")
        )
        .is_err());
        // A bit-serial compile that cannot succeed (0 operand bits).
        assert!(Session::with_spec(
            IntMatrix::identity(2).unwrap(),
            EngineSpec::bitserial().input_bits(0)
        )
        .is_err());
    }

    #[test]
    fn dimension_errors_propagate_through_run() {
        let session = Session::auto(IntMatrix::identity(4).unwrap()).unwrap();
        assert!(session.run(&[1, 2]).is_err());
        assert!(run_rows_of(&session, &[vec![1; 3]]).is_err());
        // The pool survives the error.
        assert_eq!(session.run(&[1, 2, 3, 4]).unwrap(), vec![1, 2, 3, 4]);
    }
}
