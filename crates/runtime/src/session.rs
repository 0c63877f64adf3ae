//! The serving session: one matrix, one planned engine, one front door.
//!
//! A [`Session`] is the unit every entry point in the repo serves
//! through — the TCP server's per-matrix state (and so the CLI's
//! `serve`), the examples, the benchmark, and the tests. It is a value:
//! the plan and a handle to the engine [`spec::build`] made for it. It
//! counts nothing — whoever serves through it counts what it served, as
//! the TCP server does in its `Stats`. It owns no threads — batches are cut into row-range shards
//! and served by the one worker pool of the process, which every session
//! shares — so building one spawns nothing and dropping one joins
//! nothing. One submission surface:
//!
//! * [`Session::run`] — one product `o = aᵀV`, computed directly on the
//!   engine (no pool round trip: a single vector should not pay batch
//!   overhead);
//! * [`Session::run_block`] — a batch: a flat [`FrameBlock`] sharded
//!   across the pool into a caller-owned [`RowBlock`], with per-batch
//!   timing and no per-row allocation.
//!
//! Rule of thumb: `run` for one vector, `run_block` for batches (hold
//! the blocks, reuse them). Both reach the same engine kernel
//! ([`GemvBackend::run_rows`]).
//!
//! Construction is a builder ([`Session::builder`]): pick an
//! [`EngineSpec`] (default: [`EngineSpec::auto`], planned from the matrix
//! itself) and `build()`. The plan that chose the engine stays attached
//! ([`Session::plan`]) so operators can always ask *why* this engine is
//! serving.
//!
//! ```
//! use smm_core::matrix::IntMatrix;
//! use smm_runtime::Session;
//!
//! let v = IntMatrix::from_vec(2, 2, vec![1, -2, 3, 4]).unwrap();
//! let session = Session::builder(v).build().unwrap();
//! assert_eq!(session.run(&[5, 6]).unwrap(), vec![23, 14]);
//! // The plan names the engine it chose, and why.
//! assert!(session.plan().rationale.contains(session.engine().name()));
//! ```

use crate::backend::{BitSerial, GemvBackend};
use crate::cache::MultiplierCache;
use crate::plan::{self, EnginePlan, PlanPolicy};
use crate::pool::{self, Job};
use crate::spec::{self, EngineSpec};
use smm_core::block::{FrameBlock, RowBlock};
use smm_core::error::{Error, Result};
use smm_core::matrix::IntMatrix;
use smm_core::wire::MatrixBody;
use smm_telemetry::{SpanRecorder, Stage};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timing of one served batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchStats {
    /// Vectors in the batch.
    pub batch: usize,
    /// Shards the batch was split into.
    pub shards: usize,
    /// Wall-clock time from submission to full reassembly.
    pub elapsed: Duration,
}

impl BatchStats {
    /// Served vectors per wall-clock second (0 for an empty batch).
    pub fn vectors_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 || self.batch == 0 {
            0.0
        } else {
            self.batch as f64 / secs
        }
    }
}

/// What a session's engine is built from: a dense matrix, or a matrix
/// kept as its body (what the serving fleet holds).
#[derive(Clone)]
enum Weights {
    Dense(IntMatrix),
    Body(Arc<MatrixBody>),
}

/// Configures and builds a [`Session`].
#[derive(Clone)]
pub struct SessionBuilder {
    weights: Weights,
    spec: EngineSpec,
    engine: Option<Arc<dyn GemvBackend>>,
    cache: Option<Arc<MultiplierCache>>,
    recorder: Option<SpanRecorder>,
}

impl std::fmt::Debug for SessionBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shape = match &self.weights {
            Weights::Dense(m) => (m.rows(), m.cols()),
            Weights::Body(body) => (body.rows(), body.cols()),
        };
        f.debug_struct("SessionBuilder")
            .field("matrix", &shape)
            .field("spec", &self.spec)
            .finish_non_exhaustive()
    }
}

impl SessionBuilder {
    /// The engine to build (default: [`EngineSpec::auto`], planned from
    /// the matrix).
    pub fn spec(mut self, spec: EngineSpec) -> Self {
        self.spec = spec;
        self
    }

    /// [`SessionBuilder::spec`] for the spec `policy` converts into —
    /// the serving benchmark's adapter (see [`PlanPolicy`]).
    pub fn policy(self, policy: PlanPolicy) -> Self {
        self.spec(policy.into())
    }

    /// Serves through this engine instead of building the planned one —
    /// the seam for a test's fake. The spec still plans (and supplies
    /// `threads`); the matrix is not consulted again.
    pub fn engine(mut self, engine: Arc<dyn GemvBackend>) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Compiles a `bitserial` engine through `cache` instead of afresh —
    /// the serving benchmark's adapter (see [`MultiplierCache`]). Every
    /// other engine ignores it, and the session keeps no reference to
    /// it.
    pub fn cache(mut self, cache: Arc<MultiplierCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// A per-stage telemetry sink: every served batch records its
    /// per-shard completion latencies ([`Stage::Shard`]), the
    /// straggler-to-whole-batch tail ([`Stage::Reassemble`]), and the
    /// whole compute wall time ([`Stage::Compute`]); the single-vector
    /// fast path records [`Stage::Compute`] around its `gemv`. The TCP
    /// server hands every session its one shared recorder; the default
    /// is no recording (and no timing overhead on the fast path).
    pub fn recorder(mut self, recorder: SpanRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Plans and resolves the session. No thread is spawned here: the
    /// process's worker pool starts with the first batch any session
    /// submits.
    pub fn build(self) -> Result<Session> {
        let plan = match &self.weights {
            Weights::Dense(m) => plan::plan(m, &self.spec)?,
            Weights::Body(body) => plan::plan_body(body, &self.spec)?,
        };
        let engine = match (self.engine, self.cache, self.weights) {
            (Some(engine), _, _) => engine,
            (None, Some(cache), weights) if plan.spec.kind() == "bitserial" => {
                let matrix = match weights {
                    Weights::Dense(m) => m,
                    Weights::Body(body) => body.to_matrix()?,
                };
                let circuit = cache.get_or_compile(&matrix, spec::INPUT_BITS, spec::ENCODING)?;
                Arc::new(BitSerial::new(circuit))
            }
            (None, _, Weights::Dense(m)) => spec::build(m, &plan.spec)?,
            (None, _, Weights::Body(body)) => spec::build_body(&body, &plan.spec)?,
        };
        let threads = match plan.spec.threads {
            0 => pool::cores(),
            n => n,
        };
        Ok(Session {
            plan,
            engine,
            threads,
            recorder: self.recorder,
        })
    }
}

/// One matrix behind one planned engine — the unified serving surface.
/// See the [crate docs](crate).
///
/// The matrix itself is not retained: the engine holds whatever
/// representation it needs (dense copy, CSR, compiled circuit), so a
/// server with many loaded matrices pays for one representation each,
/// not two. Shape is available via [`Session::rows`]/[`Session::cols`].
pub struct Session {
    plan: EnginePlan,
    engine: Arc<dyn GemvBackend>,
    /// The plan's `threads`, resolved (0 = one per core): the most
    /// shards one batch is cut into.
    threads: usize,
    /// Per-stage telemetry sink (see [`SessionBuilder::recorder`]).
    recorder: Option<SpanRecorder>,
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
        Self::builder_over(Weights::Dense(matrix))
    }

    /// Starts configuring a session over a matrix kept as its body: the
    /// plan reads the body's counts, a `csr` engine builds from its
    /// non-zeros, and any other engine decodes the dense matrix once
    /// (`spec::build_body`).
    pub fn builder_body(body: Arc<MatrixBody>) -> SessionBuilder {
        Self::builder_over(Weights::Body(body))
    }

    fn builder_over(weights: Weights) -> SessionBuilder {
        SessionBuilder {
            weights,
            spec: EngineSpec::auto(),
            engine: None,
            cache: None,
            recorder: None,
        }
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
        &self.engine
    }

    /// The plan that chose the engine, rationale included.
    pub fn plan(&self) -> &EnginePlan {
        &self.plan
    }

    /// The most shards one batch is cut into (the spec's `threads`,
    /// with 0 resolved to one per core).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Computes one product `o = aᵀV` directly on the engine — the
    /// single-vector fast path. No `Arc`, no channel hop, no worker
    /// wakeup: a lone vector (the server's single `Gemv` opcode) must
    /// not pay batch overhead.
    pub fn run(&self, a: &[i32]) -> Result<Vec<i64>> {
        match &self.recorder {
            // With telemetry attached the single pays one Instant pair
            // around the engine call — its whole compute is one stage.
            Some(rec) => {
                let started = Instant::now();
                let out = self.engine().gemv(a)?;
                rec.record(Stage::Compute, started.elapsed());
                Ok(out)
            }
            None => self.engine().gemv(a),
        }
    }

    /// Executes one flat batch, sharded by contiguous row ranges across
    /// the process's worker pool, writing the outputs in submission
    /// order into the caller-owned `out` block (reshaped to
    /// `frames x cols`, reusing its allocation) — the serving hot path.
    ///
    /// Accepts a [`FrameBlock`] or an `Arc<FrameBlock>` — callers that
    /// re-submit the same batch should pass `Arc::clone(&frames)` so no
    /// request data is copied per call. Excluding the caller-owned
    /// blocks, the whole call performs a constant number of heap
    /// allocations (one flat row buffer per shard), independent of batch
    /// size.
    ///
    /// The batch is split into [`Session::threads`] balanced shards
    /// (fewer for small batches). The first shard error, if any, is
    /// returned after all shards settle; `out` holds unspecified
    /// contents on error. An empty batch is valid and produces an empty
    /// block.
    pub fn run_block(
        &self,
        frames: impl Into<Arc<FrameBlock>>,
        out: &mut RowBlock,
    ) -> Result<BatchStats> {
        let start = Instant::now();
        let frames: Arc<FrameBlock> = frames.into();
        let n = frames.frames();
        out.reset(n, self.cols())?;
        if n == 0 {
            return Ok(BatchStats {
                batch: 0,
                shards: 0,
                elapsed: start.elapsed(),
            });
        }
        // One uniform width makes the whole-batch shape check O(1); the
        // engines still validate value ranges shard-side.
        if frames.width() != self.rows() {
            return Err(Error::DimensionMismatch {
                context: format!(
                    "frame width {} vs matrix rows {}",
                    frames.width(),
                    self.rows()
                ),
            });
        }
        let queue = pool::queue()?;
        let shards = self.threads.min(n);
        let (reply_tx, reply_rx) = channel();
        // Balanced contiguous shards: the first `n % shards` get one
        // extra vector.
        let base = n / shards;
        let extra = n % shards;
        let mut cursor = 0usize;
        for s in 0..shards {
            let len = base + usize::from(s < extra);
            let job = Job {
                engine: Arc::clone(&self.engine),
                frames: Arc::clone(&frames),
                start: cursor,
                end: cursor + len,
                submitted: start,
                reply: reply_tx.clone(),
            };
            cursor += len;
            queue.send(job).map_err(|_| pool_gone())?;
        }
        drop(reply_tx);

        let mut first_error: Option<Error> = None;
        // A shard's completion latency is stamped by its worker, so one
        // that finishes while the reassembler is copying another reply
        // still reports its true latency.
        let mut completed: Vec<Duration> = Vec::with_capacity(shards);
        for _ in 0..shards {
            let reply = reply_rx.recv().map_err(|_| pool_gone())?;
            completed.push(reply.completed);
            match reply.rows {
                Ok(rows) => out.rows_mut(reply.start, reply.end).copy_from_slice(&rows),
                Err(e) => first_error = first_error.or(Some(e)),
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        let elapsed = start.elapsed();
        if let Some(rec) = &self.recorder {
            // The interior of the pipeline's compute stage, recorded
            // here because only the session sees the shard boundaries.
            let mut slowest = Duration::ZERO;
            for &shard in &completed {
                rec.record(Stage::Shard, shard);
                slowest = slowest.max(shard);
            }
            rec.record(Stage::Reassemble, elapsed.saturating_sub(slowest));
            rec.record(Stage::Compute, elapsed);
        }
        Ok(BatchStats {
            batch: n,
            shards,
            elapsed,
        })
    }
}

/// A job or a reply could not be delivered. Workers never exit while the
/// process lives, so this is unreachable short of a bug; it is typed so
/// that such a bug is an error reply, not a panic or a hung caller.
fn pool_gone() -> Error {
    Error::Runtime {
        context: "worker pool is not serving".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_core::generate::{element_sparse_matrix, random_vector};
    use smm_core::gemv::vecmat;
    use smm_core::rng::seeded;

    /// Nested rows through [`Session::run_block`] and back.
    fn serve(session: &Session, batch: &[Vec<i32>]) -> Result<(Vec<Vec<i64>>, BatchStats)> {
        let mut out = RowBlock::new();
        let stats = session.run_block(FrameBlock::from_rows(batch)?, &mut out)?;
        Ok((out.into(), stats))
    }

    fn sparse(seed: u64, dim: usize, sparsity: f64) -> IntMatrix {
        let mut rng = seeded(seed);
        element_sparse_matrix(dim, dim, 8, sparsity, true, &mut rng).unwrap()
    }

    fn random_batch(n: usize, dim: usize, seed: u64) -> Vec<Vec<i32>> {
        let mut rng = seeded(seed);
        (0..n)
            .map(|_| random_vector(dim, 8, true, &mut rng).unwrap())
            .collect()
    }

    fn reference(batch: &[Vec<i32>], v: &IntMatrix) -> Vec<Vec<i64>> {
        batch.iter().map(|a| vecmat(a, v).unwrap()).collect()
    }

    /// A dense session over the `dim x dim` identity, which echoes its
    /// inputs, cutting batches into at most `threads` shards.
    fn echo(dim: usize, threads: usize) -> Session {
        let v = IntMatrix::identity(dim).unwrap();
        Session::builder(v)
            .spec(EngineSpec::dense().threads(threads))
            .build()
            .unwrap()
    }

    #[test]
    fn auto_session_serves_bit_identically() {
        let v = sparse(2900, 20, 0.9);
        let session = Session::builder(v.clone()).build().unwrap();
        assert_eq!(session.engine().name(), "csr");
        let mut rng = seeded(2901);
        let a = random_vector(20, 8, true, &mut rng).unwrap();
        assert_eq!(session.run(&a).unwrap(), vecmat(&a, &v).unwrap());
        let batch = random_batch(7, 20, 2911);
        assert_eq!(serve(&session, &batch).unwrap().0, reference(&batch, &v));
    }

    #[test]
    fn single_vector_fast_path_skips_the_dispatcher() {
        let rec = SpanRecorder::new();
        let session = Session::builder(IntMatrix::identity(4).unwrap())
            .recorder(rec.clone())
            .build()
            .unwrap();
        for round in 1..=3u64 {
            assert_eq!(session.run(&[1, 2, 3, 4]).unwrap(), vec![1, 2, 3, 4]);
            let stats = rec.stage_stats();
            assert_eq!(stats[Stage::Compute.idx()].count, round);
            // A single is one compute: no shard was cut, none reassembled.
            assert_eq!(stats[Stage::Shard.idx()].count, 0);
            assert_eq!(stats[Stage::Reassemble.idx()].count, 0);
        }
    }

    #[test]
    fn run_block_serves_bit_identically_and_reuses_the_output() {
        let v = sparse(2907, 16, 0.7);
        let batch = random_batch(10, 16, 2908);
        let expect = reference(&batch, &v);
        let frames = Arc::new(FrameBlock::try_from(batch.as_slice()).unwrap());
        let mut out = RowBlock::new();
        for spec in [
            EngineSpec::dense(),
            EngineSpec::csr(),
            EngineSpec::bitserial().threads(2),
        ] {
            let session = Session::builder(v.clone())
                .spec(spec.clone())
                .build()
                .unwrap();
            // Two rounds into the same block: no stale rows.
            for _ in 0..2 {
                let stats = session.run_block(Arc::clone(&frames), &mut out).unwrap();
                assert_eq!(stats.batch, 10);
                assert_eq!(Vec::<Vec<i64>>::from(&out), expect, "{spec:?}");
            }
        }
    }

    #[test]
    fn every_spec_serves_the_same_outputs() {
        let v = sparse(2902, 14, 0.6);
        let batch = random_batch(9, 14, 2903);
        let expect = reference(&batch, &v);
        for spec in [
            EngineSpec::dense(),
            EngineSpec::csr(),
            EngineSpec::bitserial().threads(2),
        ] {
            let session = Session::builder(v.clone())
                .spec(spec.clone())
                .build()
                .unwrap();
            assert_eq!(session.engine().name(), spec.kind());
            assert_eq!(serve(&session, &batch).unwrap().0, expect, "{spec:?}");
        }
    }

    #[test]
    fn shared_cache_compiles_once_across_sessions() {
        let v = sparse(2906, 12, 0.8);
        let cache = Arc::new(MultiplierCache::new());
        let circuit = || {
            cache
                .get_or_compile(&v, spec::INPUT_BITS, spec::ENCODING)
                .unwrap()
        };
        let sessions: Vec<Session> = (0..3)
            .map(|_| {
                Session::builder(v.clone())
                    .spec(EngineSpec::bitserial())
                    .cache(Arc::clone(&cache))
                    .build()
                    .unwrap()
            })
            .collect();
        assert!(sessions.iter().all(|s| s.engine().name() == "bitserial"));
        // One circuit: the table's reference, one per session, this one.
        assert_eq!(Arc::strong_count(&circuit()), 5);
        // A fresh auto session over the same cache plans from the matrix
        // alone: the resident circuit is neither chosen nor held; and a
        // bit-serial session without the cache compiles its own.
        let auto = Session::builder(v.clone())
            .cache(Arc::clone(&cache))
            .build()
            .unwrap();
        assert_eq!(auto.engine().name(), "csr");
        let own = Session::builder(v.clone())
            .spec(EngineSpec::bitserial())
            .build()
            .unwrap();
        assert_eq!(own.engine().name(), "bitserial");
        assert_eq!(Arc::strong_count(&circuit()), 5);
        drop(sessions);
        assert_eq!(Arc::strong_count(&circuit()), 2);
    }

    #[test]
    fn recorder_times_singles_and_batches() {
        let rec = SpanRecorder::new();
        let session = Session::builder(IntMatrix::identity(4).unwrap())
            .recorder(rec.clone())
            .build()
            .unwrap();
        session.run(&[1, 2, 3, 4]).unwrap();
        serve(&session, &vec![vec![1, 2, 3, 4]; 6]).unwrap();
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
        // Unknown explicit kind. (A compile that cannot succeed — a zero
        // operand width — is refused by `FixedMatrixMultiplier::compile`
        // and by the cache in front of it: `errors_are_not_cached`.)
        assert!(Session::builder(IntMatrix::identity(2).unwrap())
            .spec(EngineSpec::new("tpu"))
            .build()
            .is_err());
    }

    #[test]
    fn dimension_errors_propagate_through_run() {
        let session = Session::builder(IntMatrix::identity(4).unwrap())
            .build()
            .unwrap();
        assert!(session.run(&[1, 2]).is_err());
        assert!(serve(&session, &[vec![1; 3]]).is_err());
        // The session survives the error.
        assert_eq!(session.run(&[1, 2, 3, 4]).unwrap(), vec![1, 2, 3, 4]);
    }

    // The batch path: sharding, reassembly, timing.

    #[test]
    fn preserves_submission_order_across_threads() {
        // An identity matrix echoes inputs, making order mistakes visible.
        let session = echo(8, 4);
        let batch: Vec<Vec<i32>> = (0..97i32)
            .map(|i| (0..8).map(|j| (i * 8 + j) % 128).collect())
            .collect();
        let expect: Vec<Vec<i64>> = batch
            .iter()
            .map(|a| a.iter().map(|&x| i64::from(x)).collect())
            .collect();
        let (outputs, stats) = serve(&session, &batch).unwrap();
        assert_eq!(outputs, expect);
        assert_eq!(stats.batch, 97);
        assert_eq!(stats.shards, 4);
        assert!(stats.vectors_per_sec() > 0.0);
    }

    #[test]
    fn all_backends_and_thread_counts_agree() {
        let mut rng = seeded(2300);
        let v = element_sparse_matrix(16, 12, 8, 0.6, true, &mut rng).unwrap();
        let batch = random_batch(13, 16, 2301);
        let expect = reference(&batch, &v);
        for kind in crate::spec::BUILTIN_KINDS {
            for threads in [1usize, 2, 5] {
                let spec = EngineSpec::new(kind).threads(threads);
                let session = Session::builder(v.clone())
                    .spec(spec.clone())
                    .build()
                    .unwrap();
                let (outputs, stats) = serve(&session, &batch).unwrap();
                assert_eq!(outputs, expect, "{spec:?}");
                assert_eq!(stats.shards, threads, "{spec:?}");
            }
        }
    }

    #[test]
    fn empty_and_singleton_batches() {
        let session = echo(4, 3);
        let (outputs, stats) = serve(&session, &[]).unwrap();
        assert!(outputs.is_empty());
        assert_eq!(stats.batch, 0);
        assert_eq!(stats.vectors_per_sec(), 0.0);
        let (outputs, stats) = serve(&session, &[vec![9, 8, 7, 6]]).unwrap();
        assert_eq!(outputs, vec![vec![9, 8, 7, 6]]);
        assert_eq!(stats.shards, 1);
    }

    #[test]
    fn errors_surface_and_pool_survives() {
        let v = sparse(2302, 8, 0.5);
        let spec = EngineSpec::dense().threads(2);
        let session = Session::builder(v.clone()).spec(spec).build().unwrap();
        // A batch of the wrong width fails...
        assert!(serve(&session, &random_batch(6, 3, 2303)).is_err());
        // ...but the session keeps serving afterwards.
        let good = random_batch(6, 8, 2304);
        assert_eq!(serve(&session, &good).unwrap().0, reference(&good, &v));
    }

    #[test]
    fn dispatch_block_reuses_the_output_block_across_batches() {
        let mut rng = seeded(2305);
        let v = element_sparse_matrix(12, 7, 8, 0.5, true, &mut rng).unwrap();
        let spec = EngineSpec::csr().threads(3);
        let session = Session::builder(v.clone()).spec(spec).build().unwrap();
        let mut out = RowBlock::new();
        for batch_size in [11usize, 4, 0, 9] {
            let batch = random_batch(batch_size, 12, 2306 + batch_size as u64);
            let frames = Arc::new(FrameBlock::try_from(batch.as_slice()).unwrap());
            let stats = session.run_block(Arc::clone(&frames), &mut out).unwrap();
            assert_eq!(stats.batch, batch_size);
            assert_eq!((out.rows(), out.width()), (batch_size, 7));
            for (i, a) in batch.iter().enumerate() {
                assert_eq!(out.row(i), vecmat(a, &v).unwrap(), "row {i} of {batch_size}");
            }
        }
        // A width mismatch is refused before any shard is submitted.
        let wrong = FrameBlock::from_rows(&[vec![1; 5]]).unwrap();
        assert!(session.run_block(wrong, &mut out).is_err());
    }

    #[test]
    fn shard_latency_is_stamped_at_worker_completion() {
        /// Sleeps only for the shard holding the batch's last row, so
        /// every earlier shard finishes at once while the batch as a
        /// whole waits. (The last, not the first: the workers are shared
        /// and may be one, and a fast shard queued behind the sleeper
        /// would measure the queue, not the stamp.)
        struct SlowLastShard;
        impl GemvBackend for SlowLastShard {
            fn name(&self) -> &'static str {
                "slow-last-shard"
            }
            fn rows(&self) -> usize {
                2
            }
            fn cols(&self) -> usize {
                2
            }
            fn run_rows(
                &self,
                frames: &FrameBlock,
                start: usize,
                end: usize,
                out: &mut [i64],
            ) -> Result<()> {
                crate::backend::check_shard(frames, start, end, 2, out.len())?;
                if end == frames.frames() {
                    std::thread::sleep(Duration::from_millis(200));
                }
                Ok(())
            }
        }
        let rec = SpanRecorder::new();
        let session = Session::builder(IntMatrix::identity(2).unwrap())
            .engine(Arc::new(SlowLastShard))
            .spec(EngineSpec::dense().threads(2))
            .recorder(rec.clone())
            .build()
            .unwrap();
        let frames = Arc::new(FrameBlock::from_rows(&vec![vec![0, 0]; 10]).unwrap());
        let mut out = RowBlock::new();
        let stats = session.run_block(frames, &mut out).unwrap();
        assert_eq!(stats.shards, 2);
        // The fast shard's latency is its own completion time, not the
        // time the batch was reassembled: of the two `Stage::Shard`
        // stamps the lower stays far below the slow shard's sleep even
        // though the whole batch took at least that long. The margin
        // (half the sleep, read at a log₂ bucket's midpoint) is what a
        // sibling test's shards ahead of it in the shared queue may cost.
        assert!(stats.elapsed >= Duration::from_millis(200), "{stats:?}");
        let shard = rec.stage_stats()[Stage::Shard.idx()];
        assert_eq!(shard.count, 2);
        assert!(shard.p50_ns < 100_000_000, "{shard:?}");
        assert!(shard.p99_ns >= 200_000_000, "{shard:?}");
    }

    #[test]
    fn latency_percentiles_are_ordered_and_bounded() {
        let rec = SpanRecorder::new();
        let session = Session::builder(IntMatrix::identity(6).unwrap())
            .spec(EngineSpec::dense().threads(3))
            .recorder(rec.clone())
            .build()
            .unwrap();
        serve(&session, &vec![vec![1, 2, 3, 4, 5, 6]; 50]).unwrap();
        let stats = rec.stage_stats();
        let (shard, compute) = (stats[Stage::Shard.idx()], stats[Stage::Compute.idx()]);
        assert!(shard.p50_ns > 0);
        assert!(shard.p50_ns <= shard.p99_ns, "{shard:?}");
        // Completion latencies are measured inside the batch window.
        assert!(shard.p99_ns <= compute.p99_ns, "{shard:?} vs {compute:?}");
        // Empty batches stamp nothing.
        serve(&session, &[]).unwrap();
        assert_eq!(rec.stage_stats()[Stage::Shard.idx()].count, 3);
    }

    #[test]
    fn recorder_sees_shard_reassembly_and_compute_stages() {
        // (The nearest-rank percentile math itself is pinned by
        // smm-telemetry's own tests; this covers the session's use.)
        let rec = SpanRecorder::new();
        let session = Session::builder(IntMatrix::identity(6).unwrap())
            .spec(EngineSpec::dense().threads(3))
            .recorder(rec.clone())
            .build()
            .unwrap();
        serve(&session, &vec![vec![1, 2, 3, 4, 5, 6]; 12]).unwrap();
        serve(&session, &vec![vec![1, 2, 3, 4, 5, 6]; 2]).unwrap();
        let stats = rec.stage_stats();
        // 3 shards + 2 shards; one reassembly and one compute per batch.
        assert_eq!(stats[Stage::Shard.idx()].count, 5);
        assert_eq!(stats[Stage::Reassemble.idx()].count, 2);
        assert_eq!(stats[Stage::Compute.idx()].count, 2);
        assert!(stats[Stage::Compute.idx()].p99_ns > 0);
        // Failed batches record nothing.
        assert!(serve(&session, &[vec![1]]).is_err());
        assert_eq!(rec.stage_stats()[Stage::Compute.idx()].count, 2);
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let session = echo(2, 0);
        assert_eq!(session.plan().spec.threads, 0);
        assert_eq!(session.threads(), pool::cores());
        assert_eq!(serve(&session, &[vec![1, 2]]).unwrap().0, vec![vec![1, 2]]);
    }
}
