//! The batch dispatcher: shards request batches across a worker pool.
//!
//! A [`Dispatcher`] owns a set of long-lived worker threads, each holding
//! a shared handle to one [`GemvBackend`]. The primary entry point is
//! [`Dispatcher::dispatch_block`]: the batch travels as one flat
//! [`FrameBlock`], each worker computes a contiguous row range in place
//! (via [`GemvBackend::run_rows`]), and the results land **in submission
//! order** in one caller-owned preallocated [`RowBlock`] — no per-row
//! `Vec`, no `Option<Vec>` reassembly buffer, a constant number of
//! allocations per batch regardless of batch size.
//!
//! Plain `std` threads and channels, no unsafe; workers park on the job
//! channel between batches, so an idle dispatcher costs nothing but
//! memory.

use crate::backend::GemvBackend;
use smm_core::block::{FrameBlock, RowBlock};
use smm_core::error::{Error, Result};
use smm_telemetry::{weighted_percentile, SpanRecorder, Stage};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A shard's reply.
struct ShardReply {
    /// The shard's half-open row range.
    start: usize,
    end: usize,
    /// Worker-side completion timestamp, measured against the batch's
    /// dispatch start *before* the reply enters the channel — so a shard
    /// that finishes early reports its true latency even when the
    /// reassembler is still busy copying earlier replies.
    completed: Duration,
    /// The shard's rows, flat row-major (`(end - start) * cols`
    /// elements) — one buffer per shard, not one per row.
    rows: Result<Vec<i64>>,
}

/// One shard of a dispatched batch.
struct Job {
    /// The whole batch (shared, immutable, flat).
    frames: Arc<FrameBlock>,
    /// This shard's half-open range of batch indices.
    start: usize,
    end: usize,
    /// When the batch was dispatched — the clock base for
    /// [`ShardReply::completed`].
    submitted: Instant,
    /// Where to deliver the reply.
    reply: Sender<ShardReply>,
}

/// Worker-pool configuration. Construct via [`DispatcherConfig::new`]
/// or [`Default`]; the struct is `#[non_exhaustive]` so future knobs
/// (shard sizing, pinning) can land without breaking callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct DispatcherConfig {
    /// Worker threads. `0` (the default) selects the machine's available
    /// parallelism.
    pub threads: usize,
}

impl DispatcherConfig {
    /// A pool of `threads` workers (0 = the machine's available
    /// parallelism).
    pub fn new(threads: usize) -> Self {
        Self { threads }
    }

    /// The resolved thread count (>= 1).
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }
    }
}

/// Timing of one dispatched batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchStats {
    /// Vectors in the batch.
    pub batch: usize,
    /// Shards the batch was split into (= busy workers).
    pub shards: usize,
    /// Wall-clock time from submission to full reassembly.
    pub elapsed: Duration,
    /// Median per-vector completion latency (submission to the vector's
    /// shard finishing, stamped worker-side), nearest-rank over the
    /// batch.
    pub p50_latency: Duration,
    /// 99th-percentile per-vector completion latency. For batches under
    /// 100 vectors this is the slowest shard's latency.
    pub p99_latency: Duration,
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

    /// Mean per-vector latency.
    pub fn mean_latency(&self) -> Duration {
        if self.batch == 0 {
            Duration::ZERO
        } else {
            self.elapsed / self.batch as u32
        }
    }
}

/// Cumulative counters of a [`Dispatcher`], for server-level stats
/// reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DispatcherStats {
    /// Batches fully served (failed dispatches are not counted).
    pub batches: u64,
    /// Vectors fully served across all batches.
    pub vectors: u64,
    /// Worker threads in the pool.
    pub threads: usize,
}

/// A multi-threaded, order-preserving batch executor over one backend.
///
/// ```
/// use smm_core::matrix::IntMatrix;
/// use smm_runtime::{DenseRef, Dispatcher, DispatcherConfig, FrameBlock, RowBlock};
/// use std::sync::Arc;
///
/// let v = IntMatrix::identity(3).unwrap();
/// let d = Dispatcher::new(Arc::new(DenseRef::new(&v)), DispatcherConfig::new(2)).unwrap();
/// let frames = FrameBlock::from_vec(2, 3, vec![1, 2, 3, 4, 5, 6]).unwrap();
/// let mut out = RowBlock::new();
/// d.dispatch_block(frames, &mut out).unwrap();
/// assert_eq!(out.as_slice(), [1, 2, 3, 4, 5, 6]);
/// ```
pub struct Dispatcher {
    backend: Arc<dyn GemvBackend>,
    job_tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    batches: AtomicU64,
    vectors: AtomicU64,
    /// Optional per-stage telemetry sink: when present, every served
    /// batch records its per-shard completion latencies
    /// ([`Stage::Shard`]), the straggler-to-whole-batch tail
    /// ([`Stage::Reassemble`]), and the whole compute wall time
    /// ([`Stage::Compute`]).
    recorder: Option<SpanRecorder>,
}

impl Dispatcher {
    /// Spawns the worker pool.
    ///
    /// Fails with [`Error::Runtime`] if the OS refuses a worker thread
    /// (e.g. an absurd thread count against a process limit); any
    /// already-spawned workers shut down cleanly when the job channel
    /// drops.
    pub fn new(backend: Arc<dyn GemvBackend>, config: DispatcherConfig) -> Result<Self> {
        Self::build(backend, config, None)
    }

    /// [`Dispatcher::new`] with a telemetry sink: served batches record
    /// shard / reassembly / compute stage latencies into `recorder`.
    pub fn with_recorder(
        backend: Arc<dyn GemvBackend>,
        config: DispatcherConfig,
        recorder: SpanRecorder,
    ) -> Result<Self> {
        Self::build(backend, config, Some(recorder))
    }

    fn build(
        backend: Arc<dyn GemvBackend>,
        config: DispatcherConfig,
        recorder: Option<SpanRecorder>,
    ) -> Result<Self> {
        let threads = config.resolved_threads();
        let (job_tx, job_rx) = channel::<Job>();
        // std's Receiver is single-consumer; share it behind a mutex so
        // idle workers race for the next shard (work stealing by proxy).
        let job_rx = Arc::new(Mutex::new(job_rx));
        let workers = (0..threads)
            .map(|i| {
                let rx = Arc::clone(&job_rx);
                let backend = Arc::clone(&backend);
                std::thread::Builder::new()
                    .name(format!("smm-runtime-worker-{i}"))
                    .spawn(move || worker_loop(&rx, backend.as_ref()))
                    .map_err(|e| Error::Runtime {
                        context: format!("spawning worker thread {i} of {threads}: {e}"),
                    })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            backend,
            job_tx: Some(job_tx),
            workers,
            batches: AtomicU64::new(0),
            vectors: AtomicU64::new(0),
            recorder,
        })
    }

    /// The backend this pool serves.
    pub fn backend(&self) -> &Arc<dyn GemvBackend> {
        &self.backend
    }

    /// Worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Cumulative served-work counters since construction.
    pub fn snapshot(&self) -> DispatcherStats {
        DispatcherStats {
            batches: self.batches.load(Ordering::Relaxed),
            vectors: self.vectors.load(Ordering::Relaxed),
            threads: self.workers.len(),
        }
    }

    /// Graceful teardown: closes the job channel and joins every worker
    /// thread. Exactly what [`Drop`] does, made explicit so callers can
    /// sequence a drain (`Drop` runs implicitly and silently; a server
    /// shutdown path reads better saying what it means).
    pub fn shutdown(mut self) {
        self.join_workers();
    }

    fn join_workers(&mut self) {
        // Closing the channel wakes every worker with `Err(Disconnected)`.
        self.job_tx = None;
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// Executes one flat batch, sharded by contiguous row ranges across
    /// the pool, writing the outputs in submission order into the
    /// caller-owned `out` block (reshaped to `frames x cols`, reusing its
    /// allocation).
    ///
    /// Accepts a [`FrameBlock`] or an `Arc<FrameBlock>` — callers that
    /// re-dispatch the same batch should pass `Arc::clone(&frames)` so no
    /// request data is copied per call. Excluding the caller-owned
    /// blocks, the whole dispatch performs a constant number of heap
    /// allocations (one flat row buffer per shard, bounded by the worker
    /// count), independent of batch size.
    ///
    /// The batch is split into one contiguous shard per worker (fewer for
    /// small batches). The first shard error, if any, is returned after
    /// all shards settle; `out` holds unspecified contents on error. An
    /// empty batch is valid and produces an empty block.
    pub fn dispatch_block(
        &self,
        frames: impl Into<Arc<FrameBlock>>,
        out: &mut RowBlock,
    ) -> Result<BatchStats> {
        let start = Instant::now();
        let frames: Arc<FrameBlock> = frames.into();
        let n = frames.frames();
        let cols = self.backend.cols();
        out.reset(n, cols)?;
        if n == 0 {
            return Ok(BatchStats {
                batch: 0,
                shards: 0,
                elapsed: start.elapsed(),
                p50_latency: Duration::ZERO,
                p99_latency: Duration::ZERO,
            });
        }
        // One uniform width makes the whole-batch shape check O(1); the
        // engines still validate value ranges shard-side.
        if frames.width() != self.backend.rows() {
            return Err(Error::DimensionMismatch {
                context: format!(
                    "frame width {} vs matrix rows {}",
                    frames.width(),
                    self.backend.rows()
                ),
            });
        }
        let shards = self.workers.len().min(n);
        let (reply_tx, reply_rx) = channel();
        // The channel is only taken by `shutdown`, which consumes the
        // dispatcher's last reference; a racing caller still gets a
        // typed error rather than a panic.
        let job_tx = self.job_tx.as_ref().ok_or_else(pool_gone)?;
        // Balanced contiguous shards: the first `n % shards` get one
        // extra vector.
        let base = n / shards;
        let extra = n % shards;
        let mut cursor = 0usize;
        for s in 0..shards {
            let len = base + usize::from(s < extra);
            let job = Job {
                frames: Arc::clone(&frames),
                start: cursor,
                end: cursor + len,
                submitted: start,
                reply: reply_tx.clone(),
            };
            cursor += len;
            job_tx.send(job).map_err(|_| pool_gone())?;
        }
        drop(reply_tx);

        let mut first_error: Option<Error> = None;
        // A vector's completion latency is stamped by its worker, so a
        // shard that finishes while the reassembler is copying another
        // reply still reports its true latency.
        let mut latencies: Vec<(Duration, usize)> = Vec::with_capacity(shards);
        for _ in 0..shards {
            let reply = reply_rx.recv().map_err(|_| pool_gone())?;
            latencies.push((reply.completed, reply.end - reply.start));
            match reply.rows {
                Ok(rows) => out.rows_mut(reply.start, reply.end).copy_from_slice(&rows),
                Err(e) => first_error = first_error.or(Some(e)),
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.vectors.fetch_add(n as u64, Ordering::Relaxed);
        let elapsed = start.elapsed();
        if let Some(rec) = &self.recorder {
            // Per-shard worker completion, the straggler-to-batch tail,
            // and the whole compute wall time — the interior of the
            // pipeline's compute stage, recorded here because only the
            // dispatcher sees the shard boundaries.
            let mut slowest = Duration::ZERO;
            for &(completed, _) in &latencies {
                rec.record(Stage::Shard, completed);
                slowest = slowest.max(completed);
            }
            rec.record(Stage::Reassemble, elapsed.saturating_sub(slowest));
            rec.record(Stage::Compute, elapsed);
        }
        Ok(BatchStats {
            batch: n,
            shards,
            elapsed,
            p50_latency: weighted_percentile(&mut latencies, 0.50),
            p99_latency: weighted_percentile(&mut latencies, 0.99),
        })
    }
}

impl Drop for Dispatcher {
    fn drop(&mut self) {
        self.join_workers();
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>, backend: &dyn GemvBackend) {
    loop {
        // Hold the lock only while *receiving*; compute unlocked. A
        // poisoned receiver (a sibling panicked mid-recv, which recv
        // itself never does) is recovered rather than silently
        // shrinking the worker pool.
        let job = smm_telemetry::lock_or_recover(rx).recv();
        let Ok(job) = job else { return };
        // One flat buffer for the whole shard; the engine writes rows in
        // place. The completion timestamp is taken before the send so the
        // reassembler's copy work cannot inflate it.
        //
        // A panicking backend is contained here: if the worker thread
        // died instead, shards still queued behind it would never be
        // served and their dispatcher would wait forever on replies that
        // cannot arrive. Catching the unwind turns the fault into an
        // ordinary shard error — the batch fails, sibling batches and
        // this worker keep going.
        let rows = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rows = vec![0i64; (job.end - job.start) * backend.cols()];
            backend
                .run_rows(&job.frames, job.start, job.end, &mut rows)
                .map(|()| rows)
        }))
        .unwrap_or_else(|panic| {
            Err(Error::Runtime {
                context: format!(
                    "backend '{}' panicked serving shard {}..{}: {}",
                    backend.name(),
                    job.start,
                    job.end,
                    panic_message(&*panic)
                ),
            })
        });
        let reply = ShardReply {
            start: job.start,
            end: job.end,
            completed: job.submitted.elapsed(),
            rows,
        };
        // A send failure means the dispatcher gave up on this batch;
        // keep serving later batches.
        let _ = job.reply.send(reply);
    }
}

/// Best-effort extraction of a panic payload's message (`panic!` with a
/// string literal or a formatted `String` covers every panic the engines
/// can raise).
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

fn pool_gone() -> Error {
    Error::Runtime {
        context: "dispatcher worker pool shut down".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BitSerial, DenseRef, SparseCsr};
    use smm_bitserial::multiplier::{FixedMatrixMultiplier, WeightEncoding};
    use smm_core::generate::{element_sparse_matrix, random_vector};
    use smm_core::gemv::vecmat;
    use smm_core::matrix::IntMatrix;
    use smm_core::rng::seeded;

    /// Nested rows through [`Dispatcher::dispatch_block`] and back.
    fn dispatch(d: &Dispatcher, batch: &[Vec<i32>]) -> Result<(Vec<Vec<i64>>, BatchStats)> {
        let mut out = RowBlock::new();
        let stats = d.dispatch_block(FrameBlock::from_rows(batch)?, &mut out)?;
        Ok((out.into(), stats))
    }

    fn random_batch(n: usize, dim: usize, seed: u64) -> Vec<Vec<i32>> {
        let mut rng = seeded(seed);
        (0..n)
            .map(|_| random_vector(dim, 8, true, &mut rng).unwrap())
            .collect()
    }

    #[test]
    fn preserves_submission_order_across_threads() {
        // An identity matrix echoes inputs, making order mistakes visible.
        let v = IntMatrix::identity(8).unwrap();
        let d = Dispatcher::new(
            Arc::new(DenseRef::new(&v)),
            DispatcherConfig::new(4),
        )
        .unwrap();
        let batch: Vec<Vec<i32>> = (0..97i32)
            .map(|i| (0..8).map(|j| (i * 8 + j) % 128).collect())
            .collect();
        let expect: Vec<Vec<i64>> = batch
            .iter()
            .map(|a| a.iter().map(|&x| i64::from(x)).collect())
            .collect();
        let (outputs, stats) = dispatch(&d, &batch).unwrap();
        assert_eq!(outputs, expect);
        assert_eq!(stats.batch, 97);
        assert_eq!(stats.shards, 4);
        assert!(stats.vectors_per_sec() > 0.0);
    }

    #[test]
    fn all_backends_and_thread_counts_agree() {
        let mut rng = seeded(2300);
        let v = element_sparse_matrix(16, 12, 8, 0.6, true, &mut rng).unwrap();
        let mul = Arc::new(FixedMatrixMultiplier::compile(&v, 8, WeightEncoding::Pn).unwrap());
        let batch = random_batch(13, 16, 2301);
        let expect: Vec<Vec<i64>> = batch.iter().map(|a| vecmat(a, &v).unwrap()).collect();
        let backends: Vec<Arc<dyn GemvBackend>> = vec![
            Arc::new(DenseRef::new(&v)),
            Arc::new(SparseCsr::new(&v)),
            Arc::new(BitSerial::new(mul)),
        ];
        for backend in backends {
            for threads in [1usize, 2, 5] {
                let d = Dispatcher::new(Arc::clone(&backend), DispatcherConfig::new(threads)).unwrap();
                let (outputs, _) = dispatch(&d, &batch).unwrap();
                assert_eq!(
                    outputs,
                    expect,
                    "{} @ {threads} threads",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn empty_and_singleton_batches() {
        let v = IntMatrix::identity(4).unwrap();
        let d = Dispatcher::new(
            Arc::new(DenseRef::new(&v)),
            DispatcherConfig::new(3),
        )
        .unwrap();
        let (outputs, stats) = dispatch(&d, &[]).unwrap();
        assert!(outputs.is_empty());
        assert_eq!(stats.batch, 0);
        assert_eq!(stats.vectors_per_sec(), 0.0);
        assert_eq!(stats.mean_latency(), Duration::ZERO);
        let (outputs, stats) = dispatch(&d, &[vec![9, 8, 7, 6]]).unwrap();
        assert_eq!(outputs, vec![vec![9, 8, 7, 6]]);
        assert_eq!(stats.shards, 1);
    }

    #[test]
    fn errors_surface_and_pool_survives() {
        let mut rng = seeded(2302);
        let v = element_sparse_matrix(8, 8, 8, 0.5, true, &mut rng).unwrap();
        let d = Dispatcher::new(
            Arc::new(DenseRef::new(&v)),
            DispatcherConfig::new(2),
        )
        .unwrap();
        // A batch of the wrong width fails...
        assert!(dispatch(&d, &random_batch(6, 3, 2303)).is_err());
        // ...but the pool keeps serving afterwards.
        let good = random_batch(6, 8, 2304);
        let expect: Vec<Vec<i64>> = good.iter().map(|a| vecmat(a, &v).unwrap()).collect();
        assert_eq!(dispatch(&d, &good).unwrap().0, expect);
    }

    #[test]
    fn dispatch_block_reuses_the_output_block_across_batches() {
        let mut rng = seeded(2305);
        let v = element_sparse_matrix(12, 7, 8, 0.5, true, &mut rng).unwrap();
        let d = Dispatcher::new(
            Arc::new(SparseCsr::new(&v)),
            DispatcherConfig::new(3),
        )
        .unwrap();
        let mut out = RowBlock::new();
        for batch_size in [11usize, 4, 0, 9] {
            let batch = random_batch(batch_size, 12, 2306 + batch_size as u64);
            let frames = Arc::new(FrameBlock::try_from(batch.as_slice()).unwrap());
            let stats = d.dispatch_block(Arc::clone(&frames), &mut out).unwrap();
            assert_eq!(stats.batch, batch_size);
            assert_eq!((out.rows(), out.width()), (batch_size, 7));
            for (i, a) in batch.iter().enumerate() {
                assert_eq!(out.row(i), vecmat(a, &v).unwrap(), "row {i} of {batch_size}");
            }
        }
        // A width mismatch is refused before any shard is dispatched.
        let wrong = FrameBlock::from_rows(&[vec![1; 5]]).unwrap();
        assert!(d.dispatch_block(wrong, &mut out).is_err());
        let s = d.snapshot();
        // The empty batch is not served work, matching `dispatch`.
        assert_eq!((s.batches, s.vectors), (3, 24));
    }

    #[test]
    fn shard_latency_is_stamped_at_worker_completion() {
        /// Sleeps only for the shard holding row 0, so the first
        /// submitted shard is deliberately slow while the rest finish
        /// immediately.
        struct SlowFirstShard;
        impl GemvBackend for SlowFirstShard {
            fn name(&self) -> &'static str {
                "slow-first-shard"
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
                if start == 0 {
                    std::thread::sleep(Duration::from_millis(40));
                }
                Ok(())
            }
        }
        let d = Dispatcher::new(Arc::new(SlowFirstShard), DispatcherConfig::new(2)).unwrap();
        let frames = Arc::new(FrameBlock::from_rows(&vec![vec![0, 0]; 10]).unwrap());
        let mut out = RowBlock::new();
        let stats = d.dispatch_block(frames, &mut out).unwrap();
        assert_eq!(stats.shards, 2);
        // The fast shard carries half the batch and its latency is its
        // own completion time, not the time the reassembler got to it:
        // the weighted p50 stays far below the slow shard's sleep even
        // though the whole batch took at least that long.
        assert!(stats.elapsed >= Duration::from_millis(40), "{stats:?}");
        assert!(stats.p50_latency < Duration::from_millis(20), "{stats:?}");
        assert!(stats.p99_latency >= Duration::from_millis(40), "{stats:?}");
        assert!(stats.p99_latency <= stats.elapsed, "{stats:?}");
    }

    #[test]
    fn latency_percentiles_are_ordered_and_bounded() {
        let v = IntMatrix::identity(6).unwrap();
        let d = Dispatcher::new(
            Arc::new(DenseRef::new(&v)),
            DispatcherConfig::new(3),
        )
        .unwrap();
        let (_, s) = dispatch(&d, &vec![vec![1, 2, 3, 4, 5, 6]; 50]).unwrap();
        assert!(s.p50_latency > Duration::ZERO);
        assert!(s.p50_latency <= s.p99_latency, "{s:?}");
        // Completion latencies are measured inside the batch window.
        assert!(s.p99_latency <= s.elapsed, "{s:?}");
        // Empty batches report zeros.
        let (_, empty) = dispatch(&d, &[]).unwrap();
        assert_eq!(empty.p50_latency, Duration::ZERO);
        assert_eq!(empty.p99_latency, Duration::ZERO);
    }

    #[test]
    fn recorder_sees_shard_reassembly_and_compute_stages() {
        // (The nearest-rank percentile math itself is pinned by
        // smm-telemetry's own tests; this covers the dispatcher's use.)
        let rec = SpanRecorder::new();
        let v = IntMatrix::identity(6).unwrap();
        let d = Dispatcher::with_recorder(
            Arc::new(DenseRef::new(&v)),
            DispatcherConfig::new(3),
            rec.clone(),
        )
        .unwrap();
        dispatch(&d, &vec![vec![1, 2, 3, 4, 5, 6]; 12]).unwrap();
        dispatch(&d, &vec![vec![1, 2, 3, 4, 5, 6]; 2]).unwrap();
        let stats = rec.stage_stats();
        // 3 shards + 2 shards; one reassembly and one compute per batch.
        assert_eq!(stats[Stage::Shard.idx()].count, 5);
        assert_eq!(stats[Stage::Reassemble.idx()].count, 2);
        assert_eq!(stats[Stage::Compute.idx()].count, 2);
        assert!(stats[Stage::Compute.idx()].p99_ns > 0);
        // Failed batches record nothing.
        assert!(dispatch(&d, &[vec![1]]).is_err());
        assert_eq!(rec.stage_stats()[Stage::Compute.idx()].count, 2);
        // A recorder-less dispatcher still serves (the default path).
        let plain = Dispatcher::new(
            Arc::new(DenseRef::new(&v)),
            DispatcherConfig::new(2),
        )
        .unwrap();
        dispatch(&plain, &vec![vec![0; 6]; 4]).unwrap();
    }

    #[test]
    fn snapshot_counts_served_work() {
        let v = IntMatrix::identity(4).unwrap();
        let d = Dispatcher::new(
            Arc::new(DenseRef::new(&v)),
            DispatcherConfig::new(2),
        )
        .unwrap();
        assert_eq!(d.snapshot(), DispatcherStats { batches: 0, vectors: 0, threads: 2 });
        dispatch(&d, &vec![vec![1, 2, 3, 4]; 7]).unwrap();
        dispatch(&d, &vec![vec![1, 2, 3, 4]; 3]).unwrap();
        // Failed dispatches are not served work.
        assert!(dispatch(&d, &[vec![1]]).is_err());
        let s = d.snapshot();
        assert_eq!((s.batches, s.vectors), (2, 10));
    }

    #[test]
    fn shutdown_joins_workers_and_loses_no_request() {
        // `Weak` on the backend proves the join: every worker holds an
        // `Arc` clone, so the upgrade below can only fail once all worker
        // threads have actually exited (not merely been signalled).
        let v = IntMatrix::identity(8).unwrap();
        let backend = Arc::new(DenseRef::new(&v));
        let weak = Arc::downgrade(&backend);
        let d = Arc::new(
            Dispatcher::new(backend, DispatcherConfig::new(4)).unwrap(),
        );
        // Concurrent submitters: every dispatch issued before teardown
        // must come back complete and in order.
        let submitters: Vec<_> = (0..4)
            .map(|t| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    let batch: Vec<Vec<i32>> = (0..25i32)
                        .map(|i| (0..8).map(|j| t * 1000 + i * 8 + j).collect())
                        .collect();
                    let expect: Vec<Vec<i64>> = batch
                        .iter()
                        .map(|a| a.iter().map(|&x| i64::from(x)).collect())
                        .collect();
                    for _ in 0..10 {
                        assert_eq!(dispatch(&d, &batch).unwrap().0, expect);
                    }
                })
            })
            .collect();
        for s in submitters {
            s.join().unwrap();
        }
        let served = d.snapshot();
        assert_eq!((served.batches, served.vectors), (40, 1000));
        let d = Arc::into_inner(d).expect("all submitters joined");
        d.shutdown();
        assert!(
            weak.upgrade().is_none(),
            "a worker thread outlived shutdown()"
        );
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let cfg = DispatcherConfig::default();
        assert!(cfg.resolved_threads() >= 1);
        let v = IntMatrix::identity(2).unwrap();
        let d = Dispatcher::new(Arc::new(DenseRef::new(&v)), cfg).unwrap();
        assert!(d.threads() >= 1);
        assert_eq!(dispatch(&d, &[vec![1, 2]]).unwrap().0, vec![vec![1, 2]]);
    }
}
