//! The one worker pool of the process.
//!
//! A loaded matrix is data; the compute resource exists once. Every
//! [`Session`](crate::Session) cuts its batches into shards, sends every
//! shard but the last as a [`Job`] — an engine handle plus a row range of
//! one shared [`FrameBlock`] — and computes the last one itself, straight
//! into its output block, while the same `available_parallelism()`
//! workers serve the jobs of all sessions from one queue. So a fleet of a
//! thousand matrices holds as many OS threads as a fleet of one, and the
//! submitting thread works instead of sleeping on the replies. Both sides
//! compute a shard through [`run_shard`], which contains a panic. The
//! workers start with the first batch cut into more than one shard (a
//! process that only serves singles and one-shard batches never spawns
//! any) and live as long as the process: they park on the job channel
//! between batches and own nothing but the job in hand.
//!
//! Plain `std` threads and channels, no unsafe.

use crate::backend::GemvBackend;
use smm_core::block::FrameBlock;
use smm_core::error::{Error, Result};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One shard of a batch: rows `start..end` of `frames` through `engine`.
pub(crate) struct Job {
    /// The engine of the session that cut the batch.
    pub(crate) engine: Arc<dyn GemvBackend>,
    /// The whole batch (shared, immutable, flat).
    pub(crate) frames: Arc<FrameBlock>,
    /// This shard's half-open range of batch indices.
    pub(crate) start: usize,
    pub(crate) end: usize,
    /// When the batch was submitted — the clock base for
    /// [`ShardReply::completed`].
    pub(crate) submitted: Instant,
    /// Where to deliver the reply.
    pub(crate) reply: Sender<ShardReply>,
}

/// A shard's reply.
pub(crate) struct ShardReply {
    /// The shard's half-open row range.
    pub(crate) start: usize,
    pub(crate) end: usize,
    /// Worker-side completion timestamp, measured against the batch's
    /// submission *before* the reply enters the channel — so a shard
    /// that finishes early reports its true latency even when the
    /// reassembler is still busy copying earlier replies.
    pub(crate) completed: Duration,
    /// The shard's rows, flat row-major (`(end - start) * cols`
    /// elements) — one buffer per shard, not one per row.
    pub(crate) rows: Result<Vec<i64>>,
}

/// The machine's available parallelism (>= 1): the pool's size, and
/// what a session's `threads: 0` resolves to.
pub(crate) fn cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The pool's job queue, starting the workers on first use.
///
/// Fails with [`Error::Runtime`] if the OS refuses a worker thread; the
/// workers already spawned exit when their channel drops, nothing is
/// published, and the next batch tries again.
pub(crate) fn queue() -> Result<&'static Sender<Job>> {
    static QUEUE: OnceLock<Sender<Job>> = OnceLock::new();
    static STARTING: Mutex<()> = Mutex::new(());
    if let Some(queue) = QUEUE.get() {
        return Ok(queue);
    }
    // Racing first batches line up here so that exactly one of them
    // spawns workers; after that nobody takes this lock again.
    let _starting = smm_telemetry::lock_or_recover(&STARTING);
    if let Some(queue) = QUEUE.get() {
        return Ok(queue);
    }
    let (job_tx, job_rx) = channel::<Job>();
    // std's Receiver is single-consumer; share it behind a mutex so
    // idle workers race for the next shard (work stealing by proxy).
    let job_rx = Arc::new(Mutex::new(job_rx));
    let workers = cores();
    for i in 0..workers {
        let rx = Arc::clone(&job_rx);
        // Detached on purpose: the workers serve until the process exits.
        std::thread::Builder::new()
            .name(format!("smm-runtime-worker-{i}"))
            .spawn(move || worker_loop(&rx))
            .map_err(|e| Error::Runtime {
                context: format!("spawning worker thread {i} of {workers}: {e}"),
            })?;
    }
    Ok(QUEUE.get_or_init(|| job_tx))
}

fn worker_loop(rx: &Mutex<Receiver<Job>>) {
    loop {
        // Hold the lock only while *receiving*; compute unlocked. A
        // poisoned receiver (a sibling panicked mid-recv, which recv
        // itself never does) is recovered rather than silently
        // shrinking the worker pool.
        let job = smm_telemetry::lock_or_recover(rx).recv();
        let Ok(Job { engine, frames, start, end, submitted, reply }) = job else {
            return;
        };
        // One flat buffer for the whole shard; the engine writes rows in
        // place.
        let mut rows = vec![0i64; (end - start) * engine.cols()];
        let rows = run_shard(&*engine, &frames, start, end, &mut rows).map(|()| rows);
        // The completion timestamp is taken before the send so the
        // reassembler's copy work cannot inflate it, and the handles are
        // released before it too: once a batch has its replies, no
        // worker still holds its engine.
        let completed = submitted.elapsed();
        drop((engine, frames));
        // A send failure means the session gave up on this batch; keep
        // serving later batches.
        let _ = reply.send(ShardReply { start, end, completed, rows });
    }
}

/// Rows `start..end` of `frames` through `engine` into `out`, with a
/// panic contained as an ordinary shard error — how every shard is
/// computed, by a worker or by the thread that submitted the batch.
///
/// If a worker thread died instead, shards queued behind it — any
/// matrix's — would never be served and their sessions would wait
/// forever on replies that cannot arrive; if the submitting thread
/// unwound, it would take its caller (a server connection) with it.
/// Catching the unwind turns the fault into an error for this batch
/// alone: sibling batches, the workers and the caller keep going.
pub(crate) fn run_shard(
    engine: &dyn GemvBackend,
    frames: &FrameBlock,
    start: usize,
    end: usize,
    out: &mut [i64],
) -> Result<()> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.run_rows(frames, start, end, out)
    }))
    .unwrap_or_else(|panic| {
        Err(Error::Runtime {
            context: format!(
                "backend '{}' panicked serving shard {start}..{end}: {}",
                engine.name(),
                panic_message(&*panic)
            ),
        })
    })
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
