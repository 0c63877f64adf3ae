//! Worker-pool fault injection: an engine whose `run_rows` panics on a
//! chosen shard must surface an ordinary error to the caller — no
//! deadlock, no lost sibling requests, counters consistent. This extends
//! the guard-the-guards pattern of `smm-bitserial`'s fault-injection
//! suite up to the runtime layer: if a panicking shard took its worker
//! thread down, shards queued behind it — the pool is shared, so any
//! session's — would never be served and their callers would wait
//! forever.

use smm_core::block::{FrameBlock, RowBlock};
use smm_core::error::{Error, Result};
use smm_core::matrix::IntMatrix;
use smm_runtime::{EngineSpec, GemvBackend, Session};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Echoes its input like an identity matrix, but panics while serving
/// any shard that contains `poison_frame` while `armed` — one fault, on
/// one chosen shard, at a moment the test controls.
struct PanicOnShard {
    dim: usize,
    poison_frame: usize,
    armed: AtomicBool,
}

impl PanicOnShard {
    fn new(dim: usize, poison_frame: usize) -> Self {
        Self {
            dim,
            poison_frame,
            armed: AtomicBool::new(true),
        }
    }
}

impl GemvBackend for PanicOnShard {
    fn name(&self) -> &'static str {
        "panic-on-shard"
    }

    fn rows(&self) -> usize {
        self.dim
    }

    fn cols(&self) -> usize {
        self.dim
    }

    fn run_rows(
        &self,
        frames: &FrameBlock,
        start: usize,
        end: usize,
        out: &mut [i64],
    ) -> Result<()> {
        if self.armed.load(Ordering::SeqCst)
            && (start..end).contains(&self.poison_frame)
        {
            panic!("injected fault in shard {start}..{end}");
        }
        for (i, frame) in (start..end).enumerate() {
            for (o, &x) in out[i * self.dim..(i + 1) * self.dim]
                .iter_mut()
                .zip(frames.frame(frame))
            {
                *o = i64::from(x);
            }
        }
        Ok(())
    }
}

/// Silences the default panic printer for this test binary: the injected
/// faults below panic dozens of times by design, and worker threads are
/// outside libtest's output capture. Failing assertions still report —
/// libtest prints the payload itself when a test thread unwinds.
fn quiet_panics() {
    if std::env::var_os("SMM_LOUD_PANICS").is_none() {
        std::panic::set_hook(Box::new(|_| {}));
    }
}

/// A session serving through `engine`, reached the way any fake is:
/// handed to the builder, the spec supplying only the shard count.
fn session_over(engine: &Arc<PanicOnShard>, threads: usize) -> Session {
    Session::builder(IntMatrix::identity(engine.dim).unwrap())
        .engine(Arc::clone(engine) as Arc<dyn GemvBackend>)
        .spec(EngineSpec::dense().threads(threads))
        .build()
        .unwrap()
}

fn frames(dim: usize, n: usize) -> Arc<FrameBlock> {
    let rows: Vec<Vec<i32>> = (0..n as i32)
        .map(|i| (0..dim as i32).map(|j| i * dim as i32 + j).collect())
        .collect();
    Arc::new(FrameBlock::try_from(rows.as_slice()).unwrap())
}

/// `out` holds exactly `batch` echoed, in order.
fn assert_echoed(batch: &FrameBlock, out: &RowBlock) {
    assert_eq!(out.frames(), batch.frames());
    for (i, frame) in batch.iter().enumerate() {
        let expect: Vec<i64> = frame.iter().map(|&x| i64::from(x)).collect();
        assert_eq!(out.frame(i), expect.as_slice(), "row {i}");
    }
}

#[test]
fn panicking_shard_surfaces_an_error_without_deadlock() {
    quiet_panics();
    let engine = Arc::new(PanicOnShard::new(4, 5));
    let session = session_over(&engine, 3);
    let batch = frames(4, 9);
    let mut out = RowBlock::new();

    // The poisoned shard panics; the batch must come back (no
    // deadlock) with a runtime error naming the fault.
    let err = session.run_block(Arc::clone(&batch), &mut out).unwrap_err();
    assert!(matches!(err, Error::Runtime { .. }), "{err:?}");
    assert!(err.to_string().contains("panicked"), "{err}");
    assert!(err.to_string().contains("injected fault"), "{err}");

    // Every worker survived the unwind: disarm the fault and the same
    // session serves the same batch completely and in order.
    engine.armed.store(false, Ordering::SeqCst);
    let stats = session.run_block(Arc::clone(&batch), &mut out).unwrap();
    assert_eq!((stats.batch, stats.shards), (9, 3));
    assert_echoed(&batch, &out);
}

#[test]
fn a_panic_in_the_callers_shard_is_contained_like_a_workers() {
    quiet_panics();
    // The thread that submits a batch computes its last shard itself:
    // with three shards of 9 frames that is 6..9, and with one shard it
    // is the whole batch, which never reaches the pool. A panic there
    // must come back as the same typed error a worker's does, and must
    // not take the caller down.
    for (threads, poison, shard) in [(3, 7, "6..9"), (1, 4, "0..9")] {
        let engine = Arc::new(PanicOnShard::new(4, poison));
        let session = session_over(&engine, threads);
        let batch = frames(4, 9);
        let mut out = RowBlock::new();
        let err = session.run_block(Arc::clone(&batch), &mut out).unwrap_err();
        assert!(matches!(err, Error::Runtime { .. }), "{err:?}");
        let message = err.to_string();
        assert!(message.contains("panicked"), "{message}");
        assert!(message.contains(&format!("shard {shard}")), "{message}");

        // Disarmed, the same session serves the batch completely and in
        // order, its last shard still computed by this thread.
        engine.armed.store(false, Ordering::SeqCst);
        let stats = session.run_block(Arc::clone(&batch), &mut out).unwrap();
        assert_eq!((stats.batch, stats.shards), (9, threads));
        assert_echoed(&batch, &out);
    }
}

#[test]
fn sibling_requests_survive_a_panicking_batch() {
    quiet_panics();
    // One session, one poisoned batch racing many healthy ones: the
    // poison fails its own caller only. Every healthy submission gets
    // its full, ordered result.
    let engine = Arc::new(PanicOnShard::new(4, 2));
    let session = session_over(&engine, 4);
    // Healthy batches are 2 frames wide, so frame index 2 never exists
    // in them; the 8-frame poison batch always covers it.
    let healthy = frames(4, 2);
    let poison = frames(4, 8);

    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let mut out = RowBlock::new();
                for _ in 0..20 {
                    session.run_block(Arc::clone(&healthy), &mut out).unwrap();
                    assert_echoed(&healthy, &out);
                }
            });
        }
        let mut out = RowBlock::new();
        for _ in 0..10 {
            let err = session.run_block(Arc::clone(&poison), &mut out).unwrap_err();
            assert!(err.to_string().contains("panicked"), "{err}");
        }
    });
}

#[test]
fn a_panicking_session_leaves_its_neighbours_on_the_pool_untouched() {
    quiet_panics();
    // Two sessions share the process's workers. A's engine panics on
    // every batch while B serves concurrently: the unwind is caught in
    // the worker that both depend on, so A gets its typed error and B
    // never sees a wrong, missing or reordered row.
    let faulty = Arc::new(PanicOnShard::new(4, 2));
    let a = session_over(&faulty, 4);
    let sound = Arc::new(PanicOnShard::new(4, 0));
    sound.armed.store(false, Ordering::SeqCst);
    let b = session_over(&sound, 4);
    let batch = frames(4, 8);

    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut out = RowBlock::new();
            for _ in 0..40 {
                b.run_block(Arc::clone(&batch), &mut out).unwrap();
                assert_echoed(&batch, &out);
            }
        });
        let mut out = RowBlock::new();
        for _ in 0..20 {
            let err = a.run_block(Arc::clone(&batch), &mut out).unwrap_err();
            assert!(matches!(err, Error::Runtime { .. }), "{err:?}");
            assert!(err.to_string().contains("injected fault"), "{err}");
        }
    });

    // Disarmed, A serves again on the same workers.
    faulty.armed.store(false, Ordering::SeqCst);
    let mut out = RowBlock::new();
    a.run_block(Arc::clone(&batch), &mut out).unwrap();
    assert_echoed(&batch, &out);
}
