//! Dispatcher fault injection: a backend whose `run_rows` panics on a
//! chosen shard must surface an ordinary error to the caller — no
//! deadlock, no lost sibling requests, counters consistent. This extends
//! the guard-the-guards pattern of `smm-bitserial`'s fault-injection
//! suite up to the runtime layer: if a panicking shard took its worker
//! thread down, shards queued behind it would never be served and their
//! callers would wait forever.

use smm_core::block::{FrameBlock, RowBlock};
use smm_core::error::{Error, Result};
use smm_runtime::{Dispatcher, DispatcherConfig, GemvBackend};
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

fn frames(dim: usize, n: usize) -> Arc<FrameBlock> {
    let rows: Vec<Vec<i32>> = (0..n as i32)
        .map(|i| (0..dim as i32).map(|j| i * dim as i32 + j).collect())
        .collect();
    Arc::new(FrameBlock::try_from(rows.as_slice()).unwrap())
}

#[test]
fn panicking_shard_surfaces_an_error_without_deadlock() {
    quiet_panics();
    let backend = Arc::new(PanicOnShard::new(4, 5));
    let d = Dispatcher::new(
        Arc::clone(&backend) as Arc<dyn GemvBackend>,
        DispatcherConfig::new(3),
    )
    .unwrap();
    let batch = frames(4, 9);
    let mut out = RowBlock::new();

    // The poisoned shard panics; the dispatch must come back (no
    // deadlock) with a runtime error naming the fault.
    let err = d.dispatch_block(Arc::clone(&batch), &mut out).unwrap_err();
    assert!(matches!(err, Error::Runtime { .. }), "{err:?}");
    assert!(err.to_string().contains("panicked"), "{err}");
    assert!(err.to_string().contains("injected fault"), "{err}");

    // A failed batch is not served work.
    let s = d.snapshot();
    assert_eq!((s.batches, s.vectors), (0, 0));

    // Every worker survived the unwind: disarm the fault and the same
    // pool serves the same batch completely and in order.
    backend.armed.store(false, Ordering::SeqCst);
    let stats = d.dispatch_block(Arc::clone(&batch), &mut out).unwrap();
    assert_eq!(stats.batch, 9);
    for (i, frame) in batch.iter().enumerate() {
        let expect: Vec<i64> = frame.iter().map(|&x| i64::from(x)).collect();
        assert_eq!(out.row(i), expect.as_slice(), "row {i}");
    }
    let s = d.snapshot();
    assert_eq!((s.batches, s.vectors, s.threads), (1, 9, 3));
}

#[test]
fn sibling_requests_survive_a_panicking_batch() {
    quiet_panics();
    // One dispatcher, one poisoned batch racing many healthy ones: the
    // poison fails its own caller only. Every healthy submission gets
    // its full, ordered result, and the books count exactly them.
    let backend = Arc::new(PanicOnShard::new(4, 2));
    let d = Arc::new(
        Dispatcher::new(
            Arc::clone(&backend) as Arc<dyn GemvBackend>,
            DispatcherConfig::new(4),
        )
        .unwrap(),
    );
    // Healthy batches are 2 frames wide, so frame index 2 never exists
    // in them; the 8-frame poison batch always covers it.
    let healthy = frames(4, 2);
    let poison = frames(4, 8);

    let siblings: Vec<_> = (0..4)
        .map(|_| {
            let d = Arc::clone(&d);
            let healthy = Arc::clone(&healthy);
            std::thread::spawn(move || {
                let mut out = RowBlock::new();
                for _ in 0..20 {
                    d.dispatch_block(Arc::clone(&healthy), &mut out).unwrap();
                    for (i, frame) in healthy.iter().enumerate() {
                        let expect: Vec<i64> = frame.iter().map(|&x| i64::from(x)).collect();
                        assert_eq!(out.row(i), expect.as_slice());
                    }
                }
            })
        })
        .collect();

    let mut out = RowBlock::new();
    for _ in 0..10 {
        let err = d.dispatch_block(Arc::clone(&poison), &mut out).unwrap_err();
        assert!(err.to_string().contains("panicked"), "{err}");
    }
    for s in siblings {
        s.join().unwrap();
    }

    // Only the healthy work was counted: 4 siblings x 20 batches x 2
    // vectors; none of the 10 poisoned batches moved the counters.
    let s = d.snapshot();
    assert_eq!((s.batches, s.vectors), (80, 160));
}
