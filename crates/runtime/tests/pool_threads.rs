//! The process holds one worker pool, however many sessions it holds.
//!
//! Exactly one `#[test]`, so this binary is a process of its own: the
//! `Threads:` line of `/proc/self/status` counts no sibling test's
//! threads and no pool another test started.
#![cfg(target_os = "linux")]

use smm_core::block::{FrameBlock, RowBlock};
use smm_core::matrix::IntMatrix;
use smm_runtime::{EngineSpec, Session};

fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.unwrap().trim().parse().unwrap()
}

fn serve_one_batch(session: &Session) {
    let frames = FrameBlock::from_rows(&[vec![1, 2, 3], vec![4, 5, 6], vec![7, 8, 9]]).unwrap();
    let mut out = RowBlock::new();
    session.run_block(frames, &mut out).unwrap();
    assert_eq!(out.as_slice(), [1, 2, 3, 4, 5, 6, 7, 8, 9]);
}

#[test]
fn sessions_own_no_threads_and_share_one_pool() {
    let cores = std::thread::available_parallelism().unwrap().get();
    let session = |threads| {
        Session::builder(IntMatrix::identity(3).unwrap())
            .spec(EngineSpec::csr().threads(threads))
            .build()
            .unwrap()
    };
    let at_start = os_threads();

    // Sessions that serve singles only never start a worker.
    let singles: Vec<Session> = (0..16).map(|_| session(0)).collect();
    for s in &singles {
        assert_eq!(s.run(&[1, 2, 3]).unwrap(), vec![1, 2, 3]);
    }
    assert_eq!(os_threads(), at_start, "building or running a single spawned a thread");

    // Nor does a one-shard batch: the submitting thread computes a
    // batch's last shard itself.
    serve_one_batch(&session(1));
    assert_eq!(os_threads(), at_start, "a one-shard batch started the pool");

    // A batch cut into two shards starts the pool: one worker per core,
    // once.
    serve_one_batch(&session(2));
    let with_pool = os_threads();
    assert!(with_pool > at_start, "a batch is served by pool workers");
    assert!(with_pool <= at_start + cores, "{at_start} -> {with_pool} on {cores} cores");

    // More sessions, each cutting its batches in two, add none; dropping
    // them all takes none away.
    let more: Vec<Session> = (0..32).map(|_| session(2)).collect();
    more.iter().for_each(serve_one_batch);
    assert_eq!(os_threads(), with_pool, "a session brought its own threads");
    drop((singles, more));
    assert_eq!(os_threads(), with_pool, "dropping sessions stopped pool workers");
}
