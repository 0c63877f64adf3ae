//! Racing `Store::put`s of one artifact — what two loaders of the same
//! matrix do by design — must each write a temp file of their own: every
//! put succeeds, a reader never sees a partial artifact under the valid
//! name, and no temp file is left behind.

use smm_core::generate::element_sparse_matrix;
use smm_core::rng::seeded;
use smm_store::{Artifact, ArtifactKind, Store};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

#[test]
fn concurrent_puts_of_one_artifact_do_not_share_a_temp_file() {
    const WRITERS: usize = 8;
    const PUTS: usize = 50;
    let dir = std::env::temp_dir().join(format!("smm-store-race-{}", std::process::id()));
    let store = Store::open(&dir).unwrap();
    let matrix = element_sparse_matrix(96, 96, 8, 0.5, true, &mut seeded(7)).unwrap();
    let digest = matrix.digest();
    let artifact = Artifact::Matrix(matrix);
    store.put(digest, &artifact).unwrap();

    // Every thread leaves the barrier together, so the puts overlap.
    // Threads hand their first failure back instead of panicking, so a
    // failing run ends (the reader stops only when told to).
    let start = Barrier::new(WRITERS + 1);
    let writing = AtomicBool::new(true);
    let (puts, reads) = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    (0..PUTS).try_for_each(|_| store.put(digest, &artifact))
                })
            })
            .collect();
        let reader = scope.spawn(|| {
            start.wait();
            loop {
                match store.get(digest, ArtifactKind::Matrix) {
                    Ok(Some(got)) if got == artifact => {}
                    other => return Err(format!("reader saw {other:?}")),
                }
                if !writing.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
        });
        let puts: Vec<_> = writers.into_iter().map(|w| w.join().unwrap()).collect();
        writing.store(false, Ordering::SeqCst);
        (puts, reader.join().unwrap())
    });
    for put in puts {
        put.unwrap();
    }
    reads.unwrap();

    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|item| item.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".smma.tmp"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
