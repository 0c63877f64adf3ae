//! The per-thread plane a 16-frame group is gathered through, 4 MiB of
//! address space, costs a thread only the rows the group writes. One test
//! in its own process, so that nothing else moves the resident set while
//! it reads it.
#![cfg(target_os = "linux")]

use smm_core::generate::{element_sparse_matrix, random_vector};
use smm_core::rng::seeded;
use smm_sparse::Csr;

/// This process's resident set in KiB: `VmRSS` of `/proc/self/status`.
fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("a VmRSS line");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn a_fresh_threads_first_group_touches_only_its_rows() {
    // A 1024-row group writes 1024 rows of 64 bytes of the plane, and
    // its 1024 columns' sums as many again: 128 KiB in all.
    let mut rng = seeded(5300);
    let d = element_sparse_matrix(1024, 1024, 8, 0.9, true, &mut rng).unwrap();
    let csr = Csr::from_dense(&d);
    let frames = random_vector(16 * 1024, 8, true, &mut rng).unwrap();
    // Written before the thread starts, so the group's output is resident.
    let mut out = vec![-1i64; 16 * 1024];
    let (before, after) = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let before = rss_kib();
                let ran = csr.vecmat_block_into(&frames, 16, &mut out).unwrap();
                assert_eq!(ran.narrow_groups, 1);
                (before, rss_kib())
            })
            .join()
            .unwrap()
    });
    let grown = after.saturating_sub(before);
    assert!(
        grown < 1024,
        "the first group grew the resident set by {grown} KiB ({before} → {after})"
    );
    assert_eq!(&out[..1024], csr.vecmat(&frames[..1024]).unwrap());
}
