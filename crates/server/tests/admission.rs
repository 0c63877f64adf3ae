//! Admission over loopback: a 1-hot / 1-warm fleet over a store builds
//! only what it admits. A single on a digest used no more than the hot
//! one is answered from the matrix's body — the reference's bits, one
//! `body_singles`, no promotion — while a batch on it builds and
//! promotes it. After a restart a cold digest the fleet does not admit
//! is read from the store once and kept warm: its first single is a
//! store hit, its next reads nothing.

use smm_core::block::FrameBlock;
use smm_core::generate::{element_sparse_matrix, random_vector};
use smm_core::gemv::vecmat;
use smm_core::matrix::IntMatrix;
use smm_core::rng::seeded;
use smm_server::{Client, ServerConfig, StatsSnapshot};
use smm_telemetry::Stage;
use std::path::{Path, PathBuf};

fn temp_store_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("smm-admission-{tag}-{}", std::process::id()))
}

/// One hot slot and one warm slot over a store in `dir`.
fn one_hot_one_warm(dir: &Path) -> ServerConfig {
    ServerConfig {
        max_matrices: 1,
        max_warm: 1,
        store_dir: Some(dir.display().to_string()),
        ..ServerConfig::default()
    }
}

/// The counters a request may move, as one tuple: `(promotions, store
/// hits, body singles, vectors, compute stages timed)`. A single is
/// timed as one compute stage whether a session or a body answered it.
fn moved(before: &StatsSnapshot, after: &StatsSnapshot) -> (u64, u64, u64, u64, u64) {
    let computed = |s: &StatsSnapshot| s.stage(Stage::Compute).count;
    (
        after.store_promotions - before.store_promotions,
        after.store_hits - before.store_hits,
        after.body_singles - before.body_singles,
        after.vectors - before.vectors,
        computed(after) - computed(before),
    )
}

#[test]
fn a_one_hot_one_warm_fleet_serves_what_it_does_not_admit_from_the_body() {
    let dir = temp_store_dir("serve");
    let _ = std::fs::remove_dir_all(&dir);
    let mut rng = seeded(4100);
    let matrices: Vec<IntMatrix> = (0..3)
        .map(|_| element_sparse_matrix(16, 12, 8, 0.6, true, &mut rng).unwrap())
        .collect();
    let vectors: Vec<Vec<i32>> = (0..4).map(|_| random_vector(16, 8, true, &mut rng).unwrap()).collect();
    let digests: Vec<u64> = matrices.iter().map(IntMatrix::digest).collect();
    let [a, b, c] = [0, 1, 2];
    let expect = |m: usize, v: usize| vecmat(&vectors[v], &matrices[m]).unwrap();

    {
        let server = smm_server::start(one_hot_one_warm(&dir)).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        // Loads always build: `c` ends hot, `b` warm, `a` cold.
        for m in &matrices {
            client.load_matrix(m).unwrap();
        }
        let loaded = client.stats().unwrap();
        assert_eq!((loaded.tier_hot, loaded.tier_warm, loaded.tier_cold), (1, 1, 1), "{loaded:?}");
        // `c` is asked for twice more, so it is used more than `b` will be.
        for v in [0, 1] {
            assert_eq!(client.gemv(digests[c], &vectors[v]).unwrap(), expect(c, v));
        }

        // A single on warm `b`, which the fleet does not admit: the
        // reference's bits from the body, nothing built or read.
        let before = client.stats().unwrap();
        assert_eq!(client.gemv(digests[b], &vectors[2]).unwrap(), expect(b, 2));
        let after = client.stats().unwrap();
        assert_eq!(moved(&before, &after), (0, 0, 1, 1, 1), "{after:?}");
        assert_eq!((after.tier_hot, after.tier_warm, after.tier_cold), (1, 1, 1), "{after:?}");

        // A batch on `b` builds whatever the verdict, and promotes it.
        let frames = FrameBlock::from_rows(&vectors).unwrap();
        let before = after;
        let served = client.gemv_block(digests[b], &frames).unwrap();
        assert_eq!(Vec::<Vec<i64>>::from(&served), (0..4).map(|v| expect(b, v)).collect::<Vec<_>>());
        let after = client.stats().unwrap();
        assert_eq!(moved(&before, &after), (1, 0, 0, 4, 1), "{after:?}");
        // `b` is hot now: its next single is a hit, not a body.
        let before = after;
        assert_eq!(client.gemv(digests[b], &vectors[3]).unwrap(), expect(b, 3));
        assert_eq!(moved(&before, &client.stats().unwrap()), (0, 0, 0, 1, 1));
        server.shutdown();
    }

    // A restart finds all three cold. The first single has a free hot
    // slot and builds; `a`, asked for as often, then never more often
    // than the hot `c`, is read from the store once and kept warm.
    {
        let server = smm_server::start(one_hot_one_warm(&dir)).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let booted = client.stats().unwrap();
        assert_eq!((booted.tier_hot, booted.tier_warm, booted.tier_cold), (0, 0, 3), "{booted:?}");
        let before = booted;
        for v in [0, 1, 2] {
            assert_eq!(client.gemv(digests[c], &vectors[v]).unwrap(), expect(c, v));
        }
        let after = client.stats().unwrap();
        assert_eq!(moved(&before, &after), (1, 1, 0, 3, 3), "a free slot admits: {after:?}");

        let before = after;
        assert_eq!(client.gemv(digests[a], &vectors[0]).unwrap(), expect(a, 0));
        let after = client.stats().unwrap();
        assert_eq!(moved(&before, &after), (0, 1, 1, 1, 1), "one store read: {after:?}");
        assert_eq!((after.tier_hot, after.tier_warm, after.tier_cold), (1, 1, 1), "{after:?}");
        let before = after;
        assert_eq!(client.gemv(digests[a], &vectors[1]).unwrap(), expect(a, 1));
        let after = client.stats().unwrap();
        assert_eq!(moved(&before, &after), (0, 0, 1, 1, 1), "kept warm, nothing read: {after:?}");
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
