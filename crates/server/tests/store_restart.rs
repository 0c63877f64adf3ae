//! Restart-without-re-upload: a server pointed at a `store_dir`
//! persists every loaded matrix as digest-addressed artifacts, and a fresh
//! server over the same directory answers `LoadMatrix` from the store —
//! one store hit and one promotion per digest served — with
//! bit-identical serving. Corrupt artifacts degrade to recompilation with a logged
//! warning; they never panic and never fail `start`. A matrix at rest is
//! its non-zeros at their own width, and every answer after a trip
//! through the disk is bit-identical to the dense reference.

use smm_core::generate::{element_sparse_matrix, random_vector};
use smm_core::gemv::vecmat;
use smm_core::rng::seeded;
use smm_server::{BackendKind, Client, ServerConfig};
use smm_sparse::Csr;
use smm_store::{artifact, Artifact, ArtifactKind, Store};
use std::path::PathBuf;
use std::process::Command;

fn temp_store_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("smm-store-restart-{tag}-{}", std::process::id()))
}

fn config(dir: &std::path::Path) -> ServerConfig {
    ServerConfig {
        store_dir: Some(dir.display().to_string()),
        ..ServerConfig::default()
    }
}

#[test]
fn restart_serves_the_fleet_from_the_store_without_recompiling() {
    // (Nothing is recompiled *from the upload*: each life builds its
    // `csr` engine once, from the body its one store read returned.)
    let dir = temp_store_dir("round");
    let _ = std::fs::remove_dir_all(&dir);
    let mut rng = seeded(6001);
    let matrix = element_sparse_matrix(11, 9, 8, 0.5, true, &mut rng).unwrap();
    let a = random_vector(11, 8, true, &mut rng).unwrap();
    let expect = vecmat(&a, &matrix).unwrap();

    // First life: load, serve, shut down. The load persisted the matrix
    // — what a restart reads — and nothing else: one file.
    let digest = {
        let server = smm_server::start(config(&dir)).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let info = client.load_matrix_with(&matrix, None).unwrap();
        assert!(!info.already_loaded, "first life compiles fresh");
        assert_eq!(client.gemv(info.digest, &a).unwrap(), expect);
        let stats = server.shutdown();
        assert_eq!((stats.store_promotions, stats.store_hits), (0, 0), "{stats:?}");
        assert_eq!(stats.tier_hot, 1, "{stats:?}");
        info.digest
    };
    let store = Store::open(&dir).unwrap();
    let files: Vec<PathBuf> = std::fs::read_dir(&dir).unwrap().map(|f| f.unwrap().path()).collect();
    assert_eq!(files, [store.path_for(digest, ArtifactKind::Matrix)], "a load writes one file");

    // Second life, same directory: the digest is addressable before any
    // client uploads it, and the load answers from the store (already
    // loaded): one store read promotes the cold digest once, and the
    // product after it finds the session hot.
    {
        let server = smm_server::start(config(&dir)).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let before = client.stats().unwrap();
        assert_eq!(before.tier_cold, 1, "fleet rediscovered cold: {before:?}");
        let info = client.load_matrix_with(&matrix, None).unwrap();
        assert!(info.already_loaded, "the store answers, not a fresh build");
        assert_eq!(client.gemv(info.digest, &a).unwrap(), expect);
        let stats = server.shutdown();
        assert_eq!(
            (stats.store_promotions, stats.store_hits),
            (1, 1),
            "one promotion from one store read: {stats:?}"
        );
        assert_eq!(stats.tier_hot, 1, "{stats:?}");
    }

    // Third life: straight to Gemv against the cold digest — no upload
    // at all. The compute path promotes from the store, once.
    {
        let server = smm_server::start(config(&dir)).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert_eq!(client.gemv(digest, &a).unwrap(), expect);
        let stats = server.shutdown();
        assert_eq!((stats.store_promotions, stats.store_hits), (1, 1), "{stats:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_store_with_legacy_csr_artifacts_boots_cold_and_serves() {
    let dir = temp_store_dir("legacy");
    let _ = std::fs::remove_dir_all(&dir);
    let mut rng = seeded(6004);
    let matrix = element_sparse_matrix(9, 10, 8, 0.5, true, &mut rng).unwrap();
    let a = random_vector(9, 8, true, &mut rng).unwrap();
    let digest = matrix.digest();

    // A directory as a server from before this artifact was dropped left
    // it: `<digest>.csr.smma` beside the matrix.
    let store = Store::open(&dir).unwrap();
    store.put(digest, &Artifact::Matrix(matrix.clone())).unwrap();
    store.put(digest, &Artifact::Csr(Csr::from_dense(&matrix))).unwrap();

    let server = smm_server::start(config(&dir)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.stats().unwrap().tier_cold, 1);
    assert_eq!(client.gemv(digest, &a).unwrap(), vecmat(&a, &matrix).unwrap());
    let stats = server.shutdown();
    assert!(stats.store_hits >= 1, "{stats:?}");
    // Serving neither read nor rewrote the legacy file (what `gc` and
    // `evict` do with it is pinned beside the fleet, in `tiered.rs`).
    assert!(store.contains(digest, ArtifactKind::Csr));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_store_files_degrade_to_recompilation() {
    let dir = temp_store_dir("corrupt");
    let _ = std::fs::remove_dir_all(&dir);
    let mut rng = seeded(6002);
    let matrix = element_sparse_matrix(8, 7, 8, 0.5, true, &mut rng).unwrap();
    let a = random_vector(8, 8, true, &mut rng).unwrap();
    let expect = vecmat(&a, &matrix).unwrap();

    let digest = {
        let server = smm_server::start(config(&dir)).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.load_matrix(&matrix).unwrap()
    };

    // Flip a payload byte in the matrix artifact: its content no longer
    // hashes to the digest it is stamped with and filed under (the one
    // check a cold matrix gets beside its structure; there is no CRC).
    let path = Store::open(&dir)
        .unwrap()
        .path_for(digest, ArtifactKind::Matrix);
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    // The server still starts (corruption is a per-request concern, not
    // a boot failure), the re-upload quietly rebuilds the entry from
    // the client's own bytes, and serving is correct.
    let server = smm_server::start(config(&dir)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.stats().unwrap().tier_cold, 1, "boot lists names, it decodes nothing");
    let info = client.load_matrix_with(&matrix, None).unwrap();
    assert!(
        !info.already_loaded,
        "corrupt bytes must not answer the load"
    );
    assert_eq!(client.gemv(info.digest, &a).unwrap(), expect);
    let stats = server.shutdown();
    // Warned and forgotten, then rebuilt: the one digest is hot from the
    // upload, nothing cold is left behind and the store answered nothing.
    assert_eq!((stats.tier_hot, stats.tier_cold), (1, 0), "{stats:?}");
    assert_eq!(stats.store_hits, 0, "{stats:?}");

    // The rebuild re-persisted good bytes over the bad file.
    let store = Store::open(&dir).unwrap();
    assert_eq!(
        store.get(digest, ArtifactKind::Matrix).unwrap(),
        Some(Artifact::Matrix(matrix))
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pressure_spills_to_the_store_instead_of_refusing() {
    let dir = temp_store_dir("spill");
    let _ = std::fs::remove_dir_all(&dir);
    let mut rng = seeded(6003);
    let server = smm_server::start(ServerConfig {
        max_matrices: 1,
        max_warm: 1,
        ..config(&dir)
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Three matrices through bounds of one hot + one warm: nothing is
    // refused; the overflow goes cold on disk.
    let mats: Vec<_> = (0..3)
        .map(|_| element_sparse_matrix(6, 6, 8, 0.5, true, &mut rng).unwrap())
        .collect();
    for m in &mats {
        client.load_matrix(m).unwrap();
    }
    let stats = client.stats().unwrap();
    assert_eq!(
        (stats.tier_hot, stats.tier_warm, stats.tier_cold),
        (1, 1, 1),
        "{stats:?}"
    );
    assert!(stats.store_demotions >= 2, "{stats:?}");
    // Every matrix still serves, wherever it resides.
    for m in &mats {
        let a = random_vector(6, 8, true, &mut rng).unwrap();
        assert_eq!(
            client.gemv(m.digest(), &a).unwrap(),
            vecmat(&a, m).unwrap()
        );
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_tier_bounds_also_bound_resident_bit_serial_circuits() {
    // A bit-serial circuit lives in its hot session and nowhere else:
    // the server keeps no circuit cache beside the fleet, so the hot
    // bound is the bound on resident circuits, and a demoted digest's
    // circuit is dropped with its session. A promotion recompiles.
    let dir = temp_store_dir("circuits");
    let _ = std::fs::remove_dir_all(&dir);
    let mut rng = seeded(6004);
    let server = smm_server::start(ServerConfig {
        backend: BackendKind::BitSerial,
        max_matrices: 2,
        max_warm: 2,
        ..config(&dir)
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mats: Vec<_> = (0..8)
        .map(|_| element_sparse_matrix(8, 8, 8, 0.5, true, &mut rng).unwrap())
        .collect();
    for m in &mats {
        client.load_matrix(m).unwrap();
    }
    let stats = client.stats().unwrap();
    assert_eq!((stats.tier_hot, stats.tier_warm, stats.tier_cold), (2, 2, 4), "{stats:?}");
    // Every digest still serves bit-identically, single and batch, each
    // demoted one through a recompile, and the bounds hold through the
    // promotions that takes.
    for m in &mats {
        let a = random_vector(8, 8, true, &mut rng).unwrap();
        assert_eq!(client.gemv(m.digest(), &a).unwrap(), vecmat(&a, m).unwrap());
        let batch: Vec<Vec<i32>> = (0..3)
            .map(|_| random_vector(8, 8, true, &mut rng).unwrap())
            .collect();
        let frames = smm_core::block::FrameBlock::from_rows(&batch).unwrap();
        let expect: Vec<Vec<i64>> = batch.iter().map(|b| vecmat(b, m).unwrap()).collect();
        let served = client.gemv_block(m.digest(), &frames).unwrap();
        assert_eq!(Vec::<Vec<i64>>::from(&served), expect);
    }
    let stats = client.stats().unwrap();
    assert_eq!((stats.tier_hot, stats.tier_warm, stats.tier_cold), (2, 2, 4), "{stats:?}");
    assert_eq!(stats.matrices, 8, "{stats:?}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn served_work_is_counted_exactly_while_sessions_are_demoted_under_it() {
    // One hot slot, two digests, two connections: every request for one
    // digest demotes the other's session, often while a request still
    // holds it. Counted where they are served, the totals equal the
    // replies the clients got; folded in at demotion, they fell short.
    let dir = temp_store_dir("churn");
    let _ = std::fs::remove_dir_all(&dir);
    let server = smm_server::start(ServerConfig {
        max_matrices: 1,
        max_warm: 1,
        ..config(&dir)
    })
    .unwrap();
    let addr = server.local_addr();
    let mut rng = seeded(6005);
    let mats: Vec<_> = (0..2)
        .map(|_| element_sparse_matrix(6, 6, 8, 0.5, true, &mut rng).unwrap())
        .collect();
    let mut control = Client::connect(addr).unwrap();
    for m in &mats {
        control.load_matrix(m).unwrap();
    }
    let clients: Vec<_> = mats
        .iter()
        .cloned()
        .enumerate()
        .map(|(c, m)| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut rng = seeded(6100 + c as u64);
                let (mut vectors, mut blocks) = (0u64, 0u64);
                for round in 0..150 {
                    if round % 3 == 0 {
                        let rows: Vec<_> =
                            (0..4).map(|_| random_vector(6, 8, true, &mut rng).unwrap()).collect();
                        let frames = smm_core::block::FrameBlock::from_rows(&rows).unwrap();
                        let out = client.gemv_block(m.digest(), &frames).unwrap();
                        for (i, a) in rows.iter().enumerate() {
                            assert_eq!(out.row(i), vecmat(a, &m).unwrap());
                        }
                        (vectors, blocks) = (vectors + 4, blocks + 1);
                    } else {
                        let a = random_vector(6, 8, true, &mut rng).unwrap();
                        assert_eq!(client.gemv(m.digest(), &a).unwrap(), vecmat(&a, &m).unwrap());
                        vectors += 1;
                    }
                }
                (vectors, blocks)
            })
        })
        .collect();
    let replies = clients.into_iter().map(|c| c.join().unwrap());
    let (vectors, blocks) = replies.fold((0, 0), |sum, got| (sum.0 + got.0, sum.1 + got.1));
    let stats = server.shutdown();
    assert_eq!((stats.vectors, stats.batches), (vectors, blocks), "{stats:?}");
    assert!(stats.store_demotions > 2, "the two digests never displaced each other: {stats:?}");
    assert!(stats.tier_hot <= 1 && stats.tier_warm <= 1, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_engine_at_every_width_round_trips_through_the_disk() {
    // A column of weight widths — one, two and four bytes per stored
    // value — by every engine a load may ask for. One hot and one warm
    // slot push all but the last two loads to cold in the first life;
    // the second life boots with every one of them cold.
    let dir = temp_store_dir("widths");
    let _ = std::fs::remove_dir_all(&dir);
    let mut rng = seeded(6006);
    let kinds = [BackendKind::Dense, BackendKind::Csr, BackendKind::BitSerial, BackendKind::Sigma];
    let members: Vec<_> = [(8, 1), (16, 2), (31, 4)]
        .into_iter()
        .flat_map(|(bits, width)| kinds.map(|kind| (bits, width, kind)))
        .map(|(bits, width, kind)| {
            let m = element_sparse_matrix(9, 7, bits, 0.5, true, &mut rng).unwrap();
            let probes: Vec<_> = (0..3).map(|_| random_vector(9, 8, true, &mut rng).unwrap()).collect();
            (m, width, kind, probes)
        })
        .collect();
    let bounded = || ServerConfig { max_matrices: 1, max_warm: 1, ..config(&dir) };
    let serve_every_member = |client: &mut Client| {
        for (m, _, kind, probes) in &members {
            for a in probes {
                let got = client.gemv(m.digest(), a).unwrap();
                assert_eq!(got, vecmat(a, m).unwrap(), "{kind:?}");
            }
        }
    };
    {
        let server = smm_server::start(bounded()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        for (m, _, kind, probes) in &members {
            let info = client.load_matrix_with(m, Some(*kind)).unwrap();
            assert_eq!(client.gemv(info.digest, &probes[0]).unwrap(), vecmat(&probes[0], m).unwrap());
        }
        let stats = client.stats().unwrap();
        assert_eq!((stats.tier_hot, stats.tier_warm, stats.tier_cold), (1, 1, 10), "{stats:?}");
        serve_every_member(&mut client);
        assert!(client.stats().unwrap().store_hits >= 10);
        server.shutdown();
    }
    // On disk each matrix is its body at the width its weights need.
    let store = Store::open(&dir).unwrap();
    for (m, width, kind, _) in &members {
        let bytes = std::fs::read(store.path_for(m.digest(), ArtifactKind::Matrix)).unwrap();
        let (digest, body) = artifact::decode_body(&bytes).unwrap();
        assert_eq!((digest, body.width()), (m.digest(), *width), "{kind:?}");
    }
    let server = smm_server::start(bounded()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.stats().unwrap().tier_cold, members.len() as u64);
    serve_every_member(&mut client);
    let stats = server.shutdown();
    assert!(stats.store_hits >= members.len() as u64, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `<digest>.matrix.smma` for 2×3 `[1 0 −2; 3 0 4]` as store format rev 1
/// wrote it (a dense `i32` payload behind a CRC).
const REV1_MATRIX_ARTIFACT: [u8; 69] = [
    0x53, 0x4d, 0x4d, 0x41, 0x01, 0x00, 0x00, 0x00, 0x01, 0x17, 0x3d, 0xdb, //
    0x9c, 0xf4, 0xf8, 0x25, 0x83, 0xd3, 0x66, 0xdd, 0x72, 0x2c, 0x00, 0x00, //
    0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, //
    0x00, 0x00, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, //
    0x00, 0x00, 0x00, 0x00, 0x00, 0xfe, 0xff, 0xff, 0xff, 0x03, 0x00, 0x00, //
    0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
];
/// The same matrix as store format rev 2 wrote it: the body behind a
/// header with no CRC, stamped with the digest rev 2 took over the dense
/// elements — the same value rev 1 stamped, so the same file name.
const REV2_MATRIX_ARTIFACT: [u8; 74] = [
    0x53, 0x4d, 0x4d, 0x41, 0x02, 0x00, 0x00, 0x00, 0x01, 0x17, 0x3d, 0xdb, //
    0x9c, 0xf4, 0xf8, 0x25, 0x83, 0x35, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, //
    0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x02, 0x00, //
    0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, //
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0xfe, //
    0x03, 0x04,
];
/// The digest both old files are named and stamped by.
const OLD_DIGEST: u64 = 0x8325_f8f4_9cdb_3d17;
/// Name the store directories [`rev1_store_child`] and
/// [`rev2_store_child`] serve over.
const REV1_CHILD_ENV: &str = "SMM_STORE_RESTART_REV1_DIR";
const REV2_CHILD_ENV: &str = "SMM_STORE_RESTART_REV2_DIR";

/// The server half of the tests below, run in a child process of this
/// test binary so that its stderr — where the fleet warns — can be read:
/// serves the store directory `env` names, which holds one matrix file
/// of an older revision. Without the variable it has nothing to do.
fn serve_an_old_store(env: &str) {
    let Some(dir) = std::env::var_os(env) else {
        return;
    };
    let server = smm_server::start(config(std::path::Path::new(&dir))).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // The boot lists file names only, so the digest is known, cold.
    assert_eq!(client.stats().unwrap().tier_cold, 1);
    // Asked for twice: the first request reads the file, is refused its
    // bytes, warns and forgets the digest; the second finds nothing.
    for _ in 0..2 {
        let err = client.gemv(OLD_DIGEST, &[1, 1]).unwrap_err().to_string();
        assert!(err.contains("no matrix loaded"), "{err}");
    }
    let stats = server.shutdown();
    assert_eq!((stats.tier_cold, stats.store_hits), (0, 0), "{stats:?}");
}

#[test]
fn rev1_store_child() {
    serve_an_old_store(REV1_CHILD_ENV);
}

#[test]
fn rev2_store_child() {
    serve_an_old_store(REV2_CHILD_ENV);
}

/// Files `file`, a matrix artifact of format `rev`, in a fresh store and
/// serves it from the child test `child`: one warning naming the digest
/// and the revision, and the file left for `gc` to remove.
fn an_old_matrix_file_is_forgotten(file: &[u8], rev: u32, child: &str, env: &str) {
    let dir = temp_store_dir(&format!("rev{rev}"));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).unwrap();
    let path = store.path_for(OLD_DIGEST, ArtifactKind::Matrix);
    std::fs::write(&path, file).unwrap();

    let child = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", child, "--test-threads", "1"])
        .env(env, &dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&child.stderr);
    assert!(child.status.success(), "{}\n{stderr}", String::from_utf8_lossy(&child.stdout));
    let warnings: Vec<&str> = stderr.lines().filter(|l| l.starts_with("smm-store:")).collect();
    assert_eq!(warnings.len(), 1, "{stderr}");
    assert!(warnings[0].contains(&format!("{OLD_DIGEST:#018x}")), "{stderr}");
    let refused = format!("unsupported artifact format rev {rev}");
    assert!(warnings[0].contains(&refused), "{stderr}");
    // Serving never touched the file; collecting the store (what `smm
    // store gc` runs) removes it.
    assert!(path.is_file());
    let report = store.gc().unwrap();
    assert_eq!((report.kept, report.removed), (0, 1), "{report:?}");
    assert!(!path.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_rev1_matrix_file_is_forgotten_with_one_warning_and_collected() {
    an_old_matrix_file_is_forgotten(&REV1_MATRIX_ARTIFACT, 1, "rev1_store_child", REV1_CHILD_ENV);
}

#[test]
fn a_rev2_matrix_file_is_forgotten_with_one_warning_and_collected() {
    an_old_matrix_file_is_forgotten(&REV2_MATRIX_ARTIFACT, 2, "rev2_store_child", REV2_CHILD_ENV);
}
