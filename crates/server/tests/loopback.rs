//! End-to-end loopback tests: a real server on 127.0.0.1, real TCP
//! clients, every reply checked bit-for-bit against the dense reference.

use smm_core::block::FrameBlock;
use smm_core::generate::{element_sparse_matrix, random_vector};
use smm_core::gemv::vecmat;
use smm_core::matrix::IntMatrix;
use smm_core::rng::seeded;
use smm_server::protocol::{read_frame, write_frame, Opcode, Reply, Request, VERSION};
use smm_server::{BackendKind, Client, LoadgenConfig, ServeError, ServerConfig};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Nested rows through [`Client::gemv_block`] and back.
fn gemv_rows(client: &mut Client, digest: u64, batch: &[Vec<i32>]) -> Vec<Vec<i64>> {
    let frames = FrameBlock::from_rows(batch).unwrap();
    client.gemv_block(digest, &frames).unwrap().into()
}

fn test_matrix(seed: u64, rows: usize, cols: usize) -> IntMatrix {
    let mut rng = seeded(seed);
    element_sparse_matrix(rows, cols, 8, 0.6, true, &mut rng).unwrap()
}

#[test]
fn four_concurrent_clients_are_bit_identical_to_the_reference() {
    let server = smm_server::start(ServerConfig {
        backend: BackendKind::Csr,
        threads: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let matrix = test_matrix(4100, 24, 17);
    let digest = Client::connect(addr).unwrap().load_matrix(&matrix).unwrap();

    let clients: Vec<_> = (0..4)
        .map(|c| {
            let matrix = matrix.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut rng = seeded(4200 + c);
                for round in 0..10 {
                    // Alternate single products and batches.
                    if round % 2 == 0 {
                        let a = random_vector(24, 8, true, &mut rng).unwrap();
                        let served = client.gemv(digest, &a).unwrap();
                        assert_eq!(served, vecmat(&a, &matrix).unwrap(), "client {c}");
                    } else {
                        let batch: Vec<Vec<i32>> = (0..9)
                            .map(|_| random_vector(24, 8, true, &mut rng).unwrap())
                            .collect();
                        let served = gemv_rows(&mut client, digest, &batch);
                        let expect: Vec<Vec<i64>> =
                            batch.iter().map(|a| vecmat(a, &matrix).unwrap()).collect();
                        assert_eq!(served, expect, "client {c}");
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    let stats = Client::connect(addr).unwrap().stats().unwrap();
    assert_eq!(stats.matrices, 1);
    // 4 clients x 10 requests, plus the load and this stats request.
    assert!(stats.requests >= 42, "{stats:?}");
    // Per client: 5 batches x 9 vectors + 5 singles = 50 vectors; the
    // singles ride the fast path but are still counted.
    assert_eq!(stats.vectors, 200);
    assert_eq!(stats.batches, 20, "singles do not enter the pool");
    assert!(stats.latency_count >= 40);
    assert!(stats.p50_latency_ns > 0);
    assert!(stats.p50_latency_ns <= stats.p99_latency_ns);
    assert!(stats.bytes_in > 0 && stats.bytes_out > 0);

    let final_stats = server.shutdown();
    assert_eq!(final_stats.matrices, 1);
}

#[test]
fn saturating_a_depth_one_queue_returns_busy_and_loses_nothing() {
    // queue_depth 1 with 6 concurrent hammering clients: overlapping
    // requests are guaranteed, so the server must answer Busy — and
    // every *accepted* request must still verify bit-for-bit.
    let server = smm_server::start(ServerConfig {
        backend: BackendKind::Dense,
        threads: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let report = smm_server::loadgen::run(&LoadgenConfig {
        addr: server.local_addr().to_string(),
        clients: 6,
        batch: 32,
        duration: Duration::from_millis(800),
        matrix: test_matrix(4300, 96, 96),
        seed: 4301,
        backend: None,
    })
    .unwrap();
    assert_eq!(report.mismatches, 0, "{report:?}");
    assert_eq!(report.errors, 0, "{report:?}");
    assert!(report.requests > 0, "{report:?}");
    assert!(
        report.busy_rejections > 0,
        "6 clients against a depth-1 queue never collided: {report:?}"
    );
    let stats = server.shutdown();
    assert_eq!(stats.rejected, report.busy_rejections);
    assert!(stats.vectors >= report.vectors);
}

#[test]
fn busy_does_not_kill_the_session() {
    // A client that was told Busy can retry on the same connection.
    let server = smm_server::start(ServerConfig {
        backend: BackendKind::Dense,
        queue_depth: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let matrix = test_matrix(4400, 8, 8);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let digest = client.load_matrix(&matrix).unwrap();
    let a = vec![1i32; 8];
    let expect = vecmat(&a, &matrix).unwrap();
    let mut served = 0;
    for _ in 0..50 {
        match client.gemv(digest, &a) {
            Ok(o) => {
                assert_eq!(o, expect);
                served += 1;
            }
            Err(ServeError::Busy) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(served > 0);
}

#[test]
fn bitserial_backend_serves_a_repeat_load_from_its_hot_session() {
    let server = smm_server::start(ServerConfig {
        backend: BackendKind::BitSerial,
        threads: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let matrix = test_matrix(4500, 12, 10);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let first = client.load_matrix_with(&matrix, None).unwrap();
    assert!(!first.already_loaded);
    assert_eq!(first.engine, "bitserial");
    let digest = first.digest;
    // Loading the same matrix again is idempotent: the hot session
    // answers, and nothing is rebuilt (no promotion, so no compile).
    let again = client.load_matrix_with(&matrix, None).unwrap();
    assert_eq!(again.digest, digest);
    assert!(again.already_loaded);
    assert_eq!(again.engine, "bitserial");
    let mut rng = seeded(4501);
    let batch: Vec<Vec<i32>> = (0..5)
        .map(|_| random_vector(12, 8, true, &mut rng).unwrap())
        .collect();
    let served = gemv_rows(&mut client, digest, &batch);
    let expect: Vec<Vec<i64>> = batch.iter().map(|a| vecmat(a, &matrix).unwrap()).collect();
    assert_eq!(served, expect);
    let stats = client.stats().unwrap();
    assert_eq!((stats.matrices, stats.tier_hot), (1, 1), "{stats:?}");
    assert_eq!(stats.store_promotions, 0, "{stats:?}");
}

#[test]
fn unknown_digest_and_bad_dimensions_are_remote_errors_not_disconnects() {
    let server = smm_server::start(ServerConfig::default()).unwrap();
    let matrix = test_matrix(4600, 6, 6);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let err = client.gemv(0xDEAD_BEEF, &[1, 2, 3]).unwrap_err();
    assert!(
        matches!(&err, ServeError::Remote(m) if m.contains("no matrix")),
        "{err}"
    );
    let digest = client.load_matrix(&matrix).unwrap();
    let err = client.gemv(digest, &[1, 2, 3]).unwrap_err();
    assert!(matches!(err, ServeError::Remote(_)), "{err}");
    // The session survived both errors.
    let a = vec![2i32; 6];
    assert_eq!(client.gemv(digest, &a).unwrap(), vecmat(&a, &matrix).unwrap());
    let stats = client.stats().unwrap();
    assert_eq!(stats.errors, 2);
}

#[test]
fn garbage_bytes_get_an_error_frame_and_a_close() {
    use std::io::{Read, Write};
    let server = smm_server::start(ServerConfig::default()).unwrap();
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    // Exactly one frame header's worth of garbage: the server reads it,
    // rejects the magic, replies, and closes. (Sending *more* than it
    // reads would race a TCP reset against the reply.)
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(b"GET / HTTP/1.1\r\n\r\n".len(), smm_server::protocol::HEADER_LEN);
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).unwrap(); // server closes after replying
    // The parting frame is a protocol-violation error.
    let text = String::from_utf8_lossy(&reply);
    assert!(text.contains("protocol violation"), "{text}");
}

#[test]
fn graceful_shutdown_drains_and_refuses_new_connections() {
    let server = smm_server::start(ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let matrix = test_matrix(4700, 8, 8);
    let mut client = Client::connect(addr).unwrap();
    let digest = client.load_matrix(&matrix).unwrap();
    client.gemv(digest, &[1; 8]).unwrap();
    // Shut down while the client connection is open and idle: the drain
    // must not hang waiting for the client to disconnect first.
    let t = std::time::Instant::now();
    let stats = server.shutdown();
    assert!(
        t.elapsed() < Duration::from_secs(5),
        "shutdown took {:?}",
        t.elapsed()
    );
    assert!(stats.requests >= 2);
    // The old session is gone: the next call fails instead of hanging.
    assert!(client.gemv(digest, &[1; 8]).is_err());
    // And the port no longer accepts fresh connections.
    assert!(matches!(
        Client::connect(addr),
        Err(ServeError::Transport(_))
    ));
}

#[test]
fn auto_backend_plans_per_matrix_and_serves_verified() {
    // A --backend auto server: a 95%-sparse matrix plans csr, a dense
    // one plans dense — and both serve bit-identically under load.
    let server = smm_server::start(ServerConfig {
        backend: BackendKind::Auto,
        threads: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let sparse = {
        let mut rng = seeded(4900);
        smm_core::generate::element_sparse_matrix(32, 32, 8, 0.95, true, &mut rng).unwrap()
    };
    let dense = {
        let mut rng = seeded(4901);
        smm_core::generate::element_sparse_matrix(16, 16, 8, 0.0, true, &mut rng).unwrap()
    };
    let mut client = Client::connect(server.local_addr()).unwrap();
    let loaded_sparse = client.load_matrix_with(&sparse, None).unwrap();
    assert_eq!(loaded_sparse.engine, "csr", "{loaded_sparse:?}");
    let loaded_dense = client.load_matrix_with(&dense, None).unwrap();
    assert_eq!(loaded_dense.engine, "dense", "{loaded_dense:?}");

    let report = smm_server::loadgen::run(&LoadgenConfig {
        addr: server.local_addr().to_string(),
        clients: 2,
        batch: 8,
        duration: Duration::from_millis(400),
        matrix: sparse,
        seed: 4902,
        backend: None,
    })
    .unwrap();
    assert_eq!(report.mismatches, 0, "{report:?}");
    assert_eq!(report.errors, 0, "{report:?}");
    assert!(report.requests > 0, "{report:?}");
    assert_eq!(report.engine, "csr");
    // The server's own view of the same run, over the wire.
    let stats = client.stats().unwrap();
    assert!(stats.requests > report.requests, "{stats:?}");
    assert!(stats.p50_latency_ns > 0, "{stats:?}");
}

/// A load travels at the narrowest value width that holds its matrix;
/// at each of the three widths the server reports the digest the client
/// computed and serves the matrix bit-identically.
#[test]
fn the_server_digest_matches_at_every_value_width() {
    let server = smm_server::start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for (seed, bits, width) in [(4960, 8, 1u8), (4961, 16, 2), (4962, 31, 4)] {
        let mut rng = seeded(seed);
        let mut matrix = element_sparse_matrix(24, 17, bits, 0.7, true, &mut rng).unwrap();
        // The value that forces the width; a random draw might miss it.
        matrix.set(0, 0, -(1 << (bits - 1)));
        let payload = Request::LoadMatrix {
            matrix: matrix.clone(),
            backend: None,
        }
        .encode(VERSION);
        assert_eq!(payload[24], width, "{bits}-bit weights");
        let loaded = client.load_matrix_with(&matrix, None).unwrap();
        assert_eq!(loaded.digest, matrix.digest(), "{bits}-bit weights");
        let a = random_vector(24, 8, true, &mut rng).unwrap();
        assert_eq!(
            client.gemv(loaded.digest, &a).unwrap(),
            vecmat(&a, &matrix).unwrap()
        );
    }
    server.shutdown();
}

#[test]
fn per_request_backend_choice_overrides_the_server_default() {
    let server = smm_server::start(ServerConfig {
        backend: BackendKind::Csr,
        ..ServerConfig::default()
    })
    .unwrap();
    let matrix = test_matrix(4950, 10, 10);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let loaded = client
        .load_matrix_with(&matrix, Some(BackendKind::BitSerial))
        .unwrap();
    assert_eq!(loaded.engine, "bitserial");
    assert!(!loaded.already_loaded);
    // The digest is bound to the first loader's engine: a repeat load
    // asking for something else reports what is actually serving.
    let again = client
        .load_matrix_with(&matrix, Some(BackendKind::Dense))
        .unwrap();
    assert!(again.already_loaded);
    assert_eq!(again.engine, "bitserial");
    // And it serves correctly.
    let a = vec![1i32; 10];
    assert_eq!(
        client.gemv(loaded.digest, &a).unwrap(),
        vecmat(&a, &matrix).unwrap()
    );
    // The repeat load and the product were answered by the one hot
    // session: nothing was promoted, so nothing was rebuilt.
    let stats = server.shutdown();
    assert_eq!((stats.matrices, stats.tier_hot), (1, 1), "{stats:?}");
    assert_eq!(stats.store_promotions, 0, "{stats:?}");
}

#[test]
fn registry_bound_is_enforced() {
    // Hot and warm tiers both bounded, no store to spill to: the third
    // load must be refused — with the typed capacity reply, not a
    // stringly error.
    let server = smm_server::start(ServerConfig {
        max_matrices: 1,
        max_warm: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.load_matrix(&test_matrix(4800, 4, 4)).unwrap();
    client.load_matrix(&test_matrix(4801, 4, 4)).unwrap();
    let err = client.load_matrix(&test_matrix(4802, 4, 4)).unwrap_err();
    assert!(
        matches!(&err, ServeError::Capacity { loaded: 2 }),
        "{err}"
    );
    // The typed error renders the sentence v1–v4 peers still receive.
    assert!(err.to_string().contains("registry full"), "{err}");
    // Already-loaded matrices still serve.
    let m = test_matrix(4800, 4, 4);
    let digest = m.digest();
    let a = vec![1i32; 4];
    assert_eq!(
        Client::connect(server.local_addr())
            .unwrap()
            .gemv(digest, &a)
            .unwrap(),
        vecmat(&a, &m).unwrap()
    );
}

#[test]
fn connections_gauge_counts_open_connections_not_accepted_ones() {
    let server = smm_server::start(ServerConfig::default()).unwrap();
    let open = || -> u64 {
        let text = server.render_metrics();
        text.lines()
            .find_map(|l| l.strip_prefix("smm_connections "))
            .unwrap_or_else(|| panic!("no smm_connections sample in:\n{text}"))
            .trim()
            .parse()
            .unwrap()
    };
    // An answered ping proves the session thread is up and counted.
    let mut first = Client::connect(server.local_addr()).unwrap();
    let mut second = Client::connect(server.local_addr()).unwrap();
    first.ping().unwrap();
    second.ping().unwrap();
    assert_eq!(open(), 2);
    // The session notices the hang-up on its own; poll, bounded.
    drop(second);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while open() != 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "gauge still reads {} after a client hung up",
            open()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Two were accepted and one is open: the gauge is not the id counter.
    first.ping().unwrap();
    assert_eq!(open(), 1);
}

/// What the removed per-session counters pinned, where the numbers now
/// live: `Stats.vectors` / `Stats.batches` count answered products only.
#[test]
fn stats_count_exactly_the_products_that_were_answered() {
    let server = smm_server::start(ServerConfig {
        backend: BackendKind::Dense,
        threads: 4,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let echo = IntMatrix::identity(8).unwrap();
    let mut client = Client::connect(addr).unwrap();
    let digest = client.load_matrix(&echo).unwrap();
    let served = |client: &mut Client| {
        let stats = client.stats().unwrap();
        (stats.batches, stats.vectors)
    };
    // A failed batch (wrong width) and a failed single count nothing,
    // and neither does an empty batch, which is answered.
    let narrow = FrameBlock::from_rows(&[vec![1; 3], vec![2; 3]]).unwrap();
    assert!(client.gemv_block(digest, &narrow).is_err());
    assert!(client.gemv(digest, &[1]).is_err());
    assert!(client.gemv(0xDEAD_BEEF, &[1; 8]).is_err());
    let empty = FrameBlock::from_rows(&[]).unwrap();
    assert_eq!(client.gemv_block(digest, &empty).unwrap().rows(), 0);
    assert_eq!(served(&mut client), (0, 0));
    // Singles count as vectors and move no batch; a batch counts once.
    for round in 1..=3 {
        assert_eq!(client.gemv(digest, &[7; 8]).unwrap(), vec![7; 8]);
        assert_eq!(served(&mut client), (0, round));
    }
    assert_eq!(gemv_rows(&mut client, digest, &vec![vec![5; 8]; 9]).len(), 9);
    assert_eq!(served(&mut client), (1, 12));
    // Concurrent submitters are counted exactly: 4 connections x 10
    // batches x 25 frames, none lost and none counted twice.
    let submitters: Vec<_> = (0..4i32)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let batch: Vec<Vec<i32>> =
                    (0..25).map(|i| (0..8).map(|j| t * 1000 + i * 8 + j).collect()).collect();
                let expect: Vec<Vec<i64>> =
                    batch.iter().map(|a| a.iter().map(|&x| i64::from(x)).collect()).collect();
                for _ in 0..10 {
                    assert_eq!(gemv_rows(&mut client, digest, &batch), expect);
                }
            })
        })
        .collect();
    for submitter in submitters {
        submitter.join().unwrap();
    }
    assert_eq!(served(&mut client), (41, 1012));
    let stats = server.shutdown();
    assert_eq!((stats.batches, stats.vectors), (41, 1012));
}

/// The server reads ahead through a buffer: two requests that arrive in
/// one segment are both answered, in order, each under its own id.
#[test]
fn two_requests_in_one_write_are_answered_in_order() {
    let server = smm_server::start(ServerConfig::default()).unwrap();
    let matrix = test_matrix(5100, 6, 5);
    let digest = Client::connect(server.local_addr())
        .unwrap()
        .load_matrix(&matrix)
        .unwrap();
    let a = vec![3, -1, 4, 1, -5, 9];
    let mut both = Vec::new();
    write_frame(&mut both, VERSION, Opcode::Ping as u8, 21, &[]).unwrap();
    let gemv = Request::Gemv {
        digest,
        vector: a.clone(),
    };
    write_frame(
        &mut both,
        VERSION,
        Opcode::Gemv as u8,
        22,
        &gemv.encode(VERSION),
    )
    .unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(&both).unwrap();
    let first = read_frame(&mut raw).unwrap();
    assert_eq!((first.request_id, first.opcode), (21, Opcode::Ping as u8));
    assert_eq!(
        Reply::decode(first.version, Opcode::Ping, &first.payload).unwrap(),
        Reply::Pong
    );
    let second = read_frame(&mut raw).unwrap();
    assert_eq!((second.request_id, second.opcode), (22, Opcode::Gemv as u8));
    assert_eq!(
        Reply::decode(second.version, Opcode::Gemv, &second.payload).unwrap(),
        Reply::Output(vecmat(&a, &matrix).unwrap())
    );
}

/// A 1×8192 all-ones matrix: a width-1 batch of `n` frames asks for an
/// `n × 8192` reply of 65,540 bytes per frame.
fn wide_server() -> (smm_server::ServerHandle, u64) {
    let server = smm_server::start(ServerConfig::default()).unwrap();
    let wide = IntMatrix::from_vec(1, 8192, vec![1; 8192]).unwrap();
    let digest = Client::connect(server.local_addr())
        .unwrap()
        .load_matrix(&wide)
        .unwrap();
    (server, digest)
}

/// A peer sends a batch whose ~33.6 MB reply outgrows the socket
/// buffers, then never reads: the session is stuck in its write, and
/// shutdown must still return.
#[test]
fn shutdown_returns_while_a_peer_has_stopped_reading_its_reply() {
    let (server, digest) = wide_server();
    let frames = FrameBlock::from_vec(512, 1, vec![1; 512]).unwrap();
    let payload = Request::encode_gemv_batch(digest, &frames);
    let mut stalled = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(&mut stalled, VERSION, Opcode::GemvBatch as u8, 1, &payload).unwrap();
    // The batch is counted once computed, just before its reply is
    // written.
    let deadline = Instant::now() + Duration::from_secs(30);
    let served = || Client::connect(server.local_addr()).unwrap().stats().unwrap().vectors;
    while served() < 512 {
        assert!(Instant::now() < deadline, "the batch was never served");
        std::thread::sleep(Duration::from_millis(10));
    }
    let (done, finished) = std::sync::mpsc::channel();
    let shutdown = std::thread::spawn(move || done.send(server.shutdown()).unwrap());
    let stats = finished
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown hung behind a peer that stopped reading");
    shutdown.join().unwrap();
    assert_eq!(stats.vectors, 512);
    drop(stalled);
}

/// A batch whose reply cannot fit in one frame (1024 × 65,540 bytes is
/// past the 64 MiB cap) is refused before it is computed: nothing is
/// counted as served, and the connection keeps working.
#[test]
fn an_over_cap_batch_is_refused_before_it_is_computed() {
    let (server, digest) = wide_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let frames = FrameBlock::from_vec(1024, 1, vec![1; 1024]).unwrap();
    let err = client.gemv_block(digest, &frames).unwrap_err();
    assert_eq!(
        err,
        ServeError::Remote("reply exceeds frame capacity; split the batch".into())
    );
    let stats = client.stats().unwrap();
    assert_eq!((stats.vectors, stats.batches, stats.errors), (0, 0, 1));
    client.ping().unwrap();
    // One frame fewer fits, and is served.
    let fits = FrameBlock::from_vec(1023, 1, vec![1; 1023]).unwrap();
    assert_eq!(client.gemv_block(digest, &fits).unwrap().rows(), 1023);
}
