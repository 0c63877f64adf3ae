//! Byte-level pins of the wire protocol's one layout, and the proof that
//! a peer from any other revision is refused cleanly.
//!
//! Every `Request` and `Reply` variant, the frame header, and every
//! status / version constant is written out here as raw bytes — built
//! from `to_le_bytes` and literals, deliberately *not* from the
//! `smm_core::wire` helpers the codec itself uses — so an encoder that
//! drifts names the exact variant that moved. That "every" is checked,
//! not promised: the pins run through wildcard-free `match`es, and the
//! constants are read out of `protocol.rs` itself. The loopback test then
//! speaks raw frames under version bytes the server does not speak
//! (0, the retired 1–7, a future 9) and checks each gets one typed error frame and a closed
//! socket while a current client keeps being served.

use smm_core::block::{FrameBlock, RowBlock};
use smm_core::generate::{element_sparse_matrix, random_vector};
use smm_core::gemv::vecmat;
use smm_core::matrix::IntMatrix;
use smm_core::rng::seeded;
use smm_server::protocol::{
    read_frame, write_frame, LoadedInfo, Opcode, Reply, Request, StatsSnapshot, HEADER_LEN,
    STATUS_BUSY, STATUS_CAPACITY, STATUS_ERROR, STATUS_OK, VERSION,
};
use smm_server::{BackendKind, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;

/// Concatenates byte pieces.
fn cat(parts: &[&[u8]]) -> Vec<u8> {
    parts.concat()
}

fn le32(x: u32) -> [u8; 4] {
    x.to_le_bytes()
}

fn le64(x: u64) -> [u8; 8] {
    x.to_le_bytes()
}

/// Pins one request: it encodes to exactly `expect` and decodes back
/// from it. The `match` has no wildcard arm on purpose — a new `Request`
/// variant stops this file building until its layout is pinned here.
fn pin_request(request: Request, expect: &[u8]) {
    let opcode = match &request {
        Request::Ping => Opcode::Ping,
        Request::LoadMatrix { .. } => Opcode::LoadMatrix,
        Request::Gemv { .. } => Opcode::Gemv,
        Request::GemvBatch { .. } => Opcode::GemvBatch,
        Request::Stats => Opcode::Stats,
    };
    assert_eq!(request.encode(VERSION), expect, "{request:?}");
    assert_eq!(Request::decode(VERSION, opcode, expect).unwrap(), request);
}

/// [`pin_request`] for a reply, under the opcode of the request it
/// answers (`Busy` and `Error` answer any; `Gemv` stands for them).
fn pin_reply(reply: Reply, expect: &[u8]) {
    let opcode = match &reply {
        Reply::Pong => Opcode::Ping,
        Reply::Loaded(_) | Reply::CapacityFull { .. } => Opcode::LoadMatrix,
        Reply::Output(_) | Reply::Busy | Reply::Error(_) => Opcode::Gemv,
        Reply::Outputs(_) => Opcode::GemvBatch,
        Reply::Stats(_) => Opcode::Stats,
    };
    assert_eq!(reply.encode(VERSION), expect, "{reply:?}");
    assert_eq!(Reply::decode(VERSION, opcode, expect).unwrap(), reply);
}

/// The status bytes and the version ARE the wire: renumbering any of
/// them breaks every peer, so their literal values are pinned here. The
/// version "range" is exactly one value — every other byte is refused.
#[test]
fn status_bytes_and_version_range_are_pinned() {
    assert_eq!(VERSION, 8);
    assert_eq!(STATUS_OK, 0);
    assert_eq!(STATUS_BUSY, 1);
    assert_eq!(STATUS_ERROR, 2);
    assert_eq!(STATUS_CAPACITY, 3);
    assert_eq!(HEADER_LEN, 18);
    let ping = Request::Ping.encode(VERSION);
    let pong = Reply::Pong.encode(VERSION);
    for version in (0..=u8::MAX).filter(|&v| v != 8) {
        assert!(Request::decode(version, Opcode::Ping, &ping).is_err(), "v{version}");
        assert!(Reply::decode(version, Opcode::Ping, &pong).is_err(), "v{version}");
    }
}

#[test]
fn frame_header_layout_is_pinned() {
    let mut frame = Vec::new();
    write_frame(&mut frame, VERSION, Opcode::Gemv as u8, 0x0102_0304_0506_0708, &[0xAA, 0xBB])
        .unwrap();
    assert_eq!(
        frame,
        cat(&[
            b"SMM1",
            &[8],                                              // version
            &[2],                                              // opcode: Gemv
            &[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01], // request id, LE
            &[2, 0, 0, 0],                                     // payload length, LE
            &[0xAA, 0xBB],
        ])
    );
    // Opcode numbering.
    assert_eq!(
        [
            Opcode::Ping as u8,
            Opcode::LoadMatrix as u8,
            Opcode::Gemv as u8,
            Opcode::GemvBatch as u8,
            Opcode::Stats as u8
        ],
        [0, 1, 2, 3, 4]
    );
}

/// Every `Request` variant's payload, byte for byte.
#[test]
fn request_body_layouts_are_pinned() {
    pin_request(Request::Ping, &[]);
    pin_request(Request::Stats, &[]);

    // LoadMatrix: rows, cols and nnz as u64, the value width byte, one
    // u32 non-zero count per row, the non-zeros' u32 column indices, their
    // values at that width, then one backend choice byte (0 = server
    // default, 1 auto, 2 dense, 3 csr, 4 bitserial, 5 sigma). The width
    // is the narrowest of i8, i16 and i32 that holds every value.
    let body = |first: i32, width: u8, first_bytes: &[u8], rest: &[u8]| {
        let matrix = IntMatrix::from_vec(2, 3, vec![first, 0, 0, 0, -3, 4]).unwrap();
        let bytes = cat(&[
            &le64(2),        // rows
            &le64(3),        // cols
            &le64(3),        // nnz
            &[width],        // bytes per value
            &le32(1),        // row 0: one non-zero
            &le32(2),        // row 1: two
            &le32(0),        // row 0, column 0
            &le32(1),        // row 1, column 1
            &le32(2),        // row 1, column 2
            first_bytes,     // (0, 0)
            rest,            // -3, 4
        ]);
        (matrix, bytes)
    };
    let widths = [
        body(1, 1, &[1], &[0xFD, 4]),
        body(-300, 2, &(-300i16).to_le_bytes(), &[0xFD, 0xFF, 4, 0]),
        body(i32::MIN, 4, &i32::MIN.to_le_bytes(), &[0xFD, 0xFF, 0xFF, 0xFF, 4, 0, 0, 0]),
    ];
    for (matrix, bytes) in widths {
        for (backend, byte) in [
            (None, 0u8),
            (Some(BackendKind::Auto), 1),
            (Some(BackendKind::Dense), 2),
            (Some(BackendKind::Csr), 3),
            (Some(BackendKind::BitSerial), 4),
            (Some(BackendKind::Sigma), 5),
        ] {
            let request = Request::LoadMatrix {
                matrix: matrix.clone(),
                backend,
            };
            pin_request(request, &cat(&[&bytes, &[byte]]));
        }
    }

    // Gemv: digest, then a count-prefixed i32 vector.
    let gemv = Request::Gemv {
        digest: 0xABCD,
        vector: vec![1, -2],
    };
    let expect = cat(&[
        &le64(0xABCD),
        &le32(2),
        &[1, 0, 0, 0],
        &[0xFE, 0xFF, 0xFF, 0xFF],
    ]);
    pin_request(gemv, &expect);

    // GemvBatch: digest, frame count, then one count-prefixed i32
    // vector per frame.
    let frames = FrameBlock::from_vec(2, 2, vec![1, 2, 3, -1]).unwrap();
    let expect = cat(&[
        &le64(7),
        &le32(2),
        &le32(2),
        &[1, 0, 0, 0, 2, 0, 0, 0],
        &le32(2),
        &[3, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF],
    ]);
    assert_eq!(Request::encode_gemv_batch(7, &frames), expect);
    pin_request(Request::GemvBatch { digest: 7, frames }, &expect);
}

/// Every `Reply` variant's payload, byte for byte.
#[test]
fn reply_body_layouts_are_pinned() {
    // Pong and Busy are bare status bytes.
    pin_reply(Reply::Pong, &[0]);
    pin_reply(Reply::Busy, &[1]);

    // Error: status + length-prefixed UTF-8.
    pin_reply(Reply::Error("boom".into()), &cat(&[&[2], &le32(4), b"boom"]));

    // CapacityFull: status + resident count.
    pin_reply(Reply::CapacityFull { loaded: 64 }, &cat(&[&[3], &le64(64)]));

    // Loaded: digest, rows, cols, already-loaded flag, engine name.
    let loaded = Reply::Loaded(LoadedInfo {
        digest: 0xABCD,
        rows: 4,
        cols: 3,
        already_loaded: true,
        engine: "sigma".into(),
    });
    let expect = cat(&[&[0], &le64(0xABCD), &le64(4), &le64(3), &[1], &le32(5), b"sigma"]);
    pin_reply(loaded, &expect);

    // Output: status + one count-prefixed i64 vector.
    pin_reply(
        Reply::Output(vec![-1, 2]),
        &cat(&[&[0], &le32(2), &[0xFF; 8], &le64(2)]),
    );

    // Outputs: status + row count + one count-prefixed i64 vector per row.
    let rows = RowBlock::from_vec(2, 2, vec![1, 2, 3, 4]).unwrap();
    pin_reply(
        Reply::Outputs(rows),
        &cat(&[
            &[0],
            &le32(2),
            &le32(2),
            &le64(1),
            &le64(2),
            &le32(2),
            &le64(3),
            &le64(4),
        ]),
    );
}

/// The `Stats` reply: status byte, eleven `u64` counters, seven stages
/// of (count, p50 ns, p99 ns), six fleet tier counters — 38 `u64`s in
/// this order and nothing else.
#[test]
fn stats_reply_bytes_are_pinned() {
    let mut snapshot = StatsSnapshot {
        requests: 1,
        rejected: 2,
        errors: 3,
        bytes_in: 4,
        bytes_out: 5,
        vectors: 6,
        batches: 7,
        matrices: 8,
        latency_count: 9,
        p50_latency_ns: 10,
        p99_latency_ns: 11,
        tier_hot: 33,
        tier_warm: 34,
        tier_cold: 35,
        store_promotions: 36,
        store_demotions: 37,
        store_hits: 38,
        ..Default::default()
    };
    assert_eq!(snapshot.stages.len(), 7);
    for (i, stage) in snapshot.stages.iter_mut().enumerate() {
        stage.count = 12 + 3 * i as u64;
        stage.p50_ns = 13 + 3 * i as u64;
        stage.p99_ns = 14 + 3 * i as u64;
    }
    let mut expect = vec![0u8];
    for field in 1..=38u64 {
        expect.extend_from_slice(&le64(field));
    }
    assert_eq!(expect.len(), 1 + 11 * 8 + 7 * 3 * 8 + 6 * 8);
    pin_reply(Reply::Stats(Box::new(snapshot)), &expect);
}

/// Every protocol-revision and status constant of `protocol.rs` (a
/// `pub const` whose name ends `VERSION` or starts `STATUS_`) is named,
/// as a whole word, in this file and in `wire_fuzz.rs`: a new status
/// byte ships with a layout pin and with hostile-input coverage, or
/// this fails naming the constant and the file that lacks it.
#[test]
fn every_version_and_status_constant_is_named_in_both_wire_test_files() {
    let names: Vec<&str> = include_str!("../src/protocol.rs")
        .lines()
        .filter_map(|line| line.trim_start().strip_prefix("pub const ")?.split_once(':'))
        .map(|(name, _)| name.trim())
        .filter(|name| name.ends_with("VERSION") || name.starts_with("STATUS_"))
        .collect();
    assert!(names.contains(&"VERSION") && names.contains(&"STATUS_OK"), "{names:?}");
    let mut unpinned = Vec::new();
    for (file, text) in [
        ("wire_compat.rs", include_str!("wire_compat.rs")),
        ("wire_fuzz.rs", include_str!("wire_fuzz.rs")),
    ] {
        let words: Vec<&str> = text
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .collect();
        for name in names.iter().filter(|name| !words.contains(name)) {
            unpinned.push(format!("{name} is not named in {file}"));
        }
    }
    assert!(unpinned.is_empty(), "{unpinned:#?}");
}

/// Peers from another revision — v0, the retired v1–v7, a future v9 —
/// each get exactly one `STATUS_ERROR` frame naming the unsupported
/// version, then EOF; a v8 client on another connection to the same
/// server keeps being served, and the refusals are not request errors.
#[test]
fn other_versions_are_refused_while_a_current_client_keeps_being_served() {
    let server = smm_server::start(ServerConfig::default()).unwrap();
    let mut rng = seeded(5000);
    let matrix = element_sparse_matrix(12, 9, 8, 0.6, true, &mut rng).unwrap();
    let mut client = smm_server::Client::connect(server.local_addr()).unwrap();
    let digest = client.load_matrix(&matrix).unwrap();
    let errors_before = client.stats().unwrap().errors;

    for version in [0u8, 1, 2, 3, 4, 5, 6, 7, 9] {
        // A raw Ping frame under the foreign version byte.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let ping = cat(&[b"SMM1", &[version], &[0], &le64(9), &le32(0)]);
        stream.write_all(&ping).unwrap();

        let frame = read_frame(&mut stream).unwrap();
        assert_eq!(frame.version, 8, "the refusal travels under the one version");
        let mut c = smm_core::wire::Cursor::new(&frame.payload);
        assert_eq!(c.take_u8("status").unwrap(), STATUS_ERROR, "v{version}");
        let message = c.take_str("message").unwrap();
        assert!(
            message.contains(&format!("unsupported protocol version {version}")),
            "v{version}: {message}"
        );
        assert!(message.starts_with("protocol violation"), "{message}");
        c.expect_end("refusal").unwrap();
        // ...and then the socket is closed: no second frame.
        assert_eq!(stream.read(&mut [0u8; 1]).unwrap(), 0, "v{version}: EOF expected");

        // The current client is undisturbed.
        let a = random_vector(12, 8, true, &mut rng).unwrap();
        assert_eq!(client.gemv(digest, &a).unwrap(), vecmat(&a, &matrix).unwrap());
    }
    assert_eq!(client.stats().unwrap().errors, errors_before);
    server.shutdown();
}
