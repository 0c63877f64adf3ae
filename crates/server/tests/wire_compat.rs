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
//! (0, the retired 1–11, a future 13) and checks each gets one typed
//! error frame and a closed socket while a current client keeps being
//! served.

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

/// An element vector's bytes: the count, the width byte, then each
/// element's low `width` bytes, little-endian. The width is the case's
/// literal, never computed here, so the pin states the encoder's choice.
fn elements(values: &[i64], width: u8) -> Vec<u8> {
    let mut bytes = cat(&[&le32(values.len() as u32), &[width]]);
    for v in values {
        bytes.extend_from_slice(&v.to_le_bytes()[..usize::from(width)]);
    }
    bytes
}

/// `i32` vectors at each width they take, at both edges of each:
/// `±127/128`, `±32 767/32 768` and the `i32` extremes, with the empty
/// vector at width 1.
fn i32_width_cases() -> Vec<(Vec<i32>, u8)> {
    vec![
        (vec![], 1),
        (vec![0, 0, 0], 1),
        (vec![1, -2], 1),
        (vec![-128, 127], 1),
        (vec![128], 2),
        (vec![-129, 5], 2),
        (vec![-32_768, 32_767], 2),
        (vec![32_768], 4),
        (vec![3, -32_769], 4),
        (vec![i32::MIN, i32::MAX], 4),
    ]
}

/// `i64` vectors at each width they take, at both edges of each.
fn i64_width_cases() -> Vec<(Vec<i64>, u8)> {
    vec![
        (vec![], 1),
        (vec![-1, 2], 1),
        (vec![-128, 127], 1),
        (vec![128, -129], 2),
        (vec![-32_768, 32_767], 2),
        (vec![32_768], 4),
        (vec![-32_769], 4),
        (vec![i32::MIN.into(), i32::MAX.into()], 4),
        (vec![i64::from(i32::MAX) + 1], 8),
        (vec![0, i64::from(i32::MIN) - 1], 8),
        (vec![i64::MIN, i64::MAX], 8),
    ]
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
    assert_eq!(VERSION, 12);
    assert_eq!(STATUS_OK, 0);
    assert_eq!(STATUS_BUSY, 1);
    assert_eq!(STATUS_ERROR, 2);
    assert_eq!(STATUS_CAPACITY, 3);
    assert_eq!(HEADER_LEN, 18);
    let ping = Request::Ping.encode(VERSION);
    let pong = Reply::Pong.encode(VERSION);
    for version in (0..=u8::MAX).filter(|&v| v != 12) {
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
            &[12],                                             // version
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

    // Gemv: digest, then an i32 element vector: the count, one width
    // byte, and every element at the narrowest width that holds them all.
    let gemv = Request::Gemv {
        digest: 0xABCD,
        vector: vec![1, -2],
    };
    let expect = cat(&[&le64(0xABCD), &le32(2), &[1], &[1, 0xFE]]);
    pin_request(gemv, &expect);
    let gemv = Request::Gemv {
        digest: 0xABCD,
        vector: vec![-300, 2],
    };
    let expect = cat(&[&le64(0xABCD), &le32(2), &[2], &[0xD4, 0xFE, 2, 0]]);
    pin_request(gemv, &expect);
    for (vector, width) in i32_width_cases() {
        let wide: Vec<i64> = vector.iter().map(|&v| v.into()).collect();
        let expect = cat(&[&le64(0xABCD), &elements(&wide, width)]);
        pin_request(Request::Gemv { digest: 0xABCD, vector }, &expect);
    }

    // GemvBatch: digest, frame count, then the block's elements as one
    // i32 element vector; the frame width is elements / frames.
    let frames = FrameBlock::from_vec(2, 2, vec![1, 2, 3, -1]).unwrap();
    let expect = cat(&[&le64(7), &le32(2), &le32(4), &[1], &[1, 2, 3, 0xFF]]);
    assert_eq!(Request::encode_gemv_batch(7, &frames), expect);
    pin_request(Request::GemvBatch { digest: 7, frames }, &expect);
    // One element past a width widens the whole block.
    for (block, width) in i32_width_cases() {
        if block.is_empty() || block.len() % 2 != 0 {
            continue;
        }
        let wide: Vec<i64> = block.iter().map(|&v| v.into()).collect();
        let frames = FrameBlock::from_vec(block.len() / 2, 2, block).unwrap();
        let expect = cat(&[&le64(7), &le32(frames.frames() as u32), &elements(&wide, width)]);
        assert_eq!(Request::encode_gemv_batch(7, &frames), expect);
        pin_request(Request::GemvBatch { digest: 7, frames }, &expect);
    }
    // An empty batch is the digest, two zeros and width 1; three
    // zero-width frames are a count and no elements, at width 1.
    for (frames, count) in [(0, 0u32), (3, 3)] {
        let frames = FrameBlock::from_vec(frames, 0, Vec::new()).unwrap();
        let expect = cat(&[&le64(7), &le32(count), &le32(0), &[1]]);
        pin_request(Request::GemvBatch { digest: 7, frames }, &expect);
    }
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

    // Output: status + one i64 element vector: the count, one width
    // byte, and every output at the narrowest width that holds them all.
    pin_reply(Reply::Output(vec![-1, 2]), &cat(&[&[0], &le32(2), &[1], &[0xFF, 2]]));
    pin_reply(
        Reply::Output(vec![-1, 1 << 40]),
        &cat(&[&[0], &le32(2), &[8], &[0xFF; 8], &le64(1 << 40)]),
    );
    for (outputs, width) in i64_width_cases() {
        let expect = cat(&[&[0], &elements(&outputs, width)]);
        pin_reply(Reply::Output(outputs), &expect);
    }

    // Outputs: status + row count + the block's elements as one i64
    // element vector.
    let rows = RowBlock::from_vec(2, 2, vec![1, 2, 3, 4]).unwrap();
    pin_reply(
        Reply::Outputs(rows),
        &cat(&[&[0], &le32(2), &le32(4), &[1], &[1, 2, 3, 4]]),
    );
    for (block, width) in i64_width_cases() {
        let rows = RowBlock::from_vec(1, block.len(), block.clone()).unwrap();
        let expect = cat(&[&[0], &le32(1), &elements(&block, width)]);
        pin_reply(Reply::Outputs(rows), &expect);
    }
    // An empty block, and four zero-width rows, are width 1.
    for (frames, count) in [(0, 0u32), (4, 4)] {
        let rows = RowBlock::from_vec(frames, 0, Vec::new()).unwrap();
        pin_reply(Reply::Outputs(rows), &cat(&[&[0], &le32(count), &le32(0), &[1]]));
    }
}

/// One vector, one layout: a width byte that is not a width (0, 3, 5,
/// 255), past the element type (8 for an `i32` input, 16 for an output),
/// or wider than the elements need (down to an empty vector at width 2)
/// is refused with a typed error, on every message that carries one.
#[test]
fn a_vector_has_exactly_one_width() {
    let gemv = |width: u8, bytes: &[u8]| {
        let payload = cat(&[&le64(7), &le32(2), &[width], bytes]);
        Request::decode(VERSION, Opcode::Gemv, &payload)
    };
    let batch = |width: u8, bytes: &[u8]| {
        let payload = cat(&[&le64(7), &le32(1), &le32(2), &[width], bytes]);
        Request::decode(VERSION, Opcode::GemvBatch, &payload)
    };
    let output = |width: u8, bytes: &[u8]| {
        let payload = cat(&[&[0], &le32(2), &[width], bytes]);
        Reply::decode(VERSION, Opcode::Gemv, &payload)
    };
    let outputs = |width: u8, bytes: &[u8]| {
        let payload = cat(&[&[0], &le32(1), &le32(2), &[width], bytes]);
        Reply::decode(VERSION, Opcode::GemvBatch, &payload)
    };
    let wire_error = |err: smm_core::error::Error, expect: &str| {
        assert!(
            matches!(&err, smm_core::error::Error::Wire { context } if context.contains(expect)),
            "{expect}: {err}"
        );
    };
    // Two elements' worth of bytes at the claimed width: 1 and −1, or
    // 200 and −1 where two bytes are needed.
    let pair = |width: usize, first: i64| [first.to_le_bytes(), [0xFF; 8]].map(|b| b[..width].to_vec()).concat();
    for (width, expect) in [(0u8, "width 0"), (3, "width 3"), (5, "width 5"), (255, "width 255")] {
        wire_error(gemv(width, &[0; 16]).unwrap_err(), expect);
        wire_error(batch(width, &[0; 16]).unwrap_err(), expect);
        wire_error(output(width, &[0; 16]).unwrap_err(), expect);
        wire_error(outputs(width, &[0; 16]).unwrap_err(), expect);
    }
    wire_error(gemv(8, &pair(8, 1 << 40)).unwrap_err(), "width 8");
    wire_error(batch(8, &pair(8, 1 << 40)).unwrap_err(), "width 8");
    wire_error(output(16, &[0; 32]).unwrap_err(), "width 16");
    for (width, first) in [(2, 1), (4, 200), (4, 1)] {
        wire_error(gemv(width as u8, &pair(width, first)).unwrap_err(), "wider");
        wire_error(batch(width as u8, &pair(width, first)).unwrap_err(), "wider");
        wire_error(output(width as u8, &pair(width, first)).unwrap_err(), "wider");
        wire_error(outputs(width as u8, &pair(width, first)).unwrap_err(), "wider");
    }
    wire_error(output(8, &pair(8, i64::from(i32::MAX))).unwrap_err(), "wider");
    wire_error(outputs(8, &pair(8, i64::from(i32::MIN))).unwrap_err(), "wider");
    // The narrowest width of the same values decodes.
    assert!(gemv(2, &pair(2, 200)).is_ok() && output(8, &pair(8, 1 << 40)).is_ok());
    let empty = cat(&[&le64(7), &le32(0), &[2]]);
    wire_error(Request::decode(VERSION, Opcode::Gemv, &empty).unwrap_err(), "wider");
}

/// The `Stats` reply: status byte, eight `u64` counters, seven stages
/// of (count, p50 ns, p99 ns), six fleet tier counters — 35 `u64`s in
/// this order and nothing else, 281 bytes. The resident count and the
/// request-latency triple that version 9 sent are gone: they were the
/// tier sum and the compute stage. Version 11 added the body singles
/// after the batches.
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
        body_singles: 8,
        tier_hot: 30,
        tier_warm: 31,
        tier_cold: 32,
        store_promotions: 33,
        store_demotions: 34,
        store_hits: 35,
        ..Default::default()
    };
    assert_eq!(snapshot.stages.len(), 7);
    for (i, stage) in snapshot.stages.iter_mut().enumerate() {
        stage.count = 9 + 3 * i as u64;
        stage.p50_ns = 10 + 3 * i as u64;
        stage.p99_ns = 11 + 3 * i as u64;
    }
    let mut expect = vec![0u8];
    for field in 1..=35u64 {
        expect.extend_from_slice(&le64(field));
    }
    assert_eq!(expect.len(), 281);
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

/// Peers from another revision — v0, the retired v1–v11, a future v13 —
/// each get exactly one `STATUS_ERROR` frame naming the unsupported
/// version, then EOF; a v12 client on another connection to the same
/// server keeps being served, and the refusals are not request errors.
/// Each foreign frame is a `Gemv` for the loaded matrix in the rev-11
/// layout (every input at 4 bytes, no width byte): what a live rev-11
/// peer sends.
#[test]
fn other_versions_are_refused_while_a_current_client_keeps_being_served() {
    let server = smm_server::start(ServerConfig::default()).unwrap();
    let mut rng = seeded(5000);
    let matrix = element_sparse_matrix(12, 9, 8, 0.6, true, &mut rng).unwrap();
    let mut client = smm_server::Client::connect(server.local_addr()).unwrap();
    let digest = client.load_matrix(&matrix).unwrap();
    let errors_before = client.stats().unwrap().errors;

    for version in [0u8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13] {
        // A raw rev-11 Gemv frame under the foreign version byte.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let a = random_vector(12, 8, true, &mut rng).unwrap();
        let mut payload = cat(&[&le64(digest), &le32(12)]);
        for x in &a {
            payload.extend_from_slice(&x.to_le_bytes());
        }
        let header = cat(&[b"SMM1", &[version], &[2], &le64(9), &le32(payload.len() as u32)]);
        stream.write_all(&cat(&[&header, &payload])).unwrap();

        let frame = read_frame(&mut stream).unwrap();
        assert_eq!(frame.version, 12, "the refusal travels under the one version");
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
