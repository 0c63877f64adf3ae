//! Wire-decoder fuzzing: arbitrary, truncated, and length-lying byte
//! streams against the `Request`/`Reply` decoders and the frame reader
//! must come back as `Err` — never a panic, never an allocation driven
//! by a lying length prefix. The one protocol rev is covered whole —
//! the binary `LoadMatrix` body, the per-stage `Stats` block, the
//! `CapacityFull` status, the fleet tier counters — and so is the
//! decoders' version argument: anything
//! but `VERSION` is refused. The generator is the workspace's seeded
//! ChaCha stream, so every run explores the same inputs and any failure
//! reproduces exactly.

use rand::RngCore;
use smm_core::block::{FrameBlock, RowBlock};
use smm_core::matrix::IntMatrix;
use smm_core::rng::seeded;
use smm_core::wire;
use smm_server::protocol::{
    read_frame, write_frame, FrameError, LoadedInfo, Opcode, Reply, Request, StatsSnapshot,
    MAX_FRAME_PAYLOAD, STATUS_BUSY, STATUS_CAPACITY, STATUS_ERROR, VERSION,
};

const OPCODES: [Opcode; 5] = [
    Opcode::Ping,
    Opcode::LoadMatrix,
    Opcode::Gemv,
    Opcode::GemvBatch,
    Opcode::Stats,
];

/// The opcode a request's payload is decoded under, spelt out here so
/// the sweeps do not ask the code under test — and, with no wildcard
/// arm, so a new `Request` variant stops this file building until the
/// fuzz cases below know it.
fn request_opcode(request: &Request) -> Opcode {
    match request {
        Request::Ping => Opcode::Ping,
        Request::LoadMatrix { .. } => Opcode::LoadMatrix,
        Request::Gemv { .. } => Opcode::Gemv,
        Request::GemvBatch { .. } => Opcode::GemvBatch,
        Request::Stats => Opcode::Stats,
    }
}

/// [`request_opcode`] for a reply: the opcode of the request it answers
/// (`Busy` and `Error` answer any; `Gemv` stands for them).
fn reply_opcode(reply: &Reply) -> Opcode {
    match reply {
        Reply::Pong => Opcode::Ping,
        Reply::Loaded(_) | Reply::CapacityFull { .. } => Opcode::LoadMatrix,
        Reply::Output(_) | Reply::Busy | Reply::Error(_) => Opcode::Gemv,
        Reply::Outputs(_) => Opcode::GemvBatch,
        Reply::Stats(_) => Opcode::Stats,
    }
}

fn random_bytes(rng: &mut impl RngCore, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    rng.fill_bytes(&mut buf);
    buf
}

/// Every valid request payload shape, for the truncation sweep.
fn sample_requests() -> Vec<Request> {
    let matrix = IntMatrix::from_vec(3, 2, vec![1, -2, 0, 4, 5, -6]).unwrap();
    vec![
        Request::Ping,
        Request::Stats,
        Request::LoadMatrix {
            matrix: matrix.clone(),
            backend: None,
        },
        Request::Gemv {
            digest: 0xDEAD_BEEF,
            vector: vec![1, -2, 3, -4],
        },
        Request::GemvBatch {
            digest: 7,
            frames: FrameBlock::from_rows(&[vec![1, 2, 3], vec![-4, -5, -6]]).unwrap(),
        },
    ]
}

#[test]
fn random_request_payloads_never_panic() {
    let mut rng = seeded(7100);
    for opcode in OPCODES {
        for _ in 0..2000 {
            let len = (rng.next_u32() % 96) as usize;
            let payload = random_bytes(&mut rng, len);
            // The version argument is fuzzed too: half the draws are the
            // one spoken version, the rest are arbitrary bytes.
            let version = match rng.next_u32() % 2 {
                0 => VERSION,
                _ => rng.next_u32() as u8,
            };
            // Under `VERSION`, Err or an accidental decode are both
            // fine; a panic or a runaway allocation is the only failure
            // mode. Under anything else the answer must be Err.
            let request = Request::decode(version, opcode, &payload);
            let reply = Reply::decode(version, opcode, &payload);
            if version != VERSION {
                assert!(request.is_err() && reply.is_err(), "v{version} decoded");
            }
        }
    }
}

#[test]
fn truncated_request_payloads_are_errors() {
    for request in sample_requests() {
        let opcode = request_opcode(&request);
        let full = request.encode(VERSION);
        let decoded = Request::decode(VERSION, opcode, &full);
        assert!(decoded.is_ok(), "sanity: full payload decodes");
        // Every strict prefix must fail: the decoders consume the
        // payload exactly, so a cut anywhere leaves either a short
        // read or trailing-garbage detection.
        for cut in 0..full.len() {
            assert!(
                Request::decode(VERSION, opcode, &full[..cut]).is_err(),
                "{opcode:?} cut at {cut} of {}",
                full.len()
            );
        }
    }
}

#[test]
fn truncated_replies_are_errors() {
    let replies = vec![
        Reply::Pong,
        Reply::Loaded(LoadedInfo {
            digest: 0xFEED,
            rows: 3,
            cols: 2,
            already_loaded: false,
            engine: "csr".into(),
        }),
        Reply::Output(vec![i64::MIN, 7, i64::MAX]),
        Reply::Outputs(RowBlock::try_from(vec![vec![1, 2], vec![3, 4]]).unwrap()),
        Reply::Stats(Default::default()),
        Reply::Error("boom".into()),
        Reply::Busy,
        Reply::CapacityFull { loaded: 9 },
    ];
    for reply in replies {
        let opcode = reply_opcode(&reply);
        let full = reply.encode(VERSION);
        assert!(Reply::decode(VERSION, opcode, &full).is_ok());
        for cut in 0..full.len() {
            assert!(
                Reply::decode(VERSION, opcode, &full[..cut]).is_err(),
                "{opcode:?} cut at {cut} of {}",
                full.len()
            );
        }
    }
}

/// The `Stats` body — 11 counters, the stage block, the fleet tier
/// counters — survives the same truncation and corruption discipline as
/// the other shapes. The retired v4-shaped body (no tier block) is one
/// of those truncations: it must be rejected, not read with zeroed
/// tiers; and a v7-length body (four more counters) is rejected too,
/// not read with shifted fields.
#[test]
fn v4_and_v5_stats_bodies_fuzz_clean() {
    let mut snapshot = StatsSnapshot {
        requests: 100,
        vectors: 420,
        tier_hot: 2,
        tier_warm: 5,
        tier_cold: 9,
        store_promotions: 4,
        store_demotions: 3,
        store_hits: 7,
        ..Default::default()
    };
    for stage in snapshot.stages.iter_mut() {
        stage.count = 11;
        stage.p50_ns = 1_000;
        stage.p99_ns = 9_000;
    }
    let full = Reply::Stats(Box::new(snapshot)).encode(VERSION);
    assert_eq!(full.len(), 1 + 11 * 8 + 7 * 3 * 8 + 6 * 8);
    let Reply::Stats(back) = Reply::decode(VERSION, Opcode::Stats, &full).unwrap() else {
        panic!("stats reply decodes as stats");
    };
    assert_eq!(back.stages[0].count, 11);
    assert_eq!((back.tier_hot, back.tier_warm, back.tier_cold), (2, 5, 9));
    assert_eq!(back.store_hits, 7);
    for cut in 0..full.len() {
        assert!(
            Reply::decode(VERSION, Opcode::Stats, &full[..cut]).is_err(),
            "stats cut at {cut} of {}",
            full.len()
        );
    }
    let v4_shaped = &full[..full.len() - 6 * 8];
    assert!(Reply::decode(VERSION, Opcode::Stats, v4_shaped).is_err());
    let v7_length = [full.as_slice(), &[0u8; 4 * 8]].concat();
    assert!(Reply::decode(VERSION, Opcode::Stats, &v7_length).is_err());

    // Random corruption of the numeric fields never panics (the body is
    // all fixed-width integers, so most flips still decode — the only
    // failure mode is a panic or runaway allocation).
    let mut rng = seeded(7103);
    for _ in 0..500 {
        let mut bad = full.clone();
        let pos = (rng.next_u32() as usize) % bad.len();
        bad[pos] ^= 1 + (rng.next_u32() % 255) as u8;
        let _ = Reply::decode(VERSION, Opcode::Stats, &bad);
    }
}

/// The `CapacityFull` status byte: well-formed under `VERSION`, hostile
/// variants rejected, and — like every reply — refused under any other
/// version argument.
#[test]
fn capacity_status_fuzzes_clean_and_stays_v5_only() {
    let full = Reply::CapacityFull { loaded: 64 }.encode(VERSION);
    assert_eq!(full[0], STATUS_CAPACITY);
    assert!(matches!(
        Reply::decode(VERSION, Opcode::LoadMatrix, &full),
        Ok(Reply::CapacityFull { loaded: 64 })
    ));
    // A truncated loaded-count is an error, not a panic.
    for cut in 0..full.len() {
        assert!(Reply::decode(VERSION, Opcode::LoadMatrix, &full[..cut]).is_err());
    }
    let mut err = vec![STATUS_ERROR];
    wire::put_str(&mut err, "nope");
    for version in (0..=u8::MAX).filter(|&v| v != VERSION) {
        assert!(Reply::decode(version, Opcode::LoadMatrix, &full).is_err(), "v{version}");
        assert!(Reply::decode(version, Opcode::Gemv, &[STATUS_BUSY]).is_err(), "v{version}");
        assert!(Reply::decode(version, Opcode::Gemv, &err).is_err(), "v{version}");
    }
    // Busy and Error decode under any opcode.
    assert!(matches!(
        Reply::decode(VERSION, Opcode::Gemv, &[STATUS_BUSY]),
        Ok(Reply::Busy)
    ));
    assert!(matches!(
        Reply::decode(VERSION, Opcode::Gemv, &err),
        Ok(Reply::Error(message)) if message == "nope"
    ));
}

#[test]
fn lying_length_prefixes_fail_without_allocating() {
    // A batch whose count passes the count cap but whose first vector
    // claims 16M elements with no data behind it: `take_i32_extend`
    // checks the promise against the bytes actually remaining *before*
    // reserving, so the decode fails fast instead of allocating 64 MiB
    // on a hostile frame.
    let mut buf = Vec::new();
    wire::put_u64(&mut buf, 1); // digest
    wire::put_u32(&mut buf, 3); // plausible count
    wire::put_u32(&mut buf, (MAX_FRAME_PAYLOAD / 4) as u32); // lying vector length
    let err = Request::decode(VERSION, Opcode::GemvBatch, &buf).unwrap_err();
    assert!(err.to_string().contains("truncated"), "{err}");

    // Same lie on the reply side (`take_i64_extend`).
    let mut reply = Vec::new();
    wire::put_u8(&mut reply, 0); // STATUS_OK
    wire::put_u32(&mut reply, 2); // output count
    wire::put_u32(&mut reply, (MAX_FRAME_PAYLOAD / 8) as u32); // lying row length
    let err = Reply::decode(VERSION, Opcode::GemvBatch, &reply).unwrap_err();
    assert!(err.to_string().contains("truncated"), "{err}");

    // A count above the hard cap is rejected before any element work.
    let mut absurd = Vec::new();
    wire::put_u64(&mut absurd, 1);
    wire::put_u32(&mut absurd, u32::MAX);
    let err = Request::decode(VERSION, Opcode::GemvBatch, &absurd).unwrap_err();
    assert!(err.to_string().contains("exceeds"), "{err}");
}

#[test]
fn random_byte_streams_never_panic_the_frame_reader() {
    let mut rng = seeded(7101);
    for _ in 0..2000 {
        let len = (rng.next_u32() % 64) as usize;
        let bytes = random_bytes(&mut rng, len);
        // Random bytes essentially never start with the magic, so the
        // reader must reject (or report EOF) without panicking.
        let _ = read_frame(&mut bytes.as_slice());
    }
}

#[test]
fn truncated_and_corrupted_frames_are_errors() {
    let mut good = Vec::new();
    write_frame(
        &mut good,
        VERSION,
        Opcode::Gemv as u8,
        9,
        &Request::Gemv {
            digest: 3,
            vector: vec![1, 2, 3],
        }
        .encode(VERSION),
    )
    .unwrap();
    assert!(read_frame(&mut good.as_slice()).is_ok());
    // Every strict prefix is Closed (empty), an I/O error (mid-frame
    // EOF), or malformed — never Ok, never a panic.
    for cut in 0..good.len() {
        assert!(
            read_frame(&mut &good[..cut]).is_err(),
            "cut at {cut} of {}",
            good.len()
        );
    }
    // Single-byte corruptions of the header: still no panic, and a
    // corrupted magic/version/length is malformed (other header bytes
    // may legitimately still parse).
    let mut rng = seeded(7102);
    for pos in 0..good.len().min(18) {
        let mut bad = good.clone();
        bad[pos] ^= 1 + (rng.next_u32() % 255) as u8;
        let _ = read_frame(&mut bad.as_slice());
    }
    // A payload length past the cap must be refused before allocation.
    let mut oversize = good;
    oversize[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        read_frame(&mut oversize.as_slice()),
        Err(FrameError::Malformed(_))
    ));
}

/// A `LoadMatrix` payload from raw parts: the four header fields, the
/// row counts, the column indices and the value bytes, then the
/// server-default backend byte.
fn load_payload(
    [rows, cols, nnz]: [u64; 3],
    width: u8,
    counts: &[u32],
    columns: &[u32],
    values: &[u8],
) -> Vec<u8> {
    let mut payload = Vec::new();
    for field in [rows, cols, nnz] {
        wire::put_u64(&mut payload, field);
    }
    wire::put_u8(&mut payload, width);
    for &x in counts.iter().chain(columns) {
        wire::put_u32(&mut payload, x);
    }
    payload.extend_from_slice(values);
    wire::put_u8(&mut payload, 0);
    payload
}

#[test]
fn hostile_matrix_bodies_get_an_error_frame_and_a_live_server() {
    // A `LoadMatrix` body is sized by its own header, so a few bytes can
    // declare any shape, any count of non-zeros and any width. Each lie
    // must come back as a typed `Error` frame on a connection that keeps
    // serving, and none may cost an allocation the bytes did not pay for.
    let valid = load_payload([2, 3, 3], 1, &[1, 2], &[0, 1, 2], &[1, 0xFD, 4]);
    assert!(Request::decode(VERSION, Opcode::LoadMatrix, &valid).is_ok());
    // The matrix body one byte short (its last value byte and the
    // backend byte cut), and one byte long (a stray byte before the
    // backend byte).
    let short = valid[..valid.len() - 2].to_vec();
    let mut long = valid.clone();
    long.insert(valid.len() - 1, 4);
    let cases: Vec<(&str, Vec<u8>, &str)> = vec![
        ("width 0", load_payload([2, 2, 0], 0, &[0, 0], &[], &[]), "width 0"),
        ("width 3", load_payload([2, 2, 0], 3, &[0, 0], &[], &[]), "width 3"),
        ("width 5", load_payload([2, 2, 0], 5, &[0, 0], &[], &[]), "width 5"),
        ("width 255", load_payload([2, 2, 0], 255, &[0, 0], &[], &[]), "width 255"),
        ("no rows", load_payload([0, 5, 0], 1, &[], &[], &[]), "no elements"),
        ("no cols", load_payload([5, 0, 0], 1, &[0; 5], &[], &[]), "no elements"),
        ("rows x cols wraps", load_payload([1 << 32, 1 << 32, 0], 1, &[], &[], &[]), "exceeds"),
        ("36 TB", load_payload([3_000_000, 3_000_000, 0], 1, &[], &[], &[]), "exceeds"),
        ("one row past the bound", load_payload([8193, 8192, 0], 1, &[], &[], &[]), "exceeds"),
        ("nnz > rows x cols", load_payload([2, 2, 5], 1, &[2, 3], &[0; 5], &[1; 5]), "cannot hold"),
        (
            "64 Mi non-zeros promised, none sent",
            load_payload([8192, 8192, 8192 * 8192], 4, &[], &[], &[]),
            "truncated",
        ),
        ("row counts short of nnz", load_payload([2, 2, 2], 1, &[1, 0], &[0, 1], &[1, 1]), "sum to"),
        ("row counts past nnz", load_payload([2, 2, 1], 1, &[1, 1], &[0], &[1]), "sum to"),
        ("column = cols", load_payload([2, 2, 1], 1, &[1, 0], &[2], &[1]), "column 2"),
        ("column repeats", load_payload([2, 2, 2], 1, &[2, 0], &[1, 1], &[1, 1]), "out of order"),
        ("column descends", load_payload([2, 2, 2], 1, &[2, 0], &[1, 0], &[1, 1]), "out of order"),
        ("zero value", load_payload([2, 2, 1], 2, &[0, 1], &[0], &[0, 0]), "zero"),
        // One matrix, one body: a value stored wider than the values need
        // is a second encoding of the same matrix, and is refused.
        ("i8 values at width 2", load_payload([2, 2, 1], 2, &[1, 0], &[1], &[0x7F, 0]), "wider"),
        ("i16 values at width 4", load_payload([1, 2, 1], 4, &[1], &[0], &[0x80, 0, 0, 0]), "wider"),
        ("no values at width 2", load_payload([2, 2, 0], 2, &[0, 0], &[], &[]), "wider"),
        ("one byte short", short, "truncated matrix"),
        ("one byte long", long, "trailing"),
    ];
    let server = smm_server::start(smm_server::ServerConfig::default()).unwrap();
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut exchange = |opcode: Opcode, payload: &[u8], id: u64| {
        write_frame(&mut raw, VERSION, opcode as u8, id, payload).unwrap();
        let frame = read_frame(&mut raw).expect("the connection survives");
        assert_eq!(frame.request_id, id);
        Reply::decode(frame.version, opcode, &frame.payload).unwrap()
    };
    for (id, (name, payload, expect)) in cases.iter().enumerate() {
        let id = id as u64 * 2;
        let reply = exchange(Opcode::LoadMatrix, payload, id);
        assert!(
            matches!(&reply, Reply::Error(m) if m.contains(expect)),
            "{name}: {reply:?}"
        );
        assert!(matches!(exchange(Opcode::Ping, &[], id + 1), Reply::Pong), "{name}");
    }
    assert_eq!(server.shutdown().errors, cases.len() as u64);
}

/// Every single-byte corruption of a `LoadMatrix` payload decodes or is
/// refused — never a panic, never an allocation past the frame's bound.
#[test]
fn corrupted_load_bodies_never_panic() {
    let matrix = IntMatrix::from_vec(3, 4, vec![0, 7, -300, 0, 0, 0, 0, 0, 1, 0, 0, -1]).unwrap();
    let full = Request::LoadMatrix {
        matrix,
        backend: None,
    }
    .encode(VERSION);
    let mut rng = seeded(7104);
    for pos in 0..full.len() {
        for _ in 0..8 {
            let mut bad = full.clone();
            bad[pos] ^= 1 + (rng.next_u32() % 255) as u8;
            let _ = Request::decode(VERSION, Opcode::LoadMatrix, &bad);
        }
    }
}
