//! Property tests for the artifact format: round-trips are exact, and
//! malformed bytes — truncations, flipped bits, lying prefixes — are
//! always a recoverable `Err`, never a panic or an over-allocation.
//! Same discipline as the server's `wire_fuzz.rs`: bytes on disk are
//! hostile input. A matrix artifact (format rev 3) is the header and the
//! matrix's wire body with no CRC beside it, so the body's structure and
//! the digest over its bytes have to refuse every corruption alone.

use proptest::prelude::*;
use smm_core::generate::element_sparse_matrix;
use smm_core::matrix::IntMatrix;
use smm_core::rng::seeded;
use smm_core::error::Error;
use smm_core::wire::put_u32;
use smm_sparse::Csr;
use smm_store::artifact::{self, Artifact, CircuitMeta};

/// The artifact header's magic and format revision, pinned as literals.
const MAGIC: [u8; 4] = *b"SMMA";
const FORMAT_REV: u32 = 3;

/// Header offsets of the rev-3 layout (rev 2's): `magic (4) · rev (4) · kind (1)
/// · digest (8) · [payload CRC-32 (4), Csr and Circuit only] · payload
/// length (4) · payload`.
const DIGEST_FIELD: std::ops::Range<usize> = 9..17;

/// `bytes` with one bit flipped, for every bit of every byte in turn.
fn single_bit_flips(bytes: &[u8]) -> impl Iterator<Item = (usize, Vec<u8>)> + '_ {
    (0..bytes.len() * 8).map(move |n| {
        let mut flipped = bytes.to_vec();
        flipped[n / 8] ^= 1 << (n % 8);
        (n / 8, flipped)
    })
}

proptest! {
    /// Dense matrix → bytes → equal matrix, digest stamp included.
    #[test]
    fn matrix_round_trip(seed in any::<u64>(), sparsity in 0.0f64..1.0,
                         rows in 1usize..24, cols in 1usize..24) {
        let mut rng = seeded(seed);
        let m = element_sparse_matrix(rows, cols, 8, sparsity, true, &mut rng).unwrap();
        let bytes = artifact::encode(m.digest(), &Artifact::Matrix(m.clone()));
        let (digest, decoded) = artifact::decode(&bytes).unwrap();
        prop_assert_eq!(digest, m.digest());
        prop_assert_eq!(decoded, Artifact::Matrix(m));
    }

    /// CSR → bytes → equal structure.
    #[test]
    fn csr_round_trip(seed in any::<u64>(), sparsity in 0.0f64..1.0,
                      rows in 1usize..24, cols in 1usize..24) {
        let mut rng = seeded(seed);
        let m = element_sparse_matrix(rows, cols, 8, sparsity, true, &mut rng).unwrap();
        let csr = Csr::from_dense(&m);
        let bytes = artifact::encode(m.digest(), &Artifact::Csr(csr.clone()));
        let (_, decoded) = artifact::decode(&bytes).unwrap();
        prop_assert_eq!(decoded, Artifact::Csr(csr));
    }

    /// Circuit metadata → bytes → equal value, non-ASCII strings included.
    #[test]
    fn circuit_meta_round_trip(digest in any::<u64>(), tag in any::<u64>(),
                               input_bits in 1u32..32,
                               rows in any::<u64>(), cols in any::<u64>(),
                               nnz in any::<u64>()) {
        let meta = CircuitMeta {
            engine: format!("engine-{tag:x}"),
            input_bits,
            encoding: if tag & 1 == 0 { String::new() } else { "csd".into() },
            rows,
            cols,
            nnz,
            rationale: format!("chosen für {tag} rows · density"),
        };
        let bytes = artifact::encode(digest, &Artifact::Circuit(meta.clone()));
        let (d, decoded) = artifact::decode(&bytes).unwrap();
        prop_assert_eq!(d, digest);
        prop_assert_eq!(decoded, Artifact::Circuit(meta));
    }

    /// Every prefix of a valid artifact fails to decode — truncation can
    /// never panic, succeed, or allocate past the bytes present.
    #[test]
    fn truncations_always_err(seed in any::<u64>(), cut in 0.0f64..1.0) {
        let mut rng = seeded(seed);
        let m = element_sparse_matrix(6, 5, 8, 0.5, true, &mut rng).unwrap();
        let bytes = artifact::encode(m.digest(), &Artifact::Matrix(m));
        let len = ((bytes.len() as f64) * cut) as usize;
        prop_assert!(artifact::decode(&bytes[..len.min(bytes.len() - 1)]).is_err());
    }

    /// A single flipped bit anywhere in the file is caught — by the
    /// magic, revision, kind, digest or body validation — so decode never
    /// returns a value, let alone a different one. Sampled over random
    /// matrices; `every_single_bit_flip_*` below walks files exhaustively.
    #[test]
    fn bit_flips_never_decode_to_a_different_value(seed in any::<u64>(),
                                                   pos in any::<u64>(),
                                                   bit in 0u8..8) {
        let mut rng = seeded(seed);
        let m = element_sparse_matrix(5, 4, 8, 0.4, true, &mut rng).unwrap();
        let mut bytes = artifact::encode(m.digest(), &Artifact::Matrix(m.clone()));
        let i = (pos % bytes.len() as u64) as usize;
        bytes[i] ^= 1 << bit;
        prop_assert!(artifact::decode(&bytes).is_err(), "flip at byte {} decoded", i);
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = artifact::decode(&bytes);
    }

    /// The slice-by-8 CRC is the bit-at-a-time CRC at every length from
    /// the empty slice to past eight full strides — every remainder
    /// mod 8, one stride exactly, one byte either side of it.
    #[test]
    fn crc32_matches_the_bitwise_reference_at_every_length(
        bytes in prop::collection::vec(any::<u8>(), 70..71),
    ) {
        for len in 0..=bytes.len() {
            prop_assert_eq!(
                artifact::crc32(&bytes[..len]),
                artifact::crc32_bitwise(&bytes[..len]),
                "prefix of {} bytes", len
            );
        }
    }
}

#[test]
fn crc32_matches_the_bitwise_reference_on_a_mebibyte() {
    let mut rng = seeded(0xC4C);
    let words = (1 << 20) / 4;
    let bytes: Vec<u8> = smm_core::generate::random_vector(words, 31, true, &mut rng)
        .unwrap()
        .into_iter()
        .flat_map(i32::to_le_bytes)
        .collect();
    assert_eq!(bytes.len(), 1 << 20);
    assert_eq!(artifact::crc32(&bytes), artifact::crc32_bitwise(&bytes));
}

/// The digest is a matrix payload's whole integrity check, so it has to
/// hold alone: every single-bit corruption of the file is refused with a
/// typed error — there is no unread field left to land in harmlessly —
/// at each value width a body can take.
#[test]
fn every_single_bit_flip_of_a_matrix_artifact_is_refused_or_harmless() {
    // One byte per value, zeros included: a flip may create or destroy
    // one.
    let m = IntMatrix::from_vec(3, 4, vec![7, 0, -3, 0, 0, 0, 120, -128, 1, 0, 0, 5])
        .unwrap();
    flips_are_refused(&m, 1);
    // Two bytes per value, with a run of 75 zeros: a flip of a column
    // index moves a non-zero within or across the run, to a position
    // that may still ascend.
    let m = IntMatrix::from_fn(1, 80, |_, c| match c {
        0 => -1,
        3 => 256,
        79 => 5,
        _ => 0,
    })
    .unwrap();
    flips_are_refused(&m, 2);
    // Four bytes per value, the one `i32` with no negation among them.
    let m = IntMatrix::from_vec(2, 3, vec![0, i32::MIN, 40_000, -1, 0, 0]).unwrap();
    flips_are_refused(&m, 4);
}

/// Walks every single-bit flip of `m`'s matrix artifact, whose values
/// must be `width` bytes each: every flip is an [`Error::Wire`].
fn flips_are_refused(m: &IntMatrix, width: u8) {
    let good = artifact::encode(m.digest(), &Artifact::Matrix(m.clone()));
    // The body's width byte follows the header (21 bytes) and the three
    // `u64` counts.
    assert_eq!(good[21 + 24], width);
    for (byte, flipped) in single_bit_flips(&good) {
        match artifact::decode(&flipped) {
            Err(Error::Wire { .. }) => {}
            other => panic!("width {width}: flip in byte {byte} gave {other:?}"),
        }
    }
}

/// Every prefix of a written artifact, the empty one included, is
/// refused — never decoded to anything, never a panic — for a matrix at
/// each width and for the kinds that keep their CRC.
#[test]
fn every_prefix_of_a_written_artifact_is_refused() {
    let matrices = [
        IntMatrix::from_vec(2, 3, vec![1, 0, -2, 3, 0, 4]).unwrap(),
        IntMatrix::from_vec(2, 2, vec![0, 300, -1, 0]).unwrap(),
        IntMatrix::from_vec(1, 3, vec![i32::MAX, 0, 7]).unwrap(),
        IntMatrix::zeros(3, 2).unwrap(),
    ];
    let mut files: Vec<Vec<u8>> = matrices
        .iter()
        .map(|m| artifact::encode(m.digest(), &Artifact::Matrix(m.clone())))
        .collect();
    let csr = Csr::from_dense(&matrices[0]);
    files.push(artifact::encode(matrices[0].digest(), &Artifact::Csr(csr)));
    for file in &files {
        assert!(artifact::decode(file).is_ok());
        for len in 0..file.len() {
            assert!(artifact::decode(&file[..len]).is_err(), "prefix of {len} bytes");
            assert!(artifact::decode_body(&file[..len]).is_err(), "prefix of {len} bytes");
        }
    }
}

/// `encode(2×3 [1 0 −2; 3 0 4])` as format rev 1 wrote it: the header
/// with its payload CRC, then `rows u64 · cols u64 · count u32 · count ×
/// i32`. Rev 3 refuses the file outright; nothing in it is decoded.
const REV1_MATRIX_ARTIFACT: [u8; 69] = [
    0x53, 0x4d, 0x4d, 0x41, 0x01, 0x00, 0x00, 0x00, 0x01, 0x17, 0x3d, 0xdb, //
    0x9c, 0xf4, 0xf8, 0x25, 0x83, 0xd3, 0x66, 0xdd, 0x72, 0x2c, 0x00, 0x00, //
    0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, //
    0x00, 0x00, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, //
    0x00, 0x00, 0x00, 0x00, 0x00, 0xfe, 0xff, 0xff, 0xff, 0x03, 0x00, 0x00, //
    0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
];

/// The same matrix as format rev 2 wrote it: rev 3's layout — the header
/// with no CRC, then the body — but stamped with the digest rev 2 took
/// over the dense elements. Rev 3 refuses it at the revision field, not
/// at a digest mismatch.
const REV2_MATRIX_ARTIFACT: [u8; 74] = [
    0x53, 0x4d, 0x4d, 0x41, 0x02, 0x00, 0x00, 0x00, 0x01, 0x17, 0x3d, 0xdb, //
    0x9c, 0xf4, 0xf8, 0x25, 0x83, 0x35, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, //
    0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x02, 0x00, //
    0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, //
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0xfe, //
    0x03, 0x04,
];

/// Both older revisions are refused by number, and nothing in them is
/// decoded; the matrix they held is still writable, as rev 3.
fn an_old_matrix_file_is_refused(file: &[u8], rev: u32) {
    let expect = format!("unsupported artifact format rev {rev}");
    let err = artifact::decode(file).unwrap_err().to_string();
    assert!(err.contains(&expect), "{err}");
    let err = artifact::decode_body(file).unwrap_err().to_string();
    assert!(err.contains(&expect), "{err}");
    let m = IntMatrix::from_vec(2, 3, vec![1, 0, -2, 3, 0, 4]).unwrap();
    let current = artifact::encode(m.digest(), &Artifact::Matrix(m.clone()));
    assert_eq!(current[4..8], FORMAT_REV.to_le_bytes());
    assert_eq!(artifact::decode(&current).unwrap(), (m.digest(), Artifact::Matrix(m)));
}

#[test]
fn a_rev1_matrix_file_is_refused_not_decoded() {
    an_old_matrix_file_is_refused(&REV1_MATRIX_ARTIFACT, 1);
}

#[test]
fn a_rev2_matrix_file_is_refused_not_decoded() {
    an_old_matrix_file_is_refused(&REV2_MATRIX_ARTIFACT, 2);
    // Its layout is rev 3's: only the revision and the digest stamp moved.
    let m = IntMatrix::from_vec(2, 3, vec![1, 0, -2, 3, 0, 4]).unwrap();
    let mut current = artifact::encode(m.digest(), &Artifact::Matrix(m));
    current[4] = 2;
    current[DIGEST_FIELD].copy_from_slice(&REV2_MATRIX_ARTIFACT[DIGEST_FIELD]);
    assert_eq!(current, REV2_MATRIX_ARTIFACT);
}

/// The kinds with no content address still verify through the CRC: a
/// circuit artifact refuses every single-bit corruption of its payload,
/// its CRC and every checked header field. Only the stamped digest is
/// free — it names the owning matrix, not these bytes, and `Store::get`
/// holds it against the file name — and a flip there changes nothing
/// else.
#[test]
fn every_single_bit_flip_of_a_circuit_artifact_is_refused_outside_the_digest() {
    let meta = CircuitMeta {
        engine: "csr".into(),
        input_bits: 8,
        encoding: "Pn".into(),
        rows: 3,
        cols: 4,
        nnz: 6,
        rationale: "sparse: 6 of 12".into(),
    };
    let good = artifact::encode(0x5eed, &Artifact::Circuit(meta.clone()));
    for (byte, flipped) in single_bit_flips(&good) {
        match artifact::decode(&flipped) {
            Ok((digest, decoded)) => {
                assert!(DIGEST_FIELD.contains(&byte), "flip in byte {byte} decoded");
                assert_ne!(digest, 0x5eed);
                assert_eq!(decoded, Artifact::Circuit(meta.clone()));
            }
            Err(_) => assert!(!DIGEST_FIELD.contains(&byte), "flip in byte {byte}"),
        }
    }
}

#[test]
fn wrong_rev_and_wrong_kind_are_rejected() {
    let m = element_sparse_matrix(4, 4, 8, 0.5, true, &mut seeded(7)).unwrap();
    let good = artifact::encode(m.digest(), &Artifact::Matrix(m.clone()));

    // Bump the format revision field (bytes 4..8, little-endian).
    let mut rev = good.clone();
    let mut patched = Vec::new();
    put_u32(&mut patched, FORMAT_REV + 1);
    rev[4..8].copy_from_slice(&patched);
    let err = artifact::decode(&rev).unwrap_err();
    assert!(err.to_string().contains("rev"), "{err}");

    // An unknown kind byte (offset 8).
    let mut kind = good.clone();
    kind[8] = 200;
    assert!(artifact::decode(&kind).is_err());

    // A known-but-wrong kind byte: header says CSR, payload is a matrix
    // body. The reader then takes the body's length prefix for a CRC and
    // the body for a length-prefixed payload, and the framing refuses it.
    let mut cross = good;
    cross[8] = 2; // the CSR kind byte
    assert!(artifact::decode(&cross).is_err());
}

#[test]
fn lying_payload_length_is_rejected_without_allocating() {
    // Hand-build a header that promises a 4 GiB payload with nothing
    // behind it: the length cap must reject it before any allocation.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    put_u32(&mut bytes, FORMAT_REV);
    bytes.push(1); // the matrix kind byte
    bytes.extend_from_slice(&7u64.to_le_bytes());
    put_u32(&mut bytes, u32::MAX); // payload length prefix
    let err = artifact::decode(&bytes).unwrap_err().to_string();
    assert!(err.contains("exceeds"), "{err}");
}

#[test]
fn huge_dimension_header_is_rejected_before_allocation() {
    // A body whose rows/cols imply a multi-terabyte dense matrix but
    // which carries one non-zero: the shape cap fires before any
    // allocation at all, let alone a rows*cols-sized one.
    let mut payload = Vec::new();
    payload.extend_from_slice(&u64::MAX.to_le_bytes()); // rows
    payload.extend_from_slice(&u64::MAX.to_le_bytes()); // cols
    payload.extend_from_slice(&1u64.to_le_bytes()); // nnz
    payload.push(1); // width
    put_u32(&mut payload, 1);
    put_u32(&mut payload, 0);
    payload.push(1);
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    put_u32(&mut bytes, FORMAT_REV);
    bytes.push(1); // the matrix kind byte
    bytes.extend_from_slice(&7u64.to_le_bytes());
    put_u32(&mut bytes, payload.len() as u32);
    bytes.extend_from_slice(&payload);
    let err = artifact::decode(&bytes).unwrap_err().to_string();
    assert!(err.contains("exceeds"), "{err}");
}
