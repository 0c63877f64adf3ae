//! The on-disk artifact format: versioned, digest-stamped, and checked
//! by the strongest test each kind has.
//!
//! One artifact file holds one serialized value — a matrix, the one a
//! load persists, or a [`Csr`] or the [`CircuitMeta`] describing a
//! compiled engine, which loads used to persist and which stay
//! decodable — in a std-only little-endian layout (format rev 3):
//!
//! ```text
//! magic "SMMA" (4) · format rev u32 (2) · kind u8 · digest u64
//! · payload CRC-32 u32     (Csr and Circuit only)
//! · payload                (length-prefixed bytes)
//! ```
//!
//! The digest is the owning matrix's stable content digest
//! ([`IntMatrix::digest`]: XXH64 over the matrix's body) and the name the
//! store files the artifact under; the format revision gates layout and
//! digest changes. A reader accepts rev 3 only: a file of an older
//! revision — rev 1's dense payload, rev 2's digest over the dense
//! elements — is refused ("unsupported artifact format rev 2"), never
//! decoded, and `Store::gc` removes it.
//!
//! # A matrix is its non-zeros
//!
//! A `Matrix` payload is the matrix's wire body, byte for byte: the
//! layout `LoadMatrix` carries ([`smm_core::wire::put_matrix`]) —
//!
//! ```text
//! rows u64 · cols u64 · nnz u64 · width u8 (1, 2 or 4)
//! · row counts rows × u32 · columns nnz × u32 · values nnz × width
//! ```
//!
//! — so a 256² matrix at 90 % sparsity with 8-bit weights is a ~33.8 KB
//! file where rev 1's dense `i32` payload made it 262,189 bytes, and what
//! the fleet keeps in memory ([`MatrixBody`]) is what it writes.
//!
//! # What makes a file valid
//!
//! Each payload is verified **once**, by the strongest check its kind
//! has:
//!
//! * A `Matrix` artifact is valid iff its payload is a valid body — the
//!   length exact, the row counts summing to the count of non-zeros,
//!   columns in range and strictly ascending within each row, no value
//!   zero, the width the narrowest that holds the values — and the
//!   content digest, XXH64 over the payload's bytes, equals the digest
//!   stamped in its header. The store is content-addressed, so that
//!   check has to run anyway (it ties the bytes to the file name, see
//!   `Store::get_body`), and there is no CRC field: the digest is the
//!   payload's whole integrity check. The structure is checked in one
//!   pass with no exit per element and the hash runs four lanes over
//!   32-byte stripes, so a cold read costs about what reading the file
//!   does, and makes no dense pass.
//! * `Csr` and `Circuit` payloads have no content address — the digest
//!   in their header names the matrix they belong to, not their own
//!   bytes — so the CRC-32 over the payload is their integrity check
//!   and [`decode`] verifies it.
//!
//! Why the digest covers a matrix payload: every byte of it is hashed,
//! and the length is fixed by the count of non-zeros and the width, with
//! nothing allowed to trail. A corruption inside the payload therefore
//! changes the bytes the digest is taken over — most are refused by the
//! structure first: a column out of order, a zero value, a value stored
//! wider than it needs, row counts that do not sum. What survives the
//! structure is another valid body, and XXH64 maps it to a digest other
//! than the stamp's but with probability about 2⁻⁶⁴ (it is a mixing
//! hash, not a cryptographic one: it answers corruption, not an
//! adversary who writes the store directory). The header outside the
//! payload is checked field by field.
//!
//! Decoding follows the same discipline as the network wire: bytes on
//! disk are treated as hostile. Every malformed input — truncation, a
//! lying length prefix, a wrong magic/revision/kind, a digest or CRC
//! mismatch, trailing garbage — returns an [`Error`], never panics, and
//! never allocates more than the bytes actually present justify.

use smm_core::error::{Error, Result};
use smm_core::matrix::IntMatrix;
use smm_core::wire::{
    put_bytes, put_i32_vec, put_i64_vec, put_str, put_u32, put_u64, put_u8, Cursor, MatrixBody,
};
use smm_sparse::Csr;

/// File magic: `SMMA` ("spatial matrix multiplier artifact").
pub(crate) const MAGIC: [u8; 4] = *b"SMMA";

/// Current artifact format revision. Readers reject any other value.
pub(crate) const FORMAT_REV: u32 = 3;

fn format_err(context: impl Into<String>) -> Error {
    Error::Wire {
        context: context.into(),
    }
}

/// The reflected IEEE 802.3 generator polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// `CRC_TABLES[k][b]` is the CRC register after byte `b` followed by `k`
/// zero bytes: table 0 is the classic byte-at-a-time table, and table
/// `k` advances table `k - 1` by one more zero byte.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`) over
/// `bytes` — the checksum [`encode`] stamps on the payloads no digest
/// covers (`Csr`, `Circuit`) and [`decode`] verifies.
///
/// Slice-by-8: eight bytes per step through eight 256-entry tables
/// derived at compile time from the same polynomial, so the value is
/// [`crc32_bitwise`]'s for every input.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let (words, tail) = bytes.as_chunks::<8>();
    for w in words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(w[4])]
            ^ t[2][usize::from(w[5])]
            ^ t[1][usize::from(w[6])]
            ^ t[0][usize::from(w[7])];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// The bit-at-a-time CRC-32 — the reference [`crc32`] is tested and
/// raced against (`store_checksums` in the `kernels` bench). Nothing
/// serves through it.
pub fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (CRC_POLY & mask);
        }
    }
    !crc
}

/// What kind of value an artifact file holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ArtifactKind {
    /// A matrix, stored as its non-zeros ([`MatrixBody`]).
    Matrix,
    /// A [`Csr`] sparse structure. Read-only legacy: loads stopped
    /// writing it because no serving path ever read it back.
    Csr,
    /// [`CircuitMeta`]: what was compiled for this matrix, and why.
    /// Read-only legacy like `Csr`: no promotion ever read it.
    Circuit,
}

impl ArtifactKind {
    /// All kinds, in file-extension order.
    pub(crate) const ALL: [ArtifactKind; 3] = [ArtifactKind::Matrix, ArtifactKind::Csr, ArtifactKind::Circuit];

    /// The kind byte written into the artifact header.
    pub(crate) fn as_u8(self) -> u8 {
        match self {
            ArtifactKind::Matrix => 1,
            ArtifactKind::Csr => 2,
            ArtifactKind::Circuit => 3,
        }
    }

    /// Decodes a header kind byte.
    pub(crate) fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(ArtifactKind::Matrix),
            2 => Some(ArtifactKind::Csr),
            3 => Some(ArtifactKind::Circuit),
            _ => None,
        }
    }

    /// The file-name component naming this kind (`<digest>.<ext>.smma`).
    pub fn ext(self) -> &'static str {
        match self {
            ArtifactKind::Matrix => "matrix",
            ArtifactKind::Csr => "csr",
            ArtifactKind::Circuit => "circuit",
        }
    }

    /// Parses a file-name component back to a kind.
    pub(crate) fn from_ext(ext: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.ext() == ext)
    }
}

/// Metadata describing the engine compiled for a matrix: enough to
/// report what a restarted server would rebuild (and why) without
/// serializing the netlist itself — the compile is reproduced from the
/// matrix bytes when the matrix is next promoted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitMeta {
    /// Engine kind that served the matrix (`csr`, `bitserial`, ...).
    pub engine: String,
    /// Input operand width the circuit was compiled for.
    pub input_bits: u32,
    /// Weight encoding name (`pn`, `csd`, ...).
    pub encoding: String,
    /// Matrix rows at compile time.
    pub rows: u64,
    /// Matrix columns at compile time.
    pub cols: u64,
    /// Non-zeros at compile time.
    pub nnz: u64,
    /// The planner's rationale for the engine choice.
    pub rationale: String,
}

/// One storable value, tagged by kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Artifact {
    /// A dense matrix.
    Matrix(IntMatrix),
    /// A CSR structure.
    Csr(Csr),
    /// Compiled-engine metadata.
    Circuit(CircuitMeta),
}

impl Artifact {
    /// The kind tag this artifact serializes under.
    pub(crate) fn kind(&self) -> ArtifactKind {
        match self {
            Artifact::Matrix(_) => ArtifactKind::Matrix,
            Artifact::Csr(_) => ArtifactKind::Csr,
            Artifact::Circuit(_) => ArtifactKind::Circuit,
        }
    }

    /// Decodes a payload of `kind` stamped with `digest`: a matrix is
    /// read as its body and held to the digest ([`matrix_body`]), the
    /// other kinds are parsed (their CRC was checked by [`unframe`]).
    fn decode_payload(kind: ArtifactKind, digest: u64, payload: &[u8]) -> Result<Self> {
        let mut c = Cursor::new(payload);
        let artifact = match kind {
            ArtifactKind::Matrix => {
                return Ok(Artifact::Matrix(matrix_body(digest, payload)?.to_matrix()?));
            }
            ArtifactKind::Csr => {
                let rows = take_dim(&mut c, "csr rows")?;
                let cols = take_dim(&mut c, "csr cols")?;
                let row_ptr = take_usize_vec(&mut c, "csr row_ptr")?;
                let col_idx = take_usize_vec(&mut c, "csr col_idx")?;
                let values = c.take_i32_vec("csr values")?;
                Artifact::Csr(Csr::from_raw_parts(rows, cols, row_ptr, col_idx, values)?)
            }
            ArtifactKind::Circuit => {
                let engine = c.take_str("circuit engine")?.to_string();
                let input_bits = c.take_u32("circuit input_bits")?;
                let encoding = c.take_str("circuit encoding")?.to_string();
                let rows = c.take_u64("circuit rows")?;
                let cols = c.take_u64("circuit cols")?;
                let nnz = c.take_u64("circuit nnz")?;
                let rationale = c.take_str("circuit rationale")?.to_string();
                Artifact::Circuit(CircuitMeta {
                    engine,
                    input_bits,
                    encoding,
                    rows,
                    cols,
                    nnz,
                    rationale,
                })
            }
        };
        c.expect_end("artifact payload")?;
        Ok(artifact)
    }
}

/// Reads a matrix dimension, bounded so a hostile header cannot imply a
/// multi-gigabyte dense allocation before the element count is checked.
fn take_dim(c: &mut Cursor<'_>, what: &str) -> Result<usize> {
    let v = c.take_u64(what)?;
    if v > smm_core::wire::MAX_WIRE_LEN as u64 {
        return Err(format_err(format!("{what} {v} is implausibly large")));
    }
    Ok(v as usize)
}

/// Reads an `i64` wire vector whose elements must be non-negative
/// indices (row pointers, column indices).
fn take_usize_vec(c: &mut Cursor<'_>, what: &str) -> Result<Vec<usize>> {
    let raw = c.take_i64_vec(what)?;
    raw.into_iter()
        .map(|v| {
            usize::try_from(v).map_err(|_| format_err(format!("{what} carries negative index {v}")))
        })
        .collect()
}

/// Serializes `artifact` under the matrix content `digest` into the
/// versioned file layout. A matrix is written as its body, by
/// `encode_body`; the other kinds carry their payload's CRC-32.
pub fn encode(digest: u64, artifact: &Artifact) -> Vec<u8> {
    let mut payload = Vec::new();
    match artifact {
        Artifact::Matrix(m) => return encode_body(digest, &MatrixBody::of(m)),
        Artifact::Csr(c) => {
            put_u64(&mut payload, c.rows() as u64);
            put_u64(&mut payload, c.cols() as u64);
            let row_ptr: Vec<i64> = c.row_ptr().iter().map(|&p| p as i64).collect();
            put_i64_vec(&mut payload, &row_ptr);
            let mut col_idx = Vec::new();
            let mut values = Vec::new();
            for r in 0..c.rows() {
                for (col, v) in c.row(r) {
                    col_idx.push(col as i64);
                    values.push(v);
                }
            }
            put_i64_vec(&mut payload, &col_idx);
            put_i32_vec(&mut payload, &values);
        }
        Artifact::Circuit(meta) => {
            put_str(&mut payload, &meta.engine);
            put_u32(&mut payload, meta.input_bits);
            put_str(&mut payload, &meta.encoding);
            put_u64(&mut payload, meta.rows);
            put_u64(&mut payload, meta.cols);
            put_u64(&mut payload, meta.nnz);
            put_str(&mut payload, &meta.rationale);
        }
    }
    let mut buf = header(digest, artifact.kind(), payload.len());
    put_u32(&mut buf, crc32(&payload));
    put_bytes(&mut buf, &payload);
    buf
}

/// Serializes a matrix body under `digest`: the header, then the body's
/// bytes as they are.
pub(crate) fn encode_body(digest: u64, body: &MatrixBody) -> Vec<u8> {
    let mut buf = header(digest, ArtifactKind::Matrix, body.as_bytes().len());
    put_bytes(&mut buf, body.as_bytes());
    buf
}

/// The fields every artifact starts with, in a buffer sized for a
/// payload of `payload_len` bytes behind them.
fn header(digest: u64, kind: ArtifactKind, payload_len: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payload_len + 25);
    buf.extend_from_slice(&MAGIC);
    put_u32(&mut buf, FORMAT_REV);
    put_u8(&mut buf, kind.as_u8());
    put_u64(&mut buf, digest);
    buf
}

/// One artifact file taken apart: the stamped digest, the kind and the
/// payload, with the header checked field by field and, for the kinds
/// that carry one, the payload held to its CRC.
fn unframe(bytes: &[u8]) -> Result<(u64, ArtifactKind, &[u8])> {
    let mut c = Cursor::new(bytes);
    let mut magic = [0u8; 4];
    for b in &mut magic {
        *b = c.take_u8("artifact magic")?;
    }
    if magic != MAGIC {
        return Err(format_err("bad artifact magic (not an smm-store file)"));
    }
    let rev = c.take_u32("artifact format rev")?;
    if rev != FORMAT_REV {
        return Err(format_err(format!(
            "unsupported artifact format rev {rev} (this build reads rev {FORMAT_REV})"
        )));
    }
    let kind_byte = c.take_u8("artifact kind")?;
    let kind = ArtifactKind::from_u8(kind_byte)
        .ok_or_else(|| format_err(format!("unknown artifact kind {kind_byte}")))?;
    let digest = c.take_u64("artifact digest")?;
    let crc = match kind {
        ArtifactKind::Matrix => None,
        ArtifactKind::Csr | ArtifactKind::Circuit => Some(c.take_u32("artifact payload crc")?),
    };
    let payload = c.take_bytes("artifact payload")?;
    c.expect_end("artifact file")?;
    if let Some(crc) = crc {
        let actual = crc32(payload);
        if actual != crc {
            return Err(format_err(format!(
                "artifact payload CRC mismatch: header {crc:#010x}, computed {actual:#010x}"
            )));
        }
    }
    Ok((digest, kind, payload))
}

/// Reads a matrix payload as its body and holds the digest taken over
/// its bytes to the one stamped in the header — the content address is
/// the contract the whole store rests on, and the one check that
/// verifies these bytes.
fn matrix_body(stamped: u64, payload: &[u8]) -> Result<MatrixBody> {
    let mut c = Cursor::new(payload);
    let body = c.take_matrix_body()?;
    c.expect_end("artifact payload")?;
    if body.digest() != stamped {
        return Err(format_err(format!(
            "matrix content digest {:#018x} does not match stamped digest {stamped:#018x}",
            body.digest()
        )));
    }
    Ok(body)
}

/// Decodes a matrix artifact file as its body, returning the digest it
/// was stamped with — which the body's own digest has been checked
/// against — and the body. Any other kind, and every malformed input
/// [`decode`] refuses, is an `Err`.
pub fn decode_body(bytes: &[u8]) -> Result<(u64, MatrixBody)> {
    let (digest, kind, payload) = unframe(bytes)?;
    if kind != ArtifactKind::Matrix {
        return Err(format_err(format!("artifact holds a {} payload, not a matrix", kind.ext())));
    }
    Ok((digest, matrix_body(digest, payload)?))
}

/// Decodes one artifact file, returning the digest it was stamped with
/// and the value. Every malformed input is an `Err`: truncation, wrong
/// magic, unknown revision or kind, trailing bytes, an invalid decoded
/// value, and a payload that fails its kind's integrity check — the
/// content digest for `Matrix`, the CRC-32 for `Csr` and `Circuit` (see
/// the module docs).
pub fn decode(bytes: &[u8]) -> Result<(u64, Artifact)> {
    let (digest, kind, payload) = unframe(bytes)?;
    Ok((digest, Artifact::decode_payload(kind, digest, payload)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix() -> IntMatrix {
        IntMatrix::from_vec(2, 3, vec![1, 0, -2, 3, 0, 4]).unwrap()
    }

    fn sample_meta() -> CircuitMeta {
        CircuitMeta {
            engine: "bitserial".into(),
            input_bits: 8,
            encoding: "csd".into(),
            rows: 24,
            cols: 24,
            nnz: 57,
            rationale: "small and sparse enough to fit".into(),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    }

    /// `encode(sample_matrix())` in format rev 3: the header with no CRC
    /// field, its digest XXH64 over the body (`zstd --check` stamps the
    /// low half, `0x56582972`, on a frame of those 53 bytes), then the
    /// matrix body — two rows of two non-zeros, columns 0 and 2, values
    /// `1, −2, 3, 4` one byte each.
    const WRITTEN_MATRIX_ARTIFACT: [u8; 74] = [
        0x53, 0x4d, 0x4d, 0x41, 0x03, 0x00, 0x00, 0x00, 0x01, 0x72, 0x29, 0x58, //
        0x56, 0x1e, 0xdb, 0xdc, 0x5b, 0x35, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, //
        0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
        0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x02, 0x00, //
        0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, //
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0xfe, //
        0x03, 0x04,
    ];

    /// `encode(42, sample_meta())` in format rev 3: rev 1's bytes with
    /// the revision moved, CRC field included.
    const WRITTEN_CIRCUIT_ARTIFACT: [u8; 107] = [
        0x53, 0x4d, 0x4d, 0x41, 0x03, 0x00, 0x00, 0x00, 0x03, 0x2a, 0x00, 0x00, //
        0x00, 0x00, 0x00, 0x00, 0x00, 0xd1, 0xe4, 0x1d, 0xda, 0x52, 0x00, 0x00, //
        0x00, 0x09, 0x00, 0x00, 0x00, 0x62, 0x69, 0x74, 0x73, 0x65, 0x72, 0x69, //
        0x61, 0x6c, 0x08, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x63, 0x73, //
        0x64, 0x18, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x18, 0x00, 0x00, //
        0x00, 0x00, 0x00, 0x00, 0x00, 0x39, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
        0x00, 0x1e, 0x00, 0x00, 0x00, 0x73, 0x6d, 0x61, 0x6c, 0x6c, 0x20, 0x61, //
        0x6e, 0x64, 0x20, 0x73, 0x70, 0x61, 0x72, 0x73, 0x65, 0x20, 0x65, 0x6e, //
        0x6f, 0x75, 0x67, 0x68, 0x20, 0x74, 0x6f, 0x20, 0x66, 0x69, 0x74,
    ];

    /// Between them the two pins fix every rev-3 byte of the kinds a
    /// load has written, in both directions, until `FORMAT_REV` moves.
    #[test]
    fn matrix_artifacts_are_the_pinned_bytes_in_both_directions() {
        assert_eq!(FORMAT_REV, 3);
        let m = sample_matrix();
        assert_eq!(encode(m.digest(), &Artifact::Matrix(m.clone())), WRITTEN_MATRIX_ARTIFACT);
        assert_eq!(encode_body(m.digest(), &MatrixBody::of(&m)), WRITTEN_MATRIX_ARTIFACT);
        let (digest, body) = decode_body(&WRITTEN_MATRIX_ARTIFACT).unwrap();
        assert_eq!((digest, body.to_matrix().unwrap()), (0x5bdc_db1e_5658_2972, m.clone()));
        assert_eq!(decode(&WRITTEN_MATRIX_ARTIFACT).unwrap(), (digest, Artifact::Matrix(m)));
    }

    #[test]
    fn circuit_artifacts_are_the_pinned_bytes_in_both_directions() {
        let artifact = Artifact::Circuit(sample_meta());
        assert_eq!(encode(42, &artifact), WRITTEN_CIRCUIT_ARTIFACT);
        assert_eq!(decode(&WRITTEN_CIRCUIT_ARTIFACT).unwrap(), (42, artifact));
    }

    #[test]
    fn only_a_matrix_file_decodes_as_a_body() {
        let mut bad = WRITTEN_MATRIX_ARTIFACT;
        bad[73] ^= 0x40;
        assert!(decode_body(&bad).is_err() && decode(&bad).is_err());
        assert!(decode_body(&WRITTEN_CIRCUIT_ARTIFACT).is_err());
    }

    #[test]
    fn matrix_round_trips() {
        let m = sample_matrix();
        let bytes = encode(m.digest(), &Artifact::Matrix(m.clone()));
        let (digest, artifact) = decode(&bytes).unwrap();
        assert_eq!(digest, m.digest());
        assert_eq!(artifact, Artifact::Matrix(m));
    }

    #[test]
    fn csr_round_trips() {
        let m = sample_matrix();
        let csr = Csr::from_dense(&m);
        let bytes = encode(m.digest(), &Artifact::Csr(csr.clone()));
        let (_, artifact) = decode(&bytes).unwrap();
        assert_eq!(artifact, Artifact::Csr(csr));
    }

    #[test]
    fn circuit_meta_round_trips() {
        let meta = sample_meta();
        let bytes = encode(42, &Artifact::Circuit(meta.clone()));
        let (digest, artifact) = decode(&bytes).unwrap();
        assert_eq!(digest, 42);
        assert_eq!(artifact, Artifact::Circuit(meta));
    }

    #[test]
    fn wrong_magic_rejected() {
        let m = sample_matrix();
        let mut bytes = encode(m.digest(), &Artifact::Matrix(m));
        bytes[0] = b'X';
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn wrong_rev_rejected() {
        let m = sample_matrix();
        let mut bytes = encode(m.digest(), &Artifact::Matrix(m));
        bytes[4] = FORMAT_REV as u8 + 1;
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn corrupt_matrix_payload_fails_the_digest() {
        let m = sample_matrix();
        let mut bytes = encode(m.digest(), &Artifact::Matrix(m));
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let err = decode(&bytes).unwrap_err().to_string();
        assert!(err.contains("digest") && !err.contains("CRC"), "{err}");
    }

    #[test]
    fn corrupt_circuit_payload_fails_the_crc() {
        let mut bytes = encode(42, &Artifact::Circuit(sample_meta()));
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let err = decode(&bytes).unwrap_err().to_string();
        assert!(err.contains("CRC"), "{err}");
    }

    #[test]
    fn lying_digest_rejected() {
        let m = sample_matrix();
        let bytes = encode(m.digest() ^ 1, &Artifact::Matrix(m));
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("digest"), "{err}");
    }

    #[test]
    fn every_truncation_is_an_error_not_a_panic() {
        let m = sample_matrix();
        let bytes = encode(m.digest(), &Artifact::Matrix(m));
        for len in 0..bytes.len() {
            assert!(decode(&bytes[..len]).is_err(), "prefix of {len} bytes");
        }
    }
}
