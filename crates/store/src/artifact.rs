//! The on-disk artifact format: versioned, digest-stamped, checksummed
//! where no digest covers the content.
//!
//! One artifact file holds one serialized value — a dense [`IntMatrix`],
//! the one a load persists, or a [`Csr`] or the [`CircuitMeta`]
//! describing a compiled engine, which loads used to persist and which
//! stay decodable for the directories that hold one — in a std-only
//! little-endian layout:
//!
//! ```text
//! magic "SMMA" (4) · format rev u32 · kind u8 · digest u64
//! · payload CRC-32 u32 · payload (length-prefixed bytes)
//! ```
//!
//! The digest is the owning matrix's stable FNV content digest
//! ([`IntMatrix::digest`]) and the name the store files the artifact
//! under; the format revision gates layout changes.
//!
//! # What makes a file valid
//!
//! Each payload is verified **once**, by the strongest check its kind
//! has:
//!
//! * A `Matrix` artifact is valid iff its decoded content hashes to the
//!   digest stamped in its header. The store is content-addressed, so
//!   that check has to run anyway (it is what ties the bytes to the
//!   file name, see `Store::get`), and it covers everything the CRC
//!   did. [`encode`] still stamps the CRC-32 (IEEE) of the payload —
//!   the field is *written for rev-1 readers, not read for `Matrix`*:
//!   builds from before this rule verify it, so a directory moves
//!   between the two in both directions, and store rev 2 drops it.
//! * `Csr` and `Circuit` payloads have no content address — the digest
//!   in their header names the matrix they belong to, not their own
//!   bytes — so the CRC-32 over the payload is their integrity check
//!   and [`decode`] verifies it.
//!
//! Why the digest covers a matrix payload (`rows u64 · cols u64 ·
//! count u32 · count × i32`): every payload byte is either hashed by
//! [`IntMatrix::digest`] — both dimensions and every element, in the
//! byte order they are stored in — or checked structurally: the element
//! count must equal `rows × cols`, the outer length prefix must account
//! for exactly the bytes present, and nothing may trail either. A
//! corruption confined to one byte is caught with certainty: a
//! structural byte fails its check, and for a hashed byte an FNV-1a
//! step `h ← (h ^ b)·P` is a bijection of the state for a fixed byte
//! and injective in the byte for a fixed state, so the states differ
//! from that byte on. Any other corruption escapes with probability
//! 2⁻⁶⁴, where the CRC offered 2⁻³² (what is given up is the CRC's
//! guarantee for bursts of up to 32 bits that span bytes). The header
//! outside the payload is checked field by field, as it always was.
//!
//! Neither check walks its input a bit or a zero byte at a time:
//! [`crc32`] is slice-by-8 over compile-time tables and the digest
//! multiplies each zero run in at once, each pinned to its serial reference
//! ([`crc32_bitwise`], [`IntMatrix::digest_bytewise`]) — same bytes on
//! disk, same values.
//!
//! Decoding follows the same discipline as the network wire: bytes on
//! disk are treated as hostile. Every malformed input — truncation, a
//! lying length prefix, a wrong magic/revision/kind, a digest or CRC
//! mismatch, trailing garbage — returns an [`Error`], never panics, and
//! never allocates more than the bytes actually present justify.

use smm_core::error::{Error, Result};
use smm_core::matrix::IntMatrix;
use smm_core::wire::{put_bytes, put_i32_vec, put_i64_vec, put_str, put_u32, put_u64, put_u8, Cursor};
use smm_sparse::Csr;

/// File magic: `SMMA` ("spatial matrix multiplier artifact").
pub const MAGIC: [u8; 4] = *b"SMMA";

/// Current artifact format revision. Readers reject any other value.
pub const FORMAT_REV: u32 = 1;

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
/// `bytes` — the checksum [`encode`] stamps on every payload and
/// [`decode`] verifies for the kinds no digest covers (`Csr`,
/// `Circuit`).
///
/// Slice-by-8: eight bytes per step through eight 256-entry tables
/// derived at compile time from the same polynomial, so the value is
/// [`crc32_bitwise`]'s for every input and every artifact already on
/// disk stays valid.
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
    /// A dense [`IntMatrix`].
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
    pub const ALL: [ArtifactKind; 3] = [ArtifactKind::Matrix, ArtifactKind::Csr, ArtifactKind::Circuit];

    /// The kind byte written into the artifact header.
    pub fn as_u8(self) -> u8 {
        match self {
            ArtifactKind::Matrix => 1,
            ArtifactKind::Csr => 2,
            ArtifactKind::Circuit => 3,
        }
    }

    /// Decodes a header kind byte.
    pub fn from_u8(v: u8) -> Option<Self> {
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
    pub fn from_ext(ext: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.ext() == ext)
    }
}

/// Metadata describing the engine compiled for a matrix: enough to
/// report what a restarted server would rebuild (and why) without
/// serializing the netlist itself — the compile is reproduced from the
/// matrix bytes through the shared multiplier cache.
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
    pub fn kind(&self) -> ArtifactKind {
        match self {
            Artifact::Matrix(_) => ArtifactKind::Matrix,
            Artifact::Csr(_) => ArtifactKind::Csr,
            Artifact::Circuit(_) => ArtifactKind::Circuit,
        }
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Artifact::Matrix(m) => {
                put_u64(&mut buf, m.rows() as u64);
                put_u64(&mut buf, m.cols() as u64);
                put_i32_vec(&mut buf, m.as_slice());
            }
            Artifact::Csr(c) => {
                put_u64(&mut buf, c.rows() as u64);
                put_u64(&mut buf, c.cols() as u64);
                let row_ptr: Vec<i64> = c.row_ptr().iter().map(|&p| p as i64).collect();
                put_i64_vec(&mut buf, &row_ptr);
                let mut col_idx = Vec::new();
                let mut values = Vec::new();
                for r in 0..c.rows() {
                    for (col, v) in c.row(r) {
                        col_idx.push(col as i64);
                        values.push(v);
                    }
                }
                put_i64_vec(&mut buf, &col_idx);
                put_i32_vec(&mut buf, &values);
            }
            Artifact::Circuit(meta) => {
                put_str(&mut buf, &meta.engine);
                put_u32(&mut buf, meta.input_bits);
                put_str(&mut buf, &meta.encoding);
                put_u64(&mut buf, meta.rows);
                put_u64(&mut buf, meta.cols);
                put_u64(&mut buf, meta.nnz);
                put_str(&mut buf, &meta.rationale);
            }
        }
        buf
    }

    fn decode_payload(kind: ArtifactKind, payload: &[u8]) -> Result<Self> {
        let mut c = Cursor::new(payload);
        let artifact = match kind {
            ArtifactKind::Matrix => {
                let rows = take_dim(&mut c, "matrix rows")?;
                let cols = take_dim(&mut c, "matrix cols")?;
                let data = c.take_i32_vec("matrix data")?;
                if data.len() != rows.saturating_mul(cols) {
                    return Err(format_err(format!(
                        "matrix payload promises {rows}x{cols} but carries {} elements",
                        data.len()
                    )));
                }
                Artifact::Matrix(IntMatrix::from_vec(rows, cols, data)?)
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
/// versioned file layout. The payload CRC is stamped for every kind —
/// rev-1 bytes do not depend on who will read them.
pub fn encode(digest: u64, artifact: &Artifact) -> Vec<u8> {
    let payload = artifact.encode_payload();
    let mut buf = Vec::with_capacity(payload.len() + 32);
    buf.extend_from_slice(&MAGIC);
    put_u32(&mut buf, FORMAT_REV);
    put_u8(&mut buf, artifact.kind().as_u8());
    put_u64(&mut buf, digest);
    put_u32(&mut buf, crc32(&payload));
    put_bytes(&mut buf, &payload);
    buf
}

/// Decodes one artifact file, returning the digest it was stamped with
/// and the value. Every malformed input is an `Err`:
/// truncation, wrong magic, unknown revision or kind, trailing bytes, an
/// invalid decoded value, and a payload that fails its kind's integrity
/// check — the content digest for `Matrix`, the CRC-32 for `Csr` and
/// `Circuit` (see the module docs).
pub fn decode(bytes: &[u8]) -> Result<(u64, Artifact)> {
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
    let crc = c.take_u32("artifact payload crc")?;
    let payload = c.take_bytes("artifact payload")?;
    c.expect_end("artifact file")?;
    if kind != ArtifactKind::Matrix {
        let actual = crc32(payload);
        if actual != crc {
            return Err(format_err(format!(
                "artifact payload CRC mismatch: header {crc:#010x}, computed {actual:#010x}"
            )));
        }
    }
    let artifact = Artifact::decode_payload(kind, payload)?;
    // A matrix artifact must actually hash to the digest it claims —
    // the content address is the contract the whole store rests on, and
    // the one pass that verifies these bytes.
    if let Artifact::Matrix(m) = &artifact {
        let actual = m.digest();
        if actual != digest {
            return Err(format_err(format!(
                "matrix content digest {actual:#018x} does not match stamped digest {digest:#018x}"
            )));
        }
    }
    Ok((digest, artifact))
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

    /// `encode(sample_matrix())` as the commit before the table-driven
    /// CRC and the zero-folding digest wrote it (44 payload bytes: five
    /// full CRC strides and a four-byte tail).
    const PARENT_WRITTEN_MATRIX_ARTIFACT: [u8; 69] = [
        0x53, 0x4d, 0x4d, 0x41, 0x01, 0x00, 0x00, 0x00, 0x01, 0x17, 0x3d, 0xdb, //
        0x9c, 0xf4, 0xf8, 0x25, 0x83, 0xd3, 0x66, 0xdd, 0x72, 0x2c, 0x00, 0x00, //
        0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, //
        0x00, 0x00, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, //
        0x00, 0x00, 0x00, 0x00, 0x00, 0xfe, 0xff, 0xff, 0xff, 0x03, 0x00, 0x00, //
        0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
    ];

    /// `encode(42, sample_meta())` as the commit before a matrix's
    /// digest became its only payload check wrote it.
    const PARENT_WRITTEN_CIRCUIT_ARTIFACT: [u8; 107] = [
        0x53, 0x4d, 0x4d, 0x41, 0x01, 0x00, 0x00, 0x00, 0x03, 0x2a, 0x00, 0x00, //
        0x00, 0x00, 0x00, 0x00, 0x00, 0xd1, 0xe4, 0x1d, 0xda, 0x52, 0x00, 0x00, //
        0x00, 0x09, 0x00, 0x00, 0x00, 0x62, 0x69, 0x74, 0x73, 0x65, 0x72, 0x69, //
        0x61, 0x6c, 0x08, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x63, 0x73, //
        0x64, 0x18, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x18, 0x00, 0x00, //
        0x00, 0x00, 0x00, 0x00, 0x00, 0x39, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
        0x00, 0x1e, 0x00, 0x00, 0x00, 0x73, 0x6d, 0x61, 0x6c, 0x6c, 0x20, 0x61, //
        0x6e, 0x64, 0x20, 0x73, 0x70, 0x61, 0x72, 0x73, 0x65, 0x20, 0x65, 0x6e, //
        0x6f, 0x75, 0x67, 0x68, 0x20, 0x74, 0x6f, 0x20, 0x66, 0x69, 0x74,
    ];

    #[test]
    fn artifacts_written_before_the_table_driven_crc_still_decode() {
        let m = sample_matrix();
        let (digest, artifact) = decode(&PARENT_WRITTEN_MATRIX_ARTIFACT).unwrap();
        assert_eq!(digest, 0x8325_f8f4_9cdb_3d17);
        assert_eq!(artifact, Artifact::Matrix(m.clone()));
        // And the same bytes are still what gets written.
        assert_eq!(encode(m.digest(), &Artifact::Matrix(m)), PARENT_WRITTEN_MATRIX_ARTIFACT);
    }

    /// The other kind a load writes, pinned the same way in both
    /// directions, so between them the two tests fix every rev-1 byte —
    /// the CRC field included, for the kind that no longer reads it —
    /// until `FORMAT_REV` moves.
    #[test]
    fn circuit_artifacts_are_the_same_rev1_bytes_in_both_directions() {
        assert_eq!(FORMAT_REV, 1);
        let artifact = Artifact::Circuit(sample_meta());
        assert_eq!(encode(42, &artifact), PARENT_WRITTEN_CIRCUIT_ARTIFACT);
        assert_eq!(decode(&PARENT_WRITTEN_CIRCUIT_ARTIFACT).unwrap(), (42, artifact));
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
