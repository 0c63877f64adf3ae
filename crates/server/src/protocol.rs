//! The binary wire protocol spoken between [`crate::Client`] and the
//! server.
//!
//! Every message is one *frame*:
//!
//! ```text
//! magic  "SMM1"      4 bytes
//! version            1 byte   (12, nothing else)
//! opcode             1 byte
//! request id         8 bytes  little-endian
//! payload length     4 bytes  little-endian
//! payload            N bytes
//! ```
//!
//! Requests and replies share the frame shape; a reply echoes its
//! request's opcode and id, and its payload begins with a status byte
//! ([`STATUS_OK`] / [`STATUS_BUSY`] / [`STATUS_ERROR`] /
//! [`STATUS_CAPACITY`]). All multi-byte integers are little-endian via
//! [`smm_core::wire`]. The payload length is capped
//! ([`MAX_FRAME_PAYLOAD`]) so a hostile peer cannot drive unbounded
//! allocation.
//!
//! ## A load ships its non-zeros
//!
//! A `LoadMatrix` payload is the matrix in [`smm_core::wire::put_matrix`]'s
//! layout, then one backend choice byte:
//!
//! ```text
//! rows u64 · cols u64 · nnz u64 · width u8 (1, 2 or 4)
//! · row counts      rows × u32
//! · column indices  nnz × u32, strictly ascending within a row
//! · values          nnz × width bytes, little-endian, none zero
//! · backend u8      0 server default, 1 auto, 2 dense, 3 csr,
//!                   4 bitserial, 5 sigma
//! ```
//!
//! The width is the narrowest of `i8`, `i16` and `i32` that holds every
//! value, so a 1024² matrix at 90 % sparsity with 8-bit weights is a
//! ~0.53 MB payload. A body stored wider than its values need is
//! refused, so a matrix has exactly one body and the server keeps the
//! bytes it received ([`MatrixBody`]) as the form its fleet holds in
//! memory and files on disk. The decoder checks the shape (at most
//! [`wire::MAX_WIRE_LEN`] elements) and the byte count before any
//! per-element work, and every hostile body is a typed [`Error::Wire`].
//!
//! The digest a `Loaded` reply names, and every `Gemv` after it, is the
//! matrix's content digest: [`wire::xxh64`] over those body bytes. The
//! client takes it over the bytes it wrote and the server over the bytes
//! it read, so the two can compare without another pass.
//!
//! ## A batch is its block
//!
//! A batch travels the way it sits in memory, as one [`Block`]:
//!
//! ```text
//! GemvBatch   digest u64 · count u32 · elements: one i32 element vector
//! Outputs     status u8  · count u32 · elements: one i64 element vector
//! ```
//!
//! The frame width is the element count over `count`. A count above the
//! frame's capacity is refused before anything else is read, and an
//! element count that is not a multiple of `count` is refused too, so a
//! batch cannot be ragged. Zero-width frames cost no bytes here, so the
//! server checks a batch's width against its matrix before it shapes the
//! reply block, and prices the reply at its widest (8 bytes per output)
//! before it computes it.
//!
//! ## An element vector travels at its width
//!
//! Every element vector — a `Gemv`'s input, a `GemvBatch`'s block, an
//! `Output` and an `Outputs` block — is a count, one width byte and the
//! elements at that width ([`wire::put_i32_narrow`] /
//! [`wire::put_i64_narrow`]):
//!
//! ```text
//! count u32 · width u8 · elements  count × width bytes, little-endian
//! ```
//!
//! The width is the narrowest that holds every element of the vector,
//! by the rule a matrix body's values follow: 1, 2 or 4 bytes for an
//! `i32` input, 1, 2, 4 or 8 for an `i64` output, and 1 for an empty
//! vector. The reader widens the elements back and refuses any other
//! width byte — 0, 3, one past the type's own width, or one wider than
//! the elements need — so each message still has one layout. An 8-bit
//! input travels in 1 byte instead of 4, and a sum that fits 31 bits in
//! 4 instead of 8: a 64-frame batch over 1024 rows and columns is
//! 64 KiB up instead of 256 KiB and 256 KiB down instead of 512 KiB.
//! What shrinks a vector is that every one of its elements fits a
//! narrower width; one element that does not sets the width of all of
//! them. A vector that needs its type's own width pays its width byte,
//! and each side pays one pass over it for the width (the fold that
//! finds it, the check that it is the narrowest).
//! The element count is capped at what [`MAX_FRAME_PAYLOAD`] bytes of
//! the element type hold, so a frame of 1-byte elements decodes into no
//! more memory than a frame at the type's own width.
//!
//! ## A `Stats` reply says each number once
//!
//! A `Stats` reply is the status byte and 35 `u64`s: 8 request counters
//! (requests, rejected, errors, bytes in, bytes out, vectors, batches,
//! body singles: the `Gemv`s answered from a matrix body with no engine
//! built), three per stage (count, p50, p99) and the six fleet counters.
//! The resident matrix count is the sum of the tier counts, and a
//! request's latency is the compute stage's, so neither is sent.
//!
//! ## One read and one write per frame
//!
//! The server's sessions and [`crate::Client`] both speak through one
//! connection type. Reads go through a [`BufReader`] at its default
//! capacity, so a small frame's header and payload arrive in one `read`.
//! The payload lands in a buffer the connection recycles, and that
//! buffer grows only with bytes that have arrived: a header that claims
//! 64 MiB and then stalls costs what was sent, not what was claimed. The
//! next frame out is built in the same buffer: header first, then
//! `Request::encode_into` / `Reply::encode_into` append the payload,
//! the length is patched in, and one `write` sends it. Between frames a
//! connection keeps at most `MAX_RETAINED_BUFFER` of it. [`read_frame`]
//! and [`write_frame`] are the same code over any `Read` / `Write`.
//!
//! ## One layout per message
//!
//! Every client of this protocol lives in this repository and writes
//! [`VERSION`], so each message has exactly one layout. The version byte
//! stays so that a peer from another revision is *refused*, never
//! misread: the frame reader rejects any other value, the server answers
//! with one `protocol violation: unsupported protocol version` error
//! frame and closes the socket, and [`Request::decode`] /
//! [`Reply::decode`] refuse a foreign version with [`Error::Wire`].

use smm_core::block::{Block, FrameBlock, RowBlock};
use smm_core::error::{Error, Result};
use smm_core::matrix::IntMatrix;
use smm_core::wire::{self, Cursor, MatrixBody};
use smm_telemetry::{Stage, StageStats, STAGES};
use std::io::{self, BufReader, Read, Write};

/// Frame preamble: the protocol's on-wire signature.
pub(crate) const MAGIC: [u8; 4] = *b"SMM1";
/// The one protocol version both ends speak.
pub const VERSION: u8 = 12;
/// Fixed frame header size in bytes.
pub const HEADER_LEN: usize = 18;
/// Upper bound on a frame payload; larger length prefixes are rejected
/// before any allocation.
pub const MAX_FRAME_PAYLOAD: usize = wire::MAX_WIRE_LEN;
/// Most frame-buffer capacity a connection keeps from one frame to the
/// next (its [`BufReader`]'s 8 KiB aside). A larger frame is served from
/// a buffer that is freed once the frame is done. The reply to a
/// 64-frame batch over 1024 columns fits even at 8 bytes per output
/// (524 KB).
pub(crate) const MAX_RETAINED_BUFFER: usize = 1 << 20;

/// Reply status byte: request served.
pub const STATUS_OK: u8 = 0;
/// Reply status byte: admission queue full, retry later.
pub const STATUS_BUSY: u8 = 1;
/// Reply status byte: request failed; payload carries the message.
pub const STATUS_ERROR: u8 = 2;
/// Reply status byte: the matrix fleet has no room for a new digest;
/// payload carries the resident count.
pub const STATUS_CAPACITY: u8 = 3;

/// Refuses a payload that travelled under any version but [`VERSION`].
fn check_version(version: u8) -> Result<()> {
    if version != VERSION {
        return Err(Error::Wire {
            context: format!("unsupported protocol version {version} (speaking {VERSION})"),
        });
    }
    Ok(())
}

/// Which compute engine the server builds for a loaded matrix — the
/// server-wide default ([`crate::ServerConfig::backend`]) and a
/// per-`LoadMatrix` request choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum BackendKind {
    /// Let the planner price the kernels on the matrix's own counts
    /// (rows, cols, nnz) and pick the cheapest.
    Auto,
    /// Dense reference gemv.
    Dense,
    /// Executed CSR SpMV (the default: exact and fast).
    #[default]
    Csr,
    /// The compiled spatial circuit, simulated cycle-accurately. Slowest
    /// and most faithful; every build of it (a load, a promotion)
    /// compiles the circuit.
    BitSerial,
    /// The SIGMA accelerator baseline executed through its PE-grid tile
    /// mapping.
    Sigma,
}

/// Every kind with its name and its wire choice byte, in declaration
/// order: the one listing that [`BackendKind::name`], the `LoadMatrix`
/// choice byte and `FromStr` all read. Byte 0 is no choice (take the
/// server default).
const BACKEND_KINDS: [(BackendKind, &str, u8); 5] = [
    (BackendKind::Auto, "auto", 1),
    (BackendKind::Dense, "dense", 2),
    (BackendKind::Csr, "csr", 3),
    (BackendKind::BitSerial, "bitserial", 4),
    (BackendKind::Sigma, "sigma", 5),
];

impl BackendKind {
    /// Stable name, matching the CLI's `--backend` values.
    pub fn name(&self) -> &'static str {
        BACKEND_KINDS[*self as usize].1
    }

    /// Wire byte for `Option<BackendKind>`: 0 = unspecified (take the
    /// server default).
    fn option_to_u8(kind: Option<BackendKind>) -> u8 {
        kind.map_or(0, |kind| BACKEND_KINDS[kind as usize].2)
    }

    /// Decodes a choice byte.
    fn option_from_u8(raw: u8) -> Result<Option<BackendKind>> {
        if raw == 0 {
            return Ok(None);
        }
        match BACKEND_KINDS.iter().find(|&&(_, _, byte)| byte == raw) {
            Some(&(kind, ..)) => Ok(Some(kind)),
            None => Err(Error::Wire {
                context: format!("unknown backend choice byte {raw}"),
            }),
        }
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    /// A kind's [`BackendKind::name`].
    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match BACKEND_KINDS.iter().find(|&&(_, name, _)| name == s) {
            Some(&(kind, ..)) => Ok(kind),
            None => {
                let names: Vec<&str> = BACKEND_KINDS.iter().map(|&(_, name, _)| name).collect();
                Err(format!("unknown backend '{s}' ({})", names.join("|")))
            }
        }
    }
}

/// Request operation codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Liveness probe.
    Ping = 0,
    /// Upload a matrix for serving.
    LoadMatrix = 1,
    /// One `o = aᵀV` product against a loaded matrix.
    Gemv = 2,
    /// A batch of products against a loaded matrix.
    GemvBatch = 3,
    /// Server-wide metrics snapshot.
    Stats = 4,
}

impl Opcode {
    /// Decodes a raw opcode byte.
    pub(crate) fn from_u8(raw: u8) -> Result<Opcode> {
        Ok(match raw {
            0 => Opcode::Ping,
            1 => Opcode::LoadMatrix,
            2 => Opcode::Gemv,
            3 => Opcode::GemvBatch,
            4 => Opcode::Stats,
            other => {
                return Err(Error::Wire {
                    context: format!("unknown opcode {other}"),
                })
            }
        })
    }
}

/// A client request, decoded. Exhaustive on purpose: a new variant is
/// a wire revision, and `tests/wire_compat.rs` and `tests/wire_fuzz.rs`
/// each `match` on this without a wildcard so that it stops their build.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Upload a matrix; the reply names its digest.
    LoadMatrix {
        /// The matrix to serve.
        matrix: IntMatrix,
        /// Requested engine (`None` takes the server default).
        backend: Option<BackendKind>,
    },
    /// One product against the matrix with this digest.
    Gemv {
        /// [`IntMatrix::digest`] of the loaded matrix.
        digest: u64,
        /// The input vector `a`.
        vector: Vec<i32>,
    },
    /// A batch of products against the matrix with this digest.
    GemvBatch {
        /// [`IntMatrix::digest`] of the loaded matrix.
        digest: u64,
        /// The input frames, served in order: on the wire, the frame
        /// count and then the block's elements as one `i32` element
        /// vector.
        frames: FrameBlock,
    },
    /// Server-wide metrics snapshot.
    Stats,
}

impl Request {
    /// The opcode this request travels under.
    pub(crate) fn opcode(&self) -> Opcode {
        match self {
            Request::Ping => Opcode::Ping,
            Request::LoadMatrix { .. } => Opcode::LoadMatrix,
            Request::Gemv { .. } => Opcode::Gemv,
            Request::GemvBatch { .. } => Opcode::GemvBatch,
            Request::Stats => Opcode::Stats,
        }
    }

    /// Serializes the request payload (header excluded). There is one
    /// layout; `_version` selects nothing.
    pub fn encode(&self, _version: u8) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the request payload to `buf` — how a connection builds
    /// a frame in its own buffer, behind the header.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Ping | Request::Stats => {}
            Request::LoadMatrix { matrix, backend } => {
                put_load_matrix(buf, matrix, *backend);
            }
            Request::Gemv { digest, vector } => put_gemv(buf, *digest, vector),
            Request::GemvBatch { digest, frames } => put_gemv_batch(buf, *digest, frames),
        }
    }

    /// Encodes a `GemvBatch` payload straight from a borrowed block,
    /// without cloning the frames into an owned [`Request`].
    pub fn encode_gemv_batch(digest: u64, frames: &FrameBlock) -> Vec<u8> {
        let mut buf = Vec::new();
        put_gemv_batch(&mut buf, digest, frames);
        buf
    }

    /// Decodes a request payload for `opcode`; any `version` but
    /// [`VERSION`] is refused.
    pub fn decode(version: u8, opcode: Opcode, payload: &[u8]) -> Result<Request> {
        check_version(version)?;
        let mut c = Cursor::new(payload);
        let request = match opcode {
            Opcode::Ping => Request::Ping,
            Opcode::Stats => Request::Stats,
            Opcode::LoadMatrix => Request::LoadMatrix {
                matrix: c.take_matrix()?,
                backend: BackendKind::option_from_u8(c.take_u8("backend choice")?)?,
            },
            Opcode::Gemv => Request::Gemv {
                digest: c.take_u64("matrix digest")?,
                vector: c.take_i32_narrow("input vector")?,
            },
            Opcode::GemvBatch => Request::GemvBatch {
                digest: c.take_u64("matrix digest")?,
                frames: take_block(&mut c, MAX_FRAME_PAYLOAD / 4, Cursor::take_i32_narrow)?,
            },
        };
        c.expect_end("request payload")?;
        Ok(request)
    }
}

/// Decodes a `LoadMatrix` payload with the matrix kept as the body it
/// arrived as ([`Cursor::take_matrix_body`]): how the server reads a
/// load, so the bytes it files are the bytes it received. Refuses what
/// [`Request::decode`] refuses.
pub(crate) fn decode_load(
    version: u8,
    payload: &[u8],
) -> Result<(MatrixBody, Option<BackendKind>)> {
    check_version(version)?;
    let mut c = Cursor::new(payload);
    let body = c.take_matrix_body()?;
    let backend = BackendKind::option_from_u8(c.take_u8("backend choice")?)?;
    c.expect_end("request payload")?;
    Ok((body, backend))
}

/// Appends a `LoadMatrix` payload from a borrowed matrix: the one
/// encoder of that layout, shared by [`Request::encode_into`] and the
/// client, so a load never copies its matrix to encode it. Returns the
/// matrix's content digest, taken over the body just written.
pub(crate) fn put_load_matrix(
    buf: &mut Vec<u8>,
    matrix: &IntMatrix,
    backend: Option<BackendKind>,
) -> u64 {
    let start = buf.len();
    wire::put_matrix(buf, matrix);
    let digest = wire::xxh64(&buf[start..]);
    wire::put_u8(buf, BackendKind::option_to_u8(backend));
    digest
}

/// Appends a `Gemv` payload from a borrowed vector: the one encoder of
/// that layout, shared by [`Request::encode_into`] and the client.
pub(crate) fn put_gemv(buf: &mut Vec<u8>, digest: u64, vector: &[i32]) {
    wire::put_u64(buf, digest);
    wire::put_i32_narrow(buf, vector);
}

/// Appends a `GemvBatch` payload from a borrowed block: digest, frame
/// count, then the block's elements as one vector.
pub(crate) fn put_gemv_batch(buf: &mut Vec<u8>, digest: u64, frames: &FrameBlock) {
    wire::put_u64(buf, digest);
    wire::put_u32(buf, frames.frames() as u32);
    wire::put_i32_narrow(buf, frames.as_slice());
}

/// Server-wide metrics, as reported by [`Request::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Frames decoded into requests.
    pub requests: u64,
    /// Compute requests refused with [`STATUS_BUSY`].
    pub rejected: u64,
    /// Requests answered with [`STATUS_ERROR`].
    pub errors: u64,
    /// Bytes read off the wire.
    pub bytes_in: u64,
    /// Bytes written to the wire.
    pub bytes_out: u64,
    /// Vectors served across all matrices (a batch of `n` counts `n`).
    pub vectors: u64,
    /// Batches served through the worker pool.
    pub batches: u64,
    /// Singles (`Gemv`) answered from the matrix's body, with no engine
    /// built: the fleet did not admit the digest to its hot tier.
    pub body_singles: u64,
    /// Per-stage latency summaries in [`Stage::ALL`] order (decode,
    /// queue, plan, shard, reassemble, compute, encode). A compute
    /// request's latency is its [`Stage::Compute`] summary.
    pub stages: [StageStats; STAGES],
    /// Digests resident in the hot tier (compiled session in memory).
    /// The three tier counts sum to the matrices the fleet holds.
    pub tier_hot: u64,
    /// Digests resident in the warm tier (the matrix's non-zeros in
    /// memory, compiled on demand).
    pub tier_warm: u64,
    /// Digests resident only in the cold tier (serialized on disk).
    pub tier_cold: u64,
    /// Warm/cold entries promoted back to a hotter tier.
    pub store_promotions: u64,
    /// Entries demoted to a colder tier under pressure.
    pub store_demotions: u64,
    /// Requests answered from the on-disk store instead of a fresh
    /// compile.
    pub store_hits: u64,
}

impl StatsSnapshot {
    /// Every `u64` of the snapshot in wire order: the 8 request
    /// counters, three per stage, then the six fleet counters. The
    /// one listing of the fields: `decode` fills it, `encode` reads it
    /// off a copy.
    fn wire_fields(&mut self) -> impl Iterator<Item = &mut u64> + '_ {
        [
            &mut self.requests,
            &mut self.rejected,
            &mut self.errors,
            &mut self.bytes_in,
            &mut self.bytes_out,
            &mut self.vectors,
            &mut self.batches,
            &mut self.body_singles,
        ]
        .into_iter()
        .chain(
            self.stages
                .iter_mut()
                .flat_map(|s| [&mut s.count, &mut s.p50_ns, &mut s.p99_ns]),
        )
        .chain([
            &mut self.tier_hot,
            &mut self.tier_warm,
            &mut self.tier_cold,
            &mut self.store_promotions,
            &mut self.store_demotions,
            &mut self.store_hits,
        ])
    }

    /// The [`StageStats`] for one pipeline stage, by name.
    pub fn stage(&self, stage: Stage) -> StageStats {
        self.stages[stage.idx()]
    }

    /// Serializes the snapshot: 8 `u64`s, the per-stage summary block
    /// (three `u64`s per stage), then the six-`u64` fleet tier block.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        let mut copy = *self;
        for v in copy.wire_fields() {
            wire::put_u64(buf, *v);
        }
    }

    /// Decodes a snapshot.
    pub(crate) fn decode(c: &mut Cursor<'_>) -> Result<StatsSnapshot> {
        let mut s = StatsSnapshot::default();
        for f in s.wire_fields() {
            *f = c.take_u64("stats field")?;
        }
        Ok(s)
    }
}

/// The body of a [`Reply::Loaded`]: what the server now serves.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LoadedInfo {
    /// Digest the matrix is now addressable by.
    pub digest: u64,
    /// Matrix rows (= required input length).
    pub rows: u64,
    /// Matrix columns (= produced output length).
    pub cols: u64,
    /// `true` if the matrix was already loaded.
    pub already_loaded: bool,
    /// Name of the engine the server planned for this matrix.
    pub engine: String,
}

/// A server reply, decoded. Exhaustive for the same reason as
/// [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// [`Request::Ping`] answered.
    Pong,
    /// [`Request::LoadMatrix`] accepted.
    Loaded(LoadedInfo),
    /// [`Request::Gemv`] result.
    Output(Vec<i64>),
    /// [`Request::GemvBatch`] results, in request order: on the wire,
    /// the row count and then the block's elements as one `i64` element
    /// vector.
    Outputs(RowBlock),
    /// [`Request::Stats`] snapshot (boxed: the per-stage latency block
    /// would otherwise dominate every `Reply`'s size).
    Stats(Box<StatsSnapshot>),
    /// Admission queue full; retry later.
    Busy,
    /// Request failed.
    Error(String),
    /// [`Request::LoadMatrix`] refused: the matrix fleet is at
    /// capacity across every tier. Wire status [`STATUS_CAPACITY`].
    CapacityFull {
        /// Digests currently resident across all tiers.
        loaded: u64,
    },
}

impl Reply {
    /// Serializes the reply payload (status byte, then the body). There
    /// is one layout; `_version` selects nothing.
    pub fn encode(&self, _version: u8) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the reply payload to `buf` — how a session builds its
    /// reply frame in the connection's own buffer, behind the header.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Reply::Busy => wire::put_u8(buf, STATUS_BUSY),
            Reply::Error(message) => {
                wire::put_u8(buf, STATUS_ERROR);
                wire::put_str(buf, message);
            }
            Reply::CapacityFull { loaded } => {
                wire::put_u8(buf, STATUS_CAPACITY);
                wire::put_u64(buf, *loaded);
            }
            Reply::Pong => wire::put_u8(buf, STATUS_OK),
            Reply::Loaded(info) => {
                wire::put_u8(buf, STATUS_OK);
                wire::put_u64(buf, info.digest);
                wire::put_u64(buf, info.rows);
                wire::put_u64(buf, info.cols);
                wire::put_u8(buf, u8::from(info.already_loaded));
                wire::put_str(buf, &info.engine);
            }
            Reply::Output(o) => {
                wire::put_u8(buf, STATUS_OK);
                wire::put_i64_narrow(buf, o);
            }
            Reply::Outputs(rows) => {
                wire::put_u8(buf, STATUS_OK);
                wire::put_u32(buf, rows.frames() as u32);
                wire::put_i64_narrow(buf, rows.as_slice());
            }
            Reply::Stats(s) => {
                wire::put_u8(buf, STATUS_OK);
                s.encode(buf);
            }
        }
    }

    /// Decodes a reply payload; the body shape is determined by the
    /// opcode of the request being answered. Any `version` but
    /// [`VERSION`] is refused.
    pub fn decode(version: u8, request_opcode: Opcode, payload: &[u8]) -> Result<Reply> {
        check_version(version)?;
        let mut c = Cursor::new(payload);
        let reply = match c.take_u8("status byte")? {
            STATUS_BUSY => Reply::Busy,
            STATUS_ERROR => Reply::Error(c.take_str("error message")?.to_string()),
            STATUS_CAPACITY => Reply::CapacityFull {
                loaded: c.take_u64("loaded count")?,
            },
            STATUS_OK => match request_opcode {
                Opcode::Ping => Reply::Pong,
                Opcode::LoadMatrix => Reply::Loaded(LoadedInfo {
                    digest: c.take_u64("digest")?,
                    rows: c.take_u64("rows")?,
                    cols: c.take_u64("cols")?,
                    already_loaded: c.take_u8("already-loaded flag")? != 0,
                    engine: c.take_str("engine name")?.to_string(),
                }),
                Opcode::Gemv => Reply::Output(c.take_i64_narrow("output vector")?),
                Opcode::GemvBatch => Reply::Outputs(take_block(
                    &mut c,
                    MAX_FRAME_PAYLOAD / 8,
                    Cursor::take_i64_narrow,
                )?),
                Opcode::Stats => Reply::Stats(Box::new(StatsSnapshot::decode(&mut c)?)),
            },
            other => {
                return Err(Error::Wire {
                    context: format!("unknown reply status {other}"),
                })
            }
        };
        c.expect_end("reply payload")?;
        Ok(reply)
    }
}

/// Payload bytes of a `GemvBatch` reply of `frames` rows of `cols`
/// outputs at its widest: status, count and one `i64` element vector
/// whose outputs each take 8 bytes. An `Outputs` reply is never longer,
/// and the server refuses a batch whose reply this prices past
/// [`MAX_FRAME_PAYLOAD`] before computing it: priced at its widest, the
/// answer does not depend on the values the batch would produce.
pub(crate) fn batch_reply_len(frames: usize, cols: usize) -> usize {
    frames
        .saturating_mul(cols)
        .saturating_mul(8)
        .saturating_add(10)
}

/// Reads a batch in its one layout: `count u32`, then the block's
/// elements as one element vector, read by `take_vec`. The
/// width is `len / count`. A count above `max_count` is refused before
/// any element is read; a length that is not a multiple of the count (or
/// any element behind a zero count) is refused too.
fn take_block<'a, T>(
    c: &mut Cursor<'a>,
    max_count: usize,
    take_vec: fn(&mut Cursor<'a>, &str) -> Result<Vec<T>>,
) -> Result<Block<T>> {
    let count = c.take_u32("batch count")? as usize;
    if count > max_count {
        return Err(Error::Wire {
            context: format!("batch count {count} exceeds frame capacity"),
        });
    }
    let data = take_vec(c, "batch elements")?;
    let len = data.len();
    let width = len.checked_div(count).unwrap_or(0);
    Block::from_vec(count, width, data).map_err(|_| Error::Wire {
        context: format!("{len} batch elements do not split into {count} equal frames"),
    })
}

/// A raw frame off the wire: version, opcode byte, request id, payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Protocol version the frame travelled under — always [`VERSION`]
    /// once [`read_frame`] has accepted it.
    pub version: u8,
    /// Raw opcode byte (validated by `Opcode::from_u8` at decode time).
    pub opcode: u8,
    /// Caller-chosen id, echoed verbatim in the reply frame.
    pub request_id: u64,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// An I/O failure (including a close mid-frame).
    Io(io::Error),
    /// The bytes violate the protocol (bad magic/version, oversized
    /// payload, shutdown mid-frame). The connection is desynchronized
    /// and must be dropped.
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "i/o failure: {e}"),
            FrameError::Malformed(context) => write!(f, "malformed frame: {context}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame under the given protocol version, returning the
/// bytes put on the wire. An oversized payload is an
/// [`io::ErrorKind::InvalidInput`] error, not a panic, and nothing is
/// written.
pub fn write_frame(
    w: &mut impl Write,
    version: u8,
    opcode: u8,
    request_id: u64,
    payload: &[u8],
) -> io::Result<u64> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    put_header(&mut frame, version, opcode, request_id);
    frame.extend_from_slice(payload);
    seal_and_send(w, &mut frame, &|| true)
}

/// Appends a frame header with a zero length field, which
/// [`seal_and_send`] patches once the payload behind it is appended.
fn put_header(buf: &mut Vec<u8>, version: u8, opcode: u8, request_id: u64) {
    buf.extend_from_slice(&MAGIC);
    buf.push(version);
    buf.push(opcode);
    buf.extend_from_slice(&request_id.to_le_bytes());
    buf.extend_from_slice(&[0; 4]);
}

/// Whether a socket error is its read or write timeout expiring.
fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Sends a frame built behind [`put_header`]: patches the payload
/// length in, then writes every byte and returns how many. A payload
/// over [`MAX_FRAME_PAYLOAD`] is an [`io::ErrorKind::InvalidInput`]
/// error and nothing is written — the client hits this with
/// user-supplied matrices and batches. A write timeout polls `keep_going`:
/// partial progress keeps writing, and the write gives up only once
/// `keep_going` turns false, so a peer that stopped reading cannot hold
/// a draining server forever.
fn seal_and_send(
    w: &mut impl Write,
    frame: &mut [u8],
    keep_going: &dyn Fn() -> bool,
) -> io::Result<u64> {
    let len = frame.len().saturating_sub(HEADER_LEN);
    if len > MAX_FRAME_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte wire limit; \
                 split the request"
            ),
        ));
    }
    if let Some(field) = frame.get_mut(HEADER_LEN - 4..HEADER_LEN) {
        field.copy_from_slice(&(len as u32).to_le_bytes());
    }
    let mut rest: &[u8] = frame;
    while !rest.is_empty() {
        match w.write(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => rest = rest.get(n..).unwrap_or_default(),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if timed_out(&e) && keep_going() => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()?;
    Ok(frame.len() as u64)
}

/// How a [`read_header`] attempt ended.
enum Fill {
    /// The header was read.
    Done,
    /// `keep_going` turned false while no frame bytes had arrived.
    IdleAbort,
    /// Clean EOF before any frame bytes.
    CleanEof,
}

/// Reads a frame header, treating read timeouts as polls of
/// `keep_going`. Only before its first byte — a frame boundary — can
/// EOF or an abort end the read cleanly; once a frame has started, a
/// timeout keeps waiting unless `keep_going` fails, which becomes a hard
/// [`FrameError::Malformed`] (the stream is mid-frame and cannot be
/// resynchronized).
fn read_header(
    r: &mut impl Read,
    buf: &mut [u8; HEADER_LEN],
    keep_going: &dyn Fn() -> bool,
) -> std::result::Result<Fill, FrameError> {
    let mut filled = 0;
    while let Some(rest) = buf.get_mut(filled..).filter(|rest| !rest.is_empty()) {
        match r.read(rest) {
            Ok(0) if filled == 0 => return Ok(Fill::CleanEof),
            Ok(0) => return Err(closed_mid_frame()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if timed_out(&e) && keep_going() => {}
            Err(e) if timed_out(&e) && filled == 0 => return Ok(Fill::IdleAbort),
            Err(e) if timed_out(&e) => {
                return Err(FrameError::Malformed("aborted mid-frame".into()))
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(Fill::Done)
}

fn closed_mid_frame() -> FrameError {
    FrameError::Io(io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "peer closed mid-frame",
    ))
}

/// Appends a `len`-byte payload to `payload`, which grows only with the
/// bytes that have arrived: `read_to_end` under a `take` limit reads
/// into spare capacity and reserves by doubling, so a header that
/// claims 64 MiB and then stalls holds what was sent, not what was
/// claimed. The frame has started, so EOF is an error and a timeout
/// with `keep_going` false is [`FrameError::Malformed`].
fn read_payload(
    r: &mut impl Read,
    payload: &mut Vec<u8>,
    len: usize,
    keep_going: &dyn Fn() -> bool,
) -> std::result::Result<(), FrameError> {
    while payload.len() < len {
        let missing = (len - payload.len()) as u64;
        match r.by_ref().take(missing).read_to_end(payload) {
            Ok(0) => return Err(closed_mid_frame()),
            Ok(_) => {}
            Err(e) if timed_out(&e) && keep_going() => {}
            Err(e) if timed_out(&e) => {
                return Err(FrameError::Malformed("aborted mid-frame".into()))
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// The fixed fields of a frame header that [`read_frame_into`] accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Header {
    /// Always [`VERSION`].
    pub(crate) version: u8,
    /// Raw opcode byte (validated by [`Opcode::from_u8`] at decode time).
    pub(crate) opcode: u8,
    /// Caller-chosen id, echoed verbatim in the reply frame.
    pub(crate) request_id: u64,
    /// Payload bytes behind the header.
    pub(crate) len: usize,
}

/// Reads one frame: the header, then the payload into `payload`
/// (cleared first). Blocks until the frame arrives, the peer closes
/// ([`FrameError::Closed`]), or — only while *between* frames —
/// `keep_going` returns false during a socket read-timeout poll, which
/// yields `Ok(None)`. Sessions pair this with a short
/// [`std::net::TcpStream::set_read_timeout`] so idle sessions notice a
/// shutdown promptly.
fn read_frame_into(
    r: &mut impl Read,
    payload: &mut Vec<u8>,
    keep_going: &dyn Fn() -> bool,
) -> std::result::Result<Option<Header>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    match read_header(r, &mut header, keep_going)? {
        Fill::CleanEof => return Err(FrameError::Closed),
        Fill::IdleAbort => return Ok(None),
        Fill::Done => {}
    }
    if header[..4] != MAGIC {
        return Err(FrameError::Malformed(format!(
            "bad magic {:02x?}",
            &header[..4]
        )));
    }
    let version = header[4];
    if version != VERSION {
        return Err(FrameError::Malformed(format!(
            "unsupported protocol version {version} (speaking {VERSION})"
        )));
    }
    let opcode = header[5];
    // Constant indices into the fixed-size header array: bounds are
    // checked at compile time, so no fallible slice conversion needed.
    let request_id = u64::from_le_bytes([
        header[6], header[7], header[8], header[9], header[10], header[11], header[12],
        header[13],
    ]);
    let len = u32::from_le_bytes([header[14], header[15], header[16], header[17]]) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Malformed(format!(
            "payload length {len} exceeds {MAX_FRAME_PAYLOAD}"
        )));
    }
    payload.clear();
    read_payload(r, payload, len, keep_going)?;
    Ok(Some(Header {
        version,
        opcode,
        request_id,
        len,
    }))
}

/// Reads one frame, blocking until it arrives or the connection fails.
pub fn read_frame(r: &mut impl Read) -> std::result::Result<Frame, FrameError> {
    let mut payload = Vec::new();
    match read_frame_into(r, &mut payload, &|| true)? {
        Some(header) => Ok(Frame {
            version: header.version,
            opcode: header.opcode,
            request_id: header.request_id,
            payload,
        }),
        // Unreachable with a constant `keep_going`, but a typed error
        // keeps this path panic-free if that contract ever changes.
        None => Err(FrameError::Malformed(
            "idle abort despite a constant keep_going".into(),
        )),
    }
}

/// One end of a connection, framed. Reads go through a [`BufReader`],
/// and one buffer, recycled from frame to frame, holds each payload
/// read and each frame built to send (module docs, "One read and one
/// write per frame").
#[derive(Debug)]
pub(crate) struct Connection<S> {
    reader: BufReader<S>,
    buf: Vec<u8>,
}

impl<S: Read> Connection<S> {
    pub(crate) fn new(stream: S) -> Self {
        Self {
            reader: BufReader::new(stream),
            buf: Vec::new(),
        }
    }

    /// Reads the next frame (see [`read_frame_into`]) and lends its
    /// payload to `decode`; the buffer is recycled once `decode`
    /// returns. `Ok(None)`: `keep_going` turned false between frames.
    pub(crate) fn read_frame<T>(
        &mut self,
        keep_going: &dyn Fn() -> bool,
        decode: impl FnOnce(Header, &[u8]) -> T,
    ) -> std::result::Result<Option<(Header, T)>, FrameError> {
        let Some(header) = read_frame_into(&mut self.reader, &mut self.buf, keep_going)? else {
            return Ok(None);
        };
        let decoded = decode(header, &self.buf);
        self.recycle();
        Ok(Some((header, decoded)))
    }

    /// Starts the next frame out under [`VERSION`]: the buffer now holds
    /// its header, and the payload goes on the end of what this returns.
    pub(crate) fn start_frame(&mut self, opcode: u8, request_id: u64) -> &mut Vec<u8> {
        self.buf.clear();
        put_header(&mut self.buf, VERSION, opcode, request_id);
        &mut self.buf
    }

    /// Between frames: a buffer grown past [`MAX_RETAINED_BUFFER`] is
    /// freed rather than kept.
    fn recycle(&mut self) {
        if self.buf.capacity() > MAX_RETAINED_BUFFER {
            self.buf = Vec::new();
        }
    }
}

impl<S: Read + Write> Connection<S> {
    /// Sends the frame built since [`Connection::start_frame`] with
    /// [`seal_and_send`], then recycles the buffer.
    pub(crate) fn send(&mut self, keep_going: &dyn Fn() -> bool) -> io::Result<u64> {
        let sent = seal_and_send(self.reader.get_mut(), &mut self.buf, keep_going);
        self.recycle();
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_core::generate::element_sparse_matrix;
    use smm_core::rng::seeded;

    fn round_trip_request(req: Request) {
        let payload = req.encode(VERSION);
        let back = Request::decode(VERSION, req.opcode(), &payload).unwrap();
        assert_eq!(back, req);
    }

    fn round_trip_reply(opcode: Opcode, reply: Reply) {
        let payload = reply.encode(VERSION);
        let back = Reply::decode(VERSION, opcode, &payload).unwrap();
        assert_eq!(back, reply);
    }

    #[test]
    fn requests_round_trip() {
        let mut rng = seeded(3100);
        let m = element_sparse_matrix(7, 9, 8, 0.6, true, &mut rng).unwrap();
        round_trip_request(Request::Ping);
        round_trip_request(Request::Stats);
        round_trip_request(Request::LoadMatrix {
            matrix: m.clone(),
            backend: None,
        });
        round_trip_request(Request::LoadMatrix {
            matrix: m,
            backend: Some(BackendKind::Auto),
        });
        round_trip_request(Request::Gemv {
            digest: 0xABCD,
            vector: vec![1, -2, 3],
        });
        round_trip_request(Request::GemvBatch {
            digest: u64::MAX,
            frames: FrameBlock::from_rows(&[vec![5; 4], vec![-6; 4], vec![7, 0, -7, 1]])
                .unwrap(),
        });
        // Empty batches round-trip too.
        round_trip_request(Request::GemvBatch {
            digest: 3,
            frames: FrameBlock::default(),
        });
    }

    #[test]
    fn replies_round_trip() {
        round_trip_reply(Opcode::Ping, Reply::Pong);
        round_trip_reply(
            Opcode::LoadMatrix,
            Reply::Loaded(LoadedInfo {
                digest: 42,
                rows: 7,
                cols: 9,
                already_loaded: true,
                engine: "csr".into(),
            }),
        );
        round_trip_reply(Opcode::Gemv, Reply::Output(vec![i64::MIN, 0, i64::MAX]));
        for (frames, cols) in [(2, 3), (0, 0), (4, 0)] {
            let n = frames as i64 * cols as i64;
            // The server's reply-size guard prices every output at 8
            // bytes: exactly the bytes of outputs that need them, and at
            // least those of any narrower reply.
            let wide = RowBlock::from_vec(frames, cols, (0..n).map(|i| i64::MIN + i).collect());
            let wide = Reply::Outputs(wide.unwrap());
            assert_eq!(wide.encode(VERSION).len(), batch_reply_len(frames, cols));
            round_trip_reply(Opcode::GemvBatch, wide);
            let narrow = Reply::Outputs(RowBlock::from_vec(frames, cols, (0..n).collect()).unwrap());
            assert!(narrow.encode(VERSION).len() <= batch_reply_len(frames, cols));
            round_trip_reply(Opcode::GemvBatch, narrow);
        }
        let mut stats = StatsSnapshot {
            requests: 11,
            batches: 3,
            tier_hot: 4,
            tier_warm: 2,
            tier_cold: 17,
            store_promotions: 6,
            store_demotions: 19,
            store_hits: 5,
            ..Default::default()
        };
        stats.stages[Stage::Decode.idx()] =
            StageStats { count: 11, p50_ns: 700, p99_ns: 1500 };
        stats.stages[Stage::Compute.idx()] =
            StageStats { count: 9, p50_ns: 3072, p99_ns: 6144 };
        round_trip_reply(Opcode::Stats, Reply::Stats(Box::new(stats)));
        // Busy and Error decode identically under any opcode.
        round_trip_reply(Opcode::Gemv, Reply::Busy);
        round_trip_reply(Opcode::Stats, Reply::Error("nope".into()));
        round_trip_reply(Opcode::LoadMatrix, Reply::CapacityFull { loaded: 64 });
    }

    #[test]
    fn backend_kind_parses_names_and_wire_bytes() {
        for (text, kind) in [
            ("auto", BackendKind::Auto),
            ("dense", BackendKind::Dense),
            ("csr", BackendKind::Csr),
            ("bitserial", BackendKind::BitSerial),
            ("sigma", BackendKind::Sigma),
        ] {
            assert_eq!(text.parse::<BackendKind>().unwrap(), kind);
        }
        assert_eq!(
            "sparse".parse::<BackendKind>().unwrap_err(),
            "unknown backend 'sparse' (auto|dense|csr|bitserial|sigma)"
        );
        assert_eq!(
            "tpu".parse::<BackendKind>().unwrap_err(),
            "unknown backend 'tpu' (auto|dense|csr|bitserial|sigma)"
        );
        assert_eq!(BackendKind::Csr.name(), "csr");
        assert_eq!(BackendKind::Auto.name(), "auto");
        assert_eq!(BackendKind::Sigma.name(), "sigma");
        for (i, &(kind, name, byte)) in BACKEND_KINDS.iter().enumerate() {
            assert_eq!(kind as usize, i, "the table is in declaration order");
            assert_eq!((kind.name(), name.parse::<BackendKind>()), (name, Ok(kind)));
            assert_eq!(BackendKind::option_to_u8(Some(kind)), byte);
        }
        for kind in [
            None,
            Some(BackendKind::Auto),
            Some(BackendKind::Dense),
            Some(BackendKind::Csr),
            Some(BackendKind::BitSerial),
            Some(BackendKind::Sigma),
        ] {
            let byte = BackendKind::option_to_u8(kind);
            assert_eq!(BackendKind::option_from_u8(byte).unwrap(), kind);
        }
        assert!(BackendKind::option_from_u8(99).is_err());
    }

    #[test]
    fn frame_round_trip_over_a_buffer() {
        let req = Request::Gemv {
            digest: 99,
            vector: vec![4, 5, 6],
        };
        let mut wire_bytes = Vec::new();
        let n = write_frame(
            &mut wire_bytes,
            VERSION,
            req.opcode() as u8,
            7,
            &req.encode(VERSION),
        )
        .unwrap();
        assert_eq!(n as usize, wire_bytes.len());
        let frame = read_frame(&mut wire_bytes.as_slice()).unwrap();
        assert_eq!(frame.request_id, 7);
        assert_eq!(frame.version, VERSION);
        let back = Request::decode(
            frame.version,
            Opcode::from_u8(frame.opcode).unwrap(),
            &frame.payload,
        )
        .unwrap();
        assert_eq!(back, req);
    }

    /// Back-to-back small frames through the session's own read path: the
    /// buffered reader takes all three in one call to the stream beneath
    /// it, and hands each frame over whole and in order.
    #[test]
    fn buffered_reads_take_back_to_back_frames_in_one_inner_read() {
        struct Counting<'a> {
            bytes: &'a [u8],
            reads: usize,
        }
        impl Read for Counting<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.reads += 1;
                self.bytes.read(buf)
            }
        }
        let requests = [
            (11, Request::Ping),
            (
                12,
                Request::Gemv {
                    digest: 7,
                    vector: vec![1, -2, 3],
                },
            ),
            (13, Request::Stats),
        ];
        let mut wire_bytes = Vec::new();
        for (id, request) in &requests {
            let (opcode, payload) = (request.opcode() as u8, request.encode(VERSION));
            write_frame(&mut wire_bytes, VERSION, opcode, *id, &payload).unwrap();
        }
        let mut conn = Connection::new(Counting {
            bytes: &wire_bytes,
            reads: 0,
        });
        for (id, request) in &requests {
            let (header, back) = conn
                .read_frame(&|| true, |header, payload| {
                    let opcode = Opcode::from_u8(header.opcode).unwrap();
                    Request::decode(header.version, opcode, payload).unwrap()
                })
                .unwrap()
                .unwrap();
            assert_eq!(header.request_id, *id);
            assert_eq!(&back, request);
        }
        assert_eq!(conn.reader.get_ref().reads, 1);
    }

    /// Between frames a connection frees a buffer that grew past
    /// `MAX_RETAINED_BUFFER` and keeps a smaller one, after a frame read
    /// and after a frame sent.
    #[test]
    fn a_connection_frees_a_grown_buffer_and_keeps_a_small_one() {
        let big = vec![7u8; MAX_RETAINED_BUFFER + 1];
        let small = [5u8; 100];
        let opcode = Opcode::Ping as u8;
        let mut wire_bytes = Vec::new();
        for payload in [&big[..], &small, &small[..3]] {
            write_frame(&mut wire_bytes, VERSION, opcode, 1, payload).unwrap();
        }
        let mut conn = Connection::new(std::io::Cursor::new(wire_bytes));
        let mut read_len = || {
            let (_, len) = conn.read_frame(&|| true, |_, payload| payload.len()).unwrap().unwrap();
            (len, conn.buf.capacity())
        };
        assert_eq!(read_len(), (big.len(), 0), "a grown buffer is freed");
        let (len, kept) = read_len();
        assert!(len == small.len() && kept >= small.len(), "{len}, {kept}");
        assert_eq!(read_len(), (3, kept), "a small buffer is kept");

        let mut conn = Connection::new(std::io::Cursor::new(Vec::new()));
        conn.start_frame(opcode, 2).extend_from_slice(&big);
        conn.send(&|| true).unwrap();
        assert_eq!(conn.buf.capacity(), 0, "a grown buffer is freed");
        conn.start_frame(opcode, 3).extend_from_slice(&small);
        conn.send(&|| true).unwrap();
        assert!(conn.buf.capacity() >= HEADER_LEN + small.len());
        let sent = conn.reader.into_inner().into_inner();
        let mut sent = sent.as_slice();
        assert_eq!(read_frame(&mut sent).unwrap().payload, big);
        assert_eq!(read_frame(&mut sent).unwrap().payload, small);
    }

    /// A header that claims the largest payload and then stalls: the
    /// payload buffer holds what arrived, not what was claimed.
    #[test]
    fn a_stalled_maximal_claim_grows_only_with_what_arrived() {
        struct Stalls(Vec<u8>);
        impl Read for Stalls {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.0.is_empty() {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                let n = self.0.as_slice().read(buf)?;
                self.0.drain(..n);
                Ok(n)
            }
        }
        let mut header = Vec::new();
        put_header(&mut header, VERSION, Opcode::LoadMatrix as u8, 1);
        header[14..18].copy_from_slice(&(MAX_FRAME_PAYLOAD as u32).to_le_bytes());
        let mut bytes = header;
        bytes.extend_from_slice(&[0xAB; 100]);
        let mut payload = Vec::new();
        let err = read_frame_into(&mut Stalls(bytes), &mut payload, &|| false).unwrap_err();
        assert!(matches!(err, FrameError::Malformed(_)), "{err}");
        assert_eq!(payload, vec![0xAB; 100]);
        let reserved = payload.capacity();
        assert!(reserved <= 4096, "{reserved} bytes reserved");
    }

    #[test]
    fn oversized_write_is_an_error_not_a_panic() {
        let payload = vec![0u8; MAX_FRAME_PAYLOAD + 1];
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, VERSION, Opcode::Gemv as u8, 1, &payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(sink.is_empty(), "nothing may reach the wire");
    }

    #[test]
    fn bad_magic_version_and_oversize_rejected() {
        let mut good = Vec::new();
        write_frame(&mut good, VERSION, Opcode::Ping as u8, 1, &[]).unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            read_frame(&mut bad_magic.as_slice()),
            Err(FrameError::Malformed(_))
        ));

        for bad in [0u8, VERSION - 1, VERSION + 1, 99] {
            let mut bad_version = good.clone();
            bad_version[4] = bad;
            assert!(matches!(
                read_frame(&mut bad_version.as_slice()),
                Err(FrameError::Malformed(_))
            ));
        }

        let mut oversize = good;
        oversize[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut oversize.as_slice()),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn decode_refuses_every_version_but_the_one_spoken() {
        let ping = Request::Ping.encode(VERSION);
        let pong = Reply::Pong.encode(VERSION);
        for version in (0..=u8::MAX).filter(|&v| v != VERSION) {
            let err = Request::decode(version, Opcode::Ping, &ping).unwrap_err();
            assert!(matches!(err, Error::Wire { .. }), "v{version}: {err}");
            let err = Reply::decode(version, Opcode::Ping, &pong).unwrap_err();
            assert!(matches!(err, Error::Wire { .. }), "v{version}: {err}");
        }
        // A version-7 `Stats` reply (15 leading counters, four of them
        // the retired compile cache's) is refused by its version, not
        // misread field by field.
        let v7_stats = vec![0u8; 1 + (15 + 3 * STAGES + 6) * 8];
        let err = Reply::decode(7, Opcode::Stats, &v7_stats).unwrap_err();
        let refused = "unsupported protocol version 7";
        assert!(
            matches!(&err, Error::Wire { context } if context.starts_with(refused)),
            "{err}"
        );
        // A version-8 batch (a length in front of every frame) is refused
        // by its version too; read as the current version, its first
        // frame's length would pass for the whole block's.
        let mut v8_batch = Vec::new();
        wire::put_u64(&mut v8_batch, 7);
        wire::put_u32(&mut v8_batch, 2);
        wire::put_i32_vec(&mut v8_batch, &[1, 2]);
        wire::put_i32_vec(&mut v8_batch, &[3, 4]);
        let err = Request::decode(8, Opcode::GemvBatch, &v8_batch).unwrap_err();
        let refused = "unsupported protocol version 8";
        assert!(
            matches!(&err, Error::Wire { context } if context.starts_with(refused)),
            "{err}"
        );
        // A version-9 `Stats` reply (38 `u64`s: the resident count and a
        // copy of the compute stage among them) is refused by its version.
        let v9_stats = vec![0u8; 1 + 38 * 8];
        let err = Reply::decode(9, Opcode::Stats, &v9_stats).unwrap_err();
        let refused = "unsupported protocol version 9";
        assert!(
            matches!(&err, Error::Wire { context } if context.starts_with(refused)),
            "{err}"
        );
        // Version-11 element vectors (every input at 4 bytes and every
        // output at 8, no width byte) are refused by their version too;
        // read as the current version, a count's low byte would pass for
        // a width.
        let mut v11_gemv = Vec::new();
        wire::put_u64(&mut v11_gemv, 7);
        wire::put_i32_vec(&mut v11_gemv, &[1, -2]);
        let mut v11_output = vec![STATUS_OK];
        wire::put_i64_vec(&mut v11_output, &[3, -4]);
        let refused = "unsupported protocol version 11";
        let errs = [
            Request::decode(11, Opcode::Gemv, &v11_gemv).unwrap_err(),
            Reply::decode(11, Opcode::Gemv, &v11_output).unwrap_err(),
        ];
        for err in errs {
            assert!(
                matches!(&err, Error::Wire { context } if context.starts_with(refused)),
                "{err}"
            );
        }
    }

    #[test]
    fn eof_at_boundary_is_closed_but_mid_frame_is_io_error() {
        assert!(matches!(
            read_frame(&mut [].as_slice()),
            Err(FrameError::Closed)
        ));
        let mut good = Vec::new();
        write_frame(&mut good, VERSION, Opcode::Ping as u8, 1, &[1, 2, 3]).unwrap();
        assert!(matches!(
            read_frame(&mut &good[..10]),
            Err(FrameError::Io(_))
        ));
        assert!(matches!(
            read_frame(&mut &good[..good.len() - 1]),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn unknown_opcode_and_trailing_garbage_rejected() {
        assert!(Opcode::from_u8(200).is_err());
        let mut payload = Request::Ping.encode(VERSION);
        payload.push(0xEE);
        assert!(Request::decode(VERSION, Opcode::Ping, &payload).is_err());
        let mut reply = Reply::Pong.encode(VERSION);
        reply.push(0xEE);
        assert!(Reply::decode(VERSION, Opcode::Ping, &reply).is_err());
        // A LoadMatrix with a garbage backend byte is rejected.
        let mut load = Request::LoadMatrix {
            matrix: IntMatrix::identity(2).unwrap(),
            backend: None,
        }
        .encode(VERSION);
        *load.last_mut().unwrap() = 0x7F;
        assert!(Request::decode(VERSION, Opcode::LoadMatrix, &load).is_err());
    }

    #[test]
    fn lying_batch_count_rejected() {
        let mut buf = Vec::new();
        wire::put_u64(&mut buf, 1); // digest
        wire::put_u32(&mut buf, u32::MAX); // absurd count
        assert!(Request::decode(VERSION, Opcode::GemvBatch, &buf).is_err());
    }
}
