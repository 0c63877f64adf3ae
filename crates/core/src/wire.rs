//! Little-endian binary wire primitives.
//!
//! The serving stack ships requests over TCP as length-prefixed binary
//! frames; this module is the shared vocabulary both ends encode with. It
//! is deliberately tiny and dependency-free: fixed-width little-endian
//! integers, length-prefixed byte strings, and `i32`/`i64` vectors, plus
//! a bounds-checked [`Cursor`] for decoding. Every decode failure is a
//! recoverable [`Error::Wire`], never a panic — the bytes come from the
//! network and must be treated as hostile.
//!
//! ## An element vector travels at its width
//!
//! [`put_i32_narrow`] / [`Cursor::take_i32_narrow`] and their `i64`
//! pair write a vector at the narrowest width that holds every element:
//!
//! ```text
//! count u32 · width u8 (1, 2 or 4; an i64 vector also 8)
//! · elements  count × width bytes, little-endian, sign-extended on read
//! ```
//!
//! The width follows one rule, the one a matrix body's values follow
//! (below): the narrowest of `i8`, `i16`, `i32` and `i64` that holds every
//! element, so an empty or all-zero vector is width 1. A reader refuses
//! any other width, so a vector has one layout, and caps the count at
//! what [`MAX_WIRE_LEN`] bytes of the element type hold, so a frame of
//! 1-byte elements cannot widen into more memory than a fixed-width frame
//! of its size could. [`put_i32_vec`] / [`put_i64_vec`] are the
//! fixed-width form (4 or 8 bytes per element, no width byte) that the
//! store's CSR artifact keeps.
//!
//! ## A matrix on the wire
//!
//! [`put_matrix`] / [`Cursor::take_matrix`] are the one binary layout of
//! an [`IntMatrix`]: its non-zeros, in row-major order, each value at the
//! narrowest width that holds every value of the matrix.
//!
//! ```text
//! rows u64 · cols u64 · nnz u64 · width u8 (1, 2 or 4)
//! · row counts      rows × u32
//! · column indices  nnz × u32, strictly ascending within a row
//! · values          nnz × width bytes, little-endian, none zero
//! ```
//!
//! A 1024² matrix at 90 % sparsity with 8-bit weights is ~0.53 MB: 4 KiB
//! of row counts and five bytes per non-zero. Decoding checks the shape
//! against [`MAX_WIRE_LEN`] elements and the byte count against what is
//! present before any per-element work, then checks each non-zero.
//!
//! **One matrix, one body.** The width must be the narrowest that holds
//! the values: a body at a wider width is refused. With columns strictly
//! ascending and no zero stored, every valid body is then exactly the
//! bytes [`put_matrix`] writes for the matrix it decodes to, so equal
//! matrices have equal bytes and a receiver may keep the bytes it got.
//! [`MatrixBody`] is such a body kept whole — what the serving fleet
//! holds in memory and files on disk — and computes from its non-zeros
//! what the dense matrix would give, the dense matrix included, and the
//! product `aᵀV` itself ([`MatrixBody::vecmat_into`]) for a matrix the
//! fleet serves without building an engine.
//!
//! ## The content digest
//!
//! A matrix's content digest ([`IntMatrix::digest`],
//! [`MatrixBody::digest`]) is [`xxh64`] with seed 0 over its body's
//! bytes, header included. One matrix has one body, so the digest is a
//! function of the matrix alone, and a receiver takes it over the bytes
//! it received, at memory speed: four independent lanes each fold one
//! 8-byte word of every 32-byte stripe, so no step waits on more than a
//! quarter of the input.
//!
//! Reading a body checks its structure in one pass with no exit per
//! element: per row, the columns must ascend strictly and the last one
//! lie in range; over the values, one fold takes the least, the greatest
//! and whether any is zero; the width rule is applied last. Only a body
//! that pass refuses is walked again element by element, to name the
//! first fault it finds.

use crate::error::{Error, Result};
use crate::matrix::IntMatrix;

/// Hard ceiling on any length prefix this module will accept, so a
/// corrupt or malicious 4-byte length cannot drive a multi-gigabyte
/// allocation. 64 MiB comfortably fits every matrix and batch the
/// workspace serves.
pub const MAX_WIRE_LEN: usize = 64 << 20;

fn wire_err(context: impl Into<String>) -> Error {
    Error::Wire {
        context: context.into(),
    }
}

/// Appends a `u8`.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a `u32` in little-endian order.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian order.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` length prefix followed by the raw bytes.
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(buf, bytes.len() as u32);
    buf.extend_from_slice(bytes);
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Appends a length-prefixed `i32` vector at a fixed 4 bytes per
/// element: one `reserve`, then the elements in bulk.
pub fn put_i32_vec(buf: &mut Vec<u8>, v: &[i32]) {
    put_u32(buf, v.len() as u32);
    buf.reserve(v.len() * 4);
    buf.extend(v.iter().flat_map(|x| x.to_le_bytes()));
}

/// Appends a length-prefixed `i64` vector at a fixed 8 bytes per
/// element: one `reserve`, then the elements in bulk.
pub fn put_i64_vec(buf: &mut Vec<u8>, v: &[i64]) {
    put_u32(buf, v.len() as u32);
    buf.reserve(v.len() * 8);
    buf.extend(v.iter().flat_map(|x| x.to_le_bytes()));
}

/// Appends an `i32` vector at its width (module docs, "An element vector
/// travels at its width"): the count, one width byte of 1, 2 or 4, then
/// every element at that width.
pub fn put_i32_narrow(buf: &mut Vec<u8>, v: &[i32]) {
    put_narrow(buf, v);
}

/// Appends an `i64` vector at its width: the count, one width byte of 1,
/// 2, 4 or 8, then every element at that width.
pub fn put_i64_narrow(buf: &mut Vec<u8>, v: &[i64]) {
    put_narrow(buf, v);
}

/// [`put_i32_narrow`] and [`put_i64_narrow`]: one pass over `v` for
/// its width, then one that writes every element at it.
fn put_narrow<T: Narrow>(buf: &mut Vec<u8>, v: &[T]) {
    let width = width_for(T::span(v));
    put_u32(buf, v.len() as u32);
    put_u8(buf, width as u8);
    buf.reserve(v.len() * width);
    put_at(buf, v, width);
}

/// Appends each element of `v` at `width` bytes, all of which hold it.
fn put_at<T: Narrow>(buf: &mut Vec<u8>, v: &[T], width: usize) {
    // One loop per width, each a plain truncation of every element.
    let values = v.iter().map(|&x| x.to_i64());
    match width {
        1 => buf.extend(values.map(|x| x as u8)),
        2 => buf.extend(values.flat_map(|x| (x as i16).to_le_bytes())),
        4 => buf.extend(values.flat_map(|x| (x as i32).to_le_bytes())),
        _ => buf.extend(values.flat_map(i64::to_le_bytes)),
    }
}

/// XXH64's five primes.
const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

/// One lane's step: folds an 8-byte word into the lane.
fn xxh64_round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(PRIME_2)).rotate_left(31).wrapping_mul(PRIME_1)
}

/// XXH64 with seed 0 over `bytes` — the published algorithm, so a value
/// can be checked outside this workspace (`xxhsum -H1`). Bytes in whole
/// 32-byte stripes go to four lanes, one 8-byte little-endian word each,
/// and the lanes are merged once at the end; the tail of fewer than 32
/// bytes is folded in 8, then 4, then 1 bytes at a time, and a final
/// avalanche mixes every bit into every other. It is the matrices'
/// content digest (module docs, "The content digest"): not
/// cryptographic, a `u64` key.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let (stripes, tail) = bytes.as_chunks::<32>();
    let mut hash = if stripes.is_empty() {
        PRIME_5
    } else {
        let mut lanes = [PRIME_1.wrapping_add(PRIME_2), PRIME_2, 0, PRIME_1.wrapping_neg()];
        for stripe in stripes {
            for (lane, word) in lanes.iter_mut().zip(stripe.as_chunks::<8>().0) {
                *lane = xxh64_round(*lane, u64::from_le_bytes(*word));
            }
        }
        let [a, b, c, d] = lanes;
        let joined = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        lanes.iter().fold(joined, |hash, &lane| {
            (hash ^ xxh64_round(0, lane)).wrapping_mul(PRIME_1).wrapping_add(PRIME_4)
        })
    };
    hash = hash.wrapping_add(bytes.len() as u64);
    let (words, tail) = tail.as_chunks::<8>();
    for word in words {
        hash ^= xxh64_round(0, u64::from_le_bytes(*word));
        hash = hash.rotate_left(27).wrapping_mul(PRIME_1).wrapping_add(PRIME_4);
    }
    let (halves, tail) = tail.as_chunks::<4>();
    for half in halves {
        hash ^= u64::from(u32::from_le_bytes(*half)).wrapping_mul(PRIME_1);
        hash = hash.rotate_left(23).wrapping_mul(PRIME_2).wrapping_add(PRIME_3);
    }
    for &byte in tail {
        hash ^= u64::from(byte).wrapping_mul(PRIME_5);
        hash = hash.rotate_left(11).wrapping_mul(PRIME_1);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(PRIME_2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(PRIME_3);
    hash ^ (hash >> 32)
}

/// An integer the wire carries at the narrowest width its values need:
/// a matrix value or an input element (`i32`), an output element
/// (`i64`).
trait Narrow: Copy {
    /// The type's own width in bytes, the widest it travels at.
    const BYTES: usize;

    /// The value, sign-extended.
    fn to_i64(self) -> i64;

    /// Narrows a value read at a width of at most [`Narrow::BYTES`],
    /// which therefore fits.
    fn from_i64(v: i64) -> Self;

    /// The OR of the sign-folded magnitudes of `values`, what
    /// [`width_for`] reads. A value's folded magnitude is the value
    /// itself when it is not negative and `!v` (`−v − 1`) when it is; it
    /// fits `N` signed bits exactly when this is below `2^(N−1)`, so the
    /// OR of many is below that bound exactly when each one is.
    fn span(values: &[Self]) -> u64;
}

impl Narrow for i32 {
    const BYTES: usize = 4;

    /// Folded in `u32` lanes, four to an SSE2 register.
    fn span(values: &[Self]) -> u64 {
        u64::from(values.iter().fold(0, |bits, &v| bits | (v ^ (v >> 31)) as u32))
    }

    fn to_i64(self) -> i64 {
        i64::from(self)
    }

    fn from_i64(v: i64) -> Self {
        v as i32
    }
}

impl Narrow for i64 {
    const BYTES: usize = 8;

    fn span(values: &[Self]) -> u64 {
        values.iter().fold(0, |bits, &v| bits | (v ^ (v >> 63)) as u64)
    }

    fn to_i64(self) -> i64 {
        self
    }

    fn from_i64(v: i64) -> Self {
        v
    }
}

/// Bytes per value for values whose folded magnitudes
/// ([`Narrow::span`]) OR to `bits`: the narrowest of `i8`, `i16`,
/// `i32` and `i64` that holds every one of them (zeros fit any width).
/// The one width rule of the wire, for a matrix body's values (which, as
/// `i32`s, never need 8) and for every element vector.
fn width_for(bits: u64) -> usize {
    if bits < 1 << 7 {
        1
    } else if bits < 1 << 15 {
        2
    } else if bits < 1 << 31 {
        4
    } else {
        8
    }
}

/// Appends a matrix in its binary layout (module docs, "A matrix on the
/// wire"). Column indices are `u32`, so a matrix wider than that cannot
/// travel; every matrix under [`MAX_WIRE_LEN`] elements is narrower.
pub fn put_matrix(buf: &mut Vec<u8>, m: &IntMatrix) {
    let (lo, hi) = m.as_slice().iter().fold((0, 0), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let width = width_between(lo, hi);
    put_u64(buf, m.rows() as u64);
    put_u64(buf, m.cols() as u64);
    let nnz_at = buf.len();
    put_u64(buf, 0); // patched once the row counts are in
    put_u8(buf, width as u8);
    buf.reserve(m.rows() * 4);
    let mut nnz = 0usize;
    for row in m.as_slice().chunks_exact(m.cols()) {
        let count = row.iter().map(|&v| u32::from(v != 0)).sum::<u32>();
        put_u32(buf, count);
        nnz += count as usize;
    }
    buf[nnz_at..nnz_at + 8].copy_from_slice(&(nnz as u64).to_le_bytes());
    let cols_at = buf.len();
    buf.resize(cols_at + nnz * (4 + width), 0);
    let (cols, values) = buf[cols_at..].split_at_mut(nnz * 4);
    match width {
        1 => put_nonzeros::<1>(m, cols, values),
        2 => put_nonzeros::<2>(m, cols, values),
        _ => put_nonzeros::<4>(m, cols, values),
    }
}

/// Elements per non-zero bitmask in [`put_nonzeros`].
const NONZERO_CHUNK: usize = 16;

/// Writes each non-zero's column index into `cols` and its low `W`
/// bytes into `values`, both sized for exactly the non-zeros. A row is
/// read 16 elements at a time as a non-zero bitmask and only the set
/// bits are visited, so a sparse row costs no branch per zero.
fn put_nonzeros<const W: usize>(m: &IntMatrix, cols: &mut [u8], values: &mut [u8]) {
    let mut slots = cols
        .as_chunks_mut::<4>()
        .0
        .iter_mut()
        .zip(values.as_chunks_mut::<W>().0);
    for row in m.as_slice().chunks_exact(m.cols()) {
        for (start, chunk) in (0..).step_by(NONZERO_CHUNK).zip(row.chunks(NONZERO_CHUNK)) {
            let mut nonzero = chunk
                .iter()
                .enumerate()
                .fold(0u32, |mask, (i, &v)| mask | u32::from(v != 0) << i);
            while nonzero != 0 {
                let i = nonzero.trailing_zeros() as usize;
                nonzero &= nonzero - 1;
                if let Some((col, value)) = slots.next() {
                    *col = ((start + i) as u32).to_le_bytes();
                    value.copy_from_slice(&chunk[i].to_le_bytes()[..W]);
                }
            }
        }
    }
}

/// [`width_for`] of matrix values spanning `lo..=hi`, the one way a
/// matrix's width is found ([`put_matrix`] and the body check). The
/// min/max folds that find `lo` and `hi` start at 0, so `lo ≤ 0 ≤ hi`:
/// their folded magnitudes are `!lo` and `hi`, and the larger decides.
/// (An OR of folded magnitudes in the body check's fold made the whole
/// check of a 256² body ~50 % slower on a 2-vCPU x86-64 host.)
fn width_between(lo: i32, hi: i32) -> usize {
    width_for(u64::from((!lo).max(hi) as u32))
}

/// Sign-extends a `W`-byte little-endian value to `i32`: the bytes go
/// to the top of a word and an arithmetic shift brings them down.
fn widen<const W: usize>(bytes: &[u8; W]) -> i32 {
    let mut full = [0; 4];
    full[4 - W..].copy_from_slice(bytes);
    i32::from_le_bytes(full) >> (32 - 8 * W)
}

/// Bytes of a body before its row counts: rows, cols and nnz as `u64`,
/// then the width byte.
const BODY_HEADER: usize = 25;

/// A body's header and its three arrays, sized against each other and
/// against the bytes present, the elements not yet read.
struct RawBody<'a> {
    rows: usize,
    cols: usize,
    nnz: usize,
    width: usize,
    counts: &'a [[u8; 4]],
    columns: &'a [[u8; 4]],
    values: &'a [u8],
}

impl RawBody<'_> {
    /// Checks every element: the row counts must sum to the count of
    /// non-zeros, a column must lie in range and ascend strictly within
    /// its row, no value may be zero, and the width must be the narrowest
    /// that holds the values. One pass with no early exit decides
    /// ([`RawBody::passes`]); only a body it refuses is walked again, so
    /// the error names the first fault ([`RawBody::walk`]).
    fn check(&self) -> Result<()> {
        self.sums()?;
        let passes = match self.width {
            1 => self.passes::<1>(),
            2 => self.passes::<2>(),
            _ => self.passes::<4>(),
        };
        if passes {
            Ok(())
        } else {
            self.walk()
        }
    }

    /// Refuses row counts that do not sum to the count of non-zeros.
    fn sums(&self) -> Result<()> {
        let counted: u64 = self.counts.iter().map(|b| u64::from(u32::from_le_bytes(*b))).sum();
        if counted != self.nnz as u64 {
            return Err(wire_err(format!(
                "matrix row counts sum to {counted}, not {} non-zeros",
                self.nnz
            )));
        }
        Ok(())
    }

    /// [`RawBody::check`]'s verdict at width `W`, for row counts that sum
    /// to the count of non-zeros: per row, a fold over adjacent columns
    /// for strict ascent and the last column against `cols`; over the
    /// values, one fold for the least, the greatest and any zero; then
    /// the width rule. Nothing exits early, so the loops carry no branch
    /// per non-zero.
    fn passes<const W: usize>(&self) -> bool {
        let column = |c: &[u8; 4]| u32::from_le_bytes(*c);
        let mut rest = self.columns;
        let mut ordered = true;
        for count in self.counts {
            let (row, after) = rest.split_at(u32::from_le_bytes(*count) as usize);
            rest = after;
            ordered &= row
                .windows(2)
                .fold(true, |up, pair| up & (column(&pair[0]) < column(&pair[1])));
            ordered &= row.last().is_none_or(|c| (column(c) as usize) < self.cols);
        }
        let (lo, hi, zero) = self.values.as_chunks::<W>().0.iter().fold(
            (0, 0, false),
            |(lo, hi, zero), value| {
                let v = widen(value);
                (lo.min(v), hi.max(v), zero | (v == 0))
            },
        );
        ordered & !zero & (width_between(lo, hi) == W)
    }

    /// The exact check, element by element, stopping at the first fault
    /// and naming it; row counts already sum to the count of non-zeros.
    /// Its verdict is [`RawBody::passes`]'s for every body.
    fn walk(&self) -> Result<()> {
        let (lo, hi) = match self.width {
            1 => self.walk_at::<1>(),
            2 => self.walk_at::<2>(),
            _ => self.walk_at::<4>(),
        }?;
        let need = width_between(lo, hi);
        if need != self.width {
            return Err(wire_err(format!(
                "matrix value width {} is wider than its values need ({need})",
                self.width
            )));
        }
        Ok(())
    }

    /// [`RawBody::walk`] over the non-zeros at width `W`, returning the
    /// least and greatest value seen (0 and 0 when there is none). Every
    /// row takes exactly its own count.
    fn walk_at<const W: usize>(&self) -> Result<(i32, i32)> {
        let (mut lo, mut hi) = (0, 0);
        let mut nonzeros = self.columns.iter().zip(self.values.as_chunks::<W>().0);
        for (r, count) in self.counts.iter().enumerate() {
            // The smallest column the next non-zero of this row may take.
            let mut next = 0usize;
            for (col, value) in nonzeros.by_ref().take(u32::from_le_bytes(*count) as usize) {
                let c = u32::from_le_bytes(*col) as usize;
                if c < next || c >= self.cols {
                    return Err(wire_err(format!(
                        "matrix row {r}: column {c} is out of order or past {} columns",
                        self.cols
                    )));
                }
                let v = widen(value);
                if v == 0 {
                    return Err(wire_err(format!("matrix row {r}: column {c} carries a zero")));
                }
                (lo, hi) = (lo.min(v), hi.max(v));
                next = c + 1;
            }
        }
        Ok((lo, hi))
    }

}

impl<'a> RawBody<'a> {
    /// Non-zeros per row, top to bottom.
    fn row_counts(&self) -> impl ExactSizeIterator<Item = usize> + 'a {
        self.counts.iter().map(|b| u32::from_le_bytes(*b) as usize)
    }

    /// Every non-zero's column, row-major.
    fn columns(&self) -> impl ExactSizeIterator<Item = usize> + 'a {
        self.columns.iter().map(|b| u32::from_le_bytes(*b) as usize)
    }

    /// Every non-zero's value, row-major, widened to `i32`.
    fn values(&self) -> Vec<i32> {
        match self.width {
            1 => self.values.as_chunks::<1>().0.iter().map(widen).collect(),
            2 => self.values.as_chunks::<2>().0.iter().map(widen).collect(),
            _ => self.values.as_chunks::<4>().0.iter().map(widen).collect(),
        }
    }

    /// `out = aᵀV` over a checked body at width `W`, `out` already
    /// zeroed and both sized: per row of a non-zero input, each of its
    /// non-zeros adds `a[row] · value` to its column's `i64`.
    fn scatter<const W: usize>(&self, a: &[i32], out: &mut [i64]) {
        let (mut columns, mut values) = (self.columns, self.values.as_chunks::<W>().0);
        for (count, &ar) in self.counts.iter().zip(a) {
            let n = u32::from_le_bytes(*count) as usize;
            let (row_columns, rest) = columns.split_at(n);
            let (row_values, rest_values) = values.split_at(n);
            (columns, values) = (rest, rest_values);
            if ar == 0 {
                continue;
            }
            let ar = i64::from(ar);
            for (c, v) in row_columns.iter().zip(row_values) {
                // A checked body's columns are all in range.
                if let Some(o) = out.get_mut(u32::from_le_bytes(*c) as usize) {
                    *o += ar * i64::from(widen(v));
                }
            }
        }
    }

    /// The dense matrix of a checked body: one zeroed allocation, the
    /// non-zeros scattered into it.
    fn to_matrix(&self) -> Result<IntMatrix> {
        let mut data = vec![0; self.rows * self.cols];
        let mut nonzeros = self.columns().zip(self.values());
        for (row, count) in data.chunks_exact_mut(self.cols).zip(self.row_counts()) {
            for (c, v) in nonzeros.by_ref().take(count) {
                row[c] = v;
            }
        }
        IntMatrix::from_vec(self.rows, self.cols, data)
    }
}

/// A matrix body (module docs, "A matrix on the wire") kept as its bytes:
/// validated once, when it is read or written, and exactly what
/// [`put_matrix`] writes for the matrix it stands for. Its content digest
/// is taken over those bytes on the way in and kept.
///
/// This is the form a matrix takes at rest — a 256² matrix at 90 %
/// sparsity with 8-bit weights is ~34 KB of it instead of 256 KB dense —
/// and everything a consumer needs comes straight from it: the shape, the
/// non-zeros ([`MatrixBody::row_counts`], [`MatrixBody::columns`],
/// [`MatrixBody::values`]) and, for an engine that wants it, the dense
/// matrix ([`MatrixBody::to_matrix`]).
#[derive(Clone, PartialEq, Eq)]
pub struct MatrixBody {
    bytes: Vec<u8>,
    rows: usize,
    cols: usize,
    nnz: usize,
    width: usize,
    digest: u64,
}

impl std::fmt::Debug for MatrixBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatrixBody")
            .field("shape", &(self.rows, self.cols))
            .field("nnz", &self.nnz)
            .field("width", &self.width)
            .field("digest", &format_args!("{:#018x}", self.digest))
            .finish()
    }
}

impl MatrixBody {
    /// The body of `m`: [`put_matrix`]'s bytes and their digest.
    pub fn of(m: &IntMatrix) -> Self {
        let mut bytes = Vec::new();
        put_matrix(&mut bytes, m);
        let width = usize::from(bytes[BODY_HEADER - 1]);
        let nnz = (bytes.len() - BODY_HEADER - m.rows() * 4) / (4 + width);
        let digest = xxh64(&bytes);
        Self { bytes, rows: m.rows(), cols: m.cols(), nnz, width, digest }
    }

    /// The body's bytes, exactly as [`put_matrix`] writes them.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Rows of the matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Non-zero elements.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Bytes per stored value: 1, 2 or 4.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The matrix's content digest: [`xxh64`] over the body's bytes,
    /// [`IntMatrix::digest`]'s value.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The body's three arrays, over its own bytes.
    fn raw(&self) -> RawBody<'_> {
        let (counts, rest) = self.bytes[BODY_HEADER..].split_at(self.rows * 4);
        let (columns, values) = rest.split_at(self.nnz * 4);
        RawBody {
            rows: self.rows,
            cols: self.cols,
            nnz: self.nnz,
            width: self.width,
            counts: counts.as_chunks().0,
            columns: columns.as_chunks().0,
            values,
        }
    }

    /// Non-zeros per row, top to bottom.
    pub fn row_counts(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.raw().row_counts()
    }

    /// Every non-zero's column, row-major.
    pub fn columns(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.raw().columns()
    }

    /// Every non-zero's value, row-major, widened to `i32`.
    pub fn values(&self) -> Vec<i32> {
        self.raw().values()
    }

    /// The dense matrix: one zeroed allocation, the non-zeros scattered
    /// into it.
    pub fn to_matrix(&self) -> Result<IntMatrix> {
        self.raw().to_matrix()
    }

    /// `out = aᵀV` straight off the body's bytes, into a caller-owned
    /// slice of exactly [`MatrixBody::cols`] elements (stale contents
    /// are overwritten): a product with no engine built. Rows are walked
    /// in order and a zero input's row is skipped, each non-zero adding
    /// `a[row] · value` to its column in `i64` — the additions, in the
    /// order and arithmetic, of the `csr` engine's row-major scatter, so
    /// the bits are the engines'. Mis-sized `a` or `out` return
    /// [`Error::DimensionMismatch`].
    pub fn vecmat_into(&self, a: &[i32], out: &mut [i64]) -> Result<()> {
        if a.len() != self.rows || out.len() != self.cols {
            return Err(Error::DimensionMismatch {
                context: format!(
                    "vector length {} and output length {} vs a {}x{} matrix",
                    a.len(),
                    out.len(),
                    self.rows,
                    self.cols
                ),
            });
        }
        out.fill(0);
        let raw = self.raw();
        match self.width {
            1 => raw.scatter::<1>(a, out),
            2 => raw.scatter::<2>(a, out),
            _ => raw.scatter::<4>(a, out),
        }
        Ok(())
    }
}

/// A bounds-checked reader over a received byte slice.
///
/// Every `take_*` either returns the decoded value or an [`Error::Wire`]
/// naming what was being read; [`Cursor::expect_end`] rejects trailing
/// garbage so frames are validated end to end.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(wire_err(format!(
                "truncated {what}: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads exactly `N` bytes as a fixed array, so integer decoders
    /// stay panic-free even if `take`'s length contract ever regresses.
    fn take_array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        self.take(N, what)?
            .try_into()
            .map_err(|_| wire_err(format!("internal length mismatch decoding {what}")))
    }

    /// Reads a `u8`.
    pub fn take_u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take_array(what)?))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take_array(what)?))
    }

    /// Reads a length prefix, validated against both [`MAX_WIRE_LEN`] and
    /// the bytes actually remaining.
    fn take_len(&mut self, what: &str) -> Result<usize> {
        let len = self.take_u32(what)? as usize;
        if len > MAX_WIRE_LEN {
            return Err(wire_err(format!("{what} length {len} exceeds {MAX_WIRE_LEN}")));
        }
        Ok(len)
    }

    /// Reads a length-prefixed byte string.
    pub fn take_bytes(&mut self, what: &str) -> Result<&'a [u8]> {
        let len = self.take_len(what)?;
        self.take(len, what)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self, what: &str) -> Result<&'a str> {
        std::str::from_utf8(self.take_bytes(what)?)
            .map_err(|_| wire_err(format!("{what} is not valid UTF-8")))
    }

    /// Reads a length prefix and the `len * N` payload bytes behind it,
    /// as `N`-byte elements. The promised length is checked against the
    /// bytes actually present before the caller allocates anything.
    fn take_elems<const N: usize>(&mut self, what: &str) -> Result<&'a [[u8; N]]> {
        let len = self.take_len(what)?;
        if self.remaining() < len.saturating_mul(N) {
            return Err(wire_err(format!(
                "truncated {what}: {len} elements promised"
            )));
        }
        Ok(self.take(len * N, what)?.as_chunks().0)
    }

    /// Reads a length-prefixed `i32` vector written by [`put_i32_vec`].
    pub fn take_i32_vec(&mut self, what: &str) -> Result<Vec<i32>> {
        Ok(self
            .take_elems::<4>(what)?
            .iter()
            .map(|b| i32::from_le_bytes(*b))
            .collect())
    }

    /// Reads a length-prefixed `i64` vector written by [`put_i64_vec`].
    pub fn take_i64_vec(&mut self, what: &str) -> Result<Vec<i64>> {
        Ok(self
            .take_elems::<8>(what)?
            .iter()
            .map(|b| i64::from_le_bytes(*b))
            .collect())
    }

    /// Reads an `i32` vector written by [`put_i32_narrow`]. Refused, each
    /// with [`Error::Wire`]: a count past 16 Mi, a width byte other than
    /// 1, 2 or 4, fewer bytes than the count at that width, and a width
    /// wider than the elements need.
    pub fn take_i32_narrow(&mut self, what: &str) -> Result<Vec<i32>> {
        self.take_narrow(what)
    }

    /// Reads an `i64` vector written by [`put_i64_narrow`], refusing what
    /// [`Cursor::take_i32_narrow`] refuses, with a cap of 8 Mi elements
    /// and width 8 allowed.
    pub fn take_i64_narrow(&mut self, what: &str) -> Result<Vec<i64>> {
        self.take_narrow(what)
    }

    /// Reads a vector at its width. A count past [`MAX_WIRE_LEN`] bytes'
    /// worth of `T` (the cap a fixed width implied: 16 Mi `i32`s, 8 Mi
    /// `i64`s), a width `T` cannot take, and a count whose bytes are not
    /// all present are refused before anything is allocated. A width
    /// wider than the elements need is refused once they are read, so
    /// every vector has one layout.
    fn take_narrow<T: Narrow>(&mut self, what: &str) -> Result<Vec<T>> {
        let len = self.take_u32(what)? as usize;
        let cap = MAX_WIRE_LEN / T::BYTES;
        if len > cap {
            return Err(wire_err(format!("{what} length {len} exceeds {cap}")));
        }
        let width = self.take_u8(what)? as usize;
        if !matches!(width, 1 | 2 | 4 | 8) || width > T::BYTES {
            return Err(wire_err(format!(
                "{what} width {width} is not 1, 2 or 4{}",
                if T::BYTES == 8 { " or 8" } else { "" }
            )));
        }
        if self.remaining() < len * width {
            return Err(wire_err(format!(
                "truncated {what}: {len} elements of {width} bytes promised, have {}",
                self.remaining()
            )));
        }
        let bytes = self.take(len * width, what)?;
        // Per width, one pass ORs the elements' folded magnitudes
        // (`Narrow::span`'s fold, in the width's own lanes) for the width
        // rule, at the same cost wherever the element that needs the
        // width sits, and one sign-extends them.
        let (bits, v) = match width {
            1 => (0, bytes.iter().map(|&b| T::from_i64((b as i8).into())).collect()),
            2 => {
                let e = bytes.as_chunks().0.iter().map(|b| i16::from_le_bytes(*b));
                let bits = e.clone().fold(0, |bits, x| bits | (x ^ (x >> 15)) as u16);
                (u64::from(bits), e.map(|x| T::from_i64(x.into())).collect())
            }
            4 => {
                let e = bytes.as_chunks().0.iter().map(|b| i32::from_le_bytes(*b));
                let bits = e.clone().fold(0, |bits, x| bits | (x ^ (x >> 31)) as u32);
                (u64::from(bits), e.map(|x| T::from_i64(x.into())).collect())
            }
            _ => {
                let e = bytes.as_chunks().0.iter().map(|b| i64::from_le_bytes(*b));
                let bits = e.clone().fold(0, |bits, x| bits | (x ^ (x >> 63)) as u64);
                (bits, e.map(T::from_i64).collect())
            }
        };
        let need = width_for(bits);
        if need != width {
            return Err(wire_err(format!(
                "{what} width {width} is wider than its elements need ({need})"
            )));
        }
        Ok(v)
    }

    /// Reads a body's header and sizes its three arrays: the shape, the
    /// count of non-zeros and the bytes they need are all checked before
    /// anything is allocated or any element is read.
    fn take_raw_body(&mut self) -> Result<RawBody<'a>> {
        let rows = self.take_u64("matrix rows")?;
        let cols = self.take_u64("matrix cols")?;
        let nnz = self.take_u64("matrix nnz")?;
        let width = self.take_u8("matrix value width")?;
        if !matches!(width, 1 | 2 | 4) {
            return Err(wire_err(format!("matrix value width {width} is not 1, 2 or 4")));
        }
        if rows == 0 || cols == 0 {
            return Err(wire_err(format!("{rows}x{cols} matrix has no elements")));
        }
        let elements = rows
            .checked_mul(cols)
            .filter(|&n| n <= MAX_WIRE_LEN as u64)
            .ok_or_else(|| {
                wire_err(format!("{rows}x{cols} matrix exceeds {MAX_WIRE_LEN} elements"))
            })?;
        if nnz > elements {
            return Err(wire_err(format!(
                "{rows}x{cols} matrix cannot hold {nnz} non-zeros"
            )));
        }
        // All three are now at most MAX_WIRE_LEN, so none of the byte
        // counts below can overflow.
        let (rows, cols, nnz, width) = (rows as usize, cols as usize, nnz as usize, width as usize);
        let needed = rows * 4 + nnz * (4 + width);
        if self.remaining() < needed {
            return Err(wire_err(format!(
                "truncated matrix: {rows} rows and {nnz} non-zeros need {needed} bytes, have {}",
                self.remaining()
            )));
        }
        Ok(RawBody {
            rows,
            cols,
            nnz,
            width,
            counts: self.take(rows * 4, "matrix row counts")?.as_chunks::<4>().0,
            columns: self.take(nnz * 4, "matrix columns")?.as_chunks::<4>().0,
            values: self.take(nnz * width, "matrix values")?,
        })
    }

    /// Reads a matrix written by [`put_matrix`] into its dense form (see
    /// [`Cursor::take_matrix_body`] for what is refused).
    pub fn take_matrix(&mut self) -> Result<IntMatrix> {
        let raw = self.take_raw_body()?;
        raw.check()?;
        raw.to_matrix()
    }

    /// Reads a matrix written by [`put_matrix`] and keeps it as its
    /// bytes. The shape and byte count are checked first; then the row
    /// counts must sum to the count of non-zeros, every column must lie in
    /// range and ascend strictly within its row, no value may be zero,
    /// and the width must be the narrowest that holds the values — so the
    /// bytes kept are exactly what [`put_matrix`] writes for this matrix.
    /// The content digest is [`xxh64`] over the bytes read.
    pub fn take_matrix_body(&mut self) -> Result<MatrixBody> {
        let start = self.pos;
        let raw = self.take_raw_body()?;
        raw.check()?;
        let bytes = &self.buf[start..self.pos];
        Ok(MatrixBody {
            bytes: bytes.to_vec(),
            rows: raw.rows,
            cols: raw.cols,
            nnz: raw.nnz,
            width: raw.width,
            digest: xxh64(bytes),
        })
    }

    /// Fails unless every byte has been consumed.
    pub fn expect_end(&self, what: &str) -> Result<()> {
        if self.remaining() != 0 {
            return Err(wire_err(format!(
                "{what} has {} trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.take_u8("a").unwrap(), 7);
        assert_eq!(c.take_u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(c.take_u64("c").unwrap(), u64::MAX - 1);
        c.expect_end("frame").unwrap();
    }

    #[test]
    fn compound_round_trip() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"abc");
        put_str(&mut buf, "héllo");
        put_i32_vec(&mut buf, &[1, -2, 3]);
        put_i64_vec(&mut buf, &[i64::MAX, 0]);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.take_bytes("a").unwrap(), b"abc");
        assert_eq!(c.take_str("b").unwrap(), "héllo");
        assert_eq!(c.take_i32_vec("c").unwrap(), vec![1, -2, 3]);
        assert_eq!(c.take_i64_vec("d").unwrap(), vec![i64::MAX, 0]);
        c.expect_end("frame").unwrap();
    }

    /// An element vector takes the narrowest width that holds every
    /// element, on both sides of each width's bounds, and reads back
    /// whole.
    #[test]
    fn narrow_vectors_take_the_width_their_elements_need() {
        let i32_cases: [(&[i32], u8); 9] = [
            (&[], 1),
            (&[0, 0], 1),
            (&[-128, 127], 1),
            (&[128], 2),
            (&[-129], 2),
            (&[-32_768, 32_767], 2),
            (&[32_768], 4),
            (&[-32_769], 4),
            (&[i32::MIN, i32::MAX], 4),
        ];
        for (v, width) in i32_cases {
            let mut buf = Vec::new();
            put_i32_narrow(&mut buf, v);
            assert_eq!((buf[4], buf.len()), (width, 5 + v.len() * usize::from(width)), "{v:?}");
            let mut c = Cursor::new(&buf);
            assert_eq!(c.take_i32_narrow("v").unwrap(), v);
            c.expect_end("v").unwrap();
        }
        let i64_cases: [(&[i64], u8); 7] = [
            (&[], 1),
            (&[-128, 127], 1),
            (&[-32_768, 32_767], 2),
            (&[i32::MIN.into(), i32::MAX.into()], 4),
            (&[i64::from(i32::MAX) + 1], 8),
            (&[i64::from(i32::MIN) - 1], 8),
            (&[i64::MIN, i64::MAX], 8),
        ];
        for (v, width) in i64_cases {
            let mut buf = Vec::new();
            put_i64_narrow(&mut buf, v);
            assert_eq!((buf[4], buf.len()), (width, 5 + v.len() * usize::from(width)), "{v:?}");
            let mut c = Cursor::new(&buf);
            assert_eq!(c.take_i64_narrow("v").unwrap(), v);
            c.expect_end("v").unwrap();
        }
        // One element past the width of all the others, at any position,
        // widens the whole vector, behind whatever else is in the buffer.
        let n = 3 * 256 + 5;
        for (wide, width) in [(300, 2), (70_000, 4), (1 << 40, 8), (i64::MIN, 8)] {
            for at in [0, 1, 255, 256, 519, n - 1] {
                let mut v: Vec<i64> = (0..n as i64).map(|i| i % 200 - 100).collect();
                v[at] = wide;
                if at > 0 {
                    v[at / 2] = if width == 8 { 300 } else { -128 };
                }
                let mut buf = vec![0xAB];
                put_i64_narrow(&mut buf, &v);
                assert_eq!((buf[0], buf[5], buf.len()), (0xAB, width, 6 + n * usize::from(width)));
                let mut c = Cursor::new(&buf[1..]);
                assert_eq!(c.take_i64_narrow("v").unwrap(), v, "{wide} at {at}");
                c.expect_end("v").unwrap();
                let narrow: Vec<i32> = v.iter().map(|&x| x as i32).collect();
                if width < 8 {
                    let mut buf = Vec::new();
                    put_i32_narrow(&mut buf, &narrow);
                    assert_eq!(buf[4], width);
                    assert_eq!(Cursor::new(&buf).take_i32_narrow("v").unwrap(), narrow);
                }
            }
        }
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 99);
        let mut c = Cursor::new(&buf[..5]);
        assert!(matches!(c.take_u64("x").unwrap_err(), Error::Wire { .. }));
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocating() {
        // A 4 GiB length prefix with 0 bytes behind it.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        let mut c = Cursor::new(&buf);
        assert!(c.take_bytes("payload").is_err());
        let mut c = Cursor::new(&buf);
        assert!(c.take_i32_vec("vector").is_err());
    }

    #[test]
    fn lying_vector_length_rejected_before_element_loop() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 1000); // promises 1000 i32s
        buf.extend_from_slice(&5i32.to_le_bytes()); // delivers one
        let mut c = Cursor::new(&buf);
        assert!(c.take_i32_vec("vector").is_err());
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 1);
        put_u8(&mut buf, 2);
        let mut c = Cursor::new(&buf);
        c.take_u8("a").unwrap();
        assert!(c.expect_end("frame").is_err());
    }

    #[test]
    fn a_matrix_travels_at_the_narrowest_width_that_holds_it() {
        for (value, width) in [
            (127, 1u8),
            (-128, 1),
            (128, 2),
            (-129, 2),
            (32767, 2),
            (-32768, 2),
            (32768, 4),
            (-32769, 4),
            (i32::MIN, 4),
            (i32::MAX, 4),
        ] {
            let m = IntMatrix::from_vec(2, 3, vec![0, value, 0, 1, 0, -1]).unwrap();
            let mut body = Vec::new();
            put_matrix(&mut body, &m);
            assert_eq!(body[24], width, "{value}");
            assert_eq!(body.len(), 25 + 2 * 4 + 3 * (4 + usize::from(width)), "{value}");
            let mut c = Cursor::new(&body);
            assert_eq!(c.take_matrix().unwrap(), m, "{value}");
            c.expect_end("matrix body").unwrap();
        }
    }

    /// XXH64's published answers at seed 0 over `xxhsum`'s sanity
    /// buffer (byte `i` is the top byte of `2654435761 · P^i` mod 2⁶⁴ for
    /// `P = 0x9E37_79B1_85EB_CA8D`): the empty input, 1 and 14 bytes
    /// (`xxhsum`'s own self-test), and the lengths either side of one and
    /// two 32-byte stripes, where the lanes, the 8-byte words, the 4-byte
    /// half-word and the single bytes of the tail take over from each
    /// other. The low 32 bits of each are what `zstd --check` stamps on a
    /// frame of the same bytes.
    #[test]
    fn xxh64_gives_the_published_answers() {
        let mut state = 2_654_435_761u64;
        let sanity: Vec<u8> = (0..65)
            .map(|_| {
                let byte = (state >> 56) as u8;
                state = state.wrapping_mul(0x9E37_79B1_85EB_CA8D);
                byte
            })
            .collect();
        for (len, expect) in [
            (0, 0xEF46_DB37_51D8_E999),
            (1, 0xE934_A84A_DB05_2768),
            (14, 0x8282_DCC4_994E_35C8),
            (31, 0x299B_39A2_90E6_D783),
            (32, 0x18B2_1649_2BB4_4B70),
            (33, 0x55C8_DC3E_578F_5B59),
            (63, 0xA9EF_BE0F_A0F3_F4E7),
            (64, 0xEF55_8F8A_CAC2_B5CD),
            (65, 0xDE0F_20DC_2631_AF7A),
        ] {
            assert_eq!(xxh64(&sanity[..len]), expect, "{len} bytes");
        }
    }

    /// A body's arrays written as they are, at `width` bytes per value,
    /// whether or not they make a valid body; the count of non-zeros is
    /// the number of columns.
    fn raw_bytes(cols: usize, counts: &[u32], columns: &[u32], values: &[i32], width: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u64(&mut buf, counts.len() as u64);
        put_u64(&mut buf, cols as u64);
        put_u64(&mut buf, columns.len() as u64);
        put_u8(&mut buf, width as u8);
        counts.iter().for_each(|&n| put_u32(&mut buf, n));
        columns.iter().for_each(|&c| put_u32(&mut buf, c));
        values.iter().for_each(|v| buf.extend_from_slice(&v.to_le_bytes()[..width]));
        buf
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The one-pass check and the walk agree on every body: valid ones
        /// at each width, and each with one fault planted — two columns of
        /// a row swapped, a column equal to `cols`, a zero value, a width
        /// wider than the values need, a row count off by one (the sum
        /// broken, or kept by taking the one from the next row). The pass
        /// accepts exactly what the walk accepts, and a refusal is worded
        /// by the walk.
        #[test]
        fn the_one_pass_check_refuses_exactly_what_the_walk_refuses(
            seed in proptest::prelude::any::<u64>(),
            fault in 0usize..7,
            width in 0usize..3,
        ) {
            use rand::Rng;
            let mut rng = crate::rng::seeded(seed);
            let (rows, cols) = (rng.gen_range(1..=9), rng.gen_range(1..=9));
            let bound = [i32::from(i8::MAX), i32::from(i16::MAX), i32::MAX][width];
            let density = rng.gen_range(0.0..=1.0);
            let m = IntMatrix::from_fn(rows, cols, |_, _| {
                if rng.gen_bool(density) { rng.gen_range(-bound..=bound) } else { 0 }
            })
            .unwrap();
            let body = MatrixBody::of(&m);
            let mut counts: Vec<u32> = body.row_counts().map(|n| n as u32).collect();
            let mut columns: Vec<u32> = body.columns().map(|c| c as u32).collect();
            let mut values = body.values();
            let mut width = body.width();
            let nnz = columns.len();
            match fault {
                1 => {
                    // The first row with two non-zeros, its first two swapped.
                    let mut at = 0;
                    if let Some(&n) = counts.iter().find(|&&n| { at += n as usize; n >= 2 }) {
                        let start = at - n as usize;
                        columns.swap(start, start + 1);
                    }
                }
                2 if nnz > 0 => columns[rng.gen_range(0..nnz)] = cols as u32,
                3 if nnz > 0 => values[rng.gen_range(0..nnz)] = 0,
                4 if width < 4 => width *= 2,
                5 => counts[rng.gen_range(0..rows)] += 1,
                6 if rows > 1 => {
                    let r = rng.gen_range(0..rows - 1);
                    if counts[r + 1] > 0 {
                        counts[r] += 1;
                        counts[r + 1] -= 1;
                    }
                }
                _ => {}
            }
            let bytes = raw_bytes(cols, &counts, &columns, &values, width);
            let raw = Cursor::new(&bytes).take_raw_body().unwrap();
            let walked = raw.sums().and_then(|()| raw.walk());
            if raw.sums().is_ok() {
                let passes = match width {
                    1 => raw.passes::<1>(),
                    2 => raw.passes::<2>(),
                    _ => raw.passes::<4>(),
                };
                proptest::prop_assert_eq!(passes, walked.is_ok(), "fault {}: {:?}", fault, walked);
            }
            let words = |r: Result<()>| r.map_err(|e| e.to_string());
            proptest::prop_assert_eq!(words(raw.check()), words(walked));
            if fault == 0 {
                proptest::prop_assert!(raw.check().is_ok());
            }
        }
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, &[0xFF, 0xFE]);
        let mut c = Cursor::new(&buf);
        assert!(c.take_str("name").is_err());
    }
}
