//! The pluggable compute engines behind the serving runtime.
//!
//! A [`GemvBackend`] computes the paper's `o = aᵀV` product for one fixed
//! matrix `V`. Four implementations cover the repo's functional layers:
//!
//! * [`DenseRef`] — the dense reference kernel ([`smm_core::gemv::vecmat`]);
//! * [`SparseCsr`] — the executed CSR SpMV kernel ([`smm_sparse::Csr`]);
//! * [`BitSerial`] — the compiled spatial circuit, simulated by the
//!   word-level bit-sliced engine (up to 64 frames per machine word);
//! * [`SigmaEngine`] — the SIGMA accelerator baseline executed tile by
//!   tile over its PE grid, weight-stationary across a batch.
//!
//! Each implements one compute method, [`GemvBackend::run_rows`] — a
//! range of a flat [`FrameBlock`] into a flat output slice — and a single
//! vector ([`GemvBackend::gemv`]) is a one-frame block through the same
//! kernel. All four are bit-identical on every valid input; which one to
//! serve with is purely a throughput/fidelity trade (the bit-serial
//! engine is a *simulation* of the hardware and therefore the slowest and
//! the most faithful; the sigma engine executes the exact dataflow the
//! SIGMA timing model prices).

use smm_bitserial::multiplier::FixedMatrixMultiplier;
use smm_core::block::FrameBlock;
use smm_core::error::{Error, Result};
use smm_core::gemv::vecmat_into;
use smm_core::matrix::IntMatrix;
use smm_sparse::Csr;
use std::sync::Arc;

/// Validates a shard call: `start..end` must lie inside `frames` and
/// `out_len` must be exactly `(end - start) * cols`. Shared by every
/// [`GemvBackend::run_rows`] implementation.
pub(crate) fn check_shard(
    frames: &FrameBlock,
    start: usize,
    end: usize,
    cols: usize,
    out_len: usize,
) -> Result<()> {
    if start > end || end > frames.frames() {
        return Err(Error::DimensionMismatch {
            context: format!(
                "shard {start}..{end} outside block of {} frames",
                frames.frames()
            ),
        });
    }
    let expected = (end - start) * cols;
    if out_len != expected {
        return Err(Error::DimensionMismatch {
            context: format!("output length {out_len} vs {expected} shard elements"),
        });
    }
    Ok(())
}

/// A fixed-matrix `o = aᵀV` compute engine, shareable across worker
/// threads.
pub trait GemvBackend: Send + Sync {
    /// Short stable name for reports (`"dense"`, `"csr"`, `"bitserial"`,
    /// `"sigma"`).
    fn name(&self) -> &'static str;

    /// Matrix rows — the required input-vector length.
    fn rows(&self) -> usize;

    /// Matrix columns — the produced output-vector length.
    fn cols(&self) -> usize;

    /// Computes frames `start..end` of a flat [`FrameBlock`] into a
    /// row-major output slice of `(end - start) * cols()` elements — the
    /// engine's one compute primitive: what the process's pool workers
    /// call for each shard of a [`crate::Session::run_block`] batch,
    /// and the kernel behind [`GemvBackend::gemv`].
    ///
    /// Implementations write rows in place with no per-row allocation,
    /// and must validate the shard and the frame width (see the
    /// built-ins) rather than panic on a mis-sized `out`. They must not
    /// submit a batch (`Session::run_block`, on any session) from
    /// inside this call: every session's shards share one queue, so a
    /// worker waiting here on shards queued behind it is a deadlock as
    /// soon as every worker does it — at once, with one worker.
    fn run_rows(
        &self,
        frames: &FrameBlock,
        start: usize,
        end: usize,
        out: &mut [i64],
    ) -> Result<()>;

    /// Computes one product `o = aᵀV`: a one-frame block through
    /// [`GemvBackend::run_rows`], so a single reaches the same kernel a
    /// batch does.
    fn gemv(&self, a: &[i32]) -> Result<Vec<i64>> {
        let frame = FrameBlock::from_vec(1, a.len(), a.to_vec())?;
        let mut out = vec![0i64; self.cols()];
        self.run_rows(&frame, 0, 1, &mut out)?;
        Ok(out)
    }
}

/// The dense reference kernel.
#[derive(Debug, Clone)]
pub struct DenseRef {
    matrix: IntMatrix,
}

impl DenseRef {
    /// Serves `matrix` itself: the engine keeps it, nothing is copied.
    pub fn new(matrix: IntMatrix) -> Self {
        Self { matrix }
    }
}

impl GemvBackend for DenseRef {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn rows(&self) -> usize {
        self.matrix.rows()
    }

    fn cols(&self) -> usize {
        self.matrix.cols()
    }

    /// Writes each product row in place via [`vecmat_into`] — no
    /// allocation per row or per shard.
    fn run_rows(
        &self,
        frames: &FrameBlock,
        start: usize,
        end: usize,
        out: &mut [i64],
    ) -> Result<()> {
        let cols = self.matrix.cols();
        check_shard(frames, start, end, cols, out.len())?;
        for (i, frame) in (start..end).enumerate() {
            vecmat_into(
                frames.frame(frame),
                &self.matrix,
                &mut out[i * cols..(i + 1) * cols],
            )?;
        }
        Ok(())
    }
}

/// The executed CSR SpMV kernel: every shard runs
/// [`Csr::vecmat_block_into`] — full groups of 16 frames gathered
/// through the column slices, in one pass when their values are inside
/// the `f32` rule and in one pass per digit plane past it, and the frames
/// past the last full group (so every single) one at a time through
/// [`Csr::vecmat_into`], which gathers a frame through the column slices
/// under the same rule and scatters any other through the rows.
#[derive(Debug, Clone)]
pub struct SparseCsr {
    csr: Csr,
}

impl SparseCsr {
    /// Converts a dense matrix to CSR once, up front.
    pub fn new(matrix: &IntMatrix) -> Self {
        Self::from_csr(Csr::from_dense(matrix))
    }

    pub(crate) fn from_csr(csr: Csr) -> Self {
        Self { csr }
    }
}

impl GemvBackend for SparseCsr {
    fn name(&self) -> &'static str {
        "csr"
    }

    fn rows(&self) -> usize {
        self.csr.rows()
    }

    fn cols(&self) -> usize {
        self.csr.cols()
    }

    /// The whole shard through [`Csr::vecmat_block_into`]: one pass over
    /// the non-zeros per 16 frames, rows written in place.
    fn run_rows(
        &self,
        frames: &FrameBlock,
        start: usize,
        end: usize,
        out: &mut [i64],
    ) -> Result<()> {
        check_shard(frames, start, end, self.csr.cols(), out.len())?;
        let width = frames.width();
        let shard = &frames.as_slice()[start * width..end * width];
        self.csr.vecmat_block_into(shard, end - start, out)?;
        Ok(())
    }
}

/// The compiled bit-serial spatial circuit, simulated cycle-accurately
/// by the word-level bit-sliced engine
/// ([`FixedMatrixMultiplier::run_frames_block`]) — singles and batches
/// alike.
#[derive(Debug, Clone)]
pub struct BitSerial {
    mul: Arc<FixedMatrixMultiplier>,
}

impl BitSerial {
    /// Wraps a compiled multiplier ([`FixedMatrixMultiplier::compile`]:
    /// a bit-serial session compiles its own).
    pub fn new(mul: Arc<FixedMatrixMultiplier>) -> Self {
        Self { mul }
    }
}

impl GemvBackend for BitSerial {
    fn name(&self) -> &'static str {
        "bitserial"
    }

    fn rows(&self) -> usize {
        self.mul.rows()
    }

    fn cols(&self) -> usize {
        self.mul.cols()
    }

    /// The whole shard runs through the word-level bit-sliced engine
    /// ([`FixedMatrixMultiplier::run_frames_block`]): up to 64 frames
    /// packed one-per-bit into machine words, one gate evaluation
    /// serving every lane, decoded straight into the flat output slice
    /// — no per-frame or per-row allocation.
    fn run_rows(
        &self,
        frames: &FrameBlock,
        start: usize,
        end: usize,
        out: &mut [i64],
    ) -> Result<()> {
        self.mul.run_frames_block(frames, start, end, out)
    }
}

/// The SIGMA accelerator baseline (Qin et al., HPCA 2020) as a live
/// serving engine: the matrix's non-zeros are kept row-major **once** at
/// construction, and every product walks them in tiles of
/// [`SigmaEngine::TILE`], one fill of the modelled PE grid each —
/// weight-stationary, exactly the dataflow `smm-models`' `Sigma` timing
/// model prices. Bit-identical to the dense reference (pure integer math
/// through the reduction network).
///
/// [`GemvBackend::run_rows`] iterates tiles in the outer loop so each
/// tile's weights stay stationary while the whole shard streams by — the
/// accelerator's SpMM mode, and one pass over the non-zeros per shard
/// instead of one per vector.
#[derive(Debug, Clone)]
pub struct SigmaEngine {
    /// `(row, col, weight)` of every non-zero, row-major: the order they
    /// fill the PE grid.
    nonzeros: Vec<(usize, usize, i32)>,
    rows: usize,
    cols: usize,
}

impl SigmaEngine {
    /// Non-zeros per tile: the PEs of the paper's 128×128 grid.
    pub const TILE: usize = 128 * 128;

    /// Keeps the matrix's non-zeros, row-major, for every product the
    /// engine ever serves.
    pub(crate) fn new(matrix: &IntMatrix) -> Self {
        let mut nonzeros = Vec::with_capacity(matrix.nnz());
        nonzeros.extend(matrix.iter_nonzero());
        Self {
            nonzeros,
            rows: matrix.rows(),
            cols: matrix.cols(),
        }
    }
}

impl GemvBackend for SigmaEngine {
    fn name(&self) -> &'static str {
        "sigma"
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    /// Weight-stationary over the shard: tiles outer, frames inner, rows
    /// accumulated in place — one pass over the non-zeros for the whole
    /// shard and no per-row allocation.
    fn run_rows(
        &self,
        frames: &FrameBlock,
        start: usize,
        end: usize,
        out: &mut [i64],
    ) -> Result<()> {
        check_shard(frames, start, end, self.cols, out.len())?;
        if end > start && frames.width() != self.rows {
            return Err(Error::DimensionMismatch {
                context: format!("frame width {} vs matrix rows {}", frames.width(), self.rows),
            });
        }
        out.fill(0);
        for tile in self.nonzeros.chunks(Self::TILE) {
            for (i, frame) in (start..end).enumerate() {
                let a = frames.frame(frame);
                let row_out = &mut out[i * self.cols..(i + 1) * self.cols];
                // Every PE multiplies its stationary weight by its input
                // element; the reduction network sums per output column.
                for &(row, col, weight) in tile {
                    row_out[col] += i64::from(weight) * i64::from(a[row]);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_bitserial::multiplier::WeightEncoding;
    use smm_core::block::RowBlock;
    use smm_core::gemv::vecmat;
    use smm_core::generate::{element_sparse_matrix, random_vector};
    use smm_core::rng::seeded;

    fn backends(v: &IntMatrix) -> Vec<Box<dyn GemvBackend>> {
        let mul = FixedMatrixMultiplier::compile(v, 8, WeightEncoding::Pn).unwrap();
        vec![
            Box::new(DenseRef::new(v.clone())),
            Box::new(SparseCsr::new(v)),
            Box::new(BitSerial::new(Arc::new(mul))),
            Box::new(SigmaEngine::new(v)),
        ]
    }

    /// A whole block through `run_rows`, into a reshaped `out`.
    fn run_block(b: &dyn GemvBackend, frames: &FrameBlock, out: &mut RowBlock) -> Result<()> {
        out.reset(frames.frames(), b.cols())?;
        b.run_rows(frames, 0, frames.frames(), out.as_mut_slice())
    }

    #[test]
    fn all_backends_agree_with_reference() {
        let mut rng = seeded(2100);
        let v = element_sparse_matrix(20, 14, 8, 0.6, true, &mut rng).unwrap();
        let a = random_vector(20, 8, true, &mut rng).unwrap();
        let expect = vecmat(&a, &v).unwrap();
        for b in backends(&v) {
            assert_eq!(b.gemv(&a).unwrap(), expect, "{}", b.name());
            assert_eq!(b.rows(), 20);
            assert_eq!(b.cols(), 14);
        }
    }

    #[test]
    fn batched_paths_agree_including_empty() {
        let mut rng = seeded(2101);
        let v = element_sparse_matrix(12, 12, 8, 0.5, true, &mut rng).unwrap();
        let batch: Vec<Vec<i32>> = (0..5)
            .map(|_| random_vector(12, 8, true, &mut rng).unwrap())
            .collect();
        let frames = FrameBlock::from_rows(&batch).unwrap();
        let mut out = RowBlock::new();
        for b in backends(&v) {
            run_block(b.as_ref(), &frames, &mut out).unwrap();
            for (i, a) in batch.iter().enumerate() {
                // A single is a one-frame block through the same kernel.
                assert_eq!(out.frame(i), b.gemv(a).unwrap(), "{}", b.name());
                assert_eq!(out.frame(i), vecmat(a, &v).unwrap(), "{}", b.name());
            }
            run_block(b.as_ref(), &FrameBlock::default(), &mut out).unwrap();
            assert_eq!(out.frames(), 0, "{}", b.name());
        }
    }

    #[test]
    fn dimension_errors_propagate() {
        let mut rng = seeded(2102);
        let v = element_sparse_matrix(6, 6, 8, 0.5, true, &mut rng).unwrap();
        let thin = FrameBlock::from_rows(&[vec![1, 2], vec![3, 4]]).unwrap();
        for b in backends(&v) {
            assert!(b.gemv(&[1, 2, 3]).is_err(), "{}", b.name());
            assert!(run_block(b.as_ref(), &thin, &mut RowBlock::new()).is_err(), "{}", b.name());
        }
    }

    #[test]
    fn block_paths_agree_with_gemv_including_shards() {
        let mut rng = seeded(2103);
        let v = element_sparse_matrix(10, 8, 8, 0.5, true, &mut rng).unwrap();
        let batch: Vec<Vec<i32>> = (0..7)
            .map(|_| random_vector(10, 8, true, &mut rng).unwrap())
            .collect();
        let frames = FrameBlock::try_from(batch.as_slice()).unwrap();
        let expect: Vec<Vec<i64>> = batch.iter().map(|a| vecmat(a, &v).unwrap()).collect();
        for b in backends(&v) {
            // Whole block, into a stale reused buffer.
            let mut out = RowBlock::from_vec(1, 1, vec![-9]).unwrap();
            run_block(b.as_ref(), &frames, &mut out).unwrap();
            assert_eq!(Vec::<Vec<i64>>::from(&out), expect, "{}", b.name());
            // An interior shard lands rows 2..5 exactly.
            let mut shard = vec![-9i64; 3 * 8];
            b.run_rows(&frames, 2, 5, &mut shard).unwrap();
            for (i, frame) in (2..5).enumerate() {
                assert_eq!(&shard[i * 8..(i + 1) * 8], expect[frame].as_slice(), "{}", b.name());
            }
        }
    }

    #[test]
    fn block_paths_reject_bad_shards_and_widths() {
        let mut rng = seeded(2104);
        let v = element_sparse_matrix(5, 4, 8, 0.5, true, &mut rng).unwrap();
        let frames = FrameBlock::from_rows(&[vec![1; 5], vec![2; 5]]).unwrap();
        let thin = FrameBlock::from_rows(&[vec![1; 3]]).unwrap();
        for b in backends(&v) {
            let name = b.name();
            assert!(b.run_rows(&frames, 0, 3, &mut [0; 12]).is_err(), "{name}");
            assert!(b.run_rows(&frames, 0, 2, &mut [0; 7]).is_err(), "{name}");
            assert!(b.run_rows(&thin, 0, 1, &mut [0; 4]).is_err(), "{name}");
        }
    }

    #[test]
    fn sigma_walks_several_tiles_bit_identically() {
        // 256² at 40 % sparse: ~39k non-zeros, so three tiles of the grid.
        let mut rng = seeded(2106);
        let v = element_sparse_matrix(256, 256, 8, 0.4, true, &mut rng).unwrap();
        assert!(v.nnz() > 2 * SigmaEngine::TILE, "{} non-zeros", v.nnz());
        let engine = SigmaEngine::new(&v);
        let batch: Vec<Vec<i32>> = (0..7)
            .map(|_| random_vector(256, 8, true, &mut rng).unwrap())
            .collect();
        let frames = FrameBlock::from_rows(&batch).unwrap();
        let expect: Vec<Vec<i64>> = batch.iter().map(|a| vecmat(a, &v).unwrap()).collect();
        let mut out = RowBlock::new();
        run_block(&engine, &frames, &mut out).unwrap();
        assert_eq!(Vec::<Vec<i64>>::from(&out), expect);
        let mut shard = vec![-9i64; 3 * 256];
        engine.run_rows(&frames, 2, 5, &mut shard).unwrap();
        for (i, frame) in (2..5).enumerate() {
            assert_eq!(&shard[i * 256..(i + 1) * 256], expect[frame].as_slice());
        }
    }
}
