//! The pluggable compute engines behind the serving runtime.
//!
//! A [`GemvBackend`] computes the paper's `o = aᵀV` product for one fixed
//! matrix `V`. Four implementations cover the repo's functional layers:
//!
//! * [`DenseRef`] — the dense reference kernel ([`smm_core::gemv::vecmat`]);
//! * [`SparseCsr`] — the executed CSR SpMV kernel ([`smm_sparse::Csr`]);
//! * [`BitSerial`] — the compiled spatial circuit, driven in framed
//!   back-to-back streaming mode so a whole batch pipelines through one
//!   continuous cycle-accurate simulation;
//! * [`SigmaEngine`] — the SIGMA accelerator baseline executed through
//!   its PE-grid tile mapping ([`smm_sigma::map_tiles`]), weight-stationary
//!   across a batch.
//!
//! All four are bit-identical on every valid input; which one to serve
//! with is purely a throughput/fidelity trade (the bit-serial engine is a
//! *simulation* of the hardware and therefore the slowest and the most
//! faithful; the sigma engine executes the exact dataflow the SIGMA
//! timing model prices).

use smm_bitserial::multiplier::FixedMatrixMultiplier;
use smm_core::block::{FrameBlock, RowBlock};
use smm_core::error::{Error, Result};
use smm_core::gemv::{vecmat, vecmat_into};
use smm_core::matrix::IntMatrix;
use smm_sigma::{accumulate_tile, map_tiles, SigmaConfig, Tile};
use smm_sparse::{BlockWidths, Csr};
use std::sync::atomic::{AtomicUsize, Ordering};
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

    /// Computes one product `o = aᵀV`.
    fn gemv(&self, a: &[i32]) -> Result<Vec<i64>>;

    /// Computes a batch of products, one output row per input vector, in
    /// input order. The default maps [`GemvBackend::gemv`] over the batch;
    /// engines with a cheaper batched mode override it.
    fn gemv_batch(&self, batch: &[Vec<i32>]) -> Result<Vec<Vec<i64>>> {
        batch.iter().map(|a| self.gemv(a)).collect()
    }

    /// Streams `frames` into a caller-owned output buffer, reusing its
    /// row allocations across calls (`out` is resized to `frames.len()`).
    /// The default computes frame-by-frame; the bit-serial engine
    /// overrides it to pipeline the whole stream through one continuous
    /// simulation ([`FixedMatrixMultiplier::run_frames`]).
    fn stream_into(&self, frames: &[Vec<i32>], out: &mut Vec<Vec<i64>>) -> Result<()> {
        out.truncate(frames.len());
        out.resize_with(frames.len(), Vec::new);
        for (frame, slot) in frames.iter().zip(out.iter_mut()) {
            let row = self.gemv(frame)?;
            slot.clear();
            slot.extend_from_slice(&row);
        }
        Ok(())
    }

    /// Computes frames `start..end` of a flat [`FrameBlock`] into a
    /// row-major output slice of `(end - start) * cols()` elements — the
    /// shard hook the [`crate::Dispatcher`] drives, and the kernel behind
    /// [`GemvBackend::run_block`].
    ///
    /// The default bridges to [`GemvBackend::gemv`] per frame (one
    /// allocation per row); all four built-in engines override it to
    /// write rows in place with no per-row allocation. Implementations
    /// must validate the shard (see the built-ins) rather than panic on a
    /// mis-sized `out`.
    fn run_rows(
        &self,
        frames: &FrameBlock,
        start: usize,
        end: usize,
        out: &mut [i64],
    ) -> Result<()> {
        let cols = self.cols();
        check_shard(frames, start, end, cols, out.len())?;
        for (i, frame) in (start..end).enumerate() {
            let row = self.gemv(frames.frame(frame))?;
            if row.len() != cols {
                return Err(Error::Runtime {
                    context: format!(
                        "backend returned {} elements for a {cols}-column row",
                        row.len()
                    ),
                });
            }
            out[i * cols..(i + 1) * cols].copy_from_slice(&row);
        }
        Ok(())
    }

    /// Computes a whole [`FrameBlock`] into a caller-owned [`RowBlock`],
    /// which is reshaped to `frames.frames() x cols()` (reusing its
    /// allocation) and filled in place. Bit-identical to mapping
    /// [`GemvBackend::gemv`] over the frames.
    fn run_block(&self, frames: &FrameBlock, out: &mut RowBlock) -> Result<()> {
        out.reset(frames.frames(), self.cols())?;
        self.run_rows(frames, 0, frames.frames(), out.as_mut_slice())
    }
}

/// The dense reference kernel.
#[derive(Debug, Clone)]
pub struct DenseRef {
    matrix: IntMatrix,
}

impl DenseRef {
    /// Wraps a copy of a dense matrix. (Callers that already own the
    /// matrix move it in via `From<IntMatrix>` instead.)
    pub fn new(matrix: &IntMatrix) -> Self {
        Self {
            matrix: matrix.clone(),
        }
    }

    /// The wrapped matrix.
    pub fn matrix(&self) -> &IntMatrix {
        &self.matrix
    }
}

impl From<IntMatrix> for DenseRef {
    /// Moves an owned matrix in without copying.
    fn from(matrix: IntMatrix) -> Self {
        Self { matrix }
    }
}

impl From<&IntMatrix> for DenseRef {
    fn from(matrix: &IntMatrix) -> Self {
        Self::new(matrix)
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

    fn gemv(&self, a: &[i32]) -> Result<Vec<i64>> {
        vecmat(a, &self.matrix)
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

/// The executed CSR SpMV kernel. Singles run the per-frame scatter
/// ([`Csr::vecmat`]); shards run the weight-stationary blocked kernel
/// ([`Csr::vecmat_block_into`]).
#[derive(Debug)]
pub struct SparseCsr {
    csr: Csr,
    /// Statistics only — nothing is published through them, so every
    /// access is `Relaxed`.
    narrow_groups: AtomicUsize,
    wide_groups: AtomicUsize,
    leftover_frames: AtomicUsize,
}

impl SparseCsr {
    /// Converts a dense matrix to CSR once, up front.
    pub fn new(matrix: &IntMatrix) -> Self {
        Self::from_csr(Csr::from_dense(matrix))
    }

    /// Wraps an existing CSR matrix.
    pub fn from_csr(csr: Csr) -> Self {
        Self {
            csr,
            narrow_groups: AtomicUsize::new(0),
            wide_groups: AtomicUsize::new(0),
            leftover_frames: AtomicUsize::new(0),
        }
    }

    /// What every [`GemvBackend::run_rows`] call on this engine has run
    /// so far: 16-frame groups by accumulator width (`i32` / `i64`) and
    /// frames that fell past a shard's last full group.
    pub fn block_counters(&self) -> BlockWidths {
        BlockWidths {
            narrow_groups: self.narrow_groups.load(Ordering::Relaxed),
            wide_groups: self.wide_groups.load(Ordering::Relaxed),
            leftover_frames: self.leftover_frames.load(Ordering::Relaxed),
        }
    }
}

impl Clone for SparseCsr {
    /// A new engine over a copy of the matrix; its counters start at zero.
    fn clone(&self) -> Self {
        Self::from_csr(self.csr.clone())
    }
}

impl From<&IntMatrix> for SparseCsr {
    fn from(matrix: &IntMatrix) -> Self {
        Self::new(matrix)
    }
}

impl From<Csr> for SparseCsr {
    fn from(csr: Csr) -> Self {
        Self::from_csr(csr)
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

    fn gemv(&self, a: &[i32]) -> Result<Vec<i64>> {
        self.csr.vecmat(a)
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
        let ran = self.csr.vecmat_block_into(shard, end - start, out)?;
        self.narrow_groups
            .fetch_add(ran.narrow_groups, Ordering::Relaxed);
        self.wide_groups
            .fetch_add(ran.wide_groups, Ordering::Relaxed);
        self.leftover_frames
            .fetch_add(ran.leftover_frames, Ordering::Relaxed);
        Ok(())
    }
}

/// The compiled bit-serial spatial circuit, simulated cycle-accurately.
///
/// Batches stream through the circuit back-to-back (one new vector every
/// [`FixedMatrixMultiplier::batch_interval_cycles`] cycles) in a single
/// continuous simulation — the hardware's batching mode — via the
/// buffer-reusing [`FixedMatrixMultiplier::run_frames`] drive path.
#[derive(Debug, Clone)]
pub struct BitSerial {
    mul: Arc<FixedMatrixMultiplier>,
}

impl BitSerial {
    /// Wraps a compiled multiplier (typically obtained from the
    /// [`crate::MultiplierCache`]).
    pub fn new(mul: Arc<FixedMatrixMultiplier>) -> Self {
        Self { mul }
    }

    /// The compiled multiplier.
    pub fn multiplier(&self) -> &Arc<FixedMatrixMultiplier> {
        &self.mul
    }
}

impl From<Arc<FixedMatrixMultiplier>> for BitSerial {
    fn from(mul: Arc<FixedMatrixMultiplier>) -> Self {
        Self::new(mul)
    }
}

impl TryFrom<&IntMatrix> for BitSerial {
    type Error = smm_core::error::Error;

    /// Compiles the matrix with default parameters (8-bit operands,
    /// plain `Pn` weights) — uncached; serving paths compile through the
    /// [`crate::MultiplierCache`] instead.
    fn try_from(matrix: &IntMatrix) -> Result<Self> {
        use smm_bitserial::multiplier::WeightEncoding;
        Ok(Self::new(Arc::new(FixedMatrixMultiplier::compile(
            matrix,
            8,
            WeightEncoding::Pn,
        )?)))
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

    fn gemv(&self, a: &[i32]) -> Result<Vec<i64>> {
        self.mul.mul(a)
    }

    /// One continuous framed simulation for the whole shard: compared to
    /// per-vector [`FixedMatrixMultiplier::mul`] calls this pays the
    /// simulator construction and pipeline fill once per batch and skips
    /// the per-vector bit-capture buffers. The returned rows themselves
    /// are necessarily freshly allocated — ownership transfers to the
    /// caller; serving loops that want full steady-state buffer reuse
    /// should call [`FixedMatrixMultiplier::run_frames`] directly with a
    /// long-lived output buffer.
    fn gemv_batch(&self, batch: &[Vec<i32>]) -> Result<Vec<Vec<i64>>> {
        let mut out = Vec::new();
        self.mul.run_frames(batch, &mut out)?;
        Ok(out)
    }

    /// Full steady-state buffer reuse: the frames pipeline back-to-back
    /// through one continuous simulation and land in the caller's
    /// long-lived buffer.
    fn stream_into(&self, frames: &[Vec<i32>], out: &mut Vec<Vec<i64>>) -> Result<()> {
        self.mul.run_frames(frames, out)
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
/// serving engine: the matrix's non-zeros are packed onto the modelled
/// PE grid **once** at construction ([`map_tiles`]), and every product
/// executes through that resident tile map — weight-stationary, exactly
/// the dataflow [`smm_sigma::Sigma`] prices. Bit-identical to the dense
/// reference (pure integer math through the reduction network).
///
/// Batch entry points ([`GemvBackend::run_rows`],
/// [`GemvBackend::stream_into`], [`GemvBackend::gemv_batch`]) iterate
/// tiles in the outer loop so each tile's weights stay stationary while
/// the whole batch streams by — the accelerator's SpMM mode, and one
/// tile-map traversal per batch instead of one per vector.
#[derive(Debug, Clone)]
pub struct SigmaEngine {
    tiles: Vec<Tile>,
    config: SigmaConfig,
    rows: usize,
    cols: usize,
}

impl SigmaEngine {
    /// Maps the matrix onto the paper's default 128×128 PE grid.
    pub fn new(matrix: &IntMatrix) -> Self {
        Self::with_config(matrix, SigmaConfig::default())
    }

    /// Maps the matrix onto a custom grid. The tile map is computed here,
    /// once, and reused by every product the engine ever serves.
    pub fn with_config(matrix: &IntMatrix, config: SigmaConfig) -> Self {
        Self {
            tiles: map_tiles(matrix, &config),
            config,
            rows: matrix.rows(),
            cols: matrix.cols(),
        }
    }

    /// PE-grid tiles the matrix's non-zeros occupy.
    pub fn tiles(&self) -> usize {
        self.tiles.len()
    }

    /// The modelled hardware configuration.
    pub fn config(&self) -> &SigmaConfig {
        &self.config
    }

    fn check_width(&self, got: usize) -> Result<()> {
        if got != self.rows {
            return Err(Error::DimensionMismatch {
                context: format!("vector length {got} vs matrix rows {}", self.rows),
            });
        }
        Ok(())
    }
}

impl From<&IntMatrix> for SigmaEngine {
    fn from(matrix: &IntMatrix) -> Self {
        Self::new(matrix)
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

    fn gemv(&self, a: &[i32]) -> Result<Vec<i64>> {
        self.check_width(a.len())?;
        let mut out = vec![0i64; self.cols];
        for tile in &self.tiles {
            accumulate_tile(tile, a, &mut out);
        }
        Ok(out)
    }

    /// Weight-stationary over the shard: tiles outer, frames inner, rows
    /// accumulated in place — one tile-map traversal for the whole shard
    /// and no per-row allocation.
    fn run_rows(
        &self,
        frames: &FrameBlock,
        start: usize,
        end: usize,
        out: &mut [i64],
    ) -> Result<()> {
        check_shard(frames, start, end, self.cols, out.len())?;
        if end > start {
            self.check_width(frames.width())?;
        }
        out.fill(0);
        for tile in &self.tiles {
            for (i, frame) in (start..end).enumerate() {
                accumulate_tile(
                    tile,
                    frames.frame(frame),
                    &mut out[i * self.cols..(i + 1) * self.cols],
                );
            }
        }
        Ok(())
    }

    /// Weight-stationary batching via [`GemvBackend::stream_into`] — the
    /// tile map is traversed once for the whole batch.
    fn gemv_batch(&self, batch: &[Vec<i32>]) -> Result<Vec<Vec<i64>>> {
        let mut out = Vec::new();
        self.stream_into(batch, &mut out)?;
        Ok(out)
    }

    /// Streams frames through the resident tile map into the caller's
    /// long-lived buffer, reusing its row allocations; tiles stay
    /// stationary across the whole stream.
    fn stream_into(&self, frames: &[Vec<i32>], out: &mut Vec<Vec<i64>>) -> Result<()> {
        for frame in frames {
            self.check_width(frame.len())?;
        }
        out.truncate(frames.len());
        out.resize_with(frames.len(), Vec::new);
        for slot in out.iter_mut() {
            slot.clear();
            slot.resize(self.cols, 0);
        }
        for tile in &self.tiles {
            for (frame, slot) in frames.iter().zip(out.iter_mut()) {
                accumulate_tile(tile, frame, slot);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_bitserial::multiplier::WeightEncoding;
    use smm_core::generate::{element_sparse_matrix, random_vector};
    use smm_core::rng::seeded;

    fn backends(v: &IntMatrix) -> Vec<Box<dyn GemvBackend>> {
        let mul = FixedMatrixMultiplier::compile(v, 8, WeightEncoding::Pn).unwrap();
        vec![
            Box::new(DenseRef::new(v)),
            Box::new(SparseCsr::new(v)),
            Box::new(BitSerial::new(Arc::new(mul))),
            Box::new(SigmaEngine::new(v)),
        ]
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
        let expect: Vec<Vec<i64>> = batch.iter().map(|a| vecmat(a, &v).unwrap()).collect();
        for b in backends(&v) {
            assert_eq!(b.gemv_batch(&batch).unwrap(), expect, "{}", b.name());
            assert!(b.gemv_batch(&[]).unwrap().is_empty(), "{}", b.name());
        }
    }

    #[test]
    fn dimension_errors_propagate() {
        let mut rng = seeded(2102);
        let v = element_sparse_matrix(6, 6, 8, 0.5, true, &mut rng).unwrap();
        for b in backends(&v) {
            assert!(b.gemv(&[1, 2, 3]).is_err(), "{}", b.name());
            assert!(b.gemv_batch(&[vec![0; 6], vec![1, 2]]).is_err(), "{}", b.name());
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
            let mut out = RowBlock::zeros(1, 1).unwrap();
            b.run_block(&frames, &mut out).unwrap();
            assert_eq!(Vec::<Vec<i64>>::from(&out), expect, "{}", b.name());
            // An interior shard lands rows 2..5 exactly.
            let mut shard = vec![-9i64; 3 * 8];
            b.run_rows(&frames, 2, 5, &mut shard).unwrap();
            for (i, frame) in (2..5).enumerate() {
                assert_eq!(&shard[i * 8..(i + 1) * 8], expect[frame].as_slice(), "{}", b.name());
            }
            // Empty blocks are valid.
            b.run_block(&FrameBlock::default(), &mut out).unwrap();
            assert!(out.is_empty(), "{}", b.name());
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
            let mut out = RowBlock::new();
            assert!(b.run_block(&thin, &mut out).is_err(), "{name}");
        }
    }

    #[test]
    fn csr_block_counters_show_the_width_each_group_ran() {
        // wire-batch's matrix shape: 1024², 90 % sparse, 8-bit weights.
        let mut rng = seeded(2105);
        let v = element_sparse_matrix(1024, 1024, 8, 0.9, true, &mut rng).unwrap();
        let engine = SparseCsr::new(&v);
        assert_eq!(engine.block_counters(), BlockWidths::default());
        let mut block = |bits: u32, n: usize| {
            let data = random_vector(n * 1024, bits, true, &mut rng).unwrap();
            FrameBlock::from_vec(n, 1024, data).unwrap()
        };
        let mut out = RowBlock::new();
        // 8-bit inputs: column sums of ~100 8-bit weights times 2^7 stay
        // far inside i32.
        engine.run_block(&block(8, 35), &mut out).unwrap();
        let mut expect = BlockWidths {
            narrow_groups: 2,
            wide_groups: 0,
            leftover_frames: 3,
        };
        assert_eq!(engine.block_counters(), expect);
        // 24-bit inputs: the same sums times 2^23 do not.
        let wide = block(24, 16);
        engine.run_block(&wide, &mut out).unwrap();
        expect.wide_groups = 1;
        assert_eq!(engine.block_counters(), expect);
        assert_eq!(out.row(15), vecmat(wide.frame(15), &v).unwrap().as_slice());
        // Singles never reach the blocked kernel; a clone counts from zero.
        engine.gemv(wide.frame(0)).unwrap();
        assert_eq!(engine.block_counters(), expect);
        assert_eq!(engine.clone().block_counters(), BlockWidths::default());
    }

    #[test]
    fn default_run_rows_holds_gemv_to_the_row_length_contract() {
        /// A broken backend whose rows are one element short.
        struct ShortRow;
        impl GemvBackend for ShortRow {
            fn name(&self) -> &'static str {
                "short-row"
            }
            fn rows(&self) -> usize {
                2
            }
            fn cols(&self) -> usize {
                2
            }
            fn gemv(&self, _a: &[i32]) -> Result<Vec<i64>> {
                Ok(vec![0])
            }
        }
        let frames = FrameBlock::from_rows(&[vec![0, 0]]).unwrap();
        let mut out = RowBlock::new();
        let err = ShortRow.run_block(&frames, &mut out).unwrap_err();
        assert!(matches!(err, Error::Runtime { .. }), "{err:?}");
    }
}
