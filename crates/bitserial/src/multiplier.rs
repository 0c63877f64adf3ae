//! The public top level: compile a fixed matrix once, multiply many times.

use crate::builder::{build_circuit, BuiltCircuit};
use crate::netlist::CircuitStats;
use smm_core::block::{FrameBlock, RowBlock};
use smm_core::csd::{csd_split, ChainPolicy};
use smm_core::error::{Error, Result};
use smm_core::matrix::IntMatrix;
use smm_core::rng;
use smm_core::signsplit::{split_pn, SignSplit};

/// How the signed weight matrix is decomposed into unsigned halves before
/// spatial compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WeightEncoding {
    /// Plain positive/negative magnitude split (the paper's "PN").
    #[default]
    Pn,
    /// Canonical-signed-digit recoding (Section V), reducing set bits by
    /// ~17 % on uniform weights at the cost of one extra bit plane.
    Csd {
        /// Length-2 chain handling (the paper flips a coin).
        policy: ChainPolicy,
        /// Seed for the coin flips, so compilation is reproducible.
        seed: u64,
    },
}


/// A fixed-matrix bit-serial multiplier: the compiled spatial circuit for
/// one weight matrix `V`, computing `o = aᵀV` per invocation.
///
/// Compilation performs the paper's whole flow: sign split (or CSD), bit
/// plane extraction with constant propagation, reduction tree construction
/// with adder-to-DFF collapse, the bit-position combination chain, and the
/// final PN subtractors.
///
/// ```
/// use smm_bitserial::multiplier::{FixedMatrixMultiplier, WeightEncoding};
/// use smm_core::matrix::IntMatrix;
///
/// let v = IntMatrix::from_vec(2, 2, vec![1, -2, 3, 4]).unwrap();
/// let mul = FixedMatrixMultiplier::compile(&v, 8, WeightEncoding::Pn).unwrap();
/// assert_eq!(mul.mul(&[5, 6]).unwrap(), vec![23, 14]);
/// ```
#[derive(Debug, Clone)]
pub struct FixedMatrixMultiplier {
    circuit: BuiltCircuit,
    stats: CircuitStats,
    rows: usize,
    cols: usize,
    input_bits: u32,
    out_width: u32,
    encoding: WeightEncoding,
    ones: u64,
}

impl FixedMatrixMultiplier {
    /// Compiles the spatial circuit for `matrix`, whose input vectors will
    /// be signed `input_bits`-wide integers.
    pub fn compile(
        matrix: &IntMatrix,
        input_bits: u32,
        encoding: WeightEncoding,
    ) -> Result<Self> {
        if input_bits == 0 || input_bits > 31 {
            return Err(Error::InvalidBitWidth { bits: input_bits });
        }
        let split = match encoding {
            WeightEncoding::Pn => split_pn(matrix),
            WeightEncoding::Csd { policy, seed } => {
                let mut rng = rng::seeded(seed);
                csd_split(matrix, policy, &mut rng)?
            }
        };
        Self::compile_split(&split, input_bits, encoding)
    }

    /// Compiles from an already-prepared sign split (advanced use: custom
    /// recodings, ablations).
    pub fn compile_split(
        split: &SignSplit,
        input_bits: u32,
        encoding: WeightEncoding,
    ) -> Result<Self> {
        if input_bits == 0 || input_bits > 31 {
            return Err(Error::InvalidBitWidth { bits: input_bits });
        }
        let circuit = build_circuit(split)?;
        let (rows, cols) = split.shape();
        let out_width = crate::bits::result_width(input_bits, circuit.weight_bits, rows);
        let stats = circuit.netlist.stats();
        let ones = split.ones();
        Ok(Self {
            circuit,
            stats,
            rows,
            cols,
            input_bits,
            out_width,
            encoding,
            ones,
        })
    }

    /// Matrix rows (input vector length).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Matrix columns (output vector length).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Nominal signed input operand width.
    pub fn input_bits(&self) -> u32 {
        self.input_bits
    }

    /// Unsigned weight-plane width actually instantiated (one wider than
    /// the raw magnitude width under CSD).
    pub fn weight_bits(&self) -> u32 {
        self.circuit.weight_bits
    }

    /// Two's-complement width of each decoded output.
    pub fn output_bits(&self) -> u32 {
        self.out_width
    }

    /// The weight encoding this circuit was compiled with.
    pub fn encoding(&self) -> WeightEncoding {
        self.encoding
    }

    /// Set bits in the compiled weight decomposition — the paper's
    /// hardware cost driver ("number of ones").
    pub fn ones(&self) -> u64 {
        self.ones
    }

    /// Structural statistics of the compiled netlist.
    pub fn stats(&self) -> &CircuitStats {
        &self.stats
    }

    /// The underlying circuit (netlist + decode metadata).
    pub fn circuit(&self) -> &BuiltCircuit {
        &self.circuit
    }

    /// Latency in cycles by the paper's Equation 5:
    /// `BWi + BWw + ceil(log2 R) + 2`.
    pub fn paper_latency_cycles(&self) -> u32 {
        crate::latency::equation5(self.input_bits, self.circuit.weight_bits, self.rows)
    }

    /// Exact cycles until the *full-precision* result has streamed out of
    /// the simulated circuit: `output_anchor + output_bits`.
    ///
    /// This exceeds Equation 5 by about `ceil(log2 R) − 1` cycles because
    /// the full dot-product result is `ceil(log2 R)` bits wider than
    /// `BWi + BWw`; the paper's count charges the tree depth once but
    /// streams only `BWi + BWw` output bits. See EXPERIMENTS.md.
    pub fn exact_latency_cycles(&self) -> u32 {
        self.circuit.output_anchor + self.out_width
    }

    /// Cycles between successive vectors when streaming a batch
    /// back-to-back: a new vector can enter once the previous one's bits
    /// (input width plus sign extension out to the output window) have
    /// drained, i.e. every `output_bits` cycles.
    pub fn batch_interval_cycles(&self) -> u32 {
        self.out_width
    }

    /// Total cycles to stream a batch of `batch` vectors (the paper's
    /// linear batching model: the pipeline refills per vector).
    pub fn batch_latency_cycles(&self, batch: usize) -> u64 {
        if batch == 0 {
            return 0;
        }
        u64::from(self.exact_latency_cycles())
            + (batch as u64 - 1) * u64::from(self.batch_interval_cycles())
    }

    /// Refuses any element outside the signed `input_bits` operand range.
    fn check_range(&self, xs: &[i32]) -> Result<()> {
        let (lo, hi) = smm_core::matrix::signed_range(self.input_bits)?;
        match xs.iter().find(|&&x| !(lo..=hi).contains(&x)) {
            Some(&bad) => Err(Error::ValueOutOfRange {
                value: bad,
                bits: self.input_bits,
                signed: true,
            }),
            None => Ok(()),
        }
    }

    /// Frames `start..end` of `frames` as one validated row-major input
    /// slice: the range lies inside the block, each frame is an input
    /// vector of this circuit, and every element fits `input_bits`.
    fn shard<'f>(&self, frames: &'f FrameBlock, start: usize, end: usize) -> Result<&'f [i32]> {
        if start > end || end > frames.frames() {
            return Err(Error::DimensionMismatch {
                context: format!(
                    "frame range {start}..{end} outside block of {} frames",
                    frames.frames()
                ),
            });
        }
        if start < end && frames.width() != self.rows {
            return Err(Error::DimensionMismatch {
                context: format!(
                    "frame width {} vs matrix rows {}",
                    frames.width(),
                    self.rows
                ),
            });
        }
        let width = frames.width();
        let inputs = &frames.as_slice()[start * width..end * width];
        self.check_range(inputs)?;
        Ok(inputs)
    }

    /// Runs validated row-major input frames through the lockstep driver
    /// ([`crate::sim::run_lockstep_into_flat`]), one output row per frame.
    fn run_lockstep(&self, inputs: &[i32], out: &mut [i64]) {
        crate::sim::run_lockstep_into_flat(
            &self.circuit,
            inputs,
            self.input_bits,
            self.out_width,
            out,
            |_| {},
        );
    }

    /// Computes `o = aᵀV` through the cycle-accurate simulator, as a
    /// one-frame block.
    pub fn mul(&self, a: &[i32]) -> Result<Vec<i64>> {
        if a.len() != self.rows {
            return Err(Error::DimensionMismatch {
                context: format!("input length {} vs matrix rows {}", a.len(), self.rows),
            });
        }
        self.check_range(a)?;
        let mut out = vec![0; self.cols];
        self.run_lockstep(a, &mut out);
        Ok(out)
    }

    /// Computes a batch product by streaming the frames **back-to-back
    /// through one continuous simulation**, one new frame every
    /// [`FixedMatrixMultiplier::batch_interval_cycles`] cycles — the
    /// hardware batching mode whose latency
    /// [`FixedMatrixMultiplier::batch_latency_cycles`] models
    /// ([`crate::sim::run_stream_into_flat`]). Results are identical to
    /// [`FixedMatrixMultiplier::run_frames_block`]'s, one output row per
    /// frame; the total cycle count is what differs.
    pub fn mul_batch_streamed(&self, frames: &FrameBlock) -> Result<RowBlock> {
        let inputs = self.shard(frames, 0, frames.frames())?;
        let mut out = RowBlock::new();
        out.reset(frames.frames(), self.cols)?;
        crate::sim::run_stream_into_flat(
            &self.circuit,
            inputs,
            self.input_bits,
            self.out_width,
            self.batch_interval_cycles(),
            out.as_mut_slice(),
        );
        Ok(out)
    }

    /// The batch kernel: simulates frames `start..end` of a [`FrameBlock`]
    /// through the lockstep driver (`crate::sim::run_lockstep_into_flat`)
    /// — up to 64 frames packed one-per-bit into machine words so a
    /// single gate evaluation serves the whole shard — and decodes the
    /// results straight into a row-major `i64` slice of
    /// `(end - start) * cols()` elements. No per-frame or per-row
    /// allocation at all.
    ///
    /// Results are bit-identical to the framed streaming path behind
    /// [`FixedMatrixMultiplier::mul_batch_streamed`]; only the schedule
    /// differs — a 64-lane chunk finishes in one
    /// pipeline depth instead of one streaming interval per frame.
    pub fn run_frames_block(
        &self,
        frames: &FrameBlock,
        start: usize,
        end: usize,
        out: &mut [i64],
    ) -> Result<()> {
        let inputs = self.shard(frames, start, end)?;
        let expected = (end - start) * self.cols();
        if out.len() != expected {
            return Err(Error::DimensionMismatch {
                context: format!("output length {} vs {expected} block elements", out.len()),
            });
        }
        self.run_lockstep(inputs, out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_core::gemv::vecmat;
    use smm_core::generate::{element_sparse_matrix, random_vector};
    use smm_core::rng::seeded;

    #[test]
    fn matches_reference_on_random_matrices() {
        let mut rng = seeded(100);
        for (dim, sparsity) in [(8usize, 0.0), (16, 0.5), (32, 0.9), (17, 0.75)] {
            let v = element_sparse_matrix(dim, dim, 8, sparsity, true, &mut rng).unwrap();
            let a = random_vector(dim, 8, true, &mut rng).unwrap();
            let expect = vecmat(&a, &v).unwrap();
            for encoding in [
                WeightEncoding::Pn,
                WeightEncoding::Csd {
                    policy: ChainPolicy::CoinFlip,
                    seed: 9,
                },
            ] {
                let mul = FixedMatrixMultiplier::compile(&v, 8, encoding).unwrap();
                assert_eq!(mul.mul(&a).unwrap(), expect, "dim {dim} s {sparsity}");
            }
        }
    }

    #[test]
    fn rectangular_matrices() {
        let mut rng = seeded(101);
        let v = element_sparse_matrix(24, 40, 6, 0.6, true, &mut rng).unwrap();
        let a = random_vector(24, 5, true, &mut rng).unwrap();
        let mul = FixedMatrixMultiplier::compile(&v, 5, WeightEncoding::Pn).unwrap();
        assert_eq!(mul.mul(&a).unwrap(), vecmat(&a, &v).unwrap());
        assert_eq!(mul.cols(), 40);
        assert_eq!(mul.rows(), 24);
    }

    #[test]
    fn paper_latency_formula_example() {
        // The paper's worked example: 8-bit inputs and weights, 1024x1024,
        // latency = 8 + 8 + 10 + 2 = 28 cycles. Use a smaller stand-in with
        // the same formula.
        let mut rng = seeded(102);
        let mut v = element_sparse_matrix(64, 64, 8, 0.9, true, &mut rng).unwrap();
        // Pin one full-magnitude weight so the unsigned halves need all
        // 8 bits regardless of what the generator drew.
        v.set(0, 0, -128);
        let mul = FixedMatrixMultiplier::compile(&v, 8, WeightEncoding::Pn).unwrap();
        assert_eq!(mul.paper_latency_cycles(), 8 + 8 + 6 + 2);
        assert!(mul.exact_latency_cycles() >= mul.paper_latency_cycles());
    }

    #[test]
    fn batch_latency_is_linear() {
        let mut rng = seeded(103);
        let v = element_sparse_matrix(16, 16, 8, 0.5, true, &mut rng).unwrap();
        let mul = FixedMatrixMultiplier::compile(&v, 8, WeightEncoding::Pn).unwrap();
        let l1 = mul.batch_latency_cycles(1);
        let l4 = mul.batch_latency_cycles(4);
        assert_eq!(
            l4 - l1,
            3 * u64::from(mul.batch_interval_cycles())
        );
        assert_eq!(mul.batch_latency_cycles(0), 0);
    }

    #[test]
    fn streamed_batch_matches_reference() {
        // The pipelined back-to-back stream produces the same results as
        // independent products — the claim behind the batching latency
        // model (one vector per output-window interval).
        let mut rng = seeded(106);
        for (dim, sparsity) in [(8usize, 0.3), (16, 0.7), (21, 0.9)] {
            let v = element_sparse_matrix(dim, dim, 8, sparsity, true, &mut rng).unwrap();
            let a = element_sparse_matrix(5, dim, 8, 0.0, true, &mut rng).unwrap();
            let frames = FrameBlock::from_vec(5, dim, a.as_slice().to_vec()).unwrap();
            let expect: Vec<Vec<i64>> = (0..5).map(|b| vecmat(a.row(b), &v).unwrap()).collect();
            for encoding in [
                WeightEncoding::Pn,
                WeightEncoding::Csd {
                    policy: ChainPolicy::CoinFlip,
                    seed: 8,
                },
            ] {
                let mul = FixedMatrixMultiplier::compile(&v, 8, encoding).unwrap();
                let streamed = mul.mul_batch_streamed(&frames).unwrap();
                assert_eq!(Vec::<Vec<i64>>::from(streamed), expect, "dim {dim} s {sparsity}");
            }
        }
    }

    #[test]
    fn streamed_batch_rejects_bad_input() {
        let v = IntMatrix::identity(4).unwrap();
        let mul = FixedMatrixMultiplier::compile(&v, 4, WeightEncoding::Pn).unwrap();
        let wrong_shape = FrameBlock::from_vec(2, 3, vec![0; 6]).unwrap();
        assert!(mul.mul_batch_streamed(&wrong_shape).is_err());
        let out_of_range = FrameBlock::from_rows(&[vec![0, 0, 0, 99]]).unwrap();
        assert!(mul.mul_batch_streamed(&out_of_range).is_err());
        let empty = mul.mul_batch_streamed(&FrameBlock::new()).unwrap();
        assert_eq!((empty.frames(), empty.width()), (0, 4));
    }

    #[test]
    fn run_frames_block_matches_single_shot_over_any_range() {
        let mut rng = seeded(109);
        let v = element_sparse_matrix(11, 7, 8, 0.5, true, &mut rng).unwrap();
        let mul = FixedMatrixMultiplier::compile(&v, 8, WeightEncoding::Pn).unwrap();
        let inputs: Vec<Vec<i32>> = (0..6)
            .map(|_| random_vector(11, 8, true, &mut rng).unwrap())
            .collect();
        let frames = FrameBlock::try_from(inputs.as_slice()).unwrap();
        // Full block and two interior shards, all into stale buffers.
        for (start, end) in [(0usize, 6usize), (0, 3), (2, 6), (4, 4)] {
            let mut out = vec![-1i64; (end - start) * 7];
            mul.run_frames_block(&frames, start, end, &mut out).unwrap();
            for (i, frame) in (start..end).enumerate() {
                assert_eq!(
                    &out[i * 7..(i + 1) * 7],
                    mul.mul(&inputs[frame]).unwrap().as_slice(),
                    "frame {frame} of shard {start}..{end}"
                );
            }
        }
    }

    #[test]
    fn run_frames_block_rejects_bad_input() {
        let v = IntMatrix::identity(4).unwrap();
        let mul = FixedMatrixMultiplier::compile(&v, 4, WeightEncoding::Pn).unwrap();
        let frames = FrameBlock::from_rows(&[vec![1, 2, 3, 0]]).unwrap();
        // Bad range, bad output size, bad width, out-of-range element.
        assert!(mul.run_frames_block(&frames, 0, 2, &mut [0; 8]).is_err());
        assert!(mul.run_frames_block(&frames, 0, 1, &mut [0; 3]).is_err());
        let thin = FrameBlock::from_rows(&[vec![1, 2]]).unwrap();
        assert!(mul.run_frames_block(&thin, 0, 1, &mut [0; 4]).is_err());
        let hot = FrameBlock::from_rows(&[vec![0, 0, 0, 99]]).unwrap();
        assert!(mul.run_frames_block(&hot, 0, 1, &mut [0; 4]).is_err());
    }

    #[test]
    fn rejects_bad_inputs() {
        let v = IntMatrix::identity(4).unwrap();
        let mul = FixedMatrixMultiplier::compile(&v, 4, WeightEncoding::Pn).unwrap();
        assert!(mul.mul(&[1, 2, 3]).is_err()); // wrong length
        assert!(mul.mul(&[1, 2, 3, 100]).is_err()); // 100 exceeds 4-bit signed
        assert!(FixedMatrixMultiplier::compile(&v, 0, WeightEncoding::Pn).is_err());
        assert!(FixedMatrixMultiplier::compile(&v, 32, WeightEncoding::Pn).is_err());
    }

    #[test]
    fn csd_uses_fewer_logic_elements_on_dense_weights() {
        let mut rng = seeded(105);
        // Dense uniform weights: CSD should cut set bits by ~17 %.
        let v = element_sparse_matrix(32, 32, 8, 0.0, true, &mut rng).unwrap();
        let pn = FixedMatrixMultiplier::compile(&v, 8, WeightEncoding::Pn).unwrap();
        let csd = FixedMatrixMultiplier::compile(
            &v,
            8,
            WeightEncoding::Csd {
                policy: ChainPolicy::CoinFlip,
                seed: 1,
            },
        )
        .unwrap();
        assert!(
            csd.stats().logic_elements() < pn.stats().logic_elements(),
            "CSD {} vs PN {}",
            csd.stats().logic_elements(),
            pn.stats().logic_elements()
        );
    }
}
