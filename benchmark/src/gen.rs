//! Deterministic inputs and the benchmark's own reference product.
//!
//! Everything a workload feeds the system comes from one LCG seeded by
//! `--seed`, so the same seed gives the same matrices, vectors, and
//! request order on every run. Expected outputs come from
//! [`Reference`], a naive loop over the non-zeros that shares no code
//! with any kernel under test.

/// A 64-bit linear congruential generator (Knuth's MMIX constants),
/// yielding the high bits of the state.
#[derive(Debug, Clone)]
pub struct Lcg(u64);

impl Lcg {
    /// An independent stream for `(seed, stream)`: workloads draw their
    /// matrices, vectors, and request order from different streams so
    /// changing how many values one consumes cannot shift another.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut rng = Lcg(seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03)));
        // A few steps decorrelate neighbouring seeds.
        for _ in 0..4 {
            rng.next_u32();
        }
        rng
    }

    /// The next 31 random bits.
    pub fn next_u32(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) as u32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        f64::from(self.next_u32()) / f64::from(1u32 << 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u32) -> u32 {
        ((u64::from(self.next_u32()) * u64::from(n)) >> 31) as u32
    }

    /// Uniform signed `bits`-wide integer, `-(2^(bits-1)) ..= 2^(bits-1) - 1`.
    pub fn signed(&mut self, bits: u32) -> i32 {
        self.below(1 << bits) as i32 - (1 << (bits - 1))
    }
}

/// A generated matrix, kept as raw row-major data so the reference and
/// the system under test are built from the same numbers independently.
#[derive(Debug, Clone)]
pub struct MatrixData {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<i32>,
}

impl MatrixData {
    /// An element-sparse matrix: each element is zero with probability
    /// `sparsity`, else a non-zero signed `weight_bits`-wide value.
    pub fn sparse(
        rng: &mut Lcg,
        rows: usize,
        cols: usize,
        sparsity: f64,
        weight_bits: u32,
    ) -> Self {
        let data = (0..rows * cols)
            .map(|_| {
                if rng.unit() < sparsity {
                    return 0;
                }
                loop {
                    let w = rng.signed(weight_bits);
                    if w != 0 {
                        return w;
                    }
                }
            })
            .collect();
        Self { rows, cols, data }
    }

    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|&&w| w != 0).count()
    }
}

/// A vector of signed `bits`-wide values.
pub fn vector(rng: &mut Lcg, len: usize, bits: u32) -> Vec<i32> {
    (0..len).map(|_| rng.signed(bits)).collect()
}

/// The naive reference for `o = aᵀV`: a flat list of `(row, col,
/// weight)` non-zeros and one multiply-add per entry.
#[derive(Debug, Clone)]
pub struct Reference {
    cols: usize,
    nonzeros: Vec<(u32, u32, i32)>,
}

impl Reference {
    pub fn new(m: &MatrixData) -> Self {
        let nonzeros = m
            .data
            .iter()
            .enumerate()
            .filter(|(_, &w)| w != 0)
            .map(|(i, &w)| ((i / m.cols) as u32, (i % m.cols) as u32, w))
            .collect();
        Self {
            cols: m.cols,
            nonzeros,
        }
    }

    pub fn apply_into(&self, a: &[i32], out: &mut [i64]) {
        out.fill(0);
        for &(r, c, w) in &self.nonzeros {
            out[c as usize] += i64::from(a[r as usize]) * i64::from(w);
        }
    }

    pub fn apply(&self, a: &[i32]) -> Vec<i64> {
        let mut out = vec![0; self.cols];
        self.apply_into(a, &mut out);
        out
    }
}

/// FNV-1a over a state vector — the reservoir's step-10 000 checksum.
pub fn checksum(state: &[i32]) -> u64 {
    state.iter().fold(0xcbf2_9ce4_8422_2325, |h, &x| {
        x.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_the_same_inputs_on_two_runs() {
        let make = |seed| {
            let mut rng = Lcg::stream(seed, 3);
            let m = MatrixData::sparse(&mut rng, 64, 48, 0.9, 4);
            let v = vector(&mut rng, 64, 8);
            (m.data, v)
        };
        assert_eq!(make(1), make(1));
        assert_ne!(make(1), make(2));
        // Streams of one seed are independent of each other.
        assert_ne!(Lcg::stream(1, 0).next_u32(), Lcg::stream(1, 1).next_u32());
    }

    #[test]
    fn generated_values_respect_their_ranges() {
        let mut rng = Lcg::stream(7, 0);
        let m = MatrixData::sparse(&mut rng, 128, 128, 0.95, 4);
        assert!(m.data.iter().all(|w| (-8..=7).contains(w)));
        let density = m.nnz() as f64 / m.data.len() as f64;
        assert!((0.03..0.07).contains(&density), "density {density}");
        assert!(vector(&mut rng, 4096, 8)
            .iter()
            .all(|x| (-128..=127).contains(x)));
        assert!((0..4096).all(|_| rng.below(24) < 24));
    }

    #[test]
    fn reference_matches_a_hand_product() {
        let m = MatrixData {
            rows: 2,
            cols: 2,
            data: vec![1, -2, 3, 4],
        };
        assert_eq!(Reference::new(&m).apply(&[5, 6]), vec![23, 14]);
    }
}
