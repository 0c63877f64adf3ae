//! Canonical signed digit (CSD) transformation (paper Section V, Listing 1).
//!
//! CSD rewrites an unsigned integer as a difference of two integers with
//! fewer total set bits by replacing runs of consecutive ones:
//! `0b1111 = 0b10000 − 0b00001` turns four set bits into two. Because the
//! spatial multiplier's cost is exactly the number of set bits, CSD directly
//! reduces hardware (the paper measures ~17 % LUT savings on uniform 8-bit
//! weights).
//!
//! The port below follows the paper's Listing 1 exactly, including its two
//! idiosyncrasies: runs are detected only within contiguous ones (no
//! canonical merging across isolated zeros), and a run of length exactly 2 —
//! which has equal cost either way — is substituted on a *coin flip* to
//! balance the positive and negative matrices. [`ChainPolicy`] exposes the
//! coin flip for ablation.

use crate::error::{Error, Result};
use crate::matrix::IntMatrix;
use crate::signsplit::SignSplit;
use rand::Rng;

/// What to do with a run ("chain") of exactly two consecutive one bits,
/// where substitution neither helps nor hurts the set-bit count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChainPolicy {
    /// Flip a fair coin, as in the paper's Listing 1 (balances the P and N
    /// matrices on average).
    #[default]
    CoinFlip,
    /// Always substitute (`011 → 10-1`): biases digits toward N.
    Always,
    /// Never substitute: biases digits toward P.
    Never,
}

/// The signed-digit decomposition of one unsigned value.
///
/// `digits[i] ∈ {−1, 0, +1}` is the coefficient of `2^i`; there is one more
/// digit than input bits because a run ending at the MSb carries out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CsdDigits {
    digits: Vec<i8>,
}

impl CsdDigits {
    /// The positive part: `Σ_{digits[i]=+1} 2^i`.
    pub(crate) fn positive(&self) -> u32 {
        self.digits
            .iter()
            .enumerate()
            .filter(|(_, &d)| d > 0)
            .map(|(i, _)| 1u32 << i)
            .sum()
    }

    /// The negative part magnitude: `Σ_{digits[i]=−1} 2^i`.
    pub(crate) fn negative(&self) -> u32 {
        self.digits
            .iter()
            .enumerate()
            .filter(|(_, &d)| d < 0)
            .map(|(i, _)| 1u32 << i)
            .sum()
    }
}

/// Converts an unsigned `value` of the given `bits` width to signed digits
/// per Listing 1 of the paper.
///
/// Runs of a single 1 are kept; runs of length ≥ 3 are replaced by a `+1`
/// one past the run's MSb and a `−1` at the run's LSb; runs of exactly 2
/// follow `policy`. The output has `bits + 1` digits.
pub(crate) fn csd_digits(
    value: u32,
    bits: u32,
    policy: ChainPolicy,
    rng: &mut impl Rng,
) -> Result<CsdDigits> {
    if bits == 0 || bits > 31 {
        return Err(Error::InvalidBitWidth { bits });
    }
    if value >= (1u32 << bits) {
        return Err(Error::ValueOutOfRange {
            value: value.min(i32::MAX as u32) as i32,
            bits,
            signed: false,
        });
    }
    let mut digits = vec![0i8; bits as usize + 1];
    // `chain_start` is the LSb index of the current run of ones, or None.
    let mut chain_start: Option<usize> = None;
    for i in 0..=bits as usize {
        let bit = if (i as u32) < bits {
            (value >> i) & 1
        } else {
            0
        };
        if bit == 0 {
            if let Some(start) = chain_start.take() {
                let chain_length = i - start;
                match chain_length {
                    1 => digits[start] = 1,
                    2 => {
                        let substitute = match policy {
                            ChainPolicy::CoinFlip => rng.gen_bool(0.5),
                            ChainPolicy::Always => true,
                            ChainPolicy::Never => false,
                        };
                        if substitute {
                            digits[start] = -1;
                            digits[i] = 1;
                        } else {
                            digits[start] = 1;
                            digits[i - 1] = 1;
                        }
                    }
                    _ => {
                        digits[start] = -1;
                        digits[i] = 1;
                    }
                }
            }
        } else if chain_start.is_none() {
            chain_start = Some(i);
        }
    }
    Ok(CsdDigits { digits })
}

/// Applies CSD to a *signed* weight matrix, producing unsigned `P`/`N`
/// halves with `V = P − N` (Equation 6 of the paper).
///
/// Per Section V: the matrix is first PN-split; CSD is then applied to each
/// unsigned half. Positive digits stay in their source half; negative digits
/// transfer to the *opposite* half. Element width grows by one bit.
pub fn csd_split(matrix: &IntMatrix, policy: ChainPolicy, rng: &mut impl Rng) -> Result<SignSplit> {
    let mut pos = IntMatrix::zeros(matrix.rows(), matrix.cols())?;
    let mut neg = IntMatrix::zeros(matrix.rows(), matrix.cols())?;
    for (r, c, v) in matrix.iter() {
        if v == 0 {
            continue;
        }
        let magnitude = i64::from(v).unsigned_abs() as u32;
        let bits = crate::matrix::unsigned_bits_for(magnitude);
        let d = csd_digits(magnitude, bits, policy, rng)?;
        let (into_same, into_opposite) = (d.positive() as i32, d.negative() as i32);
        if v > 0 {
            pos.set(r, c, into_same);
            neg.set(r, c, into_opposite);
        } else {
            neg.set(r, c, into_same);
            pos.set(r, c, into_opposite);
        }
    }
    Ok(SignSplit { pos, neg })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::element_sparse_matrix;
    use crate::rng::seeded;
    use crate::signsplit::split_pn;

    fn digits_of(value: u32, bits: u32, policy: ChainPolicy) -> CsdDigits {
        csd_digits(value, bits, policy, &mut seeded(0)).unwrap()
    }

    /// Number of non-zero digits (the hardware cost of the value).
    fn ones(d: &CsdDigits) -> u32 {
        d.digits.iter().filter(|&&x| x != 0).count() as u32
    }

    /// The numeric value `Σ digits[i]·2^i`.
    fn value(d: &CsdDigits) -> i64 {
        d.digits
            .iter()
            .enumerate()
            .map(|(i, &x)| i64::from(x) << i)
            .sum()
    }

    #[test]
    fn paper_example_fifteen() {
        // 15 = 0b1111 -> 16 - 1: digits [-1, 0, 0, 0, +1].
        let d = digits_of(15, 4, ChainPolicy::Always);
        assert_eq!(d.digits, [-1, 0, 0, 0, 1]);
        assert_eq!(value(&d), 15);
        assert_eq!(ones(&d), 2);
        assert_eq!(d.positive(), 16);
        assert_eq!(d.negative(), 1);
    }

    #[test]
    fn single_bits_left_alone() {
        for v in [0u32, 1, 2, 4, 8, 0b101, 0b1001] {
            let d = digits_of(v, 4, ChainPolicy::Always);
            assert_eq!(value(&d), i64::from(v), "value {v}");
            assert_eq!(ones(&d), v.count_ones(), "value {v}");
            assert_eq!(d.negative(), 0, "value {v}");
        }
    }

    #[test]
    fn length_two_chain_policies() {
        // 3 = 0b11: Always -> 4 - 1; Never -> 2 + 1.
        let a = digits_of(3, 2, ChainPolicy::Always);
        assert_eq!(a.digits, [-1, 0, 1]);
        assert_eq!(value(&a), 3);
        let n = digits_of(3, 2, ChainPolicy::Never);
        assert_eq!(n.digits, [1, 1, 0]);
        assert_eq!(value(&n), 3);
        // Either way the cost is 2 digits.
        assert_eq!(ones(&a), 2);
        assert_eq!(ones(&n), 2);
    }

    #[test]
    fn coin_flip_is_balanced() {
        let mut rng = seeded(42);
        let mut substituted = 0;
        const TRIALS: usize = 2000;
        for _ in 0..TRIALS {
            let d = csd_digits(3, 2, ChainPolicy::CoinFlip, &mut rng).unwrap();
            assert_eq!(value(&d), 3);
            if d.negative() != 0 {
                substituted += 1;
            }
        }
        let frac = substituted as f64 / TRIALS as f64;
        assert!((frac - 0.5).abs() < 0.05, "substitution fraction {frac}");
    }

    #[test]
    fn value_preserved_and_cost_never_worse_exhaustive_8bit() {
        let mut rng = seeded(7);
        for v in 0u32..256 {
            for policy in [ChainPolicy::CoinFlip, ChainPolicy::Always, ChainPolicy::Never] {
                let d = csd_digits(v, 8, policy, &mut rng).unwrap();
                assert_eq!(value(&d), i64::from(v), "value {v}");
                assert!(
                    ones(&d) <= v.count_ones().max(1),
                    "value {v}: {} > {}",
                    ones(&d),
                    v.count_ones()
                );
                // P and N never share a digit position.
                assert_eq!(d.positive() & d.negative(), 0);
                assert_eq!(i64::from(d.positive()) - i64::from(d.negative()), i64::from(v));
            }
        }
    }

    #[test]
    fn long_chain_brings_large_benefit() {
        // 0b111_1111 (127): 7 ones -> 2 digits (128 - 1).
        let d = digits_of(127, 7, ChainPolicy::Never);
        assert_eq!(ones(&d), 2);
        assert_eq!(value(&d), 127);
    }

    #[test]
    fn interleaved_chains() {
        // 0b110111: chains of length 3 (LSbs) and 2 (MSbs).
        let d = digits_of(0b110111, 6, ChainPolicy::Never);
        assert_eq!(value(&d), 0b110111);
        let d = digits_of(0b110111, 6, ChainPolicy::Always);
        assert_eq!(value(&d), 0b110111);
    }

    #[test]
    fn rejects_out_of_range() {
        let mut rng = seeded(1);
        assert!(csd_digits(16, 4, ChainPolicy::Never, &mut rng).is_err());
        assert!(csd_digits(1, 0, ChainPolicy::Never, &mut rng).is_err());
    }

    #[test]
    fn matrix_split_reconstructs_and_reduces() {
        let mut rng = seeded(21);
        let m = element_sparse_matrix(48, 48, 8, 0.5, true, &mut rng).unwrap();
        let split = csd_split(&m, ChainPolicy::CoinFlip, &mut rng).unwrap();
        assert_eq!(split.reconstruct().unwrap(), m);
        let (before, after) = (split_pn(&m).ones(), split.ones());
        assert!(after <= before);
        // Uniform 8-bit weights should see a material reduction (paper: ~17 %).
        let reduction = 1.0 - after as f64 / before as f64;
        assert!(reduction > 0.10, "reduction only {reduction:.3}");
    }

    #[test]
    fn negative_elements_transfer_digits() {
        // -15 = -(16 - 1) -> P gets 1, N gets 16.
        let m = IntMatrix::from_vec(1, 1, vec![-15]).unwrap();
        let split = csd_split(&m, ChainPolicy::Always, &mut seeded(2)).unwrap();
        assert_eq!(split.neg[(0, 0)], 16);
        assert_eq!(split.pos[(0, 0)], 1);
        assert_eq!(split.reconstruct().unwrap()[(0, 0)], -15);
    }

    #[test]
    fn zero_matrix_stats() {
        let m = IntMatrix::zeros(4, 4).unwrap();
        let split = csd_split(&m, ChainPolicy::CoinFlip, &mut seeded(3)).unwrap();
        assert_eq!(split.ones(), 0);
    }
}
