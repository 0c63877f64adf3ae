//! LSB-first two's-complement bit streams.
//!
//! Bit-serial arithmetic shifts operands through a full adder one bit per
//! clock, least-significant bit first. Signed values keep working because a
//! two's-complement stream that *sign-extends* (repeats its sign bit
//! indefinitely) behaves exactly like the infinite-precision integer under
//! addition and subtraction.

/// Bit `index` of `value` as streamed by a sign-extending shift register:
/// for `index < width` the actual bit, beyond that the sign bit repeated.
#[inline]
pub(crate) fn stream_bit(value: i64, width: u32, index: u32) -> bool {
    let idx = index.min(width.saturating_sub(1)).min(63);
    (value >> idx) & 1 == 1
}

/// Minimum two's-complement width that can hold every partial result of a
/// dot product of `rows` terms of `input_bits` × `weight_bits` operands.
///
/// `input_bits + weight_bits + ceil(log2(rows)) + 1` is a safe bound: each
/// product needs `input_bits + weight_bits` bits, the sum of `rows` of them
/// adds `ceil(log2 rows)`, and one extra guards the PN subtraction.
pub(crate) fn result_width(input_bits: u32, weight_bits: u32, rows: usize) -> u32 {
    (input_bits + weight_bits + crate::builder::ceil_log2(rows) + 1).min(63)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Decodes an LSB-first two's-complement bit slice back to an integer.
    ///
    /// The final bit is the sign bit. Panics on empty or >64-bit input.
    pub(crate) fn from_bits_lsb(bits: &[bool]) -> i64 {
        assert!(!bits.is_empty() && bits.len() <= 64, "1..=64 bits required");
        let mut value: i64 = 0;
        for (i, &b) in bits.iter().enumerate() {
            if b {
                value |= 1i64 << i;
            }
        }
        // Sign-extend from the top bit.
        let w = bits.len();
        if w < 64 && bits[w - 1] {
            value |= !0i64 << w;
        }
        value
    }

    /// `value` as `width` bits, LSB first, through [`stream_bit`].
    fn stream(value: i64, width: u32) -> Vec<bool> {
        (0..width).map(|i| stream_bit(value, width, i)).collect()
    }

    #[test]
    fn round_trip_all_8bit() {
        for v in -128i64..=127 {
            let bits = stream(v, 8);
            assert_eq!(from_bits_lsb(&bits), v, "value {v}");
        }
    }

    #[test]
    fn round_trip_with_extra_width() {
        // Decoding at wider width than needed must give the same value.
        for v in [-5i64, 0, 1, 100, -128] {
            let bits = stream(v, 16);
            assert_eq!(from_bits_lsb(&bits), v, "value {v}");
        }
    }

    #[test]
    fn stream_bit_sign_extends() {
        // -2 = ...11110 in two's complement.
        assert!(!stream_bit(-2, 8, 0));
        assert!(stream_bit(-2, 8, 1));
        assert!(stream_bit(-2, 8, 7));
        assert!(stream_bit(-2, 8, 100)); // extended sign bit
        // +2 = ...00010.
        assert!(stream_bit(2, 8, 1));
        assert!(!stream_bit(2, 8, 100));
    }

    #[test]
    fn known_encoding() {
        // 3 = 011, 7 = 111 (LSB first), the Table I operands.
        assert_eq!(stream(3, 3), vec![true, true, false]);
        assert_eq!(stream(7, 3), vec![true, true, true]);
        assert_eq!(from_bits_lsb(&[false, true, false, true, false]), 10);
    }

    #[test]
    fn result_width_bounds() {
        // 8-bit x 8-bit over 1024 rows: 8+8+10+1 = 27 bits.
        assert_eq!(result_width(8, 8, 1024), 27);
        assert_eq!(result_width(1, 1, 1), 3);
        // Caps at 63 to stay within i64.
        assert_eq!(result_width(31, 31, 1 << 20), 63);
    }
}
