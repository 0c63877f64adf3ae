//! Error type shared by the `smm-core` APIs.

use std::fmt;

/// Errors produced by matrix construction and transformation routines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// The supplied data length does not match `rows * cols`.
    DataLength {
        /// Expected number of elements (`rows * cols`).
        expected: usize,
        /// Number of elements actually supplied.
        actual: usize,
    },
    /// Operand shapes are incompatible for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the two shapes involved.
        context: String,
    },
    /// A bit width outside the supported `1..=31` range was requested.
    InvalidBitWidth {
        /// The rejected width.
        bits: u32,
    },
    /// A matrix element does not fit in the declared bit width.
    ValueOutOfRange {
        /// The offending value.
        value: i32,
        /// The declared width in bits.
        bits: u32,
        /// Whether the width was interpreted as signed.
        signed: bool,
    },
    /// A weight outside the domain every engine serves alike,
    /// `±(2^31 − 1)`: only `i32::MIN`, whose magnitude has no `i32`, so
    /// the sign-split circuit cannot hold it.
    WeightOutOfDomain {
        /// The refused weight.
        value: i32,
    },
    /// A probability or sparsity parameter was outside `[0, 1]`.
    InvalidProbability {
        /// The rejected parameter value.
        value: f64,
    },
    /// A matrix dimension of zero was requested where it is not meaningful.
    EmptyDimension,
    /// `rows * cols` does not fit in `usize`.
    DimensionOverflow {
        /// The requested row count.
        rows: usize,
        /// The requested column count.
        cols: usize,
    },
    /// A serving-runtime failure (a worker thread the OS refused, an
    /// engine that panicked, a backend misconfigured, ...).
    Runtime {
        /// Human-readable description of the failure.
        context: String,
    },
    /// Malformed bytes on the binary wire (truncated frame, lying length
    /// prefix, invalid UTF-8, ...).
    Wire {
        /// Human-readable description of what failed to decode.
        context: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DataLength { expected, actual } => write!(
                f,
                "data length {actual} does not match matrix size {expected}"
            ),
            Error::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            Error::InvalidBitWidth { bits } => {
                write!(f, "bit width {bits} is outside the supported range 1..=31")
            }
            Error::ValueOutOfRange {
                value,
                bits,
                signed,
            } => {
                let kind = if *signed { "signed" } else { "unsigned" };
                write!(f, "value {value} does not fit in {bits}-bit {kind} range")
            }
            Error::WeightOutOfDomain { value } => write!(
                f,
                "weight {value} is outside the served domain ±(2^31 − 1): its magnitude has no i32"
            ),
            Error::InvalidProbability { value } => {
                write!(f, "probability/sparsity {value} is outside [0, 1]")
            }
            Error::EmptyDimension => write!(f, "matrix dimensions must be non-zero"),
            Error::DimensionOverflow { rows, cols } => {
                write!(f, "matrix size {rows}x{cols} overflows the element count")
            }
            Error::Runtime { context } => write!(f, "runtime failure: {context}"),
            Error::Wire { context } => write!(f, "wire decode failure: {context}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenient alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::DataLength {
            expected: 4,
            actual: 3,
        };
        assert!(e.to_string().contains('4'));
        assert!(e.to_string().contains('3'));

        let e = Error::ValueOutOfRange {
            value: 300,
            bits: 8,
            signed: true,
        };
        assert!(e.to_string().contains("300"));
        assert!(e.to_string().contains("signed"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<Error>();
    }
}
