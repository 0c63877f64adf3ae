//! Matrix file I/O: the MatrixMarket coordinate format (the lingua franca
//! for sparse-matrix exchange) and a trivial dense text format.
//!
//! These are file formats only — what the CLI's `--input` reads and
//! `export_artifacts` writes. A matrix crosses the wire in the binary
//! layout of [`crate::wire::put_matrix`], never as text.
//!
//! Only the integer/pattern-free subset this project needs is implemented:
//! `matrix coordinate integer general` (and `real`, rounded) for sparse
//! files, plus `parse_dense` for quick fixtures.

use crate::error::{Error, Result};
use crate::matrix::IntMatrix;
use std::fmt::Write as _;

fn malformed(context: impl Into<String>) -> Error {
    Error::DimensionMismatch {
        context: context.into(),
    }
}

/// Parses a MatrixMarket *coordinate* file (`%%MatrixMarket matrix
/// coordinate integer|real general`) into a dense [`IntMatrix`].
///
/// Real values are rounded to the nearest integer. One-based indices, as
/// the format specifies. Duplicate entries are rejected.
pub fn parse_matrix_market(text: &str) -> Result<IntMatrix> {
    let mut lines = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty());
    let header = lines.next().ok_or_else(|| malformed("empty file"))?;
    let h: Vec<&str> = header.split_whitespace().collect();
    if h.len() < 4
        || !h[0].eq_ignore_ascii_case("%%MatrixMarket")
        || !h[1].eq_ignore_ascii_case("matrix")
        || !h[2].eq_ignore_ascii_case("coordinate")
    {
        return Err(malformed(format!("bad MatrixMarket header: {header}")));
    }
    let field = h[3].to_ascii_lowercase();
    if field != "integer" && field != "real" {
        return Err(malformed(format!("unsupported field type: {field}")));
    }
    if let Some(symmetry) = h.get(4) {
        if !symmetry.eq_ignore_ascii_case("general") {
            return Err(malformed(format!("unsupported symmetry: {symmetry}")));
        }
    }
    let mut data_lines = lines.filter(|l| !l.starts_with('%'));
    let size = data_lines
        .next()
        .ok_or_else(|| malformed("missing size line"))?;
    let dims: Vec<&str> = size.split_whitespace().collect();
    if dims.len() != 3 {
        return Err(malformed(format!("bad size line: {size}")));
    }
    let rows: usize = dims[0].parse().map_err(|_| malformed("bad row count"))?;
    let cols: usize = dims[1].parse().map_err(|_| malformed("bad col count"))?;
    let nnz: usize = dims[2].parse().map_err(|_| malformed("bad nnz count"))?;
    let mut m = IntMatrix::zeros(rows, cols)?;
    let mut seen = 0usize;
    for line in data_lines {
        // Exactly three fields, taken off the iterator: no `Vec` per line.
        let mut parts = line.split_ascii_whitespace();
        let (Some(r), Some(c), Some(value), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(malformed(format!("bad entry line: {line}")));
        };
        let r: usize = r.parse().map_err(|_| malformed("bad row index"))?;
        let c: usize = c.parse().map_err(|_| malformed("bad col index"))?;
        if r == 0 || c == 0 || r > rows || c > cols {
            return Err(malformed(format!("index out of range: {line}")));
        }
        let value = if field == "integer" {
            value
                .parse::<i64>()
                .map_err(|_| malformed("bad integer value"))?
        } else {
            value
                .parse::<f64>()
                .map_err(|_| malformed("bad real value"))?
                .round() as i64
        };
        let value = i32::try_from(value).map_err(|_| Error::ValueOutOfRange {
            value: i32::MAX,
            bits: 31,
            signed: true,
        })?;
        if m[(r - 1, c - 1)] != 0 {
            return Err(malformed(format!("duplicate entry at {r} {c}")));
        }
        m.set(r - 1, c - 1, value);
        seen += 1;
    }
    if seen != nnz {
        return Err(malformed(format!("expected {nnz} entries, found {seen}")));
    }
    Ok(m)
}

/// Serializes the non-zeros of a matrix as MatrixMarket coordinate
/// integer format.
pub fn format_matrix_market(m: &IntMatrix) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "%%MatrixMarket matrix coordinate integer general");
    let _ = writeln!(out, "% written by spatial-smm");
    let _ = writeln!(out, "{} {} {}", m.rows(), m.cols(), m.nnz());
    for (r, c, v) in m.iter_nonzero() {
        let _ = writeln!(out, "{} {} {}", r + 1, c + 1, v);
    }
    out
}

/// Parses a dense whitespace matrix: one row per line.
pub fn parse_dense(text: &str) -> Result<IntMatrix> {
    let rows: Vec<Vec<i32>> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            l.split_whitespace()
                .map(|t| t.parse::<i32>().map_err(|_| malformed(format!("bad value: {t}"))))
                .collect()
        })
        .collect::<Result<_>>()?;
    if rows.is_empty() {
        return Err(Error::EmptyDimension);
    }
    let cols = rows[0].len();
    if rows.iter().any(|r| r.len() != cols) {
        return Err(malformed("ragged rows"));
    }
    IntMatrix::from_vec(rows.len(), cols, rows.concat())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::element_sparse_matrix;
    use crate::rng::seeded;

    #[test]
    fn matrix_market_round_trip() {
        let mut rng = seeded(71);
        let m = element_sparse_matrix(9, 13, 8, 0.7, true, &mut rng).unwrap();
        let text = format_matrix_market(&m);
        let back = parse_matrix_market(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn parses_reference_example() {
        let text = "\
%%MatrixMarket matrix coordinate integer general
% a comment
3 4 3
1 1 5
2 3 -7
3 4 1
";
        let m = parse_matrix_market(text).unwrap();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m[(0, 0)], 5);
        assert_eq!(m[(1, 2)], -7);
        assert_eq!(m[(2, 3)], 1);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn parses_real_field_by_rounding() {
        let text = "\
%%MatrixMarket matrix coordinate real general
2 2 2
1 1 2.6
2 2 -1.2
";
        let m = parse_matrix_market(text).unwrap();
        assert_eq!(m[(0, 0)], 3);
        assert_eq!(m[(1, 1)], -1);
    }

    #[test]
    fn rejects_malformed_files() {
        assert!(parse_matrix_market("").is_err());
        assert!(parse_matrix_market("%%MatrixMarket matrix array integer general\n1 1\n1").is_err());
        assert!(parse_matrix_market("%%MatrixMarket matrix coordinate pattern general\n1 1 0").is_err());
        // nnz mismatch
        assert!(parse_matrix_market("%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 5").is_err());
        // out-of-range index
        assert!(parse_matrix_market("%%MatrixMarket matrix coordinate integer general\n2 2 1\n3 1 5").is_err());
        // duplicate
        assert!(parse_matrix_market(
            "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 5\n1 1 6"
        )
        .is_err());
        // symmetric not supported
        assert!(parse_matrix_market(
            "%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n2 1 5"
        )
        .is_err());
    }

    #[test]
    fn dense_round_trip() {
        let m = IntMatrix::from_vec(2, 3, vec![1, -2, 0, 4, 5, -6]).unwrap();
        assert_eq!(parse_dense("1 -2 0\n4 5 -6\n").unwrap(), m);
    }

    #[test]
    fn dense_rejects_ragged_and_garbage() {
        assert!(parse_dense("1 2\n3").is_err());
        assert!(parse_dense("1 x\n").is_err());
        assert!(parse_dense("").is_err());
        // Comments and blank lines are fine.
        let m = parse_dense("# header\n\n1 2\n3 4\n").unwrap();
        assert_eq!(m[(1, 1)], 4);
    }
}
