//! Resolving the weight matrix a command operates on: either a file
//! (MatrixMarket `.mtx` or dense text) or a generated random matrix from
//! `--dim/--sparsity/--bits/--seed`.

use crate::args::{Args, ParseError};
use smm_core::generate::element_sparse_matrix;
use smm_core::io::{parse_dense, parse_matrix_market};
use smm_core::matrix::IntMatrix;
use smm_core::rng::seeded;

/// `--seed` when not given: the generated matrix's, and the seed of
/// everything a command derives from it.
pub(crate) const DEFAULT_SEED: u64 = 42;

/// Loads or generates the matrix described by the common options.
pub fn resolve(args: &Args) -> Result<IntMatrix, String> {
    if let Some(path) = args.get("input") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let parsed = if path.ends_with(".mtx") || text.starts_with("%%MatrixMarket") {
            parse_matrix_market(&text)
        } else {
            parse_dense(&text)
        };
        return parsed.map_err(|e| format!("parsing {path}: {e}"));
    }
    let dim: usize = args.get_or("dim", 64).map_err(err)?;
    let rows: usize = args.get_or("rows", dim).map_err(err)?;
    let cols: usize = args.get_or("cols", dim).map_err(err)?;
    let sparsity: f64 = args.get_or("sparsity", 0.9).map_err(err)?;
    let bits: u32 = args.get_or("bits", 8).map_err(err)?;
    let seed = args.get_or("seed", DEFAULT_SEED).map_err(err)?;
    let mut rng = seeded(seed);
    element_sparse_matrix(rows, cols, bits, sparsity, true, &mut rng)
        .map_err(|e| format!("generating matrix: {e}"))
}

fn err(e: ParseError) -> String {
    e.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Args {
        let mut raw = vec!["synth".to_string()];
        raw.extend(words.iter().map(|s| s.to_string()));
        Args::parse(&raw).unwrap()
    }

    #[test]
    fn generates_from_options() {
        let m = resolve(&args(&["--dim", "16", "--sparsity", "0.5", "--seed", "1"])).unwrap();
        assert_eq!(m.rows(), 16);
        assert_eq!(m.cols(), 16);
        // Deterministic.
        let m2 = resolve(&args(&["--dim", "16", "--sparsity", "0.5", "--seed", "1"])).unwrap();
        assert_eq!(m, m2);
    }

    #[test]
    fn rectangular_generation() {
        let m = resolve(&args(&["--rows", "8", "--cols", "24"])).unwrap();
        assert_eq!((m.rows(), m.cols()), (8, 24));
    }

    #[test]
    fn loads_files_of_both_formats() {
        let dir = std::env::temp_dir();
        let mtx = dir.join("smm_cli_test.mtx");
        std::fs::write(
            &mtx,
            "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 -9\n",
        )
        .unwrap();
        let m = resolve(&args(&["--input", mtx.to_str().unwrap()])).unwrap();
        assert_eq!(m[(0, 1)], -9);

        let dense = dir.join("smm_cli_test.txt");
        std::fs::write(&dense, "1 2\n3 4\n").unwrap();
        let m = resolve(&args(&["--input", dense.to_str().unwrap()])).unwrap();
        assert_eq!(m[(1, 0)], 3);
    }

    #[test]
    fn missing_file_is_an_error() {
        let e = resolve(&args(&["--input", "/nonexistent/nope.mtx"])).unwrap_err();
        assert!(e.contains("reading"));
    }
}
