//! The compiled-multiplier cache.
//!
//! Spatial compilation (sign split / CSD, constant propagation, reduction
//! tree construction) costs orders of magnitude more than a cache lookup.
//! [`MultiplierCache`] memoizes [`FixedMatrixMultiplier::compile`] keyed
//! by a stable content digest of the matrix plus the compilation
//! parameters, so a caller that compiles the same matrix again gets the
//! circuit it already has.
//!
//! The cache is not on the serving path: the server's tier table alone
//! decides which matrices stay built. It is reached only through
//! [`crate::SessionBuilder::cache`], the serving benchmark's adapter,
//! and it is unbounded — it holds every circuit it has compiled.

use smm_bitserial::multiplier::{FixedMatrixMultiplier, WeightEncoding};
use smm_core::error::Result;
use smm_core::matrix::IntMatrix;
use smm_telemetry::lock_or_recover;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The full compilation identity: matrix content + operand width +
/// weight encoding. Two requests with equal keys are guaranteed to want
/// byte-identical circuits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    digest: u64,
    rows: usize,
    cols: usize,
    input_bits: u32,
    encoding: WeightEncoding,
}

/// One cached circuit.
#[derive(Debug)]
struct CacheEntry {
    /// The matrix the circuit was compiled from, kept so a hit can be
    /// verified by content, not just by 64-bit digest — a digest
    /// collision must never serve a circuit compiled for different
    /// weights.
    matrix: IntMatrix,
    circuit: Arc<FixedMatrixMultiplier>,
}

/// A thread-safe memo table from matrix content to compiled circuits.
///
/// Entries are shared as [`Arc`]s, so every caller of one key holds the
/// same circuit.
///
/// ```
/// use smm_core::matrix::IntMatrix;
/// use smm_bitserial::multiplier::WeightEncoding;
/// use smm_runtime::MultiplierCache;
///
/// let cache = MultiplierCache::new();
/// let v = IntMatrix::from_vec(2, 2, vec![1, -2, 3, 4]).unwrap();
/// let first = cache.get_or_compile(&v, 8, WeightEncoding::Pn).unwrap();
/// let second = cache.get_or_compile(&v, 8, WeightEncoding::Pn).unwrap();
/// assert!(std::sync::Arc::ptr_eq(&first, &second));
/// ```
#[derive(Debug, Default)]
pub struct MultiplierCache {
    table: Mutex<HashMap<CacheKey, CacheEntry>>,
}

impl MultiplierCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the compiled circuit for `(matrix, input_bits, encoding)`,
    /// compiling at most once per distinct key.
    ///
    /// A hit is confirmed by comparing the full matrix content, so a
    /// 64-bit digest collision degrades to a correct uncached compile
    /// rather than silently serving the wrong circuit. Compilation runs
    /// *outside* the table lock, so a slow compile never blocks hits on
    /// other matrices; if two threads race to compile the same key, the
    /// loser's circuit is dropped and the winner's is returned to both.
    pub fn get_or_compile(
        &self,
        matrix: &IntMatrix,
        input_bits: u32,
        encoding: WeightEncoding,
    ) -> Result<Arc<FixedMatrixMultiplier>> {
        let key = CacheKey {
            digest: matrix.digest(),
            rows: matrix.rows(),
            cols: matrix.cols(),
            input_bits,
            encoding,
        };
        let cached = |entry: &CacheEntry| {
            (entry.matrix == *matrix).then(|| Arc::clone(&entry.circuit))
        };
        if let Some(circuit) = lock_or_recover(&self.table).get(&key).and_then(cached) {
            return Ok(circuit);
        }
        let compiled = Arc::new(FixedMatrixMultiplier::compile(matrix, input_bits, encoding)?);
        // First inserter wins so every caller observes one circuit — but
        // only when the occupant was compiled from the same content. On
        // a collision the first occupant keeps the slot and this circuit
        // is correct but uncached.
        let mut table = lock_or_recover(&self.table);
        match table.get(&key) {
            Some(existing) => Ok(cached(existing).unwrap_or(compiled)),
            None => {
                table.insert(
                    key,
                    CacheEntry {
                        matrix: matrix.clone(),
                        circuit: Arc::clone(&compiled),
                    },
                );
                Ok(compiled)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_core::csd::ChainPolicy;
    use smm_core::generate::element_sparse_matrix;
    use smm_core::rng::seeded;
    use std::time::Instant;

    #[test]
    fn identical_content_shares_one_compile() {
        let cache = MultiplierCache::new();
        let mut rng = seeded(2200);
        let v = element_sparse_matrix(16, 16, 8, 0.5, true, &mut rng).unwrap();
        let copy = v.clone();
        let a = cache.get_or_compile(&v, 8, WeightEncoding::Pn).unwrap();
        let b = cache.get_or_compile(&copy, 8, WeightEncoding::Pn).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // The table's reference and the two handed out.
        assert_eq!(Arc::strong_count(&a), 3);
    }

    #[test]
    fn distinct_parameters_compile_separately() {
        let cache = MultiplierCache::new();
        let mut rng = seeded(2201);
        let v = element_sparse_matrix(10, 10, 8, 0.5, true, &mut rng).unwrap();
        let w = element_sparse_matrix(10, 10, 8, 0.5, true, &mut rng).unwrap();
        let base = cache.get_or_compile(&v, 8, WeightEncoding::Pn).unwrap();
        // Different matrix, different input width, different encoding —
        // all distinct entries.
        let other = cache.get_or_compile(&w, 8, WeightEncoding::Pn).unwrap();
        let wide = cache.get_or_compile(&v, 12, WeightEncoding::Pn).unwrap();
        let csd = cache
            .get_or_compile(
                &v,
                8,
                WeightEncoding::Csd {
                    policy: ChainPolicy::CoinFlip,
                    seed: 5,
                },
            )
            .unwrap();
        assert!(!Arc::ptr_eq(&base, &other));
        assert!(!Arc::ptr_eq(&base, &wide));
        assert!(!Arc::ptr_eq(&base, &csd));
        assert_eq!(lock_or_recover(&cache.table).len(), 4);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = MultiplierCache::new();
        let v = IntMatrix::identity(4).unwrap();
        assert!(cache.get_or_compile(&v, 0, WeightEncoding::Pn).is_err());
        assert!(lock_or_recover(&cache.table).is_empty());
    }

    #[test]
    fn cached_fetch_is_at_least_10x_faster_than_recompiling() {
        // The acceptance bar for the cache: amortized setup. Compare the
        // *minimum* of several timed recompiles against the minimum of
        // several timed cache hits on a realistic matrix — min-of-N is
        // robust to descheduling noise on oversubscribed CI runners
        // (every sample would have to be inflated to flake).
        let cache = MultiplierCache::new();
        let mut rng = seeded(2202);
        let v = element_sparse_matrix(64, 64, 8, 0.9, true, &mut rng).unwrap();
        cache.get_or_compile(&v, 8, WeightEncoding::Pn).unwrap(); // warm

        let time = |f: &mut dyn FnMut()| -> f64 {
            (0..5)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let compile = time(&mut || {
            std::hint::black_box(
                FixedMatrixMultiplier::compile(&v, 8, WeightEncoding::Pn).unwrap(),
            );
        });
        let cached = time(&mut || {
            std::hint::black_box(cache.get_or_compile(&v, 8, WeightEncoding::Pn).unwrap());
        });
        assert!(
            compile > 10.0 * cached,
            "compile {compile:.2e}s vs cached {cached:.2e}s"
        );
    }
}
