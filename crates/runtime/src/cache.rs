//! The compiled-multiplier cache.
//!
//! Spatial compilation (sign split / CSD, constant propagation, reduction
//! tree construction) costs orders of magnitude more than a cache lookup,
//! and reservoir serving hits the *same* weight matrix for every request.
//! [`MultiplierCache`] memoizes [`FixedMatrixMultiplier::compile`] keyed
//! by a stable content digest of the matrix plus the compilation
//! parameters, so repeated requests reuse the compiled netlist.
//!
//! A long-running server cannot let the table grow with every distinct
//! matrix it has ever seen, so the cache is optionally bounded: give it a
//! capacity ([`MultiplierCache::with_capacity`]) and the least-recently
//! *used* entry is evicted when a new compile would exceed it. Evicted
//! circuits stay alive for as long as any backend still holds their
//! [`Arc`]; only the cache's reference is dropped.

use smm_bitserial::multiplier::{FixedMatrixMultiplier, WeightEncoding};
use smm_core::error::Result;
use smm_core::matrix::IntMatrix;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use smm_telemetry::lock_or_recover;
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

/// Hit/miss counters of a [`MultiplierCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Compiled circuits currently held.
    pub entries: usize,
    /// Entries dropped to stay within the configured capacity.
    pub evictions: u64,
}

/// One cached circuit plus its LRU bookkeeping.
#[derive(Debug)]
struct CacheEntry {
    /// The matrix the circuit was compiled from, kept so a hit can be
    /// verified by content, not just by 64-bit digest — a digest
    /// collision must never serve a circuit compiled for different
    /// weights.
    matrix: IntMatrix,
    circuit: Arc<FixedMatrixMultiplier>,
    /// Logical timestamp of the last hit or insert; the minimum across
    /// the table is the eviction victim.
    last_used: u64,
}

#[derive(Debug, Default)]
struct Table {
    entries: HashMap<CacheKey, CacheEntry>,
    /// Monotone logical clock for `last_used` stamps.
    clock: u64,
}

impl Table {
    fn touch(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// A thread-safe memo table from matrix content to compiled circuits.
///
/// Entries are shared as [`Arc`]s: a cached circuit stays alive for as
/// long as any backend uses it, even across an eviction.
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
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug, Default)]
pub struct MultiplierCache {
    table: Mutex<Table>,
    /// `None` = unbounded.
    capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl MultiplierCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache bounded to at most `capacity` compiled circuits,
    /// evicting the least-recently-used entry on overflow. A capacity of
    /// `0` means unbounded (same as [`MultiplierCache::new`]).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: (capacity > 0).then_some(capacity),
            ..Self::default()
        }
    }

    /// Returns the compiled circuit for `(matrix, input_bits, encoding)`,
    /// compiling at most once per distinct key.
    ///
    /// A hit is confirmed by comparing the full matrix content, so a
    /// 64-bit digest collision degrades to a (counted) miss and a
    /// correct uncached compile rather than silently serving the wrong
    /// circuit. Compilation runs *outside* the table lock, so a slow
    /// compile never blocks hits on other matrices; if two threads race
    /// to compile the same key, the loser's circuit is dropped and the
    /// winner's is returned to both.
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
        let mut collided = false;
        {
            let mut table = lock_or_recover(&self.table);
            let stamp = table.touch();
            if let Some(entry) = table.entries.get_mut(&key) {
                if entry.matrix == *matrix {
                    entry.last_used = stamp;
                    let circuit = Arc::clone(&entry.circuit);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(circuit);
                }
                collided = true;
            }
        }
        let compiled = Arc::new(FixedMatrixMultiplier::compile(matrix, input_bits, encoding)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        if collided {
            // Astronomically rare: equal digests, different content. The
            // first occupant keeps the slot; this circuit is correct but
            // uncached.
            return Ok(compiled);
        }
        let mut table = lock_or_recover(&self.table);
        let stamp = table.touch();
        // First inserter wins so every caller observes one circuit — but
        // only when the occupant was compiled from the same content.
        match table.entries.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut existing) => {
                if existing.get().matrix == *matrix {
                    existing.get_mut().last_used = stamp;
                    Ok(Arc::clone(&existing.get().circuit))
                } else {
                    Ok(compiled)
                }
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(CacheEntry {
                    matrix: matrix.clone(),
                    circuit: Arc::clone(&compiled),
                    last_used: stamp,
                });
                if let Some(cap) = self.capacity {
                    let evicted = evict_to_capacity(&mut table.entries, cap);
                    self.evictions.fetch_add(evicted, Ordering::Relaxed);
                }
                Ok(compiled)
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: lock_or_recover(&self.table).entries.len(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Evicts least-recently-used entries until `entries` fits `cap`,
/// returning how many were dropped. Linear scans per eviction: the cache
/// holds at most a few hundred compiled circuits and evicts rarely, so a
/// heap would be bookkeeping without benefit.
fn evict_to_capacity(entries: &mut HashMap<CacheKey, CacheEntry>, cap: usize) -> u64 {
    let mut evicted = 0;
    while entries.len() > cap {
        let Some(victim) = entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| *k)
        else {
            break;
        };
        entries.remove(&victim);
        evicted += 1;
    }
    evicted
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
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
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
        assert_eq!(cache.stats().entries, 4);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = MultiplierCache::new();
        let v = IntMatrix::identity(4).unwrap();
        assert!(cache.get_or_compile(&v, 0, WeightEncoding::Pn).is_err());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn lru_eviction_respects_capacity_and_recency() {
        let cache = MultiplierCache::with_capacity(2);
        let matrices: Vec<IntMatrix> = (0..3)
            .map(|i| {
                let mut rng = seeded(2400 + i);
                element_sparse_matrix(8, 8, 8, 0.5, true, &mut rng).unwrap()
            })
            .collect();
        let a = cache.get_or_compile(&matrices[0], 8, WeightEncoding::Pn).unwrap();
        cache.get_or_compile(&matrices[1], 8, WeightEncoding::Pn).unwrap();
        // Touch `a` so `b` becomes the LRU victim when `c` arrives.
        cache.get_or_compile(&matrices[0], 8, WeightEncoding::Pn).unwrap();
        cache.get_or_compile(&matrices[2], 8, WeightEncoding::Pn).unwrap();
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (2, 1));
        // `a` survived (hit), `b` was evicted (fresh miss recompiles).
        let a2 = cache.get_or_compile(&matrices[0], 8, WeightEncoding::Pn).unwrap();
        assert!(Arc::ptr_eq(&a, &a2));
        let before = cache.stats().misses;
        cache.get_or_compile(&matrices[1], 8, WeightEncoding::Pn).unwrap();
        assert_eq!(cache.stats().misses, before + 1);
    }

    #[test]
    fn eviction_keeps_counters_consistent() {
        // Cycle through more matrices than the capacity twice over and
        // check the books balance: every lookup is exactly one hit or one
        // miss, entries never exceed capacity, and evictions account for
        // every insert beyond it.
        let cache = MultiplierCache::with_capacity(3);
        let matrices: Vec<IntMatrix> = (0..5)
            .map(|i| {
                let mut rng = seeded(2500 + i);
                element_sparse_matrix(6, 6, 8, 0.5, true, &mut rng).unwrap()
            })
            .collect();
        let mut lookups = 0u64;
        for round in 0..2 {
            for m in &matrices {
                let got = cache.get_or_compile(m, 8, WeightEncoding::Pn).unwrap();
                // Whatever the cache state, the circuit must be correct.
                assert_eq!(got.rows(), 6, "round {round}");
                lookups += 1;
                let s = cache.stats();
                assert!(s.entries <= 3);
                assert_eq!(s.hits + s.misses, lookups);
                assert_eq!(s.evictions, s.misses - s.entries as u64);
            }
        }
        // 5 distinct matrices through a 3-slot cache in round-robin is
        // the LRU worst case: every lookup misses.
        assert_eq!(cache.stats().misses, 10);
    }

    #[test]
    fn zero_capacity_means_unbounded() {
        let cache = MultiplierCache::with_capacity(0);
        for i in 0..4 {
            let mut rng = seeded(2600 + i);
            let m = element_sparse_matrix(4, 4, 8, 0.5, true, &mut rng).unwrap();
            cache.get_or_compile(&m, 8, WeightEncoding::Pn).unwrap();
        }
        assert_eq!(cache.stats().entries, 4);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn cached_fetch_is_at_least_10x_faster_than_recompiling() {
        // The acceptance bar for the serving runtime: amortized setup.
        // Compare the *minimum* of several timed recompiles against the
        // minimum of several timed cache hits on a realistic matrix —
        // min-of-N is robust to descheduling noise on oversubscribed CI
        // runners (every sample would have to be inflated to flake).
        // The compile_cache criterion bench measures the same property
        // with proper statistics.
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
