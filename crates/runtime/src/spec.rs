//! Engine descriptions ([`EngineSpec`]) and the one function that turns
//! them into live engines ([`build`]).
//!
//! An [`EngineSpec`] is a plain *description* of a compute engine: which
//! kind (one of [`BUILTIN_KINDS`]) plus the options every engine family
//! understands — operand width, weight encoding, and batch shard count.
//! Specs are cheap values: they can be compared, stored, or passed
//! around long before any matrix exists.
//!
//! [`build`] is the **only** place the serving stack constructs a
//! [`GemvBackend`] — the CLI, the TCP server, the examples, and the
//! tests all go through it (usually indirectly, via [`crate::Session`]).
//! The engines are known at compile time, so "which kernel serves this
//! kind" is a `match`, not a lookup: a new engine family is one more arm
//! and one more [`BUILTIN_KINDS`] entry.

use crate::backend::{BitSerial, DenseRef, GemvBackend, SigmaEngine, SparseCsr};
use crate::cache::MultiplierCache;
use smm_bitserial::multiplier::WeightEncoding;
use smm_core::error::{Error, Result};
use smm_core::matrix::IntMatrix;
use smm_core::wire::MatrixBody;
use smm_sparse::Csr;
use std::sync::Arc;

/// The built-in engine kind names, in planning order.
pub const BUILTIN_KINDS: [&str; 4] = ["dense", "csr", "bitserial", "sigma"];

/// A serializable description of a compute engine: kind + options.
///
/// ```
/// use smm_core::matrix::IntMatrix;
/// use smm_runtime::{EngineSpec, Session};
///
/// let spec = EngineSpec::bitserial().threads(4);
/// let session = Session::builder(IntMatrix::identity(3).unwrap())
///     .spec(spec.clone())
///     .build()
///     .unwrap();
/// assert_eq!(session.plan().spec, spec);
/// assert_eq!(session.engine().name(), "bitserial");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSpec {
    /// The engine family, one of [`BUILTIN_KINDS`] if it is to build.
    kind: String,
    /// Signed input operand width in bits.
    pub(crate) input_bits: u32,
    /// Weight encoding compiled into circuit engines.
    pub(crate) encoding: WeightEncoding,
    /// Most shards one batch is cut into for the process's worker pool
    /// (0 = one per core). Spawns nothing: the pool's size is the
    /// machine's, not the spec's.
    pub(crate) threads: usize,
}

impl EngineSpec {
    /// A spec for the named engine family with default options
    /// (8-bit operands, plain `Pn` weights, all cores).
    pub fn new(kind: impl Into<String>) -> Self {
        Self {
            kind: kind.into(),
            input_bits: 8,
            encoding: WeightEncoding::Pn,
            threads: 0,
        }
    }

    /// The dense reference engine.
    pub fn dense() -> Self {
        Self::new("dense")
    }

    /// The executed CSR SpMV engine.
    pub fn csr() -> Self {
        Self::new("csr")
    }

    /// The compiled bit-serial spatial circuit.
    pub fn bitserial() -> Self {
        Self::new("bitserial")
    }

    /// The SIGMA accelerator baseline, executed through its PE-grid tile
    /// mapping.
    pub fn sigma() -> Self {
        Self::new("sigma")
    }

    /// The engine family this spec names.
    pub(crate) fn kind(&self) -> &str {
        &self.kind
    }

    /// Returns the spec with this input operand width.
    pub(crate) fn input_bits(mut self, bits: u32) -> Self {
        self.input_bits = bits;
        self
    }

    /// Returns the spec with this weight encoding.
    pub(crate) fn encoding(mut self, encoding: WeightEncoding) -> Self {
        self.encoding = encoding;
        self
    }

    /// Returns the spec with this many shards per batch at most (0 =
    /// one per core).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// The error for a kind that is not one of [`BUILTIN_KINDS`].
pub(crate) fn unknown_kind(kind: &str) -> Error {
    Error::Runtime {
        context: format!(
            "no engine of kind '{kind}' (have: {})",
            BUILTIN_KINDS.join(", ")
        ),
    }
}

/// Resolves a spec into a live engine over `matrix`. The dense engine
/// keeps the matrix; the others derive their own representation from it.
/// Circuits compile through `cache`, so repeat loads never recompile.
/// Fails with [`Error::Runtime`] when the spec's kind is not one of
/// [`BUILTIN_KINDS`].
///
/// A session's explicit spec is built here:
///
/// ```
/// use smm_core::matrix::IntMatrix;
/// use smm_runtime::{EngineSpec, Session};
///
/// let v = IntMatrix::identity(3).unwrap();
/// let session = Session::builder(v).spec(EngineSpec::csr()).build().unwrap();
/// assert_eq!(session.engine().name(), "csr");
/// assert_eq!(session.engine().gemv(&[1, 2, 3]).unwrap(), vec![1, 2, 3]);
/// ```
pub(crate) fn build(
    matrix: IntMatrix,
    spec: &EngineSpec,
    cache: &MultiplierCache,
) -> Result<Arc<dyn GemvBackend>> {
    Ok(match spec.kind() {
        "dense" => Arc::new(DenseRef::new(matrix)),
        "csr" => Arc::new(SparseCsr::new(&matrix)),
        "bitserial" => Arc::new(BitSerial::new(cache.get_or_compile(
            &matrix,
            spec.input_bits,
            spec.encoding,
        )?)),
        "sigma" => Arc::new(SigmaEngine::new(&matrix)),
        other => return Err(unknown_kind(other)),
    })
}

/// [`build`] from a matrix kept as its body: `csr` builds straight from
/// the non-zeros ([`Csr::from_body`]); every other kind decodes the
/// dense matrix once and goes through [`build`].
pub(crate) fn build_body(
    body: &MatrixBody,
    spec: &EngineSpec,
    cache: &MultiplierCache,
) -> Result<Arc<dyn GemvBackend>> {
    match spec.kind() {
        "csr" => Ok(Arc::new(SparseCsr::from_csr(Csr::from_body(body)))),
        _ => build(body.to_matrix()?, spec, cache),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan, PlanPolicy};
    use smm_core::generate::element_sparse_matrix;
    use smm_core::rng::seeded;

    #[test]
    fn builtin_registry_builds_bit_identical_engines() {
        let mut rng = seeded(2700);
        let v = element_sparse_matrix(10, 8, 8, 0.5, true, &mut rng).unwrap();
        let cache = MultiplierCache::new();
        let a: Vec<i32> = (0..10).map(|i| i - 5).collect();
        let expect = smm_core::gemv::vecmat(&a, &v).unwrap();
        for kind in BUILTIN_KINDS {
            let engine = build(v.clone(), &EngineSpec::new(kind), &cache).unwrap();
            assert_eq!(engine.name(), kind);
            assert_eq!(engine.gemv(&a).unwrap(), expect, "{kind}");
        }
        // The bit-serial build went through the shared cache.
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn unknown_kind_is_a_clean_error() {
        let v = IntMatrix::identity(2).unwrap();
        let spec = EngineSpec::new("tpu");
        let Err(built) = build(v.clone(), &spec, &MultiplierCache::new()) else {
            panic!("unknown kind must not build");
        };
        // Planning refuses the kind with the same typed error, so a
        // session never gets as far as the build.
        let planned = plan(&v, &PlanPolicy::Explicit(spec)).unwrap_err();
        assert_eq!(built, planned);
        assert!(matches!(built, Error::Runtime { .. }), "{built:?}");
        let text = built.to_string();
        for name in ["tpu"].into_iter().chain(BUILTIN_KINDS) {
            assert!(text.contains(name), "{text}");
        }
    }
}
