//! Engine descriptions ([`EngineSpec`]) and the one function that turns
//! them into live engines ([`build`]).
//!
//! An [`EngineSpec`] is a plain *description* of an engine choice: a
//! kind — one of [`BUILTIN_KINDS`], or `auto` to let the planner pick
//! from the matrix — plus the batch shard count. Specs are cheap values:
//! they can be compared, stored, or passed around long before any matrix
//! exists. This module alone decides which kinds exist
//! ([`EngineSpec::is_auto`]).
//!
//! [`build`] is the **only** place the serving stack constructs a
//! [`GemvBackend`] — the CLI, the TCP server, the examples, and the
//! tests all go through it (usually indirectly, via [`crate::Session`]).
//! The engines are known at compile time, so "which kernel serves this
//! kind" is a `match`, not a lookup: a new engine family is one more arm
//! and one more [`BUILTIN_KINDS`] entry.

use crate::backend::{BitSerial, DenseRef, GemvBackend, SigmaEngine, SparseCsr};
use smm_bitserial::multiplier::{FixedMatrixMultiplier, WeightEncoding};
use smm_core::error::{Error, Result};
use smm_core::matrix::IntMatrix;
use smm_core::wire::MatrixBody;
use smm_sparse::Csr;
use std::sync::Arc;

/// The built-in engine kind names, in planning order.
pub const BUILTIN_KINDS: [&str; 4] = ["dense", "csr", "bitserial", "sigma"];

/// The kind that names no engine: the planner chooses one of
/// [`BUILTIN_KINDS`] from the matrix.
const AUTO: &str = "auto";

/// Signed operand width every engine serves: the bit-serial circuit is
/// compiled for it, and a client's frames must fit it.
pub const INPUT_BITS: u32 = 8;

/// Weight encoding every bit-serial circuit is compiled with.
pub(crate) const ENCODING: WeightEncoding = WeightEncoding::Pn;

/// A serializable description of an engine choice: kind + shard count.
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
    /// The engine family, one of [`BUILTIN_KINDS`] if it is to build,
    /// or `auto`.
    kind: String,
    /// Most shards one batch is cut into for the process's worker pool
    /// (0 = one per core). Spawns nothing: the pool's size is the
    /// machine's, not the spec's.
    pub(crate) threads: usize,
}

impl EngineSpec {
    /// A spec for the named kind, cutting batches one shard per core.
    pub fn new(kind: impl Into<String>) -> Self {
        Self {
            kind: kind.into(),
            threads: 0,
        }
    }

    /// The planner's choice: the cheapest auto candidate for the matrix
    /// (`plan` module docs), carrying this spec's shard count.
    ///
    /// ```
    /// use smm_core::matrix::IntMatrix;
    /// use smm_runtime::{EngineSpec, Session};
    ///
    /// assert_eq!(EngineSpec::new("auto"), EngineSpec::auto());
    /// let session = Session::builder(IntMatrix::identity(3).unwrap())
    ///     .spec(EngineSpec::auto().threads(2))
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(session.plan().spec, EngineSpec::csr().threads(2));
    /// ```
    pub fn auto() -> Self {
        Self::new(AUTO)
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

    /// Whether the planner must choose the engine: `true` for `auto`,
    /// `false` for one of [`BUILTIN_KINDS`], and the unknown-kind error
    /// for anything else.
    pub(crate) fn is_auto(&self) -> Result<bool> {
        match self.kind() {
            AUTO => Ok(true),
            kind if BUILTIN_KINDS.contains(&kind) => Ok(false),
            other => Err(unknown_kind(other)),
        }
    }

    /// Returns the spec with this many shards per batch at most (0 =
    /// one per core).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// The error for a kind that is neither `auto` nor one of
/// [`BUILTIN_KINDS`].
fn unknown_kind(kind: &str) -> Error {
    Error::Runtime {
        context: format!(
            "no engine of kind '{kind}' (have: {AUTO}, {})",
            BUILTIN_KINDS.join(", ")
        ),
    }
}

/// Refuses weights holding `i32::MIN`, which no engine serves alike:
/// the sign-split circuit would clamp its magnitude to `i32::MAX` while
/// every other engine multiplies it as it is, so its answer would depend
/// on the engine — and, with singles served from a body, on the tier.
/// Every engine serves the weights `±(2^31 − 1)`.
pub(crate) fn check_domain(weights: &[i32]) -> Result<()> {
    if weights.contains(&i32::MIN) {
        return Err(Error::WeightOutOfDomain { value: i32::MIN });
    }
    Ok(())
}

/// Resolves a spec into a live engine over `matrix`. The dense engine
/// keeps the matrix; the others derive their own representation from it,
/// and a `bitserial` build compiles its circuit here, every time.
/// Fails with [`Error::Runtime`] when the spec's kind is not one of
/// [`BUILTIN_KINDS`] (an `auto` spec is planned first), and with
/// [`Error::WeightOutOfDomain`] when the matrix holds `i32::MIN`
/// ([`check_domain`]).
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
pub(crate) fn build(matrix: IntMatrix, spec: &EngineSpec) -> Result<Arc<dyn GemvBackend>> {
    check_domain(matrix.as_slice())?;
    build_in_domain(matrix, spec)
}

/// [`build`] for a matrix [`check_domain`] has passed.
fn build_in_domain(matrix: IntMatrix, spec: &EngineSpec) -> Result<Arc<dyn GemvBackend>> {
    Ok(match spec.kind() {
        "dense" => Arc::new(DenseRef::new(matrix)),
        "csr" => Arc::new(SparseCsr::new(&matrix)),
        "bitserial" => Arc::new(BitSerial::new(Arc::new(FixedMatrixMultiplier::compile(
            &matrix,
            INPUT_BITS,
            ENCODING,
        )?))),
        "sigma" => Arc::new(SigmaEngine::new(&matrix)),
        other => return Err(unknown_kind(other)),
    })
}

/// [`build`] from a matrix kept as its body: `csr` builds straight from
/// the non-zeros ([`Csr::from_body`]); every other kind decodes the
/// dense matrix once and is built as [`build`] builds it. Only a body at
/// 4 bytes per value can hold `i32::MIN`, so only such a body's values
/// are read for [`check_domain`].
pub(crate) fn build_body(body: &MatrixBody, spec: &EngineSpec) -> Result<Arc<dyn GemvBackend>> {
    if body.width() == 4 {
        check_domain(&body.values())?;
    }
    match spec.kind() {
        "csr" => Ok(Arc::new(SparseCsr::from_csr(Csr::from_body(body)))),
        _ => build_in_domain(body.to_matrix()?, spec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan;
    use smm_core::generate::element_sparse_matrix;
    use smm_core::rng::seeded;

    #[test]
    fn builtin_registry_builds_bit_identical_engines() {
        let mut rng = seeded(2700);
        let v = element_sparse_matrix(10, 8, 8, 0.5, true, &mut rng).unwrap();
        let a: Vec<i32> = (0..10).map(|i| i - 5).collect();
        let expect = smm_core::gemv::vecmat(&a, &v).unwrap();
        for kind in BUILTIN_KINDS {
            let engine = build(v.clone(), &EngineSpec::new(kind)).unwrap();
            assert_eq!(engine.name(), kind);
            assert_eq!(engine.gemv(&a).unwrap(), expect, "{kind}");
        }
    }

    #[test]
    fn unknown_kind_is_a_clean_error() {
        let v = IntMatrix::identity(2).unwrap();
        let spec = EngineSpec::new("tpu");
        let Err(built) = build(v.clone(), &spec) else {
            panic!("unknown kind must not build");
        };
        // Planning refuses the kind with the same typed error, so a
        // session never gets as far as the build.
        let planned = plan(&v, &spec).unwrap_err();
        assert_eq!(built, planned);
        assert!(matches!(built, Error::Runtime { .. }), "{built:?}");
        let text = built.to_string();
        for name in ["tpu", AUTO].into_iter().chain(BUILTIN_KINDS) {
            assert!(text.contains(name), "{text}");
        }
    }
}
