//! Engine descriptions ([`EngineSpec`]) and the pluggable factory
//! registry ([`EngineRegistry`]) that turns them into live engines.
//!
//! An [`EngineSpec`] is a plain, serializable *description* of a compute
//! engine: which kind ("dense", "csr", "bitserial", "sigma", or anything
//! a custom factory registers) plus the options every engine family understands —
//! operand width, weight encoding, and batch shard count. Specs are
//! cheap values: they can be compared, printed, parsed back, stored in a
//! config file, or shipped over a wire long before any matrix exists.
//!
//! An [`EngineRegistry`] maps kind names to factories. Resolving a spec
//! against a matrix ([`EngineRegistry::build`]) is the **only** way the
//! serving stack constructs a [`GemvBackend`] — the CLI, the TCP server,
//! the examples, and the tests all go through here (usually indirectly,
//! via [`crate::Session`]). New engine families (an FPGA bitstream
//! driver, a GPU kernel, a CGRA cost model) plug in by registering a
//! factory under a new name; nothing else in the stack changes.

use crate::backend::{BitSerial, DenseRef, GemvBackend, SigmaEngine, SparseCsr};
use crate::cache::MultiplierCache;
use smm_bitserial::multiplier::WeightEncoding;
use smm_core::error::{Error, Result};
use smm_core::matrix::IntMatrix;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The built-in engine kind names, in planning order.
pub const BUILTIN_KINDS: [&str; 4] = ["dense", "csr", "bitserial", "sigma"];

/// A serializable description of a compute engine: kind + options.
///
/// ```
/// use smm_runtime::EngineSpec;
///
/// let spec = EngineSpec::bitserial().input_bits(12).threads(4);
/// assert_eq!(spec.kind(), "bitserial");
/// assert_eq!(spec.to_string().parse::<EngineSpec>().unwrap(), spec);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSpec {
    /// Registry key naming the engine family.
    kind: String,
    /// Signed input operand width in bits.
    pub input_bits: u32,
    /// Weight encoding compiled into circuit engines.
    pub encoding: WeightEncoding,
    /// Most shards one batch is cut into for the process's worker pool
    /// (0 = one per core). Spawns nothing: the pool's size is the
    /// machine's, not the spec's.
    pub threads: usize,
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
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// Returns the spec with this input operand width.
    pub fn input_bits(mut self, bits: u32) -> Self {
        self.input_bits = bits;
        self
    }

    /// Returns the spec with this weight encoding.
    pub fn encoding(mut self, encoding: WeightEncoding) -> Self {
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

impl std::fmt::Display for EngineSpec {
    /// Compact text form, e.g. `csr@8b/pn/t0` or
    /// `bitserial@8b/csd-c9/t2` (CSD chain policy `c`oinflip / `a`lways /
    /// `n`ever, then the seed). [`std::str::FromStr`] parses it back.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let encoding = match self.encoding {
            WeightEncoding::Pn => "pn".to_string(),
            WeightEncoding::Csd { policy, seed } => {
                let p = match policy {
                    smm_core::csd::ChainPolicy::CoinFlip => 'c',
                    smm_core::csd::ChainPolicy::Always => 'a',
                    smm_core::csd::ChainPolicy::Never => 'n',
                };
                format!("csd-{p}{seed}")
            }
        };
        write!(
            f,
            "{}@{}b/{}/t{}",
            self.kind, self.input_bits, encoding, self.threads
        )
    }
}

impl std::str::FromStr for EngineSpec {
    type Err = Error;

    /// Parses either a bare kind name (`"csr"`, with default options) or
    /// the full [`Display`](std::fmt::Display) form (`"csr@8b/pn/t2"`).
    /// `"sparse"` is accepted as an alias for `"csr"`.
    fn from_str(s: &str) -> Result<Self> {
        let bad = |context: String| Error::Runtime { context };
        let (kind, rest) = match s.split_once('@') {
            None => (s, None),
            Some((kind, rest)) => (kind, Some(rest)),
        };
        let kind = match kind {
            "sparse" => "csr",
            "" => return Err(bad(format!("engine spec '{s}' names no kind"))),
            k => k,
        };
        let mut spec = EngineSpec::new(kind);
        let Some(rest) = rest else { return Ok(spec) };
        let parts: Vec<&str> = rest.split('/').collect();
        let [bits, encoding, threads] = parts[..] else {
            return Err(bad(format!(
                "engine spec '{s}' is not of the form kind@Nb/enc/tN"
            )));
        };
        spec.input_bits = bits
            .strip_suffix('b')
            .and_then(|b| b.parse().ok())
            .ok_or_else(|| bad(format!("bad operand width '{bits}' in spec '{s}'")))?;
        spec.encoding = match encoding {
            "pn" => WeightEncoding::Pn,
            e => {
                let parsed = e.strip_prefix("csd-").and_then(|rest| {
                    let mut chars = rest.chars();
                    let policy = match chars.next()? {
                        'c' => smm_core::csd::ChainPolicy::CoinFlip,
                        'a' => smm_core::csd::ChainPolicy::Always,
                        'n' => smm_core::csd::ChainPolicy::Never,
                        _ => return None,
                    };
                    Some(WeightEncoding::Csd {
                        policy,
                        seed: chars.as_str().parse().ok()?,
                    })
                });
                parsed.ok_or_else(|| bad(format!("bad encoding '{encoding}' in spec '{s}'")))?
            }
        };
        spec.threads = threads
            .strip_prefix('t')
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad(format!("bad thread count '{threads}' in spec '{s}'")))?;
        Ok(spec)
    }
}

/// Everything a factory may consult while building an engine.
pub struct EngineContext<'a> {
    /// The fixed matrix the engine will serve.
    pub matrix: &'a IntMatrix,
    /// The full spec being resolved (options included).
    pub spec: &'a EngineSpec,
    /// The shared compiled-multiplier cache; circuit-building factories
    /// must compile through it so repeat loads never recompile.
    pub cache: &'a MultiplierCache,
}

/// A factory building one engine family from a context.
pub type EngineFactory =
    Arc<dyn Fn(&EngineContext<'_>) -> Result<Arc<dyn GemvBackend>> + Send + Sync>;

/// The pluggable map from engine kind names to factories.
///
/// ```
/// use smm_core::matrix::IntMatrix;
/// use smm_runtime::{EngineRegistry, EngineSpec, MultiplierCache};
///
/// let registry = EngineRegistry::builtin();
/// let v = IntMatrix::identity(3).unwrap();
/// let cache = MultiplierCache::new();
/// let engine = registry.build(&v, &EngineSpec::csr(), &cache).unwrap();
/// assert_eq!(engine.name(), "csr");
/// assert_eq!(engine.gemv(&[1, 2, 3]).unwrap(), vec![1, 2, 3]);
/// ```
#[derive(Clone)]
pub struct EngineRegistry {
    factories: BTreeMap<String, EngineFactory>,
}

impl std::fmt::Debug for EngineRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineRegistry")
            .field("kinds", &self.kinds().collect::<Vec<_>>())
            .finish()
    }
}

impl Default for EngineRegistry {
    fn default() -> Self {
        Self::builtin()
    }
}

impl EngineRegistry {
    /// A registry with no factories; [`EngineRegistry::register`] from
    /// scratch.
    pub fn empty() -> Self {
        Self {
            factories: BTreeMap::new(),
        }
    }

    /// The four built-in engine families: `dense`, `csr`, `bitserial`,
    /// `sigma`.
    pub fn builtin() -> Self {
        let mut registry = Self::empty();
        registry.register("dense", |ctx| {
            Ok(Arc::new(DenseRef::new(ctx.matrix)) as Arc<dyn GemvBackend>)
        });
        registry.register("csr", |ctx| {
            Ok(Arc::new(SparseCsr::new(ctx.matrix)) as Arc<dyn GemvBackend>)
        });
        registry.register("bitserial", |ctx| {
            let circuit =
                ctx.cache
                    .get_or_compile(ctx.matrix, ctx.spec.input_bits, ctx.spec.encoding)?;
            Ok(Arc::new(BitSerial::new(circuit)) as Arc<dyn GemvBackend>)
        });
        registry.register("sigma", |ctx| {
            Ok(Arc::new(SigmaEngine::new(ctx.matrix)) as Arc<dyn GemvBackend>)
        });
        registry
    }

    /// Registers (or replaces) the factory for an engine kind.
    pub fn register(
        &mut self,
        kind: impl Into<String>,
        factory: impl Fn(&EngineContext<'_>) -> Result<Arc<dyn GemvBackend>> + Send + Sync + 'static,
    ) {
        self.factories.insert(kind.into(), Arc::new(factory));
    }

    /// Whether a factory is registered for this kind.
    pub fn contains(&self, kind: &str) -> bool {
        self.factories.contains_key(kind)
    }

    /// The registered kind names, sorted.
    pub fn kinds(&self) -> impl Iterator<Item = &str> {
        self.factories.keys().map(String::as_str)
    }

    /// Resolves a spec into a live engine for `matrix`. Fails with
    /// [`Error::Runtime`] when no factory is registered under the spec's
    /// kind.
    pub fn build(
        &self,
        matrix: &IntMatrix,
        spec: &EngineSpec,
        cache: &MultiplierCache,
    ) -> Result<Arc<dyn GemvBackend>> {
        let factory = self.factories.get(spec.kind()).ok_or_else(|| Error::Runtime {
            context: format!(
                "no engine factory registered for '{}' (have: {})",
                spec.kind(),
                self.kinds().collect::<Vec<_>>().join(", ")
            ),
        })?;
        factory(&EngineContext {
            matrix,
            spec,
            cache,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_core::generate::element_sparse_matrix;
    use smm_core::rng::seeded;

    #[test]
    fn specs_display_and_parse_round_trip() {
        use smm_core::csd::ChainPolicy;
        for spec in [
            EngineSpec::dense(),
            EngineSpec::csr().threads(3),
            EngineSpec::bitserial().input_bits(12),
            // Every CSD chain policy must survive the round trip — the
            // policy changes the compiled circuit and the cache key.
            EngineSpec::bitserial().encoding(WeightEncoding::Csd {
                policy: ChainPolicy::CoinFlip,
                seed: 9,
            }),
            EngineSpec::bitserial().encoding(WeightEncoding::Csd {
                policy: ChainPolicy::Always,
                seed: 0,
            }),
            EngineSpec::bitserial().encoding(WeightEncoding::Csd {
                policy: ChainPolicy::Never,
                seed: u64::MAX,
            }),
        ] {
            let text = spec.to_string();
            assert_eq!(text.parse::<EngineSpec>().unwrap(), spec, "{text}");
        }
        // Bare kind names parse with defaults; "sparse" aliases csr.
        assert_eq!("csr".parse::<EngineSpec>().unwrap(), EngineSpec::csr());
        assert_eq!("sparse".parse::<EngineSpec>().unwrap(), EngineSpec::csr());
        assert!("".parse::<EngineSpec>().is_err());
        assert!("csr@wat".parse::<EngineSpec>().is_err());
        assert!("csr@8b/pn/zz".parse::<EngineSpec>().is_err());
        assert!("bitserial@8b/csd9/t0".parse::<EngineSpec>().is_err());
        assert!("bitserial@8b/csd-x9/t0".parse::<EngineSpec>().is_err());
    }

    #[test]
    fn builtin_registry_builds_bit_identical_engines() {
        let mut rng = seeded(2700);
        let v = element_sparse_matrix(10, 8, 8, 0.5, true, &mut rng).unwrap();
        let registry = EngineRegistry::builtin();
        let cache = MultiplierCache::new();
        let a: Vec<i32> = (0..10).map(|i| i - 5).collect();
        let expect = smm_core::gemv::vecmat(&a, &v).unwrap();
        for kind in BUILTIN_KINDS {
            assert!(registry.contains(kind));
            let engine = registry
                .build(&v, &EngineSpec::new(kind), &cache)
                .unwrap();
            assert_eq!(engine.name(), kind);
            assert_eq!(engine.gemv(&a).unwrap(), expect, "{kind}");
        }
        // The bit-serial build went through the shared cache.
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn unknown_kind_is_a_clean_error() {
        let registry = EngineRegistry::builtin();
        let cache = MultiplierCache::new();
        let v = IntMatrix::identity(2).unwrap();
        let Err(err) = registry.build(&v, &EngineSpec::new("tpu"), &cache) else {
            panic!("unknown kind must not build");
        };
        assert!(err.to_string().contains("tpu"), "{err}");
        assert!(err.to_string().contains("bitserial"), "{err}");
    }

    #[test]
    fn custom_factories_plug_in() {
        /// An engine that negates the dense reference — observably custom.
        struct Negated(DenseRef);
        impl GemvBackend for Negated {
            fn name(&self) -> &'static str {
                "negated"
            }
            fn rows(&self) -> usize {
                self.0.rows()
            }
            fn cols(&self) -> usize {
                self.0.cols()
            }
            fn run_rows(
                &self,
                frames: &smm_core::block::FrameBlock,
                start: usize,
                end: usize,
                out: &mut [i64],
            ) -> Result<()> {
                self.0.run_rows(frames, start, end, out)?;
                out.iter_mut().for_each(|x| *x = -*x);
                Ok(())
            }
        }
        let mut registry = EngineRegistry::builtin();
        registry.register("negated", |ctx| {
            Ok(Arc::new(Negated(DenseRef::new(ctx.matrix))) as Arc<dyn GemvBackend>)
        });
        let cache = MultiplierCache::new();
        let v = IntMatrix::identity(2).unwrap();
        let engine = registry
            .build(&v, &EngineSpec::new("negated"), &cache)
            .unwrap();
        assert_eq!(engine.gemv(&[3, 4]).unwrap(), vec![-3, -4]);
    }
}
