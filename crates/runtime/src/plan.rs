//! Backend planning: choosing the right engine for a matrix.
//!
//! Backend choice used to be a manual flag at every call site. This
//! module makes it a *property of the matrix*: [`plan`] prices each auto
//! candidate in nanoseconds per frame from the matrix's own counts —
//! rows, columns and non-zeros, nothing else — and emits an
//! [`EnginePlan`] naming the cheapest [`EngineSpec`] with a
//! human-readable rationale that carries the numbers.
//!
//! Only an `auto` spec ([`EngineSpec::auto`]) is priced. A spec that
//! names one of [`BUILTIN_KINDS`] always wins: [`plan`] passes it
//! through and prices nothing.
//!
//! The costs describe the kernels that will run, at the rates the
//! committed benchmark report measured them (`BENCH_18.json`; each
//! constant below names its rung):
//!
//! * `dense` costs `rows · cols × DENSE_NS_PER_MAC` — the reference
//!   kernel pays for every element, zero or not;
//! * `csr` costs `nnz × CSR_NS_PER_NNZ` — the gather touches each
//!   non-zero once.
//!
//! `bitserial` and `sigma` are explicit-only. `bitserial` is a
//! cycle-accurate simulation of the spatial circuit, hundreds of times
//! slower than any kernel above on the same matrix whether or not its
//! circuit is already compiled. `sigma`'s tile-mapped dataflow touches
//! each non-zero once, like `csr`, at twice the price (rung
//! `runtime.backend.run_rows_us.sigma`), so it could only ever tie `csr`
//! on an all-zero matrix, where `csr` comes first.
//!
//! The cheapest candidate wins. Candidates are priced in
//! [`BUILTIN_KINDS`] order and ties keep the earliest, so planning is a
//! pure, reproducible function of the matrix.

use crate::spec::{EngineSpec, BUILTIN_KINDS};
use smm_core::error::Result;
use smm_core::matrix::IntMatrix;
use smm_core::wire::MatrixBody;

/// The dense kernel, per multiply-accumulate: rung
/// `core.gemv.dense_ns_per_mac.{256,1024}` (0.28 and 0.32).
const DENSE_NS_PER_MAC: f64 = 0.30;
/// The CSR gather, per non-zero: rung `sparse.csr.ns_per_nnz_single`
/// (0.40 in `BENCH_18.json`). `BENCH_42.json`, whose 8-bit frame takes
/// the gather's `f32` lanes, reads 0.41 beside dense rungs of 0.40 and
/// 0.42: both moved with the host, and 0.41 changes no plan on the
/// `plan_regret` grid, so the constant stays.
const CSR_NS_PER_NNZ: f64 = 0.40;

/// Everything a cost is computed from.
struct Counts {
    rows: usize,
    cols: usize,
    nnz: usize,
}

/// One engine auto planning may choose: its cost per frame is
/// `work(counts) × ns_per_unit`.
struct AutoCandidate {
    kind: &'static str,
    work: fn(&Counts) -> usize,
    unit: &'static str,
    ns_per_unit: f64,
}

/// The auto candidates, a subsequence of [`BUILTIN_KINDS`] in its order.
/// A kind is a candidate exactly when it has a row here, so none can be
/// planned without a cost.
const AUTO_CANDIDATES: [AutoCandidate; 2] = [
    AutoCandidate {
        kind: "dense",
        work: |m| m.rows * m.cols,
        unit: "MACs",
        ns_per_unit: DENSE_NS_PER_MAC,
    },
    AutoCandidate {
        kind: "csr",
        work: |m| m.nnz,
        unit: "nnz",
        ns_per_unit: CSR_NS_PER_NNZ,
    },
];

/// The shard count of a [`PlanPolicy::Auto`].
///
/// Kept, with [`PlanPolicy`] and `SessionBuilder::policy`, only as the
/// serving benchmark's adapter, which names them; everything else says
/// [`EngineSpec::auto`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AutoOptions {
    /// Most shards one batch is cut into (0 = one per core).
    pub threads: usize,
}

/// An older spelling of an [`EngineSpec`], kept only as the serving
/// benchmark's adapter (see [`AutoOptions`]): it means exactly the spec
/// it converts into.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanPolicy {
    /// This spec.
    Explicit(EngineSpec),
    /// [`EngineSpec::auto`] with these options.
    Auto(AutoOptions),
}

impl From<PlanPolicy> for EngineSpec {
    fn from(policy: PlanPolicy) -> Self {
        match policy {
            PlanPolicy::Explicit(spec) => spec,
            PlanPolicy::Auto(options) => EngineSpec::auto().threads(options.threads),
        }
    }
}

/// One priced contender from an auto plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCandidate {
    /// Engine kind name.
    pub kind: String,
    /// Modelled cost of one frame, in nanoseconds; lowest wins.
    pub cost_ns: f64,
    /// The work count and rate the cost is the product of.
    pub(crate) reason: String,
}

/// The planner's verdict: the winning spec, its cost, the human-readable
/// rationale, and every candidate considered.
#[derive(Debug, Clone, PartialEq)]
pub struct EnginePlan {
    /// The spec the session will build through `crate::spec::build`.
    pub spec: EngineSpec,
    /// The winner's cost per frame in nanoseconds (0.0 for a spec that
    /// names its kind, which prices nothing).
    pub cost_ns: f64,
    /// One sentence a human can read in a log and believe.
    pub rationale: String,
    /// All candidates considered, in evaluation order.
    pub candidates: Vec<PlanCandidate>,
}

/// Plans an engine for `matrix` under `spec` — a pure function of the
/// two. Fails when the spec's kind is neither `auto` nor one of
/// [`BUILTIN_KINDS`].
pub(crate) fn plan(matrix: &IntMatrix, spec: &EngineSpec) -> Result<EnginePlan> {
    plan_counts(spec, || Counts { rows: matrix.rows(), cols: matrix.cols(), nnz: matrix.nnz() })
}

/// [`plan`] for a matrix kept as its body: the counts come from the
/// body's header, so planning reads no element.
pub(crate) fn plan_body(body: &MatrixBody, spec: &EngineSpec) -> Result<EnginePlan> {
    plan_counts(spec, || Counts { rows: body.rows(), cols: body.cols(), nnz: body.nnz() })
}

/// [`plan`] over the counts an `auto` spec prices; a spec that names its
/// kind never asks for them.
fn plan_counts(spec: &EngineSpec, counts: impl FnOnce() -> Counts) -> Result<EnginePlan> {
    if spec.is_auto()? {
        return Ok(auto_plan(counts(), spec.threads));
    }
    Ok(EnginePlan {
        candidates: vec![PlanCandidate {
            kind: spec.kind().to_string(),
            cost_ns: 0.0,
            reason: "explicitly requested".into(),
        }],
        rationale: format!("explicit policy: {} requested, planning skipped", spec.kind()),
        cost_ns: 0.0,
        spec: spec.clone(),
    })
}

fn auto_plan(counts: Counts, threads: usize) -> EnginePlan {
    let candidates = AUTO_CANDIDATES.map(|c| {
        let work = (c.work)(&counts);
        PlanCandidate {
            kind: c.kind.to_string(),
            cost_ns: work as f64 * c.ns_per_unit,
            reason: format!("{work} {} × {:.2} ns", c.unit, c.ns_per_unit),
        }
    });

    // Strict min in evaluation order: ties keep the earliest.
    let [first, rest @ ..] = &candidates;
    let winner = rest
        .iter()
        .fold(first, |best, c| if c.cost_ns < best.cost_ns { c } else { best });

    let runners_up: Vec<String> = candidates
        .iter()
        .filter(|c| c.kind != winner.kind)
        .map(|c| format!("{} {:.1} ns ({})", c.kind, c.cost_ns, c.reason))
        .collect();
    let explicit_only: Vec<&str> = BUILTIN_KINDS
        .into_iter()
        .filter(|kind| AUTO_CANDIDATES.iter().all(|c| c.kind != *kind))
        .collect();
    let rationale = format!(
        "auto plan for {}x{} ({} nnz, {:.1}% sparse): {} costs {:.1} ns/frame — {}; \
         runners-up: {}; explicit-only: {}",
        counts.rows,
        counts.cols,
        counts.nnz,
        100.0 * (1.0 - counts.nnz as f64 / (counts.rows * counts.cols) as f64),
        winner.kind,
        winner.cost_ns,
        winner.reason,
        runners_up.join(", "),
        explicit_only.join(", "),
    );
    EnginePlan {
        spec: EngineSpec::new(winner.kind.clone()).threads(threads),
        cost_ns: winner.cost_ns,
        rationale,
        candidates: candidates.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use proptest::prelude::*;
    use smm_core::generate::element_sparse_matrix;
    use smm_core::rng::seeded;

    fn plan(matrix: &IntMatrix, spec: &EngineSpec) -> EnginePlan {
        super::plan(matrix, spec).unwrap()
    }

    /// 4x5 with exactly 4 zeros: 20% sparse, so dense must win.
    fn mostly_dense() -> IntMatrix {
        IntMatrix::from_vec(
            4,
            5,
            vec![1, 2, 3, 4, 0, 5, 6, 7, 0, 8, 9, 0, 10, 11, 12, 0, 13, 14, 15, 16],
        )
        .unwrap()
    }

    /// 4x5 with 5 non-zeros: 75% sparse, so csr must win.
    fn mostly_sparse() -> IntMatrix {
        IntMatrix::from_vec(
            4,
            5,
            vec![0, 2, 0, 0, 0, 0, 0, -7, 0, 0, 9, 0, 0, 0, 12, 0, 0, 0, 15, 0],
        )
        .unwrap()
    }

    #[test]
    fn dense_matrix_plans_dense() {
        let plan = plan(&mostly_dense(), &EngineSpec::auto());
        assert_eq!(plan.spec.kind(), "dense");
        assert_eq!(plan.cost_ns, 20.0 * DENSE_NS_PER_MAC);
        assert_eq!(plan.candidates.len(), AUTO_CANDIDATES.len());
    }

    #[test]
    fn half_sparse_plans_csr() {
        // The band the accelerator models used to hand to `sigma`: at
        // 50 % sparse the gather pays 0.40 ns for half the elements, the
        // dense kernel 0.30 ns for all of them.
        let mut rng = seeded(2804);
        let v = element_sparse_matrix(24, 24, 8, 0.5, true, &mut rng).unwrap();
        let plan = plan(&v, &EngineSpec::auto());
        assert_eq!(plan.spec.kind(), "csr", "{}", plan.rationale);
        assert!(plan.rationale.contains("nnz × 0.40 ns"), "{}", plan.rationale);
    }

    #[test]
    fn high_sparsity_plans_csr() {
        let mut rng = seeded(2800);
        let v = element_sparse_matrix(40, 40, 8, 0.95, true, &mut rng).unwrap();
        let plan = plan(&v, &EngineSpec::auto());
        assert_eq!(plan.spec.kind(), "csr", "{}", plan.rationale);
    }

    #[test]
    fn the_table_follows_builtin_order_and_leaves_bitserial_explicit_only() {
        let mut builtin = BUILTIN_KINDS.iter();
        for candidate in &AUTO_CANDIDATES {
            assert!(
                builtin.any(|kind| *kind == candidate.kind),
                "{} is out of BUILTIN_KINDS order",
                candidate.kind
            );
        }
        assert!(AUTO_CANDIDATES
            .iter()
            .all(|c| c.kind != "bitserial" && c.kind != "sigma"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// For any `(rows, cols, nnz)` the winner is the arg-min of the
        /// table with ties to the earliest row, the shard count rides
        /// through untouched, and a session built over the matrix carries
        /// that very plan.
        #[test]
        fn auto_plan_is_the_arg_min_of_the_table(
            seed in any::<u64>(),
            rows in 1usize..14,
            cols in 1usize..14,
            sparsity in 0.0f64..=1.0,
            edge in 0u32..4,
            threads in 0usize..5,
        ) {
            // A quarter of the cases each sit on the fully dense and the
            // all-zero edge, where the exact tie lives.
            let sparsity = match edge {
                0 => 0.0,
                1 => 1.0,
                _ => sparsity,
            };
            let mut rng = seeded(seed);
            let v = element_sparse_matrix(rows, cols, 8, sparsity, true, &mut rng).unwrap();
            let nnz = v.nnz() as f64;
            let costs = [(rows * cols) as f64 * DENSE_NS_PER_MAC, nnz * CSR_NS_PER_NNZ];
            let spec = EngineSpec::auto().threads(threads);
            let planned = plan(&v, &spec);
            prop_assert_eq!(
                planned.candidates.iter().map(|c| c.cost_ns).collect::<Vec<_>>(),
                costs.to_vec()
            );
            let cheapest = costs.iter().copied().fold(f64::INFINITY, f64::min);
            let first = costs.iter().position(|&c| c == cheapest).unwrap();
            prop_assert_eq!(planned.spec.kind(), AUTO_CANDIDATES[first].kind);
            prop_assert_eq!(planned.cost_ns, cheapest);
            prop_assert_eq!(planned.spec.threads, threads);
            // An all-zero matrix costs `csr` nothing.
            if nnz == 0.0 {
                prop_assert_eq!(planned.spec.kind(), "csr");
            }

            let session = Session::builder(v.clone()).spec(spec.clone()).build().unwrap();
            prop_assert_eq!(session.plan(), &planned);
        }
    }

    #[test]
    fn the_benchmark_adapter_means_the_spec_it_converts_into() {
        // `PlanPolicy` and `AutoOptions` survive only for the serving
        // benchmark's session rungs: each must build the very session its
        // spec does, on a matrix where dense, csr, and csr at no cost
        // win the auto plan.
        let zero = IntMatrix::from_vec(3, 4, vec![0; 12]).unwrap();
        for (v, auto_kind) in [(mostly_dense(), "dense"), (mostly_sparse(), "csr"), (zero, "csr")] {
            for threads in [0, 1, 3] {
                let mut pairs = vec![(
                    PlanPolicy::Auto(AutoOptions { threads }),
                    EngineSpec::auto().threads(threads),
                )];
                for kind in BUILTIN_KINDS {
                    let spec = EngineSpec::new(kind).threads(threads);
                    pairs.push((PlanPolicy::Explicit(spec.clone()), spec));
                }
                for (policy, spec) in pairs {
                    let adapted =
                        Session::builder(v.clone()).policy(policy.clone()).build().unwrap();
                    let direct = Session::builder(v.clone()).spec(spec).build().unwrap();
                    assert_eq!(adapted.plan(), direct.plan(), "{policy:?}");
                    assert_eq!(adapted.threads(), direct.threads(), "{policy:?}");
                }
                let auto = Session::builder(v.clone())
                    .spec(EngineSpec::auto().threads(threads))
                    .build()
                    .unwrap();
                assert_eq!(auto.engine().name(), auto_kind, "{}", auto.plan().rationale);
            }
        }
    }

    #[test]
    fn explicit_policy_always_wins() {
        let mut rng = seeded(2802);
        // A 95%-sparse matrix auto-plans csr; explicit dense overrides.
        let v = element_sparse_matrix(30, 30, 8, 0.95, true, &mut rng).unwrap();
        let spec = EngineSpec::dense().threads(2);
        let plan = plan(&v, &spec);
        assert_eq!(plan.spec, spec);
        assert_eq!(plan.cost_ns, 0.0);
        assert_eq!(
            plan.rationale,
            "explicit policy: dense requested, planning skipped"
        );
    }

    #[test]
    fn explicit_unknown_kind_fails_cleanly() {
        let err = super::plan(
            &IntMatrix::identity(2).unwrap(),
            &EngineSpec::new("tpu"),
        )
        .unwrap_err();
        assert!(err.to_string().contains("tpu"), "{err}");
    }

    #[test]
    fn golden_rationale_is_pinned() {
        // The rationale is part of the operator-facing surface (logs, the
        // CLI, the serve reply); pin it exactly so drift is deliberate.
        // Every number in it is a count of the matrix times a named rate.
        let plan = plan(&mostly_dense(), &EngineSpec::auto());
        assert_eq!(
            plan.rationale,
            "auto plan for 4x5 (16 nnz, 20.0% sparse): dense costs 6.0 ns/frame — \
             20 MACs × 0.30 ns; runners-up: \
             csr 6.4 ns (16 nnz × 0.40 ns); explicit-only: bitserial, sigma"
        );
    }

    #[test]
    fn golden_sparse_rationale_is_pinned() {
        // The same pin on the other side of the crossover (75 % sparse),
        // where the winner is not the first row of the table.
        let plan = plan(&mostly_sparse(), &EngineSpec::auto());
        assert_eq!(
            plan.rationale,
            "auto plan for 4x5 (5 nnz, 75.0% sparse): csr costs 2.0 ns/frame — \
             5 nnz × 0.40 ns; runners-up: \
             dense 6.0 ns (20 MACs × 0.30 ns); explicit-only: bitserial, sigma"
        );
    }
}
