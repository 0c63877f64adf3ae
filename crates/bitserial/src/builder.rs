//! The spatial compiler: fixed weight matrix → bit-serial netlist.
//!
//! This implements Section III of the paper with its fundamental
//! minimization applied literally:
//!
//! 1. The signed matrix arrives pre-split as unsigned `P`/`N` halves
//!    (plain PN split or CSD).
//! 2. For every column, every bit plane of each half selects the input rows
//!    whose weight bit is set. A set bit wires the input straight into the
//!    reduction tree (the AND gate is culled); a clear bit contributes
//!    nothing at all (constant propagation).
//! 3. Selected rows reduce through a binary tree. A tree position with only
//!    one live operand collapses from an adder into a plain D flip-flop
//!    (preserving its one cycle of delay so streams stay bit-aligned); a
//!    position with no live operands vanishes.
//! 4. Per-bit-plane results combine through the Figure 3 chain: working from
//!    the MSb down, each link adds the plane's tree to the accumulated
//!    higher planes, whose extra cycle of delay multiplies them by two. The
//!    top link's "adder with zero" is a D flip-flop; a skipped (empty) plane
//!    is a D flip-flop too.
//! 5. One final bit-serial subtractor per column computes `P − N`. If a
//!    column has no negative (or no positive) terms the subtractor is
//!    culled to a flip-flop (or fed a constant-zero minuend).
//!
//! Every non-constant output delivers bit `j` of its result exactly
//! `anchor = depth + 2` cycles after bit `j` of the input entered (where
//! `depth` is the reduction-tree depth), uniformly across columns — which
//! is what makes the single shared output capture window (and the paper's
//! Equation 5 latency) work.
//!
//! ## Anchors and frame masks
//!
//! For each node the builder records its **anchor** — the cycle at which
//! bit 0 of the node's logical value appears at its output — and whether
//! the node needs **start-of-frame masking** when vectors stream
//! back-to-back. Chain adders and chain flip-flops read their "×2"
//! operand one cycle early; within a single product that slot holds the
//! zero-initialized register, but in streamed operation it holds the tail
//! of the previous vector and must be gated off for one cycle (one AND
//! gate with the traveling start token in hardware).

use crate::netlist::{Netlist, NodeId};
use smm_core::error::{Error, Result};
use smm_core::signsplit::SignSplit;

/// Shape of the per-bit-plane reduction tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TreeShape {
    /// Full balanced binary tree: depth `ceil(log2 R)` — the paper's
    /// design, giving the logarithmic term of Equation 5.
    #[default]
    Balanced,
    /// Linear (skewed) reduction: one adder after another, depth up to
    /// `R − 1`. Exists as an ablation of the balanced-tree choice; it
    /// costs the same logic but ruins latency and flip-flop count.
    Skewed,
}

/// Build-time options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BuildOptions {
    /// Reduction tree shape (ablate with [`TreeShape::Skewed`]).
    pub tree_shape: TreeShape,
    /// Share identical reduction subtrees across bit planes and columns
    /// (common-subexpression elimination). The paper observes that its RTL
    /// flow does no cross-element optimization (Figure 7: cost exactly
    /// linear per element); this switch quantifies what that leaves on the
    /// table. Small spans near the leaves collide constantly — even random
    /// matrices share ~25-30 % of their logic — and structured (repeated-
    /// column) matrices share most of it, at the price of higher fanout on
    /// the shared nodes. Default off, matching the paper.
    pub subtree_sharing: bool,
}

/// A compiled column-circuit bundle: the netlist plus the decode metadata
/// the simulator needs.
#[derive(Debug, Clone)]
pub struct BuiltCircuit {
    /// The gate-level netlist.
    pub netlist: Netlist,
    /// Cycle at which bit 0 of every live output becomes valid.
    pub output_anchor: u32,
    /// Unsigned bit width of the weight planes that were instantiated.
    pub(crate) weight_bits: u32,
    /// Per-node anchor: cycle at which the node's logical bit 0 appears.
    pub(crate) anchors: Vec<u32>,
    /// Per-node flag: operand must be gated to zero during the node's
    /// start-of-frame cycle when streaming vectors back-to-back.
    pub(crate) mask_at_start: Vec<bool>,
}

/// `ceil(log2 n)` for `n ≥ 1`.
pub fn ceil_log2(n: usize) -> u32 {
    n.next_power_of_two().trailing_zeros()
}

/// Netlist construction with anchor and frame-mask bookkeeping.
struct CircuitBuilder {
    net: Netlist,
    anchors: Vec<u32>,
    mask_at_start: Vec<bool>,
    /// Subtree-sharing memo: `(span_lo, span_len, live rows)` → root node.
    /// Only populated when [`BuildOptions::subtree_sharing`] is on.
    memo: std::collections::HashMap<(usize, usize, Vec<u32>), Option<NodeId>>,
    sharing: bool,
}

impl CircuitBuilder {
    fn new(rows: usize, sharing: bool) -> Self {
        Self {
            net: Netlist::new(rows),
            anchors: vec![0; rows],
            mask_at_start: vec![false; rows],
            memo: std::collections::HashMap::new(),
            sharing,
        }
    }

    fn push_meta(&mut self, id: NodeId, anchor: u32, mask: bool) -> NodeId {
        debug_assert_eq!(id.index(), self.anchors.len());
        self.anchors.push(anchor);
        self.mask_at_start.push(mask);
        id
    }

    fn anchor(&self, id: NodeId) -> u32 {
        self.anchors[id.index()]
    }

    /// A constant-zero wire usable at any anchor.
    fn zero(&mut self, anchor: u32) -> NodeId {
        let id = self.net.zero();
        self.push_meta(id, anchor, false)
    }

    /// Aligned tree adder: both operands at the same anchor.
    fn tree_adder(&mut self, a: NodeId, b: NodeId) -> NodeId {
        debug_assert_eq!(self.anchor(a), self.anchor(b), "tree add misaligned");
        let anchor = self.anchor(a) + 1;
        let id = self.net.adder(a, b);
        self.push_meta(id, anchor, false)
    }

    /// Pure-delay flip-flop: value unchanged, anchor advances.
    fn delay_dff(&mut self, d: NodeId) -> NodeId {
        let anchor = self.anchor(d) + 1;
        let id = self.net.dff(d);
        self.push_meta(id, anchor, false)
    }

    /// Chain flip-flop: the one-cycle delay *is* a ×2; the logical anchor
    /// stays put and the stale cross-frame bit must be masked.
    fn chain_dff(&mut self, d: NodeId) -> NodeId {
        let anchor = self.anchor(d);
        let id = self.net.dff(d);
        self.push_meta(id, anchor, true)
    }

    /// Chain adder `t + 2^δ·acc` with `δ = anchor(acc) − anchor(t) + 1 ≥ 1`
    /// provided by the accumulated operand's extra delay.
    fn chain_adder(&mut self, t: NodeId, acc: NodeId) -> NodeId {
        debug_assert!(self.anchor(acc) >= self.anchor(t), "chain add misaligned");
        let anchor = self.anchor(t) + 1;
        let id = self.net.adder(t, acc);
        self.push_meta(id, anchor, true)
    }

    /// Aligned subtractor `a − b`.
    fn subtractor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        debug_assert_eq!(self.anchor(a), self.anchor(b), "subtract misaligned");
        let anchor = self.anchor(a) + 1;
        let id = self.net.subtractor(a, b);
        self.push_meta(id, anchor, false)
    }
}

/// Builds the spatial multiplier netlist for a sign-split weight matrix.
///
/// `split` supplies the unsigned `P`/`N` halves (`V = P − N`). Input vectors
/// are signed and streamed LSB-first with sign extension; the circuit
/// computes `o = aᵀV` with one live output tap per non-trivial column.
pub fn build_circuit(split: &SignSplit) -> Result<BuiltCircuit> {
    build_circuit_with(split, BuildOptions::default())
}

/// [`build_circuit`] with explicit [`BuildOptions`].
pub fn build_circuit_with(split: &SignSplit, options: BuildOptions) -> Result<BuiltCircuit> {
    let (rows, cols) = split.shape();
    if rows == 0 || cols == 0 {
        return Err(Error::EmptyDimension);
    }
    let weight_bits = split.weight_bits();
    let depth = match options.tree_shape {
        TreeShape::Balanced => ceil_log2(rows),
        TreeShape::Skewed => (rows - 1) as u32,
    };
    let mut b = CircuitBuilder::new(rows, options.subtree_sharing);
    let mut outputs = Vec::with_capacity(cols);

    for col in 0..cols {
        let p = build_column_chain(&mut b, split.pos.col(col), weight_bits, depth, options)?;
        let n = build_column_chain(&mut b, split.neg.col(col), weight_bits, depth, options)?;
        let out = match (p, n) {
            (None, None) => None,
            // No negative terms: the subtractor's zero subtrahend culls it
            // to a flip-flop (keeping the +1 cycle so columns stay aligned).
            (Some(p), None) => Some(b.delay_dff(p)),
            // No positive terms: 0 − N needs the explicit zero minuend.
            (None, Some(n)) => {
                let z = b.zero(b.anchor(n));
                Some(b.subtractor(z, n))
            }
            (Some(p), Some(n)) => Some(b.subtractor(p, n)),
        };
        outputs.push(out);
    }
    b.net.set_outputs(outputs);
    Ok(BuiltCircuit {
        netlist: b.net,
        output_anchor: depth + 2,
        weight_bits,
        anchors: b.anchors,
        mask_at_start: b.mask_at_start,
    })
}

/// Builds the per-bit-plane trees and the MSb-to-LSb combination chain for
/// one column of one unsigned weight half. Returns `None` when the column
/// is entirely zero in this half.
fn build_column_chain(
    b: &mut CircuitBuilder,
    column: Vec<i32>,
    weight_bits: u32,
    depth: u32,
    options: BuildOptions,
) -> Result<Option<NodeId>> {
    for &w in &column {
        if w < 0 {
            return Err(Error::ValueOutOfRange {
                value: w,
                bits: weight_bits,
                signed: false,
            });
        }
    }
    let mut acc: Option<NodeId> = None;
    for bit in (0..weight_bits).rev() {
        let tree = match options.tree_shape {
            TreeShape::Balanced => build_plane_tree(b, &column, bit, 0, column.len(), depth),
            TreeShape::Skewed => build_plane_skewed(b, &column, bit, depth),
        };
        acc = match (tree, acc) {
            (None, None) => None,
            // Top of the chain: "the MSb is fed into a bit-serial adder
            // along with 0, which becomes a D flip-flop".
            (Some(t), None) => Some(b.delay_dff(t)),
            // Empty plane: the accumulated value still needs its ×2 shift,
            // which one cycle of delay provides.
            (None, Some(a)) => Some(b.chain_dff(a)),
            // Live plane: the chain adder sums the plane's tree with twice
            // the accumulated higher planes (the delay *is* the ×2).
            (Some(t), Some(a)) => Some(b.chain_adder(t, a)),
        };
    }
    Ok(acc)
}

/// Recursively builds the full balanced reduction tree over rows
/// `lo..lo+len` of one bit plane, returning the live subtree root (if any).
///
/// `level_budget` is the number of tree levels remaining below the root of
/// this span; the returned node, when live, sits exactly `level_budget`
/// register stages above the inputs, so sibling subtrees are always
/// bit-aligned regardless of where their live leaves sit.
fn build_plane_tree(
    b: &mut CircuitBuilder,
    column: &[i32],
    bit: u32,
    lo: usize,
    len: usize,
    level_budget: u32,
) -> Option<NodeId> {
    // Subtree sharing: a span's circuit is fully determined by which of
    // its rows are selected, so identical live sets (across planes and
    // columns) can reuse one subtree. Spans below a threshold are not
    // worth the memo overhead.
    const SHARING_MIN_SPAN: usize = 4;
    let key = if b.sharing && len >= SHARING_MIN_SPAN {
        let live: Vec<u32> = (lo..lo + len)
            .filter(|&r| (column[r] >> bit) & 1 == 1)
            .map(|r| r as u32)
            .collect();
        let key = (lo, len, live);
        if let Some(&hit) = b.memo.get(&key) {
            return hit;
        }
        Some(key)
    } else {
        None
    };
    let result = build_plane_tree_fresh(b, column, bit, lo, len, level_budget);
    if let Some(key) = key {
        b.memo.insert(key, result);
    }
    result
}

/// The uncached tree construction behind [`build_plane_tree`].
fn build_plane_tree_fresh(
    b: &mut CircuitBuilder,
    column: &[i32],
    bit: u32,
    lo: usize,
    len: usize,
    level_budget: u32,
) -> Option<NodeId> {
    if len == 1 {
        let selected = (column[lo] >> bit) & 1 == 1;
        let leaf = selected.then(|| b.net.input(lo));
        // A live leaf below a deeper span still needs `level_budget` delay
        // stages to stay aligned with siblings (the culled-adder DFFs).
        return leaf.map(|mut node| {
            for _ in 0..level_budget {
                node = b.delay_dff(node);
            }
            node
        });
    }
    // Split at the largest power of two below `len` so the shape matches a
    // full tree over the next power of two of R (left side full).
    let half = len.next_power_of_two() / 2;
    debug_assert!(half >= 1 && half < len);
    let left = build_plane_tree(b, column, bit, lo, half, level_budget - 1);
    let right = build_plane_tree(b, column, bit, lo + half, len - half, level_budget - 1);
    match (left, right) {
        (None, None) => None,
        // Culled adder: one live operand passes through a flip-flop.
        (Some(x), None) | (None, Some(x)) => Some(b.delay_dff(x)),
        (Some(a), Some(other)) => Some(b.tree_adder(a, other)),
    }
}

/// Ablation: linear (skewed) reduction of one bit plane. Leaf `i` needs `i`
/// alignment flip-flops, so depth — and with it Equation 5's tree term —
/// degrades from `log2 R` to `R − 1`.
fn build_plane_skewed(
    b: &mut CircuitBuilder,
    column: &[i32],
    bit: u32,
    depth: u32,
) -> Option<NodeId> {
    let mut acc: Option<NodeId> = None;
    for (row, &w) in column.iter().enumerate() {
        if (w >> bit) & 1 != 1 {
            continue;
        }
        let leaf = b.net.input(row);
        acc = Some(match acc {
            None => leaf,
            Some(a) => {
                // The new operand (anchor 0) must be delayed up to the
                // accumulator's level before the aligned add.
                let mut node = leaf;
                for _ in 0..b.anchor(a) {
                    node = b.delay_dff(node);
                }
                b.tree_adder(node, a)
            }
        });
    }
    // Pad to the uniform plane depth so the chain stays aligned.
    acc.map(|mut node| {
        while b.anchor(node) < depth {
            node = b.delay_dff(node);
        }
        assert!(b.anchor(node) == depth, "skewed plane overflowed depth");
        node
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_core::matrix::IntMatrix;
    use smm_core::signsplit::split_pn;

    fn circuit_for(data: Vec<i32>, rows: usize, cols: usize) -> BuiltCircuit {
        let m = IntMatrix::from_vec(rows, cols, data).unwrap();
        build_circuit(&split_pn(&m)).unwrap()
    }

    /// One 8-bit product through the lockstep driver.
    fn simulate(circuit: &BuiltCircuit, a: &[i32]) -> Vec<i64> {
        let rows = circuit.netlist.num_rows();
        let width = crate::bits::result_width(8, circuit.weight_bits, rows);
        let mut out = vec![0; circuit.netlist.num_outputs()];
        crate::sim::run_lockstep_into_flat(circuit, a, 8, width, &mut out, |_| {});
        out
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn zero_column_is_constant_output() {
        let c = circuit_for(vec![3, 0, 5, 0], 2, 2);
        let outs = c.netlist.outputs();
        assert!(outs[0].is_some());
        assert!(outs[1].is_none());
        let stats = c.netlist.stats();
        assert_eq!(stats.constant_outputs, 1);
    }

    #[test]
    fn anchor_is_depth_plus_two() {
        let c = circuit_for(vec![1; 16], 4, 4);
        assert_eq!(c.output_anchor, ceil_log2(4) + 2);
        let c = circuit_for(vec![1; 10], 5, 2);
        assert_eq!(c.output_anchor, ceil_log2(5) + 2); // 3 + 2
    }

    #[test]
    fn metadata_covers_every_node() {
        let c = circuit_for(vec![3, -5, 0, 7, 1, -2], 3, 2);
        assert_eq!(c.anchors.len(), c.netlist.len());
        assert_eq!(c.mask_at_start.len(), c.netlist.len());
        // Output anchors agree with the uniform value.
        for id in c.netlist.outputs().iter().flatten() {
            assert_eq!(c.anchors[id.index()], c.output_anchor);
        }
    }

    #[test]
    fn all_positive_column_culls_subtractor() {
        let c = circuit_for(vec![1, 1], 2, 1);
        let stats = c.netlist.stats();
        assert_eq!(stats.subtractors, 0);
        assert_eq!(stats.adders, 1); // the two-leaf tree adder
    }

    #[test]
    fn negative_only_column_uses_zero_minuend() {
        let c = circuit_for(vec![-1, -1], 2, 1);
        let stats = c.netlist.stats();
        assert_eq!(stats.subtractors, 1);
        assert_eq!(stats.zeros, 1);
    }

    #[test]
    fn mixed_column_has_one_subtractor() {
        let c = circuit_for(vec![1, -1], 2, 1);
        let stats = c.netlist.stats();
        assert_eq!(stats.subtractors, 1);
        assert_eq!(stats.zeros, 0);
    }

    #[test]
    fn adder_count_tracks_ones() {
        // Weight 1 in every row of a 1-column matrix: one bit plane with R
        // live leaves -> R-1 adders in the tree, no chain adders.
        for r in [2usize, 3, 4, 7, 8, 16] {
            let c = circuit_for(vec![1; r], r, 1);
            let stats = c.netlist.stats();
            assert_eq!(stats.adders, r - 1, "rows {r}");
        }
    }

    #[test]
    fn rejects_negative_split_values() {
        let bad = SignSplit {
            pos: IntMatrix::from_vec(1, 1, vec![-3]).unwrap(),
            neg: IntMatrix::zeros(1, 1).unwrap(),
        };
        assert!(build_circuit(&bad).is_err());
    }

    #[test]
    fn single_row_matrix() {
        let c = circuit_for(vec![3, -2], 1, 2);
        assert_eq!(c.output_anchor, 2); // depth 0 + 2
        assert_eq!(c.netlist.outputs().len(), 2);
        assert!(c.netlist.outputs()[0].is_some());
    }

    #[test]
    fn misaligned_leaf_gets_alignment_dffs() {
        // 5 rows: tree depth 3. A single live leaf must still sit 3 levels
        // deep (as DFFs) so every live root has uniform delay.
        let mut data = vec![0; 5];
        data[4] = 1;
        let c = circuit_for(data, 5, 1);
        let stats = c.netlist.stats();
        assert_eq!(stats.adders, 0);
        // 3 tree-level DFFs + 1 chain-top DFF + 1 culled-subtractor DFF.
        assert_eq!(stats.dffs, 5);
        assert_eq!(stats.register_depth, 5);
    }

    #[test]
    fn subtree_sharing_correct_and_big_on_structured_matrices() {
        use smm_core::generate::{element_sparse_matrix, random_vector};
        use smm_core::rng::seeded;

        // A matrix whose columns repeat: sharing should collapse most of
        // the tree logic.
        let mut rng = seeded(55);
        let base = element_sparse_matrix(32, 1, 8, 0.5, true, &mut rng).unwrap();
        let repeated =
            IntMatrix::from_fn(32, 16, |r, _| base[(r, 0)]).unwrap();
        let split = split_pn(&repeated);
        let plain = build_circuit_with(&split, BuildOptions::default()).unwrap();
        let shared = build_circuit_with(
            &split,
            BuildOptions {
                subtree_sharing: true,
                ..BuildOptions::default()
            },
        )
        .unwrap();
        let plain_logic = plain.netlist.stats().logic_elements();
        let shared_logic = shared.netlist.stats().logic_elements();
        // Trees collapse to one copy; per-column chains and subtractors
        // remain, so savings land near (columns-1)/columns of tree logic.
        assert!(
            shared_logic * 3 < plain_logic,
            "sharing saved too little: {shared_logic} vs {plain_logic}"
        );
        // And the shared circuit still computes the right thing.
        let a = random_vector(32, 8, true, &mut rng).unwrap();
        assert_eq!(
            simulate(&shared, &a),
            smm_core::gemv::vecmat(&a, &repeated).unwrap()
        );
    }

    #[test]
    fn subtree_sharing_on_random_matrices_finds_leaf_span_collisions() {
        // A finding beyond the paper: even random matrices share 25-30 %
        // of their tree logic, because the space of small leaf-span
        // patterns is tiny (a 4-row span has only 16 possible live sets,
        // and hundreds of plane-trees sample it). The paper's flow leaves
        // this on the table; the fanout cost is the catch.
        use smm_core::generate::{element_sparse_matrix, random_vector};
        use smm_core::rng::seeded;

        let mut rng = seeded(56);
        let m = element_sparse_matrix(48, 48, 8, 0.6, true, &mut rng).unwrap();
        let split = split_pn(&m);
        let plain = build_circuit_with(&split, BuildOptions::default()).unwrap();
        let shared = build_circuit_with(
            &split,
            BuildOptions {
                subtree_sharing: true,
                ..BuildOptions::default()
            },
        )
        .unwrap();
        let plain_logic = plain.netlist.stats().logic_elements() as f64;
        let shared_logic = shared.netlist.stats().logic_elements() as f64;
        let savings = 1.0 - shared_logic / plain_logic;
        assert!(
            (0.10..0.50).contains(&savings),
            "sharing savings out of expected band: {savings}"
        );
        // Input taps shrink (each shared subtree reads its inputs once);
        // the fanout burden moves onto the internal shared nodes.
        assert!(shared.netlist.stats().input_taps <= plain.netlist.stats().input_taps);
        // Still functionally exact.
        let a = random_vector(48, 8, true, &mut rng).unwrap();
        assert_eq!(
            simulate(&shared, &a),
            smm_core::gemv::vecmat(&a, &m).unwrap()
        );
    }

    #[test]
    fn skewed_tree_is_deeper_same_logic() {
        let m = IntMatrix::from_vec(8, 1, vec![1; 8]).unwrap();
        let split = split_pn(&m);
        let balanced = build_circuit_with(&split, BuildOptions::default()).unwrap();
        let skewed = build_circuit_with(
            &split,
            BuildOptions {
                tree_shape: TreeShape::Skewed,
                ..BuildOptions::default()
            },
        )
        .unwrap();
        // Same adders (one per merged operand pair)...
        assert_eq!(
            balanced.netlist.stats().adders,
            skewed.netlist.stats().adders
        );
        // ...but the skewed anchor is R+1 vs log2(R)+2.
        assert_eq!(balanced.output_anchor, 3 + 2);
        assert_eq!(skewed.output_anchor, 7 + 2);
        // And the skewed design burns far more flip-flops on alignment.
        assert!(skewed.netlist.stats().dffs > balanced.netlist.stats().dffs);
    }
}
