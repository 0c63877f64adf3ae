//! The spatial circuit as an explicit gate-level netlist.
//!
//! A [`Netlist`] is a DAG of bit-serial nodes: sign-extending input taps,
//! bit-serial adders/subtractors (each one FPGA LUT plus sum and carry
//! flip-flops), plain D flip-flops (the collapsed form of an adder whose
//! second operand was constant-propagated to zero — the paper's fundamental
//! minimization), and constant-zero wires. Construction order enforces
//! topology: a node may only reference already-created nodes, so ascending
//! id order is a valid evaluation order.

use std::fmt;

/// Identifier of a node within its [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// The node's index into the netlist's node table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The kind (and operands) of one circuit node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Tap of the sign-extending input shift register for one matrix row.
    Input {
        /// The matrix row this tap streams.
        row: u32,
    },
    /// A constant-zero wire (costs nothing; used only where a subtractor
    /// needs an explicit zero minuend).
    Zero,
    /// Bit-serial adder: `a + b` with a registered sum and carry.
    Adder {
        /// First operand.
        a: NodeId,
        /// Second operand.
        b: NodeId,
    },
    /// Bit-serial subtractor: `a − b` (carry preset, `b` inverted).
    Subtractor {
        /// Minuend.
        a: NodeId,
        /// Subtrahend.
        b: NodeId,
    },
    /// A plain D flip-flop: one cycle of delay. This is what remains of an
    /// adder after constant propagation removes a zero operand.
    Dff {
        /// The delayed operand.
        d: NodeId,
    },
}

/// Structural cost and shape statistics of a netlist.
///
/// These are the quantities the paper's FPGA cost model consumes: adders and
/// subtractors map to LUTs one-for-one, flip-flops follow, and the input
/// broadcast fanout drives the frequency model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CircuitStats {
    /// Bit-serial adders (1 LUT + 2 FF each).
    pub adders: usize,
    /// Bit-serial subtractors (1 LUT + 2 FF each).
    pub subtractors: usize,
    /// Plain D flip-flops (1 FF each).
    pub dffs: usize,
    /// Constant-zero wires (free).
    pub zeros: usize,
    /// Number of matrix rows with at least one connected tap.
    pub rows_used: usize,
    /// Total input-tap connections (the input broadcast load).
    pub input_taps: usize,
    /// Largest per-row input fanout — the critical net for timing.
    pub max_input_fanout: usize,
    /// Deepest register chain from any input to any output (pipeline stages).
    pub register_depth: u32,
    /// Output columns that carry a non-constant signal.
    pub live_outputs: usize,
    /// Output columns hardwired to zero (fully culled).
    pub constant_outputs: usize,
}

impl CircuitStats {
    /// Total LUT-mapped logic elements (adders + subtractors).
    pub fn logic_elements(&self) -> usize {
        self.adders + self.subtractors
    }

    /// Total flip-flops implied by the logic (2 per adder/subtractor —
    /// sum and carry — plus 1 per plain DFF). Shift-register storage is
    /// accounted separately by the FPGA resource model.
    pub(crate) fn flip_flops(&self) -> usize {
        2 * self.logic_elements() + self.dffs
    }
}

/// A bit-serial circuit: nodes plus one (optional) output tap per column.
///
/// `None` outputs are columns whose weights were entirely zero — the
/// hardware for them was culled completely and they read as constant 0.
#[derive(Clone)]
pub struct Netlist {
    num_rows: usize,
    nodes: Vec<NodeKind>,
    outputs: Vec<Option<NodeId>>,
}

impl Netlist {
    /// Creates a netlist with input taps for `num_rows` matrix rows
    /// pre-allocated as nodes `0..num_rows`.
    pub fn new(num_rows: usize) -> Self {
        assert!(num_rows > 0, "netlist needs at least one input row");
        assert!(num_rows <= u32::MAX as usize, "row count exceeds NodeId");
        let nodes = (0..num_rows as u32).map(|row| NodeKind::Input { row }).collect();
        Self {
            num_rows,
            nodes,
            outputs: Vec::new(),
        }
    }

    /// The id of the node at `index` in creation order (useful for tools
    /// that iterate [`Netlist::nodes`] and need to query values).
    pub(crate) fn node_id(&self, index: usize) -> NodeId {
        assert!(index < self.nodes.len(), "node index out of range");
        NodeId(index as u32)
    }

    /// The input tap node for `row`.
    pub fn input(&self, row: usize) -> NodeId {
        assert!(row < self.num_rows, "input row out of range");
        NodeId(row as u32)
    }

    /// Number of input rows.
    pub(crate) fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of output columns (after [`Netlist::set_outputs`]).
    pub(crate) fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// All nodes in creation (= topological) order.
    pub fn nodes(&self) -> &[NodeKind] {
        &self.nodes
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The per-column output taps.
    pub fn outputs(&self) -> &[Option<NodeId>] {
        &self.outputs
    }

    fn push(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(kind);
        id
    }

    fn check(&self, id: NodeId) {
        assert!(
            id.index() < self.nodes.len(),
            "operand {id:?} does not exist yet (netlists are built bottom-up)"
        );
    }

    /// Adds a constant-zero wire.
    pub fn zero(&mut self) -> NodeId {
        self.push(NodeKind::Zero)
    }

    /// Adds a bit-serial adder over two existing nodes.
    pub fn adder(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.check(a);
        self.check(b);
        self.push(NodeKind::Adder { a, b })
    }

    /// Adds a bit-serial subtractor `a − b` over two existing nodes.
    pub fn subtractor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.check(a);
        self.check(b);
        self.push(NodeKind::Subtractor { a, b })
    }

    /// Adds a D flip-flop delaying an existing node by one cycle.
    pub fn dff(&mut self, d: NodeId) -> NodeId {
        self.check(d);
        self.push(NodeKind::Dff { d })
    }

    /// Declares the per-column output taps. Every tap must reference an
    /// existing node.
    pub fn set_outputs(&mut self, outputs: Vec<Option<NodeId>>) {
        for id in outputs.iter().flatten() {
            self.check(*id);
        }
        self.outputs = outputs;
    }

    /// Computes structural statistics in one pass.
    pub fn stats(&self) -> CircuitStats {
        let mut stats = CircuitStats::default();
        let mut input_fanout = vec![0usize; self.num_rows];
        let mut depth = vec![0u32; self.nodes.len()];
        let tap = |id: NodeId, fanout: &mut Vec<usize>, nodes: &Vec<NodeKind>| {
            if let NodeKind::Input { row } = nodes[id.index()] {
                fanout[row as usize] += 1;
            }
        };
        for (i, node) in self.nodes.iter().enumerate() {
            match *node {
                NodeKind::Input { .. } => {}
                NodeKind::Zero => stats.zeros += 1,
                NodeKind::Adder { a, b } => {
                    stats.adders += 1;
                    tap(a, &mut input_fanout, &self.nodes);
                    tap(b, &mut input_fanout, &self.nodes);
                    depth[i] = 1 + depth[a.index()].max(depth[b.index()]);
                }
                NodeKind::Subtractor { a, b } => {
                    stats.subtractors += 1;
                    tap(a, &mut input_fanout, &self.nodes);
                    tap(b, &mut input_fanout, &self.nodes);
                    depth[i] = 1 + depth[a.index()].max(depth[b.index()]);
                }
                NodeKind::Dff { d } => {
                    stats.dffs += 1;
                    tap(d, &mut input_fanout, &self.nodes);
                    depth[i] = 1 + depth[d.index()];
                }
            }
        }
        stats.rows_used = input_fanout.iter().filter(|&&f| f > 0).count();
        stats.input_taps = input_fanout.iter().sum();
        stats.max_input_fanout = input_fanout.iter().copied().max().unwrap_or(0);
        stats.register_depth = self
            .outputs
            .iter()
            .flatten()
            .map(|id| depth[id.index()])
            .max()
            .unwrap_or(0);
        stats.live_outputs = self.outputs.iter().filter(|o| o.is_some()).count();
        stats.constant_outputs = self.outputs.len() - stats.live_outputs;
        stats
    }
}

impl fmt::Debug for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Netlist")
            .field("rows", &self.num_rows)
            .field("nodes", &self.nodes.len())
            .field("outputs", &self.outputs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_preallocated() {
        let net = Netlist::new(4);
        assert_eq!(net.len(), 4);
        assert_eq!(net.input(2).index(), 2);
        assert!(matches!(net.nodes()[3], NodeKind::Input { row: 3 }));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_input_row_panics() {
        Netlist::new(2).input(2);
    }

    #[test]
    fn build_small_tree_stats() {
        // Two live inputs of four: adder(in0, in1) -> dff -> output.
        let mut net = Netlist::new(4);
        let a = net.adder(net.input(0), net.input(1));
        let d = net.dff(a);
        net.set_outputs(vec![Some(d), None]);
        let s = net.stats();
        assert_eq!(s.adders, 1);
        assert_eq!(s.dffs, 1);
        assert_eq!(s.subtractors, 0);
        assert_eq!(s.rows_used, 2);
        assert_eq!(s.input_taps, 2);
        assert_eq!(s.max_input_fanout, 1);
        assert_eq!(s.register_depth, 2);
        assert_eq!(s.live_outputs, 1);
        assert_eq!(s.constant_outputs, 1);
        assert_eq!(s.logic_elements(), 1);
        assert_eq!(s.flip_flops(), 3);
    }

    #[test]
    fn fanout_counts_multiple_taps() {
        let mut net = Netlist::new(2);
        let i0 = net.input(0);
        let i1 = net.input(1);
        let a = net.adder(i0, i1);
        let b = net.adder(i0, a);
        let c = net.adder(i0, b);
        net.set_outputs(vec![Some(c)]);
        assert_eq!(net.stats().max_input_fanout, 3);
        assert_eq!(net.stats().input_taps, 4);
    }

    #[test]
    fn zero_nodes_are_free() {
        let mut net = Netlist::new(1);
        let z = net.zero();
        let s = net.subtractor(z, net.input(0));
        net.set_outputs(vec![Some(s)]);
        let stats = net.stats();
        assert_eq!(stats.zeros, 1);
        assert_eq!(stats.subtractors, 1);
        assert_eq!(stats.logic_elements(), 1);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn forward_reference_panics() {
        let mut net = Netlist::new(1);
        let bogus = NodeId(99);
        net.dff(bogus);
    }
}
