//! Structural verification of built circuits: the lint pass a production
//! spatial compiler runs before handing a netlist to synthesis. Only the
//! tests run it, over every circuit the builder emits.
//!
//! Checks (beyond what construction already guarantees):
//!
//! * **no dead logic** — every node is reachable from some output (dead
//!   nodes mean the builder wasted area);
//! * **no dangling outputs** — every declared output exists;
//! * **anchor consistency** — operand anchors obey the adder/subtractor
//!   alignment rules and every live output sits at the shared anchor;
//! * **mask sanity** — start-of-frame masks appear only on chain nodes
//!   (adders with a deeper second operand, or anchor-preserving DFFs).

use crate::builder::BuiltCircuit;
use crate::netlist::NodeKind;

/// A structural problem found in a circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Defect {
    /// A node unreachable from every output.
    DeadNode {
        /// Index of the dead node.
        index: usize,
    },
    /// An adder whose operand anchors are inconsistent.
    MisalignedAdder {
        /// Index of the offending node.
        index: usize,
    },
    /// A subtractor whose operands are not anchor-aligned.
    MisalignedSubtractor {
        /// Index of the offending node.
        index: usize,
    },
    /// A live output not at the circuit's shared output anchor.
    OutputAnchorMismatch {
        /// Output column.
        column: usize,
        /// The output node's anchor.
        anchor: u32,
    },
    /// A frame mask on a node kind that never needs one.
    SpuriousMask {
        /// Index of the offending node.
        index: usize,
    },
}

/// Runs all structural checks, returning every defect found (empty =
/// clean). Input taps are exempt from dead-node analysis (an unused input
/// row is legitimate: a fully-zero matrix row).
fn verify(circuit: &BuiltCircuit) -> Vec<Defect> {
    let net = &circuit.netlist;
    let nodes = net.nodes();
    let anchors = &circuit.anchors;
    let mut defects = Vec::new();

    // Reachability from outputs (reverse DFS over the DAG; ids are
    // topological so one reverse sweep suffices).
    let mut live = vec![false; nodes.len()];
    for id in net.outputs().iter().flatten() {
        live[id.index()] = true;
    }
    for i in (0..nodes.len()).rev() {
        if !live[i] {
            continue;
        }
        match nodes[i] {
            NodeKind::Adder { a, b } | NodeKind::Subtractor { a, b } => {
                live[a.index()] = true;
                live[b.index()] = true;
            }
            NodeKind::Dff { d } => live[d.index()] = true,
            NodeKind::Input { .. } | NodeKind::Zero => {}
        }
    }
    for (i, node) in nodes.iter().enumerate() {
        if !live[i] && !matches!(node, NodeKind::Input { .. }) {
            defects.push(Defect::DeadNode { index: i });
        }
    }

    // Anchor discipline and mask sanity.
    for (i, node) in nodes.iter().enumerate() {
        match *node {
            NodeKind::Adder { a, b } => {
                let (pa, pb) = (anchors[a.index()], anchors[b.index()]);
                // Aligned add (tree) or shifted add (chain): b may sit at
                // or above a's anchor, never below.
                if pb < pa {
                    defects.push(Defect::MisalignedAdder { index: i });
                }
                if circuit.mask_at_start[i] && pb == pa && anchors[i] != pa + 1 {
                    defects.push(Defect::MisalignedAdder { index: i });
                }
            }
            NodeKind::Subtractor { a, b } => {
                if anchors[a.index()] != anchors[b.index()] {
                    defects.push(Defect::MisalignedSubtractor { index: i });
                }
                if circuit.mask_at_start[i] {
                    defects.push(Defect::SpuriousMask { index: i });
                }
            }
            NodeKind::Input { .. } | NodeKind::Zero => {
                if circuit.mask_at_start[i] {
                    defects.push(Defect::SpuriousMask { index: i });
                }
            }
            NodeKind::Dff { .. } => {}
        }
    }

    // Output anchors.
    for (column, out) in net.outputs().iter().enumerate() {
        if let Some(id) = out {
            let anchor = anchors[id.index()];
            if anchor != circuit.output_anchor {
                defects.push(Defect::OutputAnchorMismatch { column, anchor });
            }
        }
    }
    defects
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_circuit, build_circuit_with, BuildOptions, TreeShape};
    use smm_core::generate::element_sparse_matrix;
    use smm_core::rng::seeded;
    use smm_core::signsplit::split_pn;

    #[test]
    fn built_circuits_are_clean() {
        let mut rng = seeded(73);
        for (dim, sparsity) in [(8usize, 0.2), (32, 0.9), (17, 0.5)] {
            let m = element_sparse_matrix(dim, dim, 8, sparsity, true, &mut rng).unwrap();
            let c = build_circuit(&split_pn(&m)).unwrap();
            assert_eq!(verify(&c), vec![], "dim {dim} sparsity {sparsity}");
        }
    }

    #[test]
    fn all_build_variants_are_clean() {
        let mut rng = seeded(74);
        let m = element_sparse_matrix(24, 24, 8, 0.6, true, &mut rng).unwrap();
        let split = split_pn(&m);
        for tree_shape in [TreeShape::Balanced, TreeShape::Skewed] {
            for subtree_sharing in [false, true] {
                let c = build_circuit_with(
                    &split,
                    BuildOptions {
                        tree_shape,
                        subtree_sharing,
                    },
                )
                .unwrap();
                assert_eq!(
                    verify(&c),
                    vec![],
                    "{tree_shape:?} sharing={subtree_sharing}"
                );
            }
        }
    }

    #[test]
    fn dead_logic_is_detected() {
        let mut rng = seeded(75);
        let m = element_sparse_matrix(8, 4, 4, 0.5, true, &mut rng).unwrap();
        let mut c = build_circuit(&split_pn(&m)).unwrap();
        // Graft a node nothing consumes.
        let orphan = c.netlist.dff(c.netlist.input(0));
        c.anchors.push(1);
        c.mask_at_start.push(false);
        let defects = verify(&c);
        assert!(defects.contains(&Defect::DeadNode {
            index: orphan.index()
        }));
    }

    #[test]
    fn corrupted_anchor_is_detected() {
        let mut rng = seeded(76);
        let m = element_sparse_matrix(8, 4, 4, 0.4, true, &mut rng).unwrap();
        let mut c = build_circuit(&split_pn(&m)).unwrap();
        // Corrupt a live output's anchor record.
        let out = c.netlist.outputs().iter().flatten().next().copied().unwrap();
        c.anchors[out.index()] += 3;
        let defects = verify(&c);
        assert!(defects
            .iter()
            .any(|d| matches!(d, Defect::OutputAnchorMismatch { .. })));
    }

    #[test]
    fn spurious_mask_is_detected() {
        let mut rng = seeded(77);
        let m = element_sparse_matrix(6, 3, 4, 0.3, true, &mut rng).unwrap();
        let mut c = build_circuit(&split_pn(&m)).unwrap();
        // Put a mask on an input tap.
        c.mask_at_start[0] = true;
        assert!(verify(&c).contains(&Defect::SpuriousMask { index: 0 }));
    }
}
