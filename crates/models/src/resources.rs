//! Mapping a bit-serial netlist onto FPGA resources.
//!
//! The mapping rules follow Sections III–IV of the paper:
//!
//! * every bit-serial adder or subtractor is **one 6-input LUT plus two
//!   flip-flops** (sum capture and carry);
//! * a culled adder is a plain flip-flop;
//! * runs of three or more single-fanout flip-flops retime into SRL shift
//!   registers (LUTRAM), one LUTRAM per 32 stages plus a final flip-flop;
//! * the SRAM wrapper's input/output shift registers are LUTRAM SRLs, one
//!   per 32 bits of depth per row/column, plus a small fixed control
//!   overhead ("only adds a few extra LUTs and registers").

use smm_bitserial::netlist::{Netlist, NodeKind};

/// FPGA resource footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceReport {
    /// 6-input LUTs used as logic.
    pub lut: u64,
    /// Flip-flops.
    pub ff: u64,
    /// LUTs repurposed as LUTRAM (SRL shift registers).
    pub lutram: u64,
}

/// Depth (in bits) above which a flip-flop chain retimes into an SRL.
const SRL_MIN_DEPTH: usize = 3;
/// Stages one SRL LUTRAM absorbs (SRL32).
const SRL_DEPTH: usize = 32;
/// Fixed control/wrapper logic (address counters, SRAM interface).
const WRAPPER_LUTS: u64 = 120;
const WRAPPER_FFS: u64 = 240;

/// LUTRAMs needed for one serial shift register of `depth` bits.
fn srl_cost(depth: usize) -> u64 {
    depth.div_ceil(SRL_DEPTH) as u64
}

/// Maps a compiled netlist (plus its I/O shift registers) to resources.
///
/// `input_bits` sets the input shift-register depth; `output_bits` the
/// capture register depth per live output column.
pub fn map_netlist(net: &Netlist, input_bits: u32, output_bits: u32) -> ResourceReport {
    let stats = net.stats();
    let mut report = ResourceReport {
        lut: stats.logic_elements() as u64 + WRAPPER_LUTS,
        ff: 2 * stats.logic_elements() as u64 + WRAPPER_FFS,
        lutram: 0,
    };

    // Flip-flop chains: single-fanout runs of DFFs retime into SRLs.
    for chain in dff_chain_lengths(net) {
        if chain >= SRL_MIN_DEPTH {
            report.lutram += srl_cost(chain - 1);
            report.ff += 1;
        } else {
            report.ff += chain as u64;
        }
    }

    // Wrapper shift registers: one sign-extending SRL per input row, one
    // capture SRL per live output column.
    report.lutram += stats.rows_used.max(1) as u64 * srl_cost(input_bits as usize);
    report.lutram += stats.live_outputs as u64 * srl_cost(output_bits as usize);
    report
}

/// Lengths of all maximal single-fanout DFF chains in the netlist.
///
/// A DFF extends a chain when its operand is itself a DFF consumed by no
/// other node; each maximal run is reported once.
pub(crate) fn dff_chain_lengths(net: &Netlist) -> Vec<usize> {
    let nodes = net.nodes();
    let mut fanout = vec![0u32; nodes.len()];
    for node in nodes {
        match *node {
            NodeKind::Adder { a, b } | NodeKind::Subtractor { a, b } => {
                fanout[a.index()] += 1;
                fanout[b.index()] += 1;
            }
            NodeKind::Dff { d } => fanout[d.index()] += 1,
            NodeKind::Input { .. } | NodeKind::Zero => {}
        }
    }
    for id in net.outputs().iter().flatten() {
        fanout[id.index()] += 1;
    }

    // chain_len[i]: run length ending at DFF i; consumed[i]: DFF i was
    // absorbed into a longer run.
    let mut chain_len = vec![0usize; nodes.len()];
    let mut consumed = vec![false; nodes.len()];
    for (i, node) in nodes.iter().enumerate() {
        if let NodeKind::Dff { d } = *node {
            let j = d.index();
            if matches!(nodes[j], NodeKind::Dff { .. }) && fanout[j] == 1 {
                chain_len[i] = chain_len[j] + 1;
                consumed[j] = true;
            } else {
                chain_len[i] = 1;
            }
        }
    }
    nodes
        .iter()
        .enumerate()
        .filter(|&(i, node)| matches!(node, NodeKind::Dff { .. }) && !consumed[i])
        .map(|(i, _)| chain_len[i])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_bitserial::builder::build_circuit;
    use smm_core::generate::element_sparse_matrix;
    use smm_core::rng::seeded;
    use smm_core::signsplit::split_pn;

    fn build(dim: usize, sparsity: f64, seed: u64) -> (smm_core::IntMatrix, smm_bitserial::Netlist) {
        let mut rng = seeded(seed);
        let m = element_sparse_matrix(dim, dim, 8, sparsity, true, &mut rng).unwrap();
        let c = build_circuit(&split_pn(&m)).unwrap();
        (m, c.netlist)
    }

    #[test]
    fn luts_track_ones() {
        let (m, net) = build(48, 0.6, 61);
        let ones = split_pn(&m).ones();
        let report = map_netlist(&net, 8, 27);
        let logic = report.lut - WRAPPER_LUTS;
        // Exact accounting: ones − (live column-half count) + subtractors;
        // always within 2 per column of the ones count.
        assert!(logic <= ones);
        assert!(ones - logic <= 2 * 48, "{logic} vs {ones}");
    }

    #[test]
    fn ff_is_twice_lut_for_logic() {
        let (_, net) = build(32, 0.5, 62);
        let r = map_netlist(&net, 8, 26);
        // Logic FFs are exactly 2x logic LUTs; chain FFs add on top.
        assert!(r.ff >= 2 * (r.lut - WRAPPER_LUTS));
    }

    #[test]
    fn chain_detection_simple() {
        use smm_bitserial::Netlist;
        let mut net = Netlist::new(2);
        // in0 -> dff -> dff -> dff (chain of 3); in1 -> adder with chain.
        let d1 = net.dff(net.input(0));
        let d2 = net.dff(d1);
        let d3 = net.dff(d2);
        let a = net.adder(d3, net.input(1));
        net.set_outputs(vec![Some(a)]);
        let chains = dff_chain_lengths(&net);
        assert_eq!(chains, vec![3]);
    }

    #[test]
    fn branched_dffs_do_not_chain() {
        use smm_bitserial::Netlist;
        let mut net = Netlist::new(1);
        let d1 = net.dff(net.input(0));
        // d1 feeds two consumers: chains must break at it.
        let d2 = net.dff(d1);
        let a = net.adder(d1, d2);
        net.set_outputs(vec![Some(a)]);
        let mut chains = dff_chain_lengths(&net);
        chains.sort_unstable();
        assert_eq!(chains, vec![1, 1]);
    }

    #[test]
    fn srl_cost_depths() {
        assert_eq!(srl_cost(1), 1);
        assert_eq!(srl_cost(32), 1);
        assert_eq!(srl_cost(33), 2);
        assert_eq!(srl_cost(64), 2);
    }

    #[test]
    fn higher_sparsity_costs_less() {
        let (_, dense_net) = build(40, 0.2, 63);
        let (_, sparse_net) = build(40, 0.9, 63);
        let rd = map_netlist(&dense_net, 8, 27);
        let rs = map_netlist(&sparse_net, 8, 27);
        assert!(rs.lut < rd.lut);
        assert!(rs.ff < rd.ff);
    }
}
