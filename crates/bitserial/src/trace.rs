//! VCD (Value Change Dump) waveform tracing of circuit simulations, for
//! inspecting small circuits in GTKWave-style viewers and for debugging
//! the builder's timing (anchors, chain shifts, frame masks).
//!
//! A trace is the ordinary lockstep run of one frame
//! (`crate::sim::run_lockstep_into_flat`) with an observer that writes
//! lane 0's changed nodes after every clock edge.

use crate::builder::BuiltCircuit;
use crate::netlist::NodeKind;
use crate::sim::run_lockstep_into_flat;
use std::fmt::Write as _;

/// A VCD identifier code: printable ASCII `!`..`~`, extended to multiple
/// characters for large circuits.
fn vcd_id(mut index: usize) -> String {
    const FIRST: u8 = b'!';
    const RANGE: usize = 94; // '!' ..= '~'
    let mut id = String::new();
    loop {
        id.push((FIRST + (index % RANGE) as u8) as char);
        index /= RANGE;
        if index == 0 {
            break;
        }
        index -= 1;
    }
    id
}

/// Human-readable signal name for a node.
fn signal_name(index: usize, kind: &NodeKind) -> String {
    match kind {
        NodeKind::Input { row } => format!("in_{row}"),
        NodeKind::Zero => format!("zero_{index}"),
        NodeKind::Adder { .. } => format!("add_{index}"),
        NodeKind::Subtractor { .. } => format!("sub_{index}"),
        NodeKind::Dff { .. } => format!("dff_{index}"),
    }
}

/// Simulates one `o = aᵀV` product and records every node's waveform as a
/// VCD document. Returns `(outputs, vcd)`.
///
/// Intended for small circuits (the dump is `O(nodes × cycles)` text).
pub fn trace_vecmat(
    circuit: &BuiltCircuit,
    input: &[i32],
    input_bits: u32,
    out_width: u32,
) -> (Vec<i64>, String) {
    let net = &circuit.netlist;
    assert_eq!(
        input.len(),
        net.num_rows(),
        "one input element per matrix row"
    );

    let mut vcd = String::new();
    let _ = writeln!(vcd, "$version spatial-smm bit-serial trace $end");
    let _ = writeln!(vcd, "$timescale 1ns $end");
    let _ = writeln!(vcd, "$scope module smm $end");
    for (i, kind) in net.nodes().iter().enumerate() {
        let _ = writeln!(
            vcd,
            "$var wire 1 {} {} $end",
            vcd_id(i),
            signal_name(i, kind)
        );
    }
    let _ = writeln!(vcd, "$upscope $end");
    let _ = writeln!(vcd, "$enddefinitions $end");

    let mut last: Vec<Option<bool>> = vec![None; net.len()];
    let mut outputs = vec![0; net.num_outputs()];
    run_lockstep_into_flat(circuit, input, input_bits, out_width, &mut outputs, |sim| {
        let mut changes = String::new();
        for (i, slot) in last.iter_mut().enumerate() {
            let v = sim.value(net.node_id(i)) & 1 == 1;
            if *slot != Some(v) {
                let _ = writeln!(changes, "{}{}", u8::from(v), vcd_id(i));
                *slot = Some(v);
            }
        }
        if !changes.is_empty() {
            let _ = writeln!(vcd, "#{}", sim.cycle());
            vcd.push_str(&changes);
        }
    });
    (outputs, vcd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_circuit;
    use smm_core::gemv::vecmat;
    use smm_core::matrix::IntMatrix;
    use smm_core::signsplit::split_pn;

    #[test]
    fn vcd_ids_are_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            let id = vcd_id(i);
            assert!(id.chars().all(|c| ('!'..='~').contains(&c)), "{id}");
            assert!(seen.insert(id), "duplicate id at {i}");
        }
        assert_eq!(vcd_id(0), "!");
        assert_eq!(vcd_id(93), "~");
        assert_eq!(vcd_id(94).len(), 2);
    }

    #[test]
    fn trace_decodes_same_as_plain_simulation() {
        let m = IntMatrix::from_vec(3, 2, vec![2, -1, 0, 5, 3, 3]).unwrap();
        let circuit = build_circuit(&split_pn(&m)).unwrap();
        let a = [7, -3, 2];
        let width = crate::bits::result_width(8, circuit.weight_bits, 3);
        let (out, vcd) = trace_vecmat(&circuit, &a, 8, width);
        assert_eq!(out, vecmat(&a, &m).unwrap());
        // Structure: header, definitions, at least one timestamped change.
        assert!(vcd.contains("$timescale"));
        assert!(vcd.contains("$enddefinitions $end"));
        assert!(vcd.contains("$var wire 1 ! in_0 $end"));
        assert!(vcd.lines().any(|l| l.starts_with('#')));
    }

    #[test]
    fn input_waveform_matches_the_streamed_bits() {
        // Single weight-1 cell: in_0's VCD trace must follow the LSB-first
        // bits of the input value.
        let m = IntMatrix::from_vec(1, 1, vec![1]).unwrap();
        let circuit = build_circuit(&split_pn(&m)).unwrap();
        let (_, vcd) = trace_vecmat(&circuit, &[0b1010], 8, 8);
        // Collect in_0 ('!') changes in order.
        let mut transitions = Vec::new();
        for line in vcd.lines() {
            if line == "0!" || line == "1!" {
                transitions.push(line.as_bytes()[0] == b'1');
            }
        }
        // 0b1010 LSB-first: 0,1,0,1,0... starts low (initial None -> 0),
        // then alternates until the zero tail.
        assert_eq!(transitions[..4], [false, true, false, true]);
    }
}
