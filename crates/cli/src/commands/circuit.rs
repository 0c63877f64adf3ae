//! The circuit commands: each compiles one matrix into the spatial
//! bit-serial circuit (`smm-bitserial`) and simulates, emits or prices it
//! (`smm-models`).

use super::CmdResult;
use crate::args::Args;
use crate::matrix_source::{resolve, DEFAULT_SEED};
use smm_bitserial::multiplier::{FixedMatrixMultiplier, WeightEncoding};
use smm_core::block::FrameBlock;
use smm_core::csd::ChainPolicy;
use smm_models::cgra::{estimate_compiled, CgraOptions};
use smm_models::fpga::flow::{report_for, FlowOptions};
use smm_models::gpu::GpuKernelModel;
use smm_models::sigma::Sigma;
use smm_sparse::SparsityProfile;
use std::io::Write;

fn encoding_of(args: &Args) -> Result<WeightEncoding, String> {
    if !args.flag("csd") {
        return Ok(WeightEncoding::Pn);
    }
    let policy = match args.get("policy").unwrap_or("coinflip") {
        "coinflip" => ChainPolicy::CoinFlip,
        "always" => ChainPolicy::Always,
        "never" => ChainPolicy::Never,
        other => return Err(format!("unknown CSD policy: {other}")),
    };
    let seed = args.get_or("seed", DEFAULT_SEED).map_err(|e| e.0)?;
    Ok(WeightEncoding::Csd { policy, seed })
}

fn compile(args: &Args) -> Result<(smm_core::IntMatrix, FixedMatrixMultiplier), String> {
    let matrix = resolve(args)?;
    let input_bits = args.get_or("input-bits", FlowOptions::default().input_bits).map_err(|e| e.0)?;
    let encoding = encoding_of(args)?;
    let mul = FixedMatrixMultiplier::compile(&matrix, input_bits, encoding)
        .map_err(|e| format!("compiling circuit: {e}"))?;
    Ok((matrix, mul))
}

/// The `--vector` operand, or all ones.
fn vector_of(args: &Args, rows: usize) -> Result<Vec<i32>, String> {
    match args.get("vector") {
        Some(text) => text
            .split_whitespace()
            .map(|t| t.parse().map_err(|_| format!("bad vector element: {t}")))
            .collect(),
        None => Ok(vec![1; rows]),
    }
}

fn write_or_print(args: &Args, out: &mut impl Write, content: &str, what: &str) -> CmdResult {
    match args.get("output") {
        Some(path) => {
            std::fs::write(path, content).map_err(|e| format!("writing {path}: {e}"))?;
            writeln!(out, "wrote {what} to {path}").map_err(|e| e.to_string())
        }
        None => write!(out, "{content}").map_err(|e| e.to_string()),
    }
}

/// `smm synth` — full synthesis report.
pub fn synth(args: &Args, out: &mut impl Write) -> CmdResult {
    let (matrix, mul) = compile(args)?;
    let report = report_for(&mul, &FlowOptions::default());
    let stats = mul.stats();
    let mut w = |s: String| -> CmdResult { writeln!(out, "{s}").map_err(|e| e.to_string()) };
    w(format!(
        "matrix: {}x{}, nnz {}, element sparsity {:.1}%",
        matrix.rows(),
        matrix.cols(),
        matrix.nnz(),
        100.0 * smm_core::sparsity::element_sparsity_of(&matrix)
    ))?;
    w(format!(
        "encoding: {:?}, weight bits {}, input bits {}",
        mul.encoding(),
        mul.weight_bits(),
        mul.input_bits()
    ))?;
    w(format!("ones (set weight bits): {}", mul.ones()))?;
    w(format!(
        "netlist: {} adders, {} subtractors, {} dffs, depth {}",
        stats.adders, stats.subtractors, stats.dffs, stats.register_depth
    ))?;
    w(format!(
        "resources: {} LUT, {} FF, {} LUTRAM  (fits {}: {})",
        report.resources.lut,
        report.resources.ff,
        report.resources.lutram,
        FlowOptions::default().device.name,
        report.fits
    ))?;
    w(format!(
        "timing: {:.0} MHz across {} SLR(s), max input fanout {}",
        report.fmax_mhz, report.slrs_spanned, stats.max_input_fanout
    ))?;
    w(format!(
        "latency: {} cycles = {:.1} ns (Equation 5)",
        report.latency_cycles, report.latency_ns
    ))?;
    w(format!(
        "power: {:.1} W ({:.1} static + {:.1} dynamic), thermal ok: {}",
        report.power.total_w(),
        report.power.static_w,
        report.power.dynamic_w,
        report.thermally_feasible
    ))
}

/// `smm mul` — simulate one product and check it against the reference.
pub fn mul(args: &Args, out: &mut impl Write) -> CmdResult {
    let (matrix, mul) = compile(args)?;
    let vector = vector_of(args, matrix.rows())?;
    let o = mul.mul(&vector).map_err(|e| format!("simulating: {e}"))?;
    let reference =
        smm_core::gemv::vecmat(&vector, &matrix).map_err(|e| format!("reference: {e}"))?;
    let verdict = if o == reference { "MATCHES" } else { "MISMATCH" };
    writeln!(out, "o = {o:?}").map_err(|e| e.to_string())?;
    writeln!(
        out,
        "simulated over {} cycles; reference {verdict}",
        mul.exact_latency_cycles()
    )
    .map_err(|e| e.to_string())?;
    if o != reference {
        return Err("circuit output diverged from reference".into());
    }
    Ok(())
}

/// `smm verilog` — emit the synthesizable module.
pub fn verilog(args: &Args, out: &mut impl Write) -> CmdResult {
    let (_, mul) = compile(args)?;
    let module = args.get("module").unwrap_or("spatial_smm");
    let text = smm_bitserial::verilog::emit_verilog(mul.circuit(), module);
    write_or_print(args, out, &text, "Verilog")
}

/// `smm dot` — emit the Graphviz netlist rendering.
pub fn dot(args: &Args, out: &mut impl Write) -> CmdResult {
    let (_, mul) = compile(args)?;
    let text = smm_bitserial::dot::to_dot(&mul.circuit().netlist, "spatial_smm");
    write_or_print(args, out, &text, "DOT graph")
}

/// `smm compare` — one latency row against all baselines.
pub fn compare(args: &Args, out: &mut impl Write) -> CmdResult {
    let (matrix, mul) = compile(args)?;
    let batch: usize = args.get_or("batch", 1).map_err(|e| e.0)?;
    if batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    let report = report_for(&mul, &FlowOptions::default());
    let profile = SparsityProfile::of_dense(&matrix);
    let fpga_ns = mul.batch_latency_cycles(batch) as f64 * 1000.0 / report.fmax_mhz;
    let cusparse = GpuKernelModel::cusparse().spmm_latency_ns(&profile, batch);
    let optimized = GpuKernelModel::optimized_kernel().spmm_latency_ns(&profile, batch);
    let sigma = Sigma::default().gemm_latency_ns(&profile, batch);
    writeln!(
        out,
        "{}x{} @ {:.0}% sparse, batch {batch}:",
        matrix.rows(),
        matrix.cols(),
        100.0 * profile.element_sparsity
    )
    .map_err(|e| e.to_string())?;
    for (name, ns) in [
        ("FPGA (this work)", fpga_ns),
        ("cuSPARSE (V100)", cusparse),
        ("Optimized kernel (V100)", optimized),
        ("SIGMA @1GHz", sigma),
    ] {
        writeln!(
            out,
            "  {name:<24} {ns:>12.1} ns   ({:.1}x vs FPGA)",
            ns / fpga_ns
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// `smm stream` — batched back-to-back streaming simulation.
pub fn stream(args: &Args, out: &mut impl Write) -> CmdResult {
    let (matrix, mul) = compile(args)?;
    let batch: usize = args.get_or("batch", 4).map_err(|e| e.0)?;
    if batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    // Deterministic batch inputs derived from the matrix seed.
    let seed = args.get_or("seed", DEFAULT_SEED).map_err(|e| e.0)?;
    let mut rng = smm_core::rng::derived(seed, 1);
    let inputs = smm_core::generate::element_sparse_matrix(
        batch,
        matrix.rows(),
        mul.input_bits(),
        0.0,
        true,
        &mut rng,
    )
    .map_err(|e| format!("generating batch: {e}"))?;
    let frames = FrameBlock::from_vec(batch, matrix.rows(), inputs.as_slice().to_vec())
        .map_err(|e| format!("generating batch: {e}"))?;
    let streamed = mul
        .mul_batch_streamed(&frames)
        .map_err(|e| format!("streaming: {e}"))?;
    let mut independent = vec![0; streamed.as_slice().len()];
    mul.run_frames_block(&frames, 0, batch, &mut independent)
        .map_err(|e| format!("simulating: {e}"))?;
    let matches = streamed.as_slice() == independent;
    let verdict = if matches { "MATCHES" } else { "MISMATCH" };
    writeln!(
        out,
        "streamed {batch} vectors back-to-back: one new vector every {} cycles,",
        mul.batch_interval_cycles()
    )
    .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "total {} cycles; independent products {verdict}",
        mul.batch_latency_cycles(batch)
    )
    .map_err(|e| e.to_string())?;
    if !matches {
        return Err("streamed results diverged".into());
    }
    Ok(())
}

/// `smm trace` — VCD waveform dump of one product.
pub fn trace(args: &Args, out: &mut impl Write) -> CmdResult {
    let (matrix, mul) = compile(args)?;
    if matrix.rows() * matrix.cols() > 64 * 64 {
        return Err("trace is for small circuits; use --dim 64 or less".into());
    }
    let vector = vector_of(args, matrix.rows())?;
    let (_, vcd) = smm_bitserial::trace::trace_vecmat(
        mul.circuit(),
        &vector,
        mul.input_bits(),
        mul.output_bits(),
    );
    write_or_print(args, out, &vcd, "VCD trace")
}

/// `smm system` — memory-to-memory product through the SRAM wrapper.
pub fn system(args: &Args, out: &mut impl Write) -> CmdResult {
    use smm_bitserial::system::{SmmSystem, WrapperConfig};
    let (matrix, mul) = compile(args)?;
    let rows = matrix.rows();
    let cols = matrix.cols();
    let mut system = SmmSystem::new(
        mul.circuit().clone(),
        mul.input_bits(),
        mul.output_bits(),
        WrapperConfig { output_base: rows, ..WrapperConfig::default() },
        rows + cols,
    )
    .map_err(|e| format!("building system: {e}"))?;
    let staged: Vec<i64> = (0..rows).map(|r| i64::from((r % 3) as i32 - 1)).collect();
    system.sram_mut().load(0, &staged);
    let run = system.run().map_err(|e| format!("running: {e}"))?;
    writeln!(
        out,
        "memory-to-memory: {} load + {} compute + {} store = {} cycles",
        run.load_cycles,
        run.compute_cycles,
        run.store_cycles,
        run.total_cycles()
    )
    .map_err(|e| e.to_string())?;
    let first: Vec<i64> = (0..cols.min(8)).map(|c| system.sram().read(rows + c)).collect();
    writeln!(out, "first outputs in SRAM: {first:?}").map_err(|e| e.to_string())
}

/// `smm cgra` — Section VIII device estimate.
pub fn cgra(args: &Args, out: &mut impl Write) -> CmdResult {
    let (_, mul) = compile(args)?;
    let report = estimate_compiled(&mul, &CgraOptions::default());
    writeln!(
        out,
        "cells: {} full-adder cells + {} delay flip-flops",
        report.cells, report.dffs
    )
    .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "transistors: {} (FPGA fabric) vs {} (CGRA) = {:.2}x denser",
        report.fabric.fpga_transistors,
        report.fabric.cgra_transistors,
        report.fabric.density_gain()
    )
    .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "latency: {} cycles = {:.1} ns at 1 GHz",
        report.latency_cycles, report.latency_ns
    )
    .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "matrix swap: {:.0} ns pipeline wave (FPGA full reconfig: {:.0} ms)",
        report.swap.cgra_ns,
        report.swap.fpga_ns / 1e6
    )
    .map_err(|e| e.to_string())
}
