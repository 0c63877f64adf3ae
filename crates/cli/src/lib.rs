//! # smm-cli
//!
//! The command-line face of the reproduction: synthesize a fixed sparse
//! matrix, simulate products through it, export Verilog/DOT, and compare
//! against the GPU/SIGMA baselines — all from one binary.
//!
//! ```text
//! smm synth    [--dim N | --input F.mtx] [--sparsity P] [--bits B] [--seed S] [--csd]
//! smm mul      [matrix opts] --vector "1 2 3 ..."       # simulate o = aᵀV
//! smm verilog  [matrix opts] [--module NAME] [--output F.v]
//! smm dot      [matrix opts] [--output F.dot]
//! smm compare  [matrix opts] [--batch B]                # vs cuSPARSE/OptKernel/SIGMA
//! smm stream   [matrix opts] [--batch B]                # back-to-back batch (checked)
//! smm trace    [matrix opts] [--vector "..."] [--output F.vcd]  # VCD of one product
//! smm system   [matrix opts]                            # via the SRAM wrapper
//! smm cgra     [matrix opts]                            # Section VIII device estimate
//! smm throughput [matrix opts] [--backend B] [--threads N] [--batch B]
//! smm serve    [--addr A] [--backend B] [--threads N] [--queue-depth Q] [--duration S]
//!              [--metrics-addr M]
//! smm loadgen  [matrix opts] [--addr A] [--clients C] [--batch B] [--duration S]
//!              [--json F]
//! smm stats    [--addr A]                               # per-stage latency table
//! smm store    [ls|gc|warm] --store-dir DIR             # persistent matrix fleet
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod commands;
pub mod matrix_source;

use args::Args;

/// Usage text.
pub const USAGE: &str = "\
usage: smm <command> [options]

commands:
  synth     synthesize: area / Fmax / power / latency report
  mul       simulate o = a^T V through the bit-serial circuit
  verilog   emit the synthesizable Verilog module
  dot       emit a Graphviz rendering of the netlist
  compare   latency vs cuSPARSE, optimized GPU kernel and SIGMA
  stream    batched back-to-back streaming simulation (checked)
  trace     VCD waveform dump of one product (small circuits)
  system    memory-to-memory product through the SRAM wrapper
  cgra      Section VIII CGRA estimate (density, swap time)
  throughput  serve batches via a runtime session (checked)
  serve     run the TCP serving frontend (wire protocol on --addr)
  loadgen   hammer a running server with self-checking clients
  stats     print a running server's counters and per-stage latencies
  store     list, garbage-collect, or pre-warm a persistent matrix store

matrix options (all commands):
  --input FILE      MatrixMarket .mtx or dense text file
  --dim N           square dimension for a generated matrix (default 64)
  --rows N --cols N rectangular generation
  --sparsity P      element sparsity in [0,1] (default 0.9)
  --bits B          signed weight bits (default 8)
  --seed S          generator seed (default 42)
  --csd             compile with canonical-signed-digit weights
  --input-bits B    signed input operand bits (default 8)

command-specific:
  mul:      --vector \"v0 v1 ...\"  (defaults to all ones)
  verilog:  --module NAME  --output FILE
  dot:      --output FILE
  compare:  --batch B  (default 1)
  throughput: --backend auto|dense|csr|bitserial|sigma  (default bitserial;
              auto plans from the matrix: ns per frame from rows, cols, nnz)
              --threads N  most shards per batch (default 0 = one per core)
              --batch B    (default 64)   --repeat R  (default 3)
  serve:    --addr A          (default 127.0.0.1:7878; port 0 = auto)
            --backend auto|dense|csr|bitserial|sigma  (default csr; auto
                              plans per loaded matrix)
            --threads N       most shards one batch is cut into for the shared
                              worker pool (default 0 = one per core)
            --queue-depth Q   concurrent compute budget before Busy (default 64)
            --duration S      seconds to run, 0 = until killed (default 0)
            --metrics-addr M  also serve Prometheus text on GET M/metrics
                              (default: no metrics listener; port 0 = auto)
            --store-dir DIR   persist loaded matrices as digest-addressed
                              artifacts; a restart on the same DIR serves
                              the fleet without recompiling
            --max-matrices N  hot-tier bound (compiled sessions, default 64)
            --max-warm N      warm-tier bound (decoded matrices, default 256);
                              the two together also bound cached circuits
  loadgen:  --addr A          (default 127.0.0.1:7878)
            --backend auto|dense|csr|bitserial|sigma  requested in
                              LoadMatrix (default: the server's own default)
            --clients C       concurrent connections (default 4)
            --batch B         vectors per request (default 16)
            --duration S      seconds of traffic (default 2)
            --json F          write the machine-readable self-check report to F
            plus matrix opts: the loadgen uploads this matrix, then
            verifies every reply against the dense reference
  stats:    --addr A          (default 127.0.0.1:7878); prints request totals,
                              cache behavior, and the per-stage latency table
  store:    ls (default)      list resident digests, kinds, and bytes
            gc                remove files that fail digest/CRC validation
            warm              persist a matrix (matrix opts) into the store
            --store-dir DIR   the store directory (required)
";

/// Runs the CLI. Returns the process exit code; all normal output goes to
/// `out`, errors to the returned message.
pub fn run(raw_args: &[String], out: &mut impl std::io::Write) -> Result<(), String> {
    let args = Args::parse(raw_args).map_err(|e| format!("{e}\n\n{USAGE}"))?;
    match args.command.as_str() {
        "synth" => commands::synth(&args, out),
        "mul" => commands::mul(&args, out),
        "verilog" => commands::verilog(&args, out),
        "dot" => commands::dot(&args, out),
        "compare" => commands::compare(&args, out),
        "stream" => commands::stream(&args, out),
        "throughput" => commands::throughput(&args, out),
        "serve" => commands::serve(&args, out),
        "loadgen" => commands::loadgen(&args, out),
        "stats" => commands::stats(&args, out),
        "trace" => commands::trace(&args, out),
        "system" => commands::system(&args, out),
        "cgra" => commands::cgra(&args, out),
        "store" => commands::store(&args, out),
        "help" | "--help" | "-h" => {
            let _ = writeln!(out, "{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(words: &[&str]) -> Result<String, String> {
        let raw: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&raw, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    #[test]
    fn help_prints_usage() {
        let text = run_str(&["help"]).unwrap();
        assert!(text.contains("usage: smm"));
    }

    #[test]
    fn unknown_command_errors() {
        let e = run_str(&["frobnicate"]).unwrap_err();
        assert!(e.contains("unknown command"));
        // A retired subcommand is an unknown one, answered with the usage.
        let e = run_str(&["tidy"]).unwrap_err();
        assert!(e.contains("unknown command 'tidy'") && e.contains("usage: smm"), "{e}");
    }

    #[test]
    fn missing_command_errors_with_usage() {
        let e = run_str(&[]).unwrap_err();
        assert!(e.contains("usage"));
    }
}
