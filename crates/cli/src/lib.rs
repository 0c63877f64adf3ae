//! # smm-cli
//!
//! The command-line face of the reproduction: synthesize a fixed sparse
//! matrix, simulate products through it, export Verilog/DOT, and compare
//! against the GPU/SIGMA baselines — all from one binary. Nine circuit
//! commands ([`commands::circuit`]) compile one matrix and read the
//! models; four serving commands ([`commands::serving`]) run, drive,
//! read and maintain the TCP server. Each command refuses every option
//! it does not read.
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
//! smm serve    [--addr A] [--backend B] [--threads N] [--queue-depth Q] [--duration S]
//!              [--metrics-addr M] [--store-dir DIR]
//! smm loadgen  [matrix opts] [--addr A] [--clients C] [--batch B] [--duration S]
//! smm stats    [--addr A]                               # the server's whole snapshot
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
  serve     run the TCP serving frontend (wire protocol on --addr)
  loadgen   hammer a running server with self-checking clients
  stats     print a running server's counters, fleet and per-stage latencies
  store     list, garbage-collect, or pre-warm a persistent matrix store

Each command refuses any option it does not read.

matrix options (circuit commands, loadgen, store warm):
  --input FILE      MatrixMarket .mtx or dense text file
  --dim N           square dimension for a generated matrix (default 64)
  --rows N --cols N rectangular generation
  --sparsity P      element sparsity in [0,1] (default 0.9)
  --bits B          signed weight bits (default 8)
  --seed S          generator seed (default 42)

circuit options (synth through cgra):
  --input-bits B    signed input operand bits (default 8)
  --csd             compile with canonical-signed-digit weights
  --policy P        CSD chain policy: coinflip (default), always, never

command-specific:
  mul:      --vector \"v0 v1 ...\"  (defaults to all ones)
  verilog:  --module NAME  --output FILE
  dot:      --output FILE
  compare:  --batch B  (default 1)
  stream:   --batch B  (default 4)
  trace:    --vector \"v0 v1 ...\"  --output FILE
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
            plus matrix opts: the loadgen uploads this matrix, sends 8-bit
            frames, and verifies every reply against the dense reference;
            it exits non-zero on a mismatch, an error or no reply at all
  stats:    --addr A          (default 127.0.0.1:7878); prints request totals,
                              cache, fleet, and the per-stage latency table
                              (serve prints the same at shutdown)
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
        "trace" => commands::trace(&args, out),
        "system" => commands::system(&args, out),
        "cgra" => commands::cgra(&args, out),
        "serve" => commands::serve(&args, out),
        "loadgen" => commands::loadgen(&args, out),
        "stats" => commands::stats(&args, out),
        "store" => commands::store(&args, out),
        "help" => {
            let _ = writeln!(out, "{USAGE}");
            Ok(())
        }
        other => unreachable!("Args::parse admitted unknown command '{other}'"),
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
        for retired in ["tidy", "throughput"] {
            let e = run_str(&[retired, "--dim", "8"]).unwrap_err();
            let named = format!("unknown command '{retired}'");
            assert!(e.contains(&named) && e.contains("usage: smm"), "{e}");
        }
    }

    #[test]
    fn missing_command_errors_with_usage() {
        let e = run_str(&[]).unwrap_err();
        assert!(e.contains("usage"));
    }
}
