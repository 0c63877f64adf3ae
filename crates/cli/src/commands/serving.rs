//! The serving commands: run the TCP server (`smm-server`), drive and
//! read it over the wire, and maintain its persistent store
//! (`smm-store`).

use super::CmdResult;
use crate::args::Args;
use crate::matrix_source::resolve;
use smm_server::{BackendKind, Client, LoadgenConfig, ServerConfig, StatsSnapshot};
use smm_store::{Artifact, Store};
use smm_telemetry::Stage;
use std::io::Write;

/// Prints a server's whole [`StatsSnapshot`]: `smm stats` prints it over
/// the wire, `smm serve` at shutdown.
fn print_stats(out: &mut impl Write, s: &StatsSnapshot) -> CmdResult {
    let mut w = |s: String| -> CmdResult { writeln!(out, "{s}").map_err(|e| e.to_string()) };
    w(format!(
        "served {} requests ({} rejected busy, {} errors): {} vectors in {} batches; \
         {} bytes in, {} bytes out",
        s.requests, s.rejected, s.errors, s.vectors, s.batches, s.bytes_in, s.bytes_out
    ))?;
    w(format!(
        "fleet: {} hot / {} warm / {} cold = {} matrix(es); {} promotions, {} demotions, \
         {} store hits",
        s.tier_hot,
        s.tier_warm,
        s.tier_cold,
        s.matrices,
        s.store_promotions,
        s.store_demotions,
        s.store_hits,
    ))?;
    w(format!(
        "compute latency: p50 {:.1} µs, p99 {:.1} µs over {} request(s)",
        s.p50_latency_ns as f64 / 1e3,
        s.p99_latency_ns as f64 / 1e3,
        s.latency_count
    ))?;
    w(format!("{:<12} {:>9}  {:>12}  {:>12}", "stage", "count", "p50", "p99"))?;
    for stage in Stage::ALL {
        let st = s.stage(stage);
        w(format!(
            "{:<12} {:>9}  {:>9.1} µs  {:>9.1} µs",
            stage.name(),
            st.count,
            st.p50_ns as f64 / 1e3,
            st.p99_ns as f64 / 1e3,
        ))?;
    }
    Ok(())
}

/// `smm serve` — run the networked serving frontend until the duration
/// elapses (or forever with `--duration 0`).
pub fn serve(args: &Args, out: &mut impl Write) -> CmdResult {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let backend: BackendKind = args.get("backend").unwrap_or("csr").parse()?;
    let threads: usize = args.get_or("threads", 0).map_err(|e| e.0)?;
    let queue_depth: usize = args.get_or("queue-depth", 64).map_err(|e| e.0)?;
    let duration: f64 = args.get_or("duration", 0.0).map_err(|e| e.0)?;
    // Also refuses NaN, infinities and spans past `Duration::MAX`, before
    // the listener is up rather than by a panic after it.
    let Ok(run_for) = std::time::Duration::try_from_secs_f64(duration) else {
        return Err("--duration must be >= 0".into());
    };
    let defaults = ServerConfig::default();
    let store_dir = args.get("store-dir").map(str::to_string);
    let handle = smm_server::start(ServerConfig {
        addr: addr.to_string(),
        backend,
        threads,
        queue_depth,
        metrics_addr: args.get("metrics-addr").map(str::to_string),
        store_dir: store_dir.clone(),
        max_matrices: args
            .get_or("max-matrices", defaults.max_matrices)
            .map_err(|e| e.0)?,
        max_warm: args.get_or("max-warm", defaults.max_warm).map_err(|e| e.0)?,
    })
    .map_err(|e| format!("starting server: {e}"))?;
    writeln!(
        out,
        "listening on {} (backend {}, queue depth {queue_depth})",
        handle.local_addr(),
        backend.name(),
    )
    .map_err(|e| e.to_string())?;
    if let Some(metrics) = handle.metrics_addr() {
        writeln!(out, "metrics on http://{metrics}/metrics").map_err(|e| e.to_string())?;
    }
    if let Some(dir) = &store_dir {
        writeln!(out, "persistent matrix store in {dir}").map_err(|e| e.to_string())?;
    }
    // A backgrounded `serve` (the CI smoke job) needs the address line
    // before the loadgen starts, not when the buffer fills.
    out.flush().map_err(|e| e.to_string())?;
    if duration == 0.0 {
        // Serve until the process is killed.
        loop {
            std::thread::park();
        }
    }
    std::thread::sleep(run_for);
    print_stats(out, &handle.shutdown())
}

/// `smm store` — inspect and maintain a persistent matrix store
/// directory: `ls` lists resident digests, `gc` removes files that fail
/// validation, `warm` pre-seeds the store with a matrix so a server
/// started on the directory serves it without a client upload.
pub fn store(args: &Args, out: &mut impl Write) -> CmdResult {
    let Some(dir) = args.get("store-dir") else {
        return Err("store needs --store-dir DIR".into());
    };
    let store = Store::open(dir).map_err(|e| format!("opening store {dir}: {e}"))?;
    match args.action.as_deref().unwrap_or("ls") {
        "ls" => {
            let entries = store.scan().map_err(|e| format!("scanning {dir}: {e}"))?;
            writeln!(out, "{} digest(s) in {dir}:", entries.len()).map_err(|e| e.to_string())?;
            let mut total = 0u64;
            for e in &entries {
                let kinds: Vec<&str> = e.kinds.iter().map(|k| k.ext()).collect();
                total += e.bytes;
                writeln!(
                    out,
                    "  {:#018x}  {:>9} bytes  [{}]",
                    e.digest,
                    e.bytes,
                    kinds.join(", ")
                )
                .map_err(|e| e.to_string())?;
            }
            writeln!(out, "total: {total} bytes").map_err(|e| e.to_string())
        }
        "gc" => {
            let report = store.gc().map_err(|e| format!("collecting {dir}: {e}"))?;
            writeln!(
                out,
                "kept {} file(s), removed {} ({} bytes reclaimed)",
                report.kept, report.removed, report.reclaimed_bytes
            )
            .map_err(|e| e.to_string())
        }
        "warm" => {
            let matrix = resolve(args)?;
            let digest = matrix.digest();
            store
                .put(digest, &Artifact::Matrix(matrix.clone()))
                .map_err(|e| format!("persisting into {dir}: {e}"))?;
            writeln!(
                out,
                "warmed {:#018x} ({}x{}, nnz {}) into {dir}",
                digest,
                matrix.rows(),
                matrix.cols(),
                matrix.nnz()
            )
            .map_err(|e| e.to_string())
        }
        other => Err(format!("unknown store action '{other}' (try ls, gc, or warm)")),
    }
}

/// `smm loadgen` — hammer a running server with concurrent
/// self-checking clients and report their throughput and latency. The
/// server's own view is `smm stats`.
pub fn loadgen(args: &Args, out: &mut impl Write) -> CmdResult {
    let matrix = resolve(args)?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let clients: usize = args.get_or("clients", 4).map_err(|e| e.0)?;
    let batch: usize = args.get_or("batch", 16).map_err(|e| e.0)?;
    let duration: f64 = args.get_or("duration", 2.0).map_err(|e| e.0)?;
    let seed: u64 = args.get_or("seed", 42u64).map_err(|e| e.0)?;
    let backend: Option<BackendKind> = match args.get("backend") {
        None => None,
        Some(text) => Some(text.parse()?),
    };
    let duration = match std::time::Duration::try_from_secs_f64(duration) {
        Ok(span) if duration > 0.0 => span,
        _ => return Err("--duration must be > 0".into()),
    };
    let report = smm_server::loadgen::run(&LoadgenConfig {
        addr: addr.to_string(),
        clients,
        batch,
        duration,
        matrix,
        seed,
        backend,
    })
    .map_err(|e| format!("load generation: {e}"))?;
    writeln!(
        out,
        "{} client(s) x {batch}-vector batches against {addr} for {:.1} s (engine {}):",
        report.clients,
        report.elapsed_ns as f64 / 1e9,
        report.engine,
    )
    .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "  {} requests = {} vectors served and verified ({:.0} vectors/sec)",
        report.requests,
        report.vectors,
        report.vectors_per_sec(),
    )
    .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "  latency p50 {:.1} µs, p99 {:.1} µs; {} busy rejections, {} errors",
        report.p50_latency_ns as f64 / 1e3,
        report.p99_latency_ns as f64 / 1e3,
        report.busy_rejections,
        report.errors,
    )
    .map_err(|e| e.to_string())?;
    let verdict = if report.mismatches == 0 {
        "MATCHES"
    } else {
        "MISMATCH"
    };
    writeln!(out, "dense reference {verdict} on every reply").map_err(|e| e.to_string())?;
    if report.mismatches > 0 {
        return Err(format!(
            "{} of {} replies diverged from the dense reference",
            report.mismatches, report.vectors
        ));
    }
    if report.errors > 0 {
        return Err(format!("{} client(s) died on transport errors", report.errors));
    }
    if report.requests == 0 {
        return Err("no request completed; is the server reachable?".into());
    }
    Ok(())
}

/// `smm stats` — fetch a running server's stats snapshot over the wire
/// and print all of it, the stage-by-stage latency table included.
pub fn stats(args: &Args, out: &mut impl Write) -> CmdResult {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let mut client =
        Client::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let snapshot = client.stats().map_err(|e| format!("fetching stats: {e}"))?;
    writeln!(out, "server {addr}:").map_err(|e| e.to_string())?;
    print_stats(out, &snapshot)
}
