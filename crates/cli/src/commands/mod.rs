//! The CLI subcommands.

use crate::args::Args;
use crate::matrix_source::resolve;
use smm_bitserial::multiplier::{FixedMatrixMultiplier, WeightEncoding};
use smm_core::csd::ChainPolicy;
use smm_models::cgra::{estimate_compiled, CgraOptions};
use smm_models::fpga::flow::{report_for, FlowOptions};
use smm_models::gpu::GpuKernelModel;
use smm_models::sigma::Sigma;
use smm_sparse::SparsityProfile;
use std::io::Write;

type CmdResult = Result<(), String>;

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
    let seed = args.get_or("seed", 42u64).map_err(|e| e.0)?;
    Ok(WeightEncoding::Csd { policy, seed })
}

fn compile(args: &Args) -> Result<(smm_core::IntMatrix, FixedMatrixMultiplier), String> {
    let matrix = resolve(args)?;
    let input_bits: u32 = args.get_or("input-bits", 8).map_err(|e| e.0)?;
    let encoding = encoding_of(args)?;
    let mul = FixedMatrixMultiplier::compile(&matrix, input_bits, encoding)
        .map_err(|e| format!("compiling circuit: {e}"))?;
    Ok((matrix, mul))
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
    let vector: Vec<i32> = match args.get("vector") {
        Some(text) => text
            .split_whitespace()
            .map(|t| t.parse().map_err(|_| format!("bad vector element: {t}")))
            .collect::<Result<_, _>>()?,
        None => vec![1; matrix.rows()],
    };
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
    let seed: u64 = args.get_or("seed", 42u64).map_err(|e| e.0)?;
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
    let streamed = mul
        .mul_batch_streamed(&inputs)
        .map_err(|e| format!("streaming: {e}"))?;
    let independent = mul.mul_batch(&inputs).map_err(|e| format!("simulating: {e}"))?;
    let verdict = if streamed == independent { "MATCHES" } else { "MISMATCH" };
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
    if streamed != independent {
        return Err("streamed results diverged".into());
    }
    Ok(())
}

/// The plan policy named by `--backend` (default `default_backend`):
/// `auto`, or an engine kind. The engine options ride in their own
/// flags (`--input-bits`, `--threads`, `--csd`) either way.
fn policy_of(args: &Args, default_backend: &str) -> Result<smm_runtime::PlanPolicy, String> {
    use smm_runtime::{AutoOptions, EngineSpec, PlanPolicy};
    let options = AutoOptions {
        input_bits: args.get_or("input-bits", 8).map_err(|e| e.0)?,
        encoding: encoding_of(args)?,
        threads: args.get_or("threads", 0).map_err(|e| e.0)?,
    };
    Ok(match args.get("backend").unwrap_or(default_backend) {
        "auto" => PlanPolicy::Auto(options),
        kind => PlanPolicy::Explicit(
            EngineSpec::new(kind)
                .input_bits(options.input_bits)
                .encoding(options.encoding)
                .threads(options.threads),
        ),
    })
}

/// `smm throughput` — serve a request batch through a runtime `Session`
/// (the flat block path: one `FrameBlock` in, one reused `RowBlock` out)
/// and report vectors/sec.
pub fn throughput(args: &Args, out: &mut impl Write) -> CmdResult {
    use smm_runtime::{FrameBlock, RowBlock, Session};
    use std::sync::Arc;
    use std::time::Instant;

    let matrix = resolve(args)?;
    let input_bits: u32 = args.get_or("input-bits", 8).map_err(|e| e.0)?;
    let batch: usize = args.get_or("batch", 64).map_err(|e| e.0)?;
    let repeat: usize = args.get_or("repeat", 3).map_err(|e| e.0)?;
    if batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    if repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }

    let policy = policy_of(args, "bitserial")?;
    let setup = Instant::now();
    let session = Session::builder(matrix.clone())
        .policy(policy)
        .build()
        .map_err(|e| format!("building session: {e}"))?;
    let setup_time = setup.elapsed();

    // Deterministic request batch derived from the generator seed, in
    // one flat block shared (not copied) across every round.
    let seed: u64 = args.get_or("seed", 42u64).map_err(|e| e.0)?;
    let mut rng = smm_core::rng::derived(seed, 2);
    let requests: Arc<FrameBlock> = {
        let mut frames = FrameBlock::with_capacity(matrix.rows(), batch);
        for _ in 0..batch {
            smm_core::generate::random_vector(matrix.rows(), input_bits, true, &mut rng)
                .and_then(|v| frames.push_frame(&v))
                .map_err(|e| format!("generating requests: {e}"))?;
        }
        Arc::new(frames)
    };

    writeln!(
        out,
        "serving {batch} vectors x {repeat} batches through '{}' in up to {} shard(s) each",
        session.engine().name(),
        session.threads()
    )
    .map_err(|e| e.to_string())?;
    writeln!(out, "plan: {}", session.plan().rationale).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "matrix: {}x{}, nnz {}; setup {:.1} ms",
        matrix.rows(),
        matrix.cols(),
        matrix.nnz(),
        setup_time.as_secs_f64() * 1e3,
    )
    .map_err(|e| e.to_string())?;
    if session.engine().name() == "bitserial" {
        // What a *repeat* request against the same weights would pay: a
        // timed cached refetch versus the cold setup (which the compile
        // dominates; planning and pool spawn also land in it).
        let spec = &session.plan().spec;
        let t = Instant::now();
        session
            .cache()
            .get_or_compile(&matrix, spec.input_bits, spec.encoding)
            .map_err(|e| format!("refetching circuit: {e}"))?;
        writeln!(
            out,
            "compile: {:.2} ms cold (compile-dominated setup); a repeat request pays \
             {:.1} µs (cached)",
            setup_time.as_secs_f64() * 1e3,
            t.elapsed().as_secs_f64() * 1e6,
        )
        .map_err(|e| e.to_string())?;
    }

    let (mut best, mut served) = (0.0f64, 0usize);
    // One output block reused across rounds: the steady state performs
    // no per-row allocation at all.
    let mut outputs = RowBlock::new();
    for round in 0..repeat {
        let stats = session
            .run_block(Arc::clone(&requests), &mut outputs)
            .map_err(|e| format!("dispatching: {e}"))?;
        let rate = stats.vectors_per_sec();
        best = best.max(rate);
        served += stats.batch;
        writeln!(
            out,
            "  batch {round}: {} vectors in {:.2} ms over {} shard(s) = {rate:.0} vectors/sec",
            stats.batch,
            stats.elapsed.as_secs_f64() * 1e3,
            stats.shards,
        )
        .map_err(|e| e.to_string())?;
    }
    // Report compiles only: the timing probe above is itself a cache
    // hit, so a hit count here would overstate what requests saw.
    writeln!(
        out,
        "session: {repeat} batches = {served} vectors served; cache {} compile(s)",
        session.cache().stats().misses,
    )
    .map_err(|e| e.to_string())?;

    // Keep the serving path honest: the last timed round must match the
    // dense reference exactly (all backends are bit-identical).
    let mut matches = outputs.rows() == requests.frames();
    for (a, served) in requests.iter().zip(outputs.iter()) {
        let reference =
            smm_core::gemv::vecmat(a, &matrix).map_err(|e| format!("reference: {e}"))?;
        matches &= served == reference.as_slice();
    }
    let verdict = if matches { "MATCHES" } else { "MISMATCH" };
    writeln!(out, "best: {best:.0} vectors/sec; dense reference {verdict}")
        .map_err(|e| e.to_string())?;
    if verdict != "MATCHES" {
        return Err("served results diverged from reference".into());
    }
    Ok(())
}

/// `smm serve` — run the networked serving frontend until the duration
/// elapses (or forever with `--duration 0`).
pub fn serve(args: &Args, out: &mut impl Write) -> CmdResult {
    use smm_server::{BackendKind, ServerConfig};

    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let backend: BackendKind = args.get("backend").unwrap_or("csr").parse()?;
    let threads: usize = args.get_or("threads", 0).map_err(|e| e.0)?;
    let queue_depth: usize = args.get_or("queue-depth", 64).map_err(|e| e.0)?;
    let input_bits: u32 = args.get_or("input-bits", 8).map_err(|e| e.0)?;
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
        input_bits,
        encoding: encoding_of(args)?,
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
    let stats = handle.shutdown();
    writeln!(
        out,
        "served {} requests ({} rejected busy, {} errors): {} vectors in {} batches",
        stats.requests, stats.rejected, stats.errors, stats.vectors, stats.batches
    )
    .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "cache: {} entries, {:.0}% hit rate, {} evictions; latency p50 {:.1} µs p99 {:.1} µs",
        stats.cache_entries,
        100.0 * stats.cache_hit_rate(),
        stats.cache_evictions,
        stats.p50_latency_ns as f64 / 1e3,
        stats.p99_latency_ns as f64 / 1e3,
    )
    .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "fleet: {} hot / {} warm / {} cold; {} promotions, {} demotions, {} store hits",
        stats.tier_hot,
        stats.tier_warm,
        stats.tier_cold,
        stats.store_promotions,
        stats.store_demotions,
        stats.store_hits,
    )
    .map_err(|e| e.to_string())
}

/// `smm store` — inspect and maintain a persistent matrix store
/// directory: `ls` lists resident digests, `gc` removes files that fail
/// validation, `warm` pre-seeds the store with a matrix so a server
/// started on the directory serves it without a client upload.
pub fn store(args: &Args, out: &mut impl Write) -> CmdResult {
    use smm_store::{Artifact, Store};

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
/// self-checking clients and report throughput/latency.
pub fn loadgen(args: &Args, out: &mut impl Write) -> CmdResult {
    use smm_server::{BackendKind, LoadgenConfig};

    let matrix = resolve(args)?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let clients: usize = args.get_or("clients", 4).map_err(|e| e.0)?;
    let batch: usize = args.get_or("batch", 16).map_err(|e| e.0)?;
    let duration: f64 = args.get_or("duration", 2.0).map_err(|e| e.0)?;
    let input_bits: u32 = args.get_or("input-bits", 8).map_err(|e| e.0)?;
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
        input_bits,
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
    // The server's own view, from the snapshot riding in the report.
    writeln!(
        out,
        "  server: cache {:.0}% hit rate ({} compile(s)); latency p50 {:.1} µs, p99 {:.1} µs",
        100.0 * report.server.cache_hit_rate(),
        report.server.cache_misses,
        report.server.p50_latency_ns as f64 / 1e3,
        report.server.p99_latency_ns as f64 / 1e3,
    )
    .map_err(|e| e.to_string())?;
    let stages = report.stage_summaries();
    if !stages.is_empty() {
        writeln!(out, "  server stages (count, p50, p99):").map_err(|e| e.to_string())?;
        for s in &stages {
            writeln!(
                out,
                "    {:<12} {:>9}  {:>9.1} µs  {:>9.1} µs",
                s.stage,
                s.count,
                s.p50_ns as f64 / 1e3,
                s.p99_ns as f64 / 1e3,
            )
            .map_err(|e| e.to_string())?;
        }
    }
    // The report is written before the self-check verdict can fail the
    // command: a machine-readable record of a bad run is exactly what
    // the caller asked for.
    if let Some(path) = args.get("json") {
        std::fs::write(path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        writeln!(out, "wrote self-check report to {path}").map_err(|e| e.to_string())?;
    }
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
/// and print it, including the stage-by-stage latency table.
pub fn stats(args: &Args, out: &mut impl Write) -> CmdResult {
    use smm_runtime::Stage;
    use smm_server::Client;

    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let mut client =
        Client::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let s = client.stats().map_err(|e| format!("fetching stats: {e}"))?;
    let mut w = |s: String| -> CmdResult { writeln!(out, "{s}").map_err(|e| e.to_string()) };
    w(format!("server {addr}:"))?;
    w(format!(
        "  {} requests ({} rejected busy, {} errors); {} vectors in {} batches; {} matrix(es)",
        s.requests, s.rejected, s.errors, s.vectors, s.batches, s.matrices
    ))?;
    w(format!(
        "  cache: {} entries, {:.0}% hit rate, {} evictions",
        s.cache_entries,
        100.0 * s.cache_hit_rate(),
        s.cache_evictions
    ))?;
    w(format!(
        "  end-to-end compute latency: p50 {:.1} µs, p99 {:.1} µs over {} request(s)",
        s.p50_latency_ns as f64 / 1e3,
        s.p99_latency_ns as f64 / 1e3,
        s.latency_count
    ))?;
    w(format!(
        "  {:<12} {:>9}  {:>12}  {:>12}",
        "stage", "count", "p50", "p99"
    ))?;
    for stage in Stage::ALL {
        let st = s.stage(stage);
        w(format!(
            "  {:<12} {:>9}  {:>9.1} µs  {:>9.1} µs",
            stage.name(),
            st.count,
            st.p50_ns as f64 / 1e3,
            st.p99_ns as f64 / 1e3,
        ))?;
    }
    Ok(())
}

/// `smm trace` — VCD waveform dump of one product.
pub fn trace(args: &Args, out: &mut impl Write) -> CmdResult {
    let (matrix, mul) = compile(args)?;
    if matrix.len() > 64 * 64 {
        return Err("trace is for small circuits; use --dim 64 or less".into());
    }
    let vector: Vec<i32> = match args.get("vector") {
        Some(text) => text
            .split_whitespace()
            .map(|t| t.parse().map_err(|_| format!("bad vector element: {t}")))
            .collect::<Result<_, _>>()?,
        None => vec![1; matrix.rows()],
    };
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
        WrapperConfig {
            ports: 64,
            input_base: 0,
            output_base: rows,
        },
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

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cmd(words: &[&str]) -> Result<String, String> {
        let raw: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        let args = Args::parse(&raw).map_err(|e| e.0)?;
        let mut out = Vec::new();
        match args.command.as_str() {
            "synth" => synth(&args, &mut out)?,
            "stream" => stream(&args, &mut out)?,
            "throughput" => throughput(&args, &mut out)?,
            "serve" => serve(&args, &mut out)?,
            "loadgen" => loadgen(&args, &mut out)?,
            "stats" => stats(&args, &mut out)?,
            "system" => system(&args, &mut out)?,
            "trace" => trace(&args, &mut out)?,
            "mul" => mul(&args, &mut out)?,
            "verilog" => verilog(&args, &mut out)?,
            "dot" => dot(&args, &mut out)?,
            "compare" => compare(&args, &mut out)?,
            "cgra" => cgra(&args, &mut out)?,
            "store" => store(&args, &mut out)?,
            _ => unreachable!(),
        }
        Ok(String::from_utf8(out).unwrap())
    }

    #[test]
    fn synth_reports_key_lines() {
        let text = run_cmd(&["synth", "--dim", "32", "--seed", "7"]).unwrap();
        assert!(text.contains("matrix: 32x32"));
        assert!(text.contains("resources:"));
        assert!(text.contains("latency:"));
        assert!(text.contains("Equation 5"));
    }

    #[test]
    fn mul_matches_reference() {
        let text =
            run_cmd(&["mul", "--dim", "8", "--sparsity", "0.5", "--vector", "1 2 3 4 5 6 7 8"])
                .unwrap();
        assert!(text.contains("MATCHES"));
    }

    #[test]
    fn mul_rejects_bad_vector() {
        let e = run_cmd(&["mul", "--dim", "4", "--vector", "1 two 3 4"]).unwrap_err();
        assert!(e.contains("bad vector element"));
    }

    #[test]
    fn verilog_and_dot_emit() {
        let v = run_cmd(&["verilog", "--dim", "4", "--module", "tiny"]).unwrap();
        assert!(v.contains("module tiny ("));
        let d = run_cmd(&["dot", "--dim", "4"]).unwrap();
        assert!(d.starts_with("digraph"));
    }

    #[test]
    fn compare_lists_all_platforms() {
        let text = run_cmd(&["compare", "--dim", "64", "--batch", "4"]).unwrap();
        assert!(text.contains("FPGA"));
        assert!(text.contains("cuSPARSE"));
        assert!(text.contains("SIGMA"));
        assert!(text.contains("batch 4"));
    }

    #[test]
    fn cgra_reports_swap_gap() {
        let text = run_cmd(&["cgra", "--dim", "32"]).unwrap();
        assert!(text.contains("pipeline wave"));
        assert!(text.contains("denser"));
    }

    #[test]
    fn csd_flag_changes_encoding() {
        let pn = run_cmd(&["synth", "--dim", "32", "--seed", "3"]).unwrap();
        let csd = run_cmd(&["synth", "--dim", "32", "--seed", "3", "--csd"]).unwrap();
        let ones = |s: &str| -> u64 {
            s.lines()
                .find(|l| l.starts_with("ones"))
                .unwrap()
                .split(':')
                .nth(1)
                .unwrap()
                .trim()
                .parse()
                .unwrap()
        };
        assert!(ones(&csd) < ones(&pn));
        assert!(run_cmd(&["synth", "--dim", "8", "--csd", "--policy", "bogus"]).is_err());
    }

    #[test]
    fn stream_checks_against_independent_products() {
        let text = run_cmd(&["stream", "--dim", "12", "--batch", "3"]).unwrap();
        assert!(text.contains("MATCHES"));
        assert!(run_cmd(&["stream", "--dim", "4", "--batch", "0"]).is_err());
    }

    #[test]
    fn throughput_serves_each_backend() {
        for backend in ["dense", "csr", "bitserial", "sigma"] {
            let text = run_cmd(&[
                "throughput", "--dim", "12", "--backend", backend, "--threads", "2", "--batch",
                "9", "--repeat", "1",
            ])
            .unwrap();
            assert!(text.contains("9 vectors"), "{backend}: {text}");
            assert!(text.contains("vectors/sec"), "{backend}: {text}");
            assert!(text.contains("MATCHES"), "{backend}: {text}");
        }
    }

    #[test]
    fn throughput_auto_plans_from_the_matrix() {
        // 95% sparse: the planner must pick csr and say why.
        let text = run_cmd(&[
            "throughput", "--dim", "16", "--sparsity", "0.95", "--backend", "auto", "--threads",
            "2", "--batch", "4", "--repeat", "1",
        ])
        .unwrap();
        assert!(text.contains("through 'csr'"), "{text}");
        assert!(text.contains("plan: auto plan"), "{text}");
        assert!(text.contains("MATCHES"), "{text}");
        // Dense matrix: the dense engine wins.
        let dense = run_cmd(&[
            "throughput", "--dim", "8", "--sparsity", "0", "--backend", "auto", "--repeat", "1",
        ])
        .unwrap();
        assert!(dense.contains("through 'dense'"), "{dense}");
    }

    #[test]
    fn throughput_accepts_full_engine_spec_syntax() {
        // A full spec is a kind plus the option flags; the thread count
        // is visible in the header line.
        for threads in ["2", "1"] {
            let text = run_cmd(&[
                "throughput", "--dim", "8", "--backend", "dense", "--threads", threads,
                "--batch", "2", "--repeat", "1",
            ])
            .unwrap();
            let header = format!("through 'dense' in up to {threads} shard(s) each");
            assert!(text.contains(&header), "{text}");
        }
        // `--backend` takes a kind and nothing else: the retired text
        // form is an unknown kind like any other.
        let err = run_cmd(&["throughput", "--dim", "8", "--backend", "dense@8b/pn/t2"]).unwrap_err();
        assert!(err.contains("dense@8b/pn/t2") && err.contains("bitserial"), "{err}");
    }

    #[test]
    fn throughput_reports_session_stats() {
        let text = run_cmd(&[
            "throughput", "--dim", "8", "--backend", "csr", "--batch", "3", "--repeat", "2",
        ])
        .unwrap();
        assert!(text.contains("session: 2 batches = 6 vectors served"), "{text}");
    }

    #[test]
    fn throughput_reports_cache_reuse() {
        let text = run_cmd(&[
            "throughput", "--dim", "8", "--backend", "bitserial", "--threads", "1", "--batch",
            "2", "--repeat", "1",
        ])
        .unwrap();
        assert!(text.contains("cold"), "{text}");
        assert!(text.contains("(cached)"), "{text}");
        // Non-circuit backends have no compile step to report.
        let dense = run_cmd(&[
            "throughput", "--dim", "8", "--backend", "dense", "--repeat", "1",
        ])
        .unwrap();
        assert!(!dense.contains("cached"), "{dense}");
    }

    #[test]
    fn serve_runs_for_a_duration_and_reports() {
        let text = run_cmd(&[
            "serve", "--addr", "127.0.0.1:0", "--backend", "dense", "--duration", "0.2",
            "--queue-depth", "3",
        ])
        .unwrap();
        assert!(text.contains("listening on 127.0.0.1:"), "{text}");
        assert!(text.contains("queue depth 3"), "{text}");
        assert!(text.contains("served 0 requests"), "{text}");
    }

    #[test]
    fn serve_rejects_bad_flags() {
        assert!(run_cmd(&["serve", "--backend", "tpu"]).is_err());
        // Negative, non-finite or past `Duration::MAX`: refused before
        // the listener binds.
        for bad in ["-1", "nan", "inf", "1e30"] {
            let e = run_cmd(&["serve", "--duration", bad]).unwrap_err();
            assert!(e.contains("--duration must be"), "{bad}: {e}");
        }
        // Unbindable address.
        assert!(run_cmd(&["serve", "--addr", "999.0.0.1:1", "--duration", "0.1"]).is_err());
    }

    #[test]
    fn serve_with_store_dir_reports_the_fleet() {
        let dir = std::env::temp_dir().join(format!("smm-cli-serve-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.display().to_string();
        let text = run_cmd(&[
            "serve", "--addr", "127.0.0.1:0", "--duration", "0.2", "--store-dir", &dir_s,
            "--max-warm", "7",
        ])
        .unwrap();
        assert!(text.contains("persistent matrix store in"), "{text}");
        assert!(text.contains("fleet: 0 hot / 0 warm / 0 cold"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_warm_ls_gc_round_trip() {
        let dir = std::env::temp_dir().join(format!("smm-cli-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.display().to_string();

        // warm: persist a generated matrix …
        let text =
            run_cmd(&["store", "warm", "--store-dir", &dir_s, "--dim", "8", "--seed", "9"])
                .unwrap();
        assert!(text.contains("warmed 0x"), "{text}");
        assert!(text.contains("8x8"), "{text}");

        // … ls sees it …
        let text = run_cmd(&["store", "ls", "--store-dir", &dir_s]).unwrap();
        assert!(text.contains("1 digest(s)"), "{text}");
        assert!(text.contains("[matrix]"), "{text}");

        // … and a clean store survives gc untouched. `ls` is the default
        // action; bogus actions and a missing --store-dir are refused.
        let text = run_cmd(&["store", "gc", "--store-dir", &dir_s]).unwrap();
        assert!(text.contains("removed 0"), "{text}");
        assert!(run_cmd(&["store", "--store-dir", &dir_s])
            .unwrap()
            .contains("1 digest(s)"));
        assert!(run_cmd(&["store", "shrink", "--store-dir", &dir_s])
            .unwrap_err()
            .contains("unknown store action"));
        assert!(run_cmd(&["store", "ls"]).unwrap_err().contains("--store-dir"));

        // A server pointed at the warmed directory serves the matrix
        // without any client ever uploading it.
        let matrix = resolve(
            &Args::parse(&["store".into(), "--dim".into(), "8".into(), "--seed".into(), "9".into()])
                .unwrap(),
        )
        .unwrap();
        let server = smm_server::start(smm_server::ServerConfig {
            store_dir: Some(dir_s.clone()),
            ..smm_server::ServerConfig::default()
        })
        .unwrap();
        let mut client = smm_server::Client::connect(server.local_addr()).unwrap();
        let a = vec![1i32; 8];
        assert_eq!(
            client.gemv(matrix.digest(), &a).unwrap(),
            smm_core::gemv::vecmat(&a, &matrix).unwrap()
        );
        let stats = server.shutdown();
        assert!(stats.store_hits >= 1, "{stats:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loadgen_round_trips_against_a_live_server() {
        let server = smm_server::start(smm_server::ServerConfig::default()).unwrap();
        let text = run_cmd(&[
            "loadgen",
            "--addr",
            &server.local_addr().to_string(),
            "--dim",
            "12",
            "--clients",
            "2",
            "--batch",
            "5",
            "--duration",
            "0.3",
        ])
        .unwrap();
        assert!(text.contains("vectors served and verified"), "{text}");
        assert!(text.contains("MATCHES"), "{text}");
        assert!(text.contains("p50"), "{text}");
        assert!(text.contains("server: cache"), "{text}");
        let stats = server.shutdown();
        assert!(stats.requests > 0);
        assert_eq!(stats.matrices, 1);
    }

    #[test]
    fn loadgen_requests_a_backend_in_load_matrix() {
        let server = smm_server::start(smm_server::ServerConfig::default()).unwrap();
        let text = run_cmd(&[
            "loadgen",
            "--addr",
            &server.local_addr().to_string(),
            "--dim",
            "10",
            "--sparsity",
            "0.95",
            "--backend",
            "auto",
            "--clients",
            "1",
            "--batch",
            "4",
            "--duration",
            "0.2",
        ])
        .unwrap();
        // The per-request auto choice overrode the server's csr default —
        // same engine here, but the reply names what the planner chose.
        assert!(text.contains("engine csr"), "{text}");
        assert!(text.contains("MATCHES"), "{text}");
        server.shutdown();
    }

    #[test]
    fn loadgen_drives_the_sigma_backend_end_to_end() {
        // The acceptance gate: a multi-client loadgen run against a
        // sigma-backed session completes with zero mismatches against
        // the dense reference.
        let server = smm_server::start(smm_server::ServerConfig::default()).unwrap();
        let text = run_cmd(&[
            "loadgen",
            "--addr",
            &server.local_addr().to_string(),
            "--dim",
            "16",
            "--backend",
            "sigma",
            "--clients",
            "2",
            "--batch",
            "6",
            "--duration",
            "0.3",
        ])
        .unwrap();
        assert!(text.contains("engine sigma"), "{text}");
        assert!(text.contains("vectors served and verified"), "{text}");
        assert!(text.contains("MATCHES"), "{text}");
        server.shutdown();
    }

    #[test]
    fn serve_accepts_the_sigma_backend() {
        let text = run_cmd(&[
            "serve", "--addr", "127.0.0.1:0", "--backend", "sigma", "--duration", "0.1",
        ])
        .unwrap();
        assert!(text.contains("backend sigma"), "{text}");
    }

    #[test]
    fn stats_prints_the_stage_table() {
        let server = smm_server::start(smm_server::ServerConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        // Put one request through so the stage table has samples.
        run_cmd(&[
            "loadgen", "--addr", &addr, "--dim", "8", "--clients", "1", "--batch", "3",
            "--duration", "0.2",
        ])
        .unwrap();
        let text = run_cmd(&["stats", "--addr", &addr]).unwrap();
        for stage in ["decode", "queue", "plan", "shard", "reassemble", "compute", "encode"] {
            assert!(text.contains(stage), "missing {stage}: {text}");
        }
        assert!(text.contains("requests"), "{text}");
        assert!(text.contains("µs"), "{text}");
        server.shutdown();
    }

    #[test]
    fn stats_fails_cleanly_without_a_server() {
        let e = run_cmd(&["stats", "--addr", "127.0.0.1:1"]).unwrap_err();
        assert!(e.contains("connecting"), "{e}");
    }

    #[test]
    fn loadgen_writes_json_reports() {
        let server = smm_server::start(smm_server::ServerConfig::default()).unwrap();
        let json_path = std::env::temp_dir().join("smm_loadgen_selfcheck.json");
        let text = run_cmd(&[
            "loadgen",
            "--addr",
            &server.local_addr().to_string(),
            "--dim",
            "8",
            "--clients",
            "1",
            "--batch",
            "4",
            "--duration",
            "0.2",
            "--json",
            json_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(text.contains("wrote self-check report"), "{text}");
        assert!(text.contains("server stages"), "{text}");
        let self_check = std::fs::read_to_string(&json_path).unwrap();
        assert!(self_check.contains("\"schema\": \"smm-loadgen-v1\""), "{self_check}");
        assert!(self_check.contains("\"ok\": true"), "{self_check}");
        server.shutdown();
    }

    #[test]
    fn serve_reports_its_metrics_endpoint() {
        let text = run_cmd(&[
            "serve", "--addr", "127.0.0.1:0", "--metrics-addr", "127.0.0.1:0", "--duration",
            "0.1",
        ])
        .unwrap();
        assert!(text.contains("metrics on http://127.0.0.1:"), "{text}");
        assert!(text.contains("/metrics"), "{text}");
        // Without the flag, no metrics line appears.
        let plain = run_cmd(&["serve", "--addr", "127.0.0.1:0", "--duration", "0.1"]).unwrap();
        assert!(!plain.contains("metrics on"), "{plain}");
    }

    #[test]
    fn loadgen_fails_cleanly_without_a_server() {
        // Port 1 on loopback is essentially never listening.
        let e = run_cmd(&[
            "loadgen", "--addr", "127.0.0.1:1", "--dim", "4", "--duration", "0.1",
        ])
        .unwrap_err();
        assert!(e.contains("load generation"), "{e}");
        for bad in ["0", "nan", "inf", "1e30"] {
            let e = run_cmd(&["loadgen", "--dim", "4", "--duration", bad]).unwrap_err();
            assert!(e.contains("--duration must be"), "{bad}: {e}");
        }
    }

    #[test]
    fn throughput_rejects_bad_flags() {
        assert!(run_cmd(&["throughput", "--dim", "4", "--backend", "tpu"]).is_err());
        assert!(run_cmd(&["throughput", "--dim", "4", "--batch", "0"]).is_err());
        assert!(run_cmd(&["throughput", "--dim", "4", "--repeat", "0"]).is_err());
    }

    #[test]
    fn system_reports_cycle_breakdown() {
        let text = run_cmd(&["system", "--dim", "16"]).unwrap();
        assert!(text.contains("memory-to-memory:"));
        assert!(text.contains("load"));
        assert!(text.contains("store"));
    }

    #[test]
    fn trace_emits_vcd_and_caps_size() {
        let text = run_cmd(&["trace", "--dim", "4"]).unwrap();
        assert!(text.contains("$timescale"));
        assert!(run_cmd(&["trace", "--dim", "128"]).is_err());
    }

    #[test]
    fn output_file_writing() {
        let path = std::env::temp_dir().join("smm_cli_out.v");
        let p = path.to_str().unwrap();
        let text = run_cmd(&["verilog", "--dim", "4", "--output", p]).unwrap();
        assert!(text.contains("wrote Verilog"));
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("endmodule"));
    }
}
