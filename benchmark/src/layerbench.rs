//! The workload-independent rungs: every layer's public entry point
//! timed on its own, from outside, on the shapes the workloads use.
//!
//! Shapes: `R` = the reservoir matrix (1024², 95 % sparse, 4-bit), `B` =
//! the batch matrix (1024², 90 %, 8-bit), `F` = a fleet member (256²,
//! 90 %, 8-bit), `C` = a bit-serial fleet member (32², 90 %, 8-bit).
//!
//! The machine this was sized on runs at two thirds of its speed for
//! 50 ms to minutes at a time (see `stats::UNDISTURBED`), and a spell
//! can only slow a call down, so each time is the fastest of its timed
//! batches within a pass, and each metric the best of [`PASSES`]
//! passes seconds apart. Rungs that are subtracted from each
//! other are timed in alternation ([`interleaved`]), so both sides of
//! the minus get their turn in every fast stretch.

use crate::gen::{vector, Lcg, MatrixData};
use crate::layers::{self, Engine, FrameBlock, IntMatrix, Opcode, Reply, RowBlock};
use crate::metrics::{Better, PER_LAYER};
use crate::rep::Numbers;
use crate::stats::{best, undisturbed_p50};
use crate::workloads::{FleetChurn, Res};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PASSES: usize = 3;

/// Per metric, the best over [`PASSES`] runs of `pass`, by the
/// direction the roster gives the metric.
fn best_of_passes(mut pass: impl FnMut() -> Res<Numbers>) -> Res<Numbers> {
    let passes = (0..PASSES).map(|_| pass()).collect::<Res<Vec<_>>>()?;
    Ok(passes[0]
        .keys()
        .map(|name| {
            let values: Vec<f64> = passes.iter().filter_map(|p| p.get(name).copied()).collect();
            let roster = PER_LAYER.iter().find(|m| m.0 == name);
            let better = roster.map_or(Better::Lower, |m| m.2);
            (name.clone(), best(&values, better))
        })
        .collect())
}

type Timed<'a> = &'a mut dyn FnMut() -> Res<()>;

/// Nanoseconds per call of each closure in the fastest of `samples`
/// timed batches of `calls[i]` calls each (after one untimed batch),
/// the closures taking turns batch by batch.
fn interleaved<const N: usize>(
    samples: usize,
    calls: [usize; N],
    mut fs: [Timed<'_>; N],
) -> Res<[f64; N]> {
    let mut per_call: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(samples));
    for sample in 0..=samples {
        for (i, f) in fs.iter_mut().enumerate() {
            let started = Instant::now();
            for _ in 0..calls[i] {
                f()?;
            }
            if sample > 0 {
                per_call[i].push(started.elapsed().as_nanos() as f64 / calls[i] as f64);
            }
        }
    }
    Ok(per_call.map(|each| best(&each, Better::Lower)))
}

fn ns_per_call(samples: usize, calls: usize, mut f: impl FnMut() -> Res<()>) -> Res<f64> {
    interleaved(samples, [calls], [&mut f]).map(|[ns]| ns)
}

/// Median of individually timed calls at the machine's undisturbed
/// speed, in nanoseconds.
fn p50_ns(calls: usize, mut f: impl FnMut() -> Res<()>) -> Res<f64> {
    let mut each = Vec::with_capacity(calls);
    for _ in 0..calls {
        let started = Instant::now();
        f()?;
        each.push(started.elapsed().as_nanos() as u64);
    }
    Ok(undisturbed_p50(&each, 32).unwrap_or(0) as f64)
}

fn frames_of(rng: &mut Lcg, frames: usize, width: usize) -> Res<FrameBlock> {
    layers::frame_block(frames, width, vector(rng, frames * width, 8))
}

/// The matrices and vectors every pass measures on.
struct Inputs {
    seed: u64,
    r_data: MatrixData,
    r: IntMatrix,
    b_data: MatrixData,
    b: IntMatrix,
    f: IntMatrix,
    c: IntMatrix,
    x1024: Vec<i32>,
    x256: Vec<i32>,
    block64: Arc<FrameBlock>,
    block_f: Arc<FrameBlock>,
    lanes64: FrameBlock,
    lanes8: FrameBlock,
    one32: FrameBlock,
}

impl Inputs {
    fn new(seed: u64) -> Res<Self> {
        let sparse =
            |stream: u64, dim: usize, sparsity: f64, bits: u32| -> Res<(MatrixData, IntMatrix)> {
                let data =
                    MatrixData::sparse(&mut Lcg::stream(seed, stream), dim, dim, sparsity, bits);
                let v = layers::matrix(&data)?;
                Ok((data, v))
            };
        // The same streams the workloads draw from, so R and B are the
        // very matrices `reservoir-step` and `wire-batch` serve.
        let (r_data, r) = sparse(10, 1024, 0.95, 4)?;
        let (b_data, b) = sparse(30, 1024, 0.90, 8)?;
        let (_, f) = sparse(51, 256, 0.90, 8)?;
        let (_, c) = sparse(52, 32, 0.90, 8)?;
        let mut rng = Lcg::stream(seed, 50);
        Ok(Self {
            seed,
            r_data,
            r,
            b_data,
            b,
            f,
            c,
            x1024: vector(&mut rng, 1024, 8),
            x256: vector(&mut rng, 256, 8),
            block64: Arc::new(frames_of(&mut rng, 64, 1024)?),
            block_f: Arc::new(frames_of(&mut rng, 64, 256)?),
            lanes64: frames_of(&mut rng, 64, 32)?,
            lanes8: frames_of(&mut rng, 8, 32)?,
            one32: frames_of(&mut rng, 1, 32)?,
        })
    }
}

/// Everything single-threaded.
pub fn run(seed: u64) -> Res<Numbers> {
    let inputs = Inputs::new(seed)?;
    best_of_passes(|| pass(&inputs))
}

/// The dispatcher's rungs, which want both CPUs.
pub fn run_dispatch(seed: u64) -> Res<Numbers> {
    let inputs = Inputs::new(seed)?;
    best_of_passes(|| dispatch_pass(&inputs))
}

fn dispatch_pass(inputs: &Inputs) -> Res<Numbers> {
    let Inputs { b, block64, .. } = inputs;
    let mut numbers = Numbers::new();
    let mut put = |name: &str, value: f64| {
        numbers.insert(name.to_string(), value);
    };
    let (mut rows_1t, mut rows_2t) = (RowBlock::new(), RowBlock::new());
    let mut flat = vec![0i64; 64 * 1024];
    let b_1t = layers::session_build(b.clone(), Engine::Auto, 1)?;
    let b_2t = layers::session_build(b.clone(), Engine::Auto, 2)?;
    let [block_1t_ns, block_2t_ns, rows_block_ns] = interleaved(
        9,
        [2, 2, 2],
        [
            &mut || layers::session_run_block(&b_1t, block64, &mut rows_1t),
            &mut || layers::session_run_block(&b_2t, block64, &mut rows_2t),
            &mut || layers::engine_run_rows(&b_1t, block64, &mut flat),
        ],
    )?;
    put("runtime.dispatch.run_block_us_1t", block_1t_ns / 1e3);
    put("runtime.dispatch.run_block_us_2t", block_2t_ns / 1e3);
    put("runtime.dispatch.scaling_2t", block_1t_ns / block_2t_ns);
    put(
        "runtime.dispatch.overhead_us",
        (block_1t_ns - rows_block_ns) / 1e3,
    );
    Ok(numbers)
}

fn pass(inputs: &Inputs) -> Res<Numbers> {
    let Inputs {
        seed,
        r_data,
        r,
        b_data,
        b,
        f,
        c,
        x1024,
        x256,
        block64,
        block_f,
        lanes64,
        lanes8,
        one32,
    } = inputs;
    let mut numbers = Numbers::new();
    let mut put = |name: &str, value: f64| {
        numbers.insert(name.to_string(), value);
    };
    let mut out1024 = vec![0i64; 1024];
    let mut rows = RowBlock::new();

    // ---- smm-sparse, with the two runtime rungs directly above it ----
    let r_csr = layers::csr_build(r);
    let b_csr = layers::csr_build(b);
    let one1024 = layers::frame_block(1, 1024, x1024.clone())?;
    let r_session = layers::session_build(r.clone(), Engine::Csr, 1)?;
    let (mut out_rows, mut out_kernel) = (vec![0i64; 1024], vec![0i64; 1024]);
    let [csr_single_ns, rows_csr_ns, run_ns] = interleaved(
        15,
        [100, 100, 100],
        [
            &mut || layers::csr_kernel(&r_csr, x1024, &mut out_kernel),
            &mut || layers::engine_run_rows(&r_session, &one1024, &mut out_rows),
            &mut || layers::session_run(&r_session, x1024).map(|o| drop(black_box(o))),
        ],
    )?;
    put(
        "sparse.csr.ns_per_nnz_single",
        csr_single_ns / r_data.nnz() as f64,
    );
    put("runtime.backend.run_rows_us.csr", rows_csr_ns / 1e3);
    put(
        "runtime.backend.overhead_share.csr",
        1.0 - csr_single_ns / rows_csr_ns,
    );
    put(
        "runtime.session.run_overhead_us",
        (run_ns - csr_single_ns) / 1e3,
    );
    let run_p50_ns = p50_ns(2000, || {
        layers::session_run(&r_session, x1024).map(|o| drop(black_box(o)))
    })?;
    put("runtime.session.run_p50_us", run_p50_ns / 1e3);
    let csr_batch_ns = ns_per_call(9, 2, || {
        block64
            .iter()
            .try_for_each(|a| layers::csr_kernel(&b_csr, a, &mut out1024))
    })?;
    put(
        "sparse.csr.ns_per_nnz_batch64",
        csr_batch_ns / (64 * b_data.nnz()) as f64,
    );
    let build_ns = ns_per_call(9, 2, || {
        black_box(layers::csr_build(b));
        Ok(())
    })?;
    put("sparse.csr.build_ms", build_ns / 1e6);
    // Computed, not measured: per product the kernel streams every
    // non-zero's value (4 B) and column index (8 B) and the row
    // pointers (8 B each), reads the input (4 B each) and writes the
    // output (8 B each).
    let bytes = r_data.nnz() * (4 + 8) + (r_data.rows + 1) * 8 + r_data.rows * 4 + r_data.cols * 8;
    put("sparse.csr.bytes_per_vector", bytes as f64);

    // ---- smm-core ----
    let mut out256 = vec![0i64; 256];
    let dense256_ns = ns_per_call(15, 100, || layers::dense_kernel(x256, f, &mut out256))?;
    put(
        "core.gemv.dense_ns_per_mac.256",
        dense256_ns / (256.0 * 256.0),
    );
    let dense1024_ns = ns_per_call(9, 8, || layers::dense_kernel(x1024, b, &mut out1024))?;
    put(
        "core.gemv.dense_ns_per_mac.1024",
        dense1024_ns / (1024.0 * 1024.0),
    );

    // ---- smm-bitserial ----
    let compile32_ns = ns_per_call(5, 2, || layers::bitserial_compile(c).map(drop))?;
    put("bitserial.compile_ms.32", compile32_ns / 1e6);
    let compile256_ns = ns_per_call(1, 1, || layers::bitserial_compile(f).map(drop))?;
    put("bitserial.compile_ms.256", compile256_ns / 1e6);
    let circuit = layers::bitserial_compile(c)?;
    let mut out_lanes = vec![0i64; 64 * 32];
    let sliced64_ns = ns_per_call(9, 20, || {
        layers::bitserial_sliced(&circuit, lanes64, &mut out_lanes)
    })?;
    let sliced8_ns = ns_per_call(9, 20, || {
        layers::bitserial_sliced(&circuit, lanes8, &mut out_lanes[..8 * 32])
    })?;
    let (rate64, rate8) = (64.0 * 1e9 / sliced64_ns, 8.0 * 1e9 / sliced8_ns);
    put("bitserial.sliced_frames_per_s_64", rate64);
    put("bitserial.sliced_frames_per_s_8", rate8);
    put("bitserial.lane_occupancy_8", rate8 / rate64);

    // ---- smm-runtime: backend + session ----
    let one256 = layers::frame_block(1, 256, x256.clone())?;
    for (engine, v, frame, width) in [
        (Engine::Dense, f, &one256, 256),
        (Engine::Sigma, f, &one256, 256),
        (Engine::BitSerial, c, one32, 32),
    ] {
        let session = layers::session_build(v.clone(), engine, 1)?;
        let ns = ns_per_call(9, 50, || {
            layers::engine_run_rows(&session, frame, &mut out1024[..width])
        })?;
        put(
            &format!("runtime.backend.run_rows_us.{}", engine.name()),
            ns / 1e3,
        );
    }

    // ---- smm-runtime: plan (plan + engine build + pool spawn) ----
    for (engine, v) in [
        (Engine::Csr, f),
        (Engine::Dense, f),
        (Engine::Sigma, f),
        (Engine::BitSerial, c),
    ] {
        // A fresh session has a fresh circuit cache, so the bit-serial
        // build pays its compile every time.
        let ns = ns_per_call(7, 2, || {
            layers::session_build(v.clone(), engine, 1).map(drop)
        })?;
        put(
            &format!("runtime.plan.session_build_ms.{}", engine.name()),
            ns / 1e6,
        );
    }

    // ---- smm-runtime: cache ----
    let cache = layers::cache_new();
    layers::cache_get(&cache, c)?;
    let hit_ns = ns_per_call(9, 200, || layers::cache_get(&cache, c).map(drop))?;
    put("runtime.cache.hit_us", hit_ns / 1e3);

    // ---- smm-runtime: tiered fleet, driven directly ----
    let fleet_dir = FleetChurn::fresh_store_dir("layers-fleet")?;
    let fleet = layers::tiered_open(&fleet_dir, 4, 4)?;
    let digest = layers::matrix_digest(f);
    layers::tiered_insert(
        &fleet,
        f.clone(),
        layers::session_build(f.clone(), Engine::Csr, 1)?,
    )?;
    let rebuild = |m: IntMatrix| layers::session_build(m, Engine::Csr, 1);
    let hot_ns = ns_per_call(9, 2000, || {
        layers::tiered_acquire(&fleet, digest, rebuild).map(drop)
    })?;
    put("runtime.tiered.acquire_hot_ns", hot_ns);
    let promote_from = |demotions: usize| -> Res<f64> {
        let mut each = Vec::with_capacity(25);
        for _ in 0..25 {
            for _ in 0..demotions {
                if !layers::tiered_demote(&fleet, digest) {
                    return Err("the fleet refused a demotion".into());
                }
            }
            let started = Instant::now();
            layers::tiered_acquire(&fleet, digest, rebuild)?;
            each.push(started.elapsed().as_nanos() as f64);
        }
        Ok(best(&each, Better::Lower))
    };
    put("runtime.tiered.acquire_warm_us", promote_from(1)? / 1e3);
    put("runtime.tiered.acquire_cold_us", promote_from(2)? / 1e3);
    drop(fleet);
    let _ = std::fs::remove_dir_all(&fleet_dir);

    // ---- smm-store ----
    let store_dir = FleetChurn::fresh_store_dir("layers-store")?;
    let store = layers::store_open(&store_dir)?;
    let artifacts = layers::store_artifacts(f);
    for (kind, artifact) in ["matrix", "csr", "circuit"].into_iter().zip(&artifacts) {
        let ns = ns_per_call(9, 2, || layers::store_put(&store, digest, artifact))?;
        put(&format!("store.put_us.{kind}"), ns / 1e3);
    }
    let get_ns = ns_per_call(9, 20, || layers::store_get_matrix(&store, digest).map(drop))?;
    put("store.get_us.matrix", get_ns / 1e3);
    put(
        "store.bytes.matrix",
        layers::store_matrix_bytes(&store, digest)? as f64,
    );
    // A directory shaped like fleet-churn's after its 24 loads.
    let fleet_members = FleetChurn::new(*seed, false)?;
    for member in fleet_members.members() {
        let member_digest = layers::matrix_digest(&member.matrix);
        for artifact in &layers::store_artifacts(&member.matrix) {
            layers::store_put(&store, member_digest, artifact)?;
        }
    }
    let scan_ns = ns_per_call(7, 2, || {
        layers::tiered_open(&store_dir, FleetChurn::HOT, FleetChurn::WARM).map(drop)
    })?;
    put("store.boot_scan_ms", scan_ns / 1e6);
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);

    // ---- smm-server: protocol ----
    let batch_elems = (64 * 1024) as f64;
    let batch_payload = layers::encode_batch_request(digest, block64);
    let mut reply_rows = RowBlock::new();
    layers::session_run_block(
        &layers::session_build(b.clone(), Engine::Auto, 1)?,
        block64,
        &mut reply_rows,
    )?;
    let batch_reply = Reply::Outputs(reply_rows);
    let batch_reply_payload = layers::encode_reply(&batch_reply);
    let single_payload = layers::encode_gemv_request(digest, x256);
    let single_reply = Reply::Output(vec![-123_456_789; 256]);
    let single_reply_payload = layers::encode_reply(&single_reply);
    let sink = |bytes: Vec<u8>| -> Res<()> {
        black_box(bytes);
        Ok(())
    };
    let enc_req = ns_per_call(9, 4, || sink(layers::encode_batch_request(digest, block64)))?;
    let dec_req = ns_per_call(9, 4, || {
        layers::decode_request(Opcode::GemvBatch, &batch_payload).map(|r| drop(black_box(r)))
    })?;
    let enc_reply = ns_per_call(9, 4, || sink(layers::encode_reply(&batch_reply)))?;
    let dec_reply = ns_per_call(9, 4, || {
        layers::decode_reply(Opcode::GemvBatch, &batch_reply_payload).map(|r| drop(black_box(r)))
    })?;
    put(
        "server.protocol.encode_req_ns_per_elem",
        enc_req / batch_elems,
    );
    put(
        "server.protocol.decode_req_ns_per_elem",
        dec_req / batch_elems,
    );
    put(
        "server.protocol.encode_reply_ns_per_elem",
        enc_reply / batch_elems,
    );
    put(
        "server.protocol.decode_reply_ns_per_elem",
        dec_reply / batch_elems,
    );
    let enc_req = ns_per_call(15, 500, || sink(layers::encode_gemv_request(digest, x256)))?;
    let dec_req = ns_per_call(15, 500, || {
        layers::decode_request(Opcode::Gemv, &single_payload).map(|r| drop(black_box(r)))
    })?;
    let enc_reply = ns_per_call(15, 500, || sink(layers::encode_reply(&single_reply)))?;
    let dec_reply = ns_per_call(15, 500, || {
        layers::decode_reply(Opcode::Gemv, &single_reply_payload).map(|r| drop(black_box(r)))
    })?;
    put("server.protocol.encode_req_single_us", enc_req / 1e3);
    put("server.protocol.decode_req_single_us", dec_req / 1e3);
    put("server.protocol.encode_reply_single_us", enc_reply / 1e3);
    put("server.protocol.decode_reply_single_us", dec_reply / 1e3);
    // Exact counts: one 64-frame request and its reply, header included.
    let header = layers::FRAME_HEADER_BYTES as f64;
    put(
        "server.protocol.bytes_per_vector_in",
        (batch_payload.len() as f64 + header) / 64.0,
    );
    put(
        "server.protocol.bytes_per_vector_out",
        (batch_reply_payload.len() as f64 + header) / 64.0,
    );
    let load_payload = layers::encode_load_request(b);
    let load_ns = ns_per_call(3, 1, || {
        layers::decode_request(Opcode::LoadMatrix, &load_payload).map(|r| drop(black_box(r)))
    })?;
    put("server.protocol.load_decode_ms", load_ns / 1e6);

    // ---- smm-telemetry ----
    let plain = layers::session_build(f.clone(), Engine::Csr, 1)?;
    let recorded = layers::session_build_recorded(f.clone(), Engine::Csr, 1)?;
    let mut rows_recorded = RowBlock::new();
    let [plain_ns, recorded_ns] = interleaved(
        9,
        [50, 50],
        [
            &mut || layers::session_run_block(&plain, block_f, &mut rows),
            &mut || layers::session_run_block(&recorded, block_f, &mut rows_recorded),
        ],
    )?;
    // 1 - rate with / rate without = 1 - time without / time with.
    put(
        "telemetry.recorder_overhead_share",
        1.0 - plain_ns / recorded_ns,
    );
    let hist = layers::LatencyHistogram::new();
    let latency = Duration::from_nanos(18_400);
    let record_ns = ns_per_call(15, 100_000, || {
        layers::hist_record(&hist, black_box(latency));
        Ok(())
    })?;
    put("telemetry.hist_record_ns", record_ns);

    Ok(numbers)
}
