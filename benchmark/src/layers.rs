//! Every call the benchmark makes into the crates under test, one small
//! adapter per layer call, so the whole dependency surface is on one
//! page. Nothing else in this package names an `smm_*` item.
//!
//! The end-to-end paths (the four workload loops) use only
//! `smm_server::start` + `ServerConfig { .., ..Default::default() }`,
//! `Client::{connect, load_matrix_with, gemv, gemv_block, ping, stats}`,
//! `Session::builder/spec/policy/build/run/run_block`, and
//! `IntMatrix::from_vec`. The per-layer ladder additionally times the
//! public kernel, engine, cache, fleet, store, protocol, and telemetry
//! entry points below. Deliberately absent: the scalar/unrolled dense
//! oracles, the framed bit-serial stream, the nested-`Vec` batch
//! bridges, and every wire version below `protocol::VERSION`.

use crate::gen::MatrixData;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

pub use smm_bitserial::multiplier::FixedMatrixMultiplier;
pub use smm_core::block::{FrameBlock, RowBlock};
pub use smm_core::matrix::IntMatrix;
pub use smm_runtime::{MultiplierCache, Session, SpanRecorder, TieredRegistry};
pub use smm_server::protocol::{Opcode, Reply, Request};
pub use smm_server::{BackendKind, Client, LoadedInfo, ServerHandle, StatsSnapshot};
pub use smm_sparse::Csr;
pub use smm_store::{Artifact, ArtifactKind, Store};
pub use smm_telemetry::LatencyHistogram;

use smm_bitserial::multiplier::WeightEncoding;
use smm_runtime::{AutoOptions, EngineSpec, PlanPolicy, TieredConfig};
use smm_server::protocol::VERSION;
use smm_server::ServerConfig;
use smm_telemetry::Stage;

/// Input operand width every workload uses (the servers' default).
pub const INPUT_BITS: u32 = 8;

type Res<T> = Result<T, String>;

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

// ---- smm-core ----------------------------------------------------------

pub fn matrix(m: &MatrixData) -> Res<IntMatrix> {
    IntMatrix::from_vec(m.rows, m.cols, m.data.clone()).map_err(text)
}

pub fn matrix_digest(v: &IntMatrix) -> u64 {
    v.digest()
}

pub fn frame_block(frames: usize, width: usize, data: Vec<i32>) -> Res<FrameBlock> {
    FrameBlock::from_vec(frames, width, data).map_err(text)
}

/// The dense kernel: `o = aᵀV` into a caller-owned slice.
pub fn dense_kernel(a: &[i32], v: &IntMatrix, out: &mut [i64]) -> Res<()> {
    smm_core::gemv::vecmat_into(a, v, out).map_err(text)
}

// ---- smm-sparse --------------------------------------------------------

pub fn csr_build(v: &IntMatrix) -> Csr {
    Csr::from_dense(v)
}

/// The CSR kernel: `o = aᵀV` into a caller-owned slice.
pub fn csr_kernel(csr: &Csr, a: &[i32], out: &mut [i64]) -> Res<()> {
    csr.vecmat_into(a, out).map_err(text)
}

// ---- smm-bitserial -----------------------------------------------------

pub fn bitserial_compile(v: &IntMatrix) -> Res<FixedMatrixMultiplier> {
    FixedMatrixMultiplier::compile(v, INPUT_BITS, WeightEncoding::Pn).map_err(text)
}

/// The bit-sliced batch kernel over frames `0..frames.frames()`.
pub fn bitserial_sliced(
    mul: &FixedMatrixMultiplier,
    frames: &FrameBlock,
    out: &mut [i64],
) -> Res<()> {
    mul.run_frames_block(frames, 0, frames.frames(), out)
        .map_err(text)
}

// ---- smm-runtime: plan + session + backend + dispatch --------------------

/// Which engine a session (or a `LoadMatrix`) asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Auto,
    Dense,
    Csr,
    Sigma,
    BitSerial,
}

impl Engine {
    pub fn name(self) -> &'static str {
        self.backend().name()
    }

    fn backend(self) -> BackendKind {
        match self {
            Engine::Auto => BackendKind::Auto,
            Engine::Dense => BackendKind::Dense,
            Engine::Csr => BackendKind::Csr,
            Engine::Sigma => BackendKind::Sigma,
            Engine::BitSerial => BackendKind::BitSerial,
        }
    }

    fn policy(self, threads: usize) -> PlanPolicy {
        match self {
            Engine::Auto => PlanPolicy::Auto(AutoOptions {
                threads,
                ..AutoOptions::default()
            }),
            explicit => PlanPolicy::Explicit(EngineSpec::new(explicit.name()).threads(threads)),
        }
    }
}

/// Plan + engine build + worker-pool spawn.
pub fn session_build(v: IntMatrix, engine: Engine, threads: usize) -> Res<Session> {
    Session::builder(v)
        .policy(engine.policy(threads))
        .build()
        .map_err(text)
}

/// As [`session_build`], recording stage latencies like the server does.
pub fn session_build_recorded(v: IntMatrix, engine: Engine, threads: usize) -> Res<Session> {
    Session::builder(v)
        .policy(engine.policy(threads))
        .recorder(SpanRecorder::new())
        .build()
        .map_err(text)
}

/// As [`session_build`], compiling through a shared circuit cache.
pub fn session_build_cached(
    v: IntMatrix,
    engine: Engine,
    cache: &Arc<MultiplierCache>,
) -> Res<Session> {
    Session::builder(v)
        .policy(engine.policy(1))
        .cache(Arc::clone(cache))
        .build()
        .map_err(text)
}

pub fn session_engine_name(session: &Session) -> &'static str {
    session.engine().name()
}

/// The single-vector path.
pub fn session_run(session: &Session, a: &[i32]) -> Res<Vec<i64>> {
    session.run(a).map_err(text)
}

/// The batch path through the dispatcher.
pub fn session_run_block(
    session: &Session,
    frames: &Arc<FrameBlock>,
    out: &mut RowBlock,
) -> Res<()> {
    session
        .run_block(Arc::clone(frames), out)
        .map(drop)
        .map_err(text)
}

/// The engine's one compute primitive, under the session and dispatcher.
pub fn engine_run_rows(session: &Session, frames: &FrameBlock, out: &mut [i64]) -> Res<()> {
    session
        .engine()
        .run_rows(frames, 0, frames.frames(), out)
        .map_err(text)
}

// ---- smm-runtime: cache + tiered fleet -----------------------------------

pub fn cache_new() -> Arc<MultiplierCache> {
    Arc::new(MultiplierCache::new())
}

pub fn cache_get(cache: &MultiplierCache, v: &IntMatrix) -> Res<Arc<FixedMatrixMultiplier>> {
    cache
        .get_or_compile(v, INPUT_BITS, WeightEncoding::Pn)
        .map_err(text)
}

/// A fleet over a store directory; digests already on disk register cold.
pub fn tiered_open(dir: &Path, max_hot: usize, max_warm: usize) -> Res<TieredRegistry> {
    let store = Store::open(dir).map_err(text)?;
    TieredRegistry::with_store(TieredConfig { max_hot, max_warm }, store).map_err(text)
}

/// Installs a freshly built session hot, persisting its artifacts.
pub fn tiered_insert(fleet: &TieredRegistry, v: IntMatrix, session: Session) -> Res<()> {
    match fleet.insert(v, session, None) {
        smm_runtime::InsertOutcome::Capacity { loaded } => Err(format!("fleet full at {loaded}")),
        _ => Ok(()),
    }
}

/// Looks a digest up, promoting it through `build` when it is not hot.
pub fn tiered_acquire(
    fleet: &TieredRegistry,
    digest: u64,
    build: impl FnOnce(IntMatrix) -> Res<Session>,
) -> Res<Arc<Session>> {
    let runtime_err = |context| smm_core::error::Error::Runtime { context };
    fleet
        .acquire(digest, |m| build(m).map_err(runtime_err))
        .map_err(text)?
        .ok_or_else(|| format!("digest {digest:#018x} is not in the fleet"))
}

pub fn tiered_is_cold(fleet: &TieredRegistry, digest: u64) -> bool {
    fleet.tier_of(digest) == Some(smm_store::Tier::Cold)
}

/// The store read a cold promotion performs, on the fleet's own store.
pub fn store_get_matrix_of(fleet: &TieredRegistry, digest: u64) -> Res<IntMatrix> {
    store_get_matrix(fleet.store().ok_or("the fleet has no store")?, digest)
}

/// One tier down (hot → warm → cold); false when it cannot move.
pub fn tiered_demote(fleet: &TieredRegistry, digest: u64) -> bool {
    fleet.demote(digest).is_some()
}

// ---- smm-store -----------------------------------------------------------

pub fn store_open(dir: &Path) -> Res<Store> {
    Store::open(dir).map_err(text)
}

pub fn store_put(store: &Store, digest: u64, artifact: &Artifact) -> Res<()> {
    store.put(digest, artifact).map_err(text)
}

pub fn store_get_matrix(store: &Store, digest: u64) -> Res<IntMatrix> {
    match store.get(digest, ArtifactKind::Matrix).map_err(text)? {
        Some(Artifact::Matrix(m)) => Ok(m),
        _ => Err(format!("no matrix artifact for {digest:#018x}")),
    }
}

pub fn store_matrix_bytes(store: &Store, digest: u64) -> Res<u64> {
    std::fs::metadata(store.path_for(digest, ArtifactKind::Matrix))
        .map(|m| m.len())
        .map_err(text)
}

/// The three artifacts a `LoadMatrix` persists for one matrix.
pub fn store_artifacts(v: &IntMatrix) -> [Artifact; 3] {
    [
        Artifact::Matrix(v.clone()),
        Artifact::Csr(Csr::from_dense(v)),
        Artifact::Circuit(smm_store::CircuitMeta {
            engine: "csr".into(),
            input_bits: INPUT_BITS,
            encoding: "Pn".into(),
            rows: v.rows() as u64,
            cols: v.cols() as u64,
            nnz: v.nnz() as u64,
            rationale: "benchmark artifact".into(),
        }),
    ]
}

// ---- smm-server: protocol --------------------------------------------------

pub fn encode_gemv_request(digest: u64, vector: &[i32]) -> Vec<u8> {
    Request::Gemv {
        digest,
        vector: vector.to_vec(),
    }
    .encode(VERSION)
}

pub fn encode_batch_request(digest: u64, frames: &FrameBlock) -> Vec<u8> {
    Request::encode_gemv_batch(digest, frames)
}

pub fn encode_load_request(v: &IntMatrix) -> Vec<u8> {
    Request::LoadMatrix {
        matrix: v.clone(),
        backend: Some(BackendKind::Auto),
    }
    .encode(VERSION)
}

pub fn decode_request(opcode: Opcode, payload: &[u8]) -> Res<Request> {
    Request::decode(VERSION, opcode, payload).map_err(text)
}

pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    reply.encode(VERSION)
}

pub fn decode_reply(opcode: Opcode, payload: &[u8]) -> Res<Reply> {
    Reply::decode(VERSION, opcode, payload).map_err(text)
}

/// Bytes of frame header around every payload.
pub const FRAME_HEADER_BYTES: usize = smm_server::protocol::HEADER_LEN;

// ---- smm-server: server + client -------------------------------------------

/// What a workload varies on the server; everything else is the default.
#[derive(Debug, Clone, Default)]
pub struct ServerShape {
    pub threads: usize,
    /// `(max_matrices, max_warm, store_dir)` for the tiered workload.
    pub fleet: Option<(usize, usize, String)>,
}

pub fn server_start(shape: &ServerShape) -> Res<ServerHandle> {
    let config = match &shape.fleet {
        None => ServerConfig {
            threads: shape.threads,
            ..ServerConfig::default()
        },
        Some((max_matrices, max_warm, dir)) => ServerConfig {
            threads: shape.threads,
            max_matrices: *max_matrices,
            max_warm: *max_warm,
            store_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    };
    smm_server::start(config).map_err(text)
}

pub fn client_connect(server: &ServerHandle) -> Res<Client> {
    Client::connect(server.local_addr()).map_err(text)
}

pub fn client_load(client: &mut Client, v: &IntMatrix, engine: Engine) -> Res<LoadedInfo> {
    client
        .load_matrix_with(v, Some(engine.backend()))
        .map_err(text)
}

pub fn client_gemv(client: &mut Client, digest: u64, a: &[i32]) -> Res<Vec<i64>> {
    client.gemv(digest, a).map_err(text)
}

pub fn client_gemv_block(client: &mut Client, digest: u64, frames: &FrameBlock) -> Res<RowBlock> {
    client.gemv_block(digest, frames).map_err(text)
}

pub fn client_ping(client: &mut Client) -> Res<()> {
    client.ping().map_err(text)
}

pub fn client_stats(client: &mut Client) -> Res<StatsSnapshot> {
    client.stats().map_err(text)
}

/// The server's own per-stage medians, in pipeline order, in µs. These
/// come from `LatencyHistogram`, so each is a log₂-bucket midpoint.
pub fn stage_p50_us(stats: &StatsSnapshot) -> Vec<(&'static str, f64)> {
    Stage::ALL
        .iter()
        .map(|&stage| (stage.name(), stats.stage(stage).p50_ns as f64 / 1e3))
        .collect()
}

// ---- smm-telemetry -----------------------------------------------------------

pub fn hist_record(hist: &LatencyHistogram, latency: Duration) {
    hist.record(latency);
}
