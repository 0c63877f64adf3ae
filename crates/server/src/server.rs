//! The threaded TCP server: sessions, admission control, registry,
//! graceful shutdown.
//!
//! One OS thread per connection reads frames, decodes requests, and
//! computes inline; each loaded matrix is served by a [`Session`] (a
//! plan and an engine handle). A single `Gemv` runs on the connection's
//! own thread; a `GemvBatch` is cut into shards for the one worker pool
//! the process shares across every matrix. Compute requests must first
//! clear a server-wide [`AdmissionQueue`] — a bounded concurrency budget.
//! When the budget is spent the server answers `Busy` *immediately*
//! instead of buffering: under overload, callers get a clear backpressure
//! signal within one round trip, and server memory stays flat.
//!
//! Shutdown is cooperative: [`ServerHandle::shutdown`] raises a flag,
//! wakes the accept loop, and joins every session thread. Sessions poll
//! the flag on short socket read and write timeouts, so an in-flight
//! request is always answered before its connection drains — a request
//! accepted is a request served — while a peer that stopped reading its
//! reply is dropped once the flag is up instead of holding the drain.
//!
//! Each connection reads through a buffered reader and builds every
//! reply in one recycled buffer (`protocol` module docs, "One read and
//! one write per frame"): a small frame costs one `read` and one
//! `write`, and no frame buffer is allocated per frame.

use crate::metrics::{self, ServerMetrics};
use crate::protocol::{
    batch_reply_len, decode_load, BackendKind, Connection, FrameError, LoadedInfo, Opcode, Reply,
    Request, StatsSnapshot, HEADER_LEN, MAX_FRAME_PAYLOAD, STATUS_CAPACITY, STATUS_ERROR,
};
use smm_core::error::{Error, Result};
use smm_core::wire::MatrixBody;
use smm_runtime::{EngineSpec, InsertOutcome, Session, TieredConfig, TieredRegistry};
use smm_store::Store;
use smm_telemetry::{Span, Stage};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Engine built for each loaded matrix whose load names none: the
    /// [`EngineSpec`] kind of that name, `auto` planned per matrix.
    pub backend: BackendKind,
    /// Most shards one batch is cut into for the process-wide worker
    /// pool (0 = one per core). Loading a matrix spawns no thread.
    pub threads: usize,
    /// Admission budget: compute requests allowed in flight at once
    /// before the server answers `Busy`. Minimum 1.
    pub queue_depth: usize,
    /// Hot-tier bound: sessions (plan + compiled engine) resident at
    /// once. Pressure past the bound demotes the least used session,
    /// then the least recent, to the warm tier instead of refusing the
    /// load.
    pub max_matrices: usize,
    /// Warm-tier bound: raw matrices resident in memory awaiting
    /// recompile-on-demand. Pressure past the bound spills to the
    /// on-disk store when `store_dir` is set; without one, a load that
    /// finds both tiers full is refused with a typed capacity reply.
    pub max_warm: usize,
    /// Directory for the persistent artifact store. When set, every
    /// loaded matrix is serialized (digest-addressed, checksummed) so a
    /// restarted server reloads its fleet without recompiling, and
    /// capacity pressure demotes to disk instead of erroring. `None`
    /// (the default) keeps the fleet memory-only.
    pub store_dir: Option<String>,
    /// Optional bind address for the Prometheus `/metrics` HTTP
    /// listener (port 0 picks a free port; see
    /// [`ServerHandle::metrics_addr`]). `None` (the default) serves no
    /// exposition endpoint; the wire `Stats` opcode always works.
    pub metrics_addr: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            backend: BackendKind::default(),
            threads: 0,
            queue_depth: 64,
            max_matrices: 64,
            max_warm: 256,
            metrics_addr: None,
            store_dir: None,
        }
    }
}

/// A bounded concurrency budget with immediate-rejection semantics.
///
/// [`AdmissionQueue::try_enter`] never blocks: it either returns a
/// permit (released on drop) or `None`, which the protocol layer turns
/// into a `Busy` reply. This is admission *control*, deliberately not a
/// waiting queue — buffering under overload only moves the problem into
/// server memory and adds latency to every queued caller.
#[derive(Debug)]
pub(crate) struct AdmissionQueue {
    capacity: usize,
    in_flight: AtomicUsize,
}

impl AdmissionQueue {
    /// A budget of `capacity` concurrent permits (minimum 1).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            in_flight: AtomicUsize::new(0),
        }
    }

    /// Claims a permit, or `None` if the budget is spent.
    pub(crate) fn try_enter(&self) -> Option<AdmissionPermit<'_>> {
        self.in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.capacity).then_some(n + 1)
            })
            .ok()
            .map(|_| AdmissionPermit { queue: self })
    }
}

/// An admission slot; returns to the budget on drop.
#[derive(Debug)]
pub(crate) struct AdmissionPermit<'a> {
    queue: &'a AdmissionQueue,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.queue.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// State shared by the accept loop and every connection thread. Each
/// loaded matrix is served by one [`Session`] (planned per the
/// request's or the server's backend choice): singles compute on the
/// connection thread, batches on the process's shared workers.
struct Shared {
    config: ServerConfig,
    /// The tiered matrix fleet: hot sessions, warm matrices, cold
    /// artifact bytes in the optional store. The one residency policy:
    /// an engine stays built exactly as long as its session is hot, and
    /// a promotion builds it again (a bit-serial one recompiles).
    registry: TieredRegistry,
    admission: AdmissionQueue,
    metrics: ServerMetrics,
    shutdown: AtomicBool,
    /// Connections ever accepted (names session threads).
    connections: AtomicU64,
    /// Connections open now (the `smm_connections` gauge).
    open_connections: AtomicU64,
}

impl Shared {
    fn stats(&self) -> StatsSnapshot {
        // One fleet lock per snapshot (the tier counts); every other
        // number here is an atomic.
        let fleet = self.registry.snapshot();
        let stages = self.metrics.stages.stage_stats();
        // A compute request's latency is the interval the session times
        // as the compute stage; one clock serves both.
        let compute = stages[Stage::Compute.idx()];
        let counter = |c: &AtomicU64| c.load(Ordering::Relaxed);
        StatsSnapshot {
            requests: counter(&self.metrics.requests),
            rejected: counter(&self.metrics.rejected),
            errors: counter(&self.metrics.errors),
            bytes_in: counter(&self.metrics.bytes_in),
            bytes_out: counter(&self.metrics.bytes_out),
            vectors: counter(&self.metrics.vectors),
            batches: counter(&self.metrics.batches),
            matrices: fleet.counts.total(),
            latency_count: compute.count,
            p50_latency_ns: compute.p50_ns,
            p99_latency_ns: compute.p99_ns,
            stages,
            tier_hot: fleet.counts.hot,
            tier_warm: fleet.counts.warm,
            tier_cold: fleet.counts.cold,
            store_promotions: fleet.promotions,
            store_demotions: fleet.demotions,
            store_hits: fleet.store_hits,
        }
    }

    /// The Prometheus exposition of the same snapshot the wire `Stats`
    /// opcode serves.
    fn render_metrics(&self) -> String {
        let open = self.open_connections.load(Ordering::Relaxed);
        metrics::render(&self.stats(), open, &self.metrics)
    }

    /// Builds the session serving the matrix `body` stands for, under
    /// the request's backend choice when given, else the server-wide
    /// default, cut into the server's shard count.
    fn build_session(
        &self,
        body: Arc<MatrixBody>,
        requested: Option<BackendKind>,
    ) -> Result<Session> {
        let kind = requested.unwrap_or(self.config.backend).name();
        Session::builder_body(body)
            .spec(EngineSpec::new(kind).threads(self.config.threads))
            // Every session shares the server's stage histograms, so
            // shard/reassemble/compute timings from any matrix land in
            // one exposition.
            .recorder(self.metrics.stages.clone())
            .build()
    }

    /// Serves one decoded request. `Busy`/`Error` replies are produced
    /// here; frame-level failures are handled by the session loop. The
    /// span arrives with `decode` stamped; compute requests stamp
    /// `queue` and `plan` on their way into the session.
    fn serve(&self, inbound: Inbound, span: &mut Span<'_>) -> Reply {
        let request = match inbound {
            Inbound::Load(body, backend) => return self.serve_load(body, backend, span),
            Inbound::Other(request) => request,
        };
        match request {
            Request::Ping => Reply::Pong,
            Request::Stats => Reply::Stats(Box::new(self.stats())),
            // Loads off the wire arrive as `Inbound::Load`; a load decoded
            // to its dense matrix is served as that matrix's body.
            Request::LoadMatrix { matrix, backend } => {
                self.serve_load(MatrixBody::of(&matrix), backend, span)
            }
            // Served work is counted here, where it is served — after the
            // product succeeded, whatever happens to the session next. A
            // single rides the session's fast path (no pool round trip)
            // and counts as one vector.
            Request::Gemv { digest, vector } => self.serve_compute(digest, span, |session| {
                let out = session.run(&vector)?;
                self.metrics.vectors.fetch_add(1, Ordering::Relaxed);
                Ok(Reply::Output(out))
            }),
            // The batch arrives as a flat block straight off the wire
            // and the reply is encoded straight out of the output block.
            // An empty batch is answered but is not served work, and
            // neither is one whose reply could not fit in a frame: it
            // is refused before it is computed.
            Request::GemvBatch { digest, frames } => self.serve_compute(digest, span, |session| {
                if batch_reply_len(frames.frames(), session.cols()) > MAX_FRAME_PAYLOAD {
                    return Ok(Reply::Error(REPLY_TOO_LARGE.into()));
                }
                let mut out = smm_runtime::RowBlock::new();
                let served = session.run_block(frames, &mut out)?.batch as u64;
                self.metrics.batches.fetch_add(u64::from(served > 0), Ordering::Relaxed);
                self.metrics.vectors.fetch_add(served, Ordering::Relaxed);
                Ok(Reply::Outputs(out))
            }),
        }
    }

    fn serve_load(
        &self,
        body: MatrixBody,
        requested: Option<BackendKind>,
        span: &mut Span<'_>,
    ) -> Reply {
        let digest = body.digest();
        let rows = body.rows() as u64;
        let cols = body.cols() as u64;
        let loaded = |session: &Session, already_loaded: bool| {
            Reply::Loaded(LoadedInfo {
                digest,
                rows,
                cols,
                already_loaded,
                engine: session.engine().name().to_string(),
            })
        };
        // Any-tier hit answers from the fleet: a hot digest returns its
        // live session, a warm one rebuilds from its body, and a cold one
        // is read back from the store — a store hit, not a rebuild from
        // the uploaded bytes. First load wins: a repeat load with a
        // different backend choice reports the engine that is actually
        // serving. The fleet lookup (including any store read) is
        // stamped as the plan stage.
        match self
            .registry
            .acquire_body(digest, |b| self.build_session(b, requested))
        {
            Ok(Some(session)) => {
                span.mark(Stage::Plan);
                return loaded(&session, true);
            }
            // Unknown digest — or cold bytes that failed their digest check,
            // already warned about and dropped; the upload in hand
            // rebuilds (and re-persists) the entry either way.
            Ok(None) => {}
            Err(e) => return Reply::Error(format!("loading matrix: {e}")),
        }
        // Refuse *before* building: a rejected load must not burn a
        // compile.
        if let Some(resident) = self.registry.full_capacity() {
            return Reply::CapacityFull { loaded: resident };
        }
        // Build outside the registry lock: a slow bit-serial compile must
        // not stall requests against already-loaded matrices. Two racing
        // loaders both build (a bit-serial one compiles twice); the first
        // insert wins and the loser's session is dropped.
        // The body received is the one the fleet keeps and files.
        let body = Arc::new(body);
        let session = match self.build_session(Arc::clone(&body), requested) {
            Ok(session) => session,
            Err(e) => return Reply::Error(format!("loading matrix: {e}")),
        };
        span.mark(Stage::Plan);
        match self.registry.insert_body(body, session) {
            InsertOutcome::Installed(session) => loaded(&session, false),
            InsertOutcome::AlreadyLoaded(session) => loaded(&session, true),
            InsertOutcome::Capacity { loaded: resident } => {
                Reply::CapacityFull { loaded: resident }
            }
        }
    }

    fn serve_compute(
        &self,
        digest: u64,
        span: &mut Span<'_>,
        compute: impl FnOnce(&Session) -> Result<Reply>,
    ) -> Reply {
        // Admission runs before the registry lookup so the stamped
        // stages match the pipeline order (queue wait, then plan
        // lookup): under overload the server's first and only act is the
        // one-atomic admission check, and a `Busy` reply never touches
        // the registry lock.
        let Some(_permit) = self.admission.try_enter() else {
            self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            return Reply::Busy;
        };
        span.mark(Stage::Queue);
        // The fleet lookup promotes on demand: a warm or cold digest is
        // rebuilt into a session right here (cold reads count as store
        // hits), so traffic against a demoted matrix keeps working.
        let session = match self
            .registry
            .acquire_body(digest, |b| self.build_session(b, None))
        {
            Ok(Some(session)) => session,
            Ok(None) => {
                return Reply::Error(format!("no matrix loaded with digest {digest:#018x}"))
            }
            Err(e) => return Reply::Error(format!("promoting matrix: {e}")),
        };
        span.mark(Stage::Plan);
        // The compute stages (shard / reassemble / compute) are stamped
        // inside the session, which shares this span's recorder.
        compute(&session).unwrap_or_else(|e| Reply::Error(format!("computing: {e}")))
    }
}

/// A running server; dropping it (or calling
/// [`ServerHandle::shutdown`]) stops it.
pub struct ServerHandle {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    accept: Option<JoinHandle<()>>,
    metrics: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when the config said 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound `/metrics` listener address, when the config asked for
    /// one (with the real port when it said 0).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The Prometheus exposition the `/metrics` endpoint would serve,
    /// rendered in-process (works whether or not a listener is bound).
    pub fn render_metrics(&self) -> String {
        self.shared.render_metrics()
    }

    /// Graceful shutdown: stop accepting, let every in-flight request
    /// finish and its reply flush, join all threads. Returns the final
    /// stats snapshot.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.stop_and_join();
        self.shared.stats()
    }

    fn stop_and_join(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            // The accept loop sits in a blocking `accept()`; a throwaway
            // connection wakes it to observe the flag.
            let _ = TcpStream::connect(self.local_addr);
            let _ = accept.join();
        }
        if let Some(metrics) = self.metrics.take() {
            if let Some(addr) = self.metrics_addr {
                let _ = TcpStream::connect(addr);
            }
            let _ = metrics.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// How long a session blocks on its socket, reading or writing, before
/// re-checking the shutdown flag. Bounds shutdown latency; invisible to
/// throughput.
const SESSION_POLL: Duration = Duration::from_millis(50);

/// The refusal of a reply that would not fit in one frame.
const REPLY_TOO_LARGE: &str = "reply exceeds frame capacity; split the batch";

/// Starts the server and returns once it is accepting connections.
pub fn start(config: ServerConfig) -> Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr).map_err(|e| Error::Runtime {
        context: format!("binding {}: {e}", config.addr),
    })?;
    let local_addr = listener.local_addr().map_err(|e| Error::Runtime {
        context: format!("resolving bound address: {e}"),
    })?;
    // Assemble the tiered fleet. An unopenable store directory fails
    // `start` cleanly (like a bad bind address); *corrupt files inside
    // a valid directory do not* — the scan registers them cold and the
    // first request against one warns and falls back to recompiling.
    let tiers = TieredConfig {
        max_hot: config.max_matrices,
        max_warm: config.max_warm,
    };
    let registry = match &config.store_dir {
        Some(dir) => {
            let store = Store::open(dir)?;
            TieredRegistry::with_store(tiers, store).map_err(|e| Error::Runtime {
                context: format!("scanning store directory {dir}: {e}"),
            })?
        }
        None => TieredRegistry::new(tiers),
    };
    let shared = Arc::new(Shared {
        admission: AdmissionQueue::new(config.queue_depth),
        config,
        registry,
        metrics: ServerMetrics::default(),
        shutdown: AtomicBool::new(false),
        connections: AtomicU64::new(0),
        open_connections: AtomicU64::new(0),
    });
    // Bind the optional metrics listener before spawning anything, so a
    // bad metrics address fails `start` cleanly with no thread leaked.
    let metrics_listener = match &shared.config.metrics_addr {
        Some(addr) => Some(TcpListener::bind(addr).map_err(|e| Error::Runtime {
            context: format!("binding metrics listener {addr}: {e}"),
        })?),
        None => None,
    };
    let metrics_addr = match &metrics_listener {
        Some(l) => Some(l.local_addr().map_err(|e| Error::Runtime {
            context: format!("resolving bound metrics address: {e}"),
        })?),
        None => None,
    };
    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::Builder::new()
        .name("smm-server-accept".into())
        .spawn(move || accept_loop(&listener, &accept_shared))
        .map_err(|e| Error::Runtime {
            context: format!("spawning accept thread: {e}"),
        })?;
    let metrics = match metrics_listener {
        Some(metrics_listener) => {
            let metrics_shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("smm-server-metrics".into())
                    .spawn(move || metrics_loop(&metrics_listener, &metrics_shared))
                    .map_err(|e| Error::Runtime {
                        context: format!("spawning metrics thread: {e}"),
                    })?,
            )
        }
        None => None,
    };
    Ok(ServerHandle {
        shared,
        local_addr,
        metrics_addr,
        accept: Some(accept),
        metrics,
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok((stream, _peer)) = accepted else {
            // Transient accept failure (e.g. EMFILE); keep serving
            // existing sessions and try again.
            continue;
        };
        let id = shared.connections.fetch_add(1, Ordering::Relaxed);
        let session_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name(format!("smm-server-session-{id}"))
            .spawn(move || session_loop(stream, &session_shared));
        match spawned {
            Ok(handle) => sessions.push(handle),
            Err(_) => continue, // connection dropped; client will retry
        }
        // Reap finished sessions so the handle list tracks live
        // connections, not connection history.
        sessions.retain(|s| !s.is_finished());
    }
    // Drain: sessions notice the flag within one poll interval, finish
    // their in-flight request, and exit.
    for session in sessions {
        let _ = session.join();
    }
}

/// The `/metrics` accept loop: scrapes are rare and tiny, so each one
/// is served inline on this thread. Shutdown uses the same
/// throwaway-connect wake as the main accept loop.
fn metrics_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, _peer)) = accepted else {
            continue;
        };
        serve_scrape(stream, shared);
    }
}

/// Answers one plain-HTTP scrape: `GET /metrics` gets the Prometheus
/// text exposition, anything else a terse 404/405. Hand-rolled on
/// purpose — the endpoint speaks just enough HTTP/1.1 for `curl` and a
/// Prometheus scraper, keeping the server dependency-free.
fn serve_scrape(mut stream: TcpStream, shared: &Arc<Shared>) {
    if stream
        .set_read_timeout(Some(Duration::from_secs(1)))
        .is_err()
    {
        return;
    }
    // Read until the blank line that ends the request head; a scrape
    // request fits in one segment in practice.
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => head.extend_from_slice(&buf[..n]),
        }
        if head.len() > 8192 {
            return;
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut parts = head.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, body) = if method != "GET" {
        ("405 Method Not Allowed", "only GET is served\n".to_string())
    } else if path != "/metrics" {
        ("404 Not Found", "try /metrics\n".to_string())
    } else {
        ("200 OK", shared.render_metrics())
    };
    let response = format!(
        "HTTP/1.1 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}

/// A decoded request as the server serves it: a load keeps the matrix as
/// the body it arrived as, so the bytes the fleet keeps and files are the
/// bytes received, never a re-encoding.
enum Inbound {
    Load(MatrixBody, Option<BackendKind>),
    Other(Request),
}

impl Inbound {
    fn decode(version: u8, opcode: Opcode, payload: &[u8]) -> Result<Self> {
        match opcode {
            Opcode::LoadMatrix => {
                decode_load(version, payload).map(|(body, backend)| Inbound::Load(body, backend))
            }
            _ => Request::decode(version, opcode, payload).map(Inbound::Other),
        }
    }
}

/// Counts one connection as open until its session ends, by return or panic.
struct OpenConnection<'a>(&'a AtomicU64);

impl Drop for OpenConnection<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

fn session_loop(stream: TcpStream, shared: &Arc<Shared>) {
    shared.open_connections.fetch_add(1, Ordering::Relaxed);
    let _open = OpenConnection(&shared.open_connections);
    // Writes poll the shutdown flag as reads do: a peer that stopped
    // reading a large reply must not hold the drain forever.
    if stream.set_read_timeout(Some(SESSION_POLL)).is_err()
        || stream.set_write_timeout(Some(SESSION_POLL)).is_err()
    {
        return;
    }
    let mut conn = Connection::new(stream);
    let keep_going = || !shared.shutdown.load(Ordering::SeqCst);
    loop {
        let read = conn.read_frame(&keep_going, |header, payload| {
            // The span clock starts once the frame is fully off the wire —
            // blocking read time is client idle time, not pipeline latency.
            let mut span = shared.metrics.stages.span();
            let request = Opcode::from_u8(header.opcode)
                .and_then(|op| Inbound::decode(header.version, op, payload));
            if request.is_ok() {
                span.mark(Stage::Decode);
            }
            (span, request)
        });
        let (header, (mut span, request)) = match read {
            Ok(Some(frame)) => frame,
            // Idle abort: shutdown requested between frames.
            Ok(None) => return,
            // Clean disconnect, I/O failure, or an unrecoverable protocol
            // violation — nothing sensible left to say on this socket.
            Err(FrameError::Closed) | Err(FrameError::Io(_)) => return,
            Err(FrameError::Malformed(context)) => {
                // Best-effort parting diagnostic; the stream is
                // desynchronized so the connection must close either way.
                // There is no trustworthy request opcode to echo, so the
                // frame goes out under Ping (Error replies decode under
                // any opcode).
                Reply::Error(format!("protocol violation: {context}"))
                    .encode_into(conn.start_frame(Opcode::Ping as u8, 0));
                let _ = conn.send(&keep_going);
                return;
            }
        };
        let frame_len = (HEADER_LEN + header.len) as u64;
        shared.metrics.bytes_in.fetch_add(frame_len, Ordering::Relaxed);
        shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let reply = match request {
            Ok(request) => shared.serve(request, &mut span),
            // Undecodable payload: the frame boundary is intact, so
            // answer and keep the session.
            Err(e) => Reply::Error(e.to_string()),
        };
        // Reset the span clock: the compute stages were stamped by the
        // session, and `encode` must measure only encode + write.
        span.skip();
        let frame = conn.start_frame(header.opcode, header.request_id);
        reply.encode_into(frame);
        if frame.len() - HEADER_LEN > MAX_FRAME_PAYLOAD {
            // A batch is refused before it is computed; a single over
            // millions of columns can still widen past the frame cap.
            // Refuse rather than ship an unreadable frame.
            frame.truncate(HEADER_LEN);
            Reply::Error(REPLY_TOO_LARGE.into()).encode_into(frame);
        }
        if matches!(
            frame.get(HEADER_LEN),
            Some(&STATUS_ERROR) | Some(&STATUS_CAPACITY)
        ) {
            // Capacity refusals count as errors.
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
        }
        match conn.send(&keep_going) {
            Ok(n) => {
                span.mark(Stage::Encode);
                shared.metrics.bytes_out.fetch_add(n, Ordering::Relaxed);
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_core::matrix::IntMatrix;

    #[test]
    fn admission_queue_enforces_capacity() {
        let q = AdmissionQueue::new(2);
        assert_eq!(q.capacity, 2);
        let a = q.try_enter().unwrap();
        let b = q.try_enter().unwrap();
        assert_eq!(q.in_flight.load(Ordering::Relaxed), 2);
        assert!(q.try_enter().is_none(), "third permit over a budget of 2");
        drop(a);
        let c = q.try_enter().unwrap();
        assert!(q.try_enter().is_none());
        drop(b);
        drop(c);
        assert_eq!(q.in_flight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn admission_queue_zero_capacity_clamps_to_one() {
        let q = AdmissionQueue::new(0);
        assert_eq!(q.capacity, 1);
        let _p = q.try_enter().unwrap();
        assert!(q.try_enter().is_none());
    }

    #[test]
    fn admission_queue_is_race_free() {
        // Hammer try_enter from many threads; in_flight must never
        // exceed capacity and must return to zero.
        let q = Arc::new(AdmissionQueue::new(3));
        let peak = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let q = Arc::clone(&q);
                let peak = Arc::clone(&peak);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        if let Some(_permit) = q.try_enter() {
                            peak.fetch_max(q.in_flight.load(Ordering::Relaxed), Ordering::Relaxed);
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(peak.load(Ordering::Relaxed) <= 3);
        assert_eq!(q.in_flight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn policy_for_maps_backend_choices() {
        let shared = |backend| Shared {
            admission: AdmissionQueue::new(1),
            config: ServerConfig {
                backend,
                threads: 3,
                ..ServerConfig::default()
            },
            registry: TieredRegistry::new(TieredConfig::default()),
            metrics: ServerMetrics::default(),
            shutdown: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
        };
        // Fully dense, so `auto` plans dense and no row below can pass
        // for another.
        let v = IntMatrix::from_vec(2, 2, vec![1, 2, 3, 4]).unwrap();
        let served = |backend, requested| {
            let body = Arc::new(MatrixBody::of(&v));
            let session = shared(backend).build_session(body, requested).unwrap();
            session.plan().clone()
        };
        // What a session over the same matrix plans from `spec`.
        let planned = |spec| {
            let session = Session::builder(v.clone()).spec(spec).build().unwrap();
            session.plan().clone()
        };
        // No request choice: the server default, with the server's
        // shard count.
        assert_eq!(served(BackendKind::Csr, None), planned(EngineSpec::csr().threads(3)));
        assert_eq!(served(BackendKind::Auto, None), planned(EngineSpec::auto().threads(3)));
        // A request choice overrides the default.
        assert_eq!(
            served(BackendKind::Csr, Some(BackendKind::BitSerial)),
            planned(EngineSpec::bitserial().threads(3))
        );
        let auto = served(BackendKind::Csr, Some(BackendKind::Auto));
        assert_eq!(auto, planned(EngineSpec::auto().threads(3)));
        assert!(auto.rationale.starts_with("auto plan"), "{}", auto.rationale);
        assert_eq!(auto.spec, EngineSpec::dense().threads(3));
    }

    #[test]
    fn bind_failure_is_an_error_not_a_panic() {
        let config = ServerConfig {
            addr: "256.256.256.256:1".into(),
            ..ServerConfig::default()
        };
        assert!(start(config).is_err());
    }

    #[test]
    fn bad_metrics_address_fails_start_cleanly() {
        let config = ServerConfig {
            metrics_addr: Some("256.256.256.256:1".into()),
            ..ServerConfig::default()
        };
        assert!(start(config).is_err());
    }

    #[test]
    fn metrics_listener_is_optional() {
        let handle = start(ServerConfig::default()).unwrap();
        assert!(handle.metrics_addr().is_none());
        // The exposition still renders in-process without a listener.
        assert!(handle.render_metrics().contains("smm_requests_total"));
        handle.shutdown();
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let handle = start(ServerConfig {
            metrics_addr: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = handle.metrics_addr().expect("metrics listener bound");
        let scrape = |request: &[u8]| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(request).unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            response
        };
        let ok = scrape(b"GET /metrics HTTP/1.1\r\nHost: smm\r\n\r\n");
        assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
        assert!(ok.contains("smm_requests_total 0"), "{ok}");
        assert!(
            ok.contains("smm_stage_latency_ns_count{stage=\"decode\"}"),
            "{ok}"
        );
        // Wrong path / wrong method get terse refusals, and the
        // listener survives them to serve the next scrape.
        assert!(scrape(b"GET /other HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 404"));
        assert!(scrape(b"POST /metrics HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 405"));
        let again = scrape(b"GET /metrics HTTP/1.1\r\n\r\n");
        assert!(again.starts_with("HTTP/1.1 200 OK"), "{again}");
        handle.shutdown();
    }
}
