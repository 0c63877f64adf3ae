//! The blocking client side of the wire protocol.

use crate::protocol::{
    put_gemv, put_gemv_batch, put_load_matrix, BackendKind, Connection, FrameError, LoadedInfo,
    Opcode, Reply, Request, StatsSnapshot,
};
use smm_core::block::{FrameBlock, RowBlock};
use smm_core::matrix::IntMatrix;
use std::net::{TcpStream, ToSocketAddrs};

/// Why a client call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The server's admission queue is full; retry after backing off.
    Busy,
    /// The server's matrix fleet is at capacity across every tier; the
    /// upload was refused. Carries the resident digest count. Evict or
    /// point the server at a `--store-dir` so pressure demotes to disk
    /// instead of refusing.
    Capacity {
        /// Digests currently resident across all tiers.
        loaded: u64,
    },
    /// The server answered with an error message.
    Remote(String),
    /// The connection or the protocol itself failed; the client is dead.
    Transport(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Busy => write!(f, "server busy: admission queue full"),
            ServeError::Capacity { loaded } => {
                write!(f, "matrix registry full ({loaded} loaded)")
            }
            ServeError::Remote(message) => write!(f, "server error: {message}"),
            ServeError::Transport(context) => write!(f, "transport failure: {context}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<FrameError> for ServeError {
    fn from(e: FrameError) -> Self {
        ServeError::Transport(e.to_string())
    }
}

/// Client-side result alias.
pub(crate) type ServeResult<T> = std::result::Result<T, ServeError>;

/// A blocking connection to an `smm-server`.
///
/// One request is in flight at a time (send, then wait for the echoed
/// request id); open several clients for concurrency. All methods map a
/// `Busy` reply to [`ServeError::Busy`] so callers can implement their
/// own backoff. Each request is built in, and each reply read into, one
/// buffer the client keeps (`protocol` module docs, "One read and one
/// write per frame").
#[derive(Debug)]
pub struct Client {
    conn: Connection<TcpStream>,
    next_id: u64,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> ServeResult<Client> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| ServeError::Transport(format!("connecting: {e}")))?;
        stream
            .set_nodelay(true)
            .map_err(|e| ServeError::Transport(format!("setting nodelay: {e}")))?;
        Ok(Client {
            conn: Connection::new(stream),
            next_id: 1,
        })
    }

    fn call(&mut self, request: &Request) -> ServeResult<Reply> {
        self.call_with(request.opcode(), |buf| request.encode_into(buf))
    }

    /// One round trip whose payload `encode` appends straight into the
    /// connection's buffer — the hot paths serialize from borrowed data.
    fn call_with(
        &mut self,
        opcode: Opcode,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> ServeResult<Reply> {
        let id = self.next_id;
        self.next_id += 1;
        encode(self.conn.start_frame(opcode as u8, id));
        self.conn
            .send(&|| true)
            .map_err(|e| ServeError::Transport(format!("sending request: {e}")))?;
        let (header, reply) = self
            .conn
            .read_frame(&|| true, |header, payload| {
                Reply::decode(header.version, opcode, payload)
            })?
            // Unreachable with a constant `keep_going`.
            .ok_or_else(|| ServeError::Transport("idle abort while awaiting a reply".into()))?;
        if header.request_id != id || header.opcode != opcode as u8 {
            return Err(ServeError::Transport(format!(
                "reply for request {} opcode {} does not match request {id} opcode {}",
                header.request_id, header.opcode, opcode as u8
            )));
        }
        match reply.map_err(|e| ServeError::Transport(e.to_string()))? {
            Reply::Busy => Err(ServeError::Busy),
            Reply::CapacityFull { loaded } => Err(ServeError::Capacity { loaded }),
            Reply::Error(message) => Err(ServeError::Remote(message)),
            ok => Ok(ok),
        }
    }

    fn protocol_breach<T>(&self, what: &str) -> ServeResult<T> {
        Err(ServeError::Transport(format!(
            "server answered {what} with the wrong reply kind"
        )))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> ServeResult<()> {
        match self.call(&Request::Ping)? {
            Reply::Pong => Ok(()),
            _ => self.protocol_breach("ping"),
        }
    }

    /// Uploads a matrix for serving and returns the digest it is now
    /// addressable by, taking the server's default backend. See
    /// [`Client::load_matrix_with`] for the full reply.
    pub fn load_matrix(&mut self, matrix: &IntMatrix) -> ServeResult<u64> {
        Ok(self.load_matrix_with(matrix, None)?.digest)
    }

    /// Uploads a matrix with an optional backend choice
    /// (`auto|dense|csr|bitserial|sigma`; `None` takes the server
    /// default) and
    /// returns what the server now serves, including the engine it
    /// planned. Verifies the server and client agree on digest and shape
    /// (same content hash on both ends of the wire: each takes it over
    /// the body bytes it wrote or read). The matrix is serialized straight
    /// from the borrow — no clone.
    pub fn load_matrix_with(
        &mut self,
        matrix: &IntMatrix,
        backend: Option<BackendKind>,
    ) -> ServeResult<LoadedInfo> {
        let mut local = 0;
        let reply = self.call_with(Opcode::LoadMatrix, |buf| {
            local = put_load_matrix(buf, matrix, backend);
        })?;
        match reply {
            Reply::Loaded(info) => {
                if info.digest != local
                    || info.rows != matrix.rows() as u64
                    || info.cols != matrix.cols() as u64
                {
                    return Err(ServeError::Transport(format!(
                        "server loaded {}x{} digest {:#x}, expected {}x{} digest {local:#x}",
                        info.rows,
                        info.cols,
                        info.digest,
                        matrix.rows(),
                        matrix.cols()
                    )));
                }
                Ok(info)
            }
            _ => self.protocol_breach("load"),
        }
    }

    /// One product `o = aᵀV` against the loaded matrix `digest`.
    pub fn gemv(&mut self, digest: u64, vector: &[i32]) -> ServeResult<Vec<i64>> {
        match self.call_with(Opcode::Gemv, |buf| put_gemv(buf, digest, vector))? {
            Reply::Output(o) => Ok(o),
            _ => self.protocol_breach("gemv"),
        }
    }

    /// A batch of products as flat blocks: one [`FrameBlock`] request
    /// in, one [`RowBlock`] of output rows back, in request order. The
    /// frames are serialized straight from the borrow — no clone.
    pub fn gemv_block(&mut self, digest: u64, frames: &FrameBlock) -> ServeResult<RowBlock> {
        match self.call_with(Opcode::GemvBatch, |buf| put_gemv_batch(buf, digest, frames))? {
            Reply::Outputs(rows) => {
                if rows.frames() != frames.frames() {
                    return Err(ServeError::Transport(format!(
                        "server returned {} output rows for {} input frames",
                        rows.frames(),
                        frames.frames()
                    )));
                }
                Ok(rows)
            }
            _ => self.protocol_breach("gemv_block"),
        }
    }

    /// Server-wide metrics snapshot.
    pub fn stats(&mut self) -> ServeResult<StatsSnapshot> {
        match self.call(&Request::Stats)? {
            Reply::Stats(s) => Ok(*s),
            _ => self.protocol_breach("stats"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_to_nothing_is_a_transport_error() {
        // Port 1 on loopback is essentially never listening.
        let err = Client::connect("127.0.0.1:1").unwrap_err();
        assert!(matches!(err, ServeError::Transport(_)), "{err}");
        assert!(err.to_string().contains("connecting"));
    }

    #[test]
    fn serve_error_displays() {
        assert!(ServeError::Busy.to_string().contains("busy"));
        assert!(ServeError::Remote("x".into()).to_string().contains("x"));
        assert_eq!(
            ServeError::Capacity { loaded: 64 }.to_string(),
            "matrix registry full (64 loaded)"
        );
    }
}
