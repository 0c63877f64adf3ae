//! The ladder replay: the benchmark plays the server's part in-process,
//! calling each layer's public function in order for the same
//! operations the workload issues, each call inside a span.
//!
//! Rungs, top to bottom: request encode → request decode → (fleet
//! acquire → session build → store read) → `Session::run`/`run_block` →
//! engine `run_rows` → raw kernel → reply encode → reply decode. The
//! compute rungs repeat the same product at three depths, so the cost
//! of a layer is the difference between two adjacent rungs.

use crate::layers::{
    self, Engine, FrameBlock, IntMatrix, Opcode, Reply, Request, RowBlock, Session,
};
use crate::spans::Tracer;
use crate::workloads::{reservoir_update, FleetChurn, Res, ReservoirStep, WireBatch, WireSingle};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Operations a replay covers at most.
pub const MAX_OPS: u64 = 2000;

pub trait Ladder {
    /// Replays up to `max_ops` operations (or until `budget` is spent)
    /// into `tracer`; returns `(operations replayed, wrong outputs)`.
    fn ladder(&self, tracer: &mut Tracer, max_ops: u64, budget: Duration) -> Res<(u64, u64)>;
}

/// Any digest will do: the ladder's requests never reach a registry
/// except on `fleet-churn`, which uses the matrices' own.
const LADDER_DIGEST: u64 = 0x5eed_1add_e700_0001;

/// Operations replayed back to back before the replay rests: the whole
/// replay can be shorter than one slow spell of the machine (2 000
/// `wire-single` operations take 60 ms), so it is spread over a second
/// or two for the fastest twentieth of each span to be worth reading.
const OPS_PER_BURST: u64 = 100;
const REST: Duration = Duration::from_millis(50);

fn replay(
    max_ops: u64,
    budget: Duration,
    mut one: impl FnMut(u64) -> Res<bool>,
) -> Res<(u64, u64)> {
    let started = Instant::now();
    let (mut ops, mut wrong) = (0, 0);
    while ops < max_ops && started.elapsed() < budget {
        wrong += u64::from(!one(ops)?);
        ops += 1;
        if ops.is_multiple_of(OPS_PER_BURST) {
            std::thread::sleep(REST);
        }
    }
    Ok((ops, wrong))
}

/// The raw kernel under an engine, when the engine is one of the two
/// whose kernel is a public function of its own crate.
enum RawKernel {
    Csr(layers::Csr),
    Dense(IntMatrix),
    None,
}

impl RawKernel {
    fn under(engine: &str, v: &IntMatrix) -> RawKernel {
        match engine {
            "csr" => RawKernel::Csr(layers::csr_build(v)),
            "dense" => RawKernel::Dense(v.clone()),
            _ => RawKernel::None,
        }
    }

    /// One product per frame into `out`; false when there is no kernel.
    fn run(&self, frames: &FrameBlock, out: &mut [i64]) -> Res<bool> {
        let width = out.len() / frames.frames().max(1);
        for (a, o) in frames.iter().zip(out.chunks_mut(width.max(1))) {
            match self {
                RawKernel::Csr(csr) => layers::csr_kernel(csr, a, o)?,
                RawKernel::Dense(v) => layers::dense_kernel(a, v, o)?,
                RawKernel::None => return Ok(false),
            }
        }
        Ok(true)
    }
}

/// The two rungs under `Session::run`/`run_block`, cross-checked
/// against the session's own output.
fn compute_rungs(
    t: &mut Tracer,
    op: u64,
    session: &Session,
    kernel: &RawKernel,
    frames: &FrameBlock,
    session_output: &[i64],
) -> Res<bool> {
    let mut rows = vec![0i64; session_output.len()];
    t.scope("engine.run_rows", op, |_| {
        layers::engine_run_rows(session, frames, &mut rows)
    })?;
    let mut agree = rows == session_output;
    let ran = t.scope("kernel.raw", op, |_| kernel.run(frames, &mut rows))?;
    if ran {
        agree &= rows == session_output;
    }
    Ok(agree)
}

fn single_request_rungs(t: &mut Tracer, op: u64, digest: u64, a: &[i32]) -> Res<(u64, Vec<i32>)> {
    let payload = t.scope("protocol.encode_req", op, |_| {
        layers::encode_gemv_request(digest, a)
    });
    match t.scope("protocol.decode_req", op, |_| {
        layers::decode_request(Opcode::Gemv, &payload)
    })? {
        Request::Gemv { digest, vector } => Ok((digest, vector)),
        _ => Err("a Gemv payload decoded as another request".into()),
    }
}

fn single_reply_rungs(t: &mut Tracer, op: u64, output: Vec<i64>, expected: &[i64]) -> Res<bool> {
    let reply = Reply::Output(output);
    let payload = t.scope("protocol.encode_reply", op, |_| {
        layers::encode_reply(&reply)
    });
    let decoded = t.scope("protocol.decode_reply", op, |_| {
        layers::decode_reply(Opcode::Gemv, &payload)
    })?;
    Ok(matches!(decoded, Reply::Output(o) if o == expected))
}

impl Ladder for ReservoirStep {
    fn ladder(&self, tracer: &mut Tracer, max_ops: u64, budget: Duration) -> Res<(u64, u64)> {
        let v = layers::matrix(self.weights())?;
        let session = layers::session_build(v.clone(), Engine::Auto, 1)?;
        let kernel = RawKernel::under(layers::session_engine_name(&session), &v);
        let mut x = self.x0().to_vec();
        replay(max_ops, budget, |op| {
            let frame = layers::frame_block(1, Self::DIM, x.clone())?;
            let (o, agree) = tracer.scope("op", op, |t| -> Res<_> {
                let o = t.scope("session.run", op, |_| layers::session_run(&session, &x))?;
                let agree = compute_rungs(t, op, &session, &kernel, &frame, &o)?;
                Ok((o, agree))
            })?;
            let ok = agree && o == self.reference().apply(&x);
            reservoir_update(&mut x, &o, self.drive(op));
            Ok(ok)
        })
    }
}

impl Ladder for WireSingle {
    fn ladder(&self, tracer: &mut Tracer, max_ops: u64, budget: Duration) -> Res<(u64, u64)> {
        // As the server builds it: the requested engine, the server's
        // thread count, and a stage recorder attached.
        let session = layers::session_build_recorded(self.matrix().clone(), Engine::Csr, 1)?;
        let kernel = RawKernel::under("csr", self.matrix());
        replay(max_ops, budget, |op| {
            let (a, expected) = self.request(op);
            tracer.scope("op", op, |t| {
                let (_, vector) = single_request_rungs(t, op, LADDER_DIGEST, a)?;
                let o = t.scope("session.run", op, |_| {
                    layers::session_run(&session, &vector)
                })?;
                let frame = layers::frame_block(1, Self::DIM, vector)?;
                let agree = compute_rungs(t, op, &session, &kernel, &frame, &o)?;
                Ok(single_reply_rungs(t, op, o, expected)? && agree)
            })
        })
    }
}

impl Ladder for WireBatch {
    fn ladder(&self, tracer: &mut Tracer, max_ops: u64, budget: Duration) -> Res<(u64, u64)> {
        let session = layers::session_build_recorded(self.matrix().clone(), Engine::Auto, 2)?;
        let kernel = RawKernel::under(layers::session_engine_name(&session), self.matrix());
        replay(max_ops, budget, |op| {
            let (frames, expected) = self.request(op);
            tracer.scope("op", op, |t| {
                let payload = t.scope("protocol.encode_req", op, |_| {
                    layers::encode_batch_request(LADDER_DIGEST, frames)
                });
                let decoded = t.scope("protocol.decode_req", op, |_| {
                    layers::decode_request(Opcode::GemvBatch, &payload)
                })?;
                let Request::GemvBatch { frames, .. } = decoded else {
                    return Err("a GemvBatch payload decoded as another request".into());
                };
                let frames = Arc::new(frames);
                let mut out = RowBlock::new();
                t.scope("session.run_block", op, |_| {
                    layers::session_run_block(&session, &frames, &mut out)
                })?;
                let agree = compute_rungs(t, op, &session, &kernel, &frames, out.as_slice())?;
                let reply = Reply::Outputs(out);
                let payload = t.scope("protocol.encode_reply", op, |_| {
                    layers::encode_reply(&reply)
                });
                let decoded = t.scope("protocol.decode_reply", op, |_| {
                    layers::decode_reply(Opcode::GemvBatch, &payload)
                })?;
                Ok(agree && matches!(decoded, Reply::Outputs(rows) if rows.as_slice() == expected))
            })
        })
    }
}

impl Ladder for FleetChurn {
    fn ladder(&self, tracer: &mut Tracer, max_ops: u64, budget: Duration) -> Res<(u64, u64)> {
        let dir = Self::fresh_store_dir("ladder")?;
        let fleet = layers::tiered_open(&dir, Self::HOT, Self::WARM)?;
        let cache = layers::cache_new();
        let mut digests = Vec::with_capacity(Self::MEMBERS);
        for member in self.members() {
            let session =
                layers::session_build_cached(member.matrix.clone(), member.engine, &cache)?;
            digests.push(layers::matrix_digest(&member.matrix));
            layers::tiered_insert(&fleet, member.matrix.clone(), session)?;
        }
        let result = replay(max_ops, budget, |op| {
            let (m, k) = self.request(op);
            let member = &self.members()[m];
            tracer.scope("op", op, |t| {
                let (digest, vector) = single_request_rungs(t, op, digests[m], &member.pool[k])?;
                // A cold digest is read back from the store inside
                // `acquire`; the same read is replayed first under a
                // span of its own, since it cannot be timed in there.
                if layers::tiered_is_cold(&fleet, digest) {
                    t.scope("store.get", op, |_| {
                        layers::store_get_matrix_of(&fleet, digest)
                    })?;
                }
                let session = t.scope("tiered.acquire", op, |t| {
                    layers::tiered_acquire(&fleet, digest, |matrix| {
                        // A promotion rebuilds with the server's default
                        // engine, whatever the original load asked for.
                        t.scope("session.build", op, |_| {
                            layers::session_build_cached(matrix, Engine::Csr, &cache)
                        })
                    })
                })?;
                let o = t.scope("session.run", op, |_| {
                    layers::session_run(&session, &vector)
                })?;
                let frame = layers::frame_block(1, vector.len(), vector)?;
                let agree = compute_rungs(t, op, &session, &RawKernel::None, &frame, &o)?;
                Ok(single_reply_rungs(t, op, o, &member.expected[k])? && agree)
            })
        });
        drop(fleet);
        let _ = std::fs::remove_dir_all(&dir);
        result
    }
}
