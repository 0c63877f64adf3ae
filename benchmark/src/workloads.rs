//! The four workloads: what each sets up, what one operation is, and
//! how its outputs are checked.
//!
//! All four are closed loops with one operation in flight — a reservoir
//! step cannot be issued before the previous one returns, and a `Client`
//! holds one request at a time — on one connection (never more than
//! `nproc`, which is 2 where this was sized). Expected outputs come from
//! [`Reference`] during [`Scenario`] construction, outside `setup_s`;
//! each reply is compared with its expected output after its latency
//! stamp is taken.

use crate::gen::{checksum, vector, Lcg, MatrixData, Reference};
use crate::layers::{
    self, Client, Engine, FrameBlock, IntMatrix, ServerHandle, ServerShape, Session,
};
use crate::metrics::Workload;
use std::path::PathBuf;
use std::time::Instant;

pub type Res<T> = Result<T, String>;

/// One timed operation: its latency stamp and whether its output
/// matched (checked after the stamp).
pub struct Op {
    pub latency_ns: u64,
    pub ok: bool,
}

/// Counters the server publishes; deltas over the timed window feed the
/// per-layer metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub requests: u64,
    pub rejected: u64,
    pub promotions: u64,
    pub store_hits: u64,
}

/// What a workload leaves behind when it is torn down.
#[derive(Debug, Default)]
pub struct Teardown {
    /// Failures only detectable after the window (the reservoir's
    /// sampled pairs and checksum).
    pub deferred_failed: u64,
    /// The server's stage medians, when there is a server.
    pub stage_p50_us: Vec<(&'static str, f64)>,
}

pub trait Scenario {
    type Live;
    const WORKLOAD: Workload;
    /// Output vectors one operation produces.
    const VECTORS_PER_OP: u64;
    /// Consecutive operations that make one segment, a millisecond or so
    /// of work where the workload allows.
    const OPS_PER_SEGMENT: u64;
    /// Segments after which the loop repeats itself: segment `k` of
    /// every round does the same work, so those can be compared with
    /// each other. 1 where all segments are alike.
    const SEGMENTS_PER_ROUND: u64;

    /// Everything `setup_s` covers: start the server (or build the
    /// session), load every matrix, and get a first correct reply.
    fn setup(&self) -> Res<Self::Live>;
    fn op(&self, live: &mut Self::Live, i: u64) -> Op;
    /// The engine serving the workload's (first) matrix.
    fn engine(&self, live: &Self::Live) -> String;
    fn counters(&self, live: &mut Self::Live) -> Counters;
    /// One `Client::ping` on the workload's own connection — transport,
    /// framing and wake-up with no registry and no compute. `None` when
    /// the workload has no server.
    fn ping(&self, live: &mut Self::Live) -> Option<bool>;
    fn teardown(&self, live: Self::Live) -> Teardown;
    /// Seconds the naive reference took to produce the expected outputs.
    fn reference_s(&self) -> f64;
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Flips the low bit of one expected value when the self-test asks for
/// a wrong answer key.
fn corrupt_if(corrupt: bool, value: &mut i64) {
    if corrupt {
        *value ^= 1;
    }
}

// ---- reservoir-step ----------------------------------------------------

/// Steps whose `(x, o)` pair is kept for re-checking after the window.
const SAMPLE_EVERY: u64 = 256;
/// Kept pairs live in a ring (the latest 256, some 65k steps: under 3 s
/// of them, so the ring is full by the end of any run and `peak_rss_mb`
/// holds the same 3 MiB of it however fast the kernel gets).
const MAX_SAMPLES: usize = 256;
/// The step whose state checksum pins the whole recurrence before it.
pub const CHECKSUM_STEP: u64 = 10_000;
const DRIVE_POOL: usize = 64;

/// In-process, 1 thread, no server: `o = Session::run(x)`, then
/// `x ← clamp((o >> 6) + u_t, ±127)`.
pub struct ReservoirStep {
    weights: MatrixData,
    reference: Reference,
    x0: Vec<i32>,
    drive: Vec<Vec<i32>>,
    first_output: Vec<i64>,
    checksum_at_step: u64,
    reference_s: f64,
}

pub struct ReservoirLive {
    session: Session,
    x: Vec<i32>,
    step: u64,
    samples: Vec<(Vec<i32>, Vec<i64>)>,
    checksum: Option<u64>,
}

/// The recurrence's state update, shared by the loop, the reference run
/// and the ladder replay.
pub fn reservoir_update(x: &mut [i32], o: &[i64], u: &[i32]) {
    for ((x, &o), &u) in x.iter_mut().zip(o).zip(u) {
        *x = ((o >> 6) + i64::from(u)).clamp(-127, 127) as i32;
    }
}

impl ReservoirStep {
    pub const DIM: usize = 1024;

    pub fn new(seed: u64, corrupt: bool) -> Self {
        let weights = MatrixData::sparse(&mut Lcg::stream(seed, 10), Self::DIM, Self::DIM, 0.95, 4);
        let mut rng = Lcg::stream(seed, 11);
        let x0 = vector(&mut rng, Self::DIM, 8);
        let drive = (0..DRIVE_POOL)
            .map(|_| vector(&mut rng, Self::DIM, 5))
            .collect::<Vec<_>>();
        let started = Instant::now();
        let reference = Reference::new(&weights);
        let first_output = reference.apply(&x0);
        let mut x = x0.clone();
        let mut o = vec![0i64; Self::DIM];
        for t in 0..CHECKSUM_STEP {
            reference.apply_into(&x, &mut o);
            reservoir_update(&mut x, &o, &drive[t as usize % DRIVE_POOL]);
        }
        let mut checksum_at_step = checksum(&x);
        if corrupt {
            checksum_at_step ^= 1;
        }
        Self {
            reference_s: started.elapsed().as_secs_f64(),
            weights,
            reference,
            x0,
            drive,
            first_output,
            checksum_at_step,
        }
    }

    pub fn weights(&self) -> &MatrixData {
        &self.weights
    }

    pub fn x0(&self) -> &[i32] {
        &self.x0
    }

    pub fn drive(&self, step: u64) -> &[i32] {
        &self.drive[step as usize % DRIVE_POOL]
    }

    pub fn reference(&self) -> &Reference {
        &self.reference
    }
}

impl Scenario for ReservoirStep {
    type Live = ReservoirLive;
    const WORKLOAD: Workload = Workload::ReservoirStep;
    const VECTORS_PER_OP: u64 = 1;
    const OPS_PER_SEGMENT: u64 = 32;
    const SEGMENTS_PER_ROUND: u64 = 1;

    fn setup(&self) -> Res<ReservoirLive> {
        let session = layers::session_build(layers::matrix(&self.weights)?, Engine::Auto, 1)?;
        if layers::session_run(&session, &self.x0)? != self.first_output {
            return Err("first reservoir output does not match the reference".into());
        }
        Ok(ReservoirLive {
            session,
            x: self.x0.clone(),
            step: 0,
            samples: Vec::with_capacity(MAX_SAMPLES),
            checksum: None,
        })
    }

    fn op(&self, live: &mut ReservoirLive, _i: u64) -> Op {
        let started = Instant::now();
        let output = layers::session_run(&live.session, &live.x);
        let latency_ns = elapsed_ns(started);
        let Ok(o) = output else {
            return Op {
                latency_ns,
                ok: false,
            };
        };
        let ok = o.len() == Self::DIM;
        if ok {
            if live.step.is_multiple_of(SAMPLE_EVERY) {
                let pair = (live.x.clone(), o.clone());
                match live
                    .samples
                    .get_mut((live.step / SAMPLE_EVERY) as usize % MAX_SAMPLES)
                {
                    Some(slot) => *slot = pair,
                    None => live.samples.push(pair),
                }
            }
            reservoir_update(&mut live.x, &o, self.drive(live.step));
            live.step += 1;
            if live.step == CHECKSUM_STEP {
                live.checksum = Some(checksum(&live.x));
            }
        }
        Op { latency_ns, ok }
    }

    fn engine(&self, live: &ReservoirLive) -> String {
        layers::session_engine_name(&live.session).to_string()
    }

    fn counters(&self, _live: &mut ReservoirLive) -> Counters {
        Counters::default()
    }

    fn ping(&self, _live: &mut ReservoirLive) -> Option<bool> {
        None
    }

    fn teardown(&self, live: ReservoirLive) -> Teardown {
        let wrong_pairs = live
            .samples
            .iter()
            .filter(|(x, o)| self.reference.apply(x) != *o)
            .count() as u64;
        // A run too short to reach the checksum step has verified
        // nothing about the recurrence, so that is a failure too.
        let wrong_checksum = u64::from(live.checksum != Some(self.checksum_at_step));
        Teardown {
            deferred_failed: wrong_pairs + wrong_checksum,
            stage_p50_us: Vec::new(),
        }
    }

    fn reference_s(&self) -> f64 {
        self.reference_s
    }
}

// ---- the wire workloads' shared parts ------------------------------------

pub struct WireLive {
    server: ServerHandle,
    client: Client,
    digest: u64,
    engine: String,
}

fn wire_counters(client: &mut Client) -> Counters {
    layers::client_stats(client)
        .map(|s| Counters {
            requests: s.requests,
            rejected: s.rejected,
            promotions: s.store_promotions,
            store_hits: s.store_hits,
        })
        .unwrap_or_default()
}

fn wire_teardown(server: ServerHandle, mut client: Client) -> Teardown {
    let stage_p50_us = layers::client_stats(&mut client)
        .map(|s| layers::stage_p50_us(&s))
        .unwrap_or_default();
    drop(client);
    server.shutdown();
    Teardown {
        deferred_failed: 0,
        stage_p50_us,
    }
}

// ---- wire-single ---------------------------------------------------------

/// Loopback, `threads: 1`, one connection, `Client::gemv` over a pool.
pub struct WireSingle {
    matrix: IntMatrix,
    pool: Vec<Vec<i32>>,
    expected: Vec<Vec<i64>>,
    reference_s: f64,
}

impl WireSingle {
    pub const DIM: usize = 256;
    const POOL: usize = 256;

    pub fn new(seed: u64, corrupt: bool) -> Res<Self> {
        let data = MatrixData::sparse(&mut Lcg::stream(seed, 20), Self::DIM, Self::DIM, 0.90, 8);
        let mut rng = Lcg::stream(seed, 21);
        let pool: Vec<Vec<i32>> = (0..Self::POOL)
            .map(|_| vector(&mut rng, Self::DIM, 8))
            .collect();
        let started = Instant::now();
        let reference = Reference::new(&data);
        let mut expected: Vec<Vec<i64>> = pool.iter().map(|a| reference.apply(a)).collect();
        let reference_s = started.elapsed().as_secs_f64();
        corrupt_if(corrupt, &mut expected[1][0]);
        Ok(Self {
            matrix: layers::matrix(&data)?,
            pool,
            expected,
            reference_s,
        })
    }

    pub fn matrix(&self) -> &IntMatrix {
        &self.matrix
    }

    pub fn request(&self, i: u64) -> (&[i32], &[i64]) {
        let k = i as usize % Self::POOL;
        (&self.pool[k], &self.expected[k])
    }
}

impl Scenario for WireSingle {
    type Live = WireLive;
    const WORKLOAD: Workload = Workload::WireSingle;
    const VECTORS_PER_OP: u64 = 1;
    const OPS_PER_SEGMENT: u64 = 64;
    const SEGMENTS_PER_ROUND: u64 = 1;

    fn setup(&self) -> Res<WireLive> {
        let server = layers::server_start(&ServerShape {
            threads: 1,
            fleet: None,
        })?;
        let mut client = layers::client_connect(&server)?;
        let loaded = layers::client_load(&mut client, &self.matrix, Engine::Csr)?;
        if layers::client_gemv(&mut client, loaded.digest, &self.pool[0])? != self.expected[0] {
            return Err("first wire-single reply does not match the reference".into());
        }
        Ok(WireLive {
            server,
            client,
            digest: loaded.digest,
            engine: loaded.engine,
        })
    }

    fn op(&self, live: &mut WireLive, i: u64) -> Op {
        let (a, expected) = self.request(i);
        let started = Instant::now();
        let reply = layers::client_gemv(&mut live.client, live.digest, a);
        let latency_ns = elapsed_ns(started);
        Op {
            latency_ns,
            ok: reply.is_ok_and(|o| o == expected),
        }
    }

    fn engine(&self, live: &WireLive) -> String {
        live.engine.clone()
    }

    fn counters(&self, live: &mut WireLive) -> Counters {
        wire_counters(&mut live.client)
    }

    fn ping(&self, live: &mut WireLive) -> Option<bool> {
        Some(layers::client_ping(&mut live.client).is_ok())
    }

    fn teardown(&self, live: WireLive) -> Teardown {
        wire_teardown(live.server, live.client)
    }

    fn reference_s(&self) -> f64 {
        self.reference_s
    }
}

// ---- wire-batch ----------------------------------------------------------

/// Loopback, `threads: 2`, one connection, 64-frame `Client::gemv_block`.
pub struct WireBatch {
    matrix: IntMatrix,
    blocks: Vec<FrameBlock>,
    expected: Vec<Vec<i64>>,
    reference_s: f64,
}

impl WireBatch {
    pub const DIM: usize = 1024;
    pub const FRAMES: usize = 64;
    const BLOCKS: usize = 8;

    pub fn new(seed: u64, corrupt: bool) -> Res<Self> {
        let data = MatrixData::sparse(&mut Lcg::stream(seed, 30), Self::DIM, Self::DIM, 0.90, 8);
        let mut rng = Lcg::stream(seed, 31);
        let reference = Reference::new(&data);
        let mut blocks = Vec::with_capacity(Self::BLOCKS);
        let mut expected = Vec::with_capacity(Self::BLOCKS);
        let mut reference_s = 0.0;
        for _ in 0..Self::BLOCKS {
            let frames = vector(&mut rng, Self::FRAMES * Self::DIM, 8);
            let started = Instant::now();
            let mut rows = vec![0i64; Self::FRAMES * Self::DIM];
            for (a, o) in frames.chunks(Self::DIM).zip(rows.chunks_mut(Self::DIM)) {
                reference.apply_into(a, o);
            }
            reference_s += started.elapsed().as_secs_f64();
            blocks.push(layers::frame_block(Self::FRAMES, Self::DIM, frames)?);
            expected.push(rows);
        }
        corrupt_if(corrupt, &mut expected[1][0]);
        Ok(Self {
            matrix: layers::matrix(&data)?,
            blocks,
            expected,
            reference_s,
        })
    }

    pub fn matrix(&self) -> &IntMatrix {
        &self.matrix
    }

    pub fn request(&self, i: u64) -> (&FrameBlock, &[i64]) {
        let k = i as usize % Self::BLOCKS;
        (&self.blocks[k], &self.expected[k])
    }
}

impl Scenario for WireBatch {
    type Live = WireLive;
    const WORKLOAD: Workload = Workload::WireBatch;
    const VECTORS_PER_OP: u64 = Self::FRAMES as u64;
    /// One block is 5 ms already, and all blocks cost the same.
    const OPS_PER_SEGMENT: u64 = 1;
    const SEGMENTS_PER_ROUND: u64 = 1;

    fn setup(&self) -> Res<WireLive> {
        let server = layers::server_start(&ServerShape {
            threads: 2,
            fleet: None,
        })?;
        let mut client = layers::client_connect(&server)?;
        let loaded = layers::client_load(&mut client, &self.matrix, Engine::Auto)?;
        let first = layers::client_gemv_block(&mut client, loaded.digest, &self.blocks[0])?;
        if first.as_slice() != self.expected[0] {
            return Err("first wire-batch reply does not match the reference".into());
        }
        Ok(WireLive {
            server,
            client,
            digest: loaded.digest,
            engine: loaded.engine,
        })
    }

    fn op(&self, live: &mut WireLive, i: u64) -> Op {
        let (frames, expected) = self.request(i);
        let started = Instant::now();
        let reply = layers::client_gemv_block(&mut live.client, live.digest, frames);
        let latency_ns = elapsed_ns(started);
        Op {
            latency_ns,
            ok: reply.is_ok_and(|rows| rows.as_slice() == expected),
        }
    }

    fn engine(&self, live: &WireLive) -> String {
        live.engine.clone()
    }

    fn counters(&self, live: &mut WireLive) -> Counters {
        wire_counters(&mut live.client)
    }

    fn ping(&self, live: &mut WireLive) -> Option<bool> {
        Some(layers::client_ping(&mut live.client).is_ok())
    }

    fn teardown(&self, live: WireLive) -> Teardown {
        wire_teardown(live.server, live.client)
    }

    fn reference_s(&self) -> f64 {
        self.reference_s
    }
}

// ---- fleet-churn ---------------------------------------------------------

/// One member of the fleet: the matrix, the engine its load asks for,
/// and its pooled vectors with their expected outputs.
pub struct FleetMember {
    pub matrix: IntMatrix,
    pub engine: Engine,
    pub pool: Vec<Vec<i32>>,
    pub expected: Vec<Vec<i64>>,
}

/// Loopback, `threads: 1`, one connection, 24 matrices over an 8-slot
/// hot tier and an 8-slot warm tier with a disk store.
pub struct FleetChurn {
    members: Vec<FleetMember>,
    cycle: Vec<(usize, usize)>,
    reference_s: f64,
}

pub struct FleetLive {
    wire: WireLive,
    digests: Vec<u64>,
    store_dir: PathBuf,
}

impl FleetChurn {
    pub const MEMBERS: usize = 24;
    pub const HOT: usize = 8;
    pub const WARM: usize = 8;
    const POOL: usize = 16;
    /// Requests in the cycle the loop repeats.
    pub const CYCLE: usize = 128;
    const ENGINES: [Engine; 4] = [Engine::Csr, Engine::Dense, Engine::Sigma, Engine::BitSerial];

    pub fn new(seed: u64, corrupt: bool) -> Res<Self> {
        let mut matrices = Lcg::stream(seed, 40);
        let mut vectors = Lcg::stream(seed, 41);
        let mut reference_s = 0.0;
        let mut members = Vec::with_capacity(Self::MEMBERS);
        for k in 0..Self::MEMBERS {
            let engine = Self::ENGINES[k % Self::ENGINES.len()];
            // The simulated circuit is priced per gate, so its members
            // are small; the other three engines serve 256x256.
            let dim = if engine == Engine::BitSerial { 32 } else { 256 };
            let data = MatrixData::sparse(&mut matrices, dim, dim, 0.90, 8);
            let pool: Vec<Vec<i32>> = (0..Self::POOL)
                .map(|_| vector(&mut vectors, dim, 8))
                .collect();
            let started = Instant::now();
            let reference = Reference::new(&data);
            let expected = pool.iter().map(|a| reference.apply(a)).collect();
            reference_s += started.elapsed().as_secs_f64();
            members.push(FleetMember {
                matrix: layers::matrix(&data)?,
                engine,
                pool,
                expected,
            });
        }
        // Member 0 is the hottest, so the wrong key is met at once.
        corrupt_if(corrupt, &mut members[0].expected[1][0]);
        Ok(Self {
            members,
            cycle: Self::request_cycle(),
            reference_s,
        })
    }

    pub fn members(&self) -> &[FleetMember] {
        &self.members
    }

    /// The request cycle: `(member, pooled vector)` pairs the loop goes
    /// round and round.
    ///
    /// Member `m` gets the share of the cycle that `⌊24·u⁴⌋ = m` has for
    /// uniform `u` (45 % for member 0, 1 % for member 23, so a few members
    /// take most of the traffic and the tail keeps the tiers churning),
    /// as a whole number of requests, shuffled. Every member is in it, so
    /// after one round the tiers' LRU order at the start of a round is
    /// the same every round, and every round does the same work: some
    /// two thirds hot hits, the rest warm rebuilds and cold reads.
    ///
    /// The order is the same for every `--seed`; the seed decides the
    /// matrices and the vectors. A cold promotion costs a hundred hot
    /// hits, so the rate follows how many of them a round has, and that
    /// follows the order: with the order seeded, a model of the tiers
    /// put the rate's quartiles 12 % apart from seed to seed.
    fn request_cycle() -> Vec<(usize, usize)> {
        let edge = |m: usize| (m as f64 / Self::MEMBERS as f64).powf(0.25);
        let exact: Vec<f64> = (0..Self::MEMBERS)
            .map(|m| Self::CYCLE as f64 * (edge(m + 1) - edge(m)))
            .collect();
        let mut quota: Vec<usize> = exact.iter().map(|&x| x as usize).collect();
        // Largest remainders take the requests truncation left over.
        let mut by_remainder: Vec<usize> = (0..Self::MEMBERS).collect();
        by_remainder.sort_by(|&a, &b| {
            (exact[b] - quota[b] as f64).total_cmp(&(exact[a] - quota[a] as f64))
        });
        let left_over = Self::CYCLE - quota.iter().sum::<usize>();
        for &m in &by_remainder[..left_over] {
            quota[m] += 1;
        }
        let mut rng = Lcg::stream(0, 42);
        let mut cycle: Vec<(usize, usize)> = (0..Self::MEMBERS)
            .flat_map(|m| std::iter::repeat_n(m, quota[m]))
            .map(|m| (m, rng.below(Self::POOL as u32) as usize))
            .collect();
        for i in (1..cycle.len()).rev() {
            cycle.swap(i, rng.below(i as u32 + 1) as usize);
        }
        cycle
    }

    pub fn request(&self, i: u64) -> (usize, usize) {
        self.cycle[i as usize % Self::CYCLE]
    }

    /// A store directory of this process's own, under `benchmark/out`.
    pub fn fresh_store_dir(tag: &str) -> Res<PathBuf> {
        let dir = crate::out_dir().join(format!("tmp-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Scenario for FleetChurn {
    type Live = FleetLive;
    const WORKLOAD: Workload = Workload::FleetChurn;
    const VECTORS_PER_OP: u64 = 1;
    /// Requests cost from 20 us (a hot hit) to 2.4 ms (a cold read), but
    /// the `k`-th request of the cycle costs the same every round.
    const OPS_PER_SEGMENT: u64 = 1;
    const SEGMENTS_PER_ROUND: u64 = Self::CYCLE as u64;

    fn setup(&self) -> Res<FleetLive> {
        let store_dir = Self::fresh_store_dir("served")?;
        let server = layers::server_start(&ServerShape {
            threads: 1,
            fleet: Some((
                Self::HOT,
                Self::WARM,
                store_dir.to_string_lossy().into_owned(),
            )),
        })?;
        let mut client = layers::client_connect(&server)?;
        let mut digests = Vec::with_capacity(Self::MEMBERS);
        let mut first_engine = String::new();
        for member in &self.members {
            let loaded = layers::client_load(&mut client, &member.matrix, member.engine)?;
            if digests.is_empty() {
                first_engine = loaded.engine;
            }
            digests.push(loaded.digest);
        }
        let last = Self::MEMBERS - 1;
        let reply = layers::client_gemv(&mut client, digests[last], &self.members[last].pool[0])?;
        if reply != self.members[last].expected[0] {
            return Err("first fleet-churn reply does not match the reference".into());
        }
        Ok(FleetLive {
            wire: WireLive {
                server,
                client,
                digest: digests[0],
                engine: first_engine,
            },
            digests,
            store_dir,
        })
    }

    fn op(&self, live: &mut FleetLive, i: u64) -> Op {
        let (m, k) = self.request(i);
        let member = &self.members[m];
        let started = Instant::now();
        let reply = layers::client_gemv(&mut live.wire.client, live.digests[m], &member.pool[k]);
        let latency_ns = elapsed_ns(started);
        Op {
            latency_ns,
            ok: reply.is_ok_and(|o| o == member.expected[k]),
        }
    }

    fn engine(&self, live: &FleetLive) -> String {
        live.wire.engine.clone()
    }

    fn counters(&self, live: &mut FleetLive) -> Counters {
        wire_counters(&mut live.wire.client)
    }

    fn ping(&self, live: &mut FleetLive) -> Option<bool> {
        Some(layers::client_ping(&mut live.wire.client).is_ok())
    }

    fn teardown(&self, live: FleetLive) -> Teardown {
        let teardown = wire_teardown(live.wire.server, live.wire.client);
        let _ = std::fs::remove_dir_all(&live.store_dir);
        teardown
    }

    fn reference_s(&self) -> f64 {
        self.reference_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_request_cycle_holds_every_member_in_its_share() {
        let cycle = FleetChurn::request_cycle();
        assert_eq!(cycle, FleetChurn::request_cycle());
        assert_eq!(cycle.len(), FleetChurn::CYCLE);
        let count = |m: usize| cycle.iter().filter(|&&(member, _)| member == m).count();
        assert!((0..FleetChurn::MEMBERS).all(|m| count(m) >= 1));
        // 24^(-1/4) of the traffic goes to member 0, a hundredth to the last.
        assert_eq!(count(0), 58);
        assert_eq!(count(FleetChurn::MEMBERS - 1), 1);
        assert!(cycle.iter().all(|&(_, k)| k < FleetChurn::POOL));
        // The self-test's wrong answer key is one the loop meets.
        assert!(cycle.contains(&(0, 1)));
    }
}
