//! One repetition of one workload, in a process of its own: set-up, an
//! untimed warm-up of the workload's own loop, the timed seconds, and
//! the checks.

use crate::spans::Tracer;
use crate::stats::{nearest_rank, undisturbed, undisturbed_p50};
use crate::workloads::{Res, Scenario};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What a child reports to its parent: flat `name → number`.
pub type Numbers = BTreeMap<String, f64>;

/// Pings timed after the timed seconds for the workload's transport floor.
const PINGS: usize = 2000;
const PINGS_PER_SEGMENT: usize = 100;

pub struct RepOptions {
    pub warmup: Duration,
    pub timed: Duration,
    /// Record a root span around every timed operation.
    pub traced: bool,
}

/// A field of `/proc/self/status`, in the unit the kernel prints (kB for
/// the `Vm*` fields, a bare count for `Threads`).
pub fn proc_status(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

pub fn run<S: Scenario>(scenario: &S, opts: &RepOptions) -> Res<(Numbers, Option<Tracer>)> {
    // One set-up per process, timed cold as a user meets it; the runner
    // folds its repetitions' into one value. (Setting up several times
    // in one process was tried: each discarded server left its threads'
    // allocator arenas behind, and `peak_rss_mb` came out 47, 59 or 72
    // MiB on `wire-batch` depending on how they were reused.)
    let setup_started = Instant::now();
    let mut live = scenario.setup()?;
    let setup_s = setup_started.elapsed().as_secs_f64();

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut next_op = 0u64;
    // A round is the stretch of operations after which the workload's
    // loop repeats itself; the timed seconds start and end on one.
    let round = S::OPS_PER_SEGMENT * S::SEGMENTS_PER_ROUND;
    let warmup_started = Instant::now();
    while warmup_started.elapsed() < opts.warmup || !next_op.is_multiple_of(round) {
        let op = scenario.op(&mut live, next_op);
        next_op += 1;
        attempted += 1;
        failed += u64::from(!op.ok);
    }

    let before = scenario.counters(&mut live);
    let mut tracer = opts.traced.then(|| Tracer::with_capacity(1 << 20));
    // Latencies are kept raw (u32 nanoseconds: 4.29 s is longer than any
    // operation here) and sorted after the timed seconds.
    let mut latencies: Vec<u32> = Vec::with_capacity(1 << 20);
    // Per segment: nanoseconds from its first operation's start to its
    // last one's check, and how many of its outputs were right.
    let mut segment_ns: Vec<u64> = Vec::with_capacity(1 << 12);
    let mut segment_good: Vec<u64> = Vec::with_capacity(1 << 12);
    let mut segment_opened = Duration::ZERO;
    let timed_started = Instant::now();
    loop {
        let mut good = 0u64;
        for _ in 0..S::OPS_PER_SEGMENT {
            let op = match tracer.as_mut() {
                Some(t) => t.scope("op", next_op, |_| scenario.op(&mut live, next_op)),
                None => scenario.op(&mut live, next_op),
            };
            next_op += 1;
            attempted += 1;
            latencies.push(op.latency_ns.min(u64::from(u32::MAX)) as u32);
            if op.ok {
                good += 1;
            } else {
                failed += 1;
            }
        }
        let now = timed_started.elapsed();
        segment_ns.push((now - segment_opened).as_nanos() as u64);
        segment_good.push(good);
        segment_opened = now;
        if now >= opts.timed && (segment_ns.len() as u64).is_multiple_of(S::SEGMENTS_PER_ROUND) {
            break;
        }
    }
    let elapsed_s = timed_started.elapsed().as_secs_f64();
    let threads = proc_status("Threads").unwrap_or(0.0);
    let after = scenario.counters(&mut live);
    let mut ping_ns: Vec<u32> = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let started = Instant::now();
        match scenario.ping(&mut live) {
            None => break,
            Some(ok) => {
                ping_ns.push(started.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
                attempted += 1;
                failed += u64::from(!ok);
            }
        }
    }
    let engine = scenario.engine(&live);
    let teardown = scenario.teardown(live);
    failed += teardown.deferred_failed;

    // Rate and median latency both come from the undisturbed segments:
    // the fastest of the segments that do the same work, for each kind
    // of work a round has.
    let kept: Vec<usize> = (0..S::SEGMENTS_PER_ROUND as usize)
        .flat_map(|k| {
            let alike = segment_ns
                .iter()
                .skip(k)
                .step_by(S::SEGMENTS_PER_ROUND as usize);
            let costs: Vec<u64> = alike.copied().collect();
            undisturbed(&costs)
                .into_iter()
                .map(move |round| round * S::SEGMENTS_PER_ROUND as usize + k)
        })
        .collect();
    let kept_vectors: u64 = kept.iter().map(|&i| segment_good[i]).sum::<u64>() * S::VECTORS_PER_OP;
    let kept_ns: u64 = kept.iter().map(|&i| segment_ns[i]).sum();
    let per_segment = S::OPS_PER_SEGMENT as usize;
    let mut kept_latencies: Vec<u32> = kept
        .iter()
        .flat_map(|&i| &latencies[i * per_segment..(i + 1) * per_segment])
        .copied()
        .collect();
    kept_latencies.sort_unstable();
    // Pings are read the same way, so that the round trip and its
    // transport floor are taken at the same speed of the machine.
    let ping_p50_ns = undisturbed_p50(&ping_ns, PINGS_PER_SEGMENT).unwrap_or(0);
    latencies.sort_unstable();
    let percentile_us = |q: f64| f64::from(nearest_rank(&latencies, q).unwrap_or(0)) / 1e3;
    let timed_ops = latencies.len() as f64;
    let good_vectors = segment_good.iter().sum::<u64>() * S::VECTORS_PER_OP;
    let promotions = after.promotions.saturating_sub(before.promotions);
    // Promotions are the slowest operations by two orders of magnitude,
    // so the `promotions` slowest latencies are theirs.
    let promotion_ns: u64 = latencies
        .iter()
        .rev()
        .take(promotions as usize)
        .map(|&ns| u64::from(ns))
        .sum();
    let requests = after.requests.saturating_sub(before.requests).max(1) as f64;

    let mut numbers = Numbers::new();
    let mut put = |name: &str, value: f64| {
        numbers.insert(name.to_string(), value);
    };
    put("attempted", attempted as f64);
    put("failed", failed as f64);
    put("timed_ops", timed_ops);
    put("vectors_per_s", kept_vectors as f64 * 1e9 / kept_ns as f64);
    put(
        "latency_p50_us",
        f64::from(nearest_rank(&kept_latencies, 0.5).unwrap_or(0)) / 1e3,
    );
    put("setup_s", setup_s);
    put("failed_share", failed as f64 / attempted as f64);
    put("peak_rss_mb", proc_status("VmHWM").unwrap_or(0.0) / 1024.0);
    // The same two speeds over the whole timed stretch, every segment
    // and every operation counted, whatever disturbed them.
    put(
        "client.whole_run_vectors_per_s",
        good_vectors as f64 / elapsed_s,
    );
    put("client.whole_run_p50_us", percentile_us(0.50));
    put("client.latency_p90_us", percentile_us(0.90));
    put("client.latency_p99_us", percentile_us(0.99));
    put("client.latency_p999_us", percentile_us(0.999));
    put("client.latency_max_us", percentile_us(1.0));
    put("bench.reference_s", scenario.reference_s());
    put("server.ping_p50_us", f64::from(ping_p50_ns) / 1e3);
    put("server.threads", threads);
    put(
        "server.busy_share",
        after.rejected.saturating_sub(before.rejected) as f64 / requests,
    );
    put(
        "runtime.plan.auto_choice",
        crate::metrics::engine_code(&engine),
    );
    put(
        "runtime.tiered.promotions_per_request",
        promotions as f64 / timed_ops,
    );
    put(
        "runtime.tiered.store_hits_per_request",
        after.store_hits.saturating_sub(before.store_hits) as f64 / timed_ops,
    );
    put(
        "runtime.tiered.promotion_time_share",
        promotion_ns as f64 / 1e9 / elapsed_s,
    );
    for stage in STAGES {
        put(&format!("server.stage_p50_us.{stage}"), 0.0);
    }
    for (stage, p50_us) in teardown.stage_p50_us {
        put(&format!("server.stage_p50_us.{stage}"), p50_us);
    }
    Ok((numbers, tracer))
}

/// The server's pipeline stages, in order; a workload without a server
/// reports 0 for each.
pub const STAGES: [&str; 7] = [
    "decode",
    "queue",
    "plan",
    "shard",
    "reassemble",
    "compute",
    "encode",
];
