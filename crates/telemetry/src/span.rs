//! Per-request trace spans over the serving pipeline's fixed stages.
//!
//! A request moves through the server in a fixed order — wire decode,
//! admission-queue wait, plan lookup, sharded compute, reassembly,
//! reply encode — and the question a perf PR has to answer is *which*
//! stage it moved. A [`SpanRecorder`] owns one [`LatencyHistogram`] per
//! [`Stage`]; a [`Span`] walks a single request through the stages,
//! paying exactly one `Instant::now()` per stage boundary and one
//! relaxed atomic increment per recorded stage.
//!
//! Two recording modes coexist:
//!
//! - **Span-clocked** stages ([`Span::mark`]) are measured as the wall
//!   time since the previous boundary — right for the serial outer
//!   pipeline (decode, queue, plan, encode).
//! - **Directly recorded** stages ([`SpanRecorder::record`]) carry a
//!   duration measured elsewhere — right for the interior of the
//!   compute stage, where the runtime session already stamps each
//!   shard's completion on the pool worker and the whole-batch wall
//!   time around the fan-out. The outer span [`Span::skip`]s its clock
//!   across that interval so nothing is counted twice.

use crate::hist::LatencyHistogram;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The fixed stages of one served request, in pipeline order.
///
/// The discriminant is the wire/exposition ordinal: spans enforce that
/// marks arrive in strictly increasing order, and the `Stats` reply
/// carries per-stage summaries in exactly this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Reading and decoding the request frame off the socket.
    Decode = 0,
    /// Waiting on (and passing) the admission queue.
    Queue = 1,
    /// Looking up the session/plan for the requested matrix digest.
    Plan = 2,
    /// One shard's compute on a worker thread (recorded per shard, so
    /// its count exceeds the request count under multi-threaded
    /// dispatch).
    Shard = 3,
    /// Tail latency between the slowest shard finishing and the batch
    /// being whole — the straggler/collection cost of the fan-out.
    Reassemble = 4,
    /// The whole compute wall time for the request (all shards,
    /// fan-out and reassembly included); for single-vector requests
    /// this is the engine `gemv` itself.
    Compute = 5,
    /// Encoding and writing the reply frame.
    Encode = 6,
}

/// Number of [`Stage`] variants.
pub const STAGES: usize = 7;

impl Stage {
    /// Every stage, in pipeline order (the order of the discriminants).
    pub const ALL: [Stage; STAGES] = [
        Stage::Decode,
        Stage::Queue,
        Stage::Plan,
        Stage::Shard,
        Stage::Reassemble,
        Stage::Compute,
        Stage::Encode,
    ];

    /// The stage's index in [`Stage::ALL`] (its discriminant).
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Lower-case stable name, used as the Prometheus `stage` label and
    /// in latency tables.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::Queue => "queue",
            Stage::Plan => "plan",
            Stage::Shard => "shard",
            Stage::Reassemble => "reassemble",
            Stage::Compute => "compute",
            Stage::Encode => "encode",
        }
    }
}

/// A per-stage latency summary: sample count and nearest-rank p50/p99
/// in nanoseconds, as carried in the `Stats` wire reply (three `u64`s
/// per stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct StageStats {
    /// Samples recorded for this stage.
    pub count: u64,
    /// Median latency in nanoseconds (bucket midpoint; 0 if empty).
    pub p50_ns: u64,
    /// 99th-percentile latency in nanoseconds (bucket midpoint; 0 if
    /// empty).
    pub p99_ns: u64,
}

/// A cloneable handle over one [`LatencyHistogram`] per [`Stage`].
///
/// Cloning is cheap (seven `Arc` bumps) and every clone records into
/// the same histograms, so the server and every runtime session it
/// builds can all hold one.
#[derive(Debug, Clone, Default)]
pub struct SpanRecorder {
    stages: [Arc<LatencyHistogram>; STAGES],
}

impl SpanRecorder {
    /// A recorder with fresh, empty histograms.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a span for one request, with its clock at "now".
    pub fn span(&self) -> Span<'_> {
        Span {
            recorder: self,
            last: Instant::now(),
            last_stage: None,
        }
    }

    /// Records an externally measured duration against a stage.
    pub fn record(&self, stage: Stage, latency: Duration) {
        self.stages[stage.idx()].record(latency);
    }

    /// The histogram behind a stage, for direct quantile queries (the
    /// server's exposition reads its p50/p90/p99 here).
    pub fn histogram(&self, stage: Stage) -> &Arc<LatencyHistogram> {
        &self.stages[stage.idx()]
    }

    /// A point-in-time per-stage summary, in [`Stage::ALL`] order.
    pub fn stage_stats(&self) -> [StageStats; STAGES] {
        std::array::from_fn(|i| {
            let h = &self.stages[i];
            let count = h.count();
            StageStats {
                count,
                p50_ns: if count == 0 { 0 } else { h.quantile_ns(0.50) },
                p99_ns: if count == 0 { 0 } else { h.quantile_ns(0.99) },
            }
        })
    }
}

/// One request's walk through the pipeline stages.
///
/// Obtained from [`SpanRecorder::span`]; borrows the recorder, so a
/// span is strictly scoped to the request it times.
#[derive(Debug)]
pub struct Span<'a> {
    recorder: &'a SpanRecorder,
    last: Instant,
    last_stage: Option<Stage>,
}

impl Span<'_> {
    /// Closes the stage ending now: records the wall time since the
    /// previous boundary (or span creation) against `stage`, then
    /// restarts the clock.
    ///
    /// # Panics
    ///
    /// Marks must arrive in strictly increasing [`Stage`] order — a
    /// repeated or out-of-order mark is a pipeline wiring bug and
    /// panics rather than silently folding one stage's time into
    /// another.
    pub fn mark(&mut self, stage: Stage) {
        if let Some(prev) = self.last_stage {
            assert!(
                stage > prev,
                "span stages must strictly advance: {} after {}",
                stage.name(),
                prev.name(),
            );
        }
        let now = Instant::now();
        self.recorder.record(stage, now - self.last);
        self.last = now;
        self.last_stage = Some(stage);
    }

    /// Restarts the clock without recording anything — used to step
    /// over an interval that something else measured (the runtime session
    /// records [`Stage::Compute`] itself), so the next [`Span::mark`]
    /// only sees its own stage's time.
    pub fn skip(&mut self) {
        self.last = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_order_and_names_are_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["decode", "queue", "plan", "shard", "reassemble", "compute", "encode"]
        );
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.idx(), i);
        }
        assert!(Stage::Decode < Stage::Queue && Stage::Compute < Stage::Encode);
    }

    #[test]
    fn marks_record_into_the_right_stage() {
        let rec = SpanRecorder::new();
        let mut span = rec.span();
        span.mark(Stage::Decode);
        span.mark(Stage::Queue);
        span.mark(Stage::Plan);
        span.skip(); // compute measured elsewhere
        span.mark(Stage::Encode);
        let stats = rec.stage_stats();
        assert_eq!(stats[Stage::Decode.idx()].count, 1);
        assert_eq!(stats[Stage::Queue.idx()].count, 1);
        assert_eq!(stats[Stage::Plan.idx()].count, 1);
        assert_eq!(stats[Stage::Encode.idx()].count, 1);
        // The skipped interval recorded nothing.
        assert_eq!(stats[Stage::Shard.idx()].count, 0);
        assert_eq!(stats[Stage::Compute.idx()].count, 0);
    }

    #[test]
    fn direct_records_interleave_with_span_marks() {
        let rec = SpanRecorder::new();
        let mut span = rec.span();
        span.mark(Stage::Decode);
        // Session-side recordings against the same recorder, out of
        // band from the span clock.
        rec.record(Stage::Shard, Duration::from_micros(10));
        rec.record(Stage::Shard, Duration::from_micros(12));
        rec.record(Stage::Reassemble, Duration::from_micros(1));
        rec.record(Stage::Compute, Duration::from_micros(15));
        span.skip();
        span.mark(Stage::Encode);
        let stats = rec.stage_stats();
        assert_eq!(stats[Stage::Shard.idx()].count, 2);
        assert_eq!(stats[Stage::Reassemble.idx()].count, 1);
        assert_eq!(stats[Stage::Compute.idx()].count, 1);
        assert!(stats[Stage::Compute.idx()].p50_ns > 0);
    }

    #[test]
    fn clones_share_histograms() {
        let rec = SpanRecorder::new();
        let clone = rec.clone();
        clone.record(Stage::Compute, Duration::from_micros(5));
        assert_eq!(rec.stage_stats()[Stage::Compute.idx()].count, 1);
    }

    #[test]
    fn stage_stats_report_bucket_quantiles() {
        let rec = SpanRecorder::new();
        for _ in 0..99 {
            rec.record(Stage::Compute, Duration::from_micros(1));
        }
        rec.record(Stage::Compute, Duration::from_millis(1));
        let s = rec.stage_stats()[Stage::Compute.idx()];
        assert_eq!(s.count, 100);
        assert!((500..2_000).contains(&s.p50_ns), "{}", s.p50_ns);
        assert!((500..2_000).contains(&s.p99_ns), "{}", s.p99_ns);
        // Empty stages stay all-zero.
        assert_eq!(rec.stage_stats()[Stage::Decode.idx()], StageStats::default());
    }

    #[test]
    #[should_panic(expected = "strictly advance")]
    fn out_of_order_mark_panics() {
        let rec = SpanRecorder::new();
        let mut span = rec.span();
        span.mark(Stage::Plan);
        span.mark(Stage::Decode);
    }

    #[test]
    #[should_panic(expected = "strictly advance")]
    fn repeated_mark_panics() {
        let rec = SpanRecorder::new();
        let mut span = rec.span();
        span.mark(Stage::Decode);
        span.mark(Stage::Decode);
    }

    #[test]
    fn last_stage_tracks_progress() {
        let rec = SpanRecorder::new();
        let mut span = rec.span();
        assert_eq!(span.last_stage, None);
        span.mark(Stage::Decode);
        assert_eq!(span.last_stage, Some(Stage::Decode));
        span.skip();
        assert_eq!(span.last_stage, Some(Stage::Decode), "skip leaves the stage");
    }
}
