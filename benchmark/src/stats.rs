//! Order statistics for raw samples and the bound logic of `compare`.

use crate::metrics::{Better, EndToEnd};

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `q` of the samples at or below it.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The best of `values`: the lowest or the highest; 0 for none.
///
/// This is how a few measurements of identical work are folded into one
/// number where a disturbance can only make one of them worse (see
/// [`UNDISTURBED`]): the median sits wherever the disturbed share puts
/// it, the best stays put until all of them are disturbed. (Over four
/// suites on the machine this was sized on, the best of five
/// repetitions moved by 1-3 % where the second best moved by up to 7 %
/// and the median by up to 38 %.)
pub fn best(values: &[f64], better: Better) -> f64 {
    let pick = match better {
        Better::Lower => f64::min,
        Better::Higher => f64::max,
    };
    values.iter().copied().reduce(pick).unwrap_or(0.0)
}

/// The nearest-rank median of `values` (the third of five); 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 0.5).unwrap_or(0.0)
}

/// The share of a run's segments, counted from the fast end, that the
/// run is read from.
///
/// Timed work is cut into segments of identical work (a millisecond or
/// so each where the work allows). The machine this was sized on has
/// two speeds: for stretches of under a millisecond to minutes at a
/// time every instruction and every system call takes 1.55x as long (a
/// neighbour on the host), and the slow share of a 5 s stretch was seen
/// anywhere from 2 % to 100 %. A mean or a median over all segments sits
/// wherever that share puts it. Because the segments do identical work
/// and a disturbance only ever slows one down, the fastest twentieth
/// reads the program's own speed as long as a twentieth of the segments
/// ran undisturbed.
pub const UNDISTURBED: f64 = 0.05;

/// Which segments are read: the indices of the cheapest [`UNDISTURBED`]
/// share of `costs` (at least one), cheapest first.
pub fn undisturbed(costs: &[u64]) -> Vec<usize> {
    let mut by_cost: Vec<usize> = (0..costs.len()).collect();
    by_cost.sort_by_key(|&i| costs[i]);
    let keep = (UNDISTURBED * costs.len() as f64).ceil() as usize;
    by_cost.truncate(keep.max(1));
    by_cost
}

/// The median of `in_order` at the machine's undisturbed speed: cut
/// into segments of `per_segment` consecutive samples, the nearest-rank
/// median of all samples in the [`undisturbed`] segments (by their sum).
pub fn undisturbed_p50<T: Copy + Ord + Into<u64>>(in_order: &[T], per_segment: usize) -> Option<T> {
    let segments: Vec<&[T]> = in_order.chunks(per_segment.max(1)).collect();
    let costs: Vec<u64> = segments
        .iter()
        .map(|segment| segment.iter().map(|&sample| sample.into()).sum())
        .collect();
    let mut kept: Vec<T> = undisturbed(&costs)
        .into_iter()
        .flat_map(|i| segments[i].iter().copied())
        .collect();
    kept.sort_unstable();
    nearest_rank(&kept, 0.5)
}

/// One metric across the repetitions of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The [`best`] of the repetitions; the worst of them for a metric
    /// whose bound is 0.
    pub value: f64,
    pub min: f64,
    pub max: f64,
    /// The range of the [`better_majority`] over the value; 0 when the
    /// value is 0. (`min` and `max` still show the repetitions it leaves
    /// out, which are the ones the value exists to ignore.)
    pub spread: f64,
    pub values: Vec<f64>,
}

/// The range `(low, high)` of the better half of `values`, rounded up:
/// the better three of five repetitions.
pub fn better_majority(values: &[f64], better: Better) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if better == Better::Higher {
        sorted.reverse();
    }
    sorted.truncate(values.len().div_ceil(2));
    let low = sorted.iter().copied().fold(f64::INFINITY, f64::min);
    let high = sorted.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (low, high)
}

impl Summary {
    pub fn of(values: &[f64], metric: &EndToEnd) -> Self {
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // A metric that tolerates no worsening at all (`failed_share`)
        // is not a speed a disturbance blurs: its worst repetition counts.
        let value = match (metric.bound == 0.0, metric.better) {
            (false, better) => best(values, better),
            (true, Better::Lower) => max,
            (true, Better::Higher) => min,
        };
        let (low, high) = better_majority(values, metric.better);
        let spread = if value != 0.0 {
            (high - low) / value.abs()
        } else {
            0.0
        };
        Self {
            value,
            min,
            max,
            spread,
            values: values.to_vec(),
        }
    }
}

/// How report B stands against report A on one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The spread between the better repetitions is wider than the
    /// bound and the two sets of them overlap: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a != 0.0 {
        delta / a.abs()
    } else if delta == 0.0 {
        0.0
    } else {
        delta.signum() * f64::INFINITY
    }
}

/// Applies a metric's bound to two summaries (A = before, B = after).
pub fn judge(metric: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
    let worse_by = worsening(metric.better, a.value, b.value);
    // A metric that tolerates no worsening (`failed_share`) is a count of
    // wrong outputs, not a speed: no spread between repetitions makes a
    // new failure unresolved.
    if metric.bound == 0.0 {
        return match worse_by {
            w if w > 0.0 => Verdict::Worse,
            w if w < 0.0 => Verdict::Better,
            _ => Verdict::Within,
        };
    }
    // A change smaller than the absolute floor is never a regression
    // (nor a gain): a 20 ms set-up moving by 5 ms is scheduler noise.
    if (b.value - a.value).abs() < metric.floor {
        return Verdict::Within;
    }
    let (a_low, a_high) = better_majority(&a.values, metric.better);
    let (b_low, b_high) = better_majority(&b.values, metric.better);
    let overlap = a_low <= b_high && b_low <= a_high;
    if a.spread.max(b.spread) > metric.bound && overlap {
        return Verdict::Unresolved;
    }
    if worse_by > metric.bound {
        Verdict::Worse
    } else if worse_by < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    fn judged(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
        judge(metric, &Summary::of(a, metric), &Summary::of(b, metric))
    }

    #[test]
    fn nearest_rank_follows_the_textbook_definition() {
        let xs = [15, 20, 35, 40, 50];
        assert_eq!(nearest_rank(&xs, 0.05), Some(15));
        assert_eq!(nearest_rank(&xs, 0.30), Some(20));
        assert_eq!(nearest_rank(&xs, 0.40), Some(20));
        assert_eq!(nearest_rank(&xs, 0.50), Some(35));
        assert_eq!(nearest_rank(&xs, 1.00), Some(50));
        assert_eq!(nearest_rank(&xs, 0.0), Some(15));
        assert_eq!(nearest_rank::<u32>(&[], 0.5), None);
        let hundred: Vec<u32> = (1..=100).collect();
        assert_eq!(nearest_rank(&hundred, 0.99), Some(99));
        assert_eq!(nearest_rank(&hundred, 0.999), Some(100));
    }

    #[test]
    fn summary_carries_the_best_the_range_and_the_spread() {
        let lat = end_to_end("latency_p50_us").unwrap();
        let rate = end_to_end("vectors_per_s").unwrap();
        let failed = end_to_end("failed_share").unwrap();
        let reps = [10.0, 12.0, 11.0, 9.0, 30.0];
        // The best of five, from whichever end is better.
        let s = Summary::of(&reps, lat);
        assert_eq!((s.value, s.min, s.max), (9.0, 9.0, 30.0));
        // The spread is over the better three: 9, 10, 11.
        assert!((s.spread - 2.0 / 9.0).abs() < 1e-12);
        assert_eq!(Summary::of(&reps, rate).value, 30.0);
        assert_eq!(best(&[], Better::Lower), 0.0);
        assert_eq!(median(&reps), 11.0);
        assert_eq!(median(&[]), 0.0);
        // No failure is ever folded away.
        assert_eq!(Summary::of(&[0.0, 0.0, 0.25, 0.0, 0.0], failed).value, 0.25);
    }

    #[test]
    fn undisturbed_p50_is_the_median_of_the_fastest_segments() {
        // Forty segments of four samples; the 7th and the 30th ran
        // undisturbed, and they are the twentieth that is read.
        let samples: Vec<u32> = (0..160)
            .map(|i| match i / 4 {
                6 | 29 => 40 + i % 4,
                _ => 62 + i % 4,
            })
            .collect();
        let costs: Vec<u64> = samples
            .chunks(4)
            .map(|s| s.iter().map(|&x| u64::from(x)).sum())
            .collect();
        assert_eq!(undisturbed(&costs), vec![6, 29]);
        assert_eq!(undisturbed_p50(&samples, 4), Some(41));
        assert_eq!(undisturbed(&[7, 5, 9]), vec![1]);
        assert_eq!(undisturbed_p50::<u32>(&[], 4), None);
    }

    #[test]
    fn bounds_judge_both_directions() {
        let rate = end_to_end("vectors_per_s").unwrap();
        let lat = end_to_end("latency_p50_us").unwrap();
        let tight = |m: f64| [m * 0.99, m, m * 1.01];
        let judge = |metric, a: [f64; 3], b: [f64; 3]| judged(metric, &a, &b);
        // Higher is better: -20% is worse, +20% better, -5% within.
        assert_eq!(judge(rate, tight(1000.0), tight(800.0)), Verdict::Worse);
        assert_eq!(judge(rate, tight(1000.0), tight(1200.0)), Verdict::Better);
        assert_eq!(judge(rate, tight(1000.0), tight(950.0)), Verdict::Within);
        // Lower is better: the same moves read the other way round.
        assert_eq!(judge(lat, tight(40.0), tight(48.0)), Verdict::Worse);
        assert_eq!(judge(lat, tight(40.0), tight(32.0)), Verdict::Better);
        assert_eq!(judge(lat, tight(40.0), tight(41.0)), Verdict::Within);
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_worse() {
        let rate = end_to_end("vectors_per_s").unwrap();
        let a = [700.0, 1000.0, 1300.0];
        assert_eq!(
            judged(rate, &a, &[650.0, 850.0, 1200.0]),
            Verdict::Unresolved
        );
        // Wide but disjoint: every run of B reads worse than every run
        // of A, so the verdict stands.
        assert_eq!(judged(rate, &a, &[300.0, 500.0, 690.0]), Verdict::Worse);
    }

    #[test]
    fn absolute_floors_mute_tiny_moves() {
        let setup = end_to_end("setup_s").unwrap();
        let failed = end_to_end("failed_share").unwrap();
        let judge = |metric, a: f64, b: f64| judged(metric, &[a; 3], &[b; 3]);
        // +100% of 20 ms is still under the 50 ms floor.
        assert_eq!(judge(setup, 0.020, 0.040), Verdict::Within);
        assert_eq!(judge(setup, 0.200, 0.300), Verdict::Worse);
        // Any new failure is worse: the bound is 0 with no floor.
        assert_eq!(judge(failed, 0.0, 0.001), Verdict::Worse);
        assert_eq!(judge(failed, 0.0, 0.0), Verdict::Within);
        assert_eq!(judge(failed, 0.001, 0.0), Verdict::Better);
        // Also when only some repetitions failed, at differing shares:
        // the better three of B overlap A's and spread, and it is still
        // worse.
        let some_failed = [0.0, 0.0, 0.1, 0.2, 0.3];
        assert_eq!(judged(failed, &[0.0; 5], &some_failed), Verdict::Worse);
        assert_eq!(judged(failed, &some_failed, &some_failed), Verdict::Within);
    }
}
