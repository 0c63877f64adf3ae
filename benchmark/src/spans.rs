//! In-memory spans recorded around the calls the benchmark makes into
//! each layer, written out once at exit.
//!
//! A span is `{name, start_ns, end_ns, parent, op_id}`: `parent` is the
//! index of the span that caused it and `op_id` is shared by every span
//! of one operation. A layer's *self time* is its span minus the part
//! its children cover, so a root span's self time plus its descendants'
//! self times is the root's duration exactly.

use crate::json::Value;
use crate::stats::{nearest_rank, undisturbed};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans against one clock.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// the tracer it is handed become this span's children.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        op_id: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its direct children's.
/// Fails if a child is not contained in its parent or children of one
/// parent overlap — then the subtraction would not mean anything.
pub fn self_times(spans: &[Span]) -> Result<Vec<u64>, String> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    let mut last_child_end: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
    for (i, span) in spans.iter().enumerate() {
        let Some(p) = span.parent else { continue };
        let parent = spans
            .get(p as usize)
            .filter(|_| (p as usize) < i)
            .ok_or_else(|| format!("span {i} names parent {p}, which is not before it"))?;
        if span.start_ns < last_child_end[p as usize] || span.end_ns > parent.end_ns {
            return Err(format!(
                "span {i} ({}) is not inside parent {p} ({}) after its siblings",
                span.name, parent.name
            ));
        }
        last_child_end[p as usize] = span.end_ns;
        own[p as usize] -= span.duration_ns();
    }
    Ok(own)
}

/// Checks that every root span is accounted for exactly: its duration
/// equals the self times of itself and all its descendants.
pub fn check_accounting(spans: &[Span]) -> Result<(), String> {
    let own = self_times(spans)?;
    // Spans are recorded parent-first, so one backward pass folds each
    // subtree's self time into its root.
    let mut subtree = own;
    for i in (0..spans.len()).rev() {
        if let Some(p) = spans[i].parent {
            subtree[p as usize] += subtree[i];
        }
    }
    for (i, span) in spans.iter().enumerate() {
        if span.parent.is_none() && subtree[i] != span.duration_ns() {
            return Err(format!(
                "root span {i} ({}) lasts {} ns but its tree accounts for {} ns",
                span.name,
                span.duration_ns(),
                subtree[i]
            ));
        }
    }
    Ok(())
}

/// Per span name: how many, the median duration, and the median self
/// time, both at the machine's undisturbed speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerTime {
    pub count: usize,
    pub p50_ns: u64,
    pub self_p50_ns: u64,
}

/// Folds spans by name, read like the workloads' own operations (see
/// `stats::UNDISTURBED`): spans of one name at the same place in a round
/// of `ops_per_round` operations do the same work, the fastest twentieth
/// of each such set is kept, and the medians are over what is kept. The
/// first two rounds are left out when there are more, since what a
/// place in the round costs has not settled yet (the fleet's tiers).
pub fn by_name(
    spans: &[Span],
    ops_per_round: u64,
) -> Result<BTreeMap<&'static str, LayerTime>, String> {
    let own = self_times(spans)?;
    let settled_from = match spans.iter().map(|s| s.op_id).max() {
        Some(last) if last >= 3 * ops_per_round => 2 * ops_per_round,
        _ => 0,
    };
    // Place in the round → (duration, self time) of each span there.
    type Places = BTreeMap<u64, Vec<(u64, u64)>>;
    let mut grouped: BTreeMap<&'static str, Places> = BTreeMap::new();
    for (span, &own_ns) in spans.iter().zip(&own) {
        if span.op_id >= settled_from {
            let places = grouped.entry(span.name).or_default();
            let alike = places.entry(span.op_id % ops_per_round).or_default();
            alike.push((span.duration_ns(), own_ns));
        }
    }
    Ok(grouped
        .into_iter()
        .map(|(name, places)| {
            let count = places.values().map(Vec::len).sum();
            let (mut total, mut own): (Vec<u64>, Vec<u64>) = places
                .values()
                .flat_map(|alike| {
                    let costs: Vec<u64> = alike.iter().map(|&(total, _)| total).collect();
                    undisturbed(&costs).into_iter().map(|i| alike[i])
                })
                .unzip();
            total.sort_unstable();
            own.sort_unstable();
            let time = LayerTime {
                count,
                p50_ns: nearest_rank(&total, 0.5).unwrap_or(0),
                self_p50_ns: nearest_rank(&own, 0.5).unwrap_or(0),
            };
            (name, time)
        })
        .collect())
}

pub fn spans_to_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                Value::obj(vec![
                    ("name", Value::str(s.name)),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
                    ),
                    ("op_id", Value::Num(s.op_id as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("decode", 10, 30, Some(0)),
            span("session", 30, 90, Some(0)),
            span("kernel", 40, 80, Some(2)),
            span("op", 100, 150, None),
        ];
        assert_eq!(self_times(&spans).unwrap(), vec![20, 20, 20, 40, 50]);
        check_accounting(&spans).unwrap();
        let layers = by_name(&spans, 1).unwrap();
        assert_eq!(layers["op"].count, 2);
        assert_eq!(layers["kernel"].self_p50_ns, 40);
        assert_eq!(layers["session"].p50_ns, 60);
        assert_eq!(layers["session"].self_p50_ns, 20);
    }

    #[test]
    fn spans_are_folded_place_by_place_once_the_round_has_settled() {
        // Rounds of two operations: a dear one, then a cheap one. The
        // first two rounds cost something else and are left out; of the
        // other two, the faster span at each place is kept.
        let durations = [100, 10, 100, 10, 60, 30, 50, 20];
        let spans: Vec<Span> = (0u64..8)
            .map(|op| Span {
                op_id: op,
                ..span("op", 1000 * op, 1000 * op + durations[op as usize], None)
            })
            .collect();
        let op = by_name(&spans, 2).unwrap()["op"];
        assert_eq!((op.count, op.p50_ns), (4, 20));
        // Too few rounds to leave any out: all of them count.
        let op = by_name(&spans[..4], 2).unwrap()["op"];
        assert_eq!((op.count, op.p50_ns), (4, 10));
    }

    #[test]
    fn a_child_outside_its_parent_is_refused() {
        let escaping = vec![span("op", 0, 100, None), span("late", 90, 120, Some(0))];
        assert!(self_times(&escaping).is_err());
        let overlapping = vec![
            span("op", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 50, 70, Some(0)),
        ];
        assert!(self_times(&overlapping).is_err());
        let orphan = vec![span("a", 0, 10, Some(3))];
        assert!(self_times(&orphan).is_err());
    }

    #[test]
    fn tracer_nests_scopes_and_accounts_exactly() {
        let mut tracer = Tracer::with_capacity(8);
        for op in 0..3 {
            tracer.scope("op", op, |t| {
                t.scope("outer", op, |t| {
                    t.scope("inner", op, |_| std::hint::black_box(op))
                });
                t.scope("tail", op, |_| ());
            });
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 12);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert_eq!(spans[4].parent, None);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        check_accounting(spans).unwrap();
    }
}
