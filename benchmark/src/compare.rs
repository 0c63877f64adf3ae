//! `compare A.json B.json`: applies each end-to-end metric's bound to
//! two reports, one row per (workload, metric).

use crate::json::{self, Value};
use crate::metrics::{end_to_end, EndToEnd, Workload, END_TO_END, WHOLE_RUN};
use crate::stats::{best, judge, median, worsening, Summary, Verdict};
use crate::workloads::Res;

fn load(path: &str) -> Res<Value> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let report = json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    match report.get("schema").and_then(Value::as_str) {
        Some("smm-benchmark-v1") => Ok(report),
        other => Err(format!(
            "{path} is not a smm-benchmark-v1 report (schema {other:?})"
        )),
    }
}

/// The repetitions' values of one metric in one `section` of a workload.
fn values(report: &Value, workload: &str, section: &str, metric: &str) -> Res<Vec<f64>> {
    report
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(section))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Value::as_arr)
        .map(|vs| vs.iter().filter_map(Value::as_f64).collect())
        .filter(|vs: &Vec<f64>| !vs.is_empty())
        .ok_or_else(|| format!("report has no {workload}/{section}/{metric}"))
}

/// One metric of one workload, folded afresh from the repetitions'
/// values the report carries.
fn summary(report: &Value, workload: &str, metric: &EndToEnd) -> Res<Summary> {
    Ok(Summary::of(
        &values(report, workload, "end_to_end", metric.name)?,
        metric,
    ))
}

/// A gated speed's whole-run shadow in one report: the median of the
/// repetitions, and by how much the least disturbed repetition's
/// whole run trails the gated value (its share of that value).
fn whole_run(report: &Value, workload: &str, metric: &EndToEnd) -> Res<(f64, f64)> {
    let whole = values(report, workload, "whole_run", metric.name)?;
    let gated = summary(report, workload, metric)?.value;
    let trails = worsening(metric.better, gated, best(&whole, metric.better));
    Ok((median(&whole), trails))
}

/// Prints the comparison; `Ok(true)` when no row is worse.
pub fn run(path_a: &str, path_b: &str) -> Res<bool> {
    println!("A: {path_a}\nB: {path_b}");
    compare(&load(path_a)?, &load(path_b)?)
}

fn compare(a: &Value, b: &Value) -> Res<bool> {
    // Two reports are comparable when these agree; the rest of the
    // fingerprint (commit, seed order) is what is being compared.
    for key in [
        "nproc",
        "cpu_model",
        "kernel",
        "rustc",
        "pinning",
        "seed",
        "timed_s",
        "warmup_s",
        "repetitions",
    ] {
        let of = |r: &Value| {
            r.get("fingerprint")
                .and_then(|f| f.get(key))
                .map(Value::render)
        };
        let (fa, fb) = (of(a), of(b));
        let note = if fa == fb {
            ""
        } else {
            "   <-- differs: judge with care"
        };
        println!(
            "  {key:<12} A={} B={}{note}",
            fa.unwrap_or_default(),
            fb.unwrap_or_default()
        );
    }
    println!(
        "\n{:<15} {:<15} {:>14} {:>14} {:>9} {:>7} {:>9}  verdict",
        "workload", "metric", "A value", "B value", "worse by", "bound", "spread"
    );
    let mut none_worse = true;
    // A report whose outputs were wrong measured some other program.
    for (which, report) in [("A", a), ("B", b)] {
        if report.get("correct") != Some(&Value::Bool(true)) {
            println!("{which}: outputs were WRONG (correct is not true)");
            none_worse = false;
        }
    }
    for workload in Workload::ALL {
        for metric in &END_TO_END {
            let sa = summary(a, workload.name(), metric)?;
            let sb = summary(b, workload.name(), metric)?;
            let verdict = judge(metric, &sa, &sb);
            none_worse &= verdict != Verdict::Worse;
            println!(
                "{:<15} {:<15} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}% {:>8.2}%  {}",
                workload.name(),
                metric.name,
                sa.value,
                sb.value,
                100.0 * worsening(metric.better, sa.value, sb.value),
                100.0 * metric.bound,
                100.0 * sa.spread.max(sb.spread),
                verdict.label()
            );
        }
        // The gated speeds are read from undisturbed segments, which
        // cannot see a slowdown that spares a twentieth of them. The
        // whole-run numbers can, and the machine's own slow spells with
        // it: when B's trail their gated twin by more than A's did, by
        // more than the bound, that is worth a look, not a verdict.
        for (_, shadowed) in WHOLE_RUN {
            let metric = end_to_end(shadowed).ok_or(shadowed)?;
            let (value_a, trails_a) = whole_run(a, workload.name(), metric)?;
            let (value_b, trails_b) = whole_run(b, workload.name(), metric)?;
            let grew = trails_b - trails_a > metric.bound;
            println!(
                "{:<15} {:<15} {:>14.4} {:>14.4} {:>8.2}% {:>7} {:>9}  not gated: whole run trails by {:.0}% in A, {:.0}% in B{}",
                "",
                "  whole run",
                value_a,
                value_b,
                100.0 * worsening(metric.better, value_a, value_b),
                "-",
                "-",
                100.0 * trails_a,
                100.0 * trails_b,
                if grew {
                    "  <-- GAP GREW: read client.* and the trace"
                } else {
                    ""
                }
            );
        }
    }
    println!(
        "\n{}",
        if none_worse {
            "no metric is worse"
        } else {
            "at least one metric is WORSE"
        }
    );
    Ok(none_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report in which every repetition of every workload read the
    /// same: `speed` scales the two gated speeds, `failed` is the
    /// `failed_share` of each repetition.
    fn report(speed: f64, failed: [f64; 5], correct: bool) -> Value {
        let reps = |value: f64| Value::obj(vec![("values", Value::nums(&[value; 5]))]);
        let workloads = Workload::ALL.map(|workload| {
            let end_to_end = END_TO_END
                .iter()
                .map(|metric| {
                    let entry = match metric.name {
                        "vectors_per_s" => reps(1000.0 * speed),
                        "latency_p50_us" => reps(40.0 / speed),
                        "failed_share" => Value::obj(vec![("values", Value::nums(&failed))]),
                        _ => reps(1.0),
                    };
                    (metric.name.to_string(), entry)
                })
                .collect();
            let whole_run = vec![
                ("vectors_per_s".to_string(), reps(900.0 * speed)),
                ("latency_p50_us".to_string(), reps(44.0 / speed)),
            ];
            let sections = vec![
                ("end_to_end", Value::Obj(end_to_end)),
                ("whole_run", Value::Obj(whole_run)),
            ];
            (workload.name().to_string(), Value::obj(sections))
        });
        Value::obj(vec![
            ("correct", Value::Bool(correct)),
            ("workloads", Value::Obj(workloads.to_vec())),
        ])
    }

    #[test]
    fn only_a_slowdown_a_failure_or_a_wrong_report_fails_the_comparison() {
        let clean = [0.0; 5];
        let base = report(1.0, clean, true);
        assert_eq!(compare(&base, &report(1.0, clean, true)), Ok(true));
        assert_eq!(compare(&base, &report(0.95, clean, true)), Ok(true));
        assert_eq!(compare(&base, &report(1.5, clean, true)), Ok(true));
        assert_eq!(compare(&base, &report(0.7, clean, true)), Ok(false));
        // Failures in some repetitions only, at differing shares.
        let some = [0.0, 0.0, 0.1, 0.2, 0.3];
        assert_eq!(compare(&base, &report(1.0, some, true)), Ok(false));
        // A report that says its outputs were wrong, whatever its numbers.
        assert_eq!(compare(&base, &report(1.0, clean, false)), Ok(false));
        assert_eq!(compare(&report(1.0, clean, false), &base), Ok(false));
        // A report without the whole-run section is not compared at all.
        assert!(compare(&base, &Value::obj(vec![("correct", Value::Bool(true))])).is_err());
    }
}
