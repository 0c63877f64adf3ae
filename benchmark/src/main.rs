//! The repository's serving benchmark.
//!
//! ```text
//! smm-benchmark [--seed N]                                     the whole suite → out/report-seedN.json
//! smm-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one JSON result line
//! smm-benchmark --self-test                                     wrong answer keys must be caught
//! smm-benchmark compare A.json B.json                           apply the bounds to two reports
//! ```
//!
//! Repetitions, warm-up and timed seconds are fixed per form (see
//! `suite::Plan`); `child <kind> ...` is the runner talking to itself.
//!
//! It measures every layer from outside, by timing calls into public
//! functions, and claims no gain. See `README.md` beside this package.

#![forbid(unsafe_code)]

mod compare;
mod gen;
mod json;
mod ladder;
mod layerbench;
mod layers;
mod metrics;
mod rep;
mod spans;
mod stats;
mod suite;
mod workloads;

use json::Value;
use ladder::Ladder;
use metrics::Workload;
use rep::{Numbers, RepOptions};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{FleetChurn, Res, ReservoirStep, Scenario, WireBatch, WireSingle};

/// Reports, traces, and the fleet's temp stores live here (git-ignored).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `--flag value` pairs and bare `--switches`, in any order.
struct Args {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// What the suite takes, what the driver's form takes, and what the
/// runner passes to a child of its own.
const SUITE_FLAGS: [&str; 1] = ["--seed"];
const DRIVER_FLAGS: [&str; 4] = ["--workload", "--seed", "--seconds", "--trace"];
const CHILD_FLAGS: [&str; 5] = [
    "--workload",
    "--seed",
    "--warmup-s",
    "--timed-s",
    "--ladder-s",
];
const CHILD_SWITCHES: [&str; 2] = ["--traced", "--corrupt"];

impl Args {
    /// Anything not in `flags` or `switches` is an error, so a mistyped
    /// flag cannot quietly run with the default.
    fn parse(args: &[String], flags: &[&str], switches: &[&str]) -> Res<Args> {
        let mut parsed = Args {
            values: BTreeMap::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if switches.contains(&arg.as_str()) {
                parsed.switches.push(arg.clone());
            } else if flags.contains(&arg.as_str()) {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                parsed.values.insert(arg.clone(), value.clone());
            } else {
                let known = [flags, switches].concat().join(" ");
                return Err(format!(
                    "unknown argument '{arg}' (this form takes: {known})"
                ));
            }
        }
        Ok(parsed)
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Res<T> {
        match self.values.get(flag) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("bad value '{text}' for {flag}")),
        }
    }

    fn workload(&self) -> Res<Workload> {
        let name = self
            .values
            .get("--workload")
            .ok_or("--workload is required")?;
        Workload::parse(name).ok_or_else(|| {
            let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload '{name}' (have: {})", known.join(", "))
        })
    }
}

/// One repetition of `scenario`; when traced, also the ladder replay and
/// the trace file.
fn child_rep<S: Scenario + Ladder>(scenario: &S, args: &Args) -> Res<Numbers> {
    let seconds = |flag: &str, default: f64| -> Res<Duration> {
        Ok(Duration::from_secs_f64(args.get(flag, default)?))
    };
    let opts = RepOptions {
        warmup: seconds("--warmup-s", 2.0)?,
        timed: seconds("--timed-s", 6.0)?,
        traced: args.has("--traced"),
    };
    let (mut numbers, tracer) = rep::run(scenario, &opts)?;
    let Some(loop_tracer) = tracer else {
        return Ok(numbers);
    };
    spans::check_accounting(loop_tracer.spans())?;
    let mut ladder = spans::Tracer::with_capacity(1 << 15);
    let (ops, wrong) =
        scenario.ladder(&mut ladder, ladder::MAX_OPS, seconds("--ladder-s", 3.0)?)?;
    spans::check_accounting(ladder.spans())?;
    let layers = spans::by_name(ladder.spans(), S::OPS_PER_SEGMENT * S::SEGMENTS_PER_ROUND)?;
    numbers.insert("ladder.ops".into(), ops as f64);
    *numbers.entry("attempted".into()).or_default() += ops as f64;
    *numbers.entry("failed".into()).or_default() += wrong as f64;
    for (name, time) in &layers {
        numbers.insert(format!("ladder.{name}_us"), time.p50_ns as f64 / 1e3);
        numbers.insert(
            format!("ladder.{name}_self_us"),
            time.self_p50_ns as f64 / 1e3,
        );
    }

    // The loop's root spans are all alike; the file keeps the first few
    // thousand and says how many there were.
    const LOOP_SPANS_KEPT: usize = 4096;
    let loop_spans = loop_tracer.spans();
    let trace = Value::obj(vec![
        ("schema", Value::str("smm-benchmark-trace-v1")),
        ("workload", Value::str(S::WORKLOAD.name())),
        ("seed", Value::Num(args.get("--seed", 1u64)? as f64)),
        (
            "layers",
            Value::Obj(
                layers
                    .iter()
                    .map(|(name, t)| {
                        let entry = Value::obj(vec![
                            ("count", Value::Num(t.count as f64)),
                            ("p50_ns", Value::Num(t.p50_ns as f64)),
                            ("self_p50_ns", Value::Num(t.self_p50_ns as f64)),
                        ]);
                        (name.to_string(), entry)
                    })
                    .collect(),
            ),
        ),
        ("ladder_ops", Value::Num(ops as f64)),
        ("ladder_spans", spans::spans_to_json(ladder.spans())),
        ("loop_spans_total", Value::Num(loop_spans.len() as f64)),
        (
            "loop_spans",
            spans::spans_to_json(&loop_spans[..loop_spans.len().min(LOOP_SPANS_KEPT)]),
        ),
    ]);
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let path = out.join(format!("trace-{}.json", S::WORKLOAD.name()));
    std::fs::write(&path, trace.render())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(numbers)
}

/// `Ok(true)` = ran and every output was right.
fn child(kind: &str, args: &Args) -> Res<bool> {
    let seed = args.get("--seed", 1u64)?;
    let corrupt = args.has("--corrupt");
    let numbers = match kind {
        // What `taskset` is asked to run to show that it can.
        "probe" => Numbers::new(),
        "layers" => layerbench::run(seed)?,
        "dispatch" => layerbench::run_dispatch(seed)?,
        "rep" => match args.workload()? {
            Workload::ReservoirStep => child_rep(&ReservoirStep::new(seed, corrupt), args)?,
            Workload::WireSingle => child_rep(&WireSingle::new(seed, corrupt)?, args)?,
            Workload::WireBatch => child_rep(&WireBatch::new(seed, corrupt)?, args)?,
            Workload::FleetChurn => child_rep(&FleetChurn::new(seed, corrupt)?, args)?,
        },
        other => return Err(format!("unknown child kind '{other}'")),
    };
    let all_right = numbers.get("failed").is_none_or(|&failed| failed == 0.0);
    let line = Value::Obj(
        numbers
            .into_iter()
            .map(|(k, v)| (k, Value::Num(v)))
            .collect(),
    );
    println!("{}", line.render());
    Ok(all_right)
}

/// `Ok(true)` = ran and every output was right.
fn dispatch(argv: &[String]) -> Res<bool> {
    match argv.first().map(String::as_str) {
        Some("child") => {
            let kind = argv.get(1).ok_or("child needs a kind")?;
            child(
                kind,
                &Args::parse(&argv[2..], &CHILD_FLAGS, &CHILD_SWITCHES)?,
            )
        }
        Some("compare") => match argv {
            [_, a, b] => compare::run(a, b),
            _ => Err("usage: compare A.json B.json".into()),
        },
        Some("--self-test") => match argv {
            [_] => suite::self_test(),
            _ => Err("usage: --self-test (it takes nothing else)".into()),
        },
        _ if argv.iter().any(|arg| arg == "--workload") => {
            let args = Args::parse(argv, &DRIVER_FLAGS, &[])?;
            let seconds = args.get("--seconds", 20.0)?;
            if !(seconds > 0.0 && seconds <= 60.0) {
                return Err(format!("--seconds {seconds} is not in (0, 60]"));
            }
            suite::contract(
                args.workload()?,
                args.get("--seed", 1u64)?,
                seconds,
                args.get("--trace", 0u8)? != 0,
            )
        }
        _ => {
            let args = Args::parse(argv, &SUITE_FLAGS, &[])?;
            suite::suite(args.get("--seed", 1u64)?)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        // A wrong output (or a regression found by `compare`) is its own
        // exit code, apart from a run that could not complete.
        Ok(false) => ExitCode::from(suite::WRONG_OUTPUT),
        Err(e) => {
            eprintln!("smm-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split(' ').map(String::from).collect()
    }

    #[test]
    fn a_mistyped_or_foreign_flag_is_refused_not_defaulted() {
        let suite = |line: &str| Args::parse(&argv(line), &SUITE_FLAGS, &[]);
        assert_eq!(suite("--seed 2").unwrap().get("--seed", 1u64), Ok(2));
        assert!(suite("--sead 2").is_err());
        assert!(suite("--seed").is_err());
        // How a report is made is not the command line's to change.
        for foreign in ["--reps 3", "--timed-s 1", "--warmup-s 0", "--corrupt"] {
            assert!(suite(foreign).is_err(), "{foreign}");
            assert!(
                Args::parse(&argv(foreign), &DRIVER_FLAGS, &[]).is_err(),
                "{foreign}"
            );
        }
        let child = Args::parse(
            &argv("--workload wire-single --timed-s 1 --corrupt"),
            &CHILD_FLAGS,
            &CHILD_SWITCHES,
        )
        .unwrap();
        assert!(child.has("--corrupt") && !child.has("--traced"));
        assert_eq!(child.workload(), Ok(Workload::WireSingle));
    }
}
