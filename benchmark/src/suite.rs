//! The runner: re-executes this binary as a child process per
//! (workload, repetition), folds the children's numbers into one value each,
//! and prints / writes the report.
//!
//! Every repetition is a process of its own so `peak_rss_mb` is that
//! repetition's high-water mark, and repetitions of different workloads
//! interleave so a slow episode of the machine costs one repetition of
//! each workload, not one workload.

use crate::json::{self, Value};
use crate::metrics::{Better, EndToEnd};
use crate::metrics::{Workload, END_TO_END, PER_LAYER, WHOLE_RUN};
use crate::rep::Numbers;
use crate::stats::{best, median, Summary};
use crate::workloads::Res;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::sync::OnceLock;

/// A repetition slower than this factor of its workload's reported rate
/// counts in `bench.slow_reps`.
const SLOW_FACTOR: f64 = 1.3;

/// Untraced repetitions per workload, in the suite and in a driver run.
const REPS: usize = 5;
/// How one set of children is run. Nothing on a command line changes
/// it, so that any two reports were made the same way: the suite and
/// the driver's form each have their one plan.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    pub reps: usize,
    pub warmup_s: f64,
    pub timed_s: f64,
    pub ladder_s: f64,
}

impl Plan {
    /// The suite: 2 s of warm-up and 6 timed seconds per repetition.
    pub fn suite(seed: u64) -> Plan {
        Plan {
            seed,
            reps: REPS,
            warmup_s: 2.0,
            timed_s: 6.0,
            ladder_s: 5.0,
        }
    }

    /// The driver's form: `seconds` of timed work in all, split over
    /// the repetitions, 1 s of warm-up before each. A traced run spends
    /// the same budget on two untraced repetitions (for the spread),
    /// the traced one, and the rungs.
    pub fn driver(seed: u64, seconds: f64, trace: bool) -> Plan {
        Plan {
            seed,
            reps: if trace { 2 } else { REPS },
            warmup_s: 1.0,
            timed_s: seconds / REPS as f64,
            ladder_s: 3.0,
        }
    }
}

/// How a child ends when it ran but an output was wrong, as the whole
/// run then does.
pub const WRONG_OUTPUT: u8 = 2;

/// The `taskset -c <cpu>` prefix that holds a child on one CPU, when
/// the tool exists and works here; `None` runs children unpinned.
///
/// A single-connection closed loop is threads that take turns. Left to
/// the guest scheduler they sometimes land on different vCPUs, and then
/// every hand-off wakes a halted vCPU through the hypervisor: on the
/// 2-vCPU box this was sized on, that moved `wire-single` between 19
/// and 110 us from one second to the next, and `wire-batch` between 3.4
/// and 5.5 ms per block from one process to the next, depending on
/// where its two workers happened to be put. Holding each repetition on
/// one CPU makes every hand-off a local context switch and leaves the
/// other CPU to the runner and the rest of the machine. What two
/// workers gain on two CPUs is a per-layer number
/// (`runtime.dispatch.scaling_2t`), measured unpinned and ungated.
fn pin_prefix() -> Option<&'static [String]> {
    static PREFIX: OnceLock<Option<Vec<String>>> = OnceLock::new();
    PREFIX
        .get_or_init(|| {
            // The last CPU this process may run on: interrupts and the
            // rest of the machine's housekeeping favour the first.
            let allowed = std::fs::read_to_string("/proc/self/status").ok()?;
            let list = allowed
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
            let cpu: u32 = list.trim().rsplit([',', '-']).next()?.parse().ok()?;
            let prefix = vec!["taskset".to_string(), "-c".to_string(), cpu.to_string()];
            let exe = std::env::current_exe().ok()?;
            let works = Command::new(&prefix[0])
                .args(&prefix[1..])
                .arg(exe)
                .args(["child", "probe"])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status()
                .is_ok_and(|s| s.success());
            works.then_some(prefix)
        })
        .as_deref()
}

/// How children are held in place, for the report's fingerprint.
pub fn pinning() -> String {
    pin_prefix().map_or("none".to_string(), |p| p.join(" "))
}

/// Runs this binary with `args` (on one CPU when `pinned`) and parses
/// the last line it prints.
fn spawn_child(args: &[String], pinned: bool) -> Res<Numbers> {
    child_outcome(args, pinned).map(|(_, numbers)| numbers)
}

/// [`spawn_child`] with how the child ended: 0, or [`WRONG_OUTPUT`].
fn child_outcome(args: &[String], pinned: bool) -> Res<(Option<i32>, Numbers)> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut command = match pin_prefix().filter(|_| pinned) {
        Some(prefix) => {
            let mut command = Command::new(&prefix[0]);
            command.args(&prefix[1..]).arg(exe);
            command
        }
        None => Command::new(exe),
    };
    let output = command
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting child {args:?}: {e}"))?;
    // A child that saw a wrong output says so in its numbers as well.
    if !output.status.success() && output.status.code() != Some(i32::from(WRONG_OUTPUT)) {
        return Err(format!("child {args:?} ended with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let parsed = json::parse(line)?;
    let pairs = parsed.as_obj().ok_or("child result is not an object")?;
    let numbers = pairs
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect();
    Ok((output.status.code(), numbers))
}

fn rep_args(plan: &Plan, workload: Workload, traced: bool) -> Vec<String> {
    let mut args: Vec<String> = [
        "child",
        "rep",
        "--workload",
        workload.name(),
        "--seed",
        &plan.seed.to_string(),
        "--warmup-s",
        &plan.warmup_s.to_string(),
        "--timed-s",
        &plan.timed_s.to_string(),
    ]
    .map(String::from)
    .to_vec();
    if traced {
        args.extend(["--traced", "--ladder-s", &plan.ladder_s.to_string()].map(String::from));
    }
    args
}

/// Everything measured for one workload.
#[derive(Debug, Default)]
pub struct WorkloadRuns {
    pub reps: Vec<Numbers>,
    pub traced: Option<Numbers>,
}

impl WorkloadRuns {
    fn values(&self, name: &str) -> Vec<f64> {
        self.reps
            .iter()
            .filter_map(|r| r.get(name).copied())
            .collect()
    }

    pub fn summary(&self, metric: &EndToEnd) -> Summary {
        Summary::of(&self.values(metric.name), metric)
    }

    /// A whole-run shadow of a gated speed (see [`WHOLE_RUN`]): the
    /// repetitions' values and their median.
    fn whole_run(&self, name: &str) -> (f64, Vec<f64>) {
        let values = self.values(name);
        (median(&values), values)
    }

    /// A per-layer number the repetitions each measured, folded like an
    /// end-to-end one: the best of the repetitions.
    fn folded(&self, name: &str, better: Better) -> Option<f64> {
        let values = self.values(name);
        (!values.is_empty()).then(|| best(&values, better))
    }

    fn children(&self) -> impl Iterator<Item = &Numbers> {
        self.reps.iter().chain(&self.traced)
    }

    pub fn attempted(&self) -> u64 {
        self.children()
            .map(|n| n.get("attempted").copied().unwrap_or(0.0) as u64)
            .sum()
    }

    pub fn failed(&self) -> u64 {
        self.children()
            .map(|n| n.get("failed").copied().unwrap_or(0.0) as u64)
            .sum()
    }

    /// The per-layer roster for this workload: the workload-independent
    /// rungs from `layers`, the rest from this workload's own children.
    pub fn per_layer(&self, layers: &Numbers) -> Res<Vec<(&'static str, &'static str, f64)>> {
        let summary_of = |name: &'static str| {
            crate::metrics::end_to_end(name)
                .map(|m| self.summary(m))
                .ok_or(name)
        };
        let rate = summary_of("vectors_per_s")?;
        let p50_us = summary_of("latency_p50_us")?.value;
        let lower = |name: &str| self.folded(name, Better::Lower).unwrap_or(0.0);
        let traced = self.traced.as_ref();
        let ladder_us = |span: &str| {
            traced
                .and_then(|t| t.get(&format!("ladder.{span}_us")))
                .copied()
                .unwrap_or(0.0)
        };
        let on_the_wire = lower("server.threads") > 0.0 && ladder_us("protocol.encode_req") > 0.0;
        let mut computed: BTreeMap<String, f64> = BTreeMap::new();
        let stage_sum: f64 = crate::rep::STAGES
            .iter()
            .map(|s| lower(&format!("server.stage_p50_us.{s}")))
            .sum();
        computed.insert(
            "server.stage_sum_share".into(),
            if p50_us > 0.0 {
                stage_sum / p50_us
            } else {
                0.0
            },
        );
        // What cannot be timed from outside, by subtraction: the round
        // trip minus the transport floor minus every rung the ladder
        // could time (protocol both ways + the session call).
        let rungs: f64 = [
            "protocol.encode_req",
            "protocol.decode_req",
            "session.run",
            "session.run_block",
        ]
        .iter()
        .chain(&["protocol.encode_reply", "protocol.decode_reply"])
        .map(|s| ladder_us(s))
        .sum();
        // A process's pings sit on one of two levels for its whole life
        // (7.4 or 11.7 us where this was sized) that its round trips do
        // not share, so the floor is the lowest any child saw, the
        // traced one included.
        let ping_us = self
            .children()
            .filter_map(|n| n.get("server.ping_p50_us").copied())
            .reduce(f64::min)
            .unwrap_or(0.0);
        computed.insert("server.ping_p50_us".into(), ping_us);
        // The rungs were timed in the traced child, so they come off
        // that child's own round trip: the two were read within seconds
        // of each other, at one speed of the machine.
        let traced_p50_us = traced.and_then(|t| t.get("latency_p50_us")).copied();
        computed.insert(
            "server.residual_us".into(),
            if on_the_wire {
                traced_p50_us.unwrap_or(p50_us) - ping_us - rungs
            } else {
                0.0
            },
        );
        let traced_rate = traced.and_then(|t| t.get("vectors_per_s")).copied();
        computed.insert(
            "trace.overhead_share".into(),
            traced_rate.map_or(0.0, |traced| 1.0 - traced / rate.value),
        );
        for (name, _) in WHOLE_RUN {
            computed.insert(name.into(), self.whole_run(name).0);
        }
        for metric in END_TO_END.iter().filter(|m| m.contract) {
            computed.insert(
                format!("bench.rep_spread.{}", metric.name),
                self.summary(metric).spread,
            );
        }
        let slow = rate
            .values
            .iter()
            .filter(|&&v| v * SLOW_FACTOR < rate.value)
            .count();
        computed.insert("bench.slow_reps".into(), slow as f64);

        PER_LAYER
            .iter()
            .map(|&(name, unit, better)| {
                let value = computed
                    .get(name)
                    .or_else(|| layers.get(name))
                    .copied()
                    .or_else(|| self.folded(name, better))
                    .ok_or_else(|| format!("no child measured per-layer metric '{name}'"))?;
                Ok((name, unit, value))
            })
            .collect()
    }
}

/// Per workload name, everything its children measured.
type Runs = BTreeMap<&'static str, WorkloadRuns>;

/// Runs `plan.reps` untraced repetitions of each workload, interleaved
/// round-robin with a rotating start, then (when `traced`) one traced
/// child per workload. Returns the runs and the order repetitions ran.
pub fn run_children(
    plan: &Plan,
    workloads: &[Workload],
    traced: bool,
) -> Res<(Runs, Vec<Vec<&'static str>>)> {
    let mut runs = Runs::new();
    let mut order = Vec::with_capacity(plan.reps);
    for rep in 0..plan.reps {
        let mut round = workloads.to_vec();
        round.rotate_left(rep % workloads.len());
        for &workload in &round {
            eprintln!(
                "[benchmark] {} repetition {}/{}",
                workload.name(),
                rep + 1,
                plan.reps
            );
            let numbers = spawn_child(&rep_args(plan, workload, false), true)?;
            runs.entry(workload.name()).or_default().reps.push(numbers);
        }
        order.push(round.iter().map(|w| w.name()).collect());
    }
    if traced {
        for &workload in workloads {
            eprintln!("[benchmark] {} traced run + ladder replay", workload.name());
            let numbers = spawn_child(&rep_args(plan, workload, true), true)?;
            runs.entry(workload.name()).or_default().traced = Some(numbers);
        }
    }
    Ok((runs, order))
}

/// The workload-independent rungs: everything single-threaded on one
/// CPU like the workloads it explains, the dispatcher's 2-thread rungs
/// free to use both.
pub fn run_layers(seed: u64) -> Res<Numbers> {
    eprintln!("[benchmark] per-layer rungs");
    let seed = seed.to_string();
    let mut numbers = spawn_child(
        &["child", "layers", "--seed", &seed].map(String::from),
        true,
    )?;
    numbers.extend(spawn_child(
        &["child", "dispatch", "--seed", &seed].map(String::from),
        false,
    )?);
    Ok(numbers)
}

fn metric_value(value: f64, unit: &str) -> Value {
    Value::obj(vec![
        ("value", Value::Num(value)),
        ("unit", Value::str(unit)),
    ])
}

/// The driver's contract: one workload, one result line.
pub fn contract(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Res<bool> {
    let plan = Plan::driver(seed, seconds, trace);
    let (runs, _) = run_children(&plan, &[workload], trace)?;
    let runs = &runs[workload.name()];
    let metrics: Vec<(String, Value)> = if trace {
        let layers = run_layers(seed)?;
        runs.per_layer(&layers)?
            .into_iter()
            .map(|(name, unit, value)| (name.to_string(), metric_value(value, unit)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .filter(|m| m.contract)
            .map(|m| {
                (
                    m.name.to_string(),
                    metric_value(runs.summary(m).value, m.unit),
                )
            })
            .collect()
    };
    let correct = runs.failed() == 0;
    let line = Value::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(runs.attempted() as f64)),
        ("failed", Value::Num(runs.failed() as f64)),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{}", line.render());
    Ok(correct)
}

fn command_line(program: &str, args: &[&str], dir: &std::path::Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// What two reports must share before they are compared.
fn fingerprint(plan: &Plan, order: &[Vec<&'static str>]) -> Value {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu_model = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")?
                .split_once(':')
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    Value::obj(vec![
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("cpu_model", Value::Str(cpu_model)),
        (
            "kernel",
            Value::str(read("/proc/sys/kernel/osrelease").trim()),
        ),
        ("rustc", Value::Str(command_line("rustc", &["-V"], here))),
        (
            "git_commit",
            Value::Str(command_line("git", &["rev-parse", "HEAD"], here)),
        ),
        ("pinning", Value::Str(pinning())),
        ("seed", Value::Num(plan.seed as f64)),
        ("timed_s", Value::Num(plan.timed_s)),
        ("warmup_s", Value::Num(plan.warmup_s)),
        ("repetitions", Value::Num(plan.reps as f64)),
        (
            "repetition_order",
            Value::Arr(
                order
                    .iter()
                    .map(|round| Value::Arr(round.iter().map(|&w| Value::str(w)).collect()))
                    .collect(),
            ),
        ),
    ])
}

fn summary_json(summary: &Summary, unit: &str, bound: f64, better: &str) -> Value {
    Value::obj(vec![
        ("unit", Value::str(unit)),
        ("better", Value::str(better)),
        ("bound", Value::Num(bound)),
        ("value", Value::Num(summary.value)),
        ("min", Value::Num(summary.min)),
        ("max", Value::Num(summary.max)),
        ("spread", Value::Num(summary.spread)),
        ("values", Value::nums(&summary.values)),
    ])
}

/// The whole suite: every workload, every metric, one report.
pub fn suite(seed: u64) -> Res<bool> {
    let plan = &Plan::suite(seed);
    let (runs, order) = run_children(plan, &Workload::ALL, true)?;
    let layers = run_layers(plan.seed)?;
    let header = fingerprint(plan, &order);
    println!("# smm-benchmark report");
    for (key, value) in header.as_obj().unwrap_or_default() {
        println!("#   {key}: {}", value.render());
    }
    let mut all_correct = true;
    let mut workloads_json = Vec::new();
    for workload in Workload::ALL {
        let run = &runs[workload.name()];
        all_correct &= run.failed() == 0;
        println!("\n== {} — {}", workload.name(), workload.why());
        println!("   attempted {} failed {}", run.attempted(), run.failed());
        println!(
            "   {:<44} {:>14} {:<6} {:>14} {:>14} {:>8}",
            "end-to-end (best of reps)", "value", "unit", "min", "max", "spread"
        );
        let mut end_to_end = Vec::new();
        for metric in &END_TO_END {
            let s = run.summary(metric);
            println!(
                "   {:<44} {:>14.4} {:<6} {:>14.4} {:>14.4} {:>7.2}%",
                metric.name,
                s.value,
                metric.unit,
                s.min,
                s.max,
                100.0 * s.spread
            );
            end_to_end.push((
                metric.name.to_string(),
                summary_json(&s, metric.unit, metric.bound, metric.better.label()),
            ));
        }
        println!(
            "   {:<44} {:>14} {:<6} {:>14} {:>14}",
            "whole run (median of reps, ungated)", "value", "unit", "min", "max"
        );
        let mut whole_run = Vec::new();
        for (name, shadowed) in WHOLE_RUN {
            let (value, values) = run.whole_run(name);
            let (min, max) = (best(&values, Better::Lower), best(&values, Better::Higher));
            let unit = crate::metrics::end_to_end(shadowed).map_or("", |m| m.unit);
            println!("   {name:<44} {value:>14.4} {unit:<6} {min:>14.4} {max:>14.4}");
            whole_run.push((
                shadowed.to_string(),
                Value::obj(vec![
                    ("unit", Value::str(unit)),
                    ("value", Value::Num(value)),
                    ("min", Value::Num(min)),
                    ("max", Value::Num(max)),
                    ("values", Value::nums(&values)),
                ]),
            ));
        }
        println!(
            "   {:<44} {:>14} {:<6}",
            "per-layer (traced run, ungated)", "value", "unit"
        );
        let mut per_layer = Vec::new();
        for (name, unit, value) in run.per_layer(&layers)? {
            println!("   {name:<44} {value:>14.4} {unit:<6}");
            per_layer.push((name.to_string(), metric_value(value, unit)));
        }
        let ladder: Vec<(String, Value)> = run
            .traced
            .iter()
            .flatten()
            .filter(|(k, _)| k.starts_with("ladder."))
            .map(|(k, &v)| (k.clone(), Value::Num(v)))
            .collect();
        for (name, value) in &ladder {
            println!("   {name:<44} {:>14.4}", value.as_f64().unwrap_or(0.0));
        }
        workloads_json.push((
            workload.name().to_string(),
            Value::obj(vec![
                ("why", Value::str(workload.why())),
                ("attempted", Value::Num(run.attempted() as f64)),
                ("failed", Value::Num(run.failed() as f64)),
                ("end_to_end", Value::Obj(end_to_end)),
                ("whole_run", Value::Obj(whole_run)),
                ("per_layer", Value::Obj(per_layer)),
                ("ladder", Value::Obj(ladder)),
            ]),
        ));
    }
    let report = Value::obj(vec![
        ("schema", Value::str("smm-benchmark-v1")),
        ("fingerprint", header),
        ("correct", Value::Bool(all_correct)),
        ("workloads", Value::Obj(workloads_json)),
    ]);
    let out = crate::out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let path = out.join(format!("report-seed{}.json", plan.seed));
    std::fs::write(&path, report.render_pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("\nreport: {}", path.display());
    println!("traces: {}", out.join("trace-<workload>.json").display());
    println!("correct: {all_correct}");
    Ok(all_correct)
}

/// Runs one short repetition of every workload against a corrupted
/// answer key; each must count failures and end with [`WRONG_OUTPUT`].
pub fn self_test() -> Res<bool> {
    let mut all_caught = true;
    for workload in Workload::ALL {
        // Long enough for `reservoir-step` to pass its checksum step.
        let plan = Plan {
            warmup_s: 0.5,
            timed_s: 1.5,
            ..Plan::suite(1)
        };
        let mut args = rep_args(&plan, workload, false);
        args.push("--corrupt".into());
        let (code, numbers) = child_outcome(&args, true)?;
        let number = |name: &str| numbers.get(name).copied().unwrap_or(0.0);
        let caught = code == Some(i32::from(WRONG_OUTPUT)) && number("failed_share") > 0.0;
        println!(
            "self-test {:<15} exit {:<6} failed {}/{} failed_share {:.6} → {}",
            workload.name(),
            code.map_or("signal".to_string(), |c| c.to_string()),
            number("failed"),
            number("attempted"),
            number("failed_share"),
            if caught { "caught" } else { "MISSED" }
        );
        all_caught &= caught;
    }
    Ok(all_caught)
}
