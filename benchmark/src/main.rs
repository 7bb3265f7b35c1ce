//! `lapse-benchmark`: epoch time of the paper's three training tasks on
//! the threaded backend as shipped, open-loop serving beside training,
//! and an outside-in waterfall of the layers underneath.
//!
//! The driver's contract (see `BENCHMARK.json` and the README):
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints every metric by name and, as the last line of standard output,
//! one JSON object `{correct, attempted, failed, metrics}` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Without `--workload` it runs all four workloads, both
//! passes. `--agree` is the reviewer's tool: two sets of runs of the
//! same code, compared under the benchmark's own bounds.

mod affinity;
mod alloc;
mod host;
mod json;
mod metrics;
mod serve;
mod spans;
mod stats;
mod traced;
mod train;
mod waterfall;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::LineAligned = alloc::LineAligned;

use metrics::{Values, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use workloads::Outcome;

/// Problem sizes: the contract's, or a tiny pass that keeps every code
/// path for `--smoke` and the unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// `final_loss` is read at this measured epoch of each repetition, so
/// every repetition trains at least as many.
pub const LOSS_EPOCH: usize = 3;

/// Spans kept per traced worker (the rest of its calls only feed the
/// totals and histograms).
pub const SPAN_SAMPLE: usize = 20_000;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    scale: Scale,
    agree: bool,
    reps: usize,
    print_contract: bool,
}

const USAGE: &str = "usage: benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--smoke] [--agree [--reps <n>]] [--print-contract]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: None,
        scale: Scale::Full,
        agree: false,
        reps: 5,
        print_contract: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|(w, _)| *w == name) {
                    return Err(format!("unknown workload {name}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--reps" => {
                args.reps = value("a number")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if args.reps < 2 {
                    return Err("--reps must be at least 2".to_string());
                }
            }
            "--smoke" => {
                args.scale = Scale::Smoke;
                args.seconds = 0.2;
            }
            "--agree" => args.agree = true,
            "--print-contract" => args.print_contract = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// What `lapse-core` reads from the environment: three kill switches
/// and the flight recorder.
const OVERRIDES: [&str; 4] = [
    "LAPSE_NO_SEQLOCK",
    "LAPSE_NO_COALESCE",
    "LAPSE_NO_SNAPSHOT",
    "LAPSE_TRACE",
];

/// The benchmark measures the configuration the threaded backend ships:
/// the kill switches and the flight recorder change it from outside.
fn refuse_overridden_defaults() -> Result<(), String> {
    match OVERRIDES
        .iter()
        .find(|name| std::env::var_os(name).is_some_and(|v| !v.is_empty()))
    {
        Some(name) => Err(format!(
            "{name} is set: the benchmark runs the shipped defaults only"
        )),
        None => Ok(()),
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding every metric of the pass.
fn result_line(outcome: &Outcome, defs: &[metrics::Def]) -> String {
    let body: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(d.name),
                // A run that failed before it had a value prints `null`.
                json::number(outcome.value(d.name).unwrap_or(f64::NAN)),
                json::string(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    )
}

fn print_outcome(workload: &str, outcome: &Outcome, defs: &[metrics::Def]) {
    println!("## {workload}");
    for d in defs {
        let Some(row) = outcome.rows.get(d.name) else {
            continue;
        };
        println!(
            "{:<36} {:>18.6} {:<13} q1 {:.6} median {:.6} q3 {:.6} n {}",
            d.name, row.value, d.unit, row.q1, row.median, row.q3, row.n
        );
    }
    for note in &outcome.notes {
        println!("note: {note}");
    }
    for violation in &outcome.violations {
        println!("FAILED CHECK: {violation}");
    }
}

fn defs_of(trace: bool) -> &'static [metrics::Def] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The driver's mode: one workload, one pass.
fn run_one(args: &Args, workload: &str, trace: bool) -> ExitCode {
    let outcome = workloads::run(workload, args.seed, args.seconds, trace, args.scale);
    let defs = defs_of(trace);
    print_outcome(workload, &outcome, defs);
    let record = host::record(args.seed, &[(workload, trace, &outcome)]);
    host::write_artifact(
        &format!("result-{workload}-trace{}.json", trace as u8),
        &record,
    );
    println!("{}", result_line(&outcome, defs));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, both passes; the result record goes to standard
/// output and `target/benchmark/result.json`.
fn run_all(args: &Args) -> ExitCode {
    let mut outcomes = Vec::new();
    for (workload, _) in &WORKLOADS {
        for trace in [false, true] {
            let outcome = workloads::run(workload, args.seed, args.seconds, trace, args.scale);
            print_outcome(workload, &outcome, defs_of(trace));
            outcomes.push((*workload, trace, outcome));
        }
    }
    let refs: Vec<(&str, bool, &Outcome)> = outcomes.iter().map(|(w, t, o)| (*w, *t, o)).collect();
    let record = host::record(args.seed, &refs);
    host::write_artifact("result.json", &record);
    println!("{record}");
    if outcomes.iter().all(|(_, _, o)| o.correct()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload's end-to-end pass as the driver does — in a process
/// of its own, so every run starts from the same heap — and reads the
/// metrics back from its result line. `Err` carries what went wrong.
fn run_in_child(args: &Args, workload: &str, seed: u64) -> Result<Values, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut command = std::process::Command::new(exe);
    command.args(["--workload", workload, "--trace", "0"]);
    if args.scale == Scale::Smoke {
        command.arg("--smoke");
    }
    command.args(["--seed", &seed.to_string()]);
    command.args(["--seconds", &args.seconds.to_string()]);
    // `output` waits for the child to end.
    let output = command
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    if !output.status.success() || !line.starts_with("{\"correct\": true") {
        let failed: Vec<&str> = stdout.lines().filter(|l| l.starts_with("FAILED")).collect();
        return Err(format!("run failed ({}): {failed:?}", output.status));
    }
    let mut values = Values::new();
    for d in &END_TO_END {
        let value = result_value(line, d.name)
            .ok_or_else(|| format!("no {} in the result line", d.name))?;
        values.insert(d.name, value);
    }
    Ok(values)
}

/// The value of metric `name` in a result line written by [`result_line`].
fn result_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("{}: {{\"value\": ", json::string(name));
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Two sets of `reps` runs of every workload (seeds `seed`, `seed+1`, …,
/// the same in both sets); per metric and workload: both medians, the
/// bound and a verdict. Fails on a regression or a failed check.
fn run_agree(args: &Args) -> ExitCode {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|(w, _)| *w).collect(),
    };
    let mut sets: [Vec<Vec<Values>>; 2] = [Vec::new(), Vec::new()];
    let mut all_correct = true;
    for set in &mut sets {
        for workload in &names {
            let mut runs = Vec::new();
            for rep in 0..args.reps {
                let seed = args.seed + rep as u64;
                match run_in_child(args, workload, seed) {
                    Ok(values) => runs.push(values),
                    Err(what) => {
                        println!("FAILED ({workload}, seed {seed}): {what}");
                        all_correct = false;
                    }
                }
            }
            set.push(runs);
        }
    }
    println!(
        "{:<12} {:<18} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "first", "second", "change", "spread", "bound"
    );
    let mut regressed = false;
    for (w, workload) in names.iter().enumerate() {
        for d in &END_TO_END {
            let column =
                |set: &Vec<Vec<Values>>| -> Vec<f64> { set[w].iter().map(|v| v[d.name]).collect() };
            let (first, second) = (column(&sets[0]), column(&sets[1]));
            let (m1, m2) = (stats::median(&first), stats::median(&second));
            let spread = stats::spread_share(&first).max(stats::spread_share(&second));
            // The driver judges set-up time by its medians only.
            let judged_spread = if d.name == "setup_s" { 0.0 } else { spread };
            let verdict = stats::compare(m1, m2, judged_spread, d.bound, d.better);
            regressed |= verdict == stats::Verdict::Regressed;
            println!(
                "{:<12} {:<18} {:>14.6} {:>14.6} {:>+7.1}% {:>7.1}% {:>5.0}%  {}",
                workload,
                d.name,
                m1,
                m2,
                100.0 * (m2 - m1) / m1,
                100.0 * spread,
                100.0 * d.bound,
                verdict.label()
            );
        }
    }
    if regressed || !all_correct {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if args.print_contract {
        print!("{}", metrics::contract_json());
        return ExitCode::SUCCESS;
    }
    if let Err(message) = refuse_overridden_defaults() {
        eprintln!("{message}");
        return ExitCode::from(2);
    }
    if args.agree {
        return run_agree(&args);
    }
    match (&args.workload, args.trace) {
        (Some(workload), trace) => run_one(&args, workload, trace.unwrap_or(false)),
        (None, _) => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_arguments_parse() {
        let a = args(&[
            "--workload",
            "kge_hiding",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("kge_hiding"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, Some(true)));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }

    #[test]
    fn result_line_reads_back() {
        let mut outcome = Outcome::default();
        for (i, d) in END_TO_END.iter().enumerate() {
            outcome.set(d.name, 1.5 + i as f64);
        }
        let line = result_line(&outcome, &END_TO_END);
        assert_eq!(result_value(&line, "setup_s"), Some(1.5));
        assert_eq!(result_value(&line, "peak_rss_mb"), Some(6.5));
        assert_eq!(result_value(&line, "absent"), None);
    }

    /// The tiny pass of all four workloads, both passes: every metric of
    /// the contract is reported, every check holds, and each workload's
    /// prediction shows in the recorded counts.
    #[test]
    fn smoke_pass_reports_every_metric_and_holds_every_check() {
        let started = std::time::Instant::now();
        for (workload, _) in &WORKLOADS {
            let e2e = workloads::run(workload, 3, 0.2, false, Scale::Smoke);
            assert!(e2e.correct(), "{workload}: {:?}", e2e.violations);
            for d in &END_TO_END {
                let v = e2e
                    .value(d.name)
                    .expect("every end-to-end metric is reported");
                assert!(v.is_finite() && v > 0.0, "{workload} {} = {v}", d.name);
            }
            let line = result_line(&e2e, &END_TO_END);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            assert!(!line.contains('\n') && line.contains("\"setup_s\": {\"value\": "));

            let layers = workloads::run(workload, 3, 0.2, true, Scale::Smoke);
            assert!(layers.correct(), "{workload}: {:?}", layers.violations);
            for d in &PER_LAYER {
                assert!(layers.value(d.name).is_some(), "{workload} {}", d.name);
            }
            let v = |name: &str| layers.value(name).expect("a per-layer metric");
            assert!(v("server.msgs_per_relocation") <= 3.0);
            assert_eq!(v("tracker.in_flight_end"), 0.0);
            let shares: f64 = [
                "compute", "pull", "push", "localize", "wait", "barrier", "clock",
            ]
            .iter()
            .map(|k| v(&format!("api.{k}_share")))
            .sum();
            assert!(
                (shares - 1.0).abs() < 1e-9,
                "{workload}: shares add to {shares}"
            );
            let replica_used = v("replica.pull_share") > 0.0;
            assert_eq!(replica_used, *workload == "w2v_hybrid", "{workload}");
            if matches!(*workload, "mf_blocked" | "serve_train") {
                assert_eq!(v("client.remote_keys_per_example"), 0.0, "{workload}");
            }
            if *workload == "serve_train" {
                assert_eq!(v("coalesce.envelopes_per_example"), 0.0);
            }
            // Layers plus hand-off reconcile with the measured round trip.
            let rtt = v("threaded.remote_pull1_rtt_us");
            let rebuilt = v("threaded.remote_pull1_cpu_us") + v("threaded.handoff_share") * rtt;
            assert!((rebuilt - rtt).abs() < 1e-6 * rtt, "{workload}");
        }
        assert!(
            started.elapsed().as_secs() < 60,
            "the smoke pass is meant to take seconds"
        );
    }
}
