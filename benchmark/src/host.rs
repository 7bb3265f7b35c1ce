//! Where a result was measured and where it is written: provenance
//! (commit, cores, CPU, compiler, seed, effective flags), peak memory,
//! and the artifact directory.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::json;
use crate::metrics::def;
use crate::workloads::Outcome;

/// `VmHWM` of this process in megabytes (0 where `/proc` is absent). The
/// driver runs one workload per process, so this is the workload's own;
/// `--agree` and the all-workloads mode share a process, and freed heap
/// is not returned to the system, so there it is the high-water mark of
/// the workloads so far.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit a result belongs to, read from `.git` without running
/// git; `unknown` in the driver's checkout, which is not a repository.
fn git_sha() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc --version`; the child has exited when `output` returns.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The result record: a provenance header, then one row per metric and
/// workload — `{name, workload, unit, direction, value, median, q1, q3, n}`.
pub fn record(seed: u64, outcomes: &[(&str, bool, &Outcome)]) -> String {
    let mut out = String::from("{\n  \"provenance\": {");
    write!(
        out,
        "\"git_sha\": {}, \"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"seed\": {seed}, ",
        json::string(&git_sha()),
        nproc(),
        json::string(&cpu_model()),
        json::string(&rustc_version()),
    )
    .expect("write to a String");
    // What `run_threaded` resolves when neither `PsConfig` nor the
    // environment overrides it; `main` refuses to start otherwise.
    out.push_str(
        "\"proto_flags\": {\"wait_free_reads\": true, \"coalesce\": true, \
         \"snapshot_reads\": true, \"trace\": false}},\n  \"rows\": [\n",
    );
    let mut first = true;
    for (workload, _, outcome) in outcomes {
        for (name, row) in &outcome.rows {
            let d = def(name).expect("rows hold contract metrics");
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
            write!(
                out,
                "    {{\"name\": {}, \"workload\": {}, \"unit\": {}, \"direction\": {}, \
                 \"value\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                json::string(name),
                json::string(workload),
                json::string(d.unit),
                json::string(d.better.label()),
                json::number(row.value),
                json::number(row.median),
                json::number(row.q1),
                json::number(row.q3),
                row.n
            )
            .expect("write to a String");
        }
    }
    out.push_str("\n  ],\n  \"checks\": [\n");
    let checks: Vec<String> = outcomes
        .iter()
        .map(|(workload, trace, o)| {
            format!(
                "    {{\"workload\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \
                 \"failed\": {}, \"violations\": [{}]}}",
                json::string(workload),
                trace,
                o.correct(),
                o.attempted,
                o.failed,
                o.violations
                    .iter()
                    .map(|v| json::string(v))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
        .collect();
    out.push_str(&checks.join(",\n"));
    out.push_str("\n  ]\n}");
    out
}

/// `<target dir>/benchmark/`, inside the checkout: `CARGO_TARGET_DIR`
/// when the driver sets it, `target` otherwise.
fn artifact_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("benchmark")
}

/// Writes `content` to the artifact directory. The artifacts are a
/// convenience for the reader of a run; failing to write one must not
/// fail the measurement.
pub fn write_artifact(name: &str, content: &str) {
    let dir = artifact_dir();
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(name), content));
    if let Err(e) = written {
        eprintln!(
            "benchmark: could not write {}: {e}",
            dir.join(name).display()
        );
    }
}
