//! The whole benchmark: every workload in a fresh process each, end to
//! end and traced, and the A/A comparison of two such suites.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::spec::{END_TO_END, WORKLOADS};
use crate::util::{json_string, metric_from_line};

pub struct SuiteArgs {
    /// One workload, or all four.
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
}

fn workloads(args: &SuiteArgs) -> Result<Vec<&'static str>, String> {
    match &args.workload {
        None => Ok(WORKLOADS.iter().map(|w| w.name).collect()),
        Some(name) => WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .map(|w| vec![w.name])
            .ok_or_else(|| format!("unknown workload `{name}`")),
    }
}

/// Run one workload in a child process; its stdout streams through and
/// its last line, the result, comes back. `Err` if the child failed.
fn child_run(workload: &str, args: &SuiteArgs, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let line = stdout.lines().last().unwrap_or_default().to_string();
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) failed: {}",
            u8::from(trace),
            output.status
        ));
    }
    if !line.starts_with("{\"correct\": true") {
        return Err(format!(
            "{workload} (trace {}) reported incorrect output",
            u8::from(trace)
        ));
    }
    Ok(line)
}

/// `run.sh`: every workload end to end, then traced;
/// `out/<workload>.json` holds both result lines.
pub fn run(args: &SuiteArgs, out_dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let mut failures = Vec::new();
    for workload in workloads(args)? {
        let mut lines = Vec::new();
        for trace in [false, true] {
            println!(
                "== {workload}, seed {}, trace {} ==",
                args.seed,
                u8::from(trace)
            );
            match child_run(workload, args, trace) {
                Ok(line) => lines.push(line),
                Err(e) => failures.push(e),
            }
        }
        if let [end_to_end, per_layer] = lines.as_slice() {
            let json = format!(
                "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"end_to_end\": {end_to_end}, \"per_layer\": {per_layer}}}\n",
                json_string(workload),
                args.seed,
                args.seconds
            );
            let path = out_dir.join(format!("{workload}.json"));
            std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// `run.sh --aa`: the end-to-end suite twice on the same build; every
/// metric × workload must agree within its own bound.
pub fn aa(args: &SuiteArgs) -> Result<(), String> {
    let names = workloads(args)?;
    let mut runs: Vec<Vec<String>> = Vec::new();
    for round in 0..2 {
        let mut lines = Vec::new();
        for workload in &names {
            println!("== A/A round {round}: {workload}, seed {} ==", args.seed);
            lines.push(child_run(workload, args, false)?);
        }
        runs.push(lines);
    }
    println!("== A/A: two runs of the same build ==");
    println!(
        "{:<12} {:<18} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut breaches = Vec::new();
    for (w, workload) in names.iter().enumerate() {
        for metric in &END_TO_END {
            let value = |round: usize| {
                metric_from_line(&runs[round][w], metric.name)
                    .ok_or_else(|| format!("{workload} did not report {}", metric.name))
            };
            let (first, second) = (value(0)?, value(1)?);
            let diff = (second - first).abs() / first.abs().max(f64::MIN_POSITIVE);
            let breach = diff > metric.bound;
            println!(
                "{workload:<12} {:<18} {first:>14.4} {second:>14.4} {:>7.2}% {:>6.0}%{}",
                metric.name,
                diff * 100.0,
                metric.bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
            if breach {
                breaches.push(format!("{workload} {}", metric.name));
            }
        }
    }
    if breaches.is_empty() {
        Ok(())
    } else {
        Err(format!("A/A breaches: {}", breaches.join(", ")))
    }
}
