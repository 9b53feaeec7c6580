use std::process::ExitCode;

use ipsc_benchmark::run::{self, RunArgs};
use ipsc_benchmark::spec::{benchmark_json, DEFAULT_SEED, RUN_SECONDS};
use ipsc_benchmark::suite::{self, SuiteArgs};
use ipsc_benchmark::util::result_line;

const USAGE: &str = "\
benchmark/run.sh - the benchmark of the ipsc-sched stack

USAGE:
    benchmark/run.sh [--seed N] [--workload NAME] [--seconds S]
        every workload (or NAME) in a fresh process each: end to end, then
        traced; prints every metric with its unit, writes
        benchmark/out/<workload>.json and benchmark/out/trace-<workload>.jsonl
    benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
        one run in this process; the last line of stdout is the result:
        the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1)
    benchmark/run.sh --aa [--seed N] [--workload NAME]
        the end-to-end suite twice on the same build, compared metric by
        metric against the bounds of BENCHMARK.json
    benchmark/run.sh --emit-spec
        print BENCHMARK.json as generated from src/spec.rs

WORKLOADS: serve_hot serve_cold serve_drift grid_paper
";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    aa: bool,
    emit_spec: bool,
}

fn parse() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: None,
        aa: false,
        emit_spec: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if cli.seconds.is_nan() || cli.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--aa" => cli.aa = true,
            "--emit-spec" => cli.emit_spec = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse() {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("benchmark: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.emit_spec {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    let out_dir = run::default_out_dir();
    let outcome = match (cli.workload, cli.trace) {
        // One run in this process: what the driver invokes.
        (Some(workload), Some(trace)) if !cli.aa => {
            let args = RunArgs {
                workload,
                seed: cli.seed,
                seconds: cli.seconds,
                trace,
                out_dir,
            };
            run::run(&args).and_then(|output| {
                for metric in &output.metrics {
                    println!("{:<44} {:>16.4} {}", metric.name, metric.value, metric.unit);
                }
                for note in &output.notes {
                    println!("{note}");
                }
                println!(
                    "{}",
                    result_line(
                        output.correct,
                        output.attempted,
                        output.failed,
                        &output.metrics
                    )
                );
                if output.correct {
                    Ok(())
                } else {
                    Err(format!("{}: output checks failed", args.workload))
                }
            })
        }
        (workload, _) => {
            let args = SuiteArgs {
                workload,
                seed: cli.seed,
                seconds: cli.seconds,
            };
            if cli.aa {
                suite::aa(&args)
            } else {
                suite::run(&args, &out_dir)
            }
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}
