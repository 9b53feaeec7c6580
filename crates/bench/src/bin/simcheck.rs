//! Differential conformance harness between the simulation backends —
//! the command-line face of [`repro_bench::simcheck`].
//!
//! For every registry scheduler × workload family × cube dimension the
//! harness runs the same `(matrix, schedule)` through the exact
//! discrete-event engine and the analytic occupancy model, asserts the
//! documented tolerance bands and phase-profile tracking, pins exact
//! agreement on contention-free schedules, and reports the worst
//! divergence observed.
//!
//! ```text
//! cargo run --release -p repro_bench --bin simcheck -- [--dims 3,4,5] \
//!     [--samples N] [--verbose]
//! ```
//!
//! Exits non-zero on any violated invariant (CI gates on this).
//! `REPRO_SAMPLES` is the default for `--samples`.

use repro_bench::simcheck;

struct Args {
    dims: Vec<u32>,
    samples: usize,
    verbose: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        dims: vec![3, 4, 5],
        samples: repro_bench::EnvConfig::from_env().samples.unwrap_or(2),
        verbose: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--dims" => {
                let v = it.next().ok_or("--dims needs a comma-separated list")?;
                args.dims = v
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<u32>()
                            .map_err(|_| format!("bad dimension {s:?}"))
                    })
                    .collect::<Result<_, _>>()?;
                if args.dims.iter().any(|&d| !(2..=10).contains(&d)) {
                    return Err("dimensions must be in 2..=10".into());
                }
            }
            "--samples" => {
                args.samples = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v > 0)
                    .ok_or("--samples needs a positive integer")?;
            }
            "--verbose" => args.verbose = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("simcheck: {e}");
        eprintln!("usage: simcheck [--dims 3,4,5] [--samples N] [--verbose]");
        std::process::exit(2);
    });

    println!(
        "simcheck: differential backend conformance, dims={:?}, {} sample(s) per case",
        args.dims, args.samples
    );

    // Invariant 3 first: exact agreement on contention-free schedules.
    match simcheck::run_exact(&args.dims) {
        Ok(checked) => println!("exact-agreement pinning: {checked} cases, all bit-identical"),
        Err(e) => {
            eprintln!("exact-agreement pinning FAILED: {e}");
            std::process::exit(1);
        }
    }

    // Invariants 1-2: tolerance bands and phase-profile tracking.
    let report = simcheck::run_conformance(&args.dims, args.samples);
    if args.verbose {
        for case in &report.cases {
            println!(
                "  {:>12} {:<28} dim={} seed={} ratio={:.3}",
                case.scheduler,
                case.workload,
                case.dim,
                case.seed,
                case.ratio()
            );
        }
    }
    print!("{}", report.summary());
    if !report.is_pass() {
        std::process::exit(1);
    }
}
