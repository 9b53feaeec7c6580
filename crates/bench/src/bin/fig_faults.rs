//! Fault-injection sweep: every registry scheduler on a 16-node
//! hypercube and a 16-node torus, re-priced under `faulty:` link-cost
//! models of increasing per-link failure probability. Schedules are
//! compiled once per sample (they are cost-model agnostic) and the same
//! transfers are then charged against p ∈ {0, 0.01, 0.05} with a fixed
//! fault seed, so the sweep isolates pricing: the hypercube's e-cube
//! router has no detours (a dead link on a route strands the transfer
//! as a typed `LinkDown`), while the torus reroutes around dead links
//! and completes at a longer makespan. Reported per cell: completion
//! rate and mean makespan over the completed samples, beside the p=0
//! baseline.
//!
//! Run: `cargo run -p repro_bench --release --bin fig_faults`
//! (honours `REPRO_SAMPLES` and `IPSC_BACKEND`; the sweep sets its own
//! link-cost models).
//!
//! `--expect-completion-rate <min>` exits non-zero when the aggregate
//! completion rate over all measured cells falls below `min` — the CI
//! smoke gate proving fault injection degrades runs without ever
//! panicking.

use commrt::{LinkCostModel, Scheme};
use commsched::registry;
use repro_bench::EnvConfig;
use simnet::{MachineParams, SimError};
use topo::TopologyKind;
use workloads::{Generator, SampleSet};

/// The two contrasted fabrics: same node count, opposite fault
/// behaviour (the hypercube strands, the torus reroutes).
const FABRICS: [&str; 2] = ["cube:d=4", "torus:4x4"];
const NODES: usize = 16;
const DENSITY: usize = 3;
const MSG_BYTES: u32 = 1024;
/// Swept per-link failure probabilities, in ppm (label, p).
const PROBS: [(&str, u64); 3] = [("0", 0), ("0.01", 10_000), ("0.05", 50_000)];
/// One fixed fault seed: the whole sweep prices against the same drawn
/// fault set, so schedulers are compared on identical broken machines.
const FAULT_SEED: u64 = 42;

fn main() {
    let expect_rate = expect_completion_rate_arg();
    let env = EnvConfig::from_env();
    let samples = env.samples.unwrap_or(5);
    let backend_kind = env.backend;
    let backend = backend_kind.backend();
    let params = MachineParams::ipsc860();
    let entries = registry::all();

    let mut total_runs = 0usize;
    let mut total_ok = 0usize;

    for (ti, spec) in FABRICS.iter().enumerate() {
        let kind = TopologyKind::parse(spec).expect("pinned kind string");
        assert_eq!(
            kind.num_nodes(),
            NODES,
            "{spec} is not a {NODES}-node fabric"
        );
        let topo = kind.build_arc();

        // One test set per fabric; every scheduler and every p price the
        // same sampled matrices, so columns differ only by algorithm and
        // rows only by failure probability.
        let set = SampleSet::new(7700 + ti as u64, samples);
        let gen = Generator::dregular(NODES, DENSITY, MSG_BYTES);
        let matrices = set.realize(&gen);

        println!(
            "fabric {spec} ({NODES} nodes, d={DENSITY}): mean makespan ms (completion %), \
             {samples} sample(s), backend {}, fault seed {FAULT_SEED}",
            backend_kind.label()
        );
        print!("{:>10} |", "scheduler");
        for (label, _) in PROBS {
            print!(" {:>16}", format!("p={label}"));
        }
        println!();

        for entry in entries {
            if !entry.supports_topology(topo.as_ref()) {
                println!(
                    "{:>10} | declined (scheduler does not support the fabric)",
                    entry.name()
                );
                continue;
            }
            let scheme = Scheme::for_scheduler(*entry);
            // Schedules are link-cost agnostic: compile once per sample,
            // then re-price the same transfers under every model.
            let schedules: Vec<_> = (0..samples)
                .map(|k| entry.schedule(&matrices[k], topo.as_ref(), set.seed(k)))
                .collect();

            print!("{:>10} |", entry.name());
            for (label, p_ppm) in PROBS {
                let model = LinkCostModel::Faulty {
                    p_ppm,
                    seed: FAULT_SEED,
                };
                let mut done_ms: Vec<f64> = Vec::new();
                for k in 0..samples {
                    total_runs += 1;
                    match backend.estimate_costed(
                        &params,
                        &model,
                        topo.as_ref(),
                        &matrices[k],
                        &schedules[k],
                        scheme,
                    ) {
                        Ok(report) => {
                            total_ok += 1;
                            done_ms.push(report.makespan_ms());
                        }
                        // The injected fault stranded a transfer: the
                        // expected typed failure, counted against the
                        // completion rate.
                        Err(SimError::LinkDown { .. }) => {}
                        // Anything else is a bug in the sweep, not a fault.
                        Err(e) => panic!("{spec}/{}/p={label}: {e}", entry.name()),
                    }
                }
                let rate = done_ms.len() as f64 / samples as f64;
                match mean(&done_ms) {
                    Some(m) => print!(" {:>8.3} ({:>3.0}%)", m, rate * 100.0),
                    None => print!(" {:>8} ({:>3.0}%)", "—", rate * 100.0),
                }
            }
            println!();
        }
        println!();
    }

    let aggregate = total_ok as f64 / total_runs.max(1) as f64;
    println!(
        "aggregate completion: {total_ok}/{total_runs} runs ({:.1}%)",
        aggregate * 100.0
    );
    if let Some(min) = expect_rate {
        if aggregate < min {
            eprintln!("FAIL: aggregate completion rate {aggregate:.3} below required {min:.3}");
            std::process::exit(1);
        }
        println!("completion gate passed (>= {min:.3})");
    }
}

fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

fn expect_completion_rate_arg() -> Option<f64> {
    let mut expect = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--expect-completion-rate" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| die("--expect-completion-rate needs a value"));
                let min: f64 = v
                    .parse()
                    .unwrap_or_else(|_| die(&format!("bad completion rate {v:?}")));
                if !(0.0..=1.0).contains(&min) {
                    die(&format!("completion rate {min} outside [0, 1]"));
                }
                expect = Some(min);
            }
            "--help" | "-h" => {
                println!(
                    "usage: fig_faults [--expect-completion-rate <0..1>]\n\
                     env: REPRO_SAMPLES=<n> [default: 5], IPSC_BACKEND=des|analytic\n\
                     (the sweep sets its own link-cost models; IPSC_COSTMODEL,\n\
                     IPSC_CACHE and IPSC_THREADS are not used)"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    expect
}

fn die(msg: &str) -> ! {
    eprintln!("fig_faults: {msg}");
    std::process::exit(1)
}
