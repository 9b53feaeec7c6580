//! Cross-fabric scheduler comparison: every registry scheduler on four
//! 16-node machines — the paper's hypercube (`cube:d=4`), two tori of
//! the same node count (`torus:4x4`, `torus:2x2x2x2`), and a k=4
//! fat-tree — over the same sampled d-regular traffic. The paper's
//! question ("does runtime scheduling beat asynchronous sends?") is
//! machine-shaped: wraparound links shorten routes, fat-tree up-down
//! paths lengthen them, and link-aware scheduling (RS_NL) shifts value
//! accordingly. Schedulers that decline a fabric (LP requires e-cube
//! hypercubes) appear as explicit holes, not silent omissions.
//!
//! Run: `cargo run -p repro_bench --release --bin fig_topo`
//! (honours `REPRO_SAMPLES`, `IPSC_BACKEND`, `IPSC_CACHE` and
//! `IPSC_THREADS`).

use commrt::grid::{CellId, ExperimentGrid, WorkloadPoint};
use commrt::write_csv;
use commsched::registry;
use repro_bench::EnvConfig;
use topo::TopologyKind;
use workloads::Generator;

/// The compared fabrics — all 16 nodes, so one matrix family serves all.
const KINDS: [&str; 4] = ["cube:d=4", "torus:4x4", "torus:2x2x2x2", "fattree:k=4"];
const NODES: usize = 16;
const DENSITIES: [usize; 2] = [3, 8];
const MSG_BYTES: u32 = 1024;

fn main() {
    let env = EnvConfig::from_env();
    let samples = env.samples.unwrap_or(5);
    let mut runner = env.runner().with_backend(env.backend);
    if let Some(config) = env.cache {
        runner = runner.with_cache(config);
    }
    let mut grid = ExperimentGrid::new()
        .with_runner(runner)
        .schedulers(registry::all().iter().copied())
        .samples(samples);
    for spec in KINDS {
        let kind = TopologyKind::parse(spec).expect("pinned kind string");
        assert_eq!(
            kind.num_nodes(),
            NODES,
            "{spec} is not a {NODES}-node fabric"
        );
        grid = grid.shared_topology(spec, kind.build_arc());
    }
    for &d in &DENSITIES {
        // Shared seeds: every scheduler and every fabric scores the same
        // sampled matrices, so columns differ only by algorithm and rows
        // only by machine.
        grid = grid.point(WorkloadPoint::shared(
            Generator::dregular(NODES, d, MSG_BYTES),
            d,
            MSG_BYTES,
            900 + d as u64,
        ));
    }
    let result = grid.execute().unwrap_or_else(|e| panic!("{e}"));

    let entries = registry::all();
    let mut records = Vec::new();
    for (ti, spec) in KINDS.iter().enumerate() {
        println!("fabric {spec} ({NODES} nodes): mean comm time (ms), {samples} sample(s)");
        print!("{:>10} |", "scheduler");
        for d in DENSITIES {
            print!(" {:>9}", format!("d={d}"));
        }
        println!();
        for (ci, entry) in entries.iter().enumerate() {
            print!("{:>10} |", entry.name());
            for pi in 0..DENSITIES.len() {
                let id = CellId {
                    col: ci,
                    point: pi,
                    topo: ti,
                };
                match result.cell(id) {
                    Some(cell) => {
                        records.push(cell.record(&format!("fig_topo/{spec}")));
                        print!(" {:>9.3}", cell.result.comm_ms);
                    }
                    // The scheduler declined this fabric: an addressable
                    // hole, rendered as such.
                    None => print!(" {:>9}", "declined"),
                }
            }
            println!();
        }
        println!();
    }

    let stats = result.stats();
    println!(
        "cells: {} measured, {} declined (scheduler does not support the fabric)",
        stats.cells, stats.skipped
    );
    write_csv(std::path::Path::new("results/fig_topo.csv"), &records).expect("write csv");
    println!("wrote results/fig_topo.csv");
}
