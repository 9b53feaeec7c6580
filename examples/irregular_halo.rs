//! The workload class that motivates the paper (PARTI/CHAOS lineage): a
//! halo exchange over an irregularly partitioned mesh, where communication
//! structure is only known at runtime. One experiment grid compares every
//! primary scheduler on *two* topologies at once — the 64-node hypercube
//! and an 8x8 mesh (the paper's Section 5 generality claim) — with LP
//! automatically skipped on the mesh, whose routing breaks its
//! link-freedom guarantee.
//!
//! Run: `cargo run --release --example irregular_halo`

use ipsc_sched::commrt::grid::CellId;
use ipsc_sched::prelude::*;

fn main() {
    // An 8x8 processor grid over an unstructured mesh: face exchanges of
    // 16 KiB with grid neighbours, plus 2 random far couplings of 4 KiB per
    // node that the graph partitioner could not avoid.
    let com = workloads::irregular::irregular_halo(8, 8, 16_384, 2, 4096, 42);
    println!(
        "irregular halo: density = {}, {} messages, symmetric = {}\n",
        com.density(),
        com.message_count(),
        com.is_symmetric_pattern()
    );

    let result = ExperimentGrid::new()
        .topology("hypercube(6)", Hypercube::new(6))
        .topology("mesh(8x8)", Torus::mesh(8, 8))
        .schedulers(commsched::registry::primary())
        .point(WorkloadPoint::shared(
            Generator::fixed("irregular_halo(8x8)", com),
            6,
            16_384,
            3,
        ))
        .execute()
        .expect("grid runs");

    for (topo, label) in result.topologies().iter().enumerate() {
        println!("{label}:");
        println!(
            "  {:<6} {:>8} {:>10} {:>10}",
            "alg", "phases", "pairs", "comm (ms)"
        );
        for col in 0..result.columns().len() {
            match result.cell(CellId {
                col,
                point: 0,
                topo,
            }) {
                Some(cell) => println!(
                    "  {:<6} {:>8} {:>10} {:>10.2}",
                    cell.algorithm,
                    cell.result.phases as usize,
                    cell.result.exchange_pairs as usize,
                    cell.result.comm_ms
                ),
                None => println!(
                    "  {:<6} {:>8} {:>10} {:>10}",
                    result.columns()[col].label(),
                    "-",
                    "-",
                    "skipped"
                ),
            }
        }
        println!();
    }

    println!("(LP declines the mesh — its link-freedom argument is e-cube-specific — so its");
    println!(
        " cell is skipped, not silently wrong; {} of {} matrix requests were reuses)",
        result.stats().matrices_reused(),
        result.stats().matrix_requests
    );
}
