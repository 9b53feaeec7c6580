//! Quickstart: schedule one unstructured communication pattern with every
//! primary scheduler in the registry and compare on the simulated 64-node
//! iPSC/860 — declared as a one-row experiment grid, so all five
//! schedulers are measured on the *same* matrix (generated once and
//! shared across the columns) by the work-stealing executor.
//!
//! Run: `cargo run --release --example quickstart`

use ipsc_sched::prelude::*;

fn main() {
    // A random unstructured pattern: every node sends 8 KiB to 12 distinct
    // random peers and receives from 12 (density d = 12).
    let com = workloads::random_dregular(64, 12, 8192, 2024);
    println!(
        "pattern: n = {}, density = {}, {} messages, {:.1} MiB total\n",
        com.n(),
        com.density(),
        com.message_count(),
        com.total_bytes() as f64 / (1024.0 * 1024.0)
    );

    // The grid: one workload row (the fixed pattern above), one column per
    // primary scheduler, on the paper's machine (a 64-node hypercube).
    let result = ExperimentGrid::new()
        .topology("hypercube(6)", Hypercube::new(6))
        .schedulers(commsched::registry::primary())
        .point(WorkloadPoint::shared(
            Generator::fixed("dregular(d=12,8K)", com.clone()),
            12,
            8192,
            1,
        ))
        .execute()
        .expect("grid runs");

    println!(
        "{:<6} {:>8} {:>8} {:>10} {:>10}",
        "alg", "phases", "pairs", "comm (ms)", "sched (ms)"
    );
    for cell in result.row(0) {
        println!(
            "{:<6} {:>8} {:>8} {:>10.2} {:>10.2}",
            cell.algorithm,
            cell.result.phases as usize,
            cell.result.exchange_pairs as usize,
            cell.result.comm_ms,
            cell.result.comp_ms,
        );
    }
    println!(
        "\n(one matrix generated for {} scheduler columns: {} of {} requests reused)",
        result.columns().len(),
        result.stats().matrices_reused(),
        result.stats().matrix_requests
    );

    println!("\nRS_NL additionally guarantees link-contention-free phases:");
    let cube = Hypercube::new(6);
    let s = rs_nl(&com, &cube, 1);
    validate_schedule(&com, &s).expect("valid schedule");
    println!("  link_contention_free = {}", s.link_contention_free(&cube));

    // Sweeping far beyond what event simulation can afford? Swap the
    // backend: same grid, no events, documented tolerance vs the engine
    // (`IPSC_BACKEND=analytic` does this for the repro binaries).
    let fast = ExperimentGrid::new()
        .with_runner(ExperimentRunner::ipsc860().with_backend(BackendKind::Analytic))
        .topology("hypercube(6)", Hypercube::new(6))
        .schedulers(commsched::registry::primary())
        .point(WorkloadPoint::shared(
            Generator::fixed("dregular(d=12,8K)", com.clone()),
            12,
            8192,
            1,
        ))
        .execute()
        .expect("analytic grid runs");
    println!("\nanalytic backend (event-free estimates of the same grid):");
    for cell in fast.row(0) {
        println!("{:<6} {:>10.2} ms", cell.algorithm, cell.result.comm_ms);
    }
}
