//! Runtime scheduling economics (Section 1 and Figures 10-11 of the paper):
//! irregular applications reuse one communication schedule many times, so
//! scheduling pays off once its cost is amortized. This example prices the
//! full runtime pipeline — concatenate (all-gather) the send vectors,
//! compute the schedule on every node, then run it `r` times — against
//! unscheduled asynchronous communication.
//!
//! Run: `cargo run --release --example runtime_scheduling`

use commrt::allgather::allgather_cost;
use ipsc_sched::prelude::*;

fn main() {
    let cube = Hypercube::new(6);
    let params = MachineParams::ipsc860();
    let cost_model = commsched::I860CostModel::default();
    let d = 16;
    let bytes = 2048;

    let com = workloads::random_dregular(64, d, bytes, 7);

    // One-time costs of runtime scheduling.
    // Concatenate: every node contributes its compacted send vector
    // (d destination+size pairs, 8 bytes each).
    let row_bytes = (d * 8) as u32;
    let gather = allgather_cost(&cube, &params, row_bytes).expect("all-gather runs");
    let schedule = rs_nl(&com, &cube, 7);
    let sched_ms = cost_model.schedule_ms(&schedule);
    let setup_ms = gather.makespan_ms() + sched_ms;

    // Per-use costs.
    let scheduled =
        simulate(&cube, &params, compile(&com, &schedule, Scheme::S1)).expect("scheduled run");
    let unscheduled =
        simulate(&cube, &params, compile(&com, &ac(&com), Scheme::S2)).expect("AC run");

    println!("d = {d}, M = {bytes} B on the 64-node machine");
    println!(
        "  concatenate (all-gather) : {:>8.3} ms",
        gather.makespan_ms()
    );
    println!("  RS_NL scheduling (i860)  : {:>8.3} ms", sched_ms);
    println!(
        "  scheduled comm per use   : {:>8.3} ms",
        scheduled.makespan_ms()
    );
    println!(
        "  asynchronous comm per use: {:>8.3} ms",
        unscheduled.makespan_ms()
    );

    let gain = unscheduled.makespan_ms() - scheduled.makespan_ms();
    println!("\n  per-use gain             : {gain:>8.3} ms");
    if gain > 0.0 {
        let breakeven = (setup_ms / gain).ceil() as u64;
        println!("  scheduling pays off after {breakeven} reuse(s)");
        println!("\n  total cost after r uses:");
        println!("  {:>5} {:>12} {:>12}", "r", "AC", "RS_NL+setup");
        for r in [1u64, 2, 5, 10, 50, 100] {
            println!(
                "  {:>5} {:>12.2} {:>12.2}",
                r,
                unscheduled.makespan_ms() * r as f64,
                setup_ms + scheduled.makespan_ms() * r as f64
            );
        }
    } else {
        println!("  (at this configuration AC already wins; try a larger d or M)");
    }
}
