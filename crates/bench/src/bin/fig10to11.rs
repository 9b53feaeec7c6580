//! Regenerates **Figures 10 and 11** of the paper: the scheduling
//! (computation) overhead of RS_N and RS_NL as a fraction of the
//! communication cost, versus message size (2^x bytes, x = 4..17), for
//! every density — assuming the schedule is used once. The fraction falls
//! sharply when the message size crosses the 100-byte protocol switch and
//! becomes negligible for large messages, which is the paper's argument
//! that the schedulers are cheap enough for *runtime* scheduling.
//!
//! Both figures come from one grid over (RS_N, RS_NL) × densities ×
//! sizes; rendering transposes it per figure.
//!
//! Run: `cargo run -p repro-bench --release --bin fig10to11`

use commrt::write_csv;
use commsched::registry;
use repro_bench::{figure_sizes, paper_grid, EnvConfig, DENSITIES, PAPER_SAMPLES};

fn main() {
    let env = EnvConfig::from_env();
    let samples = env.samples.unwrap_or(PAPER_SAMPLES).min(20);
    let sizes = figure_sizes();

    let entries = ["RS_N", "RS_NL"].map(|name| registry::find(name).expect("registered"));
    let result = paper_grid(&env, entries, &DENSITIES, &sizes, samples)
        .execute()
        .unwrap_or_else(|e| panic!("{e}"));

    let mut records = Vec::new();
    for (name, fig) in [("RS_N", 10u32), ("RS_NL", 11)] {
        let col = result.find_column(name).expect("declared column");
        println!("Figure {fig}: comp/comm fraction for {name} (schedule used once)");
        print!("{:>9} |", "bytes");
        for d in DENSITIES {
            print!(" {:>8}", format!("d={d}"));
        }
        println!();
        for &bytes in &sizes {
            print!("{bytes:>9} |");
            for d in DENSITIES {
                let point = result.point_index(d, bytes).expect("declared point");
                let cell = result.at(col, point).expect("measured cell");
                let frac = cell.result.comp_ms / cell.result.comm_ms;
                records.push(cell.record(&format!("fig{fig}")));
                print!(" {:>8.3}", frac);
            }
            println!();
        }
        println!();
    }

    println!("paper: RS_N fraction <= ~0.6 beyond 128 B, < 0.25 beyond 2 KB;");
    println!("       RS_NL fraction <= ~2.5 for small messages, < 0.25 beyond 8 KB");
    write_csv(std::path::Path::new("results/fig10to11.csv"), &records).expect("write csv");
    println!("wrote results/fig10to11.csv");
}
