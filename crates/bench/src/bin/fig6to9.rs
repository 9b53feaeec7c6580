//! Regenerates **Figures 6-9** of the paper: communication cost vs message
//! size (16 B .. 128 KB), one figure per density d in {4, 8, 16, 32}, for
//! every primary scheduler in the registry — one declarative grid,
//! rendered per figure.
//!
//! Run: `cargo run -p repro-bench --release --bin fig6to9`

use commrt::write_csv;
use commsched::registry;
use repro_bench::{figure_sizes, paper_grid, EnvConfig, PAPER_SAMPLES};

fn main() {
    let env = EnvConfig::from_env();
    let samples = env.samples.unwrap_or(PAPER_SAMPLES).min(25);
    let sizes = figure_sizes();
    let figure_for_d = [(4usize, 6u32), (8, 7), (16, 8), (32, 9)];

    let result = paper_grid(&env, registry::primary(), &[4, 8, 16, 32], &sizes, samples)
        .execute()
        .unwrap_or_else(|e| panic!("{e}"));

    let mut records = Vec::new();
    for (d, fig) in figure_for_d {
        println!("Figure {fig}: communication cost (ms) vs message size, d = {d}");
        print!("{:>9} |", "bytes");
        for column in result.columns() {
            print!(" {:>10}", column.label());
        }
        println!();
        for &bytes in &sizes {
            let point = result.point_index(d, bytes).expect("declared point");
            let mut row = vec![format!("{bytes:>9} |")];
            for cell in result.row(point) {
                records.push(cell.record(&format!("fig{fig}")));
                row.push(format!("{:>10.2}", cell.result.comm_ms));
            }
            println!("{}", row.join(" "));
        }
        println!();
    }

    write_csv(std::path::Path::new("results/fig6to9.csv"), &records).expect("write csv");
    println!("wrote results/fig6to9.csv");
}
