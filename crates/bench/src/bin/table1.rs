//! Regenerates **Table 1** of the paper: communication cost (ms), number of
//! communication phases, and scheduling cost on a 64-node hypercube, for
//! d in {4, 8, 16, 32, 48} and message sizes {256 B, 1 KB, 128 KB}.
//!
//! Columns come from the scheduler registry's primary entries — the
//! paper's AC/LP/RS_N/RS_NL plus the deterministic GREEDY baseline; a
//! newly registered scheduler becomes a new column with no change here.
//! The whole sweep is one declarative [`repro_bench::paper_grid`]
//! executed cell- and sample-parallel; this binary only renders the
//! result.
//!
//! Run: `cargo run -p repro-bench --release --bin table1`
//! (honours all five variables of [`repro_bench::EnvConfig`];
//! `REPRO_SAMPLES` overrides the paper's 50 samples per cell).

use commrt::{write_csv, write_grid_markdown, write_json};
use commsched::registry;
use repro_bench::{
    format_density_block, paper_grid, EnvConfig, DENSITIES, PAPER_SAMPLES, TABLE1_SIZES,
};

fn main() {
    let env = EnvConfig::from_env();
    let samples = env.samples.unwrap_or(PAPER_SAMPLES);
    println!("Table 1 reproduction: 64-node iPSC/860 model, {samples} samples per cell\n");

    let result = paper_grid(
        &env,
        registry::primary(),
        &DENSITIES,
        &TABLE1_SIZES,
        samples,
    )
    .execute()
    .unwrap_or_else(|e| panic!("{e}"));

    let mut all_records = Vec::new();
    for d in DENSITIES {
        let mut rows = Vec::new();
        for bytes in TABLE1_SIZES {
            let point = result.point_index(d, bytes).expect("declared point");
            let records: Vec<_> = result.row(point).map(|c| c.record("table1")).collect();
            all_records.extend(records.iter().cloned());
            rows.push((bytes, records));
        }
        print!("{}", format_density_block(d, &rows));
        println!();
    }

    let out_dir = std::path::Path::new("results");
    write_csv(&out_dir.join("table1.csv"), &all_records).expect("write csv");
    write_json(&out_dir.join("table1.json"), &all_records).expect("write json");
    write_grid_markdown(
        &out_dir.join("table1.md"),
        "Table 1: communication cost on the simulated 64-node iPSC/860",
        &result,
    )
    .expect("write markdown");
    println!("wrote results/table1.csv and results/table1.json");
    eprintln!(
        "grid: {} cells, {} tasks; also wrote results/table1.md",
        result.stats().cells,
        result.stats().tasks
    );
}
