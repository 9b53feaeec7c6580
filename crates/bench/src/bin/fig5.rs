//! Regenerates **Figure 5** of the paper: the regions of the
//! `(density, message size)` plane where each algorithm has the lowest
//! communication cost on the 64-node machine (scheduling cost excluded,
//! exactly as the paper's figure assumes static or amortized scheduling).
//!
//! The whole plane is one grid; both winner maps (comm-only, and
//! comm + scheduling for the schedule-used-once extension) are read off
//! the same executed result.
//!
//! Run: `cargo run -p repro-bench --release --bin fig5`

use commrt::grid::{GridCell, GridResult};
use commrt::write_csv;
use commsched::registry;
use repro_bench::{paper_grid, EnvConfig, DENSITIES, PAPER_SAMPLES};

fn main() {
    let env = EnvConfig::from_env();
    let samples = env.samples.unwrap_or(PAPER_SAMPLES).min(20); // a 2-D sweep; keep it tractable
    let sizes: Vec<u32> = (6..=16).map(|x| 1u32 << x).collect(); // 64 B .. 64 KB

    println!("Figure 5 reproduction: winner per (d, msg size), {samples} samples per cell");
    println!("(columns are log2(msg bytes) = 6..16, as in the paper's x-axis)\n");

    let result = paper_grid(&env, registry::primary(), &DENSITIES, &sizes, samples)
        .execute()
        .unwrap_or_else(|e| panic!("{e}"));

    print_winners(&result, &sizes, |cell| cell.result.comm_ms);

    println!("\npaper's regions: AC at small d/M; LP at large d and M >~1 KB; RS_N(L) elsewhere");

    // Extension the paper discusses but does not plot: the same regions when
    // the schedule is computed at runtime and used only ONCE, so each
    // algorithm is charged comm + comp. Zero-overhead AC expands; RS_NL
    // shrinks toward large messages.
    println!("\nwinner when the schedule is used once (comm + scheduling cost):");
    print_winners(&result, &sizes, |cell| {
        cell.result.comm_ms + cell.result.comp_ms
    });

    write_csv(
        std::path::Path::new("results/fig5.csv"),
        &result.records("fig5"),
    )
    .expect("write csv");
    println!("wrote results/fig5.csv");
}

/// One row per density, one column per message size: the algorithm of
/// least `cost` there, the first of them on a tie.
fn print_winners(result: &GridResult, sizes: &[u32], cost: impl Fn(&GridCell) -> f64) {
    print!("{:>4} |", "d");
    for bytes in sizes {
        print!(" {:>6}", format!("2^{}", bytes.trailing_zeros()));
    }
    println!();
    println!("-----+{}", "-".repeat(sizes.len() * 7));
    for d in DENSITIES {
        print!("{d:>4} |");
        for &bytes in sizes {
            let point = result.point_index(d, bytes).expect("declared point");
            let best = (result.row(point))
                .min_by(|a, b| cost(a).total_cmp(&cost(b)))
                .expect("cells present");
            print!(" {:>6}", best.algorithm);
        }
        println!();
    }
}
