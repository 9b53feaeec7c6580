//! Shared driver code for the reproduction harness: the experiment grid of
//! Wang & Ranka (1994) Section 6 — a 64-node hypercube, densities
//! `d ∈ {4, 8, 16, 32, 48}`, uniform message sizes from 16 B to 128 KB, 50
//! random samples per cell — plus helpers shared by the per-figure
//! binaries.
//!
//! The binaries do not name algorithms: they enumerate
//! [`commsched::registry`] (the primary entries for the paper tables, the
//! variants for the ablations), so a scheduler registered there appears in
//! every artifact automatically. Since the grid refactor they also do not
//! loop over cells: each declares its sweep as one
//! [`commrt::ExperimentGrid`] ([`paper_grid`]), executes it on the
//! work-stealing pool, and renders tables from the returned
//! [`commrt::GridResult`].

#![forbid(unsafe_code)]

pub mod simcheck;

use std::fmt::Write as _;
use std::path::PathBuf;

use commrt::grid::{paper_base_seed, WorkloadPoint};
use commrt::{CellRecord, CellResult, ExperimentGrid, ExperimentRunner, Scheme};
use commsched::Scheduler;
use hypercube::{Hypercube, Topology};
use workloads::{Generator, SampleSet};

/// The paper's machine: a 64-node hypercube.
pub fn paper_cube() -> Hypercube {
    Hypercube::new(6)
}

/// The densities of Table 1.
pub const DENSITIES: [usize; 5] = [4, 8, 16, 32, 48];

/// The message sizes of Table 1 (bytes).
pub const TABLE1_SIZES: [u32; 3] = [256, 1024, 131_072];

/// The message-size sweep of Figures 6-9: powers of two from 16 B to 128 KB.
pub fn figure_sizes() -> Vec<u32> {
    (4..=17).map(|x| 1u32 << x).collect()
}

/// Sample count: the paper uses 50; the harness accepts an override via the
/// `REPRO_SAMPLES` environment variable to trade precision for speed.
pub fn sample_count() -> usize {
    sample_count_or(50)
}

/// [`sample_count`] with a caller-chosen default — the one parse of the
/// `REPRO_SAMPLES` contract (positive integers only; anything else falls
/// back), shared by the repro binaries, the `simcheck` harness, and the
/// conformance suite.
pub fn sample_count_or(default: usize) -> usize {
    std::env::var("REPRO_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// The repro binaries' opt-in schedule cache, from the `IPSC_CACHE`
/// environment variable: unset/empty/`off` = no cache, `mem` = in-memory
/// only, anything else = a persistent artifact-store directory. Caching
/// never changes a reported number (tested below and in the grid suite) —
/// only how often schedules are recompiled.
pub fn cache_config_from_env() -> Option<commrt::CacheConfig> {
    match std::env::var("IPSC_CACHE") {
        Err(_) => None,
        Ok(v) if v.is_empty() || v == "off" => None,
        Ok(v) if v == "mem" => Some(commrt::CacheConfig::in_memory()),
        Ok(dir) => Some(commrt::CacheConfig::persistent(dir)),
    }
}

/// The repro binaries' simulation-backend selection, from the
/// `IPSC_BACKEND` environment variable: unset/empty/`des` = the exact
/// discrete-event engine, `analytic` = the occupancy model (estimates
/// within the conformance suite's documented tolerances, orders of
/// magnitude faster — `commrt.estimate.{des,analytic}_us` in the benchmark).
///
/// # Panics
///
/// Panics on an unrecognized value — a typo'd backend must not silently
/// fall back to a different substrate mid-experiment.
pub fn backend_from_env() -> commrt::BackendKind {
    commrt::BackendKind::from_env().unwrap_or_else(|e| panic!("{e}"))
}

/// The repro binaries' link-cost-model selection, from the
/// `IPSC_COSTMODEL` environment variable: unset/empty/`uniform` = the
/// paper's uniform machine (byte-identical to every pre-cost-model
/// output), otherwise a model string like `loggp:o=75000,g=10000,G=1.5`
/// or `faulty:p=0.05,seed=42` (see [`commrt::LinkCostModel::parse`]).
///
/// # Panics
///
/// Panics on an unrecognized value — a typo'd model must not silently
/// price a sweep on the wrong machine.
pub fn cost_model_from_env() -> commrt::LinkCostModel {
    commrt::LinkCostModel::from_env().unwrap_or_else(|e| panic!("{e}"))
}

/// The paper's sweep as a declarative grid: `entries` as scheduler
/// columns, one pre-grid-compatible [`WorkloadPoint`] per `(d, M)` pair
/// (densities outermost), `samples` samples per cell, on the 64-node
/// hypercube. Each binary narrows the axes to its figure and renders from
/// the executed [`commrt::GridResult`]. Honours the `IPSC_CACHE` schedule
/// cache opt-in ([`cache_config_from_env`]), the `IPSC_BACKEND`
/// simulation-backend selection ([`backend_from_env`]), and the
/// `IPSC_COSTMODEL` link-cost model ([`cost_model_from_env`]).
pub fn paper_grid(
    entries: impl IntoIterator<Item = &'static dyn Scheduler>,
    densities: &[usize],
    sizes: &[u32],
    samples: usize,
) -> ExperimentGrid {
    let n = paper_cube().num_nodes();
    let mut grid = ExperimentGrid::new()
        .topology("hypercube(6)", paper_cube())
        .schedulers(entries)
        .samples(samples)
        .with_backend(backend_from_env())
        .with_link_costs(cost_model_from_env());
    if let Some(config) = cache_config_from_env() {
        grid = grid.with_cache(config);
    }
    for &d in densities {
        for &msg_bytes in sizes {
            // The paper's assumption 2: "all nodes send and receive an
            // approximately equal number of messages" — the exactly
            // d-regular generator (its RS_N phase counts ~d + log d only
            // hold under that regularity). PerScheduler seeds pin the
            // historical per-algorithm sample streams.
            grid = grid.point(WorkloadPoint::per_scheduler(
                Generator::dregular(n, d, msg_bytes),
                d,
                msg_bytes,
            ));
        }
    }
    grid
}

/// Measure one `(algorithm, d, msg_bytes)` cell on the paper's machine
/// under the entry's paper-default scheme.
///
/// Kept as the closure-driven reference oracle for the grid path: a
/// [`paper_grid`] cell must equal this measurement bit-for-bit (tested
/// below).
///
/// # Errors
///
/// Propagates the first simulation error of any sample.
pub fn measure_cell(
    runner: &ExperimentRunner,
    cube: &Hypercube,
    entry: &dyn Scheduler,
    d: usize,
    msg_bytes: u32,
    samples: usize,
) -> Result<CellResult, simnet::SimError> {
    let n = cube.num_nodes();
    // Base seed mixes the cell coordinates so no two cells share samples
    // (`Scheduler::ordinal` pins the historical per-algorithm streams).
    let base = paper_base_seed(d, msg_bytes, entry.ordinal());
    let set = SampleSet::new(base, samples);
    // The paper's assumption 2: "all nodes send and receive an approximately
    // equal number of messages" — the exactly d-regular generator (its RS_N
    // phase counts ~d + log d only hold under that regularity).
    runner.run_scheduler_cell(
        cube,
        &set,
        &move |seed| workloads::random_dregular(n, d, msg_bytes, seed),
        entry,
        Scheme::for_scheduler(entry),
    )
}

/// Convenience: measure and convert to a [`CellRecord`].
///
/// # Errors
///
/// Propagates the first simulation error of any sample.
pub fn record_cell(
    experiment: &str,
    runner: &ExperimentRunner,
    cube: &Hypercube,
    entry: &dyn Scheduler,
    d: usize,
    msg_bytes: u32,
    samples: usize,
) -> Result<CellRecord, simnet::SimError> {
    let cell = measure_cell(runner, cube, entry, d, msg_bytes, samples)?;
    Ok(CellRecord::from_entry(
        experiment, entry, d, msg_bytes, &cell,
    ))
}

/// One row of a `BENCH_<group>.json` report. The three fields are
/// nanoseconds for timed cases; dimensionless cases (`fig_faults`'
/// completion rates and degradation ratios) carry their value verbatim.
#[derive(Clone, Debug)]
pub struct BenchCase {
    /// Full case name (`group/…`).
    pub name: String,
    /// Mean over the samples.
    pub mean_ns: f64,
    /// Smallest sample.
    pub min_ns: f64,
    /// Largest sample.
    pub max_ns: f64,
}

/// Wall-clock-time `f` over `reps` repetitions into a [`BenchCase`] (ns).
pub fn time_case(name: impl Into<String>, reps: usize, mut f: impl FnMut()) -> BenchCase {
    let mut samples = Vec::with_capacity(reps.max(1));
    for _ in 0..reps.max(1) {
        let t0 = std::time::Instant::now();
        f();
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    BenchCase {
        name: name.into(),
        mean_ns: samples.iter().sum::<f64>() / samples.len() as f64,
        min_ns: samples.iter().copied().fold(f64::INFINITY, f64::min),
        max_ns: samples.iter().copied().fold(0.0f64, f64::max),
    }
}

/// Write `BENCH_<group>.json` — a flat JSON array, one case per line,
/// rendered by hand because the offline workspace has no serde — at the
/// workspace root: the nearest ancestor of `CARGO_MANIFEST_DIR` (or of
/// the current directory) holding a `Cargo.lock`, else that starting
/// directory itself. Replaces whatever an earlier run left there and
/// prints nothing, because the repro binaries pin their stdout.
///
/// # Errors
///
/// I/O errors from the filesystem.
pub fn write_bench_json(group: &str, cases: &[BenchCase]) -> std::io::Result<PathBuf> {
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|| std::env::current_dir().ok())
        .unwrap_or_else(|| PathBuf::from("."));
    let root = start
        .ancestors()
        .find(|dir| dir.join("Cargo.lock").exists())
        .unwrap_or(&start);
    let path = root.join(format!("BENCH_{group}.json"));
    let mut out = String::from("[\n");
    for (i, c) in cases.iter().enumerate() {
        let comma = if i + 1 < cases.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "  {{\"name\": {:?}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}}}{comma}",
            c.name, c.mean_ns, c.min_ns, c.max_ns
        );
    }
    out.push_str("]\n");
    std::fs::write(&path, out)?;
    Ok(path)
}

/// Render a Table-1-style block for one density. The column set is taken
/// from the records themselves (first-row order), so the table grows with
/// the registry instead of hardcoding algorithm names.
pub fn format_density_block(d: usize, rows: &[(u32, Vec<CellRecord>)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "d = {d}");
    let labels: Vec<&str> = rows
        .first()
        .map(|(_, records)| records.iter().map(|r| r.algorithm.as_str()).collect())
        .unwrap_or_default();
    let _ = write!(out, "  {:>9} |", "msg size");
    for label in &labels {
        let _ = write!(out, " {label:>12}");
    }
    let _ = writeln!(out);
    let find = |records: &[CellRecord], label: &str, f: &dyn Fn(&CellRecord) -> f64| {
        records
            .iter()
            .find(|r| r.algorithm == label)
            .map_or(f64::NAN, f)
    };
    for (bytes, records) in rows {
        let _ = write!(out, "  {:>8}B |", bytes);
        for label in &labels {
            let _ = write!(out, " {:>12.2}", find(records, label, &|r| r.comm_ms));
        }
        let _ = writeln!(out);
    }
    // Footer rows from the last (largest-message) row; schedule-free
    // algorithms (0 phases, e.g. AC) print "-".
    if let Some((_, records)) = rows.last() {
        for (title, f) in [
            (
                "# iters",
                &(|r: &CellRecord| r.phases) as &dyn Fn(&CellRecord) -> f64,
            ),
            ("comp", &|r: &CellRecord| r.comp_ms),
        ] {
            let _ = write!(out, "  {title:>9} |");
            for label in &labels {
                if find(records, label, &|r| r.phases) == 0.0 {
                    let _ = write!(out, " {:>12}", "-");
                } else {
                    let _ = write!(out, " {:>12.2}", find(records, label, f));
                }
            }
            let _ = writeln!(out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsched::registry;

    #[test]
    fn figure_sizes_span_16b_to_128kb() {
        let sizes = figure_sizes();
        assert_eq!(sizes.first(), Some(&16));
        assert_eq!(sizes.last(), Some(&131_072));
        assert_eq!(sizes.len(), 14);
    }

    #[test]
    fn cell_seeds_differ_across_cells() {
        // Different (entry, d, bytes) must map to different base seeds,
        // and the canonical formula must stay pinned (historical sample
        // streams).
        let ac = registry::find("AC").unwrap();
        let lp = registry::find("LP").unwrap();
        let a = paper_base_seed(4, 256, ac.ordinal());
        let b = paper_base_seed(8, 256, ac.ordinal());
        let c = paper_base_seed(4, 1024, lp.ordinal());
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, 4 * 1_000_003 + 256 * 7);
    }

    #[test]
    fn paper_grid_cells_match_the_closure_oracle_bit_for_bit() {
        // The grid rewrite must not move a single bit of any reproduced
        // table: each grid cell equals the pre-grid measure_cell path.
        let result = paper_grid(registry::primary(), &[4, 8], &[256, 1024], 2)
            .execute()
            .unwrap();
        let cube = paper_cube();
        let runner = ExperimentRunner::ipsc860();
        for entry in registry::primary() {
            let col = result.find_column(entry.name()).unwrap();
            for (d, bytes) in [(4, 256), (4, 1024), (8, 256), (8, 1024)] {
                let pi = result.point_index(d, bytes).unwrap();
                let oracle = measure_cell(&runner, &cube, entry, d, bytes, 2).unwrap();
                assert_eq!(
                    result.at(col, pi).unwrap().result,
                    oracle,
                    "{} d={d} M={bytes}",
                    entry.name()
                );
            }
        }
    }

    #[test]
    fn paper_grid_numbers_survive_the_schedule_cache() {
        // The repro binaries must be byte-identical with IPSC_CACHE set or
        // unset; the env var is process-global, so exercise the same code
        // path (with_cache) directly.
        let plain = paper_grid(registry::primary(), &[4], &[1024], 2)
            .execute()
            .unwrap();
        let cached = paper_grid(registry::primary(), &[4], &[1024], 2)
            .with_cache(commrt::CacheConfig::in_memory())
            .execute()
            .unwrap();
        assert_eq!(
            plain.cells().collect::<Vec<_>>(),
            cached.cells().collect::<Vec<_>>()
        );
    }

    #[test]
    fn bench_json_has_the_shim_shape() {
        let timed = time_case("noop", 2, || {});
        assert!(timed.min_ns <= timed.mean_ns && timed.mean_ns <= timed.max_ns);
        let case = |name: &str, v: f64| BenchCase {
            name: name.to_string(),
            mean_ns: v,
            min_ns: v - 0.25,
            max_ns: v * 2.0,
        };
        // The line format is what CI greps and downstream tooling read,
        // and a second write replaces the first instead of merging.
        write_bench_json("libtest_selftest", &[timed]).unwrap();
        let path =
            write_bench_json("libtest_selftest", &[case("g/a", 1.5), case("g/b", 10.0)]).unwrap();
        assert!(path.ends_with("BENCH_libtest_selftest.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            text,
            "[\n  {\"name\": \"g/a\", \"mean_ns\": 1.5, \"min_ns\": 1.2, \"max_ns\": 3.0},\n  \
             {\"name\": \"g/b\", \"mean_ns\": 10.0, \"min_ns\": 9.8, \"max_ns\": 20.0}\n]\n"
        );
    }

    #[test]
    fn small_cell_measures() {
        let cube = paper_cube();
        let runner = ExperimentRunner::ipsc860();
        let entry = registry::find("RS_N").unwrap();
        let cell = measure_cell(&runner, &cube, entry, 4, 1024, 3).unwrap();
        assert!(cell.comm_ms > 0.0);
        assert!(cell.phases >= 4.0);
    }

    #[test]
    fn greedy_cell_measures_like_any_other_entry() {
        let cube = paper_cube();
        let runner = ExperimentRunner::ipsc860();
        let entry = registry::find("GREEDY").unwrap();
        let cell = measure_cell(&runner, &cube, entry, 4, 1024, 2).unwrap();
        assert!(cell.comm_ms > 0.0);
        assert!(cell.phases >= 4.0);
        assert!(cell.comp_ms > 0.0);
    }

    #[test]
    fn density_block_grows_with_the_registry() {
        let cube = paper_cube();
        let runner = ExperimentRunner::ipsc860();
        let records: Vec<CellRecord> = registry::primary()
            .map(|e| record_cell("t", &runner, &cube, e, 4, 256, 1).unwrap())
            .collect();
        let block = format_density_block(4, &[(256, records)]);
        for e in registry::primary() {
            assert!(block.contains(e.name()), "missing column {}", e.name());
        }
        assert!(block.contains("# iters"));
        assert!(block.contains(" - "), "AC must show '-' footer entries");
    }
}
