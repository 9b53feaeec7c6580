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
//! [`commrt::GridResult`]. What the caller's environment may change is
//! read once, into an [`EnvConfig`].

#![forbid(unsafe_code)]

pub mod simcheck;

use std::ffi::OsString;
use std::fmt::Write as _;

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

/// Samples per cell in the paper; `REPRO_SAMPLES` overrides it.
pub const PAPER_SAMPLES: usize = 50;

/// The message-size sweep of Figures 6-9: powers of two from 16 B to 128 KB.
pub fn figure_sizes() -> Vec<u32> {
    (4..=17).map(|x| 1u32 << x).collect()
}

/// The five environment variables the repro binaries honour, read once
/// ([`EnvConfig::from_env`]). The libraries read no environment: each
/// binary passes on the fields it honours.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EnvConfig {
    /// `REPRO_SAMPLES`: samples per cell when set to a positive integer;
    /// anything else leaves the binary's own default.
    pub samples: Option<usize>,
    /// `IPSC_CACHE`: the opt-in schedule cache. Unset, empty or `off` =
    /// none, `mem` = in-memory only, anything else = a persistent
    /// artifact-store directory. Caching never changes a reported number,
    /// only how often schedules are recompiled.
    pub cache: Option<commrt::CacheConfig>,
    /// `IPSC_BACKEND`: unset, empty or `des` = the exact discrete-event
    /// engine; `analytic` = the occupancy model (estimates within the
    /// conformance suite's documented tolerances, orders of magnitude
    /// faster).
    pub backend: commrt::BackendKind,
    /// `IPSC_COSTMODEL`: unset, empty or `uniform` = the paper's uniform
    /// machine; otherwise a model string like `loggp:o=75000,g=10000,G=1.5`
    /// or `faulty:p=0.05,seed=42` (see [`commrt::LinkCostModel::parse`]).
    pub cost_model: commrt::LinkCostModel,
    /// `IPSC_THREADS`: grid worker threads when set to a positive integer;
    /// anything else leaves the host's available parallelism. Thread count
    /// never changes a result, only wall-clock time.
    pub threads: Option<usize>,
}

impl EnvConfig {
    /// Read the process environment.
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized backend or cost model: a typo must not
    /// silently price a sweep on another substrate or machine.
    pub fn from_env() -> EnvConfig {
        EnvConfig::parse(|key| std::env::var_os(key)).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`EnvConfig::from_env`] over any `lookup` of variable values.
    ///
    /// # Errors
    ///
    /// An unrecognized or non-UTF-8 `IPSC_BACKEND` or `IPSC_COSTMODEL`,
    /// echoed back (the backend is checked first).
    pub fn parse(lookup: impl Fn(&str) -> Option<OsString>) -> Result<EnvConfig, String> {
        // Unset and empty are the same; `Err` carries a non-UTF-8 value.
        let text = |key| {
            lookup(key)
                .filter(|v| !v.is_empty())
                .map(OsString::into_string)
                .transpose()
        };
        let count = |key| {
            text(key)
                .ok()
                .flatten()
                .and_then(|v| v.parse().ok())
                .filter(|&v: &usize| v > 0)
        };
        let backend = match text("IPSC_BACKEND") {
            Ok(None) => commrt::BackendKind::Des,
            Ok(Some(v)) => commrt::BackendKind::parse(&v).ok_or(format!(
                "IPSC_BACKEND={v:?} is not a backend; use \"des\" or \"analytic\""
            ))?,
            Err(v) => {
                return Err(format!(
                    "IPSC_BACKEND={v:?} is not valid UTF-8; use \"des\" or \"analytic\""
                ))
            }
        };
        let cost_model = match text("IPSC_COSTMODEL") {
            Ok(None) => commrt::LinkCostModel::Uniform,
            Ok(Some(v)) => {
                commrt::LinkCostModel::parse(&v).map_err(|e| format!("IPSC_COSTMODEL: {e}"))?
            }
            Err(v) => {
                return Err(format!(
                    "IPSC_COSTMODEL={v:?} is not valid UTF-8; use e.g. \"faulty:p=0.05,seed=42\""
                ))
            }
        };
        let cache = match text("IPSC_CACHE").ok().flatten().as_deref() {
            None | Some("off") => None,
            Some("mem") => Some(commrt::CacheConfig::in_memory()),
            Some(dir) => Some(commrt::CacheConfig::persistent(dir)),
        };
        Ok(EnvConfig {
            samples: count("REPRO_SAMPLES"),
            cache,
            backend,
            cost_model,
            threads: count("IPSC_THREADS"),
        })
    }

    /// The paper's runner ([`ExperimentRunner::ipsc860`]) on
    /// `IPSC_THREADS` workers when set. The runner carries every run-wide
    /// setting, so the caller sets on it the backend, cost model and cache
    /// it honours ([`ExperimentRunner::with_backend`],
    /// [`ExperimentRunner::with_link_costs`], [`ExperimentRunner::with_cache`]).
    pub fn runner(&self) -> ExperimentRunner {
        let mut runner = ExperimentRunner::ipsc860();
        if let Some(threads) = self.threads {
            runner.threads = threads;
        }
        runner
    }
}

/// The paper's sweep as a declarative grid: `entries` as scheduler
/// columns, one pre-grid-compatible [`WorkloadPoint`] per `(d, M)` pair
/// (densities outermost), `samples` samples per cell, on the 64-node
/// hypercube. Each binary narrows the axes to its figure and renders from
/// the executed [`commrt::GridResult`]. Honours all of `env` but the
/// sample count, which each binary clamps itself.
pub fn paper_grid(
    env: &EnvConfig,
    entries: impl IntoIterator<Item = &'static dyn Scheduler>,
    densities: &[usize],
    sizes: &[u32],
    samples: usize,
) -> ExperimentGrid {
    let n = paper_cube().num_nodes();
    let mut runner = env
        .runner()
        .with_backend(env.backend)
        .with_link_costs(env.cost_model);
    if let Some(config) = &env.cache {
        runner = runner.with_cache(config.clone());
    }
    let mut grid = ExperimentGrid::new()
        .with_runner(runner)
        .topology("hypercube(6)", paper_cube())
        .schedulers(entries)
        .samples(samples);
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
        let result = paper_grid(
            &EnvConfig::default(),
            registry::primary(),
            &[4, 8],
            &[256, 1024],
            2,
        )
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
        // unset.
        let cached_env = EnvConfig {
            cache: Some(commrt::CacheConfig::in_memory()),
            ..EnvConfig::default()
        };
        let plain = paper_grid(&EnvConfig::default(), registry::primary(), &[4], &[1024], 2)
            .execute()
            .unwrap();
        let cached = paper_grid(&cached_env, registry::primary(), &[4], &[1024], 2)
            .execute()
            .unwrap();
        assert_eq!(
            plain.cells().collect::<Vec<_>>(),
            cached.cells().collect::<Vec<_>>()
        );
    }

    /// [`EnvConfig::parse`] over a fixed set of variables.
    fn parse(vars: &[(&str, &str)]) -> Result<EnvConfig, String> {
        EnvConfig::parse(|key| {
            vars.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| OsString::from(v))
        })
    }

    #[test]
    fn env_config_defaults_when_unset_or_empty() {
        assert_eq!(parse(&[]).unwrap(), EnvConfig::default());
        let empty = [
            "REPRO_SAMPLES",
            "IPSC_CACHE",
            "IPSC_BACKEND",
            "IPSC_COSTMODEL",
            "IPSC_THREADS",
        ]
        .map(|key| (key, ""));
        assert_eq!(parse(&empty).unwrap(), EnvConfig::default());
        let env = EnvConfig::default();
        assert_eq!(env.backend, commrt::BackendKind::Des);
        assert_eq!(env.cost_model, commrt::LinkCostModel::Uniform);
        assert_eq!(env.runner().threads, ExperimentRunner::ipsc860().threads);
    }

    #[test]
    fn env_config_counts_fall_back_unless_positive() {
        let env = parse(&[("REPRO_SAMPLES", "7"), ("IPSC_THREADS", "3")]).unwrap();
        assert_eq!((env.samples, env.threads), (Some(7), Some(3)));
        assert_eq!(env.runner().threads, 3);
        for bad in ["0", "-2", "not-a-number", "2.5", " 4"] {
            let env = parse(&[("REPRO_SAMPLES", bad), ("IPSC_THREADS", bad)]).unwrap();
            assert_eq!((env.samples, env.threads), (None, None), "{bad:?}");
            assert!(env.runner().threads >= 1);
        }
    }

    #[test]
    fn env_config_reads_the_cache_opt_in() {
        for off in ["off", ""] {
            assert_eq!(parse(&[("IPSC_CACHE", off)]).unwrap().cache, None);
        }
        assert_eq!(
            parse(&[("IPSC_CACHE", "mem")]).unwrap().cache,
            Some(commrt::CacheConfig::in_memory())
        );
        assert_eq!(
            parse(&[("IPSC_CACHE", "results/cache")]).unwrap().cache,
            Some(commrt::CacheConfig::persistent("results/cache"))
        );
    }

    #[test]
    fn env_config_reads_backend_and_cost_model() {
        let env = parse(&[
            ("IPSC_BACKEND", "analytic"),
            ("IPSC_COSTMODEL", "loggp:o=75000,g=10000,G=1.5"),
        ])
        .unwrap();
        assert_eq!(env.backend, commrt::BackendKind::Analytic);
        assert_eq!(
            env.cost_model,
            commrt::LinkCostModel::parse("loggp:o=75000,g=10000,G=1.5").unwrap()
        );
        assert_eq!(
            parse(&[("IPSC_COSTMODEL", "uniform")]).unwrap().cost_model,
            commrt::LinkCostModel::Uniform
        );
    }

    #[test]
    fn env_config_rejects_typos_loudly() {
        assert_eq!(
            parse(&[("IPSC_BACKEND", "DES")]).unwrap_err(),
            "IPSC_BACKEND=\"DES\" is not a backend; use \"des\" or \"analytic\""
        );
        let err = parse(&[("IPSC_COSTMODEL", "lossy:p=1")]).unwrap_err();
        assert!(err.starts_with("IPSC_COSTMODEL: "), "{err}");
        // The backend is checked first.
        let both = parse(&[("IPSC_BACKEND", "x"), ("IPSC_COSTMODEL", "y")]).unwrap_err();
        assert!(both.starts_with("IPSC_BACKEND="), "{both}");
    }

    #[cfg(unix)]
    #[test]
    fn env_config_rejects_non_utf8_backend_and_cost_model() {
        use std::os::unix::ffi::OsStringExt;
        let garbled = || Some(OsString::from_vec(vec![0x61, 0xff]));
        for key in ["IPSC_BACKEND", "IPSC_COSTMODEL"] {
            let err = EnvConfig::parse(|k| if k == key { garbled() } else { None }).unwrap_err();
            assert!(err.starts_with(&format!("{key}=")), "{err}");
            assert!(err.contains("is not valid UTF-8"), "{err}");
        }
        // The counts and the cache fall back instead.
        for key in ["REPRO_SAMPLES", "IPSC_THREADS", "IPSC_CACHE"] {
            let env = EnvConfig::parse(|k| if k == key { garbled() } else { None }).unwrap();
            assert_eq!(env, EnvConfig::default(), "{key}");
        }
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
            .map(|e| {
                let cell = measure_cell(&runner, &cube, e, 4, 256, 1).unwrap();
                CellRecord::from_cell("t", e.name(), 4, 256, &cell)
            })
            .collect();
        let block = format_density_block(4, &[(256, records)]);
        for e in registry::primary() {
            assert!(block.contains(e.name()), "missing column {}", e.name());
        }
        assert!(block.contains("# iters"));
        assert!(block.contains(" - "), "AC must show '-' footer entries");
    }
}
