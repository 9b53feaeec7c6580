//! End-to-end tests of the declarative grid pipeline through the public
//! facade: the paper sweep as a grid, determinism across worker counts
//! and shuffled task orders, matrix reuse across scheduler columns, and
//! the grid-aware report writers.

use commrt::grid::ExecOptions;
use commrt::{write_grid_markdown, ExperimentGrid, WorkloadPoint};
use commsched::registry;
use hypercube::Hypercube;
use repro_bench::{paper_grid, EnvConfig};
use workloads::Generator;

#[test]
fn paper_sweep_is_deterministic_across_workers_and_task_orders() {
    // The acceptance bar of the grid refactor: identical GridResult with
    // 1 worker, N workers, and an adversarially shuffled task order.
    let grid = paper_grid(
        &EnvConfig::default(),
        registry::primary(),
        &[4, 8],
        &[256, 4096],
        3,
    );
    let reference = grid
        .execute_opts(ExecOptions {
            threads: Some(1),
            ..Default::default()
        })
        .unwrap();
    for opts in [
        ExecOptions {
            threads: Some(8),
            ..Default::default()
        },
        ExecOptions {
            threads: Some(5),
            shuffle_seed: Some(0xdead_beef),
            ..Default::default()
        },
        ExecOptions {
            threads: Some(2),
            shuffle_seed: Some(42),
            no_matrix_reuse: true,
        },
    ] {
        let other = grid.execute_opts(opts).unwrap();
        assert_eq!(
            reference.cells().collect::<Vec<_>>(),
            other.cells().collect::<Vec<_>>(),
            "grid result changed under {opts:?}"
        );
    }
}

#[test]
fn shared_rows_reuse_matrices_across_all_columns() {
    // An ablations-shaped grid: one shared sample stream, five columns.
    // Each sampled matrix must be generated exactly once.
    let samples = 4;
    let result = ExperimentGrid::new()
        .topology("hypercube(6)", Hypercube::new(6))
        .schedulers(registry::primary())
        .point(WorkloadPoint::shared(
            Generator::dregular(64, 8, 2048),
            8,
            2048,
            909,
        ))
        .samples(samples)
        .execute()
        .unwrap();
    let stats = result.stats();
    assert_eq!(stats.matrices_generated, samples);
    assert_eq!(stats.matrix_requests, samples * 5);
    assert_eq!(stats.matrices_reused(), samples * 4);
    // And reuse must not change the numbers.
    let no_reuse = ExperimentGrid::new()
        .topology("hypercube(6)", Hypercube::new(6))
        .schedulers(registry::primary())
        .point(WorkloadPoint::shared(
            Generator::dregular(64, 8, 2048),
            8,
            2048,
            909,
        ))
        .samples(samples)
        .execute_opts(ExecOptions {
            no_matrix_reuse: true,
            ..Default::default()
        })
        .unwrap();
    assert_eq!(
        result.cells().collect::<Vec<_>>(),
        no_reuse.cells().collect::<Vec<_>>()
    );
    assert_eq!(no_reuse.stats().matrices_reused(), 0);
}

#[test]
fn schedule_cache_changes_cost_never_results() {
    // The commcache acceptance bar, end to end through the facade: the
    // paper sweep's GridResult records are byte-identical with the cache
    // disabled, enabled in memory, and enabled with a persistent artifact
    // store — across a cold run (writes) and a warm run (store hits).
    let dir = std::env::temp_dir().join(format!(
        "ipsc_sched_grid_cache_pipeline_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let reference = paper_grid(
        &EnvConfig::default(),
        registry::primary(),
        &[4, 8],
        &[256, 4096],
        2,
    )
    .execute()
    .unwrap();
    let cached = |cache| EnvConfig {
        cache: Some(cache),
        ..EnvConfig::default()
    };
    let in_memory = paper_grid(
        &cached(commrt::CacheConfig::in_memory()),
        registry::primary(),
        &[4, 8],
        &[256, 4096],
        2,
    )
    .execute()
    .unwrap();
    assert_eq!(reference.records("cache"), in_memory.records("cache"));
    let mut warm_stats = None;
    for run in 0..2 {
        let grid = paper_grid(
            &cached(commrt::CacheConfig::persistent(&dir)),
            registry::primary(),
            &[4, 8],
            &[256, 4096],
            2,
        );
        let persistent = grid.execute().unwrap();
        assert_eq!(
            reference.records("cache"),
            persistent.records("cache"),
            "persistent run {run}"
        );
        warm_stats = grid.runner().schedule_cache().map(|c| c.stats());
    }
    // The warm run compiled nothing: every schedule came from the store.
    let stats = warm_stats.unwrap();
    assert_eq!(stats.misses, 0, "warm run recompiled: {stats:?}");
    assert_eq!(stats.store_hits, stats.requests);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn grid_reports_render_every_cell() {
    let result = paper_grid(&EnvConfig::default(), registry::primary(), &[4], &[1024], 2)
        .execute()
        .unwrap();
    let dir = std::env::temp_dir().join("ipsc_sched_grid_pipeline_reports");
    let md_path = dir.join("grid.md");
    write_grid_markdown(&md_path, "Pipeline grid", &result).unwrap();
    let md = std::fs::read_to_string(&md_path).unwrap();
    for entry in registry::primary() {
        assert!(md.contains(entry.name()));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn records_match_the_csv_row_order_of_the_binaries() {
    // The repro binaries rely on stable cell order (points outermost,
    // columns innermost) to keep their CSV artifacts byte-identical.
    let result = paper_grid(
        &EnvConfig::default(),
        registry::primary(),
        &[4, 8],
        &[256, 1024],
        1,
    )
    .execute()
    .unwrap();
    let records = result.records("order");
    let mut expected = Vec::new();
    for (d, bytes) in [(4, 256), (4, 1024), (8, 256), (8, 1024)] {
        for entry in registry::primary() {
            expected.push((entry.name().to_string(), d, bytes));
        }
    }
    let got: Vec<(String, usize, u32)> = records
        .iter()
        .map(|r| (r.algorithm.clone(), r.d, r.msg_bytes))
        .collect();
    assert_eq!(got, expected);
}
