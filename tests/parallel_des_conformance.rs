//! Conformance of the two `ExecMode` spellings of the exact event engine.
//!
//! `ExecMode::Parallel { threads }` used to be a second engine — rescans
//! deferred to one pass per timestamp, prefiltered by worker threads —
//! held to sequential only within tolerance bands (makespan 25 %, single
//! phase ends 75 %). The pending index made the sequential rescan cheap
//! enough that the second engine was deleted; `Parallel` is now an
//! accepted spelling of the one event loop (`docs/ARCHITECTURE.md`, "The
//! pending index"), so the contract collapses to equality: same
//! makespan, same per-phase ends, same contention summary and the same
//! whole `SimStats`, for every thread count, on contention-free traffic,
//! under hold-and-wait, and on the full conformance pin set alike.

use commrt::{compile, DesBackend, Scheme, SimBackend};
use commsched::registry;
use hypercube::{Hypercube, Topology};
use repro_bench::simcheck;
use simnet::ExecMode;

const THREAD_COUNTS: [usize; 5] = [1, 2, 3, 4, 8];

/// Everything the engine reports for one run: the backend's view
/// (makespan, per-phase ends, contention summary) and the whole
/// `SimStats` of the same programs.
fn observe(
    exec: ExecMode,
    params: &simnet::MachineParams,
    cube: &Hypercube,
    com: &commsched::CommMatrix,
    entry: &dyn commsched::Scheduler,
    seed: u64,
) -> (commrt::BackendReport, simnet::SimStats) {
    let scheme = Scheme::for_scheduler(entry);
    let schedule = entry.schedule(com, cube, seed);
    let report = DesBackend::with_exec(exec)
        .estimate(params, cube, com, &schedule, scheme)
        .unwrap_or_else(|e| panic!("{} DES failed under {exec:?}: {e}", entry.name()));
    let programs = compile(com, &schedule, scheme);
    let stats = simnet::simulate_with(cube, params, programs, exec)
        .unwrap_or_else(|e| panic!("{} DES failed under {exec:?}: {e}", entry.name()))
        .stats;
    (report, stats)
}

/// `Parallel { threads }` must equal `Sequential` in every observable,
/// for every thread count.
fn assert_spellings_agree(
    params: &simnet::MachineParams,
    cube: &Hypercube,
    com: &commsched::CommMatrix,
    entry: &dyn commsched::Scheduler,
    seed: u64,
    what: &str,
) {
    let seq = observe(ExecMode::Sequential, params, cube, com, entry, seed);
    for threads in THREAD_COUNTS {
        let par = observe(
            ExecMode::Parallel { threads },
            params,
            cube,
            com,
            entry,
            seed,
        );
        assert_eq!(seq, par, "{} on {what}: {threads} threads", entry.name());
    }
}

/// The contention-free `run_exact` matrices: lone message, half-shift
/// permutation, neighbor pairs.
fn exact_matrices(n: usize) -> Vec<(&'static str, commsched::CommMatrix)> {
    let mut lone = commsched::CommMatrix::new(n);
    lone.set(0, n - 1, 32768);
    let mut shift = commsched::CommMatrix::new(n);
    for i in 0..n {
        shift.set(i, (i + n / 2) % n, 8192);
    }
    let mut pairs = commsched::CommMatrix::new(n);
    for i in 0..n {
        pairs.set(i, i ^ 1, 4096);
    }
    vec![("lone", lone), ("shift", shift), ("pairs", pairs)]
}

#[test]
fn parallel_spelling_is_identical_on_contention_free_traffic() {
    let params = simnet::MachineParams::ipsc860();
    for dim in 2..=6u32 {
        let cube = Hypercube::new(dim);
        for (name, com) in exact_matrices(cube.num_nodes()) {
            for &entry in registry::all() {
                let what = format!("{name} (dim {dim})");
                assert_spellings_agree(&params, &cube, &com, entry, 5, &what);
            }
        }
    }
}

#[test]
fn parallel_spelling_is_identical_under_hold_and_wait() {
    let mut params = simnet::MachineParams::ipsc860();
    params.claim = simnet::ClaimPolicy::HoldAndWait;
    params.ports = simnet::PortModel::Split;
    for dim in 2..=5u32 {
        let cube = Hypercube::new(dim);
        for (workload, generator) in simcheck::workload_families(dim) {
            let seed = dim as u64 * 7919;
            let com = generator.generate(seed);
            for &entry in registry::all() {
                let what = format!("{workload} (dim {dim}) under hold-and-wait");
                assert_spellings_agree(&params, &cube, &com, entry, seed, &what);
            }
        }
    }
}

#[test]
fn parallel_spelling_is_identical_on_the_full_pin_set() {
    // The full conformance pin set under the atomic policy — where the
    // old batched engine drifted up to 19.2 % in makespan and 63.4 % in
    // single phase ends.
    let params = simnet::MachineParams::ipsc860();
    let mut checked = 0;
    for dim in 2..=6u32 {
        let cube = Hypercube::new(dim);
        for (workload, generator) in simcheck::workload_families(dim) {
            let seed = dim as u64 * 7919;
            let com = generator.generate(seed);
            for &entry in registry::all() {
                let what = format!("{workload} (dim {dim})");
                assert_spellings_agree(&params, &cube, &com, entry, seed, &what);
                checked += 1;
            }
        }
    }
    assert_eq!(
        checked,
        5 * 5 * registry::all().len(),
        "every (dim, workload, entry) triple must be pinned"
    );
}
