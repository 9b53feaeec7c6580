//! Conformance of the two `ExecMode` spellings of the exact event engine.
//!
//! `ExecMode::Parallel { threads }` used to be a second engine, held to
//! sequential only within tolerance bands. The pending index made the
//! sequential rescan cheap enough that the second engine was deleted;
//! `Parallel` is now an accepted spelling of the one event loop
//! (`docs/ARCHITECTURE.md`, "The pending index"), so the contract is
//! equality: `DesBackend::with_exec(Parallel { threads })` reports the
//! same makespan, per-phase ends and contention summary as the default
//! backend, for every thread count, on the full conformance pin set.

use commrt::{DesBackend, Scheme, SimBackend};
use commsched::registry;
use hypercube::Hypercube;
use repro_bench::simcheck;
use simnet::ExecMode;

const THREAD_COUNTS: [usize; 5] = [1, 2, 3, 4, 8];

#[test]
fn parallel_spelling_is_identical_on_the_full_pin_set() {
    let params = simnet::MachineParams::ipsc860();
    let mut checked = 0;
    for dim in 2..=6u32 {
        let cube = Hypercube::new(dim);
        for (workload, generator) in simcheck::workload_families(dim) {
            let seed = dim as u64 * 7919;
            let com = generator.generate(seed);
            for &entry in registry::all() {
                let scheme = Scheme::for_scheduler(entry);
                let schedule = entry.schedule(&com, &cube, seed);
                let estimate = |backend: DesBackend| {
                    backend
                        .estimate(&params, &cube, &com, &schedule, scheme)
                        .unwrap_or_else(|e| panic!("{} DES failed: {e}", entry.name()))
                };
                let default = estimate(DesBackend::default());
                for threads in THREAD_COUNTS {
                    assert_eq!(
                        default,
                        estimate(DesBackend::with_exec(ExecMode::Parallel { threads })),
                        "{} on {workload} (dim {dim}): {threads} threads",
                        entry.name()
                    );
                }
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
