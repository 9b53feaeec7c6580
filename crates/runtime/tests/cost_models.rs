//! Link-cost-model conformance across both backends.
//!
//! Two invariants guard the cost-model subsystem's seams:
//!
//! 1. **Uniform is the legacy path, byte for byte.** `estimate_costed`
//!    under `LinkCostModel::Uniform` must return a `BackendReport` equal
//!    in every field to plain `estimate` — not merely close — for every
//!    registry scheduler on both backends. This is what lets every
//!    costed call site (grid, daemon, repro binaries) call the costed
//!    API unconditionally without perturbing a single pre-cost-model
//!    number.
//!
//! 2. **Fault outcomes are a deterministic function of the seed.** A
//!    `faulty:` model with a fixed seed kills a fixed link set; whether
//!    a run survives (reroute) or fails (`LinkDown`) must be identical
//!    across repeats and across backends, because the daemon memoizes
//!    costed estimates and the fault sweep compares schedulers on "the
//!    same broken machine".

use commrt::{BackendKind, LinkCostModel, Scheme};
use commsched::registry;
use hypercube::{Hypercube, Topology};
use simnet::{MachineParams, SimError};
use workloads::{Generator, SampleSet};

const NODES: usize = 16;

fn entries_on(topo: &dyn Topology) -> Vec<&'static dyn commsched::registry::Scheduler> {
    registry::all()
        .iter()
        .copied()
        .filter(|e| e.supports_topology(topo))
        .collect()
}

#[test]
fn uniform_costed_estimate_is_byte_identical_to_legacy_estimate() {
    let cube = Hypercube::new(4);
    let params = MachineParams::ipsc860();
    let set = SampleSet::new(11, 3);
    let matrices = set.realize(&Generator::dregular(NODES, 3, 1024));

    for kind in BackendKind::all() {
        let backend = kind.backend();
        for entry in entries_on(&cube) {
            let scheme = Scheme::for_scheduler(entry);
            for (k, com) in matrices.iter().enumerate() {
                let schedule = entry.schedule(com, &cube, set.seed(k));
                let legacy = backend
                    .estimate(&params, &cube, com, &schedule, scheme)
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", kind.label(), entry.name()));
                let costed = backend
                    .estimate_costed(
                        &params,
                        &LinkCostModel::Uniform,
                        &cube,
                        com,
                        &schedule,
                        scheme,
                    )
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", kind.label(), entry.name()));
                // Full-struct equality: makespan, every phase end, every
                // contention counter.
                assert_eq!(
                    costed,
                    legacy,
                    "uniform costed estimate diverged from legacy estimate \
                     (backend {}, scheduler {}, sample {k})",
                    kind.label(),
                    entry.name()
                );
            }
        }
    }
}

#[test]
fn nonuniform_models_change_the_price_on_both_backends() {
    let cube = Hypercube::new(4);
    let params = MachineParams::ipsc860();
    let com = workloads::random_dregular(NODES, 3, 4096, 21);
    // Per-transfer overhead is charged unconditionally, so the loggp
    // makespan is strictly larger than uniform on any non-empty matrix.
    let loggp: LinkCostModel = "loggp:o=50000,g=10000,G=2.0".parse().unwrap();

    for kind in BackendKind::all() {
        let backend = kind.backend();
        let entry = registry::all()[0];
        let scheme = Scheme::for_scheduler(entry);
        let schedule = entry.schedule(&com, &cube, 1);
        let uniform = backend
            .estimate_costed(
                &params,
                &LinkCostModel::Uniform,
                &cube,
                &com,
                &schedule,
                scheme,
            )
            .unwrap();
        let costed = backend
            .estimate_costed(&params, &loggp, &cube, &com, &schedule, scheme)
            .unwrap();
        assert!(
            costed.makespan_ns > uniform.makespan_ns,
            "backend {}: loggp makespan {} not above uniform {}",
            kind.label(),
            costed.makespan_ns,
            uniform.makespan_ns
        );
    }
}

/// Outcome of one costed run, reduced to the surface the fault sweep
/// compares: completed at some price, stranded on a dead link, or some
/// other error (always a test failure here).
fn classify(r: Result<commrt::BackendReport, SimError>) -> Result<u64, (usize, usize, usize)> {
    match r {
        Ok(report) => Ok(report.makespan_ns),
        Err(SimError::LinkDown { link, src, dst }) => Err((link, src, dst)),
        Err(e) => panic!("unexpected non-fault error: {e}"),
    }
}

#[test]
fn fault_outcomes_are_deterministic_and_agree_across_backends() {
    let params = MachineParams::ipsc860();
    // High enough that the 64 directed cube links lose several members;
    // the exact set is pinned by the seed.
    let faulty = LinkCostModel::Faulty {
        p_ppm: 50_000,
        seed: 42,
    };
    let cube = Hypercube::new(4);
    let set = SampleSet::new(31, 4);
    let matrices = set.realize(&Generator::dregular(NODES, 3, 1024));
    let entry = registry::find("RS_N").expect("RS_N is always registered");
    let scheme = Scheme::for_scheduler(entry);

    let mut saw_linkdown = false;
    for (k, com) in matrices.iter().enumerate() {
        let schedule = entry.schedule(com, &cube, set.seed(k));
        let outcomes: Vec<_> = BackendKind::all()
            .iter()
            .map(|kind| {
                let run = || {
                    classify(
                        kind.backend()
                            .estimate_costed(&params, &faulty, &cube, com, &schedule, scheme),
                    )
                };
                // Determinism: the same request prices identically twice.
                let first = run();
                assert_eq!(first, run(), "{} not deterministic", kind.label());
                first
            })
            .collect();
        // Differential: both backends agree on whether the run survives.
        // (Prices differ by model — the DES simulates, the analytic
        // sums — but strandedness is a pure function of routes and the
        // drawn fault set, which both share.)
        assert_eq!(
            outcomes[0].is_ok(),
            outcomes[1].is_ok(),
            "sample {k}: DES and analytic disagree on survival: {outcomes:?}"
        );
        saw_linkdown |= outcomes[0].is_err();
    }
    assert!(
        saw_linkdown,
        "fault model never stranded a transfer; the differential test is vacuous \
         (raise p or change the seed)"
    );
}

#[test]
fn torus_reroutes_around_the_faults_the_cube_cannot() {
    let params = MachineParams::ipsc860();
    let faulty = LinkCostModel::Faulty {
        p_ppm: 50_000,
        seed: 42,
    };
    let torus = topo::Torus::new(&[4, 4]);
    let set = SampleSet::new(31, 4);
    let matrices = set.realize(&Generator::dregular(NODES, 3, 1024));
    let entry = registry::find("RS_N").expect("RS_N is always registered");
    let scheme = Scheme::for_scheduler(entry);

    for kind in BackendKind::all() {
        let backend = kind.backend();
        for (k, com) in matrices.iter().enumerate() {
            let schedule = entry.schedule(com, &torus, set.seed(k));
            // The torus has detours, so the same fault probability that
            // strands cube transfers must never produce LinkDown here.
            backend
                .estimate_costed(&params, &faulty, &torus, com, &schedule, scheme)
                .unwrap_or_else(|e| {
                    panic!(
                        "{} sample {k}: torus run failed under faults: {e}",
                        kind.label()
                    )
                });
        }
    }
}
