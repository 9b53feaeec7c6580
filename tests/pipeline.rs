//! End-to-end integration tests: workload -> schedule -> validate ->
//! compile -> simulate, across all four algorithms and several workload
//! families.

use ipsc_sched::prelude::*;
use simnet::SimError;

fn schedule_of(kind: SchedulerKind, com: &CommMatrix, cube: &Hypercube, seed: u64) -> Schedule {
    // The enum is a thin shim: every kind resolves to its registry entry.
    kind.scheduler().schedule(com, cube, seed)
}

fn run_all(com: &CommMatrix, cube: &Hypercube) -> Vec<(SchedulerKind, f64)> {
    let params = MachineParams::ipsc860();
    SchedulerKind::all()
        .into_iter()
        .map(|kind| {
            let s = schedule_of(kind, com, cube, 17);
            validate_schedule(com, &s).expect("valid schedule");
            let report = simulate(cube, &params, compile(com, &s, Scheme::paper_default(kind)))
                .unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
            (kind, report.makespan_ms())
        })
        .collect()
}

#[test]
fn random_regular_traffic_all_algorithms() {
    let cube = Hypercube::new(5);
    let com = workloads::random_dregular(32, 6, 4096, 1);
    for (kind, ms) in run_all(&com, &cube) {
        assert!(ms > 0.0, "{}", kind.label());
        // Sanity lower bound: 6 messages of 4 KiB each must serialize at a
        // node's engine: >= 6 * wire time.
        let floor = 6.0 * MachineParams::ipsc860().wire_ns(4096) as f64 / 1e6;
        assert!(ms >= floor, "{} below physical floor: {ms}", kind.label());
    }
}

#[test]
fn structured_patterns_all_algorithms() {
    let cube = Hypercube::new(4);
    for com in [
        workloads::structured::transpose(16, 2048),
        workloads::structured::shift(16, 3, 2048),
        workloads::structured::bit_complement(16, 2048),
        workloads::structured::all_to_all(16, 512),
        workloads::structured::ring_halo(16, 2, 2048),
    ] {
        run_all(&com, &cube);
    }
}

#[test]
fn irregular_patterns_all_algorithms() {
    let cube = Hypercube::new(5);
    for com in [
        workloads::irregular::grid_halo(4, 8, 4096, 512),
        workloads::irregular::irregular_halo(4, 8, 4096, 2, 1024, 3),
        workloads::irregular::hotspot(32, 2, 4, 2048, 3),
        workloads::irregular::powerlaw(32, 12, 1.0, 2048, 3),
    ] {
        run_all(&com, &cube);
    }
}

#[test]
fn bytes_are_conserved_end_to_end() {
    let cube = Hypercube::new(5);
    let params = MachineParams::ipsc860();
    let com = workloads::random_dregular(32, 5, 3000, 9);
    for kind in SchedulerKind::all() {
        let s = schedule_of(kind, &com, &cube, 9);
        let report = simulate(
            &cube,
            &params,
            compile(&com, &s, Scheme::paper_default(kind)),
        )
        .unwrap();
        let delivered: u64 = report
            .stats
            .nodes
            .iter()
            .map(|n| n.direct_bytes + n.buffered_bytes)
            .sum();
        assert_eq!(
            delivered,
            com.total_bytes(),
            "{} delivered {delivered} of {}",
            kind.label(),
            com.total_bytes()
        );
    }
}

#[test]
fn simulation_is_deterministic_across_runs() {
    let cube = Hypercube::new(5);
    let params = MachineParams::ipsc860();
    let com = workloads::random_dregular(32, 7, 2048, 4);
    for kind in SchedulerKind::all() {
        let a = {
            let s = schedule_of(kind, &com, &cube, 4);
            simulate(
                &cube,
                &params,
                compile(&com, &s, Scheme::paper_default(kind)),
            )
            .unwrap()
        };
        let b = {
            let s = schedule_of(kind, &com, &cube, 4);
            simulate(
                &cube,
                &params,
                compile(&com, &s, Scheme::paper_default(kind)),
            )
            .unwrap()
        };
        assert_eq!(a.makespan_ns, b.makespan_ns, "{}", kind.label());
        assert_eq!(a.stats.events, b.stats.events);
    }
}

#[test]
fn rs_nl_runs_contention_free_at_the_wire_level() {
    // The schedule promises link-disjoint phases. Measured request-to-start
    // delay under S1 still includes loose-synchrony phase skew (a late
    // partner), so the assertion is comparative: RS_NL's waiting must be a
    // small fraction of what the same traffic suffers under AC, where
    // circuits genuinely contend.
    let cube = Hypercube::new(6);
    let params = MachineParams::ipsc860();
    let com = workloads::random_dregular(64, 8, 32_768, 12);
    let s = rs_nl(&com, &cube, 12);
    assert!(s.link_contention_free(&cube));
    let nl = simulate(&cube, &params, compile(&com, &s, Scheme::S1)).unwrap();
    let acr = simulate(&cube, &params, compile(&com, &ac(&com), Scheme::S2)).unwrap();
    assert!(
        (nl.stats.blocked_ns_total as f64) < 0.4 * acr.stats.blocked_ns_total as f64,
        "RS_NL blocked {} vs AC blocked {}",
        nl.stats.blocked_ns_total,
        acr.stats.blocked_ns_total
    );
}

#[test]
fn ac_with_tight_buffers_deadlocks_and_is_reported() {
    // Section 3's hazard, reproduced end-to-end: no posted receives (the
    // receivers compute forever... here: receivers that never post because
    // their programs are empty) and tiny buffers.
    let cube = Hypercube::new(3);
    let params = MachineParams {
        buffer_bytes: Some(1024),
        ..MachineParams::ipsc860()
    };
    let mut b = simnet::Program::builder();
    b.send(hypercube::NodeId(1), 100_000, simnet::Tag(0));
    let mut progs: Vec<simnet::Program> = (0..8).map(|_| simnet::Program::empty()).collect();
    progs[0] = b.build();
    match simulate(&cube, &params, progs) {
        Err(SimError::Deadlock { stuck }) => assert!(!stuck.is_empty()),
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn hold_and_wait_policy_end_to_end() {
    let cube = Hypercube::new(5);
    let params = MachineParams::ipsc860_hold_and_wait();
    let com = workloads::random_dregular(32, 6, 8192, 5);
    for kind in SchedulerKind::all() {
        let s = schedule_of(kind, &com, &cube, 5);
        let report = simulate(
            &cube,
            &params,
            compile(&com, &s, Scheme::paper_default(kind)),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
        assert!(report.makespan_ns > 0);
    }
}

#[test]
fn mesh_topology_end_to_end() {
    let mesh = Torus::mesh(4, 8);
    let params = MachineParams::ipsc860();
    let com = workloads::random_dregular(32, 5, 4096, 8);
    // Enumerate the registry; LP declines the mesh itself (its pairing and
    // link-freedom argument are e-cube-specific), so no name filters here.
    let mut ran = 0;
    for entry in commsched::registry::all()
        .iter()
        .copied()
        .filter(|e| e.supports_topology(&mesh))
    {
        assert_ne!(entry.family(), SchedulerKind::Lp, "LP must decline meshes");
        let s = entry.schedule(&com, &mesh, 8);
        validate_schedule(&com, &s).unwrap();
        let report = simulate(
            &mesh,
            &params,
            compile(&com, &s, Scheme::for_scheduler(entry)),
        )
        .unwrap();
        assert!(report.makespan_ns > 0, "{}", entry.name());
        ran += 1;
    }
    assert!(
        ran >= 6,
        "most registry entries must support the mesh: {ran}"
    );
}

#[test]
fn nonuniform_sizes_end_to_end() {
    let cube = Hypercube::new(5);
    let params = MachineParams::ipsc860();
    let com = workloads::random_nonuniform(32, 6, 64, 65_536, 21);
    let plain = rs_n(&com, 21);
    let largest_first = commsched::nonuniform::rs_n_largest_first(&com, 21);
    validate_schedule(&com, &plain).unwrap();
    validate_schedule(&com, &largest_first).unwrap();
    let a = simulate(&cube, &params, compile(&com, &plain, Scheme::S2)).unwrap();
    let b = simulate(&cube, &params, compile(&com, &largest_first, Scheme::S2)).unwrap();
    assert!(a.makespan_ns > 0 && b.makespan_ns > 0);
}
