//! Property-based tests (proptest) over the core invariants of the stack:
//! arbitrary sparse matrices in, correct contention-free schedules out,
//! and a simulator that conserves messages and respects physical bounds.

use proptest::prelude::*;

use ipsc_sched::prelude::*;

/// Strategy: a random sparse communication matrix over `n` nodes with at
/// most `max_deg` messages per sender and sizes in 1..=64 KiB.
fn arb_matrix(n: usize, max_deg: usize) -> impl Strategy<Value = CommMatrix> {
    let cells = proptest::collection::vec((0..n, 0..n, 1u32..65_536), 0..(n * max_deg));
    cells.prop_map(move |entries| {
        let mut com = CommMatrix::new(n);
        for (s, d, bytes) in entries {
            if s != d && com.out_degree(s) < max_deg {
                com.set(s, d, bytes);
            }
        }
        com
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rs_n_schedules_are_always_valid(com in arb_matrix(16, 5), seed in 0u64..1000) {
        let s = rs_n(&com, seed);
        prop_assert!(validate_schedule(&com, &s).is_ok());
        for pm in s.phases() {
            prop_assert!(pm.is_partial_permutation());
        }
    }

    #[test]
    fn rs_nl_phases_are_link_free_on_the_cube(com in arb_matrix(16, 5), seed in 0u64..1000) {
        let cube = Hypercube::new(4);
        let s = rs_nl(&com, &cube, seed);
        prop_assert!(validate_schedule(&com, &s).is_ok());
        prop_assert!(s.link_contention_free(&cube));
    }

    #[test]
    fn rs_nl_phases_are_link_free_on_the_mesh(com in arb_matrix(12, 4), seed in 0u64..1000) {
        let mesh = Torus::mesh(3, 4);
        let s = rs_nl(&com, &mesh, seed);
        prop_assert!(validate_schedule(&com, &s).is_ok());
        prop_assert!(s.link_contention_free(&mesh));
    }

    #[test]
    fn lp_schedules_are_valid_and_link_free(com in arb_matrix(16, 6)) {
        let cube = Hypercube::new(4);
        let s = lp(&com);
        prop_assert!(validate_schedule(&com, &s).is_ok());
        prop_assert!(s.link_contention_free(&cube));
        prop_assert_eq!(s.num_phases(), 15);
    }

    #[test]
    fn phase_count_at_least_density(com in arb_matrix(16, 5), seed in 0u64..100) {
        // At least d permutations are required (paper assumption 3).
        let s = rs_n(&com, seed);
        prop_assert!(s.num_phases() >= com.density());
    }

    #[test]
    fn compression_preserves_messages(com in arb_matrix(16, 6), seed in 0u64..100) {
        let ccom = commsched::CompressedMatrix::compress(&com, seed);
        for i in 0..16 {
            let mut live: Vec<i32> = ccom.live_row(i).to_vec();
            live.sort_unstable();
            let mut expect: Vec<i32> = com.row(i).0.iter().map(|&j| j as i32).collect();
            expect.sort_unstable();
            prop_assert_eq!(live, expect);
        }
    }

    #[test]
    fn simulator_conserves_bytes(com in arb_matrix(8, 3), seed in 0u64..100) {
        let cube = Hypercube::new(3);
        let params = MachineParams::ipsc860();
        let s = rs_n(&com, seed);
        let report = simulate(&cube, &params, compile(&com, &s, Scheme::S2)).unwrap();
        let delivered: u64 = report
            .stats
            .nodes
            .iter()
            .map(|n| n.direct_bytes + n.buffered_bytes)
            .sum();
        prop_assert_eq!(delivered, com.total_bytes());
    }

    #[test]
    fn makespan_respects_wire_floor(com in arb_matrix(8, 3), seed in 0u64..100) {
        // No schedule can beat the busiest node's serialized engine time.
        let cube = Hypercube::new(3);
        let params = MachineParams::ipsc860();
        let floor: u64 = (0..8)
            .map(|i| {
                let out: u64 = com.row(i).1.iter().map(|&b| params.wire_ns(b)).sum();
                out
            })
            .max()
            .unwrap_or(0);
        for (sched, scheme) in [
            (ac(&com), Scheme::S2),
            (rs_n(&com, seed), Scheme::S2),
            (rs_nl(&com, &cube, seed), Scheme::S1),
            (lp(&com), Scheme::S1),
        ] {
            let report = simulate(&cube, &params, compile(&com, &sched, scheme)).unwrap();
            prop_assert!(
                report.makespan_ns >= floor,
                "{:?}: {} < floor {}",
                sched.algorithm(),
                report.makespan_ns,
                floor
            );
        }
    }

    #[test]
    fn ecube_routes_are_minimal_and_in_range(
        s in 0u32..64, t in 0u32..64
    ) {
        let cube = Hypercube::new(6);
        let path = cube.route(NodeId(s), NodeId(t));
        prop_assert_eq!(path.hops() as u32, NodeId(s).hamming(NodeId(t)));
        for l in path.links() {
            prop_assert!(l.index() < hypercube::Topology::link_count(&cube));
        }
    }

    #[test]
    fn xor_phases_never_contend(k in 1usize..64) {
        let cube = Hypercube::new(6);
        prop_assert!(hypercube::perm::xor_permutation_is_link_free(&cube, k));
    }

    #[test]
    fn largest_first_is_valid_on_nonuniform(com in arb_matrix(16, 5), seed in 0u64..100) {
        let s = commsched::nonuniform::rs_n_largest_first(&com, seed);
        prop_assert!(validate_schedule(&com, &s).is_ok());
    }
}
