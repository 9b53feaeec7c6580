//! Integration tests of the machine model itself: the five iPSC/860
//! behaviours DESIGN.md claims the simulator reproduces, observed through
//! the public pipeline (not simulator internals).

use ipsc_sched::prelude::*;

fn one_message_cost(bytes: u32) -> f64 {
    let cube = Hypercube::new(1);
    let params = MachineParams::ipsc860();
    let mut com = CommMatrix::new(2);
    com.set(0, 1, bytes);
    simulate(&cube, &params, compile(&com, &ac(&com), Scheme::S2))
        .unwrap()
        .makespan_ms()
}

#[test]
fn protocol_switch_is_visible_end_to_end() {
    // Crossing 100 bytes jumps the startup cost (short -> long protocol).
    let below = one_message_cost(100);
    let above = one_message_cost(101);
    assert!(
        above > below + 0.05,
        "no protocol cliff: {below} vs {above}"
    );
    // Within a protocol, cost is monotone and bandwidth-dominated at the top.
    let big = one_message_cost(131_072);
    let half = one_message_cost(65_536);
    let ratio = big / half;
    assert!(
        (1.6..2.2).contains(&ratio),
        "large messages should be bandwidth-bound: ratio {ratio}"
    );
}

#[test]
fn latency_dominates_small_messages() {
    // 16 B and 64 B messages cost the same (one short-protocol latency).
    let a = one_message_cost(16);
    let b = one_message_cost(64);
    assert!((a - b).abs() / a < 0.05, "{a} vs {b}");
}

#[test]
fn pairwise_exchange_halves_symmetric_traffic() {
    // A fully symmetric pattern run with exchange fusion (S1) vs without
    // (S2): Observation 1 says non-fused reciprocal traffic serializes, so
    // S1 should approach half the S2 cost for large messages.
    let cube = Hypercube::new(4);
    let params = MachineParams::ipsc860();
    let com = workloads::structured::ring_halo(16, 1, 100_000);
    let schedule = lp(&com);
    let s1 = simulate(&cube, &params, compile(&com, &schedule, Scheme::S1)).unwrap();
    let s2 = simulate(&cube, &params, compile(&com, &schedule, Scheme::S2)).unwrap();
    let ratio = s1.makespan_ns as f64 / s2.makespan_ns as f64;
    assert!(
        (0.35..0.75).contains(&ratio),
        "exchange fusion should roughly halve the cost: ratio {ratio}"
    );
}

#[test]
fn hop_count_matters_little() {
    // The paper (Section 1): with modern routing, distance is relatively
    // unimportant. 1-hop vs 6-hop transfers of 64 KB differ by < 5%.
    let cube = Hypercube::new(6);
    let params = MachineParams::ipsc860();
    let cost = |dst: usize| {
        let mut com = CommMatrix::new(64);
        com.set(0, dst, 65_536);
        simulate(&cube, &params, compile(&com, &ac(&com), Scheme::S2))
            .unwrap()
            .makespan_ns as f64
    };
    let near = cost(1); // 1 hop
    let far = cost(63); // 6 hops
    assert!(far > near);
    assert!((far - near) / near < 0.05, "{near} vs {far}");
}

#[test]
fn node_contention_scales_with_in_degree() {
    // k senders to one receiver serialize at the receiver: makespan grows
    // ~linearly in k.
    let cube = Hypercube::new(4);
    let params = MachineParams::ipsc860();
    let cost = |k: usize| {
        let mut com = CommMatrix::new(16);
        for i in 1..=k {
            com.set(i, 0, 50_000);
        }
        simulate(&cube, &params, compile(&com, &ac(&com), Scheme::S2))
            .unwrap()
            .makespan_ns as f64
    };
    let c2 = cost(2);
    let c8 = cost(8);
    let ratio = c8 / c2;
    assert!(
        (3.0..5.0).contains(&ratio),
        "8 vs 2 senders should be ~4x: {ratio}"
    );
}

#[test]
fn link_contention_shows_up_in_blocked_stats() {
    // Bit-reverse permutation is a known e-cube worst case: blocked
    // circuits appear even though every receiver is distinct.
    let cube = Hypercube::new(6);
    let params = MachineParams::ipsc860();
    let com = workloads::structured::bit_reverse(64, 65_536);
    let report = simulate(&cube, &params, compile(&com, &ac(&com), Scheme::S2)).unwrap();
    assert!(
        report.stats.transfers_blocked > 5,
        "bit reverse must collide: {} blocked",
        report.stats.transfers_blocked
    );
    // RS_NL spreads the same traffic over link-free phases.
    let s = rs_nl(&com, &cube, 3);
    assert!(s.link_contention_free(&cube));
    assert!(s.num_phases() > 1, "must split to avoid contention");
}

#[test]
fn schedule_distribution_costs_what_the_paper_says() {
    // The concatenate operation is O(dn + tau log n): doubling the machine
    // size roughly doubles the cost (payload term dominates), far from the
    // naive n * tau of sequential gathering.
    let params = MachineParams::ipsc860();
    let cost = |dims: u32| {
        commrt::allgather::allgather_cost(&Hypercube::new(dims), &params, 128)
            .unwrap()
            .makespan_ns as f64
    };
    let c16 = cost(4);
    let c64 = cost(6);
    let ratio = c64 / c16;
    assert!(
        (1.5..6.0).contains(&ratio),
        "all-gather should scale ~linearly in n: {ratio}"
    );
}
