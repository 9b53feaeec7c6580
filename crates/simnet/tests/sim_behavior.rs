//! Behavioural tests of the discrete-event engine: protocol costs,
//! contention serialization, exchange fusion, buffering, deadlock
//! detection, and determinism. These exercise the public API only and
//! pin the simulated times across engine-internal refactors.

use hypercube::{Hypercube, NodeId};
use simnet::{
    simulate, simulate_with, LinkCostModel, MachineParams, Program, ProgramBuilder, SimError, Tag,
    TraceKind,
};

fn params() -> MachineParams {
    MachineParams::ipsc860()
}

fn quiet(n: usize) -> Vec<Program> {
    (0..n).map(|_| Program::empty()).collect()
}

fn send_recv_pair(bytes: u32) -> (Program, Program) {
    let mut s = Program::builder();
    s.send(NodeId(1), bytes, Tag(0));
    let mut r = Program::builder();
    r.post_recv(NodeId(0), Tag(0));
    r.wait_recv(NodeId(0), Tag(0));
    (s.build(), r.build())
}

#[test]
fn empty_programs_finish_instantly() {
    let cube = Hypercube::new(2);
    let report = simulate(&cube, &params(), quiet(4)).unwrap();
    assert_eq!(report.makespan_ns, 0);
    assert_eq!(report.stats.transfers, 0);
}

#[test]
fn single_message_time_matches_model() {
    let cube = Hypercube::new(1);
    let p = params();
    let (s, r) = send_recv_pair(1024);
    let report = simulate(&cube, &p, vec![s, r]).unwrap();
    // Posted receive exists before the send fires? The sender may start
    // before the receiver posts; either way delivery is direct or
    // buffered. With default send overheads the receiver posts at t=0.
    // Makespan must be at least the wire time and not absurdly more.
    let wire = p.transfer_ns(1024, 1);
    assert!(report.makespan_ns >= wire);
    assert!(report.makespan_ns < wire * 3, "{}", report.makespan_ns);
    assert_eq!(report.stats.transfers, 1);
}

#[test]
fn short_message_protocol_is_cheaper() {
    let cube = Hypercube::new(1);
    let p = params();
    let (s1, r1) = send_recv_pair(64);
    let (s2, r2) = send_recv_pair(4096);
    let fast = simulate(&cube, &p, vec![s1, r1]).unwrap();
    let slow = simulate(&cube, &p, vec![s2, r2]).unwrap();
    assert!(fast.makespan_ns < slow.makespan_ns);
}

#[test]
fn unposted_arrival_is_buffered_and_copied() {
    let cube = Hypercube::new(1);
    let mut p = params();
    p.recv_post_ns = 0;
    p.send_overhead_ns = 0;
    let mut s = Program::builder();
    s.send(NodeId(1), 5000, Tag(0));
    let mut r = Program::builder();
    // Receiver computes for a long time before posting: data must take
    // the system-buffer path and pay the copy.
    r.compute(10_000_000);
    r.post_recv(NodeId(0), Tag(0));
    r.wait_recv(NodeId(0), Tag(0));
    let report = simulate(&cube, &p, vec![s.build(), r.build()]).unwrap();
    assert_eq!(report.stats.copies, 1);
    assert_eq!(report.stats.nodes[1].buffered_bytes, 5000);
    assert_eq!(report.stats.nodes[1].direct_bytes, 0);
    assert!(report.makespan_ns >= 10_000_000 + p.copy_ns(5000));
}

#[test]
fn posted_arrival_is_direct() {
    let cube = Hypercube::new(1);
    let mut p = params();
    p.send_overhead_ns = 200_000; // give the post a head start
    let (s, r) = send_recv_pair(5000);
    // Swap: make the sender async so overhead ordering is explicit.
    let _ = s;
    let mut s = Program::builder();
    s.compute(500_000);
    s.send(NodeId(1), 5000, Tag(0));
    let report = simulate(&cube, &p, vec![s.build(), r]).unwrap();
    assert_eq!(report.stats.copies, 0);
    assert_eq!(report.stats.nodes[1].direct_bytes, 5000);
}

#[test]
fn node_contention_serializes_receives() {
    // Two senders to one receiver: the receiver's engine admits one
    // transfer at a time, so the makespan is ~2 transfer times.
    let cube = Hypercube::new(2);
    let p = params();
    let bytes = 100_000u32;
    let mut s1 = Program::builder();
    s1.send(NodeId(0), bytes, Tag(1));
    let mut s2 = Program::builder();
    s2.send(NodeId(0), bytes, Tag(2));
    let mut r = Program::builder();
    r.post_recv(NodeId(1), Tag(1));
    r.post_recv(NodeId(2), Tag(2));
    r.wait_all_recvs();
    let progs = vec![r.build(), s1.build(), s2.build(), Program::empty()];
    let report = simulate(&cube, &p, progs).unwrap();
    let one = p.wire_ns(bytes);
    assert!(
        report.makespan_ns >= 2 * one,
        "makespan {} vs one {}",
        report.makespan_ns,
        one
    );
    assert_eq!(report.stats.transfers_blocked, 1);
}

#[test]
fn link_contention_serializes_disjoint_node_pairs() {
    // On a 3-cube, 0->3 routes via 1 (links 0-1, 1-3) and 1->3 uses link
    // 1-3: they share the directed channel (1,dim1) => serialize, even
    // though all four endpoints differ... (actually 0->3 and 1->3 share
    // node 3's engine too; use 0->3 via 1 and 1->5? simpler explicit:)
    // 0->2 uses link (0,dim1); 4->6 uses (4,dim1): disjoint, parallel.
    // 0->6 uses (0,dim1),(2,dim2); 2->6 uses (2,dim2): overlap.
    let cube = Hypercube::new(3);
    let p = params();
    let bytes = 100_000u32;
    let mk = |src: u32, dst: u32, tag: u32| {
        let mut b = Program::builder();
        b.send(NodeId(dst), bytes, Tag(tag));
        (src, b)
    };
    // Receiver 6 gets from 0; receiver... wait 0->6 and 2->6 share
    // destination engine anyway. Pick 0->6 (via 1? no: e-cube 0->6 fixes
    // bits 1,2: 0->2->6, links (0,d1),(2,d2)) and 2->4 (fixes bits 1,2:
    // 2->0->4? 2^4=6: bits 1,2. 2->0 (d1), 0->4 (d2): links (2,d1),(0,d2)).
    // Disjoint from 0->6. Now 0->6 and 2->6 share (2,d2)? 2->6 fixes bit
    // 2 only: link (2,d2). Yes shared with 0->6's second link.
    let mut progs: Vec<Program> = (0..8).map(|_| Program::empty()).collect();
    let (src_a, mut a) = mk(0, 6, 1);
    let (src_b, mut b) = mk(2, 7, 2); // 2->7 fixes bits 0,2: 2->3 (d0), 3->7 (d2)
    let _ = (&mut a, &mut b);
    progs[src_a as usize] = a.build();
    progs[src_b as usize] = b.build();
    let mut r6 = Program::builder();
    r6.post_recv(NodeId(0), Tag(1));
    r6.wait_all_recvs();
    progs[6] = r6.build();
    let mut r7 = Program::builder();
    r7.post_recv(NodeId(2), Tag(2));
    r7.wait_all_recvs();
    progs[7] = r7.build();
    // 0->6: links (0,d1),(2,d2). 2->7: links (2,d0),(3,d2). Disjoint =>
    // fully parallel despite both passing "through" node 2's links.
    let report = simulate(&cube, &p, progs).unwrap();
    let one = p.transfer_ns(bytes, 2);
    assert!(
        report.makespan_ns < one + one / 2,
        "parallel transfers should overlap: {} vs {}",
        report.makespan_ns,
        one
    );
    assert_eq!(report.stats.transfers_blocked, 0);
}

#[test]
fn shared_link_blocks() {
    // 0->6 (links (0,d1),(2,d2)) and 2->6 (link (2,d2)) share a channel
    // AND the destination engine; with distinct receivers sharing just a
    // link: 0->6 vs 2->4? 2->4: bits 1,2 -> 2->0 (d1), 0->4 (d2). No
    // overlap with 0->6. Try 1->7 (bits 1,2: 1->3 (d1), 3->7 (d2)) vs
    // 5->7? 5^7=2: 5->7 (d1) single link (5,d1). no.
    // Use 0->3 (links (0,d0),(1,d1)) and 1->3 (link (1,d1)): shared
    // (1,d1), receivers both 3 though. Distinct receivers with a shared
    // link: 0->2 ((0,d1)) and 0->... same source. 4->7 (4^7=3: (4,d0),
    // (5,d1)) vs 5->7 ((5,d1)): recv both 7. Hmm: 4->6 (4^6=2: (4,d1))
    // vs 4->... same src.
    // 0->5 (bits 0,2: (0,d0),(1,d2)) and 1->3 ((1,d1))? disjoint.
    // 0->5 and 1->5? (1^5=4: (1,d2)): shares (1,d2) with 0->5, recv both
    // 5. It is genuinely hard to share a link without sharing an
    // endpoint on a 3-cube; use a 4-cube: 0->12 (bits 2,3: (0,d2),
    // (4,d3)) and 4->13 (4^13=9: bits 0,3: (4,d0),(5,d3))? disjoint.
    // 0->12 and 4->12 ((4,d3)): shared (4,d3), receivers both 12. Ugh.
    // 0->12: (0,d2),(4,d3). 4->8 (4^8=12: (4,d2),(0,d3)? e-cube: cur=4,
    // fix d2: 4->0 link (4,d2); fix d3: 0->8 link (0,d3)). Disjoint
    // again (directed!). Classic conflicting pair: 1->12 (bits 0,2,3:
    // (1,d0),(0,d2),(4,d3)) and 0->4 ((0,d2))? e-cube 0->4 fixes d2:
    // link (0,d2). SHARED with 1->12's middle link, distinct endpoints
    // {1,12} vs {0,4}.
    let cube = Hypercube::new(4);
    let p = params();
    let bytes = 100_000u32;
    let mut progs: Vec<Program> = (0..16).map(|_| Program::empty()).collect();
    let mut s1 = Program::builder();
    s1.send(NodeId(12), bytes, Tag(1));
    progs[1] = s1.build();
    let mut s0 = Program::builder();
    s0.send(NodeId(4), bytes, Tag(2));
    progs[0] = s0.build();
    let mut r12 = Program::builder();
    r12.post_recv(NodeId(1), Tag(1));
    r12.wait_all_recvs();
    progs[12] = r12.build();
    let mut r4 = Program::builder();
    r4.post_recv(NodeId(0), Tag(2));
    r4.wait_all_recvs();
    progs[4] = r4.build();
    let report = simulate(&cube, &p, progs).unwrap();
    assert_eq!(
        report.stats.transfers_blocked, 1,
        "one of the two circuits must wait for the shared channel"
    );
}

#[test]
fn exchange_is_concurrent_bidirectional() {
    let cube = Hypercube::new(1);
    let p = params();
    let bytes = 100_000u32;
    let mut a = Program::builder();
    a.exchange(NodeId(1), bytes, bytes, Tag(0));
    let mut b = Program::builder();
    b.exchange(NodeId(0), bytes, bytes, Tag(0));
    let report = simulate(&cube, &p, vec![a.build(), b.build()]).unwrap();
    let one_way = p.wire_ns(bytes);
    // Fused exchange: sync + max of the directions, NOT the sum.
    assert!(report.makespan_ns < one_way + one_way / 2 + p.exchange_sync_ns);
    assert!(report.makespan_ns >= one_way);
}

#[test]
fn exchange_vs_two_sends() {
    // The iPSC/860 feature LP exploits: an exchange costs about half of
    // two serialized opposite sends.
    let cube = Hypercube::new(1);
    let p = params();
    let bytes = 120_000u32;
    let mut a = Program::builder();
    a.exchange(NodeId(1), bytes, bytes, Tag(0));
    let mut b = Program::builder();
    b.exchange(NodeId(0), bytes, bytes, Tag(0));
    let fused = simulate(&cube, &p, vec![a.build(), b.build()]).unwrap();

    let mut a2 = Program::builder();
    a2.post_recv(NodeId(1), Tag(1));
    a2.send(NodeId(1), bytes, Tag(0));
    a2.wait_all_recvs();
    let mut b2 = Program::builder();
    b2.post_recv(NodeId(0), Tag(0));
    b2.send(NodeId(0), bytes, Tag(1));
    b2.wait_all_recvs();
    let unsynced = simulate(&cube, &p, vec![a2.build(), b2.build()]).unwrap();
    assert!(
        (unsynced.makespan_ns as f64) > 1.6 * fused.makespan_ns as f64,
        "unsynced {} vs fused {}",
        unsynced.makespan_ns,
        fused.makespan_ns
    );
}

#[test]
fn asymmetric_exchange_credits_each_side_with_what_it_received() {
    // Unified ports (fused exchange): node 0 sends 1000 B and receives
    // 2000 B; per-node delivered-byte stats must reflect the direction
    // each side *received*, not the forward payload twice.
    let cube = Hypercube::new(1);
    let p = params();
    let mut a = Program::builder();
    a.exchange(NodeId(1), 1000, 2000, Tag(0));
    let mut b = Program::builder();
    b.exchange(NodeId(0), 2000, 1000, Tag(0));
    let report = simulate(&cube, &p, vec![a.build(), b.build()]).unwrap();
    assert_eq!(report.stats.nodes[0].direct_bytes, 2000);
    assert_eq!(report.stats.nodes[1].direct_bytes, 1000);
    let delivered: u64 = report.stats.nodes.iter().map(|n| n.direct_bytes).sum();
    assert_eq!(delivered, 3000, "exchange must conserve bytes");
}

#[test]
fn exchange_rendezvous_waits_for_late_partner() {
    let cube = Hypercube::new(1);
    let p = params();
    let mut a = Program::builder();
    a.exchange(NodeId(1), 64, 64, Tag(0));
    let mut b = Program::builder();
    b.compute(1_000_000);
    b.exchange(NodeId(0), 64, 64, Tag(0));
    let report = simulate(&cube, &p, vec![a.build(), b.build()]).unwrap();
    assert!(report.makespan_ns >= 1_000_000);
}

#[test]
fn exchange_size_mismatch_is_an_error() {
    let cube = Hypercube::new(1);
    let mut a = Program::builder();
    a.exchange(NodeId(1), 64, 32, Tag(0));
    let mut b = Program::builder();
    b.exchange(NodeId(0), 64, 32, Tag(0)); // should be (32, 64)
    let err = simulate(&cube, &params(), vec![a.build(), b.build()]).unwrap_err();
    assert!(matches!(err, SimError::ProgramError { .. }), "{err}");
}

#[test]
fn self_send_rejected() {
    let cube = Hypercube::new(1);
    let mut a = Program::builder();
    a.send(NodeId(0), 64, Tag(0));
    let err = simulate(&cube, &params(), vec![a.build(), Program::empty()]).unwrap_err();
    assert!(matches!(err, SimError::ProgramError { .. }));
}

#[test]
fn out_of_range_target_rejected() {
    let cube = Hypercube::new(1);
    let mut a = Program::builder();
    a.send(NodeId(5), 64, Tag(0));
    let err = simulate(&cube, &params(), vec![a.build(), Program::empty()]).unwrap_err();
    assert!(matches!(err, SimError::ProgramError { .. }));
}

#[test]
fn wait_without_post_rejected() {
    let cube = Hypercube::new(1);
    let mut a = Program::builder();
    a.wait_recv(NodeId(1), Tag(0));
    let err = simulate(&cube, &params(), vec![a.build(), Program::empty()]).unwrap_err();
    assert!(matches!(err, SimError::ProgramError { .. }));
}

#[test]
fn missing_sender_deadlocks_with_diagnosis() {
    let cube = Hypercube::new(1);
    let mut a = Program::builder();
    a.post_recv(NodeId(1), Tag(0));
    a.wait_recv(NodeId(1), Tag(0));
    let err = simulate(&cube, &params(), vec![a.build(), Program::empty()]).unwrap_err();
    match err {
        SimError::Deadlock { stuck } => {
            assert_eq!(stuck.len(), 1);
            assert_eq!(stuck[0].0, 0);
            assert!(stuck[0].1.contains("waiting for message"));
        }
        other => panic!("expected deadlock, got {other}"),
    }
}

#[test]
fn bounded_buffers_block_until_receiver_drains() {
    let cube = Hypercube::new(1);
    let mut p = params();
    p.buffer_bytes = Some(4096);
    p.recv_post_ns = 0;
    p.send_overhead_ns = 0;
    // Sender pushes two 4 KB messages; receiver posts late. The second
    // send must wait until the first is copied out of the buffer.
    let mut s = Program::builder();
    s.send_async(NodeId(1), 4096, Tag(0));
    s.send_async(NodeId(1), 4096, Tag(1));
    s.wait_all_sends();
    let mut r = Program::builder();
    r.compute(2_000_000);
    r.post_recv(NodeId(0), Tag(0));
    r.post_recv(NodeId(0), Tag(1));
    r.wait_all_recvs();
    let report = simulate(&cube, &p, vec![s.build(), r.build()]).unwrap();
    // The first message fills the buffer and is copied out after the
    // late post; the second is blocked until that copy frees space, by
    // which time its buffer is posted, so it is delivered directly.
    assert_eq!(report.stats.copies, 1);
    assert_eq!(report.stats.nodes[1].buffered_bytes, 4096);
    assert_eq!(report.stats.nodes[1].direct_bytes, 4096);
    assert!(report.stats.transfers_blocked >= 1);
}

#[test]
fn buffer_overflow_without_drain_deadlocks() {
    let cube = Hypercube::new(1);
    let mut p = params();
    p.buffer_bytes = Some(1024);
    p.recv_post_ns = 0;
    p.send_overhead_ns = 0;
    // The receiver never posts; the sender's message cannot be delivered
    // directly nor buffered (too big): Section 3's hazard.
    let mut s = Program::builder();
    s.send(NodeId(1), 4096, Tag(0));
    let err = simulate(&cube, &p, vec![s.build(), Program::empty()]).unwrap_err();
    assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
}

#[test]
fn determinism() {
    let cube = Hypercube::new(3);
    let p = params();
    let mk = || {
        let mut progs: Vec<Program> = Vec::new();
        for i in 0..8u32 {
            let mut b = ProgramBuilder::default();
            let dst = NodeId((i + 1) % 8);
            let src = NodeId((i + 7) % 8);
            b.post_recv(src, Tag(9));
            b.send(dst, 10_000, Tag(9));
            b.wait_all_recvs();
            progs.push(b.build());
        }
        progs
    };
    let r1 = simulate(&cube, &p, mk()).unwrap();
    let r2 = simulate(&cube, &p, mk()).unwrap();
    assert_eq!(r1.makespan_ns, r2.makespan_ns);
    assert_eq!(r1.stats.events, r2.stats.events);
    assert_eq!(r1.stats.blocked_ns_total, r2.stats.blocked_ns_total);
}

#[test]
fn hold_and_wait_policy_runs_and_pays_hops() {
    let cube = Hypercube::new(3);
    let p_atomic = params();
    let p_hw = MachineParams::ipsc860_hold_and_wait();
    let mk = || {
        let mut s = Program::builder();
        s.send(NodeId(7), 50_000, Tag(0));
        let mut r = Program::builder();
        r.post_recv(NodeId(0), Tag(0));
        r.wait_all_recvs();
        let mut progs: Vec<Program> = (0..8).map(|_| Program::empty()).collect();
        progs[0] = s.build();
        progs[7] = r.build();
        progs
    };
    let a = simulate(&cube, &p_atomic, mk()).unwrap();
    let h = simulate(&cube, &p_hw, mk()).unwrap();
    // Same message, same route; both models charge 3 hops worth of setup
    // (atomic folds hops-1 into duration; H&W pays hop_ns per link).
    assert!(h.makespan_ns >= a.makespan_ns);
    assert!(h.makespan_ns <= a.makespan_ns + 3 * p_hw.hop_ns);
}

#[test]
fn hold_and_wait_tree_saturation_hurts_more() {
    // Hot-spot: seven senders to one receiver, each holding its circuit
    // while waiting. Hold-and-wait must be at least as slow as atomic.
    let cube = Hypercube::new(3);
    let mk = || {
        let bytes = 60_000u32;
        let mut progs: Vec<Program> = (0..8).map(|_| Program::empty()).collect();
        for i in 1..8u32 {
            let mut s = Program::builder();
            s.send(NodeId(0), bytes, Tag(i));
            progs[i as usize] = s.build();
        }
        let mut r = Program::builder();
        for i in 1..8u32 {
            r.post_recv(NodeId(i), Tag(i));
        }
        r.wait_all_recvs();
        progs[0] = r.build();
        progs
    };
    let a = simulate(&cube, &params(), mk()).unwrap();
    let h = simulate(&cube, &MachineParams::ipsc860_hold_and_wait(), mk()).unwrap();
    assert!(h.stats.blocked_ns_total >= a.stats.blocked_ns_total / 2);
    // All seven must serialize at the receiver in both policies.
    let one = params().wire_ns(60_000);
    assert!(a.makespan_ns >= 7 * one);
}

#[test]
fn trace_records_lifecycle() {
    let cube = Hypercube::new(1);
    let (s, r) = send_recv_pair(256);
    let mut trace = Vec::new();
    simulate_with(
        &cube,
        &params(),
        &LinkCostModel::Uniform,
        vec![s, r],
        Some(&mut trace),
    )
    .unwrap();
    let kinds: Vec<TraceKind> = trace.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&TraceKind::Requested));
    assert!(kinds.contains(&TraceKind::Started));
    assert!(kinds.contains(&TraceKind::Finished));
    assert!(kinds.contains(&TraceKind::NodeDone));
}

#[test]
fn wrong_program_count_rejected() {
    let cube = Hypercube::new(2);
    let err = simulate(&cube, &params(), quiet(3)).unwrap_err();
    assert!(matches!(err, SimError::BadParams(_)));
}

#[test]
fn makespan_includes_unawaited_sends() {
    // A sender that exits without waiting still keeps the network busy;
    // the makespan covers the transfer's completion.
    let cube = Hypercube::new(1);
    let mut p = params();
    p.recv_post_ns = 0;
    let mut s = Program::builder();
    s.send_async(NodeId(1), 100_000, Tag(0));
    let mut r = Program::builder();
    r.post_recv(NodeId(0), Tag(0));
    let report = simulate(&cube, &p, vec![s.build(), r.build()]).unwrap();
    assert!(report.makespan_ns >= p.wire_ns(100_000));
}

#[test]
fn duplicate_message_conflict_surfaces_when_its_circuit_first_frees() {
    // Two in-flight messages under one (src, tag) is a program error. The
    // 100 B message cannot enter the 90 B system buffer and waits on
    // delivery; the 64 B one overtakes it into the same slot. The waiting
    // message must then be re-examined the moment its circuit frees (and
    // report the conflict against the *buffered* first message), not only
    // when buffer space is next released.
    let cube = Hypercube::new(1);
    let mut p = params();
    p.buffer_bytes = Some(90);
    let mut sender = Program::builder();
    sender.send_async(NodeId(1), 100, Tag(0));
    sender.send_async(NodeId(1), 64, Tag(0));
    sender.wait_all_sends();
    let mut receiver = Program::builder();
    receiver.compute(1_000_000);
    receiver.post_recv(NodeId(0), Tag(0));
    receiver.wait_all_recvs();
    match simulate(&cube, &p, vec![sender.build(), receiver.build()]) {
        Err(SimError::ProgramError { node: 1, msg }) => {
            assert!(msg.contains("while first is Buffered(64)"), "{msg}");
        }
        other => panic!("expected the duplicate-message error, got {other:?}"),
    }
}
