use commsched::{CommMatrix, Schedule, ScheduleKind, SILENT};
use hypercube::NodeId;
use simnet::{Program, ProgramBuilder, Tag};

/// Tag of the data message scheduled in phase `k` (AC uses phase 0).
#[inline]
fn data_tag(phase: usize) -> Tag {
    Tag(phase as u32 * 2)
}

/// Tag of the S1 ready signal for the data message of phase `k`.
#[inline]
fn ready_tag(phase: usize) -> Tag {
    Tag(phase as u32 * 2 + 1)
}

/// The inverse of [`data_tag`] and [`ready_tag`]: the phase a tag was set
/// for, and whether it tags the data message rather than a ready signal.
#[inline]
pub(crate) fn tag_phase(tag: Tag) -> (usize, bool) {
    (tag.0 as usize / 2, tag.0.is_multiple_of(2))
}

/// Compile `(matrix, schedule, scheme)` into one executable program per
/// node.
///
/// * [`ScheduleKind::Async`] (AC) ignores `scheme` and emits the
///   post/send/confirm program of the paper's Figure 1.
/// * Phased schedules honour the phase order under *loose synchrony* — no
///   global barrier; nodes couple only through the messages themselves
///   (plus ready signals under [`Scheme::S1`]).
///
/// # Panics
///
/// Panics if the schedule does not belong to the matrix (validate first
/// with [`commsched::validate_schedule`] for a graceful error).
///
/// [`Scheme::S1`]: crate::Scheme::S1
pub fn compile(com: &CommMatrix, schedule: &Schedule, scheme: crate::Scheme) -> Vec<Program> {
    assert_eq!(com.n(), schedule.n(), "matrix/schedule size mismatch");
    match schedule.kind() {
        ScheduleKind::Async => compile_async(com),
        ScheduleKind::Phased => match scheme {
            crate::Scheme::S1 => compile_s1(com, schedule),
            crate::Scheme::S2 => compile_s2(com, schedule),
        },
    }
}

/// The *send-detect-receive* variant of asynchronous communication the
/// paper discusses in Section 3: receivers cannot (or do not) pre-allocate
/// application buffers, so every arrival lands in the bounded system buffer
/// and pays a copy once the receive is finally issued. This is the
/// configuration where AC's "memory requirements are large" bites: with a
/// bounded [`simnet::MachineParams::buffer_bytes`] senders block on full
/// buffers and the run can deadlock (reported, not hung).
pub fn compile_ac_send_detect(com: &CommMatrix) -> Vec<Program> {
    let n = com.n();
    let mut builders: Vec<ProgramBuilder> = (0..n).map(|_| Program::builder()).collect();
    // Blocking sends (csend semantics), as in the naive implementation the
    // paper warns about: a sender stuck on a full remote buffer stalls its
    // whole program — including the receives that would drain its own
    // buffer — so rings of mutually-stuck nodes deadlock.
    for (src, dst, bytes) in com.messages() {
        builders[src.index()].send(dst, bytes, data_tag(0));
    }
    // Receives are issued only after all sends complete: early arrivals sit
    // in the system buffer and pay the copy on receipt.
    for (src, dst, _) in com.messages() {
        builders[dst.index()].post_recv(src, data_tag(0));
    }
    for b in &mut builders {
        b.wait_all_recvs();
    }
    builders.into_iter().map(ProgramBuilder::build).collect()
}

/// Figure 1: post requests for all incoming messages, blast all outgoing
/// messages, confirm arrivals.
fn compile_async(com: &CommMatrix) -> Vec<Program> {
    let n = com.n();
    let mut builders: Vec<ProgramBuilder> = (0..n).map(|_| Program::builder()).collect();
    // Post phase: every node pre-allocates buffers for its senders.
    for (src, dst, _) in com.messages() {
        builders[dst.index()].post_recv(src, data_tag(0));
    }
    // Send phase: row order, fire and forget.
    for (src, dst, bytes) in com.messages() {
        builders[src.index()].send_async(dst, bytes, data_tag(0));
    }
    // Confirm phase.
    for b in &mut builders {
        b.wait_all_sends();
        b.wait_all_recvs();
    }
    builders.into_iter().map(ProgramBuilder::build).collect()
}

/// S2: all posts up front, then sends in schedule order (asynchronously),
/// then confirmation — the AC program with contention-aware ordering.
fn compile_s2(com: &CommMatrix, schedule: &Schedule) -> Vec<Program> {
    let n = com.n();
    let mut builders: Vec<ProgramBuilder> = (0..n).map(|_| Program::builder()).collect();
    for (k, pm) in schedule.phases().iter().enumerate() {
        for (src, dst) in pm.pairs() {
            builders[dst.index()].post_recv(src, data_tag(k));
        }
    }
    for (k, pm) in schedule.phases().iter().enumerate() {
        for (src, dst) in pm.pairs() {
            let bytes = com.get(src.index(), dst.index());
            builders[src.index()].send_async(dst, bytes, data_tag(k));
        }
    }
    for b in &mut builders {
        b.wait_all_sends();
        b.wait_all_recvs();
    }
    builders.into_iter().map(ProgramBuilder::build).collect()
}

/// S1: per phase, receivers post + signal ready, senders wait for the
/// signal and transmit; reciprocal pairs become fused pairwise exchanges.
fn compile_s1(com: &CommMatrix, schedule: &Schedule) -> Vec<Program> {
    let n = com.n();
    let mut builders: Vec<ProgramBuilder> = (0..n).map(|_| Program::builder()).collect();
    // Pre-post the ready-signal buffers of every non-exchange outgoing
    // message: the partner may race ahead to a later phase and fire its
    // ready before this sender reaches that phase; a posted buffer keeps
    // even the signals out of the system-buffer path.
    for (k, pm) in schedule.phases().iter().enumerate() {
        for (src, dst) in pm.pairs() {
            if !pm.is_exchange_pair(src) {
                builders[src.index()].post_recv(dst, ready_tag(k));
            }
        }
    }
    // For every node and phase, classify its role. `recv_from` is the
    // phase table inverted row by row: word `k * n + i` is who sends to
    // node i in phase k (SILENT = nobody).
    let phases = schedule.phases();
    let mut recv_from = vec![SILENT; schedule.table().len()];
    for (k, pm) in phases.iter().enumerate() {
        for (src, dst) in pm.pairs() {
            recv_from[k * n + dst.index()] = src.0;
        }
    }
    // Receive prep (post buffer + fire the ready signal) for phase k is
    // emitted one phase EARLY, so the handshake latency of phase k+1 hides
    // under the data movement of phase k — the double-buffering that makes
    // S1's loose synchrony cheap.
    let emit_prep = |b: &mut ProgramBuilder, i: usize, k: usize| {
        let s = recv_from[k * n + i];
        if s != SILENT
            && !phases
                .get(k)
                .is_some_and(|pm| pm.is_exchange_pair(NodeId(i as u32)))
        {
            b.post_recv(NodeId(s), data_tag(k));
            b.send_async(NodeId(s), 0, ready_tag(k));
        }
    };
    for (i, b) in builders.iter_mut().enumerate() {
        let me = NodeId(i as u32);
        if !phases.is_empty() {
            emit_prep(b, i, 0);
        }
        for (k, pm) in phases.iter().enumerate() {
            if k + 1 < phases.len() {
                emit_prep(b, i, k + 1);
            }
            let send_to = pm.dest(i);
            if pm.is_exchange_pair(me) {
                let j = send_to.expect("exchange pair implies a destination");
                let out = com.get(i, j.index());
                let inc = com.get(j.index(), i);
                b.exchange(j, out, inc, data_tag(k));
                continue;
            }
            if let Some(j) = send_to {
                b.wait_recv(j, ready_tag(k));
                b.send(j, com.get(i, j.index()), data_tag(k));
            }
            let s = recv_from[k * n + i];
            if s != SILENT {
                b.wait_recv(NodeId(s), data_tag(k));
            }
        }
    }
    for b in &mut builders {
        b.wait_all_sends();
        b.wait_all_recvs();
    }
    builders.into_iter().map(ProgramBuilder::build).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheme;
    use commsched::{ac, lp, rs_n, rs_nl, validate_schedule};
    use hypercube::Hypercube;
    use simnet::{simulate, MachineParams, Op, SimError};

    fn com_and_cube() -> (CommMatrix, Hypercube) {
        (workloads::random_dense(16, 4, 2048, 3), Hypercube::new(4))
    }

    #[test]
    fn tag_phase_inverts_both_tags() {
        for k in [0, 1, 7, 1000] {
            assert_eq!(tag_phase(data_tag(k)), (k, true));
            assert_eq!(tag_phase(ready_tag(k)), (k, false));
        }
    }

    #[test]
    fn ac_program_shape() {
        let (com, _) = com_and_cube();
        let progs = compile(&com, &ac(&com), Scheme::S2);
        assert_eq!(progs.len(), 16);
        // Every node: in-degree posts, 4 async sends, two waits.
        for (i, p) in progs.iter().enumerate() {
            let posts = p
                .ops()
                .iter()
                .filter(|o| matches!(o, Op::PostRecv { .. }))
                .count();
            let sends = p
                .ops()
                .iter()
                .filter(|o| matches!(o, Op::SendAsync { .. }))
                .count();
            assert_eq!(posts, com.in_degree(i));
            assert_eq!(sends, 4);
            assert!(matches!(p.ops()[p.len() - 1], Op::WaitAllRecvs));
        }
    }

    #[test]
    fn all_four_algorithms_simulate_green() {
        let (com, cube) = com_and_cube();
        let params = MachineParams::ipsc860();
        for (schedule, scheme) in [
            (ac(&com), Scheme::S2),
            (lp(&com), Scheme::S1),
            (rs_n(&com, 5), Scheme::S2),
            (rs_nl(&com, &cube, 5), Scheme::S1),
        ] {
            validate_schedule(&com, &schedule).unwrap();
            let report = simulate(&cube, &params, compile(&com, &schedule, scheme))
                .unwrap_or_else(|e| panic!("{:?} failed: {e}", schedule.algorithm()));
            assert!(report.makespan_ns > 0);
            // Conservation: every message delivered exactly once.
            let delivered: u64 = report.stats.nodes.iter().map(|s| s.recvs).sum();
            assert!(
                delivered >= com.message_count() as u64,
                "{:?}: {} of {} delivered",
                schedule.algorithm(),
                delivered,
                com.message_count()
            );
        }
    }

    #[test]
    fn s1_avoids_buffer_copies() {
        // The point of S1: data never lands in the system buffer.
        let (com, cube) = com_and_cube();
        let params = MachineParams::ipsc860();
        let schedule = rs_nl(&com, &cube, 9);
        let report = simulate(&cube, &params, compile(&com, &schedule, Scheme::S1)).unwrap();
        assert_eq!(report.stats.copies, 0);
        for nstats in &report.stats.nodes {
            assert_eq!(nstats.buffered_bytes, 0);
        }
    }

    #[test]
    fn s1_fuses_reciprocal_pairs() {
        let cube = Hypercube::new(3);
        let mut com = CommMatrix::new(8);
        com.set(2, 5, 4096);
        com.set(5, 2, 4096);
        let schedule = lp(&com);
        let progs = compile(&com, &schedule, Scheme::S1);
        let exchanges = progs
            .iter()
            .flat_map(|p| p.ops())
            .filter(|o| matches!(o, Op::Exchange { .. }))
            .count();
        assert_eq!(exchanges, 2, "one Exchange op per endpoint");
        let report = simulate(
            &cube,
            &MachineParams::ipsc860(),
            compile(&com, &schedule, Scheme::S1),
        )
        .unwrap();
        assert!(report.makespan_ns > 0);
    }

    #[test]
    fn s1_beats_s2_for_exchange_heavy_traffic() {
        // Symmetric halo traffic, large messages: pairwise fusion should
        // win clearly (the paper's rationale for S1).
        let cube = Hypercube::new(5);
        let com = workloads::structured::ring_halo(32, 3, 65_536);
        let schedule = rs_nl(&com, &cube, 2);
        let params = MachineParams::ipsc860();
        let s1 = simulate(&cube, &params, compile(&com, &schedule, Scheme::S1)).unwrap();
        let s2 = simulate(&cube, &params, compile(&com, &schedule, Scheme::S2)).unwrap();
        assert!(
            (s1.makespan_ns as f64) < 0.9 * s2.makespan_ns as f64,
            "S1 {} vs S2 {}",
            s1.makespan_ns,
            s2.makespan_ns
        );
    }

    #[test]
    fn phased_s2_orders_but_never_deadlocks() {
        let (com, cube) = com_and_cube();
        let schedule = rs_n(&com, 1);
        let report = simulate(
            &cube,
            &MachineParams::ipsc860(),
            compile(&com, &schedule, Scheme::S2),
        )
        .unwrap();
        assert!(report.makespan_ns > 0);
    }

    #[test]
    fn empty_matrix_compiles_to_trivial_programs() {
        let com = CommMatrix::new(8);
        let cube = Hypercube::new(3);
        for (sched, scheme) in [(ac(&com), Scheme::S2), (lp(&com), Scheme::S1)] {
            let report = simulate(
                &cube,
                &MachineParams::ipsc860(),
                compile(&com, &sched, scheme),
            )
            .unwrap();
            assert_eq!(report.stats.transfers, 0);
        }
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn schedule_matrix_mismatch_panics() {
        let com = CommMatrix::new(8);
        let other = CommMatrix::new(16);
        compile(&com, &ac(&other), Scheme::S2);
    }

    #[test]
    fn send_detect_receive_pays_copies() {
        let (com, cube) = com_and_cube();
        let params = MachineParams::ipsc860();
        let posted = simulate(&cube, &params, compile(&com, &ac(&com), Scheme::S2)).unwrap();
        let progs = compile_ac_send_detect(&com);
        let detected = simulate(&cube, &params, progs).unwrap();
        assert_eq!(posted.stats.copies, 0);
        let buffered: u64 = detected.stats.nodes.iter().map(|s| s.buffered_bytes).sum();
        assert!(detected.stats.copies > 0, "late posts must force copies");
        assert!(buffered > 0);
        assert!(
            detected.makespan_ns > posted.makespan_ns,
            "copies must cost time: {} vs {}",
            detected.makespan_ns,
            posted.makespan_ns
        );
    }

    #[test]
    fn send_detect_receive_with_tiny_buffers_deadlocks() {
        let (com, cube) = com_and_cube();
        let params = MachineParams {
            buffer_bytes: Some(1024), // smaller than one message
            ..MachineParams::ipsc860()
        };
        let progs = compile_ac_send_detect(&com);
        let err = simulate(&cube, &params, progs).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
    }

    #[test]
    fn send_detect_ring_with_bounded_buffers_reports_deadlock_not_hang() {
        // The paper's Section 3 hazard in its purest form: a ring where
        // every node sends one message larger than the downstream system
        // buffer. Under send-detect-receive each sender blocks on the full
        // buffer before reaching its own receives, so the whole ring is
        // mutually stuck. The simulator must *diagnose* this as a
        // `SimError::Deadlock` naming the stuck nodes — not spin forever.
        let cube = Hypercube::new(3);
        let mut com = CommMatrix::new(8);
        for i in 0..8 {
            com.set(i, (i + 1) % 8, 8192);
        }
        let params = MachineParams {
            buffer_bytes: Some(4096), // half a message: nobody can land
            ..MachineParams::ipsc860()
        };
        let err = simulate(&cube, &params, compile_ac_send_detect(&com)).unwrap_err();
        match err {
            SimError::Deadlock { ref stuck } => {
                assert_eq!(stuck.len(), 8, "the whole ring is stuck: {stuck:?}");
            }
            ref other => panic!("expected Deadlock, got {other}"),
        }
        assert!(err.to_string().contains("deadlock"), "{err}");
    }

    #[test]
    fn send_detect_ring_with_generous_buffers_completes() {
        // Same ring, but each buffer holds the whole incoming message:
        // arrivals land in the system buffer, the late receives pay the
        // copy, and the run completes.
        let cube = Hypercube::new(3);
        let mut com = CommMatrix::new(8);
        for i in 0..8 {
            com.set(i, (i + 1) % 8, 8192);
        }
        let params = MachineParams {
            buffer_bytes: Some(64 * 1024),
            ..MachineParams::ipsc860()
        };
        let report = simulate(&cube, &params, compile_ac_send_detect(&com)).unwrap();
        assert!(report.makespan_ns > 0);
        assert_eq!(report.stats.copies, 8, "every arrival is buffered once");
        let delivered: u64 = report.stats.nodes.iter().map(|s| s.recvs).sum();
        assert_eq!(delivered, 8);
    }

    #[test]
    fn determinism_end_to_end() {
        let (com, cube) = com_and_cube();
        let params = MachineParams::ipsc860();
        let s = rs_nl(&com, &cube, 4);
        let a = simulate(&cube, &params, compile(&com, &s, Scheme::S1)).unwrap();
        let b = simulate(&cube, &params, compile(&com, &s, Scheme::S1)).unwrap();
        assert_eq!(a.makespan_ns, b.makespan_ns);
    }
}
