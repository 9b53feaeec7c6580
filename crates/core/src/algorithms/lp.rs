use crate::{CommMatrix, Schedule, ScheduleKind, SchedulerKind, SILENT};

/// Linear permutation scheduling (Section 4.1, Figure 2).
///
/// Phase `k` (for `k = 1 .. n-1`) is the XOR permutation `i -> i ^ k`,
/// restricted to the pairs that actually have a message (`COM(i, i^k) > 0`).
/// Properties the paper exploits:
///
/// * every phase is **link-contention-free** under e-cube routing on the
///   hypercube (verified by property tests),
/// * `i` and `i ^ k` are mutual partners, so whenever traffic flows both
///   ways the runtime fuses it into a concurrent **pairwise exchange**,
/// * the schedule always has exactly `n - 1` phases — wasteful for small
///   densities, unbeatable for large ones.
///
/// The reported op count is the *per-processor* cost of the paper's runtime
/// model: each node walks its own row once (`n - 1` iterations of constant
/// work), which is why LP's scheduling cost in Table 1 is negligible. Built
/// here in one [`CommMatrix::messages`] walk, each message into phase `i ^ j`.
///
/// # Panics
///
/// Panics if `com.n()` is not a power of two: LP's `i ^ k` pairing needs
/// the full hypercube address space.
pub fn lp(com: &CommMatrix) -> Schedule {
    let n = com.n();
    assert!(
        n.is_power_of_two(),
        "LP requires a power-of-two node count, got {n}"
    );
    let mut table = vec![SILENT; (n - 1) * n];
    // Message `i -> j` belongs to phase `k = i ^ j`, stored at row `k - 1`.
    for (src, dst, _) in com.messages() {
        table[((src.0 ^ dst.0) as usize - 1) * n + src.index()] = dst.0;
    }
    // Per-processor cost: one iteration of Figure 2's loop per phase.
    let ops = (n - 1) as u64;
    Schedule::from_parts(ScheduleKind::Phased, SchedulerKind::Lp, n, table, ops, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_schedule;
    use hypercube::{Hypercube, NodeId};

    fn dense(n: usize, bytes: u32) -> CommMatrix {
        let mut m = CommMatrix::new(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    m.set(i, j, bytes);
                }
            }
        }
        m
    }

    #[test]
    fn all_to_all_uses_every_phase_fully() {
        let n = 16;
        let com = dense(n, 64);
        let s = lp(&com);
        assert_eq!(s.num_phases(), n - 1);
        for pm in s.phases() {
            assert_eq!(pm.len(), n); // everyone sends each phase
            assert!(pm.is_partial_permutation());
            // XOR phases are involutions: all messages pair up.
            assert_eq!(pm.exchange_pairs(), n / 2);
        }
        validate_schedule(&com, &s).unwrap();
    }

    #[test]
    fn phases_are_link_free_on_the_cube() {
        let com = dense(32, 64);
        let cube = Hypercube::for_nodes(32);
        let s = lp(&com);
        assert!(s.link_contention_free(&cube));
    }

    #[test]
    fn sparse_matrix_schedules_every_message_once() {
        let mut com = CommMatrix::new(8);
        com.set(0, 7, 10);
        com.set(3, 4, 10);
        com.set(4, 3, 10);
        let s = lp(&com);
        assert_eq!(s.num_phases(), 7); // always n-1, even when sparse
        assert_eq!(s.message_count(), 3);
        validate_schedule(&com, &s).unwrap();
        // 0->7 goes in phase k=7; 3<->4 in phase k=7 as well (3^4=7).
        let pm = s.phases().get(6).unwrap();
        assert_eq!(pm.dest(0), Some(NodeId(7)));
        assert_eq!(pm.exchange_pairs(), 1);
    }

    #[test]
    fn empty_matrix_gives_empty_phases() {
        let com = CommMatrix::new(4);
        let s = lp(&com);
        assert_eq!(s.num_phases(), 3);
        assert_eq!(s.message_count(), 0);
        validate_schedule(&com, &s).unwrap();
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_rejected() {
        lp(&CommMatrix::new(12));
    }

    #[test]
    fn op_count_is_per_processor_linear() {
        let com = dense(64, 8);
        let s = lp(&com);
        assert_eq!(s.ops(), 63);
        assert_eq!(s.compress_ops(), 0);
    }

    #[test]
    fn symmetric_pattern_is_all_exchanges() {
        let mut com = CommMatrix::new(16);
        for i in 0..16usize {
            let j = i ^ 5;
            com.set(i, j, 128);
        }
        let s = lp(&com);
        let cube = Hypercube::for_nodes(16);
        assert!(s.link_contention_free(&cube));
        let total_pairs: usize = s.phases().iter().map(|p| p.exchange_pairs()).sum();
        assert_eq!(total_pairs, 8); // 16 messages = 8 reciprocal pairs
    }
}
