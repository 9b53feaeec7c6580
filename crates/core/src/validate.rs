use std::fmt;

use crate::{CommMatrix, Schedule, ScheduleKind, SILENT};

/// Why a schedule fails validation against its communication matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// Schedule and matrix disagree on the node count.
    WrongSize {
        /// Nodes in the matrix.
        matrix: usize,
        /// Nodes in the schedule.
        schedule: usize,
    },
    /// A phase violates the partial-permutation property (two senders
    /// target one receiver, or a node sends to itself).
    NotPermutation {
        /// Offending phase index.
        phase: usize,
    },
    /// A scheduled message does not exist in the matrix.
    UnknownMessage {
        /// Phase index.
        phase: usize,
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
    },
    /// A message appears in more than one phase (the decomposition must be
    /// disjoint: "there exists a *unique* k such that pm_k(i) = j").
    DuplicateMessage {
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
    },
    /// A message of the matrix appears in no phase.
    MissingMessage {
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::WrongSize { matrix, schedule } => {
                write!(f, "matrix has {matrix} nodes, schedule {schedule}")
            }
            ValidationError::NotPermutation { phase } => {
                write!(f, "phase {phase} is not a partial permutation")
            }
            ValidationError::UnknownMessage { phase, src, dst } => {
                write!(
                    f,
                    "phase {phase} schedules {src}->{dst} which is not in COM"
                )
            }
            ValidationError::DuplicateMessage { src, dst } => {
                write!(f, "message {src}->{dst} scheduled more than once")
            }
            ValidationError::MissingMessage { src, dst } => {
                write!(f, "message {src}->{dst} never scheduled")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Check that `schedule` is a correct decomposition of `com`:
///
/// 1. every phase is a partial permutation (node-contention freedom),
/// 2. every scheduled message exists in `com`,
/// 3. every message of `com` is scheduled **exactly once**.
///
/// [`ScheduleKind::Async`] schedules are vacuously valid (the runtime sends
/// straight from the matrix) apart from the size check.
///
/// One pass over the phase table; its two tables (a bit per message
/// already scheduled, a phase stamp per receiver) are allocated once.
///
/// # Errors
///
/// The first violation found, as a [`ValidationError`]: phases in order,
/// and within a phase a node collision before the first bad message in
/// sender order; then the first missing message in row-major order.
pub fn validate_schedule(com: &CommMatrix, schedule: &Schedule) -> Result<(), ValidationError> {
    use ValidationError::{DuplicateMessage, MissingMessage, NotPermutation, UnknownMessage};
    let n = com.n();
    if schedule.n() != n {
        return Err(ValidationError::WrongSize {
            matrix: n,
            schedule: schedule.n(),
        });
    }
    if schedule.kind() == ScheduleKind::Async {
        return Ok(());
    }
    // Bit `k % 64` of word `k / 64` is set once message `k` (in
    // `messages()` order) is.
    let mut scheduled = vec![0u64; com.message_count().div_ceil(64)];
    let mut placed = 0;
    // `claimed_by_phase[d] = k + 1` once phase `k` has a sender to `d`.
    let mut claimed_by_phase = vec![0usize; n];
    for (k, pm) in schedule.phases().iter().enumerate() {
        // A collision anywhere in the phase outranks its bad messages.
        let mut first_bad = None;
        for (src, &w) in pm.words().iter().enumerate() {
            if w == SILENT {
                continue;
            }
            let dst = w as usize;
            if dst == src || claimed_by_phase[dst] == k + 1 {
                return Err(NotPermutation { phase: k });
            }
            claimed_by_phase[dst] = k + 1;
            if first_bad.is_some() {
                continue;
            }
            first_bad = match com.locate(src, dst).ok() {
                None => Some(UnknownMessage { phase: k, src, dst }),
                Some(m) if scheduled[m / 64] & 1 << (m % 64) != 0 => {
                    Some(DuplicateMessage { src, dst })
                }
                Some(m) => {
                    scheduled[m / 64] |= 1 << (m % 64);
                    placed += 1;
                    None
                }
            };
        }
        first_bad.map_or(Ok(()), Err)?;
    }
    // Each placed message is known and placed once, so only a short count
    // leaves one missing.
    if placed == com.message_count() {
        return Ok(());
    }
    let (src, dst) = com
        .messages()
        .enumerate()
        .find(|&(m, _)| scheduled[m / 64] & 1 << (m % 64) == 0)
        .map(|(_, (s, d, _))| (s.index(), d.index()))
        .expect("a short count leaves a message unscheduled");
    Err(MissingMessage { src, dst })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchedulerKind;
    use hypercube::NodeId;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    const S: u32 = SILENT;

    fn com3() -> CommMatrix {
        let mut m = CommMatrix::new(3);
        m.set(0, 1, 5);
        m.set(1, 2, 5);
        m
    }

    fn phased(n: usize, table: Vec<u32>) -> Schedule {
        Schedule::from_parts(ScheduleKind::Phased, SchedulerKind::RsN, n, table, 0, 0)
    }

    #[test]
    fn accepts_correct_schedule() {
        validate_schedule(&com3(), &phased(3, vec![1, 2, S])).unwrap();
    }

    #[test]
    fn rejects_wrong_size() {
        let s = phased(4, vec![]);
        assert!(matches!(
            validate_schedule(&com3(), &s),
            Err(ValidationError::WrongSize { .. })
        ));
    }

    #[test]
    fn rejects_missing_message() {
        let err = validate_schedule(&com3(), &phased(3, vec![1, S, S])).unwrap_err();
        assert_eq!(err, ValidationError::MissingMessage { src: 1, dst: 2 });
        assert!(err.to_string().contains("never scheduled"));
    }

    #[test]
    fn rejects_duplicate_message() {
        let err = validate_schedule(&com3(), &phased(3, vec![1, 2, S, 1, S, S])).unwrap_err();
        assert_eq!(err, ValidationError::DuplicateMessage { src: 0, dst: 1 });
    }

    #[test]
    fn rejects_unknown_message() {
        let err = validate_schedule(&com3(), &phased(3, vec![S, S, 0])).unwrap_err();
        assert!(matches!(err, ValidationError::UnknownMessage { .. }));
    }

    #[test]
    fn rejects_node_contention() {
        let err = validate_schedule(&com3(), &phased(3, vec![2, 2, S])).unwrap_err();
        assert!(matches!(err, ValidationError::NotPermutation { .. }));
    }

    #[test]
    fn async_is_vacuously_valid() {
        let s = crate::ac(&com3());
        validate_schedule(&com3(), &s).unwrap();
    }

    /// The validator as it was written over one `Vec<Option<NodeId>>` per
    /// phase: each phase checked whole by an allocating partial-permutation
    /// test, then its pairs against an `n × n` bool table.
    fn reference_validate(
        com: &CommMatrix,
        n: usize,
        phases: &[Vec<Option<NodeId>>],
    ) -> Result<(), ValidationError> {
        if n != com.n() {
            return Err(ValidationError::WrongSize {
                matrix: com.n(),
                schedule: n,
            });
        }
        let pairs = |pm: &[Option<NodeId>]| -> Vec<(usize, usize)> {
            pm.iter()
                .enumerate()
                .filter_map(|(i, d)| d.map(|d| (i, d.index())))
                .collect()
        };
        let mut seen = vec![false; n * n];
        for (k, pm) in phases.iter().enumerate() {
            let mut receives = vec![false; n];
            for (s, d) in pairs(pm) {
                if s == d || receives[d] {
                    return Err(ValidationError::NotPermutation { phase: k });
                }
                receives[d] = true;
            }
            for (s, d) in pairs(pm) {
                if com.get(s, d) == 0 {
                    return Err(ValidationError::UnknownMessage {
                        phase: k,
                        src: s,
                        dst: d,
                    });
                }
                if seen[s * n + d] {
                    return Err(ValidationError::DuplicateMessage { src: s, dst: d });
                }
                seen[s * n + d] = true;
            }
        }
        for (src, dst, _) in com.messages() {
            if !seen[src.index() * n + dst.index()] {
                return Err(ValidationError::MissingMessage {
                    src: src.index(),
                    dst: dst.index(),
                });
            }
        }
        Ok(())
    }

    /// A random matrix on `n` nodes, each sender with up to `d` messages.
    fn random_com(rng: &mut StdRng, n: usize, d: usize) -> CommMatrix {
        let mut com = CommMatrix::new(n);
        for i in 0..n {
            for _ in 0..rng.random_range(0..=d) {
                let j = rng.random_range(0..n);
                if j != i {
                    com.set(i, j, 64);
                }
            }
        }
        com
    }

    /// Valid schedules from every registry entry, then each damaged by a
    /// few random word edits (a retarget, a silenced sender, a self-send,
    /// a message copied into another phase): the flat validator returns
    /// exactly the reference's `Result`, variant and fields included.
    #[test]
    fn differential_validate_matches_the_nested_reference() {
        let mut rng = StdRng::seed_from_u64(27);
        let cube = hypercube::Hypercube::new(4);
        let mut verdicts = [0usize; 6];
        for case in 0..400 {
            let n = 16;
            let com = random_com(&mut rng, n, 1 + case % 6);
            let entry = crate::registry::all()[1 + case % 7];
            let valid = entry.schedule(&com, &cube, case as u64);
            let mut table = valid.table().to_vec();
            for _ in 0..(case % 4) {
                if table.is_empty() {
                    break;
                }
                let at = rng.random_range(0..table.len());
                table[at] = match rng.random_range(0..4u32) {
                    0 => rng.random_range(0..n as u32),
                    1 => S,
                    2 => (at % n) as u32,
                    _ => table[rng.random_range(0..table.len())],
                };
            }
            // A schedule whose width disagrees with the matrix, now and then.
            let width = if case % 50 == 49 { 8 } else { n };
            table.truncate(table.len() / width * width);
            let schedule = phased(width, table);
            let nested: Vec<Vec<Option<NodeId>>> = schedule
                .phases()
                .iter()
                .map(|pm| (0..width).map(|i| pm.dest(i)).collect())
                .collect();
            let want = reference_validate(&com, width, &nested);
            assert_eq!(validate_schedule(&com, &schedule), want, "case {case}");
            verdicts[match want {
                Ok(()) => 0,
                Err(ValidationError::WrongSize { .. }) => 1,
                Err(ValidationError::NotPermutation { .. }) => 2,
                Err(ValidationError::UnknownMessage { .. }) => 3,
                Err(ValidationError::DuplicateMessage { .. }) => 4,
                Err(ValidationError::MissingMessage { .. }) => 5,
            }] += 1;
        }
        assert!(
            verdicts.iter().all(|&v| v > 0),
            "every verdict drawn: {verdicts:?}"
        );
    }
}
