use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::algorithms::RsOptions;
use crate::{CommMatrix, CompressedMatrix, Schedule, ScheduleKind, SchedulerKind, SILENT};

/// Randomized scheduling avoiding node contention — `RS_N`
/// (Section 4.2, Figure 3).
///
/// The algorithm repeatedly builds a partial permutation: starting from a
/// random row `x`, it sweeps all `n` rows (cyclically); for each row it
/// takes the first live `CCOM` entry whose destination is still free this
/// phase (`Trecv[y] = -1`), claims the pair in `Tsend`/`Trecv`, and
/// swap-deletes the entry. Sweeping continues until every message of the
/// matrix has been placed in some phase.
///
/// Expected behaviour proven in the paper (and asserted by this crate's
/// property tests): ~`d + log d` phases for density-`d` random traffic, and
/// `O(n ln d + n)` work per phase, after an O(messages) compression.
///
/// `seed` drives both the row shuffling of the compression step and the
/// per-phase starting row; schedules are deterministic given
/// `(matrix, seed)`.
pub fn rs_n(com: &CommMatrix, seed: u64) -> Schedule {
    rs_n_with(com, seed, RsOptions::default())
}

/// [`rs_n`] with explicit [`RsOptions`] (ablations).
pub fn rs_n_with(com: &CommMatrix, seed: u64, opts: RsOptions) -> Schedule {
    let mut rng = StdRng::seed_from_u64(seed);
    let ccom = CompressedMatrix::compress_with(com, opts.randomize_rows, &mut rng);
    sweep(ccom, rng, opts.random_start, |row, _, free| {
        let chosen = row.iter().position(|&y| free[y as usize]);
        // One op per CCOM slot scanned, the chosen one included.
        (chosen, chosen.map_or(row.len(), |z| z + 1))
    })
}

/// RS_N's phase loop over `ccom`; `pick` chooses each row's slot and charges its ops.
pub(crate) fn sweep(
    mut ccom: CompressedMatrix,
    mut rng: StdRng,
    random_start: bool,
    mut pick: impl FnMut(&[i32], &[u32], &[bool]) -> (Option<usize>, usize),
) -> Schedule {
    let n = ccom.n();
    let mut ops: u64 = 0;
    let mut table = Vec::new();
    // `Trecv` as a free-receiver table; `Tsend` is the phase's row.
    let mut free: Vec<bool> = vec![true; n];

    while ccom.total_remaining() > 0 {
        free.fill(true);
        let at = table.len();
        table.resize(at + n, SILENT);
        ops += n as u64; // per-phase Tsend/Trecv initialization
        let start = if random_start {
            rng.random_range(0..n)
        } else {
            0
        };
        for x in (start..n).chain(0..start) {
            ops += 1; // visiting row x
            let (chosen, spent) = pick(ccom.live_row(x), ccom.live_messages(x), &free);
            ops += spent as u64;
            if let Some(z) = chosen {
                let y = ccom.live_row(x)[z] as usize;
                table[at + x] = y as u32;
                free[y] = false;
                ccom.remove(x, z);
            }
        }
    }

    // The compression cost reported to the cost model is the paper's
    // *parallel runtime* figure O(dn + tau*log n) per processor: each node
    // compacts its own row (n slots) and receives the concatenated n*d
    // table. The sequential count lives on `CompressedMatrix::ops`.
    let compress_ops = (n + ccom.width() * n) as u64;
    Schedule::from_parts(
        ScheduleKind::Phased,
        SchedulerKind::RsN,
        n,
        table,
        ops,
        compress_ops,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_schedule;

    /// Every node sends to the `d` nodes after it (a d-regular pattern).
    fn shift_pattern(n: usize, d: usize, bytes: u32) -> CommMatrix {
        let mut m = CommMatrix::new(n);
        for i in 0..n {
            for k in 1..=d {
                m.set(i, (i + k) % n, bytes);
            }
        }
        m
    }

    #[test]
    fn schedules_everything_exactly_once() {
        let com = shift_pattern(16, 5, 100);
        let s = rs_n(&com, 99);
        validate_schedule(&com, &s).unwrap();
        assert_eq!(s.message_count(), 16 * 5);
    }

    #[test]
    fn phases_are_partial_permutations() {
        let com = shift_pattern(32, 7, 100);
        let s = rs_n(&com, 1);
        for pm in s.phases() {
            assert!(pm.is_partial_permutation());
        }
    }

    #[test]
    fn phase_count_near_density() {
        // The paper: #phases upper-bounded by roughly d + log d for random
        // traffic. The shift pattern is d-regular, so d is a hard floor.
        let d = 8;
        let com = shift_pattern(64, d, 100);
        let s = rs_n(&com, 5);
        assert!(s.num_phases() >= d);
        assert!(
            s.num_phases() <= d + 8,
            "too many phases: {}",
            s.num_phases()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let com = shift_pattern(32, 6, 100);
        let a = rs_n(&com, 7);
        let b = rs_n(&com, 7);
        assert_eq!(a.phases(), b.phases());
        assert_eq!(a.ops(), b.ops());
        let c = rs_n(&com, 8);
        // Different seed almost surely gives a different schedule.
        assert_ne!(a.phases(), c.phases());
    }

    #[test]
    fn empty_matrix_needs_no_phases() {
        let com = CommMatrix::new(8);
        let s = rs_n(&com, 0);
        assert_eq!(s.num_phases(), 0);
        validate_schedule(&com, &s).unwrap();
    }

    #[test]
    fn single_message() {
        let mut com = CommMatrix::new(8);
        com.set(3, 5, 42);
        let s = rs_n(&com, 0);
        assert_eq!(s.num_phases(), 1);
        assert_eq!(
            s.phases().get(0).unwrap().dest(3),
            Some(hypercube::NodeId(5))
        );
        validate_schedule(&com, &s).unwrap();
    }

    #[test]
    fn hotspot_receiver_serializes_across_phases() {
        // Seven senders to one receiver: node contention forces one phase
        // per message no matter what.
        let mut com = CommMatrix::new(8);
        for i in 1..8 {
            com.set(i, 0, 10);
        }
        let s = rs_n(&com, 3);
        assert_eq!(s.num_phases(), 7);
        validate_schedule(&com, &s).unwrap();
    }

    #[test]
    fn no_randomization_still_correct_but_clusters() {
        let com = shift_pattern(64, 8, 100);
        let opts = RsOptions {
            randomize_rows: false,
            random_start: false,
            ..RsOptions::default()
        };
        let s = rs_n_with(&com, 0, opts);
        validate_schedule(&com, &s).unwrap();
        for pm in s.phases() {
            assert!(pm.is_partial_permutation());
        }
    }

    #[test]
    fn ops_grow_with_density() {
        let lo = rs_n(&shift_pattern(64, 4, 10), 0);
        let hi = rs_n(&shift_pattern(64, 32, 10), 0);
        assert!(hi.ops() > lo.ops() * 3);
    }
}
