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
    sweep(ccom, rng, opts.random_start, SchedulerKind::RsN, |v| {
        let row = v.ccom.live_row(v.x);
        let chosen = row.iter().position(|&y| v.free[y as usize]);
        // One op per CCOM slot scanned, the chosen one included.
        let spent = chosen.map_or(row.len(), |z| z + 1);
        (chosen.map_or(Pick::Silent, Pick::Slot), spent as u64)
    })
}

/// What a row rule sees: row `x` of `ccom` in phase `phase` (counted from
/// 0), with the phase's `Tsend` so far and its `Trecv` as a free-receiver
/// table.
pub(crate) struct RowView<'a> {
    pub(crate) phase: usize,
    pub(crate) x: usize,
    pub(crate) ccom: &'a CompressedMatrix,
    /// `tsend[i]` is the node `i` sends to this phase, or [`SILENT`].
    pub(crate) tsend: &'a [u32],
    /// `free[y]`: nobody sends to `y` yet this phase.
    pub(crate) free: &'a [bool],
}

/// A row rule's answer: the live slot of row `x` to place this phase, if
/// any; a pair also names the slot of the reciprocal message `y -> x` in
/// row `y`, and both are placed.
pub(crate) enum Pick {
    Silent,
    Slot(usize),
    Pair(usize, usize),
}

/// The phase loop of every randomized scheduler (Figures 3 and 4): while
/// `ccom` holds a live message, open a phase (`Tsend`, `Trecv`), pick a
/// start row, and visit every row once, cyclically. A row already sending
/// (the far side of a pair) is passed over; any other asks `rule`, which
/// returns its pick and the ops it spent, and the pick is placed and
/// swap-deleted from `ccom`.
pub(crate) fn sweep(
    mut ccom: CompressedMatrix,
    mut rng: StdRng,
    random_start: bool,
    kind: SchedulerKind,
    mut rule: impl FnMut(RowView<'_>) -> (Pick, u64),
) -> Schedule {
    let n = ccom.n();
    let mut ops: u64 = 0;
    let mut table = Vec::new();
    // `Trecv` as a free-receiver table; `Tsend` is the phase's row.
    let mut free: Vec<bool> = vec![true; n];

    while ccom.total_remaining() > 0 {
        free.fill(true);
        let at = table.len();
        let phase = at / n;
        table.resize(at + n, SILENT);
        let tsend = &mut table[at..];
        ops += n as u64; // per-phase Tsend/Trecv initialization
        let start = if random_start {
            rng.random_range(0..n)
        } else {
            0
        };
        for x in (start..n).chain(0..start) {
            ops += 1; // visiting row x
            if tsend[x] != SILENT {
                continue;
            }
            let view = RowView {
                phase,
                x,
                ccom: &ccom,
                tsend,
                free: &free,
            };
            let (pick, spent) = rule(view);
            ops += spent;
            let (z, back) = match pick {
                Pick::Silent => continue,
                Pick::Slot(z) => (z, None),
                Pick::Pair(z, back) => (z, Some(back)),
            };
            let y = ccom.live_row(x)[z] as usize;
            tsend[x] = y as u32;
            free[y] = false;
            ccom.remove(x, z);
            if let Some(back) = back {
                tsend[y] = x as u32;
                free[x] = false;
                ccom.remove(y, back);
            }
        }
        // An empty phase would repeat forever, the table growing each time.
        assert!(tsend.iter().any(|&t| t != SILENT), "{kind:?}: empty phase");
    }

    // The compression cost reported to the cost model is the paper's
    // *parallel runtime* figure O(dn + tau*log n) per processor: each node
    // compacts its own row (n slots) and receives the concatenated n*d
    // table. The sequential count lives on `CompressedMatrix::ops`.
    let compress_ops = (n + ccom.width() * n) as u64;
    Schedule::from_parts(ScheduleKind::Phased, kind, n, table, ops, compress_ops)
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
