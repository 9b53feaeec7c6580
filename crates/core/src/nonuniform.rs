//! Non-uniform message sizes (the extension the paper defers to the
//! thesis, reference 15 of the paper).
//!
//! The experiments in the paper assume every message has the same size, in
//! which case a phase's cost is `tau + M*phi` regardless of which messages
//! share it. With non-uniform sizes a phase costs `tau + max(M)*phi`: one
//! huge message in a phase of small ones wastes everyone's time. The
//! largest-first heuristic here packs big messages together by scanning
//! each `CCOM` row for the largest feasible candidate instead of the first
//! one, shrinking the sum over phases of the per-phase maximum.

use std::cmp::Reverse;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::algorithms::rs_n::{sweep, Pick};
use crate::{CommMatrix, CompressedMatrix, Schedule, SchedulerKind};

/// RS_N with a largest-first row scan for non-uniform message sizes.
///
/// Identical to [`crate::rs_n`] in structure (random sweep start, one
/// message per node per phase, node-contention-free by construction), but
/// each row picks the feasible candidate with the **largest byte count**,
/// so that big messages ride together and small messages do not get
/// stranded in expensive phases.
pub fn rs_n_largest_first(com: &CommMatrix, seed: u64) -> Schedule {
    // CCOM unshuffled; a slot's size is its message's.
    let (_, _, sizes) = com.columns();
    let ccom = CompressedMatrix::in_row_order(com);
    let rng = StdRng::seed_from_u64(seed);
    sweep(ccom, rng, true, SchedulerKind::RsN, |v| {
        let (row, msgs) = (v.ccom.live_row(v.x), v.ccom.live_messages(v.x));
        let feasible = (0..row.len()).filter(|&z| v.free[row[z] as usize]);
        // The first of the largest; one op per live slot.
        let best = feasible.max_by_key(|&z| (sizes[msgs[z] as usize], Reverse(z)));
        (best.map_or(Pick::Silent, Pick::Slot), row.len() as u64)
    })
}

/// The largest message of each phase — the size that dictates the phase's
/// cost under the `tau + max(M)*phi` model.
pub fn phase_max_bytes(schedule: &Schedule, com: &CommMatrix) -> Vec<u32> {
    schedule
        .phases()
        .iter()
        .map(|pm| {
            pm.pairs()
                .map(|(s, d)| com.get(s.index(), d.index()))
                .max()
                .unwrap_or(0)
        })
        .collect()
}

/// Estimate a phased schedule's communication cost under a caller-supplied
/// per-phase cost function of the phase's largest message
/// (`tau + max(M)*phi` in the paper's model).
pub fn estimate_phased_cost(
    schedule: &Schedule,
    com: &CommMatrix,
    phase_cost: impl Fn(u32) -> u64,
) -> u64 {
    phase_max_bytes(schedule, com)
        .into_iter()
        .filter(|&m| m > 0)
        .map(phase_cost)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{rs_n, validate_schedule};
    use rand::RngExt;

    /// Bimodal traffic: a few huge messages among many small ones.
    fn bimodal(n: usize, d: usize, seed: u64) -> CommMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = CommMatrix::new(n);
        for i in 0..n {
            let mut placed = 0;
            while placed < d {
                let j = rng.random_range(0..n);
                if j != i && m.get(i, j) == 0 {
                    let bytes = if rng.random_range(0..8u32) == 0 {
                        131_072
                    } else {
                        256
                    };
                    m.set(i, j, bytes);
                    placed += 1;
                }
            }
        }
        m
    }

    fn model(max_bytes: u32) -> u64 {
        160_000 + max_bytes as u64 * 357
    }

    #[test]
    fn still_a_valid_schedule() {
        let com = bimodal(32, 6, 1);
        let s = rs_n_largest_first(&com, 1);
        validate_schedule(&com, &s).unwrap();
        for pm in s.phases() {
            assert!(pm.is_partial_permutation());
        }
    }

    #[test]
    fn beats_plain_rs_n_on_bimodal_traffic() {
        // Averaged over seeds, packing large messages together must reduce
        // the sum of per-phase maxima.
        let mut wins = 0;
        for seed in 0..10 {
            let com = bimodal(64, 12, seed);
            let plain = estimate_phased_cost(&rs_n(&com, seed), &com, model);
            let lf = estimate_phased_cost(&rs_n_largest_first(&com, seed), &com, model);
            if lf <= plain {
                wins += 1;
            }
        }
        assert!(wins >= 7, "largest-first won only {wins}/10 trials");
    }

    #[test]
    fn equals_rs_n_behaviour_on_uniform_traffic() {
        // With uniform sizes, largest-first degenerates to "any feasible",
        // so phase counts stay in the same ballpark.
        let mut com = CommMatrix::new(16);
        for i in 0..16 {
            for k in 1..=4 {
                com.set(i, (i + k) % 16, 512);
            }
        }
        let a = rs_n_largest_first(&com, 3);
        let b = rs_n(&com, 3);
        validate_schedule(&com, &a).unwrap();
        assert!(a.num_phases() <= b.num_phases() + 3);
    }

    #[test]
    fn phase_max_bytes_reports_maxima() {
        let mut com = CommMatrix::new(4);
        com.set(0, 1, 100);
        com.set(2, 3, 900);
        let s = rs_n(&com, 0);
        let maxima = phase_max_bytes(&s, &com);
        assert_eq!(maxima.iter().copied().max(), Some(900));
    }

    #[test]
    fn estimate_skips_empty_phases() {
        let com = CommMatrix::new(4);
        let s = rs_n(&com, 0);
        assert_eq!(estimate_phased_cost(&s, &com, model), 0);
    }
}
