use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::CommMatrix;

/// The compressed communication matrix `CCOM` (Section 4.2).
///
/// The `n x n` matrix `COM` is sparse (each node sends at most `d << n`
/// messages), so scanning it per phase would cost `O(n^2)`. Compression
/// packs the active entries of every row into one flat table, row after
/// row, improving a full scan to `O(messages) ≤ O(dn)`. Set-up copies the
/// table [`CommMatrix`] already keeps: O(messages) too.
///
/// Each row's entries are **randomly shuffled** — the paper requires this to
/// keep the expected number of receiver collisions bounded: without it the
/// active entries sit in ascending destination order and the early phases
/// pile node contention onto small node ids (reproduced by the
/// `randomization` ablation bench).
#[derive(Clone, Debug)]
pub struct CompressedMatrix {
    width: usize,
    /// Destination node ids; row `i` owns `slots[start[i]..start[i + 1]]`.
    slots: Vec<i32>,
    /// Each slot's message index ([`CommMatrix::messages`] order).
    msgs: Vec<u32>,
    start: Vec<usize>,
    /// `prt[i]` = number of live entries remaining in row `i` (the paper's
    /// pointer vector, kept as a count: live entries lead the row).
    prt: Vec<usize>,
    /// Abstract operations spent compressing (for the cost model).
    ops: u64,
}

impl CompressedMatrix {
    /// Compress `com`, shuffling each row with the given seed.
    pub fn compress(com: &CommMatrix, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::compress_with(com, true, &mut rng)
    }

    /// Compression with the randomization toggle exposed (ablation: the
    /// paper explains why the shuffle is necessary; turning it off shows
    /// the node-contention clustering it prevents).
    pub fn compress_with(com: &CommMatrix, randomize: bool, rng: &mut StdRng) -> Self {
        let mut ccom = Self::in_row_order(com);
        if randomize {
            // The shuffle permutes message indices; the slots follow.
            for row in ccom.start.windows(2) {
                ccom.msgs[row[0]..row[1]].shuffle(rng);
            }
            let (_, dsts, _) = com.columns();
            for (slot, &k) in ccom.slots.iter_mut().zip(&ccom.msgs) {
                *slot = dsts[k as usize] as i32;
            }
            ccom.ops += ccom.slots.len() as u64;
        }
        ccom
    }

    /// The rows unshuffled, destinations ascending. [`CompressedMatrix::ops`]
    /// is the paper's sequential figure: the scan touches every entry once.
    pub(crate) fn in_row_order(com: &CommMatrix) -> Self {
        let n = com.n();
        let (offsets, dsts, _) = com.columns();
        let prt: Vec<usize> = offsets.windows(2).map(|row| row[1] - row[0]).collect();
        CompressedMatrix {
            width: prt.iter().copied().max().unwrap_or(0).max(1),
            slots: dsts.iter().map(|&d| d as i32).collect(),
            msgs: (0..u32::try_from(dsts.len()).expect("message index outgrew u32")).collect(),
            start: offsets.to_vec(),
            prt,
            ops: (n * n) as u64,
        }
    }

    /// Number of nodes (rows).
    pub fn n(&self) -> usize {
        self.prt.len()
    }

    /// The largest row degree, at least 1 (the paper's table width `d`).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Live entries remaining in row `i`.
    #[inline]
    pub fn remaining(&self, i: usize) -> usize {
        self.prt[i]
    }

    /// Total live entries across all rows.
    pub fn total_remaining(&self) -> usize {
        self.prt.iter().sum()
    }

    /// The live destinations of row `i` (its first `prt[i]` slots).
    #[inline]
    pub fn live_row(&self, i: usize) -> &[i32] {
        &self.slots[self.start[i]..self.start[i] + self.prt[i]]
    }

    /// The message index of each slot of [`live_row`](Self::live_row)`(i)`.
    pub(crate) fn live_messages(&self, i: usize) -> &[u32] {
        &self.msgs[self.start[i]..self.start[i] + self.prt[i]]
    }

    /// Remove the live entry at slot `z` of row `i` (the paper's
    /// `CCOM(x,z) := CCOM(x,prt(x)); prt(x) -= 1` swap-delete).
    ///
    /// # Panics
    ///
    /// Panics if `z` is not a live slot.
    pub fn remove(&mut self, i: usize, z: usize) {
        let live = self.prt[i];
        assert!(z < live, "slot {z} of row {i} is not live (live = {live})");
        let base = self.start[i];
        self.slots.swap(base + z, base + live - 1);
        self.msgs.swap(base + z, base + live - 1);
        self.prt[i] = live - 1;
    }

    /// Compression cost in abstract operations.
    pub fn ops(&self) -> u64 {
        self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CommMatrix {
        let mut m = CommMatrix::new(6);
        m.set(0, 1, 10);
        m.set(0, 3, 10);
        m.set(0, 5, 10);
        m.set(2, 4, 10);
        m.set(4, 0, 10);
        m.set(4, 2, 10);
        m
    }

    #[test]
    fn live_rows_hold_all_destinations() {
        let com = sample();
        let c = CompressedMatrix::compress(&com, 7);
        assert_eq!(c.n(), 6);
        assert_eq!(c.width(), 3);
        let mut row0: Vec<i32> = c.live_row(0).to_vec();
        row0.sort_unstable();
        assert_eq!(row0, vec![1, 3, 5]);
        assert_eq!(c.remaining(1), 0);
        assert_eq!(c.live_row(1), &[] as &[i32]);
        assert_eq!(c.total_remaining(), 6);
    }

    #[test]
    fn remove_swap_deletes() {
        let com = sample();
        let mut c = CompressedMatrix::compress(&com, 7);
        let before: Vec<i32> = c.live_row(0).to_vec();
        c.remove(0, 0);
        assert_eq!(c.remaining(0), 2);
        let after: Vec<i32> = c.live_row(0).to_vec();
        // The removed element is gone; the others survive.
        for v in &after {
            assert!(before.contains(v));
        }
        assert_eq!(after.len(), 2);
        c.remove(0, 1);
        c.remove(0, 0);
        assert_eq!(c.remaining(0), 0);
        assert_eq!(c.total_remaining(), 3);
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn remove_dead_slot_panics() {
        let com = sample();
        let mut c = CompressedMatrix::compress(&com, 7);
        c.remove(1, 0); // row 1 is empty
    }

    #[test]
    fn deterministic_for_seed() {
        let com = sample();
        let a = CompressedMatrix::compress(&com, 42);
        let b = CompressedMatrix::compress(&com, 42);
        assert_eq!(a.slots, b.slots);
    }

    #[test]
    fn unrandomized_rows_are_ascending() {
        let com = sample();
        let mut rng = StdRng::seed_from_u64(0);
        let c = CompressedMatrix::compress_with(&com, false, &mut rng);
        assert_eq!(c.live_row(0), &[1, 3, 5]);
        assert_eq!(c.live_row(4), &[0, 2]);
    }

    #[test]
    fn width_is_at_least_one_even_for_empty_matrices() {
        let com = CommMatrix::new(4);
        let c = CompressedMatrix::compress(&com, 0);
        assert_eq!(c.width(), 1);
        assert_eq!(c.total_remaining(), 0);
    }

    #[test]
    fn ops_scale_with_matrix_size() {
        let com = sample();
        let c = CompressedMatrix::compress(&com, 7);
        // At least one op per matrix entry.
        assert!(c.ops() >= 36);
    }
}
