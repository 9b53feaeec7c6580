use hypercube::NodeId;

/// The communication matrix `COM`.
///
/// `COM(i, j) = m > 0` means node `i` must send one `m`-byte message to node
/// `j`. The diagonal is forbidden (a node does not message itself through
/// the network). Row `i` is node `i`'s *send vector*; column `i` is its
/// *receive vector* (Section 2 of the paper).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommMatrix {
    n: usize,
    /// Row-major `n * n` byte counts; 0 = no message.
    data: Vec<u32>,
}

impl CommMatrix {
    /// An empty matrix for `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "matrix needs at least one node");
        CommMatrix {
            n,
            data: vec![0; n * n],
        }
    }

    /// Build from a row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n * n` or any diagonal entry is non-zero.
    pub fn from_rows(n: usize, data: Vec<u32>) -> Self {
        assert_eq!(data.len(), n * n, "buffer size mismatch");
        for i in 0..n {
            assert_eq!(data[i * n + i], 0, "self-message at node {i}");
        }
        CommMatrix { n, data }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Message size from `src` to `dst` (0 = none).
    #[inline]
    pub fn get(&self, src: usize, dst: usize) -> u32 {
        self.data[src * self.n + dst]
    }

    /// Set the message size from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices or `src == dst` with `bytes > 0`.
    pub fn set(&mut self, src: usize, dst: usize, bytes: u32) {
        assert!(src < self.n && dst < self.n, "node out of range");
        assert!(src != dst || bytes == 0, "self-message at node {src}");
        self.data[src * self.n + dst] = bytes;
    }

    /// Row `i` as a slice — node `i`'s send vector.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Iterate all messages as `(src, dst, bytes)`, row-major.
    ///
    /// Each row is scanned in 64-cell chunks: `occupancy` turns a chunk
    /// into a bit mask without a branch per cell, and the set bits are
    /// popped lowest first, so the cost follows the message count rather
    /// than one unpredictable branch for each of the `n²` cells.
    pub fn messages(&self) -> impl Iterator<Item = (NodeId, NodeId, u32)> + '_ {
        self.data
            .chunks_exact(self.n)
            .enumerate()
            .flat_map(|(i, row)| {
                row.chunks(64).enumerate().flat_map(move |(c, cells)| {
                    let mut mask = occupancy(cells);
                    std::iter::from_fn(move || {
                        (mask != 0).then(|| {
                            let k = mask.trailing_zeros() as usize;
                            mask &= mask - 1;
                            (NodeId(i as u32), NodeId((c * 64 + k) as u32), cells[k])
                        })
                    })
                })
            })
    }

    /// Total number of messages, counted per row in vectorizable `u32` lanes.
    pub fn message_count(&self) -> usize {
        self.data
            .chunks_exact(self.n)
            .map(|row| row.iter().map(|&b| u32::from(b > 0)).sum::<u32>() as usize)
            .sum()
    }

    /// Total bytes over all messages.
    pub fn total_bytes(&self) -> u64 {
        self.data.iter().map(|&b| b as u64).sum()
    }

    /// Out-degree of node `i` (messages sent).
    pub fn out_degree(&self, i: usize) -> usize {
        self.row(i).iter().filter(|&&b| b > 0).count()
    }

    /// In-degree of node `j` (messages received).
    pub fn in_degree(&self, j: usize) -> usize {
        (0..self.n).filter(|&i| self.get(i, j) > 0).count()
    }

    /// The paper's *density* `d`: the maximum number of messages any node
    /// sends or receives. At least `d` permutations are needed to route
    /// everything (Assumption 3). Counted in one [`CommMatrix::messages`] walk.
    pub fn density(&self) -> usize {
        let mut out = vec![0u32; self.n];
        let mut inn = vec![0u32; self.n];
        self.messages().for_each(|(src, dst, _)| {
            out[src.index()] += 1;
            inn[dst.index()] += 1;
        });
        out.iter()
            .zip(&inn)
            .map(|(&o, &i)| o.max(i))
            .max()
            .unwrap_or(0) as usize
    }

    /// The matrix under a node relabeling: `COM'(perm[i], perm[j]) =
    /// COM(i, j)`. With `perm` a topology automorphism the relabeled
    /// instance is isomorphic — same degrees, sizes, and (on the
    /// hypercube, for XOR translations) hop counts — which is what the
    /// metamorphic registry properties rely on.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..n`.
    pub fn relabeled(&self, perm: &[NodeId]) -> CommMatrix {
        assert_permutation(perm, self.n);
        let mut out = CommMatrix::new(self.n);
        for (src, dst, bytes) in self.messages() {
            out.set(perm[src.index()].index(), perm[dst.index()].index(), bytes);
        }
        out
    }

    /// Whether all messages share one size (the paper's experiments assume
    /// uniform sizes; [`crate::nonuniform`] lifts this).
    pub fn is_uniform(&self) -> bool {
        let mut sizes = self.data.iter().filter(|&&b| b > 0);
        match sizes.next() {
            None => true,
            Some(&first) => sizes.all(|&b| b == first),
        }
    }

    /// Whether the pattern is symmetric (`COM(i,j) > 0` iff `COM(j,i) > 0`);
    /// symmetric patterns let LP pair every message into an exchange.
    pub fn is_symmetric_pattern(&self) -> bool {
        (0..self.n).all(|i| (0..self.n).all(|j| (self.get(i, j) > 0) == (self.get(j, i) > 0)))
    }
}

/// Panic unless `perm` is a permutation of `0..n` (a relabeling).
pub(crate) fn assert_permutation(perm: &[NodeId], n: usize) {
    assert_eq!(perm.len(), n, "relabeling spans a different size");
    let mut seen = vec![false; n];
    for p in perm {
        assert!(
            !std::mem::replace(&mut seen[p.index()], true),
            "relabeling is not a permutation"
        );
    }
}

/// Bit `k` of the result is set iff `cells[k] != 0` (`cells.len() ≤ 64`).
///
/// No branch per cell: a whole chunk goes through [`occupancy64`] as it
/// is, and a row's shorter tail is zero-padded to one first.
fn occupancy(cells: &[u32]) -> u64 {
    match <&[u32; 64]>::try_from(cells) {
        Ok(whole) => occupancy64(whole),
        Err(_) => {
            let mut padded = [0u32; 64];
            padded[..cells.len()].copy_from_slice(cells);
            occupancy64(&padded)
        }
    }
}

/// [`occupancy`] of exactly 64 cells, as two 32-bit halves so that each
/// is an or-reduction over 32-bit lanes with a constant bit per position —
/// a form the compiler turns into vector compares and masks.
fn occupancy64(cells: &[u32; 64]) -> u64 {
    let mut halves = [0u32; 2];
    for (half, cells) in halves.iter_mut().zip(cells.chunks_exact(32)) {
        for (k, &bytes) in cells.iter().enumerate() {
            *half |= u32::from(bytes != 0) << k;
        }
    }
    u64::from(halves[0]) | u64::from(halves[1]) << 32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CommMatrix {
        let mut m = CommMatrix::new(4);
        m.set(0, 1, 100);
        m.set(0, 2, 100);
        m.set(1, 0, 50);
        m.set(3, 0, 100);
        m
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        CommMatrix::new(0);
    }

    #[test]
    #[should_panic(expected = "self-message")]
    fn diagonal_rejected() {
        let mut m = CommMatrix::new(4);
        m.set(2, 2, 1);
    }

    #[test]
    #[should_panic(expected = "self-message")]
    fn from_rows_rejects_diagonal() {
        CommMatrix::from_rows(2, vec![1, 0, 0, 0]);
    }

    #[test]
    fn zero_diagonal_set_is_allowed() {
        let mut m = CommMatrix::new(4);
        m.set(2, 2, 0); // a no-op, not an error
        assert_eq!(m.get(2, 2), 0);
    }

    #[test]
    fn degrees_and_density() {
        let m = sample();
        assert_eq!(m.out_degree(0), 2);
        assert_eq!(m.in_degree(0), 2);
        assert_eq!(m.out_degree(2), 0);
        assert_eq!(m.in_degree(2), 1);
        assert_eq!(m.density(), 2);
        assert_eq!(m.message_count(), 4);
        assert_eq!(m.total_bytes(), 350);
    }

    #[test]
    fn messages_iterator_matches_entries() {
        let m = sample();
        let msgs: Vec<_> = m.messages().collect();
        assert_eq!(msgs.len(), 4);
        assert!(msgs.contains(&(NodeId(1), NodeId(0), 50)));
    }

    /// What `messages()` promises, spelled as the double loop it replaces.
    fn naive_messages(m: &CommMatrix) -> Vec<(NodeId, NodeId, u32)> {
        let mut out = Vec::new();
        for i in 0..m.n() {
            for j in 0..m.n() {
                if m.get(i, j) > 0 {
                    out.push((NodeId(i as u32), NodeId(j as u32), m.get(i, j)));
                }
            }
        }
        out
    }

    fn assert_walk_matches(m: &CommMatrix, what: &str) {
        let walked: Vec<_> = m.messages().collect();
        assert_eq!(walked, naive_messages(m), "{what}, n = {}", m.n());
        assert_eq!(walked.len(), m.message_count(), "{what}, n = {}", m.n());
    }

    #[test]
    fn messages_equal_a_naive_double_loop_on_every_shape() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        // The sizes straddle the 64-cell chunk a row is scanned in; 100 is
        // `mesh:10x10`. Weights include 1 and `u32::MAX`.
        for n in [1usize, 8, 63, 64, 65, 100, 256] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            assert_walk_matches(&CommMatrix::new(n), "empty");
            let mut full = CommMatrix::new(n);
            let mut regular = CommMatrix::new(n);
            let mut dense = CommMatrix::new(n);
            let mut hot = CommMatrix::new(n);
            for i in 0..n {
                for j in (0..n).filter(|&j| j != i) {
                    full.set(i, j, if (i + j) % 2 == 0 { 1 } else { u32::MAX });
                    // Circulant: each node sends to its next 8 neighbours.
                    if (j + n - i) % n <= 8 {
                        regular.set(i, j, 1024);
                    }
                    if rng.random_bool(0.5) {
                        dense.set(i, j, rng.random_range(1..=u32::MAX));
                    }
                    // Two popular receivers and one node that sends to all.
                    if j < 2 || i == n / 2 {
                        hot.set(i, j, 256);
                    }
                }
            }
            assert_walk_matches(&full, "full off-diagonal");
            assert_walk_matches(&regular, "d-regular");
            assert_walk_matches(&dense, "dense");
            assert_walk_matches(&hot, "hot-spot");
        }

        // 2 000 random matrices at sizes that are not a multiple of 64,
        // with some rows entirely set and the last settable cell — the
        // last row's last off-diagonal one — always set.
        let mut rng = StdRng::seed_from_u64(2000);
        for case in 0..2000 {
            let n = loop {
                let n = rng.random_range(2..200usize);
                if n % 64 != 0 {
                    break n;
                }
            };
            let mut m = CommMatrix::new(n);
            let fill = [0.01, 0.1, 0.5, 0.9][case % 4];
            for i in 0..n {
                let whole_row = rng.random_bool(0.05);
                for j in (0..n).filter(|&j| j != i) {
                    if whole_row || rng.random_bool(fill) {
                        m.set(i, j, rng.random_range(1..=u32::MAX));
                    }
                }
            }
            m.set(n - 1, n - 2, u32::MAX);
            assert_walk_matches(&m, "random");
        }
    }

    #[test]
    fn uniformity() {
        let mut m = CommMatrix::new(3);
        assert!(m.is_uniform()); // vacuously
        m.set(0, 1, 10);
        m.set(1, 2, 10);
        assert!(m.is_uniform());
        m.set(2, 0, 20);
        assert!(!m.is_uniform());
    }

    #[test]
    fn symmetry() {
        let mut m = CommMatrix::new(3);
        m.set(0, 1, 10);
        assert!(!m.is_symmetric_pattern());
        m.set(1, 0, 99); // sizes may differ; the *pattern* is symmetric
        assert!(m.is_symmetric_pattern());
    }

    #[test]
    fn row_slices() {
        let m = sample();
        assert_eq!(m.row(0), &[0, 100, 100, 0]);
        assert_eq!(m.row(2), &[0, 0, 0, 0]);
    }
}
