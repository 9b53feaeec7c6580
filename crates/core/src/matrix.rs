//! `COM` stored as the paper's compressed `CCOM` (Section 4.2): a sorted
//! CSR table with one entry per message. Only this module knows the layout.

use std::fmt;

use hypercube::NodeId;

/// The communication matrix `COM`.
///
/// `COM(i, j) = m > 0` means node `i` must send one `m`-byte message to node
/// `j`. The diagonal is forbidden (a node does not message itself through
/// the network). Row `i` is node `i`'s *send vector*; column `i` is its
/// *receive vector* (Section 2 of the paper).
///
/// Row `i` owns entries `offsets[i]..offsets[i + 1]`; entry `k` is the
/// message `(dst[k], bytes[k])`, row-major with destinations strictly
/// ascending in a row, off the diagonal and `bytes[k] > 0`. The table is a
/// function of the messages, so `PartialEq` is structural. Costs follow the
/// message count: [`set`](Self::set) shifts the entries after it, and bulk
/// builders use [`from_messages`](Self::from_messages).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommMatrix {
    n: usize,
    offsets: Vec<usize>,
    dst: Vec<u32>,
    bytes: Vec<u32>,
}

/// Why a list of messages is no matrix, displayed as `Submit` decoding reports it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MatrixError {
    /// An endpoint lies outside `0..n`.
    OutOfRange { src: usize, dst: usize, n: usize },
    /// A node messages itself.
    SelfMessage { node: usize },
    /// A message carries zero bytes.
    ZeroBytes { src: usize, dst: usize },
    /// A cell is listed twice.
    Duplicate { src: usize, dst: usize },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::OutOfRange { src, dst, n } => {
                write!(f, "message endpoint {} out of {n} nodes", src.max(dst))
            }
            MatrixError::SelfMessage { node } => write!(f, "self-message at node {node}"),
            MatrixError::ZeroBytes { src, dst } => write!(f, "zero-byte message {src} -> {dst}"),
            MatrixError::Duplicate { src, dst } => write!(f, "duplicate message {src} -> {dst}"),
        }
    }
}

impl std::error::Error for MatrixError {}

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
            offsets: vec![0; n + 1],
            dst: Vec::new(),
            bytes: Vec::new(),
        }
    }

    /// The matrix of `messages`, listed in any order (`n > 0`).
    ///
    /// # Errors
    ///
    /// The anomaly listed first: an endpoint out of range, a self-message,
    /// a zero-byte message, or a cell's second listing.
    pub fn from_messages(
        n: usize,
        messages: impl IntoIterator<Item = (NodeId, NodeId, u32)>,
    ) -> Result<Self, MatrixError> {
        assert!(n > 0, "matrix needs at least one node");
        // (row-major key, bytes), up to the first malformed message.
        let mut messages = messages.into_iter();
        let mut cells: Vec<(u64, u32)> = Vec::with_capacity(messages.size_hint().0);
        let mut com = CommMatrix::new(n);
        let fault = messages.try_for_each(|(src, dst, bytes)| {
            let (src, dst) = (src.index(), dst.index());
            if src >= n || dst >= n {
                return Err(MatrixError::OutOfRange { src, dst, n });
            } else if src == dst {
                return Err(MatrixError::SelfMessage { node: src });
            } else if bytes == 0 {
                return Err(MatrixError::ZeroBytes { src, dst });
            }
            com.offsets[src + 1] += 1;
            cells.push(((src as u64) << 32 | dst as u64, bytes));
            Ok(())
        });
        // A strictly row-major list (every encoder's) repeats no cell; any other
        // is ordered by (cell, position) to find the earliest second listing.
        if !cells.windows(2).all(|w| w[0].0 < w[1].0) {
            let mut order: Vec<usize> = (0..cells.len()).collect();
            order.sort_unstable_by_key(|&k| (cells[k].0, k));
            let same = |w: &[usize]| cells[w[0]].0 == cells[w[1]].0;
            if let Some(at) = order.windows(2).filter(|w| same(w)).map(|w| w[1]).min() {
                let (src, dst) = ((cells[at].0 >> 32) as usize, cells[at].0 as u32 as usize);
                return Err(MatrixError::Duplicate { src, dst });
            }
            cells = order.into_iter().map(|k| cells[k]).collect();
        }
        fault?;
        com.dst = cells.iter().map(|c| c.0 as u32).collect();
        com.bytes = cells.iter().map(|c| c.1).collect();
        for i in 0..n {
            com.offsets[i + 1] += com.offsets[i];
        }
        Ok(com)
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The index of `src -> dst` in table order (`Err`: its insertion point).
    #[inline]
    pub(crate) fn locate(&self, src: usize, dst: usize) -> Result<usize, usize> {
        assert!(src < self.n && dst < self.n, "node out of range");
        let start = self.offsets[src];
        let row = &self.dst[start..self.offsets[src + 1]];
        row.binary_search(&(dst as u32))
            .map(|k| start + k)
            .map_err(|k| start + k)
    }

    /// Message size from `src` to `dst` (0 = none): a search of row `src`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices, as [`set`](Self::set) does.
    #[inline]
    pub fn get(&self, src: usize, dst: usize) -> u32 {
        self.locate(src, dst).map_or(0, |k| self.bytes[k])
    }

    /// Set the message size from `src` to `dst`; `0` removes the message.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices or `src == dst` with `bytes > 0`.
    pub fn set(&mut self, src: usize, dst: usize, bytes: u32) {
        let found = self.locate(src, dst);
        assert!(src != dst || bytes == 0, "self-message at node {src}");
        match found {
            Ok(k) if bytes == 0 => {
                self.dst.remove(k);
                self.bytes.remove(k);
                self.offsets[src + 1..].iter_mut().for_each(|end| *end -= 1);
            }
            Ok(k) => self.bytes[k] = bytes,
            Err(k) if bytes > 0 => {
                self.dst.insert(k, dst as u32);
                self.bytes.insert(k, bytes);
                self.offsets[src + 1..].iter_mut().for_each(|end| *end += 1);
            }
            Err(_) => {}
        }
    }

    /// This matrix with `edits` (distinct cells, row-major; `0` removes) made
    /// in one merge walk that copies the runs of entries between them.
    pub(crate) fn edited(&self, edits: &[(NodeId, NodeId, u32)]) -> CommMatrix {
        let mut out = CommMatrix::new(self.n);
        out.dst.reserve(self.dst.len() + edits.len());
        out.bytes.reserve(self.dst.len() + edits.len());
        let (mut from, mut grown) = (0, vec![0isize; self.n]);
        for &(src, dst, bytes) in edits {
            let found = self.locate(src.index(), dst.index());
            let at = found.unwrap_or_else(|k| k);
            out.dst.extend_from_slice(&self.dst[from..at]);
            out.bytes.extend_from_slice(&self.bytes[from..at]);
            from = at + usize::from(found.is_ok());
            grown[src.index()] += isize::from(bytes > 0) - isize::from(found.is_ok());
            if bytes > 0 {
                out.dst.push(dst.0);
                out.bytes.push(bytes);
            }
        }
        out.dst.extend_from_slice(&self.dst[from..]);
        out.bytes.extend_from_slice(&self.bytes[from..]);
        for (i, grown) in grown.into_iter().enumerate() {
            out.offsets[i + 1] = (out.offsets[i] + self.out_degree(i)).wrapping_add_signed(grown);
        }
        out
    }

    /// Row `i` (node `i`'s send vector): destinations, ascending, and sizes.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[u32]) {
        let range = self.offsets[i]..self.offsets[i + 1];
        (&self.dst[range.clone()], &self.bytes[range])
    }

    /// The table: row bounds (`n + 1`), destinations and sizes.
    pub(crate) fn columns(&self) -> (&[usize], &[u32], &[u32]) {
        (&self.offsets, &self.dst, &self.bytes)
    }

    /// Iterate all messages as `(src, dst, bytes)` in table order.
    pub fn messages(&self) -> impl Iterator<Item = (NodeId, NodeId, u32)> + '_ {
        self.offsets
            .windows(2)
            .enumerate()
            .flat_map(move |(i, row)| {
                let range = row[0]..row[1];
                self.dst[range.clone()]
                    .iter()
                    .zip(&self.bytes[range])
                    .map(move |(&dst, &bytes)| (NodeId(i as u32), NodeId(dst), bytes))
            })
    }

    /// Total number of messages.
    pub fn message_count(&self) -> usize {
        self.dst.len()
    }

    /// Total bytes over all messages.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().map(|&b| b as u64).sum()
    }

    /// Heap bytes the table holds (its row bounds and message entries).
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>() + self.dst.len() * 8
    }

    /// Out-degree of node `i` (messages sent).
    pub fn out_degree(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// In-degree of node `j` (messages received): a scan of the table.
    pub fn in_degree(&self, j: usize) -> usize {
        self.dst.iter().filter(|&&d| d as usize == j).count()
    }

    /// The paper's *density* `d`: the maximum number of messages any node
    /// sends or receives. At least `d` permutations are needed to route
    /// everything (Assumption 3). Counted in one pass over the table.
    pub fn density(&self) -> usize {
        let mut inn = vec![0usize; self.n];
        self.dst.iter().for_each(|&d| inn[d as usize] += 1);
        let degree = |i: usize| self.out_degree(i).max(inn[i]);
        (0..self.n).map(degree).max().unwrap_or(0)
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
        let moved = self
            .messages()
            .map(|(src, dst, bytes)| (perm[src.index()], perm[dst.index()], bytes));
        CommMatrix::from_messages(self.n, moved).expect("a relabeling maps cells one to one")
    }

    /// Whether all messages share one size (the paper's experiments assume
    /// uniform sizes; [`crate::nonuniform`] lifts this).
    pub fn is_uniform(&self) -> bool {
        self.bytes.windows(2).all(|w| w[0] == w[1])
    }

    /// Whether the pattern is symmetric (`COM(i,j) > 0` iff `COM(j,i) > 0`);
    /// symmetric patterns let LP pair every message into an exchange.
    pub fn is_symmetric_pattern(&self) -> bool {
        self.messages()
            .all(|(src, dst, _)| self.get(dst.index(), src.index()) > 0)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MatrixDelta;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{RngExt, SeedableRng};

    fn sample() -> CommMatrix {
        let mut m = CommMatrix::new(4);
        m.set(0, 1, 100);
        m.set(0, 2, 100);
        m.set(1, 0, 50);
        m.set(3, 0, 100);
        m
    }

    /// Whether the table keeps its invariants: rows strictly ascending,
    /// off the diagonal, every size non-zero, the bounds consistent.
    fn is_well_formed(m: &CommMatrix) -> bool {
        m.offsets.len() == m.n + 1
            && m.offsets[m.n] == m.dst.len()
            && m.dst.len() == m.bytes.len()
            && (0..m.n).all(|i| {
                let (dst, bytes) = m.row(i);
                dst.windows(2).all(|w| w[0] < w[1])
                    && dst.iter().all(|&d| (d as usize) < m.n && d as usize != i)
                    && bytes.iter().all(|&b| b > 0)
            })
    }

    fn msg(src: u32, dst: u32, bytes: u32) -> (NodeId, NodeId, u32) {
        (NodeId(src), NodeId(dst), bytes)
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
    #[should_panic(expected = "node out of range")]
    fn get_rejects_an_out_of_range_destination() {
        // Row-major, `(0, n)` would be the cell `(1, 0)`.
        sample().get(0, 4);
    }

    #[test]
    fn from_messages_rejects_a_self_message() {
        let err = CommMatrix::from_messages(2, [msg(1, 1, 1)]).unwrap_err();
        assert_eq!(err, MatrixError::SelfMessage { node: 1 });
        assert_eq!(err.to_string(), "self-message at node 1");
    }

    #[test]
    fn from_messages_reports_the_earliest_anomaly() {
        let cases = [
            (
                vec![msg(0, 1, 5), msg(0, 9, 5)],
                "message endpoint 9 out of 4 nodes",
            ),
            (vec![msg(2, 3, 0)], "zero-byte message 2 -> 3"),
            (
                vec![msg(3, 2, 1), msg(0, 1, 1), msg(0, 1, 2), msg(3, 2, 2)],
                "duplicate message 0 -> 1",
            ),
            (
                vec![msg(3, 2, 1), msg(0, 1, 1), msg(3, 2, 2), msg(0, 1, 2)],
                "duplicate message 3 -> 2",
            ),
            (
                vec![msg(0, 1, 1), msg(0, 1, 1), msg(5, 5, 0)],
                "duplicate message 0 -> 1",
            ),
            (
                vec![msg(5, 5, 0), msg(0, 1, 1), msg(0, 1, 1)],
                "message endpoint 5 out of 4 nodes",
            ),
        ];
        for (messages, want) in cases {
            let err = CommMatrix::from_messages(4, messages).unwrap_err();
            assert_eq!(err.to_string(), want);
        }
        let shuffled = [
            msg(3, 0, 100),
            msg(0, 2, 100),
            msg(1, 0, 50),
            msg(0, 1, 100),
        ];
        assert_eq!(CommMatrix::from_messages(4, shuffled).unwrap(), sample());
    }

    #[test]
    fn zero_diagonal_set_is_allowed() {
        let mut m = CommMatrix::new(4);
        m.set(2, 2, 0); // a no-op, not an error
        assert_eq!(m.get(2, 2), 0);
    }

    #[test]
    fn setting_zero_removes_the_message() {
        let mut m = sample();
        m.set(0, 1, 0);
        m.set(2, 1, 0); // absent: a no-op
        assert_eq!(m.message_count(), 3);
        let mut expect = CommMatrix::new(4);
        expect.set(3, 0, 100);
        expect.set(1, 0, 50);
        expect.set(0, 2, 100);
        assert_eq!(m, expect);
        assert!(is_well_formed(&m));
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

    /// The matrix of every off-diagonal cell `weight` gives a size to.
    fn filled(n: usize, mut weight: impl FnMut(usize, usize) -> Option<u32>) -> CommMatrix {
        let cells = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j);
        let mut messages = Vec::new();
        for (i, j) in cells {
            if let Some(bytes) = weight(i, j) {
                messages.push(msg(i as u32, j as u32, bytes));
            }
        }
        CommMatrix::from_messages(n, messages).unwrap()
    }

    #[test]
    fn messages_equal_a_naive_double_loop_on_every_shape() {
        // 100 is `mesh:10x10`. Weights include 1 and `u32::MAX`.
        for n in [1usize, 8, 63, 64, 65, 100, 256] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            assert_walk_matches(&CommMatrix::new(n), "empty");
            let full = filled(n, |i, j| Some(if (i + j) % 2 == 0 { 1 } else { u32::MAX }));
            assert_walk_matches(&full, "full off-diagonal");
            // Circulant: each node sends to its next 8 neighbours.
            let regular = filled(n, |i, j| ((j + n - i) % n <= 8).then_some(1024));
            assert_walk_matches(&regular, "d-regular");
            let dense = filled(n, |_, _| {
                rng.random_bool(0.5).then(|| rng.random_range(1..=u32::MAX))
            });
            assert_walk_matches(&dense, "dense");
            // Two popular receivers and one node that sends to all.
            let hot = filled(n, |i, j| (j < 2 || i == n / 2).then_some(256));
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
            let fill = [0.01, 0.1, 0.5, 0.9][case % 4];
            let whole: Vec<bool> = (0..n).map(|_| rng.random_bool(0.05)).collect();
            let mut m = filled(n, |i, _| {
                (whole[i] || rng.random_bool(fill)).then(|| rng.random_range(1..=u32::MAX))
            });
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
        assert_eq!(m.row(0), (&[1, 2][..], &[100, 100][..]));
        assert_eq!(m.row(2), (&[][..], &[][..]));
    }

    /// The dense `n × n` layout the table replaced, as a reference.
    #[derive(Clone)]
    struct Dense {
        n: usize,
        cells: Vec<u32>,
    }

    impl Dense {
        fn messages(&self) -> Vec<(NodeId, NodeId, u32)> {
            (0..self.n * self.n)
                .filter(|&c| self.cells[c] > 0)
                .map(|c| msg((c / self.n) as u32, (c % self.n) as u32, self.cells[c]))
                .collect()
        }

        fn density(&self) -> usize {
            (0..self.n)
                .map(|i| {
                    let row = &self.cells[i * self.n..(i + 1) * self.n];
                    let out = row.iter().filter(|&&b| b > 0).count();
                    let inn = (0..self.n)
                        .filter(|&s| self.cells[s * self.n + i] > 0)
                        .count();
                    out.max(inn)
                })
                .max()
                .unwrap_or(0)
        }

        /// `(added, removed, resized)` from `self` to `target`, row-major.
        fn diff(&self, target: &Dense) -> [Vec<(NodeId, NodeId, u32)>; 3] {
            let mut lists: [Vec<_>; 3] = Default::default();
            for c in 0..self.n * self.n {
                let (old, new) = (self.cells[c], target.cells[c]);
                let m = msg((c / self.n) as u32, (c % self.n) as u32, new);
                match (old, new) {
                    (a, b) if a == b => {}
                    (0, _) => lists[0].push(m),
                    (_, 0) => lists[1].push(m),
                    _ => lists[2].push(m),
                }
            }
            lists
        }
    }

    fn assert_same(csr: &CommMatrix, dense: &Dense, what: &str) {
        let messages = dense.messages();
        assert_eq!(csr.messages().collect::<Vec<_>>(), messages, "{what}");
        assert_eq!(csr.message_count(), messages.len(), "{what}");
        let total: u64 = messages.iter().map(|m| u64::from(m.2)).sum();
        assert_eq!(csr.total_bytes(), total, "{what}");
        assert_eq!(csr.density(), dense.density(), "{what}");
        assert!(is_well_formed(csr), "{what}");
    }

    #[test]
    fn differential_csr_matches_a_dense_oracle() {
        for n in [1usize, 2, 63, 64, 65, 100] {
            let mut rng = StdRng::seed_from_u64(0xC5 ^ n as u64);
            let mut csr = CommMatrix::new(n);
            let mut dense = Dense {
                n,
                cells: vec![0; n * n],
            };
            for step in 0..400 {
                let what = format!("n = {n}, step {step}");
                let (before, before_dense) = (csr.clone(), dense.clone());
                let (s, d) = (rng.random_range(0..n), rng.random_range(0..n));
                match rng.random_range(0..4) {
                    // Remove a message that exists, when one does.
                    0 if csr.message_count() > 0 => {
                        let k = rng.random_range(0..csr.message_count());
                        let (src, dst, _) = csr.messages().nth(k).unwrap();
                        csr.set(src.index(), dst.index(), 0);
                        dense.cells[src.index() * n + dst.index()] = 0;
                    }
                    // Point lookups, the diagonal included.
                    1 => assert_eq!(csr.get(s, d), dense.cells[s * n + d], "{what}"),
                    // Set (or, on the diagonal, clear) a cell.
                    _ => {
                        let bytes = if s == d {
                            0
                        } else {
                            rng.random_range(0..=3u32)
                        };
                        let bytes = if bytes == 3 { u32::MAX } else { bytes };
                        csr.set(s, d, bytes);
                        dense.cells[s * n + d] = bytes;
                    }
                }
                assert_same(&csr, &dense, &what);
                let delta = MatrixDelta::diff(&before, &csr).unwrap();
                let [added, removed, resized] = before_dense.diff(&dense);
                let removed: Vec<_> = removed.iter().map(|&(s, d, _)| (s, d)).collect();
                assert_eq!(delta.added(), added, "{what}");
                assert_eq!(delta.removed(), removed, "{what}");
                assert_eq!(delta.resized(), resized, "{what}");
                assert_eq!(delta.apply(&before).unwrap(), csr, "{what}");
                let mut shuffled: Vec<_> = csr.messages().collect();
                shuffled.shuffle(&mut rng);
                assert_eq!(
                    CommMatrix::from_messages(n, shuffled).unwrap(),
                    csr,
                    "{what}"
                );
            }
        }
    }
}
