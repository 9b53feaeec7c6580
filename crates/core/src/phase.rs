use hypercube::{NodeId, Topology};

use crate::matrix::assert_permutation;
use crate::PathsTable;

/// The destination word of a node that is silent in a phase — the paper's
/// `pm_i = -1`. Every other word is a node index below `n`.
pub const SILENT: u32 = u32::MAX;

/// One communication phase: a **partial permutation** `pm`, as a borrowed
/// `Copy` view of one row of a [`crate::Schedule`]'s phase table. Word `i`
/// is `pm_i`: where node `i` sends its pending message in this phase, or
/// [`SILENT`] where the paper writes `pm_i = -1`.
///
/// The defining property (Section 2) is injectivity: no two senders target
/// the same receiver, so every node sends at most one and receives at most
/// one message — no *node contention*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartialPermutation<'a> {
    words: &'a [u32],
}

impl<'a> PartialPermutation<'a> {
    /// The phase whose destination words are `words` (one per node).
    pub fn from_words(words: &'a [u32]) -> Self {
        PartialPermutation { words }
    }

    /// The destination words, [`SILENT`] for a silent node.
    pub fn words(self) -> &'a [u32] {
        self.words
    }

    /// Destination of node `i` in this phase.
    #[inline]
    pub fn dest(self, i: usize) -> Option<NodeId> {
        let w = self.words[i];
        (w != SILENT).then_some(NodeId(w))
    }

    /// Iterate `(src, dst)` pairs of the phase.
    pub fn pairs(self) -> impl Iterator<Item = (NodeId, NodeId)> + 'a {
        self.words
            .iter()
            .enumerate()
            .filter(|(_, &w)| w != SILENT)
            .map(|(i, &w)| (NodeId(i as u32), NodeId(w)))
    }

    /// Number of messages in the phase.
    pub fn len(self) -> usize {
        self.words.iter().filter(|&&w| w != SILENT).count()
    }

    /// Whether the phase carries no messages.
    pub fn is_empty(self) -> bool {
        self.words.iter().all(|&w| w == SILENT)
    }

    /// Check the partial-permutation property: distinct senders have
    /// distinct receivers, and nobody sends to itself.
    pub fn is_partial_permutation(self) -> bool {
        let mut seen = vec![false; self.words.len()];
        for (src, dst) in self.pairs() {
            if src == dst || seen[dst.index()] {
                return false;
            }
            seen[dst.index()] = true;
        }
        true
    }

    /// Whether `i <-> j` form a reciprocal (pairwise-exchange) pair in this
    /// phase: `pm[i] = j` and `pm[j] = i`. The runtime fuses such pairs
    /// into concurrent bidirectional exchanges on the iPSC/860.
    pub fn is_exchange_pair(self, i: NodeId) -> bool {
        match self.words[i.index()] {
            SILENT => false,
            j => self.words[j as usize] == i.0,
        }
    }

    /// Count reciprocal pairs (each pair counted once).
    pub fn exchange_pairs(self) -> usize {
        self.pairs()
            .filter(|&(src, dst)| src.0 < dst.0 && self.words[dst.index()] == src.0)
            .count()
    }

    /// The phase's words under a node relabeling: message `i -> j` becomes
    /// `perm[i] -> perm[j]`. With `perm` a topology automorphism (e.g. an
    /// XOR translation of the hypercube) this preserves hop counts,
    /// link-disjointness, and exchange structure — the metamorphic
    /// invariant `tests/registry_properties.rs` exercises.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..n`.
    pub fn relabeled(self, perm: &[NodeId]) -> Vec<u32> {
        assert_permutation(perm, self.words.len());
        let mut out = vec![SILENT; perm.len()];
        for (src, dst) in self.pairs() {
            out[perm[src.index()].index()] = perm[dst.index()].0;
        }
        out
    }

    /// Whether all circuits of this phase are pairwise link-disjoint on
    /// `topo` — the *link contention freedom* RS_NL and LP guarantee.
    pub fn is_link_free<T: Topology + ?Sized>(self, topo: &T) -> bool {
        self.is_link_free_in(topo, &mut PathsTable::new(topo), &mut Vec::new())
    }

    /// [`PartialPermutation::is_link_free`] on a caller's reservation table
    /// (cleared by its generation stamp) and route buffer, reused across
    /// phases.
    pub fn is_link_free_in<T: Topology + ?Sized>(
        self,
        topo: &T,
        paths: &mut PathsTable,
        route: &mut Vec<hypercube::LinkId>,
    ) -> bool {
        paths.clear();
        for (src, dst) in self.pairs() {
            topo.route_into(src, dst, route);
            if !paths.claim_each(route) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypercube::Hypercube;

    const S: u32 = SILENT;

    fn row(n: usize, pairs: &[(u32, u32)]) -> Vec<u32> {
        let mut words = vec![SILENT; n];
        for &(s, d) in pairs {
            words[s as usize] = d;
        }
        words
    }

    #[test]
    fn assign_and_query() {
        let silent = row(4, &[]);
        assert!(PartialPermutation::from_words(&silent).is_empty());
        let words = row(4, &[(0, 2), (2, 0)]);
        let pm = PartialPermutation::from_words(&words);
        assert_eq!(pm.len(), 2);
        assert_eq!(pm.dest(0), Some(NodeId(2)));
        assert_eq!(pm.dest(1), None);
        assert!(pm.is_partial_permutation());
        assert_eq!(
            pm.pairs().collect::<Vec<_>>(),
            [(NodeId(0), NodeId(2)), (NodeId(2), NodeId(0))]
        );
    }

    #[test]
    fn node_contention_detected() {
        // Two senders, one receiver: NOT a partial permutation.
        let pm = PartialPermutation::from_words(&[2, 2, S, S]);
        assert!(!pm.is_partial_permutation());
    }

    #[test]
    fn self_send_detected() {
        let pm = PartialPermutation::from_words(&[0, S]);
        assert!(!pm.is_partial_permutation());
    }

    #[test]
    fn exchange_pairs_counted_once() {
        let words = row(6, &[(0, 3), (3, 0), (1, 2)]); // 1 -> 2 is one-way
        let pm = PartialPermutation::from_words(&words);
        assert_eq!(pm.exchange_pairs(), 1);
        assert!(pm.is_exchange_pair(NodeId(0)));
        assert!(pm.is_exchange_pair(NodeId(3)));
        assert!(!pm.is_exchange_pair(NodeId(1)));
        assert!(!pm.is_exchange_pair(NodeId(4)));
    }

    #[test]
    fn relabeling_moves_both_endpoints() {
        let words = row(4, &[(0, 1), (2, 3)]);
        let perm = [NodeId(3), NodeId(2), NodeId(1), NodeId(0)];
        let moved = PartialPermutation::from_words(&words).relabeled(&perm);
        assert_eq!(moved, row(4, &[(3, 2), (1, 0)]));
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn relabeling_needs_a_permutation() {
        let words = row(2, &[(0, 1)]);
        PartialPermutation::from_words(&words).relabeled(&[NodeId(1), NodeId(1)]);
    }

    #[test]
    fn link_freedom_on_cube() {
        let cube = Hypercube::new(3);
        // XOR-by-1 pairs: link free.
        let xor1: Vec<u32> = (0..8u32).map(|i| i ^ 1).collect();
        assert!(PartialPermutation::from_words(&xor1).is_link_free(&cube));
        // e-cube 0 -> 3 claims (0,d0),(1,d1); 1 -> 7 claims (1,d1),(3,d2):
        // node-disjoint, but both circuits cross (1,d1).
        let words = row(8, &[(0, 3), (1, 7)]);
        let pm = PartialPermutation::from_words(&words);
        assert!(pm.is_partial_permutation());
        assert!(!pm.is_link_free(&cube));
        // One table serves many phases: a conflict does not leak into the
        // next check.
        let mut paths = PathsTable::new(&cube);
        let mut route = Vec::new();
        assert!(!pm.is_link_free_in(&cube, &mut paths, &mut route));
        let x = PartialPermutation::from_words(&xor1);
        assert!(x.is_link_free_in(&cube, &mut paths, &mut route));
    }
}
