//! Special permutation classes with known contention properties.
//!
//! The LP algorithm (Section 4.1 of the paper) schedules phase `k` as the
//! *XOR permutation* `i -> i XOR k`. Under e-cube routing on the hypercube,
//! every XOR permutation is **link-contention-free**: all `n` circuits of a
//! phase are pairwise link-disjoint (a classic result the paper cites to
//! [3, 13]; [`xor_permutation_is_link_free`] re-verifies it exhaustively in
//! tests). The bit-complement permutation is the special case `k = n - 1`.

use crate::{NodeId, Topology};

/// The XOR (linear) permutation `i -> i ^ k` over `n` nodes.
///
/// Returns the full destination vector. For `k = 0` this is the identity
/// (every node "sends" to itself, i.e. no traffic).
///
/// # Panics
///
/// Panics if `n` is not a power of two or `k >= n`.
pub fn xor_permutation(n: usize, k: usize) -> Vec<NodeId> {
    assert!(n.is_power_of_two(), "XOR permutations need power-of-two n");
    assert!(k < n, "phase index {k} out of range for n={n}");
    (0..n).map(|i| NodeId((i ^ k) as u32)).collect()
}

/// The bit-complement permutation `i -> !i (mod n)`.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
pub fn bit_complement(n: usize) -> Vec<NodeId> {
    xor_permutation(n, n - 1)
}

/// The bit-reverse permutation over `n = 2^d` nodes (a classically *bad*
/// permutation for e-cube: many circuits collide). Used by workloads and
/// ablation benches as a contention stress case.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
pub fn bit_reverse(n: usize) -> Vec<NodeId> {
    assert!(n.is_power_of_two(), "bit reverse needs power-of-two n");
    let bits = n.trailing_zeros();
    (0..n)
        .map(|i| NodeId(((i as u32).reverse_bits() >> (32 - bits)) & (n as u32 - 1)))
        .collect()
}

/// Check whether a (partial) permutation is link-contention-free on the
/// given topology: no two circuits of the phase share a directed channel.
///
/// `pairs` lists the phase's `(src, dst)` circuits.
pub fn is_link_free<T: Topology + ?Sized>(
    topo: &T,
    pairs: impl IntoIterator<Item = (NodeId, NodeId)>,
) -> bool {
    let mut claimed = vec![false; topo.link_count()];
    let mut route = Vec::with_capacity(topo.diameter());
    for (src, dst) in pairs {
        topo.route_into(src, dst, &mut route);
        for link in &route {
            if claimed[link.index()] {
                return false;
            }
            claimed[link.index()] = true;
        }
    }
    true
}

/// Check whether every XOR permutation phase on `topo` is link-free.
/// (True for hypercubes with e-cube routing; false in general for meshes.)
pub fn xor_permutation_is_link_free<T: Topology>(topo: &T, k: usize) -> bool {
    let n = topo.num_nodes() as u32;
    is_link_free(topo, (0..n).map(|i| (NodeId(i), NodeId(i ^ k as u32))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Hypercube;

    #[test]
    fn xor_perm_is_an_involution() {
        let p = xor_permutation(64, 21);
        for (i, d) in p.iter().enumerate() {
            assert_eq!(p[d.index()], NodeId(i as u32));
        }
    }

    #[test]
    fn every_xor_phase_is_link_free_on_the_cube() {
        // The key property LP relies on, verified exhaustively for the
        // paper's 64-node machine: all 63 non-trivial phases are
        // contention-free under e-cube.
        let cube = Hypercube::new(6);
        for k in 0..64 {
            assert!(xor_permutation_is_link_free(&cube, k), "phase {k}");
        }
    }

    #[test]
    fn xor_phases_link_free_on_smaller_cubes() {
        for dims in 1..=5 {
            let cube = Hypercube::new(dims);
            for k in 0..cube.num_nodes() {
                assert!(xor_permutation_is_link_free(&cube, k));
            }
        }
    }

    #[test]
    fn bit_complement_is_xor_with_all_ones() {
        assert_eq!(bit_complement(8), xor_permutation(8, 7));
    }

    #[test]
    fn bit_reverse_is_a_permutation() {
        let p = bit_reverse(64);
        let mut seen = [false; 64];
        for d in &p {
            assert!(!seen[d.index()]);
            seen[d.index()] = true;
        }
        // And it is self-inverse.
        for (i, d) in p.iter().enumerate() {
            assert_eq!(p[d.index()], NodeId(i as u32));
        }
    }

    #[test]
    fn bit_reverse_contends_on_the_cube() {
        // Sanity check that our "bad permutation" really is bad: bit
        // reversal under e-cube has link conflicts on cubes of dim >= 3.
        let cube = Hypercube::new(6);
        let pairs = bit_reverse(64).into_iter().enumerate();
        assert!(!is_link_free(
            &cube,
            pairs.map(|(i, d)| (NodeId(i as u32), d))
        ));
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn xor_perm_rejects_non_power_of_two() {
        xor_permutation(12, 3);
    }

    #[test]
    fn identity_phase_is_trivially_link_free() {
        let cube = Hypercube::new(4);
        assert!(xor_permutation_is_link_free(&cube, 0));
    }
}
