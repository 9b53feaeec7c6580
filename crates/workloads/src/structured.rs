//! Structured (regular) communication patterns classically studied on
//! hypercubes; useful as baselines and stress cases for the schedulers.

use commsched::CommMatrix;
use hypercube::{perm, NodeId, Topology};

use crate::uniform;

/// Matrix transpose: node `i` of an implicit `sqrt(n) x sqrt(n)` grid sends
/// to its transposed peer.
///
/// # Panics
///
/// Panics unless `n` is a perfect square or `bytes == 0`.
pub fn transpose(n: usize, bytes: u32) -> CommMatrix {
    let side = (n as f64).sqrt() as usize;
    assert_eq!(side * side, n, "transpose needs a square node count");
    assert!(bytes > 0);
    let cells = (0..n).map(|src| (src, src % side * side + src / side));
    uniform(n, bytes, cells.filter(|&(src, dst)| src != dst))
}

/// Cyclic shift by `k`: node `i` sends to `(i + k) mod n`.
///
/// # Panics
///
/// Panics if `k % n == 0` (that would be a self-send) or `bytes == 0`.
pub fn shift(n: usize, k: usize, bytes: u32) -> CommMatrix {
    assert!(
        !k.is_multiple_of(n),
        "shift by a multiple of n is a self-send"
    );
    assert!(bytes > 0);
    uniform(n, bytes, (0..n).map(|i| (i, (i + k) % n)))
}

/// Bit-reverse permutation traffic — a known worst case for e-cube routing
/// (heavy link contention when launched all at once).
///
/// # Panics
///
/// Panics unless `n` is a power of two.
pub fn bit_reverse(n: usize, bytes: u32) -> CommMatrix {
    assert!(bytes > 0);
    let cells = perm::bit_reverse(n)
        .into_iter()
        .map(NodeId::index)
        .enumerate();
    uniform(n, bytes, cells.filter(|&(i, d)| i != d))
}

/// Bit-complement permutation — the classic link-contention-free hypercube
/// permutation (every message crosses all dimensions).
///
/// # Panics
///
/// Panics unless `n` is a power of two.
pub fn bit_complement(n: usize, bytes: u32) -> CommMatrix {
    assert!(bytes > 0);
    let cells = perm::bit_complement(n).into_iter().map(NodeId::index);
    uniform(n, bytes, cells.enumerate())
}

/// Complete exchange (all-to-all personalized): everyone messages everyone.
/// Density `n - 1` — the heaviest pattern, where LP shines.
pub fn all_to_all(n: usize, bytes: u32) -> CommMatrix {
    assert!(bytes > 0);
    let cells = (0..n).flat_map(|i| (0..n).map(move |j| (i, j)));
    uniform(n, bytes, cells.filter(|&(i, j)| i != j))
}

/// Symmetric ring halo: node `i` exchanges with `i±1 .. i±w` (mod n) —
/// density `2w`, fully pairable into exchanges.
///
/// # Panics
///
/// Panics if `2 * w >= n` or `bytes == 0`.
pub fn ring_halo(n: usize, w: usize, bytes: u32) -> CommMatrix {
    assert!(2 * w < n, "halo width {w} too large for {n} nodes");
    assert!(bytes > 0);
    let cells =
        (0..n).flat_map(|i| (1..=w).flat_map(move |k| [(i, (i + k) % n), (i, (i + n - k) % n)]));
    uniform(n, bytes, cells)
}

/// Torus nearest-neighbour halo: every node exchanges with its ±1 ring
/// neighbour in each dimension of the `extents` torus — the wraparound
/// stencil traffic of a domain-decomposed grid code (the QCDSP workload).
/// Density is `2·ndims` (less where a 2-ring folds both directions onto
/// one neighbour). Node numbering matches [`topo::Torus`].
///
/// # Panics
///
/// Panics on invalid torus extents (see [`topo::Torus::new`]) or
/// `bytes == 0`.
pub fn torus_halo(extents: &[usize], bytes: u32) -> CommMatrix {
    torus_neighborhood(extents, 1, bytes)
}

/// Torus neighbourhood of width `w`: every node exchanges with the nodes
/// up to `w` steps away along each axis (both directions, wrapping) — the
/// axis-aligned generalization of [`ring_halo`] to k-ary n-cubes.
/// Self-sends that arise when `2w` reaches an extent are skipped.
///
/// # Panics
///
/// Panics on invalid torus extents, `w == 0`, or `bytes == 0`.
pub fn torus_neighborhood(extents: &[usize], w: usize, bytes: u32) -> CommMatrix {
    assert!(w > 0, "neighbourhood width must be positive");
    assert!(bytes > 0);
    let torus = topo::Torus::new(extents);
    let n = torus.num_nodes();
    let mut cells = Vec::new();
    for i in 0..n {
        let (node, row) = (NodeId(i as u32), cells.len());
        for dim in 0..torus.ndims() {
            for dir in 0..2u32 {
                let mut cur = node;
                for _ in 0..w {
                    cur = torus.neighbor(cur, dim, dir);
                    // A short ring reaches one neighbour both ways.
                    if cur != node && !cells[row..].contains(&(i, cur.index())) {
                        cells.push((i, cur.index()));
                    }
                }
            }
        }
    }
    uniform(n, bytes, cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_is_an_involution_pattern() {
        let com = transpose(16, 64);
        for (s, d, _) in com.messages() {
            assert!(com.get(d.index(), s.index()) > 0);
        }
        // Grid-diagonal blocks ((r, r) positions, e.g. nodes 0 and 5 on the
        // 4x4 grid) send nothing; off-diagonal blocks send exactly once.
        assert_eq!(com.out_degree(0), 0);
        assert_eq!(com.out_degree(5), 0);
        assert_eq!(com.out_degree(1), 1);
        assert!(com.is_symmetric_pattern());
    }

    #[test]
    #[should_panic(expected = "square")]
    fn transpose_rejects_non_square() {
        transpose(12, 64);
    }

    #[test]
    fn torus_halo_is_symmetric_with_2ndims_density() {
        let com = torus_halo(&[4, 4, 4], 256);
        assert_eq!(com.n(), 64);
        assert!(com.is_symmetric_pattern());
        for i in 0..64 {
            assert_eq!(com.out_degree(i), 6, "node {i}");
        }
    }

    #[test]
    fn torus_halo_folds_on_2_rings() {
        // On a 2-ring both directions reach the same neighbour: density 3,
        // not 4, on a 2x4 torus's first dimension.
        let com = torus_halo(&[2, 4], 64);
        assert!(com.is_symmetric_pattern());
        for i in 0..8 {
            assert_eq!(com.out_degree(i), 3, "node {i}");
        }
    }

    #[test]
    fn torus_neighborhood_widens_and_skips_self() {
        let com = torus_neighborhood(&[4, 4], 2, 128);
        assert!(com.is_symmetric_pattern());
        // w=2 on a 4-ring reaches ±1 and ±2; ±2 coincide (distance k/2),
        // so each dimension contributes 3 neighbours.
        for i in 0..16 {
            assert_eq!(com.out_degree(i), 6, "node {i}");
        }
        // Width big enough to lap the ring never self-sends.
        let lapped = torus_neighborhood(&[2, 2], 3, 16);
        for (s, d, _) in lapped.messages() {
            assert_ne!(s, d);
        }
    }

    #[test]
    fn shift_density_one() {
        let com = shift(64, 7, 128);
        assert_eq!(com.density(), 1);
        assert_eq!(com.message_count(), 64);
    }

    #[test]
    #[should_panic(expected = "self-send")]
    fn shift_rejects_zero() {
        shift(8, 8, 1);
    }

    #[test]
    fn bit_patterns_are_permutations() {
        for com in [bit_reverse(32, 8), bit_complement(32, 8)] {
            for j in 0..32 {
                assert!(com.in_degree(j) <= 1);
            }
            assert_eq!(com.density(), 1);
        }
        // Bit reverse fixes palindromic addresses; complement fixes none.
        assert_eq!(bit_complement(32, 8).message_count(), 32);
        assert!(bit_reverse(32, 8).message_count() < 32);
    }

    #[test]
    fn all_to_all_density() {
        let com = all_to_all(16, 4);
        assert_eq!(com.density(), 15);
        assert_eq!(com.message_count(), 16 * 15);
    }

    #[test]
    fn ring_halo_is_symmetric_with_density_2w() {
        let com = ring_halo(64, 3, 256);
        assert!(com.is_symmetric_pattern());
        assert_eq!(com.density(), 6);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn ring_halo_width_bound() {
        ring_halo(8, 4, 1);
    }
}
